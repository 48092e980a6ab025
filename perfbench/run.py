"""qauthsim benchmark: seeded Monte Carlo workloads through the public harness.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; qauthsim is imported from ``src/`` there.
Each pass runs every scenario of the workload once with a fresh seed, as
``qauthsim run`` does: ``load_scenario`` (once, at set-up), then
``run_scenario`` and ``emit_report`` to a file.  Passes repeat until
``--seconds`` have gone by.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the same seeds, checks that both give the
same output bytes, and reports per-layer self times and counters from the
traced passes.  Every run checks the outputs (see gate.py), renders the
first pass twice to check that output is byte-identical, and runs the CLI
on one scenario.  The last line of stdout is one JSON object; the exit
code is 1 when any check failed and 2 when the benchmark cannot start.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from enum import Enum

import gate
import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_RUNS = 11  # fresh interpreters per run; set-up time is their median
KEEP_SPANS = 20000  # raw spans written out per traced run


# Reference loops per second on the baseline machine (see README).
REF_HZ = 300.0


class _Basis(Enum):
    RECTILINEAR = "rectilinear"
    DIAGONAL = "diagonal"


class _Slot:
    __slots__ = ("position", "amps", "basis")

    def __init__(self, position: int, amps: list, basis: _Basis) -> None:
        self.position = position
        self.amps = amps
        self.basis = basis


def machine_speed() -> float:
    """Speed of this host right now relative to the baseline machine.

    Times a fixed stdlib-only imitation of a session's mix of work: Born
    draws over short complex lists held by slotted objects, a JSON slot
    layout sealed and opened with a SHA-256 keystream, an event-log digest
    and CSV rows.  Load from other tenants of a shared host slows it and
    qauthsim alike, so dividing a rate by this speed removes most of the
    drift between runs.  No change to qauthsim can move it.
    """
    rng = random.Random(12345)
    key = bytes(16)
    start = time.perf_counter()
    for _ in range(12):
        slots = [_Slot(pos, [complex(rng.random(), 0.0) for _ in range(4)],
                       _Basis.DIAGONAL if rng.getrandbits(1)
                       else _Basis.RECTILINEAR)
                 for pos in range(24)]
        bits = []
        for slot in slots:
            p_zero = sum(a.real * a.real + a.imag * a.imag
                         for a in slot.amps[:2])
            total = sum(a.real * a.real + a.imag * a.imag for a in slot.amps)
            bits.append(0 if rng.random() * total < p_zero else 1)
            slot.amps = [a / total for a in slot.amps]
        layout = json.dumps({"positions": [s.position for s in slots],
                             "bases": [s.basis.value for s in slots]},
                            sort_keys=True).encode()
        stream = b"".join(hashlib.sha256(key + b"|%d" % c).digest()
                          for c in range(len(layout) // 32 + 1))
        sealed = bytes(x ^ y for x, y in zip(layout, stream))
        json.loads(bytes(x ^ y for x, y in zip(sealed, stream)))
        log = [f"4\talice\tpos={s.position} bit={b}"
               for s, b in zip(slots, bits)]
        hashlib.sha256("\n".join(log).encode()).hexdigest()
        writer = csv.writer(io.StringIO(), lineterminator="\n")
        for slot, bit in zip(slots, bits):
            writer.writerow([slot.position, bit, "%.17g" % slot.amps[0].real])
    return 1.0 / (time.perf_counter() - start) / REF_HZ


def harmonic(a: float, b: float) -> float:
    return 2.0 / (1.0 / a + 1.0 / b)


def import_qauthsim():
    sys.path.insert(0, SRC)
    from qauthsim import cli, harness

    return harness, cli


def describe(samples: list[float], higher_is_better: bool) -> str:
    """Sample count and the worst-side percentile with at least ten samples
    beyond it: the slow tail, which is low for a rate and high for a time."""
    n = len(samples)
    if n <= 10:
        return f"n={n}"
    ordered = sorted(samples)
    pct = 100 * (n - 10) // n
    if higher_is_better:
        return f"n={n} p{100 - pct}={ordered[10]:.6g}"
    return f"n={n} p{pct}={ordered[n - 11]:.6g}"


class Bench:
    def __init__(self, args, workdir: str) -> None:
        self.args = args
        self.workdir = workdir
        self.gate = gate.Gate()
        self.attempted = 0
        self.failed_ops: set[tuple[int, str, bool]] = set()
        self.run_failures: list[str] = []
        self.labels: list[str] = []
        self.files: list[str] = []
        self.paths: list[str] = []
        self.specs: list = []
        self.notes: list[str] = []
        self.lines: list[str] = []  # human-readable report, metric by metric

    # --- set-up ----------------------------------------------------------

    def write_scenarios(self) -> None:
        for i, (label, text) in enumerate(
                workloads.scenarios(self.args.workload, self.args.seed)):
            path = os.path.join(self.workdir, f"scenario-{i:02d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.labels.append(label)
            self.files.append(path)
            self.paths.append(os.path.join(self.workdir, f"report-{i:02d}"))

    def load(self) -> None:
        for path in self.files:
            with open(path, encoding="utf-8") as fh:
                self.specs.append(self.harness.load_scenario(fh.read()))
        for spec in self.specs:
            self.harness.analytic_predictions(spec)
        if not self.harness.verify_tables().ok:
            self.run_failures.append("verify_tables: graded table mismatch")

    def warm_up(self) -> None:
        for spec in self.specs:
            self.harness.run_scenario(dataclasses.replace(spec, trials=1))

    def setup_times(self) -> tuple[list[float], list[float]]:
        """Set-up seconds of each fresh probe, and the reference speed
        measured around it."""
        probe = os.path.join(HERE, "setup_probe.py")
        times = []
        speeds = []
        for _ in range(SETUP_RUNS):
            before = machine_speed()
            proc = subprocess.run([sys.executable, "-I", probe, SRC,
                                   *self.files],
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=60)
            speed = harmonic(before, machine_speed())
            word, _, value = proc.stdout.partition(" ")
            if proc.returncode != 0 or word != "ready":
                self.run_failures.append("set-up probe failed")
                return [1.0], [1.0]
            times.append(float(value))
            speeds.append(speed)
        return times, speeds

    # --- passes ----------------------------------------------------------

    def run_pass(self, index: int, traced: bool) -> dict:
        """One round-robin pass; returns timings, output digest and reports."""
        seed = workloads.pass_seed(self.args.seed, index)
        harness = self.harness
        digest = hashlib.sha256()
        reports = []
        run_s = 0.0
        sessions = 0
        start = time.perf_counter()
        for label, spec, path in zip(self.labels, self.specs, self.paths):
            self.attempted += 1
            spec = dataclasses.replace(spec, seed=seed)
            try:
                t0 = time.perf_counter()
                report = harness.run_scenario(spec)
                run_s += time.perf_counter() - t0
                text = harness.emit_report(report, spec.out_format, path)
            except Exception as exc:  # a raising scenario is a failed operation
                self.fail_op(index, label, traced, f"raised {exc!r}")
                continue
            sessions += spec.trials
            digest.update(text.encode())
            reports.append((label, spec, report, text))
        wall = time.perf_counter() - start
        return {"wall": wall, "run_s": run_s, "sessions": sessions,
                "digest": digest.hexdigest(), "reports": reports}

    def fail_op(self, index: int, label: str, traced: bool, why: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(f"pass {index} {label}: {why}")
        self.failed_ops.add((index, label, traced))

    def check_pass(self, index: int, record: dict) -> None:
        for label, spec, report, _ in record["reports"]:
            problems = self.gate.check_pass(label, report)
            if spec.p_loss > 0.0:
                problems += self.check_loss(label, spec, report)
            for why in problems:
                self.fail_op(index, label, False, why)

    def check_loss(self, label: str, spec, report) -> list[str]:
        statuses = [t.status for t in report.trial_results]
        lost = statuses.count("incomplete_stream")
        cfg = spec.session
        self.gate.pool(label, "incomplete_stream_rate",
                       gate.lost_stream_prob(cfg.k, cfg.d, spec.p_loss),
                       lost, len(statuses))
        if spec.attack is None:
            wrong = [s for s in statuses
                     if s not in ("incomplete_stream", "auth_accept")]
            if wrong:
                return [f"honest complete session ended {wrong[0]}"]
        return []

    # --- run-level checks ------------------------------------------------

    def determinism(self, first_texts: list[str]) -> tuple[str, bytes]:
        """Render pass 0 twice in both formats; returns the output digest
        and the CSV bytes of the first scenario."""
        harness = self.harness
        seed = workloads.pass_seed(self.args.seed, 0)
        digest = hashlib.sha256()
        first_csv = b""
        for i, spec in enumerate(self.specs):
            spec = dataclasses.replace(spec, seed=seed)
            renders = []
            for _ in range(2):
                report = harness.run_scenario(spec)
                renders.append((harness.render_report(report, "csv"),
                                harness.render_report(report, "json")))
            if renders[0] != renders[1]:
                self.run_failures.append(
                    f"determinism: {self.labels[i]} rendered differently")
            if i < len(first_texts) and renders[0][1] != first_texts[i]:
                self.run_failures.append(
                    f"determinism: {self.labels[i]} differs from pass 0")
            csv_text, json_text = renders[0]
            digest.update(csv_text.encode())
            digest.update(json_text.encode())
            if i == 0:
                first_csv = csv_text.encode()
        return digest.hexdigest(), first_csv

    def cli_smoke(self, expected_csv: bytes) -> float:
        out = os.path.join(self.workdir, "cli.csv")
        argv = ["run", self.files[0], "--format", "csv", "--out", out]
        with contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            code = self.cli.main(argv)
            elapsed = time.perf_counter() - start
        if code != 0:
            self.run_failures.append(f"cli run exited {code}")
        else:
            with open(out, "rb") as fh:
                if fh.read() != expected_csv:
                    self.run_failures.append("cli output differs from harness")
        return elapsed

    # --- the run ---------------------------------------------------------

    def run(self) -> dict:
        tracing = self.args.trace == 1
        self.write_scenarios()
        # the set-up probes run before this process imports qauthsim, so
        # the first probe, not this process, compiles the bytecode cache
        # of a fresh checkout, and peak RSS does not depend on that cache
        setup = ([], []) if tracing else self.setup_times()
        self.harness, self.cli = import_qauthsim()
        tracer = layers.Tracer(keep=KEEP_SPANS if tracing else 0)
        with layers.installed(tracer) if tracing else contextlib.nullcontext():
            self.load()
        setup_layers = dict(tracer.self_s)
        self.warm_up()

        tracer.reset()
        untraced: list[dict] = []
        traced: list[dict] = []
        first_texts: list[str] = []
        deadline = time.perf_counter() + self.args.seconds
        index = 0
        speed = machine_speed()
        while not untraced or time.perf_counter() < deadline:
            record = self.run_pass(index, traced=False)
            after = machine_speed()
            record["speed"] = harmonic(speed, after)
            speed = after
            self.check_pass(index, record)
            if index == 0:
                first_texts = [r[3] for r in record["reports"]]
            if tracing:
                with layers.installed(tracer):
                    shadow = self.run_pass(index, traced=True)
                if shadow["digest"] != record["digest"]:
                    for label in self.labels:
                        self.fail_op(index, label, True,
                                     "traced output differs from untraced")
                shadow.pop("reports")
                traced.append(shadow)
            record.pop("reports")
            untraced.append(record)
            index += 1

        for label, problems in self.gate.pooled_failures().items():
            self.notes.append(f"{label}, pooled over {index} passes: "
                              + "; ".join(problems))
            self.failed_ops.update((i, label, False) for i in range(index))
        digest, first_csv = self.determinism(first_texts)
        cli_s = self.cli_smoke(first_csv)

        self.lines.append(f"workload {self.args.workload} seed"
                          f" {self.args.seed}: {index} passes,"
                          f" output sha256 {digest}")
        if tracing:
            metrics = self.layer_metrics(tracer, setup_layers, untraced,
                                         traced, cli_s)
            tracer.write_spans(os.path.join(
                OUT_DIR, f"spans-{self.args.workload}.jsonl"))
        else:
            metrics = self.end_to_end(untraced, setup)
        return self.result(metrics)

    def result(self, metrics: dict) -> dict:
        if self.run_failures:  # a run-level failure fails every operation
            failed = self.attempted
        else:
            failed = len(self.failed_ops)
        self.lines.insert(1, f"failed_frac {failed / self.attempted:.6g} frac"
                             f" ({failed} failed of {self.attempted}"
                             " scenario runs)")
        self.lines += [f"FAILED {why}"
                       for why in self.run_failures + self.notes]
        return {"correct": failed == 0, "attempted": self.attempted,
                "failed": failed, "metrics": metrics}

    def end_to_end(self, passes: list[dict],
                   setup: tuple[list[float], list[float]]) -> dict:
        """Timings are taken at the baseline machine's speed: each raw
        sample is scaled by the reference speed measured around it."""
        raw = {
            "sessions_per_s": [p["sessions"] / p["run_s"] for p in passes],
            "wall_s": [p["wall"] for p in passes],
            "setup_s": setup[0],
        }
        speeds = {"sessions_per_s": [1.0 / p["speed"] for p in passes],
                  "wall_s": [p["speed"] for p in passes],
                  "setup_s": setup[1]}
        out = {}
        for name in raw:
            scaled = [v * k for v, k in zip(raw[name], speeds[name])]
            out[name] = _metric(statistics.median(scaled), UNITS[name])
            tail = describe(scaled, name == "sessions_per_s")
            self.lines.append(
                f"{name} {out[name]['value']:.6g} {UNITS[name]}  median at"
                f" reference speed, {tail};"
                f" raw median {statistics.median(raw[name]):.6g}")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["peak_rss_mb"] = _metric(rss_mb, "MB")
        self.lines.append(f"peak_rss_mb {rss_mb:.6g} MB")
        speed = statistics.median(p["speed"] for p in passes)
        self.lines.append(f"host speed {speed:.4f} of the reference machine"
                          " (median over passes)")
        return out

    def layer_metrics(self, tracer, setup_layers: dict, untraced: list[dict],
                      traced: list[dict], cli_s: float) -> dict:
        self_s, counts, calls = tracer.self_s, tracer.counts, tracer.calls
        sessions = counts["protocol.sessions"]
        traced_wall = sum(p["wall"] for p in traced)
        coverage = sum(self_s.values()) / traced_wall
        if not 0.9 <= coverage <= 1.1:
            self.run_failures.append(f"trace coverage {coverage:.3f}")
        out = {}
        for metric, span in LAYER_TIMES:
            out[metric] = _metric(self_s[span] / sessions * 1e6, "us")
        for metric, counter, unit in LAYER_COUNTS:
            out[metric] = _metric(counts[counter] / sessions, unit)
        out["protocol.relay_steps"] = _metric(
            calls["protocol.relay"] / sessions, "count")
        complete = (counts["protocol.status.auth_accept"]
                    + counts["protocol.status.auth_reject"])
        out["protocol.complete_frac"] = _metric(complete / sessions, "frac")
        for status in STATUSES:
            out[f"protocol.status.{status}"] = _metric(
                counts[f"protocol.status.{status}"] / sessions, "frac")
        for party in ("alice", "bob"):
            out[f"protocol.aborts.{party}"] = _metric(
                counts[f"protocol.aborts.{party}"] / sessions, "frac")
        for metric, span in SETUP_TIMES:
            out[metric] = _metric(setup_layers.get(span, 0.0) * 1e3, "ms")
        out["cli.run_ms"] = _metric(cli_s * 1e3, "ms")
        untraced_wall = sum(p["wall"] for p in untraced)
        out["trace.overhead_frac"] = _metric(
            traced_wall / untraced_wall - 1.0, "frac")
        out["trace.coverage_frac"] = _metric(coverage, "frac")
        self.lines += [f"{name} {m['value']:.6g} {m['unit']}"
                       for name, m in out.items()]
        session_s = tracer.total_s["protocol.session"]
        for label, spans in (("measure", ("qsim.measure", "qsim.bell_measure")),
                             ("emit+prepare", ("channel.emit", "qsim.prepare"))):
            share = sum(self_s[span] for span in spans) / session_s
            self.lines.append(f"share of session time in {label}: {share:.4f}")
        return out


# per-layer metric -> span whose self time per session it reports
LAYER_TIMES = (
    ("qsim.measure_us", "qsim.measure"),
    ("qsim.bell_measure_us", "qsim.bell_measure"),
    ("qsim.prepare_us", "qsim.prepare"),
    ("qsim.extend_us", "qsim.extend"),
    ("qsim.rng_seed_us", "qsim.rng_seed"),
    ("channel.seal_us", "channel.seal"),
    ("channel.emit_us", "channel.emit"),
    ("channel.loss_us", "channel.loss"),
    ("protocol.plan_us", "protocol.plan"),
    ("protocol.party_measure_us", "protocol.party_measure"),
    ("protocol.relay_us", "protocol.relay"),
    ("protocol.eventlog_us", "protocol.eventlog"),
    ("protocol.session_self_us", "protocol.session"),
    ("adversary.stage_us", "adversary.stage"),
    ("adversary.tap_us", "adversary.tap"),
    ("adversary.knowledge_us", "adversary.knowledge"),
    ("adversary.finish_us", "adversary.finish"),
    ("secparams.predict_us", "secparams.predict"),
    ("harness.aggregate_us", "harness.aggregate"),
    ("harness.render_us", "harness.render"),
    ("harness.write_us", "harness.write"),
)
# per-layer metric -> counter it reports per session, and its unit
LAYER_COUNTS = (
    ("qsim.measure_rect_calls", "qsim.measure_rect", "count"),
    ("qsim.measure_diag_calls", "qsim.measure_diag", "count"),
    ("channel.slots_emitted", "channel.slots_emitted", "count"),
    ("channel.slots_lost", "channel.slots_lost", "count"),
    ("adversary.slots_tapped", "adversary.slots_tapped", "count"),
    ("adversary.slots_split", "adversary.slots_split", "count"),
    ("harness.report_bytes", "harness.report_bytes", "B"),
)
# set-up metric -> span whose total self time it reports
SETUP_TIMES = (
    ("harness.parse_ms", "harness.parse"),
    ("harness.predict_ms", "secparams.predict"),
    ("harness.verify_tables_ms", "harness.verify_tables"),
)
UNITS = {"sessions_per_s": "1/s", "wall_s": "s", "setup_s": "s"}
STATUSES = ("auth_accept", "auth_reject", "tamper_abort", "incomplete_stream")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qauthsim", "__init__.py")):
        print(f"error: no qauthsim package under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    bench = Bench(args, workdir)
    try:
        result = bench.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(bench.lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
