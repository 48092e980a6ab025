"""Paired benchmark runs of two checkouts of qauthsim, parent and change.

Usage:
    python3 scripts/paired_bench.py PARENT_DIR CHANGE_DIR --workload W
        [--workload W2 ...] --seed S --pairs N --seconds T
        [--json PATH]

Each pair runs ``perfbench/run.py --trace 0`` of each checkout, from that
checkout's root, one process at a time; even pairs (counted from 0) run
the parent first and odd pairs the change.  For each end-to-end metric
the checkout's ``BENCHMARK.json`` declares, it prints each side's median
and quartiles, the change's ratio in every pair, and how many pairs the
change won, ties counting for neither side.  It then states whether a
claimed gain would hold: the change won at least nine tenths of at least
ten pairs, and the medians differ, in the better direction, by more than
the parent's interquartile range.  It also states whether the change's
median is worse than the parent's by more than the metric's bound.

A run is flagged when it exits nonzero, reports ``failed`` > 0, or prints
an ``output sha256`` other than the parent's first run printed.
``--json`` writes the script's own arguments, each checkout's
``src_sha256`` (see :func:`src_sha256`), every run with its command, and
every summary.  The exit code is 1 when any run was flagged.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
_SHA = re.compile(r"output sha256 ([0-9a-f]{64})")


def quartiles(values: list[float]) -> list[float]:
    """[first quartile, median, third quartile], by the inclusive method
    of ``statistics.quantiles``; one value is all three."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(parent: list[float], change: list[float], better: str,
              bound: float) -> dict:
    """One metric over paired runs: ``parent[i]`` and ``change[i]`` are
    pair i's values, ``better`` is "higher" or "lower", and ``bound`` the
    fraction by which the change's median may be worse than the parent's
    before it counts as a regression."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', not {better!r}")
    sign = 1 if better == "higher" else -1
    p_q, c_q = quartiles(parent), quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pairs = len(parent)
    iqr = p_q[2] - p_q[0]
    gap = sign * (c_q[1] - p_q[1])
    return {
        "parent_q1_median_q3": p_q,
        "change_q1_median_q3": c_q,
        "median_ratio_change_over_parent": c_q[1] / p_q[1],
        "parent_iqr_frac": iqr / p_q[1],
        "pair_ratios": [c / p for p, c in zip(parent, change)],
        "change_wins": wins,
        "pairs": pairs,
        "gain_holds": pairs >= 10 and 10 * wins >= 9 * pairs and gap > iqr,
        "regressed": -gap > bound * p_q[1],
    }


def src_sha256(checkout: str) -> str:
    """A SHA-256 over the files under ``checkout``'s ``src/``, naming the
    code a run measured: each file's path relative to ``src/`` and the
    SHA-256 of its bytes, in path order.  ``__pycache__`` directories,
    which running the code writes, are left out."""
    root = os.path.join(checkout, "src")
    files = []
    for folder, dirs, names in os.walk(root):
        dirs[:] = [name for name in dirs if name != "__pycache__"]
        files += [os.path.join(folder, name) for name in names]
    digest = hashlib.sha256()
    for path in sorted(os.path.relpath(file, root) for file in files):
        with open(os.path.join(root, path), "rb") as handle:
            content = hashlib.sha256(handle.read()).hexdigest()
        digest.update(f"{path.replace(os.sep, '/')}\0{content}\n".encode())
    return digest.hexdigest()


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run of ``checkout``: its exit code, its
    result's ``failed`` and ``attempted``, its metric values and the
    ``output sha256`` it printed (None where it printed none)."""
    command = ["perfbench/run.py", "--workload", workload, "--seed",
               str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run([sys.executable] + command, cwd=checkout,
                          capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    sha = _SHA.search(proc.stdout)
    return {"command": [os.path.basename(sys.executable)] + command,
            "exit": proc.returncode,
            "failed": result.get("failed"),
            "attempted": result.get("attempted"),
            "metrics": {name: metric["value"] for name, metric
                        in result.get("metrics", {}).items()},
            "sha": sha.group(1) if sha else None,
            "stderr_tail": proc.stderr.strip().splitlines()[-3:]}


def flags(runs: list[dict]) -> list[str]:
    """Why each flagged run of one workload is flagged."""
    out = []
    want = next((r["sha"] for r in runs if r["side"] == "parent"), None)
    for run in runs:
        where = f"{run['side']} pair {run['pair']}"
        if run["exit"] != 0:
            out.append(f"{where}: exit {run['exit']}")
        if run["failed"] != 0:
            out.append(f"{where}: failed {run['failed']}")
        if run["sha"] is None or run["sha"] != want:
            out.append(f"{where}: output sha256 {run['sha']}, expected {want}")
    return out


def report(workload: str, runs: list[dict], metrics: list[dict]) -> dict:
    """The summary of one workload's runs, printed and returned."""
    pairs = sorted({run["pair"] for run in runs})
    value = {(run["side"], run["pair"]): run["metrics"] for run in runs}
    summary = {}
    print(f"== {workload}: {len(pairs)} pairs")
    for metric in metrics:
        name = metric["name"]
        try:
            parent = [value["parent", pair][name] for pair in pairs]
            change = [value["change", pair][name] for pair in pairs]
        except KeyError:
            print(f"{name}: missing from some run")
            continue
        row = summary[name] = summarize(parent, change, metric["better"],
                                        metric["bound"])
        p, c = row["parent_q1_median_q3"], row["change_q1_median_q3"]
        print(f"{name} ({metric['unit']}, {metric['better']} is better):"
              f" parent {p[1]:.6g} [{p[0]:.6g}-{p[2]:.6g}],"
              f" change {c[1]:.6g} [{c[0]:.6g}-{c[2]:.6g}],"
              f" {row['median_ratio_change_over_parent']:.4f}x,"
              f" change won {row['change_wins']}/{row['pairs']}")
        print("  pairs: " + " ".join(f"{r:.4f}" for r in row["pair_ratios"]))
        print(f"  gain rule (>= 9/10 won, median gap > parent IQR"
              f" {row['parent_iqr_frac']:.2%}): "
              + ("holds" if row["gain_holds"] else "does not hold")
              + f"; worse than the {metric['bound']:.0%} bound: "
              + ("yes" if row["regressed"] else "no"))
    flagged = flags(runs)
    for why in flagged:
        print(f"FLAGGED {why}")
    shas = {side: sorted({run["sha"] for run in runs if run["side"] == side},
                         key=str) for side in SIDES}
    return {"summary": summary, "output_sha256": shas, "flagged": flagged}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--json", help="write every run and summary here")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0 or args.seed < 0:
        parser.error("--pairs must be >= 1, --seconds > 0 and --seed >= 0")
    for checkout in (args.parent_dir, args.change_dir):
        if not os.path.isfile(os.path.join(checkout, "perfbench", "run.py")):
            parser.error(f"no perfbench/run.py under {checkout}")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    with open(os.path.join(args.change_dir, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    checkouts = {"parent": args.parent_dir, "change": args.change_dir}
    runs, workloads = [], {}
    for workload in args.workload:
        done = []
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                run = run_once(checkouts[side], workload, args.seed,
                               args.seconds)
                run.update(side=side, workload=workload, seed=args.seed,
                           pair=pair)
                done.append(run)
                print(f"{workload} pair {pair} {side}: exit {run['exit']},"
                      f" failed {run['failed']},"
                      f" {run['metrics'].get('sessions_per_s', float('nan')):.6g}"
                      " sessions/s", flush=True)
        runs += done
        workloads[workload] = report(workload, done, metrics)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"argv": ["scripts/paired_bench.py"] + argv,
                       "src_sha256": {side: src_sha256(checkouts[side])
                                      for side in SIDES},
                       "pairs": args.pairs,
                       "order": "even pairs (counted from 0) run the parent"
                                " first, odd pairs the change",
                       "workloads": workloads, "runs": runs},
                      handle, indent=1)
    return 1 if any(w["flagged"] for w in workloads.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
