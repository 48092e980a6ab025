"""Outside-in tracing of qauthsim's layers.

The package modules import names directly (``from .qsim import
measure_in_basis``), so a wrapper only takes effect when it replaces the
name in the namespace of the module that makes the call, or the attribute
of the class whose method is called.  ``SPANS`` lists every such site with
the span it records.  ``installed`` swaps the wrappers in and always puts
the original objects back.

A span records its name, start, end and parent.  Self time is the span's
duration minus the time covered by its child spans; ``Tracer`` sums it per
span name as spans close, and keeps the first ``keep`` raw spans so they
can be written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    __slots__ = ("stack", "self_s", "total_s", "calls", "counts", "spans",
                 "keep", "_next_id")

    def __init__(self, keep: int = 0) -> None:
        self.keep = keep
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._next_id = 0
        self.reset()

    def reset(self) -> None:
        """Drop the aggregates (kept raw spans stay)."""
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def push(self, name: str) -> None:
        self._next_id += 1
        parent = self.stack[-1][3] if self.stack else 0
        self.stack.append([name, perf_counter(), 0.0, self._next_id, parent])

    def pop(self) -> None:
        end = perf_counter()
        name, start, child, span_id, parent = self.stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += duration
        if len(self.spans) < self.keep:
            self.spans.append((span_id, parent, name, start, end))

    def current(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")


# --- observers: counters read from a call's arguments or result -------------

def _count_basis(tracer, args, kwargs, result):
    basis = args[2] if len(args) > 2 else kwargs["basis"]
    tracer.counts[f"qsim.measure_{basis.name.lower()[:4]}"] += 1


def _count_emitted(tracer, args, kwargs, result):
    tracer.counts["channel.slots_emitted"] += sum(len(s.slots) for s in result)


def _count_lost(tracer, args, kwargs, result):
    tracer.counts["channel.slots_lost"] += result


def _count_tapped(tracer, args, kwargs, result):
    tracer.counts["adversary.slots_tapped"] += result


def _count_session(tracer, args, kwargs, out):
    counts = tracer.counts
    counts["protocol.sessions"] += 1
    counts[f"protocol.status.{out.status.value}"] += 1
    for party in out.failed_checks:
        counts[f"protocol.aborts.{party}"] += 1
    if out.eve is not None:
        counts["adversary.slots_split"] += len(out.eve.split_positions)


def _count_report(tracer, args, kwargs, text):
    tracer.counts["harness.report_bytes"] += len(text.encode())


def _slot_span(tracer):
    # a photon measured inside an adversary tap belongs to the tap; every
    # other photon measurement is a party's
    return "adversary.tap" if tracer.current() == "adversary.tap" \
        else "protocol.party_measure"


# (module, attribute path, span name or namer, observer).  An attribute
# path with a dot names a method on a class of that module.
SPANS = (
    ("qsim", "measure_in_basis", "qsim.measure", _count_basis),
    ("protocol", "measure_in_basis", "qsim.measure", _count_basis),
    ("protocol", "measure_bell", "qsim.bell_measure", None),
    ("channel", "prepare_bell", "qsim.prepare", None),
    ("channel", "prepare_polarized", "qsim.prepare", None),
    ("protocol", "prepare_bell", "qsim.prepare", None),
    ("adversary", "prepare_polarized", "qsim.prepare", None),
    ("adversary", "prepare_ghz", "qsim.prepare", None),
    ("qsim", "StateRegister.extend_front", "qsim.extend", None),
    ("qsim", "RandomSource.__init__", "qsim.rng_seed", None),
    ("channel", "KeystreamCipher.seal", "channel.seal", None),
    ("channel", "KeystreamCipher.open", "channel.seal", None),
    ("protocol", "TamperSpec.encode", "channel.seal", None),
    ("protocol", "TamperSpec.decode", "channel.seal", None),
    ("adversary", "build_streams", "channel.emit", _count_emitted),
    ("adversary", "_emit_server_product", "channel.emit", _count_emitted),
    ("adversary", "_emit_server_ghz", "channel.emit", _count_emitted),
    ("adversary", "apply_loss", "channel.loss", _count_lost),
    ("channel", "PhotonSlot.measure", _slot_span, None),
    ("protocol", "plan_session", "protocol.plan", None),
    ("protocol", "alice_swap_step", "protocol.relay", None),
    ("protocol", "EventLog.add", "protocol.eventlog", None),
    ("protocol", "EventLog.digest", "protocol.eventlog", None),
    ("harness", "run_session", "protocol.session", _count_session),
    ("adversary", "stage_attack", "adversary.stage", None),
    ("adversary", "apply_tap", "adversary.tap", _count_tapped),
    ("adversary", "finish_session", "adversary.finish", None),
    ("harness", "eve_knowledge_report", "adversary.knowledge", None),
    ("harness", "analytic_predictions", "secparams.predict", None),
    ("harness", "load_scenario", "harness.parse", None),
    ("harness", "verify_tables", "harness.verify_tables", None),
    ("harness", "run_scenario", "harness.aggregate", None),
    ("harness", "render_report", "harness.render", _count_report),
    ("harness", "emit_report", "harness.write", None),
)


def _wrap(tracer: Tracer, fn, name, observe):
    push, pop = tracer.push, tracer.pop

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        push(name(tracer) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            pop()
        if observe is not None:
            observe(tracer, args, kwargs, result)
        return result

    return wrapper


def _site(module_name: str, path: str):
    """(owner object, attribute name) for one SPANS entry."""
    owner = importlib.import_module(f"qauthsim.{module_name}")
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install every wrapper for the duration of the block."""
    saved = []
    try:
        for module_name, path, name, observe in SPANS:
            owner, attr = _site(module_name, path)
            raw = owner.__dict__[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(tracer, raw.__func__, name, observe))
            else:
                wrapped = _wrap(tracer, raw, name, observe)
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
