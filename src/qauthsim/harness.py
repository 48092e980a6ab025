"""Scenario runner, conformance checks, and report emission.

A scenario is a JSON document naming a session configuration, an optional
attack, channel properties, and output settings.  Running it executes
independent seeded trials (trial i always uses random stream i, so results
cannot depend on execution order or parallelism), pairs every empirical
metric with its closed-form prediction where one exists, and grades the
pair with a 4-sigma rule.  Each metric is an integer count of successes
over n integer samples: a trial (accept, evasion), or a slot (detection
errors over d, matching key bits over k, known key positions over k); its
mean is count / n.  Where the normal approximation behind the 4-sigma rule
fails (n a (1 - a) < 9, rare events) that count is graded with exact
binomial tails at the same one-sided level.

verify_tables() checks the exact pair-algebra claims by enumeration: state
composition, the honest relay key-bit rule, and the compromised-relay
key-bit table under both belief rules, each key bit derived through the
session's own belief rule.  The two rules disagree on the
planted-bit table; the disagreement is printed row by row every run, never
suppressed, and does not fail the check (see the belief-rule notes in the
protocol module).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction

from .adversary import (
    AttackConfig,
    AttackKind,
    BasisChoice,
    LocationKnowledge,
    TapPath,
    _TAP_KINDS,
    eve_knowledge_report,
)
from .channel import Path, PhotonCountModel
from .protocol import (
    BeliefRule,
    ProtocolMode,
    SessionConfig,
    SessionStatus,
    believed_state,
    derive_key_bit,
    run_session,
)
from .qsim import (
    BellKind,
    BellLabel,
    MeasBasis,
    RandomSource,
    SourceKind,
    bell_compose,
    swap_enumerate,
)
from .secparams import (
    evasion_prob,
    forgery_prob,
    pns_approx_evasion,
    pns_effective_d,
    pns_exact_evasion,
    pns_required_d,
    ratio_d_over_k,
    required_d,
    required_k,
)

_Z99 = 2.5758293035489004  # two-sided 99% normal quantile
_Z = 4.0  # grading bound in sigmas
_TAIL = 0.5 * math.erfc(_Z / math.sqrt(2.0))  # one-sided P(N(0,1) > 4)


class ScenarioError(ValueError):
    """Invalid scenario document; the message names the offending field."""


# --- scenario parsing ----------------------------------------------------------

@dataclass(frozen=True)
class ScenarioSpec:
    seed: int
    trials: int
    session: SessionConfig
    attack: AttackConfig | None = None
    photon: PhotonCountModel = PhotonCountModel()
    p_loss: float = 0.0
    out_format: str = "json"
    out_path: str | None = None

    def __post_init__(self) -> None:
        # also checked on every dataclasses.replace, e.g. a command-line seed
        if not 0 <= self.seed < 2 ** 64:
            raise ScenarioError("seed must fit in 64 bits")
        if self.trials < 0:
            raise ScenarioError("trials must be non-negative")
        if not 0.0 <= self.p_loss < 1.0:
            raise ScenarioError("photon.p_loss must be in [0, 1)")
        if self.out_format not in ("json", "csv"):
            raise ScenarioError("outputs.format must be 'json' or 'csv'")
        guesses = self.attack.guess_count if self.attack else None
        if guesses is not None and guesses > self.session.total_slots:
            raise ScenarioError(
                f"attack.guess_count must be at most k + d = "
                f"{self.session.total_slots}, got {guesses}")


# Each section's fields and their JSON types: int, float (any number), str,
# an enum (by value), or a nested section.  Defaults and bounds live in the
# dataclass each section builds.
_SESSION_FIELDS = {"k": int, "d": int, "reveal_count": int,
                   "mode": ProtocolMode, "belief_rule": BeliefRule,
                   "error_threshold": float, "key_basis": MeasBasis}
_ATTACK_FIELDS = {"kind": AttackKind, "path": TapPath,
                  "basis_choice": BasisChoice, "fixed_basis": MeasBasis,
                  "guess_count": int, "location_knowledge": LocationKnowledge}
_PHOTON_FIELDS = {"p1": float, "p_loss": float}
_OUTPUT_FIELDS = {"format": str, "path": str}
_TOP_FIELDS = {"seed": int, "trials": int, "session": _SESSION_FIELDS,
               "attack": _ATTACK_FIELDS, "photon": _PHOTON_FIELDS,
               "outputs": _OUTPUT_FIELDS}
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               str: ((str,), "a string")}


def _read(doc: dict, table: dict, where: str) -> dict:
    """The fields of ``doc`` that hold a value, each checked against its
    type in ``table``; absent and null fields are left out, so that the
    dataclass default applies."""
    out = {}
    for key, value in doc.items():
        kind = table.get(key)
        if kind is None:
            raise ScenarioError(f"unknown field {where}{key}")
        if value is not None:
            out[key] = _read_value(value, kind, where + key)
    return out


def _read_value(value, kind, name: str):
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ScenarioError(
                f"{name} must be an object or null, got {value!r}")
        return _read(value, kind, name + ".")
    if kind in _JSON_TYPES:
        types, noun = _JSON_TYPES[kind]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ScenarioError(f"{name} must be {noun}, got {value!r}")
        try:
            return kind(value)  # a float from a JSON integer
        except OverflowError:
            raise ScenarioError(f"{name} is out of range") from None
    try:
        return kind(value)
    except ValueError:
        names = ", ".join(e.value for e in kind)
        raise ScenarioError(f"{name}: {value!r} is not one of {names}") from None


def _build(cls, kwargs: dict, section: str):
    """``cls(**kwargs)``: a field with no default that ``kwargs`` lacks is
    reported missing, and a bound the constructor refuses is reported under
    its section."""
    try:
        return cls(**kwargs)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"{section}: {exc}") from None
    except TypeError:  # every key is a field, so a required one is missing
        name = next(f.name for f in fields(cls)
                    if f.name not in kwargs and f.default is MISSING)
        prefix = f"{section}." if section else ""
        raise ScenarioError(f"missing field {prefix}{name}") from None


def parse_scenario(doc: dict) -> ScenarioSpec:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    top = _read(doc, _TOP_FIELDS, "")
    if "session" in top:
        top["session"] = _build(SessionConfig, top["session"], "session")
    if "attack" in top:
        # every field is checked, also for kind "none", which means no attack
        attack = _build(AttackConfig, top["attack"], "attack")
        top["attack"] = None if attack.kind is AttackKind.NONE else attack
    photon = top.pop("photon", {})
    if "p_loss" in photon:
        top["p_loss"] = photon.pop("p_loss")
    top["photon"] = _build(PhotonCountModel, photon, "photon")
    for key, value in top.pop("outputs", {}).items():
        top["out_" + key] = value
    return _build(ScenarioSpec, top, "")


def load_scenario(text: str) -> ScenarioSpec:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from None
    return parse_scenario(doc)


# --- trial records and aggregates ------------------------------------------------

TRIAL_FIELDS = ("trial", "status", "alice_tamper_error_rate",
                "bob_tamper_error_rate", "key_match_fraction", "token_accepted",
                "eve_key_knowledge", "server_copy_match", "event_log_digest")


@dataclass(frozen=True)
class TrialResult:
    trial: int
    status: str
    alice_tamper_error_rate: float | None
    bob_tamper_error_rate: float | None
    key_match_fraction: float | None
    token_accepted: bool | None
    eve_key_knowledge: float
    server_copy_match: float | None
    event_log_digest: str

    def to_row(self) -> dict:
        return {name: getattr(self, name) for name in TRIAL_FIELDS}


@dataclass(frozen=True)
class MetricSummary:
    name: str
    mean: float | None  # count / n, None when n is 0
    count: int  # successes among the n samples; not rendered
    n: int
    ci99_low: float | None
    ci99_high: float | None
    analytic: float | None
    note: str | None
    abs_diff: float | None
    sigma_distance: float | None
    verdict: str | None  # "pass" | "fail" | None when not graded

    def to_row(self) -> dict:
        return {"name": self.name, "mean": self.mean, "n": self.n,
                "ci99_low": self.ci99_low, "ci99_high": self.ci99_high,
                "analytic": self.analytic, "note": self.note,
                "abs_diff": self.abs_diff,
                "sigma_distance": self.sigma_distance, "verdict": self.verdict}


@dataclass
class AggregateReport:
    seed: int
    trials: int
    mode: str
    belief_rule: str | None
    attack_kind: str
    metrics: list[MetricSummary]
    trial_results: list[TrialResult]

    def metric(self, name: str) -> MetricSummary:
        """The named metric's summary; raises KeyError when this report has
        no such metric (its ``mean`` is None when no trial contributed)."""
        for m in self.metrics:
            if m.name == name:
                return m
        raise KeyError(name)

    def failures(self) -> list[str]:
        return [m.name for m in self.metrics if m.verdict == "fail"]

    @property
    def all_pass(self) -> bool:
        return not self.failures()

    def aggregate_row(self) -> dict:
        return {"type": "aggregate", "seed": self.seed, "trials": self.trials,
                "mode": self.mode, "belief_rule": self.belief_rule,
                "attack_kind": self.attack_kind,
                "all_pass": self.all_pass,
                "metrics": [m.to_row() for m in self.metrics]}

    def summary_text(self) -> str:
        lines = [f"seed={self.seed} trials={self.trials} mode={self.mode}"
                 f" belief_rule={self.belief_rule or '-'}"
                 f" attack={self.attack_kind}"]
        header = (f"{'metric':<26} {'mean':>12} {'analytic':>12}"
                  f" {'sigma_dist':>10} {'verdict':>8}")
        lines.append(header)
        for m in self.metrics:
            mean = "-" if m.mean is None else f"{m.mean:.6f}"
            ana = "-" if m.analytic is None else f"{m.analytic:.6f}"
            dist = "-" if m.sigma_distance is None else f"{m.sigma_distance:.2f}"
            verdict = m.verdict or "-"
            note = f"  ({m.note})" if m.note else ""
            lines.append(f"{m.name:<26} {mean:>12} {ana:>12} {dist:>10}"
                         f" {verdict:>8}{note}")
        return "\n".join(lines)


def _within_binomial_tails(count: int, n: int, p: float) -> bool:
    """Whether ``count`` successes in ``n`` trials at rate ``p`` lie inside
    both exact binomial tails at the one-sided level of 4 sigma.

    The 4-sigma rule leans on the normal approximation, which fails for
    rare events: at p = 0.75**41 a single success in a few thousand trials
    is already many sigmas out.  Below n p (1 - p) = 9 the count is graded
    with these tails instead.
    """
    if p > 0.5:  # count the rarer outcome; the tails swap with it
        count, p = n - count, 1.0 - p
    log_p, log_q = math.log(p), math.log1p(-p)

    def pmf(j: int) -> float:
        return math.exp(math.lgamma(n + 1) - math.lgamma(j + 1)
                        - math.lgamma(n - j + 1) + j * log_p + (n - j) * log_q)

    below = math.fsum(pmf(j) for j in range(count))  # P[X < count]
    return min(below + pmf(count), 1.0 - below) >= _TAIL


def _summarize(name: str, hits: int, n: int, analytic: float | None,
               note: str | None = None, graded: bool = True) -> MetricSummary:
    """Grade ``hits`` successes in ``n`` samples against ``analytic``: within
    4 sigma, or inside both exact binomial tails where n a (1 - a) < 9."""
    mean = ci_low = ci_high = None
    if n:
        mean = hits / n
        half = _Z99 * math.sqrt(max(mean * (1 - mean), 0.0) / n)
        ci_low, ci_high = max(0.0, mean - half), min(1.0, mean + half)
    abs_diff = sigma_distance = verdict = None
    if analytic is not None and mean is not None:
        abs_diff = abs(mean - analytic)
        sigma = math.sqrt(max(analytic * (1 - analytic), 0.0) / n)
        if sigma == 0.0:
            sigma_distance = 0.0 if abs_diff == 0.0 else math.inf
        else:
            sigma_distance = abs_diff / sigma
        if graded:
            if 0.0 < sigma and n * analytic * (1 - analytic) < 9.0:
                ok = _within_binomial_tails(hits, n, analytic)
            else:
                ok = sigma_distance <= _Z
            verdict = "pass" if ok else "fail"
    return MetricSummary(name, mean, hits, n, ci_low, ci_high, analytic,
                         note, abs_diff, sigma_distance, verdict)


# --- analytic predictions --------------------------------------------------------

def _accept_and_match(spec: ScenarioSpec) -> tuple[float, float]:
    """Closed-form accept rate and per-slot key match for source-level
    behavior (honest or compromised relay): the belief rule decides both."""
    cfg = spec.session
    if cfg.mode is ProtocolMode.BASE or cfg.belief_rule is BeliefRule.COMPOSED:
        return 1.0, 1.0
    # MEASURED: each slot agrees iff the created pair was phi-kind
    return float(forgery_prob(cfg.revealed)), 0.5


def analytic_predictions(spec: ScenarioSpec) -> dict[str, tuple[float | None, str | None]]:
    """Metric name -> (expected value, note).  Only metrics with a defensible
    closed form appear; everything else stays ungraded.

    Loss ends a session at emission (step 3), before any check and
    independently of every other draw, so a metric recorded only on
    complete sessions keeps its lossless form.  accept_rate is scaled by
    the chance that all 2 (k + d) photons arrive.  eve_key_knowledge is
    recorded on every trial and counts only the slots that arrived, so
    under loss it stays graded only where its form is 0."""
    out = _lossless_predictions(spec)
    if spec.p_loss > 0.0:
        if "accept_rate" in out:
            accept, note = out["accept_rate"]
            arrive = 1 - Fraction(spec.p_loss)
            survive = arrive ** (2 * spec.session.total_slots)
            out["accept_rate"] = (float(Fraction(accept) * survive), note)
        knowledge = out.get("eve_key_knowledge")
        if knowledge is not None and knowledge[0] != 0.0:
            del out["eve_key_knowledge"]
    return out


def _lossless_predictions(spec: ScenarioSpec) -> dict[str, tuple[float | None, str | None]]:
    """The closed forms on a channel that loses no photon."""
    cfg = spec.session
    attack = spec.attack
    kind = attack.kind if attack else AttackKind.NONE
    out: dict[str, tuple[float | None, str | None]] = {}
    d_note = "vacuous: no detection slots" if cfg.d == 0 else None

    if kind in (AttackKind.NONE, AttackKind.SERVER_PRODUCT,
                AttackKind.SERVER_GHZ):
        accept, match = _accept_and_match(spec)
        out["accept_rate"] = (accept, None)
        out["key_match_fraction"] = (match, None)
        out["alice_tamper_error_rate"] = (0.0, d_note)
        out["bob_tamper_error_rate"] = (0.0, d_note)
        out["evasion_rate"] = (1.0, d_note)
        out["eve_key_knowledge"] = (0.0, None)
        if kind is not AttackKind.NONE:
            out["server_copy_match"] = (1.0, None)
        return out

    base_mode = cfg.mode is ProtocolMode.BASE
    paths = attack.path.channel_paths()
    both = len(paths) == 2
    # the evasion closed forms below assume that any detection error aborts
    any_flip = cfg.error_threshold == 0.0

    if attack.location_knowledge is LocationKnowledge.REALTIME:
        out["accept_rate"] = (1.0, "detection slots skipped entirely")
        out["alice_tamper_error_rate"] = (0.0, d_note)
        out["bob_tamper_error_rate"] = (0.0, d_note)
        out["evasion_rate"] = (1.0, d_note)
        out["key_match_fraction"] = (1.0, None)
        out["eve_key_knowledge"] = (1.0 if base_mode else 0.0, None)
        return out

    # A tap reads a detection slot on each tapped path (PNS: only when the
    # slot carries one photon), and a read errs with chance 1/2 when its
    # basis misses the slot's.  The twin photons share their preparation
    # basis, so one read basis for the whole session (fixed, or the key
    # basis) misses on both paths at once with chance 1/2; a fresh random
    # basis per read misses independently on each path.
    reads = Fraction(spec.photon.p1) if kind is AttackKind.PNS else Fraction(1)
    independent = (kind is AttackKind.INTERCEPT_RESEND
                   and attack.basis_choice is BasisChoice.RANDOM_PER_SLOT)
    if independent:
        slot_pass = (1 - reads / 4) ** len(paths)
    else:
        miss_pass = 1 - reads / 2  # one path passes a missed slot
        slot_pass = (1 + miss_pass ** len(paths)) / 2
    # per tapped path and slot; a guess touches g of the k + d slots
    err = reads / 4
    if kind is AttackKind.SUBSET_GUESS:
        err *= Fraction(attack.guess_count, cfg.total_slots)
    out["alice_tamper_error_rate"] = (
        float(err) if Path.TO_ALICE in paths else 0.0, d_note)
    if base_mode or not both or independent:
        out["bob_tamper_error_rate"] = (
            float(err) if Path.TO_BOB in paths else 0.0, d_note)
    elif any_flip and kind is not AttackKind.SUBSET_GUESS:
        # in swap mode the responder checks only after the initiator passed;
        # when any flip aborts, that conditions each responder slot on its
        # twin having read true
        out["bob_tamper_error_rate"] = (float(err * miss_pass / (1 - err)),
                                        d_note)

    if kind is AttackKind.INTERCEPT_RESEND:
        if any_flip:
            out["evasion_rate"] = (float(slot_pass ** cfg.d), d_note)
        if independent:
            # certain where any tapped path read in the key basis
            know = 1 - 0.5 ** len(paths)
            match = 0.75 if not both else None
        elif attack.fixed_basis is cfg.key_basis:
            know, match = 1.0, 1.0
        else:
            know, match = 0.0, (0.5 if not both else None)
        out["eve_key_knowledge"] = (know if base_mode else 0.0, None)
        if match is not None:
            out["key_match_fraction"] = (match, None)
        return out

    if kind is AttackKind.PNS:
        if any_flip:
            out["evasion_rate"] = (float(slot_pass ** cfg.d), d_note)
        if any_flip and not both:
            out["evasion_rate_vs_approx"] = (
                pns_approx_evasion(cfg.d, spec.photon.p1),
                "first-order approximation, shown for comparison; ungraded")
        out["eve_key_knowledge"] = (1.0 if base_mode else 0.0, None)
        out["key_match_fraction"] = (1.0, None)
        return out

    if kind is AttackKind.SUBSET_GUESS:
        g = attack.guess_count
        terms = _subset_terms(cfg.k, cfg.d, g, slot_pass)
        if not base_mode:
            # swap mode never gives certain key knowledge
            out["subset_success"] = (0.0, None)
        elif any_flip:
            # success is the guess that covers every key slot
            out["subset_success"] = (float(terms.get(g - cfg.k, 0)), None)
        out["eve_key_knowledge"] = (
            (g / cfg.total_slots if base_mode else 0.0),
            "hypergeometric mean coverage")
        if any_flip and cfg.d > 0:
            out["evasion_rate"] = (float(sum(terms.values())), None)
        # guessed slots are read in the public key basis: no key disturbance
        out["key_match_fraction"] = (1.0, None)
        return out

    return out


def _subset_terms(k: int, d: int, g: int,
                  slot_pass: Fraction) -> dict[int, Fraction]:
    """P(T = j) * slot_pass ** j for every count j of detection slots that a
    uniform g-subset of the k + d positions can hold; their sum is
    E[slot_pass ** T]."""
    denom = math.comb(k + d, g)
    return {j: Fraction(math.comb(d, j) * math.comb(k, g - j), denom)
            * slot_pass ** j
            for j in range(max(0, g - k), min(d, g) + 1)}


# --- scenario execution -----------------------------------------------------------

def run_scenario(spec: ScenarioSpec) -> AggregateReport:
    cfg = spec.session
    attack = spec.attack
    kind = attack.kind if attack else AttackKind.NONE
    tapped = attack.path.channel_paths() if kind in _TAP_KINDS else ()

    # metric -> [hits, n], both ints, so tallies merge exactly in any order
    tallies: dict[str, list[int]] = {}

    def bump(name: str, hits: int, n: int = 1) -> None:
        # created on first use, which fixes the metric order
        tally = tallies.get(name)
        if tally is None:
            tally = tallies[name] = [0, 0]
        tally[0] += hits
        tally[1] += n

    trial_results: list[TrialResult] = []
    for trial in range(spec.trials):
        rand = RandomSource(spec.seed, trial)
        out = run_session(cfg, attack, rand, photon=spec.photon,
                          p_loss=spec.p_loss)
        report = eve_knowledge_report(out)

        # bools count as 0 or 1
        bump("accept_rate", out.status is SessionStatus.AUTH_ACCEPT)
        if out.alice_tamper_errors is not None and cfg.d > 0:
            bump("alice_tamper_error_rate", out.alice_tamper_errors, cfg.d)
        if out.bob_tamper_errors is not None and cfg.d > 0:
            bump("bob_tamper_error_rate", out.bob_tamper_errors, cfg.d)
        matches = out.key_matches()
        if matches is not None:
            bump("key_match_fraction", matches, cfg.k)
        bump("eve_key_knowledge", report.certain, cfg.k)
        if report.copy_hits is not None:
            bump("server_copy_match", report.copy_hits, cfg.k)

        evaded = _evaded(out, tapped)
        if evaded is not None:
            bump("evasion_rate", evaded)
            if kind is AttackKind.PNS and len(tapped) == 1:
                bump("evasion_rate_vs_approx", evaded)
            if kind is AttackKind.SUBSET_GUESS:
                bump("subset_success", evaded and report.certain == cfg.k)

        trial_results.append(TrialResult(
            trial=trial,
            status=out.status.value,
            alice_tamper_error_rate=out.alice_tamper_error_rate,
            bob_tamper_error_rate=out.bob_tamper_error_rate,
            key_match_fraction=None if matches is None else matches / cfg.k,
            token_accepted=out.token_matched,
            eve_key_knowledge=report.certain / cfg.k,
            server_copy_match=(None if report.copy_hits is None
                               else report.copy_hits / cfg.k),
            event_log_digest=out.events.digest(),
        ))

    predictions = analytic_predictions(spec)
    names = list(tallies)
    for name in predictions:
        if name not in names:
            names.append(name)
    metrics = []
    for name in names:
        hits, n = tallies.get(name, (0, 0))
        analytic, note = predictions.get(name, (None, None))
        graded = name != "evasion_rate_vs_approx"
        metrics.append(_summarize(name, hits, n, analytic, note, graded))

    return AggregateReport(
        seed=spec.seed, trials=spec.trials, mode=cfg.mode.value,
        belief_rule=cfg.belief_rule.value if cfg.belief_rule else None,
        attack_kind=kind.value, metrics=metrics, trial_results=trial_results)


def _evaded(out, tapped: tuple[Path, ...]) -> bool | None:
    """Did every tapped party's check run and pass?  None when a needed
    check never ran (lost stream, or the session aborted first)."""
    if out.status is SessionStatus.INCOMPLETE_STREAM:
        return None
    checks = {Path.TO_ALICE: ("alice", out.alice_tamper_errors),
              Path.TO_BOB: ("bob", out.bob_tamper_errors)}
    paths = tapped or (Path.TO_ALICE, Path.TO_BOB)
    for path in paths:
        party, errors = checks[path]
        if party in out.failed_checks:
            return False
        if errors is None:
            return None
    return True


# --- report emission --------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _json_value(value) -> str:
    if isinstance(value, dict):
        inner = ",".join(f"{json.dumps(k)}:{_json_value(v)}"
                         for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_json_value(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # JSON has no inf or nan: a failing exact metric's sigma distance
        return "%.17g" % value if math.isfinite(value) else "null"
    if value is None or isinstance(value, (int, str)):
        return json.dumps(value)
    raise TypeError(f"cannot render {type(value).__name__} as JSON")


def render_report(report: AggregateReport, out_format: str) -> str:
    if out_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(TRIAL_FIELDS)
        for trial in report.trial_results:
            row = trial.to_row()
            writer.writerow([_fmt(row[name]) for name in TRIAL_FIELDS])
        return buf.getvalue()
    if out_format == "json":
        lines = [_json_value(t.to_row()) for t in report.trial_results]
        lines.append(_json_value(report.aggregate_row()))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {out_format!r}")


def emit_report(report: AggregateReport, out_format: str,
                path: str | None) -> str:
    text = render_report(report, out_format)
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write report to {path!r}: {exc}") from exc
    return text


# --- exact table conformance -------------------------------------------------------

@dataclass
class TableCheck:
    name: str
    rows: list[str] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)
    graded: bool = True

    @property
    def ok(self) -> bool:
        return not self.graded or not self.mismatches

    @property
    def status(self) -> str:
        if not self.mismatches:
            return "exact"
        if self.graded:
            return f"{len(self.mismatches)} mismatches"
        return f"{len(self.mismatches)} discrepancies (informational)"


@dataclass
class ConformanceReport:
    sections: list[TableCheck]

    @property
    def ok(self) -> bool:
        return all(section.ok for section in self.sections)

    @property
    def matrix(self) -> list[tuple[str, int, str]]:
        """One (name, row count, status) entry per check that ran."""
        return [(s.name, len(s.rows), s.status) for s in self.sections]

    def section(self, name: str) -> TableCheck:
        for s in self.sections:
            if s.name == name:
                return s
        raise KeyError(name)

    def text(self) -> str:
        lines = []
        for s in self.sections:
            lines.append(f"== {s.name} [{s.status}] ==")
            lines.extend("  " + r for r in s.rows)
            if s.mismatches:
                label = "MISMATCH" if s.graded else "DISCREPANCY"
                lines.extend(f"  {label}: {m}" for m in s.mismatches)
            lines.append("")
        lines.append("== conformance matrix ==")
        for name, rows, status in self.matrix:
            lines.append(f"  {name:<28} {rows:>3} rows  {status}")
        return "\n".join(lines) + "\n"


def _check_pair_composition() -> TableCheck:
    """Composition algebra vs the state-vector oracle, all 16 cells."""
    check = TableCheck("pair-composition")
    for created in BellLabel:
        table = swap_enumerate(created, SourceKind.ENTANGLED_PHI_PLUS)
        for outcome in BellLabel:
            cell = table.outcome(outcome)
            composed = bell_compose(created, outcome)
            row = (f"created={created.short()} outcome={outcome.short()}"
                   f" residual={cell.residual_pair.short()}"
                   f" prob={cell.probability}")
            check.rows.append(row)
            if cell.residual_pair is not composed or \
                    cell.probability != Fraction(1, 4):
                check.mismatches.append(row + f" expected={composed.short()}")
    return check


def _check_relay_key_rule() -> TableCheck:
    """Honest relay step: the responder's bit equals the key bit derived
    from the kept bit and the residual pair, for every joint outcome."""
    check = TableCheck("relay-key-bit-rule")
    seen: dict[tuple[str, int], int] = {}
    for created in BellLabel:
        table = swap_enumerate(created, SourceKind.ENTANGLED_PHI_PLUS)
        for outcome in BellLabel:
            cell = table.outcome(outcome)
            residual = believed_state(created, outcome, BeliefRule.COMPOSED)
            for bits, prob in sorted(cell.joint.items()):
                if prob == 0:
                    continue
                kept, far = bits[0], bits[1]
                derived = derive_key_bit(residual, kept)
                key = (residual.short(), kept)
                seen.setdefault(key, far)
                if derived != far or seen[key] != far:
                    check.mismatches.append(
                        f"created={created.short()} outcome={outcome.short()}"
                        f" kept={kept} far={far} derived={derived}")
    for (residual, kept), far in sorted(seen.items()):
        relation = "correlated" if residual.startswith("phi") else "anti-correlated"
        check.rows.append(f"residual={residual} kept={kept} -> far={far}"
                          f" ({relation})")
    return check


def _check_planted_bit(rule: BeliefRule) -> TableCheck:
    """The planted-product compromise, all 32 (created, outcome, planted
    bit) rows, with the key bit derived by the session's own belief rule
    and compared with the published table, where the key equals the planted
    bit exactly when the created pair is phi-kind.  MEASURED reproduces the
    table and is graded; COMPOSED always recovers the planted bit, so its
    psi-kind rows disagree and are reported row by row, informationally."""
    measured = rule is BeliefRule.MEASURED
    check = TableCheck("compromised-server-key-bit" if measured
                       else "belief-rule-discrepancy", graded=measured)
    for created in BellLabel:
        for x in (0, 1):
            table = swap_enumerate(created, SourceKind.PRODUCT, product_bit=x)
            for outcome in BellLabel:
                kept = table.outcome(outcome).kept_value()
                key = derive_key_bit(believed_state(created, outcome, rule),
                                     kept)
                claimed = x if created.kind is BellKind.PHI else 1 - x
                row = (f"created={created.short()} outcome={outcome.short()}"
                       f" x={x} kept={kept} key={key} table_value={claimed}")
                check.rows.append(row)
                if key != claimed:
                    check.mismatches.append(row)
    return check


def verify_tables() -> ConformanceReport:
    return ConformanceReport([
        _check_pair_composition(),
        _check_relay_key_rule(),
        _check_planted_bit(BeliefRule.MEASURED),
        _check_planted_bit(BeliefRule.COMPOSED),
    ])


# --- parameter calculator ----------------------------------------------------------

def params_report(target, p1=None) -> dict:
    """Sizing for a failure budget: key bits, detection slots, ratios, and
    the multi-photon inflation when a singles probability is given."""
    frac = Fraction(target)
    if not 0 < frac < 1:
        raise ValueError(f"target must be in (0, 1), got {target!r}")
    k = required_k(frac)
    d = required_d(frac)
    doc = {
        "target": float(frac),
        "k": k,
        "d": d,
        "forgery_prob": float(forgery_prob(k)),
        "evasion_prob": float(evasion_prob(d)),
        "d_over_k": d / k if k else None,
        "asymptotic_ratio": ratio_d_over_k(),
    }
    if p1 is not None:
        doc["p1"] = float(Fraction(p1))
        doc["pns_effective_d"] = pns_effective_d(d, p1)
        doc["pns_required_d"] = pns_required_d(d, p1)
        doc["pns_exact_evasion_at_d"] = float(pns_exact_evasion(d, p1))
        doc["pns_approx_evasion_at_d"] = pns_approx_evasion(d, p1)
    return doc


def params_text(doc: dict) -> str:
    lines = [f"{key} = {_fmt(value)}" for key, value in doc.items()]
    return "\n".join(lines) + "\n"
