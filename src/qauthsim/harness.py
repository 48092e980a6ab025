"""Scenario runner, conformance checks, and report emission.

A scenario is a JSON document naming a session configuration, an optional
attack, channel properties, and output settings.  Running it executes
independent seeded trials (trial i always uses random stream i, so results
cannot depend on execution order or parallelism), pairs every empirical
metric with its closed-form prediction where one exists, and grades the
pair with a 4-sigma rule.  Where the normal approximation behind that rule
fails (n a (1 - a) < 9, rare events) the count is graded with exact
binomial tails at the same one-sided level.

verify_tables() checks the exact pair-algebra claims by enumeration: state
composition, the honest relay key-bit rule, and the compromised-relay
key-bit table under both belief rules.  The two rules disagree on the
planted-bit table; the disagreement is printed row by row every run, never
suppressed, and does not fail the check (see the belief-rule notes in the
protocol module).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .adversary import (
    AttackConfig,
    AttackKind,
    BasisChoice,
    LocationKnowledge,
    TapPath,
    eve_knowledge_report,
)
from .channel import Path, PhotonCountModel
from .protocol import (
    BeliefRule,
    ProtocolMode,
    SessionConfig,
    SessionStatus,
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

_SESSION_FIELDS = ("k", "d", "reveal_count", "mode", "belief_rule",
                   "error_threshold", "key_basis")
_ATTACK_FIELDS = ("kind", "path", "basis_choice", "fixed_basis", "guess_count",
                  "location_knowledge")
_PHOTON_FIELDS = ("p1", "p_loss")
_OUTPUT_FIELDS = ("format", "path")
_TOP_FIELDS = ("seed", "trials", "session", "attack", "photon", "outputs")


@dataclass(frozen=True)
class ScenarioSpec:
    seed: int
    trials: int
    session: SessionConfig
    attack: AttackConfig | None
    photon: PhotonCountModel
    p_loss: float
    out_format: str = "json"
    out_path: str | None = None


def _reject_unknown(doc: dict, allowed: tuple[str, ...], where: str) -> None:
    for key in doc:
        if key not in allowed:
            raise ScenarioError(f"unknown field {where}{key}")


def _get_enum(enum_cls, doc: dict, key: str, where: str, default=None):
    if key not in doc or doc[key] is None:
        return default
    try:
        return enum_cls(doc[key])
    except ValueError:
        names = ", ".join(e.value for e in enum_cls)
        raise ScenarioError(
            f"{where}{key}: {doc[key]!r} is not one of {names}") from None


def _get_int(doc: dict, key: str, where: str, default=None, required=False):
    if key not in doc or doc[key] is None:
        if required:
            raise ScenarioError(f"missing field {where}{key}")
        return default
    value = doc[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioError(f"{where}{key} must be an integer, got {value!r}")
    return value


def _get_num(doc: dict, key: str, where: str, default=None):
    if key not in doc or doc[key] is None:
        return default
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ScenarioError(f"{where}{key} is out of range") from None


def _get_object(doc: dict, key: str) -> dict:
    """A section that may be absent or null (then empty), else an object."""
    value = doc.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ScenarioError(f"{key} must be an object or null, got {value!r}")
    return value


def parse_scenario(doc: dict) -> ScenarioSpec:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    _reject_unknown(doc, _TOP_FIELDS, "")

    seed = _get_int(doc, "seed", "", required=True)
    if not 0 <= seed < 2 ** 64:
        raise ScenarioError("seed must fit in 64 bits")
    trials = _get_int(doc, "trials", "", required=True)
    if trials < 0:
        raise ScenarioError("trials must be non-negative")

    sdoc = doc.get("session")
    if not isinstance(sdoc, dict):
        raise ScenarioError("missing field session")
    _reject_unknown(sdoc, _SESSION_FIELDS, "session.")
    try:
        session = SessionConfig(
            k=_get_int(sdoc, "k", "session.", required=True),
            d=_get_int(sdoc, "d", "session.", required=True),
            reveal_count=_get_int(sdoc, "reveal_count", "session.",
                                  default=sdoc.get("k"), required=False),
            mode=_get_enum(ProtocolMode, sdoc, "mode", "session.",
                           default=ProtocolMode.BASE),
            belief_rule=_get_enum(BeliefRule, sdoc, "belief_rule", "session."),
            error_threshold=_get_num(sdoc, "error_threshold", "session.", 0.0),
            key_basis=_get_enum(MeasBasis, sdoc, "key_basis", "session.",
                                default=MeasBasis.RECTILINEAR),
        )
    except ValueError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"session: {exc}") from None

    adoc = doc.get("attack")
    attack = None
    if adoc is not None:
        if not isinstance(adoc, dict):
            raise ScenarioError("attack must be an object or null")
        _reject_unknown(adoc, _ATTACK_FIELDS, "attack.")
        kind = _get_enum(AttackKind, adoc, "kind", "attack.")
        if kind is None:
            raise ScenarioError("missing field attack.kind")
        # every field is checked, also for kind "none", which means no attack
        try:
            attack = AttackConfig(
                kind=kind,
                path=_get_enum(TapPath, adoc, "path", "attack.",
                               default=TapPath.TO_BOB),
                basis_choice=_get_enum(BasisChoice, adoc, "basis_choice",
                                       "attack.",
                                       default=BasisChoice.RANDOM_PER_SLOT),
                fixed_basis=_get_enum(MeasBasis, adoc, "fixed_basis",
                                      "attack.",
                                      default=MeasBasis.RECTILINEAR),
                guess_count=_get_int(adoc, "guess_count", "attack."),
                location_knowledge=_get_enum(
                    LocationKnowledge, adoc, "location_knowledge",
                    "attack.", default=LocationKnowledge.NEVER),
            )
        except ValueError as exc:
            if isinstance(exc, ScenarioError):
                raise
            raise ScenarioError(f"attack: {exc}") from None
        if kind is AttackKind.NONE:
            attack = None
        elif (attack.guess_count is not None
              and attack.guess_count > session.total_slots):
            raise ScenarioError(
                f"attack.guess_count must be at most k + d = "
                f"{session.total_slots}, got {attack.guess_count}")

    pdoc = _get_object(doc, "photon")
    _reject_unknown(pdoc, _PHOTON_FIELDS, "photon.")
    p1 = _get_num(pdoc, "p1", "photon.", 1.0)
    p_loss = _get_num(pdoc, "p_loss", "photon.", 0.0)
    try:
        photon = PhotonCountModel(p1)
    except ValueError as exc:
        raise ScenarioError(f"photon: {exc}") from None
    if not 0.0 <= p_loss < 1.0:
        raise ScenarioError("photon.p_loss must be in [0, 1)")

    odoc = _get_object(doc, "outputs")
    _reject_unknown(odoc, _OUTPUT_FIELDS, "outputs.")
    out_format = odoc.get("format")
    if out_format is None:
        out_format = "json"
    if out_format not in ("json", "csv"):
        raise ScenarioError("outputs.format must be 'json' or 'csv'")
    out_path = odoc.get("path")
    if out_path is not None and not isinstance(out_path, str):
        raise ScenarioError("outputs.path must be a string")

    return ScenarioSpec(seed, trials, session, attack, photon, p_loss,
                        out_format, out_path)


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
    mean: float | None
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


class _Accumulator:
    """Bernoulli tallies: numerator can be fractional (mean of per-trial
    rates times their weight) but the denominator is always a sample count."""

    __slots__ = ("num", "den")

    def __init__(self) -> None:
        self.num = 0.0
        self.den = 0

    def add(self, value: float, weight: int = 1) -> None:
        self.num += value * weight
        self.den += weight

    def mean(self) -> float | None:
        return self.num / self.den if self.den else None


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


def _summarize(name: str, acc: _Accumulator, analytic: float | None,
               note: str | None, graded: bool = True) -> MetricSummary:
    mean = acc.mean()
    ci_low = ci_high = None
    if mean is not None:
        half = _Z99 * math.sqrt(max(mean * (1 - mean), 0.0) / acc.den)
        ci_low, ci_high = max(0.0, mean - half), min(1.0, mean + half)
    abs_diff = sigma_distance = verdict = None
    if analytic is not None and mean is not None:
        abs_diff = abs(mean - analytic)
        sigma = math.sqrt(max(analytic * (1 - analytic), 0.0) / acc.den)
        if sigma == 0.0:
            sigma_distance = 0.0 if abs_diff == 0.0 else math.inf
        else:
            sigma_distance = abs_diff / sigma
        if graded:
            if 0.0 < sigma and acc.den * analytic * (1 - analytic) < 9.0:
                ok = _within_binomial_tails(round(mean * acc.den), acc.den,
                                            analytic)
            else:
                ok = sigma_distance <= _Z
            verdict = "pass" if ok else "fail"
    return MetricSummary(name, mean, acc.den, ci_low, ci_high, analytic,
                         note, abs_diff, sigma_distance, verdict)


# --- analytic predictions --------------------------------------------------------

def _accept_and_match(spec: ScenarioSpec) -> tuple[float, float]:
    """Closed-form accept rate and per-slot key match for source-level
    behavior (honest or compromised relay): the belief rule decides both."""
    cfg = spec.session
    if cfg.mode is ProtocolMode.BASE or cfg.belief_rule is BeliefRule.COMPOSED:
        return 1.0, 1.0
    # MEASURED: each slot agrees iff the created pair was phi-kind
    return float(forgery_prob(cfg.reveal_count)), 0.5


def analytic_predictions(spec: ScenarioSpec) -> dict[str, tuple[float | None, str | None]]:
    """Metric name -> (expected value, note).  Only metrics with a defensible
    closed form appear; everything else stays ungraded."""
    cfg = spec.session
    attack = spec.attack
    kind = attack.kind if attack else AttackKind.NONE
    out: dict[str, tuple[float | None, str | None]] = {}
    d_note = "vacuous: no detection slots" if cfg.d == 0 else None
    if spec.p_loss > 0.0:
        return out  # loss truncates sessions; no closed forms maintained

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
    tapped = attack.path.channel_paths() if (
        attack and kind in (AttackKind.INTERCEPT_RESEND, AttackKind.SUBSET_GUESS,
                            AttackKind.PNS)) else ()

    acc: dict[str, _Accumulator] = {}

    def bump(name: str, value: float, weight: int = 1) -> None:
        acc.setdefault(name, _Accumulator()).add(value, weight)

    trial_results: list[TrialResult] = []
    for trial in range(spec.trials):
        rand = RandomSource(spec.seed, trial)
        out = run_session(cfg, attack, rand, photon=spec.photon,
                          p_loss=spec.p_loss)
        report = eve_knowledge_report(out.eve, out.plan, out)

        bump("accept_rate", out.status is SessionStatus.AUTH_ACCEPT)
        if out.alice_tamper_error_rate is not None and cfg.d > 0:
            bump("alice_tamper_error_rate", out.alice_tamper_error_rate, cfg.d)
        if out.bob_tamper_error_rate is not None and cfg.d > 0:
            bump("bob_tamper_error_rate", out.bob_tamper_error_rate, cfg.d)
        match = out.key_match_fraction()
        if match is not None:
            bump("key_match_fraction", match, cfg.k)
        bump("eve_key_knowledge", report.fraction, cfg.k)
        if report.server_copy_match is not None:
            bump("server_copy_match", report.server_copy_match, cfg.k)

        evaded = _evaded(out, tapped)
        if evaded is not None:
            bump("evasion_rate", evaded)
            if kind is AttackKind.PNS and len(tapped) == 1:
                bump("evasion_rate_vs_approx", evaded)
            if kind is AttackKind.SUBSET_GUESS:
                bump("subset_success", evaded and report.fraction == 1.0)

        trial_results.append(TrialResult(
            trial=trial,
            status=out.status.value,
            alice_tamper_error_rate=out.alice_tamper_error_rate,
            bob_tamper_error_rate=out.bob_tamper_error_rate,
            key_match_fraction=match,
            token_accepted=out.token_matched,
            eve_key_knowledge=report.fraction,
            server_copy_match=report.server_copy_match,
            event_log_digest=out.events.digest(),
        ))

    predictions = analytic_predictions(spec)
    names = list(acc)
    for name in predictions:
        if name not in names:
            names.append(name)
    metrics = []
    for name in names:
        analytic, note = predictions.get(name, (None, None))
        graded = name != "evasion_rate_vs_approx"
        metrics.append(_summarize(name, acc.get(name, _Accumulator()),
                                  analytic, note, graded))

    return AggregateReport(
        seed=spec.seed, trials=spec.trials, mode=cfg.mode.value,
        belief_rule=cfg.belief_rule.value if cfg.belief_rule else None,
        attack_kind=kind.value, metrics=metrics, trial_results=trial_results)


def _evaded(out, tapped: tuple[Path, ...]) -> bool | None:
    """Did every tapped party's check run and pass?  None when a needed
    check never ran (lost stream, or the session aborted first)."""
    if out.status is SessionStatus.INCOMPLETE_STREAM:
        return None
    checks = {Path.TO_ALICE: ("alice", out.alice_tamper_error_rate),
              Path.TO_BOB: ("bob", out.bob_tamper_error_rate)}
    paths = tapped or (Path.TO_ALICE, Path.TO_BOB)
    for path in paths:
        party, rate = checks[path]
        if party in out.failed_checks:
            return False
        if rate is None:
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
        return "%.17g" % value
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


@dataclass
class ConformanceReport:
    sections: list[TableCheck]
    matrix: list[tuple[str, str, str]]

    @property
    def ok(self) -> bool:
        return all(section.ok for section in self.sections)

    def section(self, name: str) -> TableCheck:
        for s in self.sections:
            if s.name == name:
                return s
        raise KeyError(name)

    def text(self) -> str:
        lines = []
        for s in self.sections:
            status = "exact" if not s.mismatches else (
                f"{len(s.mismatches)} mismatches" if s.graded
                else f"{len(s.mismatches)} discrepancies (informational)")
            lines.append(f"== {s.name} [{status}] ==")
            lines.extend("  " + r for r in s.rows)
            if s.mismatches:
                label = "MISMATCH" if s.graded else "DISCREPANCY"
                lines.extend(f"  {label}: {m}" for m in s.mismatches)
            lines.append("")
        lines.append("== conformance matrix ==")
        for claim, where, status in self.matrix:
            lines.append(f"  {claim:<34} {where:<42} {status}")
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
            residual = bell_compose(created, outcome)
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


def _planted_bit_rows():
    """All 32 (created, outcome, planted bit) combinations of the
    planted-product compromise, with the oracle's deterministic kept bit."""
    for created in BellLabel:
        for x in (0, 1):
            table = swap_enumerate(created, SourceKind.PRODUCT, product_bit=x)
            for outcome in BellLabel:
                cell = table.outcome(outcome)
                kept = cell.kept_value()
                yield created, outcome, x, kept


def _check_planted_bit_measured() -> TableCheck:
    """Published compromised-relay table: with the MEASURED belief rule the
    derived key equals the planted bit exactly when the created pair is
    phi-kind.  Four row families, one per created state."""
    check = TableCheck("compromised-server-key-bit")
    for created, outcome, x, kept in _planted_bit_rows():
        derived = derive_key_bit(outcome, kept)  # MEASURED: believe outcome
        claimed = x if created.kind is BellKind.PHI else 1 - x
        row = (f"created={created.short()} outcome={outcome.short()} x={x}"
               f" kept={kept} key={derived}")
        check.rows.append(row)
        if derived != claimed:
            check.mismatches.append(row + f" table_value={claimed}")
    return check


def _check_planted_bit_composed() -> TableCheck:
    """Same rows under the COMPOSED rule: the derived key is always the
    planted bit, so every psi-kind row disagrees with the published table.
    Reported row-by-row; informational by design."""
    check = TableCheck("belief-rule-discrepancy", graded=False)
    for created, outcome, x, kept in _planted_bit_rows():
        derived = derive_key_bit(bell_compose(created, outcome), kept)
        claimed = x if created.kind is BellKind.PHI else 1 - x
        row = (f"created={created.short()} outcome={outcome.short()} x={x}"
               f" kept={kept} composed_key={derived} table_value={claimed}")
        check.rows.append(row)
        if derived != claimed:
            check.mismatches.append(row)
    return check


_MATRIX_STATIC = (
    ("honest-completeness", "run analytics: accept_rate, error rates"),
    ("intercept-error-rate", "run analytics: tamper error rates"),
    ("single-path-evasion", "run analytics: evasion_rate"),
    ("forgery-rate", "acceptance suite: token guessing trial"),
    ("sizing-k17-d41", "params command; acceptance suite"),
    ("slot-ratio-2.41", "params command"),
    ("subset-guess-success", "run analytics: subset_success"),
    ("subset-improvement-limit", "secparams tests: improvement boundary"),
    ("pns-exact-evasion", "run analytics: evasion_rate"),
    ("pns-approx-comparison", "run analytics: evasion_rate_vs_approx"),
    ("pns-inflated-d", "params command with p1"),
    ("server-copy-rate", "run analytics: server_copy_match"),
    ("measured-rule-half-match", "run analytics: key_match_fraction"),
    ("realtime-zero-detection", "run analytics under realtime knowledge"),
    ("late-knowledge-worthless", "acceptance suite: after-vs-never comparison"),
)


def verify_tables() -> ConformanceReport:
    sections = [
        _check_pair_composition(),
        _check_relay_key_rule(),
        _check_planted_bit_measured(),
        _check_planted_bit_composed(),
    ]
    matrix = []
    for section in sections:
        status = "exact" if not section.mismatches else (
            "FAIL" if section.graded else
            f"{len(section.mismatches)} rows differ (documented)")
        matrix.append((section.name, "verify-tables enumeration", status))
    for claim, where in _MATRIX_STATIC:
        matrix.append((claim, where, "checked at run time"))
    return ConformanceReport(sections, matrix)


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
