"""Scenario runner, conformance checks, and report emission.

A scenario is a JSON document naming a session configuration, an optional
attack, channel properties, and output settings.  Running it executes
independent seeded trials (trial i always uses random stream i, so results
cannot depend on execution order or parallelism), pairs every empirical
metric with its closed-form prediction where one exists, and grades the
pair with a 4-sigma rule.  Each metric is an integer count of successes
over n integer samples: a trial (accept, evasion), or a slot (detection
errors over d, matching key bits over k, known key positions over k); its
mean is count / n.  A scenario is one pass over its trials that adds each
into fixed integer counts, one per metric, from counts the session and
the knowledge report already hold; folds of consecutive trial ranges
merge exactly in trial order.  Where the normal approximation behind the
4-sigma rule fails (n a (1 - a) < 9, rare events) that count is graded
with exact binomial tails at the same one-sided level.  A form that
assumes one detection error aborts asks the session's own check,
:func:`~qauthsim.protocol.tamper_check`, and is ungraded where it passes.

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
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .adversary import (
    AttackConfig,
    AttackKind,
    BasisChoice,
    LocationKnowledge,
    TapPath,
    _PNS,
    _SUBSET_GUESS,
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
    tamper_check,
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
        _check_out_path(self.out_path)
        guesses = self.attack.guess_count if self.attack else None
        if guesses is not None and guesses > self.session.total_slots:
            raise ScenarioError(
                f"attack.guess_count must be at most k + d = "
                f"{self.session.total_slots}, got {guesses}")


def _check_out_path(path: str | None) -> None:
    """Refuse a report path no file can have: ``open`` raises ValueError,
    not OSError, on a NUL character."""
    if path is not None and "\0" in path:
        raise ScenarioError("outputs.path must not contain a NUL character")


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

class TrialResult(NamedTuple):
    trial: int
    status: str
    alice_tamper_error_rate: float | None
    bob_tamper_error_rate: float | None
    key_match_fraction: float | None
    token_accepted: bool | None
    eve_key_knowledge: float
    server_copy_match: float | None
    event_log_digest: str


TRIAL_FIELDS = TrialResult._fields


class MetricSummary(NamedTuple):
    """One metric's grade.  A tuple, as :class:`TrialResult` is, so a report
    renders it through :meth:`to_row`, which names each cell and leaves out
    ``count``; ``aggregate_row`` does so, where ``_json_value`` given the
    summary itself would render a list."""

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
        row = self._asdict()
        del row["count"]
        return row


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

def analytic_predictions(spec: ScenarioSpec) -> dict[str, tuple[float | None, str | None]]:
    """Metric name -> (expected value, note).  Only metrics with a defensible
    closed form appear; everything else stays ungraded.

    Loss ends a session at emission (step 3), before any check and
    independently of every other draw, so a metric recorded only on
    complete sessions keeps its lossless form.  accept_rate is scaled by
    the chance that all 2 (k + d) photons arrive.  eve_key_knowledge is
    recorded on every trial and counts nothing on a lost session, where no
    slot is read, so under loss it stays graded only where its form is 0.

    The forms read only the session, the attack, the photon source and
    p_loss, so :func:`_predictions` keeps them per equal tuple of those
    frozen configs, as ``protocol._program`` keeps session programs; each
    call returns a dict of its own."""
    return dict(_predictions(spec.session, spec.attack, spec.photon,
                             spec.p_loss))


@lru_cache(maxsize=256)
def _predictions(cfg: SessionConfig, attack: AttackConfig | None,
                 photon: PhotonCountModel, p_loss: float
                 ) -> dict[str, tuple[float | None, str | None]]:
    out = _lossless_predictions(cfg, attack, photon)
    if p_loss > 0.0:
        if "accept_rate" in out:
            accept, note = out["accept_rate"]
            arrive = 1 - Fraction(p_loss)
            survive = arrive ** (2 * cfg.total_slots)
            out["accept_rate"] = (float(Fraction(accept) * survive), note)
        knowledge = out.get("eve_key_knowledge")
        if knowledge is not None and knowledge[0] != 0.0:
            del out["eve_key_knowledge"]
    return out


def _lossless_predictions(cfg: SessionConfig, attack: AttackConfig | None,
                          photon: PhotonCountModel
                          ) -> dict[str, tuple[float | None, str | None]]:
    """The closed forms on a channel that loses no photon.  A relay (honest
    or compromised) and a realtime tap disturb no detection slot; every
    other tap is blind.  With no detection slot the error rates and evasion
    are the vacuous 0 and 1.  Then, where a key bit agrees with the
    responder's by a fair coin (swap mode's measured rule, under every
    attack, or the triple relay in the diagonal key basis), the key match
    is 1/2 and a token that no check can stop is accepted at 2^-reveal."""
    kind = attack.kind if attack else AttackKind.NONE
    base_mode = cfg.mode is ProtocolMode.BASE
    undisturbed = {"alice_tamper_error_rate": (0.0, None),
                   "bob_tamper_error_rate": (0.0, None),
                   "evasion_rate": (1.0, None)}
    if kind not in _TAP_KINDS:
        out = {"accept_rate": (1.0, None), "key_match_fraction": (1.0, None),
               **undisturbed, "eve_key_knowledge": (0.0, None)}
        if kind is not AttackKind.NONE:
            out["server_copy_match"] = (1.0, None)
    elif attack.location_knowledge is LocationKnowledge.REALTIME:
        out = {"accept_rate": (1.0, "detection slots skipped entirely"),
               **undisturbed, "key_match_fraction": (1.0, None),
               "eve_key_knowledge": (1.0 if base_mode else 0.0, None)}
    else:
        out = _blind_tap_predictions(cfg, attack, photon, base_mode)
    if cfg.d == 0:
        # no detection slot, so no check can fail, whatever the attack
        vacuous = "vacuous: no detection slots"
        out.update(alice_tamper_error_rate=(0.0, vacuous),
                   bob_tamper_error_rate=(0.0, vacuous),
                   evasion_rate=(1.0, vacuous))
    # any two qubits of a GHZ triple are uncorrelated in the diagonal basis,
    # so each diagonal key read, and the relay's rectilinear record next to
    # bob's, agrees by a fair coin
    ghz_diagonal = (kind is AttackKind.SERVER_GHZ
                    and cfg.key_basis is MeasBasis.DIAGONAL)
    if ghz_diagonal:
        out["server_copy_match"] = (0.5, None)
    if ghz_diagonal or (not base_mode
                        and cfg.belief_rule is BeliefRule.MEASURED):
        # under the measured rule a key bit agrees iff the created pair was
        # phi-kind, a chance of 1/2 whatever reached the slot
        out["key_match_fraction"] = (0.5, None)
        if "accept_rate" in out:
            out["accept_rate"] = (float(forgery_prob(cfg.revealed)),
                                  out["accept_rate"][1])
    return out


def _blind_tap_predictions(cfg: SessionConfig, attack: AttackConfig,
                           photon: PhotonCountModel, base_mode: bool) -> dict:
    """The closed forms of a tap without realtime knowledge of the layout,
    from three numbers per tapped path: ``g``, the slots it targets (a
    guess's g of the k + d, else all); ``reads``, the chance that a
    targeted photon is read rather than split (p1 under PNS, else 1); and
    ``miss``, the chance that a key-slot read falls outside the key basis
    (1/2 for a fresh random basis per read, 1 for a fixed basis off the
    key basis, else 0)."""
    k, d, total = cfg.k, cfg.d, cfg.total_slots
    guess = attack.kind is AttackKind.SUBSET_GUESS
    pns = attack.kind is AttackKind.PNS
    g = attack.guess_count if guess else total
    reads = Fraction(photon.p1) if pns else Fraction(1)
    if attack.kind is not AttackKind.INTERCEPT_RESEND:
        miss = Fraction(0)
    elif attack.basis_choice is BasisChoice.RANDOM_PER_SLOT:
        miss = Fraction(1, 2)
    else:
        miss = Fraction(attack.fixed_basis is not cfg.key_basis)
    paths = attack.path.channel_paths()
    n, both = len(paths), len(paths) == 2
    # the evasion closed forms below hold where one detection error aborts,
    # as the session's own check decides; with no detection slot none can
    any_flip = d == 0 or not tamper_check(1, d, cfg.error_threshold)

    # A read errs with chance 1/2 when its basis misses the detection
    # slot's.  Twin photons share their preparation basis, so a read basis
    # kept for the session (miss 0 or 1) misses on both paths at once; a
    # fresh random basis per read misses on each path independently.
    independent = 0 < miss < 1
    miss_pass = 1 - reads / 2  # one path passes a missed slot
    slot_pass = (1 - reads / 4) ** n if independent else (1 + miss_pass ** n) / 2
    err = reads * Fraction(g, 4 * total)  # per tapped path and detection slot
    out = {"alice_tamper_error_rate": (
        float(err) if Path.TO_ALICE in paths else 0.0, None)}
    if base_mode or not both or independent:
        out["bob_tamper_error_rate"] = (
            float(err) if Path.TO_BOB in paths else 0.0, None)
    elif any_flip and not guess:
        # the responder checks only after the initiator passed, which
        # conditions each responder slot on its twin having read true (a
        # guess's targets are one g-subset, not drawn slot by slot)
        out["bob_tamper_error_rate"] = (float(err * miss_pass / (1 - err)),
                                        None)
    # E[slot_pass ** T] over T, the detection slots among the g targets
    terms, denom = _subset_terms(k, d, g, slot_pass)
    if guess and (any_flip or not base_mode):
        # success: the guess covers every key slot and evades; swap mode
        # never gives certain key knowledge
        out["subset_success"] = (
            terms.get(g - k, 0) / denom if base_mode else 0.0, None)
    if any_flip:
        out["evasion_rate"] = (sum(terms.values()) / denom, None)
        if pns and not both:
            out["evasion_rate_vs_approx"] = (
                pns_approx_evasion(d, photon.p1),
                "first-order approximation, shown for comparison; ungraded")
    # a targeted key slot is known unless every tapped path's read missed
    # the key basis; swap mode never gives certain knowledge
    know = Fraction(g, total) * (1 - miss ** n) if base_mode else 0
    out["eve_key_knowledge"] = (
        float(know), "hypergeometric mean coverage" if guess else None)
    # a read off the key basis leaves the bit a fair coin; no form is given
    # for such reads on both paths
    if not both or not miss:
        out["key_match_fraction"] = (float(1 - miss / 2), None)
    return out


def _subset_terms(k: int, d: int, g: int, slot_pass: Fraction
                  ) -> tuple[dict[int, int], int]:
    """P(T = j) * slot_pass ** j for every count j of detection slots that a
    uniform g-subset of the k + d positions can hold, as integer numerators
    over one common denominator; their sum over it is E[slot_pass ** T].

    With slot_pass = a / b and J the largest j, term j is
    C(d, j) C(k, g - j) a**j b**(J - j) over C(k + d, g) b**J."""
    a, b = slot_pass.numerator, slot_pass.denominator
    top = min(d, g)
    return ({j: math.comb(d, j) * math.comb(k, g - j) * a ** j * b ** (top - j)
             for j in range(max(0, g - k), top + 1)},
            math.comb(k + d, g) * b ** top)


# --- scenario execution -----------------------------------------------------------

# Aliases: the per-trial code compares members by identity without the
# class lookup.
_ACCEPTED, _LOST = SessionStatus.AUTH_ACCEPT, SessionStatus.INCOMPLETE_STREAM

# The metrics a trial can count, in the order it counts them; a metric's
# index is its place in a fold's counts and its bit in a trial's mask.
_METRICS = ("accept_rate", "alice_tamper_error_rate", "bob_tamper_error_rate",
            "key_match_fraction", "eve_key_knowledge", "server_copy_match",
            "evasion_rate", "evasion_rate_vs_approx", "subset_success")
# each path's party, whose check a tap on that path must pass to evade
_PARTY = {Path.TO_ALICE: "alice", Path.TO_BOB: "bob"}


class _Fold(NamedTuple):
    """Consecutive trials of one scenario: their report rows, and per metric
    of ``_METRICS`` its successes (``hits``) and integer ``samples``.
    ``order`` holds the index of each metric the trials counted, in the
    order of the first trial that counted it, and in ``_METRICS`` order
    within that trial.  Counts are integers, so folds of consecutive pieces
    merge exactly: sum the counts and keep each metric's first place."""

    rows: list[TrialResult]
    hits: list[int]
    samples: list[int]
    order: list[int]


def run_scenario(spec: ScenarioSpec) -> AggregateReport:
    """The scenario's trials folded in one pass (:func:`_fold`), then
    graded: each counted metric in its first-use order, then each metric
    that only a closed form names, with no samples."""
    cfg = spec.session
    kind = spec.attack.kind if spec.attack else AttackKind.NONE
    fold = _fold(spec, 0, spec.trials)
    predictions = analytic_predictions(spec)
    names = [_METRICS[index] for index in fold.order]
    counted = set(names)
    metrics = []
    for name in names + [name for name in predictions if name not in counted]:
        index = _METRICS.index(name)
        analytic, note = predictions.get(name, (None, None))
        metrics.append(_summarize(name, fold.hits[index], fold.samples[index],
                                  analytic, note,
                                  name != "evasion_rate_vs_approx"))
    return AggregateReport(
        seed=spec.seed, trials=spec.trials, mode=cfg.mode.value,
        belief_rule=cfg.belief_rule.value if cfg.belief_rule else None,
        attack_kind=kind.value, metrics=metrics, trial_results=fold.rows)


def _fold(spec: ScenarioSpec, start: int, stop: int) -> _Fold:
    """Trials ``start`` to ``stop`` - 1 of ``spec``, each on its own random
    stream, added into one :class:`_Fold` as they run.

    A trial counts ``accept_rate`` and ``eve_key_knowledge``; with a
    complete stream also each party's errors over d detection slots
    (where d > 0 and the party checked), ``key_match_fraction`` where both
    parties read their keys, and ``server_copy_match`` where a relay record
    meets a responder key.  Evasion, every checked party passing (each
    tapped path's party, both when nothing taps), is counted where it is
    decided: a checked party failed, or every checked party's check ran.
    With it count the PNS approximation on a one-path tap and the subset
    guess's success (evaded, and every key slot known)."""
    cfg = spec.session
    k, d = cfg.k, cfg.d
    attack, seed, photon, p_loss = (spec.attack, spec.seed, spec.photon,
                                    spec.p_loss)
    kind = attack.kind if attack else AttackKind.NONE
    paths = (attack.path.channel_paths() if kind in _TAP_KINDS
             else tuple(_PARTY))
    checked = frozenset([_PARTY[path] for path in paths])
    alice_checked = "alice" in checked
    slots = max(d, 1)  # a rate at d = 0 is 0.0, the vacuous pass
    errors_bit = 1 << 1 if d else 0  # alice's; bob's is the next bit
    # the metric counted alongside evasion_rate, if any, and their bits
    approx = kind is _PNS and len(paths) == 1
    guess = kind is _SUBSET_GUESS
    evasion_bits = 1 << 6 | (1 << 7 if approx else 1 << 8 if guess else 0)
    hits, samples = [0] * len(_METRICS), [0] * len(_METRICS)
    rows: list[TrialResult] = []
    order: list[int] = []
    seen = 0
    for trial in range(start, stop):
        out = run_session(cfg, attack, RandomSource(seed, trial),
                          photon=photon, p_loss=p_loss)
        report = eve_knowledge_report(out)
        certain, copy_hits = report.certain, report.copy_hits
        status = out.status
        # bools count as 0 or 1
        hits[0] += status is _ACCEPTED
        samples[0] += 1
        hits[4] += certain
        samples[4] += k
        mask = 1 << 0 | 1 << 4
        alice_errors = bob_errors = matches = None
        if status is not _LOST:
            alice_errors = out.alice_tamper_errors
            bob_errors = out.bob_tamper_errors
            matches = out.key_match_count
            hits[1] += alice_errors
            samples[1] += d
            mask |= errors_bit
            if bob_errors is None:
                # SWAP mode, the initiator failed: the responder never checked
                evaded = False if alice_checked else None
            else:
                hits[2] += bob_errors
                samples[2] += d
                mask |= errors_bit << 1
                evaded = checked.isdisjoint(out.failed_checks)
            if matches is not None:
                hits[3] += matches
                samples[3] += k
                mask |= 1 << 3
            if copy_hits is not None:
                hits[5] += copy_hits
                samples[5] += k
                mask |= 1 << 5
            if evaded is not None:
                hits[6] += evaded
                samples[6] += 1
                if approx:
                    hits[7] += evaded
                    samples[7] += 1
                elif guess:
                    hits[8] += evaded and certain == k
                    samples[8] += 1
                mask |= evasion_bits
        new = mask & ~seen
        if new:
            seen |= new
            order += [index for index in range(len(_METRICS))
                      if new >> index & 1]
        rows.append(TrialResult(
            trial, status.value,
            None if alice_errors is None else alice_errors / slots,
            None if bob_errors is None else bob_errors / slots,
            None if matches is None else matches / k, out.token_matched,
            certain / k, None if copy_hits is None else copy_hits / k,
            out.events.digest()))
    return _Fold(rows, hits, samples, order)


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
    # no value is both a scalar and a container, so the scalars a report
    # holds most go first
    if isinstance(value, float):
        # JSON has no inf or nan: a failing exact metric's sigma distance
        return "%.17g" % value if math.isfinite(value) else "null"
    if value is None:
        return "null"
    if isinstance(value, str):
        return encode_basestring_ascii(value)  # as json.dumps writes it
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, dict):
        inner = ",".join([(encode_basestring_ascii(k) if isinstance(k, str)
                           else json.dumps(k)) + ":" + _json_value(v)
                          for k, v in value.items()])
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join([_json_value(v) for v in value]) + "]"
    if isinstance(value, int):
        return int.__repr__(value)  # as json.dumps writes it
    raise TypeError(f"cannot render {type(value).__name__} as JSON")


# a trial row as a JSON object: its field names are fixed, its values cells
_JSON_ROW = "{" + ",".join([encode_basestring_ascii(name).replace("%", "%%")
                            + ":%s" for name in TRIAL_FIELDS]) + "}"


def _json_row(trial: TrialResult) -> str:
    return _JSON_ROW % tuple([_json_value(value) for value in trial])


def render_report(report: AggregateReport, out_format: str) -> str:
    if out_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(TRIAL_FIELDS)
        writer.writerows([[_fmt(value) for value in trial]
                          for trial in report.trial_results])
        return buf.getvalue()
    if out_format == "json":
        lines = [*map(_json_row, report.trial_results),
                 _json_value(report.aggregate_row())]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {out_format!r}")


def emit_report(report: AggregateReport, out_format: str,
                path: str | None) -> str:
    text = render_report(report, out_format)
    if path is not None:
        _check_out_path(path)
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
