"""Acceptance suite: every headline quantitative claim, one check each.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s`` or in
failure output).

The Monte Carlo criteria (02, 03, 04, 06, 08, 09, 11, 12) are scenario
documents run by ``run_scenario``, the same harness ``qauthsim run`` grades
with: trial t of a scenario uses ``RandomSource(seed, t)``.  Each criterion
reads its numbers (mean, n, sigma distance, verdict) from the harness's
``MetricSummary``.  A verdict is the harness's 4-sigma rule around the
closed form; where the closed form is 0 or 1 its sigma is 0, so the verdict
demands an exact match.  Criteria 03 and 09 keep an absolute +/- 0.01 band,
08 additionally requires the first-order approximation to sit more than
4 sigma away, and 12 bounds the gap between two arms by 4*sqrt(2) sigma.
Criterion 05 draws tokens and runs no session: it grades its plain count
of guessed tokens with the same rule, ``_summarize(name, hits, n, ...)``.
The exact claims (01, 09's table rows, 10) read the sections that
``verify_tables`` enumerates with rational arithmetic.

The binomial sigma of a slot-weighted metric treats the slots of one trial
as independent draws.  For the slot-weighted criteria this holds exactly:

* 03 error rate, and 12 pooled error: every detection slot draws its own
  preparation basis and value, the tap draws its own basis per slot (or
  uses one fixed basis against the slot's own random basis), and outcomes
  are independent, so each slot errs with probability 1/4 on its own.
* 09 key match: every key slot draws its own created pair; a slot agrees
  exactly when that pair is phi-kind, probability 1/2 independently.
* 12 pooled knowledge: the tap draws its basis per key slot, and a slot is
  known exactly when that basis is the key basis, probability 1/2
  independently.

Subset guessing is where it fails: the guessed positions are a uniform
g-subset, so the key slots a trial covers are drawn without replacement
and are negatively correlated.  The true variance of its slot-weighted
``eve_key_knowledge`` is then below the binomial one, so a 4-sigma band on
it is conservative.  Criterion 06 grades ``subset_success``, one Bernoulli
draw per trial, and does not depend on the assumption.
"""

import json
import math
import time
from fractions import Fraction
from itertools import combinations
from math import comb

from qauthsim.harness import (
    AggregateReport,
    MetricSummary,
    _summarize,
    load_scenario,
    parse_scenario,
    render_report,
    run_scenario,
    verify_tables,
)
from qauthsim.protocol import authenticate
from qauthsim.qsim import RandomSource
from qauthsim.secparams import (
    evasion_prob,
    forgery_prob,
    improvement_limit,
    pns_required_d,
    required_d,
    required_k,
    subset_success_prob,
)


def _verdict(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def _run(doc: dict) -> AggregateReport:
    return run_scenario(parse_scenario(doc))


def _passed(report: AggregateReport, *names: str) -> bool:
    return all(report.metric(name).verdict == "pass" for name in names)


def _count(m: MetricSummary, slots: int = 1) -> int:
    """The trials that scored 1: the metric's count for a per-trial metric,
    or that count over the ``slots`` per trial for a slot-weighted one whose
    mean is 0 or 1, where every trial scores all its slots alike."""
    return m.count // slots


def _signed_distance(m: MetricSummary) -> float:
    return math.copysign(m.sigma_distance, m.mean - m.analytic)


_TAP_BOB = {"kind": "intercept_resend", "path": "to_bob"}


def test_criterion_01_pair_composition_exact():
    t0 = time.perf_counter()
    section = verify_tables().section("pair-composition")
    elapsed = time.perf_counter() - t0
    exact = len(section.rows) - len(section.mismatches)
    _verdict("01 pair-composition",
             exact == len(section.rows) == 16 and elapsed < 1.0,
             f"{exact}/16 cells exact, {elapsed * 1000:.0f} ms")


def test_criterion_02_honest_completeness():
    trials = 10_000
    details = []
    ok = True
    for label, session in (
        ("direct", {"k": 17, "d": 41, "mode": "base"}),
        ("relay", {"k": 17, "d": 41, "mode": "swap",
                   "belief_rule": "composed"}),
    ):
        rep = _run({"seed": 0x5EED01, "trials": trials, "session": session})
        err = (rep.metric("alice_tamper_error_rate").mean
               + rep.metric("bob_tamper_error_rate").mean)
        ok &= _passed(rep, "accept_rate", "alice_tamper_error_rate",
                      "bob_tamper_error_rate")
        details.append(f"{label} accept"
                       f" {_count(rep.metric('accept_rate'))}/{trials}"
                       f" err {err:g}")
    _verdict("02 honest-completeness", ok, "; ".join(details))


def test_criterion_03_intercept_error_rate():
    details = []
    ok = True
    for label, attack in (("random", _TAP_BOB),
                          ("fixed", _TAP_BOB | {"basis_choice": "fixed"})):
        m = _run({"seed": 0x5EED03,
                  "trials": 12_500,  # x8 detection slots = 1e5 tamper bits
                  "session": {"k": 1, "d": 8, "mode": "base"},
                  "attack": attack}).metric("bob_tamper_error_rate")
        ok &= m.analytic == 0.25 and m.abs_diff <= 0.01
        details.append(f"{label} {m.mean:.4f} over {m.n} bits")
    _verdict("03 intercept-error-rate", ok,
             "; ".join(details) + " (target 0.25 +/- 0.01)")


def test_criterion_04_evasion_probability():
    details = []
    ok = True
    for d, trials in ((8, 100_000), (1, 30_000)):
        m = _run({"seed": 0x5EED04 + d, "trials": trials,
                  "session": {"k": 1, "d": d, "mode": "base"},
                  "attack": _TAP_BOB}).metric("evasion_rate")
        ok &= m.analytic == float(evasion_prob(d)) and m.verdict == "pass"
        details.append(f"d={d} rate {m.mean:.5f} vs {m.analytic:.5f}"
                       f" ({m.sigma_distance:.2f} sigma)")
    _verdict("04 evasion-probability", ok, "; ".join(details))


def test_criterion_05_forgery_probability():
    rand = RandomSource(0x5EED05, 0)
    n = 1_000_000
    hits = 0
    for _ in range(n):
        token = rand.bits(8)
        receiver = rand.bits(8)
        hits += authenticate(token, receiver)
    m = _summarize("forgery", hits, n, float(forgery_prob(8)))
    _verdict("05 forgery-probability", m.verdict == "pass",
             f"rate {m.mean:.6f} vs 2^-8 {m.analytic:.6f}"
             f" ({m.sigma_distance:.2f} sigma, N=1e6)")


def test_criterion_06_subset_guess_formula():
    k, d = 2, 3
    details = []
    ok = True
    for g in (2, 3, 4, 5):
        m = _run({"seed": 0x5EED06 + g, "trials": 20_000,
                  "session": {"k": k, "d": d, "mode": "base"},
                  "attack": {"kind": "subset_guess", "path": "to_bob",
                             "guess_count": g}}).metric("subset_success")
        ok &= m.analytic == float(subset_success_prob(k, d, g)) \
            and m.verdict == "pass"
        details.append(f"g={g} {m.mean:.4f}~{m.analytic:.4f}"
                       f" ({m.sigma_distance:.1f}s)")

    # exact-rational formula equals exhaustive enumeration everywhere small
    enum_ok = True
    for ek in range(1, 4):
        for ed in range(0, 6):
            for eg in range(ek, ek + ed + 1):
                total = Fraction(0)
                keys = frozenset(range(ek))
                for chosen in combinations(range(ek + ed), eg):
                    if keys <= set(chosen):
                        total += Fraction(3, 4) ** (eg - ek)
                enum_ok &= subset_success_prob(ek, ed, eg) == \
                    total / comb(ek + ed, eg)

    # improvement boundary: strictly better guesses up to g < 4k-1
    bound_ok = True
    bk, bd = 2, 20
    for g in range(bk, bk + bd):
        gain = subset_success_prob(bk, bd, g + 1) > subset_success_prob(bk, bd, g)
        bound_ok &= gain == (g < improvement_limit(bk))

    _verdict("06 subset-guess-formula", ok and enum_ok and bound_ok,
             "; ".join(details) + f"; enumeration exact {enum_ok},"
             f" boundary g<{improvement_limit(bk)} {bound_ok}")


def test_criterion_07_parameter_sizing():
    headline = required_k(Fraction(1, 2 ** 17)) == 17 and \
        required_d(Fraction(1, 2 ** 17)) == 41
    rand = RandomSource(0x5EED07, 0)
    lo, hi = math.log10(1e-12), math.log10(0.5)
    checked = 0
    post_ok = True
    for _ in range(1000):
        target = Fraction(10 ** (lo + rand.uniform() * (hi - lo)))
        k = required_k(target)
        d = required_d(target)
        post_ok &= forgery_prob(k) <= target and evasion_prob(d) <= target
        if k > 0:
            post_ok &= forgery_prob(k - 1) > target
        if d > 0:
            post_ok &= evasion_prob(d - 1) > target
        checked += 1
    _verdict("07 parameter-sizing", headline and post_ok and checked == 1000,
             f"2^-17 -> (17, 41); postconditions+minimality on {checked}"
             " sampled targets")


def test_criterion_08_pns():
    p1, d = 0.5, 16
    rep = _run({"seed": 0x5EED08, "trials": 40_000,
                "session": {"k": 1, "d": d, "mode": "base"},
                "attack": {"kind": "pns", "path": "to_bob"},
                "photon": {"p1": p1}})
    exact = rep.metric("evasion_rate")
    approx = rep.metric("evasion_rate_vs_approx")  # same trials, ungraded

    inflated = pns_required_d(d, p1)
    restores = Fraction(1, 2) * inflated >= d  # approx exponent back at target

    ok = exact.verdict == "pass" and approx.sigma_distance > 4.0 \
        and inflated == 32 and restores
    _verdict("08 pns", ok,
             f"rate {exact.mean:.4f}: exact {exact.analytic:.4f}"
             f" ({exact.sigma_distance:.2f} sigma),"
             f" approx {approx.analytic:.4f}"
             f" ({approx.sigma_distance:.1f} sigma, distinguishable);"
             f" inflation d={inflated} restores target")


def test_criterion_09_compromised_server_measured_rule():
    # row enumeration: derived key equals the planted bit exactly for
    # phi-kind created pairs, its complement for psi-kind
    section = verify_tables().section("compromised-server-key-bit")
    rows_ok = len(section.rows) == 32 and not section.mismatches

    rep = _run({"seed": 0x5EED09,
                "trials": 12_500,  # x8 key slots = 1e5 slots
                "session": {"k": 8, "d": 8, "mode": "swap",
                            "belief_rule": "measured"},
                "attack": {"kind": "server_product"}})
    match = rep.metric("key_match_fraction")
    accept = rep.metric("accept_rate")

    ok = rows_ok and match.analytic == 0.5 and match.abs_diff <= 0.01 \
        and accept.analytic == float(forgery_prob(8)) \
        and accept.verdict == "pass"
    _verdict("09 compromised-server-measured", ok,
             f"{len(section.rows)} rows exact {rows_ok};"
             f" match {match.mean:.4f} over {match.n}"
             f" slots (0.50 +/- 0.01); accept {accept.mean:.5f} vs 2^-8"
             f" ({accept.sigma_distance:.2f} sigma)")


def test_criterion_10_composed_rule_discrepancy():
    first = verify_tables()
    second = verify_tables()
    section = first.section("belief-rule-discrepancy")
    populated = len(section.mismatches) == 16 and len(section.rows) == 32
    deterministic = first.text() == second.text()
    reported = "DISCREPANCY" in first.text()
    exits_clean = first.ok  # informational section never fails the run
    _verdict("10 composed-rule-discrepancy",
             populated and deterministic and reported and exits_clean,
             f"{len(section.mismatches)} rows differ, printed row-by-row,"
             " byte-identical re-run, exit status clean")


def test_criterion_11_ghz_copy():
    trials = 10_000
    details = []
    ok = True
    for label, session in (
        ("direct", {"k": 4, "d": 8, "mode": "base"}),
        ("relay", {"k": 4, "d": 8, "mode": "swap", "belief_rule": "composed"}),
    ):
        rep = _run({"seed": 0x5EED11, "trials": trials, "session": session,
                    "attack": {"kind": "server_ghz"}})
        # every closed form here is 0 or 1: a pass is an exact match
        ok &= _passed(rep, "server_copy_match", "key_match_fraction",
                      "alice_tamper_error_rate", "bob_tamper_error_rate",
                      "evasion_rate")
        err = (rep.metric("alice_tamper_error_rate").mean
               + rep.metric("bob_tamper_error_rate").mean)
        k = session["k"]
        copies = _count(rep.metric("server_copy_match"), k)
        shared = _count(rep.metric("key_match_fraction"), k)
        detected = trials - _count(rep.metric("evasion_rate"))
        details.append(f"{label} copy {copies}/{trials} shared {shared}/{trials}"
                       f" err {err:g} detected {detected}")
    _verdict("11 ghz-copy", ok, "; ".join(details))


def test_criterion_12_location_knowledge_timing():
    session = {"k": 4, "d": 8, "mode": "base"}

    def arm(knowledge: str, seed: int, trials: int) -> AggregateReport:
        return _run({"seed": seed, "trials": trials, "session": session,
                     "attack": _TAP_BOB | {"location_knowledge": knowledge}})

    realtime = arm("realtime", 0x5EED12, 2000)
    rt_ok = _passed(realtime, "evasion_rate", "alice_tamper_error_rate",
                    "bob_tamper_error_rate", "eve_key_knowledge")

    # same seeds: late knowledge changes nothing observable in-session
    identical = arm("never", 0x5EED13, 2000).trial_results == \
        arm("after_measurement", 0x5EED13, 2000).trial_results

    # fresh seeds: every shared metric within 4 sigma across the two arms.
    # Both arms share the closed form and n, so the gap in sigma units is
    # the difference of the two signed sigma distances.
    never = arm("never", 0x5EED14, 6000)
    late = arm("after_measurement", 0x5EED15, 6000)
    close = True
    gaps = []
    for name in ("evasion_rate", "bob_tamper_error_rate", "eve_key_knowledge"):
        a, b = never.metric(name), late.metric(name)
        gap_sigmas = abs(_signed_distance(a) - _signed_distance(b))
        close &= a.analytic == b.analytic and a.n == b.n and \
            gap_sigmas <= 4.0 * math.sqrt(2.0)
        gaps.append(round(abs(a.mean - b.mean), 4))

    _verdict("12 location-knowledge-timing", rt_ok and identical and close,
             f"realtime undetected with full knowledge over 2000 trials;"
             f" late==never per-seed over 2000; fresh-seed gaps within 4 sigma"
             f" {tuple(gaps)}")


def test_criterion_13_determinism():
    docs = (
        {"seed": 404, "trials": 300,
         "session": {"k": 4, "d": 4, "reveal_count": 4, "mode": "swap",
                     "belief_rule": "measured"},
         "attack": {"kind": "server_product"}},
        {"seed": 405, "trials": 300,
         "session": {"k": 2, "d": 6, "reveal_count": 2, "mode": "base"},
         "attack": {"kind": "pns", "path": "both"},
         "photon": {"p1": 0.6, "p_loss": 0.02}},
    )
    ok = True
    for doc in docs:
        spec = load_scenario(json.dumps(doc))
        for fmt in ("csv", "json"):
            first = render_report(run_scenario(spec), fmt)
            second = render_report(run_scenario(spec), fmt)
            ok &= first == second
    _verdict("13 determinism", ok,
             "two scenarios re-rendered byte-identically in csv and json")
