"""Scenario plumbing: parsing, determinism, reports, tables, CLI."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from operator import eq

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from qauthsim import cli, harness
from qauthsim.adversary import AttackKind, BasisChoice, LocationKnowledge, TapPath
from qauthsim.cli import main, parse_probability
from qauthsim.harness import (
    AggregateReport,
    ScenarioError,
    ScenarioSpec,
    TRIAL_FIELDS,
    TrialResult,
    _fmt,
    _json_value,
    _summarize,
    load_scenario,
    params_report,
    parse_scenario,
    render_report,
    run_scenario,
    verify_tables,
)
from qauthsim.channel import Path
from qauthsim.protocol import (
    BeliefRule,
    ProtocolMode,
    SessionConfig,
    SessionStatus,
    run_session,
)
from qauthsim.qsim import MeasBasis, RandomSource, bell_compose
from qauthsim.secparams import evasion_prob, pns_approx_evasion, pns_exact_evasion
from test_adversary import _reference_knowledge
from test_golden import SCENARIOS as GOLDEN


def _dumps(value) -> str:
    """A report value as JSON through json.dumps, by the report's rules:
    no spaces, floats to 17 significant digits, inf and nan as null."""
    if isinstance(value, dict):
        return "{" + ",".join(json.dumps(k) + ":" + _dumps(v)
                              for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(_dumps, value)) + "]"
    if isinstance(value, float):
        return "%.17g" % value if math.isfinite(value) else "null"
    return json.dumps(value)


def _doc(**over):
    doc = {
        "seed": 11,
        "trials": 50,
        "session": {"k": 4, "d": 4, "reveal_count": 4, "mode": "base"},
    }
    doc.update(over)
    return doc


# sections that used to read as absent because they are falsy
MALFORMED_SECTIONS = [("photon", v) for v in (False, [], 0, "")]
MALFORMED_SECTIONS += [("outputs", v) for v in (0, "", [])]
# sessions past the slot bound: one slot over it, and one too large for a
# bytes object's length
OVERSIZED_SESSIONS = [{"k": 2 ** 18 - 40, "d": 41}, {"k": 10 ** 20, "d": 1}]

_FIELD_NAMES = tuple(name for table in (
    harness._TOP_FIELDS, harness._SESSION_FIELDS, harness._ATTACK_FIELDS,
    harness._PHOTON_FIELDS, harness._OUTPUT_FIELDS) for name in table)
_FIELD_VALUES = tuple(member.value for enum in (
    ProtocolMode, BeliefRule, MeasBasis, AttackKind, TapPath, BasisChoice,
    LocationKnowledge) for member in enum) + ("json", "csv")


def _json_documents():
    """Any JSON value, leaning on the scenario's own field names and values
    so that deep documents get past the first checks."""
    scalars = (st.none() | st.booleans()
               | st.integers(-2, 2 ** 65) | st.integers()
               | st.floats(allow_nan=True, allow_infinity=True)
               | st.sampled_from(_FIELD_VALUES) | st.text(max_size=8))
    keys = st.sampled_from(_FIELD_NAMES) | st.text(max_size=6)
    values = st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(keys, inner, max_size=8),
        max_leaves=30)
    scenario = st.fixed_dictionaries(
        {"seed": st.integers(0, 9), "trials": st.integers(0, 3),
         "session": st.fixed_dictionaries({"k": st.integers(-1, 4),
                                           "d": st.integers(-1, 4)})
         | values},
        optional={name: values for name in ("attack", "photon", "outputs")})
    return values | scenario


class TestParsing:
    def test_minimal(self):
        spec = parse_scenario(_doc())
        assert spec.seed == 11 and spec.trials == 50
        assert spec.attack is None
        assert spec.photon.p1 == 1.0 and spec.p_loss == 0.0
        assert spec.out_format == "json" and spec.out_path is None
        # every default comes from the dataclasses
        spec = parse_scenario({"seed": 1, "trials": 2,
                               "session": {"k": 3, "d": 2}})
        assert spec == ScenarioSpec(1, 2, SessionConfig(3, 2))

    def test_full(self):
        spec = parse_scenario(_doc(
            session={"k": 8, "d": 8, "reveal_count": 8, "mode": "swap",
                     "belief_rule": "composed", "error_threshold": 0.1,
                     "key_basis": "rectilinear"},
            attack={"kind": "subset_guess", "path": "to_bob",
                    "guess_count": 5, "location_knowledge": "never"},
            photon={"p1": 0.7, "p_loss": 0.05},
            outputs={"format": "csv", "path": "out.csv"},
        ))
        assert spec.session.mode is ProtocolMode.SWAP
        assert spec.session.belief_rule is BeliefRule.COMPOSED
        assert spec.attack.guess_count == 5
        assert spec.photon.p1 == 0.7 and spec.p_loss == 0.05
        assert spec.out_format == "csv" and spec.out_path == "out.csv"

    def test_attack_none_kind(self):
        spec = parse_scenario(_doc(attack={"kind": "none"}))
        assert spec.attack is None

    @pytest.mark.parametrize("mutate,needle", [
        (lambda d: d.update(bogus=1), "bogus"),
        (lambda d: d["session"].update(qubits=9), "session.qubits"),
        (lambda d: d.update(attack={"kind": "pns", "speed": 3}), "attack.speed"),
        (lambda d: d.update(photon={"p2": 1}), "photon.p2"),
        (lambda d: d.update(outputs={"fmt": "json"}), "outputs.fmt"),
    ])
    def test_unknown_fields_rejected(self, mutate, needle):
        doc = _doc()
        mutate(doc)
        with pytest.raises(ScenarioError, match=needle.replace(".", r"\.")):
            parse_scenario(doc)

    def test_bad_enum_names_options(self):
        doc = _doc()
        doc["session"]["mode"] = "turbo"
        with pytest.raises(ScenarioError, match="base"):
            parse_scenario(doc)

    def test_seed_bounds(self):
        with pytest.raises(ScenarioError, match="seed"):
            parse_scenario(_doc(seed=-1))
        with pytest.raises(ScenarioError, match="seed"):
            parse_scenario(_doc(seed=2 ** 64))
        with pytest.raises(ScenarioError, match="seed"):
            parse_scenario(_doc(seed=True))

    def test_trials_bounds(self):
        with pytest.raises(ScenarioError, match="trials"):
            parse_scenario(_doc(trials=-1))
        parse_scenario(_doc(trials=0))

    def test_replace_keeps_seed_and_trial_bounds(self):
        spec = parse_scenario(_doc())
        with pytest.raises(ScenarioError, match="seed must fit in 64 bits"):
            replace(spec, seed=2 ** 64)
        with pytest.raises(ScenarioError, match="trials must be non-negative"):
            replace(spec, trials=-1)
        assert replace(spec, seed=2 ** 64 - 1, trials=0).seed == 2 ** 64 - 1
        with pytest.raises(ScenarioError, match=r"photon\.p_loss"):
            replace(spec, p_loss=1.0)
        with pytest.raises(ScenarioError, match=r"outputs\.format"):
            replace(spec, out_format="xml")
        subset = parse_scenario(_doc(attack={"kind": "subset_guess",
                                             "guess_count": 8}))
        with pytest.raises(ScenarioError, match=r"attack\.guess_count"):
            replace(subset, session=SessionConfig(2, 3))

    def test_session_validation_surfaces(self):
        doc = _doc()
        doc["session"]["mode"] = "swap"  # belief_rule missing
        with pytest.raises(ScenarioError, match="belief_rule"):
            parse_scenario(doc)

    def test_attack_validation_surfaces(self):
        with pytest.raises(ScenarioError, match="guess_count"):
            parse_scenario(_doc(attack={"kind": "subset_guess"}))
        # more guesses than positions: refused when parsed, not when run
        small = {"k": 2, "d": 3}
        with pytest.raises(ScenarioError, match=r"attack\.guess_count"):
            parse_scenario(_doc(session=small, attack={
                "kind": "subset_guess", "guess_count": 9}))
        spec = parse_scenario(_doc(session=small, attack={
            "kind": "subset_guess", "guess_count": 5}))
        assert spec.attack.guess_count == 5

    @pytest.mark.parametrize("section,name", [
        ("session", "k"), ("session", "d"), ("session", "reveal_count"),
        ("session", "error_threshold"), ("attack", "guess_count"),
        ("photon", "p1"), ("photon", "p_loss"),
    ])
    def test_true_is_not_a_number(self, section, name):
        doc = _doc(attack={"kind": "subset_guess", "guess_count": 2})
        doc.setdefault(section, {})[name] = True
        with pytest.raises(ScenarioError,
                           match=rf"^{section}\.{name} must be an? \w+, got True"):
            parse_scenario(doc)

    def test_p_loss_bounds(self):
        with pytest.raises(ScenarioError, match="p_loss"):
            parse_scenario(_doc(photon={"p_loss": 1.0}))

    def test_load_rejects_bad_json(self):
        with pytest.raises(ScenarioError, match="JSON"):
            load_scenario("{nope")

    @pytest.mark.parametrize("text", [
        '{"seed": %s}' % ("9" * 5000),  # past the interpreter's digit limit
        "[" * 100000 + "]" * 100000,
    ])
    def test_load_rejects_unreadable_json(self, text):
        with pytest.raises(ScenarioError, match="JSON"):
            load_scenario(text)

    @pytest.mark.parametrize("section,value", MALFORMED_SECTIONS)
    def test_malformed_sections_rejected(self, section, value):
        with pytest.raises(ScenarioError, match=f"^{section} must be an object"):
            parse_scenario(_doc(**{section: value}))

    def test_null_sections_keep_defaults(self):
        spec = parse_scenario(_doc(photon=None, outputs=None, attack=None))
        assert spec == parse_scenario(_doc())
        spec = parse_scenario(_doc(photon={"p1": None}, outputs={"format": None}))
        assert spec == parse_scenario(_doc())
        spec = parse_scenario(_doc(session={"k": 4, "d": 4, "mode": None,
                                            "reveal_count": None}))
        assert spec == parse_scenario(_doc())
        spec = parse_scenario(_doc(attack={"kind": "pns", "path": None}))
        assert spec == parse_scenario(_doc(attack={"kind": "pns"}))
        assert spec.attack.path is TapPath.TO_BOB

    @pytest.mark.parametrize("attack,needle", [
        ({"kind": "none", "path": "bogus", "guess_count": 3}, "attack.path"),
        ({"kind": "none", "guess_count": 3}, "guess_count"),
        ({"kind": "none", "location_knowledge": "realtime"}, "location knowledge"),
        ({"kind": "none", "fixed_basis": 1}, "attack.fixed_basis"),
    ])
    def test_no_attack_fields_still_checked(self, attack, needle):
        with pytest.raises(ScenarioError, match=needle):
            parse_scenario(_doc(attack=attack))

    def test_huge_number_rejected(self):
        with pytest.raises(ScenarioError, match="photon.p1"):
            parse_scenario(_doc(photon={"p1": 10 ** 400}))

    @pytest.mark.parametrize("session", OVERSIZED_SESSIONS)
    def test_oversized_session_rejected(self, session):
        with pytest.raises(ScenarioError, match=r"^session: k \+ d must be at most"):
            load_scenario(json.dumps(_doc(session=session)))
        # the bound itself is a session size
        spec = load_scenario(json.dumps(_doc(session={"k": 2 ** 18 - 41, "d": 41})))
        assert spec.session.total_slots == 2 ** 18

    @given(doc=_json_documents())
    @settings(max_examples=150, deadline=None)
    def test_any_json_value_parses_or_raises_scenario_error(self, doc):
        try:
            spec = parse_scenario(doc)
        except ScenarioError:
            return
        assert isinstance(spec, ScenarioSpec)
        # a small document that parses also runs
        if spec.session.k <= 4 and spec.session.d <= 4:
            run_scenario(replace(spec, trials=1))


# the metrics a trial can count, in the order it counts them
_TALLY_ORDER = ("accept_rate", "alice_tamper_error_rate",
                "bob_tamper_error_rate", "key_match_fraction",
                "eve_key_knowledge", "server_copy_match", "evasion_rate",
                "evasion_rate_vs_approx", "subset_success")


@st.composite
def _small_scenarios(draw):
    """Small scenarios of every attack kind, on a lossless channel or one
    that loses most streams, so that some metrics first appear after trial
    0."""
    k, d = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    session = {"k": k, "d": d, "mode": draw(st.sampled_from(["base", "swap"]))}
    if session["mode"] == "swap":
        session["belief_rule"] = draw(st.sampled_from(list(BeliefRule))).value
    attack = {"kind": draw(st.sampled_from(list(AttackKind))).value}
    if attack["kind"] in ("intercept_resend", "pns", "subset_guess"):
        attack["path"] = draw(st.sampled_from(list(TapPath))).value
    if attack["kind"] == "subset_guess":
        attack["guess_count"] = draw(st.integers(1, k + d))
    photon = {"p1": draw(st.sampled_from([1.0, 0.5])),
              "p_loss": draw(st.sampled_from([0.0, 0.3]))}
    return parse_scenario({"seed": draw(st.integers(0, 2 ** 16)),
                           "trials": draw(st.integers(0, 12)),
                           "session": session, "attack": attack,
                           "photon": photon})


class TestDeterminism:
    def test_rerun_identical(self):
        spec = load_scenario(json.dumps(_doc(
            attack={"kind": "intercept_resend", "path": "to_bob"})))
        a = render_report(run_scenario(spec), "json")
        b = render_report(run_scenario(spec), "json")
        assert a == b

    def test_trial_prefix_property(self):
        # trial i depends only on (seed, i): a longer run starts with the
        # shorter run's records byte for byte
        short = run_scenario(load_scenario(json.dumps(_doc(trials=20))))
        long = run_scenario(load_scenario(json.dumps(_doc(trials=60))))
        srows = render_report(short, "csv").splitlines()
        lrows = render_report(long, "csv").splitlines()
        assert lrows[:len(srows)] == srows

    def test_different_seed_differs(self):
        a = run_scenario(load_scenario(json.dumps(_doc(seed=1))))
        b = run_scenario(load_scenario(json.dumps(_doc(seed=2))))
        assert render_report(a, "csv") != render_report(b, "csv")

    @given(spec=_small_scenarios(),
           cuts=st.lists(st.integers(0, 12), max_size=4))
    # trial 0 loses its stream and trial 1's arrives whole, so four
    # metrics are first counted after trial 0
    @example(spec=parse_scenario({
        "seed": 6, "trials": 6,
        "session": {"k": 2, "d": 1, "mode": "swap", "belief_rule": "composed"},
        "attack": {"kind": "intercept_resend", "path": "to_bob"},
        "photon": {"p1": 1.0, "p_loss": 0.3}}), cuts=[1, 3])
    @settings(max_examples=30, deadline=None)
    def test_tallies_merge_in_pieces(self, spec, cuts):
        # a scenario's tally is the fold of its trials' tallies: cut the
        # trials anywhere, fold each piece, merge the pieces in order, and
        # get the one-piece tally, in the same metric order; each equals
        # the per-trial dict tallies merged in trial order
        calls = [_reference_trial(spec, trial) for trial in range(spec.trials)]
        reference = {}
        for _, counts in calls:
            _reference_merge(reference, counts)
        for row, counts in calls:
            assert list(counts) == [n for n in _TALLY_ORDER if n in counts]
            if row.status == "incomplete_stream":
                assert list(counts) == ["accept_rate", "eve_key_knowledge"]
        report = run_scenario(spec)
        assert [row for row, _ in calls] == report.trial_results
        assert [(m.name, m.count, m.n) for m in report.metrics if m.n] == [
            (name, *cell) for name, cell in reference.items()]

        assert harness._METRICS == _TALLY_ORDER
        whole = harness._fold(spec, 0, spec.trials)
        assert list(_fold_tally(whole).items()) == list(reference.items())
        bounds = [0, *sorted(min(cut, spec.trials) for cut in cuts),
                  spec.trials]
        pieces = [harness._fold(spec, start, stop)
                  for start, stop in zip(bounds, bounds[1:])]
        assert [row for piece in pieces for row in piece.rows] == whole.rows
        merged = {}
        for piece in pieces:
            _reference_merge(merged, _fold_tally(piece))
        assert list(merged.items()) == list(reference.items())


def _fold_tally(fold) -> dict:
    """A fold's counts as a tally: metric name -> [hits, samples], in the
    fold's metric order."""
    return {harness._METRICS[index]: [fold.hits[index], fold.samples[index]]
            for index in fold.order}


def _reference_trial(spec, trial):
    """Trial ``trial`` of ``spec`` as a per-trial dict: its report row, and
    its tally, which maps each metric the trial counted to (hits, samples),
    in the order it counts them.  A lost stream counts only
    ``accept_rate`` and ``eve_key_knowledge``."""
    cfg = spec.session
    k, d = cfg.k, cfg.d
    out = run_session(cfg, spec.attack, RandomSource(spec.seed, trial),
                      photon=spec.photon, p_loss=spec.p_loss)
    certain_positions, copy_hits = _reference_knowledge(out)
    certain = len(certain_positions)
    matches = None
    if out.alice_key_bits is not None and out.bob_key_bits is not None:
        matches = sum(map(eq, out.alice_key_bits, out.bob_key_bits))
    row = TrialResult(
        trial, out.status.value, out.alice_tamper_error_rate,
        out.bob_tamper_error_rate,
        None if matches is None else matches / k, out.token_matched,
        certain / k, None if copy_hits is None else copy_hits / k,
        out.events.digest())

    # bools count as 0 or 1
    counts = {"accept_rate": (out.status is SessionStatus.AUTH_ACCEPT, 1)}
    if out.alice_tamper_errors is not None and d:
        counts["alice_tamper_error_rate"] = (out.alice_tamper_errors, d)
    if out.bob_tamper_errors is not None and d:
        counts["bob_tamper_error_rate"] = (out.bob_tamper_errors, d)
    if matches is not None:
        counts["key_match_fraction"] = (matches, k)
    counts["eve_key_knowledge"] = (certain, k)
    if copy_hits is not None:
        counts["server_copy_match"] = (copy_hits, k)
    kind = spec.attack.kind if spec.attack else AttackKind.NONE
    tapped = (spec.attack.path.channel_paths()
              if kind in (AttackKind.INTERCEPT_RESEND, AttackKind.SUBSET_GUESS,
                          AttackKind.PNS) else ())
    evaded = _reference_evaded(out, tapped or (Path.TO_ALICE, Path.TO_BOB))
    if evaded is not None:
        counts["evasion_rate"] = (evaded, 1)
        if kind is AttackKind.PNS and len(tapped) == 1:
            counts["evasion_rate_vs_approx"] = (evaded, 1)
        elif kind is AttackKind.SUBSET_GUESS:
            counts["subset_success"] = (evaded and certain == k, 1)
    return row, counts


def _reference_evaded(out, paths):
    """Did every party on ``paths`` run its check and pass?  None when a
    needed check never ran (lost stream, or the session aborted first)."""
    if out.status is SessionStatus.INCOMPLETE_STREAM:
        return None
    for path in paths:
        party, errors = (("alice", out.alice_tamper_errors)
                         if path is Path.TO_ALICE
                         else ("bob", out.bob_tamper_errors))
        if party in out.failed_checks:
            return False
        if errors is None:
            return None
    return True


def _reference_merge(tally: dict, later: dict) -> None:
    """Add the counts of ``later``, a tally of later trials, into ``tally``;
    a metric new to ``tally`` goes after those it holds."""
    for name, (hits, n) in later.items():
        cell = tally.setdefault(name, [0, 0])
        cell[0] += hits
        cell[1] += n


class TestReports:
    def test_csv_shape(self):
        report = run_scenario(parse_scenario(_doc(trials=7)))
        lines = render_report(report, "csv").splitlines()
        assert lines[0] == ",".join(TRIAL_FIELDS)
        assert len(lines) == 8

    def test_empty_run_header_only(self):
        report = run_scenario(parse_scenario(_doc(trials=0)))
        lines = render_report(report, "csv").splitlines()
        assert lines == [",".join(TRIAL_FIELDS)]
        jlines = render_report(report, "json").splitlines()
        assert len(jlines) == 1
        assert json.loads(jlines[0])["type"] == "aggregate"

    def test_json_line_count_and_roundtrip(self):
        report = run_scenario(parse_scenario(_doc(trials=9)))
        lines = render_report(report, "json").splitlines()
        assert len(lines) == 10
        for line in lines:
            json.loads(line)
        agg = json.loads(lines[-1])
        assert agg["type"] == "aggregate"
        assert agg["trials"] == 9

    def test_float_rendering_roundtrips(self):
        assert _json_value({"x": 0.1}) == '{"x":0.10000000000000001}'
        assert json.loads(_json_value({"x": 0.1}))["x"] == 0.1
        assert _json_value([True, None, 3]) == "[true,null,3]"

    def test_row_formatters_match_the_writers(self):
        # every value type a row cell can hold, each in every column: the
        # reports against csv.writer over _fmt cells and _json_value over
        # the row dict, and _json_value against json.dumps
        values = [None, True, False, 0.0, 1 / 3, 7, "plain", -2.5e-300,
                  2 ** 70, float("inf"), float("nan"), "a,b", 'say "hi"',
                  "two\nlines", "cr\rtab\t", "na\u00efve 100%"]
        plain = [0, "auth_accept", 0.0, None, 0.75, True, 0.25, None, "f00d"]
        trials = [TrialResult(*plain[:column], value, *plain[column + 1:])
                  for value in values for column in range(len(plain))]
        report = AggregateReport(3, len(trials), "base", None, "none", [],
                                 trials)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(TRIAL_FIELDS)
        for trial in trials:
            writer.writerow([_fmt(value) for value in trial])
        assert render_report(report, "csv") == buf.getvalue()
        lines = [_json_value(trial._asdict()) for trial in trials]
        lines.append(_json_value(report.aggregate_row()))
        assert render_report(report, "json") == "\n".join(lines) + "\n"
        for trial in trials:
            assert _json_value(trial._asdict()) == _dumps(trial._asdict())
        nested = {"a": [1, 2.5, None, (True, "x")], 3: {"y": float("-inf")}}
        assert _json_value(nested) == _dumps(nested)

    def test_none_is_empty_csv_cell(self):
        report = run_scenario(parse_scenario(_doc(trials=1)))
        # honest run has no server record: server_copy_match column empty
        row = render_report(report, "csv").splitlines()[1].split(",")
        idx = TRIAL_FIELDS.index("server_copy_match")
        assert row[idx] == ""


class TestMetrics:
    def test_intercept_scenario_passes_conformance(self):
        spec = load_scenario(json.dumps(_doc(
            seed=3, trials=600,
            session={"k": 8, "d": 8, "reveal_count": 8, "mode": "base"},
            attack={"kind": "intercept_resend", "path": "to_bob"})))
        report = run_scenario(spec)
        assert report.all_pass, report.failures()
        assert report.metric("bob_tamper_error_rate").analytic == 0.25
        assert report.metric("evasion_rate").analytic == float(evasion_prob(8))
        assert report.metric("eve_key_knowledge").analytic == 0.5
        assert report.metric("accept_rate").verdict is None  # no closed form

    def test_ghz_diagonal_key_basis_passes_conformance(self):
        # GHZ's two-qubit marginals are uncorrelated in the diagonal basis:
        # the keys, the token and the relay's record agree by fair coins
        spec = load_scenario(json.dumps({
            "seed": 11, "trials": 4000,
            "session": {"k": 4, "d": 4, "reveal_count": 2,
                        "key_basis": "diagonal"},
            "attack": {"kind": "server_ghz"}}))
        report = run_scenario(spec)
        assert report.all_pass, report.failures()
        for name, value in (("accept_rate", 0.25), ("key_match_fraction", 0.5),
                            ("server_copy_match", 0.5)):
            assert report.metric(name).analytic == value
            assert report.metric(name).verdict == "pass"

    def test_pns_approx_row_is_ungraded(self):
        spec = load_scenario(json.dumps(_doc(
            seed=5, trials=300,
            session={"k": 1, "d": 8, "reveal_count": 1, "mode": "base"},
            attack={"kind": "pns", "path": "to_bob"},
            photon={"p1": 0.5})))
        report = run_scenario(spec)
        row = report.metric("evasion_rate_vs_approx")
        assert row.verdict is None
        assert row.note and "approx" in row.note
        assert row.analytic == pns_approx_evasion(8, 0.5)
        exact = report.metric("evasion_rate")
        assert exact.verdict == "pass"
        assert exact.analytic == float(pns_exact_evasion(8, 0.5))

    def test_sigma_zero_requires_equality(self):
        spec = load_scenario(json.dumps(_doc(
            seed=6, trials=40,
            session={"k": 4, "d": 4, "reveal_count": 4, "mode": "base"},
            attack={"kind": "intercept_resend", "path": "to_bob",
                    "location_knowledge": "realtime"})))
        report = run_scenario(spec)
        for name in ("evasion_rate", "eve_key_knowledge", "key_match_fraction",
                     "accept_rate"):
            row = report.metric(name)
            assert row.verdict == "pass"
            assert row.sigma_distance == 0.0

    def test_rare_event_graded_with_exact_tails(self):
        # n a (1 - a) < 9: the normal rule would fail one evasion in 1500
        # trials at 9.3 sigma; the exact binomial tail (~0.011) passes it
        a = 0.75 ** 41
        one = _summarize("rate", 1, 1500, a)
        assert one.sigma_distance > 4.0
        assert one.verdict == "pass"
        assert _summarize("rate", 5, 1500, a).verdict == "fail"
        # the mirrored counts at 1 - a grade alike: the rarer outcome is
        # the 1 or 5 trials that missed
        assert _summarize("rate", 1499, 1500, 1 - a).verdict == "pass"
        assert _summarize("rate", 1495, 1500, 1 - a).verdict == "fail"

    def test_large_n_keeps_the_four_sigma_rule(self):
        # n a (1 - a) = 9.9: 23 events sit 4.13 sigma out and fail, although
        # their exact upper tail (~1e-4) would pass; 22 events (3.81 sigma) pass
        assert _summarize("rate", 23, 1000, 0.01).verdict == "fail"
        assert _summarize("rate", 22, 1000, 0.01).verdict == "pass"

    @pytest.mark.parametrize("attack,threshold", [
        (None, 0.0),
        ({"kind": "intercept_resend", "path": "both"}, 0.0),
        ({"kind": "server_ghz"}, 0.0),
        ({"kind": "subset_guess", "path": "to_bob", "guess_count": 2}, 0.0),
        ({"kind": "subset_guess", "path": "both", "guess_count": 2}, 0.0),
        ({"kind": "intercept_resend", "path": "both"}, 0.34),
    ], ids=["honest", "intercept-both", "server_ghz", "subset", "subset-both",
            "intercept-both-threshold"])
    def test_zero_detection_slots(self, attack, threshold):
        doc = _doc(seed=9, trials=40,
                   session={"k": 3, "d": 0, "mode": "swap",
                            "belief_rule": "composed",
                            "error_threshold": threshold})
        if attack is not None:
            doc["attack"] = attack
        report = run_scenario(parse_scenario(doc))
        assert report.all_pass, report.failures()
        for name in ("alice_tamper_error_rate", "bob_tamper_error_rate"):
            m = report.metric(name)
            assert (m.count, m.n, m.mean, m.verdict) == (0, 0, None, None)
            assert m.note == "vacuous: no detection slots"
        evasion = report.metric("evasion_rate")
        assert (evasion.mean, evasion.verdict) == (1.0, "pass")
        assert evasion.note == "vacuous: no detection slots"
        rows = list(csv.DictReader(io.StringIO(render_report(report, "csv"))))
        assert len(rows) == 40
        for row in rows:
            assert row["alice_tamper_error_rate"] == "0"
            assert row["bob_tamper_error_rate"] == "0"

    @pytest.mark.parametrize("attack", [
        {"kind": "intercept_resend", "location_knowledge": "realtime"},
        {"kind": "pns", "path": "to_bob"},
        {"kind": "intercept_resend", "path": "to_bob", "basis_choice": "fixed"},
        {"kind": "subset_guess", "path": "to_bob", "guess_count": 3},
        {"kind": "intercept_resend", "path": "to_bob"},
        {"kind": "intercept_resend", "path": "both"},
    ], ids=["realtime-intercept", "pns", "fixed-intercept", "subset",
            "random-intercept", "random-intercept-both"])
    def test_measured_rule_tap_forms_pass(self, attack):
        # under the measured rule a key bit agrees with the responder's iff
        # the created pair was phi-kind, whatever a tap did to the slot: key
        # match is 1/2, and a token that no check can stop (realtime taps
        # skip every detection slot) passes at 2^-reveal
        doc = _doc(seed=3, trials=3000, attack=attack,
                   session={"k": 4, "d": 4, "mode": "swap",
                            "belief_rule": "measured"})
        report = run_scenario(parse_scenario(doc))
        assert report.all_pass, report.failures()
        assert report.metric("key_match_fraction").analytic == 0.5
        realtime = attack.get("location_knowledge") == "realtime"
        assert report.metric("accept_rate").analytic == (
            1 / 16 if realtime else None)

    @pytest.mark.parametrize("doc", [
        _doc(seed=12, trials=200, session={"k": 17, "d": 41},
             attack={"kind": "intercept_resend", "path": "both"}),
        GOLDEN["paper-swap-composed-lossy-pns"],
    ], ids=["intercept-both-k17-d41", "golden-paper-swap-composed-lossy-pns"])
    def test_metrics_are_integer_counts(self, doc):
        report = run_scenario(parse_scenario(doc))
        for m in report.metrics:
            assert type(m.count) is int and type(m.n) is int
            assert m.mean == (m.count / m.n if m.n else None)

        k, d = doc["session"]["k"], doc["session"]["d"]
        rows = report.trial_results

        def recount(name, slots):
            # a trial row holds its count over the slots as a float, and
            # (7 / 41) * 41 != 7, so each is rounded back to its count
            rates = [getattr(t, name) for t in rows
                     if getattr(t, name) is not None]
            return (sum(round(rate * slots) for rate in rates),
                    slots * len(rates))

        for name, slots in (("alice_tamper_error_rate", d),
                            ("bob_tamper_error_rate", d),
                            ("key_match_fraction", k),
                            ("eve_key_knowledge", k)):
            m = report.metric(name)
            assert (m.count, m.n) == recount(name, slots), name
        accept = report.metric("accept_rate")
        assert accept.n == len(rows)
        assert accept.count == sum(t.status == "auth_accept" for t in rows)

    def test_threshold_leaves_any_flip_forms_ungraded(self):
        # one detection error in three passes a 0.34 threshold, so evasion
        # is 0.84375 here, not the any-flip-aborts 0.75 ** 3
        doc = _doc(seed=3, trials=3000,
                   session={"k": 1, "d": 3, "error_threshold": 0.34},
                   attack={"kind": "intercept_resend", "path": "to_bob"})
        report = run_scenario(load_scenario(json.dumps(doc)))
        assert report.all_pass, report.failures()
        evasion = report.metric("evasion_rate")
        assert evasion.analytic is None and evasion.verdict is None
        assert evasion.mean == pytest.approx(0.84375, abs=0.03)
        assert report.metric("bob_tamper_error_rate").verdict == "pass"

    @pytest.mark.parametrize("d", [3, 1])
    @pytest.mark.parametrize("attack,forms", [
        ({"kind": "intercept_resend", "path": "to_bob"}, {"evasion_rate"}),
        ({"kind": "pns", "path": "to_bob"},
         {"evasion_rate", "evasion_rate_vs_approx"}),
        ({"kind": "subset_guess", "guess_count": 3},
         {"evasion_rate", "subset_success"}),
    ])
    def test_threshold_drops_only_any_flip_predictions(self, attack, forms, d):
        def predicted(threshold):
            spec = parse_scenario(_doc(
                session={"k": 2, "d": d, "error_threshold": threshold},
                attack=attack, photon={"p1": 0.5}))
            return set(harness.analytic_predictions(spec))

        # one detection error in 3 passes a 0.34 threshold; one in 1 aborts,
        # as under the any-flip check
        strict = predicted(0.0)
        assert forms <= strict
        assert strict - predicted(0.34) == (forms if d == 3 else set())

    @pytest.mark.parametrize("session,attack", [
        ({}, {"kind": "intercept_resend", "path": "to_bob"}),
        ({}, {"kind": "pns", "path": "to_bob"}),
        ({}, {"kind": "subset_guess", "guess_count": 2}),
        ({"mode": "swap", "belief_rule": "composed"},
         {"kind": "intercept_resend", "path": "both", "basis_choice": "fixed"}),
    ], ids=["intercept", "pns", "subset", "swap-fixed-intercept-both"])
    def test_threshold_below_one_error_keeps_any_flip_forms(self, session,
                                                            attack):
        # one detection error in one is a rate of 1 > 0.34, so every error
        # aborts and the any-flip forms are graded
        doc = _doc(seed=5, trials=3000, attack=attack, photon={"p1": 0.5},
                   session={"k": 2, "d": 1, "error_threshold": 0.34, **session})
        report = run_scenario(parse_scenario(doc))
        assert report.all_pass, report.failures()
        graded = {m.name for m in report.metrics if m.verdict == "pass"}
        assert "evasion_rate" in graded
        if attack["kind"] == "subset_guess":
            assert "subset_success" in graded
        if session:
            assert "bob_tamper_error_rate" in graded

    @pytest.mark.parametrize("session,attack,p1", [
        ({"k": 4, "d": 4}, None, 1.0),
        ({"k": 2, "d": 2, "mode": "swap", "belief_rule": "measured"},
         {"kind": "server_product"}, 1.0),
        ({"k": 2, "d": 3}, {"kind": "pns", "path": "to_bob"}, 0.5),
        ({"k": 2, "d": 3, "mode": "swap", "belief_rule": "composed"},
         {"kind": "pns", "path": "both"}, 1.0),
        ({"k": 2, "d": 3}, {"kind": "intercept_resend", "path": "both"}, 1.0),
        ({"k": 2, "d": 3}, {"kind": "subset_guess", "guess_count": 3}, 1.0),
    ], ids=["honest", "planted-product", "pns", "pns-both", "intercept-both",
            "subset"])
    def test_loss_scenario_keeps_lossless_forms(self, session, attack, p1):
        # loss ends a session at emission, before any check: only accept_rate
        # and a nonzero eve_key_knowledge (it counts arrived slots) change
        doc = _doc(seed=11, trials=1500, session=session, attack=attack,
                   photon={"p1": p1, "p_loss": 0.05})
        spec = parse_scenario(doc)
        lossy = harness.analytic_predictions(spec)
        lossless = harness.analytic_predictions(replace(spec, p_loss=0.0))
        for name, form in lossy.items():
            if name != "accept_rate":
                assert form == lossless[name], name
        knowledge = lossless["eve_key_knowledge"][0]
        assert set(lossless) - set(lossy) == (
            set() if knowledge == 0.0 else {"eve_key_knowledge"})
        assert ("accept_rate" in lossy) == ("accept_rate" in lossless)
        report = run_scenario(spec)
        assert report.all_pass, report.failures()
        assert any(t.status == "incomplete_stream" for t in report.trial_results)

    def test_loss_scales_accept_rate_exactly(self):
        spec = parse_scenario(_doc(
            session={"k": 2, "d": 2, "mode": "swap", "belief_rule": "measured"},
            attack={"kind": "server_product"}, photon={"p_loss": 0.05}))
        accept, _ = harness.analytic_predictions(spec)["accept_rate"]
        # the 2^-2 forgery chance times the chance that all 2 (k + d) = 8
        # photons arrive
        assert accept == float(Fraction(1, 4) * (1 - Fraction(0.05)) ** 8)

    def test_predictions_are_kept_per_scenario_and_returned_fresh(self):
        # the forms are computed once per (session, attack, photon, p_loss),
        # whatever the seed, trials or outputs; each call gets its own dict,
        # so a caller that edits one cannot change the next
        doc = _doc(seed=3, trials=5, session={"k": 2, "d": 3},
                   attack={"kind": "intercept_resend", "path": "both"})
        spec = parse_scenario(doc)
        harness._predictions.cache_clear()
        first = harness.analytic_predictions(spec)
        want = dict(first)
        first["accept_rate"] = (0.0, "edited")
        del first["evasion_rate"]
        first["extra"] = (1.0, None)
        other = parse_scenario({**doc, "seed": 4, "trials": 9,
                                "outputs": {"format": "csv"}})
        again = harness.analytic_predictions(other)
        assert again == want and again is not first
        assert harness.analytic_predictions(spec) == want
        info = harness._predictions.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        lossy = harness.analytic_predictions(replace(spec, p_loss=0.05))
        assert lossy != want and harness._predictions.cache_info().misses == 2

    # Twin detection photons share their preparation basis, so taps on both
    # paths err together unless each read draws a fresh basis; in swap mode
    # the responder's check runs only after the initiator passed.
    @pytest.mark.parametrize("session,attack,p1,metric,want", [
        ({"k": 1, "d": 1}, {"kind": "intercept_resend", "path": "both",
                            "basis_choice": "fixed"},
         1.0, "evasion_rate", Fraction(5, 8)),
        ({"k": 1, "d": 1}, {"kind": "pns", "path": "both"},
         1.0, "evasion_rate", Fraction(5, 8)),
        ({"k": 1, "d": 1}, {"kind": "intercept_resend", "path": "both"},
         1.0, "eve_key_knowledge", Fraction(3, 4)),
        ({"k": 1, "d": 2}, {"kind": "subset_guess", "path": "both",
                            "guess_count": 2},
         1.0, "subset_success", Fraction(2, 3) * Fraction(5, 8)),
        ({"k": 1, "d": 2}, {"kind": "subset_guess", "path": "both",
                            "guess_count": 2},
         1.0, "evasion_rate",
         Fraction(2, 3) * Fraction(5, 8) + Fraction(1, 3) * Fraction(5, 8) ** 2),
        ({"k": 2, "d": 3, "mode": "swap", "belief_rule": "composed"},
         {"kind": "subset_guess", "path": "to_bob", "guess_count": 3},
         1.0, "subset_success", Fraction(0)),
        ({"k": 1, "d": 3, "mode": "swap", "belief_rule": "composed"},
         {"kind": "intercept_resend", "path": "both", "basis_choice": "fixed"},
         1.0, "bob_tamper_error_rate", Fraction(1, 6)),
        ({"k": 1, "d": 3, "mode": "swap", "belief_rule": "composed"},
         {"kind": "pns", "path": "both"},
         1.0, "bob_tamper_error_rate", Fraction(1, 6)),
    ])
    def test_twin_tap_closed_forms_pass(self, session, attack, p1, metric,
                                        want):
        session = {"reveal_count": session["k"], **session}
        spec = parse_scenario(_doc(seed=5, trials=2000, session=session,
                                   attack=attack, photon={"p1": p1}))
        report = run_scenario(spec)
        assert report.metric(metric).analytic == float(want)
        assert report.all_pass, report.failures()

    @pytest.mark.parametrize("attack,p1,d,want", [
        ({"kind": "intercept_resend", "path": "both"}, 1.0, 2,
         Fraction(9, 16) ** 2),
        ({"kind": "intercept_resend", "path": "both", "basis_choice": "fixed"},
         1.0, 2, Fraction(5, 8) ** 2),
        ({"kind": "pns", "path": "both"}, 0.5, 1,
         Fraction(1, 2) + Fraction(3, 4) ** 2 / 2),
        ({"kind": "pns", "path": "both"}, 0.25, 3,
         (Fraction(1, 2) + Fraction(7, 8) ** 2 / 2) ** 3),
        ({"kind": "pns", "path": "to_bob"}, 0.5, 3, Fraction(7, 8) ** 3),
    ])
    def test_evasion_closed_forms_exact(self, attack, p1, d, want):
        spec = parse_scenario(_doc(session={"k": 1, "d": d}, attack=attack,
                                   photon={"p1": p1}))
        assert harness.analytic_predictions(spec)["evasion_rate"] == (
            float(want), None)

    @pytest.mark.parametrize("k,d,g", [(17, 41, 17), (2, 3, 5), (2, 3, 2),
                                       (4, 0, 3), (1, 8, 1), (5, 2, 6)])
    @pytest.mark.parametrize("slot_pass", [Fraction(0), Fraction(9, 16),
                                           Fraction(5, 8) ** 2, Fraction(1)])
    def test_subset_terms_sum_exactly(self, k, d, g, slot_pass):
        # the integer numerators over one denominator are the hypergeometric
        # terms P(T = j) * slot_pass ** j, each an exact Fraction
        terms, denom = harness._subset_terms(k, d, g, slot_pass)
        want = {j: Fraction(math.comb(d, j) * math.comb(k, g - j),
                            math.comb(k + d, g)) * slot_pass ** j
                for j in range(max(0, g - k), min(d, g) + 1)}
        assert {j: Fraction(n, denom) for j, n in terms.items()} == want
        assert Fraction(sum(terms.values()), denom) == sum(want.values())

    def test_swap_responder_rate_closed_forms(self):
        def bob_rate(attack, p1=1.0, threshold=0.0):
            spec = parse_scenario(_doc(
                session={"k": 1, "d": 3, "mode": "swap",
                         "belief_rule": "composed",
                         "error_threshold": threshold},
                attack=attack, photon={"p1": p1}))
            row = harness.analytic_predictions(spec).get("bob_tamper_error_rate")
            return None if row is None else row[0]

        fixed = {"kind": "intercept_resend", "path": "both",
                 "basis_choice": "fixed"}
        pns = {"kind": "pns", "path": "both"}
        random = {"kind": "intercept_resend", "path": "both"}
        subset = {"kind": "subset_guess", "path": "both", "guess_count": 3}
        assert bob_rate(fixed) == float(Fraction(1, 6))
        # (p1/4)(1 - p1/2) / (1 - p1/4) at p1 = 1/2
        assert bob_rate(pns, 0.5) == float(Fraction(3, 28))
        assert bob_rate(random) == bob_rate(random, threshold=0.34) == 0.25
        assert bob_rate(subset) is None
        assert bob_rate(fixed, threshold=0.34) is None
        assert bob_rate(pns, 0.5, threshold=0.34) is None
        # one tapped path: the initiator's check cannot fail first
        assert bob_rate({"kind": "pns", "path": "to_bob"}, 0.5) == 0.125


class TestVerifyTables:
    def test_sections(self):
        report = verify_tables()
        assert report.ok
        s1 = report.section("pair-composition")
        assert len(s1.rows) == 16 and not s1.mismatches
        s2 = report.section("relay-key-bit-rule")
        assert len(s2.rows) == 8 and not s2.mismatches
        s3 = report.section("compromised-server-key-bit")
        assert len(s3.rows) == 32 and not s3.mismatches
        s4 = report.section("belief-rule-discrepancy")
        assert not s4.graded
        assert len(s4.rows) == 32
        assert len(s4.mismatches) == 16
        # the disagreement is exactly the psi-kind created rows
        assert all("created=psi" in m for m in s4.mismatches)

    def test_text_deterministic_and_never_suppressed(self):
        a = verify_tables().text()
        b = verify_tables().text()
        assert a == b
        assert "DISCREPANCY" in a

    def test_matrix_claims_unique(self):
        # the matrix lists the checks that ran, and only those
        report = verify_tables()
        assert [name for name, _, _ in report.matrix] == [
            "pair-composition", "relay-key-bit-rule",
            "compromised-server-key-bit", "belief-rule-discrepancy"]

    def test_checks_the_session_belief_rule(self, monkeypatch, capsys):
        # a MEASURED rule that believes the composed label always recovers
        # the planted bit, so the graded table must fail
        real = harness.believed_state

        def faulty(created, outcome, rule):
            if rule is BeliefRule.MEASURED:
                return bell_compose(created, outcome)
            return real(created, outcome, rule)

        monkeypatch.setattr(harness, "believed_state", faulty)
        report = verify_tables()
        assert not report.ok
        assert len(report.section("compromised-server-key-bit").mismatches) == 16
        assert main(["verify-tables"]) == 1


class TestParams:
    def test_headline(self):
        doc = params_report("1/131072")
        assert doc["k"] == 17 and doc["d"] == 41
        assert round(doc["asymptotic_ratio"], 2) == 2.41

    def test_pns_extension(self):
        doc = params_report("1/131072", p1=0.5)
        assert doc["pns_required_d"] == 82

    def test_bad_target(self):
        with pytest.raises(ValueError):
            params_report(2)


class TestProbabilityParse:
    @pytest.mark.parametrize("text,den", [
        ("2**-17", 2 ** 17), ("2^-17", 2 ** 17), ("0.5", 2),
        ("1/131072", 131072), ("1e-6", 10 ** 6),
    ])
    def test_forms(self, text, den):
        frac = parse_probability(text)
        assert frac.numerator == 1 and frac.denominator == den

    def test_rejects(self):
        for bad in ("x", "2**17", "0", "1", "-0.5"):
            with pytest.raises(ValueError):
                parse_probability(bad)

    def test_tiny_targets_within_bound(self):
        assert parse_probability("2**-65536") == Fraction(1, 2 ** 65536)
        assert parse_probability("1e-400") == Fraction(1, 10 ** 400)


class TestCLI:
    def test_python_m_runs_the_command(self):
        # a checkout runs the command as ``python -m qauthsim``, uninstalled
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "qauthsim", "params", "0.5"],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert "k = 1" in done.stdout

    def test_params_exit_codes(self, capsys):
        assert main(["params", "2**-17"]) == 0
        out = capsys.readouterr().out
        assert "k = 17" in out and "d = 41" in out
        assert main(["params", "banana"]) == 2

    @pytest.mark.parametrize("target", ["2**-2000", "1e-400"])
    def test_params_tiny_target(self, target, capsys):
        assert main(["params", target]) == 0
        assert "evasion_prob = 0" in capsys.readouterr().out

    @pytest.mark.parametrize("target", [
        "2**-100000000", "2^-100000000", "1e-100000000", "1e+100000000",
    ])
    def test_params_exponent_bound_exit_2(self, target, capsys):
        assert main(["params", target]) == 2
        assert capsys.readouterr().err.startswith("error: exponent too large")

    def test_params_ideal_source_p1(self, capsys):
        assert main(["params", "0.5", "--p1", "1", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["p1"] == 1.0 and doc["pns_required_d"] == doc["d"]
        assert main(["params", "0.5", "--p1", "1.5"]) == 2
        assert capsys.readouterr().err == "error: p1 must be in (0, 1], got 3/2\n"

    def test_params_tiny_p1_exit_2(self, capsys):
        # pns_required_d has about 5000 digits, past str()'s limit
        assert main(["params", "0.5", "--p1", "1e-5000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["params", "0.5"], ["verify-tables"], ["oracle"], ["run", "SCENARIO"],
    ])
    def test_unwritable_out_exit_2(self, argv, tmp_path, capsys):
        # a return value at all means no exception, so no traceback, escaped
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(_doc(trials=2)))
        argv = [str(scenario) if a == "SCENARIO" else a for a in argv]
        out = tmp_path / "missing-dir" / "out.txt"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err

    def test_run_checks_out_path_before_running(self, tmp_path, capsys,
                                                monkeypatch):
        def never(spec):
            raise AssertionError("run_scenario called")

        monkeypatch.setattr(cli, "run_scenario", never)
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(_doc(trials=2)))
        out = tmp_path / "missing-dir" / "out.txt"
        assert main(["run", str(scenario), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write report") and err.count("\n") == 1

    def test_nul_out_path_is_an_input_error(self, tmp_path, capsys):
        # open() raises ValueError, not OSError, on a NUL: the spec refuses
        # the path before any file is opened, and so does emit_report
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(_doc(trials=2)))
        assert main(["run", str(scenario), "--out", "a\x00b"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: outputs.path") and err.count("\n") == 1
        report = run_scenario(load_scenario(scenario.read_text()))
        with pytest.raises(ScenarioError, match="outputs.path"):
            harness.emit_report(report, "json", "a\x00b")

    def test_params_json(self, capsys):
        assert main(["params", "0.5", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["k"] == 1 and doc["d"] == 3

    def test_verify_tables_exit(self, capsys):
        assert main(["verify-tables"]) == 0
        out = capsys.readouterr().out
        assert "pair-composition" in out and "conformance matrix" in out

    def test_oracle_json(self, capsys):
        assert main(["oracle", "--created", "psi+", "--source", "product",
                     "--product-bit", "1", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["created"] == "psi+"
        assert len(doc["outcomes"]) == 4

    def test_oracle_bad_label(self, capsys):
        assert main(["oracle", "--created", "omega"]) == 2

    def test_run_roundtrip(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(_doc(trials=25)))
        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        assert main(["run", str(scenario), "--out", str(out1)]) == 0
        assert main(["run", str(scenario), "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_run_overrides(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(_doc(trials=25)))
        assert main(["run", str(scenario), "--trials", "5", "--seed", "99",
                     "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 6  # header + 5 trials

    def test_run_bad_spec_exit_2(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(_doc(bogus=1)))
        assert main(["run", str(scenario)]) == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("over,field", [
        *(({section: value}, section) for section, value in MALFORMED_SECTIONS),
        ({"attack": {"kind": "none", "path": "bogus", "guess_count": 3}},
         "attack.path"),
        ({"attack": {"kind": "none", "guess_count": 3}}, "guess_count"),
        ({"attack": {"kind": "subset_guess", "guess_count": 9}},
         "attack.guess_count"),
        *(({"session": session}, "session") for session in OVERSIZED_SESSIONS),
        ({"outputs": {"path": "a\x00b"}}, "outputs.path"),
    ])
    def test_run_malformed_document_exit_2(self, over, field, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(_doc(**over)))
        assert main(["run", str(scenario)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert field in captured.err

    @pytest.mark.parametrize("argv", [
        ["verify-tables", "--format", "json"],
        ["verify-tables", "--seed", "1"],
        ["params", "0.5", "--seed", "3"],
        ["params", "0.5", "--trials", "9"],
        ["params", "0.5", "--format", "csv"],
        ["oracle", "--trials", "2"],
        ["oracle", "--format", "csv"],
        ["run", "SCENARIO", "--format", "text"],
    ])
    def test_flags_belong_to_their_subcommand(self, argv, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(_doc(trials=2)))
        argv = [str(scenario) if a == "SCENARIO" else a for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err

    @pytest.mark.parametrize("argv,needle", [
        (["params", "0.5", "--seed", "3"], "--seed 3"),
        (["run"], "scenario"),
    ])
    def test_usage_error_is_one_line(self, argv, needle, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert needle in captured.err

    def test_help_still_prints_usage(self, capsys):
        assert main(["run", "-h"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: qauthsim run") and captured.err == ""

    def test_run_missing_file_exit_2(self, capsys):
        assert main(["run", "/nonexistent/path.json"]) == 2

    def test_run_non_utf8_file_exit_2(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_bytes(b"\xff\xfe{}")
        assert main(["run", str(scenario)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_run_conformance_failure_exit_1(self, tmp_path, capsys,
                                            monkeypatch):
        # a closed form every honest session contradicts: accept_rate 0
        # while every session accepts, so sigma is 0 and the metric fails
        real = harness.analytic_predictions
        monkeypatch.setattr(harness, "analytic_predictions",
                            lambda spec: real(spec) | {"accept_rate": (0.0, None)})
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(_doc(trials=3)))
        assert main(["run", str(scenario), "--out",
                     str(tmp_path / "r.jsonl")]) == 1
        err = capsys.readouterr().err
        assert "accept_rate" in err
        # the sigma distance is infinite: the summary prints inf, and the
        # report writes null, since JSON has no infinity
        assert " inf " in err
        rows = [json.loads(line) for line in
                (tmp_path / "r.jsonl").read_text().splitlines()]
        accept = {m["name"]: m for m in rows[-1]["metrics"]}["accept_rate"]
        assert accept["sigma_distance"] is None
        assert accept["verdict"] == "fail"


# --- the CLI's exit contract on arbitrary argv ---------------------------------

_SCENARIO_TEXT = json.dumps(_doc(trials=2, session={"k": 1, "d": 1}))
_OVERSIZED_TEXT = json.dumps(_doc(trials=1, session=OVERSIZED_SESSIONS[1]))
_NUL_PATH_TEXT = json.dumps(_doc(trials=1, outputs={"path": "a\x00b"}))
# what run - may read on stdin, by name
_CLI_STDIN = {"empty": "", "scenario": _SCENARIO_TEXT, "not-json": "{nope",
              "array": "[]", "oversized": _OVERSIZED_TEXT,
              "nul-path": _NUL_PATH_TEXT}
# what each subcommand accepts, plus values each flag rejects
_CLI_POSITIONALS = {
    "params": ["0.5", "2**-17", "1e-6", "1/3", "2^-40", "1e-99999999", "0",
               "-", "nan"],
    "run": ["scenario.json", "-", "bad.json", "missing/none.json", "."],
    "verify-tables": [],
    "oracle": [],
}
_CLI_FLAG_VALUES = {
    "--seed": ["0", "7", "-1", "x"],
    "--trials": ["0", "2", "-1", "1.5"],
    "--format": ["text", "json", "csv", "xml"],
    "--out": ["out.txt", "missing/out.txt", ".", ""],
    "--p1": ["0.5", "1e-6", "2**-17", "1", "0", "nan"],
    "--created": ["phi+", "psi-", "omega"],
    "--source": ["product", "ghz", "entangled_phi_plus", "tachyon"],
    "--product-bit": ["0", "1", "2"],
}
# the flags each subcommand accepts; stray tokens bring in the others
_CLI_FLAGS = {
    "params": ["--p1", "--format", "--out"],
    "run": ["--seed", "--trials", "--format", "--out"],
    "verify-tables": ["--out"],
    "oracle": ["--created", "--source", "--product-bit", "--format", "--out"],
}
_CLI_TOKENS = st.sampled_from(sorted(
    {*_CLI_POSITIONALS, *_CLI_FLAG_VALUES, "--help", "-h"}
    | {v for vs in (*_CLI_POSITIONALS.values(), *_CLI_FLAG_VALUES.values())
       for v in vs})) | st.text(max_size=4)


@st.composite
def _cli_argv(draw):
    """Mostly a subcommand with its positional and flags, sometimes with a
    stray token; now and then any list of tokens."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.lists(_CLI_TOKENS, max_size=6))
    command = draw(st.sampled_from(sorted(_CLI_POSITIONALS)))
    argv = [command]
    if _CLI_POSITIONALS[command] and draw(st.integers(0, 4)):
        argv.append(draw(st.sampled_from(_CLI_POSITIONALS[command])))
    for flag in draw(st.lists(st.sampled_from(_CLI_FLAGS[command]), max_size=3)):
        argv += [flag, draw(st.sampled_from(_CLI_FLAG_VALUES[flag]))]
    if draw(st.integers(0, 4)) == 0:
        argv.append(draw(_CLI_TOKENS))
    return argv


@given(argv=_cli_argv(), stdin=st.sampled_from(list(_CLI_STDIN.values())))
@example(argv=["run", "-"], stdin=_OVERSIZED_TEXT)
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_exit_contract(argv, stdin, tmp_path, monkeypatch, capsys):
    # paths are relative to tmp_path: a small scenario, a malformed one, a
    # missing directory and the directory itself; run - reads stdin
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scenario.json").write_text(_SCENARIO_TEXT)
    (tmp_path / "bad.json").write_text('{"seed": 1, "photon": 0}')
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert main(argv) in (0, 1, 2)
    capsys.readouterr()


@pytest.mark.parametrize("name", _CLI_STDIN)
def test_cli_run_stdin_contract(name, tmp_path, monkeypatch, capsys):
    # each stdin sample reaches run - every time, not only when the property
    # test happens to draw it
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "stdin", io.StringIO(_CLI_STDIN[name]))
    code = main(["run", "-"])
    captured = capsys.readouterr()
    assert code == (0 if name == "scenario" else 2)
    assert "Traceback" not in captured.err
