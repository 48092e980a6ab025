"""Adversary models against the analytic detection and knowledge rates."""

import pytest

from qauthsim import harness
from qauthsim.adversary import (
    AttackConfig,
    AttackKind,
    BasisChoice,
    LocationKnowledge,
    TapPath,
    eve_knowledge_report,
)
from qauthsim.channel import Path, PhotonCountModel
from qauthsim.harness import _summarize, parse_scenario, run_scenario
from qauthsim.protocol import (
    BeliefRule,
    ProtocolMode,
    SessionConfig,
    SessionStatus,
    run_session,
)
from qauthsim.qsim import MeasBasis, RandomSource
from qauthsim.secparams import evasion_prob, pns_exact_evasion


def _cfg(k=8, d=8, mode=ProtocolMode.BASE, rule=None, **kw):
    return SessionConfig(k=k, d=d, reveal_count=kw.pop("reveal_count", k),
                         mode=mode, belief_rule=rule, **kw)


def _run(seed, trials, session, attack, **photon):
    """The graded report of a scenario document: trial t uses
    ``RandomSource(seed, t)``."""
    return run_scenario(parse_scenario({
        "seed": seed, "trials": trials, "session": session, "attack": attack,
        "photon": photon}))


_TAP_BOB = {"kind": "intercept_resend", "path": "to_bob"}
_PNS_BOB = {"kind": "pns", "path": "to_bob"}


class TestAttackConfigValidation:
    def test_subset_needs_guess_count(self):
        with pytest.raises(ValueError):
            AttackConfig(AttackKind.SUBSET_GUESS)
        with pytest.raises(ValueError):
            AttackConfig(AttackKind.SUBSET_GUESS, guess_count=0)
        AttackConfig(AttackKind.SUBSET_GUESS, guess_count=2)

    def test_guess_count_only_for_subset(self):
        with pytest.raises(ValueError):
            AttackConfig(AttackKind.INTERCEPT_RESEND, guess_count=3)

    def test_realtime_subset_rejected(self):
        with pytest.raises(ValueError):
            AttackConfig(AttackKind.SUBSET_GUESS, guess_count=2,
                         location_knowledge=LocationKnowledge.REALTIME)

    def test_location_knowledge_needs_tap(self):
        with pytest.raises(ValueError):
            AttackConfig(AttackKind.SERVER_GHZ,
                         location_knowledge=LocationKnowledge.REALTIME)
        with pytest.raises(ValueError):
            AttackConfig(AttackKind.NONE,
                         location_knowledge=LocationKnowledge.AFTER_MEASUREMENT)


class TestInterceptResend:
    def test_fixed_basis_error_structure(self):
        # a fixed-basis tap reads same-basis detection slots perfectly, so
        # any disturbance must come from cross-basis slots
        from qauthsim.channel import Path

        cfg = _cfg(k=1, d=8, reveal_count=1)
        atk = AttackConfig(AttackKind.INTERCEPT_RESEND, path=TapPath.TO_BOB,
                           basis_choice=BasisChoice.FIXED,
                           fixed_basis=MeasBasis.RECTILINEAR)
        same_err = cross_n = 0
        for t in range(1500):
            out = run_session(cfg, atk, RandomSource(41, t))
            spec = out.plan.tamper
            for i, pos in enumerate(spec.positions):
                bit, _basis = out.eve.measured[(Path.TO_BOB, pos)]
                if spec.bases[i] is MeasBasis.RECTILINEAR:
                    same_err += bit != spec.values[i]
                else:
                    cross_n += 1
        assert same_err == 0
        assert cross_n > 0

    def test_untapped_path_undisturbed(self):
        cfg = _cfg(k=4, d=8)
        atk = AttackConfig(AttackKind.INTERCEPT_RESEND, path=TapPath.TO_BOB)
        for t in range(60):
            out = run_session(cfg, atk, RandomSource(42, t))
            assert out.alice_tamper_error_rate == 0.0

    def test_both_paths_disturb_both(self):
        report = _run(43, 800, {"k": 4, "d": 8},
                      {"kind": "intercept_resend", "path": "both"})
        for name in ("alice_tamper_error_rate", "bob_tamper_error_rate"):
            m = report.metric(name)
            assert (m.analytic, m.n, m.verdict) == (0.25, 800 * 8, "pass")

    def test_evasion_rate(self):
        m = _run(44, 4000, {"k": 1, "d": 4}, _TAP_BOB).metric("evasion_rate")
        assert (m.analytic, m.n, m.verdict) == (float(evasion_prob(4)), 4000,
                                                "pass")

    def test_key_knowledge_random_basis(self):
        # a random-basis tap guesses the key basis half the time
        m = _run(45, 1200, {"k": 8, "d": 4}, _TAP_BOB).metric(
            "eve_key_knowledge")
        assert (m.analytic, m.n, m.verdict) == (0.5, 1200 * 8, "pass")

    def test_certain_positions_actually_match(self):
        # every position eve claims with certainty equals the responder's bit
        cfg = _cfg(k=8, d=4)
        atk = AttackConfig(AttackKind.INTERCEPT_RESEND, path=TapPath.TO_BOB,
                           basis_choice=BasisChoice.FIXED,
                           fixed_basis=MeasBasis.RECTILINEAR)
        from qauthsim.channel import Path

        checked = 0
        for t in range(120):
            out = run_session(cfg, atk, RandomSource(46, t))
            rep = eve_knowledge_report(out)
            assert rep.certain == cfg.k
            bob_at = dict(zip(out.plan.key_positions, out.bob_key_bits))
            for pos in rep.certain_positions:
                bit, _basis = out.eve.measured[(Path.TO_BOB, pos)]
                assert bit == bob_at[pos]
                checked += 1
        assert checked == 120 * cfg.k

    def test_swap_mode_yields_no_certain_knowledge(self):
        cfg = _cfg(k=4, d=4, mode=ProtocolMode.SWAP, rule=BeliefRule.COMPOSED)
        atk = AttackConfig(AttackKind.INTERCEPT_RESEND, path=TapPath.TO_BOB,
                           basis_choice=BasisChoice.FIXED,
                           fixed_basis=MeasBasis.RECTILINEAR)
        out = run_session(cfg, atk, RandomSource(47, 0))
        rep = eve_knowledge_report(out)
        assert rep.certain == 0


class TestLocationKnowledge:
    def test_realtime_full_knowledge_no_detection(self):
        cfg = _cfg(k=8, d=8)
        atk = AttackConfig(AttackKind.INTERCEPT_RESEND, path=TapPath.TO_BOB,
                           location_knowledge=LocationKnowledge.REALTIME)
        for t in range(150):
            out = run_session(cfg, atk, RandomSource(50, t))
            assert out.status is SessionStatus.AUTH_ACCEPT
            assert out.bob_tamper_error_rate == 0.0
            rep = eve_knowledge_report(out)
            assert rep.certain == cfg.k
            # tapped exactly the key slots, each in the key basis
            tapped = {pos for _path, pos in out.eve.measured}
            assert tapped == set(out.plan.key_positions)
            assert tapped.isdisjoint(out.plan.tamper.positions)
            assert all(basis is cfg.key_basis
                       for _bit, basis in out.eve.measured.values())

    def test_after_measurement_matches_never_per_seed(self):
        cfg = _cfg(k=8, d=8)
        base = AttackConfig(AttackKind.INTERCEPT_RESEND, path=TapPath.TO_BOB)
        late = AttackConfig(AttackKind.INTERCEPT_RESEND, path=TapPath.TO_BOB,
                            location_knowledge=LocationKnowledge.AFTER_MEASUREMENT)
        for t in range(80):
            a = run_session(cfg, base, RandomSource(51, t))
            b = run_session(cfg, late, RandomSource(51, t))
            assert a.status is b.status
            assert a.bob_tamper_error_rate == b.bob_tamper_error_rate
            assert a.alice_key_bits == b.alice_key_bits
            assert a.events.text() == b.events.text()
            assert a.eve.measured == b.eve.measured


class TestSubsetGuess:
    def test_guessed_positions_shape(self):
        cfg = _cfg(k=2, d=3, reveal_count=2)
        atk = AttackConfig(AttackKind.SUBSET_GUESS, path=TapPath.TO_BOB,
                           guess_count=4)
        out = run_session(cfg, atk, RandomSource(60, 0))
        # four distinct positions on the tapped path, read in the key basis
        assert len(out.eve.measured) == 4
        assert {path for path, _pos in out.eve.measured} == {Path.TO_BOB}
        assert all(basis is cfg.key_basis
                   for _bit, basis in out.eve.measured.values())

    def test_partial_hits_counted(self):
        cfg = _cfg(k=4, d=4)
        atk = AttackConfig(AttackKind.SUBSET_GUESS, path=TapPath.TO_BOB,
                           guess_count=4)
        out = run_session(cfg, atk, RandomSource(62, 3))
        rep = eve_knowledge_report(out)
        tapped = {pos for _path, pos in out.eve.measured}
        assert len(tapped) == 4
        hits = tapped & set(out.plan.key_positions)
        assert rep.certain_positions == tuple(sorted(hits))


class TestPNS:
    def test_split_fraction_and_decrement(self):
        # every slot on the tapped path holds more than one photon, and is
        # split, with chance 1 - p1 on its own
        cfg = _cfg(k=4, d=4)
        atk = AttackConfig(AttackKind.PNS, path=TapPath.TO_BOB)
        model = PhotonCountModel(0.6)
        splits = slots = 0
        for t in range(800):
            out = run_session(cfg, atk, RandomSource(70, t), photon=model)
            splits += len(out.eve.split_positions)
            slots += cfg.total_slots
        assert _summarize("split", splits, slots,
                          1 - model.p1).verdict == "pass"

    def test_split_slots_undisturbed(self):
        # multi-photon detection slots read back exactly as prepared
        cfg = _cfg(k=1, d=8, reveal_count=1)
        atk = AttackConfig(AttackKind.PNS, path=TapPath.TO_BOB)
        model = PhotonCountModel(0.5)
        from qauthsim.channel import Path

        for t in range(400):
            out = run_session(cfg, atk, RandomSource(71, t), photon=model)
            split = {pos for path, pos in out.eve.split_positions
                     if path is Path.TO_BOB}
            if not split:
                continue
            spec = out.plan.tamper
            touched = {pos for path, pos in out.eve.measured
                       if path is Path.TO_BOB}
            # errors can only come from single-photon (measured) slots
            assert out.bob_tamper_errors <= len(touched & set(spec.positions))

    def test_evasion_exact_model(self):
        m = _run(72, 4000, {"k": 1, "d": 8}, _PNS_BOB, p1=0.5).metric(
            "evasion_rate")
        assert (m.analytic, m.n, m.verdict) == (
            float(pns_exact_evasion(8, 0.5)), 4000, "pass")

    def test_ideal_source_degenerates_to_intercept(self, monkeypatch):
        split = []

        def session(*args, **kwargs):
            out = run_session(*args, **kwargs)
            split.extend(out.eve.split_positions)
            return out

        monkeypatch.setattr(harness, "run_session", session)
        m = _run(73, 2500, {"k": 1, "d": 4}, _PNS_BOB).metric("evasion_rate")
        assert not split
        assert (m.analytic, m.n, m.verdict) == (float(evasion_prob(4)), 2500,
                                                "pass")

    def test_split_key_slots_are_certain_knowledge(self):
        cfg = _cfg(k=6, d=2)
        atk = AttackConfig(AttackKind.PNS, path=TapPath.TO_BOB)
        model = PhotonCountModel(0.5)
        out = run_session(cfg, atk, RandomSource(74, 5), photon=model)
        rep = eve_knowledge_report(out)
        split_keys = {pos for _p, pos in out.eve.split_positions
                      if pos in set(out.plan.key_positions)}
        assert split_keys <= set(rep.certain_positions)


class TestServerCompromise:
    def test_product_base_mode(self):
        cfg = _cfg(k=8, d=8)
        atk = AttackConfig(AttackKind.SERVER_PRODUCT)
        for t in range(100):
            out = run_session(cfg, atk, RandomSource(80, t))
            assert out.status is SessionStatus.AUTH_ACCEPT
            assert out.alice_tamper_error_rate == 0.0
            assert out.bob_tamper_error_rate == 0.0
            rep = eve_knowledge_report(out)
            assert rep.copy_hits == cfg.k

    def test_product_swap_composed_transparent(self):
        # under the composition rule the relay's planted bit goes through
        cfg = _cfg(k=8, d=8, mode=ProtocolMode.SWAP, rule=BeliefRule.COMPOSED)
        atk = AttackConfig(AttackKind.SERVER_PRODUCT)
        for t in range(100):
            out = run_session(cfg, atk, RandomSource(81, t))
            assert out.status is SessionStatus.AUTH_ACCEPT
            assert out.key_matches() == cfg.k
            rep = eve_knowledge_report(out)
            assert rep.copy_hits == cfg.k

    def test_product_swap_measured_half_match(self):
        # the mismatch pattern is exactly the psi-kind created slots; the
        # rate 1/2 is graded by acceptance criterion 09
        cfg = _cfg(k=8, d=8, mode=ProtocolMode.SWAP, rule=BeliefRule.MEASURED)
        atk = AttackConfig(AttackKind.SERVER_PRODUCT)
        for t in range(1500):
            out = run_session(cfg, atk, RandomSource(82, t))
            bob_at = dict(zip(out.plan.key_positions, out.bob_key_bits))
            for rec in out.swap_records:
                assert (rec.key_bit == bob_at[rec.position]) == (
                    rec.created.kind_bit == 0)

    def test_ghz_copy_rate(self):
        for cfg in (_cfg(k=4, d=8),
                    _cfg(k=4, d=8, mode=ProtocolMode.SWAP,
                         rule=BeliefRule.COMPOSED)):
            atk = AttackConfig(AttackKind.SERVER_GHZ)
            for t in range(100):
                out = run_session(cfg, atk, RandomSource(83, t))
                assert out.status is SessionStatus.AUTH_ACCEPT
                assert out.bob_tamper_error_rate == 0.0
                rep = eve_knowledge_report(out)
                assert rep.copy_hits == cfg.k
                assert not out.eve.retained  # consumed at session end

    def test_ghz_record_covers_all_key_slots(self):
        cfg = _cfg(k=5, d=3, reveal_count=5)
        out = run_session(cfg, AttackConfig(AttackKind.SERVER_GHZ),
                          RandomSource(84, 0))
        assert set(out.eve.server_record) == set(out.plan.key_positions)


def test_honest_eve_state_is_empty():
    out = run_session(_cfg(), None, RandomSource(90, 0))
    eve = out.eve
    assert eve.kind is AttackKind.NONE
    assert not eve.measured and not eve.split_positions
    assert not eve.server_record
