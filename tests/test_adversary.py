"""Adversary models against the analytic detection and knowledge rates."""

import math

import pytest

from qauthsim.adversary import (
    AttackConfig,
    AttackKind,
    BasisChoice,
    LocationKnowledge,
    TapPath,
    eve_knowledge_report,
)
from qauthsim.channel import PhotonCountModel
from qauthsim.protocol import (
    BeliefRule,
    ProtocolMode,
    SessionConfig,
    SessionStatus,
    run_session,
)
from qauthsim.qsim import MeasBasis, RandomSource


def _cfg(k=8, d=8, mode=ProtocolMode.BASE, rule=None, **kw):
    return SessionConfig(k=k, d=d, reveal_count=kw.pop("reveal_count", k),
                         mode=mode, belief_rule=rule, **kw)


def _sigma(p, n):
    return math.sqrt(p * (1 - p) / n)


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
    def test_error_rate_quarter(self):
        cfg = _cfg(k=1, d=8, reveal_count=1)
        atk = AttackConfig(AttackKind.INTERCEPT_RESEND, path=TapPath.TO_BOB)
        errors = 0
        bits = 0
        n = 3000
        for t in range(n):
            out = run_session(cfg, atk, RandomSource(40, t))
            errors += out.bob_tamper_error_rate * cfg.d
            bits += cfg.d
        assert abs(errors / bits - 0.25) < 4 * _sigma(0.25, bits)

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
        cfg = _cfg(k=4, d=8)
        atk = AttackConfig(AttackKind.INTERCEPT_RESEND, path=TapPath.BOTH)
        a_err = b_err = 0.0
        n = 800
        for t in range(n):
            out = run_session(cfg, atk, RandomSource(43, t))
            a_err += out.alice_tamper_error_rate
            b_err += out.bob_tamper_error_rate
        assert abs(a_err / n - 0.25) < 4 * _sigma(0.25, n * cfg.d)
        assert abs(b_err / n - 0.25) < 4 * _sigma(0.25, n * cfg.d)

    def test_evasion_rate(self):
        cfg = _cfg(k=1, d=4, reveal_count=1)
        atk = AttackConfig(AttackKind.INTERCEPT_RESEND, path=TapPath.TO_BOB)
        n = 4000
        evaded = 0
        for t in range(n):
            out = run_session(cfg, atk, RandomSource(44, t))
            evaded += "bob" not in out.failed_checks
        p = 0.75 ** 4
        assert abs(evaded / n - p) < 4 * _sigma(p, n)

    def test_key_knowledge_random_basis(self):
        # a random-basis tap guesses the key basis half the time
        cfg = _cfg(k=8, d=4)
        atk = AttackConfig(AttackKind.INTERCEPT_RESEND, path=TapPath.TO_BOB)
        frac = 0.0
        n = 1200
        for t in range(n):
            out = run_session(cfg, atk, RandomSource(45, t))
            rep = eve_knowledge_report(out.eve, out.plan, out)
            frac += rep.fraction
        assert abs(frac / n - 0.5) < 4 * _sigma(0.5, n * cfg.k)

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
            rep = eve_knowledge_report(out.eve, out.plan, out)
            assert rep.fraction == 1.0
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
        rep = eve_knowledge_report(out.eve, out.plan, out)
        assert rep.fraction == 0.0


class TestLocationKnowledge:
    def test_realtime_full_knowledge_no_detection(self):
        cfg = _cfg(k=8, d=8)
        atk = AttackConfig(AttackKind.INTERCEPT_RESEND, path=TapPath.TO_BOB,
                           location_knowledge=LocationKnowledge.REALTIME)
        for t in range(150):
            out = run_session(cfg, atk, RandomSource(50, t))
            assert out.status is SessionStatus.AUTH_ACCEPT
            assert out.bob_tamper_error_rate == 0.0
            rep = eve_knowledge_report(out.eve, out.plan, out)
            assert rep.fraction == 1.0
            assert out.eve.realtime_tamper_positions == frozenset(
                out.plan.tamper.positions)
            # tapped exactly the key slots
            tapped = {pos for _path, pos in out.eve.measured}
            assert tapped == set(out.plan.key_positions)

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
            assert a.eve.post_session_positions is None
            assert b.eve.post_session_positions == frozenset(
                b.plan.tamper.positions)


class TestSubsetGuess:
    def test_guessed_positions_shape(self):
        cfg = _cfg(k=2, d=3, reveal_count=2)
        atk = AttackConfig(AttackKind.SUBSET_GUESS, path=TapPath.TO_BOB,
                           guess_count=4)
        out = run_session(cfg, atk, RandomSource(60, 0))
        assert len(out.eve.guessed_positions) == 4
        tapped = {pos for _p, pos in out.eve.measured}
        assert tapped == set(out.eve.guessed_positions)

    def test_success_rate_matches_formula(self):
        # success: all key slots hit and the responder's check passes
        from math import comb

        k, d, g = 2, 3, 4
        cfg = _cfg(k=k, d=d, reveal_count=k)
        atk = AttackConfig(AttackKind.SUBSET_GUESS, path=TapPath.TO_BOB,
                           guess_count=g)
        n = 6000
        succ = 0
        for t in range(n):
            out = run_session(cfg, atk, RandomSource(61, t))
            rep = eve_knowledge_report(out.eve, out.plan, out)
            if rep.fraction == 1.0 and "bob" not in out.failed_checks:
                succ += 1
        p = comb(d, g - k) / comb(k + d, g) * 0.75 ** (g - k)
        assert abs(succ / n - p) < 4 * _sigma(p, n)

    def test_partial_hits_counted(self):
        cfg = _cfg(k=4, d=4)
        atk = AttackConfig(AttackKind.SUBSET_GUESS, path=TapPath.TO_BOB,
                           guess_count=4)
        out = run_session(cfg, atk, RandomSource(62, 3))
        rep = eve_knowledge_report(out.eve, out.plan, out)
        hits = set(out.eve.guessed_positions) & set(out.plan.key_positions)
        assert rep.certain_positions == tuple(sorted(hits))


class TestPNS:
    def test_split_fraction_and_decrement(self):
        cfg = _cfg(k=4, d=4)
        atk = AttackConfig(AttackKind.PNS, path=TapPath.TO_BOB)
        model = PhotonCountModel(0.6)
        splits = slots = 0
        for t in range(800):
            out = run_session(cfg, atk, RandomSource(70, t), photon=model)
            splits += len(out.eve.split_positions)
            slots += cfg.total_slots
        assert abs(splits / slots - 0.4) < 4 * _sigma(0.4, slots)

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
            errs = out.bob_tamper_error_rate * cfg.d
            assert errs <= len(touched & set(spec.positions))

    def test_evasion_exact_model(self):
        cfg = _cfg(k=1, d=8, reveal_count=1)
        atk = AttackConfig(AttackKind.PNS, path=TapPath.TO_BOB)
        model = PhotonCountModel(0.5)
        n = 4000
        evaded = 0
        for t in range(n):
            out = run_session(cfg, atk, RandomSource(72, t), photon=model)
            evaded += "bob" not in out.failed_checks
        p = (1 - 0.5 / 4) ** 8
        assert abs(evaded / n - p) < 4 * _sigma(p, n)

    def test_ideal_source_degenerates_to_intercept(self):
        cfg = _cfg(k=1, d=4, reveal_count=1)
        atk = AttackConfig(AttackKind.PNS, path=TapPath.TO_BOB)
        n = 2500
        evaded = 0
        for t in range(n):
            out = run_session(cfg, atk, RandomSource(73, t))
            assert not out.eve.split_positions
            evaded += "bob" not in out.failed_checks
        p = 0.75 ** 4
        assert abs(evaded / n - p) < 4 * _sigma(p, n)

    def test_split_key_slots_are_certain_knowledge(self):
        cfg = _cfg(k=6, d=2)
        atk = AttackConfig(AttackKind.PNS, path=TapPath.TO_BOB)
        model = PhotonCountModel(0.5)
        out = run_session(cfg, atk, RandomSource(74, 5), photon=model)
        rep = eve_knowledge_report(out.eve, out.plan, out)
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
            rep = eve_knowledge_report(out.eve, out.plan, out)
            assert rep.server_copy_match == 1.0

    def test_product_swap_composed_transparent(self):
        # under the composition rule the relay's planted bit goes through
        cfg = _cfg(k=8, d=8, mode=ProtocolMode.SWAP, rule=BeliefRule.COMPOSED)
        atk = AttackConfig(AttackKind.SERVER_PRODUCT)
        for t in range(100):
            out = run_session(cfg, atk, RandomSource(81, t))
            assert out.status is SessionStatus.AUTH_ACCEPT
            assert out.key_match_fraction() == 1.0
            rep = eve_knowledge_report(out.eve, out.plan, out)
            assert rep.server_copy_match == 1.0

    def test_product_swap_measured_half_match(self):
        cfg = _cfg(k=8, d=8, mode=ProtocolMode.SWAP, rule=BeliefRule.MEASURED)
        atk = AttackConfig(AttackKind.SERVER_PRODUCT)
        match = slots = 0
        n = 1500
        for t in range(n):
            out = run_session(cfg, atk, RandomSource(82, t))
            match += sum(a == b for a, b in zip(out.alice_key_bits,
                                                out.bob_key_bits))
            slots += cfg.k
            # the mismatch pattern is exactly the psi-kind created slots
            bob_at = dict(zip(out.plan.key_positions, out.bob_key_bits))
            for rec in out.swap_records:
                assert (rec.key_bit == bob_at[rec.position]) == (
                    rec.created.kind_bit == 0)
        assert abs(match / slots - 0.5) < 4 * _sigma(0.5, slots)

    def test_ghz_copy_rate(self):
        for cfg in (_cfg(k=4, d=8),
                    _cfg(k=4, d=8, mode=ProtocolMode.SWAP,
                         rule=BeliefRule.COMPOSED)):
            atk = AttackConfig(AttackKind.SERVER_GHZ)
            for t in range(100):
                out = run_session(cfg, atk, RandomSource(83, t))
                assert out.status is SessionStatus.AUTH_ACCEPT
                assert out.bob_tamper_error_rate == 0.0
                rep = eve_knowledge_report(out.eve, out.plan, out)
                assert rep.server_copy_match == 1.0
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
