"""Adversary models against the analytic detection and knowledge rates."""

from itertools import compress
from operator import eq

import pytest

from qauthsim import harness
from qauthsim.adversary import (
    AttackConfig,
    AttackKind,
    BasisChoice,
    LocationKnowledge,
    TapPath,
    _IN_BASIS,
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
from test_protocol import _relay_steps


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
            for pos, (value, basis) in out.plan.decoys.items():
                bit, _basis = out.eve.measured[(Path.TO_BOB, pos)]
                if basis is MeasBasis.RECTILINEAR:
                    same_err += bit != value
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
            assert tapped.isdisjoint(out.plan.positions)
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
            touched = {pos for path, pos in out.eve.measured
                       if path is Path.TO_BOB}
            # errors can only come from single-photon (measured) slots
            assert out.bob_tamper_errors <= len(touched & set(out.plan.positions))

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
            for position, created, key_bit in _relay_steps(out):
                assert (key_bit == bob_at[position]) == (created.kind_bit == 0)

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

    def test_ghz_record_is_the_retained_qubits_read(self):
        # the relay reads its retained qubit rectilinearly; under a diagonal
        # key basis bob's read of the triple's second qubit is a fair coin
        # next to it, so the record copies bob's bit on half the key slots
        cfg = _cfg(k=4, d=2, key_basis=MeasBasis.DIAGONAL)
        hits = n = 0
        for t in range(600):
            out = run_session(cfg, AttackConfig(AttackKind.SERVER_GHZ),
                              RandomSource(85, t))
            hits += eve_knowledge_report(out).copy_hits
            n += cfg.k
        m = _summarize("ghz diagonal copy", hits, n, 0.5)
        assert m.verdict == "pass", m


def test_honest_eve_state_is_empty():
    out = run_session(_cfg(), None, RandomSource(90, 0))
    eve = out.eve
    assert eve.kind is AttackKind.NONE
    assert not eve.measured and not eve.split_positions
    assert not eve.server_record


def test_empty_knowledge_is_one_shared_report():
    # honest sessions and lost streams hold no adversary record: each gets
    # the same empty report, with the counts a full scan would give
    from qauthsim.adversary import KnowledgeReport

    honest = run_session(_cfg(), None, RandomSource(91, 0))
    atk = AttackConfig(AttackKind.PNS, path=TapPath.BOTH)
    lost = run_session(_cfg(), atk, RandomSource(91, 1),
                       photon=PhotonCountModel(0.5), p_loss=0.5)
    assert lost.status is SessionStatus.INCOMPLETE_STREAM
    reports = [eve_knowledge_report(out) for out in (honest, lost)]
    assert reports[0] is reports[1]
    assert reports[0] == KnowledgeReport(None, None)
    assert (reports[0].certain, reports[0].copy_hits) == (0, None)
    assert reports[0].key_positions == reports[0].certain_positions == ()


def _certain_by_the_measured_dict(out):
    """The knowledge rule on the per-slot dict: key slots read in the key
    basis, and split key slots, in direct-readout mode only."""
    eve, plan = out.eve, out.plan
    cfg = plan.config
    if cfg.mode is not ProtocolMode.BASE:
        return ()
    key_set = set(plan.key_positions)
    certain = {pos for (_path, pos), (_bit, basis) in eve.measured.items()
               if basis is cfg.key_basis and pos in key_set}
    certain |= {pos for _path, pos in eve.split_positions if pos in key_set}
    return tuple(sorted(certain))


_TAP_ATTACKS = [
    dict(kind=AttackKind.INTERCEPT_RESEND),
    dict(kind=AttackKind.INTERCEPT_RESEND, basis_choice=BasisChoice.FIXED,
         fixed_basis=MeasBasis.DIAGONAL),
    dict(kind=AttackKind.INTERCEPT_RESEND, basis_choice=BasisChoice.FIXED),
    dict(kind=AttackKind.INTERCEPT_RESEND,
         location_knowledge=LocationKnowledge.REALTIME),
    dict(kind=AttackKind.SUBSET_GUESS, guess_count=5),
    dict(kind=AttackKind.PNS),
    dict(kind=AttackKind.PNS, location_knowledge=LocationKnowledge.REALTIME)]


@pytest.mark.parametrize("attack", _TAP_ATTACKS, ids=repr)
@pytest.mark.parametrize("path", list(TapPath))
@pytest.mark.parametrize("mode,key_basis", [
    (ProtocolMode.BASE, MeasBasis.RECTILINEAR),
    (ProtocolMode.BASE, MeasBasis.DIAGONAL),
    (ProtocolMode.SWAP, MeasBasis.RECTILINEAR)])
def test_knowledge_from_rows_equals_the_measured_dict_rule(attack, path, mode,
                                                           key_basis):
    cfg = _cfg(k=6, d=5, mode=mode, key_basis=key_basis,
               rule=BeliefRule.COMPOSED if mode is ProtocolMode.SWAP else None)
    atk = AttackConfig(path=path, **attack)
    paths = len(path.channel_paths())
    for trial in range(12):
        out = run_session(cfg, atk, RandomSource(95, trial),
                          photon=PhotonCountModel(0.5))
        eve = out.eve
        assert len(eve.rows) == paths
        # a session builds no per-slot dict, and the report reads the rows
        report = eve_knowledge_report(out)
        assert eve._measured is None
        assert report.certain_positions == _certain_by_the_measured_dict(out)


def test_measured_is_a_writable_view_of_the_rows():
    atk = AttackConfig(AttackKind.INTERCEPT_RESEND, path=TapPath.BOTH)
    out = run_session(_cfg(k=3, d=2), atk, RandomSource(96, 0))
    measured = out.eve.measured
    assert len(measured) == 2 * 5 and out.eve.measured is measured
    measured[(Path.TO_BOB, 0)] = (1, MeasBasis.DIAGONAL)
    assert out.eve.measured[(Path.TO_BOB, 0)] == (1, MeasBasis.DIAGONAL)


def _reference_knowledge(outcome):
    """The knowledge report as sets of positions: (certain positions,
    sorted; copy hits).  A key slot is certain where a tapped path read it
    in the key basis or split its photon, in direct-readout mode only; the
    copy hits count the key slots where the relay's record, by position,
    equals the responder's bit."""
    eve, plan = outcome.eve, outcome.plan
    if not (eve.rows or eve.split_positions or eve.server_record):
        return (), None
    cfg = plan.config
    certain = set()
    if cfg.mode is ProtocolMode.BASE:
        key_positions, d = plan.key_positions, cfg.d
        in_key_basis = _IN_BASIS[cfg.key_basis is MeasBasis.DIAGONAL]
        for _path, codes, _outcomes, _field in eve.rows:
            certain.update(compress(key_positions,
                                    codes[d:].translate(in_key_basis)))
        key_set = set(key_positions)
        certain.update([pos for _path, pos in eve.split_positions
                        if pos in key_set])
    copy_hits = None
    if eve.server_record and outcome.bob_key_bits is not None:
        copy_hits = sum(map(eq, map(eve.server_record.get, plan.key_positions),
                            outcome.bob_key_bits))
    return tuple(sorted(certain)), copy_hits


def _every_attack(guess_count):
    """None, and every attack config: each kind, path, location knowledge
    and basis choice it takes, a subset guess of ``guess_count`` slots."""
    yield None
    yield AttackConfig(AttackKind.SERVER_PRODUCT)
    yield AttackConfig(AttackKind.SERVER_GHZ)
    for path in TapPath:
        for knowledge in LocationKnowledge:
            for basis in (None, MeasBasis.RECTILINEAR, MeasBasis.DIAGONAL):
                choice = dict(basis_choice=BasisChoice.FIXED,
                              fixed_basis=basis) if basis else {}
                yield AttackConfig(AttackKind.INTERCEPT_RESEND, path=path,
                                   location_knowledge=knowledge, **choice)
            yield AttackConfig(AttackKind.PNS, path=path,
                               location_knowledge=knowledge)
            if knowledge is not LocationKnowledge.REALTIME:
                yield AttackConfig(AttackKind.SUBSET_GUESS, path=path,
                                   guess_count=guess_count,
                                   location_knowledge=knowledge)


@pytest.mark.parametrize("p_loss", [0.0, 0.1])
@pytest.mark.parametrize("mode,rule,key_basis", [
    (ProtocolMode.BASE, None, MeasBasis.RECTILINEAR),
    (ProtocolMode.BASE, None, MeasBasis.DIAGONAL),
    (ProtocolMode.SWAP, BeliefRule.COMPOSED, MeasBasis.RECTILINEAR),
    (ProtocolMode.SWAP, BeliefRule.MEASURED, MeasBasis.RECTILINEAR)])
def test_knowledge_counts_equal_the_set_reference(mode, rule, key_basis,
                                                  p_loss):
    # the report's counts over key-order bytes, and the session's own key
    # match count, against the set-based rule and a bit-by-bit comparison
    for k, d in ((1, 0), (2, 3), (4, 2)):
        cfg = _cfg(k=k, d=d, mode=mode, rule=rule, key_basis=key_basis)
        for attack in _every_attack(min(3, k + d)):
            for trial in range(6):
                out = run_session(cfg, attack, RandomSource(97, trial),
                                  photon=PhotonCountModel(0.5), p_loss=p_loss)
                report = eve_knowledge_report(out)
                positions, copy_hits = _reference_knowledge(out)
                assert (report.certain, report.certain_positions,
                        report.copy_hits) == (len(positions), positions,
                                              copy_hits), (k, d, attack, trial)
                alice, bob = out.alice_key_bits, out.bob_key_bits
                assert out.key_matches() == (
                    None if alice is None or bob is None
                    else sum(map(eq, alice, bob))), (k, d, attack, trial)


# --- the position views against the rules they were built by before ---------

_PNS_VIEW_SCENARIOS = {
    f"{knowledge}-pns-{path}": {
        "seed": 2024, "trials": 6,
        "session": {"k": 4, "d": 4, "mode": "base", "key_basis": "diagonal"},
        "attack": {"kind": "pns", "path": path,
                   "location_knowledge": knowledge},
        "photon": {"p1": 0.5}}
    for knowledge in ("never", "realtime") for path in ("to_bob", "both")}


def _old_views(spec, trial, out):
    """The position views of an arriving trial, drawn again on a twin of its
    stream by the rules the session followed before it kept its layout as
    marks: the plan as ``sample_partition``'s two tuples; each tap's
    targets as positions (``sample_positions`` for a guess), its photon
    counts and basis bits per target, the splits as (path, position) and
    the reads scattered to a row by position; eve's reads zipped with the
    detection positions, then the key positions; the relay's record zipped
    with the key positions; and the known key positions as a set."""
    cfg, attack, photon = spec.session, spec.attack, spec.photon
    total, d, k = cfg.total_slots, cfg.d, cfg.k
    twin = RandomSource(spec.seed, trial)
    positions, key_positions = twin.sample_partition(total, d)
    twin.quarters(d)
    kind = attack.kind if attack is not None else AttackKind.NONE
    rows, split = {}, set()
    if kind in (AttackKind.INTERCEPT_RESEND, AttackKind.SUBSET_GUESS,
                AttackKind.PNS):
        realtime = attack.location_knowledge is LocationKnowledge.REALTIME
        if kind is AttackKind.SUBSET_GUESS:
            targets = twin.sample_positions(total, attack.guess_count)
        elif realtime:
            targets = key_positions
        else:
            targets = tuple(range(total))
        blind = kind is AttackKind.INTERCEPT_RESEND and not realtime
        basis = attack.fixed_basis if blind else cfg.key_basis
        for path in attack.path.channel_paths():
            if blind and attack.basis_choice is BasisChoice.RANDOM_PER_SLOT:
                reads = dict(zip(targets, twin.bits(len(targets))))
            elif kind is AttackKind.PNS and photon.p1 < 1.0:
                single = twin.below(len(targets), photon.p1)
                split.update((path, position) for position, one
                             in zip(targets, single) if not one)
                reads = {position: int(cfg.key_basis is MeasBasis.DIAGONAL)
                         for position, one in zip(targets, single) if one}
            else:
                reads = dict.fromkeys(targets,
                                      int(basis is MeasBasis.DIAGONAL))
            rows[path] = bytes([1 + reads[p] if p in reads else 0
                                for p in range(total)])
    record = out.eve.key_record
    if kind is AttackKind.SERVER_PRODUCT:
        assert record == twin.bits(k)
    order = positions + key_positions
    measured, known = {}, set()
    for path, codes, outcomes, field in out.eve.rows:
        old = rows.pop(path)
        assert codes == bytes(map(old.__getitem__, order))
        for position, out_code in zip(order, outcomes):
            if old[position]:
                basis = MeasBasis.DIAGONAL if old[position] == 2 \
                    else MeasBasis.RECTILINEAR
                measured[(path, position)] = (out_code >> field & 1, basis)
                if basis is cfg.key_basis and position in key_positions:
                    known.add(position)
    assert not rows  # every tapped path kept its row
    if cfg.mode is ProtocolMode.BASE:
        known.update(p for _path, p in split if p in key_positions)
    else:
        known.clear()
    return dict(positions=positions, key_positions=key_positions,
                measured=measured, split_positions=split,
                server_record=dict(zip(key_positions, record)),
                certain_positions=tuple(sorted(known)))


def _view_scenarios():
    from test_golden import SCENARIOS

    return sorted({**SCENARIOS, **_PNS_VIEW_SCENARIOS}.items())


@pytest.mark.parametrize("name,doc", _view_scenarios(),
                         ids=[name for name, _ in _view_scenarios()])
def test_position_views_match_the_old_rules(name, doc):
    # every position view a session leaves, built on access from the
    # layout's marks, the split marks and the relay's key-order record,
    # against the tuples, sets and dicts the session built before
    spec = parse_scenario(doc)
    for trial in range(6):
        out = run_session(spec.session, spec.attack,
                          RandomSource(spec.seed, trial), photon=spec.photon,
                          p_loss=spec.p_loss)
        eve = out.eve
        if out.plan is None:
            assert out.status is SessionStatus.INCOMPLETE_STREAM
            assert not (eve.measured or eve.split_positions
                        or eve.server_record)
            continue
        report = eve_knowledge_report(out)
        old = _old_views(spec, trial, out)
        got = dict(positions=out.plan.positions,
                   key_positions=out.plan.key_positions,
                   measured=eve.measured, split_positions=eve.split_positions,
                   server_record=eve.server_record,
                   certain_positions=report.certain_positions)
        assert got == old, (name, trial)
        # a session that leaves no record shares the one empty report
        assert report.key_positions == (
            old["key_positions"] if eve.rows or eve.key_record else ())
        # each view is built once, and the per-photon writers add to it
        assert eve.split_positions is got["split_positions"]
        assert eve.server_record is got["server_record"]


_GUARD_ATTACKS = {
    "none": ({"kind": "none"}, {}),
    "intercept": (_TAP_BOB, {}),
    "pns": (_PNS_BOB, {"p1": 0.5}),
    "subset": ({"kind": "subset_guess", "path": "to_bob", "guess_count": 17},
               {}),
    "server_product": ({"kind": "server_product"}, {}),
    "server_ghz": ({"kind": "server_ghz"}, {})}


@pytest.mark.parametrize("mode,attack", [
    ("base", "none"), ("base", "intercept"), ("base", "pns"),
    ("base", "subset"), ("base", "server_product"), ("swap", "none"),
    ("swap", "intercept"), ("swap", "server_ghz")])
def test_sessions_build_no_position_tuple(monkeypatch, mode, attack):
    # at the paper's sizing a scenario run, sessions, knowledge reports and
    # fold, reads the layout and the adversary's records as bytes: with
    # every position view patched to raise, it runs, and a session left
    # outside the harness has built none of them either
    from qauthsim.adversary import EveState
    from qauthsim.protocol import SessionPlan

    kind, photon = _GUARD_ATTACKS[attack]
    session = {"k": 17, "d": 41, "mode": mode}
    if mode == "swap":
        session["belief_rule"] = "composed"
    spec = parse_scenario({"seed": 2025, "trials": 8, "session": session,
                           "attack": kind, "photon": photon})
    outs = [run_session(spec.session, spec.attack, RandomSource(2025, t),
                        photon=spec.photon) for t in range(8)]
    for out in outs:
        eve_knowledge_report(out)
        assert not {"positions", "key_positions", "decoys"} & set(
            vars(out.plan)), (mode, attack)
        eve = out.eve
        assert (eve._measured, eve._split_positions, eve._server_record) == (
            None, None, None), (mode, attack)

    def refuse(self):
        raise AssertionError("a session built a position view")

    for name in ("positions", "key_positions", "decoys"):
        monkeypatch.setattr(SessionPlan, name, property(refuse))
    for name in ("measured", "split_positions", "server_record"):
        monkeypatch.setattr(EveState, name, property(refuse))
    run_scenario(spec)
