"""Session state machine: planning, key algebra, events, end-to-end runs."""

import json
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qauthsim import protocol
from qauthsim.adversary import (
    AttackConfig,
    AttackKind,
    EveState,
    LocationKnowledge,
    TapPath,
    draw_taps,
)
from qauthsim.channel import Path, PhotonCountModel, draw_loss
from qauthsim.harness import (
    ScenarioSpec,
    _summarize,
    analytic_predictions,
    parse_scenario,
    run_scenario,
)
from qauthsim.protocol import (
    BeliefRule,
    ProtocolMode,
    SessionConfig,
    SessionStatus,
    TamperSpec,
    authenticate,
    believed_state,
    derive_key_bit,
    make_token,
    plan_session,
    run_session,
    tamper_check,
)
from qauthsim.qsim import BellKind, BellLabel, MeasBasis, RandomSource, bell_compose
from qauthsim.secparams import forgery_prob


def _cfg(k=8, d=8, mode=ProtocolMode.BASE, rule=None, **kw):
    return SessionConfig(k=k, d=d, reveal_count=kw.pop("reveal_count", k),
                         mode=mode, belief_rule=rule, **kw)


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            SessionConfig(0, 1, 1, ProtocolMode.BASE)
        with pytest.raises(ValueError):
            SessionConfig(4, -1, 1, ProtocolMode.BASE)
        with pytest.raises(ValueError):
            SessionConfig(4, 4, 0, ProtocolMode.BASE)
        with pytest.raises(ValueError):
            SessionConfig(4, 4, 5, ProtocolMode.BASE)
        with pytest.raises(ValueError):
            SessionConfig(4, 4, 4, ProtocolMode.BASE, error_threshold=1.0)

    def test_defaulted_reveal_count_follows_k(self):
        # a defaulted reveal count means all k bits, also after replace;
        # an explicit one is kept and checked against the new k
        grown = replace(SessionConfig(3, 2), k=5)
        assert len(run_session(grown, None, RandomSource(15, 0)).token) == 5
        measured = SessionConfig(3, 2, mode=ProtocolMode.SWAP,
                                 belief_rule=BeliefRule.MEASURED)
        accept, _note = analytic_predictions(ScenarioSpec(
            1, 1, replace(measured, k=5)))["accept_rate"]
        assert accept == float(forgery_prob(5))
        assert replace(SessionConfig(3, 2), k=2).revealed == 2
        assert replace(SessionConfig(3, 2, 3), k=5).revealed == 3
        with pytest.raises(ValueError, match="reveal_count"):
            replace(SessionConfig(3, 2, 3), k=2)

    def test_swap_needs_rule(self):
        with pytest.raises(ValueError):
            SessionConfig(4, 4, 4, ProtocolMode.SWAP)
        SessionConfig(4, 4, 4, ProtocolMode.SWAP, BeliefRule.COMPOSED)

    def test_swap_rejects_diagonal_key_basis(self):
        with pytest.raises(ValueError):
            SessionConfig(4, 4, 4, ProtocolMode.SWAP, BeliefRule.COMPOSED,
                          key_basis=MeasBasis.DIAGONAL)

    def test_zero_detection_slots_allowed(self):
        cfg = SessionConfig(4, 0, 4, ProtocolMode.BASE)
        assert cfg.total_slots == 4


class TestPlanning:
    def test_partition(self):
        cfg = _cfg(k=5, d=7)
        plan = plan_session(cfg, RandomSource(1, 0))
        assert len(plan.tamper.positions) == 7
        assert len(plan.key_positions) == 5
        both = set(plan.tamper.positions) | set(plan.key_positions)
        assert both == set(range(12))
        assert list(plan.tamper.positions) == sorted(plan.tamper.positions)

    def test_lookup(self):
        plan = plan_session(_cfg(), RandomSource(2, 0))
        tamper = plan.tamper
        assert plan.decoys == {
            pos: (tamper.values[i], tamper.bases[i])
            for i, pos in enumerate(tamper.positions)}
        assert list(plan.decoys) == list(tamper.positions)
        assert not set(plan.decoys) & set(plan.key_positions)

    def test_twin_sources_field(self):
        # a plain field that plan_session fills: 2 * basis bit + value
        plan = plan_session(_cfg(k=3, d=9), RandomSource(5, 1))
        assert "twin_sources" in {f.name for f in fields(plan)}
        tamper = plan.tamper
        assert plan.twin_sources == tuple(
            2 * (basis is MeasBasis.DIAGONAL) + value
            for basis, value in zip(tamper.bases, tamper.values))

    def test_deterministic(self):
        a = plan_session(_cfg(), RandomSource(3, 4))
        b = plan_session(_cfg(), RandomSource(3, 4))
        assert a == b

    def test_positions_uniform(self):
        # every position should be a tamper slot about d/(k+d) of the time
        cfg = _cfg(k=4, d=4)
        counts = [0] * 8
        n = 4000
        for t in range(n):
            plan = plan_session(cfg, RandomSource(4, t))
            for p in plan.tamper.positions:
                counts[p] += 1
        for p, c in enumerate(counts):
            m = _summarize(f"position {p}", c, n, cfg.d / cfg.total_slots)
            assert m.verdict == "pass", m


def test_tamper_spec_roundtrip():
    spec = TamperSpec((1, 4, 6), (MeasBasis.RECTILINEAR, MeasBasis.DIAGONAL,
                                  MeasBasis.DIAGONAL), (0, 1, 1))
    assert TamperSpec.decode(spec.encode()) == spec


# --- the planning draws against one-draw-at-a-time references ------------------

def _reference_sample(rand, universe, count):
    pool = list(range(universe))
    for i in range(count):
        j = i + rand.randbelow(universe - i)
        pool[i], pool[j] = pool[j], pool[i]
    return tuple(sorted(pool[:count]))


def _assert_in_step(a, b):
    # both generators must be at the same point of their stream
    assert (a.bits(16), a.uniform()) == (b.bits(16), b.uniform())


_sizes = {"k": st.integers(1, 40), "d": st.integers(0, 80),
          "seed": st.integers(0, 2 ** 64 - 1)}


@settings(max_examples=150, deadline=None)
@given(universe=st.integers(0, 300), data=st.data(),
       seed=st.integers(0, 2 ** 64 - 1))
def test_sample_positions_matches_randbelow_reference(universe, data, seed):
    count = data.draw(st.integers(0, universe))
    rand, twin = RandomSource(seed, 3), RandomSource(seed, 3)
    assert rand.sample_positions(universe, count) == \
        _reference_sample(twin, universe, count)
    _assert_in_step(rand, twin)


@settings(max_examples=150, deadline=None)
@given(**_sizes)
def test_plan_draws_match_per_slot_reference(k, d, seed):
    cfg = _cfg(k=k, d=d)
    rand, twin = RandomSource(seed, 1), RandomSource(seed, 1)
    plan = plan_session(cfg, rand)
    positions = _reference_sample(twin, k + d, d)
    bases, values = [], []
    for _ in positions:
        bases.append(twin.basis())
        values.append(twin.bit())
    assert plan.tamper == TamperSpec(positions, tuple(bases), tuple(values))
    assert plan.key_positions == tuple(p for p in range(k + d)
                                       if p not in positions)
    _assert_in_step(rand, twin)


@pytest.mark.parametrize("universe,count", [
    (0, 0), (5, 0), (58, 0), (1, 1), (2, 2), (7, 7), (58, 58), (58, 57),
    (58, 41), (300, 200)])
def test_sample_partition_matches_randbelow_reference(universe, count):
    # count == universe ends on a bound of 1, which draws no word
    for stream in range(12):
        rand, twin = RandomSource(37, stream), RandomSource(37, stream)
        chosen, rest = rand.sample_partition(universe, count)
        positions = _reference_sample(twin, universe, count)
        assert chosen == positions
        assert rest == tuple(p for p in range(universe) if p not in positions)
        _assert_in_step(rand, twin)


@pytest.mark.parametrize("k", [1, 2, 17])
def test_plans_without_detection_slots_draw_nothing(k):
    rand, twin = RandomSource(38, k), RandomSource(38, k)
    plan = plan_session(_cfg(k=k, d=0), rand)
    assert plan.tamper == TamperSpec((), (), ())
    assert plan.key_positions == tuple(range(k)) and plan.twin_sources == ()
    _assert_in_step(rand, twin)


# --- the session path's bulk draws against the scalar loops they replace ------

# p = 0.5 is decided by a draw's top byte alone; at 0.02, 1e-12 and 0.999 the
# bytes 5, 0 and 255 hold the edge p * 2**53, and draws there are compared
# exactly
_PROBABILITIES = (0.5, 0.02, 1e-12, 0.999)


def _edge_byte(p):
    """The top byte whose draws straddle p, or None."""
    limit = Fraction(p) * 2 ** 53
    byte = int(limit) >> 45
    return None if limit == byte << 45 else byte


@pytest.mark.parametrize("p", _PROBABILITIES)
@pytest.mark.parametrize("count", [0, 1, 7, 20000])
def test_below_matches_the_uniform_loop(p, count):
    rand, twin = RandomSource(39, count), RandomSource(39, count)
    marks = rand.below(count, p)
    draws = [twin.uniform() for _ in range(count)]
    assert marks == bytes([u < p for u in draws])
    _assert_in_step(rand, twin)
    if count == 20000:
        # the long stream reaches the edge byte, on both sides of p where
        # p is not at an extreme
        edge = [u < p for u in draws if int(u * 2 ** 53) >> 45 == _edge_byte(p)]
        assert (p == 0.5) == (not edge)
        if p in (0.02, 0.999):
            assert set(edge) == {False, True}


@pytest.mark.parametrize("p", (0.0,) + _PROBABILITIES)
@pytest.mark.parametrize("slots", [0, 1, 58])
def test_draw_loss_matches_the_uniform_loop(p, slots):
    for stream in range(25):
        rand, twin = RandomSource(40, stream), RandomSource(40, stream)
        lost = draw_loss(slots, p, rand)
        # no draw at p = 0; else one per photon, the initiator's path first
        marks = [twin.uniform() < p for _ in range(2 * slots)] if p else []
        assert lost == [q for q in range(slots)
                        if marks and (marks[q] or marks[slots + q])]
        _assert_in_step(rand, twin)


def _reference_pns_taps(eve, plan, photon, rand):
    """draw_taps for a PNS attack, one photon count at a time."""
    attack = eve.attack
    total = plan.total_slots
    targets = (plan.key_positions if attack.location_knowledge
               is LocationKnowledge.REALTIME else range(total))
    bit = int(plan.config.key_basis is MeasBasis.DIAGONAL)
    rows = {}
    for path in attack.path.channel_paths():
        row = rows[path] = [None] * total
        for position in targets:
            if photon.sample(rand) >= 2:
                eve.split_positions.add((path, position))
            else:
                row[position] = bit
    return rows.get(Path.TO_ALICE), rows.get(Path.TO_BOB)


@pytest.mark.parametrize("p1", (1.0,) + _PROBABILITIES)
@pytest.mark.parametrize("tap_path", list(TapPath))
@pytest.mark.parametrize("knowledge", [LocationKnowledge.NEVER,
                                       LocationKnowledge.REALTIME])
def test_pns_photon_counts_match_the_sample_loop(p1, tap_path, knowledge):
    attack = AttackConfig(AttackKind.PNS, path=tap_path,
                          location_knowledge=knowledge)
    photon = PhotonCountModel(p1)
    for stream in range(10):
        plan = plan_session(_cfg(k=17, d=41), RandomSource(41, stream))
        rand, twin = RandomSource(42, stream), RandomSource(42, stream)
        eve, twin_eve = EveState(attack), EveState(attack)
        assert draw_taps(eve, plan, photon, rand) == \
            _reference_pns_taps(twin_eve, plan, photon, twin)
        assert eve.split_positions == twin_eve.split_positions
        _assert_in_step(rand, twin)


@pytest.mark.parametrize("count", [0, 1, 2, 17, 41, 100])
def test_packed_bit_draws_match_the_scalar_loops(count):
    # swap mode's created labels, and a plan's basis and value bits
    rand, twin = RandomSource(43, count), RandomSource(43, count)
    assert rand.quarters(count) == bytes([twin.randbelow(4) for _ in range(count)])
    assert rand.bit_pairs(count) == bytes([2 * twin.bit() + twin.bit()
                                           for _ in range(count)])
    _assert_in_step(rand, twin)


@settings(max_examples=150, deadline=None)
@given(**_sizes)
def test_tamper_spec_encode_is_canonical_json(k, d, seed):
    spec = plan_session(_cfg(k=k, d=d), RandomSource(seed, 2)).tamper
    doc = {"positions": list(spec.positions),
           "bases": [b.value for b in spec.bases],
           "values": list(spec.values)}
    raw = spec.encode()
    assert raw == json.dumps(doc, separators=(",", ":"), sort_keys=True).encode()
    assert TamperSpec.decode(raw) == spec


def test_believed_state_rules():
    for s in BellLabel:
        for m in BellLabel:
            assert believed_state(s, m, BeliefRule.COMPOSED) == bell_compose(s, m)
            assert believed_state(s, m, BeliefRule.MEASURED) == m


def test_derive_key_bit():
    assert derive_key_bit(BellLabel.PHI_PLUS, 0) == 0
    assert derive_key_bit(BellLabel.PHI_MINUS, 1) == 1
    assert derive_key_bit(BellLabel.PSI_PLUS, 0) == 1
    assert derive_key_bit(BellLabel.PSI_MINUS, 1) == 0
    with pytest.raises(ValueError):
        derive_key_bit(BellLabel.PHI_PLUS, 2)


def test_make_token_and_authenticate():
    key = (1, 0, 1, 1, 0)
    assert make_token(key, 3) == (1, 0, 1)
    assert authenticate((1, 0, 1), key)
    assert not authenticate((1, 0, 0), key)
    with pytest.raises(ValueError):
        make_token(key, 6)
    with pytest.raises(ValueError):
        authenticate((), key)
    with pytest.raises(ValueError):
        authenticate((1, 0, 1), (1, 0))


def test_tamper_check():
    assert tamper_check((), (), 0.0) == (True, 0)
    assert tamper_check((1, 1, 0, 0), (1, 1, 0, 0), 0.0) == (True, 0)
    passed, errors = tamper_check((1, 0, 0, 0), (1, 1, 0, 0), 0.0)
    assert not passed and errors == 1 and type(errors) is int
    # rate equal to the threshold still passes
    assert tamper_check((1, 0, 0, 0), (1, 1, 0, 0), 0.25)[0]
    with pytest.raises(ValueError):
        tamper_check((1,), (1, 0), 0.0)


class TestHonestSessions:
    def test_base_mode(self):
        cfg = _cfg()
        for t in range(50):
            out = run_session(cfg, None, RandomSource(10, t))
            assert out.status is SessionStatus.AUTH_ACCEPT
            assert out.alice_tamper_error_rate == 0.0
            assert out.bob_tamper_error_rate == 0.0
            assert out.key_matches() == cfg.k
            assert out.token == out.alice_key_bits[:cfg.reveal_count]

    def test_swap_composed_always_agrees(self):
        cfg = _cfg(mode=ProtocolMode.SWAP, rule=BeliefRule.COMPOSED)
        for t in range(50):
            out = run_session(cfg, None, RandomSource(11, t))
            assert out.status is SessionStatus.AUTH_ACCEPT
            assert out.key_matches() == cfg.k
            assert len(out.swap_records) == cfg.k

    def test_swap_measured_mismatch_is_psi_kind_created(self):
        # under the MEASURED rule an honest session garbles exactly the
        # slots whose created pair was psi-kind
        cfg = _cfg(mode=ProtocolMode.SWAP, rule=BeliefRule.MEASURED)
        seen_mismatch = False
        for t in range(80):
            out = run_session(cfg, None, RandomSource(12, t))
            bob_at = dict(zip(out.plan.key_positions, out.bob_key_bits))
            for rec in out.swap_records:
                agree = rec.key_bit == bob_at[rec.position]
                assert agree == (rec.created.kind is BellKind.PHI)
                seen_mismatch |= not agree
        assert seen_mismatch

    def test_swap_measured_accept_rate(self):
        # all reveal bits must agree by luck: rate 2^-reveal
        m = run_scenario(parse_scenario({
            "seed": 13, "trials": 3000,
            "session": {"k": 4, "d": 4, "reveal_count": 4, "mode": "swap",
                        "belief_rule": "measured"}})).metric("accept_rate")
        assert (m.analytic, m.n, m.verdict) == (float(forgery_prob(4)), 3000,
                                                "pass")

    def test_zero_detection_slots_vacuous(self):
        cfg = _cfg(k=4, d=0)
        out = run_session(cfg, None, RandomSource(14, 0))
        assert out.status is SessionStatus.AUTH_ACCEPT
        assert out.alice_tamper_error_rate == 0.0


class TestEvents:
    def test_step_sequence_base(self):
        out = run_session(_cfg(), None, RandomSource(20, 0))
        steps = [s for s, _, _ in out.events.entries]
        assert steps[0] == "1"
        assert steps.index("2") < steps.index("3") < steps.index("4")
        assert steps.index("4") < steps.index("5") < steps.index("6")

    def test_swap_responder_waits_for_token(self):
        # the responder must not measure anything until the token is out
        cfg = _cfg(mode=ProtocolMode.SWAP, rule=BeliefRule.COMPOSED)
        out = run_session(cfg, None, RandomSource(21, 0))
        entries = out.events.entries
        token_at = [i for i, (step, party, _) in enumerate(entries)
                    if (step, party) == ("5", "alice")]
        bob_at = [i for i, (_, party, _) in enumerate(entries) if party == "bob"]
        assert len(token_at) == 1 and bob_at
        assert bob_at[0] > token_at[0]
        assert entries[bob_at[0]][0] == "5d"

    def test_swap_substeps_logged_per_key_slot(self):
        cfg = _cfg(k=3, d=2, mode=ProtocolMode.SWAP, rule=BeliefRule.COMPOSED,
                   reveal_count=3)
        out = run_session(cfg, None, RandomSource(22, 0))
        steps = [s for s, _, _ in out.events.entries]
        assert steps.count("5a") == 3
        assert steps.count("5b") == 3
        assert steps.count("5c") == 3

    def test_digest_stable_and_seed_sensitive(self):
        cfg = _cfg()
        a = run_session(cfg, None, RandomSource(23, 0)).events
        b = run_session(cfg, None, RandomSource(23, 0)).events
        c = run_session(cfg, None, RandomSource(23, 1)).events
        assert a.text() == b.text()
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()


@pytest.mark.parametrize("mode,rule", [(ProtocolMode.BASE, None),
                                       (ProtocolMode.SWAP, BeliefRule.COMPOSED)])
@pytest.mark.parametrize("intercept", [False, True])
def test_sessions_read_the_layout_from_the_plan(monkeypatch, mode, rule,
                                                intercept):
    # no session seals, opens or re-parses the detection layout
    from qauthsim.adversary import AttackConfig, AttackKind, TapPath
    from qauthsim.channel import KeystreamCipher

    cfg = _cfg(k=2, d=3, mode=mode, rule=rule)
    atk = (AttackConfig(AttackKind.INTERCEPT_RESEND, path=TapPath.TO_BOB)
           if intercept else None)
    before = [run_session(cfg, atk, RandomSource(33, t)) for t in range(8)]

    def refuse(*args):
        raise AssertionError("a session touched the control-channel codec")

    monkeypatch.setattr(KeystreamCipher, "seal", refuse)
    monkeypatch.setattr(KeystreamCipher, "open", refuse)
    monkeypatch.setattr(TamperSpec, "decode", refuse)
    after = [run_session(cfg, atk, RandomSource(33, t)) for t in range(8)]
    assert [o.status for o in after] == [o.status for o in before]
    assert ([o.events.digest() for o in after]
            == [o.events.digest() for o in before])


def test_loss_gives_incomplete_stream():
    out = run_session(_cfg(), None, RandomSource(30, 0), p_loss=0.4)
    assert out.status is SessionStatus.INCOMPLETE_STREAM
    assert out.token is None
    assert out.alice_key_bits is None


@pytest.mark.parametrize("p_loss", [1.0, -0.1])
def test_bad_loss_raises_before_and_after_a_valid_session(p_loss):
    # a scenario's session program is reused, and must not skip the check
    cfg = _cfg(k=2, d=3)
    with pytest.raises(ValueError):
        run_session(cfg, None, RandomSource(34, 0), p_loss=p_loss)
    run_session(cfg, None, RandomSource(34, 0), p_loss=0.25)
    with pytest.raises(ValueError):
        run_session(cfg, None, RandomSource(34, 0), p_loss=p_loss)


def _session_record(out):
    """Every field of an outcome, the event log by its entries."""
    record = {f.name: getattr(out, f.name) for f in fields(out)}
    record["events"] = out.events.entries
    return record


@pytest.mark.parametrize("mode,rule,attack", [
    (ProtocolMode.BASE, None, "intercept_resend"),
    (ProtocolMode.SWAP, BeliefRule.COMPOSED, "server_ghz"),
    (ProtocolMode.SWAP, BeliefRule.MEASURED, "server_product"),
    (ProtocolMode.BASE, None, "pns"),
])
def test_equal_configs_give_the_same_sessions(mode, rule, attack):
    # configs that are equal but not the same objects share one program,
    # and each outcome refers to the caller's own config objects
    from qauthsim.adversary import AttackConfig, AttackKind, TapPath
    from qauthsim.channel import PhotonCountModel

    cfg = _cfg(k=3, d=5, mode=mode, rule=rule, reveal_count=None)
    atk = AttackConfig(AttackKind(attack))
    if atk.kind in (AttackKind.INTERCEPT_RESEND, AttackKind.PNS):
        atk = replace(atk, path=TapPath.BOTH)
    photon = PhotonCountModel(0.5)
    twin_cfg, twin_atk, twin_photon = replace(cfg), replace(atk), replace(photon)
    assert twin_cfg == cfg and twin_cfg is not cfg
    assert (hash(twin_cfg), hash(twin_atk), hash(twin_photon)) == \
        (hash(cfg), hash(atk), hash(photon))
    assert protocol._program(twin_cfg, twin_atk, twin_photon, 0.0) is \
        protocol._program(cfg, atk, photon, 0.0)
    for t in range(12):
        kwargs = {"p_loss": 0.01 * (t % 3)}
        out = run_session(cfg, atk, RandomSource(35, t), photon=photon, **kwargs)
        twin = run_session(twin_cfg, twin_atk, RandomSource(35, t),
                           photon=twin_photon, **kwargs)
        assert _session_record(twin) == _session_record(out)
        assert twin.events.digest() == out.events.digest()
        assert twin.plan.config is twin_cfg and twin.eve.attack is twin_atk


def test_config_enums_hash_by_identity():
    # members are singletons, so the C-level identity hash agrees with
    # equality and spares a session-program key Enum's Python-level hash
    from qauthsim.adversary import BasisChoice

    for enum in (ProtocolMode, BeliefRule, MeasBasis, AttackKind, TapPath,
                 BasisChoice, LocationKnowledge, Path):
        assert enum.__hash__ is object.__hash__, enum
        assert len({hash(member) for member in enum}) == len(enum)


def test_threshold_monotone():
    # any session passing at threshold t passes at every larger t
    from qauthsim.adversary import AttackConfig, AttackKind, TapPath

    atk = AttackConfig(AttackKind.INTERCEPT_RESEND, path=TapPath.TO_BOB)
    strict_fail = 0
    for t in range(120):
        lo = run_session(_cfg(error_threshold=0.0), atk, RandomSource(31, t))
        hi = run_session(_cfg(error_threshold=0.5), atk, RandomSource(31, t))
        if "bob" in lo.failed_checks:
            strict_fail += 1
        if "bob" not in lo.failed_checks:
            assert "bob" not in hi.failed_checks
        assert lo.bob_tamper_error_rate == hi.bob_tamper_error_rate
    assert strict_fail > 0


def test_swap_alice_abort_leaves_no_key_material():
    from qauthsim.adversary import AttackConfig, AttackKind, TapPath

    cfg = _cfg(k=4, d=16, mode=ProtocolMode.SWAP, rule=BeliefRule.COMPOSED,
               reveal_count=4)
    atk = AttackConfig(AttackKind.INTERCEPT_RESEND, path=TapPath.TO_ALICE)
    aborted = None
    for t in range(60):
        out = run_session(cfg, atk, RandomSource(32, t))
        if out.status is SessionStatus.TAMPER_ABORT:
            aborted = out
            break
    assert aborted is not None
    assert aborted.failed_checks == ("alice",)
    assert aborted.swap_records is None
    assert aborted.alice_key_bits is None
    assert aborted.token is None
    # the responder never measured either: no bits, no error count, no line
    assert aborted.bob_key_bits is None
    assert aborted.bob_tamper_errors is None
    assert all(party != "bob" for _, party, _ in aborted.events.entries)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(1, 6), d=st.integers(0, 6), seed=st.integers(0, 2 ** 32))
def test_honest_sessions_always_accept(k, d, seed):
    cfg = SessionConfig(k=k, d=d, reveal_count=k, mode=ProtocolMode.BASE)
    out = run_session(cfg, None, RandomSource(seed, 0))
    assert out.status is SessionStatus.AUTH_ACCEPT
    assert out.key_matches() == k

    cfg = SessionConfig(k=k, d=d, reveal_count=k, mode=ProtocolMode.SWAP,
                        belief_rule=BeliefRule.COMPOSED)
    out = run_session(cfg, None, RandomSource(seed, 1))
    assert out.status is SessionStatus.AUTH_ACCEPT
    assert out.key_matches() == k
