"""Session state machine: planning, key algebra, events, end-to-end runs."""

import hashlib
import json
import math
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction
from itertools import combinations, product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from qauthsim import harness, protocol, qsim
from qauthsim.adversary import (
    AttackConfig,
    AttackKind,
    BasisChoice,
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
from qauthsim.qsim import (
    BELL_ORDER,
    BellKind,
    BellLabel,
    MeasBasis,
    RandomSource,
    bell_compose,
)
from qauthsim.secparams import forgery_prob
from test_golden import SCENARIOS as GOLDEN
from test_qsim import _decode

_LABEL_OF_TEXT = {label.short(): label for label in BELL_ORDER}


def _relay_steps(out):
    """A session's relay steps, read from its 5a and 5c log entries:
    (position, created label, key bit) per key slot, in log order."""
    created, key = {}, {}
    for step, _party, text in out.events.entries:
        if step in ("5a", "5c"):
            items = dict(item.split("=") for item in text.split(" "))
            position = int(items["pos"])
            if step == "5a":
                created[position] = _LABEL_OF_TEXT[items["created"]]
            else:
                key[position] = int(items["key"])
    assert list(created) == list(key)
    return [(position, created[position], key[position]) for position in created]


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
        assert len(plan.positions) == 7
        assert len(plan.key_positions) == 5
        both = set(plan.positions) | set(plan.key_positions)
        assert both == set(range(12))
        assert list(plan.positions) == sorted(plan.positions)

    def test_lookup(self):
        plan = plan_session(_cfg(), RandomSource(2, 0))
        assert list(plan.decoys) == list(plan.positions)
        assert all(value in (0, 1) and isinstance(basis, MeasBasis)
                   for value, basis in plan.decoys.values())
        assert not set(plan.decoys) & set(plan.key_positions)

    def test_twin_sources_field(self):
        # a bytes field that plan_session fills, 2 * basis bit + value, and
        # that the detection slots' (value, basis) view is built from
        plan = plan_session(_cfg(k=3, d=9), RandomSource(5, 1))
        assert "twin_sources" in {f.name for f in fields(plan)}
        assert plan.twin_sources == bytes(
            2 * (basis is MeasBasis.DIAGONAL) + value
            for value, basis in plan.decoys.values())

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
            for p in plan.positions:
                counts[p] += 1
        for p, c in enumerate(counts):
            m = _summarize(f"position {p}", c, n, cfg.d / cfg.total_slots)
            assert m.verdict == "pass", m


def test_tamper_spec_roundtrip():
    spec = TamperSpec((1, 4, 6), (MeasBasis.RECTILINEAR, MeasBasis.DIAGONAL,
                                  MeasBasis.DIAGONAL), (0, 1, 1))
    assert TamperSpec.decode(spec.encode()) == spec


# --- the planning draws against one-draw-at-a-time references ------------------

def _randbelow(rand, bound):
    """The first ``getrandbits(width)`` draw of ``rand``'s twister below
    ``bound``; a bound of 1 has width 0, which draws no word."""
    draw = (rand._rng or rand._seed()).getrandbits
    width = (bound - 1).bit_length()
    while (value := draw(width)) >= bound:
        pass
    return value


def _reference_sample(rand, universe, count):
    """Floyd's algorithm over the smaller side, one bounded draw at a time:
    for j = universe - m .. universe - 1, t below j + 1 joins the side,
    or j does where t already has; where the side is the rest, the sample
    is its complement."""
    side = min(count, universe - count)
    drawn = set()
    for j in range(universe - side, universe):
        t = _randbelow(rand, j + 1)
        drawn.add(j if t in drawn else t)
    if side != count:
        drawn = set(range(universe)) - drawn
    return tuple(sorted(drawn))


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
        # one getrandbits(2) per slot: 2 * basis bit + value
        twin_source = _randbelow(twin, 4)
        bases.append((MeasBasis.RECTILINEAR, MeasBasis.DIAGONAL)[twin_source >> 1])
        values.append(twin_source & 1)
    assert plan.positions == positions
    assert plan.decoys == dict(zip(positions, zip(values, bases)))
    assert plan.key_positions == tuple(p for p in range(k + d)
                                       if p not in positions)
    _assert_in_step(rand, twin)


@pytest.mark.parametrize("universe,count", [
    (0, 0), (5, 0), (58, 0), (1, 1), (2, 2), (7, 7), (58, 58), (58, 57),
    (58, 41), (300, 200)])
def test_sample_partition_matches_randbelow_reference(universe, count):
    # count == universe and count == 0 draw no word; count > universe / 2
    # draws the rest
    for stream in range(12):
        rand, twin = RandomSource(37, stream), RandomSource(37, stream)
        chosen, rest = rand.sample_partition(universe, count)
        positions = _reference_sample(twin, universe, count)
        assert chosen == positions
        assert rest == tuple(p for p in range(universe) if p not in positions)
        _assert_in_step(rand, twin)


class _ScriptedDraws(RandomSource):
    """A RandomSource whose twister returns ``script``'s values in turn,
    each checked to be asked for at the width its bound gives."""

    def __init__(self, script):
        values = iter(script)

        def getrandbits(width):
            value, bound = next(values)
            assert width == (bound - 1).bit_length()
            return value

        self._rng = SimpleNamespace(getrandbits=getrandbits)


@pytest.mark.parametrize("universe", range(8))
def test_floyd_partition_is_uniform_over_every_accepted_draw_sequence(universe):
    # every sequence of accepted draws (t below j + 1 at each step j of the
    # smaller side) is equally likely, and each count-subset comes out of
    # the same number of them, with the rest as its complement
    for count in range(universe + 1):
        side = min(count, universe - count)
        bounds = range(universe - side + 1, universe + 1)
        seen = Counter()
        for draws in product(*map(range, bounds)):
            chosen, rest = _ScriptedDraws(zip(draws, bounds)).sample_partition(
                universe, count)
            assert sorted(chosen + rest) == list(range(universe))
            seen[chosen] += 1
        assert set(seen) == set(combinations(range(universe), count))
        assert len(set(seen.values())) == 1, (universe, count, seen)


@settings(max_examples=200, deadline=None)
@given(codes=st.lists(st.integers(0, 127), min_size=1, max_size=60),
       data=st.data(), rule=st.sampled_from(list(BeliefRule)))
def test_outcome_code_reads_match_the_tuple_decode(codes, data, rule):
    # the session's bytewise reads of outcome codes (each field's bit, the
    # arrival check's text, key bits and popcount error count, the relay
    # step's key bits and lines) against a per-field tuple decode and the
    # key rule built from believed_state and derive_key_bit
    n = len(codes)
    packed = bytes(codes)
    fields = [_decode(code) for code in codes]
    values = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    created = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    for field in range(qsim.RELAY):
        assert packed.translate(qsim.FIELD_BITS[field]) == \
            bytes([f[field] for f in fields])

    program = protocol._program(_cfg(k=n, d=n), None, PhotonCountModel(), 0.0)
    values_text = int.from_bytes("".join(map(str, values)).encode(), "big")
    for field in (qsim.ALICE, qsim.BOB):
        log = protocol.EventLog()
        errors, passed, key = program.arrival(log.add, "4", "bob", field,
                                              packed, packed, values_text)
        bits = [f[field] for f in fields]
        text = "".join(map(str, bits))
        assert errors == sum(b != v for b, v in zip(bits, values))
        assert key == bytes(bits)
        assert [payload for _, _, payload in log.entries[:2]] == \
            ["measured obs=" + text, "measured key=" + text]

    swap = protocol._program(_cfg(k=n, d=0, mode=ProtocolMode.SWAP, rule=rule),
                             None, PhotonCountModel(), 0.0)
    positions = tuple(range(3, 3 + 2 * n, 2))
    log = protocol.EventLog()
    key, block = swap.relay(positions, bytes(created), packed)
    log.lines.append(block)
    rule_bits = protocol._key_rule(rule)
    want = bytes([rule_bits[c][f[qsim.RELAY]][f[qsim.ALICE]]
                  for c, f in zip(created, fields)])
    assert key == want
    assert log.entries == [
        entry
        for p, c, f, bit in zip(positions, created, fields, want)
        for entry in (
            ("5a", "alice", f"pos={p} created={BELL_ORDER[c].short()}"),
            ("5b", "alice", f"pos={p} outcome={BELL_ORDER[f[qsim.RELAY]].short()}"),
            ("5c", "alice", f"pos={p} kept={f[qsim.ALICE]} key={bit}"))]


@pytest.mark.parametrize("rule", list(BeliefRule))
def test_relay_blocks_match_the_lines_added_one_at_a_time(rule):
    # every created label x pair outcome x kept bit at three positions: the
    # relay's block is the 5a-5c lines that one add per line writes, with
    # the key bit of the rule, alone and joined with every other case
    rule_bits = protocol._key_rule(rule)
    cases = list(product((0, 7, 12345), range(4), range(4), (0, 1)))
    blocks, keys = [], []
    program = protocol._program(
        _cfg(k=1, d=0, mode=ProtocolMode.SWAP, rule=rule), None,
        PhotonCountModel(), 0.0)
    for position, created, outcome, kept in cases:
        code = qsim.outcome_code([kept, None, None, None, None, outcome])
        key, block = program.relay((position,), bytes([created]),
                                   bytes([code]))
        bit = rule_bits[created][outcome][kept]
        log = protocol.EventLog()
        at = f"pos={position} "
        log.add("5a", "alice", f"{at}created={BELL_ORDER[created].short()}")
        log.add("5b", "alice", f"{at}outcome={BELL_ORDER[outcome].short()}")
        log.add("5c", "alice", f"{at}kept={kept} key={bit}")
        assert key == bytes([bit])
        assert block == log.text()
        blocks.append(block)
        keys.append(bit)
    program = protocol._program(
        _cfg(k=len(cases), d=0, mode=ProtocolMode.SWAP, rule=rule), None,
        PhotonCountModel(), 0.0)
    key, block = program.relay(
        tuple([position for position, _, _, _ in cases]),
        bytes([created for _, created, _, _ in cases]),
        bytes([qsim.outcome_code([kept, None, None, None, None, outcome])
               for _, _, outcome, kept in cases]))
    assert key == bytes(keys)
    assert block == "\n".join(blocks)


def test_relay_memo_holds_the_positions_sessions_reached():
    # the blocks are built per key position a session reaches, no other
    protocol._RELAY_BLOCKS.clear()
    cfg = _cfg(k=3, d=4, mode=ProtocolMode.SWAP, rule=BeliefRule.COMPOSED)
    out = run_session(cfg, None, RandomSource(39, 0))
    assert out.status is SessionStatus.AUTH_ACCEPT
    assert sorted(protocol._RELAY_BLOCKS) == list(out.plan.key_positions)


@pytest.mark.parametrize("k", [1, 2, 17])
def test_plans_without_detection_slots_draw_nothing(k):
    rand, twin = RandomSource(38, k), RandomSource(38, k)
    plan = plan_session(_cfg(k=k, d=0), rand)
    assert plan.positions == () and plan.decoys == {}
    assert plan.key_positions == tuple(range(k)) and plan.twin_sources == b""
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


def _loss_substream(seed, stream, size):
    """The first ``size`` bytes of a stream's SHAKE-128 loss substream."""
    return hashlib.shake_128(b"qauthsim/loss/%d/%d" % (seed, stream)).digest(size)


def _reference_loss_marks(seed, stream, count, p):
    """Loss marks one at a time from one long substream read, each decided
    in exact integer arithmetic: mark i's top byte is byte i, and a mark
    whose top byte is the edge byte takes the next unread 6-byte reserve
    after the ``count`` top bytes, whose top 45 bits are its remainder r.
    A mark is lost exactly when N = (top << 45) + r is below p * 2**53; off
    the edge byte every r gives the same verdict, so r = 0 stands in."""
    data = _loss_substream(seed, stream, 7 * count)
    limit = Fraction(p) * 2 ** 53
    edge = _edge_byte(p)
    marks, reserve = [], count
    for top in data[:count]:
        rest = 0
        if top == edge:
            rest = int.from_bytes(data[reserve:reserve + 6], "little") >> 3
            reserve += 6
        marks.append((top << 45) + rest < limit)
    return marks


@pytest.mark.parametrize("p", (0.0,) + _PROBABILITIES)
@pytest.mark.parametrize("slots", [0, 1, 58])
def test_draw_loss_matches_the_uniform_loop(monkeypatch, p, slots):
    if p == 0.0:
        def refuse(*args):
            raise AssertionError("a lossless stream drew loss marks")

        monkeypatch.setattr(RandomSource, "loss_marks", refuse)
    for stream in range(25):
        rand = RandomSource(40, stream)
        lost = draw_loss(slots, p, rand)
        # no mark at p = 0; else one per photon, the initiator's path first
        marks = _reference_loss_marks(40, stream, 2 * slots, p) if p else []
        assert lost == [q for q in range(slots)
                        if marks and (marks[q] or marks[slots + q])]
        # the marks never seed the twister
        assert rand._rng is None


@pytest.mark.parametrize("p", _PROBABILITIES)
@pytest.mark.parametrize("count", [0, 1, 7, 20000])
def test_loss_marks_read_the_substream_bytes(p, count):
    rand = RandomSource(41, count)
    marks = _reference_loss_marks(41, count, count, p)
    assert rand.loss_marks(count, p) == bytes(marks)
    assert rand._rng is None
    if count == 20000:
        # the long stream reaches the edge byte many times, so it reads its
        # substream twice, on both sides of p where p is not at an extreme
        tops = _loss_substream(41, count, count)
        edge = [mark for mark, top in zip(marks, tops)
                if top == _edge_byte(p)]
        assert (p == 0.5) == (not edge)
        if p in (0.02, 0.999):
            assert set(edge) == {False, True}


_MASK45 = (1 << 45) - 1


class _FakeXOF:
    """Stands in for ``shake_128``: every address gets the output ``data``
    and then zero bytes, and each read's length is recorded."""

    def __init__(self, data):
        self.data = data
        self.reads = []

    def __call__(self, address):
        return self

    def digest(self, size):
        self.reads.append(size)
        return (self.data + bytes(size))[:size]


def _remainder(r):
    """A 6-byte reserve whose top 45 bits are r."""
    return (r << 3).to_bytes(6, "little")


def _fake_marks(monkeypatch, p, tops, remainders):
    """The marks ``loss_marks`` draws from a substream of the given top
    bytes, then one reserve per remainder, and the fake's reads."""
    xof = _FakeXOF(bytes(tops) + b"".join(map(_remainder, remainders)))
    monkeypatch.setattr(qsim, "shake_128", xof)
    return RandomSource(3, 4).loss_marks(len(tops), p), xof.reads


def _limit(p):
    return math.ceil(Fraction(p) * 2 ** 53)


@pytest.mark.parametrize("p", _PROBABILITIES)
def test_loss_marks_decide_each_top_byte_exactly(monkeypatch, p):
    # every top byte with the extreme remainders, and the edge byte with the
    # remainders on either side of p: each verdict is N < ceil(p * 2**53)
    limit = _limit(p)
    cases = [(top, r) for top in range(256) for r in (0, _MASK45)]
    edge = _edge_byte(p)
    if edge is not None:
        rest = limit - (edge << 45)
        cases += [(edge, rest - 1), (edge, rest)]
    for top, r in cases:
        marks, reads = _fake_marks(monkeypatch, p, [top], [r])
        assert marks == bytes([(top << 45) + r < limit]), (top, r)
        assert reads == [1 + 6]


@pytest.mark.parametrize("p", _PROBABILITIES[1:])
def test_loss_marks_read_again_for_every_edge_mark(monkeypatch, p):
    # edge marks that outnumber the first read's one reserve take the
    # reserves in mark order from a second, longer read
    edge = _edge_byte(p)
    rest = _limit(p) - (edge << 45)
    other = (edge + 128) % 256
    tops = [edge, other, edge, edge, other, edge, edge]
    remainders = [rest - 1, rest, 0, _MASK45, rest]
    marks, reads = _fake_marks(monkeypatch, p, tops, remainders)
    own = iter(remainders)
    assert marks == bytes([(top << 45) + (next(own) if top == edge else 0)
                           < _limit(p) for top in tops])
    assert reads == [len(tops) + 6, len(tops) + 6 * len(remainders)]
    # one edge mark needs no second read
    marks, reads = _fake_marks(monkeypatch, p, [other, edge, other], [rest - 1])
    assert marks[1] == 1 and reads == [3 + 6]


@pytest.mark.parametrize("p", _PROBABILITIES)
def test_loss_mark_law_is_exact(monkeypatch, p):
    # The lost share of the (top byte, remainder) space, counted from the
    # verdicts loss_marks gives, is ceil(p * 2**53) / 2**53: a top byte
    # whose extreme remainders agree decides every remainder alike (the
    # verdict is N < limit, monotone in r), and the one byte where they
    # differ is lost exactly below the remainder where its verdict flips.
    def lost(top, r):
        return _fake_marks(monkeypatch, p, [top], [r])[0] == b"\x01"

    share, flips = 0, []
    for top in range(256):
        low, high = lost(top, 0), lost(top, _MASK45)
        if low == high:
            share += low << 45
            continue
        flips.append(top)
        assert low and not high
        first, last = 0, _MASK45  # lost at first, kept at last
        while last - first > 1:
            middle = (first + last) // 2
            first, last = (middle, last) if lost(top, middle) else (first, middle)
        share += last
    assert flips == ([] if _edge_byte(p) is None else [_edge_byte(p)])
    assert share == _limit(p)


def _tap_row(total, reads):
    """A draw_taps row: 0 for an unread slot, 1 + the basis bit for a read
    one, from {position: basis bit}."""
    return bytes([1 + reads[p] if p in reads else 0 for p in range(total)])


def _reference_pns_taps(eve, plan, photon, rand):
    """draw_taps for a PNS attack, one photon count at a time."""
    attack = eve.attack
    total = plan.total_slots
    targets = (plan.key_positions if attack.location_knowledge
               is LocationKnowledge.REALTIME else range(total))
    bit = int(plan.config.key_basis is MeasBasis.DIAGONAL)
    rows = {}
    for path in attack.path.channel_paths():
        reads = {}
        for position in targets:
            if photon.sample(rand) >= 2:
                eve.split_positions.add((path, position))
            else:
                reads[position] = bit
        rows[path] = _tap_row(total, reads)
    return rows.get(Path.TO_ALICE), rows.get(Path.TO_BOB)


def _reference_read_taps(eve, plan, rand):
    """draw_taps for an intercept-resend or subset-guess attack, one basis
    bit at a time."""
    attack = eve.attack
    total = plan.total_slots
    realtime = attack.location_knowledge is LocationKnowledge.REALTIME
    if attack.kind is AttackKind.SUBSET_GUESS:
        targets = rand.sample_positions(total, attack.guess_count)
    elif realtime:
        targets = plan.key_positions
    else:
        targets = range(total)
    blind = attack.kind is AttackKind.INTERCEPT_RESEND and not realtime
    basis = attack.fixed_basis if blind else plan.config.key_basis
    rows = {}
    for path in attack.path.channel_paths():
        reads = {}
        for position in targets:
            if blind and attack.basis_choice is BasisChoice.RANDOM_PER_SLOT:
                reads[position] = rand.bit()
            else:
                reads[position] = int(basis is MeasBasis.DIAGONAL)
        rows[path] = _tap_row(total, reads)
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


_READ_ATTACKS = [
    *[dict(kind=AttackKind.INTERCEPT_RESEND, basis_choice=choice,
           fixed_basis=basis, location_knowledge=knowledge)
      for choice in BasisChoice for basis in MeasBasis
      for knowledge in LocationKnowledge],
    *[dict(kind=AttackKind.SUBSET_GUESS, guess_count=count)
      for count in (1, 9, 58)]]


@pytest.mark.parametrize("attack", _READ_ATTACKS, ids=repr)
@pytest.mark.parametrize("tap_path", list(TapPath))
@pytest.mark.parametrize("key_basis", list(MeasBasis))
def test_tap_rows_match_the_per_slot_loop(attack, tap_path, key_basis):
    attack = AttackConfig(path=tap_path, **attack)
    photon = PhotonCountModel(0.5)  # read taps draw no photon count
    for stream in range(6):
        plan = plan_session(_cfg(k=17, d=41, key_basis=key_basis),
                            RandomSource(44, stream))
        rand, twin = RandomSource(45, stream), RandomSource(45, stream)
        eve, twin_eve = EveState(attack), EveState(attack)
        rows = draw_taps(eve, plan, photon, rand)
        assert rows == _reference_read_taps(twin_eve, plan, twin)
        assert all(row is None or type(row) is bytes for row in rows)
        assert not eve.split_positions
        _assert_in_step(rand, twin)


@pytest.mark.parametrize("count", [0, 1, 2, 17, 41, 100])
def test_packed_bit_draws_match_the_scalar_loops(count):
    # swap mode's created labels and a plan's twin sources, and the planted
    # bits of a product-pair relay
    rand, twin = RandomSource(43, count), RandomSource(43, count)
    assert rand.quarters(count) == bytes([_randbelow(twin, 4) for _ in range(count)])
    assert rand.bits(count) == bytes([_randbelow(twin, 2) for _ in range(count)])
    _assert_in_step(rand, twin)


@settings(max_examples=150, deadline=None)
@given(**_sizes)
def test_tamper_spec_encode_is_canonical_json(k, d, seed):
    plan = plan_session(_cfg(k=k, d=d), RandomSource(seed, 2))
    decoys = plan.decoys.values()
    spec = TamperSpec(plan.positions, tuple([basis for _, basis in decoys]),
                      tuple([value for value, _ in decoys]))
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
    assert tamper_check(0, 0, 0.0) is True
    assert tamper_check(0, 4, 0.0) is True
    assert tamper_check(1, 4, 0.0) is False
    # rate equal to the threshold still passes
    assert tamper_check(1, 4, 0.25) is True
    for errors, slots in ((-1, 4), (5, 4), (1, 0)):
        with pytest.raises(ValueError):
            tamper_check(errors, slots, 0.0)


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
            steps = _relay_steps(out)
            assert [position for position, _, _ in steps] == \
                list(out.plan.key_positions)
            assert tuple([bit for _, _, bit in steps]) == out.alice_key_bits

    def test_swap_measured_mismatch_is_psi_kind_created(self):
        # under the MEASURED rule an honest session garbles exactly the
        # slots whose created pair was psi-kind
        cfg = _cfg(mode=ProtocolMode.SWAP, rule=BeliefRule.MEASURED)
        seen_mismatch = False
        for t in range(80):
            out = run_session(cfg, None, RandomSource(12, t))
            bob_at = dict(zip(out.plan.key_positions, out.bob_key_bits))
            for position, created, key_bit in _relay_steps(out):
                agree = key_bit == bob_at[position]
                assert agree == (created.kind is BellKind.PHI)
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

    def test_empty_log_has_no_entries(self):
        log = protocol.EventLog()
        assert log.text() == "" and log.entries == []

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_lines_split_into_their_entries(self, name):
        # trial 0 of every golden scenario: the text is lines of three
        # tab-separated fields, and the entries re-join to it
        spec = parse_scenario(GOLDEN[name])
        log = run_session(spec.session, spec.attack,
                          RandomSource(spec.seed, 0), photon=spec.photon,
                          p_loss=spec.p_loss).events
        text = log.text()
        assert all(line.count("\t") == 2 for line in text.split("\n"))
        entries = log.entries
        assert "\n".join(map("\t".join, entries)) == text
        assert not any("\t" in payload or "\n" in payload
                       for _, _, payload in entries)


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
    assert out.plan is None
    assert out.token is None
    assert out.alice_key_bits is None
    assert out.alice_tamper_error_rate is None
    assert out.bob_tamper_error_rate is None


@pytest.mark.parametrize("p_loss", [0.02, 0.1])
@pytest.mark.parametrize("attack", ["none", "intercept_resend", "pns",
                                    "server_ghz"])
@pytest.mark.parametrize("mode,rule", [(ProtocolMode.BASE, None),
                                       (ProtocolMode.SWAP, BeliefRule.COMPOSED)])
def test_loss_marks_come_before_the_plan(monkeypatch, mode, rule, attack,
                                         p_loss):
    # A stream whose photons all arrive is the p_loss = 0 session of the
    # same (seed, trial), field for field and twister state for twister
    # state; a lost one draws nothing after its loss marks, so it needs no
    # layout and never seeds its twister.
    cfg = _cfg(k=3, d=4, mode=mode, rule=rule)
    atk = AttackConfig(AttackKind(attack))
    if atk.kind in (AttackKind.INTERCEPT_RESEND, AttackKind.PNS):
        atk = replace(atk, path=TapPath.BOTH)
    photon = PhotonCountModel(0.5)
    slots = cfg.total_slots
    lost = {}
    for t in range(40):
        rand = RandomSource(43, t)
        out = run_session(cfg, atk, rand, photon=photon, p_loss=p_loss)
        marked = draw_loss(slots, p_loss, RandomSource(43, t))
        if marked:
            assert out.status is SessionStatus.INCOMPLETE_STREAM
            assert out.plan is None
            assert out.events.entries[-1] == ("3", "server",
                                              "lost slots %s" % marked)
            assert rand._rng is None
            lost[t] = _session_record(out)
        else:
            ref_rand = RandomSource(43, t)
            ref = run_session(cfg, atk, ref_rand, photon=photon)
            assert _session_record(out) == _session_record(ref)
            assert out.events.digest() == ref.events.digest()
            assert out.plan.config is cfg
            assert rand._rng.getstate() == ref_rand._rng.getstate()
    assert 0 < len(lost) < 40

    def refuse(*args):
        raise AssertionError("a lost stream drew a layout")

    monkeypatch.setattr(protocol, "plan_session", refuse)
    for t, record in lost.items():
        out = run_session(cfg, atk, RandomSource(43, t), photon=photon,
                          p_loss=p_loss)
        assert _session_record(out) == record


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
    program = protocol._program(cfg, atk, photon, 0.0)
    assert protocol._program(twin_cfg, twin_atk, twin_photon, 0.0) is program
    # each config hashes the fields its __eq__ compares: the count the token
    # reveals, not the reveal_count it was given
    for config in (cfg, atk, photon):
        assert hash(config) == hash(tuple([
            getattr(config, f.name) for f in fields(config) if f.compare]))
    assert protocol._program(replace(cfg, reveal_count=3), atk, photon,
                             0.0) is program
    # replacing a compared field builds a new config with its own hash
    for key in ((replace(cfg, k=4), atk, photon),
                (replace(cfg, reveal_count=2), atk, photon),
                (replace(cfg, error_threshold=0.25), atk, photon),
                (cfg, replace(atk, path=TapPath.TO_ALICE), photon),
                (cfg, atk, replace(photon, p1=0.75))):
        assert protocol._program(*key, 0.0) is not program
    lost = 0
    for t in range(12):
        kwargs = {"p_loss": 0.05 * (t % 3)}
        out = run_session(cfg, atk, RandomSource(35, t), photon=photon, **kwargs)
        twin = run_session(twin_cfg, twin_atk, RandomSource(35, t),
                           photon=twin_photon, **kwargs)
        assert _session_record(twin) == _session_record(out)
        assert twin.events.digest() == out.events.digest()
        assert twin.eve.attack is twin_atk
        if twin.status is SessionStatus.INCOMPLETE_STREAM:
            # a lost stream ends before its layout is drawn
            lost += 1
            assert twin.plan is None
        else:
            assert twin.plan.config is twin_cfg
    assert lost


def test_config_enums_hash_by_identity():
    # Path's members are singletons, so the C-level identity hash agrees
    # with equality; a PNS tap hashes a (path, position) key for every
    # split slot.  The other config enums keep Enum's hash by name.
    assert Path.__hash__ is object.__hash__
    assert len({hash(member) for member in Path}) == len(Path)


def test_each_scenario_compiles_once():
    # a run of trials builds its session program on the first trial and
    # finds it on every later one, lost streams included; equal configs
    # share it; and every memo on the session path is bounded
    spec = parse_scenario({"seed": 14, "trials": 30, "photon": {"p_loss": 0.05},
                           "session": {"k": 3, "d": 4}})
    protocol._program.cache_clear()
    run_scenario(spec)
    info = protocol._program.cache_info()
    assert (info.misses, info.hits) == (1, spec.trials - 1)
    program = protocol._program(spec.session, spec.attack, spec.photon,
                                spec.p_loss)
    twin = replace(spec.session)
    assert twin == spec.session and twin is not spec.session
    assert protocol._program(twin, spec.attack, spec.photon,
                             spec.p_loss) is program
    assert protocol._program.cache_info().misses == 1
    for memo in (protocol._program, harness._predictions, qsim._below_table):
        assert memo.cache_parameters()["maxsize"] is not None, memo


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
    assert _relay_steps(aborted) == []
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
