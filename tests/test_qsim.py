"""Register simulator tests.

The slow reference implementations here (full projector matrices applied
entry by entry in exact rationals) are written independently of the
package internals and act as the oracle for the grouped-index integer
arithmetic in qauthsim.qsim.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_right
from fractions import Fraction
from functools import partial
from itertools import accumulate
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from qauthsim import qsim
from qauthsim.channel import PhotonSlot
from qauthsim.harness import _summarize
from qauthsim.qsim import (
    BELL_ORDER,
    BellKind,
    BellLabel,
    BellPhase,
    MeasBasis,
    RandomSource,
    SourceKind,
    StateRegister,
    basis_distribution,
    bell_compose,
    measure_bell,
    measure_in_basis,
    prepare_bell,
    prepare_ghz,
    prepare_polarized,
    swap_enumerate,
    tensor,
)

# pair states over (b_first, b_second) = 00, 01, 10, 11, unnormalized
BELL_VECS = {
    BellLabel.PHI_PLUS: (1, 0, 0, 1),
    BellLabel.PHI_MINUS: (1, 0, 0, -1),
    BellLabel.PSI_PLUS: (0, 1, 1, 0),
    BellLabel.PSI_MINUS: (0, 1, -1, 0),
}
# one-qubit eigenvectors per (basis, outcome), unnormalized
QUBIT_VECS = {
    MeasBasis.RECTILINEAR: ((1, 0), (0, 1)),
    MeasBasis.DIAGONAL: ((1, 1), (1, -1)),
}


# --- slow reference machinery -------------------------------------------------

def _kron(a, b):
    return [x * y for x in a for y in b]


def _bit(i, n, q):
    return (i >> (n - 1 - q)) & 1


def _projector_apply(state, n, qubits, vec):
    """Apply |e><e| / <e|e> on ``qubits`` (identity elsewhere) by direct
    O(4^n) matrix action, in exact rationals."""
    norm = sum(x * x for x in vec)
    rest = ~sum(1 << (n - 1 - q) for q in qubits)
    dim = 1 << n

    def local(i):
        return sum(_bit(i, n, q) << (len(qubits) - 1 - k) for k, q in enumerate(qubits))

    out = [Fraction(0)] * dim
    for i in range(dim):
        e_i = vec[local(i)]
        if e_i == 0:
            continue
        for j in range(dim):
            if (j & rest) == (i & rest):
                out[i] += Fraction(e_i * vec[local(j)], norm) * state[j]
    return out


def _reference_measurement(state, n, qubits, vecs):
    """(probability, projected state) per outcome, textbook style."""
    norm = sum(Fraction(a) ** 2 for a in state)
    table = []
    for vec in vecs:
        post = _projector_apply(state, n, qubits, vec)
        table.append((sum(a * a for a in post) / norm, post))
    return table


def _proportional(got, want):
    """``got`` is a nonzero multiple of ``want``, exactly."""
    k = next(i for i, w in enumerate(want) if w)
    ratio = Fraction(got[k]) / want[k]
    return ratio != 0 and all(g == ratio * w for g, w in zip(got, want))


def _source_vec(source, product_bit):
    if source is SourceKind.ENTANGLED_PHI_PLUS:
        return list(BELL_VECS[BellLabel.PHI_PLUS])
    if source is SourceKind.PRODUCT:
        vec = [0] * 4
        vec[product_bit * 3] = 1
        return vec
    vec = [0] * 8
    vec[0] = 1
    vec[7] = 1
    return vec


ALL_SOURCES = [
    (SourceKind.ENTANGLED_PHI_PLUS, None),
    (SourceKind.PRODUCT, 0),
    (SourceKind.PRODUCT, 1),
    (SourceKind.GHZ, None),
]


class _FixedDraw(RandomSource):
    """A RandomSource whose every uniform draw is ``u``: the draw rule
    (``RandomSource.categorical``) is the package's own."""

    def __init__(self, u):
        self._rng = SimpleNamespace(random=lambda: u)


# --- preparation and composition ----------------------------------------------

def test_bell_amplitudes_frozen():
    for label, expected in BELL_VECS.items():
        assert prepare_bell(label).amplitudes == list(expected)


def test_polarized_amplitudes():
    assert prepare_polarized(0, MeasBasis.RECTILINEAR).amplitudes == [1, 0]
    assert prepare_polarized(1, MeasBasis.RECTILINEAR).amplitudes == [0, 1]
    assert prepare_polarized(0, MeasBasis.DIAGONAL).amplitudes == [1, 1]
    assert prepare_polarized(1, MeasBasis.DIAGONAL).amplitudes == [1, -1]
    with pytest.raises(ValueError):
        prepare_polarized(2, MeasBasis.RECTILINEAR)


def test_ghz_amplitudes():
    assert prepare_ghz().amplitudes == [1, 0, 0, 0, 0, 0, 0, 1]


def test_tensor_orders_first_factor_qubits_first():
    reg = tensor(prepare_bell(BellLabel.PSI_PLUS), prepare_polarized(0, MeasBasis.RECTILINEAR))
    # |01>+|10> joined with |0> puts weight on |010> and |100>
    expected = [0] * 8
    expected[0b010] = 1
    expected[0b100] = 1
    assert reg.amplitudes == expected
    assert reg.num_qubits == 3


def test_register_validation():
    with pytest.raises(ValueError):
        StateRegister([1])  # zero qubits
    with pytest.raises(ValueError):
        StateRegister([1, 0, 0])  # not a power of two
    with pytest.raises(ValueError):
        StateRegister([0, 0])  # null vector
    with pytest.raises(ValueError):
        StateRegister([0.6, 0.8])  # not integers
    with pytest.raises(ValueError):
        tensor(StateRegister([1] + [0] * 127), StateRegister([1, 0, 0, 0]))


COMPOSE_EXPECTED = {
    # 16 entries, row state then measured outcome
    ("phi+", "phi+"): "phi+", ("phi+", "phi-"): "phi-",
    ("phi+", "psi+"): "psi+", ("phi+", "psi-"): "psi-",
    ("phi-", "phi+"): "phi-", ("phi-", "phi-"): "phi+",
    ("phi-", "psi+"): "psi-", ("phi-", "psi-"): "psi+",
    ("psi+", "phi+"): "psi+", ("psi+", "phi-"): "psi-",
    ("psi+", "psi+"): "phi+", ("psi+", "psi-"): "phi-",
    ("psi-", "phi+"): "psi-", ("psi-", "phi-"): "psi+",
    ("psi-", "psi+"): "phi-", ("psi-", "psi-"): "phi+",
}


def test_bell_compose_full_table():
    for (a, b), want in COMPOSE_EXPECTED.items():
        got = bell_compose(BellLabel.from_short(a), BellLabel.from_short(b))
        assert got is BellLabel.from_short(want), (a, b)


def test_bell_compose_group_laws():
    e = BellLabel.PHI_PLUS
    for a in BELL_ORDER:
        assert bell_compose(a, e) is a
        assert bell_compose(a, a) is e
        for b in BELL_ORDER:
            assert bell_compose(a, b) is bell_compose(b, a)
            for c in BELL_ORDER:
                assert bell_compose(bell_compose(a, b), c) is bell_compose(a, bell_compose(b, c))


def test_bell_label_bits_and_parse():
    assert BellLabel.PSI_MINUS.kind is BellKind.PSI
    assert BellLabel.PSI_MINUS.phase is BellPhase.MINUS
    assert BellLabel.from_bits(0, 1) is BellLabel.PHI_MINUS
    assert BellLabel.from_short("PHI+") is BellLabel.PHI_PLUS
    with pytest.raises(ValueError):
        BellLabel.from_short("sigma+")


# --- the engine against the reference, on every register a session builds ------

def _grafted(created, make_source):
    reg = make_source()
    reg.extend_front(prepare_bell(created))
    return reg


def _session_registers():
    """(name, factory, relay pair or None) for every register a session
    builds: decoys, pairs, triples, and a created pair grafted onto each
    key-slot source by the relay step (the received qubit is then 2)."""
    out = [(f"decoy{v}-{b.value}", partial(prepare_polarized, v, b), None)
           for v in (0, 1) for b in MeasBasis]
    out += [(f"pair-{label.short()}", partial(prepare_bell, label), None)
            for label in BELL_ORDER]
    out.append(("ghz", prepare_ghz, None))
    sources = [("pair", partial(prepare_bell, BellLabel.PHI_PLUS))]
    sources += [(f"product{v}-{b.value}", partial(prepare_polarized, v, b))
                for v in (0, 1) for b in MeasBasis]
    sources.append(("ghz", prepare_ghz))
    out += [(f"{created.short()}-onto-{name}", partial(_grafted, created, make), (1, 2))
            for created in BELL_ORDER for name, make in sources]
    return out


def _check_sampler(name, make, measure, reference, labels):
    """Drive ``measure`` with draws on both edges of every outcome's interval.

    The cumulative reference probabilities are exact floats here, so the
    draws at c[j-1] and just below c[j] select outcome j exactly when the
    engine's integer weights equal the reference probabilities.  Each
    collapsed vector must be a multiple of the reference projection.
    """
    low = Fraction(0)
    for label, (prob, post) in zip(labels, reference):
        high = low + prob
        assert Fraction(float(high)) == high, name
        if prob:
            for u in (float(low), math.nextafter(float(high), 0.0)):
                reg = make()
                assert measure(reg, _FixedDraw(u)) == label, (name, label, u)
                assert _proportional(reg.amplitudes, post), (name, label)
        low = high
    assert low == 1, name


SESSION_REGISTERS = _session_registers()


def _cold(make):
    """A constructor-built register with the vector ``make`` gives: its state
    starts a graph of its own, so every draw reads a table built for it."""
    return lambda: StateRegister(make().amplitudes)


# each register at the shared prepared states, with the tables as earlier
# tests left them, then "-cold" from a fresh graph
@pytest.mark.parametrize("name,make,relay,cold",
                         [(*entry, cold) for cold in (False, True)
                          for entry in SESSION_REGISTERS],
                         ids=[entry[0] + ("-cold" if cold else "")
                              for cold in (False, True) for entry in SESSION_REGISTERS])
def test_engine_matches_reference_on_session_registers(name, make, relay, cold):
    if cold:
        make = _cold(make)
    state = make().amplitudes
    n = make().num_qubits
    for qubit in range(n):
        for basis in MeasBasis:
            reference = _reference_measurement(state, n, (qubit,), QUBIT_VECS[basis])
            assert basis_distribution(make(), qubit, basis) == \
                tuple(prob for prob, _ in reference), (name, qubit, basis)
            _check_sampler((name, qubit, basis), make,
                           lambda reg, rand: measure_in_basis(reg, qubit, basis, rand),
                           reference, (0, 1))
    if relay is not None:
        reference = _reference_measurement(state, n, relay,
                                           [BELL_VECS[label] for label in BELL_ORDER])
        _check_sampler((name, relay), make,
                       lambda reg, rand: measure_bell(reg, *relay, rand),
                       reference, BELL_ORDER)


def test_amplitudes_are_a_copy_of_the_shared_state():
    # two registers collapsed by the same draw share the child state; writing
    # into one's amplitudes changes neither it, the other, nor the table the
    # next register of that state reads
    decoy = partial(prepare_polarized, 0, MeasBasis.DIAGONAL)
    grafted = partial(_grafted, BellLabel.PSI_MINUS,
                      partial(prepare_bell, BellLabel.PHI_PLUS))
    cases = [
        (decoy, lambda reg, rand: measure_in_basis(reg, 0, MeasBasis.RECTILINEAR, rand),
         (0,), QUBIT_VECS[MeasBasis.RECTILINEAR], (0, 1)),
        (grafted, lambda reg, rand: measure_bell(reg, 1, 2, rand),
         (1, 2), [BELL_VECS[label] for label in BELL_ORDER], BELL_ORDER),
    ]
    for make, measure, qubits, vecs, labels in cases:
        state, n = make().amplitudes, make().num_qubits
        for u in (0.0, 0.99):
            reg, other = make(), make()
            measure(reg, _FixedDraw(u))
            measure(other, _FixedDraw(u))
            assert reg.state is other.state
            collapsed = reg.amplitudes
            reg.amplitudes[:] = [7] * len(collapsed)
            assert reg.amplitudes == collapsed == other.amplitudes
        reference = _reference_measurement(state, n, qubits, vecs)
        _check_sampler(("aliasing", qubits), make, measure, reference, labels)


def test_pair_tables_keyed_by_both_qubits():
    # one register state measured on every ordered pair of its qubits, so a
    # table reused across pairs would hand one pair another's weights
    make = partial(_grafted, BellLabel.PHI_MINUS, prepare_ghz)
    state, n = make().amplitudes, make().num_qubits
    vecs = [BELL_VECS[label] for label in BELL_ORDER]
    for first in range(n):
        for second in range(n):
            if first != second:
                reference = _reference_measurement(state, n, (first, second), vecs)
                _check_sampler(("pair", first, second), make,
                               lambda reg, rand: measure_bell(reg, first, second, rand),
                               reference, BELL_ORDER)


def test_prepared_registers_are_independent():
    makers = [partial(prepare_bell, label) for label in BELL_ORDER]
    makers += [partial(prepare_polarized, v, b) for v in (0, 1) for b in MeasBasis]
    makers.append(prepare_ghz)
    for make in makers:
        first, second = make(), make()
        expected = first.amplitudes
        first.amplitudes[0] += 5
        assert first.amplitudes == expected == second.amplitudes
        first.extend_front(prepare_bell(BellLabel.PSI_PLUS))
        measure_in_basis(first, 0, MeasBasis.DIAGONAL, RandomSource(1, 0))
        for again in (second, make()):
            assert again.amplitudes == expected
            assert again.num_qubits == len(expected).bit_length() - 1
        assert second.amplitudes is not second.amplitudes


# --- the state graph the sessions walk ---------------------------------------

# every distinct state (up to a scalar) reachable from the prepared constants
# under the session's operations; see test_state_graph_is_closed_and_exact
STATE_GRAPH_BOUND = 4000


def _ray(amps):
    """The vector divided by the gcd of its entries, first nonzero positive."""
    g = math.gcd(*amps)
    if next(a for a in amps if a) < 0:
        g = -g
    return tuple(a // g for a in amps)


def _at(state):
    """A register at ``state``, without moving any other register."""
    reg = prepare_ghz()
    reg.state = state
    return reg


def _assert_thresholds(cumulative, total, thresholds):
    """Each threshold is t_j = ceil(C_j / total) / 2**53 for the running sum
    S_j and C_j = S_j * 2**53, and at u = t_j and just below it the package's
    draw rule picks the outcome the integer rule picks: the first j with
    floor(u * 2**53) * total < C_j."""
    scaled = [s << 53 for s in cumulative]
    assert len(thresholds) == len(scaled)
    for c, t in zip(scaled, thresholds):
        assert Fraction(t) == Fraction(math.ceil(Fraction(c, total)), 2 ** 53)
        for u in (t, math.nextafter(t, 0.0)):
            if u < 1.0:  # t = 1.0 closes the last outcome; no draw reaches it
                assert _FixedDraw(u).categorical(thresholds) == \
                    bisect_right(scaled, int(u * 2 ** 53) * total), (t, u)


def _table_weights(table):
    cumulative, total, _children, thresholds = table
    assert cumulative[-1] == total
    _assert_thresholds(cumulative, total, thresholds)
    return [Fraction(hi - lo, total) for lo, hi in zip((0, *cumulative), cumulative)]


def test_state_graph_is_closed_and_exact():
    # Walk the edges out of the nine prepared constant states: measuring any
    # qubit in either basis, grafting each pair-state front onto a
    # not-yet-grafted state of at most three qubits (the relay's 5a), and
    # the relay's pair measurement of the created half against the received
    # qubit on a grafted state.  Stabilizer states project onto stabilizer
    # states, so up to a scalar the walk closes.  Every table must hold the
    # exact weights of the reference helpers, and every child the projection.
    roots = [prepare_bell(label).state for label in BELL_ORDER]
    roots.append(prepare_ghz().state)
    roots += [prepare_polarized(v, b).state for v in (0, 1) for b in MeasBasis]
    todo = [(state, False) for state in roots]
    seen = set()
    while todo:
        state, grafted = todo.pop()
        key = (_ray(state.amps), grafted)
        if key in seen:
            continue
        seen.add(key)
        assert len(seen) <= STATE_GRAPH_BOUND
        n = state.n
        edges = []
        for qubit in range(n):
            for basis in MeasBasis:
                measure_in_basis(_at(state), qubit, basis, _FixedDraw(0.0))
                table = state.qubit_tables[2 * qubit + (basis is MeasBasis.DIAGONAL)]
                assert _table_weights(table) == \
                    list(basis_distribution(_at(state), qubit, basis)), (state.amps, qubit)
                edges.append((table, qsim._project_qubit(state.amps, n, qubit, basis)))
        if grafted:
            measure_bell(_at(state), 1, 2, _FixedDraw(0.0))
            table = state.pair_tables[(1, 2)]
            projections = qsim._project_pair(state.amps, n, 1, 2)
            weights = [qsim._weight(p) for p in projections]
            assert _table_weights(table) == [Fraction(w, sum(weights)) for w in weights]
            edges.append((table, projections))
        for table, projections in edges:
            for child, projection in zip(table[2], projections):
                assert (child is None) == (not any(projection))
                if child is not None:
                    assert child.amps == tuple(projection) and child.n == n
                    todo.append((child, grafted))
        if not grafted and n <= 3:
            for label in BELL_ORDER:
                front = prepare_bell(label)
                reg = _at(state)
                reg.extend_front(front)
                assert state.grafts[front.state] is reg.state
                assert reg.amplitudes == tensor(front, _at(state)).amplitudes
                todo.append((reg.state, True))
    assert len(seen) <= STATE_GRAPH_BOUND
    print(f"{len(seen)} states")


def test_grafts_of_built_fronts_are_not_kept():
    # only constant fronts are memoized: a constructor-built front would
    # otherwise stay alive in the prepared state's graph
    reg = prepare_bell(BellLabel.PHI_PLUS)
    base = reg.state
    reg.extend_front(StateRegister([1, 0, 0, 1]))
    assert reg.amplitudes == tensor(prepare_bell(BellLabel.PHI_PLUS),
                                    prepare_bell(BellLabel.PHI_PLUS)).amplitudes
    assert all(front in qsim._CONSTANT_STATES for front in base.grafts)


# --- single-qubit measurement ---------------------------------------------------

def test_rectilinear_measurement_is_deterministic_on_eigenstates():
    rand = RandomSource(11, 0)
    for value in (0, 1):
        reg = prepare_polarized(value, MeasBasis.RECTILINEAR)
        assert measure_in_basis(reg, 0, MeasBasis.RECTILINEAR, rand) == value
    for value in (0, 1):
        reg = prepare_polarized(value, MeasBasis.DIAGONAL)
        assert measure_in_basis(reg, 0, MeasBasis.DIAGONAL, rand) == value


def test_wrong_basis_measurement_is_uniform():
    rand = RandomSource(12, 0)
    hits = 0
    n = 20000
    for _ in range(n):
        reg = prepare_polarized(0, MeasBasis.DIAGONAL)
        hits += measure_in_basis(reg, 0, MeasBasis.RECTILINEAR, rand)
    _p0, p1 = basis_distribution(prepare_polarized(0, MeasBasis.DIAGONAL), 0,
                                 MeasBasis.RECTILINEAR)
    assert _summarize("ones", hits, n, float(p1)).verdict == "pass"


def test_entangled_pair_correlations():
    rand = RandomSource(13, 0)
    for _ in range(200):
        reg = prepare_bell(BellLabel.PHI_PLUS)
        a = measure_in_basis(reg, 0, MeasBasis.RECTILINEAR, rand)
        b = measure_in_basis(reg, 1, MeasBasis.RECTILINEAR, rand)
        assert a == b
    for _ in range(200):
        reg = prepare_bell(BellLabel.PSI_PLUS)
        a = measure_in_basis(reg, 0, MeasBasis.RECTILINEAR, rand)
        b = measure_in_basis(reg, 1, MeasBasis.RECTILINEAR, rand)
        assert a != b
    # the phi+ pair is also correlated in the diagonal basis
    for _ in range(200):
        reg = prepare_bell(BellLabel.PHI_PLUS)
        a = measure_in_basis(reg, 0, MeasBasis.DIAGONAL, rand)
        b = measure_in_basis(reg, 1, MeasBasis.DIAGONAL, rand)
        assert a == b


def test_basis_distribution_matches_measurement_probabilities():
    reg = prepare_polarized(1, MeasBasis.DIAGONAL)
    half = Fraction(1, 2)
    assert basis_distribution(reg, 0, MeasBasis.RECTILINEAR) == (half, half)
    assert basis_distribution(reg, 0, MeasBasis.DIAGONAL) == (0, 1)
    assert reg.amplitudes == [1, -1]  # not collapsed


# --- pair-basis measurement -----------------------------------------------------

def test_measure_bell_statistics_match_enumeration():
    table = swap_enumerate(BellLabel.PSI_PLUS, SourceKind.ENTANGLED_PHI_PLUS)
    expected = {out.outcome: float(out.probability) for out in table.outcomes}
    rand = RandomSource(21, 0)
    n = 20000
    counts = dict.fromkeys(BELL_ORDER, 0)
    for _ in range(n):
        reg = tensor(prepare_bell(BellLabel.PSI_PLUS), prepare_bell(BellLabel.PHI_PLUS))
        counts[measure_bell(reg, 1, 2, rand)] += 1
    for label in BELL_ORDER:
        m = _summarize(label.short(), counts[label], n, expected[label])
        assert m.verdict == "pass", m


def test_measure_bell_collapse_matches_reference_projection():
    base = _kron(BELL_VECS[BellLabel.PSI_PLUS], BELL_VECS[BellLabel.PHI_PLUS])
    reference = dict(zip(BELL_ORDER, _reference_measurement(
        base, 4, (1, 2), [BELL_VECS[label] for label in BELL_ORDER])))
    seen = set()
    for seed in range(40):
        rand = RandomSource(31, seed)
        reg = tensor(prepare_bell(BellLabel.PSI_PLUS), prepare_bell(BellLabel.PHI_PLUS))
        outcome = measure_bell(reg, 1, 2, rand)
        prob, post = reference[outcome]
        assert prob > 0
        assert _proportional(reg.amplitudes, post)
        seen.add(outcome)
    assert seen == set(BELL_ORDER)


def test_measure_bell_on_three_qubit_example():
    # created psi+ joined with a bare |0>: a phi-kind outcome pins the kept qubit to 1
    seen = set()
    for seed in range(60):
        rand = RandomSource(32, seed)
        reg = tensor(prepare_bell(BellLabel.PSI_PLUS), prepare_polarized(0, MeasBasis.RECTILINEAR))
        outcome = measure_bell(reg, 1, 2, rand)
        kept = measure_in_basis(reg, 0, MeasBasis.RECTILINEAR, rand)
        if outcome.kind is BellKind.PHI:
            assert kept == 1
        else:
            assert kept == 0
        seen.add(outcome)
    assert seen == set(BELL_ORDER)


def test_measure_bell_validates_arguments():
    rand = RandomSource(33, 0)
    reg = prepare_bell(BellLabel.PHI_PLUS)
    with pytest.raises(ValueError):
        measure_bell(reg, 0, 0, rand)
    with pytest.raises(ValueError):
        measure_bell(reg, 0, 2, rand)


# --- the enumeration oracle ------------------------------------------------------

def test_swap_enumerate_entangled_matches_composition_table():
    for created in BELL_ORDER:
        table = swap_enumerate(created, SourceKind.ENTANGLED_PHI_PLUS)
        for out in table.outcomes:
            assert out.probability == Fraction(1, 4)
            assert out.residual_pair is bell_compose(created, out.outcome), (
                created, out.outcome)


def test_swap_enumerate_product_zero_with_psi_plus_frozen():
    table = swap_enumerate(BellLabel.PSI_PLUS, SourceKind.PRODUCT, product_bit=0)
    for out in table.outcomes:
        assert out.probability == Fraction(1, 4)
        assert out.marginal(1) == {0: Fraction(1), 1: Fraction(0)}
        expected_kept = 1 if out.outcome.kind is BellKind.PHI else 0
        assert out.kept_value() == expected_kept
        assert out.residual_pair is None  # product residue is not an entangled pair


def test_swap_enumerate_product_kept_rule_all_cases():
    # kept bit = x XOR created.kind XOR outcome.kind, for every combination
    for created in BELL_ORDER:
        for x in (0, 1):
            table = swap_enumerate(created, SourceKind.PRODUCT, product_bit=x)
            for out in table.outcomes:
                want = x ^ created.kind_bit ^ out.outcome.kind_bit
                assert out.kept_value() == want, (created, out.outcome, x)
                assert out.marginal(1)[x] == 1


def test_swap_enumerate_ghz_far_equals_server():
    for created in BELL_ORDER:
        table = swap_enumerate(created, SourceKind.GHZ)
        for out in table.outcomes:
            assert out.probability == Fraction(1, 4)
            for bits, pr in out.joint.items():
                assert bits[1] == bits[2], (created, out.outcome, bits)
                assert pr == Fraction(1, 2)
            assert out.marginal(1) == {0: Fraction(1, 2), 1: Fraction(1, 2)}


def test_swap_enumerate_no_signaling_exact():
    for created in BELL_ORDER:
        for source, bit in ALL_SOURCES:
            table = swap_enumerate(created, source, product_bit=bit or 0)
            # the far qubit (and the relay's retained one), averaged over
            # the joint-measurement outcomes, keeps the marginal it had in
            # the source register (traveler, far[, server]) before the step
            source_reg = StateRegister(_source_vec(source, bit or 0))
            for qubit in range(1, source_reg.num_qubits):
                before = basis_distribution(source_reg, qubit,
                                            MeasBasis.RECTILINEAR)
                mix = {0: Fraction(0), 1: Fraction(0)}
                for out in table.outcomes:
                    for bits, pr in out.joint.items():
                        mix[bits[qubit]] += out.probability * pr
                assert mix == dict(enumerate(before)), (created, source, qubit)


def test_swap_enumerate_matches_reference_projection():
    for created in BELL_ORDER:
        for source, bit in ALL_SOURCES:
            table = swap_enumerate(created, source, product_bit=bit or 0)
            state = _kron(BELL_VECS[created], _source_vec(source, bit or 0))
            n = 4 if source is not SourceKind.GHZ else 5
            reference = _reference_measurement(
                state, n, (1, 2), [BELL_VECS[label] for label in BELL_ORDER])
            rest_axes = [0] + list(range(3, n))
            for out, (ref_prob, ref_post) in zip(table.outcomes, reference):
                assert out.probability == ref_prob
                if ref_prob == 0:
                    assert out.joint == {}
                    continue
                grouped: dict[tuple[int, ...], Fraction] = {}
                for i, amp in enumerate(ref_post):
                    if amp:
                        bits = tuple(_bit(i, n, q) for q in rest_axes)
                        grouped[bits] = grouped.get(bits, 0) + amp * amp
                weight = sum(grouped.values())
                assert {b: w / weight for b, w in grouped.items()} == out.joint


def test_swap_enumerate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        swap_enumerate(BellLabel.PHI_PLUS, SourceKind.PRODUCT, product_bit=2)


# --- the per-slot kernels against the reference ---------------------------------

_TAPS = (None, 0, 1)  # eve reads nothing, rectilinear, diagonal
BASIS_OF_BIT_REF = (MeasBasis.RECTILINEAR, MeasBasis.DIAGONAL)
_PAIR, _TRIPLE = qsim.PAIR_SOURCE, qsim.TRIPLE_SOURCE


def _reachable_kernel_keys():
    """Every (source, tap_a, tap_b, basis, created) key a session can
    build.  Detection slots carry twin photons (source 2 * basis + value)
    read in their own basis, under any tap.  An honest key slot carries the
    pair, under any tap, in either key basis (base mode) or with each
    created pair grafted on (swap mode, rectilinear key basis).  A relay
    compromise runs no tap: its planted twins (in the key basis) or triple
    are read untapped."""
    keys = {(twin, a, b, twin >> 1, None)
            for twin in range(4) for a in _TAPS for b in _TAPS}
    keys |= {(_PAIR, a, b, basis, None)
             for a in _TAPS for b in _TAPS for basis in (0, 1)}
    keys |= {(_TRIPLE, None, None, basis, None) for basis in (0, 1)}
    keys |= {(_PAIR, a, b, 0, created)
             for a in _TAPS for b in _TAPS for created in range(4)}
    keys |= {(source, None, None, 0, created)
             for source in (0, 1, _TRIPLE) for created in range(4)}
    return keys


REACHABLE_KEYS = sorted(_reachable_kernel_keys(), key=repr)


def _kernel_source_vec(source):
    if source == _PAIR:
        return list(BELL_VECS[BellLabel.PHI_PLUS])
    if source == _TRIPLE:
        return _source_vec(SourceKind.GHZ, None)
    half = QUBIT_VECS[BASIS_OF_BIT_REF[source >> 1]][source & 1]
    return _kron(half, half)


def _reference_slot(key):
    """The slot's joint outcome distribution by textbook projectors in
    exact rationals, read in causal order: eve on each path, alice, bob,
    the relay's retained qubit.  Outcomes are tuples over the kernel's
    fields (eve_a, eve_b, alice, bob, server, relay index)."""
    source, tap_a, tap_b, basis, created = key
    state = _kernel_source_vec(source)
    alice = 0
    if created is not None:
        state = _kron(BELL_VECS[BELL_ORDER[created]], state)
        alice = 2
    n = len(state).bit_length() - 1
    party = BASIS_OF_BIT_REF[basis]
    # (field, qubits, eigenvectors); a result is the eigenvector's index
    reads = []
    if tap_a is not None:
        reads.append((0, (alice,), QUBIT_VECS[BASIS_OF_BIT_REF[tap_a]]))
    if tap_b is not None:
        reads.append((1, (alice + 1,), QUBIT_VECS[BASIS_OF_BIT_REF[tap_b]]))
    if created is None:
        reads.append((2, (alice,), QUBIT_VECS[party]))
    else:
        reads.append((5, (1, alice), [BELL_VECS[label] for label in BELL_ORDER]))
        reads.append((2, (0,), QUBIT_VECS[MeasBasis.RECTILINEAR]))
    reads.append((3, (alice + 1,), QUBIT_VECS[party]))
    if source == _TRIPLE:
        reads.append((4, (alice + 2,), QUBIT_VECS[MeasBasis.RECTILINEAR]))
    norm = sum(Fraction(a) ** 2 for a in state)
    leaves = [([None] * 6, [Fraction(a) for a in state])]
    for field, qubits, vecs in reads:
        grown = []
        for fields, vec in leaves:
            for result, eigen in enumerate(vecs):
                post = _projector_apply(vec, n, qubits, eigen)
                if any(post):
                    grown.append((fields[:field] + [result] + fields[field + 1:], post))
        leaves = grown
    return {tuple(fields): sum(a * a for a in vec) / norm for fields, vec in leaves}


def _kernel_distribution(key):
    cumulative, total, outcomes, _thresholds = qsim.slot_kernels([key])[0]
    if cumulative is None:
        assert len(outcomes) == 1
        return {outcomes[0]: Fraction(1)}
    assert cumulative[-1] == total and len(cumulative) == len(outcomes)
    weights = [hi - lo for lo, hi in zip((0, *cumulative), cumulative)]
    assert all(w > 0 for w in weights)
    assert len(set(outcomes)) == len(outcomes)
    return {out: Fraction(w, total) for out, w in zip(outcomes, weights)}


@pytest.mark.parametrize("key", REACHABLE_KEYS, ids=repr)
def test_kernel_thresholds_are_exact_dyadic_bounds(key):
    cumulative, total, outcomes, thresholds = qsim.slot_kernels([key])[0]
    if cumulative is None:
        assert thresholds == (1.0,) and len(outcomes) == 1
    else:
        _assert_thresholds(cumulative, total, thresholds)


def test_outcomes_match_the_integer_rule_loop():
    # one bulk draw over every reachable kernel, twice over, against one
    # integer-rule draw per table with more than one outcome
    tables = qsim.slot_kernels(REACHABLE_KEYS) * 2
    assert RandomSource(1, 0).outcomes([]) == []
    for stream in range(40):
        bulk, scalar = RandomSource(53, stream), RandomSource(53, stream)
        want = [outcomes[bisect_right([s << 53 for s in cumulative],
                                      int(scalar.uniform() * 2 ** 53) * total)]
                if cumulative else outcomes[0]
                for cumulative, total, outcomes, _ in tables]
        assert bulk.outcomes(tables) == want
        assert (bulk.bits(16), bulk.uniform()) == (scalar.bits(16), scalar.uniform())


@pytest.mark.parametrize("key", REACHABLE_KEYS, ids=repr)
def test_kernel_table_equals_reference_projections(key):
    # cell by cell, in exact rationals: every outcome the kernel can draw
    # has the reference probability, and it draws every possible outcome
    assert _kernel_distribution(key) == _reference_slot(key)


def _marginal(dist, fields):
    out: dict[tuple, Fraction] = {}
    for outcome, pr in dist.items():
        cell = tuple(outcome[f] for f in fields)
        out[cell] = out.get(cell, Fraction(0)) + pr
    return out


_SWAP_SOURCES = {0: (SourceKind.PRODUCT, 0), 1: (SourceKind.PRODUCT, 1),
                 _PAIR: (SourceKind.ENTANGLED_PHI_PLUS, 0),
                 _TRIPLE: (SourceKind.GHZ, 0)}


@pytest.mark.parametrize("created", BELL_ORDER, ids=BellLabel.short)
@pytest.mark.parametrize("source", sorted(_SWAP_SOURCES))
def test_untapped_relay_kernels_match_swap_enumerate(source, created):
    # the relay-step kernel on an untapped key slot against the oracle:
    # each pair outcome's probability, and given it the joint of the kept
    # qubit, bob's photon and the relay's retained qubit
    kind, bit = _SWAP_SOURCES[source]
    table = swap_enumerate(created, kind, product_bit=bit)
    dist = _kernel_distribution((source, None, None, 0, BELL_ORDER.index(created)))
    fields = (2, 3, 4) if source == _TRIPLE else (2, 3)
    for index, out in enumerate(table.outcomes):
        given = {cell[1:]: pr for cell, pr in _marginal(dist, (5, *fields)).items()
                 if cell[0] == index}
        assert sum(given.values()) == out.probability
        if out.probability:
            assert {cell: pr / out.probability for cell, pr in given.items()} == out.joint


@pytest.mark.parametrize("key", [key for key in REACHABLE_KEYS
                                 if key[4] is None and key[1:3] == (None, None)],
                         ids=repr)
def test_untapped_kernels_match_basis_distribution(key):
    # each party's bit on an untapped slot has the marginal the engine's
    # basis_distribution gives for its photon of the source register
    source, _, _, basis, _ = key
    register = StateRegister(_kernel_source_vec(source))
    dist = _kernel_distribution(key)
    for field, qubit in ((2, 0), (3, 1)):
        want = basis_distribution(register, qubit, BASIS_OF_BIT_REF[basis])
        got = _marginal(dist, (field,))
        assert [got.get((b,), Fraction(0)) for b in (0, 1)] == list(want)


_KEY_SCENARIOS = [
    {"session": {"k": 3, "d": 4, "mode": mode, **extra}, "attack": attack}
    for mode, extra in (("base", {}), ("base", {"key_basis": "diagonal"}),
                        ("swap", {"belief_rule": "composed"}))
    for attack in (
        {"kind": "none"}, {"kind": "server_product"}, {"kind": "server_ghz"},
        {"kind": "intercept_resend", "path": "both"},
        {"kind": "intercept_resend", "path": "to_alice"},
        {"kind": "intercept_resend", "path": "to_bob"},
        {"kind": "intercept_resend", "basis_choice": "fixed",
         "fixed_basis": "diagonal", "location_knowledge": "realtime"},
        {"kind": "pns", "path": "both"},
        {"kind": "subset_guess", "guess_count": 3})]


def test_sessions_build_exactly_the_reachable_kernels():
    # every kernel a session builds is one the tests above check, and
    # sessions of every attack, mode and key basis build all of them
    from qauthsim.harness import parse_scenario, run_scenario

    saved = dict(qsim._KERNELS)
    qsim._KERNELS.clear()
    try:
        for doc in _KEY_SCENARIOS:
            run_scenario(parse_scenario({"seed": 5, "trials": 40,
                                         "photon": {"p1": 0.5}, **doc}))
        built = set(qsim._KERNELS)
    finally:
        qsim._KERNELS.update(saved)
    assert built == set(REACHABLE_KEYS), (built ^ set(REACHABLE_KEYS))


# --- slots, randomness, arbitrary registers ---------------------------------------

def test_photon_slot_index_follows_extend_front():
    reg = prepare_bell(BellLabel.PHI_PLUS)
    near, far = PhotonSlot(0, reg, 0), PhotonSlot(0, reg, 1)
    assert (near.qubit_index, far.qubit_index) == (0, 1)
    reg.extend_front(prepare_bell(BellLabel.PSI_MINUS))
    assert reg.num_qubits == 4
    assert (near.qubit_index, far.qubit_index) == (2, 3)
    assert far.register is reg


def test_extend_front_matches_tensor():
    reg = prepare_bell(BellLabel.PHI_MINUS)
    expected = tensor(prepare_bell(BellLabel.PSI_PLUS), prepare_bell(BellLabel.PHI_MINUS))
    reg.extend_front(prepare_bell(BellLabel.PSI_PLUS))
    assert reg.amplitudes == expected.amplitudes


def test_random_source_is_deterministic_per_stream():
    a = RandomSource(99, 7)
    b = RandomSource(99, 7)
    assert [a.uniform() for _ in range(20)] == [b.uniform() for _ in range(20)]
    assert a.bits(32) == b.bits(32)
    assert a.sample_positions(50, 10) == b.sample_positions(50, 10)
    c = RandomSource(99, 8)
    d = RandomSource(100, 7)
    probe = [RandomSource(99, 7).bits(64)]
    assert c.bits(64) not in probe
    assert d.bits(64) not in probe


def test_random_source_seeds_the_stdlib_generator():
    # the stream is random.Random seeded with the SHA-256 of the address,
    # each part of it taken modulo 2**64
    rand = RandomSource(2 ** 64 + 99, 7)
    digest = hashlib.sha256(b"qauthsim/99/7").digest()
    reference = random.Random(int.from_bytes(digest, "big"))
    assert [rand.uniform() for _ in range(5)] == \
        [reference.random() for _ in range(5)]
    assert rand.bits(40) == tuple(reference.getrandbits(1) for _ in range(40))


@pytest.mark.parametrize("count", [0, 1, 2, 31, 32, 33, 82, 200])
def test_random_source_bits_are_single_bit_draws(count):
    # bits(n) packs n draws of getrandbits(1), and leaves the stream where
    # n single draws would
    packed, single = RandomSource(8, count), RandomSource(8, count)
    assert packed.bits(count) == tuple(single.bit() for _ in range(count))
    assert packed.uniform() == single.uniform()


def test_random_source_sample_positions_shape():
    rand = RandomSource(5, 0)
    got = rand.sample_positions(10, 4)
    assert len(got) == 4 == len(set(got))
    assert got == tuple(sorted(got))
    assert all(0 <= p < 10 for p in got)
    assert rand.sample_positions(3, 0) == ()
    with pytest.raises(ValueError):
        rand.sample_positions(3, 4)


def test_randbelow_bounds():
    rand = RandomSource(6, 0)
    assert rand.randbelow(1) == 0
    draws = [rand.randbelow(6) for _ in range(2000)]
    assert set(draws) == {0, 1, 2, 3, 4, 5}
    with pytest.raises(ValueError):
        rand.randbelow(0)


@st.composite
def _registers(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    dim = 1 << n
    amps = draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
    if not any(amps):
        amps[0] = 1
    return StateRegister(amps)


@given(reg=_registers(), qubit=st.integers(0, 7),
       basis=st.sampled_from(list(MeasBasis)))
@settings(max_examples=120, deadline=None)
def test_arbitrary_register_tables_hold_exact_thresholds(reg, qubit, basis):
    # weights of arbitrary integer vectors need not sum to a power of two,
    # so ceil(C_j / total) rounds here, which no session table does
    qubit %= reg.num_qubits
    state = reg.state
    probs = basis_distribution(reg, qubit, basis)
    measure_in_basis(reg, qubit, basis, _FixedDraw(0.0))
    table = state.qubit_tables[2 * qubit + (basis is MeasBasis.DIAGONAL)]
    assert _table_weights(table) == list(probs)


@given(weights=st.lists(st.integers(0, 10 ** 9), min_size=1, max_size=9).filter(any))
@settings(max_examples=200, deadline=None)
def test_thresholds_of_any_weights_bound_the_integer_rule(weights):
    cumulative = tuple(accumulate(weights))
    _assert_thresholds(cumulative, cumulative[-1], qsim._thresholds(cumulative))


@given(reg=_registers(), seed=st.integers(0, 2**32 - 1),
       ops=st.lists(st.tuples(st.integers(0, 7), st.sampled_from(list(MeasBasis))),
                    min_size=1, max_size=6))
@settings(max_examples=120, deadline=None)
def test_measurement_keeps_norm_and_is_repeatable(reg, seed, ops):
    # unnormalized: "keeps norm" means the collapsed vector keeps weight > 0
    rand = RandomSource(seed, 0)
    for qubit, basis in ops:
        qubit %= reg.num_qubits
        probs = basis_distribution(reg, qubit, basis)
        assert sum(probs) == 1
        first = measure_in_basis(reg, qubit, basis, rand)
        assert probs[first] > 0
        assert any(reg.amplitudes)
        assert basis_distribution(reg, qubit, basis)[first] == 1
        again = measure_in_basis(reg, qubit, basis, rand)
        assert again == first  # collapsed states are eigenstates


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_bell_measurement_keeps_norm(seed):
    rand = RandomSource(seed, 1)
    reg = tensor(prepare_bell(rand.bell_label()), prepare_bell(BellLabel.PHI_PLUS))
    outcome = measure_bell(reg, 1, 2, rand)
    assert any(reg.amplitudes)
    assert measure_bell(reg, 1, 2, rand) is outcome  # repeatable
    kept = measure_in_basis(reg, 0, MeasBasis.RECTILINEAR, rand)
    assert any(reg.amplitudes)
    assert measure_in_basis(reg, 0, MeasBasis.RECTILINEAR, rand) == kept
