"""Exact simulation of the small qubit registers the protocol touches.

Every quantum object in a session is a register of one to eight qubits.
The states the protocol prepares are pairs, triples and polarized photons
in the rectilinear or diagonal basis, and each of them is an integer
vector times a power of 1/sqrt(2).  Projecting such a vector onto an
outcome of a rectilinear, diagonal or pair-basis measurement gives another
integer vector of the same kind.  So a register holds an unnormalized
integer vector and is never renormalized: an outcome's probability is its
projection's squared length over the sum of those lengths for all the
outcomes, an exact ratio of integers.

One engine serves both uses.  The sampler (:func:`measure_in_basis`,
:func:`measure_bell`) draws one uniform number per measurement, picks the
outcome by exact integer comparison and keeps the projected vector.  The
relay-step oracle (:func:`swap_enumerate`) projects onto every outcome with
the same two helpers and reports exact :class:`fractions.Fraction` values.

A register points at a shared, immutable state that carries the edges out
of it, built by the same helpers on first use: per measurement an outcome
table of cumulative weights with one child state per outcome, and per
constant front the grafted state.  A measurement is one dict lookup, the
same single uniform draw compared exactly against the same weights, and a
move to the child.  Prepared registers start at module-constant states, so
all sessions walk one small graph; a constructor-built register starts its
own, which dies with it.

Index convention: qubit 0 is the leftmost tensor factor, so basis index
``i`` assigns qubit ``q`` the bit ``(i >> (n - 1 - q)) & 1``.  Pair-basis
labels are two bits, kind and phase; composing two labels XORs the bits,
which makes the four labels a Klein four-group with PHI_PLUS as identity.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import mul
from typing import Sequence

_MASK64 = (1 << 64) - 1
_TWO53 = float(1 << 53)


class MeasBasis(Enum):
    RECTILINEAR = "rectilinear"
    DIAGONAL = "diagonal"


class BellKind(Enum):
    PHI = 0
    PSI = 1


class BellPhase(Enum):
    PLUS = 0
    MINUS = 1


class BellLabel(Enum):
    """Two-bit label of a maximally entangled pair state: (kind, phase)."""

    PHI_PLUS = (0, 0)
    PHI_MINUS = (0, 1)
    PSI_PLUS = (1, 0)
    PSI_MINUS = (1, 1)

    def __init__(self, kind_bit: int, phase_bit: int) -> None:
        self.kind_bit = kind_bit
        self.phase_bit = phase_bit
        self.kind = BellKind(kind_bit)
        self.phase = BellPhase(phase_bit)

    @classmethod
    def from_bits(cls, kind_bit: int, phase_bit: int) -> "BellLabel":
        return BELL_ORDER[((kind_bit & 1) << 1) | (phase_bit & 1)]

    def short(self) -> str:
        return ("phi", "psi")[self.kind_bit] + "+-"[self.phase_bit]

    @classmethod
    def from_short(cls, text: str) -> "BellLabel":
        try:
            return _SHORT_TO_LABEL[text.strip().lower()]
        except KeyError:
            raise ValueError(f"unknown pair-state label {text!r}") from None


# in index order kind_bit * 2 + phase_bit
BELL_ORDER: tuple[BellLabel, ...] = (
    BellLabel.PHI_PLUS,
    BellLabel.PHI_MINUS,
    BellLabel.PSI_PLUS,
    BellLabel.PSI_MINUS,
)
# Aliases: hot paths compare bases by identity without the class lookup.
_RECTILINEAR = MeasBasis.RECTILINEAR
_DIAGONAL = MeasBasis.DIAGONAL

_SHORT_TO_LABEL = {label.short(): label for label in BELL_ORDER}


def bell_compose(a: BellLabel, b: BellLabel) -> BellLabel:
    """Componentwise XOR of the two-bit labels.

    This is the group law of the pair-state algebra: composing the created
    pair's label with the joint-measurement outcome gives the label of the
    far pair, up to global phase (checked against :func:`swap_enumerate`).
    """
    return BELL_ORDER[((a.kind_bit ^ b.kind_bit) << 1) | (a.phase_bit ^ b.phase_bit)]


class RandomSource:
    """Deterministic random stream addressed by (master_seed, stream_id).

    The pair is hashed into the generator seed, so distinct stream ids give
    unrelated sequences and a given pair replays the same draws on any
    platform.  Only ``getrandbits``/``random`` are consumed underneath;
    composite draws (sampling without replacement, bounded integers) are
    implemented here so their draw pattern is pinned by this module rather
    than by stdlib internals.
    """

    __slots__ = ("master_seed", "stream_id", "_rng")

    def __init__(self, master_seed: int, stream_id: int = 0) -> None:
        self.master_seed = master_seed & _MASK64
        self.stream_id = stream_id & _MASK64
        digest = hashlib.sha256(b"qauthsim/%d/%d" % (self.master_seed, self.stream_id)).digest()
        self._rng = random.Random(int.from_bytes(digest, "big"))

    def bit(self) -> int:
        return self._rng.getrandbits(1)

    def bits(self, count: int) -> tuple[int, ...]:
        g = self._rng.getrandbits
        return tuple(g(1) for _ in range(count))

    def uniform(self) -> float:
        return self._rng.random()

    def randbelow(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound == 1:
            return 0
        width = (bound - 1).bit_length()
        g = self._rng.getrandbits
        while True:
            value = g(width)
            if value < bound:
                return value

    def sample_positions(self, universe: int, count: int) -> tuple[int, ...]:
        """``count`` distinct positions drawn from range(universe), sorted."""
        if not 0 <= count <= universe:
            raise ValueError("cannot sample %d of %d positions" % (count, universe))
        pool = list(range(universe))
        for i in range(count):
            j = i + self.randbelow(universe - i)
            pool[i], pool[j] = pool[j], pool[i]
        return tuple(sorted(pool[:count]))

    def key_bytes(self, count: int) -> bytes:
        g = self._rng.getrandbits
        return bytes(g(8) for _ in range(count))

    def bell_label(self) -> BellLabel:
        return BellLabel.from_bits(self.bit(), self.bit())

    def basis(self) -> MeasBasis:
        return _DIAGONAL if self.bit() else _RECTILINEAR


class _State:
    """One immutable register state: the integer vector ``amps`` over ``n``
    qubits, and the edges out of it, each built on first use.

    ``qubit_tables`` (keyed ``2 * qubit + diagonal``; hashing an Enum member
    is a Python-level call) and ``pair_tables`` (keyed ``(first, second)``)
    hold outcome tables: the cumulative weights shifted left by 53, the
    total, and each outcome's child state (None at weight zero).  ``grafts``
    maps a constant front state to this state with that front ahead.
    """

    __slots__ = ("amps", "n", "qubit_tables", "pair_tables", "grafts")

    def __init__(self, amps: tuple[int, ...], n: int) -> None:
        self.amps = amps
        self.n = n
        self.qubit_tables: dict[int, tuple] = {}
        self.pair_tables: dict[tuple[int, int], tuple] = {}
        self.grafts: dict[_State, _State] = {}

    def tabulate(self, tables: dict, key, projections: Sequence[Sequence[int]]) -> tuple:
        """Store and return the outcome table of ``projections``."""
        cumulative, total = [], 0
        for projection in projections:
            total += _weight(projection)
            cumulative.append(total << 53)
        children = tuple(_State(tuple(p), self.n) if any(p) else None
                         for p in projections)
        return tables.setdefault(key, (tuple(cumulative), total, children))


class StateRegister:
    """Pure state over 1..8 qubits as an unnormalized integer vector: a
    pointer to an immutable :class:`_State`, which measurement and
    :meth:`extend_front` move."""

    __slots__ = ("state",)

    def __init__(self, amplitudes: Sequence[int]) -> None:
        amps = tuple(amplitudes)
        size = len(amps)
        num = size.bit_length() - 1
        if size != (1 << num) or not 1 <= num <= 8:
            raise ValueError("register must hold 1..8 qubits (2..256 amplitudes)")
        if any(type(a) is not int for a in amps):
            raise ValueError("amplitudes must be integers")
        if not any(amps):
            raise ValueError("state vector is null")
        self.state = _State(amps, num)

    @property
    def num_qubits(self) -> int:
        return self.state.n

    @property
    def amplitudes(self) -> list[int]:
        """A copy of the state vector: writing into it changes nothing."""
        return list(self.state.amps)

    def extend_front(self, front: "StateRegister") -> None:
        """Tensor ``front``'s qubits ahead of this register's.

        In place so every :class:`~qauthsim.channel.PhotonSlot` on this
        register survives; slots are tail-anchored, so their qubit indices
        shift automatically.
        """
        state, head = self.state, front.state
        grafted = state.grafts.get(head)
        if grafted is None:
            if state.n + head.n > 8:
                raise ValueError("register would exceed 8 qubits")
            grafted = _State(tuple(fa * sa for fa in head.amps for sa in state.amps),
                             state.n + head.n)
            if head in _CONSTANT_STATES:
                state.grafts[head] = grafted
        self.state = grafted

    def __repr__(self) -> str:
        return f"StateRegister(num_qubits={self.num_qubits})"


# Pair states over (b_first, b_second) = 00, 01, 10, 11, in BELL_ORDER.
_BELL_STATES = tuple(_State(amps, 2) for amps in
                     ((1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 1, 0), (0, 1, -1, 0)))
_GHZ_STATE = _State((1, 0, 0, 0, 0, 0, 0, 1), 3)
# Single qubits carrying 0 and 1 in each basis.
_RECTILINEAR_STATES = (_State((1, 0), 1), _State((0, 1), 1))
_DIAGONAL_STATES = (_State((1, 1), 1), _State((1, -1), 1))
_CONSTANT_STATES = frozenset((*_BELL_STATES, _GHZ_STATE,
                              *_RECTILINEAR_STATES, *_DIAGONAL_STATES))


def _constant_register(state: _State) -> StateRegister:
    """Register at one of the module's constant states, built without the
    constructor's validation."""
    register = object.__new__(StateRegister)
    register.state = state
    return register


def prepare_bell(label: BellLabel) -> StateRegister:
    return _constant_register(_BELL_STATES[(label.kind_bit << 1) | label.phase_bit])


def prepare_ghz() -> StateRegister:
    return _constant_register(_GHZ_STATE)


def prepare_polarized(value: int, basis: MeasBasis) -> StateRegister:
    """Single qubit carrying ``value`` in ``basis``."""
    if value not in (0, 1):
        raise ValueError("value must be a bit")
    states = _RECTILINEAR_STATES if basis is _RECTILINEAR else _DIAGONAL_STATES
    return _constant_register(states[value])


def tensor(a: StateRegister, b: StateRegister) -> StateRegister:
    """New register with a's qubits indexed first."""
    if a.num_qubits + b.num_qubits > 8:
        raise ValueError("register would exceed 8 qubits")
    return StateRegister([x * y for x in a.state.amps for y in b.state.amps])


# ---------------------------------------------------------------------------
# Projections.  Each helper returns the projections onto every outcome of
# one measurement, each a fixed integer multiple of the textbook projection
# (1 for the rectilinear basis, 2 for the diagonal and pair bases).  The
# multiple is the same for every outcome, so outcome weights compare exactly.


def _weight(amps: Sequence[int]) -> int:
    """Squared length of an integer vector."""
    return sum(map(mul, amps, amps))


def _project_qubit(amps: Sequence[int], n: int, qubit: int,
                   basis: MeasBasis) -> tuple[list[int], list[int]]:
    """Projections of one qubit onto outcomes 0 and 1 of ``basis``.

    Diagonal: indices (i0, i1) that differ only in the qubit carry (a0, a1);
    the eigenvectors are (1, 1) and (1, -1), so the projections put
    (a0 + a1) * (1, 1) and (a0 - a1) * (1, -1) there.
    """
    mask = 1 << (n - 1 - qubit)
    if basis is _RECTILINEAR:
        return ([0 if i & mask else a for i, a in enumerate(amps)],
                [a if i & mask else 0 for i, a in enumerate(amps)])
    if basis is not _DIAGONAL:
        raise ValueError(f"unknown basis {basis!r}")
    zero = [0] * len(amps)
    one = [0] * len(amps)
    for i0 in range(len(amps)):
        if not i0 & mask:
            i1 = i0 | mask
            zero[i0] = zero[i1] = amps[i0] + amps[i1]
            one[i0] = amps[i0] - amps[i1]
            one[i1] = -one[i0]
    return zero, one


def _project_pair(amps: Sequence[int], n: int, first: int,
                  second: int) -> list[list[int]]:
    """Projections of two qubits onto the four pair states, in BELL_ORDER.

    The quad of indices sharing all other bits carries the components
    (a00, a01, a10, a11) over (b_first, b_second).  The phi states are
    (1, 0, 0, +/-1) and the psi states (0, 1, +/-1, 0), so the projections
    put a00 +/- a11 on the 00/11 entries and a01 +/- a10 on the 01/10 ones.
    """
    m1 = 1 << (n - 1 - first)
    m2 = 1 << (n - 1 - second)
    out = [[0] * len(amps) for _ in BELL_ORDER]
    phi_p, phi_m, psi_p, psi_m = out
    for i00 in range(len(amps)):
        if not i00 & (m1 | m2):
            i01, i10, i11 = i00 | m2, i00 | m1, i00 | m1 | m2
            a00, a01, a10, a11 = amps[i00], amps[i01], amps[i10], amps[i11]
            phi_p[i00] = phi_p[i11] = a00 + a11
            phi_m[i00] = a00 - a11
            phi_m[i11] = a11 - a00
            psi_p[i01] = psi_p[i10] = a01 + a10
            psi_m[i01] = a01 - a10
            psi_m[i10] = a10 - a01
    return out


# A draw u is a multiple of 2**-53, so ``bisect_right`` over the shifted
# weights finds, exactly, the first j with u * total < w[0] + ... + w[j].


def measure_in_basis(register: StateRegister, qubit: int, basis: MeasBasis,
                     rand: RandomSource) -> int:
    """Born-rule measurement of one qubit; moves the register to the outcome."""
    state = register.state
    if basis is _DIAGONAL:
        key = 2 * qubit + 1
    elif basis is _RECTILINEAR:
        key = 2 * qubit
    else:
        raise ValueError(f"unknown basis {basis!r}")
    table = state.qubit_tables.get(key)
    if table is None:
        if not 0 <= qubit < state.n:
            raise ValueError("qubit index out of range")
        table = state.tabulate(state.qubit_tables, key,
                               _project_qubit(state.amps, state.n, qubit, basis))
    cumulative, total, children = table
    idx = bisect_right(cumulative, int(rand.uniform() * _TWO53) * total)
    register.state = children[idx]
    return idx


def basis_distribution(register: StateRegister, qubit: int,
                       basis: MeasBasis) -> tuple[Fraction, Fraction]:
    """Exact Born probabilities (p0, p1) for one qubit, without collapsing."""
    n = register.num_qubits
    if not 0 <= qubit < n:
        raise ValueError("qubit index out of range")
    w0, w1 = map(_weight, _project_qubit(register.state.amps, n, qubit, basis))
    return Fraction(w0, w0 + w1), Fraction(w1, w0 + w1)


def measure_bell(register: StateRegister, first: int, second: int,
                 rand: RandomSource) -> BellLabel:
    """Projective pair-basis measurement of two qubits, outcomes in
    BELL_ORDER; moves the register to the outcome."""
    state = register.state
    key = (first, second)
    table = state.pair_tables.get(key)
    if table is None:
        n = state.n
        if first == second or not (0 <= first < n and 0 <= second < n):
            raise ValueError("pair measurement needs two distinct qubits in range")
        table = state.tabulate(state.pair_tables, key,
                               _project_pair(state.amps, n, first, second))
    cumulative, total, children = table
    idx = bisect_right(cumulative, int(rand.uniform() * _TWO53) * total)
    register.state = children[idx]
    return BELL_ORDER[idx]


# ---------------------------------------------------------------------------
# Exact enumeration oracle for the relay step.


class SourceKind(Enum):
    ENTANGLED_PHI_PLUS = "entangled_phi_plus"
    PRODUCT = "product"
    GHZ = "ghz"


@dataclass(frozen=True)
class SwapOutcome:
    """One joint-measurement outcome with its exact conditional behavior.

    ``joint`` maps computational bit patterns of the untouched qubits, in
    order (kept, far[, server]), to conditional probabilities.  Empty when
    the outcome itself has probability zero.
    """

    outcome: BellLabel
    probability: Fraction
    joint: dict[tuple[int, ...], Fraction]
    residual_pair: BellLabel | None

    def marginal(self, axis: int) -> dict[int, Fraction]:
        dist = {0: Fraction(0), 1: Fraction(0)}
        for bits, pr in self.joint.items():
            dist[bits[axis]] += pr
        return dist

    def kept_value(self) -> int | None:
        """The kept qubit's value when deterministic, else None."""
        dist = self.marginal(0)
        for b in (0, 1):
            if dist[b] == 1:
                return b
        return None


@dataclass(frozen=True)
class SwapTable:
    created: BellLabel
    source: SourceKind
    product_bit: int | None
    outcomes: tuple[SwapOutcome, ...]

    def outcome(self, label: BellLabel) -> SwapOutcome:
        for out in self.outcomes:
            if out.outcome is label:
                return out
        raise KeyError(label)


def _residual_pair(post: list[int], weight: int) -> BellLabel | None:
    """Pair state of qubits (0, 3) of a four-qubit projected vector, or None
    when they are not in one.  A pair projection multiplies the weight of a
    vector already in its range by exactly 4, and of any other by less."""
    for label, proj in zip(BELL_ORDER, _project_pair(post, 4, 0, 3)):
        if _weight(proj) == 4 * weight:
            return label
    return None


def swap_enumerate(created: BellLabel, source: SourceKind,
                   product_bit: int = 0) -> SwapTable:
    """Exhaustive table for one relay step, by exact state-vector arithmetic.

    Qubit order is (kept, sacrificed) for the created pair followed by the
    source's qubits (traveler-to-initiator, far[, server-retained]).  The
    joint measurement hits qubits 1 and 2.  No sampling: probabilities,
    conditional joint distributions over the untouched qubits, and the far
    pair's label (entangled source only) all come out exact.
    """
    if source is SourceKind.ENTANGLED_PHI_PLUS:
        src, bit = prepare_bell(BellLabel.PHI_PLUS), None
    elif source is SourceKind.PRODUCT:
        if product_bit not in (0, 1):
            raise ValueError("product_bit must be a bit")
        half = prepare_polarized(product_bit, MeasBasis.RECTILINEAR)
        src, bit = tensor(half, half), product_bit
    elif source is SourceKind.GHZ:
        src, bit = prepare_ghz(), None
    else:
        raise ValueError(f"unknown source {source!r}")

    reg = tensor(prepare_bell(created), src)
    n = reg.num_qubits
    rest_axes = [0] + list(range(3, n))
    projections = _project_pair(reg.state.amps, n, 1, 2)
    weights = [_weight(p) for p in projections]
    total = sum(weights)

    outcomes = []
    for label, post, weight in zip(BELL_ORDER, projections, weights):
        grouped: dict[tuple[int, ...], int] = {}
        for i, amp in enumerate(post):
            if amp:
                bits = tuple((i >> (n - 1 - q)) & 1 for q in rest_axes)
                grouped[bits] = grouped.get(bits, 0) + amp * amp
        joint = {bits: Fraction(w, weight) for bits, w in sorted(grouped.items())}
        residual = _residual_pair(post, weight) if n == 4 and weight else None
        outcomes.append(SwapOutcome(label, Fraction(weight, total), joint, residual))
    return SwapTable(created, source, bit, tuple(outcomes))
