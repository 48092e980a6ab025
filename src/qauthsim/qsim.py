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

Two projection helpers (:func:`_project_qubit`, :func:`_project_pair`)
serve every use, and every measurement outcome is drawn by one exact rule,
:meth:`RandomSource.categorical`.  An outcome table holds the running sums
S_j of its integer weights, their total T, and the dyadic thresholds
t_j = ceil(2**53 * S_j / T) / 2**53; a draw u = N / 2**53 (N an integer)
selects ``bisect_right(thresholds, u)``, which is the integer rule's
outcome, since 2**53 * S_j <= N * T <=> ceil(2**53 * S_j / T) <= N <=>
t_j <= u.  Sessions sample from per-slot kernels (:func:`slot_kernels`):
given the relay's layout and the adversary's session-level draws, each
slot is an independent register of at most five qubits, and the joint
outcome of all its reads is one categorical draw from an exact table of
integer weights, built once per key by the helpers.  The relay-step oracle
(:func:`swap_enumerate`) projects onto every outcome with the same helpers
and reports exact :class:`fractions.Fraction` values.

A session's draws are made in bulk (:meth:`RandomSource.below`,
:meth:`~RandomSource.sample_partition`, :meth:`~RandomSource.bit_pairs`,
:meth:`~RandomSource.quarters`, :meth:`~RandomSource.outcomes`), and each
bulk draw consumes exactly the generator words, in the same order, of the
scalar loop it replaces, so the two give the same values and leave the
stream at the same point.  Only this module reads the generator's word
layout (see :class:`RandomSource`).

:class:`StateRegister` is off the session path: through
:func:`basis_distribution` and :func:`swap_enumerate` it is the reference
the kernels are tested against, and :func:`measure_in_basis` and
:func:`measure_bell` sample registers that tests build.  A register
points at a shared, immutable state that carries the edges out of it,
built by the same helpers on first use: per measurement an outcome table
with one child state per outcome, and per constant front the grafted
state.  A measurement draws once from that table and moves to the child.
Prepared registers start at module-constant states; a constructor-built
register starts a graph of its own, which dies with it.

Index convention: qubit 0 is the leftmost tensor factor, so basis index
``i`` assigns qubit ``q`` the bit ``(i >> (n - 1 - q)) & 1``.  Pair-basis
labels are two bits, kind and phase; composing two labels XORs the bits,
which makes the four labels a Klein four-group with PHI_PLUS as identity.
"""

from __future__ import annotations

import hashlib
import math
from _random import Random as _MersenneTwister
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from math import gcd
from operator import mul
from typing import Sequence

_MASK64 = (1 << 64) - 1
_TWO53 = float(1 << 53)
# each byte's top bit, that bit doubled, and its top two bits, as bytes
_TOP_BIT = bytes([byte >> 7 for byte in range(256)])
_TOP_BIT_TWICE = bytes([byte >> 7 << 1 for byte in range(256)])
_TOP_TWO_BITS = bytes([byte >> 6 for byte in range(256)])


class MeasBasis(Enum):
    RECTILINEAR = "rectilinear"
    DIAGONAL = "diagonal"

    # members are singletons compared by identity, so the identity hash
    # agrees with equality; Enum's own hash is a Python-level call
    __hash__ = object.__hash__


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
# the basis a random bit selects (see RandomSource.basis)
BASIS_OF_BIT: tuple[MeasBasis, MeasBasis] = (_RECTILINEAR, _DIAGONAL)

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

    The same words, in bulk: underneath is a Mersenne Twister that emits
    32-bit words.  ``getrandbits(w)`` for w <= 32 is the top w bits of one
    word; ``getrandbits(32 * n)`` packs n words, the first least
    significant; ``random()`` reads two words w1, w2 and returns
    ``N / 2**53`` with ``N = (w1 >> 5) << 26 | w2 >> 6``.  Each bulk draw
    consumes exactly the words of the scalar loop it replaces, in the same
    order, and returns the same values: :meth:`bits`, :meth:`bit_pairs`
    and :meth:`quarters` (loops of :meth:`bit` and ``randbelow(4)``) and
    :meth:`below` (a loop of ``uniform() < p``) each take their words in
    one ``getrandbits`` call; :meth:`sample_partition` is one Fisher-Yates
    pass of :meth:`randbelow` draws; :meth:`outcomes` is a loop of
    :meth:`categorical` with no Python-level call per slot.  No module
    outside this one reads that layout.
    """

    __slots__ = ("master_seed", "stream_id", "_rng")

    def __init__(self, master_seed: int, stream_id: int = 0) -> None:
        self.master_seed = master_seed & _MASK64
        self.stream_id = stream_id & _MASK64
        digest = hashlib.sha256(b"qauthsim/%d/%d" % (self.master_seed, self.stream_id)).digest()
        # the C generator that random.Random extends, seeded as
        # random.Random(seed) seeds it, without that class's Python frames
        self._rng = _MersenneTwister(int.from_bytes(digest, "big"))

    def bit(self) -> int:
        return self._rng.getrandbits(1)

    def _top_bytes(self, count: int) -> bytes:
        """The top byte of each of the next ``count`` words, in order: every
        fourth byte of ``count`` packed words, little-endian."""
        return self._rng.getrandbits(32 * count).to_bytes(4 * count, "little")[3::4]

    def bits(self, count: int) -> tuple[int, ...]:
        """``count`` draws of :meth:`bit`, each the top bit of a word."""
        return tuple(self._top_bytes(count).translate(_TOP_BIT))

    def bit_pairs(self, count: int) -> bytes:
        """``count`` values ``2 * a + b``, where a and b are two draws of
        :meth:`bit` in that order."""
        top = self._top_bytes(2 * count)
        # no byte exceeds 3, so the packed sum carries nothing between bytes
        pairs = (int.from_bytes(top[::2].translate(_TOP_BIT_TWICE), "little")
                 + int.from_bytes(top[1::2].translate(_TOP_BIT), "little"))
        return pairs.to_bytes(count, "little")

    def quarters(self, count: int) -> bytes:
        """``count`` draws of ``randbelow(4)``, each the top two bits of a
        word (a bound of 4 never rejects)."""
        return self._top_bytes(count).translate(_TOP_TWO_BITS)

    def uniform(self) -> float:
        return self._rng.random()

    def below(self, count: int, p: float) -> bytes:
        """``count`` marks, each 1 where a draw of :meth:`uniform` is below
        ``p`` and 0 elsewhere.

        A draw is ``N / 2**53``, so it is below p exactly when
        ``N < p * 2**53``.  The top byte of N is the top byte of the draw's
        first word, and a per-p table decides each draw from it: every N
        with that top byte is below p, none is, or the byte holds the edge
        ``p * 2**53``; only there is N assembled and compared.
        """
        table = _BELOW_TABLES.get(p) or _below_table(p)
        packed = self._rng.getrandbits(64 * count).to_bytes(8 * count, "little")
        marks = packed[3::8].translate(table)
        edge = marks.find(_EDGE)
        if edge < 0:
            return marks
        marks = bytearray(marks)
        limit = p * _TWO53
        while edge >= 0:
            at = 8 * edge
            first = int.from_bytes(packed[at:at + 4], "little")
            second = int.from_bytes(packed[at + 4:at + 8], "little")
            marks[edge] = ((first >> 5) << 26 | second >> 6) < limit
            edge = marks.find(_EDGE, edge + 1)
        return bytes(marks)

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

    def _shuffled(self, universe: int, count: int) -> list[int]:
        """range(universe) after the first ``count`` steps of a Fisher-Yates
        shuffle: step i swaps position i with i + randbelow(universe - i).

        The steps walk a cached schedule of (i, bound, width).  A step with
        bound 1 draws nothing and swaps a position with itself, so the
        schedule leaves it out.  A step is rejection-sampled, so how many
        words it takes is known only as it goes; each step draws its own,
        since batching the words cost more per step than the calls it saved.
        """
        if not 0 <= count <= universe:
            raise ValueError("cannot sample %d of %d positions" % (count, universe))
        pool = list(range(universe))
        g = self._rng.getrandbits
        for i, bound, width in _SCHEDULES.get((universe, count)) or _schedule(universe, count):
            j = g(width)
            while j >= bound:
                j = g(width)
            j += i
            pool[i], pool[j] = pool[j], pool[i]
        return pool

    def sample_positions(self, universe: int, count: int) -> tuple[int, ...]:
        """``count`` distinct positions drawn from range(universe), sorted."""
        pool = self._shuffled(universe, count)
        del pool[count:]
        pool.sort()
        return tuple(pool)

    def sample_partition(self, universe: int, count: int
                         ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The positions :meth:`sample_positions` draws, and the rest of
        range(universe), each sorted, from the same draws."""
        pool = self._shuffled(universe, count)
        rest = pool[count:]
        del pool[count:]
        pool.sort()
        rest.sort()
        return tuple(pool), tuple(rest)

    def bell_label(self) -> BellLabel:
        return BellLabel.from_bits(self.bit(), self.bit())

    def basis(self) -> MeasBasis:
        return BASIS_OF_BIT[self._rng.getrandbits(1)]

    def categorical(self, thresholds: Sequence[float]) -> int:
        """Index of the outcome one uniform draw selects, exactly.

        With integer outcome weights, running sums S_j and total T,
        ``thresholds[j]`` is the dyadic t_j = ceil(S_j * 2**53 / T) / 2**53,
        exact in a float.  The draw u = N / 2**53 selects the first j with
        u * T < S_j, and ``bisect_right`` finds it by one float comparison
        per step: N integer, so S_j * 2**53 <= N * T <=>
        ceil(S_j * 2**53 / T) <= N <=> t_j <= u.
        """
        return bisect_right(thresholds, self._rng.random())

    def outcomes(self, tables: Sequence[tuple]) -> list:
        """One outcome per kernel table (see :func:`slot_kernels`), in order:
        :meth:`categorical` over each table's thresholds, with no draw where
        a table has a single outcome."""
        random = self._rng.random
        return [outcomes[bisect_right(thresholds, random())] if cumulative
                else outcomes[0]
                for cumulative, _, outcomes, thresholds in tables]


_SCHEDULES: dict[tuple[int, int], tuple[tuple[int, int, int], ...]] = {}


def _schedule(universe: int, count: int) -> tuple[tuple[int, int, int], ...]:
    """Steps (i, bound, width) of :meth:`RandomSource._shuffled` that draw:
    ``randbelow(bound)`` takes the first ``getrandbits(width)`` below the
    bound."""
    if len(_SCHEDULES) >= 1024:
        _SCHEDULES.clear()
    steps = tuple([(i, universe - i, (universe - i - 1).bit_length())
                   for i in range(count) if universe - i > 1])
    return _SCHEDULES.setdefault((universe, count), steps)


# Per probability p, the verdict of a draw's first top byte: 1 (below p),
# 0 (not below) or _EDGE (the byte holds p * 2**53; assemble N).
_EDGE = 2
_BELOW_TABLES: dict[float, bytes] = {}


def _below_table(p: float) -> bytes:
    if len(_BELOW_TABLES) >= 1024:
        _BELOW_TABLES.clear()
    # N < p * 2**53 <=> N < limit for the integer N; top byte b spans
    # [b << 45, (b + 1) << 45)
    limit = math.ceil(p * _TWO53)
    table = bytes([1 if (b + 1) << 45 <= limit else 0 if b << 45 >= limit
                   else _EDGE for b in range(256)])
    return _BELOW_TABLES.setdefault(p, table)


class _State:
    """One immutable register state: the integer vector ``amps`` over ``n``
    qubits, and the edges out of it, each built on first use.

    ``qubit_tables`` (keyed ``2 * qubit + diagonal``) and ``pair_tables``
    (keyed ``(first, second)``) hold outcome tables: the running sums of the
    integer weights, the total, each outcome's child state (None at weight
    zero), and the thresholds :meth:`RandomSource.categorical` draws
    against.  ``grafts`` maps a constant front state to this state with
    that front ahead.
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
        cumulative = tuple(accumulate(map(_weight, projections)))
        children = tuple(_State(tuple(p), self.n) if any(p) else None
                         for p in projections)
        return tables.setdefault(key, (cumulative, cumulative[-1], children,
                                       _thresholds(cumulative)))


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


def _thresholds(cumulative: Sequence[int]) -> tuple[float, ...]:
    """The draw thresholds t_j = ceil(S_j * 2**53 / T) / 2**53 of running
    sums S_j with total T = S_last (see :meth:`RandomSource.categorical`).
    Each numerator is an integer of at most 53 bits, so each t_j is an exact
    float."""
    total = cumulative[-1]
    return tuple([-(-(s << 53) // total) / _TWO53 for s in cumulative])


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
    _, _, children, thresholds = table
    idx = rand.categorical(thresholds)
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
    _, _, children, thresholds = table
    idx = rand.categorical(thresholds)
    register.state = children[idx]
    return BELL_ORDER[idx]


# ---------------------------------------------------------------------------
# Per-slot kernels: the session sampler.
#
# Once the relay's layout and the adversary's session-level draws are fixed,
# every slot is an independent register of at most five qubits, read by at
# most six measurements.  Its joint outcome is one draw from a small exact
# table, built once per key by the projection helpers above.

# Slot sources, by index: 2 * basis bit + value for twin photons polarized
# alike (a detection slot, or a product pair the relay plants in the key
# basis), then the honest pair and the triple.  Qubit 0 travels to alice,
# qubit 1 to bob, and the triple's qubit 2 stays with the relay.
PAIR_SOURCE = 4
TRIPLE_SOURCE = 5
_SOURCE_STATES = tuple(
    [_State(tuple(a * b for a in half.amps for b in half.amps), 2)
     for half in (*_RECTILINEAR_STATES, *_DIAGONAL_STATES)]
    + [_BELL_STATES[0], _GHZ_STATE])

# Fields of a slot outcome, in order: eve's read on alice's path and on
# bob's, alice's bit (her kept qubit in the relay step), bob's bit, the
# relay's retained qubit, and the relay step's pair outcome, by its index
# in BELL_ORDER.
EVE_A, EVE_B, ALICE, BOB, SERVER, RELAY = range(6)

# Tables by key.  Each is a pure function of its key and immutable, so one
# process-wide memo serves every caller alike.
_KERNELS: dict[tuple, tuple] = {}


def slot_kernels(keys: Sequence[tuple]) -> list[tuple]:
    """The exact outcome table of each slot key, in order, each built on
    first use.

    A key is (source, tap_a, tap_b, basis, created): a source index; the
    basis bit eve reads alice's and bob's photon in, None where she does not
    read it; the parties' basis bit; and the created pair's index in
    BELL_ORDER for a relay step, else None.  The relay step grafts the
    created pair in front of the source's qubits.

    The reads: eve reads each photon she taps; alice reads her photon in
    ``basis``, or in a relay step measures the created pair's second qubit
    against it in the pair basis and reads the kept qubit rectilinearly;
    bob reads his photon in ``basis``; the relay reads its retained qubit
    rectilinearly.  Eve's read of a photon comes before its party's.
    Reads of distinct qubits commute, so the table is built with alice's
    reads last, the created pair grafted on just before them.  Every
    outcome of a read is projected on with the same factor, so the squared
    lengths of the projected vectors are exact integer weights, here
    divided by their gcd.

    Returns (cumulative, total, outcomes, thresholds): the running sums of
    the weights, None when one outcome has all the weight, and no draw is
    made; their total; each outcome, a tuple over the fields EVE_A ..
    RELAY, None where nothing read; and the thresholds
    :meth:`RandomSource.categorical` draws against, (1.0,) for a single
    outcome.  :meth:`RandomSource.outcomes` draws a session's slots.
    """
    tables = list(map(_KERNELS.get, keys))
    if None in tables:
        tables = [table or _KERNELS.setdefault(key, _build_kernel(*key))
                  for key, table in zip(keys, tables)]
    return tables


def _build_kernel(source: int, tap_a: int | None, tap_b: int | None,
                  basis: int, created: int | None) -> tuple:
    state = _SOURCE_STATES[source]
    party = BASIS_OF_BIT[basis]
    # (field, qubit, basis) on the source's qubits; alice's photon is 0
    reads = []
    if tap_a is not None:
        reads.append((EVE_A, 0, BASIS_OF_BIT[tap_a]))
    if tap_b is not None:
        reads.append((EVE_B, 1, BASIS_OF_BIT[tap_b]))
    reads.append((BOB, 1, party))
    if source == TRIPLE_SOURCE:
        reads.append((SERVER, 2, _RECTILINEAR))
    if created is None:
        reads.append((ALICE, 0, party))
    leaves = _read_leaves([([None] * 6, state.amps)], state.n, reads)
    if created is not None:
        # the relay step: graft the created pair in front, then read
        front = _BELL_STATES[created].amps
        grafted = [(fields, [f * a for f in front for a in vec])
                   for fields, vec in leaves]
        leaves = _read_leaves(grafted, state.n + 2,
                              [(RELAY, (1, 2), None), (ALICE, 0, _RECTILINEAR)])

    weights = [_weight(vec) for _, vec in leaves]
    scale = gcd(*weights)
    outcomes = tuple([tuple(fields) for fields, _ in leaves])
    if len(outcomes) == 1:
        return None, 1, outcomes, (1.0,)
    cumulative = tuple(accumulate([weight // scale for weight in weights]))
    return cumulative, cumulative[-1], outcomes, _thresholds(cumulative)


def _read_leaves(leaves: list, n: int, reads: list) -> list:
    """Project every leaf (fields, vector) onto each outcome of each read in
    turn, keeping the nonzero projections with the result in its field;
    a read (RELAY, (first, second), None) is a pair-basis read."""
    for field, qubit, basis in reads:
        grown = []
        for fields, vec in leaves:
            if basis is None:
                projections = _project_pair(vec, n, *qubit)
                results = range(4)
            else:
                projections = _project_qubit(vec, n, qubit, basis)
                results = (0, 1)
            for result, projection in zip(results, projections):
                if any(projection):
                    child = fields.copy()
                    child[field] = result
                    grown.append((child, projection))
        leaves = grown
    return leaves


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
