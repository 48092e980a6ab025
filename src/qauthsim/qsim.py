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
serve every use.  A register's measurement outcome is drawn by one exact
rule, :meth:`RandomSource.categorical`.  An outcome table holds the running
sums S_j of its integer weights, their total T, and the dyadic thresholds
t_j = ceil(2**53 * S_j / T) / 2**53; a draw u = N / 2**53 (N an integer)
selects ``bisect_right(thresholds, u)``, which is the integer rule's
outcome, since 2**53 * S_j <= N * T <=> ceil(2**53 * S_j / T) <= N <=>
t_j <= u.  Sessions sample from per-slot kernels (:func:`slot_kernels`):
given the relay's layout and the adversary's session-level draws, each
slot is an independent register of at most five qubits, and the joint
outcome of all its reads is one categorical draw from an exact table of
integer weights, built once per key by the helpers.  Every kernel's total
divides 256, so one word's top byte b decides a slot by the same integer
rule, the first j with b * T < 256 * S_j: each kernel carries a 256-byte
table of outcome codes in which outcome j owns 256 * w_j / T bytes
(:func:`_code_table`).  The relay-step oracle (:func:`swap_enumerate`)
projects onto every outcome with the same helpers and reports exact
:class:`fractions.Fraction` values.

A session's draws are made in bulk (:meth:`RandomSource.below`,
:meth:`~RandomSource.sample_partition`, :meth:`~RandomSource.quarters`,
:meth:`~RandomSource.outcomes`), each in as few calls to the generator as
its law allows.  A session's loss marks
(:meth:`RandomSource.loss_marks`) come from a SHAKE-128 substream of their
own, and the Mersenne Twister behind every other draw is seeded only when
it is first drawn from, so a lost stream never seeds it.  Only this module
reads either stream's layout (see :class:`RandomSource`).

:class:`StateRegister` is off the session path: through
:func:`basis_distribution` and :func:`swap_enumerate` it is the reference
the kernels are tested against, and :func:`measure_in_basis` and
:func:`measure_bell` sample registers that tests build.  A register holds
its integer vector; a measurement projects it onto every outcome with the
same helpers, draws once by the projections' weights, and keeps the chosen
projection.

Index convention: qubit 0 is the leftmost tensor factor, so basis index
``i`` assigns qubit ``q`` the bit ``(i >> (n - 1 - q)) & 1``.  Pair-basis
labels are two bits, kind and phase; composing two labels XORs the bits,
which makes the four labels a Klein four-group with PHI_PLUS as identity.
"""

from __future__ import annotations

from hashlib import sha256, shake_128
import math
from _random import Random as _MersenneTwister
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress
from math import gcd
from operator import getitem, mul
from typing import Sequence

_MASK64 = (1 << 64) - 1
_TWO53 = float(1 << 53)
# each byte's top bit and its top two bits, as bytes; a 0 or 1 byte negated
_TOP_BIT = bytes([byte >> 7 for byte in range(256)])
_TOP_TWO_BITS = bytes([byte >> 6 for byte in range(256)])
_NOT = bytes.maketrans(b"\x00\x01", b"\x01\x00")


class _Memo(dict):
    """A dict that builds each missing key's value, ``build(key)``, on
    first lookup and keeps it."""

    __slots__ = ("build",)

    def __init__(self, build) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


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
# the basis a random bit selects (see RandomSource.basis)
BASIS_OF_BIT: tuple[MeasBasis, MeasBasis] = (MeasBasis.RECTILINEAR, MeasBasis.DIAGONAL)

_SHORT_TO_LABEL = {label.short(): label for label in BELL_ORDER}


def bell_compose(a: BellLabel, b: BellLabel) -> BellLabel:
    """Componentwise XOR of the two-bit labels.

    This is the group law of the pair-state algebra: composing the created
    pair's label with the joint-measurement outcome gives the label of the
    far pair, up to global phase (checked against :func:`swap_enumerate`).
    """
    return BELL_ORDER[((a.kind_bit ^ b.kind_bit) << 1) | (a.phase_bit ^ b.phase_bit)]


class RandomSource:
    """Deterministic random streams addressed by (master_seed, stream_id).

    The pair addresses two streams, each a counter-based stream in the
    sense of Salmon, Moraes, Dror & Shaw ("Parallel random numbers: as
    easy as 1, 2, 3", SC 2011): a given pair replays the same draws on any
    platform, and distinct pairs give unrelated sequences.

    - The loss substream (:meth:`loss_marks`) is the SHAKE-128 output of
      ``b"qauthsim/loss/<seed>/<stream>"``: one byte per mark, then 6
      bytes for each mark that byte leaves undecided.
    - Every other draw comes from a Mersenne Twister seeded with the
      SHA-256 of ``b"qauthsim/<seed>/<stream>"``.  The twister is seeded
      lazily, on its first draw (each draw method takes
      ``self._rng or self._seed()``), so a stream that draws only its loss
      marks computes neither the hash nor the twister's state, and a
      stream that draws both gets the same twister draws as one that never
      read its loss substream.

    Only ``getrandbits``/``random`` are consumed from the twister;
    composite draws (sampling without replacement, bounded integers) are
    implemented here so their draw pattern is pinned by this module rather
    than by stdlib internals.

    The twister emits 32-bit words.  ``getrandbits(w)`` for w <= 32 is the
    top w bits of one word; ``getrandbits(32 * n)`` packs n words, the
    first least significant; ``random()`` reads two words w1, w2 and
    returns ``N / 2**53`` with ``N = (w1 >> 5) << 26 | w2 >> 6``.  The
    bulk draws take their words in one ``getrandbits`` call: :meth:`bits`
    and :meth:`quarters` read the top one or two bits of a word per value,
    :meth:`outcomes` the top byte of a word per slot, and :meth:`below`
    two words per mark, the words of one ``uniform()``.
    :meth:`sample_partition` is Floyd's algorithm (Bentley & Floyd, CACM
    30(9), 1987) on the smaller side of the partition: m bounded draws,
    each the first ``getrandbits(width)`` below its bound, width the bit
    length of bound - 1.  No module outside this one reads either stream's
    layout.
    """

    __slots__ = ("master_seed", "stream_id", "_rng")

    def __init__(self, master_seed: int, stream_id: int = 0) -> None:
        self.master_seed = master_seed & _MASK64
        self.stream_id = stream_id & _MASK64
        self._rng = None

    def _seed(self) -> _MersenneTwister:
        """The twister, seeded on first use."""
        digest = sha256(b"qauthsim/%d/%d" % (self.master_seed, self.stream_id)).digest()
        # the C generator that random.Random extends, seeded as
        # random.Random(seed) seeds it, without that class's Python frames
        rng = self._rng = _MersenneTwister(int.from_bytes(digest, "big"))
        return rng

    def bit(self) -> int:
        return (self._rng or self._seed()).getrandbits(1)

    def _top_bytes(self, count: int) -> bytes:
        """The top byte of each of the next ``count`` words, in order: every
        fourth byte of ``count`` packed words, little-endian."""
        rng = self._rng or self._seed()
        return rng.getrandbits(32 * count).to_bytes(4 * count, "little")[3::4]

    def bits(self, count: int) -> bytes:
        """``count`` draws of :meth:`bit`, each the top bit of a word."""
        return self._top_bytes(count).translate(_TOP_BIT)

    def quarters(self, count: int) -> bytes:
        """``count`` draws of ``getrandbits(2)``, each the top two bits of a
        word."""
        return self._top_bytes(count).translate(_TOP_TWO_BITS)

    def uniform(self) -> float:
        return (self._rng or self._seed()).random()

    def below(self, count: int, p: float) -> bytes:
        """``count`` marks, each 1 where a draw of :meth:`uniform` is below
        ``p`` and 0 elsewhere: :func:`_marks_below` over the draws' words."""
        rng = self._rng or self._seed()
        return _marks_below(rng.getrandbits(64 * count).to_bytes(8 * count, "little"), p)

    def loss_marks(self, count: int, p: float) -> bytes:
        """``count`` loss marks from the loss substream, each 1 with
        probability ceil(p * 2**53) / 2**53, the law of :meth:`below`, and
        0 elsewhere.  The twister is neither seeded nor advanced.

        Byte i of the substream is mark i's top byte, and
        :func:`_below_table` decides it as it decides a twister draw's.
        Only the edge byte e = ceil(p * 2**53) >> 45 leaves a mark open;
        such a mark takes a 45-bit remainder r from the next 6-byte
        reserve after the ``count`` top bytes, in mark order (the reserve
        read as a little-endian integer, shifted right by 3), and is lost
        iff ``(e << 45) + r < ceil(p * 2**53)``, which is ``N < p * 2**53``
        for the 53-bit N = (e << 45) + r.  The first read holds one
        reserve; a stream with more edge marks reads again for all of
        them, and since the output is prefix-stable no byte already read
        moves.  Each call reads the substream from its start, so a stream
        draws its loss marks in one call."""
        xof = shake_128(b"qauthsim/loss/%d/%d" % (self.master_seed, self.stream_id))
        packed = xof.digest(count + _RESERVE)
        marks = packed[:count].translate(_below_table(p))
        edge = marks.find(_EDGE)
        if edge < 0:
            return marks
        edges = marks.count(_EDGE)
        if edges > 1:
            packed = xof.digest(count + _RESERVE * edges)
        # the edge byte's own share of the limit: r is below it iff lost
        rest = math.ceil(p * _TWO53) & _MASK45
        marks = bytearray(marks)
        at = count
        while edge >= 0:
            marks[edge] = int.from_bytes(packed[at:at + _RESERVE], "little") >> 3 < rest
            at += _RESERVE
            edge = marks.find(_EDGE, edge + 1)
        return bytes(marks)

    def _chosen(self, universe: int, count: int) -> bytearray:
        """One mark per position of range(universe): 1 at each of ``count``
        distinct positions drawn uniformly, 0 elsewhere.

        Floyd's algorithm draws the smaller side, m = min(count, universe -
        count) positions: for j = universe - m .. universe - 1, t is the
        first ``getrandbits(j.bit_length())`` below j + 1, and t is marked,
        or j where t already is.  Every m-subset comes out of m! of the
        (universe)! / (universe - m)! accepted draw sequences, so each is
        equally likely; where m is the rest, the marks are negated."""
        if not 0 <= count <= universe:
            raise ValueError("cannot sample %d of %d positions" % (count, universe))
        side = min(count, universe - count)
        marks = bytearray(universe)
        g = (self._rng or self._seed()).getrandbits
        for j in range(universe - side, universe):
            width = j.bit_length()
            t = g(width)
            while t > j:
                t = g(width)
            marks[j if marks[t] else t] = 1
        return marks if side == count else marks.translate(_NOT)

    def sample_positions(self, universe: int, count: int) -> tuple[int, ...]:
        """``count`` distinct positions drawn from range(universe), sorted."""
        return tuple(compress(range(universe), self._chosen(universe, count)))

    def sample_partition(self, universe: int, count: int
                         ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The positions :meth:`sample_positions` draws, and the rest of
        range(universe), each sorted, from the same draws."""
        marks = self._chosen(universe, count)
        positions = range(universe)
        return (tuple(compress(positions, marks)),
                tuple(compress(positions, marks.translate(_NOT))))

    def bell_label(self) -> BellLabel:
        return BellLabel.from_bits(self.bit(), self.bit())

    def basis(self) -> MeasBasis:
        return BASIS_OF_BIT[(self._rng or self._seed()).getrandbits(1)]

    def categorical(self, thresholds: Sequence[float]) -> int:
        """Index of the outcome one uniform draw selects, exactly.

        With integer outcome weights, running sums S_j and total T,
        ``thresholds[j]`` is the dyadic t_j = ceil(S_j * 2**53 / T) / 2**53,
        exact in a float.  The draw u = N / 2**53 selects the first j with
        u * T < S_j, and ``bisect_right`` finds it by one float comparison
        per step: N integer, so S_j * 2**53 <= N * T <=>
        ceil(S_j * 2**53 / T) <= N <=> t_j <= u.
        """
        return bisect_right(thresholds, (self._rng or self._seed()).random())

    def outcomes(self, tables: Sequence[bytes]) -> bytes:
        """One outcome code per 256-byte code table (see
        :func:`slot_kernels`), in order: ``table[b]`` for the top byte b of
        the slot's word."""
        return bytes(map(getitem, tables, self._top_bytes(len(tables))))


# Per probability p, the verdict of a draw's top byte: 1 (below p), 0 (not
# below) or _EDGE (the byte holds p * 2**53; the low 45 bits of N decide).
_EDGE = 2
# the bytes of a loss mark's remainder, whose top 45 bits it reads
_RESERVE = 6
_MASK45 = (1 << 45) - 1


@lru_cache(maxsize=1024)
def _below_table(p: float) -> bytes:
    # N < p * 2**53 <=> N < limit for the integer N; top byte b spans
    # [b << 45, (b + 1) << 45)
    limit = math.ceil(p * _TWO53)
    return bytes([1 if (b + 1) << 45 <= limit else 0 if b << 45 >= limit
                  else _EDGE for b in range(256)])


def _marks_below(packed: bytes, p: float) -> bytes:
    """The marks of :meth:`RandomSource.below`: one per 8 bytes of
    ``packed``, 1 where the draw they hold is below ``p``, 0 elsewhere.

    The 8 bytes are two little-endian 32-bit words w1, w2, and the draw is
    ``N / 2**53`` with ``N = (w1 >> 5) << 26 | w2 >> 6``, as ``random()``
    builds it from two twister words; so the draw is below p exactly when
    ``N < p * 2**53``.  The top byte of N is the top byte of w1, and the
    table :func:`_below_table` keeps per p decides each draw from it: every
    N with that top byte is below p, none is, or the byte holds the edge
    ``p * 2**53``; only there is N assembled and compared.
    """
    marks = packed[3::8].translate(_below_table(p))
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


class StateRegister:
    """Pure state over 1..8 qubits: the unnormalized integer vector ``amps``
    over ``n`` qubits, replaced by measurement and :meth:`extend_front`."""

    __slots__ = ("amps", "n")

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
        self.amps = amps
        self.n = num

    @property
    def num_qubits(self) -> int:
        return self.n

    @property
    def amplitudes(self) -> list[int]:
        """A copy of the state vector: writing into it changes nothing."""
        return list(self.amps)

    def extend_front(self, front: "StateRegister") -> None:
        """Tensor ``front``'s qubits ahead of this register's.

        In place so every :class:`~qauthsim.channel.PhotonSlot` on this
        register survives; slots are tail-anchored, so their qubit indices
        shift automatically.
        """
        grown = tensor(front, self)
        self.amps, self.n = grown.amps, grown.n

    def __repr__(self) -> str:
        return f"StateRegister(num_qubits={self.num_qubits})"


# Pair states over (b_first, b_second) = 00, 01, 10, 11, in BELL_ORDER.
_BELL_STATES = ((1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 1, 0), (0, 1, -1, 0))
_GHZ_STATE = (1, 0, 0, 0, 0, 0, 0, 1)
# Single qubits carrying 0 and 1 in each basis.
_RECTILINEAR_STATES = ((1, 0), (0, 1))
_DIAGONAL_STATES = ((1, 1), (1, -1))


def prepare_bell(label: BellLabel) -> StateRegister:
    return StateRegister(_BELL_STATES[(label.kind_bit << 1) | label.phase_bit])


def prepare_ghz() -> StateRegister:
    return StateRegister(_GHZ_STATE)


def prepare_polarized(value: int, basis: MeasBasis) -> StateRegister:
    """Single qubit carrying ``value`` in ``basis``."""
    if value not in (0, 1):
        raise ValueError("value must be a bit")
    states = _RECTILINEAR_STATES if basis is MeasBasis.RECTILINEAR else _DIAGONAL_STATES
    return StateRegister(states[value])


def tensor(a: StateRegister, b: StateRegister) -> StateRegister:
    """New register with a's qubits indexed first."""
    if a.n + b.n > 8:
        raise ValueError("register would exceed 8 qubits")
    return StateRegister([x * y for x in a.amps for y in b.amps])


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
    if basis is MeasBasis.RECTILINEAR:
        return ([0 if i & mask else a for i, a in enumerate(amps)],
                [a if i & mask else 0 for i, a in enumerate(amps)])
    if basis is not MeasBasis.DIAGONAL:
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


def _collapse(register: StateRegister, projections: Sequence[Sequence[int]],
              rand: RandomSource) -> int:
    """Draw one outcome of ``projections`` by their exact weights and move
    the register to its projection; returns the outcome's index."""
    idx = rand.categorical(_thresholds(tuple(accumulate(map(_weight, projections)))))
    register.amps = tuple(projections[idx])
    return idx


def measure_in_basis(register: StateRegister, qubit: int, basis: MeasBasis,
                     rand: RandomSource) -> int:
    """Born-rule measurement of one qubit; moves the register to the outcome."""
    if not 0 <= qubit < register.n:
        raise ValueError("qubit index out of range")
    return _collapse(register, _project_qubit(register.amps, register.n, qubit, basis),
                     rand)


def basis_distribution(register: StateRegister, qubit: int,
                       basis: MeasBasis) -> tuple[Fraction, Fraction]:
    """Exact Born probabilities (p0, p1) for one qubit, without collapsing."""
    n = register.n
    if not 0 <= qubit < n:
        raise ValueError("qubit index out of range")
    w0, w1 = map(_weight, _project_qubit(register.amps, n, qubit, basis))
    return Fraction(w0, w0 + w1), Fraction(w1, w0 + w1)


def measure_bell(register: StateRegister, first: int, second: int,
                 rand: RandomSource) -> BellLabel:
    """Projective pair-basis measurement of two qubits, outcomes in
    BELL_ORDER; moves the register to the outcome."""
    n = register.n
    if first == second or not (0 <= first < n and 0 <= second < n):
        raise ValueError("pair measurement needs two distinct qubits in range")
    return BELL_ORDER[_collapse(register, _project_pair(register.amps, n, first, second),
                                rand)]


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
    [tuple([a * b for a in half for b in half])
     for half in (*_RECTILINEAR_STATES, *_DIAGONAL_STATES)]
    + [_BELL_STATES[0], _GHZ_STATE])

# Fields of a slot outcome, in order: alice's bit (her kept qubit in the
# relay step), bob's bit, eve's read on alice's path and on bob's, the
# relay's retained qubit, and the relay step's pair outcome, by its index in
# BELL_ORDER.  A slot's outcome code is one byte that holds each field at
# its own index as a bit shift: bits 0-4 the five one-bit reads, bits 5-6
# the pair outcome, and 0 where a field is not read.
ALICE, BOB, EVE_A, EVE_B, SERVER, RELAY = range(6)
# by field ALICE .. SERVER, each outcome code's bit of that field, as bytes
FIELD_BITS = tuple([bytes([code >> field & 1 for code in range(256)])
                    for field in range(RELAY)])


def outcome_code(fields: Sequence[int | None]) -> int:
    """The outcome code of a tuple over the fields ALICE .. RELAY, None
    where a field is not read."""
    return sum([value << shift for shift, value in enumerate(fields)
                if value is not None])


# Tables by key, each built on first lookup.  Each is a pure function of
# its key and immutable, so one process-wide memo serves every caller alike.
_KERNELS = _Memo(lambda key: _build_kernel(*key))


def slot_kernels(keys: Sequence[tuple]) -> list[tuple]:
    """The exact outcome table of each slot key, in order, each built on
    first use.

    A key is (source, tap_a, tap_b, basis, created): a source index; the
    basis bit eve reads alice's and bob's photon in, None where she does not
    read it; the parties' basis bit; and the created pair's index in
    BELL_ORDER for a relay step, else None.  The relay step puts the
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

    Returns (cumulative, total, outcomes, codes): the running sums of the
    weights; their total, which divides 256; each outcome, a tuple over the fields ALICE .. RELAY, None
    where nothing read; and the 256-byte table :func:`_code_table` builds,
    which maps a word's top byte to the code (:func:`outcome_code`) of the
    outcome it draws.  :meth:`RandomSource.outcomes` draws a session's
    slots from these tables.

    Sessions do not call this per slot: each session program keeps its
    tables in a memo by one-byte slot code, which looks a code's key up
    here the first time one of its sessions forms it (see
    ``protocol._SessionProgram.read_slots``), so the tables are built only
    in this memo.
    """
    return list(map(_KERNELS.__getitem__, keys))


def _build_kernel(source: int, tap_a: int | None, tap_b: int | None,
                  basis: int, created: int | None) -> tuple:
    amps = _SOURCE_STATES[source]
    n = 3 if source == TRIPLE_SOURCE else 2
    party = BASIS_OF_BIT[basis]
    # (field, qubit, basis) on the source's qubits; alice's photon is 0
    reads = []
    if tap_a is not None:
        reads.append((EVE_A, 0, BASIS_OF_BIT[tap_a]))
    if tap_b is not None:
        reads.append((EVE_B, 1, BASIS_OF_BIT[tap_b]))
    reads.append((BOB, 1, party))
    if source == TRIPLE_SOURCE:
        reads.append((SERVER, 2, MeasBasis.RECTILINEAR))
    if created is None:
        reads.append((ALICE, 0, party))
    leaves = _read_leaves([([None] * 6, amps)], n, reads)
    if created is not None:
        # the relay step: graft the created pair in front, then read
        front = _BELL_STATES[created]
        grafted = [(fields, [f * a for f in front for a in vec])
                   for fields, vec in leaves]
        leaves = _read_leaves(grafted, n + 2, [(RELAY, (1, 2), None),
                                               (ALICE, 0, MeasBasis.RECTILINEAR)])

    weights = [_weight(vec) for _, vec in leaves]
    scale = gcd(*weights)
    weights = [weight // scale for weight in weights]
    outcomes = tuple([tuple(fields) for fields, _ in leaves])
    cumulative = tuple(accumulate(weights))
    return (cumulative, cumulative[-1], outcomes,
            _code_table(weights, list(map(outcome_code, outcomes))))


def _code_table(weights: Sequence[int], codes: Sequence[int]) -> bytes:
    """The 256 bytes that decide one draw of a categorical law from a
    word's top byte b: outcome j, of integer weight w_j and code
    ``codes[j]``, owns 256 * w_j / T consecutive bytes, in outcome order,
    for the total T.  So b draws the first j with b * T < 256 * S_j, for
    the running sums S_j, and each outcome has chance exactly w_j / T.
    Raises ``ValueError`` unless T divides 256."""
    total = sum(weights)
    if 256 % total:
        raise ValueError(f"an outcome total of {total} does not divide 256")
    share = 256 // total
    return b"".join([bytes([code]) * (weight * share)
                     for code, weight in zip(codes, weights)])


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
    projections = _project_pair(reg.amps, n, 1, 2)
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
