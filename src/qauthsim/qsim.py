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
divides 256, so one stream byte b decides a slot by the same integer rule,
the first j with b * T < 256 * S_j: each kernel carries a 256-byte table of
outcome codes in which outcome j owns 256 * w_j / T bytes
(:func:`_code_table`).  The relay-step oracle (:func:`swap_enumerate`)
projects onto every outcome with the same helpers and reports exact
:class:`fractions.Fraction` values.

A session's draws are made in bulk (:meth:`RandomSource.below`,
:meth:`~RandomSource.sample_marks`, :meth:`~RandomSource.quarters`,
:meth:`~RandomSource.outcomes`), each taking the next bytes of its trial's
SHAKE-128 stream, whose bytes an arriving trial reads in one call.  A
session's loss marks (:meth:`RandomSource.loss_marks`) come from a
SHAKE-128 substream of their own, and the main stream is read only when it
is first drawn from, so a lost stream never reads it.  Only this module
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

from hashlib import shake_128
import math
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
    platform, and distinct pairs give unrelated sequences.  Each is the
    SHAKE-128 output (FIPS 202) of its address, each part of the pair
    taken modulo 2**64, and its output is prefix-stable: a longer read
    repeats every byte of a shorter one.

    - The loss substream (:meth:`loss_marks`) is the output of
      ``b"qauthsim/loss/<seed>/<stream>"``: one byte per mark, then 6
      bytes for each mark that byte leaves undecided.
    - Every other draw reads the main stream, the output of
      ``b"qauthsim/<seed>/<stream>"``, through one cursor
      (:meth:`_take`): each draw takes the next bytes, in call order.  The
      first draw reads ``_FIRST_READ`` bytes; the sessions measured on the
      benchmark's workloads needed at most 207, so each read its main
      stream once, and a longer need reads again.  Construction reads
      nothing, so a stream that draws only its loss marks never reads its
      main stream, and a stream that draws both draws what one that never
      read its loss substream draws.

    The bytes of each draw: :meth:`bit` and :meth:`bits` take one byte per
    value and keep its top bit, :meth:`basis` likewise; :meth:`quarters`
    and :meth:`bell_label` keep a byte's top two bits; :meth:`outcomes`
    reads one byte per slot through the slot's code table; :meth:`below`
    takes one byte per mark and a 6-byte remainder per mark on the edge
    byte, the law of the loss marks (:func:`_settle`); :meth:`uniform`
    takes 7 bytes, whose top 53 bits, big-endian, are N in ``N / 2**53``,
    and :meth:`categorical` reads one :meth:`uniform`.
    :meth:`sample_marks` is Floyd's algorithm (Bentley & Floyd, CACM
    30(9), 1987) on the smaller side of the partition.  No module outside
    this one reads either stream's layout.
    """

    # The main stream's cursor: the bytes read so far and the position of
    # the next draw's first byte.  A stream reads nothing until it draws,
    # so these class values stand until then.
    _buf = b""
    _at = 0

    def __init__(self, master_seed: int, stream_id: int = 0) -> None:
        self.master_seed = master_seed & _MASK64
        self.stream_id = stream_id & _MASK64

    def _take(self, count: int) -> bytes:
        """The next ``count`` bytes of the main stream, read again
        (:meth:`_read`) where they pass the bytes read so far."""
        at = self._at
        end = self._at = at + count
        if end > len(self._buf):
            self._read(end)
        return self._buf[at:end]

    def _read(self, need: int) -> None:
        """Read the main stream from its start, ``_FIRST_READ`` bytes or
        twice ``need`` where that is more."""
        address = b"qauthsim/%d/%d" % (self.master_seed, self.stream_id)
        self._buf = shake_128(address).digest(
            2 * need if need > _FIRST_READ else _FIRST_READ)

    def bit(self) -> int:
        return self._take(1)[0] >> 7

    def bits(self, count: int) -> bytes:
        """``count`` draws of :meth:`bit`, each the top bit of a byte."""
        return self._take(count).translate(_TOP_BIT)

    def quarters(self, count: int) -> bytes:
        """``count`` draws uniform on 0..3, each the top two bits of a
        byte."""
        return self._take(count).translate(_TOP_TWO_BITS)

    def uniform(self) -> float:
        """``N / 2**53`` for the top 53 bits N of the next 7 bytes, read
        big-endian."""
        return (int.from_bytes(self._take(7), "big") >> 3) / _TWO53

    def below(self, count: int, p: float) -> bytes:
        """``count`` marks, each 1 with probability ceil(p * 2**53) / 2**53,
        the chance that a draw of :meth:`uniform` is below ``p``, and 0
        elsewhere: one byte per mark, then a 6-byte remainder per mark
        that byte leaves open, in mark order (:func:`_settle`)."""
        marks = self._take(count).translate(_below_table(p))
        edges = marks.count(_EDGE)
        return _settle(marks, p, self._take(_RESERVE * edges)) if edges else marks

    def loss_marks(self, count: int, p: float) -> bytes:
        """``count`` loss marks from the loss substream, by the law of
        :meth:`below`.  The main stream is not read.

        Byte i of the substream is mark i's top byte, and the reserves
        :func:`_settle` reads for the marks it leaves open follow the
        ``count`` top bytes.  The first read holds one reserve; a stream
        with more edge marks reads again for all of them, and since the
        output is prefix-stable no byte already read moves.  Each call
        reads the substream from its start, so a stream draws its loss
        marks in one call."""
        xof = shake_128(b"qauthsim/loss/%d/%d" % (self.master_seed, self.stream_id))
        packed = xof.digest(count + _RESERVE)
        marks = packed[:count].translate(_below_table(p))
        edges = marks.count(_EDGE)
        if not edges:
            return marks
        if edges > 1:
            packed = xof.digest(count + _RESERVE * edges)
        return _settle(marks, p, packed[count:])

    def sample_marks(self, universe: int, count: int) -> bytes:
        """One mark per position of range(universe): 1 at each of ``count``
        distinct positions drawn uniformly, 0 elsewhere.

        Floyd's algorithm draws the smaller side, m = min(count, universe -
        count) positions: for j = universe - m .. universe - 1, t is
        uniform on 0..j, and t is marked, or j where t already is.  A try
        at t reads the next ceil(width / 8) bytes, big-endian, and keeps
        their top ``width`` = j.bit_length() bits, one byte in a universe
        up to 256; a try above j is followed by the next.  Every m-subset
        comes out of m! of the (universe)! / (universe - m)! accepted draw
        sequences, so each is equally likely; where m is the rest, the
        marks are negated."""
        if not 0 <= count <= universe:
            raise ValueError("cannot sample %d of %d positions" % (count, universe))
        side = min(count, universe - count)
        marks = bytearray(universe)
        # the tries read the cursor's bytes in place and the cursor moves
        # past them at the end: a _take call per try cost the paper-sizing
        # sessions about a tenth of their rate
        at, buf = self._at, self._buf
        for j in range(universe - side, universe):
            width = j.bit_length()
            size, shift = width + 7 >> 3, -width & 7
            t = j + 1
            while t > j:
                end = at + size
                if end > len(buf):
                    self._read(end)
                    buf = self._buf
                t = (buf[at] if size == 1
                     else int.from_bytes(buf[at:end], "big")) >> shift
                at = end
            marks[j if marks[t] else t] = 1
        self._at = at
        marks = bytes(marks)
        return marks if side == count else marks.translate(_NOT)

    def sample_positions(self, universe: int, count: int) -> tuple[int, ...]:
        """``count`` distinct positions drawn from range(universe), sorted."""
        return tuple(compress(range(universe),
                              self.sample_marks(universe, count)))

    def sample_partition(self, universe: int, count: int
                         ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The positions :meth:`sample_positions` draws, and the rest of
        range(universe), each sorted, from the same draws."""
        marks = self.sample_marks(universe, count)
        positions = range(universe)
        return (tuple(compress(positions, marks)),
                tuple(compress(positions, marks.translate(_NOT))))

    def bell_label(self) -> BellLabel:
        """A uniform pair-state label: a byte's top bit is the kind bit and
        the next the phase bit."""
        return BELL_ORDER[self._take(1)[0] >> 6]

    def basis(self) -> MeasBasis:
        return BASIS_OF_BIT[self._take(1)[0] >> 7]

    def categorical(self, thresholds: Sequence[float]) -> int:
        """Index of the outcome one :meth:`uniform` draw selects, exactly.

        With integer outcome weights, running sums S_j and total T,
        ``thresholds[j]`` is the dyadic t_j = ceil(S_j * 2**53 / T) / 2**53,
        exact in a float.  The draw u = N / 2**53 selects the first j with
        u * T < S_j, and ``bisect_right`` finds it by one float comparison
        per step: N integer, so S_j * 2**53 <= N * T <=>
        ceil(S_j * 2**53 / T) <= N <=> t_j <= u.
        """
        return bisect_right(thresholds, self.uniform())

    def outcomes(self, tables: Sequence[bytes]) -> bytes:
        """One outcome code per 256-byte code table (see
        :func:`slot_kernels`), in order: ``table[b]`` for the slot's byte
        b."""
        return bytes(map(getitem, tables, self._take(len(tables))))


# The bytes of a main stream's first read.  Sessions at the paper's sizing
# (k=17, d=41) draw about 150 in the median and at most 207 in the
# benchmark's workloads; the acceptance shapes draw at most 63.
_FIRST_READ = 256
# Per probability p, the verdict of a mark's top byte: 1 (below p), 0 (not
# below) or _EDGE (the byte holds p * 2**53; the low 45 bits of N decide).
_EDGE = 2
# the bytes of a mark's remainder, whose top 45 bits it reads
_RESERVE = 6
_MASK45 = (1 << 45) - 1


@lru_cache(maxsize=1024)
def _below_table(p: float) -> bytes:
    # N < p * 2**53 <=> N < limit for the integer N; top byte b spans
    # [b << 45, (b + 1) << 45)
    limit = math.ceil(p * _TWO53)
    return bytes([1 if (b + 1) << 45 <= limit else 0 if b << 45 >= limit
                  else _EDGE for b in range(256)])


def _settle(marks: bytes, p: float, reserves: bytes) -> bytes:
    """``marks``, their top bytes read through :func:`_below_table`, with
    each ``_EDGE`` mark decided by its remainder: the next 6 bytes of
    ``reserves``, in mark order.

    The mark's 53-bit N is (e << 45) + r, for the edge byte e =
    ceil(p * 2**53) >> 45 and the 45-bit r the reserve holds (read as a
    little-endian integer, shifted right by 3); the mark is 1 iff
    ``N < ceil(p * 2**53)``, which is ``N < p * 2**53``, so iff r is below
    the edge byte's own share of that limit."""
    rest = math.ceil(p * _TWO53) & _MASK45
    marks = bytearray(marks)
    at = 0
    edge = marks.find(_EDGE)
    while edge >= 0:
        marks[edge] = int.from_bytes(reserves[at:at + _RESERVE], "little") >> 3 < rest
        at += _RESERVE
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
    weights; their total, which divides 256; each outcome, a tuple over the
    fields ALICE .. RELAY, None where nothing read; and the 256-byte table
    :func:`_code_table` builds, which maps a stream byte to the code (:func:`outcome_code`) of the
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
    """The 256 bytes that decide one draw of a categorical law from one
    stream byte b: outcome j, of integer weight w_j and code
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
