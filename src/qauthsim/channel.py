"""Quantum paths and the classical side channel.

A quantum path is a sequence of photon slots, one per protocol position.
A slot deliberately carries no preparation metadata: an observer holding it
sees the position, the photon count, and the qubit itself — whether the
slot is a key slot or a detection slot, and which basis it was prepared in,
lives only in the session plan held by the legitimate parties.

Key slots on the two paths share one register (the two halves of an
entangled pair); detection slots are independent single-qubit registers
prepared identically on both paths.

Sessions draw only the loss marks here (:func:`draw_loss`); each slot's
photons are then sampled whole from its kernel (see
:func:`~qauthsim.qsim.slot_kernels`).  The per-photon objects and loops —
:class:`PhotonSlot`, :class:`QuantumStream`, :func:`build_streams`,
:func:`apply_loss` and :func:`apply_tap` — are off the session path: a
reference the tests drive directly.

The classical channel is readable by everyone.  In the protocol the relay
sends each party the detection layout under a key the two share; no attack
here touches that traffic, so sessions hand the parties the plan's layout
and seal nothing.  ``KeystreamCipher`` is a reference sealed-message cipher
(deterministic, dependency-free, and explicitly not security-reviewed) that
no session calls.  The token message rides in clear because the two
parties share no key — that is the problem the protocol exists to solve.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, TYPE_CHECKING

from . import qsim
from .qsim import (
    MeasBasis,
    RandomSource,
    StateRegister,
    prepare_bell,
    prepare_polarized,
    BellLabel,
)

if TYPE_CHECKING:  # pragma: no cover
    from .protocol import SessionPlan


class ChannelError(Exception):
    pass


class TamperedMessageError(ChannelError):
    """Authentication tag mismatch on a sealed classical message."""


class Path(Enum):
    TO_ALICE = "to_alice"
    TO_BOB = "to_bob"

    # members are singletons compared by identity, so the identity hash
    # agrees with equality; Enum's own hash is a Python-level call, made
    # for every (path, position) key of the adversary's record
    __hash__ = object.__hash__


@dataclass(frozen=True)
class PhotonCountModel:
    """Two-valued photon-number model: a slot carries 1 photon with
    probability p1, else 2."""

    p1: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.p1 <= 1.0:
            raise ValueError("p1 must be in (0, 1]")
        # hashed once: a session-program key hashes it for every session
        object.__setattr__(self, "_hash", hash((self.p1,)))

    def __hash__(self) -> int:
        return self._hash

    def sample(self, rand: RandomSource) -> int:
        if self.p1 >= 1.0:
            return 1
        return 1 if rand.uniform() < self.p1 else 2


class PhotonSlot:
    """One time slot on a quantum path: qubit ``index`` of ``register``, plus
    the photon count and loss flag.

    The qubit is held as ``tail``, its distance from the register's last
    qubit, and its index is read as ``register.n - 1 - tail``:
    :meth:`StateRegister.extend_front` only adds qubits in front, so the
    tail of a slot's qubit never changes while its index grows.
    """

    __slots__ = ("position", "register", "tail", "photon_count", "lost")

    def __init__(self, position: int, register: StateRegister, index: int,
                 photon_count: int = 1) -> None:
        self.position = position
        self.register = register
        self.tail = register.n - 1 - index
        self.photon_count = photon_count
        self.lost = False

    @property
    def qubit_index(self) -> int:
        return self.register.n - 1 - self.tail

    def measure(self, basis: MeasBasis, rand: RandomSource) -> int:
        if self.lost:
            raise ChannelError(f"slot {self.position} was lost in transit")
        # through the module, so a wrapper installed there sees the call
        register = self.register
        return qsim.measure_in_basis(register, register.n - 1 - self.tail,
                                     basis, rand)

    def __repr__(self) -> str:
        flags = " lost" if self.lost else ""
        return f"PhotonSlot(pos={self.position}, photons={self.photon_count}{flags})"


@dataclass
class QuantumStream:
    """One path's slots.  ``slots[p]`` is the slot at position ``p``:
    :func:`build_streams` emits one slot per position in order, and loss
    and taps only flag or touch slots, never drop or reorder them."""

    path: Path
    slots: list[PhotonSlot]

    def lost_positions(self) -> tuple[int, ...]:
        return tuple(s.position for s in self.slots if s.lost)


# One half of a key slot: a register and the index of the qubit sent.
Half = tuple[StateRegister, int]


def _entangled_pair(position: int) -> tuple[Half, Half]:
    reg = prepare_bell(BellLabel.PHI_PLUS)
    return (reg, 0), (reg, 1)


def build_streams(plan: "SessionPlan", model: PhotonCountModel,
                  rand: RandomSource,
                  key_slot: Callable[[int], tuple[Half, Half]] = _entangled_pair
                  ) -> tuple[QuantumStream, QuantumStream]:
    """Emission: identical twin polarized photons on detection slots, and
    on each key slot the two halves ``key_slot(position)`` returns (by
    default the honest entangled pair).  ``key_slot`` is called before the
    slot's two photon-count draws; an ideal source (``p1 == 1``) draws no
    photon counts."""
    to_alice: list[PhotonSlot] = []
    to_bob: list[PhotonSlot] = []
    decoys = plan.decoys
    sample = None if model.p1 >= 1.0 else model.sample
    count_a = count_b = 1
    for position in range(plan.total_slots):
        decoy = decoys.get(position)
        if decoy is not None:
            half_a = (prepare_polarized(*decoy), 0)
            half_b = (prepare_polarized(*decoy), 0)
        else:
            half_a, half_b = key_slot(position)
        if sample is not None:
            count_a = sample(rand)
            count_b = sample(rand)
        to_alice.append(PhotonSlot(position, *half_a, count_a))
        to_bob.append(PhotonSlot(position, *half_b, count_b))
    return (QuantumStream(Path.TO_ALICE, to_alice),
            QuantumStream(Path.TO_BOB, to_bob))


def draw_loss(slots: int, p_loss: float, rand: RandomSource) -> list[int]:
    """Loss marks for one session: each of the ``slots`` photons on each
    path is lost independently with probability p_loss, one mark per
    photon from the stream's loss substream
    (:meth:`~qauthsim.qsim.RandomSource.loss_marks`, one substream byte per
    mark and 6 more for the rare mark that byte leaves open), the
    initiator's path first.  Returns the positions lost on either path,
    sorted.  The marks touch none of the stream's other draws, so a lost
    stream never reads its main stream, and an arriving one draws the rest
    of its session as the p_loss = 0 session of the same stream would; no
    mark is drawn at p_loss = 0."""
    if not 0.0 <= p_loss < 1.0:
        raise ValueError("p_loss must be in [0, 1)")
    if p_loss == 0.0:
        return []
    marks = rand.loss_marks(2 * slots, p_loss)
    # few photons are lost, so each lost mark is found by a byte search
    lost = []
    at = marks.find(1)
    while at >= 0:
        lost.append(at % slots)
        at = marks.find(1, at + 1)
    return sorted(set(lost))


def apply_loss(stream: QuantumStream, p_loss: float, rand: RandomSource) -> int:
    """Mark each slot lost independently with probability p_loss; returns count."""
    if not 0.0 <= p_loss < 1.0:
        raise ValueError("p_loss must be in [0, 1)")
    if p_loss == 0.0:
        return 0
    lost = 0
    for slot in stream.slots:
        if rand.uniform() < p_loss:
            slot.lost = True
            lost += 1
    return lost


def apply_tap(stream: QuantumStream, tap: Callable[[PhotonSlot], None],
              skip_positions: Iterable[int] = ()) -> int:
    """Run an adversary tap over every surviving slot, in position order."""
    skip = frozenset(skip_positions)
    touched = 0
    for slot in stream.slots:
        if slot.lost or slot.position in skip:
            continue
        tap(slot)
        touched += 1
    return touched


# --- classical side ------------------------------------------------------------

class KeystreamCipher:
    """Reference sealed-message cipher: SHA-256 keystream XOR plus a 16-byte tag.

    Pluggable stand-in for a real authenticated cipher.  Not security-reviewed;
    good enough to make "Eve reads but cannot usefully modify" executable.
    No session calls it.
    """

    TAG_LEN = 16

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise ValueError("key must be at least 16 bytes")
        self._key = bytes(key)

    def _stream(self, nonce: int, length: int) -> int:
        """The keystream as one big-endian integer.  Block ``i`` is SHA-256
        of key, nonce and ``i``; the key and nonce prefix is hashed once and
        its state copied for each block."""
        prefix = hashlib.sha256(self._key + b"|ks|%d|" % nonce)
        out = bytearray()
        counter = 0
        while len(out) < length:
            block = prefix.copy()
            block.update(b"%d" % counter)
            out.extend(block.digest())
            counter += 1
        return int.from_bytes(out[:length], "big")

    def _xor(self, nonce: int, data: bytes) -> bytes:
        """``data`` XOR the keystream, computed as one integer XOR."""
        size = len(data)
        mixed = int.from_bytes(data, "big") ^ self._stream(nonce, size)
        return mixed.to_bytes(size, "big")

    def seal(self, nonce: int, plaintext: bytes) -> bytes:
        body = self._xor(nonce, plaintext)
        tag = hashlib.sha256(self._key + b"|tag|%d|" % nonce + body).digest()[:self.TAG_LEN]
        return body + tag

    def open(self, nonce: int, blob: bytes) -> bytes:
        if len(blob) < self.TAG_LEN:
            raise TamperedMessageError("sealed message too short")
        body, tag = blob[:-self.TAG_LEN], blob[-self.TAG_LEN:]
        want = hashlib.sha256(self._key + b"|tag|%d|" % nonce + body).digest()[:self.TAG_LEN]
        if tag != want:
            raise TamperedMessageError("authentication tag mismatch")
        return self._xor(nonce, body)
