"""Adversary models: in-flight taps and compromised-relay sources.

Three in-flight attacks act on photons in transit (intercept-resend,
subset guessing, photon-number splitting) and two relay compromises
replace the key-slot source itself (product states carrying a bit the
relay knows, or triples with a retained third qubit).  Every attack is
driven by the same RandomSource discipline as the honest parties, so a
whole attacked session replays byte-identically from its seed.

Location knowledge models what the adversary learns about which slots
are detection slots: NEVER, only after the session (too late to change
anything the session does, so it runs exactly as NEVER), or in real time
from the control traffic, in which case taps skip detection slots entirely
and read key slots in the key basis.

In a session the adversary makes its session-level draws in
:func:`draw_taps` (which slots each tap reads, in which basis, and which
it splits); its reads, the relay's planted bits and its retained qubits'
values then come out of each slot's kernel draw.  The per-photon path —
:func:`stage_attack`, the ``_emit_server_*`` sources, :func:`_tap` and
:func:`finish_session` — is off the session path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import compress, repeat
from typing import TYPE_CHECKING, NamedTuple

# The relay-compromise emitters reach build_streams through its module, not
# through this module's name for it, which the benchmark's tracer wraps: one
# emission then counts once.
from . import channel, qsim
from .channel import (
    Half,
    Path,
    PhotonCountModel,
    PhotonSlot,
    QuantumStream,
    apply_loss,
    apply_tap,
    build_streams,
)
from .qsim import (
    BASIS_OF_BIT,
    MeasBasis,
    RandomSource,
    StateRegister,
    prepare_ghz,
    prepare_polarized,
)

if TYPE_CHECKING:  # pragma: no cover
    from .protocol import SessionOutcome, SessionPlan


class AttackKind(Enum):
    NONE = "none"
    INTERCEPT_RESEND = "intercept_resend"
    SUBSET_GUESS = "subset_guess"
    PNS = "pns"
    SERVER_PRODUCT = "server_product"
    SERVER_GHZ = "server_ghz"


class TapPath(Enum):
    TO_ALICE = "to_alice"
    TO_BOB = "to_bob"
    BOTH = "both"

    def channel_paths(self) -> tuple[Path, ...]:
        if self is TapPath.TO_ALICE:
            return (Path.TO_ALICE,)
        if self is TapPath.TO_BOB:
            return (Path.TO_BOB,)
        return (Path.TO_ALICE, Path.TO_BOB)


class BasisChoice(Enum):
    RANDOM_PER_SLOT = "random_per_slot"
    FIXED = "fixed"


class LocationKnowledge(Enum):
    NEVER = "never"
    AFTER_MEASUREMENT = "after_measurement"
    REALTIME = "realtime"


_TAP_KINDS = (AttackKind.INTERCEPT_RESEND, AttackKind.SUBSET_GUESS, AttackKind.PNS)
# Aliases: hot paths compare members by identity without the class lookup.
_INTERCEPT_RESEND, _SUBSET_GUESS, _PNS = _TAP_KINDS
_RANDOM_PER_SLOT = BasisChoice.RANDOM_PER_SLOT
_REALTIME = LocationKnowledge.REALTIME
# a 0 or 1 byte negated; a basis bit as its tap code, 1 + the bit; by
# basis bit b, a 0 or 1 mark as the tap code of a read in basis b where it
# is 1; and by basis bit b, a tap code as 1 where it reads in basis b, else 0
_NOT = bytes.maketrans(b"\x00\x01", b"\x01\x00")
_READ_IN = bytes.maketrans(b"\x00\x01", b"\x01\x02")
_READ_WHERE = tuple([bytes.maketrans(b"\x01", bytes([1 + bit])) for bit in (0, 1)])
_IN_BASIS = tuple([bytes([int(code == 1 + bit) for code in range(256)])
                   for bit in (0, 1)])


@dataclass(frozen=True)
class AttackConfig:
    kind: AttackKind
    path: TapPath = TapPath.TO_BOB
    basis_choice: BasisChoice = BasisChoice.RANDOM_PER_SLOT
    fixed_basis: MeasBasis = MeasBasis.RECTILINEAR
    guess_count: int | None = None
    location_knowledge: LocationKnowledge = LocationKnowledge.NEVER

    def __post_init__(self) -> None:
        if self.kind is AttackKind.SUBSET_GUESS:
            if self.guess_count is None or self.guess_count < 1:
                raise ValueError("subset guessing needs guess_count >= 1")
            if self.location_knowledge is LocationKnowledge.REALTIME:
                raise ValueError("guessing under realtime knowledge is vacuous")
        elif self.guess_count is not None:
            raise ValueError("guess_count only applies to subset guessing")
        if (self.kind not in _TAP_KINDS
                and self.location_knowledge is not LocationKnowledge.NEVER):
            raise ValueError("location knowledge only applies to in-flight taps")
        # hashed once, as ``PhotonCountModel`` is
        object.__setattr__(self, "_hash", hash((
            self.kind, self.path, self.basis_choice, self.fixed_basis,
            self.guess_count, self.location_knowledge)))

    def __hash__(self) -> int:
        return self._hash


@dataclass
class EveState:
    """Everything the adversary accumulates across one session.

    A session keeps its taps' reads as ``rows``, one per tapped path:
    (path, positions, codes, outcomes, field).  ``positions`` are the
    slots in the order they were read, ``codes`` each slot's tap code
    (0 unread, 1 + basis bit read, as :func:`draw_taps` gives them),
    ``outcomes`` each slot's outcome code (see
    :func:`~qauthsim.qsim.outcome_code`) and ``field`` the outcome field
    that holds eve's read, the shift of its bit in the code.  ``measured``
    maps (path, position) to the read (bit, basis); it is built from the
    rows on first access, and the per-photon tap :func:`_tap` writes its
    reads into that dict.  A compromised relay's record is kept twice in a
    session: ``server_record`` maps each key position to its recorded bit,
    and ``key_record`` holds the same bits, one byte per key slot in
    ``plan.key_positions`` order."""

    attack: AttackConfig | None
    split_positions: set[tuple[Path, int]] = field(default_factory=set)
    server_record: dict[int, int] = field(default_factory=dict)
    key_record: bytes = b""
    retained: list[tuple[int, StateRegister]] = field(default_factory=list)
    rows: tuple[tuple, ...] = ()
    _measured: dict[tuple[Path, int], tuple[int, MeasBasis]] | None = field(
        default=None, repr=False, compare=False)

    @property
    def kind(self) -> AttackKind:
        return self.attack.kind if self.attack is not None else AttackKind.NONE

    @property
    def measured(self) -> dict[tuple[Path, int], tuple[int, MeasBasis]]:
        measured = self._measured
        if measured is None:
            measured = self._measured = {
                (path, position): (out >> read & 1, BASIS_OF_BIT[code - 1])
                for path, positions, codes, outcomes, read in self.rows
                for position, code, out in zip(positions, codes, outcomes)
                if code}
        return measured


def _emit_server_product(plan: "SessionPlan", model: PhotonCountModel,
                         rand: RandomSource, eve: EveState
                         ) -> tuple[QuantumStream, QuantumStream]:
    """Compromised relay: key slots carry identical polarized photons whose
    value the relay records; detection slots stay honest (the relay wrote
    the slot layout, so its checks always pass)."""
    basis = plan.config.key_basis

    def planted(position: int) -> tuple[Half, Half]:
        x = rand.bit()
        eve.server_record[position] = x
        return (prepare_polarized(x, basis), 0), (prepare_polarized(x, basis), 0)

    return channel.build_streams(plan, model, rand, planted)


def _emit_server_ghz(plan: "SessionPlan", model: PhotonCountModel,
                     rand: RandomSource, eve: EveState
                     ) -> tuple[QuantumStream, QuantumStream]:
    """Compromised relay: key slots come from three-way entangled triples;
    the relay keeps the third qubit and measures it after the session."""

    def triple(position: int) -> tuple[Half, Half]:
        reg = prepare_ghz()
        eve.retained.append((position, reg))
        return (reg, 0), (reg, 1)

    return channel.build_streams(plan, model, rand, triple)


def _tap(eve: EveState, plan: "SessionPlan", path: Path, rand: RandomSource):
    """The in-flight tap on one path.  A PNS attacker splits one photon off
    a multi-photon slot, with no disturbance; every other tapped slot is
    measured.  An intercept-resend attacker that does not know the slot
    layout measures in a random or fixed basis; every other attacker
    measures in the key basis."""
    attack = eve.attack
    split = attack.kind is AttackKind.PNS
    blind = (attack.kind is AttackKind.INTERCEPT_RESEND
             and attack.location_knowledge is not LocationKnowledge.REALTIME)
    random_basis = blind and attack.basis_choice is BasisChoice.RANDOM_PER_SLOT
    basis = attack.fixed_basis if blind else plan.config.key_basis

    def tap(slot: PhotonSlot) -> None:
        if split and slot.photon_count >= 2:
            slot.photon_count -= 1
            eve.split_positions.add((path, slot.position))
            return
        b = rand.basis() if random_basis else basis
        eve.measured[(path, slot.position)] = (slot.measure(b, rand), b)

    return tap


def stage_attack(plan: "SessionPlan", photon: PhotonCountModel, p_loss: float,
                 rand: RandomSource, eve: EveState
                 ) -> tuple[QuantumStream, QuantumStream]:
    """Emit both quantum streams, apply channel loss, then run any in-flight
    taps over the surviving slots.  Draw order is fixed: emission, loss on
    the initiator path, loss on the responder path, the subset guess, taps
    in path order."""
    kind = eve.kind
    if kind is AttackKind.SERVER_PRODUCT:
        stream_a, stream_b = _emit_server_product(plan, photon, rand, eve)
    elif kind is AttackKind.SERVER_GHZ:
        stream_a, stream_b = _emit_server_ghz(plan, photon, rand, eve)
    else:
        stream_a, stream_b = build_streams(plan, photon, rand)

    apply_loss(stream_a, p_loss, rand)
    apply_loss(stream_b, p_loss, rand)

    if kind not in _TAP_KINDS:
        return stream_a, stream_b

    attack = eve.attack
    if kind is AttackKind.SUBSET_GUESS:
        guessed = rand.sample_positions(plan.total_slots, attack.guess_count)
        skip = frozenset(range(plan.total_slots)).difference(guessed)
    elif attack.location_knowledge is LocationKnowledge.REALTIME:
        # decrypted control traffic names the detection slots
        skip = frozenset(plan.positions)
    else:
        skip = frozenset()
    streams = {Path.TO_ALICE: stream_a, Path.TO_BOB: stream_b}
    for path in attack.path.channel_paths():
        apply_tap(streams[path], _tap(eve, plan, path, rand), skip_positions=skip)
    return stream_a, stream_b


def draw_taps(eve: EveState, plan: "SessionPlan", photon: PhotonCountModel,
              rand: RandomSource) -> tuple[bytes | None, bytes | None]:
    """The in-flight taps' session-level draws: the subset guess, then per
    tapped path in path order, slot by slot in position order over the
    slots the tap targets, a PNS tap's photon count (none from an ideal
    source) or a blind random-basis tap's basis bit.

    The tap targets the guessed slots of a subset guess, the key slots under
    realtime location knowledge, and every slot otherwise.  A PNS tap splits
    a multi-photon slot, with no disturbance, and records the split on
    ``eve``; every other targeted slot is read.  A blind intercept-resend
    tap (no realtime knowledge) reads in its random or fixed basis, every
    other tap in the key basis.  Returns, for the initiator's and the
    responder's path, a row of one tap code per position: 0 where the slot
    is not read, 1 + the basis bit it is read in where it is; None for an
    untapped path."""
    attack = eve.attack
    kind = eve.kind
    if kind not in _TAP_KINDS:
        return None, None
    total = plan.total_slots
    realtime = attack.location_knowledge is _REALTIME
    if kind is _SUBSET_GUESS:
        targets = rand.sample_positions(total, attack.guess_count)
    elif realtime:
        # decrypted control traffic names the detection slots
        targets = plan.key_positions
    else:
        targets = range(total)
    count = len(targets)
    counted = kind is _PNS and photon.p1 < 1.0
    blind = kind is _INTERCEPT_RESEND and not realtime
    random_basis = blind and attack.basis_choice is _RANDOM_PER_SLOT
    basis = attack.fixed_basis if blind else plan.config.key_basis
    bit = int(basis is MeasBasis.DIAGONAL)
    rows: dict[Path, bytes] = {}
    for path in attack.path.channel_paths():
        # the tap code of each target, in target order
        if random_basis:
            codes = rand.bits(count).translate(_READ_IN)
        elif counted:
            # a photon count is 1 where its uniform draw is below p1
            single = rand.below(count, photon.p1)
            eve.split_positions.update(
                zip(repeat(path), compress(targets, single.translate(_NOT))))
            codes = single.translate(_READ_WHERE[bit])
        else:
            codes = bytes([1 + bit]) * count
        if count < total:
            row = bytearray(total)
            for position, code in zip(targets, codes):
                row[position] = code
            codes = bytes(row)
        rows[path] = codes
    return rows.get(Path.TO_ALICE), rows.get(Path.TO_BOB)


def finish_session(eve: EveState, rand: RandomSource) -> None:
    """Post-session adversary action: measure any retained third qubits.
    Never touches party state.  A retained qubit is always its register's
    last, since qubits are only added in front; the call goes through the module,
    so a wrapper installed there sees it."""
    for position, reg in eve.retained:
        eve.server_record[position] = qsim.measure_in_basis(
            reg, reg.num_qubits - 1, MeasBasis.RECTILINEAR, rand)
    eve.retained = []


class KnowledgeReport(NamedTuple):
    """What the adversary provably knows about the key after one session,
    over the key slots ``key_positions`` (empty in the shared report of a
    session that leaves the adversary no record): ``known`` holds one byte
    per key slot, read as one integer, 1 where the adversary knows the
    slot's bit for certain; ``copy_hits`` counts the key slots where a
    compromised relay's record equals the responder's bit (None without a
    record or a responder key).  ``certain`` counts the known key slots,
    and ``certain_positions`` lists them, sorted, each built on access."""

    key_positions: tuple[int, ...]
    copy_hits: int | None
    known: int = 0

    @property
    def certain(self) -> int:
        return self.known.bit_count()

    @property
    def certain_positions(self) -> tuple[int, ...]:
        marks = self.known.to_bytes(len(self.key_positions), "big")
        return tuple(compress(self.key_positions, marks))


_NO_KNOWLEDGE = KnowledgeReport((), None)


def eve_knowledge_report(outcome: "SessionOutcome") -> KnowledgeReport:
    """Certainty is claimed only where the simulation guarantees it: a direct
    measurement in the very basis the parties use (direct-readout mode only),
    or a split photon at a key slot measured once bases are public.  Relay
    compromises are scored separately by the key slots where the relay's
    record equals the responder's bit; the relay records every key slot.

    Both are counts over bytes the session holds in key-slot order.  The
    reads come from ``eve.rows``, whose slots a session reads detection
    slots first, then the key slots in ``plan.key_positions`` order: a key
    slot is known where any tapped path read it in the key basis, the OR of
    the rows' key-slot codes through ``_IN_BASIS``, or split its photon.
    The copy hits are the key slots where ``eve.key_record`` and the
    responder's bits agree."""
    eve, plan = outcome.eve, outcome.plan
    if not (eve.rows or eve.split_positions or eve.key_record):
        return _NO_KNOWLEDGE  # honest sessions, and every lost stream
    cfg = plan.config
    key_positions = plan.key_positions
    known = 0
    # protocol imports this module, so the mode is read by its value
    if cfg.mode.value == "base":
        d = cfg.d
        in_key_basis = _IN_BASIS[cfg.key_basis is MeasBasis.DIAGONAL]
        for _path, _positions, codes, _outcomes, _field in eve.rows:
            known |= int.from_bytes(codes[d:].translate(in_key_basis), "big")
        if eve.split_positions:
            split = {position for _path, position in eve.split_positions}
            known |= int.from_bytes(bytes(map(split.__contains__,
                                              key_positions)), "big")

    copy_hits: int | None = None
    bob = outcome.bob_key_bits
    if eve.key_record and bob is not None:
        # the relay records every key slot, and only those
        copy_hits = len(key_positions) - (
            int.from_bytes(eve.key_record, "big")
            ^ int.from_bytes(bob, "big")).bit_count()

    return KnowledgeReport(key_positions, copy_hits, known)
