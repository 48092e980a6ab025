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
from operator import eq
from typing import TYPE_CHECKING

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

    # identity hash, as ``channel.Path`` has: a session-program key hashes
    # its configs' enum fields
    __hash__ = object.__hash__


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

    __hash__ = object.__hash__


class BasisChoice(Enum):
    RANDOM_PER_SLOT = "random_per_slot"
    FIXED = "fixed"

    __hash__ = object.__hash__


class LocationKnowledge(Enum):
    NEVER = "never"
    AFTER_MEASUREMENT = "after_measurement"
    REALTIME = "realtime"

    __hash__ = object.__hash__


_TAP_KINDS = (AttackKind.INTERCEPT_RESEND, AttackKind.SUBSET_GUESS, AttackKind.PNS)
# Aliases: hot paths compare members by identity without the class lookup.
_INTERCEPT_RESEND, _SUBSET_GUESS, _PNS = _TAP_KINDS
_RANDOM_PER_SLOT = BasisChoice.RANDOM_PER_SLOT
_REALTIME = LocationKnowledge.REALTIME
# a 0 or 1 byte negated
_NOT = bytes.maketrans(b"\x00\x01", b"\x01\x00")


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


@dataclass
class EveState:
    """Everything the adversary accumulates across one session."""

    attack: AttackConfig | None
    measured: dict[tuple[Path, int], tuple[int, MeasBasis]] = field(default_factory=dict)
    split_positions: set[tuple[Path, int]] = field(default_factory=set)
    server_record: dict[int, int] = field(default_factory=dict)
    retained: list[tuple[int, StateRegister]] = field(default_factory=list)

    @property
    def kind(self) -> AttackKind:
        return self.attack.kind if self.attack is not None else AttackKind.NONE


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
        skip = frozenset(plan.tamper.positions)
    else:
        skip = frozenset()
    streams = {Path.TO_ALICE: stream_a, Path.TO_BOB: stream_b}
    for path in attack.path.channel_paths():
        apply_tap(streams[path], _tap(eve, plan, path, rand), skip_positions=skip)
    return stream_a, stream_b


def draw_taps(eve: EveState, plan: "SessionPlan", photon: PhotonCountModel,
              rand: RandomSource) -> tuple[list | None, list | None]:
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
    responder's path, the basis bit each position is read in (None where
    it is not), or None for an untapped path."""
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
    counted = kind is _PNS and photon.p1 < 1.0
    blind = kind is _INTERCEPT_RESEND and not realtime
    random_basis = blind and attack.basis_choice is _RANDOM_PER_SLOT
    basis = attack.fixed_basis if blind else plan.config.key_basis
    bit = int(basis is MeasBasis.DIAGONAL)
    reads: dict[Path, list] = {}
    for path in attack.path.channel_paths():
        row = reads[path] = [None] * total
        if random_basis:
            for position, drawn in zip(targets, rand.bits(len(targets))):
                row[position] = drawn
        elif counted:
            # a photon count is 1 where its uniform draw is below p1
            single = rand.below(len(targets), photon.p1)
            eve.split_positions.update(
                zip(repeat(path), compress(targets, single.translate(_NOT))))
            for position in compress(targets, single):
                row[position] = bit
        else:
            for position in targets:
                row[position] = bit
    return reads.get(Path.TO_ALICE), reads.get(Path.TO_BOB)


def finish_session(eve: EveState, rand: RandomSource) -> None:
    """Post-session adversary action: measure any retained third qubits.
    Never touches party state.  A retained qubit is always its register's
    last, since grafts only go in front; the call goes through the module,
    so a wrapper installed there sees it."""
    for position, reg in eve.retained:
        eve.server_record[position] = qsim.measure_in_basis(
            reg, reg.num_qubits - 1, MeasBasis.RECTILINEAR, rand)
    eve.retained = []


@dataclass(frozen=True)
class KnowledgeReport:
    """What the adversary provably knows about the key after one session:
    the key positions it knows for certain, and ``copy_hits``, the key slots
    where a compromised relay's record equals the responder's bit (None
    without a record or a responder key).  Both count over the k key
    slots."""

    certain_positions: tuple[int, ...]
    copy_hits: int | None

    @property
    def certain(self) -> int:
        return len(self.certain_positions)


_NO_KNOWLEDGE = KnowledgeReport((), None)


def eve_knowledge_report(outcome: "SessionOutcome") -> KnowledgeReport:
    """Certainty is claimed only where the simulation guarantees it: a direct
    measurement in the very basis the parties use (direct-readout mode only),
    or a split photon at a key slot measured once bases are public.  Relay
    compromises are scored separately by the key slots where the relay's
    record equals the responder's bit; the relay records every key slot."""
    eve, plan = outcome.eve, outcome.plan
    if not (eve.measured or eve.split_positions or eve.server_record):
        return _NO_KNOWLEDGE  # honest sessions, and every lost stream
    cfg = plan.config
    certain: set[int] = set()
    # protocol imports this module, so the mode is read by its value
    if cfg.mode.value == "base":
        key_set = set(plan.key_positions)
        key_basis = cfg.key_basis
        certain.update([pos for (_path, pos), (_bit, basis) in eve.measured.items()
                        if basis is key_basis and pos in key_set])
        certain.update([pos for _path, pos in eve.split_positions
                        if pos in key_set])

    copy_hits: int | None = None
    if eve.server_record and outcome.bob_key_bits is not None:
        # the relay records every key slot, and only those
        copy_hits = sum(map(eq, map(eve.server_record.get, plan.key_positions),
                            outcome.bob_key_bits))

    return KnowledgeReport(tuple(sorted(certain)), copy_hits)
