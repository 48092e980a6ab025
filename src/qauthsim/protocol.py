"""Session state machines for both parties and the relay.

Slot layout: a session has k key slots and d tamper-detection slots mixed
uniformly over k + d positions.  Key slots carry entangled-pair halves; the
key itself is read out either directly (BASE mode) or through the relay
step (SWAP mode), where the initiator creates a fresh pair, joint-measures
one half against the received qubit, and infers the key bit from her kept
qubit plus what she believes the far pair now is.

The two candidate belief rules are both implemented and a session must pick
one explicitly — they disagree on compromised-server behavior and only one
of them keeps honest relay sessions collision-free, so nothing here picks
a default silently.

Event log step ids follow the protocol's own numbering (1 request,
2 tamper spec, 3 emission, 4 arrival measurements and checks, 5 token with
relay sub-steps 5a-5d, 6 verdict); see README for the step map.  Each
party's arrival check is the same routine: measure the detection slots (and
in BASE mode the key slots), then run the tamper check.  Both parties run it
at step 4 in BASE mode; in SWAP mode the responder runs it at 5d, after the
token exists, and only if the initiator passed.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from enum import Enum
from hashlib import sha256
from typing import TYPE_CHECKING

from .channel import PhotonCountModel, PhotonSlot
from .qsim import (
    BASIS_OF_BIT,
    BellKind,
    BellLabel,
    MeasBasis,
    RandomSource,
    bell_compose,
    measure_bell,
    measure_in_basis,
    prepare_bell,
)

if TYPE_CHECKING:  # pragma: no cover
    from .adversary import AttackConfig, EveState


class ProtocolMode(Enum):
    BASE = "base"
    SWAP = "swap"


class BeliefRule(Enum):
    """What the initiator believes the far pair is after her joint measurement.

    COMPOSED: the created label composed with the measured outcome (the
    pair-algebra answer; honest sessions always agree).
    MEASURED: the measured outcome itself (reproduces the published
    compromised-server key-bit table; honest relay sessions then mismatch on
    every psi-kind created pair).
    """

    COMPOSED = "composed"
    MEASURED = "measured"


class SessionStatus(Enum):
    AUTH_ACCEPT = "auth_accept"
    AUTH_REJECT = "auth_reject"
    TAMPER_ABORT = "tamper_abort"
    INCOMPLETE_STREAM = "incomplete_stream"


@dataclass(frozen=True)
class SessionConfig:
    k: int
    d: int
    reveal_count: int | None = None  # None reveals all k key bits
    mode: ProtocolMode = ProtocolMode.BASE
    belief_rule: BeliefRule | None = None
    error_threshold: float = 0.0
    key_basis: MeasBasis = MeasBasis.RECTILINEAR

    def __post_init__(self) -> None:
        if self.reveal_count is None:
            object.__setattr__(self, "reveal_count", self.k)
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.d < 0:
            raise ValueError("d must be non-negative")
        if not 1 <= self.reveal_count <= self.k:
            raise ValueError("reveal_count must be in 1..k")
        if not 0.0 <= self.error_threshold < 1.0:
            raise ValueError("error_threshold must be in [0, 1)")
        if self.mode is ProtocolMode.SWAP:
            if self.belief_rule is None:
                raise ValueError("SWAP mode needs an explicit belief_rule")
            if self.key_basis is not MeasBasis.RECTILINEAR:
                # the pair-kind correlation tables the relay step relies on
                # hold in the computational basis only
                raise ValueError("SWAP mode requires the rectilinear key basis")

    @property
    def total_slots(self) -> int:
        return self.k + self.d


# basis by its value, without the Enum constructor's lookup, and back
_BASES = {basis.value: basis for basis in MeasBasis}
_BASIS_VALUES = {basis: value for value, basis in _BASES.items()}


@dataclass(frozen=True)
class TamperSpec:
    """Positions, bases, and values of the detection slots (relay-private)."""

    positions: tuple[int, ...]
    bases: tuple[MeasBasis, ...]
    values: tuple[int, ...]

    def encode(self) -> bytes:
        doc = {
            "positions": list(self.positions),
            "bases": [_BASIS_VALUES[b] for b in self.bases],
            "values": list(self.values),
        }
        return json.dumps(doc, separators=(",", ":"), sort_keys=True).encode()

    @classmethod
    def decode(cls, raw: bytes) -> "TamperSpec":
        doc = json.loads(raw.decode())
        return cls(tuple(doc["positions"]),
                   tuple([_BASES[b] for b in doc["bases"]]),
                   tuple(doc["values"]))


@dataclass(frozen=True)
class SessionPlan:
    """The relay's layout.  ``decoys`` maps each detection slot's position
    to its (value, basis), the argument order of ``prepare_polarized``."""

    config: SessionConfig
    tamper: TamperSpec
    key_positions: tuple[int, ...]
    decoys: dict[int, tuple[int, MeasBasis]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        tamper = self.tamper
        object.__setattr__(self, "decoys", dict(zip(
            tamper.positions, zip(tamper.values, tamper.bases))))

    @property
    def total_slots(self) -> int:
        return self.config.total_slots


def plan_session(cfg: SessionConfig, rand: RandomSource) -> SessionPlan:
    """Relay-side draw: uniform tamper subset, then per-slot basis and value.
    The 2d bits alternate basis bit, value bit, slot by slot: the draws of
    ``rand.basis()`` then ``rand.bit()`` for each slot."""
    total = cfg.total_slots
    positions = rand.sample_positions(total, cfg.d)
    drawn = rand.bits(2 * cfg.d)
    bases = tuple([BASIS_OF_BIT[b] for b in drawn[::2]])
    taken = set(positions)
    key_positions = tuple([p for p in range(total) if p not in taken])
    return SessionPlan(cfg, TamperSpec(positions, bases, drawn[1::2]),
                       key_positions)


def believed_state(created: BellLabel, outcome: BellLabel,
                   rule: BeliefRule) -> BellLabel:
    if rule is BeliefRule.COMPOSED:
        return bell_compose(created, outcome)
    if rule is BeliefRule.MEASURED:
        return outcome
    raise ValueError(f"unknown belief rule {rule!r}")


def derive_key_bit(believed: BellLabel, kept_result: int) -> int:
    """Phi-kind pairs are correlated in the computational basis, psi-kind
    anti-correlated; the key bit is what the far side should read."""
    if kept_result not in (0, 1):
        raise ValueError("kept_result must be a bit")
    return kept_result if believed.kind is BellKind.PHI else 1 - kept_result


def make_token(key_bits: tuple[int, ...], reveal_count: int) -> tuple[int, ...]:
    if not 1 <= reveal_count <= len(key_bits):
        raise ValueError("reveal_count must be in 1..len(key_bits)")
    return tuple(key_bits[:reveal_count])


def authenticate(token: tuple[int, ...], receiver_bits: tuple[int, ...]) -> bool:
    """Exact prefix match of the revealed bits against the receiver's key bits."""
    if not token:
        raise ValueError("empty token")
    if len(receiver_bits) < len(token):
        raise ValueError("receiver has fewer key bits than the token reveals")
    return all(t == r for t, r in zip(token, receiver_bits))


def tamper_check(observed: tuple[int, ...], expected: tuple[int, ...],
                 threshold: float) -> tuple[bool, int]:
    """Returns (passed, errors): the check passes when the error rate
    errors / d is at most ``threshold``.  Zero detection slots pass
    vacuously."""
    if len(observed) != len(expected):
        raise ValueError("observed/expected length mismatch")
    if not observed:
        return True, 0
    errors = sum(1 for o, e in zip(observed, expected) if o != e)
    return errors / len(observed) <= threshold, errors


@dataclass(frozen=True)
class SwapRecord:
    """One relay step at a key slot."""

    position: int
    created: BellLabel
    outcome: BellLabel
    kept_result: int
    believed: BellLabel
    key_bit: int


class EventLog:
    """Ordered (step id, party, payload) triples with a stable text encoding."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: list[tuple[str, str, str]] = []

    def add(self, step: str, party: str, payload: str) -> None:
        self.entries.append((step, party, payload))

    def lines(self) -> list[str]:
        return [f"{step}\t{party}\t{zlib.crc32(payload.encode()):08x}"
                for step, party, payload in self.entries]

    def text(self) -> str:
        return "\n".join(self.lines())

    def digest(self) -> str:
        return sha256(self.text().encode()).hexdigest()[:16]


def alice_swap_step(slot: PhotonSlot, cfg: SessionConfig, rand: RandomSource,
                    log: EventLog) -> SwapRecord:
    """Steps 5a-5c at one key slot: create a pair, graft it onto the slot's
    register, joint-measure the sacrificed half against the received qubit,
    read the kept qubit, and derive the key bit under the configured rule."""
    created = rand.bell_label()
    slot.register.extend_front(prepare_bell(created))
    log.add("5a", "alice", f"pos={slot.position} created={created.short()}")
    outcome = measure_bell(slot.register, 1, slot.qubit_index, rand)
    log.add("5b", "alice", f"pos={slot.position} outcome={outcome.short()}")
    kept = measure_in_basis(slot.register, 0, MeasBasis.RECTILINEAR, rand)
    believed = believed_state(created, outcome, cfg.belief_rule)
    key_bit = derive_key_bit(believed, kept)
    log.add("5c", "alice", f"pos={slot.position} kept={kept} key={key_bit}")
    return SwapRecord(slot.position, created, outcome, kept, believed, key_bit)


def _error_rate(errors: int | None, d: int) -> float | None:
    """errors / d; 0.0 at d = 0, where the check passes vacuously."""
    return None if errors is None else errors / max(d, 1)


@dataclass
class SessionOutcome:
    """How one session ended.  ``alice_tamper_errors`` and
    ``bob_tamper_errors`` count the detection slots each party read wrong,
    None when that party's check never ran."""

    status: SessionStatus
    plan: SessionPlan
    alice_tamper_errors: int | None = None
    bob_tamper_errors: int | None = None
    alice_key_bits: tuple[int, ...] | None = None
    bob_key_bits: tuple[int, ...] | None = None
    token: tuple[int, ...] | None = None
    token_matched: bool | None = None
    swap_records: tuple[SwapRecord, ...] | None = None
    failed_checks: tuple[str, ...] = ()
    eve: "EveState | None" = None
    events: EventLog = field(default_factory=EventLog)

    @property
    def alice_tamper_error_rate(self) -> float | None:
        return _error_rate(self.alice_tamper_errors, self.plan.config.d)

    @property
    def bob_tamper_error_rate(self) -> float | None:
        return _error_rate(self.bob_tamper_errors, self.plan.config.d)

    def key_matches(self) -> int | None:
        """Key slots where both parties hold the same bit, of k; None
        unless both parties read their keys."""
        if self.alice_key_bits is None or self.bob_key_bits is None:
            return None
        return sum(1 for a, b in zip(self.alice_key_bits, self.bob_key_bits) if a == b)


def _bits(bits) -> str:
    return "".join(map(str, bits))


def run_session(cfg: SessionConfig, attack: "AttackConfig | None",
                rand: RandomSource, *, photon: PhotonCountModel | None = None,
                p_loss: float = 0.0) -> SessionOutcome:
    """One full session between initiator (alice), responder (bob), and relay.

    The photon-count model and loss probability are channel properties and
    default to ideal (exactly one photon per slot, no loss).
    """
    from .adversary import EveState, finish_session, stage_attack

    photon = photon or PhotonCountModel()
    log = EventLog()
    eve = EveState(attack)

    log.add("1", "alice", f"request k={cfg.k} d={cfg.d} mode={cfg.mode.value}")

    plan = plan_session(cfg, rand)
    # step 2: both parties read the detection layout from ``plan.tamper``
    # kept only to keep the draw pattern; ROADMAP item 5's re-pin removes it
    rand.key_bytes(32)
    # kept only to keep event_log_digest; ROADMAP item 5's re-pin removes it
    log.add("2", "server", "tamper spec sealed to both parties spec="
            + plan.tamper.encode().decode())

    # emission plus any in-flight adversary action; a realtime eavesdropper
    # knows the layout by now and taps accordingly
    stream_a, stream_b = stage_attack(plan, photon, p_loss, rand, eve)
    log.add("3", "server", f"emitted {plan.total_slots} slots per path")

    lost = stream_a.lost_positions() + stream_b.lost_positions()
    if lost:
        log.add("3", "server", f"lost slots {sorted(set(lost))}")
        outcome = SessionOutcome(SessionStatus.INCOMPLETE_STREAM, plan,
                                 eve=eve, events=log)
        finish_session(eve, rand)
        return outcome

    swap_mode = cfg.mode is ProtocolMode.SWAP
    outcome = SessionOutcome(SessionStatus.TAMPER_ABORT, plan, eve=eve, events=log)
    # slots are read by position (see QuantumStream)
    tamper = plan.tamper
    key_positions = plan.key_positions

    def arrival(party: str, step: str, slots: list[PhotonSlot],
                keys: bool) -> bool:
        """One party's arrival check: measure the detection slots, then the
        key slots when ``keys``, each in position order, log both lines and
        run the tamper check.  Records the party's error count (and key
        bits) on the outcome."""
        obs = [slots[p].measure(basis, rand)
               for p, basis in zip(tamper.positions, tamper.bases)]
        measured = f"measured obs={_bits(obs)}"
        if keys:
            key_basis = cfg.key_basis
            key = tuple([slots[p].measure(key_basis, rand)
                         for p in key_positions])
            setattr(outcome, f"{party}_key_bits", key)
            measured += f" key={_bits(key)}"
        log.add(step, party, measured)
        passed, errors = tamper_check(tuple(obs), tamper.values,
                                      cfg.error_threshold)
        setattr(outcome, f"{party}_tamper_errors", errors)
        rate = _error_rate(errors, cfg.d)
        log.add(step, party, f"tamper check rate={rate:.6f} pass={passed}")
        if not passed:
            outcome.failed_checks += (party,)
        return passed

    # step 4: arrival checks; in BASE mode both parties also read their keys
    passed = arrival("alice", "4", stream_a.slots, not swap_mode)
    if not swap_mode:
        passed = arrival("bob", "4", stream_b.slots, True) and passed

    if passed:
        # step 5 (relay sub-steps 5a-5c per key slot in SWAP mode), the token
        if swap_mode:
            slots = stream_a.slots
            records = tuple([alice_swap_step(slots[p], cfg, rand, log)
                             for p in key_positions])
            outcome.swap_records = records
            outcome.alice_key_bits = tuple(r.key_bit for r in records)
        token = make_token(outcome.alice_key_bits, cfg.reveal_count)
        log.add("5", "alice", f"token={_bits(token)}")  # in clear: no shared key
        outcome.token = token
        if swap_mode:
            # step 5d: the responder measures nothing until the token exists
            passed = arrival("bob", "5d", stream_b.slots, True)

    if passed:
        matched = authenticate(outcome.token, outcome.bob_key_bits)
        outcome.token_matched = matched
        outcome.status = (SessionStatus.AUTH_ACCEPT if matched
                          else SessionStatus.AUTH_REJECT)
        log.add("6", "bob", f"token match={matched}")
    else:
        log.add("6", "server", "restart: tamper threshold exceeded")
    finish_session(eve, rand)
    return outcome
