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
relay sub-steps 5a-5d, 6 verdict); see README for the step map.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from enum import Enum
from hashlib import sha256
from typing import TYPE_CHECKING

from .channel import KeystreamCipher, PhotonCountModel, PhotonSlot
from .qsim import (
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
    reveal_count: int
    mode: ProtocolMode
    belief_rule: BeliefRule | None = None
    error_threshold: float = 0.0
    key_basis: MeasBasis = MeasBasis.RECTILINEAR

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class TamperSpec:
    """Positions, bases, and values of the detection slots (relay-private)."""

    positions: tuple[int, ...]
    bases: tuple[MeasBasis, ...]
    values: tuple[int, ...]

    def encode(self) -> bytes:
        doc = {
            "positions": list(self.positions),
            "bases": [b.value for b in self.bases],
            "values": list(self.values),
        }
        return json.dumps(doc, separators=(",", ":"), sort_keys=True).encode()

    @classmethod
    def decode(cls, raw: bytes) -> "TamperSpec":
        doc = json.loads(raw.decode())
        return cls(tuple(doc["positions"]),
                   tuple(MeasBasis(b) for b in doc["bases"]),
                   tuple(doc["values"]))


@dataclass(frozen=True)
class SessionPlan:
    config: SessionConfig
    tamper: TamperSpec
    key_positions: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_tamper_index",
                           {p: i for i, p in enumerate(self.tamper.positions)})

    @property
    def total_slots(self) -> int:
        return self.config.total_slots

    def is_tamper(self, position: int) -> bool:
        return position in self._tamper_index

    def tamper_preparation(self, position: int) -> tuple[MeasBasis, int]:
        i = self._tamper_index[position]
        return self.tamper.bases[i], self.tamper.values[i]


def plan_session(cfg: SessionConfig, rand: RandomSource) -> SessionPlan:
    """Relay-side draw: uniform tamper subset, then per-slot basis and value."""
    positions = rand.sample_positions(cfg.total_slots, cfg.d)
    bases = []
    values = []
    for _ in positions:
        bases.append(rand.basis())
        values.append(rand.bit())
    taken = set(positions)
    key_positions = tuple(p for p in range(cfg.total_slots) if p not in taken)
    return SessionPlan(cfg, TamperSpec(positions, tuple(bases), tuple(values)),
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
                 threshold: float) -> tuple[bool, float]:
    """Returns (passed, error_rate).  Zero detection slots pass vacuously."""
    if len(observed) != len(expected):
        raise ValueError("observed/expected length mismatch")
    if not observed:
        return True, 0.0
    errors = sum(1 for o, e in zip(observed, expected) if o != e)
    rate = errors / len(observed)
    return rate <= threshold, rate


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

    def first_index(self, step: str | None = None,
                    party: str | None = None) -> int | None:
        for i, (s, p, _) in enumerate(self.entries):
            if (step is None or s == step) and (party is None or p == party):
                return i
        return None


def alice_swap_step(slot: PhotonSlot, cfg: SessionConfig, rand: RandomSource,
                    log: EventLog | None = None) -> SwapRecord:
    """Steps 5a-5c at one key slot: create a pair, graft it onto the slot's
    register, joint-measure the sacrificed half against the received qubit,
    read the kept qubit, and derive the key bit under the configured rule."""
    created = rand.bell_label()
    slot.register.extend_front(prepare_bell(created))
    if log is not None:
        log.add("5a", "alice", f"pos={slot.position} created={created.short()}")
    outcome = measure_bell(slot.register, 1, slot.qubit_index, rand)
    if log is not None:
        log.add("5b", "alice", f"pos={slot.position} outcome={outcome.short()}")
    kept = measure_in_basis(slot.register, 0, MeasBasis.RECTILINEAR, rand)
    believed = believed_state(created, outcome, cfg.belief_rule)
    key_bit = derive_key_bit(believed, kept)
    if log is not None:
        log.add("5c", "alice", f"pos={slot.position} kept={kept} key={key_bit}")
    return SwapRecord(slot.position, created, outcome, kept, believed, key_bit)


@dataclass
class SessionOutcome:
    status: SessionStatus
    plan: SessionPlan
    alice_tamper_error_rate: float | None = None
    bob_tamper_error_rate: float | None = None
    alice_key_bits: tuple[int, ...] | None = None
    bob_key_bits: tuple[int, ...] | None = None
    token: tuple[int, ...] | None = None
    token_matched: bool | None = None
    swap_records: tuple[SwapRecord, ...] | None = None
    failed_checks: tuple[str, ...] = ()
    eve: "EveState | None" = None
    events: EventLog = field(default_factory=EventLog)

    def key_match_fraction(self) -> float | None:
        if self.alice_key_bits is None or self.bob_key_bits is None:
            return None
        hits = sum(1 for a, b in zip(self.alice_key_bits, self.bob_key_bits) if a == b)
        return hits / len(self.alice_key_bits)


def _bits(bits) -> str:
    return "".join(str(b) for b in bits)


def _measure_tamper(slots: list[PhotonSlot], plan: SessionPlan,
                    rand: RandomSource) -> list[int]:
    out = []
    for slot in slots:
        if plan.is_tamper(slot.position):
            basis, _ = plan.tamper_preparation(slot.position)
            out.append(slot.measure(basis, rand))
    return out


def _measure_keys_direct(slots: list[PhotonSlot], plan: SessionPlan,
                         basis: MeasBasis, rand: RandomSource) -> list[int]:
    return [slot.measure(basis, rand) for slot in slots
            if not plan.is_tamper(slot.position)]


def run_session(cfg: SessionConfig, attack: "AttackConfig | None",
                rand: RandomSource, *, photon: PhotonCountModel | None = None,
                p_loss: float = 0.0) -> SessionOutcome:
    """One full session between initiator (alice), responder (bob), and relay.

    The photon-count model and loss probability are channel properties and
    default to ideal (exactly one photon per slot, no loss).
    """
    from .adversary import finish_session, make_eve, stage_attack

    photon = photon or PhotonCountModel()
    log = EventLog()
    eve = make_eve(attack)

    log.add("1", "alice", f"request k={cfg.k} d={cfg.d} mode={cfg.mode.value}")

    plan = plan_session(cfg, rand)
    key_sa = rand.key_bytes(16)
    key_sb = rand.key_bytes(16)
    spec_blob = plan.tamper.encode()
    sealed_a = KeystreamCipher(key_sa).seal(1, spec_blob)
    sealed_b = KeystreamCipher(key_sb).seal(2, spec_blob)
    log.add("2", "server",
            f"tamper spec sealed to both parties spec={spec_blob.decode()}")
    alice_spec = TamperSpec.decode(KeystreamCipher(key_sa).open(1, sealed_a))
    bob_spec = TamperSpec.decode(KeystreamCipher(key_sb).open(2, sealed_b))

    # emission plus any in-flight adversary action; a realtime eavesdropper
    # has decrypted the control traffic by now and taps accordingly
    stream_a, stream_b = stage_attack(plan, photon, p_loss, rand, eve)
    log.add("3", "server", f"emitted {plan.total_slots} slots per path")

    lost = stream_a.lost_positions() + stream_b.lost_positions()
    if lost:
        log.add("3", "server", f"lost slots {sorted(set(lost))}")
        outcome = SessionOutcome(SessionStatus.INCOMPLETE_STREAM, plan,
                                 eve=eve, events=log)
        finish_session(eve, plan, rand)
        return outcome

    swap_mode = cfg.mode is ProtocolMode.SWAP
    outcome = SessionOutcome(SessionStatus.TAMPER_ABORT, plan, eve=eve, events=log)

    # step 4: arrival checks (in BASE mode arrival key measurement too)
    alice_obs = _measure_tamper(stream_a.slots, plan, rand)
    if not swap_mode:
        alice_key = _measure_keys_direct(stream_a.slots, plan, cfg.key_basis, rand)
        outcome.alice_key_bits = tuple(alice_key)
    log.add("4", "alice", f"measured obs={_bits(alice_obs)}"
            + ("" if swap_mode else f" key={_bits(alice_key)}"))
    alice_pass, alice_rate = tamper_check(tuple(alice_obs), alice_spec.values,
                                          cfg.error_threshold)
    outcome.alice_tamper_error_rate = alice_rate
    log.add("4", "alice", f"tamper check rate={alice_rate:.6f} pass={alice_pass}")

    failed = [] if alice_pass else ["alice"]
    if not swap_mode:
        bob_obs = _measure_tamper(stream_b.slots, plan, rand)
        bob_key = _measure_keys_direct(stream_b.slots, plan, cfg.key_basis, rand)
        outcome.bob_key_bits = tuple(bob_key)
        log.add("4", "bob", f"measured obs={_bits(bob_obs)} key={_bits(bob_key)}")
        bob_pass, bob_rate = tamper_check(tuple(bob_obs), bob_spec.values,
                                          cfg.error_threshold)
        outcome.bob_tamper_error_rate = bob_rate
        log.add("4", "bob", f"tamper check rate={bob_rate:.6f} pass={bob_pass}")
        if not bob_pass:
            failed.append("bob")

    if failed:
        outcome.failed_checks = tuple(failed)
        log.add("6", "server", "restart: tamper threshold exceeded")
        finish_session(eve, plan, rand)
        return outcome

    # step 5 (relay sub-steps 5a-5c per key slot in SWAP mode), then the token
    if swap_mode:
        records = []
        for slot in stream_a.slots:
            if not plan.is_tamper(slot.position):
                records.append(alice_swap_step(slot, cfg, rand, log))
        outcome.swap_records = tuple(records)
        outcome.alice_key_bits = tuple(r.key_bit for r in records)

    token = make_token(outcome.alice_key_bits, cfg.reveal_count)
    log.add("5", "alice", f"token={_bits(token)}")  # in clear: no shared key
    outcome.token = token

    if swap_mode:
        # step 5d: the responder measures nothing until the token exists
        bob_obs = _measure_tamper(stream_b.slots, plan, rand)
        bob_key = _measure_keys_direct(stream_b.slots, plan,
                                       MeasBasis.RECTILINEAR, rand)
        outcome.bob_key_bits = tuple(bob_key)
        log.add("5d", "bob", f"measured obs={_bits(bob_obs)} key={_bits(bob_key)}")
        bob_pass, bob_rate = tamper_check(tuple(bob_obs), bob_spec.values,
                                          cfg.error_threshold)
        outcome.bob_tamper_error_rate = bob_rate
        log.add("5d", "bob", f"tamper check rate={bob_rate:.6f} pass={bob_pass}")
        if not bob_pass:
            outcome.failed_checks = ("bob",)
            log.add("6", "server", "restart: tamper threshold exceeded")
            finish_session(eve, plan, rand)
            return outcome

    matched = authenticate(token, outcome.bob_key_bits)
    outcome.token_matched = matched
    outcome.status = SessionStatus.AUTH_ACCEPT if matched else SessionStatus.AUTH_REJECT
    log.add("6", "bob", f"token match={matched}")
    finish_session(eve, plan, rand)
    return outcome
