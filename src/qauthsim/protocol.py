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

:func:`run_session` samples every slot whole, with one draw from its exact
kernel (:func:`~qauthsim.qsim.slot_kernels`), and assembles both parties'
bits, the relay steps and the event log from the outcomes.  The
per-photon relay step :func:`alice_swap_step` is off the session path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from hashlib import sha256
from itertools import repeat
from operator import eq, ne
from typing import NamedTuple

from .adversary import AttackConfig, AttackKind, EveState, draw_taps
from .channel import Path, PhotonCountModel, PhotonSlot, draw_loss
from .qsim import (
    ALICE,
    BASIS_OF_BIT,
    BELL_ORDER,
    BOB,
    EVE_A,
    EVE_B,
    PAIR_SOURCE,
    RELAY,
    SERVER,
    TRIPLE_SOURCE,
    BellKind,
    BellLabel,
    MeasBasis,
    RandomSource,
    bell_compose,
    measure_bell,
    measure_in_basis,
    prepare_bell,
    slot_kernels,
)

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
    # None reveals all k key bits, also after dataclasses.replace changes k;
    # configs compare by the count the token reveals, ``revealed``
    reveal_count: int | None = field(default=None, compare=False)
    mode: ProtocolMode = ProtocolMode.BASE
    belief_rule: BeliefRule | None = None
    error_threshold: float = 0.0
    key_basis: MeasBasis = MeasBasis.RECTILINEAR
    revealed: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "revealed", self.k if self.reveal_count is None
                           else self.reveal_count)
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.d < 0:
            raise ValueError("d must be non-negative")
        if not 1 <= self.revealed <= self.k:
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
_DIAGONAL = MeasBasis.DIAGONAL
_TO_ALICE, _TO_BOB = Path.TO_ALICE, Path.TO_BOB
_IDEAL_SOURCE = PhotonCountModel()


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
    to its (value, basis), the argument order of ``prepare_polarized``;
    ``twin_sources`` holds each detection slot's kernel source index,
    2 * basis bit + value (see :func:`~qauthsim.qsim.slot_kernels`)."""

    config: SessionConfig
    tamper: TamperSpec
    key_positions: tuple[int, ...]

    # each built on first use
    @cached_property
    def decoys(self) -> dict[int, tuple[int, MeasBasis]]:
        tamper = self.tamper
        return dict(zip(tamper.positions, zip(tamper.values, tamper.bases)))

    @cached_property
    def twin_sources(self) -> tuple[int, ...]:
        tamper = self.tamper
        return tuple([2 * (basis is _DIAGONAL) + value
                      for basis, value in zip(tamper.bases, tamper.values)])

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
    errors = sum(map(ne, observed, expected))
    return errors / len(observed) <= threshold, errors


class SwapRecord(NamedTuple):
    """One relay step at a key slot."""

    position: int
    created: BellLabel
    outcome: BellLabel
    kept_result: int
    believed: BellLabel
    key_bit: int


class EventLog:
    """Ordered (step id, party, payload) triples with a stable text
    encoding: one line per entry, its three fields joined by tabs.  No
    field holds a tab or a line break."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: list[tuple[str, str, str]] = []

    def add(self, step: str, party: str, payload: str) -> None:
        self.entries.append((step, party, payload))

    def lines(self) -> list[str]:
        return list(map("\t".join, self.entries))

    def text(self) -> str:
        return "\n".join(map("\t".join, self.entries))

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
    eve: EveState | None = None
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
        return sum(map(eq, self.alice_key_bits, self.bob_key_bits))


_BIT_TEXT = bytes.maketrans(b"\x00\x01", b"01")


def _bits(bits) -> str:
    """A sequence of bits as text, e.g. (0, 1, 1) as "011"."""
    return bytes(bits).translate(_BIT_TEXT).decode()


def run_session(cfg: SessionConfig, attack: AttackConfig | None,
                rand: RandomSource, *, photon: PhotonCountModel | None = None,
                p_loss: float = 0.0) -> SessionOutcome:
    """One full session between initiator (alice), responder (bob), and relay.

    The photon-count model and loss probability are channel properties and
    default to ideal (exactly one photon per slot, no loss).

    Draw order: the plan, the loss marks (a lost photon ends the session
    there, before any slot is read), the adversary's session-level draws
    (:func:`draw_taps`), then the slots (:func:`_read_slots`): the key
    slots' planted bits or created pair labels, and one categorical draw
    per slot from its exact kernel.  All reads of a slot come from that one
    draw, so a party's bits exist before its step; in SWAP mode the
    responder's bits are reported only once the initiator has passed.
    """
    log = EventLog()
    eve = EveState(attack)
    log.add("1", "alice", f"request k={cfg.k} d={cfg.d} mode={cfg.mode.value}")

    plan = plan_session(cfg, rand)
    total = plan.total_slots
    # step 2: the relay sends each party the layout, which both read from
    # ``plan.tamper``; step 3: it emits one photon per slot on each path
    for party in ("alice", "bob"):
        log.add("2", "server", f"tamper spec sent to {party}")
    for party in ("alice", "bob"):
        log.add("3", "server", f"emitted {total} slots to {party}")
    lost = draw_loss(total, p_loss, rand)
    if lost:
        log.add("3", "server", f"lost slots {lost}")
        return SessionOutcome(SessionStatus.INCOMPLETE_STREAM, plan,
                              eve=eve, events=log)

    taps = draw_taps(eve, plan, photon or _IDEAL_SOURCE, rand)
    decoys, keys, created = _read_slots(plan, eve, taps, rand)
    swap_mode = cfg.mode is ProtocolMode.SWAP
    tamper = plan.tamper
    key_positions = plan.key_positions

    outcome = SessionOutcome(SessionStatus.TAMPER_ABORT, plan, eve=eve, events=log)

    def arrival(party: str, step: str, field: int, read_keys: bool) -> bool:
        """One party's arrival check: its detection-slot bits, then its key
        bits when ``read_keys``, each on a log line, then the tamper check.
        Records the party's error count (and key bits) on the outcome."""
        obs = tuple([out[field] for out in decoys])
        log.add(step, party, f"measured obs={_bits(obs)}")
        if read_keys:
            key = tuple([out[field] for out in keys])
            setattr(outcome, f"{party}_key_bits", key)
            log.add(step, party, f"measured key={_bits(key)}")
        passed, errors = tamper_check(obs, tamper.values, cfg.error_threshold)
        setattr(outcome, f"{party}_tamper_errors", errors)
        rate = _error_rate(errors, cfg.d)
        log.add(step, party, f"tamper check rate={rate:.6f} pass={passed}")
        if not passed:
            outcome.failed_checks += (party,)
        return passed

    # step 4: arrival checks; in BASE mode both parties also read their keys
    passed = arrival("alice", "4", ALICE, not swap_mode)
    if not swap_mode:
        passed = arrival("bob", "4", BOB, True) and passed

    if passed:
        # step 5 (relay sub-steps 5a-5c per key slot in SWAP mode), the token
        if swap_mode:
            key_rule = _KEY_RULES[cfg.belief_rule]
            records = tuple([_relay_step(p, label, out, key_rule, log)
                             for p, label, out in zip(key_positions, created, keys)])
            outcome.swap_records = records
            outcome.alice_key_bits = tuple([r.key_bit for r in records])
        token = make_token(outcome.alice_key_bits, cfg.revealed)
        log.add("5", "alice", f"token={_bits(token)}")  # in clear: no shared key
        outcome.token = token
        if swap_mode:
            # step 5d: the responder measures nothing until the token exists
            passed = arrival("bob", "5d", BOB, True)

    if passed:
        matched = authenticate(outcome.token, outcome.bob_key_bits)
        outcome.token_matched = matched
        outcome.status = (SessionStatus.AUTH_ACCEPT if matched
                          else SessionStatus.AUTH_REJECT)
        log.add("6", "bob", f"token match={matched}")
    else:
        log.add("6", "server", "restart: tamper threshold exceeded")
    return outcome


def _read_slots(plan: SessionPlan, eve: EveState, taps: tuple,
                rand: RandomSource) -> tuple[list, list, list]:
    """Every slot's joint outcome (see :func:`~qauthsim.qsim.slot_kernels`):
    the detection slots', the key slots' and the key slots' created pair
    labels (None outside SWAP mode), each in position order.

    Draw order: the relay's planted bits (a product-pair compromise), the
    created pair labels (SWAP mode), then one categorical draw per slot,
    detection slots first, none where a kernel has a single outcome.
    Eve's reads and the compromised relay's record go on ``eve``."""
    cfg = plan.config
    tamper, key_positions = plan.tamper, plan.key_positions
    k, d = cfg.k, cfg.d
    key_basis = int(cfg.key_basis is MeasBasis.DIAGONAL)
    kind = eve.kind
    if kind is AttackKind.SERVER_PRODUCT:
        # the relay plants twin photons carrying a bit it records
        planted = rand.bits(k)
        eve.server_record.update(zip(key_positions, planted))
        key_sources = [2 * key_basis + bit for bit in planted]
    elif kind is AttackKind.SERVER_GHZ:
        key_sources = [TRIPLE_SOURCE] * k
    else:
        key_sources = [PAIR_SOURCE] * k
    if cfg.mode is ProtocolMode.SWAP:
        created = [rand.randbelow(4) for _ in key_positions]
    else:
        created = [None] * k

    # each slot's kernel key (source, tap_a, tap_b, basis, created), built
    # column by column, detection slots first
    positions = tamper.positions + key_positions
    twins = plan.twin_sources
    tap_a, tap_b = [map(row.__getitem__, positions) if row else repeat(None)
                    for row in taps]
    keys = list(zip(twins + tuple(key_sources), tap_a, tap_b,
                    [source >> 1 for source in twins] + [key_basis] * k,
                    [None] * d + created))
    categorical = rand.categorical
    outs = [outcomes[categorical(cumulative, total)] if cumulative
            else outcomes[0]
            for cumulative, total, outcomes in slot_kernels(keys)]

    for path, row, field in ((_TO_ALICE, taps[0], EVE_A),
                             (_TO_BOB, taps[1], EVE_B)):
        if row is not None:
            for p, out in zip(positions, outs):
                basis = row[p]
                if basis is not None:
                    eve.measured[(path, p)] = (out[field], BASIS_OF_BIT[basis])
    if kind is AttackKind.SERVER_GHZ:
        eve.server_record.update(zip(key_positions,
                                     [out[SERVER] for out in outs[d:]]))
    return outs[:d], outs[d:], created


def _key_rule(rule: BeliefRule) -> tuple:
    """By created label and pair outcome (indices in BELL_ORDER) and by
    kept bit: the believed label and the key bit under ``rule``."""
    table = []
    for created in BELL_ORDER:
        row = []
        for outcome in BELL_ORDER:
            believed = believed_state(created, outcome, rule)
            row.append(tuple([(believed, derive_key_bit(believed, kept))
                              for kept in (0, 1)]))
        table.append(tuple(row))
    return tuple(table)


_KEY_RULES = {rule: _key_rule(rule) for rule in BeliefRule}
# short names of the pair labels, in BELL_ORDER
_SHORT_NAMES = tuple([label.short() for label in BELL_ORDER])


def _relay_step(position: int, created: int, out: tuple, key_rule: tuple,
                log: EventLog) -> SwapRecord:
    """Steps 5a-5c at one key slot, from the slot's kernel outcome: the
    pair outcome and the kept bit, and the key bit under ``key_rule``, an
    entry of ``_KEY_RULES``."""
    outcome, kept = out[RELAY], out[ALICE]
    believed, key_bit = key_rule[created][outcome][kept]
    log.add("5a", "alice", f"pos={position} created={_SHORT_NAMES[created]}")
    log.add("5b", "alice", f"pos={position} outcome={_SHORT_NAMES[outcome]}")
    log.add("5c", "alice", f"pos={position} kept={kept} key={key_bit}")
    return SwapRecord(position, BELL_ORDER[created], BELL_ORDER[outcome],
                      kept, believed, key_bit)
