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
in BASE mode the key slots), then run the tamper check on the error count.
:func:`tamper_check` is the one statement of its rule; the harness's closed
forms ask it whether one detection error aborts.  Both parties run it
at step 4 in BASE mode; in SWAP mode the responder runs it at 5d, after the
token exists, and only if the initiator passed.

:func:`run_session` samples every slot whole, with one draw from its exact
kernel (:func:`~qauthsim.qsim.slot_kernels`), and assembles both parties'
bits and the event log from the outcomes; in SWAP mode the relay step
keeps only the initiator's key bits and writes each slot's created label
and pair outcome on its 5a-5c log lines, all key slots' lines as one block
of text.  What depends only on the scenario (the fixed log lines, the
tamper check's verdict per error count, the fused kernel tables of the
slot codes its sessions form) is built once per scenario into a session
program; the relay step's finished lines are built once per position and
shared by every program of at most ``_RELAY_MEMO_SLOTS`` slots.  The
per-photon relay step
:func:`alice_swap_step` and its :class:`SwapRecord` are off the session
path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from hashlib import sha256
from itertools import compress
from operator import eq, getitem
from typing import Iterable, NamedTuple

from .adversary import AttackConfig, AttackKind, EveState, draw_taps
from .channel import Path, PhotonCountModel, PhotonSlot, draw_loss
from .qsim import (
    ALICE,
    BASIS_OF_BIT,
    BELL_ORDER,
    BOB,
    FIELD_BITS,
    PAIR_SOURCE,
    RELAY,
    SERVER,
    TRIPLE_SOURCE,
    BellKind,
    BellLabel,
    CodeTables,
    MeasBasis,
    RandomSource,
    _Memo,
    _NOT,
    agreements,
    bell_compose,
    measure_bell,
    measure_in_basis,
    prepare_bell,
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


# the most slots (k + d) a session may have: a session allocates per-slot
# bytes, so an unbounded size fails deep in a run; the largest sizing
# ``qauthsim params`` prints (k + d = 223440) fits
MAX_SLOTS = 2 ** 18


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
        if self.k + self.d > MAX_SLOTS:
            raise ValueError(f"k + d must be at most {MAX_SLOTS}")
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
        # hashed once by the fields __eq__ compares, as PhotonCountModel is
        object.__setattr__(self, "_hash", hash((
            self.k, self.d, self.mode, self.belief_rule, self.error_threshold,
            self.key_basis, self.revealed)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def total_slots(self) -> int:
        return self.k + self.d


_IDEAL_SOURCE = PhotonCountModel()
# a twin source's (2 * basis bit + value) basis, and its value as text
_BASIS_OF_TWIN = (BASIS_OF_BIT[0],) * 2 + (BASIS_OF_BIT[1],) * 2
_VALUE_TEXT = bytes([b"01"[source & 1] for source in range(256)])


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
                   tuple([MeasBasis(b) for b in doc["bases"]]),
                   tuple(doc["values"]))


@dataclass(frozen=True)
class SessionPlan:
    """The relay's layout: ``marks``, one byte per position, 1 at a
    detection slot and 0 at a key slot, as Floyd's draw gives them
    (:meth:`~qauthsim.qsim.RandomSource.sample_marks`), and
    ``twin_sources``, one byte per detection slot in position order
    holding its kernel source index, 2 * basis bit + value (see
    :func:`~qauthsim.qsim.slot_kernels`).  A session reads the layout as
    marks only (:meth:`draw_order`, ``key_marks``).  Three views are
    built from them on first access, off the session path: the detection
    slots' ``positions`` and the ``key_positions``, each sorted, and
    ``decoys``, which maps each detection slot's position to its (value,
    basis), the argument order of ``prepare_polarized``."""

    config: SessionConfig
    marks: bytes
    twin_sources: bytes

    @cached_property
    def positions(self) -> tuple[int, ...]:
        return tuple(compress(range(len(self.marks)), self.marks))

    @cached_property
    def key_positions(self) -> tuple[int, ...]:
        return tuple(compress(range(len(self.marks)), self.key_marks))

    @cached_property
    def decoys(self) -> dict[int, tuple[int, MeasBasis]]:
        return {position: (twin & 1, _BASIS_OF_TWIN[twin])
                for position, twin in zip(self.positions, self.twin_sources)}

    @property
    def key_marks(self) -> bytes:
        """One byte per position, 1 at a key slot and 0 at a detection
        slot."""
        return self.marks.translate(_NOT)

    @property
    def total_slots(self) -> int:
        return self.config.total_slots

    def draw_order(self, row: bytes) -> bytes:
        """``row``, one byte below 4 per position, in the order a session
        draws its slots: the detection slots' bytes, then the key slots',
        each in position order.

        The row plus the marks << 2, added as integers, holds each
        detection slot's byte plus 4 and each key slot's byte as it is:
        deleting the key slots' bytes leaves the detection slots' in
        order, and deleting theirs leaves the key slots'."""
        mixed = (int.from_bytes(row, "big")
                 + (int.from_bytes(self.marks, "big") << 2)
                 ).to_bytes(len(row), "big")
        return (mixed.translate(_LESS_FOUR, _BELOW_FOUR)
                + mixed.translate(None, _FOUR_TO_SEVEN))


# a byte less 4, for the marked bytes 4..7 of ``SessionPlan.draw_order``
_LESS_FOUR = bytes([byte - 4 & 255 for byte in range(256)])
_BELOW_FOUR, _FOUR_TO_SEVEN = bytes(range(4)), bytes(range(4, 8))


def plan_session(cfg: SessionConfig, rand: RandomSource) -> SessionPlan:
    """Relay-side draw: uniform tamper subset, as one mark per position,
    then per-slot basis and value.  Each detection slot's twin source
    byte, 2 * basis bit + value, is one uniform draw of two bits
    (``rand.quarters``), in position order.  :func:`run_session` draws a
    plan only for a stream whose photons all arrived, after its loss
    marks."""
    return SessionPlan(cfg, rand.sample_marks(cfg.total_slots, cfg.d),
                       rand.quarters(cfg.d))


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


def make_token(key_bits: bytes | tuple[int, ...],
               reveal_count: int) -> tuple[int, ...]:
    if not 1 <= reveal_count <= len(key_bits):
        raise ValueError("reveal_count must be in 1..len(key_bits)")
    return tuple(key_bits[:reveal_count])


def authenticate(token: tuple[int, ...], receiver_bits: tuple[int, ...]) -> bool:
    """Exact prefix match of the revealed bits against the receiver's key bits."""
    if not token:
        raise ValueError("empty token")
    if len(receiver_bits) < len(token):
        raise ValueError("receiver has fewer key bits than the token reveals")
    return all(map(eq, token, receiver_bits))


def _error_rate(errors: int, d: int) -> float:
    """errors / d; 0.0 at d = 0, where the check passes vacuously."""
    return errors / max(d, 1)


def tamper_check(errors: int, slots: int, threshold: float) -> bool:
    """The tamper check: it passes when the error rate errors / slots is at
    most ``threshold``.  Zero detection slots pass vacuously."""
    if not 0 <= errors <= slots:
        raise ValueError("errors must be in 0..slots")
    return _error_rate(errors, slots) <= threshold


class SwapRecord(NamedTuple):
    """One per-photon relay step at a key slot (:func:`alice_swap_step`)."""

    position: int
    created: BellLabel
    outcome: BellLabel
    kept_result: int
    believed: BellLabel
    key_bit: int


class EventLog:
    """A session's log as finished text.  An entry (step id, party,
    payload) is one line, its three fields joined by tabs; no field holds
    a tab or a line break.  ``lines`` holds the text in order: each item
    is one entry's line (:meth:`add`) or a block of lines rendered at once
    (the relay step's 5a-5c lines, see ``_SessionProgram.relay``).
    ``entries`` splits the text back into triples."""

    __slots__ = ("lines",)

    def __init__(self) -> None:
        self.lines: list[str] = []

    def add(self, step: str, party: str, payload: str) -> None:
        self.lines.append(f"{step}\t{party}\t{payload}")

    def text(self) -> str:
        return "\n".join(self.lines)

    def digest(self) -> str:
        return sha256(self.text().encode()).hexdigest()[:16]

    @property
    def entries(self) -> list[tuple[str, ...]]:
        """The (step id, party, payload) triples, in order."""
        if not self.lines:
            return []
        return [tuple(line.split("\t")) for line in self.text().split("\n")]


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


@dataclass
class SessionOutcome:
    """How one session ended.  ``plan`` is the relay's layout, None for a
    lost stream, which ends before a layout is drawn.
    ``alice_tamper_errors`` and ``bob_tamper_errors`` count the detection
    slots each party read wrong, None when that party's check never ran.
    In SWAP mode the relay step (5a-5c) keeps ``alice_key_bits``; each key
    slot's created label and pair outcome are only on its ``events``, the
    session's log as finished lines (:class:`EventLog`), where the relay
    step's lines are one block.  ``key_match_count`` counts the key slots
    where both parties hold the same bit, counted by the session from the
    bytes it read them from; None unless both parties read their keys."""

    status: SessionStatus
    plan: SessionPlan | None
    alice_tamper_errors: int | None = None
    bob_tamper_errors: int | None = None
    alice_key_bits: tuple[int, ...] | None = None
    bob_key_bits: tuple[int, ...] | None = None
    token: tuple[int, ...] | None = None
    token_matched: bool | None = None
    failed_checks: tuple[str, ...] = ()
    eve: EveState | None = None
    events: EventLog = field(default_factory=EventLog)
    key_match_count: int | None = None

    @property
    def alice_tamper_error_rate(self) -> float | None:
        return self._rate(self.alice_tamper_errors)

    @property
    def bob_tamper_error_rate(self) -> float | None:
        return self._rate(self.bob_tamper_errors)

    def _rate(self, errors: int | None) -> float | None:
        # a check that never ran may be a lost stream's, which has no plan
        if errors is None:
            return None
        return _error_rate(errors, self.plan.config.d)


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

    Draw order: the loss marks, the plan, the adversary's session-level
    draws (:func:`draw_taps`), then the slots: the key slots' planted bits
    or created pair labels, and one byte per slot, which draws the slot's
    outcome from its exact kernel.  A lost photon ends the session at its
    loss marks, before its layout or any slot is drawn: nothing a lost
    stream reports depends on them, and the draws are independent, so
    drawing them only for the streams that arrive keeps every outcome's
    law.  The loss marks come from the stream's own loss substream
    (:meth:`~qauthsim.qsim.RandomSource.loss_marks`) and everything after
    them from its main stream, each draw taking the next bytes of one
    SHAKE-128 read (draw layout v3), so a stream whose photons all arrive
    is exactly the p_loss = 0 session of the same (seed, trial), and a lost
    one never reads its main stream.  All reads of a slot
    come from its one draw, so a party's bits exist before its step; in
    SWAP mode the responder's bits are reported only once the initiator
    has passed.

    What depends only on the scenario (cfg, attack, photon, p_loss) is
    built once into a :class:`_SessionProgram`, kept by :func:`_program`
    for every session of an equal scenario; the draws are the same either
    way.
    """
    return _program(cfg, attack, photon or _IDEAL_SOURCE, p_loss).run(
        cfg, attack, rand)


@lru_cache(maxsize=256)
def _program(cfg: SessionConfig, attack: AttackConfig | None,
             photon: PhotonCountModel, p_loss: float) -> "_SessionProgram":
    """The session program of a scenario, found by equality of its
    frozen configs."""
    return _SessionProgram(cfg, attack, photon, p_loss)


# A slot's code is 36 * group + low + 4 * tap_a + 12 * tap_b, below 216:
# group 0 for a detection slot, whose low part is its twin source; group 1
# for a key slot read directly and 2 + the created label for one read
# through the relay step, whose low part is the relay's planted bit (0
# without one); and the tap codes of :func:`draw_taps`.  A key slot's code
# by its created label (see ``read_slots``), a tap code's basis bit, and a
# path's tap code weight.
_GROUP = 36
_CREATED_CODES = bytes([_GROUP * (2 + label) for label in range(4)]).ljust(256, b"\0")
_TAP_BASIS = (None, 0, 1)
_TAP_WEIGHT = {Path.TO_ALICE: 4, Path.TO_BOB: 12}
_MATCH_LINES = {matched: f"token match={matched}" for matched in (False, True)}
# by field ALICE .. SERVER, an outcome code's bit of that field as text
_FIELD_TEXT = tuple([bits.translate(_BIT_TEXT) for bits in FIELD_BITS])
# A relay step's index, created label << 3 | pair outcome << 1 | kept bit,
# is the sum of its created label's part and its outcome code's part.
_CREATED_INDEX = bytes([label << 3 for label in range(4)]).ljust(256, b"\0")
_OUTCOME_INDEX = bytes([(code >> RELAY) << 1 | code & 1 for code in range(128)]
                       ).ljust(256, b"\0")


class _SessionProgram:
    """What every session of one scenario shares: the log lines that hold
    no drawn value, in SWAP mode the key bit and block pick by relay-step
    index (see :meth:`relay`), and two memos, each filled the first time a
    session needs an entry: ``checks``, the tamper check's verdict and log
    line by error count (:meth:`check`), and ``tables``, the kernel tables
    of the slot codes the program's sessions have formed, fused into a few
    256-byte tables (:class:`~qauthsim.qsim.CodeTables`; see
    :meth:`read_slots`; :meth:`kernel_key` decodes a code).  :meth:`run`
    makes the draws :func:`run_session` documents, in its order."""

    __slots__ = ("photon", "p_loss", "k", "d", "total", "revealed", "swap",
                 "planted", "ghz", "request", "preamble", "checks",
                 "threshold", "key_source", "key_basis", "key_codes",
                 "tables", "relay_table")

    def __init__(self, cfg: SessionConfig, attack: AttackConfig | None,
                 photon: PhotonCountModel, p_loss: float) -> None:
        k, d, total = cfg.k, cfg.d, cfg.total_slots
        self.photon, self.p_loss = photon, p_loss
        self.k, self.d, self.total, self.revealed = k, d, total, cfg.revealed
        self.swap = cfg.mode is ProtocolMode.SWAP
        kind = attack.kind if attack is not None else AttackKind.NONE
        self.request = f"request k={k} d={d} mode={cfg.mode.value}"
        # step 2: the relay sends each party the layout, which both read
        # from the plan; step 3: it emits one photon per slot on each path
        parties = ("alice", "bob")
        self.preamble = tuple(
            [("2", "server", f"tamper spec sent to {party}") for party in parties]
            + [("3", "server", f"emitted {total} slots to {party}")
               for party in parties])
        self.threshold = cfg.error_threshold
        self.checks = _Memo(self.check)

        key_basis = self.key_basis = int(cfg.key_basis is MeasBasis.DIAGONAL)
        self.planted = kind is AttackKind.SERVER_PRODUCT
        self.ghz = kind is AttackKind.SERVER_GHZ
        # a key slot's source, plus its planted bit: the relay's planted
        # product pairs are source 2 * key basis + bit
        self.key_source = (2 * key_basis if self.planted
                           else TRIPLE_SOURCE if self.ghz else PAIR_SOURCE)
        # the key slots' codes with no planted bit, tap or relay step
        self.key_codes = bytes([_GROUP]) * k
        self.tables = CodeTables(self.kernel_key)
        self.relay_table = (_RELAY_TABLES[cfg.belief_rule] if self.swap
                            else None)

    def run(self, cfg: SessionConfig, attack: AttackConfig | None,
            rand: RandomSource) -> SessionOutcome:
        log = EventLog()
        add = log.add
        add("1", "alice", self.request)
        for step, party, text in self.preamble:
            add(step, party, text)
        lost = draw_loss(self.total, self.p_loss, rand)
        if lost:
            # nothing of a lost stream reads the layout, so none is drawn
            add("3", "server", f"lost slots {lost}")
            return SessionOutcome(SessionStatus.INCOMPLETE_STREAM, None,
                                  eve=EveState(attack), events=log)

        plan = plan_session(cfg, rand)
        eve = EveState(attack, plan)
        draw_taps(eve, plan, self.photon, rand)
        decoys, keys, created = self.read_slots(plan, eve, rand)
        values = int.from_bytes(plan.twin_sources.translate(_VALUE_TEXT), "big")
        swap = self.swap
        bob_errors = bob_key = token = matched = None

        # step 4: arrival checks; in BASE mode both parties also read their keys
        alice_errors, passed, alice_key = self.arrival(
            add, "4", "alice", ALICE, decoys, None if swap else keys, values)
        failed = () if passed else ("alice",)
        if not swap:
            bob_errors, bob_passed, bob_key = self.arrival(
                add, "4", "bob", BOB, decoys, keys, values)
            if not bob_passed:
                failed += ("bob",)
                passed = False

        if passed:
            # step 5 (relay sub-steps 5a-5c per key slot in SWAP mode), the token
            if swap:
                alice_key, block = self.relay(
                    compress(range(self.total), plan.key_marks), created, keys)
                log.lines.append(block)
            token = make_token(alice_key, self.revealed)
            add("5", "alice", "token=" + _bits(token))  # in clear: no shared key
            if swap:
                # step 5d: the responder measures nothing until the token exists
                bob_errors, passed, bob_key = self.arrival(
                    add, "5d", "bob", BOB, decoys, keys, values)
                if not passed:
                    failed += ("bob",)
        matches = None if bob_key is None else agreements(alice_key, bob_key)

        if passed:
            matched = authenticate(token, bob_key)
            status = (SessionStatus.AUTH_ACCEPT if matched
                      else SessionStatus.AUTH_REJECT)
            add("6", "bob", _MATCH_LINES[matched])
        else:
            status = SessionStatus.TAMPER_ABORT
            add("6", "server", "restart: tamper threshold exceeded")
        return SessionOutcome(
            status, plan, alice_errors, bob_errors,
            None if alice_key is None else tuple(alice_key),
            None if bob_key is None else tuple(bob_key), token, matched,
            failed, eve, log, matches)

    def arrival(self, add, step: str, party: str, field: int, decoys: bytes,
                keys: bytes | None, values: int) -> tuple:
        """One party's arrival check: its detection-slot bits, then its key
        bits when ``keys`` is given, each on a log line, then the tamper
        check.  ``decoys`` and ``keys`` hold outcome codes, ``field`` is
        the party's, and ``values`` holds the detection slots' values as
        text, read as one integer.  Returns (errors, passed, key bits as
        one byte each, or None)."""
        obs = decoys.translate(_FIELD_TEXT[field])
        add(step, party, "measured obs=" + obs.decode())
        key = None
        if keys is not None:
            text = keys.translate(_FIELD_TEXT[field])
            add(step, party, "measured key=" + text.decode())
            key = keys.translate(FIELD_BITS[field])
        # the text of a 0 and of a 1 differ in their low bit only
        errors = (int.from_bytes(obs, "big") ^ values).bit_count()
        passed, line = self.checks[errors]
        add(step, party, line)
        return errors, passed, key

    def check(self, errors: int) -> tuple[bool, str]:
        """The tamper check's verdict at ``errors`` detection errors, and
        its log line."""
        passed = tamper_check(errors, self.d, self.threshold)
        rate = _error_rate(errors, self.d)
        return passed, f"tamper check rate={rate:.6f} pass={passed}"

    def read_slots(self, plan: SessionPlan, eve: EveState,
                   rand: RandomSource) -> tuple[bytes, bytes, bytes | None]:
        """Every slot's outcome code (see :func:`~qauthsim.qsim.slot_kernels`):
        the detection slots', the key slots' and the key slots' created pair
        labels (None outside SWAP mode), each in position order.

        Draw order: the relay's planted bits (a product-pair compromise),
        the created pair labels (SWAP mode), then one byte per slot,
        detection slots first (:meth:`~qauthsim.qsim.RandomSource.outcomes`).

        Each slot has a one-byte slot code (see ``_GROUP``), in draw
        order, built by bytewise arithmetic on the plan's twin sources, the
        planted bits (one integer add), the created labels and the tap
        codes of ``eve.rows``, which :func:`draw_taps` wrote in draw order.
        ``tables`` decides every slot from its code and its byte with a few
        ``translate`` calls, a code no session formed before joining it on
        the way.  Every slot's outcome code goes on ``eve.outcomes``, and
        the compromised relay's record on ``eve.key_record``."""
        k, d = self.k, self.d
        key_codes = self.key_codes
        planted = created = None
        if self.planted:
            # the relay plants twin photons carrying a bit it records
            planted = eve.key_record = rand.bits(k)
        if self.swap:
            created = rand.quarters(k)
            key_codes = created.translate(_CREATED_CODES)
        if planted:
            key_codes = (int.from_bytes(key_codes, "big")
                         + int.from_bytes(planted, "big")).to_bytes(k, "big")
        codes = plan.twin_sources + key_codes

        if eve.rows:
            # each tapped path's tap codes weighted into the slot codes; no
            # code reaches 256, so no byte carries
            code = int.from_bytes(codes, "little")
            for path, taps, _splits in eve.rows:
                code += _TAP_WEIGHT[path] * int.from_bytes(taps, "little")
            codes = code.to_bytes(self.total, "little")
        outs = eve.outcomes = rand.outcomes(codes, self.tables)
        keys = outs[d:]
        if self.ghz:
            eve.key_record = keys.translate(FIELD_BITS[SERVER])
        return outs[:d], keys, created

    def kernel_key(self, code: int) -> tuple:
        """The kernel key (source, tap_a, tap_b, basis, created) of a slot
        code of this program."""
        group, rest = divmod(code, _GROUP)
        low, taps = rest & 3, rest >> 2
        tap_a, tap_b = _TAP_BASIS[taps % 3], _TAP_BASIS[taps // 3]
        if not group:
            # a detection slot: twin source 2 * basis bit + value
            return low, tap_a, tap_b, low >> 1, None
        return (self.key_source + low, tap_a, tap_b, self.key_basis,
                group - 2 if group > 1 else None)

    def relay(self, key_positions: Iterable[int], created: bytes,
              keys: bytes) -> tuple[bytes, str]:
        """Steps 5a-5c at each key slot, from its created label and outcome
        code: the pair outcome and the kept bit, and the key bit under the
        session's belief rule, all read from the slot's index created
        label << 3 | pair outcome << 1 | kept bit.  Returns the initiator's
        key bits, one byte each, and the steps' log lines as one block, each
        in position order."""
        index = (int.from_bytes(created.translate(_CREATED_INDEX), "big")
                 + int.from_bytes(keys.translate(_OUTCOME_INDEX), "big")
                 ).to_bytes(self.k, "big")
        # each slot's index << 1 | key bit picks its block
        picks = index.translate(self.relay_table)
        if self.total <= _RELAY_MEMO_SLOTS:
            blocks = map(getitem, map(_RELAY_BLOCKS.__getitem__, key_positions),
                         picks)
        else:
            blocks = map(_relay_block, key_positions, picks)
        return picks.translate(_KEY_BIT), "\n".join(blocks)


def _relay_blocks(position: int) -> tuple[str, ...]:
    """The finished 5a-5c lines of a relay step at ``position``: one
    block of three lines at each pick index << 1 | key bit, where index is
    the step's created label << 3 | pair outcome << 1 | kept bit (labels
    indexed in BELL_ORDER)."""
    at = f"\talice\tpos={position} "
    heads = [f"5a{at}created={created}\n5b{at}outcome={outcome}\n5c{at}kept="
             for created in _LABEL_TEXT for outcome in _LABEL_TEXT]
    return tuple([head + tail for head in heads for tail in _KEPT_KEY_TEXT])


def _relay_block(position: int, pick: int) -> str:
    """The block of :func:`_relay_blocks` at ``position`` and ``pick``
    alone, for a session too large for the memo."""
    at = f"\talice\tpos={position} "
    return (f"5a{at}created={_LABEL_TEXT[pick >> 4]}\n"
            f"5b{at}outcome={_LABEL_TEXT[pick >> 2 & 3]}\n"
            f"5c{at}kept={_KEPT_KEY_TEXT[pick & 3]}")


_LABEL_TEXT = tuple([label.short() for label in BELL_ORDER])
_KEPT_KEY_TEXT = tuple([f"{kept} key={key}" for kept in (0, 1)
                        for key in (0, 1)])
# The relay blocks by position (64 blocks, about 9.6 KB), built the first
# time a session reaches it; they depend on nothing else, so every session
# program shares them.  Only sessions of at most _RELAY_MEMO_SLOTS slots
# use the memo, which so holds at most that many positions (about 40 MB);
# a larger session renders each block its slot picks and keeps none, since
# a memo over every position up to MAX_SLOTS could hold about 2.5 GB.
_RELAY_MEMO_SLOTS = 4096
_RELAY_BLOCKS = _Memo(_relay_blocks)
_KEY_BIT = bytes([pick & 1 for pick in range(256)])


def _key_rule(rule: BeliefRule) -> tuple:
    """By created label and pair outcome (indices in BELL_ORDER) and by
    kept bit: the key bit under ``rule``."""
    return tuple([
        tuple([tuple([derive_key_bit(believed_state(created, outcome, rule),
                                     kept) for kept in (0, 1)])
               for outcome in BELL_ORDER])
        for created in BELL_ORDER])


def _relay_table(rule: BeliefRule) -> bytes:
    """:func:`_key_rule` as a translation table: a relay step's index
    created label << 3 | pair outcome << 1 | kept bit to index << 1 | its
    key bit under ``rule``."""
    bits = _key_rule(rule)
    return bytes([index << 1 | bits[index >> 3][index >> 1 & 3][index & 1]
                  for index in range(32)]).ljust(256, b"\0")


_RELAY_TABLES = {rule: _relay_table(rule) for rule in BeliefRule}
