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
bits, the relay steps and the event log from the outcomes.  What a session
does that depends only on its scenario (the fixed log lines, the tamper
check's verdict per error count, the relay lines per position) is built
once per scenario into a session program.  The per-photon relay step
:func:`alice_swap_step` is off the session path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from hashlib import sha256
from itertools import chain
from operator import eq, itemgetter, ne
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

    # identity hash, as ``channel.Path`` has: a session-program key hashes
    # its configs' enum fields
    __hash__ = object.__hash__


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

    __hash__ = object.__hash__


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
_TO_ALICE, _TO_BOB = Path.TO_ALICE, Path.TO_BOB
_IDEAL_SOURCE = PhotonCountModel()
# a twin source's (2 * basis bit + value) basis, and its value as a byte
_BASIS_OF_TWIN = (BASIS_OF_BIT[0],) * 2 + (BASIS_OF_BIT[1],) * 2
_VALUE_OF_TWIN = bytes([source & 1 for source in range(256)])


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
    """The relay's layout.  ``twin_sources`` holds each detection slot's
    kernel source index, 2 * basis bit + value (see
    :func:`~qauthsim.qsim.slot_kernels`); ``decoys`` maps each detection
    slot's position to its (value, basis), the argument order of
    ``prepare_polarized``."""

    config: SessionConfig
    tamper: TamperSpec
    key_positions: tuple[int, ...]
    twin_sources: tuple[int, ...]

    @cached_property
    def decoys(self) -> dict[int, tuple[int, MeasBasis]]:
        tamper = self.tamper
        return dict(zip(tamper.positions, zip(tamper.values, tamper.bases)))

    @property
    def total_slots(self) -> int:
        return self.config.total_slots


def plan_session(cfg: SessionConfig, rand: RandomSource) -> SessionPlan:
    """Relay-side draw: uniform tamper subset, then per-slot basis and value.
    The 2d bits alternate basis bit, value bit, slot by slot: the draws of
    ``rand.basis()`` then ``rand.bit()`` for each slot, read as each
    slot's twin source 2 * basis bit + value."""
    positions, key_positions = rand.sample_partition(cfg.total_slots, cfg.d)
    twins = rand.bit_pairs(cfg.d)
    bases = tuple([_BASIS_OF_TWIN[twin] for twin in twins])
    return SessionPlan(cfg, TamperSpec(positions, bases,
                                       tuple(twins.translate(_VALUE_OF_TWIN))),
                       key_positions, tuple(twins))


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
    return all(map(eq, token, receiver_bits))


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
    (:func:`draw_taps`), then the slots: the key slots' planted bits or
    created pair labels, and one categorical draw per slot from its exact
    kernel.  All reads of a slot come from that one draw, so a party's bits
    exist before its step; in SWAP mode the responder's bits are reported
    only once the initiator has passed.

    What depends only on the scenario (cfg, attack, photon, p_loss) is
    built once into a :class:`_SessionProgram` and reused by every session
    of that scenario; the draws are the same either way.
    """
    return _program(cfg, attack, photon or _IDEAL_SOURCE, p_loss).run(
        cfg, attack, rand)


# Programs by scenario.  A run of trials passes the same config objects
# each time, so the last program used is found by identity first: hashing
# the frozen configs' fields still costs about 0.6 µs.
_PROGRAMS: dict[tuple, "_SessionProgram"] = {}
_MAX_PROGRAMS = 256
_last_program: tuple = (None,) * 5


def _program(cfg: SessionConfig, attack: AttackConfig | None,
             photon: PhotonCountModel, p_loss: float) -> "_SessionProgram":
    global _last_program
    last_cfg, last_attack, last_photon, last_loss, program = _last_program
    if (cfg is last_cfg and attack is last_attack and photon is last_photon
            and p_loss == last_loss):
        return program
    key = (cfg, attack, photon, p_loss)
    program = _PROGRAMS.get(key)
    if program is None:
        if len(_PROGRAMS) >= _MAX_PROGRAMS:
            _PROGRAMS.clear()
        program = _PROGRAMS[key] = _SessionProgram(cfg, attack, photon, p_loss)
    _last_program = (*key, program)
    return program


# a slot outcome's field, as a function
_READ = tuple(map(itemgetter, range(RELAY + 1)))
# kernel basis bit of each twin source (2 * basis bit + value), and the
# kernel key of an untapped detection slot by its source
_TWIN_BASIS = (0, 0, 1, 1)
_UNTAPPED_DECOY_KEYS = tuple([(source, None, None, basis, None)
                              for source, basis in enumerate(_TWIN_BASIS)])
_MATCH_LINES = {matched: f"token match={matched}" for matched in (False, True)}


class _SessionProgram:
    """What every session of one scenario shares: the log lines that hold
    no drawn value, the kernel-key columns that hold no drawn value, in
    SWAP mode each position's relay-line prefix, and the tamper check's
    verdict and log line for each error count (through :func:`tamper_check`,
    each built the first time a session has that count).  Kernel tables
    are looked up per session through :func:`~qauthsim.qsim.slot_kernels`;
    :meth:`run` makes the draws :func:`run_session` documents, in its
    order."""

    __slots__ = ("photon", "p_loss", "k", "d", "total", "revealed", "swap",
                 "planted", "ghz", "request", "preamble", "checks",
                 "threshold", "key_sources", "planted_source", "key_bases",
                 "nones", "decoy_nones", "key_rule", "positions")

    def __init__(self, cfg: SessionConfig, attack: AttackConfig | None,
                 photon: PhotonCountModel, p_loss: float) -> None:
        k, d, total = cfg.k, cfg.d, cfg.total_slots
        self.photon, self.p_loss = photon, p_loss
        self.k, self.d, self.total, self.revealed = k, d, total, cfg.revealed
        self.swap = cfg.mode is ProtocolMode.SWAP
        kind = attack.kind if attack is not None else AttackKind.NONE
        self.request = f"request k={k} d={d} mode={cfg.mode.value}"
        # step 2: the relay sends each party the layout, which both read
        # from ``plan.tamper``; step 3: it emits one photon per slot on each
        # path
        parties = ("alice", "bob")
        self.preamble = tuple(
            [("2", "server", f"tamper spec sent to {party}") for party in parties]
            + [("3", "server", f"emitted {total} slots to {party}")
               for party in parties])
        # by error count, each built on first use (see ``check``)
        self.threshold = cfg.error_threshold
        self.checks = [None] * (d + 1)

        key_basis = int(cfg.key_basis is MeasBasis.DIAGONAL)
        self.planted = kind is AttackKind.SERVER_PRODUCT
        self.ghz = kind is AttackKind.SERVER_GHZ
        # the relay's planted product pairs: source 2 * key basis + bit
        self.planted_source = 2 * key_basis
        self.key_sources = (TRIPLE_SOURCE if self.ghz else PAIR_SOURCE,) * k
        self.key_bases = (key_basis,) * k
        # the tap and created-label columns of a slot that has none
        self.nones = (None,) * total
        self.decoy_nones = (None,) * d
        self.key_rule = self.positions = None
        if self.swap:
            self.key_rule = _KEY_RULES[cfg.belief_rule]
            # each relay line starts with its position
            self.positions = tuple([f"pos={p} " for p in range(total)])

    def run(self, cfg: SessionConfig, attack: AttackConfig | None,
            rand: RandomSource) -> SessionOutcome:
        log = EventLog()
        add = log.add
        eve = EveState(attack)
        add("1", "alice", self.request)
        plan = plan_session(cfg, rand)
        for step, party, text in self.preamble:
            add(step, party, text)
        lost = draw_loss(self.total, self.p_loss, rand)
        if lost:
            add("3", "server", f"lost slots {lost}")
            return SessionOutcome(SessionStatus.INCOMPLETE_STREAM, plan,
                                  eve=eve, events=log)

        taps = draw_taps(eve, plan, self.photon, rand)
        decoys, keys, created = self.read_slots(plan, eve, taps, rand)
        values = plan.tamper.values
        swap = self.swap
        bob_errors = bob_key = token = matched = records = None

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
                records = self.relay(add, plan.key_positions, created, keys)
                alice_key = tuple([r.key_bit for r in records])
            token = make_token(alice_key, self.revealed)
            add("5", "alice", "token=" + _bits(token))  # in clear: no shared key
            if swap:
                # step 5d: the responder measures nothing until the token exists
                bob_errors, passed, bob_key = self.arrival(
                    add, "5d", "bob", BOB, decoys, keys, values)
                if not passed:
                    failed += ("bob",)

        if passed:
            matched = authenticate(token, bob_key)
            status = (SessionStatus.AUTH_ACCEPT if matched
                      else SessionStatus.AUTH_REJECT)
            add("6", "bob", _MATCH_LINES[matched])
        else:
            status = SessionStatus.TAMPER_ABORT
            add("6", "server", "restart: tamper threshold exceeded")
        return SessionOutcome(status, plan, alice_errors, bob_errors,
                              alice_key, bob_key, token, matched, records,
                              failed, eve, log)

    def arrival(self, add, step: str, party: str, field: int, decoys: list,
                keys: list | None, values: tuple) -> tuple:
        """One party's arrival check: its detection-slot bits, then its key
        bits when ``keys`` is given, each on a log line, then the tamper
        check.  Returns (errors, passed, key bits or None)."""
        read = _READ[field]
        obs = bytes(map(read, decoys))
        add(step, party, "measured obs=" + obs.translate(_BIT_TEXT).decode())
        key = None
        if keys is not None:
            key = tuple(map(read, keys))
            add(step, party, "measured key=" + _bits(key))
        errors = sum(map(ne, obs, values))
        passed, line = self.checks[errors] or self.check(errors)
        add(step, party, line)
        return errors, passed, key

    def check(self, errors: int) -> tuple[bool, str]:
        """The tamper check's verdict at ``errors`` detection errors, and
        its log line, kept for the sessions that follow."""
        d = self.d
        passed, _ = tamper_check((1,) * errors + (0,) * (d - errors), (0,) * d,
                                 self.threshold)
        rate = _error_rate(errors, d)
        check = self.checks[errors] = (
            passed, f"tamper check rate={rate:.6f} pass={passed}")
        return check

    def read_slots(self, plan: SessionPlan, eve: EveState, taps: tuple,
                   rand: RandomSource) -> tuple[list, list, bytes | None]:
        """Every slot's joint outcome (see :func:`~qauthsim.qsim.slot_kernels`):
        the detection slots', the key slots' and the key slots' created pair
        labels (None outside SWAP mode), each in position order.

        Draw order: the relay's planted bits (a product-pair compromise),
        the created pair labels (SWAP mode), then one categorical draw per
        slot, detection slots first, none where a kernel has a single
        outcome (:meth:`~qauthsim.qsim.RandomSource.outcomes`).  Eve's reads
        and the compromised relay's record go on ``eve``."""
        key_positions = plan.key_positions
        key_sources = self.key_sources
        if self.planted:
            # the relay plants twin photons carrying a bit it records
            planted = rand.bits(self.k)
            eve.server_record.update(zip(key_positions, planted))
            key_sources = tuple([self.planted_source + bit for bit in planted])
        created = None
        nones = self.nones
        if self.swap:
            created = rand.quarters(self.k)

        # each slot's kernel key (source, tap_a, tap_b, basis, created),
        # detection slots first, built column by column
        twins = plan.twin_sources
        tap_a, tap_b = taps
        tapped = tap_a is not None or tap_b is not None
        if tapped:
            positions = plan.tamper.positions + key_positions
            # each path's read basis bit by slot, in that order
            columns = [list(map(row.__getitem__, positions)) if row else nones
                       for row in taps]
            keys = list(zip(chain(twins, key_sources), *columns,
                            chain([_TWIN_BASIS[twin] for twin in twins],
                                  self.key_bases),
                            chain(self.decoy_nones, created) if created
                            else nones))
        else:
            keys = [_UNTAPPED_DECOY_KEYS[twin] for twin in twins]
            keys += zip(key_sources, nones, nones, self.key_bases,
                        created or nones)
        outs = rand.outcomes(slot_kernels(keys))

        if tapped:
            # eve's reads, path by path, each in slot order
            eve.measured.update([
                ((path, p), (out[field], BASIS_OF_BIT[basis]))
                for path, column, field in ((_TO_ALICE, columns[0], EVE_A),
                                            (_TO_BOB, columns[1], EVE_B))
                for p, out, basis in zip(positions, outs, column)
                if basis is not None])
        d = self.d
        if self.ghz:
            eve.server_record.update(zip(key_positions,
                                         [out[SERVER] for out in outs[d:]]))
        return outs[:d], outs[d:], created

    def relay(self, add, key_positions: tuple, created: bytes,
              keys: list) -> tuple[SwapRecord, ...]:
        """Steps 5a-5c at each key slot, from the slot's kernel outcome: the
        pair outcome and the kept bit, and the key bit under the session's
        belief rule."""
        key_rule, positions = self.key_rule, self.positions
        records = []
        for position, label, out in zip(key_positions, created, keys):
            outcome, kept = out[RELAY], out[ALICE]
            believed, key_bit = key_rule[label][outcome][kept]
            at = positions[position]
            add("5a", "alice", at + _CREATED_TEXT[label])
            add("5b", "alice", at + _OUTCOME_TEXT[outcome])
            add("5c", "alice", at + _KEPT_TEXT[kept][key_bit])
            records.append(SwapRecord(position, BELL_ORDER[label],
                                      BELL_ORDER[outcome], kept, believed,
                                      key_bit))
        return tuple(records)


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
# the relay lines after their position: the created label and the pair
# outcome by index in BELL_ORDER, and the kept and key bits
_CREATED_TEXT = tuple([f"created={label.short()}" for label in BELL_ORDER])
_OUTCOME_TEXT = tuple([f"outcome={label.short()}" for label in BELL_ORDER])
_KEPT_TEXT = tuple([tuple([f"kept={kept} key={key}" for key in (0, 1)])
                    for kept in (0, 1)])
