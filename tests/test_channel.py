"""Channel layer: streams, loss, taps, and the sealed classical side."""

import math

import pytest

from qauthsim.channel import (
    ChannelError,
    KeystreamCipher,
    Path,
    PhotonCountModel,
    QuantumStream,
    TamperedMessageError,
    apply_loss,
    apply_tap,
    build_streams,
)
from qauthsim.protocol import ProtocolMode, SessionConfig, plan_session
from qauthsim.qsim import MeasBasis, RandomSource


def _plan(k=4, d=4, seed=5):
    cfg = SessionConfig(k=k, d=d, reveal_count=k, mode=ProtocolMode.BASE)
    return plan_session(cfg, RandomSource(seed, 0))


def test_photon_model_validation():
    with pytest.raises(ValueError):
        PhotonCountModel(0.0)
    with pytest.raises(ValueError):
        PhotonCountModel(1.2)
    PhotonCountModel(1.0)


def test_photon_model_ideal_never_splits():
    model = PhotonCountModel()
    rand = RandomSource(1, 0)
    assert all(model.sample(rand) == 1 for _ in range(100))


def test_photon_model_statistics():
    model = PhotonCountModel(0.6)
    rand = RandomSource(2, 0)
    n = 20000
    singles = sum(1 for _ in range(n) if model.sample(rand) == 1)
    sigma = math.sqrt(0.6 * 0.4 / n)
    assert abs(singles / n - 0.6) < 4 * sigma


def test_build_streams_layout():
    plan = _plan()
    rand = RandomSource(3, 0)
    sa, sb = build_streams(plan, PhotonCountModel(), rand)
    assert sa.path is Path.TO_ALICE and sb.path is Path.TO_BOB
    assert [s.position for s in sa.slots] == list(range(8))
    assert [s.position for s in sb.slots] == list(range(8))
    for pa, pb in zip(sa.slots, sb.slots):
        if plan.is_tamper(pa.position):
            # independent registers holding identical preparations
            assert pa.register is not pb.register
            assert pa.register.num_qubits == 1
        else:
            # one entangled pair shared across the two paths
            assert pa.register is pb.register
            assert pa.qubit_index == 0 and pb.qubit_index == 1


def test_tamper_twins_read_back_identically():
    plan = _plan(seed=7)
    rand = RandomSource(4, 0)
    sa, sb = build_streams(plan, PhotonCountModel(), rand)
    for pa, pb in zip(sa.slots, sb.slots):
        if not plan.is_tamper(pa.position):
            continue
        basis, value = plan.tamper_preparation(pa.position)
        assert pa.measure(basis, rand) == value
        assert pb.measure(basis, rand) == value


def test_key_slot_halves_correlate():
    plan = _plan(seed=9)
    for trial in range(30):
        rand = RandomSource(5, trial)
        sa, sb = build_streams(plan, PhotonCountModel(), rand)
        for pa, pb in zip(sa.slots, sb.slots):
            if plan.is_tamper(pa.position):
                continue
            a = pa.measure(MeasBasis.RECTILINEAR, rand)
            b = pb.measure(MeasBasis.RECTILINEAR, rand)
            assert a == b


def test_apply_loss_zero_and_bounds():
    plan = _plan()
    rand = RandomSource(6, 0)
    sa, _ = build_streams(plan, PhotonCountModel(), rand)
    assert apply_loss(sa, 0.0, rand) == 0
    assert sa.lost_positions() == ()
    with pytest.raises(ValueError):
        apply_loss(sa, 1.0, rand)
    with pytest.raises(ValueError):
        apply_loss(sa, -0.1, rand)


def test_apply_loss_statistics_and_lost_measure():
    n_lost = 0
    n_slots = 0
    first_lost = None
    for trial in range(400):
        rand = RandomSource(7, trial)
        sa, _ = build_streams(_plan(seed=11), PhotonCountModel(), rand)
        n_lost += apply_loss(sa, 0.3, rand)
        n_slots += len(sa.slots)
        if first_lost is None:
            for slot in sa.slots:
                if slot.lost:
                    first_lost = slot
    sigma = math.sqrt(0.3 * 0.7 / n_slots)
    assert abs(n_lost / n_slots - 0.3) < 4 * sigma
    assert first_lost is not None
    with pytest.raises(ChannelError):
        first_lost.measure(MeasBasis.RECTILINEAR, RandomSource(7, 999))


def test_apply_tap_skips_and_order():
    plan = _plan(seed=13)
    rand = RandomSource(8, 0)
    sa, _ = build_streams(plan, PhotonCountModel(), rand)
    sa.slots[2].lost = True
    seen = []
    touched = apply_tap(sa, lambda s: seen.append(s.position), skip_positions=(5,))
    assert touched == len(seen)
    assert 2 not in seen and 5 not in seen
    assert seen == sorted(seen)
    assert set(seen) == set(range(8)) - {2, 5}


class TestKeystreamCipher:
    def test_roundtrip(self):
        cipher = KeystreamCipher(b"k" * 16)
        blob = cipher.seal(3, b"attack at dawn")
        assert cipher.open(3, blob) == b"attack at dawn"

    def test_wrong_nonce_rejected(self):
        cipher = KeystreamCipher(b"k" * 16)
        blob = cipher.seal(3, b"payload")
        with pytest.raises(TamperedMessageError):
            cipher.open(4, blob)

    def test_flipped_byte_rejected(self):
        cipher = KeystreamCipher(b"k" * 16)
        blob = bytearray(cipher.seal(1, b"payload"))
        blob[0] ^= 0x01
        with pytest.raises(TamperedMessageError):
            cipher.open(1, bytes(blob))

    def test_wrong_key_rejected(self):
        blob = KeystreamCipher(b"k" * 16).seal(1, b"payload")
        with pytest.raises(TamperedMessageError):
            KeystreamCipher(b"x" * 16).open(1, blob)

    def test_short_key_rejected(self):
        with pytest.raises(ValueError):
            KeystreamCipher(b"short")

    def test_empty_plaintext(self):
        cipher = KeystreamCipher(bytes(range(16)))
        assert cipher.open(0, cipher.seal(0, b"")) == b""

    def test_ciphertext_differs_from_plaintext(self):
        cipher = KeystreamCipher(b"k" * 16)
        blob = cipher.seal(1, b"payload")
        assert b"payload" not in blob
        assert len(blob) == len(b"payload") + KeystreamCipher.TAG_LEN
