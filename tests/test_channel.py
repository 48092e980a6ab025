"""Channel layer: streams, loss, taps, and the sealed classical side."""

import hashlib

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
from qauthsim.harness import _summarize
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
    assert _summarize("singles", singles, n, model.p1).verdict == "pass"


def test_ideal_source_emits_without_sampling_counts(monkeypatch):
    plan = _plan()
    model = PhotonCountModel(1.0)
    twin = RandomSource(3, 0)
    build_streams(plan, model, twin)

    def refuse(self, rand):
        raise AssertionError("an ideal source samples no photon count")

    monkeypatch.setattr(PhotonCountModel, "sample", refuse)
    rand = RandomSource(3, 0)
    sa, sb = build_streams(plan, model, rand)
    assert all(s.photon_count == 1 for s in sa.slots + sb.slots)
    assert rand.uniform() == twin.uniform()


def test_build_streams_layout():
    plan = _plan()
    rand = RandomSource(3, 0)
    sa, sb = build_streams(plan, PhotonCountModel(), rand)
    assert sa.path is Path.TO_ALICE and sb.path is Path.TO_BOB
    assert [s.position for s in sa.slots] == list(range(8))
    assert [s.position for s in sb.slots] == list(range(8))
    for pa, pb in zip(sa.slots, sb.slots):
        if pa.position in plan.decoys:
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
    for position, (value, basis) in plan.decoys.items():
        pa, pb = sa.slots[position], sb.slots[position]
        assert pa.measure(basis, rand) == value
        assert pb.measure(basis, rand) == value


def test_key_slot_halves_correlate():
    plan = _plan(seed=9)
    for trial in range(30):
        rand = RandomSource(5, trial)
        sa, sb = build_streams(plan, PhotonCountModel(), rand)
        for position in plan.key_positions:
            pa, pb = sa.slots[position], sb.slots[position]
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
    # every slot is lost with chance p_loss on its own
    p_loss = 0.3
    n_lost = 0
    n_slots = 0
    first_lost = None
    for trial in range(400):
        rand = RandomSource(7, trial)
        sa, _ = build_streams(_plan(seed=11), PhotonCountModel(), rand)
        n_lost += apply_loss(sa, p_loss, rand)
        n_slots += len(sa.slots)
        if first_lost is None:
            for slot in sa.slots:
                if slot.lost:
                    first_lost = slot
    assert _summarize("lost", n_lost, n_slots, p_loss).verdict == "pass"
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

    def test_sealed_bytes_pinned(self):
        # known answer: sealing may be computed any way that gives these bytes
        cipher = KeystreamCipher(bytes(range(16)))
        texts = {n: (bytes(range(256)) * 3)[:n] for n in (0, 1, 31, 32, 33, 742)}
        blobs = {n: cipher.seal(n, text) for n, text in texts.items()}
        assert hashlib.sha256(b"".join(blobs.values())).hexdigest() == \
            "28a1dd33711a84394cec3d12e562901aca0e7450c0f8bd1fba5a409d97445f48"
        assert {n: cipher.open(n, blob) for n, blob in blobs.items()} == texts

    def test_one_instance_seals_as_fresh_ones_do(self):
        # an instance reuses the last keystream it hashed; what it seals
        # must still equal a fresh instance's bytes, and what it sealed
        # earlier under another (nonce, length) must still open
        key = bytes(range(16))
        cipher = KeystreamCipher(key)
        text = bytes(range(256)) * 3
        sealed = []
        for nonce, plain in ((5, text), (5, text[::-1]), (5, text[:40]),
                             (6, text[:40]), (5, b"")):
            blob = cipher.seal(nonce, plain)
            assert blob == KeystreamCipher(key).seal(nonce, plain)
            assert cipher.open(nonce, blob) == plain
            sealed.append((nonce, plain, blob))
        for nonce, plain, blob in sealed:
            assert cipher.open(nonce, blob) == plain

    @pytest.mark.parametrize("fault", ["body", "tag", "nonce"])
    def test_fault_after_seal_rejected(self, fault):
        cipher = KeystreamCipher(b"k" * 16)
        blob = bytearray(cipher.seal(7, b"x" * 100))
        nonce = 7
        if fault == "body":
            blob[40] ^= 0x80
        elif fault == "tag":
            blob[-1] ^= 0x01
        else:
            nonce = 8
        with pytest.raises(TamperedMessageError):
            cipher.open(nonce, bytes(blob))

    def test_ciphertext_differs_from_plaintext(self):
        cipher = KeystreamCipher(b"k" * 16)
        blob = cipher.seal(1, b"payload")
        assert b"payload" not in blob
        assert len(blob) == len(b"payload") + KeystreamCipher.TAG_LEN
