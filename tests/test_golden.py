"""Golden report digests: the same scenarios must render the same bytes.

Each digest is the SHA-256 of a rendered report: a scenario's CSV and JSON
output, the ``verify-tables`` text, and the 16 ``oracle`` dumps (four
created pairs against the entangled source, the product source with either
planted bit, and the triple, each as text and as JSON).  The scenario set
covers every attack kind in base mode and in swap mode (composed rule),
the measured rule for the honest and planted-bit relays, a lossy
multi-photon source, realtime location knowledge and a fixed intercept
basis.  Five more run at the paper's sizing (k=17, d=41, 10 trials): base
and swap honest, swap PNS on both paths over a lossy multi-photon source,
base subset guessing with g=17 and the swap-mode triple relay.  Their
58-position universe is the only one here wide enough that Floyd's draws
of the 17-slot side go by 6-bit rejection (bounds 42 to 58).

One more digest pins ``analytic_predictions`` over a grid of specs
(:func:`prediction_grid`): every closed form's value and note, in order,
so that no form moves unnoticed.  Only a change to a form re-pins it.

A change that keeps the random-draw pattern must leave every digest as it
is.  A change that alters the draw pattern on purpose re-pins the table
and says why.  Every pinned scenario report must also pass its own
grading, so a report with a ``fail`` verdict cannot stay pinned.

Run as a script (``python tests/test_golden.py``, with ``src`` on the path
as pytest puts it), this module prints every pinned digest's current value
in its table's format, so that a deliberate re-pin is copied, not worked
out by hand.

The scenario digests are pinned to draw layout v3: every draw but the
loss marks takes the next bytes of the trial's main stream, the SHAKE-128
output of ``b"qauthsim/<seed>/<trial>"``, which an arriving trial reads in
one call.  Floyd's algorithm draws the plan's smaller side, one byte per
try, keeping its top bits; each twin source is one byte's top two bits,
and every slot's outcome is one byte read through its kernel's code
table.  Two layouts before it gave other digests with the same laws.
Layout v2 drew from a Mersenne Twister seeded with the SHA-256 of the
same address: Floyd's tries by ``getrandbits(width)``, and one 32-bit
word's top two bits per twin source and top byte per slot outcome.  The
layout before that took a Fisher-Yates pass, two words per twin source
and one ``random()`` per slot with more than one outcome.

The two lossy scenarios, ``lossy-pns`` and
``paper-swap-composed-lossy-pns``, are pinned to loss marks drawn from
each stream's own SHAKE-128 loss substream, ahead of a layout drawn only
when every photon arrived, each mark decided by one substream byte and,
at the edge byte only, a 6-byte remainder read after all the marks' bytes.
Three earlier layouts gave other digests for them with the same law:
marks from the stream's Mersenne Twister after its layout, then ahead of
it, then 8 substream bytes per mark.  With the marks on their own
substream, an arriving lossy stream draws exactly what the lossless
session of the same (seed, trial) draws.  At p_loss = 0 no loss mark is
drawn, so every other scenario reads the same draws either way.
"""

import hashlib
import tempfile
from itertools import product
from pathlib import Path

import pytest

from qauthsim.adversary import (
    AttackConfig,
    AttackKind,
    BasisChoice,
    LocationKnowledge,
    TapPath,
)
from qauthsim.channel import PhotonCountModel
from qauthsim.cli import main
from qauthsim.harness import (
    ScenarioSpec,
    analytic_predictions,
    parse_scenario,
    render_report,
    run_scenario,
    verify_tables,
)
from qauthsim.protocol import BeliefRule, ProtocolMode, SessionConfig
from qauthsim.qsim import MeasBasis


def _scenario(mode="base", rule=None, attack=None, photon=None, k=4, d=4,
              trials=30):
    session = {"k": k, "d": d, "mode": mode}
    if rule is not None:
        session["belief_rule"] = rule
    doc = {"seed": 2024, "trials": trials, "session": session}
    if attack is not None:
        doc["attack"] = attack
    if photon is not None:
        doc["photon"] = photon
    return doc


_KINDS = {
    "none": {"kind": "none"},
    "intercept": {"kind": "intercept_resend", "path": "both"},
    "subset": {"kind": "subset_guess", "guess_count": 5},
    "pns": {"kind": "pns", "path": "to_alice"},
    "server_product": {"kind": "server_product"},
    "server_ghz": {"kind": "server_ghz"},
}

SCENARIOS = {
    **{f"base-{name}": _scenario(attack=a) for name, a in _KINDS.items()},
    **{f"swap-composed-{name}": _scenario("swap", "composed", a)
       for name, a in _KINDS.items()},
    "swap-measured-none": _scenario("swap", "measured", _KINDS["none"]),
    "swap-measured-server_product": _scenario("swap", "measured",
                                              _KINDS["server_product"]),
    "lossy-pns": _scenario(attack={"kind": "pns", "path": "both"},
                           photon={"p1": 0.6, "p_loss": 0.05}, k=6, d=6),
    "realtime-intercept": _scenario(
        "swap", "composed", {"kind": "intercept_resend",
                             "location_knowledge": "realtime"}),
    "fixed-basis-intercept": _scenario(
        attack={"kind": "intercept_resend", "basis_choice": "fixed",
                "fixed_basis": "diagonal"}),
}

PAPER = {"k": 17, "d": 41, "trials": 10}

SCENARIOS.update({
    "paper-base-none": _scenario(attack=_KINDS["none"], **PAPER),
    "paper-swap-composed-none": _scenario("swap", "composed", _KINDS["none"],
                                          **PAPER),
    "paper-swap-composed-lossy-pns": _scenario(
        "swap", "composed", {"kind": "pns", "path": "both"},
        photon={"p1": 0.5, "p_loss": 0.02}, **PAPER),
    "paper-base-subset": _scenario(
        attack={"kind": "subset_guess", "guess_count": 17}, **PAPER),
    "paper-swap-composed-server_ghz": _scenario(
        "swap", "composed", _KINDS["server_ghz"], **PAPER),
})

ORACLE_CASES = [
    (created, source, bit)
    for created in ("phi+", "phi-", "psi+", "psi-")
    for source, bit in (("entangled_phi_plus", 0), ("product", 0),
                        ("product", 1), ("ghz", 0))
]


def prediction_grid():
    """The specs whose closed forms are pinned, in order: sizes with and
    without detection slots up to the paper's (k=17, d=41); the full and a
    1-bit token; any-flip checks and a 0.34 threshold; base mode in either
    key basis (and once with a belief rule it ignores) and swap mode under
    each rule; no attack, each relay compromise, and on every path under
    every location knowledge an intercept in a random basis or either fixed
    basis, PNS, and a guess of 1, k and k + d slots; an ideal and a
    multi-photon source, each lossless and lossy."""
    rect, diag = MeasBasis.RECTILINEAR, MeasBasis.DIAGONAL
    modes = ((ProtocolMode.BASE, None, rect), (ProtocolMode.BASE, None, diag),
             (ProtocolMode.BASE, BeliefRule.MEASURED, rect),
             (ProtocolMode.SWAP, BeliefRule.COMPOSED, rect),
             (ProtocolMode.SWAP, BeliefRule.MEASURED, rect))
    sizes = ((1, 0), (1, 1), (1, 3), (2, 3), (3, 0), (4, 4), (17, 41))
    for (k, d), reveal, threshold, (mode, rule, basis) in product(
            sizes, (None, 1), (0.0, 0.34), modes):
        cfg = SessionConfig(k, d, reveal, mode, rule, threshold, basis)
        attacks = [None, AttackConfig(AttackKind.SERVER_PRODUCT),
                   AttackConfig(AttackKind.SERVER_GHZ)]
        for path, knowledge in product(TapPath, LocationKnowledge):
            for choice, fixed in ((BasisChoice.RANDOM_PER_SLOT, rect),
                                  (BasisChoice.FIXED, rect),
                                  (BasisChoice.FIXED, diag)):
                attacks.append(AttackConfig(
                    AttackKind.INTERCEPT_RESEND, path, choice, fixed,
                    location_knowledge=knowledge))
            attacks.append(AttackConfig(AttackKind.PNS, path,
                                        location_knowledge=knowledge))
            if knowledge is not LocationKnowledge.REALTIME:
                attacks += [AttackConfig(AttackKind.SUBSET_GUESS, path,
                                         guess_count=g,
                                         location_knowledge=knowledge)
                            for g in sorted({1, k, k + d})]
        for attack, p1, p_loss in product(attacks, (1.0, 0.3), (0.0, 0.05)):
            yield ScenarioSpec(1, 1, cfg, attack, PhotonCountModel(p1), p_loss)


def predictions_digest() -> str:
    """The digest of every grid spec's predictions: (name, (value, note))
    in order, one spec per line."""
    return _sha("\n".join([repr(list(analytic_predictions(spec).items()))
                           for spec in prediction_grid()]))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def scenario_digests(report) -> dict[str, str]:
    return {fmt: _sha(render_report(report, fmt)) for fmt in ("csv", "json")}


def oracle_digest(case, fmt: str, tmp_path) -> str:
    created, source, bit = case
    out = tmp_path / f"oracle.{fmt}"
    assert main(["oracle", "--created", created, "--source", source,
                 "--product-bit", str(bit), "--format", fmt,
                 "--out", str(out)]) == 0
    return _sha(out.read_text(encoding="utf-8"))


GOLDEN_SCENARIOS = {
    'base-intercept': {'csv': 'd6aae5f401449b65b2443e5e90ff651ed05401c452673a0a6a6ce3bc2e3603c2', 'json': 'be2ca059af7401e4953a083ee8f5a7b877debf7f8f83e305a3d0ba742bd0c9c3'},
    'base-none': {'csv': '7ded01e877b9ae2195ff7c5e9912fec11e55445d7eecae8d350efbb49c460064', 'json': 'ed6189c36cb9767ed1354393c13cb59eb2a403ff0d79acbb955e0075cbfd18ca'},
    'base-pns': {'csv': '28d4585425c3ef2d02014d428023d36a92b51adcd32bcd1c289cbd76c5db1196', 'json': '531c0eb6cb560b3ef7c020a9f21b06e9c10d7a880ee14146767702019021a5e6'},
    'base-server_ghz': {'csv': '5b4aefe99c421aed171f8f71b057854b78fe2cf14c11fada05caa4897de65268', 'json': '9c80c88fb73721e3b170345f346f369e06277dfe20f16ca48daabe6991c22623'},
    'base-server_product': {'csv': '27331d544e14a97c8399ef76f5bfc15e6307875cd17bacafb0c22d64dca69b0d', 'json': '701dc253cc2ac4ef9175925a720fe36da6ed4e2ce3624b63887a3489316f2682'},
    'base-subset': {'csv': '4af9c7c559be28ebfee809d625e94400af4663d725d1ae2dcd8997d6e0b19920', 'json': '7665a71a81d3bec3f59a36d950a162d49f936638c1b444cc382051160394a52b'},
    'fixed-basis-intercept': {'csv': '81946199c73eaf8432e6b92ba6c846871d66d0f29b0a8de34b01f402fb88d651', 'json': 'e2954e0ecc97d524fd6e13afd84ed49ff519e24d38d164368574554767839344'},
    'lossy-pns': {'csv': 'f696fb7899f6522aa9de5686b705b90f8b776f9eb6926eea08bc006cfd0ea659', 'json': '33e99166cc3bfb87610fd8fb0d0c691a73568266656fcee68e29f90d09f6ef02'},
    'paper-base-none': {'csv': '10e0bd5dce014804ae62fb24f0bbd24fb87f3e3e254a5a6f882ea03f146e117e', 'json': '62413c3f919d446e5fb11a036b1f3389effd986c1cb8b35ae0362b1c52b67406'},
    'paper-base-subset': {'csv': '002f4f31ea215982bc20ed20d7f3488c3f0758bb47a312dffdd7f3323183a52f', 'json': 'b6c5f0ce4c6a32d4c7e7e0e046bd320af50230c9e2ee536093c6767d80193edf'},
    'paper-swap-composed-lossy-pns': {'csv': '47f925710b1753310f0e8463e98dc022146228ccec59d32a8176c97780b01747', 'json': 'ffd467ff869414cfa7177c541f14c49a7ff0c317025bbf54df643b0b0b9dc3e9'},
    'paper-swap-composed-none': {'csv': '064df0607a2b6edea45f513553e3a3b964f97437feb4ba9de2851fa33b5f2470', 'json': 'f3c684dcd8cd9e16a6e99581cbb67abd3b0b87d0cb3682ee8882ca4dfe75ac8d'},
    'paper-swap-composed-server_ghz': {'csv': 'e19260c2519cdee6ef1631110b35a24fe1ffe5b9b9df81381654422a1d4d99cf', 'json': '721d8fa05f69ef371d159d7e1a506a96882263d39aec42e5f541d701422b11ae'},
    'realtime-intercept': {'csv': 'cf31cafd06758b6e63d1f238a76bef8ce4834cf224c8654d1c15d5120424121e', 'json': '113122ff8f6b9752cecb4adbd27b0c0a2bec63b6a5684637e022a3b1767fd8be'},
    'swap-composed-intercept': {'csv': 'ae712e5a4166a477cbb2c24c5b55fed63128b9628c906453bc64e9df87de7b2d', 'json': '9ac5339bea3c8941e214ed067622350c7070c97c2a45149c120d53e9ee9bd2aa'},
    'swap-composed-none': {'csv': 'cf31cafd06758b6e63d1f238a76bef8ce4834cf224c8654d1c15d5120424121e', 'json': '0329723c373a2a8ccabef2dbe482f20fd57d7bee6251b11d9a696fd01d654ded'},
    'swap-composed-pns': {'csv': '6e9157f02d41412cbdd7d6906bfb9c48e090d9e4f0a3a0445315a028a9a16380', 'json': 'ae2dc6b5fce4d97cee5d0cf40e1a82ee0fabcca603dfb44e62ed65542f337bb3'},
    'swap-composed-server_ghz': {'csv': '058d050a8374078047874a0397d69d5baaf09b3456bbc3f2d541eaef043cc0b8', 'json': 'b54637304e58bcaaf959c658ca7751dcf02ba2d459756627032a3163f4cc22a2'},
    'swap-composed-server_product': {'csv': 'b735c36a3468d03623269f22bed8a59271ed60300e1a86a100f2f927829be69d', 'json': 'f3d8e1ac30d1fb665d58279f2ca1b5f112f6c6fd45144f09d85e5fdd903273d3'},
    'swap-composed-subset': {'csv': '9a45025d73b8b4c813e4b386b8fa4f0420164f434f3f4bca1647b95426fffeef', 'json': '80b942c374ff51efe697da0e00fd256e5da98d263e95234fb23d7e2cdbe036a0'},
    'swap-measured-none': {'csv': 'a3b1e595dc19b595e4cb61ab21bbce36fc3162b873692b2024c44803956b26bb', 'json': '213d3697aef9440a739e89632d0499a09eff0a925a59475ee36d1e9a90ba51b2'},
    'swap-measured-server_product': {'csv': '4e7335a26aa8d5a4abeee34f73de3302b996b380ff232f513cdd28efbbc350e5', 'json': '34e9881e5f3cfb02e566fe84cc7b1e9f1c2026afa8c0a0ea9fff4df6c3aaa907'},
}

GOLDEN_VERIFY_TABLES = '8adf12990ececaf152d0a51585b3c5d1caf89d49879075788606723d00bee0bd'

GOLDEN_PREDICTIONS = '182957316e29ed7bf4acc4f7795bb5149298091132ce46ef5a29365de5aa9076'

GOLDEN_ORACLE = {
    'phi+/entangled_phi_plus/0/text': 'c1ea6ff42083babe73df3ef68f5cf522de909d1cac7146717e30fdc37ffed3d2',
    'phi+/entangled_phi_plus/0/json': 'b63c642936441be444355335e96e04d86287d41cafc9822ab7f38990b4bb3922',
    'phi+/product/0/text': 'c2ef868bd26ab29abc9554315f5bb226c607212d4aad1dbb4e301e0cb1f40439',
    'phi+/product/0/json': 'c4c0651188a8c710217433acbb8cf9e105d1e3789cbbe9504356d121337e9207',
    'phi+/product/1/text': '4171f885daac0eb308143047f33afb125a13dfd36a771baff8418e6c13f07874',
    'phi+/product/1/json': '2ecde58a0152a14b9605a5b7c220ca4f2fb3440609b18aeb99de9d510cb83c11',
    'phi+/ghz/0/text': 'ff552c32211a17571de59a7db253c08a75619e99fbe49eaba299de7d91c9a4fb',
    'phi+/ghz/0/json': '079338eb90cb23b67e6b81c4f52fe9801094f043fd0c543c6d02bebe53de6d04',
    'phi-/entangled_phi_plus/0/text': '6b1c8b96a5c82b8906471fc3ef2a1caee0b8108134035ca9668fad5ea4a04375',
    'phi-/entangled_phi_plus/0/json': '8404557148322ec9eb91df8385158b83be066cceb229ca9265f9b710a4580d4a',
    'phi-/product/0/text': 'ced55a138be6ce3502864fa584bc07f31d041b698c23bf7dac3862ce5d5f59a7',
    'phi-/product/0/json': 'cc1f04a10ff2a6449b166e784428f28d512dc4569ac5f413926c71089097b191',
    'phi-/product/1/text': '357c0200cbf991fae6ba2e75379a708aa7f27dad95f47a8d79b247954bdf62a9',
    'phi-/product/1/json': 'ea23f9d13923119bb20e5f11d121f77a903d99e14ed43e8a5b0fc2adb515daf3',
    'phi-/ghz/0/text': '23511dce7535d3284a96489df6d8a77a0a822a80232ebe94de86d42e1922f0d8',
    'phi-/ghz/0/json': 'f42d277638956fc61f246aca3d8c0a819cdbc62398438af47cf8535259b016a3',
    'psi+/entangled_phi_plus/0/text': '6ae7c0dcde946f27a9bc952476d1b62e12e65b8ec7b2ae2fd5dc017cbd8fbb68',
    'psi+/entangled_phi_plus/0/json': '5523915a11d05c35bdfa666630d5974c5a2b08b1b267f1624228f4df67b6a8c0',
    'psi+/product/0/text': '615cc86aaabb44c7afb099276655a5ac424c68489f965517ac7c53e976ebca58',
    'psi+/product/0/json': '16b753cd2653bff043588e11139078f6afc266a09390bf06621b7de5fc4e2660',
    'psi+/product/1/text': '93325c2be96a0d4c999c536b99e24b66b63723b5a4ce0ab6548eea6ea1d34e74',
    'psi+/product/1/json': '19cb974dfcf9439b61607ae257eb9664ceea79597f4a2a8cd39e58b025deff45',
    'psi+/ghz/0/text': 'f50b92234836f5b0a0cbc243f75a70ce5ebc62e05d4aa27ef81207ca1f5bac5f',
    'psi+/ghz/0/json': '9a246b1cf88c717052d053a14d1d74890376b29600812e410e45f70b66273624',
    'psi-/entangled_phi_plus/0/text': '0732687f3e793ff6e51f2b540c3cf68e04a21b8d36c9ceb40111a06e7c2e4075',
    'psi-/entangled_phi_plus/0/json': 'ab32d484fe59f2f2cf608e62a2f1a3638e1f56861b93590f8a5bb53d6ded974b',
    'psi-/product/0/text': '726e57bfe59e4881e0273e6398681264e59e42ba0bad166e2081ce685d1c3ff9',
    'psi-/product/0/json': '239281f7ad23e1ae6c1ce04fc88cf052c065568b42cd05b859c28ab4c848dd06',
    'psi-/product/1/text': '6438ff8b9b89d4a3d091b4c695e9f2a2bf4351e30142a21b1e4b8df6ae3eb3e5',
    'psi-/product/1/json': '998a005bcec66fb4ac5649206a73a412b189884984a084aa0e5006f9d776b188',
    'psi-/ghz/0/text': 'b5ab1a28598163aa73f69d0b8631c9f49c3589b047e9be162d5fc4ba05134a1b',
    'psi-/ghz/0/json': '7a1f79141d327af4e84179503b6df02cf6bc734207726270eb4f46c04ec79cfd',
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_report_digests(name):
    # a pinned report must also pass its own grading
    report = run_scenario(parse_scenario(SCENARIOS[name]))
    assert report.all_pass, report.failures()
    assert scenario_digests(report) == GOLDEN_SCENARIOS[name]


def test_sessions_sample_only_the_slot_kernels(monkeypatch):
    # The per-slot kernels are the one session sampler.  With the kernel
    # cache emptied, and the per-photon path (photon slots, streams, taps,
    # the relay step and its record, single-qubit and pair measurement,
    # grafting, building a register or a tensor product) and the layout's
    # control message patched to raise everywhere they are bound, every
    # pinned scenario still reproduces its digests: its kernels are built
    # and sampled without any of them.
    import qauthsim
    from qauthsim import adversary, channel, harness, protocol, qsim

    def refuse(*args, **kwargs):
        raise AssertionError("a session took the per-photon path")

    names = ("build_streams", "apply_tap", "alice_swap_step", "SwapRecord",
             "measure_in_basis", "measure_bell", "tensor")
    for module in (qauthsim, qsim, channel, adversary, protocol, harness):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(channel.PhotonSlot, "__init__", refuse)
    monkeypatch.setattr(qsim.StateRegister, "extend_front", refuse)
    monkeypatch.setattr(qsim.StateRegister, "__init__", refuse)
    monkeypatch.setattr(protocol.TamperSpec, "__init__", refuse)
    saved = dict(qsim._KERNELS)
    qsim._KERNELS.clear()
    # session programs keep the kernel tables they looked up: with none
    # left, every table is built again through ``slot_kernels``
    protocol._program.cache_clear()
    try:
        for name, doc in sorted(SCENARIOS.items()):
            report = run_scenario(parse_scenario(doc))
            assert scenario_digests(report) == GOLDEN_SCENARIOS[name], name
    finally:
        qsim._KERNELS.update(saved)


@pytest.mark.parametrize("name", ["paper-base-none",
                                  "paper-swap-composed-lossy-pns"])
def test_every_arriving_trial_reads_its_main_stream_once(monkeypatch, name):
    # Draw layout v3: every draw of an arriving trial comes from one read of
    # its main stream, and a lost trial reads only its loss substream.
    from qauthsim import qsim
    from qauthsim.channel import draw_loss
    from qauthsim.qsim import RandomSource
    from test_qsim import _RecordedXOF

    spec = parse_scenario(SCENARIOS[name])
    slots = spec.session.total_slots
    arriving = [t for t in range(spec.trials)
                if not (spec.p_loss and draw_loss(slots, spec.p_loss,
                                                  RandomSource(spec.seed, t)))]
    assert arriving and (len(arriving) < spec.trials) == bool(spec.p_loss)
    reads = []
    monkeypatch.setattr(qsim, "shake_128",
                        lambda address: _RecordedXOF(address, reads))
    run_scenario(spec)
    main = [address for address, _ in reads
            if not address.startswith(b"qauthsim/loss/")]
    assert main == [b"qauthsim/%d/%d" % (spec.seed, t) for t in arriving]


def test_verify_tables_digest():
    assert _sha(verify_tables().text()) == GOLDEN_VERIFY_TABLES


def test_analytic_predictions_digest():
    assert predictions_digest() == GOLDEN_PREDICTIONS


def _oracle_key(case, fmt: str) -> str:
    return "/".join(map(str, case)) + "/" + fmt


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda case: "/".join(map(str, case)))
def test_oracle_dump_digests(case, fmt, tmp_path):
    assert oracle_digest(case, fmt, tmp_path) == GOLDEN_ORACLE[_oracle_key(case, fmt)]


def pinned_tables() -> str:
    """Every pinned digest's current value, written as the tables above."""
    lines = ["GOLDEN_SCENARIOS = {"]
    for name in sorted(SCENARIOS):
        report = run_scenario(parse_scenario(SCENARIOS[name]))
        lines.append(f"    {name!r}: {scenario_digests(report)!r},")
    lines += ["}", "",
              f"GOLDEN_VERIFY_TABLES = {_sha(verify_tables().text())!r}", "",
              f"GOLDEN_PREDICTIONS = {predictions_digest()!r}", "",
              "GOLDEN_ORACLE = {"]
    with tempfile.TemporaryDirectory() as tmp:
        for case in ORACLE_CASES:
            for fmt in ("text", "json"):
                digest = oracle_digest(case, fmt, Path(tmp))
                lines.append(f"    {_oracle_key(case, fmt)!r}: {digest!r},")
    lines.append("}")
    return "\n".join(lines)


if __name__ == "__main__":
    print(pinned_tables())
