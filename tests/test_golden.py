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
of the 17-slot side go by ``getrandbits(6)`` rejection (bounds 42 to 58).

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

The scenario digests are pinned to draw layout v2: the plan draws its
smaller side by Floyd's algorithm and each twin source with one word's
top two bits, and every slot's outcome is one word's top byte read
through its kernel's code table.  The layout before it (a Fisher-Yates
pass, two words per twin source, one ``random()`` per slot with more
than one outcome) gave other digests with the same laws.

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
    'base-intercept': {'csv': '6931116eaa2495f3880a575998923e910f7c1f498d0ffb0e4507187d08758f90', 'json': '0ce0f2ad48a8affe7fa7120e9f5b6437e9219254b4ef016b78bf9a7914198711'},
    'base-none': {'csv': '76352960ab2d76e6fd8718de8bd5c25fa3262fbfae07b2d962cface6eb056b26', 'json': '980c354217784a52a9889f30f474414a870e18bd031c07e0fe30e60a8997e13c'},
    'base-pns': {'csv': '0e6278a7c271dd251fe2d278c4a29a7593ac9ea7db6abd4ba871d8dc2f5c1a44', 'json': 'bb27e60ad4d993fc83ede8f23c86ceaac7318409b9d8993cf5d506bad3d81700'},
    'base-server_ghz': {'csv': 'a1c3555f2d626ac54e53fb1e63196de7fa098f56f4133740b4e8057b405c9add', 'json': '18439aea9fb7b28862436df4af7784afe94133240aeb08a124d9c12828d8c041'},
    'base-server_product': {'csv': 'bc2efa99ba4c87b7020cecf4737accb701268199f21e9da364186bf014decf0d', 'json': '4a7d25dff521efe2834d6754431be71d18b63fbdbb1bb6caaef541c249dc7bcf'},
    'base-subset': {'csv': 'bfee54e06a44975bcf58d7638e9bb42f21fcb806c3c0b48b6c1ad28b05478855', 'json': 'd29cc1fb3a4f02807832ded9da947607074b8a3f83424e72f31b24bb30a91f88'},
    'fixed-basis-intercept': {'csv': '18c103c3056b528154d5afd88dce13a4c851ea8ced3d78f6486a1d87ea633586', 'json': 'be4ec9b4e0f9a7b7aa3b4f6f629a54f094ac8cd6560f196c4e4b110d11bcfc48'},
    'lossy-pns': {'csv': '70f49df773848c03b8fafb41e5b73c612d0c3b103940184ca47f245af6da8218', 'json': 'e304d573d4bfa611316b1a3473f3274540894d44b2fc302b49eeccaa00eedd00'},
    'paper-base-none': {'csv': '9c3f85ef7513bafb3e9b098c623579a9cb37ba3a4ea61a06bbdcea1196282c17', 'json': 'cb026ad15fe91129c4782a2fc910e83e60b697244ac2c9a57b3a09eaedba89f3'},
    'paper-base-subset': {'csv': '7bb9460ac5b23cc5a962aae30095c03f955ae7087f8e193ea8cee0ed70fcde9c', 'json': 'fa07ece9dfa2e7163fe754541059846968235a33c0ea1b625b8aee6713945ba0'},
    'paper-swap-composed-lossy-pns': {'csv': 'f103ebd7b3f6a02c2d4ee1072f3e579611784852c34da633e64e206ab65ba988', 'json': '6f73dfc5c3944e09fb9464e79571ff13dbadd22cc22fa9320a3b6214291c973c'},
    'paper-swap-composed-none': {'csv': 'e6e741abda40f99d8110c04e309e2dea61463586329ad9f4eef13619e5d3e5c4', 'json': '7aece893b258f4fb25692ff74126a4e7adc71f7731fd1a2956ec5b9a222558c9'},
    'paper-swap-composed-server_ghz': {'csv': 'cc6e061f72092cc653871fbb919f7db8b59c86bf297227e18943475920196dde', 'json': '6f885c8b7d54f4c1455593650b6b1cfcd3f3d08cb9cde04ffffa7a7846491c0d'},
    'realtime-intercept': {'csv': '73cb96c1e167569a4a813f691306d33cedb5d3a224d9d283fd78813c2860c268', 'json': 'ccbb8bc73bd43c6daeee68964b48332473cb1e527b7ffb72817ed4231fd1ca10'},
    'swap-composed-intercept': {'csv': '67e7d755a9cd5e52dd78a87711111429dfc271106c8858aaee1822532b6b6daa', 'json': '7b4dbd26f3179d33940f43737afaeebaaa8f46e12b940db0f960359f3b965b44'},
    'swap-composed-none': {'csv': '73cb96c1e167569a4a813f691306d33cedb5d3a224d9d283fd78813c2860c268', 'json': '6b9447ba3695369598df5eef31baa86ce63ad76ed51d7548fc647565f417d4d8'},
    'swap-composed-pns': {'csv': '0761693d2315ad207fdcbab27a64883d05a3c39f3152bf598fa431c96f2a4fb1', 'json': 'c9606b91eb0cdab00fa5385bc3c85dd316f78101897e59e7dce70e087cc331c6'},
    'swap-composed-server_ghz': {'csv': '6a9757e403f8215d67cfa9d02f1c3a9192c13d4488cc45f01a234a93756256f6', 'json': '2b958caa94eabf1dd2f3df5ae95c64b43e61e475b98a77e142784741d7ad4a02'},
    'swap-composed-server_product': {'csv': 'c7cb79fbfaff69dbb3f12d7679e658001d4e66ea2ca1eb725f3eae0d2a6ef356', 'json': '208022caf2baf2ff22c224a764d72dbd8b5733d95697e1e9f5c96e6004e87872'},
    'swap-composed-subset': {'csv': '21d7d934bf2c6145be4cfa83a6691426534c7c3addef9a68fea5aa502200f0a8', 'json': '1caed8082d4419fed5d5c49b890ee9cf4edd75bc81d9a39f723ae2c207da15b7'},
    'swap-measured-none': {'csv': '46ccd56a4c0885f6d278b601c7ba986488f07585d5dd0ab5984335fd6f0df498', 'json': '4a8489263066f5291ffb449a1ac9a2321a1893e9880064384c62dfb1db1ed5c7'},
    'swap-measured-server_product': {'csv': '03686b1cad0e10e97d3aefb487bace40bd35bfc486fdf5ae05bda6b9f913e0fd', 'json': '6a3623fd00dbe3864eaa14ae72c0652c3c4e4a962af2fcba55733c0f17682d06'},
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
