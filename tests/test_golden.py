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
58-position universe is the only one here wide enough that
``sample_positions`` draws by ``getrandbits(6)`` rejection (bounds 33 to
58).

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
    'base-intercept': {'csv': '44afd29abbd9c578d33fec21540d21eab76057b9c3f444ca357bae863fd127b4', 'json': '4583c7d23458be0754de31da3a9b5c6c152b8570c8325c7377561868d0107c95'},
    'base-none': {'csv': '13f0ab0daefdaebcdb3a899a04cbd95d144748642229be9b30b31433d3ac7ef0', 'json': 'eaa1244612518f2b13d803eedb9a70cad1c773e4d43ea50c4225e1355a1da50e'},
    'base-pns': {'csv': 'ef6112c5a7f9f125794d9fa667b85991e3aa971fb5d152d13865f19e2a14cbd5', 'json': '121b0f129703bef9ca40d4772d60d03ef186a12d10f9b1382cad00131a13dcb9'},
    'base-server_ghz': {'csv': 'e623bcd3f9cf173e6fd778f08e232b5116fda48980f780f2f4bc689ac972a8a7', 'json': '0b9d1bcfc22ba87cec5c360c32403a0409550e03663846fb21d2b6a66de33fa7'},
    'base-server_product': {'csv': 'fc81a0cf6e0e8b9abcf89eb92cf9f3654e8321888d7132a74ff7176f44c1b5cb', 'json': '3f54b08661ab2a03d4654f17cd2336cd5ddeffb52f912396834b52d92e8cf9ce'},
    'base-subset': {'csv': '9c265fe0e16613bab6fbeb3504ff50958ff66e00ce57290114acac21d948bd75', 'json': '6915c6693d75df382f4675478ba6018f82fe69ffd859413ec31f4c4e2c08320a'},
    'fixed-basis-intercept': {'csv': '78aba2c28acfd4684e4a01dd055203b9f43bd538213dc8794c2079fd5e5488ab', 'json': '7239a6355513b299ad68d733ed99895404a5eae742f6a4a8adbc29a56f086b2a'},
    'lossy-pns': {'csv': 'de42d0b8f175ce2a6ffd5c4305bf170631bce3bcd130ccb4c3f0393f5a92f94b', 'json': '1e9602dc83069bbfde9383c0e10f1ecff7a25da972117cbabbf154225b0d00a4'},
    'paper-base-none': {'csv': '1ac12db235045057f419188bb9d6dd5e7bf9e236c73925ce8370371e8170cc95', 'json': 'f7ed4b87d5406f50e2921f4f33242fe8d301727c14919861ce2f472195f9f819'},
    'paper-base-subset': {'csv': '138e5228274c3a1d621e63fe567abe37343e983a9ead67d76d958e3c021bb52c', 'json': 'e18a34aa83d253b7e5442373537c0460d84f73b3030ed78f4366796c02e676f5'},
    'paper-swap-composed-lossy-pns': {'csv': '29c3d97aae62b9fcb3cf1a0c4dcf6868e361056c3465a92642fed97b8badd91f', 'json': 'd2c290dcc919acdfad5179c137933ff071e408e55d5c3b6191443c6c5fe01cf8'},
    'paper-swap-composed-none': {'csv': '82eb32f275702d7b022c004f57aa2554ce10d76fffd35bf2f8ab1858e41f2a5c', 'json': 'e2609a8a5d52fee7d2f1ef8454842c8fd0884d13905f547a4e87b8c9f13bd197'},
    'paper-swap-composed-server_ghz': {'csv': '0346365010dbbca5dd7cb8f8ff4b256db468e05e8be64ad6309250c2da1af56f', 'json': 'cb053a1b16bbbdd75eee5f756d84783a74ac0795abbd3f11d7fb751004d32681'},
    'realtime-intercept': {'csv': 'fb64b3b7801e0d5447c82f888347fd412f3f0162c811a4ca6da9b8e110fd3e5e', 'json': '0c98a8544d9fceb3dd4c1a34da36bba18f219af1b256be3b7a8bcdfa98ed3093'},
    'swap-composed-intercept': {'csv': 'cb445368ed9eb118738d5dbd49f6a100f5aebc20f223d5098d207709e69d54a1', 'json': '00b0cd96110468ae690d5217658cfbdab77e3721e091cfb2f4657c2aa6a445ed'},
    'swap-composed-none': {'csv': 'fb64b3b7801e0d5447c82f888347fd412f3f0162c811a4ca6da9b8e110fd3e5e', 'json': '99431987aefc50559b59899242b237f789151a545d120d7323bb5ee20d78e062'},
    'swap-composed-pns': {'csv': 'fabd9d6cbb50aba1f20ee966d02c38ab738811053f1877b76c47588366a8bb54', 'json': '9816246344836ab8b9601b83474101aafe52f12aa6f5d72e5b06796af0ef7084'},
    'swap-composed-server_ghz': {'csv': '5f34f089cb2dbacb69e464bf91ff74cccd9d2e04b58eed049f559cb563f960f8', 'json': '6308221a403860a0d3b72e4b0fef9d43adb280340deefaeabeaa77afd18950aa'},
    'swap-composed-server_product': {'csv': 'aadc3f2788c75bba121f34713430f267d39837d7a0e98c286c2d9e89a2e53fca', 'json': 'b48efff593b86a6cf083ad32635e766d017a76b249b24641a8e4961aa573a80c'},
    'swap-composed-subset': {'csv': 'fc8cf2b2cd67d49f6f6881a0aba75893906a5d67080ccc073ef67ec77c4cb0b0', 'json': '8c958ef004b687d0c1b9246240b1ff38f3ee1ae50df5dd2a7c29cbfa3f876750'},
    'swap-measured-none': {'csv': 'a05ccafda5bf722d2ab1b3f69154295488e6d5b071e539cf5a8674e82ee9e81f', 'json': '43cf1aed9098194171debbc4fcd226b3982e2780cb3c03e504976e9ee5515b95'},
    'swap-measured-server_product': {'csv': '99f5f04a686cd3bbd633e4c79720b8406ba5402b4a68c1df96465f3a7c35dc13', 'json': '8c864b0cd72c4cfd0001f78a05977e1290438bcc3c9394cb8f124ebfbccfffdb'},
}

GOLDEN_VERIFY_TABLES = '8adf12990ececaf152d0a51585b3c5d1caf89d49879075788606723d00bee0bd'

GOLDEN_PREDICTIONS = '96922553dfa9d8d5107eb281e8a090c88ab1fe3fcea94273d582adc39e9f45c0'

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
