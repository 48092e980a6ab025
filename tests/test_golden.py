"""Golden report digests: the same scenarios must render the same bytes.

Each digest is the SHA-256 of a rendered report: a scenario's CSV and JSON
output, the ``verify-tables`` text, and the 16 ``oracle`` dumps (four
created pairs against the entangled source, the product source with either
planted bit, and the triple, each as text and as JSON).  The scenario set
covers every attack kind in base mode and in swap mode (composed rule),
the measured rule for the honest and planted-bit relays, a lossy
multi-photon source, realtime location knowledge and a fixed intercept
basis.

A change that keeps the random-draw pattern must leave every digest as it
is.  A change that alters the draw pattern on purpose re-pins the table
and says why.
"""

import hashlib

import pytest

from qauthsim.cli import main
from qauthsim.harness import parse_scenario, render_report, run_scenario, verify_tables


def _scenario(mode="base", rule=None, attack=None, photon=None, k=4, d=4):
    session = {"k": k, "d": d, "mode": mode}
    if rule is not None:
        session["belief_rule"] = rule
    doc = {"seed": 2024, "trials": 30, "session": session}
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

ORACLE_CASES = [
    (created, source, bit)
    for created in ("phi+", "phi-", "psi+", "psi-")
    for source, bit in (("entangled_phi_plus", 0), ("product", 0),
                        ("product", 1), ("ghz", 0))
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def scenario_digests(name: str) -> dict[str, str]:
    report = run_scenario(parse_scenario(SCENARIOS[name]))
    return {fmt: _sha(render_report(report, fmt)) for fmt in ("csv", "json")}


def oracle_digest(case, fmt: str, tmp_path) -> str:
    created, source, bit = case
    out = tmp_path / f"oracle.{fmt}"
    assert main(["oracle", "--created", created, "--source", source,
                 "--product-bit", str(bit), "--format", fmt,
                 "--out", str(out)]) == 0
    return _sha(out.read_text(encoding="utf-8"))


GOLDEN_SCENARIOS = {
    'base-intercept': {'csv': 'b7c3d51b97104db94a1562059fe775d83900632b89b1d54eebb671f3c1f6ffa5', 'json': '3acdba94505316cc61fcf418044f7a6c26e030508af5f476dded960b2c4e4e3b'},
    'base-none': {'csv': 'd55ffdd45f7a0c38011f1ae0a94f62db7f4622f7f112a348237d167afd9cd1fe', 'json': 'e3c144f72fbb6d50744653fded76a11024117c257bfde2892f7c836df5941007'},
    'base-pns': {'csv': '6fc0f9fd0293fa9737e61780468a0a43db181001c6a46994ae787bd97bed01d1', 'json': 'ff24132f88b8bc13fda823d6e390cc4b6e0f3499d8e445c60ba33df2c885b6c8'},
    'base-server_ghz': {'csv': 'cb96f464ef1b4d483b183cb9f476c1cbfb79ae4da03f2a09ba575fc0c0c080d3', 'json': 'd356a42cf3caea5e99aa658e9b76547377e910073357cdf8eb2be978c99f2041'},
    'base-server_product': {'csv': 'ce5dd104e2a3058bf2795dc28366d949dd70e2234b1640a74e82d2d48dad928d', 'json': '70eca675e189eb91dbe42f8cb9d32c9198b2b106cf25e223190c9a80ba4b74f2'},
    'base-subset': {'csv': '401bb354e38e09d7450bd1b2f7bb543d922f9db17a420d9e8d7134ddb2d42608', 'json': '0dd38ea4004e3a5a989f897931ae35b39fdd81f49ad9cee8c3dffdf8acb8e8eb'},
    'fixed-basis-intercept': {'csv': 'a886e458c49b2f775d8cbe5c4cbb04a4e47d166d990ca55a116bc433bc373249', 'json': '7d2204b2c3f38238be7ccdd03c676d1271c93d225a84728de50ab496349170f0'},
    'lossy-pns': {'csv': 'c70411e46e532c816b19b7abe66fc40fd0f1d7d1fb4df647ed48f0568f5c5fb9', 'json': '93a3cb3343ad09590ae3701cd2da96b589a57c6735360fbd581c5f382769f713'},
    'realtime-intercept': {'csv': '3931cd8ff52978cef5fdc4d505e00184977e0c09730fa26cb4c8ccf62e7dfc5a', 'json': 'fa0d20c36d89a20891d48ca5465d2907a3a5ec6e85d28403b9f127b50cac5fee'},
    'swap-composed-intercept': {'csv': 'e997062a0abea27b1e3f24887e94ac461df64a25124f820bbd7737a317e63ac2', 'json': '528ba89d9da4b98bab7bee9707e126f50d066379ff3694b730921c9de6f1dee3'},
    'swap-composed-none': {'csv': '52191db49f5599954f0a9808f4ba392aa8a8d7434bce7e630796a8b91063dc8e', 'json': 'c5219bd2a357bb1d09102dbaf14e3624a66127581b137b0c8c60106e4b60cd93'},
    'swap-composed-pns': {'csv': '8c8f0a2b9fef60444749a355679a3e0577c815dd0f4490f213fc81e9dcc7209c', 'json': 'e17883ca4deb5faaf6e5d588e4e07ae492039e6d84eec39895c61aa66b59bbad'},
    'swap-composed-server_ghz': {'csv': 'c977748ce89c8933e87da5f0c38bea4f17cf51c8efd7bf8bc51e85e8f5774364', 'json': 'bc10a2472e62e8fd35f389797a79937b1219078774ff3bd64a6c4801ce5573eb'},
    'swap-composed-server_product': {'csv': '0e888acfd006ae5212a2d8657fe998a85593541e269de05c02fef1c8673f529b', 'json': '9925b05080401aa8e30ca6a98f75856aa0af1c2518e4bb780ecab76bdd355dfc'},
    'swap-composed-subset': {'csv': '1eea5cc5ed104796ae8db923379f6e11c60ea1f1468296422f77abf6dbb2ca0b', 'json': '6886c6a71fc0ea18a3ec4a65e172861bd3200a1ca6de8d7869e9ef7136e7ee00'},
    'swap-measured-none': {'csv': '7adb7f32156bb447f7df406645dc43e9e6169d58a073cf4fa5453d18e76f9a03', 'json': '79c04cc3c452e23e1c9b3e0076a027e5d89c947c189f5be495055d02773084c2'},
    'swap-measured-server_product': {'csv': '9a5b45c546e935f55b102fe24617e4de30cc31dacadfc748738cf2180d82cd3a', 'json': '3f03ac07ea005fec73a6b4dba47ba4a4f497062ac31e9876cf7b14f34534a3fd'},
}

GOLDEN_VERIFY_TABLES = '2ccc7e3ef4d37522a03f40ab785ed60d7503263742edf6c2580e56d358da3914'

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
    assert scenario_digests(name) == GOLDEN_SCENARIOS[name]


def test_verify_tables_digest():
    assert _sha(verify_tables().text()) == GOLDEN_VERIFY_TABLES


def _oracle_key(case, fmt: str) -> str:
    return "/".join(map(str, case)) + "/" + fmt


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda case: "/".join(map(str, case)))
def test_oracle_dump_digests(case, fmt, tmp_path):
    assert oracle_digest(case, fmt, tmp_path) == GOLDEN_ORACLE[_oracle_key(case, fmt)]
