"""Workload definitions: scenario documents, generated from a seed.

A workload is a fixed list of scenario shapes run as round-robin passes.
Pass ``i`` runs every shape once with its own master seed, derived from
the benchmark seed by hashing, so the same benchmark seed always yields
the same scenario documents for every pass.
"""

from __future__ import annotations

import hashlib
import json

# Trials per scenario per pass.  A pass takes roughly 0.1-0.3 s on a
# 2-core box at the parent commit, which gives many passes per run for the
# medians and keeps a pass short next to the run length.
_TRIALS = {"paper-matrix": 6, "acceptance-small": 30, "lossy-channel": 60}

WHY = {
    "paper-matrix": "ROADMAP scenario matrix at the paper sizing k=17 d=41: "
                    "state-vector measurement and the relay step do most of "
                    "the work",
    "acceptance-small": "acceptance-suite shapes (k<=8, d<=8): fixed per-session "
                        "cost dominates (RNG seeding, sealing, event log, "
                        "aggregation, rendering)",
    "lossy-channel": "k=17 d=41 with p_loss=0.02: ~90% of sessions end at "
                     "emission, so planning, sealing, emission and loss do "
                     "the work and measurement shrinks",
}

NAMES = tuple(WHY)


def _doc(k: int, d: int, mode: str = "base", attack: dict | None = None,
         rule: str = "composed", photon: dict | None = None) -> dict:
    session = {"k": k, "d": d, "reveal_count": k, "mode": mode}
    if mode == "swap":
        session["belief_rule"] = rule
    doc = {"seed": 0, "trials": 0, "session": session,
           "attack": attack or {"kind": "none"},
           "outputs": {"format": "json"}}
    if photon is not None:
        doc["photon"] = photon
    return doc


_INTERCEPT = {"kind": "intercept_resend", "path": "to_bob",
              "basis_choice": "random_per_slot"}
_PNS = {"kind": "pns", "path": "to_bob"}
_PNS_PHOTON = {"p1": 0.5}


def _paper_matrix() -> list[tuple[str, dict]]:
    attacks = [
        ("none", {"kind": "none"}, None),
        ("intercept", _INTERCEPT, None),
        ("pns", _PNS, _PNS_PHOTON),
        ("subset", {"kind": "subset_guess", "path": "to_bob",
                    "guess_count": 17}, None),
        ("server_product", {"kind": "server_product"}, None),
        ("server_ghz", {"kind": "server_ghz"}, None),
    ]
    out = []
    for mode in ("base", "swap"):
        for label, attack, photon in attacks:
            rule = ("measured" if mode == "swap" and label == "server_product"
                    else "composed")
            out.append((f"{mode}-{label}",
                        _doc(17, 41, mode, attack, rule, photon=photon)))
    return out


def _acceptance_small() -> list[tuple[str, dict]]:
    out = [
        ("base-none-k1d8", _doc(1, 8)),
        ("swap-none-k1d8", _doc(1, 8, "swap")),
        ("base-intercept-k1d8", _doc(1, 8, attack=_INTERCEPT)),
        ("base-intercept-k1d1", _doc(1, 1, attack=_INTERCEPT)),
    ]
    for g in range(2, 6):
        out.append((f"base-subset-k2d3g{g}",
                    _doc(2, 3, attack={"kind": "subset_guess", "path": "to_bob",
                                       "guess_count": g})))
    out += [
        ("base-pns-k1d8", _doc(1, 8, attack=_PNS, photon=_PNS_PHOTON)),
        ("base-server_ghz-k8d8", _doc(8, 8, attack={"kind": "server_ghz"})),
        ("swap-server_ghz-k8d8", _doc(8, 8, "swap",
                                      attack={"kind": "server_ghz"})),
        ("swap-server_product-measured-k8d8",
         _doc(8, 8, "swap", attack={"kind": "server_product"},
              rule="measured")),
    ]
    return out


def _lossy_channel() -> list[tuple[str, dict]]:
    photon = {"p1": 0.5, "p_loss": 0.02}
    return [(f"{mode}-{label}-loss", _doc(17, 41, mode, attack, photon=photon))
            for mode in ("base", "swap")
            for label, attack in (("none", {"kind": "none"}), ("pns", _PNS))]


_SHAPES = {"paper-matrix": _paper_matrix,
           "acceptance-small": _acceptance_small,
           "lossy-channel": _lossy_channel}


def pass_seed(seed: int, pass_index: int) -> int:
    """Master seed of one pass: 63 bits of SHA-256 over (seed, pass)."""
    digest = hashlib.sha256(b"perfbench/%d/%d" % (seed, pass_index)).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def scenarios(workload: str, seed: int) -> list[tuple[str, str]]:
    """(label, scenario JSON text) for every shape of ``workload``, seeded
    for pass 0 of a run with benchmark seed ``seed``."""
    if workload not in _SHAPES:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(NAMES)}")
    master = pass_seed(seed, 0)
    out = []
    for label, doc in _SHAPES[workload]():
        doc = dict(doc, seed=master, trials=_TRIALS[workload])
        out.append((label, json.dumps(doc, sort_keys=True)))
    return out
