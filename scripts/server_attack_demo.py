#!/usr/bin/env python3
"""Show what a compromised relay server can and cannot get away with.

Runs the product-state and three-particle attacks under both relay modes
and both belief rules, printing acceptance rate, inter-party key match,
and the server's copy accuracy side by side.
"""

import argparse
import json
import sys

from qauthsim.harness import load_scenario, run_scenario


def _cell(report, name: str) -> str:
    m = report.metric(name)
    if m.mean is None:
        return "   -  "
    return f"{m.mean:6.3f}"


def run_case(seed: int, trials: int, attack: str, mode: str,
             rule: str | None) -> tuple[str, str, str, str]:
    session = {"k": 8, "d": 8, "reveal_count": 8, "mode": mode}
    if rule is not None:
        session["belief_rule"] = rule
    doc = {
        "seed": seed, "trials": trials,
        "session": session,
        "attack": {"kind": attack},
    }
    rep = run_scenario(load_scenario(json.dumps(doc)))
    return (_cell(rep, "accept_rate"), _cell(rep, "key_match_fraction"),
            _cell(rep, "server_copy_match"), _cell(rep, "eve_key_knowledge"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--trials", type=int, default=3000)
    args = parser.parse_args(argv)

    cases = (
        ("server_product", "base", None),
        ("server_product", "swap", "composed"),
        ("server_product", "swap", "measured"),
        ("server_ghz", "base", None),
        ("server_ghz", "swap", "composed"),
    )
    print(f"{'attack':>15} {'mode':>5} {'rule':>9} | {'accept':>6}"
          f" {'match':>6} {'copy':>6} {'known':>6}")
    for attack, mode, rule in cases:
        acc, match, copy, known = run_case(args.seed, args.trials,
                                           attack, mode, rule)
        print(f"{attack:>15} {mode:>5} {rule or '-':>9} | {acc}"
              f" {match} {copy} {known}")
    print()
    print("product states survive the direct mode and the composed rule"
          " untouched; the measured rule halves the key match and pushes"
          " acceptance down to token-guessing odds.")
    print("the three-particle source gives the server a perfect copy in"
          " every surviving configuration.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
