#!/usr/bin/env python3
"""Sweep detection-related knobs and print empirical vs analytic tables.

Three sweeps:
  1. intercept-resend evasion vs number of detection slots
  2. subset-guess success vs guess budget
  3. photon-number-splitting evasion vs single-photon probability

All runs are seeded; rerunning prints identical numbers.  The analytic
columns are the closed forms each report is graded against.
"""

import argparse
import json
import sys

from qauthsim.harness import load_scenario, run_scenario


def _run(doc: dict) -> "AggregateReport":
    return run_scenario(load_scenario(json.dumps(doc)))


def _metric(report, name: str) -> float:
    m = report.metric(name)
    return float("nan") if m.mean is None else m.mean


def _analytic(report, name: str) -> float:
    m = report.metric(name)
    return float("nan") if m.analytic is None else m.analytic


def sweep_intercept(seed: int, trials: int) -> None:
    print("intercept-resend evasion vs detection slots (single tapped path)")
    print(f"{'d':>4} {'empirical':>10} {'analytic':>10}")
    for d in (1, 2, 4, 8, 12, 16):
        doc = {
            "seed": seed, "trials": trials,
            "session": {"k": 1, "d": d, "reveal_count": 1, "mode": "base"},
            "attack": {"kind": "intercept_resend", "path": "to_bob"},
        }
        rep = _run(doc)
        print(f"{d:>4} {_metric(rep, 'evasion_rate'):>10.4f}"
              f" {_analytic(rep, 'evasion_rate'):>10.4f}")
    print()


def sweep_subset(seed: int, trials: int) -> None:
    k, d = 2, 3
    print(f"subset-guess success vs guess budget (k={k}, d={d})")
    print(f"{'g':>4} {'empirical':>10} {'analytic':>10}")
    for g in range(k, k + d + 1):
        doc = {
            "seed": seed, "trials": trials,
            "session": {"k": k, "d": d, "reveal_count": k, "mode": "base"},
            "attack": {"kind": "subset_guess", "path": "to_bob",
                       "guess_count": g},
        }
        rep = _run(doc)
        print(f"{g:>4} {_metric(rep, 'subset_success'):>10.4f}"
              f" {_analytic(rep, 'subset_success'):>10.4f}")
    print()


def sweep_pns(seed: int, trials: int) -> None:
    d = 8
    print(f"photon-number-splitting evasion vs single-photon probability"
          f" (d={d})")
    print(f"{'p1':>5} {'empirical':>10} {'exact':>10} {'naive':>10}")
    for p1 in (0.3, 0.5, 0.7, 0.9, 1.0):
        doc = {
            "seed": seed, "trials": trials,
            "session": {"k": 1, "d": d, "reveal_count": 1, "mode": "base"},
            "attack": {"kind": "pns", "path": "to_bob"},
            "photon": {"p1": p1},
        }
        rep = _run(doc)
        print(f"{p1:>5.2f} {_metric(rep, 'evasion_rate'):>10.4f}"
              f" {_analytic(rep, 'evasion_rate'):>10.4f}"
              f" {_analytic(rep, 'evasion_rate_vs_approx'):>10.4f}")
    print()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--trials", type=int, default=4000)
    args = parser.parse_args(argv)
    sweep_intercept(args.seed, args.trials)
    sweep_subset(args.seed, args.trials)
    sweep_pns(args.seed, args.trials)
    return 0


if __name__ == "__main__":
    sys.exit(main())
