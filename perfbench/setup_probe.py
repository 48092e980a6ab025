"""Set-up probe, run in a fresh interpreter by run.py.

Usage: python3 setup_probe.py SRC_DIR SCENARIO_FILE...

Imports qauthsim from SRC_DIR, parses each scenario file, checks the
exact pair-algebra tables, runs one warm-up trial per scenario, then
prints ``ready SECONDS``: the time from this script's first statement to
ready.  Interpreter start-up is left out: no change to qauthsim moves it,
and on a shared host it is mostly noise from process creation.
"""

import time

START = time.perf_counter()

import dataclasses  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> int:
    sys.path.insert(0, argv[0])
    from qauthsim.harness import load_scenario, run_scenario, verify_tables

    specs = []
    for path in argv[1:]:
        with open(path, encoding="utf-8") as fh:
            specs.append(load_scenario(fh.read()))
    if not verify_tables().ok:
        return 1
    for spec in specs:
        run_scenario(dataclasses.replace(spec, trials=1))
    print(f"ready {time.perf_counter() - START!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
