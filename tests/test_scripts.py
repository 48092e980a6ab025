"""Smoke tests for the example scripts: each runs end to end on a few
trials and prints its table headers."""

import os
import runpy

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "scripts")


@pytest.mark.parametrize("name,headers", [
    ("sweep_detection.py", ["intercept-resend evasion vs detection slots",
                            "subset-guess success vs guess budget",
                            "photon-number-splitting evasion"]),
    ("server_attack_demo.py", ["attack", "accept", "copy"]),
])
def test_script_runs(name, headers, capsys):
    script = runpy.run_path(os.path.join(SCRIPTS, name), run_name="smoke")
    assert script["main"](["--trials", "20"]) == 0
    out = capsys.readouterr().out
    for header in headers:
        assert header in out
