"""Smoke tests for the example scripts: each runs end to end on a few
trials and prints its table headers.  The paired benchmark's summary and
flags are tested on fixed numbers, and its source digest on a temporary
tree, without starting a process."""

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


def _paired_bench():
    return runpy.run_path(os.path.join(SCRIPTS, "paired_bench.py"),
                          run_name="paired_bench")


def test_paired_summary_of_a_claimed_gain():
    summarize = _paired_bench()["summarize"]
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 100.0]
    change = [110.0, 111.0, 108.0, 109.0, 112.0, 99.0, 110.0, 110.0, 107.0, 111.0]
    row = summarize(parent, change, "higher", 0.15)
    assert row["parent_q1_median_q3"] == [99.25, 100.0, 100.75]
    assert row["change_q1_median_q3"] == [108.25, 110.0, 110.75]
    assert row["median_ratio_change_over_parent"] == 1.1
    assert row["parent_iqr_frac"] == 0.015
    assert row["pair_ratios"][0] == 1.1 and row["pair_ratios"][5] == 0.99
    assert (row["change_wins"], row["pairs"]) == (9, 10)
    assert row["gain_holds"] and not row["regressed"]
    # the same numbers for a metric where lower is better: a loss of 10%,
    # inside a 15% bound and outside a 5% one
    row = summarize(parent, change, "lower", 0.15)
    assert row["change_wins"] == 1
    assert not row["gain_holds"] and not row["regressed"]
    assert summarize(parent, change, "lower", 0.05)["regressed"]


def test_paired_summary_needs_ten_pairs_and_a_gap_past_the_iqr():
    summarize = _paired_bench()["summarize"]
    # every pair won, but only eight pairs
    row = summarize([10.0] * 8, [9.0] * 8, "lower", 0.1)
    assert row["change_wins"] == 8 and not row["gain_holds"]
    # ten pairs, all won, but the parent's spread is wider than the gap
    parent = [10.0, 14.0] * 5
    change = [9.9, 13.9] * 5
    row = summarize(parent, change, "lower", 0.1)
    assert row["change_wins"] == 10 and row["parent_iqr_frac"] == 1 / 3
    assert not row["gain_holds"]
    # ties count for neither side
    assert summarize([5.0] * 10, [5.0] * 10, "higher", 0.1)["change_wins"] == 0
    with pytest.raises(ValueError):
        summarize([1.0], [1.0, 2.0], "higher", 0.1)


def test_paired_flags_failed_runs_and_moved_bytes():
    flags = _paired_bench()["flags"]
    runs = [{"side": side, "pair": pair, "exit": 0, "failed": 0, "sha": "a"}
            for pair in range(2) for side in ("parent", "change")]
    assert flags(runs) == []
    runs[3] = dict(runs[3], sha="b", failed=2)
    assert flags(runs) == [
        "change pair 1: failed 2",
        "change pair 1: output sha256 b, expected a"]
    # every run is held to the parent's first run, the parent's own too
    runs = [dict(run, sha=run["side"]) for run in runs[:3]]
    assert flags(runs) == ["change pair 0: output sha256 change, expected parent"]
    runs[2] = dict(runs[2], sha=None, exit=1)
    assert flags(runs) == [
        "change pair 0: output sha256 change, expected parent",
        "parent pair 1: exit 1",
        "parent pair 1: output sha256 None, expected parent"]


def test_paired_src_sha256_names_the_source_tree(tmp_path):
    src_sha256 = _paired_bench()["src_sha256"]

    def tree(name, files):
        for path, text in files.items():
            file = tmp_path / name / path
            file.parent.mkdir(parents=True, exist_ok=True)
            file.write_text(text)
        return str(tmp_path / name)

    files = {"src/pkg/__init__.py": "", "src/pkg/core.py": "x = 1\n"}
    digest = src_sha256(tree("a", files))
    assert len(digest) == 64 and int(digest, 16) >= 0
    # the same files anywhere name the same code; what running the code
    # writes, and files outside src/, do not change it
    assert src_sha256(tree("b", {
        **files, "src/pkg/__pycache__/core.cpython-311.pyc": "cache",
        "tests/test_core.py": "y = 2\n"})) == digest
    # an edited, renamed or added file does
    assert src_sha256(tree("c", {**files, "src/pkg/core.py": "x = 2\n"})) \
        != digest
    assert src_sha256(tree("d", {"src/pkg/__init__.py": "",
                                 "src/pkg/main.py": "x = 1\n"})) != digest
    assert src_sha256(tree("e", {**files, "src/pkg/new.py": ""})) != digest
