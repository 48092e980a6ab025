"""Tests of the benchmark's own machinery: python3 -m pytest perfbench"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from qauthsim import harness  # noqa: E402


def _originals():
    out = {}
    for module_name, path, _, _ in layers.SPANS:
        owner, attr = layers._site(module_name, path)
        out[(module_name, path)] = owner.__dict__[attr]
    return out


def test_wrappers_installed_then_restored():
    before = _originals()
    with layers.installed(layers.Tracer()):
        during = _originals()
        assert all(during[key] is not before[key] for key in before)
    after = _originals()
    assert all(after[key] is before[key] for key in before)


def test_wrappers_restored_when_block_raises():
    before = _originals()
    with pytest.raises(RuntimeError):
        with layers.installed(layers.Tracer()):
            raise RuntimeError("boom")
    after = _originals()
    assert all(after[key] is before[key] for key in before)


def test_traced_run_matches_untraced_and_covers_the_root_span():
    _, text = workloads.scenarios("paper-matrix", 3)[1]
    spec = harness.load_scenario(text)
    plain = harness.render_report(harness.run_scenario(spec), "json")
    tracer = layers.Tracer(keep=100)
    with layers.installed(tracer):
        report = harness.run_scenario(spec)
    assert harness.render_report(report, "json") == plain
    assert tracer.counts["protocol.sessions"] == spec.trials
    root = tracer.total_s["harness.aggregate"]
    assert sum(tracer.self_s.values()) == pytest.approx(root, rel=1e-9)
    assert len(tracer.spans) == 100


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_generator_is_seed_deterministic(workload):
    first = workloads.scenarios(workload, 7)
    assert first == workloads.scenarios(workload, 7)
    other = workloads.scenarios(workload, 8)
    assert [label for label, _ in other] == [label for label, _ in first]
    assert other != first
    for _, text in first:
        harness.load_scenario(text)


def test_pass_seeds_are_stable_and_distinct():
    seeds = [workloads.pass_seed(7, i) for i in range(100)]
    assert seeds == [workloads.pass_seed(7, i) for i in range(100)]
    assert len(set(seeds)) == 100
    assert all(0 <= s < 2 ** 63 for s in seeds)


def test_exact_tails_used_for_rare_events():
    p = 0.75 ** 41
    # one intercept evasion in 1500 trials: the normal rule would flag it
    assert abs(1 / 1500 - p) > 4 * (p * (1 - p) / 1500) ** 0.5
    assert gate.within_bound(1 / 1500, 1500, p)
    assert not gate.within_bound(5 / 1500, 1500, p)
    # plenty of samples: the plain 4-sigma rule applies
    assert gate.within_bound(0.25, 10000, 0.25)
    assert not gate.within_bound(0.27, 10000, 0.25)
