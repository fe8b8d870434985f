"""Unit tests for the CI perf-regression gate (benchmarks/check_regression.py)."""

import importlib.util
import json
from pathlib import Path

import pytest


@pytest.fixture(scope="module")
def gate():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "check_regression.py"
    spec = importlib.util.spec_from_file_location("check_regression", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_lines(flow_wall, analytic_wall=0.01, legacy=0.08, shipped=0.008):
    return [
        "BENCH " + json.dumps({
            "bench": "flow_mode", "fabric": "electrical", "gpus": 8,
            "network_mode": "analytic", "wall_time_s": analytic_wall,
            "steady_iteration_s": 0.125, "iterations": 3,
        }),
        "unrelated output line",
        "BENCH " + json.dumps({
            "bench": "flow_mode", "fabric": "electrical", "gpus": 8,
            "network_mode": "flow", "wall_time_s": flow_wall,
            "steady_iteration_s": 0.125, "iterations": 3,
        }),
        "BENCH " + json.dumps({
            "bench": "max_min_fair", "flows": 500,
            "legacy_s": legacy, "shipped_s": shipped,
            "speedup": round(legacy / shipped, 3),
        }),
    ]


def _distilled(gate, flow_wall, **kwargs):
    return gate.distill(gate.parse_bench_lines(_bench_lines(flow_wall, **kwargs)))


def test_distill_produces_machine_normalized_ratios(gate):
    ratios, steady = _distilled(gate, flow_wall=0.025)
    assert ratios["flow_mode:electrical:8"] == pytest.approx(2.5)
    assert ratios["max_min_fair:500"] == pytest.approx(0.1)
    assert steady["flow_mode:electrical:8:flow"] == pytest.approx(0.125)


def test_gate_passes_within_tolerance(gate):
    ratios, steady = _distilled(gate, flow_wall=0.025)
    baseline = {
        "ratios": dict(ratios),
        "steady": dict(steady),
    }
    assert gate.check(ratios, steady, baseline, tolerance=1.3) == []


def test_gate_fails_on_a_2x_flow_slowdown(gate):
    base_ratios, base_steady = _distilled(gate, flow_wall=0.025)
    baseline = {"ratios": dict(base_ratios), "steady": dict(base_steady)}
    slow_ratios, slow_steady = _distilled(gate, flow_wall=0.050)  # 2x slower
    failures = gate.check(slow_ratios, slow_steady, baseline, tolerance=1.3)
    assert any("flow_mode:electrical:8" in failure for failure in failures)


def test_gate_fails_on_allocator_regression_only_when_ratio_moves(gate):
    base_ratios, base_steady = _distilled(gate, flow_wall=0.025)
    baseline = {"ratios": dict(base_ratios), "steady": dict(base_steady)}
    # The whole machine being 3x slower moves both sides of each division:
    # ratios are unchanged and the gate stays green.
    slow_machine, slow_steady = _distilled(
        gate, flow_wall=0.075, analytic_wall=0.03, legacy=0.24, shipped=0.024
    )
    assert gate.check(slow_machine, slow_steady, baseline, tolerance=1.3) == []
    # A genuine allocator regression moves only shipped_s.
    regressed, steady = _distilled(gate, flow_wall=0.025, shipped=0.03)
    failures = gate.check(regressed, steady, baseline, tolerance=1.3)
    assert any("max_min_fair:500" in failure for failure in failures)


def test_gate_flags_semantic_drift_in_simulated_time(gate):
    ratios, steady = _distilled(gate, flow_wall=0.025)
    baseline = {"ratios": dict(ratios), "steady": dict(steady)}
    drifted = dict(steady)
    drifted["flow_mode:electrical:8:flow"] *= 1.001
    failures = gate.check(ratios, drifted, baseline, tolerance=1.3)
    assert any("semantic drift" in failure for failure in failures)


def test_gate_fails_when_nothing_matches(gate):
    ratios, steady = _distilled(gate, flow_wall=0.025)
    baseline = {"ratios": {"flow_mode:warpdrive:9000": 1.0}, "steady": {}}
    failures = gate.check(ratios, steady, baseline, tolerance=1.3)
    assert any("no benchmark measurement matched" in failure for failure in failures)


def test_update_writes_a_baseline_cli_round_trip(gate, tmp_path, capsys):
    bench = tmp_path / "bench.txt"
    bench.write_text("\n".join(_bench_lines(flow_wall=0.025)) + "\n")
    baseline = tmp_path / "baseline.json"
    assert gate.main([str(bench), "--baseline", str(baseline), "--update"]) == 0
    assert gate.main([str(bench), "--baseline", str(baseline)]) == 0
    # A 2x slowdown against the freshly written baseline trips the gate.
    slow = tmp_path / "slow.txt"
    slow.write_text("\n".join(_bench_lines(flow_wall=0.050)) + "\n")
    assert gate.main([str(slow), "--baseline", str(baseline)]) == 1


def test_tolerance_overrides_match_exact_and_prefix(gate):
    overrides = {
        "flow_mode:electrical:8": 2.0,
        "flow_mode:fattree-faulted*": 1.8,
        "flow_mode:fattree*": 1.5,
    }
    assert gate.tolerance_for("flow_mode:electrical:8", 1.3, overrides) == 2.0
    # Longest matching prefix wins over a broader one.
    assert gate.tolerance_for("flow_mode:fattree-faulted:40", 1.3, overrides) == 1.8
    assert gate.tolerance_for("flow_mode:fattree:40", 1.3, overrides) == 1.5
    assert gate.tolerance_for("flow_mode:photonic:8", 1.3, overrides) == 1.3


def test_tolerance_override_loosens_one_identity_only(gate):
    base_ratios, base_steady = _distilled(gate, flow_wall=0.025)
    baseline = {
        "ratios": dict(base_ratios),
        "steady": dict(base_steady),
        "absolute_slack": 0.0,
        "tolerance_overrides": {"flow_mode:electrical*": 3.0},
    }
    slow_ratios, slow_steady = _distilled(gate, flow_wall=0.050)  # 2x slower
    # The override absorbs the 2x flow-mode slowdown...
    failures = gate.check(slow_ratios, base_steady, baseline, tolerance=1.3)
    assert failures == []
    # ...but the un-overridden allocator ratio still trips at default 1.3x.
    regressed, steady = _distilled(gate, flow_wall=0.025, shipped=0.03)
    failures = gate.check(regressed, base_steady, baseline, tolerance=1.3)
    assert any("max_min_fair:500" in failure for failure in failures)


def test_update_preserves_tolerance_and_slack_overrides(gate, tmp_path):
    bench = tmp_path / "bench.txt"
    bench.write_text("\n".join(_bench_lines(flow_wall=0.025)) + "\n")
    baseline = tmp_path / "baseline.json"
    assert gate.main([str(bench), "--baseline", str(baseline), "--update"]) == 0
    data = json.loads(baseline.read_text())
    data["tolerance_overrides"] = {"flow_mode:fattree-faulted*": 1.8}
    data["slack_overrides"] = {"flow_mode:photonic*": 0.0}
    baseline.write_text(json.dumps(data))
    assert gate.main([str(bench), "--baseline", str(baseline), "--update"]) == 0
    refreshed = json.loads(baseline.read_text())
    assert refreshed["tolerance_overrides"] == {"flow_mode:fattree-faulted*": 1.8}
    assert refreshed["slack_overrides"] == {"flow_mode:photonic*": 0.0}


def test_slack_override_tightens_a_same_code_identity(gate):
    """Zero slack makes a tight tolerance meaningful on a ~1.0 ratio.

    With the global absolute slack (0.75) a ratio near 1.0 could double
    without tripping a 1.05x tolerance; a per-identity slack override
    removes that headroom where a tight gate is wanted.
    """
    ratios = {"flow_mode:photonic:8": 1.2}
    baseline = {
        "ratios": {"flow_mode:photonic:8": 1.0},
        "steady": {},
        "absolute_slack": 0.75,
        "tolerance_overrides": {"flow_mode:photonic*": 1.05},
    }
    # Without the slack override the global slack absorbs the regression.
    assert gate.check(dict(ratios), {}, baseline, tolerance=1.3) == []
    baseline["slack_overrides"] = {"flow_mode:photonic*": 0.0}
    failures = gate.check(dict(ratios), {}, baseline, tolerance=1.3)
    assert any("flow_mode:photonic:8" in failure for failure in failures)
    # A within-noise ratio still passes under the tight gate.
    assert gate.check({"flow_mode:photonic:8": 1.04}, {}, baseline, 1.3) == []
