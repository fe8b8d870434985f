"""The paper's Fig. 8 claims, asserted on the paper's own workload.

Fig. 8 plots iteration time against the OCS switching delay for photonic
rails under Opus, with and without speculative provisioning.  Every claim
below runs the Llama3-8B trace workload on four Perlmutter nodes — the
``repro-sim fig8`` default, and the smallest scenario that reconfigures in
every steady iteration — so none of them can hold vacuously on a flat curve.
"""

from functools import lru_cache

import pytest

from repro.experiments.runner import Scenario, ScenarioResult, run_scenario
from repro.parallelism.workloads import paper_trace_workload
from repro.topology.devices import perlmutter_testbed

#: Switching delays spanning Table 3: SiP-class through piezo-class OCSes.
DELAYS = (1e-5, 1e-3, 0.015, 0.1)

#: One profiling iteration plus two steady ones.
NUM_ITERATIONS = 3


def _scenario(backend: str, **knobs: object) -> Scenario:
    return Scenario(
        workload=paper_trace_workload(),
        cluster=perlmutter_testbed(num_nodes=4),
        backend=backend,
        knobs=knobs,
        num_iterations=NUM_ITERATIONS,
        name=f"fig8-{backend}",
    )


@lru_cache(maxsize=None)
def fig8_point(delay: float, provisioning: bool) -> ScenarioResult:
    """One Fig. 8 point: photonic rails at ``delay``, provisioning on/off."""
    return run_scenario(
        _scenario(
            "photonic", reconfiguration_delay=delay, provisioning=provisioning
        )
    )


def _steady(result: ScenarioResult) -> float:
    return result.metrics["steady_iteration_time"]


@pytest.mark.parametrize("provisioning", (False, True))
def test_iteration_time_is_monotone_in_the_switching_delay(provisioning):
    times = [_steady(fig8_point(delay, provisioning)) for delay in DELAYS]
    assert times == sorted(times), times
    # A slower switch must cost something: the curve is not flat.
    assert times[-1] > times[0]


@pytest.mark.parametrize("delay", DELAYS)
def test_provisioning_never_slows_an_iteration(delay):
    provisioned = _steady(fig8_point(delay, True))
    unprovisioned = _steady(fig8_point(delay, False))
    assert provisioned <= unprovisioned


@pytest.mark.parametrize("delay", DELAYS)
def test_unprovisioned_exposed_time_is_reconfigurations_times_delay(delay):
    metrics = fig8_point(delay, False).metrics
    reconfigurations = metrics["reconfigurations_per_iteration"]
    assert reconfigurations >= 1  # every steady iteration switches circuits
    assert metrics["exposed_reconfig_time"] == pytest.approx(
        reconfigurations * delay, rel=1e-9
    )


def test_the_ideal_fabric_bounds_photonic_rails_from_below():
    ideal = _steady(run_scenario(_scenario("ideal")))
    for delay in DELAYS:
        for provisioning in (False, True):
            assert ideal <= _steady(fig8_point(delay, provisioning))
