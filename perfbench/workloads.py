"""The benchmark's workloads, one scenario builder each.

Every workload jitters compute durations by 2% with the benchmark's seed, so
the seed reaches the program only as generated compute times.  The scenario
definitions are frozen here rather than imported from ``benchmarks/`` so a
change to another benchmark cannot silently change this one's inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict

from repro.experiments.contention import scale_scenario
from repro.experiments.runner import Scenario
from repro.parallelism.workloads import paper_trace_workload, small_test_workload
from repro.simulator.executor import SimulationConfig
from repro.simulator.faults import FaultEvent, FaultKind, FaultPlan
from repro.topology.devices import perlmutter_testbed

#: Relative standard deviation of the seeded compute-duration jitter.
COMPUTE_JITTER = 0.02


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[SimulationConfig], Scenario]

    def scenario(self, seed: int) -> Scenario:
        return self.build(SimulationConfig(compute_jitter=COMPUTE_JITTER, seed=seed))


def _moe_scale_1k(simulation: SimulationConfig) -> Scenario:
    return replace(scale_scenario(1000), simulation=simulation)


#: Whole electrical fabric degraded 10% plus one NIC attachment down (the
#: ``fattree-faulted`` variant of ``benchmarks/bench_flow_mode.py``).
_FAULT_PLAN = FaultPlan(
    events=(
        FaultEvent(
            time=0.0,
            kind=FaultKind.LINK_DEGRADE,
            link_kind="electrical",
            fraction=0.9,
        ),
        FaultEvent(time=0.0, kind=FaultKind.LINK_FAIL, src="gpu0", dst="gpu0.nic*"),
    )
)


def _fattree_faulted_128(simulation: SimulationConfig) -> Scenario:
    return Scenario(
        workload=small_test_workload(pp=1, dp=32, tp=4),
        cluster=replace(perlmutter_testbed(num_nodes=32), nic_ports_per_gpu=2),
        backend="fattree",
        knobs={"network_mode": "flow", "faults": _FAULT_PLAN},
        num_iterations=3,
        simulation=simulation,
        name="fattree-faulted-128",
    )


def _photonic_paper_64(simulation: SimulationConfig) -> Scenario:
    return Scenario(
        workload=paper_trace_workload(pp=4, dp=4),
        cluster=replace(perlmutter_testbed(num_nodes=16), nic_ports_per_gpu=2),
        backend="photonic",
        knobs={
            "network_mode": "flow",
            "reconfiguration_delay": 0.01,
            "provisioning": "profile",
        },
        num_iterations=4,
        simulation=simulation,
        name="photonic-paper-64",
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "moe-scale-1k",
            "1,000-GPU MoE fat tree in flow mode: the only workload where "
            "build (set-up) and route (10k BFS) are large; allocator runs "
            "on few large numpy components",
            _moe_scale_1k,
        ),
        Workload(
            "fattree-faulted-128",
            "128-GPU fat tree degraded 10% with a NIC link down: ~10.7k "
            "component re-rates, mostly in the pure-Python solver, plus "
            "reroute-on-failure; no control plane",
            _fattree_faulted_128,
        ),
        Workload(
            "photonic-paper-64",
            "the paper's Llama3-8B trace on 64-GPU photonic rails under "
            "Opus: the only workload using control (ensure, provisioning) "
            "and it makes zero allocator calls",
            _photonic_paper_64,
        ),
    )
}
