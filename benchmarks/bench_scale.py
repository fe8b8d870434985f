"""Scale-family benchmark: wall time of the 1k/4k/10k fat-tree scenarios.

Unlike ``bench_flow_mode.py`` (machine-normalized flow/analytic ratios on
small clusters), this benchmark times the large contention scenarios raw —
the numbers are machine-specific and are recorded as evidence, not gated.
Each point is emitted as one ``BENCH {...}`` JSON line::

    BENCH {"bench": "scale", "backend": "fattree", "endpoints": 10000,
           "network_mode": "flow", "wall_time_s": 207.2,
           "steady_iteration_s": 1.314..., "iterations": 2, ...}

plus the run's allocator counters.  Run with::

    PYTHONPATH=src python benchmarks/bench_scale.py [endpoints ...]

The committed ``benchmarks/scale_evidence.txt`` holds the reference
machine's most recent numbers for the 2k/4k/10k fat-tree points.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.experiments.contention import scale_scenario
from repro.experiments.runner import run_scenario

STAT_KEYS = (
    "allocator_invocations",
    "rerated_components",
    "rerated_flows",
    "memo_hits",
)


def run_point(endpoints: int, backend: str) -> dict:
    scenario = scale_scenario(
        num_endpoints=endpoints, backend=backend, num_iterations=2
    )
    started = time.perf_counter()
    result = run_scenario(scenario)
    elapsed = time.perf_counter() - started
    point = {
        "bench": "scale",
        "backend": backend,
        "endpoints": endpoints,
        "network_mode": "flow",
        "wall_time_s": round(elapsed, 3),
        "steady_iteration_s": result.metrics["steady_iteration_time"],
        "iterations": 2,
    }
    for key in STAT_KEYS:
        if key in result.metrics:
            point[key] = int(result.metrics[key])
    return point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("endpoints", nargs="*", type=int, default=None)
    parser.add_argument("--backend", default="fattree")
    args = parser.parse_args(argv)
    sizes = args.endpoints or [10_000]
    for endpoints in sizes:
        point = run_point(endpoints, args.backend)
        print("BENCH " + json.dumps(point, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
