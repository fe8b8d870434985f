"""The library's runtime dependency set: numpy and the standard library."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Imports every entry point, then runs one flow-mode fat-tree iteration, so
#: topology build, route search and the flow engine have all executed.
_RUN_SCRIPT = """\
import sys
import repro.experiments.cli
import repro.service.server
from repro.experiments.runner import Scenario
from repro.experiments.session import SimulationSession
from repro.parallelism.workloads import small_test_workload
from repro.topology.devices import perlmutter_testbed

scenario = Scenario(
    workload=small_test_workload(),
    cluster=perlmutter_testbed(num_nodes=2),
    backend="fattree",
    knobs={"network_mode": "flow"},
    num_iterations=1,
)
SimulationSession.start(scenario).run_to(1)
print(sorted(name for name in sys.modules if name.split(".")[0] == "networkx"))
"""


def test_a_flow_mode_run_never_imports_networkx():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", _RUN_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"
