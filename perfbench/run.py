"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload moe-scale-1k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

The load is a closed loop with one caller: each repetition simulates the
workload's scenario from scratch through the public session API
(``SimulationSession.start`` -> ``run_to`` -> ``result``), back to back,
until ``--seconds`` have been spent.  Before timing, one untimed warm-up
repetition absorbs imports and numpy set-up and gives the reference outputs;
the module-level expansion memo is cleared before every repetition because
CLI users pay that cost on every run.

``--trace 0`` prints the end-to-end metrics, each the median of its ``n``
samples, with quartiles where there are enough samples.
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer ledger (see ``perfbench/ledger.py``); the spans are written once,
at the end, as Chrome trace-event JSON under ``perfbench/out/``.  ``--workload
all`` runs every workload, each in its own fresh process.

A repetition fails if it raises, if its simulated outputs differ from the
warm-up's (same seed, so they must be identical, traced or not), if its
steady iteration is faster than the ``ideal`` fabric's on the same seed, or
if its exposed reconfiguration exceeds reconfigurations x switching delay.
The last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``); any failure exits nonzero.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: Repetitions measured even when ``--seconds`` runs out first.
MIN_REPETITIONS = 2

#: Share of an end-to-end run spent on set-up samples.  Set-up takes 0.05 s
#: on two workloads, so extra set-ups between repetitions give its median
#: enough samples; a workload whose set-up is already this share adds none.
SETUP_SHARE = 0.2

#: Largest gap, in seconds, allowed between the traced ``run_s`` and the sum
#: of the self times under it (float rounding only; calls nest exactly).
RESIDUAL_LIMIT = 1e-6

#: ``name -> (unit, description)`` of the end-to-end metrics printed with
#: ``--trace 0``.  The last two are 0 whenever nothing goes wrong (and on
#: packet fabrics), so the JSON result carries them as ``failed``/``attempted``
#: and as the ledger's ``control.exposed_reconfig_s`` instead.
END_TO_END = {
    "run_s": ("s", "host seconds from run_to through result"),
    "setup_s": ("s", "host seconds for SimulationSession.start"),
    "peak_rss_mib": ("MiB", "peak resident memory of this process"),
    "sim_iteration_s": ("s", "simulated steady iteration time"),
    "exposed_reconfig_s": ("s", "simulated exposed reconfiguration per steady iteration"),
    "failed_ratio": ("ratio", "failed repetitions / attempted repetitions"),
}
RESULT_METRICS = ("run_s", "setup_s", "peak_rss_mib", "sim_iteration_s")


def _bootstrap() -> None:
    """Put the checkout's simulator and this package first on ``sys.path``."""
    src = ROOT / "src"
    if not (src / "repro" / "experiments" / "session.py").is_file():
        sys.exit(f"perfbench: no simulator source under {src}; run from a full checkout")
    sys.path[:0] = [str(src), str(ROOT)]


def _git_commit() -> Optional[str]:
    """HEAD's commit, read from ``.git`` (``None`` outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args: argparse.Namespace) -> dict:
    import numpy

    return {
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def outputs(result) -> tuple:
    """The simulated outputs two repetitions of one seed must agree on."""
    return (
        result.iteration_times,
        result.reconfigurations,
        result.reconfig_blocking,
        dict(result.metrics),
    )


def _clear() -> None:
    """Forget the module-level expansion memo and collect garbage (untimed)."""
    from repro.collectives.schedule import expansion_cache_clear

    expansion_cache_clear()
    gc.collect()


def cold_start(scenario) -> Tuple[float, object]:
    """``(setup_s, session)`` of a fresh session, expansion memo cleared."""
    from repro.experiments.session import SimulationSession

    _clear()
    started = time.perf_counter()
    session = SimulationSession.start(scenario)
    return time.perf_counter() - started, session


def repetition(scenario, recorder=None) -> Tuple[float, float, object, object]:
    """One cold simulation: ``(setup_s, run_s, result, session)``.

    With a ``recorder`` the repetition is traced: the targets are wrapped
    for its duration only, and ``setup``/``run`` root spans bracket the two
    timed phases.
    """
    from repro.experiments.session import SimulationSession

    from perfbench.ledger import tracing

    if recorder is None:
        setup_s, session = cold_start(scenario)
        started = time.perf_counter()
        session.run_to(scenario.num_iterations)
        result = session.result()
        return setup_s, time.perf_counter() - started, result, session
    with tracing(recorder) as missing:
        for target in missing:
            print(f"perfbench: trace target {target} not found", file=sys.stderr)
        _clear()
        with recorder.span("setup", "build") as setup:
            session = SimulationSession.start(scenario)
        with recorder.span("run", "execute") as run:
            session.run_to(scenario.num_iterations)
            result = session.result()
    recorder.run_root = run
    return (
        recorder.end[setup] - recorder.start[setup],
        recorder.end[run] - recorder.start[run],
        result,
        session,
    )


def problems(scenario, result, reference, ideal_iteration: float) -> List[str]:
    """Why ``result`` is wrong (empty when every correctness check holds)."""
    found = []
    if reference is not None and outputs(result) != reference:
        found.append("simulated outputs differ from the warm-up repetition")
    steady = result.metrics["steady_iteration_time"]
    if steady < ideal_iteration:
        found.append(
            f"steady iteration {steady!r} s is below the ideal fabric's "
            f"{ideal_iteration!r} s"
        )
    delay = scenario.knobs.get("reconfiguration_delay")
    if delay is not None:
        limit = result.metrics["reconfigurations_per_iteration"] * delay
        exposed = result.metrics["exposed_reconfig_time"]
        if exposed > limit * (1 + 1e-9):
            found.append(
                f"exposed reconfiguration {exposed!r} s exceeds "
                f"reconfigurations x delay = {limit!r} s"
            )
    return found


class Run:
    """Repetitions of one workload and seed, with their correctness record."""

    def __init__(self, workload, seed: int) -> None:
        self.name = workload.name
        self.scenario = workload.scenario(seed)
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.ideal_iteration = 0.0

    def attempt(self, recorder=None):
        """One checked repetition; ``None`` if it raised or failed a check."""
        self.attempted += 1
        try:
            measured = repetition(self.scenario, recorder)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        found = problems(
            self.scenario, measured[2], self.reference, self.ideal_iteration
        )
        for problem in found:
            print(f"perfbench: repetition {self.attempted}: {problem}", file=sys.stderr)
        if found:
            self.failed += 1
            return None
        return measured

    def warm_up(self) -> bool:
        """Run the ideal fabric and one untimed repetition (the reference)."""
        from repro.experiments.session import SimulationSession

        ideal = replace(self.scenario, backend="ideal", knobs={})
        try:
            session = SimulationSession.start(ideal)
            session.run_to(ideal.num_iterations)
        except Exception:
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            return False
        self.ideal_iteration = session.result().metrics["steady_iteration_time"]
        measured = self.attempt()
        if measured is not None:
            self.reference = outputs(measured[2])
        return measured is not None


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _keep_going(count: int, deadline: float, typical: float) -> bool:
    """Another repetition fits before ``deadline`` (or too few so far)."""
    return count < MIN_REPETITIONS or time.perf_counter() + typical <= deadline


def measure_end_to_end(run: Run, seconds: float) -> Tuple[Dict[str, float], Dict[str, list]]:
    """Timed repetitions until ``seconds`` are spent: metrics and their samples."""
    setups: List[float] = []
    runs: List[float] = []
    last = None
    deadline = time.perf_counter() + seconds
    typical = 0.0
    while _keep_going(len(runs), deadline, typical):
        measured = run.attempt()
        if measured is None:
            break
        setups.append(measured[0])
        runs.append(measured[1])
        last = measured[2]
        del measured
        while sum(setups) < SETUP_SHARE * (sum(setups) + sum(runs)):
            setups.append(cold_start(run.scenario)[0])
        typical = (sum(setups) + sum(runs)) / len(runs)
    if last is None:
        return {}, {}
    samples = {
        "run_s": runs,
        "setup_s": setups,
        "peak_rss_mib": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024],
        "sim_iteration_s": [last.metrics["steady_iteration_time"]] * len(runs),
        "exposed_reconfig_s": [last.metrics["exposed_reconfig_time"]] * len(runs),
        "failed_ratio": [run.failed / run.attempted],
    }
    return {name: _median(values) for name, values in samples.items()}, samples


def measure_ledger(run: Run, seconds: float, env: dict):
    """Alternate untraced and traced repetitions; build the per-layer ledger."""
    from perfbench.ledger import SpanRecorder, chrome_trace, ledger

    untraced: List[float] = []
    traced: List[float] = []
    first: Optional[SpanRecorder] = None
    ledgers: List[Dict[str, float]] = []
    checks: List[Dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    typical = 0.0
    while _keep_going(min(len(untraced), len(traced)), deadline, typical):
        measured = run.attempt()
        if measured is None:
            break
        untraced.append(measured[1])
        recorder = SpanRecorder(run.name, len(ledgers))
        measured = run.attempt(recorder)
        if measured is None:
            break
        traced.append(measured[1])
        metrics, check = ledger(recorder, measured[2], measured[3])
        if first is None:
            first = recorder
        ledgers.append(metrics)
        checks.append(check)
        typical = _median(untraced) + _median(traced) + 2 * measured[0]
        del measured
    if not ledgers:
        return {}, {}, False
    # Counts repeat exactly; times are medians over the traced repetitions.
    result: Dict[str, float] = {}
    consistent = True
    for name, value in ledgers[0].items():
        values = [entry[name] for entry in ledgers]
        if name.endswith("_s"):
            result[name] = _median(values)
        elif any(other != value for other in values):
            consistent = False
            print(f"perfbench: {name} differs between traced repetitions: {values}",
                  file=sys.stderr)
        else:
            result[name] = value
    result["trace.overhead_ratio"] = _median(traced) / _median(untraced)
    summary = {
        "repetitions": len(ledgers),
        "untraced_run_s": _median(untraced),
        "traced_run_s": _median(traced),
        "max_self_time_residual_s": max(abs(c["self_time_residual_s"]) for c in checks),
        "allocate_gap": checks[0]["allocate_gap"],
        "spans_per_repetition": checks[0]["spans"],
    }
    if summary["max_self_time_residual_s"] > RESIDUAL_LIMIT:
        consistent = False
        print("perfbench: layer self times do not add up to the traced run_s",
              file=sys.stderr)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{run.name}-seed{env['seed']}.trace.json"
    with open(path, "w") as handle:
        json.dump(chrome_trace(first, {**env, **summary}), handle)
    summary["trace_file"] = str(path.relative_to(ROOT))
    return result, summary, consistent


def _units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_one(args: argparse.Namespace) -> int:
    from perfbench.workloads import WORKLOADS

    env = environment(args)
    print(f"perfbench env {json.dumps(env, sort_keys=True)}")
    run = Run(WORKLOADS[args.workload], args.seed)
    correct = run.warm_up()
    metrics: Dict[str, dict] = {}
    if correct and not args.trace:
        values, samples = measure_end_to_end(run, args.seconds)
        correct = bool(values) and run.failed == 0
        for name, value in values.items():
            unit, description = END_TO_END[name]
            spread = ""
            if len(samples[name]) >= 4 and name.endswith("_s"):
                low, _, high = statistics.quantiles(samples[name], n=4)
                spread = f"quartiles {low:.6g}..{high:.6g}"
            print(
                f"  {name:<20} {value:>12.6g} {unit:<5} n={len(samples[name]):<3} "
                f"{spread:<30} {description}"
            )
            if name in RESULT_METRICS:
                metrics[name] = {"value": value, "unit": unit}
        env["samples"] = {name: samples[name] for name in ("run_s", "setup_s")}
    elif correct:
        values, summary, consistent = measure_ledger(run, args.seconds, env)
        correct = bool(values) and consistent and run.failed == 0
        for name, value in values.items():
            metrics[name] = {"value": value, "unit": _units(name)}
            print(f"  {name:<28} {value:>14.6g} {_units(name)}")
        print(f"perfbench trace {json.dumps(summary, sort_keys=True)}")
        if summary and summary["allocate_gap"]:
            print(
                f"perfbench: {summary['allocate_gap']} allocator invocations "
                "ran outside any traced solver call",
                file=sys.stderr,
            )
    record = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed if correct else max(run.failed, 1),
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "results.jsonl", "a") as handle:
        handle.write(json.dumps({"env": env, **record}, sort_keys=True) + "\n")
    print(json.dumps(record))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own fresh process, then one combined line."""
    from perfbench.workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        try:
            record = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            record = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] = combined["correct"] and record["correct"] and child.returncode == 0
        combined["attempted"] += record["attempted"]
        combined["failed"] += record["failed"]
        for metric, value in record["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    _bootstrap()
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
