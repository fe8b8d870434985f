"""The repository benchmark: three simulator workloads and a per-layer ledger.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` simulates one workload back to back for ``s`` seconds
through the public session API and prints its end-to-end metrics
(``--trace 0``) or, from a separate traced run, the per-layer ledger
(``--trace 1``).  ``BENCHMARK.json`` at the repository root declares the
workloads and the metric names.

Which end-to-end metric each layer should move, and where:

* build (``build.*``): ``setup_s``, mainly on ``moe-scale-1k``;
* expand (``expand.*``): ``run_s`` on ``moe-scale-1k`` (AllToAll steps);
* route (``route.*``): ``run_s`` on ``moe-scale-1k`` and
  ``photonic-paper-64``, and reroutes on ``fattree-faulted-128``;
* flow (``flow.*``): ``run_s`` and ``peak_rss_mib`` on all three;
* allocate (``allocate.*``): ``run_s`` on ``fattree-faulted-128``; no
  change on ``photonic-paper-64``, which makes no allocator calls;
* control (``control.*``): ``run_s`` and ``sim_iteration_s`` on
  ``photonic-paper-64``; no change on the fat trees, which have no control
  plane;
* execute (``execute.*``): ``run_s`` on all three.

A change meant only to speed the simulator up must leave
``sim_iteration_s`` and every ledger count except ``trace.*`` unchanged.
"""
