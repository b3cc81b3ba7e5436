"""Wall-clock serving benchmark for the GCGT serving stack.

Run ``python3 servebench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``BENCHMARK.json`` names the
workloads and metrics.  Every request enters through the public serving
APIs (``FrontDoor``, ``TraversalService.apply_updates``,
``FollowerReplica``); the traced run wraps each layer's public entry
points from this package, so the program itself is never edited.
"""
