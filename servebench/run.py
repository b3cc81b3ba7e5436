"""Serving benchmark entry point.

Usage, from the repository root::

    python3 servebench/run.py --workload serial-uk --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn, each in a process of its
own so that no workload's peak memory or interpreter state carries into
the next.  The table above the last line names every metric with its
unit and sample count; the last line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The traced run also writes its spans, as JSON lines, to
``servebench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path, or fail."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise SystemExit(f"servebench: no program source at {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        raise SystemExit(f"servebench: imported repro from {repro.__file__}")


def _one_cpu() -> None:
    """Keep this process, and every thread it starts, on one CPU.

    The reference task (see :mod:`servebench.calibrate`) then runs on the
    core the requests run on.  Unpinned on a 2-vCPU host, one seed's
    median latency moved by a fifth from run to run; pinned, by a
    twentieth.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _print_table(workload: str, result, names) -> None:
    from servebench.harness import UNITS
    from servebench.metrics import PER_LAYER

    moves = {metric.name: metric.moves for metric in PER_LAYER}
    print(f"== {workload}: attempted {result.attempted}, failed "
          f"{result.failed}, correct {result.correct}")
    for name in names:
        for shown in (name, f"{name}@wall"):
            if shown in result.metrics:
                reading = result.metrics[shown]
                print(f"  {shown:30s} {reading.value:14.4f} "
                      f"{UNITS[name]:14s} n={reading.samples:<6d} "
                      f"{moves.get(shown, '')}")
    for name, note in result.notes.items():
        print(f"  {name:30s} {note}")


def _run_alone(workload: str, args) -> dict:
    """Run one workload in a child process; echo its table, return its line."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
    )
    output = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not output:
        raise SystemExit(f"servebench: {workload} exited with "
                         f"{completed.returncode}")
    print("\n".join(output[:-1]), flush=True)
    return json.loads(output[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    from servebench.harness import measure, measure_traced
    from servebench.metrics import END_TO_END, PER_LAYER, WORKLOAD_ONLY
    from servebench.workloads import WORKLOADS

    if args.workload == "all":
        lines = {name: _run_alone(name, args) for name in WORKLOADS}
        line = {
            "correct": all(item["correct"] for item in lines.values()),
            "attempted": sum(item["attempted"] for item in lines.values()),
            "failed": sum(item["failed"] for item in lines.values()),
            "metrics": {
                f"{name}.{metric}": reading
                for name, item in lines.items()
                for metric, reading in item["metrics"].items()
            },
        }
        print(json.dumps(line), flush=True)
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")

    workload = WORKLOADS[args.workload]
    _one_cpu()
    if args.trace:
        reported = [metric.name for metric in PER_LAYER]
        shown = reported
        spans = (BENCH_DIR / "out"
                 / f"spans-{args.workload}-seed{args.seed}.jsonl")
        result = measure_traced(workload, args.seed, args.seconds, spans)
    else:
        reported = [metric.name for metric in END_TO_END]
        shown = reported + [metric.name for metric in WORKLOAD_ONLY] + [
            "host_speed", "setup_host_speed"]
        result = measure(workload, args.seed, args.seconds)
    _print_table(args.workload, result, shown)
    line = result.line(reported)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
