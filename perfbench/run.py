"""The repository benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-live --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload classify-bulk --seed 1 --seconds 5 --trace 1

``--trace 0`` is a timed run: it prints the workload's figures under
their own names, then, as the last line, one JSON object whose
``metrics`` are the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` is a separate traced run: it wraps each layer's public
callables with span recorders, prints the per-layer table and the
tracing overhead, keeps the span file under ``.perfbench/traces/``
(read it again with ``perfbench/summarize.py``), and reports the
per-layer metrics.  A failed correctness check prints
``"correct": false`` with no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("serve-live", "classify-bulk", "repro-cold")


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.chdir(ROOT)

    from benchlib import WORK_ROOT, TraceFile, host_record

    benchmark = load_benchmark()
    host = host_record(ROOT)
    trace_file = None
    if args.trace:
        traces = os.path.join(ROOT, WORK_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        trace_file = TraceFile(
            os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl"),
            {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "host": host},
        )

    if args.workload == "serve-live":
        import serve_live as workload
    elif args.workload == "classify-bulk":
        import classify_bulk as workload
    else:
        import repro_cold as workload

    started = time.perf_counter()
    outcome = workload.run(args.seed, args.seconds, trace_file)
    wall = time.perf_counter() - started

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  wall {wall:.1f} s")
    print("host " + json.dumps(host, sort_keys=True))
    for phase, (attempted, failed) in outcome.phases.items():
        print(f"  phase {phase:32s} attempted {attempted:8d}  failed {failed:6d}")
    for name, (value, unit) in outcome.named.items():
        print(f"  {name:32s} {value:14.4f} {unit}")
    for line in outcome.notes:
        print(line)
    if trace_file is not None:
        print(f"span file: {os.path.relpath(trace_file.path, ROOT)}")

    wanted = benchmark["per_layer" if args.trace else "end_to_end"]
    metrics: dict[str, dict] = {}
    for spec in wanted:
        name = spec["name"]
        # A layer this workload never calls reports 0 in the traced run.
        value, unit = outcome.metrics.get(name, (0.0, spec["unit"]))
        if unit != spec["unit"]:
            outcome.problems.append(f"metric {name} measured in {unit}, declared {spec['unit']}")
        if not math.isfinite(value):
            outcome.problems.append(f"metric {name} is {value}")
        metrics[name] = {"value": value, "unit": spec["unit"]}
    missing = [name for name in outcome.metrics if name not in metrics]
    if missing:
        outcome.problems.append(f"metrics not declared in BENCHMARK.json: {missing}")

    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not outcome.problems
    result = {
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics if correct else {},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
