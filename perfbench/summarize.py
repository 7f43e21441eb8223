"""Summarize a traced run's span file: per-layer totals, self time, p50, p99.

Usage, from the root of a checkout::

    python3 perfbench/summarize.py .perfbench/traces/serve-live-seed1.jsonl

For a serve-live trace it also confirms that the self times of each
``/site`` request's spans sum to the traced round trip, which holds
only if every server-side span nests inside the client's round trip.
Exits 1 when that check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict

from spans import layer_table, load, render_table, tree_sum_check


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/summarize.py", description=__doc__.split("\n")[0])
    parser.add_argument("spans", help="span file written by a --trace 1 run")
    args = parser.parse_args(argv)

    header, spans = load(args.spans)
    print("meta " + json.dumps(header.get("meta", {}), sort_keys=True))
    counts = header.get("counts", {})
    if counts:
        print("counts " + json.dumps(counts, sort_keys=True))
    # A repro-cold file holds two runs (cold, warm) whose span ids overlap.
    runs: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        runs[span.get("run", "")].append(span)
    for run, members in runs.items():
        phases = {int(ctx): label for ctx, label in header.get("phases", {}).items()}
        title = f"run {run}" if run else "all spans"
        print(f"{title}: {len(members)} spans")
        print(render_table(layer_table(members)))
        for ctx, label in sorted(phases.items()):
            print(f"phase {label}:")
            print(render_table(layer_table(members, ctx_in={ctx})))

    if any(span["name"] == "serve.http.roundtrip" for span in spans):
        checked, worst = tree_sum_check(spans, "serve.http.roundtrip")
        ok = checked > 0 and worst <= 1e-9
        print(f"/site self-time sum check: {checked} round trips, worst relative error "
              f"{worst:.2e}: {'ok' if ok else 'FAILED'}")
        return 0 if ok else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
