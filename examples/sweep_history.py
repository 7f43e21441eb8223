"""Sweep a hostname universe across a full list history.

The paper's Figures 5-7 ask one question 1,142 times: "how does this
web snapshot look under list version v?".  The sweep engine answers
all versions in one delta-driven pass — this example runs it over the
synthetic history and shows the two performance knobs:

* ``workers`` — process count.  ``1`` (default) runs serially; any
  value produces bit-identical results, so parallelism is purely a
  wall-clock decision (use > 1 only on multi-core hosts).
* ``chunk_size`` — distinct hostnames per worker task (each request
  rides with its page's chunk).  The default (65,536, auto-shrunk so a
  parallel run has chunks to balance) is right for almost everyone:
  every chunk replays the whole delta chain, so fewer chunks are
  cheaper.

The same engine backs ``psl-repro fig5`` etc. — pass ``--workers N``
there to get the pool without writing code.

Run: ``python examples/sweep_history.py``
"""

import time

from repro.history.synthesis import synthesize_history
from repro.sweep import SweepEngine
from repro.webgraph.synthesis import SnapshotConfig, synthesize_snapshot


def main() -> None:
    seed = 20230701
    store = synthesize_history()
    snapshot = synthesize_snapshot(
        SnapshotConfig(seed=seed, harm_scale=0.1, bulk_scale=0.25)
    )
    hostnames = snapshot.hostnames
    pairs = tuple(snapshot.iter_request_pairs())
    print(f"history: {len(store)} versions   universe: {len(hostnames):,} "
          f"hostnames, {len(pairs):,} requests\n")

    # The combined sweep: all three per-version series in one fan-out.
    engine = SweepEngine(store, workers=1)  # try workers=4 on a big box
    begin = time.perf_counter()
    series = engine.sweep(hostnames, pairs)
    elapsed = time.perf_counter() - begin
    print(f"swept {series.version_count} versions in {elapsed:.2f}s "
          f"({elapsed / series.version_count * 1000:.2f} ms/version amortized)\n")

    print("version   date         sites   3rd-party   diff-vs-latest")
    step = max(1, len(store) // 10)
    for version in store.versions[::step]:
        index = version.index
        print(f"{index:7d}   {version.date}   {series.site_counts[index]:6,d}  "
              f"{series.third_party[index]:9,d}   {series.divergence[index]:8,d}")

    # A custom chunk size just changes the fan-out granularity, never
    # the numbers.
    shredded = SweepEngine(store, chunk_size=8192).sweep(hostnames, pairs)
    assert shredded == series
    print("\nchunk_size=8192 reproduces the identical series — "
          "tune freely, results never move")


if __name__ == "__main__":
    main()
