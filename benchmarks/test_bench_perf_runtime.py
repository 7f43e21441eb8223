"""PERF — the resilient runtime wrapper on a fault-free sweep.

The runtime layer (retries, quarantine, checkpoint hooks, spill
checks) must be free when nothing fails: the gate asserts the serial
``SweepEngine.sweep`` costs < 10% over the same kernel tasks run by a
plain loop and merged by the same engine, on a >= 200-version segment.
Sweeping into a ``checkpoint_dir`` is measured and persisted for
EXPERIMENTS.md but not gated — its manifest hashes the whole universe
by design.

Timings are best-of-3 to shave scheduler noise; both strategies run
the identical task list through the identical merge, so the compared
work differs only by the runtime wrapper itself.
"""

import datetime
import time

import pytest

from benchmarks.conftest import save_artifact
from repro.classify.columnar import universe_chunks
from repro.classify.engine import ClassifyEngine
from repro.classify.partials import classify_chunk
from repro.history.store import VersionStore
from repro.sweep import DEFAULT_CHUNK_SIZE, SweepEngine

pytestmark = pytest.mark.bench

SEGMENT_VERSIONS = 220
UNIVERSE_SIZE = 3000
ROUNDS = 3
MAX_OVERHEAD = 0.10


@pytest.fixture(scope="module")
def runtime_world(tables_world):
    """A >= 200-version sub-history plus a fixed hostname sample."""
    store = tables_world.store
    start = len(store) // 3
    segment = VersionStore(snapshot_interval=64)
    initial = store.rules_at(start)
    segment.commit_rules(store.versions[start].date, added=sorted(initial, key=lambda r: r.text))
    for version in store.versions[start + 1 : start + SEGMENT_VERSIONS]:
        segment.commit(version.date, version.delta)
    hostnames = tables_world.snapshot.hostnames[:UNIVERSE_SIZE]
    assert len(segment) >= 200
    return segment, hostnames


def _best_of(rounds, run):
    best = float("inf")
    result = None
    for _ in range(rounds):
        begin = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - begin)
    return best, result


def _plain_loop(store, hostnames, run_dir):
    """The reference: the engine's kernel tasks run by a plain loop —
    no executor, no checkpoint ledger, no spill re-hash — and merged."""
    engine = ClassifyEngine(store, version_indexes=range(len(store)), run_dir=run_dir)
    chunks = universe_chunks(hostnames, (), min(DEFAULT_CHUNK_SIZE, len(hostnames)))
    rows = engine.merge([classify_chunk(task) for task in engine.tasks(chunks)])
    return tuple(row.sites.sites for row in rows)


def test_bench_runtime_wrapper_overhead(runtime_world, tmp_path):
    store, hostnames = runtime_world

    raw_seconds, raw_counts = _best_of(
        ROUNDS, lambda: _plain_loop(store, hostnames, str(tmp_path / "plain"))
    )
    wrapped_seconds, wrapped_counts = _best_of(
        ROUNDS, lambda: SweepEngine(store).sweep(hostnames).site_counts
    )
    checkpointed_seconds, checkpointed_counts = _best_of(
        ROUNDS,
        lambda: SweepEngine(
            store, checkpoint_dir=str(tmp_path / "spill"), resume=False
        ).sweep(hostnames).site_counts,
    )

    assert wrapped_counts == raw_counts == checkpointed_counts  # same answer first
    overhead = wrapped_seconds / raw_seconds - 1.0
    checkpoint_overhead = checkpointed_seconds / raw_seconds - 1.0

    save_artifact(
        "perf_runtime.txt",
        "\n".join(
            [
                f"date                 {datetime.date.today().isoformat()}",
                f"versions             {len(store)}",
                f"hostnames            {len(hostnames)}",
                f"plain task loop      {raw_seconds:8.3f} s",
                f"resilient runtime    {wrapped_seconds:8.3f} s ({overhead:+6.1%})",
                f"with checkpointing   {checkpointed_seconds:8.3f} s ({checkpoint_overhead:+6.1%})",
            ]
        ),
    )
    assert overhead < MAX_OVERHEAD, (
        f"runtime wrapper costs {overhead:.1%} on a fault-free sweep "
        f"({wrapped_seconds:.3f}s vs {raw_seconds:.3f}s plain loop)"
    )
