"""Load-test a local multi-worker PSL fleet with Zipf-shaped traffic.

Boots a pre-fork fleet (4 worker processes sharing one port and one
packed snapshot buffer), then drives it with the
:mod:`repro.serve.loadgen` generator — head-heavy Zipf hostname
traffic, the shape top-list studies show real services receive — and
prints a p50/p99/throughput table for the fleet next to a
single-process baseline.  Along the way it shows the fleet surface:
per-worker heartbeats, `/healthz` epoch agreement, and a live `/swap`
observed by every worker.

Run: ``python examples/serve_load.py``
"""

from __future__ import annotations

import json
import threading
import urllib.request

from repro.history.synthesis import SynthesisConfig, synthesize_history
from repro.psl.packed import PackedHistory, pack_history
from repro.serve.cli import wait_until_up
from repro.serve.engine import QueryEngine
from repro.serve.fleet import FleetConfig, FleetSupervisor, fork_available
from repro.serve.http import PslServer
from repro.serve.loadgen import ZipfSampler, run_load
from repro.serve.snapshots import SnapshotRegistry

WORKERS = 4
REQUESTS = 3000
CONCURRENCY = 8


def get_json(url: str, *, data: dict | None = None) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(data).encode() if data is not None else None,
        headers={"Content-Type": "application/json"} if data is not None else {},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


def build_population(store) -> list[str]:
    """Hostnames over suffixes the synthesized list really contains."""
    psl = store.checkout(-1)
    suffixes = [rule.name for rule in psl.rules if "*" not in rule.text][:500]
    return [
        f"host{i}.site{i % 89}.{suffixes[i % len(suffixes)]}"
        for i in range(2_000)
    ]


def main() -> None:
    if not fork_available():
        raise SystemExit("this example needs os.fork (POSIX)")

    print("synthesizing the history and packing the snapshot buffer…")
    store = synthesize_history(SynthesisConfig(seed=20230701))
    blob = pack_history(store)
    packed = PackedHistory.from_buffer(blob)
    population = build_population(store)
    sampler = ZipfSampler(population)
    print(
        f"  {len(store)} versions, packed buffer {len(blob) / 1e6:.1f} MB; "
        f"Zipf traffic: top-10 hostnames get {sampler.head_share(10):.0%} of requests"
    )

    # -- single-process baseline ---------------------------------------------
    registry = SnapshotRegistry(store, packed=packed)
    engine = QueryEngine(registry)
    single = PslServer(("127.0.0.1", 0), registry, engine=engine, max_inflight=64)
    accept = threading.Thread(target=single.serve_forever, daemon=True)
    accept.start()
    print(f"\nsingle-process server on {single.url} — {REQUESTS} Zipf lookups…")
    try:
        baseline = run_load(
            single.url, population, requests=REQUESTS, concurrency=CONCURRENCY
        )
    finally:
        single.shutdown()
        single.server_close()
        accept.join(timeout=5)

    # -- the pre-fork fleet ---------------------------------------------------
    supervisor = FleetSupervisor(
        store,
        config=FleetConfig(workers=WORKERS, port=0),
        packed=packed,
    )
    supervisor.start()
    mode = "SO_REUSEPORT" if supervisor.reuse_port else "inherited parent fd"
    print(f"\nfleet of {WORKERS} workers on {supervisor.url} ({mode})")
    try:
        wait_until_up(supervisor.url)
        fleet = run_load(
            supervisor.url, population, requests=REQUESTS, concurrency=CONCURRENCY
        )

        # -- the p50/p99/throughput table ------------------------------------
        print(f"\n{'':14s}  {'throughput':>12s}  {'p50':>9s}  {'p99':>9s}  {'failures':>8s}")
        for label, result in (("single", baseline), (f"{WORKERS} workers", fleet)):
            print(
                f"{label:14s}  {result.throughput_rps:>9,.0f} rps"
                f"  {result.p50_ms:>6.2f} ms  {result.p99_ms:>6.2f} ms"
                f"  {result.failures:>8d}"
            )

        # -- the fleet surface: heartbeats, epochs, a live swap --------------
        print("\n== per-worker heartbeats (from /healthz fleet block) ==")
        health = get_json(supervisor.url + "/healthz")
        for row in health["fleet"]["workers"]:
            print(
                f"  worker {row['worker']} (pid {row['pid']}): epoch {row['epoch']}, "
                f"active v{row['active_index']}, {row['requests_total']:.0f} requests"
            )

        print("\n== fleet-wide hot-swap ==")
        swap = get_json(supervisor.url + "/swap?version=0", data={})
        print(f"  POST /swap -> active v{swap['active']['index']}, epoch {swap['epoch']}")
        import time

        for _ in range(100):
            view = supervisor.view()
            if view["agreement"]:
                break
            time.sleep(0.05)
        view = supervisor.view()
        print(
            f"  agreement={view['agreement']} at published epoch "
            f"{view['published_epoch']} across {view['reporting']} workers"
        )
        answer = get_json(supervisor.url + "/site?host=www.example.co.uk")
        print(f"  lookups now answer from v{answer['version']}")
    finally:
        drained = supervisor.drain()
    print(f"\nfleet drained cleanly: {drained}")


if __name__ == "__main__":
    main()
