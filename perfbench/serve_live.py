"""serve-live: one in-process PslServer worker under Zipf traffic and live ingest.

The server is assembled the way ``psl-serve --packed --watch`` does it:
the full history becomes a SyntheticUpstream, the registry starts
``BEHIND`` versions back over ``pack_history`` of that prefix, and the
engine runs uncached (``cache_capacity=0``).  Load comes from one
client process (see ``load_client.py``) with at most two threads and
two keep-alive connections:

(a) open loop: ``/site`` at a fixed offered rate well below the
    closed-loop capacity; latency is timed from each request's due time;
(b) closed loop: ``/site`` on two keep-alive connections;
(c) closed loop: ``/batch`` of 256 Zipf hostnames on one connection,
    half pinned to a uniformly drawn historical version, while a thread
    of the server process publishes upstream versions and polls the
    watcher until the server has caught up with the head.
"""

from __future__ import annotations

import os
import random
import threading
import time

from benchlib import (
    WORLD_SEED, Outcome, TraceFile, finish_child, median, nearest_rank, peak_rss_mb, receive, send, start_child,
)

#: Versions the server starts behind the upstream head.  Each ingest
#: costs about 150 ms here, so this sets phase (c)'s length.
BEHIND = 40
#: Offered /site rate of phase (a), about a fifth of the closed-loop
#: capacity on a 2-core host.  Neighbour load on a shared host can halve
#: the capacity for seconds at a time; at this rate the open loop stays
#: well below saturation then too, so its latency measures the server
#: rather than a queue that the neighbour built.
OPEN_LOOP_RATE = 500.0
BATCH_SIZE = 256
ZIPF_EXPONENT = 1.2
#: Every SITE_SAMPLE-th /site answer and BATCH_SAMPLE-th /batch answer
#: is kept and checked against ``VersionStore.checkout(v).match``.
SITE_SAMPLE = 16
BATCH_SAMPLE = 5  # odd, so pinned and unpinned batches are both kept
#: At most this many distinct versions are checked out for the answer
#: check (each checkout rebuilds a dict trie, ~50 ms).
CHECK_VERSIONS = 10
#: Phase shares of ``--seconds``: open loop, closed loop, batch + ingest
#: (the last runs on until that cycle's versions are ingested).
PHASE_SHARES = (0.5, 0.25, 0.25)
#: Each cycle is one window of every phase.  Four ingests per cycle.
CYCLES = 10


def build_population(truth, seed: int) -> list[str]:
    """The calibrated snapshot's hostnames, most requested first.

    The snapshot is the one ``psl-repro`` pairs with this history
    (background domains avoid every rule the history ever carried): a
    com-heavy web with the tenant and wildcard populations under
    private suffixes.  A host's Zipf rank is the number of the
    snapshot's pages that are or request it, so the head is the
    trackers and shared hosting the snapshot's pages load most; ``seed``
    orders hosts of equal count.
    """
    from collections import Counter

    from repro.webgraph.synthesis import SnapshotConfig, synthesize_snapshot

    rule_names = frozenset(rule.name for version in truth for rule in version.delta.added)
    snapshot = synthesize_snapshot(SnapshotConfig(seed=WORLD_SEED), forbidden_suffixes=rule_names)
    requests: Counter[str] = Counter()
    for page in snapshot.pages:
        requests.update(page.hosts())
    hosts = list(snapshot.hostnames)
    random.Random(seed).shuffle(hosts)
    hosts.sort(key=lambda host: -requests[host])  # stable: ties keep the seeded order
    return hosts


class ServeLive:
    """One serve-live run: set-up, the three phases, and the checks."""

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.rng = random.Random(seed)
        self.site_samples: list[tuple[str, dict]] = []
        self.batch_samples: list[tuple[list[str], int | None, dict]] = []
        self.phases: dict[str, tuple[int, int]] = {}
        self.setup_parts: dict[str, float] = {}
        self.server = None
        self.client = None

    # -- set-up and teardown ------------------------------------------------------

    def setup(self) -> float:
        from repro.history.synthesis import SynthesisConfig, synthesize_history
        from repro.psl.packed import PackedHistory, pack_history
        from repro.serve.cli import prefix_store
        from repro.serve.engine import QueryEngine
        from repro.serve.http import PslServer
        from repro.serve.snapshots import SnapshotRegistry
        from repro.update.upstream import SyntheticUpstream
        from repro.update.watcher import Watcher

        started = time.perf_counter()
        truth = synthesize_history(SynthesisConfig(seed=WORLD_SEED))
        synthesized = time.perf_counter()
        store = prefix_store(truth, len(truth) - BEHIND)
        packing = time.perf_counter()
        packed = PackedHistory.from_buffer(pack_history(store))
        packed_at = time.perf_counter()
        registry = SnapshotRegistry(store, packed=packed)
        engine = QueryEngine(registry, cache_capacity=0)
        server = PslServer(("127.0.0.1", 0), registry, engine=engine)
        upstream = SyntheticUpstream(truth, published=len(store) - 1)
        watcher = Watcher(registry, upstream)
        server.attach_watcher(watcher)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        population = build_population(truth, self.seed)
        setup_s = time.perf_counter() - started
        self.setup_parts = {
            "history.synthesis_s": synthesized - started,
            "psl.packed.pack_history_s": packed_at - packing,
        }
        self.truth, self.registry, self.server = truth, registry, server
        self.upstream, self.watcher, self.thread = upstream, watcher, thread
        self.historical = len(store)  # versions pinned batches draw from
        self._start_client(server.server_address[1], population)
        return setup_s

    def _start_client(self, port: int, population: list[str]) -> None:
        self.client = start_child(os.getcwd(), "load-client", str(port), str(ZIPF_EXPONENT))
        send(self.client.stdin, population)

    def tell(self, command: str, **kwargs) -> None:
        send(self.client.stdin, (command, kwargs))

    def ask(self, command: str, **kwargs):
        self.tell(command, **kwargs)
        return receive(self.client.stdout)

    def close(self) -> list:
        """Stop the client process and drain the server; returns client round trips."""
        roundtrips: list = []
        if self.client is not None:
            try:
                roundtrips = self.ask("quit")["roundtrips"]
            except (EOFError, OSError):
                pass
            finish_child(self.client, timeout=30)
        if self.server is not None:
            self.server.drain(deadline=5.0)
            self.thread.join(timeout=10)
        return roundtrips

    # -- phases -------------------------------------------------------------------

    def _count(self, phase: str, attempted: int, failed: int) -> None:
        total, bad = self.phases.get(phase, (0, 0))
        self.phases[phase] = (total + attempted, bad + failed)

    def open_loop(self, duration: float, label: str) -> dict:
        result = self.ask(
            "open", duration=duration, rate=OPEN_LOOP_RATE,
            seed=self.rng.randrange(1 << 30), sample_every=SITE_SAMPLE,
        )
        self.site_samples += result["samples"]
        self._count(f"{label} open-loop /site", len(result["latencies"]), result["failed"])
        return result

    def closed_loop(self, duration: float, label: str) -> dict:
        result = self.ask(
            "closed", duration=duration, seed=self.rng.randrange(1 << 30), sample_every=SITE_SAMPLE
        )
        self.site_samples += result["samples"]
        self._count(f"{label} closed-loop /site", result["ok"] + result["failed"], result["failed"])
        return result

    def batch_and_ingest(self, duration: float, versions: int, label: str) -> dict:
        """/batch load from the client while this process ingests ``versions``."""
        ingest_ms: list[float] = []
        failures = 0
        self.tell(
            "batch", seed=self.rng.randrange(1 << 30), size=BATCH_SIZE,
            historical=self.historical, sample_every=BATCH_SAMPLE,
        )
        started = time.perf_counter()
        try:
            for _ in range(versions):
                published_at = time.perf_counter()
                head = self.upstream.publish_next()
                records = self.watcher.poll_once()
                if self.registry.active.index != head or any(
                    record.action != "accepted" for record in records
                ):
                    failures += 1
                    continue
                ingest_ms.append((time.perf_counter() - published_at) * 1e3)
            remaining = duration - (time.perf_counter() - started)
            if remaining > 0:
                time.sleep(remaining)
        finally:
            result = self.ask("stop")
        self.batch_samples += result["samples"]
        self._count(f"{label} closed-loop /batch", result["ok"] + result["failed"], result["failed"])
        self._count(f"{label} publish+poll", versions, failures)
        result["ingest_ms"] = ingest_ms
        return result

    def phases_run(self, label: str, versions: int, cycles: int) -> dict:
        """``cycles`` rounds of (a), (b), (c), each ``1 / CYCLES`` of ``--seconds``.

        Each round is one window of every phase, so the phases share the
        host's fast and slow stretches alike.  A rate or the open loop's
        p50 is computed per window, and the run reports the median of its
        windows; the ingest p50, site p99 and the generator's lateness
        pool every window's samples.
        """
        share_a, share_b, share_c = (self.seconds * share / CYCLES for share in PHASE_SHARES)
        latencies: list[float] = []
        lateness: list[float] = []
        ingest: list[float] = []
        windows: dict[str, list[float]] = {name: [] for name in ("site_p50_ms", "site_rps", "batch_hosts_per_s")}
        for cycle in range(cycles):
            window = self.open_loop(share_a, label)
            latencies += window["latencies"]
            lateness += window["lateness"]
            windows["site_p50_ms"].append(nearest_rank(sorted(window["latencies"]), 0.50) * 1e3)
            closed = self.closed_loop(share_b, label)
            windows["site_rps"].append(closed["ok"] / closed["elapsed"])
            count = versions // cycles + (cycle < versions % cycles)
            batch = self.batch_and_ingest(share_c, count, label)
            windows["batch_hosts_per_s"].append(batch["hosts"] / batch["elapsed"])
            ingest += batch["ingest_ms"]
        latencies.sort()
        lateness.sort()
        return {
            "site_p50_ms": median(windows["site_p50_ms"]),
            "site_p99_ms": nearest_rank(latencies, 0.99) * 1e3,
            "late_p99_ms": nearest_rank(lateness, 0.99) * 1e3,
            "site_rps": median(windows["site_rps"]),
            "batch_hosts_per_s": median(windows["batch_hosts_per_s"]),
            "ingest_p50_ms": median(ingest),
            "windows": windows,
        }

    # -- correctness --------------------------------------------------------------

    def check(self) -> list[str]:
        """Sampled answers equal checkout(v).match; the watcher reached the head."""
        problems: list[str] = []
        by_version: dict[int, list[tuple[str, dict]]] = {}
        for host, answer in self.site_samples:
            by_version.setdefault(answer["version"], []).append((host, answer))
        pinned = 0
        for hosts, requested, answer in self.batch_samples:
            if answer.get("count") != len(hosts) or answer.get("errors") != 0:
                problems.append(f"/batch answered {answer.get('count')} with {answer.get('errors')} errors")
                continue
            version = answer["version"]
            if requested is not None:
                pinned += 1
                if version != requested:
                    problems.append(f"/batch pinned to v{requested} answered under v{version}")
            by_version.setdefault(version, []).extend(zip(hosts, answer["answers"]))
        checked = 0
        versions = sorted(by_version)
        step = max(1, -(-len(versions) // CHECK_VERSIONS))
        for version in versions[::step]:
            psl = self.truth.checkout(version)
            for host, answer in by_version[version]:
                match = psl.match(host)
                checked += 1
                if (
                    answer.get("site") != match.site
                    or answer.get("public_suffix") != match.public_suffix
                    or answer.get("registrable_domain") != match.registrable_domain
                ):
                    problems.append(f"{host} under v{version}: served {answer.get('site')}, expected {match.site}")
                    if len(problems) > 5:
                        return problems
        if not self.site_samples or not pinned:
            problems.append("no /site or pinned /batch answers were sampled")
        head = len(self.truth) - 1
        if self.upstream.published != head or self.registry.active.index != head:
            problems.append(
                f"watcher not caught up: active v{self.registry.active.index}, upstream head v{head}"
            )
        if self.registry.active.fingerprint != self.truth.checkout(head).fingerprint:
            problems.append("active snapshot fingerprint differs from the upstream head")
        actions = [record.action for record in self.watcher.journal]
        if len(actions) != BEHIND or any(action != "accepted" for action in actions):
            problems.append(f"journal is not {BEHIND} accepted records: {actions[:5]}")
        self.checked = (checked, len(versions[::step]))
        return problems


def install_spans(tracer, bench: ServeLive) -> None:
    """Wrap the serving path's public callables (traced runs only)."""
    import repro.serve.engine as engine_module
    import repro.update.watcher as watcher_module
    from repro.serve.core import RequestCore
    from repro.serve.engine import QueryEngine
    from repro.serve.snapshots import PslSnapshot, SnapshotRegistry
    from repro.update.watcher import Watcher

    def request_link(core, request):
        target = request.target
        at = target.find("rid=")
        if at < 0:
            return None
        rid = int(target[at + 4:].split("&", 1)[0])
        return rid, rid

    seen: set[tuple[int, float]] = set()

    def residency(snapshot, registry, spec):
        key = (snapshot.index, snapshot.built_at)
        if key not in seen:
            seen.add(key)
            tracer.add("serve.snapshots.materialized")
        tracer.add("serve.snapshots.resident_calls")

    def batch_hosts(answer, engine, hostnames):
        tracer.add("serve.engine.batch_hosts", len(hostnames))

    # Snapshots already resident before tracing are not new materializations.
    for index in bench.registry.resident_indexes():
        snapshot = bench.registry.resident(index)
        seen.add((snapshot.index, snapshot.built_at))
    tracer.wrap(engine_module, "normalize_or_reject", "net.hostname.normalize")
    tracer.wrap(PslSnapshot, "match", "serve.snapshots.match")
    tracer.wrap(QueryEngine, "site", "serve.engine.site")
    tracer.wrap(QueryEngine, "batch", "serve.engine.batch", after=batch_hosts)
    tracer.wrap(RequestCore, "handle", "serve.core.handle", link=request_link)
    tracer.wrap(SnapshotRegistry, "resident", "serve.snapshots.resident", after=residency)
    tracer.wrap(SnapshotRegistry, "ingest", "serve.snapshots.ingest")
    tracer.wrap(watcher_module, "pack_rules", "psl.packed.pack_version")
    tracer.wrap(Watcher, "poll_once", "update.watcher.poll")


def layer_metrics(tracer, spans: list[dict], setup_parts: dict[str, float]) -> dict[str, tuple[float, str]]:
    """The serving path's per-layer numbers from the traced phases."""
    from spans import layer_table

    table = layer_table(spans)
    site = layer_table(
        spans, ctx_in={span["id"] for span in spans if span["name"] == "serve.http.roundtrip"}
    )

    def mean_self_us(rows: dict, name: str) -> float:
        row = rows.get(name)
        return row["self_s"] * 1e6 / row["calls"] if row and row["calls"] else 0.0

    def mean_total_ms(name: str) -> float:
        row = table.get(name)
        return row["total_s"] * 1e3 / row["calls"] if row and row["calls"] else 0.0

    counts = tracer.counts
    batch = table.get("serve.engine.batch")
    hosts = counts.get("serve.engine.batch_hosts", 0)
    resident_calls = counts.get("serve.snapshots.resident_calls", 0)
    return {
        "net.hostname.normalize_us": (mean_self_us(table, "net.hostname.normalize"), "us"),
        "serve.snapshots.match_us": (mean_self_us(table, "serve.snapshots.match"), "us"),
        "serve.engine.site_us": (mean_self_us(table, "serve.engine.site"), "us"),
        "serve.engine.batch_us_per_host": ((batch["self_s"] * 1e6 / hosts) if batch and hosts else 0.0, "us"),
        "serve.core.handle_us": (mean_self_us(site, "serve.core.handle"), "us"),
        "serve.http.transport_us": (mean_self_us(site, "serve.http.roundtrip"), "us"),
        "serve.snapshots.resident_us": (mean_self_us(table, "serve.snapshots.resident"), "us"),
        "serve.snapshots.materialize_ratio": (
            counts.get("serve.snapshots.materialized", 0) / resident_calls if resident_calls else 0.0,
            "ratio",
        ),
        "update.watcher.poll_ms": (mean_total_ms("update.watcher.poll"), "ms"),
        "psl.packed.pack_version_ms": (mean_total_ms("psl.packed.pack_version"), "ms"),
        "serve.snapshots.ingest_ms": (mean_total_ms("serve.snapshots.ingest"), "ms"),
        "psl.packed.pack_history_s": (setup_parts["psl.packed.pack_history_s"], "s"),
        "history.synthesis_s": (setup_parts["history.synthesis_s"], "s"),
    }


def run(seed: int, seconds: float, trace_file: TraceFile | None) -> Outcome:
    bench = ServeLive(seed, seconds)
    if trace_file is None:
        try:
            setup_s = bench.setup()
            result = bench.phases_run("timed", BEHIND, CYCLES)
            rss = peak_rss_mb()
        finally:
            bench.close()
        return _outcome(bench, setup_s, rss, result, bench.check())

    # Traced run: the phases untraced over the first half of the ingest,
    # then traced over the second half; the difference is the overhead.
    from spans import Tracer, layer_table, render_table, tree_sum_check

    tracer = Tracer()
    try:
        setup_s = bench.setup()
        plain = bench.phases_run("untraced", BEHIND // 2, CYCLES // 2)
        install_spans(tracer, bench)
        bench.ask("trace")
        try:
            traced = bench.phases_run("traced", BEHIND - BEHIND // 2, CYCLES - CYCLES // 2)
        finally:
            tracer.restore()
        rss = peak_rss_mb()
    finally:
        roundtrips = bench.close()
    outcome = _outcome(bench, setup_s, rss, plain, bench.check())
    names = {"site": tracer.code("serve.http.roundtrip"), "batch": tracer.code("serve.http.batch_roundtrip")}
    for rid, start, end, kind in roundtrips:
        tracer.record(rid, 0, names[kind], start, end, rid)
    spans = tracer.spans()
    tracer.write(trace_file.path, trace_file.meta, spans)
    checked, worst = tree_sum_check(spans, "serve.http.roundtrip")
    if checked == 0 or worst > 1e-9:
        outcome.problems.append(f"/site self times do not sum to the round trip (worst {worst:.2e})")
    metrics = layer_metrics(tracer, spans, bench.setup_parts)
    untraced_p50 = plain["site_p50_ms"]
    metrics["loadgen.site_p50_ms"] = (plain["site_p50_ms"], "ms")
    metrics["loadgen.late_p99_ms"] = (plain["late_p99_ms"], "ms")
    metrics["loadgen.site_rps"] = (plain["site_rps"], "1/s")
    metrics["loadgen.site_p99_ms"] = (plain["site_p99_ms"], "ms")
    metrics["trace.overhead_pct"] = ((traced["site_p50_ms"] - untraced_p50) / untraced_p50 * 100.0, "%")
    metrics["trace.spans"] = (float(len(spans)), "count")
    outcome.metrics = metrics
    outcome.notes += [
        "per-layer self times (traced phases):",
        render_table(layer_table(spans)),
        f"/site self-time sum check: {checked} round trips, worst relative error {worst:.2e}",
        "tracing overhead (traced - untraced): "
        f"site p50 {traced['site_p50_ms'] - untraced_p50:+.3f} ms, "
        f"site rps {traced['site_rps'] - plain['site_rps']:+.1f}, "
        f"batch hosts/s {traced['batch_hosts_per_s'] - plain['batch_hosts_per_s']:+.1f}",
    ]
    return outcome


def _outcome(bench: ServeLive, setup_s: float, rss: float, result: dict, problems: list[str]) -> Outcome:
    named = {"setup_s": (setup_s, "s"), "peak_rss_mb": (rss, "MB")}
    for name, value in result.items():
        if name == "windows":
            continue
        named[name] = (value, "1/s" if name.endswith("_per_s") or name.endswith("_rps") else "ms")
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "slow_ms": (result["ingest_p50_ms"], "ms"),
        "rate_per_s": (result["batch_hosts_per_s"], "1/s"),
    }
    notes = [
        f"windows {name}: " + " ".join(f"{value:.4g}" for value in values)
        for name, values in result["windows"].items()
    ]
    if hasattr(bench, "checked"):
        notes.append(f"checked {bench.checked[0]} sampled answers under {bench.checked[1]} versions")
    return Outcome(
        metrics,
        sum(total for total, _ in bench.phases.values()),
        sum(bad for _, bad in bench.phases.values()),
        problems,
        named,
        dict(bench.phases),
        notes,
    )
