"""The sweep engine vs. the one-shot oracles.

The engine's whole value proposition is that its delta-driven, chunked,
possibly-parallel sweep is *indistinguishable* from rebuilding the
world per version.  These tests hold it to that:

* property tests replay randomized delta sequences (normal, wildcard,
  and exception rules) over randomized hostname universes and compare
  every per-version number against ``group_sites`` and the streaming
  third-party counter on a fresh checkout;
* a deterministic multi-chunk run asserts ``workers=2`` output is
  bit-identical to ``workers=1``;
* unit tests pin the universe chunking and validation edges.
"""

import datetime
import random
import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.history.store import VersionStore
from repro.net.hostname import is_ip_literal
from repro.psl.diff import RuleDelta
from repro.psl.rules import Rule
from repro.classify.columnar import universe_chunks
from repro.sweep import DEFAULT_CHUNK_SIZE, SweepEngine
from repro.webgraph.sites import group_sites
from repro.webgraph.stream import count_third_party_streaming

# -- strategies (the idiom of test_properties.py) -----------------------------

label = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=6)


@st.composite
def rule_text(draw):
    labels = draw(st.lists(label, min_size=1, max_size=3))
    kind = draw(st.sampled_from(["normal", "normal", "wildcard", "exception"]))
    name = ".".join(labels)
    if kind == "wildcard":
        return f"*.{name}"
    if kind == "exception" and len(labels) >= 2:
        return f"!{name}"
    return name


rule_sets = st.lists(rule_text(), min_size=0, max_size=12).map(
    lambda texts: [Rule.parse(t) for t in texts]
)

# All-digit draws can land on dotted quads ("0.0.0.0"), which the
# streaming ingest gate rejects as IP literals; these tests compare the
# engine against per-version oracles over *hostnames*, so keep the
# universe out of IP-literal space (ingest policy has its own tests).
hostnames_strategy = st.lists(
    st.lists(label, min_size=1, max_size=4)
    .map(".".join)
    .filter(lambda name: not is_ip_literal(name)),
    min_size=1,
    max_size=25,
    unique=True,
)


def store_from_steps(rule_steps):
    """A VersionStore whose versions walk through the target rule sets."""
    store = VersionStore(snapshot_interval=8)
    day = datetime.date(2020, 1, 1)
    current: set[Rule] = set()
    for step in rule_steps:
        target = set(step)
        delta = RuleDelta(
            added=frozenset(target - current), removed=frozenset(current - target)
        )
        if delta:
            store.commit(day, delta)
            day += datetime.timedelta(days=1)
            current = target
    if len(store) == 0:  # every step drew the same (possibly empty) set
        store.commit_rules(day, added=[Rule.parse("placeholder")])
    return store


def pairs_from(hostnames):
    """Deterministic request pairs covering same-site and cross-site."""
    rotated = hostnames[1:] + hostnames[:1]
    pairs = list(zip(hostnames, rotated))
    pairs.extend((host, host) for host in hostnames[:5])
    return pairs


# -- property tests: engine vs. rebuild-per-version ---------------------------


class TestEngineMatchesOracles:
    @settings(max_examples=40, deadline=None)
    @given(hostnames_strategy, st.lists(rule_sets, min_size=1, max_size=5))
    def test_serial_sweep_equals_rebuild_per_version(self, hostnames, rule_steps):
        store = store_from_steps(rule_steps)
        pairs = pairs_from(hostnames)
        series = SweepEngine(store).sweep(hostnames, pairs)

        assignments = [
            group_sites(store.checkout(index), hostnames)
            for index in range(len(store))
        ]
        latest = assignments[-1]
        for index in range(len(store)):
            assignment = assignments[index]
            assert series.site_counts[index] == len(set(assignment.values()))
            assert series.divergence[index] == sum(
                1 for host in hostnames if assignment[host] != latest[host]
            )
            third, total = count_third_party_streaming(store.checkout(index), pairs)
            assert total == len(pairs)
            assert series.third_party[index] == third

    @settings(max_examples=25, deadline=None)
    @given(hostnames_strategy, st.lists(rule_sets, min_size=2, max_size=4))
    def test_tiny_chunks_change_nothing(self, hostnames, rule_steps):
        store = store_from_steps(rule_steps)
        pairs = pairs_from(hostnames)
        default = SweepEngine(store).sweep(hostnames, pairs)
        shredded = SweepEngine(store, chunk_size=1).sweep(hostnames, pairs)
        assert shredded == default


# -- parallel vs. serial ------------------------------------------------------


def _random_world(seed=20230701, hosts=150, versions=30):
    """A deterministic multi-version store plus a hostname universe."""
    rng = random.Random(seed)
    bases = [f"{a}{b}" for a in "pqrs" for b in "tuvw"]
    tlds = ["com", "net", "kawasaki.jp", "example"]
    hostnames = []
    for index in range(hosts):
        depth = rng.randint(0, 2)
        name = f"{rng.choice(bases)}.{rng.choice(tlds)}"
        for _ in range(depth):
            name = f"h{rng.randint(0, 9)}.{name}"
        if name not in hostnames:
            hostnames.append(name)
    pool = [Rule.parse(t) for t in ["com", "net", "example", "*.kawasaki.jp",
                                    "!city.kawasaki.jp"]]
    pool.extend(Rule.parse(f"{base}.com") for base in bases)
    pool.extend(Rule.parse(f"*.{base}.net") for base in bases[:6])

    store = VersionStore(snapshot_interval=8)
    day = datetime.date(2015, 1, 1)
    current: set[Rule] = set(pool[:3])
    store.commit_rules(day, added=sorted(current, key=lambda r: r.text))
    for _ in range(versions - 1):
        day += datetime.timedelta(days=7)
        absent = [rule for rule in pool if rule not in current]
        added = set(rng.sample(absent, min(len(absent), rng.randint(0, 3))))
        removable = sorted(current - added, key=lambda r: r.text)
        removed = set(rng.sample(removable, min(len(removable), rng.randint(0, 2))))
        if not added and not removed:
            added = {absent[0]} if absent else set()
        if added or removed:
            store.commit_rules(day, added=added, removed=removed)
        current = (current - removed) | added
    return store, hostnames


class TestParallelIdentity:
    def test_two_workers_bit_identical_to_serial(self):
        store, hostnames = _random_world()
        pairs = pairs_from(hostnames)
        serial = SweepEngine(store, workers=1, chunk_size=16).sweep(hostnames, pairs)
        parallel = SweepEngine(store, workers=2, chunk_size=16).sweep(hostnames, pairs)
        assert parallel == serial

    def test_parallel_auto_chunking_balances(self):
        store, hostnames = _random_world(hosts=40, versions=8)
        engine = SweepEngine(store, workers=4)
        # At least 4 chunks per worker when the universe allows it.
        assert engine._effective_chunk_size(len(hostnames)) <= 3


# -- narrow entry points and edges --------------------------------------------


class TestEngineApi:
    def test_divergence_against_arbitrary_baseline(self):
        store, hostnames = _random_world(hosts=30, versions=6)
        divergence = SweepEngine(store).sweep(hostnames, baseline_index=0).divergence
        assert divergence[0] == 0  # version 0 never diverges from itself
        assert any(divergence[1:])

    def test_duplicate_hostnames_are_counted_once(self):
        store, hostnames = _random_world(hosts=20, versions=4)
        series = SweepEngine(store).sweep(hostnames + hostnames)
        assert series.hostname_count == len(hostnames)

    def test_rejects_empty_history(self):
        with pytest.raises(ValueError):
            SweepEngine(VersionStore())

    def test_empty_sweep_short_circuits_even_with_many_workers(self):
        # The pool-construction edge: min(workers, 0 tasks) must never
        # reach ProcessPoolExecutor(max_workers=0).
        store, _ = _random_world(hosts=5, versions=3)
        series = SweepEngine(store, workers=4).sweep((), ())
        assert series.site_counts == (0,) * len(store)
        assert series.hostname_count == 0 and series.request_count == 0

    def test_fault_free_runtime_is_bit_identical_to_raw(self, tmp_path):
        """The runtime (executor, checkpoints, spill checks) adds nothing
        to the numbers: a plain loop over the same kernel tasks, merged
        by the same engine, gives the identical series."""
        from repro.classify.engine import ClassifyEngine
        from repro.classify.partials import classify_chunk

        store, hostnames = _random_world(hosts=60, versions=10)
        pairs = pairs_from(hostnames)
        resilient = SweepEngine(store, chunk_size=16).sweep(hostnames, pairs)
        engine = ClassifyEngine(
            store, version_indexes=range(len(store)), run_dir=str(tmp_path)
        )
        tasks = engine.tasks(universe_chunks(hostnames, pairs, 16))
        rows = engine.merge([classify_chunk(task) for task in tasks])
        assert resilient.site_counts == tuple(row.sites.sites for row in rows)
        assert resilient.third_party == tuple(row.third_party.third_party for row in rows)
        assert resilient.divergence == tuple(row.misclassified_hostnames for row in rows)

    def test_rejects_bad_workers_and_chunks(self):
        store, _ = _random_world(hosts=5, versions=3)
        with pytest.raises(ValueError):
            SweepEngine(store, workers=0)
        with pytest.raises(ValueError):
            SweepEngine(store, chunk_size=0)


class TestChunking:
    def test_chunks_partition_the_universe(self):
        """Each distinct hostname has weight 1 in exactly one chunk."""
        hostnames = [f"h{i}.example.com" for i in range(10)]
        chunks = universe_chunks(hostnames + hostnames[:3], (), 3)
        assert [chunk.index for chunk in chunks] == [0, 1, 2, 3]
        weighted = [
            host
            for chunk in chunks
            for host, weight in zip(chunk.hosts, chunk.occurrences)
            if weight
        ]
        assert weighted == hostnames
        assert sum(chunk.hostnames for chunk in chunks) == len(hostnames)

    def test_pair_chunks_partition_the_stream(self):
        """Every pair lands in exactly one chunk — its page host's —
        and an endpoint the chunk does not own rides along at weight 0."""
        pages = [f"a{i}.com" for i in range(7)]
        requests = [f"b{i}.net" for i in range(7)]
        pairs = list(zip(pages, requests))
        chunks = universe_chunks(pages + requests, pairs, 4)
        assert [len(chunk.pages) for chunk in chunks] == [4, 3, 0, 0]
        rebuilt = [
            (chunk.hosts[page], chunk.hosts[request])
            for chunk in chunks
            for page, request in zip(chunk.pages, chunk.requests)
        ]
        assert rebuilt == pairs
        first = chunks[0]
        weights = dict(zip(first.hosts, first.occurrences))
        assert weights["a0.com"] == 1 and weights["b0.net"] == 0

    def test_default_chunk_size_is_sane(self):
        assert DEFAULT_CHUNK_SIZE >= 1024
