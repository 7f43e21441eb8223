"""PERF ablation — incremental regrouping vs. full recompute.

DESIGN.md design-choice 2: the Figures 5-7 sweep applies 1,141 deltas.
Recomputing the full grouping per version costs |hostnames| lookups
each time; the version-sweep kernel re-walks only hostnames under the
touched rules.  The sweep over the whole history is only feasible
incrementally — this bench shows the per-version gap.
"""

from collections import Counter

import pytest

from repro.classify.columnar import universe_chunks
from repro.classify.partials import ClassifyTask, RuleChain, SpillReader, classify_chunk
from repro.psl.list import PublicSuffixList
from repro.webgraph.sites import group_sites


@pytest.fixture(scope="module")
def sweep_segment(tables_world):
    """A mid-history segment of 20 versions plus the hostname universe."""
    store = tables_world.store
    start = len(store) // 2
    versions = store.versions[start + 1 : start + 21]
    return store, start, versions, tables_world.snapshot.hostnames


def _kernel(store, start, versions, hostnames, spill_dir):
    """One kernel chunk over the segment's rule chain: the partial."""
    (chunk,) = universe_chunks(hostnames, (), len(hostnames))
    chain = RuleChain(
        initial_rules=store.rules_at(start),
        deltas=tuple(version.delta for version in versions),
        baseline_rules=store.rules_at(versions[-1].index),
    )
    return classify_chunk(
        ClassifyTask(
            ref=chunk,
            source=chain,
            version_indexes=tuple(range(len(versions) + 1)),
            baseline_index=len(versions),
            spill_dir=spill_dir,
        )
    )


def test_bench_incremental_regroup(benchmark, sweep_segment, tmp_path):
    store, start, versions, hostnames = sweep_segment

    def run():
        return _kernel(store, start, versions, hostnames, str(tmp_path))

    benchmark.pedantic(run, rounds=2, iterations=1)


def test_bench_full_recompute(benchmark, sweep_segment):
    store, start, versions, hostnames = sweep_segment
    subset = versions[:3]  # full recompute per version is the slow path

    def run():
        counts = []
        for version in subset:
            psl = PublicSuffixList(store.rules_at(version.index))
            counts.append(len(set(group_sites(psl, hostnames).values())))
        return counts

    benchmark.pedantic(run, rounds=1, iterations=1)


def test_incremental_matches_full_recompute(sweep_segment, tmp_path):
    store, start, versions, hostnames = sweep_segment
    partial = _kernel(store, start, versions, hostnames, str(tmp_path))
    sites: Counter = Counter()
    with SpillReader(partial.spill.path) as reader:
        for slot in range(reader.versions):
            sites.update(reader.read(slot))
    final = group_sites(
        PublicSuffixList(store.rules_at(versions[-1].index)), hostnames
    )
    assert +sites == Counter(final.values())
    assert partial.misclassified[-1] == 0
