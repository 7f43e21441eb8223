"""Shared fixtures.

The synthetic world (history, corpus, snapshot) is expensive enough to
build that the integration-grade fixtures are session-scoped; unit
tests use small hand-built lists instead and never touch these.
"""

from __future__ import annotations

import pytest

from repro.analysis.context import ExperimentContext, get_context
from repro.psl.parser import parse_psl
from repro.webgraph.synthesis import SnapshotConfig

TEST_SEED = 20230701


@pytest.fixture(scope="session")
def kernel_replay(tmp_path_factory):
    """Run the version-sweep kernel over a rule chain, one chunk
    holding every hostname (weight 1 each).

    ``replay(initial_rules, deltas, hostnames, pairs=())`` returns
    ``(partial, counters)``: the chunk's per-version columns
    (:class:`~repro.classify.partials.ChunkPartial`; the divergence
    baseline is the last version) and each version's
    ``site -> hostname count`` mapping rebuilt from the spill.
    """
    from collections import Counter

    from repro.classify.columnar import universe_chunks
    from repro.classify.partials import ClassifyTask, RuleChain, SpillReader, classify_chunk

    spill_root = tmp_path_factory.mktemp("kernel-replay")
    runs = iter(range(1 << 30))

    def replay(initial_rules, deltas, hostnames, pairs=()):
        hostnames = list(hostnames)
        deltas = tuple(deltas)
        final = set(initial_rules)
        for delta in deltas:
            final = (final - delta.removed) | delta.added
        (chunk,) = universe_chunks(hostnames, list(pairs), max(1, len(hostnames)))
        partial = classify_chunk(
            ClassifyTask(
                ref=chunk,
                source=RuleChain(frozenset(initial_rules), deltas, frozenset(final)),
                version_indexes=tuple(range(len(deltas) + 1)),
                baseline_index=len(deltas),
                spill_dir=str(spill_root / str(next(runs))),
            )
        )
        counters = []
        current: Counter = Counter()
        with SpillReader(partial.spill.path) as reader:
            for slot in range(reader.versions):
                current.update(reader.read(slot))
                current = +current
                counters.append(dict(current))
        return partial, counters

    return replay


@pytest.fixture(scope="session")
def world() -> ExperimentContext:
    """The full calibrated world with a slimmed background web.

    ``harm_scale=1.0`` keeps every paper-exact count intact; the bulk
    web is scaled down for speed (the calibrated analyses do not
    depend on it).
    """
    return get_context(TEST_SEED, SnapshotConfig(seed=TEST_SEED, harm_scale=1.0, bulk_scale=0.1))


@pytest.fixture(scope="session")
def store(world):
    """The synthetic 1,142-version history."""
    return world.store


@pytest.fixture(scope="session")
def corpus(world):
    """The 273-repository corpus."""
    return world.corpus


@pytest.fixture(scope="session")
def snapshot(world):
    """The paired crawl snapshot (harm populations paper-exact)."""
    return world.snapshot


@pytest.fixture(scope="session")
def sweep(world):
    """The full version sweep over the session snapshot (through the
    artifact pipeline, so other pipeline users share it)."""
    return world.sweep_result()


@pytest.fixture(scope="session")
def harm_result(world, sweep):
    """The measured Tables 2/3 and headline."""
    from repro.analysis.harm import harm_analysis

    return harm_analysis(world, sweep)


@pytest.fixture()
def small_psl():
    """A compact list covering every rule kind and both divisions."""
    return parse_psl(
        """\
// ===BEGIN ICANN DOMAINS===
com
net
co.uk
uk
*.ck
!www.ck
jp
kyoto.jp
// ===END ICANN DOMAINS===
// ===BEGIN PRIVATE DOMAINS===
github.io
blogspot.com
s3.dualstack.us-east-1.amazonaws.com
// ===END PRIVATE DOMAINS===
"""
    )
