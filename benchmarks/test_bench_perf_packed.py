"""PERF — packed zero-copy snapshots: the three gates plus mmap fan-out.

Four claims guard the ``repro.psl.packed`` encoding:

* **lookup gate** — an *uncached* packed match must come in at or
  under 5.87 µs/hostname, the measured cost of the previous serving
  path (dict trie behind the per-hostname LRU).  The packed trie walks
  flat offset arrays through ``memoryview`` with no per-hostname cache
  in front of it.
* **resident gate** — holding the full 1,142-version history resident
  as one packed buffer must cut memory at least 5x against the same
  residency as dict tries (extrapolated from a sampled subset; building
  all 1,142 dict tries would need gigabytes).
* **pack gate** — ``pack_history`` re-packs only the TLD groups each
  delta touched, so its time per version must be at most a third of a
  full ``pack_rules`` of one version, both timed in the same process
  (a ratio, so the gate holds on any host).
* **fan-out** — N reader processes ``mmap`` one packed artifact file
  and answer bit-identically to each other and to the dict oracle;
  the OS shares the physical pages, so process count stops multiplying
  resident cost.

``make bench-packed`` runs exactly this file.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
import time

import pytest

from benchmarks.conftest import save_artifact
from repro.psl.list import PublicSuffixList
from repro.psl.packed import (
    PackedHistory,
    dict_trie_bytes,
    pack_history,
    pack_rules,
)

pytestmark = pytest.mark.bench

GATE_MATCH_US = 5.87        # the old cached-LRU path, µs per hostname
GATE_RESIDENT_RATIO = 5.0   # packed full history vs dict tries
GATE_PACK_RATIO = 1 / 3     # pack_history per version vs one full pack_rules
PACK_SAMPLE = 25            # versions packed in full for the comparison
TRIALS = 7
DICT_SAMPLE = 25            # versions measured to extrapolate dict cost
WORKERS = 4
PROBES_PER_VERSION = 13


@pytest.fixture(scope="module")
def packed_blob(tables_world):
    """The full history packed once for every test in this file."""
    return pack_history(tables_world.store)


def _workload(tables_world, count: int = 500) -> list[str]:
    rng = random.Random(7)
    return rng.sample(tables_world.snapshot.hostnames, count)


def _best_per_host_us(psl: PublicSuffixList, hosts: list[str]) -> float:
    best = float("inf")
    for _ in range(TRIALS):
        begin = time.perf_counter()
        for host in hosts:
            psl.match(host)
        best = min(best, time.perf_counter() - begin)
    return best / len(hosts) * 1e6


def test_bench_packed_match_gate(tables_world):
    rules = list(tables_world.store.rules_at(-1))
    packed = PackedHistory.from_buffer(pack_rules(rules))
    packed_psl = PublicSuffixList.from_packed(packed.trie(0))
    dict_psl = tables_world.store.checkout(-1)
    hosts = _workload(tables_world)

    # Same answers first, then the stopwatch.
    for host in hosts[:100]:
        assert packed_psl.match(host) == dict_psl.match(host), host

    packed_us = _best_per_host_us(packed_psl, hosts)
    dict_us = _best_per_host_us(dict_psl, hosts)

    lines = [
        f"packed uncached match:     {packed_us:6.2f} µs/hostname "
        f"(best of {TRIALS} trials; gate: <= {GATE_MATCH_US} µs, {len(rules)} rules)",
        f"dict uncached match:       {dict_us:6.2f} µs/hostname",
        f"packed/dict ratio:         {packed_us / dict_us:6.2f}x",
    ]
    print()
    print("\n".join(lines))
    save_artifact("bench_perf_packed_match.txt", "\n".join(lines))
    assert packed_us <= GATE_MATCH_US


def test_bench_packed_resident_gate(tables_world, packed_blob):
    store = tables_world.store
    versions = len(store)
    packed_mb = len(packed_blob) / 1e6

    # Extrapolate the dict cost from an evenly spaced sample: measuring
    # all versions would itself need the gigabytes the gate forbids.
    step = max(1, versions // DICT_SAMPLE)
    sampled = list(range(0, versions, step))[:DICT_SAMPLE]
    measured = [dict_trie_bytes(store.checkout(i)._trie) for i in sampled]
    dict_total_mb = sum(measured) / len(measured) * versions / 1e6

    ratio = dict_total_mb / packed_mb
    lines = [
        f"packed blob ({versions} versions):  {packed_mb:8.2f} MB "
        f"({len(packed_blob) / versions / 1e3:.1f} kB/version amortized)",
        f"dict tries (extrapolated):     {dict_total_mb:8.2f} MB "
        f"({len(sampled)} versions sampled)",
        f"resident-set ratio:            {ratio:8.1f}x   "
        f"(gate: >= {GATE_RESIDENT_RATIO:.0f}x)",
    ]
    print()
    print("\n".join(lines))
    save_artifact("bench_perf_packed_resident.txt", "\n".join(lines))
    assert ratio >= GATE_RESIDENT_RATIO


def test_bench_packed_pack_gate(tables_world):
    store = tables_world.store
    versions = len(store)
    step = max(1, versions // PACK_SAMPLE)
    rule_sets = [store.rules_at(i) for i in range(0, versions, step)][:PACK_SAMPLE]

    begin = time.perf_counter()
    for rules in rule_sets:
        pack_rules(rules)
    full_ms = (time.perf_counter() - begin) / len(rule_sets) * 1e3

    begin = time.perf_counter()
    blob = pack_history(store)
    history_s = time.perf_counter() - begin
    incremental_ms = history_s / versions * 1e3

    lines = [
        f"pack_history ({versions} versions):  {history_s:6.2f} s "
        f"= {incremental_ms:6.2f} ms/version ({len(blob) / 1e6:.1f} MB)",
        f"pack_rules, full version:      {full_ms:6.2f} ms/version "
        f"({len(rule_sets)} versions sampled)",
        f"incremental/full ratio:        {incremental_ms / full_ms:6.3f}   "
        f"(gate: <= {GATE_PACK_RATIO:.3f})",
    ]
    print()
    print("\n".join(lines))
    save_artifact("bench_perf_packed_pack.txt", "\n".join(lines))
    assert incremental_ms <= GATE_PACK_RATIO * full_ms


_READER = """
import hashlib, json, sys, time
from repro.psl.packed import PackedHistory
from repro.psl.list import PublicSuffixList

path, probes = sys.argv[1], json.loads(sys.argv[2])
begin = time.perf_counter()
history = PackedHistory.load(path)
load_seconds = time.perf_counter() - begin
digest = hashlib.sha256()
answered = 0
for index in range(len(history)):
    psl = PublicSuffixList.from_packed(history.trie(index))
    for host in probes:
        digest.update(psl.match(host).site.encode())
        answered += 1
print(json.dumps({
    "digest": digest.hexdigest(),
    "answered": answered,
    "mmap_shared": history.mmap_shared,
    "load_seconds": load_seconds,
}))
"""


def test_bench_packed_multiprocess_fanout(tables_world, packed_blob, tmp_path):
    path = tmp_path / "history.pslpak"
    path.write_bytes(packed_blob)
    probes = _workload(tables_world, PROBES_PER_VERSION)

    begin = time.perf_counter()
    readers = [
        subprocess.Popen(
            [sys.executable, "-c", _READER, str(path), json.dumps(probes)],
            stdout=subprocess.PIPE,
            cwd="/root/repo",
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        for _ in range(WORKERS)
    ]
    results = []
    for reader in readers:
        out, _ = reader.communicate(timeout=560)
        assert reader.returncode == 0
        results.append(json.loads(out))
    wall = time.perf_counter() - begin

    digests = {result["digest"] for result in results}
    assert len(digests) == 1, "readers disagree"
    assert all(result["mmap_shared"] for result in results)
    versions = len(tables_world.store)
    assert results[0]["answered"] == versions * PROBES_PER_VERSION

    # The shared digest must also be the dict oracle's digest.
    oracle = hashlib.sha256()
    history = PackedHistory.from_buffer(packed_blob)
    for index in range(versions):
        psl = PublicSuffixList.from_packed(history.trie(index))
        for host in probes:
            oracle.update(psl.match(host).site.encode())
    for index in (0, versions // 2, versions - 1):
        dict_psl = tables_world.store.checkout(index)
        packed_psl = PublicSuffixList.from_packed(history.trie(index))
        for host in probes:
            assert packed_psl.match(host) == dict_psl.match(host), (index, host)
    assert oracle.hexdigest() == digests.pop()

    lines = [
        f"{WORKERS} forked readers over one mmap'd blob "
        f"({len(packed_blob) / 1e6:.2f} MB)",
        f"verified {versions * PROBES_PER_VERSION} probes across all "
        f"{versions} versions each, in {wall:.1f}s wall",
        "bit-identical to the dict SuffixTrie: yes (all workers agree)",
    ]
    print()
    print("\n".join(lines))
    save_artifact("bench_perf_packed_multiprocess.txt", "\n".join(lines))
