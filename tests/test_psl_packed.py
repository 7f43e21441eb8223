"""Tests for repro.psl.packed: the flat zero-copy trie encoding.

Four correctness arguments, in rising order of paranoia:

* **curated parity** — hand-built rule sets covering every algorithm
  edge (wildcard, exception, unlisted parent) answer identically
  through :class:`PackedTrie` and the dict :class:`SuffixTrie`;
* **differential over a churn history** — every version of a
  synthesized add/remove history answers bit-identically (prevailing,
  matches, has_rule_below, fingerprint) under both representations;
* **hypothesis** — arbitrary rule sets and hostnames, packed and
  replayed against the dict oracle;
* **corruption safety** — truncations, bit flips, and bad headers must
  raise :class:`PackedFormatError` at load time, never answer wrong;
* **cross-process mmap** — two subprocesses map one packed artifact
  file and serve identical answers off shared pages.
"""

from __future__ import annotations

import datetime
import json
import random
import string
import subprocess
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.history.store import VersionStore
from repro.psl import packed as packed_module
from repro.psl.list import PublicSuffixList
from repro.psl.packed import (
    _CC_COUNT,
    _CC_EXCEPTION,
    _CC_RULE,
    _CC_WILDCARD,
    MAGIC,
    NONE_U32,
    PackedBufferInUseError,
    PackedFormatError,
    PackedHistory,
    dict_trie_bytes,
    estimated_dict_trie_bytes,
    pack_history,
    pack_rules,
)
from repro.psl.rules import Rule
from repro.psl.trie import WILDCARD_LABEL, SuffixTrie

CURATED = [
    "com", "net", "org", "uk", "io", "jp",
    "co.uk", "github.io", "*.kawasaki.jp", "!city.kawasaki.jp",
    "cdn.example.net", "s3.dualstack.example.org",
]

PROBES = [
    "www.example.co.uk", "example.co.uk", "co.uk", "uk",
    "a.b.city.kawasaki.jp", "city.kawasaki.jp", "x.other.kawasaki.jp",
    "other.kawasaki.jp", "kawasaki.jp",
    "alice.github.io", "github.io",
    "example.net", "cdn.example.net", "deep.cdn.example.net",
    "example.org", "dualstack.example.org", "s3.dualstack.example.org",
    "unknown.zz", "zz", "single",
]


def reversed_labels(hostname: str) -> tuple[str, ...]:
    return tuple(reversed(hostname.split(".")))


def curated_rules() -> list[Rule]:
    return [Rule.parse(text) for text in CURATED]


def make_churn_store(*, versions: int = 60, seed: int = 7) -> VersionStore:
    """A history with real add/remove churn across every rule kind."""
    rng = random.Random(seed)
    pool_labels = ["com", "net", "org", "uk", "jp", "io", "zz", "app", "dev"]
    second = ["co", "ac", "gov", "pages", "cdn", "s3", "kawasaki", "web"]
    third = ["dual", "east", "west", "edge", "static"]

    def random_rule() -> Rule:
        depth = rng.choice((1, 2, 2, 2, 3, 3))
        labels = [rng.choice(pool_labels)]
        if depth >= 2:
            labels.insert(0, rng.choice(second))
        if depth >= 3:
            labels.insert(0, rng.choice(third))
        name = ".".join(labels)
        kind = rng.random()
        if kind < 0.15:
            return Rule.parse(f"*.{name}")
        if kind < 0.25 and depth >= 2:
            return Rule.parse(f"!{name}")
        return Rule.parse(name)

    store = VersionStore()
    live: set[Rule] = set()
    date = datetime.date(2016, 1, 1)
    for index in range(versions):
        added: set[Rule] = set()
        removed: set[Rule] = set()
        if index == 0:
            while len(added) < 8:
                added.add(random_rule())
        else:
            for _ in range(rng.randint(1, 4)):
                candidate = random_rule()
                if candidate not in live:
                    added.add(candidate)
            if live and rng.random() < 0.7:
                for victim in rng.sample(sorted(live, key=lambda r: r.text),
                                         k=min(rng.randint(1, 2), len(live))):
                    removed.add(victim)
        if not added and not removed:
            added.add(random_rule())
        store.commit_rules(date, added=sorted(added, key=lambda r: r.text),
                           removed=sorted(removed, key=lambda r: r.text))
        live |= added
        live -= removed
        date += datetime.timedelta(days=11)
    return store


def probe_hosts_for(rules: list[Rule], rng: random.Random) -> list[str]:
    """Hostnames that exercise these rules: exact, below, and beside."""
    hosts = ["unknown.zz", "zz", "plainhost"]
    for rule in rng.sample(rules, k=min(12, len(rules))):
        name = ".".join(reversed(rule.labels)).replace("*", "star")
        hosts.append(name)
        hosts.append(f"sub.{name}")
        hosts.append(f"deep.sub.{name}")
    return hosts


class TestCuratedParity:
    def test_prevailing_matches_and_below(self):
        rules = curated_rules()
        packed = PackedHistory.from_buffer(pack_rules(rules)).trie(0)
        oracle = SuffixTrie(rules)
        for host in PROBES:
            labels = reversed_labels(host)
            assert packed.prevailing(labels) == oracle.prevailing(labels), host
            assert packed.matches(labels) == oracle.matches(labels), host
            assert packed.has_rule_below(labels) == oracle.has_rule_below(labels), host

    def test_full_psl_surface_parity(self):
        rules = curated_rules()
        dict_psl = PublicSuffixList(rules)
        packed_psl = PublicSuffixList.from_packed(
            PackedHistory.from_buffer(pack_rules(rules)).trie(0)
        )
        for host in PROBES:
            assert dict_psl.match(host) == packed_psl.match(host), host
            assert dict_psl.any_suffix_below(host) == packed_psl.any_suffix_below(host)
            assert dict_psl.extract(host) == packed_psl.extract(host)

    def test_fingerprint_equals_dict_construction(self):
        rules = curated_rules()
        packed = PackedHistory.from_buffer(pack_rules(rules))
        assert packed.fingerprint(0) == PublicSuffixList(rules).fingerprint

    def test_rules_materialize_lazily_and_sorted(self):
        rules = curated_rules()
        packed_psl = PublicSuffixList.from_packed(
            PackedHistory.from_buffer(pack_rules(rules)).trie(0)
        )
        assert packed_psl.rules == PublicSuffixList(rules).rules
        assert len(packed_psl) == len(rules)
        assert "co.uk" in packed_psl
        assert "nope.example" not in packed_psl

    def test_empty_rule_set_packs(self):
        packed = PackedHistory.from_buffer(pack_rules([])).trie(0)
        assert packed.prevailing(("com",)) is None
        assert packed.matches(("a", "b")) == []
        assert not packed.has_rule_below(("com",))
        assert len(packed) == 0

    def test_unlisted_parent_cookie_jar_case(self):
        # `cdn.example.net` is a rule while `example.net` is not: the
        # unlisted-parent anomaly must survive the packed encoding.
        packed_psl = PublicSuffixList.from_packed(
            PackedHistory.from_buffer(pack_rules(curated_rules())).trie(0)
        )
        assert packed_psl.any_suffix_below("example.net") is True
        assert packed_psl.any_suffix_below("cdn.example.net") is False
        assert packed_psl.any_suffix_below("example.org") is True


class TestHistoryDifferential:
    def test_every_version_bit_identical(self):
        store = make_churn_store()
        packed = PackedHistory.from_buffer(pack_history(store))
        assert len(packed) == len(store)
        rng = random.Random(1)
        for index in range(len(store)):
            rules = sorted(store.rules_at(index), key=lambda r: r.text)
            oracle = PublicSuffixList(rules)
            trie = packed.trie(index)
            assert trie.fingerprint == oracle.fingerprint, index
            assert len(trie) == len(oracle)
            packed_psl = PublicSuffixList.from_packed(trie)
            for host in probe_hosts_for(rules, rng):
                assert packed_psl.match(host) == oracle.match(host), (index, host)
                assert packed_psl.any_suffix_below(host) == oracle.any_suffix_below(
                    host
                ), (index, host)
            assert set(trie.iter_rules()) == set(rules), index

    def test_subset_indexes_pack(self):
        store = make_churn_store(versions=20)
        packed = PackedHistory.from_buffer(pack_history(store, indexes=[0, 7, -1]))
        assert len(packed) == 3
        for position, index in enumerate((0, 7, len(store) - 1)):
            oracle = PublicSuffixList(store.rules_at(index))
            assert packed.fingerprint(position) == oracle.fingerprint

    def test_accounting_sections_sum_to_buffer(self):
        store = make_churn_store(versions=20)
        packed = PackedHistory.from_buffer(pack_history(store))
        per_version = sum(packed.version_bytes(i) for i in range(len(packed)))
        assert packed.shared_bytes + per_version == packed.nbytes
        assert packed.shared_bytes > 0
        assert estimated_dict_trie_bytes(10, 5) > 0
        assert dict_trie_bytes(SuffixTrie(curated_rules())) > 0


# -- hypothesis ---------------------------------------------------------------

label = st.text(
    alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=6
).filter(lambda s: not s.startswith("-") and not s.endswith("-"))


@st.composite
def rule_text(draw):
    labels = draw(st.lists(label, min_size=1, max_size=3))
    kind = draw(st.sampled_from(["normal", "normal", "normal", "wildcard", "exception"]))
    name = ".".join(labels)
    if kind == "wildcard":
        return f"*.{name}"
    if kind == "exception" and len(labels) >= 2:
        return f"!{name}"
    return name


rule_sets = st.lists(rule_text(), min_size=0, max_size=16).map(
    lambda texts: [Rule.parse(t) for t in texts]
)
hostname_labels = st.lists(label, min_size=1, max_size=5).map(tuple)


class TestPackedProperties:
    @settings(max_examples=60, deadline=None)
    @given(rule_sets, hostname_labels)
    def test_packed_agrees_with_dict_trie(self, rules, labels):
        packed = PackedHistory.from_buffer(pack_rules(rules)).trie(0)
        oracle = SuffixTrie(rules)
        reversed_host = tuple(reversed(labels))
        assert packed.prevailing(reversed_host) == oracle.prevailing(reversed_host)
        assert packed.matches(reversed_host) == oracle.matches(reversed_host)
        assert packed.has_rule_below(reversed_host) == oracle.has_rule_below(
            reversed_host
        )

    @settings(max_examples=40, deadline=None)
    @given(rule_sets)
    def test_pack_preserves_rule_set_and_fingerprint(self, rules):
        packed = PackedHistory.from_buffer(pack_rules(rules))
        assert set(packed.trie(0).iter_rules()) == set(rules)
        assert packed.fingerprint(0) == PublicSuffixList(rules).fingerprint


# -- layout-independent differential ------------------------------------------


def packed_shape(trie) -> dict:
    """One packed version, canonically: path -> (flag word, rule, exception).

    Walks from the root, so it holds for any node order.  Along the way
    it checks what the reader relies on: every child block is sorted by
    strictly rising label id, every node is reached exactly once, and
    the rule records are dense.
    """
    names = trie._history._label_strings()
    labels, child_start, child_count = trie._labels, trie._child_start, trie._child_count
    shape: dict = {}
    rule_ids: list[int] = []
    stack = [(0, ())]
    while stack:
        node, path = stack.pop()
        flags = child_count[node]
        rule = exception = None
        if trie._rule_ids[node] != NONE_U32:
            rule_ids.append(trie._rule_ids[node])
            rule = trie._rule(trie._rule_ids[node])
        if trie._exc_ids[node] != NONE_U32:
            rule_ids.append(trie._exc_ids[node])
            exception = trie._rule(trie._exc_ids[node])
        shape[path] = (flags, rule, exception)
        start = child_start[node]
        block = range(start, start + (flags & _CC_COUNT))
        ids = [labels[child] for child in block]
        assert ids == sorted(set(ids)), path
        stack.extend((child, path + (names[labels[child]],)) for child in block)
    assert len(shape) == trie.node_count
    assert sorted(rule_ids) == list(range(len(trie)))
    return shape


def dict_shape(trie: SuffixTrie) -> dict:
    """The same canonical dump for the dict trie (the oracle)."""
    shape: dict = {}
    stack = [((), trie._root)]
    while stack:
        path, node = stack.pop()
        flags = len(node.children)
        if WILDCARD_LABEL in node.children:
            flags |= _CC_WILDCARD
        if node.rule is not None:
            flags |= _CC_RULE
        if node.exception_rule is not None:
            flags |= _CC_EXCEPTION
        shape[path] = (flags, node.rule, node.exception_rule)
        stack.extend((path + (text,), child) for text, child in node.children.items())
    return shape


def assert_matches_oracle(store: VersionStore, packed: PackedHistory, indexes) -> None:
    assert len(packed) == len(indexes)
    for position, index in enumerate(indexes):
        rules = store.rules_at(index)
        trie = packed.trie(position)
        assert packed_shape(trie) == dict_shape(SuffixTrie(rules)), index
        assert trie.fingerprint == PublicSuffixList(rules).fingerprint, index
        assert len(trie) == len(rules), index


#: Enough TLDs that groups hold several TLDs each.
EDGE_TLDS = [f"t{index:03d}" for index in range(300)]


def make_edge_store() -> VersionStore:
    """A hand-built history hitting each hazard of group reuse.

    Versions: 0 initial; 1 prunes TLD ``io`` and re-adds it as a new
    node in the same delta; 2 prunes it outright; 3 re-adds it; 4 adds
    a rule under every synthetic TLD (one delta across every group); 5
    adds a wildcard and an exception directly under a TLD; 6 swaps
    TLD-level rules; 7 is empty; 8 refills; 9 touches one group.
    """
    store = VersionStore()
    live: set[Rule] = set()
    date = datetime.date(2020, 1, 1)

    def commit(added=(), removed=()):
        nonlocal date
        added = {Rule.parse(text) for text in added}
        removed = {Rule.parse(text) for text in removed}
        store.commit_rules(date, added=added, removed=removed)
        live.difference_update(removed)
        live.update(added)
        date += datetime.timedelta(days=1)

    commit(added=[
        "com", "net", "uk", "co.uk", "io", "github.io", "*", "*.ck", "!www.ck",
        "jp", "*.kawasaki.jp", "!city.kawasaki.jp", *EDGE_TLDS,
    ])
    commit(added=["pages.io"], removed=["io", "github.io"])
    commit(removed=["pages.io"])
    commit(added=["io", "github.io"])
    commit(added=[f"x.{tld}" for tld in EDGE_TLDS])
    commit(added=["*.t150", "!www.t150"])
    commit(added=["org"], removed=["net"])
    commit(removed=[rule.text for rule in live])
    commit(added=["com", "co.uk", "*", "*.ck", "!www.ck", "t007", "x.t299"])
    commit(added=["y.t007"])
    return store


class TestLayoutIndependentDifferential:
    def test_churn_store_every_version_equals_dict_trie(self):
        store = make_churn_store()
        packed = PackedHistory.from_buffer(pack_history(store))
        assert_matches_oracle(store, packed, range(len(store)))

    def test_edge_store_every_version_equals_dict_trie(self):
        store = make_edge_store()
        assert len(store.rules_at(7)) == 0  # the empty version
        packed = PackedHistory.from_buffer(pack_history(store))
        assert_matches_oracle(store, packed, range(len(store)))
        assert len(packed.trie(7)) == 0 and packed.trie(7).node_count == 1

    @pytest.mark.parametrize(
        "make_store, indexes",
        [
            (make_edge_store, [0, 2, 5, 8]),
            (make_edge_store, [1, 3, 4, 9]),
            (make_churn_store, list(range(0, 60, 7))),
        ],
    )
    def test_subset_equals_full_history_at_those_versions(self, make_store, indexes):
        store = make_store()
        full = PackedHistory.from_buffer(pack_history(store))
        subset = PackedHistory.from_buffer(pack_history(store, indexes=indexes))
        assert_matches_oracle(store, subset, indexes)
        for position, index in enumerate(indexes):
            assert packed_shape(subset.trie(position)) == packed_shape(full.trie(index))
            assert subset.fingerprint(position) == full.fingerprint(index)

    def test_pack_rules_equals_dict_trie(self):
        rules = make_edge_store().rules_at(5)
        packed = PackedHistory.from_buffer(pack_rules(rules)).trie(0)
        assert packed_shape(packed) == dict_shape(SuffixTrie(rules))


class TestRuleKeys:
    """Rule records as set keys: the classify step plan diffs versions
    without building a :class:`Rule`, and must equal the Rule diff."""

    @pytest.mark.parametrize("make_store", [make_churn_store, make_edge_store])
    def test_step_plan_equals_the_rule_based_diff(self, make_store, tmp_path):
        from repro.classify.partials import _rule_prefix, _version_plan

        store = make_store()
        path = tmp_path / "history.bin"
        path.write_bytes(pack_history(store))
        history = PackedHistory.load(str(path))
        indexes = tuple(range(len(history)))
        expected = [None]
        for before, after in zip(indexes, indexes[1:]):
            changed = store.rules_at(before) ^ store.rules_at(after)
            expected.append(frozenset(_rule_prefix(rule.labels) for rule in changed))
        assert _version_plan(str(path), history, indexes) == expected
        assert any(expected[1:])

    def test_key_labels_round_trip_the_rules(self):
        store = make_edge_store()
        history = PackedHistory.from_buffer(pack_history(store))
        trie = history.trie(-1)
        labels = {trie.key_labels(key) for key in trie.rule_keys()}
        assert labels == {rule.labels for rule in store.rules_at(-1)}
        assert len(trie.rule_keys()) == len(store.rules_at(-1))


class TestIndexValidation:
    def test_out_of_range_indexes_raise(self):
        store = make_churn_store(versions=5)
        for bad in ([5], [0, 5], [-6], [99]):
            with pytest.raises(IndexError, match="out of range"):
                pack_history(store, indexes=bad)

    def test_in_range_negative_and_duplicate_indexes(self):
        store = make_churn_store(versions=5)
        packed = PackedHistory.from_buffer(pack_history(store, indexes=[-1, 4, -5, 0]))
        assert len(packed) == 2
        assert packed.fingerprint(0) == PublicSuffixList(store.rules_at(0)).fingerprint
        assert packed.fingerprint(1) == PublicSuffixList(store.rules_at(4)).fingerprint

    def test_empty_store(self):
        store = VersionStore()
        with pytest.raises(IndexError):
            pack_history(store, indexes=[0])
        assert len(PackedHistory.from_buffer(pack_history(store))) == 0
        assert len(PackedHistory.from_buffer(pack_history(store, indexes=[]))) == 0


def make_wide_store(*, versions: int = 80, seed: int = 11) -> VersionStore:
    """~1,800 rules over 300 TLDs with small deltas: the buffer dominates."""
    rng = random.Random(seed)
    store = VersionStore()
    date = datetime.date(2020, 1, 1)
    live: set[Rule] = set()
    for tld in EDGE_TLDS:
        live.update(
            Rule.parse(text)
            for text in (tld, f"a.{tld}", f"b.{tld}", f"*.c.{tld}", f"!d.c.{tld}")
        )
    store.commit_rules(date, added=live)
    for index in range(1, versions):
        tld = rng.choice(EDGE_TLDS)
        fresh = Rule.parse(f"v{index}.{tld}")
        victim = rng.choice(sorted(live, key=lambda rule: rule.text))
        date += datetime.timedelta(days=1)
        store.commit_rules(date, added=[fresh], removed=[victim])
        live.add(fresh)
        live.discard(victim)
    return store


def test_pack_history_peak_memory_is_bounded_by_the_buffer():
    store = make_wide_store()
    tracemalloc.start()
    try:
        blob = pack_history(store)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(blob), (peak, len(blob))


# -- hypothesis: random delta sequences ----------------------------------------


@st.composite
def rule_histories(draw):
    """A pool of rules and a sequence of distinct live subsets of it."""
    pool = sorted({Rule.parse(text) for text in draw(
        st.lists(rule_text(), min_size=1, max_size=20)
    )}, key=lambda rule: rule.text)
    subsets = draw(st.lists(
        st.sets(st.sampled_from(pool)), min_size=1, max_size=8
    ))
    store = VersionStore()
    live: frozenset[Rule] = frozenset()
    date = datetime.date(2020, 1, 1)
    for subset in subsets:
        if subset == live:
            continue
        store.commit_rules(date, added=subset - live, removed=live - subset)
        live = frozenset(subset)
        date += datetime.timedelta(days=1)
    indexes = draw(st.lists(st.integers(0, max(len(store) - 1, 0)), max_size=4))
    return store, indexes if len(store) else []


class TestReplayProperties:
    @settings(max_examples=50, deadline=None)
    @given(rule_histories())
    def test_every_version_and_every_subset_equal_the_dict_trie(self, history):
        store, indexes = history
        # Small pools hold few TLDs; one TLD per group exercises group reuse.
        for group_size in (packed_module._MIN_GROUP_TLDS, 1):
            with mock.patch.object(packed_module, "_MIN_GROUP_TLDS", group_size):
                packed = PackedHistory.from_buffer(pack_history(store))
                subset = PackedHistory.from_buffer(pack_history(store, indexes=indexes))
            assert_matches_oracle(store, packed, range(len(store)))
            assert_matches_oracle(store, subset, sorted(set(indexes)))


# -- corruption safety --------------------------------------------------------


class TestCorruptionSafety:
    @pytest.fixture(scope="class")
    def blob(self) -> bytes:
        return pack_history(make_churn_store(versions=12))

    def test_truncation_always_fails_loading(self, blob):
        for cut in (0, 1, 15, 63, 64, len(blob) // 2, len(blob) - 1):
            with pytest.raises(PackedFormatError):
                PackedHistory.from_buffer(blob[:cut])

    def test_trailing_garbage_fails_loading(self, blob):
        with pytest.raises(PackedFormatError, match="length mismatch"):
            PackedHistory.from_buffer(blob + b"\0\0\0\0")

    def test_bit_flips_always_fail_loading(self, blob):
        rng = random.Random(3)
        positions = [16, 20, len(blob) // 3, len(blob) // 2, len(blob) - 2]
        positions += [rng.randrange(16, len(blob)) for _ in range(10)]
        for position in positions:
            flipped = bytearray(blob)
            flipped[position] ^= 1 << rng.randrange(8)
            with pytest.raises(PackedFormatError, match="checksum|length|magic"):
                PackedHistory.from_buffer(bytes(flipped))

    def test_bad_magic_is_a_clear_error(self, blob):
        mangled = b"NOTPSL!\0" + blob[8:]
        with pytest.raises(PackedFormatError, match="magic"):
            PackedHistory.from_buffer(mangled)
        assert blob[:8] == MAGIC

    def test_unsupported_format_version(self, blob):
        import struct
        import zlib

        mangled = bytearray(blob)
        struct.pack_into("<I", mangled, 8, 99)
        # Re-stamp the crc so the *version* check is what fires.
        struct.pack_into("<I", mangled, 12, zlib.crc32(memoryview(mangled)[16:]))
        with pytest.raises(PackedFormatError, match="version"):
            PackedHistory.from_buffer(bytes(mangled))

    def test_corrupt_file_on_disk(self, blob, tmp_path):
        path = tmp_path / "corrupt.bin"
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(PackedFormatError):
            PackedHistory.load(str(path))
        path.write_bytes(b"")
        with pytest.raises(PackedFormatError, match="empty"):
            PackedHistory.load(str(path))


# -- mmap lifecycle -----------------------------------------------------------


class TestMmapLifecycle:
    def test_close_refused_while_views_live(self, tmp_path):
        path = tmp_path / "history.bin"
        path.write_bytes(pack_history(make_churn_store(versions=6)))
        history = PackedHistory.load(str(path))
        assert history.mmap_shared
        trie = history.trie(2)
        with pytest.raises(PackedBufferInUseError):
            history.close()
        # The refused close left the history fully usable.
        assert history.trie(0).prevailing(("com",)) is not None or True
        before = trie.prevailing(("uk", "co"))
        del trie
        import gc

        gc.collect()
        history.close()
        history.close()  # idempotent
        with pytest.raises(PackedFormatError, match="closed"):
            history.trie(0)
        del before

    def test_context_manager(self, tmp_path):
        path = tmp_path / "history.bin"
        path.write_bytes(pack_rules(curated_rules()))
        with PackedHistory.load(str(path), use_mmap=False) as history:
            assert not history.mmap_shared
            assert history.trie(0).prevailing(("uk", "co")) is not None


# -- cross-process sharing ----------------------------------------------------

_CHILD = r"""
import json, sys, time
from repro.psl.list import PublicSuffixList
from repro.psl.packed import PackedHistory

path, probes_json = sys.argv[1], sys.argv[2]
probes = json.loads(probes_json)
started = time.perf_counter()
history = PackedHistory.load(path)           # mmap: pages shared via the OS
load_seconds = time.perf_counter() - started
answers = {}
for index in range(len(history)):
    psl = PublicSuffixList.from_packed(history.trie(index))
    answers[str(index)] = {host: psl.match(host).site for host in probes}
print(json.dumps({
    "mmap_shared": history.mmap_shared,
    "load_seconds": load_seconds,
    "nbytes": history.nbytes,
    "answers": answers,
}))
"""


class TestCrossProcess:
    def test_two_processes_share_one_artifact(self, tmp_path):
        store = make_churn_store(versions=10)
        blob = pack_history(store)
        path = tmp_path / "packed.bin"
        path.write_bytes(blob)
        probes = PROBES[:8]

        outputs = []
        for _ in range(2):
            result = subprocess.run(
                [sys.executable, "-c", _CHILD, str(path), json.dumps(probes)],
                capture_output=True,
                text=True,
                timeout=120,
                env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
                cwd="/root/repo",
            )
            assert result.returncode == 0, result.stderr
            outputs.append(json.loads(result.stdout))

        first, second = outputs
        # Identical answers across processes, off one on-disk copy.
        assert first["answers"] == second["answers"]
        assert first["mmap_shared"] and second["mmap_shared"]
        assert first["nbytes"] == len(blob)
        # Near-zero-copy: mapping the whole history is milliseconds,
        # not a per-version trie build.
        assert first["load_seconds"] < 1.0 and second["load_seconds"] < 1.0
        # And the answers are *right*: spot-check against dict oracles.
        for index in (0, len(store) - 1):
            oracle = PublicSuffixList(store.rules_at(index))
            for host in probes:
                assert first["answers"][str(index)][host] == oracle.match(host).site
