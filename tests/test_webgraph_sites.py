"""Tests for site grouping, one-shot and incremental."""

from collections import Counter

from repro.psl.diff import RuleDelta
from repro.psl.list import PublicSuffixList
from repro.psl.rules import Rule
from repro.psl.trie import SuffixTrie
from repro.webgraph.sites import group_sites, site_for, site_metrics

HOSTS = [
    "a.github.io",
    "b.github.io",
    "github.io",
    "www.example.com",
    "cdn.example.com",
    "example.com",
    "x.co.uk",
    "www.x.co.uk",
    "unknown.zz",
]


def _rules(*texts):
    return [Rule.parse(text) for text in texts]


class TestSiteFor:
    def test_registrable(self):
        trie = SuffixTrie(_rules("com"))
        assert site_for(trie, ("www", "example", "com")) == "example.com"

    def test_suffix_itself(self):
        trie = SuffixTrie(_rules("github.io"))
        assert site_for(trie, ("github", "io")) == "github.io"

    def test_default_rule(self):
        trie = SuffixTrie([])
        assert site_for(trie, ("a", "b", "zz")) == "b.zz"

    def test_exception(self):
        trie = SuffixTrie(_rules("*.ck", "!www.ck"))
        assert site_for(trie, ("x", "www", "ck")) == "www.ck"


class TestGroupSites:
    def test_matches_psl_facade(self, small_psl):
        assignment = group_sites(small_psl, HOSTS)
        for host in HOSTS:
            assert assignment[host] == small_psl.site_of(host)

    def test_metrics(self, small_psl):
        metrics = site_metrics(group_sites(small_psl, HOSTS))
        assert metrics.hostname_count == len(HOSTS)
        # a.github.io, b.github.io, github.io, example.com, x.co.uk, unknown.zz
        assert metrics.site_count == 6
        assert metrics.mean_site_size == len(HOSTS) / 6

    def test_empty_metrics(self):
        metrics = site_metrics({})
        assert metrics.site_count == 0 and metrics.mean_site_size == 0.0


class TestIncrementalGrouper:
    """Incremental regrouping across deltas — the version-sweep
    kernel's step (:func:`repro.classify.partials.classify_chunk` over
    a rule chain) — against one-shot grouping.  Site sizes are read
    back from the kernel's per-version spill."""

    def test_initial_matches_one_shot(self, small_psl, kernel_replay):
        _, (initial,) = kernel_replay(small_psl.rules, (), HOSTS)
        assert initial == Counter(group_sites(small_psl, HOSTS).values())

    def test_apply_add_rule(self, kernel_replay):
        delta = RuleDelta(frozenset(_rules("github.io")), frozenset())
        _, (before, after) = kernel_replay(_rules("com", "io"), [delta], HOSTS)
        assert before["github.io"] == 3
        assert after["a.github.io"] == after["b.github.io"] == after["github.io"] == 1

    def test_apply_remove_rule(self, kernel_replay):
        delta = RuleDelta(frozenset(), frozenset(_rules("github.io")))
        _, (before, after) = kernel_replay(_rules("com", "io", "github.io"), [delta], HOSTS)
        assert before["a.github.io"] == before["b.github.io"] == 1
        assert "a.github.io" not in after and after["github.io"] == 3

    def test_site_count_maintained(self, kernel_replay):
        delta = RuleDelta(frozenset(_rules("github.io")), frozenset())
        _, (before, after) = kernel_replay(_rules("com", "io"), [delta], HOSTS)
        # The github.io site (3 hosts) splits into 3 one-host sites.
        assert len(after) == len(before) + 2

    def test_unrelated_delta_changes_nothing(self, kernel_replay):
        delta = RuleDelta(frozenset(_rules("nothing.example")), frozenset())
        partial, (before, after) = kernel_replay(_rules("com", "io"), [delta], HOSTS)
        assert after == before
        assert partial.misclassified == (0, 0)

    def test_wildcard_delta(self, kernel_replay):
        hosts = ["a.b.ck", "b.ck", "c.ck"]
        delta = RuleDelta(frozenset(_rules("*.ck")), frozenset())
        _, (before, after) = kernel_replay([], [delta], hosts)
        assert before == {"b.ck": 2, "c.ck": 1}
        assert after == {"a.b.ck": 1, "b.ck": 1, "c.ck": 1}

    def test_equivalence_after_many_deltas(self, kernel_replay):
        deltas = [
            RuleDelta(frozenset(_rules("com", "io")), frozenset()),
            RuleDelta(frozenset(_rules("github.io")), frozenset()),
            RuleDelta(frozenset(_rules("co.uk", "uk")), frozenset()),
            RuleDelta(frozenset(), frozenset(_rules("io"))),
        ]
        _, counters = kernel_replay([], deltas, HOSTS)
        rules = set()
        for delta, counter in zip(deltas, counters[1:]):
            rules -= delta.removed
            rules |= delta.added
            assert counter == Counter(group_sites(PublicSuffixList(rules), HOSTS).values())

    def test_metrics_object(self, kernel_replay):
        partial, (initial,) = kernel_replay(_rules("com"), (), ["a.com", "b.com"])
        assert partial.hostnames == 2 and len(initial) == 2
