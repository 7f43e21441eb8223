"""Tests for third-party request classification."""

from repro.psl.diff import RuleDelta
from repro.psl.list import PublicSuffixList
from repro.psl.rules import Rule
from repro.webgraph.archive import Snapshot
from repro.webgraph.records import Page
from repro.webgraph.sites import group_sites
from repro.webgraph.thirdparty import count_third_party


def _rules(*texts):
    return [Rule.parse(text) for text in texts]


def _snapshot():
    snap = Snapshot()
    snap.add_page(Page("www.shop.com", ("cdn.shop.com", "ads.tracker.com")))
    snap.add_page(Page("a.pages.io", ("b.pages.io", "a.pages.io")))
    return snap


class TestOneShot:
    def test_counts(self, small_psl):
        snap = _snapshot()
        assignment = group_sites(small_psl, snap.hostnames)
        # cdn.shop.com first-party, ads.tracker.com third-party;
        # pages.io unknown suffix -> a/b.pages.io same site (pages.io).
        assert count_third_party(assignment, snap) == 1

    def test_self_request_is_first_party(self, small_psl):
        snap = Snapshot()
        snap.add_page(Page("a.com", ("a.com",)))
        assignment = group_sites(small_psl, snap.hostnames)
        assert count_third_party(assignment, snap) == 0


class TestIncremental:
    """The third-party count the version-sweep kernel carries across
    deltas, re-checking only requests whose endpoints changed site."""

    def _replay(self, kernel_replay, rules, deltas):
        snap = _snapshot()
        partial, _ = kernel_replay(rules, deltas, snap.hostnames, snap.iter_request_pairs())
        return snap, partial

    def test_initial_count_matches_one_shot(self, small_psl, kernel_replay):
        snap, partial = self._replay(kernel_replay, small_psl.rules, ())
        assignment = group_sites(small_psl, snap.hostnames)
        assert partial.third_party == (count_third_party(assignment, snap),)
        assert partial.total_pairs == snap.request_count

    def test_update_after_rule_addition(self, kernel_replay):
        delta = RuleDelta(frozenset(_rules("pages.io")), frozenset())
        _, partial = self._replay(kernel_replay, _rules("com", "io"), [delta])
        before, after = partial.third_party  # a/b.pages.io same site -> 1 (ads)
        # The cross-tenant request b.pages.io is now third-party too.
        assert after == before + 1

    def test_update_is_consistent_with_recount(self, kernel_replay):
        deltas = [
            RuleDelta(frozenset(_rules("io")), frozenset()),
            RuleDelta(frozenset(_rules("pages.io")), frozenset()),
            RuleDelta(frozenset(), frozenset(_rules("pages.io"))),
        ]
        snap, partial = self._replay(kernel_replay, _rules("com"), deltas)
        rules = set(_rules("com"))
        for delta, count in zip(deltas, partial.third_party[1:]):
            rules = (rules - delta.removed) | delta.added
            assignment = group_sites(PublicSuffixList(rules), snap.hostnames)
            assert count == count_third_party(assignment, snap)

    def test_update_with_no_changes(self, small_psl, kernel_replay):
        _, partial = self._replay(
            kernel_replay, small_psl.rules, [RuleDelta(frozenset(), frozenset())]
        )
        assert partial.third_party[1] == partial.third_party[0]
