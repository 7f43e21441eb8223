"""Property-based tests (hypothesis) on the core invariants.

These are the load-bearing correctness arguments:

* punycode and the ``.dat`` format round-trip;
* the trie agrees with the brute-force oracle on arbitrary rule sets
  and hostnames;
* the incremental site grouper agrees with one-shot grouping after
  arbitrary delta sequences;
* structural invariants of the lookup algorithm itself (the suffix is
  a suffix; the registrable domain is suffix plus one label; site
  assignment is idempotent under normalization).
"""

import string
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.psl import punycode
from repro.psl.diff import RuleDelta, diff_rules
from repro.psl.list import PublicSuffixList
from repro.psl.parser import parse_psl
from repro.psl.rules import Rule, Section
from repro.psl.serialize import serialize_psl
from repro.psl.trie import SuffixTrie, naive_prevailing
from repro.webgraph.sites import group_sites

# -- strategies ---------------------------------------------------------------

label = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=8).filter(
    lambda s: not s.startswith("-") and not s.endswith("-")
)


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


@st.composite
def hostname_labels(draw):
    return tuple(draw(st.lists(label, min_size=1, max_size=5)))


rule_sets = st.lists(rule_text(), min_size=0, max_size=20).map(
    lambda texts: [Rule.parse(t) for t in texts]
)


# -- punycode ------------------------------------------------------------------

unicode_label = st.text(
    alphabet=st.characters(min_codepoint=0x61, max_codepoint=0x24F, exclude_characters="."),
    min_size=1,
    max_size=12,
)


class TestPunycodeProperties:
    @given(unicode_label)
    def test_roundtrip(self, text):
        assert punycode.decode(punycode.encode(text)) == text

    @given(unicode_label)
    def test_matches_stdlib(self, text):
        assert punycode.encode(text) == text.encode("punycode").decode("ascii")

    @given(unicode_label)
    def test_output_is_ascii(self, text):
        assert punycode.encode(text).isascii()


# -- parse/serialize -----------------------------------------------------------


class TestFormatProperties:
    @given(rule_sets)
    def test_serialize_parse_roundtrip(self, rules):
        psl = PublicSuffixList(rules)
        assert parse_psl(serialize_psl(psl)) == psl

    @given(rule_sets, rule_sets)
    def test_diff_apply_reaches_target(self, old_rules, new_rules):
        old = PublicSuffixList(old_rules)
        new = PublicSuffixList(new_rules)
        assert diff_rules(old, new).apply(old) == new

    @given(rule_sets)
    def test_construction_is_order_insensitive(self, rules):
        assert PublicSuffixList(rules) == PublicSuffixList(list(reversed(rules)))


class TestParserFuzz:
    @given(st.text(max_size=400))
    def test_lenient_parser_never_crashes(self, text):
        parse_psl(text, strict=False)

    @given(st.text(max_size=400))
    def test_strict_parser_raises_or_parses(self, text):
        from repro.psl.errors import PslParseError

        try:
            psl = parse_psl(text, strict=True)
        except PslParseError:
            return
        # Whatever parsed must survive a serialize/parse round trip.
        assert parse_psl(serialize_psl(psl)) == psl

    @given(st.binary(max_size=200))
    def test_lenient_parser_handles_decoded_binary(self, blob):
        parse_psl(blob.decode("utf-8", errors="replace"), strict=False)


# -- trie vs. oracle -------------------------------------------------------------


class TestTrieProperties:
    @given(rule_sets, hostname_labels())
    def test_trie_matches_naive_oracle(self, rules, labels):
        trie = SuffixTrie(rules)
        reversed_labels = tuple(reversed(labels))
        assert trie.prevailing(reversed_labels) == naive_prevailing(rules, reversed_labels)

    @given(rule_sets)
    def test_insert_remove_roundtrip(self, rules):
        trie = SuffixTrie(rules)
        unique = set(rules)
        for rule in unique:
            assert trie.remove(rule)
        assert len(trie) == 0


# -- the lookup algorithm ---------------------------------------------------------


class TestLookupProperties:
    @given(rule_sets, hostname_labels())
    def test_suffix_is_a_suffix(self, rules, labels):
        psl = PublicSuffixList(rules)
        hostname = ".".join(labels)
        match = psl.match(hostname)
        assert hostname == match.public_suffix or hostname.endswith("." + match.public_suffix)

    @given(rule_sets, hostname_labels())
    def test_registrable_is_suffix_plus_one(self, rules, labels):
        psl = PublicSuffixList(rules)
        match = psl.match(".".join(labels))
        if match.registrable_domain is not None:
            head, _, tail = match.registrable_domain.partition(".")
            assert tail == match.public_suffix
            assert head

    @given(rule_sets, hostname_labels())
    def test_site_is_stable_under_renormalization(self, rules, labels):
        psl = PublicSuffixList(rules)
        hostname = ".".join(labels)
        assert psl.site_of(hostname) == psl.site_of(hostname.upper() + ".")

    @given(rule_sets, hostname_labels())
    def test_same_site_is_reflexive_and_symmetric(self, rules, labels):
        psl = PublicSuffixList(rules)
        hostname = ".".join(labels)
        other = "x." + hostname
        assert psl.same_site(hostname, hostname)
        assert psl.same_site(hostname, other) == psl.same_site(other, hostname)


# -- incremental grouping ----------------------------------------------------------


class TestIncrementalProperties:
    """The version-sweep kernel's incremental regrouping (see
    :mod:`repro.classify.partials`) against one-shot grouping."""

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(hostname_labels().map(".".join), min_size=1, max_size=30, unique=True),
        st.lists(rule_sets, min_size=1, max_size=5),
    )
    def test_incremental_equals_one_shot(self, kernel_replay, hostnames, rule_steps):
        deltas = []
        current: set[Rule] = set()
        for step_rules in rule_steps:
            target = set(step_rules)
            deltas.append(
                RuleDelta(added=frozenset(target - current), removed=frozenset(current - target))
            )
            current = target
        partial, counters = kernel_replay([], deltas, hostnames)
        expected = group_sites(PublicSuffixList(current), hostnames)
        assert counters[-1] == Counter(expected.values())
        assert partial.misclassified[-1] == 0

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(hostname_labels().map(".".join), min_size=1, max_size=20, unique=True),
        rule_sets,
    )
    def test_site_count_matches_assignment(self, kernel_replay, hostnames, rules):
        _, (initial,) = kernel_replay(rules, (), hostnames)
        assignment = group_sites(PublicSuffixList(rules), hostnames)
        assert len(initial) == len(set(assignment.values()))
