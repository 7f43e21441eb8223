"""Site grouping: partitioning hostnames into privacy boundaries.

The paper's methodology (Section 5): determine each unique hostname's
suffix under a given PSL version and group hostnames into sites
(eTLD+1).  :func:`group_sites` is the one-shot grouping for a single
list version — the oracle the version-sweep kernel
(:mod:`repro.classify.partials`), which maintains the grouping across
versions by re-walking only hostnames under rules a delta touched, is
cross-checked against.  Both share one site function,
:func:`site_for_reversed`, so the incremental path is exactly as
correct as the one-shot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from sys import intern
from typing import Iterable, Mapping, Sequence

from repro.psl.list import PublicSuffixList
from repro.psl.rules import RuleKind
from repro.psl.trie import SuffixTrie


def site_for_reversed(trie: SuffixTrie, reversed_labels: Sequence[str]) -> str:
    """The site (eTLD+1, or the bare suffix) for reversed pre-split labels.

    ``reversed_labels`` are the hostname's labels TLD-first — the order
    the trie walks anyway.  This is the hot loop of the whole
    reproduction, so it works on the raw trie rather than the
    :class:`PublicSuffixList` facade (no IDNA pass, no dataclass
    allocation), and taking the labels already reversed lets callers
    that replay many versions pay the split-and-reverse once per
    hostname instead of once per lookup.
    """
    rule = trie.prevailing(reversed_labels)
    if rule is None:
        suffix_length = 1
    elif rule.kind is RuleKind.EXCEPTION:
        suffix_length = rule.component_count - 1
    else:
        suffix_length = rule.component_count
    take = suffix_length + 1
    if take > len(reversed_labels):
        take = len(reversed_labels)
    return ".".join(reversed_labels[take - 1 :: -1])


def site_for(trie: SuffixTrie, labels: tuple[str, ...]) -> str:
    """The site for labels given left to right.

    Convenience wrapper over :func:`site_for_reversed`; replay loops
    should precompute reversed tuples and call that directly.
    """
    return site_for_reversed(trie, labels[::-1])


def reversed_labels_of(hostname: str) -> tuple[str, ...]:
    """A hostname's labels, reversed and interned.

    Interning matches :meth:`SuffixTrie.insert`, so trie-child probes
    during lookups compare pointer-equal keys.
    """
    labels = hostname.split(".")
    labels.reverse()
    return tuple(intern(label) for label in labels)


def group_sites(psl: PublicSuffixList, hostnames: Iterable[str]) -> dict[str, str]:
    """Map each hostname to its site under one list version."""
    trie = SuffixTrie(psl.rules)
    out: dict[str, str] = {}
    for host in hostnames:
        reversed_labels = host.split(".")
        reversed_labels.reverse()
        out[host] = site_for_reversed(trie, reversed_labels)
    return out


@dataclass(frozen=True, slots=True)
class SiteMetrics:
    """The Figure 5 quantities for one list version."""

    site_count: int
    hostname_count: int

    @property
    def mean_site_size(self) -> float:
        """Average number of hostnames per site."""
        if self.site_count == 0:
            return 0.0
        return self.hostname_count / self.site_count


def site_metrics(assignment: Mapping[str, str]) -> SiteMetrics:
    """Metrics of a hostname->site assignment."""
    return SiteMetrics(site_count=len(set(assignment.values())), hostname_count=len(assignment))
