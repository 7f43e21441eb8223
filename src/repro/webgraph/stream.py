"""Streaming (constant-memory) site accounting.

The real HTTP Archive snapshot has hundreds of millions of rows; the
in-memory grouper holds the full hostname universe, which is fine at
this repository's scales but not at the paper's.  This module provides
the out-of-core path: single-pass, counter-only accounting over
hostname and request iterators, so the Figure 5/6 quantities can be
computed for datasets that never fit in memory.

The test suite asserts stream results equal the in-memory ones on
shared inputs, so the two paths are interchangeable where both apply.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Generic, Hashable, Iterable, Iterator, TypeVar

from repro.net.hostname import normalize_or_none
from repro.psl.list import PublicSuffixList
from repro.psl.trie import SuffixTrie
from repro.webgraph.sites import site_for_reversed

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LruDict(Generic[K, V]):
    """A minimal bounded mapping with least-recently-used eviction.

    Not thread-safe: every ``get`` hit refreshes recency.  ``None`` is
    not a valid stored value — ``get`` uses it as the miss sentinel,
    which keeps the hot path to a single dictionary probe.
    """

    __slots__ = ("_data", "capacity")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._data: OrderedDict[K, V] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def get(self, key: K) -> V | None:
        """The stored value, refreshed as most recent; None on a miss."""
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key: K, value: V) -> None:
        """Store a value, evicting the least recently used past capacity."""
        if value is None:
            raise ValueError("LruDict cannot store None (it is the miss sentinel)")
        self._data[key] = value
        self._data.move_to_end(key)
        if len(self._data) > self.capacity:
            self._data.popitem(last=False)


@dataclass(frozen=True, slots=True)
class StreamedSiteCounts:
    """The counter-only outcome of one streaming pass.

    ``skipped`` counts records the pass dropped as malformed (empty
    labels, embedded whitespace, non-IDNA-encodable names) — real crawl
    streams contain them, and a single bad row must degrade the counts
    by one line in this field, never sink the whole pass.
    """

    hostnames: int
    sites: int
    largest_site: int
    skipped: int = 0


@dataclass(frozen=True, slots=True)
class StreamedThirdPartyCounts:
    """Third-party accounting over a request stream.

    Iterates as ``(third_party, total)`` so the historical tuple
    unpacking keeps working; ``skipped`` is the count of request pairs
    dropped because either endpoint was malformed.
    """

    third_party: int
    total: int
    skipped: int = 0

    def __iter__(self) -> Iterator[int]:
        yield self.third_party
        yield self.total


def _reversed_labels_or_none(host: object) -> list[str] | None:
    """Reversed labels of a streamed hostname, or None for garbage.

    Streams come from real crawl exports, which contain rows no browser
    would emit: empty strings, names with empty labels or embedded
    whitespace, and non-ASCII names that IDNA cannot encode.  Admission
    is :func:`repro.net.hostname.normalize_or_none` — the same gate the
    serving layer applies to query-string hostnames — so what counts as
    a ``skipped`` row here and a ``400`` there is one policy, not two.
    """
    name = normalize_or_none(host)
    if name is None:
        return None
    labels = name.split(".")
    labels.reverse()
    return labels


def count_sites_streaming(
    psl: PublicSuffixList, hostnames: Iterable[str], *, chunk_size: int = 65536
) -> StreamedSiteCounts:
    """Count distinct sites over a hostname stream.

    Memory use is one site-key set plus a per-site counter — O(sites),
    independent of how hostnames arrive.  (Site keys are inherently
    the output, so they cannot be streamed away; what is saved is the
    hostname universe and the per-host assignment.)  Malformed rows are
    counted into ``skipped`` instead of raising mid-stream.
    """
    trie = SuffixTrie(psl.rules)
    site_counts: dict[str, int] = {}
    total = 0
    skipped = 0
    for host in hostnames:
        reversed_labels = _reversed_labels_or_none(host)
        if reversed_labels is None:
            skipped += 1
            continue
        total += 1
        site = site_for_reversed(trie, reversed_labels)
        site_counts[site] = site_counts.get(site, 0) + 1
    return StreamedSiteCounts(
        hostnames=total,
        sites=len(site_counts),
        largest_site=max(site_counts.values(), default=0),
        skipped=skipped,
    )


def count_third_party_streaming(
    psl: PublicSuffixList,
    request_pairs: Iterable[tuple[str, str]],
    *,
    memo_capacity: int = 65536,
) -> StreamedThirdPartyCounts:
    """Third-party vs. total requests over a request stream.

    Per-host site lookups are memoized behind an LRU bounded at
    ``memo_capacity`` entries, so memory really is O(working set) even
    on adversarial streams that never repeat a hostname — an unbounded
    memo would quietly grow to O(distinct hosts), defeating the point
    of streaming.  Hosts evicted and seen again are simply recomputed.
    A pair with a malformed endpoint lands in ``skipped`` rather than
    raising; the return value still unpacks as ``(third, total)``.
    """
    trie = SuffixTrie(psl.rules)
    memo: LruDict[str, str] = LruDict(memo_capacity)
    invalid = "\0invalid"  # impossible site string, the memo's None-proof marker

    def site(host: str) -> str:
        cached = memo.get(host)
        if cached is None:
            reversed_labels = _reversed_labels_or_none(host)
            cached = invalid if reversed_labels is None else site_for_reversed(trie, reversed_labels)
            memo.put(host, cached)
        return cached

    third = 0
    total = 0
    skipped = 0
    for page_host, request_host in request_pairs:
        page_site = site(page_host)
        request_site = site(request_host)
        if page_site is invalid or request_site is invalid:
            skipped += 1
            continue
        total += 1
        if page_site != request_site:
            third += 1
    return StreamedThirdPartyCounts(third_party=third, total=total, skipped=skipped)


def iter_hostnames_from_jsonl(path: str) -> Iterator[str]:
    """Stream unique-hostname rows out of a snapshot JSONL file.

    Reads pages and bare-host records without materializing a
    :class:`~repro.webgraph.archive.Snapshot`; hostnames may repeat
    across pages (dedup is the consumer's choice — site counting does
    not need it when fed page hosts plus request hosts exactly once,
    so this yields each record's hosts verbatim).
    """
    import json

    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if "page" in record:
                yield record["page"]
                yield from record["requests"]
            elif "host" in record:
                yield record["host"]
