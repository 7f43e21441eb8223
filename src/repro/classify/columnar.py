"""Columnar request-log chunks: the classify engine's unit of work.

A raw request log is a stream of ``(page_host, request_host)`` string
pairs.  Classifying it under ~100 PSL versions would walk the trie
once per *endpoint occurrence* per version; real logs are heavily
Zipf-skewed, so the columnar form pays normalization and label
splitting once per **distinct** hostname per chunk and stores the
record structure as integer columns:

* ``hosts`` — distinct normalized hostnames, first-seen order;
* ``occurrences[i]`` — host ``i``'s weight in the site and divergence
  columns: its endpoint occurrences for a request log (site counting
  is per-occurrence, matching
  :func:`repro.webgraph.stream.count_sites_streaming`), 1 or 0 for a
  figures universe (:func:`universe_chunks`);
* ``pages``/``requests`` — per valid record, indexes into ``hosts``.

Ingest admission is :func:`repro.net.hostname.normalize_or_reject`,
the same gate the serving and streaming layers use: a malformed
endpoint bumps ``skipped_hosts`` (and its record ``skipped_pairs``)
instead of aborting the chunk, with semantics chosen to be
bit-compatible with the streaming oracles — each valid endpoint still
counts as a hostname occurrence even when its partner is malformed,
exactly what :func:`count_sites_streaming` sees when fed the flattened
endpoint stream.

Workers receive chunk *references*, not chunks: a
:class:`SyntheticChunkRef` regenerates its records from the
deterministic generator (:mod:`repro.webgraph.requestlog`) so the task
pickle is a few hundred bytes at any scale; a :class:`SpooledChunkRef`
names a digest-verified pickle spooled by the parent for arbitrary
streams.  An in-memory :class:`ColumnarChunk` is its own reference
(:meth:`ColumnarChunk.load`), which is how the figures sweep ships its
few, large universe chunks.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.net.errors import HostnameError
from repro.net.hostname import normalize_or_reject
from repro.runtime.checkpoint import atomic_write_bytes
from repro.webgraph.requestlog import RequestLogConfig, iter_block


@dataclass(frozen=True, slots=True)
class ColumnarChunk:
    """One hostname-interned slice of a request log."""

    index: int
    hosts: tuple[str, ...]
    occurrences: array  # array("Q"), aligned with ``hosts``
    pages: array  # array("I"), host index per valid record
    requests: array  # array("I"), aligned with ``pages``
    skipped_hosts: int
    skipped_pairs: int

    @property
    def records(self) -> int:
        """Input records this chunk covers, malformed ones included."""
        return len(self.pages) + self.skipped_pairs

    @property
    def hostnames(self) -> int:
        """Valid endpoint occurrences (the site-counting total)."""
        return sum(self.occurrences)

    @property
    def task_id(self) -> str:
        return f"classify-{self.index}"

    def __len__(self) -> int:
        return self.records

    def load(self) -> "ColumnarChunk":
        """A materialized chunk is its own chunk reference."""
        return self


def columnar_chunk(index: int, records: Iterable[tuple[str, str]]) -> ColumnarChunk:
    """Intern one record batch into a :class:`ColumnarChunk`.

    Normalization results are memoized per raw string for the chunk's
    lifetime, so Zipf-repeated hosts pay :func:`normalize_or_reject`
    once, not once per occurrence.
    """
    host_index: dict[str, int] = {}
    hosts: list[str] = []
    occurrences = array("Q")
    pages = array("I")
    requests = array("I")
    skipped_hosts = 0
    skipped_pairs = 0
    # Raw string -> host index, or -1 for malformed; covers both the
    # normalization and the intern lookup for repeated raw spellings.
    memo: dict[str, int] = {}

    def intern(raw: str) -> int:
        slot = memo.get(raw)
        if slot is None:
            try:
                name = normalize_or_reject(raw)
            except HostnameError:
                slot = -1
            else:
                slot = host_index.get(name)
                if slot is None:
                    slot = len(hosts)
                    host_index[name] = slot
                    hosts.append(name)
                    occurrences.append(0)
            memo[raw] = slot
        return slot

    for page, request in records:
        p = intern(page) if isinstance(page, str) else -1
        r = intern(request) if isinstance(request, str) else -1
        for slot in (p, r):
            if slot < 0:
                skipped_hosts += 1
            else:
                occurrences[slot] += 1
        if p < 0 or r < 0:
            skipped_pairs += 1
        else:
            pages.append(p)
            requests.append(r)
    return ColumnarChunk(
        index=index,
        hosts=tuple(hosts),
        occurrences=occurrences,
        pages=pages,
        requests=requests,
        skipped_hosts=skipped_hosts,
        skipped_pairs=skipped_pairs,
    )


def iter_columnar_chunks(
    records: Iterable[tuple[str, str]], chunk_records: int
) -> Iterator[ColumnarChunk]:
    """Cut a record stream into fixed-size columnar chunks.

    Every record lands in exactly one chunk and all downstream merges
    are commutative sums, so results are bit-identical for any
    ``chunk_records`` (the differential tests pin this down).
    """
    if chunk_records < 1:
        raise ValueError("chunk_records must be positive")
    iterator = iter(records)
    for index in itertools.count():
        batch = list(itertools.islice(iterator, chunk_records))
        if not batch:
            return
        yield columnar_chunk(index, batch)


def universe_chunks(
    hostnames: Sequence[str], pairs: Iterable[tuple[str, str]], chunk_hosts: int
) -> list[ColumnarChunk]:
    """Columnarize a figures universe (hostnames plus request pairs).

    Distinct hostnames are cut into consecutive slices of
    ``chunk_hosts``, and each gets weight 1 in its slice's chunk only.
    A request pair joins the chunk that owns its page host (else its
    request host, else chunk 0); an endpoint that chunk does not own is
    interned at weight 0.  Hostnames are taken as given — the figures
    universe is already normalized, so there is no ingest gate and
    nothing is skipped.
    """
    if chunk_hosts < 1:
        raise ValueError("chunk_hosts must be positive")
    distinct = list(dict.fromkeys(hostnames))
    owner = {host: position // chunk_hosts for position, host in enumerate(distinct)}
    # Per chunk: host -> slot, the weight column, the two pair columns.
    columns = []
    for start in range(0, len(distinct), chunk_hosts):
        names = distinct[start : start + chunk_hosts]
        slots = {host: slot for slot, host in enumerate(names)}
        columns.append((slots, array("Q", [1]) * len(names), array("I"), array("I")))
    for page, request in pairs:
        if not columns:
            columns.append(({}, array("Q"), array("I"), array("I")))
        slots, weights, pages, requests = columns[owner.get(page, owner.get(request, 0))]
        for host, column in ((page, pages), (request, requests)):
            slot = slots.get(host)
            if slot is None:
                slot = slots[host] = len(weights)
                weights.append(0)
            column.append(slot)
    return [
        ColumnarChunk(
            index=index,
            hosts=tuple(slots),
            occurrences=weights,
            pages=pages,
            requests=requests,
            skipped_hosts=0,
            skipped_pairs=0,
        )
        for index, (slots, weights, pages, requests) in enumerate(columns)
    ]


@dataclass(frozen=True, slots=True)
class SyntheticChunkRef:
    """A chunk defined by generator coordinates — regenerated in the worker.

    ``block_count`` whole generation blocks starting at ``first_block``;
    because blocks are addressable by ``(config, block_index)`` alone,
    the chunk's records never depend on how many blocks ride in one
    task — the chunk-invariance the resume guarantee needs.
    """

    config: RequestLogConfig
    first_block: int
    block_count: int
    index: int

    @property
    def task_id(self) -> str:
        return f"classify-{self.index}"

    def load(self) -> ColumnarChunk:
        return columnar_chunk(
            self.index,
            itertools.chain.from_iterable(
                iter_block(self.config, block)
                for block in range(self.first_block, self.first_block + self.block_count)
            ),
        )


@dataclass(frozen=True, slots=True)
class SpooledChunkRef:
    """A chunk pickled to disk by the parent, digest-verified on load."""

    path: str
    digest: str
    nbytes: int
    index: int

    @property
    def task_id(self) -> str:
        return f"classify-{self.index}"

    def load(self) -> ColumnarChunk:
        with open(self.path, "rb") as handle:
            payload = handle.read()
        if len(payload) != self.nbytes or hashlib.sha256(payload).hexdigest() != self.digest:
            raise ValueError(f"spooled chunk {self.path} failed its digest check")
        chunk = pickle.loads(payload)
        if not isinstance(chunk, ColumnarChunk):
            raise ValueError(f"spooled chunk {self.path} is not a ColumnarChunk")
        return chunk


def spool_chunks(
    records: Iterable[tuple[str, str]], chunk_records: int, directory: str
) -> list[SpooledChunkRef]:
    """Columnarize a generic stream into digest-named spool files.

    The parent holds one chunk in memory at a time; workers get a
    :class:`SpooledChunkRef` each.  Re-spooling the same stream into
    the same directory rewrites identical files, so resumed runs see
    identical digests.
    """
    os.makedirs(directory, exist_ok=True)
    refs: list[SpooledChunkRef] = []
    for chunk in iter_columnar_chunks(records, chunk_records):
        payload = pickle.dumps(chunk, protocol=pickle.HIGHEST_PROTOCOL)
        path = os.path.join(directory, f"chunk-{chunk.index:06d}.bin")
        atomic_write_bytes(path, payload)
        refs.append(
            SpooledChunkRef(
                path=path,
                digest=hashlib.sha256(payload).hexdigest(),
                nbytes=len(payload),
                index=chunk.index,
            )
        )
    return refs
