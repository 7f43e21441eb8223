"""The version-sweep kernel: one chunk × all versions, spilled to disk.

Each worker task classifies every distinct hostname of one
:class:`~repro.classify.columnar.ColumnarChunk` under every selected
PSL version (:func:`repro.webgraph.sites.site_for_reversed` — the same
site function every other layer uses).  Both the bulk classify engine
and the Figures 5-7 sweep run this one kernel; the task names where its
versions come from, and the kernel picks the walk by that type:

* a packed blob **path** — versions are zero-copy
  :meth:`repro.psl.packed.PackedHistory.trie` views; the blob is opened
  once per *process* and ``mmap``-ed, so a pool of N workers shares one
  physical copy of the whole history;
* a :class:`RuleChain` — the first version's rules plus one
  :class:`~repro.psl.diff.RuleDelta` per later version, replayed in
  place on one live :class:`~repro.psl.trie.SuffixTrie` (no blob to
  pack, which is what keeps the 1,142-version figures sweep lean).

Chunk hostnames carry weights (``ColumnarChunk.occurrences``): request
logs weight by occurrence, the figures universe gives each distinct
hostname weight 1 in exactly one chunk, and an endpoint a chunk only
sees inside a request pair rides along at weight 0 — walked for the
third-party column, invisible to the site and divergence columns.

**Why a spill file.**  The merge needs per-version site multisets
(distinct-site and largest-site numbers are global properties), but a
full site counter per version per chunk would be versions × chunks ×
O(sites) bytes — gigabytes at the 10M-record regime.  Site
assignments barely change between adjacent versions, so the spill is
**delta-encoded**: the first version stores the chunk's full
``site -> occurrences`` counter; every later version stores only the
occurrence-weighted difference against the previous version (empty for
the vast majority of version steps).  The merge replays the same
deltas against one global counter, version at a time, so *its* memory
is O(one version's site universe) too.

The spill file is the worker's bulk output; what travels back through
the executor (and into the checkpoint store) is a small
:class:`ChunkPartial` carrying the per-version scalars plus a
:class:`SpillRef` naming the spill and its SHA-256 — the validator
re-hashes the file, so a truncated spill reads as a failed task, never
as silent data loss.
"""

from __future__ import annotations

import operator
import os
import pickle
import struct
from dataclasses import dataclass
from itertools import chain, compress
from typing import BinaryIO, Iterator, Sequence

from repro.classify.columnar import ColumnarChunk, SpooledChunkRef, SyntheticChunkRef
from repro.fingerprint import file_digest
from repro.psl.diff import RuleDelta
from repro.psl.packed import PackedHistory, PackedTrie
from repro.psl.rules import Rule
from repro.psl.trie import SuffixTrie
from repro.webgraph.sites import site_for_reversed

_SPILL_MAGIC = b"PSLCLSP1"
_HEADER = struct.Struct("<8sI")
_OFFSET = struct.Struct("<Q")


@dataclass(frozen=True, slots=True)
class SpillRef:
    """One spill file's identity: path, size, content digest."""

    path: str
    nbytes: int
    digest: str

    def verify(self) -> bool:
        """Re-hash the file; False on absence, truncation, or mismatch."""
        try:
            if os.path.getsize(self.path) != self.nbytes:
                return False
            return file_digest(self.path) == self.digest
        except OSError:
            return False


@dataclass(frozen=True, slots=True)
class ChunkPartial:
    """One chunk's classification outcome across all selected versions.

    ``third_party`` and ``misclassified`` align with the task's
    ``version_indexes``; ``misclassified`` counts hostname occurrences
    whose site under that version differs from the baseline (latest
    list) site — the staleness-harm delta.
    """

    index: int
    records: int
    hostnames: int
    skipped_hosts: int
    skipped_pairs: int
    total_pairs: int
    third_party: tuple[int, ...]
    misclassified: tuple[int, ...]
    spill: SpillRef


@dataclass(frozen=True, slots=True)
class RuleChain:
    """A history as rules: version 0's rule set, then ``deltas[i]``
    leading from version ``i`` to ``i + 1``.  ``baseline_rules`` are the
    rules of the task's baseline version (the kernel needs them before
    the replay reaches it)."""

    initial_rules: frozenset[Rule]
    deltas: tuple[RuleDelta, ...]
    baseline_rules: frozenset[Rule]


@dataclass(frozen=True, slots=True)
class ClassifyTask:
    """Everything one worker invocation needs.

    ``source`` names where the versions come from: the path of the
    on-disk ``PSLPAK1`` blob every worker ``mmap``s, or a
    :class:`RuleChain`.  ``version_indexes`` are resolved, ascending raw
    history indexes; ``baseline_index`` is the reference version the
    misclassification (divergence) column is measured against.
    """

    ref: SyntheticChunkRef | SpooledChunkRef | ColumnarChunk
    source: str | RuleChain
    version_indexes: tuple[int, ...]
    baseline_index: int
    spill_dir: str

    @property
    def task_id(self) -> str:
        return self.ref.task_id


class SpillWriter:
    """Streams one pickled counter per version into the spill layout.

    Layout: magic, u32 version count, (count + 1) u64 blob offsets,
    then the concatenated pickle blobs.  Offsets are backfilled after
    the last blob and the file lands via ``os.replace``, so readers
    only ever see complete spills.
    """

    def __init__(self, path: str, versions: int) -> None:
        self._path = path
        self._temp = f"{path}.tmp"
        self._versions = versions
        self._offsets: list[int] = []
        self._handle: BinaryIO = open(self._temp, "wb")
        self._handle.write(_HEADER.pack(_SPILL_MAGIC, versions))
        self._handle.write(b"\0" * _OFFSET.size * (versions + 1))

    def add(self, counter: dict[str, int]) -> None:
        if len(self._offsets) >= self._versions + 1:
            raise ValueError("spill already holds every version")
        self._offsets.append(self._handle.tell())
        self._handle.write(pickle.dumps(counter, protocol=pickle.HIGHEST_PROTOCOL))

    def finish(self) -> SpillRef:
        if len(self._offsets) != self._versions:
            raise ValueError(
                f"spill holds {len(self._offsets)} versions, expected {self._versions}"
            )
        self._offsets.append(self._handle.tell())
        self._handle.seek(_HEADER.size)
        for offset in self._offsets:
            self._handle.write(_OFFSET.pack(offset))
        self._handle.close()
        digest = file_digest(self._temp)
        nbytes = os.path.getsize(self._temp)
        os.replace(self._temp, self._path)
        return SpillRef(path=self._path, nbytes=nbytes, digest=digest)

    def abort(self) -> None:
        try:
            self._handle.close()
        finally:
            try:
                os.unlink(self._temp)
            except OSError:
                pass


class SpillReader:
    """Random access to one spill's per-version counter deltas."""

    def __init__(self, path: str) -> None:
        self._handle: BinaryIO = open(path, "rb")
        magic, versions = _HEADER.unpack(self._handle.read(_HEADER.size))
        if magic != _SPILL_MAGIC:
            raise ValueError(f"{path} is not a classify spill")
        raw = self._handle.read(_OFFSET.size * (versions + 1))
        self._offsets = [
            _OFFSET.unpack_from(raw, i * _OFFSET.size)[0] for i in range(versions + 1)
        ]
        self.versions = versions

    def read(self, slot: int) -> dict[str, int]:
        """The counter (slot 0) or counter delta (later slots)."""
        if not 0 <= slot < self.versions:
            raise IndexError(f"version slot {slot} out of range")
        self._handle.seek(self._offsets[slot])
        payload = self._handle.read(self._offsets[slot + 1] - self._offsets[slot])
        return pickle.loads(payload)

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "SpillReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# One PackedHistory per (process, path): reopening per task would
# re-validate CRCs and re-mmap; keeping it process-global means a pool
# worker pays the open once and the OS shares the mapped pages.
_HISTORY_CACHE: dict[str, PackedHistory] = {}

# Changed-rule prefixes per selected-version step — identical for
# every chunk of a run, so computed once per (process, run shape).
_PLAN_CACHE: dict[tuple[str, tuple[int, ...]], list[frozenset[tuple[str, ...]] | None]] = {}

#: One selected version: its raw index, the rule prefixes changed since
#: the previous selected version (``None`` for the first: walk every
#: host), and a trie for it (``None`` when nothing changed).
_Step = tuple[int, "frozenset[tuple[str, ...]] | None", "PackedTrie | SuffixTrie | None"]


def _history(path: str) -> PackedHistory:
    cached = _HISTORY_CACHE.get(path)
    if cached is None:
        cached = PackedHistory.load(path)
        _HISTORY_CACHE[path] = cached
    return cached


def _rule_prefix(labels: Sequence[str]) -> tuple[str, ...]:
    """The reversed-label prefix under which a rule can affect hosts.

    ``labels`` are the rule's labels TLD-first (:attr:`Rule.labels`).
    A rule change can only move the prevailing match of hosts whose
    reversed labels pass through the rule's trie path.  PSL wildcards
    are leftmost-only, so dropping a trailing ``*`` label yields a
    conservative literal prefix: ``*.ck`` affects at most the hosts
    under ``("ck",)``.
    """
    labels = tuple(labels)
    return labels[:-1] if labels and labels[-1] == "*" else labels


def _version_plan(
    path: str, history: PackedHistory, version_indexes: tuple[int, ...]
) -> list[frozenset[tuple[str, ...]] | None]:
    """Per-slot changed prefixes: ``None`` for slot 0 (full walk),
    else the prefixes of rules added/removed/rekinded since the
    previous selected version.

    Versions are compared as sets of rule *records* (meta word plus
    label ids, :meth:`PackedTrie.rule_keys`), so no :class:`Rule` is
    built; only the symmetric difference is mapped back to labels.
    """
    key = (path, version_indexes)
    cached = _PLAN_CACHE.get(key)
    if cached is not None:
        return cached
    plan: list[frozenset[tuple[str, ...]] | None] = []
    previous: frozenset | None = None
    for version_index in version_indexes:
        trie = history.trie(version_index)
        records = trie.rule_keys()
        if previous is None:
            plan.append(None)
        else:
            plan.append(
                frozenset(_rule_prefix(trie.key_labels(k)) for k in records ^ previous)
            )
        previous = records
    _PLAN_CACHE[key] = plan
    return plan


def _packed_steps(path: str, version_indexes: tuple[int, ...]) -> Iterator[_Step]:
    history = _history(path)
    plan = _version_plan(path, history, version_indexes)
    for version_index, prefixes in zip(version_indexes, plan):
        changed = prefixes is None or bool(prefixes)
        yield version_index, prefixes, history.trie(version_index) if changed else None


def _chain_steps(rules: RuleChain, version_indexes: tuple[int, ...]) -> Iterator[_Step]:
    """Advance one live trie through the chain; the step plan is the
    prefixes of every rule the deltas in between touch."""
    trie = SuffixTrie(rules.initial_rules)
    applied = 0
    for slot, version_index in enumerate(version_indexes):
        prefixes: set[tuple[str, ...]] = set()
        for delta in rules.deltas[applied:version_index]:
            trie.apply_delta(delta)
            prefixes.update(
                _rule_prefix(rule.labels) for rule in chain(delta.removed, delta.added)
            )
        applied = version_index
        yield version_index, (frozenset(prefixes) if slot else None), trie


def _versions(task: ClassifyTask) -> tuple[PackedTrie | SuffixTrie, Iterator[_Step]]:
    """The baseline trie and the version steps, chosen by source type."""
    if isinstance(task.source, str):
        baseline = _history(task.source).trie(task.baseline_index)
        return baseline, _packed_steps(task.source, task.version_indexes)
    baseline = SuffixTrie(task.source.baseline_rules)
    return baseline, _chain_steps(task.source, task.version_indexes)


class _ChunkColumns:
    """Per-chunk lookup structures for the incremental version walk."""

    def __init__(self, chunk: ColumnarChunk) -> None:
        self.rlabels = [tuple(host.split(".")[::-1]) for host in chunk.hosts]
        self.by_first: dict[str, list[int]] = {}
        self.by_two: dict[tuple[str, str], list[int]] = {}
        for i, labels in enumerate(self.rlabels):
            self.by_first.setdefault(labels[0], []).append(i)
            if len(labels) > 1:
                self.by_two.setdefault((labels[0], labels[1]), []).append(i)
        # Host index -> positions in the pair columns touching it.
        self.pair_index: dict[int, list[int]] = {}
        for position, host in enumerate(chunk.pages):
            self.pair_index.setdefault(host, []).append(position)
        for position, host in enumerate(chunk.requests):
            self.pair_index.setdefault(host, []).append(position)

    def candidates(self, prefixes: frozenset[tuple[str, ...]]):
        """Host indexes possibly affected by rules under ``prefixes``
        (a superset: callers re-walk and drop no-ops)."""
        out: set[int] = set()
        for prefix in prefixes:
            if not prefix:
                return range(len(self.rlabels))
            if len(prefix) == 1:
                out.update(self.by_first.get(prefix[0], ()))
            else:
                bucket = self.by_two.get((prefix[0], prefix[1]), ())
                if len(prefix) == 2:
                    out.update(bucket)
                else:
                    depth = len(prefix)
                    rlabels = self.rlabels
                    out.update(i for i in bucket if rlabels[i][:depth] == prefix)
        return out


def classify_chunk(task: ClassifyTask) -> ChunkPartial:
    """Classify one chunk under every selected version.

    Only the baseline and the first selected version pay a full
    ``hosts`` trie walk; every later version is **incremental**: the
    step plan names the rule prefixes that changed since the previous
    selected version, only hosts under those prefixes are re-walked,
    and the third-party / misclassification / spill numbers are
    updated from the actual site flips alone.  A typical version step
    changes a few dozen rules, so per-version cost is O(changed), not
    O(hosts).
    """
    chunk = task.ref.load()
    baseline_trie, steps = _versions(task)
    columns = _ChunkColumns(chunk)
    rlabels = columns.rlabels
    occurrences = chunk.occurrences
    pages = chunk.pages
    requests = chunk.requests

    base_sites = [site_for_reversed(baseline_trie, labels) for labels in rlabels]
    os.makedirs(task.spill_dir, exist_ok=True)
    writer = SpillWriter(
        os.path.join(task.spill_dir, f"{task.task_id}.spill"), len(task.version_indexes)
    )
    third_party: list[int] = []
    misclassified: list[int] = []
    sites: list[str] = []
    current_tp = 0
    current_mis = 0
    try:
        for version_index, prefixes, trie in steps:
            if prefixes is None:
                # Full walk (first selected version), full counters.
                if version_index == task.baseline_index:
                    sites = base_sites.copy()
                    current_mis = 0
                else:
                    sites = [site_for_reversed(trie, labels) for labels in rlabels]
                    current_mis = sum(
                        compress(occurrences, map(operator.ne, sites, base_sites))
                    )
                full: dict[str, int] = {}
                get = full.get
                for site, occurrence in zip(sites, occurrences):
                    full[site] = get(site, 0) + occurrence
                # Weight-0 endpoints can leave all-zero sites behind.
                writer.add({site: n for site, n in full.items() if n})
                site_of = sites.__getitem__
                current_tp = sum(
                    map(operator.ne, map(site_of, pages), map(site_of, requests))
                )
            else:
                changes: dict[int, str] = {}
                if prefixes:
                    for i in columns.candidates(prefixes):
                        new_site = site_for_reversed(trie, rlabels[i])
                        if new_site != sites[i]:
                            changes[i] = new_site
                delta: dict[str, int] = {}
                if changes:
                    touched: set[int] = set()
                    for i in changes:
                        touched.update(columns.pair_index.get(i, ()))
                    for position in touched:
                        page, request = pages[position], requests[position]
                        old_ne = sites[page] != sites[request]
                        new_ne = changes.get(page, sites[page]) != changes.get(
                            request, sites[request]
                        )
                        current_tp += new_ne - old_ne
                    get = delta.get
                    for i, new_site in changes.items():
                        occurrence = occurrences[i]
                        old_site = sites[i]
                        base_site = base_sites[i]
                        delta[old_site] = get(old_site, 0) - occurrence
                        delta[new_site] = get(new_site, 0) + occurrence
                        current_mis += (
                            (new_site != base_site) - (old_site != base_site)
                        ) * occurrence
                        sites[i] = new_site
                writer.add({site: d for site, d in delta.items() if d})
            third_party.append(current_tp)
            misclassified.append(current_mis)
        spill = writer.finish()
    except BaseException:
        writer.abort()
        raise

    return ChunkPartial(
        index=chunk.index,
        records=chunk.records,
        hostnames=chunk.hostnames,
        skipped_hosts=chunk.skipped_hosts,
        skipped_pairs=chunk.skipped_pairs,
        total_pairs=len(pages),
        third_party=tuple(third_party),
        misclassified=tuple(misclassified),
        spill=spill,
    )


def partial_validator(versions: int):
    """Parent-side validator: shape plus spill integrity.

    Rejecting here turns a corrupt result (or a checkpoint whose spill
    file has since been damaged) into an ordinary retryable failure.
    """

    def validate(value: object) -> bool:
        return (
            isinstance(value, ChunkPartial)
            and len(value.third_party) == versions
            and len(value.misclassified) == versions
            and value.spill.verify()
        )

    return validate
