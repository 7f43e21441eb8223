"""The Figures 5-7 version sweep, as a front over the one kernel.

The paper's headline figures interpret one web snapshot under every
version of the Public Suffix List — at the paper's scale ~498M
requests x 1,142 lists.  :class:`SweepEngine` answers all three
per-version series (sites, third-party requests, divergence from a
baseline version) in one pass of the version-sweep kernel that also
drives ``psl-classify`` (:mod:`repro.classify.partials`):

* the universe is columnarized into a handful of weighted chunks
  (:func:`repro.classify.columnar.universe_chunks`): each distinct
  hostname counts once, in exactly one chunk;
* each chunk walks every host once under version 0, then replays the
  store's deltas on one live trie, re-walking only hosts under the
  rule prefixes a delta touched;
* execution, checkpoint/resume, spill validation, the merge and the
  failure report are :class:`repro.classify.engine.ClassifyEngine`'s.

``workers=1`` runs every chunk inline; any worker count and any chunk
size give bit-identical series.  A degraded run (quarantined chunks)
excludes exactly the chunks its report enumerates.
"""

from __future__ import annotations

import tempfile
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.classify.columnar import universe_chunks
from repro.classify.engine import ClassifyEngine
from repro.history.store import VersionStore
from repro.runtime import ExecutionReport, FaultPlan, RetryPolicy

#: Hostnames per chunk.  Every chunk pays one trie build plus a replay
#: of the whole delta chain, so fewer, larger chunks win: the figures
#: world (~300k hostnames) runs as 5 chunks.
DEFAULT_CHUNK_SIZE = 65536


@dataclass(frozen=True, slots=True)
class SweepSeries:
    """Per-version series over one history, index-aligned with
    ``store.versions``.

    ``hostname_count`` and ``request_count`` are the distinct hostnames
    and the request pairs the series cover — the whole universe unless
    the run was degraded.
    """

    site_counts: tuple[int, ...]
    third_party: tuple[int, ...]
    divergence: tuple[int, ...]
    hostname_count: int
    request_count: int

    @property
    def version_count(self) -> int:
        return len(self.site_counts)


class SweepEngine:
    """Sweeps hostname/request universes across a whole list history.

    Parameters
    ----------
    store:
        The version history to replay.
    workers:
        Process count; ``1`` (the default) runs every chunk inline.
    chunk_size:
        Distinct hostnames per chunk; ``None`` picks
        :data:`DEFAULT_CHUNK_SIZE`, shrunk so a parallel run has at
        least ``4 x workers`` chunks to balance.
    policy:
        The :class:`~repro.runtime.RetryPolicy` for the task runtime.
    checkpoint_dir:
        Run directory for chunk checkpoints and spills; a killed sweep
        re-run with the same directory resumes from the last completed
        chunk.  ``resume=False`` clears any prior checkpoints first.
        Without it, the spills live in a temporary directory.
    fault_plan:
        Deterministic fault injection (tests only).
    """

    def __init__(
        self,
        store: VersionStore,
        *,
        workers: int = 1,
        chunk_size: int | None = None,
        policy: RetryPolicy | None = None,
        checkpoint_dir: str | None = None,
        resume: bool = True,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if len(store) == 0:
            raise ValueError("cannot sweep an empty history")
        if workers < 1:
            raise ValueError("workers must be positive")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        self._store = store
        self._workers = workers
        self._chunk_size = chunk_size
        self._policy = policy
        self._checkpoint_dir = checkpoint_dir
        self._resume = resume
        self._fault_plan = fault_plan
        self._last_report: ExecutionReport | None = None

    @property
    def last_report(self) -> ExecutionReport | None:
        """The runtime report of the most recent :meth:`sweep` (None
        before any): retries, resumes, and the quarantined chunks of a
        degraded run."""
        return self._last_report

    def _effective_chunk_size(self, universe_size: int) -> int:
        if self._chunk_size is not None:
            return self._chunk_size
        size = min(DEFAULT_CHUNK_SIZE, universe_size) or 1
        if self._workers > 1:
            balanced = -(-universe_size // (self._workers * 4))
            size = max(1, min(size, balanced))
        return size

    def sweep(
        self,
        hostnames: Iterable[str] = (),
        pairs: Sequence[tuple[str, str]] = (),
        *,
        baseline_index: int = -1,
        universe_fingerprint: str | None = None,
    ) -> SweepSeries:
        """Evaluate a universe under every version in one kernel pass.

        ``hostnames`` drive the site and divergence series (Figures 5
        and 7), ``pairs`` the third-party series (Figure 6);
        ``baseline_index`` is the version the divergence series
        compares against (default: the newest).
        ``universe_fingerprint`` optionally identifies the universe by
        an externally computed digest (the pipeline's sweep-stage
        fingerprint), sparing the checkpoint manifest a pass over the
        content.
        """
        distinct = list(dict.fromkeys(hostnames))
        chunk_size = self._effective_chunk_size(len(distinct))
        chunks = universe_chunks(distinct, pairs, chunk_size)
        identity: dict[str, object] = {"chunk_size": chunk_size}
        if universe_fingerprint is not None:
            identity["universe"] = universe_fingerprint
        elif self._checkpoint_dir is not None:
            identity["hostnames"] = distinct
            identity["pairs"] = [list(pair) for pair in pairs]
        run_dir = (
            nullcontext(self._checkpoint_dir)
            if self._checkpoint_dir is not None
            else tempfile.TemporaryDirectory(prefix="psl-sweep-")
        )
        with run_dir as directory:
            result = ClassifyEngine(
                self._store,
                version_indexes=range(len(self._store)),
                baseline=baseline_index,
                workers=self._workers,
                run_dir=directory,
                resume=self._resume,
                policy=self._policy,
                fault_plan=self._fault_plan,
            ).run_chunks(chunks, identity)
        self._last_report = result.report
        rows = result.rows
        return SweepSeries(
            site_counts=tuple(row.sites.sites for row in rows),
            third_party=tuple(row.third_party.third_party for row in rows),
            divergence=tuple(row.misclassified_hostnames for row in rows),
            hostname_count=rows[0].sites.hostnames,
            request_count=rows[0].third_party.total,
        )
