"""Figures 5-7: the version sweep over the web snapshot.

One forward pass over the history drives all three figures at once:

* **Figure 5** — the number of sites the snapshot's hostnames form
  under each version;
* **Figure 6** — the number of requests classified third-party under
  each version;
* **Figure 7** — the number of hostnames whose site differs from their
  site under the newest version.

The pass is delta-driven (only hostnames under rules a delta touched
are re-examined) and runs on the :class:`repro.sweep.SweepEngine`,
which keeps one live trie per chunk across the whole history and can
fan the chunks out over a process pool — that is what makes evaluating
all 1,142 versions against hundreds of thousands of hostnames take
seconds instead of hours.  The per-version ``diff_vs_latest`` record
doubles as the lookup table for Table 3's "# of missing hostnames"
column: a repository vendoring version *v* misclassifies exactly the
hostnames that differ between *v* and the newest list.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

from repro.history.store import VersionStore
from repro.runtime import ExecutionReport, FaultPlan, RetryPolicy
from repro.sweep import SweepEngine
from repro.webgraph.archive import Snapshot


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """The three figures' y-values at one list version."""

    index: int
    date: datetime.date
    site_count: int
    third_party_requests: int
    diff_vs_latest: int


@dataclass(frozen=True, slots=True)
class SweepResult:
    """The full version sweep."""

    points: tuple[SweepPoint, ...]
    total_hostnames: int
    total_requests: int
    #: Resilience outcome of the underlying engine run; ``degraded``
    #: means quarantined chunks were excluded from every series here.
    failure_report: ExecutionReport | None = None

    @property
    def first(self) -> SweepPoint:
        return self.points[0]

    @property
    def latest(self) -> SweepPoint:
        return self.points[-1]

    @property
    def additional_sites_latest_vs_first(self) -> int:
        """Figure 5's headline: extra sites under the newest list."""
        return self.latest.site_count - self.first.site_count

    def at_date(self, date: datetime.date) -> SweepPoint:
        """The sweep point of the newest version on or before ``date``."""
        chosen = self.points[0]
        for point in self.points:
            if point.date > date:
                break
            chosen = point
        return chosen

    def yearly(self) -> list[SweepPoint]:
        """Last point of each year — plot-friendly sampling."""
        picked: dict[int, SweepPoint] = {}
        for point in self.points:
            picked[point.date.year] = point
        return [picked[year] for year in sorted(picked)]


def run_sweep(
    store: VersionStore,
    snapshot: Snapshot,
    *,
    workers: int = 1,
    chunk_size: int | None = None,
    checkpoint_dir: str | None = None,
    resume: bool = True,
    policy: RetryPolicy | None = None,
    fault_plan: FaultPlan | None = None,
    fingerprint: str | None = None,
) -> SweepResult:
    """Evaluate the snapshot under every version of the history.

    ``workers``/``chunk_size`` tune the underlying
    :class:`~repro.sweep.SweepEngine` fan-out; the default is the
    serial path, which produces bit-identical results to any parallel
    configuration.  ``checkpoint_dir`` spills completed chunks so a
    killed sweep re-run with ``resume=True`` restarts from the last
    completed chunk; the returned result carries the engine's
    :class:`~repro.runtime.ExecutionReport` so callers can detect a
    degraded (quarantined-chunk) run.  ``fingerprint`` optionally
    identifies the (store, snapshot) universe by an already-computed
    digest — the pipeline's sweep stage passes its own artifact
    fingerprint here, so checkpoint manifests and pipeline artifacts
    share one keying scheme.
    """
    engine = SweepEngine(
        store,
        workers=workers,
        chunk_size=chunk_size,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        policy=policy,
        fault_plan=fault_plan,
    )
    series = engine.sweep(
        snapshot.hostnames,
        tuple(snapshot.iter_request_pairs()),
        universe_fingerprint=fingerprint,
    )
    points = tuple(
        SweepPoint(
            index=version.index,
            date=version.date,
            site_count=series.site_counts[position],
            third_party_requests=series.third_party[position],
            diff_vs_latest=series.divergence[position],
        )
        for position, version in enumerate(store.versions)
    )
    return SweepResult(
        points=points,
        total_hostnames=len(snapshot.hostnames),
        total_requests=snapshot.request_count,
        failure_report=engine.last_report,
    )
