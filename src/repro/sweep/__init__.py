"""The Figures 5-7 version sweep (one snapshot under every list version).

Public API:

* :class:`~repro.sweep.engine.SweepEngine` — sweep a hostname/request
  universe across a whole :class:`~repro.history.store.VersionStore`,
  serially or over a process pool, on the version-sweep kernel shared
  with :mod:`repro.classify`;
* :class:`~repro.sweep.engine.SweepSeries` — the per-version series it
  returns.
"""

from repro.sweep.engine import DEFAULT_CHUNK_SIZE, SweepEngine, SweepSeries

__all__ = ["DEFAULT_CHUNK_SIZE", "SweepEngine", "SweepSeries"]
