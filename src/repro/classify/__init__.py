"""Bulk offline classification at HTTP-Archive scale.

The paper's headline numbers come from classifying 498M requests under
every historical PSL version.  This package is that workload tier for
the reproduction: a batch engine that streams request logs in columnar
chunks through multiprocess workers, each ``mmap``-ing the packed
``PSLPAK1`` history blob (:mod:`repro.psl.packed` — zero per-worker
copy), classifying every record under a configurable set of PSL
versions in one pass, and emitting per-version site and third-party
count tables plus a misclassification delta versus the latest list.

Layer map (each composes an existing platform layer):

* :mod:`repro.classify.columnar` — ingest: hostname-interned columnar
  chunks behind :func:`repro.net.hostname.normalize_or_reject`
  (malformed rows are counted-and-skipped, never abort a chunk), plus
  chunk *references* small enough to pickle to workers;
* :mod:`repro.classify.partials` — the version-sweep kernel: one
  chunk × all versions (from a packed blob or a rule chain), spilling
  per-version site counters to disk delta-encoded so worker memory
  stays O(one version); the Figures 5-7 sweep (:mod:`repro.sweep`)
  runs on it too;
* :mod:`repro.classify.engine` — the driver over
  :class:`repro.runtime.ResilientExecutor` (retries, quarantine,
  chunk-granular checkpoint/resume) with a version-at-a-time merge;
* :mod:`repro.classify.stage` — the :mod:`repro.pipeline` wiring that
  makes classify outputs content-addressed, warm-reusable artifacts;
* :mod:`repro.classify.cli` — ``psl-classify``, including the
  ``--frontier`` scale harness.
"""

from repro.classify.columnar import (
    ColumnarChunk,
    SpooledChunkRef,
    SyntheticChunkRef,
    columnar_chunk,
    iter_columnar_chunks,
    spool_chunks,
    universe_chunks,
)
from repro.classify.engine import (
    ClassifyEngine,
    ClassifyResult,
    VersionRow,
    select_version_indexes,
)
from repro.classify.partials import (
    ChunkPartial,
    ClassifyTask,
    RuleChain,
    SpillRef,
    classify_chunk,
)
from repro.classify.stage import classify_pipeline, classify_stage

__all__ = [
    "ChunkPartial",
    "ClassifyEngine",
    "ClassifyResult",
    "ClassifyTask",
    "ColumnarChunk",
    "RuleChain",
    "SpillRef",
    "SpooledChunkRef",
    "SyntheticChunkRef",
    "VersionRow",
    "classify_chunk",
    "classify_pipeline",
    "classify_stage",
    "columnar_chunk",
    "iter_columnar_chunks",
    "select_version_indexes",
    "spool_chunks",
    "universe_chunks",
]
