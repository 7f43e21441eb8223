"""Pipeline wiring: classify runs as content-addressed artifacts.

A classify run is expensive (minutes to hours) and pure given its
inputs — exactly what the artifact DAG exists for.  The stage's
fingerprint covers the request-log config, the version selection, the
chunking, and (through its ``packed`` upstream) the entire synthesized
history, so a warm store answers a repeated run in milliseconds and
any input change re-keys exactly the classify cone.

Following the sweep stage's discipline (:mod:`repro.analysis.context`):

* the stage's own fingerprint is forwarded to the engine's checkpoint
  manifest, so the artifact layer and the resume ledger can never
  disagree about what "the same run" is;
* a **degraded** result (quarantined chunks) is never persisted — it
  stays memory-only, so no later run warms itself from partial counts.

Workers mmap the ``packed`` artifact's payload file directly
(:meth:`repro.pipeline.ArtifactStore.payload_path`); with a
memory-only store the buffer is materialized into the run directory
once instead.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.classify.engine import ClassifyEngine, ClassifyResult, select_version_indexes
from repro.pipeline import ArtifactStore, Pipeline, Stage, StageContext
from repro.psl.packed import PackedHistory
from repro.runtime import FaultPlan, RetryPolicy, atomic_write_bytes
from repro.webgraph.requestlog import RequestLogConfig
from repro.webgraph.synthesis import SnapshotConfig


@dataclass(frozen=True)
class ClassifySettings:
    """Execution knobs for the classify stage.

    Mirrors :class:`~repro.analysis.context.SweepSettings`: only what
    changes the *result* belongs in the stage params; ``workers``,
    ``run_dir``, ``resume``, and the fault plan change how a run
    executes and recovers, never what it computes, so they stay out of
    the fingerprint.  ``on_result`` observes every freshly computed
    run (the CLI uses it to catch degraded ones).
    """

    run_dir: str = "classify-run"
    workers: int = 1
    resume: bool = False
    policy: RetryPolicy | None = None
    fault_plan: FaultPlan | None = None
    on_result: Callable[[ClassifyResult], None] | None = None


def classify_stage(
    log_config: RequestLogConfig,
    *,
    packed_fingerprint: str,
    version_count: int = 100,
    baseline: int = -1,
    blocks_per_task: int = 4,
    settings: ClassifySettings = ClassifySettings(),
) -> Stage:
    """The ``classify`` stage over a ``packed`` upstream.

    ``version_count`` selects that many evenly spaced versions over
    the packed history (endpoints included) at build time — the
    history length is upstream material, so the selection is fully
    determined by the fingerprint.
    """

    def packed_path(store: ArtifactStore, payload: bytes) -> str:
        path = store.payload_path("packed", packed_fingerprint)
        if path is not None:
            return path
        # Memory-only store: materialize the blob once so workers can
        # still mmap one shared file.
        path = os.path.join(settings.run_dir, "packed.bin")
        os.makedirs(settings.run_dir, exist_ok=True)
        if not os.path.exists(path) or os.path.getsize(path) != len(payload):
            atomic_write_bytes(path, payload)
        return path

    def build(inputs: Mapping[str, Any], ctx: StageContext) -> ClassifyResult:
        path = packed_path(ctx.store, inputs["packed"])
        versions = select_version_indexes(len(PackedHistory.load(path)), version_count)
        engine = ClassifyEngine(
            path,
            version_indexes=versions,
            baseline=baseline,
            workers=settings.workers,
            run_dir=settings.run_dir,
            resume=settings.resume,
            policy=settings.policy,
            fault_plan=settings.fault_plan,
            fingerprint_context=ctx.fingerprint,
        )
        result = engine.run_synthetic(log_config, blocks_per_task=blocks_per_task)
        if settings.on_result is not None:
            settings.on_result(result)
        return result

    def is_clean(result: ClassifyResult) -> bool:
        return not result.degraded

    return Stage(
        name="classify",
        build=build,
        upstream=("packed",),
        params={
            "log": log_config,
            "version_count": version_count,
            "baseline": baseline,
            "blocks_per_task": blocks_per_task,
        },
        persist=is_clean,
    )


def classify_pipeline(
    seed: int,
    log_config: RequestLogConfig,
    *,
    version_count: int = 100,
    baseline: int = -1,
    blocks_per_task: int = 4,
    settings: ClassifySettings = ClassifySettings(),
    snapshot_config: SnapshotConfig | None = None,
    store: ArtifactStore | None = None,
) -> Pipeline:
    """The world DAG plus a ``classify`` stage, ready to ``build``.

    The packed fingerprint the stage needs is probed off a throwaway
    pipeline first (:meth:`Pipeline.fingerprint_of` is pure), the same
    trick the serving CLI uses to locate the raw artifact.
    """
    # Imported here: the world DAG's sweep stage runs on this package's
    # engine, so a module-level import would be circular.
    from repro.analysis.context import SweepSettings, world_stages

    snapshot_config = snapshot_config or SnapshotConfig(seed=seed)
    base = world_stages(seed, snapshot_config, SweepSettings())
    packed_fingerprint = Pipeline(base).fingerprint_of("packed")
    stage = classify_stage(
        log_config,
        packed_fingerprint=packed_fingerprint,
        version_count=version_count,
        baseline=baseline,
        blocks_per_task=blocks_per_task,
        settings=settings,
    )
    return Pipeline(base + (stage,), store=store)
