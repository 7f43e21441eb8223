"""The paper DAG end-to-end: cold build, warm reuse, cross-process sharing."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.analysis import cli
from repro.analysis.boundaries import SweepResult
from repro.analysis.context import SweepSettings, get_context, world_stages
from repro.analysis.pipeline import TERMINALS, paper_pipeline
from repro.pipeline import ArtifactStore, Pipeline, Stage, memory_store
from repro.runtime import ExecutionReport, TaskFailure
from repro.webgraph.synthesis import SnapshotConfig

SEED = 20230701

#: Slim worlds: paper-exact counts are not under test here, only that
#: every output renders through the DAG and the caching is sound.
TABLES_CFG = SnapshotConfig(seed=SEED, harm_scale=0.2, bulk_scale=0.02)
FIGURES_CFG = SnapshotConfig(seed=SEED, harm_scale=0.1, bulk_scale=0.04)


def _assemble(cache_dir: str):
    return paper_pipeline(
        SEED,
        store=ArtifactStore(cache_dir),
        tables=TABLES_CFG,
        figures=FIGURES_CFG,
    )


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("artifact-store"))


@pytest.fixture(scope="module")
def cold(cache_dir, tmp_path_factory):
    """Cold build: every terminal rendered once into a fresh store."""
    workdir = tmp_path_factory.mktemp("cold-cwd")
    paper = _assemble(cache_dir)
    previous = os.getcwd()
    os.chdir(workdir)  # the export terminal writes ./release
    try:
        outputs = {name: paper.render(name) for name in TERMINALS}
    finally:
        os.chdir(previous)
    return paper, outputs


class TestColdBuild:
    def test_all_paper_outputs_render(self, cold):
        _, outputs = cold
        for name in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
                     "tab1", "tab2", "tab3"):
            assert isinstance(outputs[name], str) and len(outputs[name]) > 50, name

    def test_each_world_stage_computed_exactly_once(self, cold):
        paper, _ = cold
        computed = list(paper.report.computed_stages())
        # One sweep per world, shared by fig5/fig6/fig7/scorecard and by
        # tab2/tab3/harm respectively.
        assert computed.count("sweep") == 1
        assert computed.count("sweep@figures") == 1
        for stage in ("history", "corpus", "snapshot", "snapshot@figures",
                      "classifications", "datings", "harm"):
            assert computed.count(stage) == 1, stage
        # Only history/corpus/... and terminals run; nothing twice
        # except the uncached export.
        cacheable = [name for name in computed if name != "export"]
        assert len(cacheable) == len(set(cacheable))

    def test_unknown_terminal_rejected(self, cold):
        paper, _ = cold
        with pytest.raises(KeyError):
            paper.render("fig99")


class TestWarmBuild:
    def test_warm_run_is_bit_identical_with_zero_recompute(
        self, cold, cache_dir, tmp_path, monkeypatch
    ):
        _, cold_outputs = cold
        monkeypatch.chdir(tmp_path)
        warm = _assemble(cache_dir)  # fresh ArtifactStore over the same dir
        outputs = {name: warm.render(name) for name in TERMINALS}
        assert outputs == cold_outputs
        # The export is cache=False by design; everything else loads.
        assert set(warm.report.computed_stages()) <= {"export"}
        assert warm.report.count("disk") >= len(TERMINALS) - 1

    def test_reset_report_starts_a_fresh_ledger(self, cold, cache_dir):
        warm = _assemble(cache_dir)
        first = warm.report
        fresh = warm.reset_report()
        assert fresh is warm.report and fresh is not first
        warm.render("fig2")
        assert fresh.hits == 1 and fresh.misses == 0

    def test_seed_change_misses_the_store(self, cold, cache_dir):
        other = paper_pipeline(
            SEED + 1,
            store=ArtifactStore(cache_dir),
            tables=SnapshotConfig(seed=SEED + 1, harm_scale=0.2, bulk_scale=0.02),
            figures=SnapshotConfig(seed=SEED + 1, harm_scale=0.1, bulk_scale=0.04),
        )
        assert other.pipeline.fingerprint_of("fig2") != _assemble(
            cache_dir
        ).pipeline.fingerprint_of("fig2")


class TestCrossProcess:
    def test_second_process_loads_every_stage_from_disk(self, cold, cache_dir):
        """The acceptance bar: fingerprints are stable across processes,
        so ``psl-repro fig5 && psl-repro tab2`` share the sweep."""
        _, cold_outputs = cold
        script = textwrap.dedent(
            f"""
            import json
            from repro.analysis.pipeline import paper_pipeline
            from repro.pipeline import ArtifactStore
            from repro.webgraph.synthesis import SnapshotConfig

            paper = paper_pipeline(
                {SEED},
                store=ArtifactStore({cache_dir!r}),
                tables=SnapshotConfig(seed={SEED}, harm_scale=0.2, bulk_scale=0.02),
                figures=SnapshotConfig(seed={SEED}, harm_scale=0.1, bulk_scale=0.04),
            )
            outputs = {{name: paper.render(name) for name in ("fig5", "tab2")}}
            print(json.dumps({{
                "outputs": outputs,
                "computed": paper.report.computed_stages(),
                "disk": paper.report.count("disk"),
            }}))
            """
        )
        env = dict(os.environ, PYTHONPATH="src")
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            cwd="/root/repo",
            check=True,
        )
        payload = json.loads(result.stdout)
        assert payload["computed"] == []
        assert payload["disk"] >= 2
        assert payload["outputs"]["fig5"] == cold_outputs["fig5"]
        assert payload["outputs"]["tab2"] == cold_outputs["tab2"]


class TestDegradedSweep:
    def _degraded(self) -> SweepResult:
        report = ExecutionReport(
            total=4,
            executed=4,
            resumed=0,
            retried=(),
            quarantined=(TaskFailure(task_id="classify-3", attempts=3, error="boom"),),
            pool_rebuilds=1,
        )
        return SweepResult(
            points=(), total_hostnames=0, total_requests=0, failure_report=report
        )

    def test_degraded_sweep_is_observed_but_never_persisted(
        self, tmp_path, monkeypatch
    ):
        degraded = self._degraded()
        monkeypatch.setattr(
            "repro.analysis.context.run_sweep",
            lambda *args, **kwargs: degraded,
        )
        sink: list[SweepResult] = []
        sweep_stage = next(
            stage
            for stage in world_stages(
                SEED, TABLES_CFG, SweepSettings(on_result=sink.append)
            )
            if stage.name == "sweep"
        )
        dummies = [
            Stage(name="history", build=lambda i, c: None),
            Stage(name="snapshot", build=lambda i, c: None),
        ]
        pipeline = Pipeline(
            dummies + [sweep_stage], store=ArtifactStore(str(tmp_path))
        )
        assert pipeline.build("sweep") is degraded
        assert sink == [degraded]
        # A fresh process must recompute — the degraded artifact never
        # reached the disk layer.
        fresh = Pipeline(
            dummies + [sweep_stage], store=ArtifactStore(str(tmp_path))
        )
        fresh.build("sweep")
        assert "sweep" in fresh.report.computed_stages()
        assert sink == [degraded, degraded]


class TestContextSharing:
    def test_equal_configs_share_one_world(self, world):
        """Regression for the ``id(context)``-keyed sweep cache: equal
        configurations now share by fingerprint, not object identity."""
        clone = get_context(
            SEED, SnapshotConfig(seed=SEED, harm_scale=1.0, bulk_scale=0.1)
        )
        assert clone.stage_fingerprint("history") == world.stage_fingerprint("history")
        assert clone.store is world.store
        assert clone.corpus is world.corpus
        assert clone.sweep_result() is world.sweep_result()

    def test_different_configs_do_not_collide(self, world):
        other = get_context(
            SEED, SnapshotConfig(seed=SEED, harm_scale=0.5, bulk_scale=0.1)
        )
        assert other.stage_fingerprint("snapshot") != world.stage_fingerprint(
            "snapshot"
        )
        # history is snapshot-config independent: still shared.
        assert other.stage_fingerprint("history") == world.stage_fingerprint("history")


class TestCliCaching:
    def test_cache_dir_and_explain(self, tmp_path, monkeypatch, capsys):
        cache = tmp_path / "cache"
        cache.mkdir()
        monkeypatch.chdir(tmp_path)
        assert cli.main(["fig2", "--cache-dir", str(cache), "--explain"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out and "Pipeline report" in out
        assert (cache / "pipeline_report.json").exists()

        # A fresh process would build a fresh PaperPipeline; simulate by
        # clearing the memo and the memory layer is bypassed via a new
        # ArtifactStore inside _paper.
        monkeypatch.setattr(cli, "_PIPELINES", {})
        assert cli.main(["fig2", "--cache-dir", str(cache)]) == 0
        report = json.loads((cache / "pipeline_report.json").read_text())
        assert report["misses"] == 0 and report["hits"] == 1
        assert report["stages"][0]["stage"] == "fig2"
        assert report["stages"][0]["source"] == "disk"
