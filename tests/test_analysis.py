"""Tests for the analysis modules (Figures 2-4, Table 1, reports, CLI)."""

import pytest

from repro.analysis import age as age_mod
from repro.analysis import growth, popularity, report, taxonomy
from repro.analysis.cli import EXPERIMENTS, main
from repro.data import paper


class TestGrowth:
    def test_summary_checkpoints(self, store):
        summary = growth.summarize(store)
        assert summary.first_rule_count == paper.FIRST_RULE_COUNT
        assert summary.final_rule_count == paper.FINAL_RULE_COUNT
        assert summary.version_count == paper.HISTORY_VERSION_COUNT
        assert abs(summary.rule_count_2017 - paper.RULE_COUNT_2017) <= 25

    def test_spike_found(self, store):
        summary = growth.summarize(store)
        assert summary.largest_spike is not None
        assert summary.largest_spike[0].year == paper.JP_SPIKE_YEAR

    def test_yearly_points_one_per_year(self, store):
        points = growth.yearly_points(growth.figure2_series(store))
        years = [point.date.year for point in points]
        assert years == sorted(set(years))
        assert years[0] == 2007 and years[-1] == 2022


class TestTaxonomy:
    def test_matches_table1(self, corpus):
        result = taxonomy.table1(corpus)
        assert result.total == 273
        for strategy, subtypes in paper.TABLE1.items():
            total = sum(subtypes.values())
            assert result.count_of(strategy) == total, strategy
            for subtype, expected in subtypes.items():
                assert result.count_of(strategy, subtype) == expected, (strategy, subtype)

    def test_shares(self, corpus):
        result = taxonomy.table1(corpus)
        fixed = next(r for r in result.rows if r.strategy == "fixed" and r.subtype is None)
        assert round(fixed.share, 3) == round(68 / 273, 3)

    def test_count_of_missing_cell(self, corpus):
        assert taxonomy.table1(corpus).count_of("fixed", "nope") == 0


class TestAges:
    def test_medians(self, world):
        distributions = age_mod.age_distributions(world)
        assert distributions.median("fixed") == paper.MEDIAN_AGE_FIXED
        assert distributions.median("updated") == paper.MEDIAN_AGE_UPDATED
        assert distributions.median() == paper.MEDIAN_AGE_ALL

    def test_datable_counts(self, world):
        counts = age_mod.age_distributions(world).datable_counts()
        assert counts == {"fixed": 47, "updated": 23, "dependency": 81}

    def test_cdf_monotone(self, world):
        cdf = age_mod.age_distributions(world).cdf("fixed")
        fractions = [fraction for _, fraction in cdf]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0

    def test_median_of_unknown_strategy_raises(self, world):
        with pytest.raises(ValueError):
            age_mod.age_distributions(world).median("nope")


class TestPopularity:
    def test_pearson_basics(self):
        assert popularity.pearson([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
        assert popularity.pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_pearson_errors(self):
        with pytest.raises(ValueError):
            popularity.pearson([1], [2])
        with pytest.raises(ValueError):
            popularity.pearson([1, 1], [2, 3])

    def test_paper_claims(self, world):
        result = popularity.popularity(world)
        assert round(result.stars_forks_pearson, 2) == paper.STARS_FORKS_PEARSON
        assert result.production_star_median == 60
        assert result.production_500_plus == 5

    def test_scatter_covers_datable_fixed(self, world):
        result = popularity.popularity(world)
        assert len(result.points) == 47
        assert result.points[0].stars == max(point.stars for point in result.points)


class TestReports:
    def test_every_renderer_produces_text(self, world, sweep, harm_result):
        texts = [
            report.render_figure2(growth.summarize(world.store), growth.figure2_series(world.store)),
            report.render_table1(taxonomy.table1(world.corpus)),
            report.render_figure3(age_mod.age_distributions(world)),
            report.render_figure4(popularity.popularity(world)),
            report.render_figure5(sweep),
            report.render_figure6(sweep),
            report.render_figure7(sweep),
            report.render_table2(harm_result),
            report.render_table3(harm_result),
        ]
        for text in texts:
            assert isinstance(text, str) and len(text) > 50

    def test_table2_mentions_headline(self, harm_result):
        text = report.render_table2(harm_result)
        assert "1313 eTLDs" in text
        assert "50750 hostnames" in text

    def test_table1_layout(self, world):
        text = report.render_table1(taxonomy.table1(world.corpus))
        assert "Fixed" in text and "62.3%" in text


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_experiment_names_cover_paper(self):
        paper_ids = {"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
                     "tab1", "tab2", "tab3"}
        assert paper_ids <= set(EXPERIMENTS)
        extras = set(EXPERIMENTS) - paper_ids
        assert all(
            name.startswith("ext-") or name in ("export", "scorecard") for name in extras
        )

    def test_extension_updates_runs(self, capsys):
        assert main(["ext-updates"]) == 0
        assert "mean age" in capsys.readouterr().out

    def test_fig2_runs(self, capsys):
        assert main(["fig2"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(SystemExit):
            main(["fig2", "--resume"])

    def test_degraded_sweep_exits_nonzero_with_diagnosis(
        self, capsys, monkeypatch, tmp_path
    ):
        """A quarantined-chunk sweep must not print tables and exit 0."""
        from repro.analysis import cli
        from repro.analysis.boundaries import SweepResult
        from repro.runtime import ExecutionReport, TaskFailure

        report_obj = ExecutionReport(
            total=8,
            executed=8,
            resumed=0,
            retried=(),
            quarantined=(TaskFailure(task_id="classify-7", attempts=3, error="boom"),),
            pool_rebuilds=2,
        )
        degraded = SweepResult(
            points=(), total_hostnames=0, total_requests=0, failure_report=report_obj
        )

        def fake_experiment(seed: int) -> str:
            cli._SWEEP_SINK.append(degraded)  # what a computed sweep reports
            return "fake degraded output"

        monkeypatch.setattr(cli, "_SWEEP_SINK", [])
        monkeypatch.setitem(EXPERIMENTS, "ext-fake", ("fake", fake_experiment))
        monkeypatch.chdir(tmp_path)
        assert main(["ext-fake"]) == cli.EXIT_DEGRADED
        captured = capsys.readouterr()
        assert "fake degraded output" in captured.out
        assert "classify-7" in captured.err
        assert "sweep_failure_report.json" in captured.err
        assert (tmp_path / "sweep_failure_report.json").exists()
