"""Tests for Figure 1, the builder, and validation."""

import pytest

from repro.analysis.figure1 import (
    PAPER_HOSTNAMES,
    PAPER_V1_RULES,
    PAPER_V2_RULES,
    figure1,
    render_figure1,
)
from repro.psl.builder import PslBuilder
from repro.psl.errors import PslParseError
from repro.psl.parser import parse_psl
from repro.webgraph.archive import Snapshot
from repro.webgraph.records import Page
from repro.webgraph.validation import assert_valid, validate_snapshot


class TestFigure1:
    @pytest.fixture()
    def panels(self):
        return figure1(parse_psl(PAPER_V1_RULES), parse_psl(PAPER_V2_RULES))

    def test_paper_text_exactly(self, panels):
        """"PSL v1 creates 3 sites (with an average of 1.33 domains in
        each site), while PSL v2 creates 4 sites (with 1 domain in
        each)" — the paper's own sentence, computed."""
        v1, v2 = panels
        assert v1.site_count == 3
        assert round(v1.mean_domains_per_site, 2) == 1.33
        assert v2.site_count == 4
        assert v2.mean_domains_per_site == 1.0

    def test_v1_merges_the_example_hosts(self, panels):
        v1, _ = panels
        assert v1.sites["example.co.uk"] == (
            "good.example.co.uk", "bad.example.co.uk"
        )

    def test_v2_separates_them(self, panels):
        _, v2 = panels
        assert {"good.example.co.uk", "bad.example.co.uk"} <= set(v2.sites)

    def test_render(self, panels):
        text = render_figure1(panels)
        assert "PSL v1: 3 sites" in text
        assert "PSL v2: 4 sites" in text
        assert "bad.example.co.uk" in text

    def test_works_on_synthetic_history(self, store):
        old = store.checkout(0)
        new = store.checkout(-1)
        panels = figure1(old, new, ("a.myshopify.com", "b.myshopify.com"))
        assert panels[0].site_count == 1
        assert panels[1].site_count == 2

    def test_hostname_count_preserved(self, panels):
        assert panels[0].domain_count == len(PAPER_HOSTNAMES)


class TestPslBuilder:
    def test_fluent_construction(self):
        psl = (
            PslBuilder()
            .tld("com")
            .suffix("co.uk")
            .wildcard("ck", exceptions=["www"])
            .private_suffix("github.io")
            .build()
        )
        assert psl.public_suffix("x.co.uk") == "co.uk"
        assert psl.registrable_domain("www.ck") == "www.ck"

    def test_tld_rejects_multilabel(self):
        with pytest.raises(PslParseError):
            PslBuilder().tld("co.uk")

    def test_suffix_rejects_markers(self):
        with pytest.raises(PslParseError):
            PslBuilder().suffix("*.ck")

    def test_exception_requires_wildcard(self):
        with pytest.raises(PslParseError):
            PslBuilder().exception("www.ck")
        built = PslBuilder().wildcard("ck").exception("www.ck").build()
        assert built.registrable_domain("www.ck") == "www.ck"

    def test_rules_from(self, small_psl):
        grown = PslBuilder().rules_from(small_psl).tld("dev").build()
        assert len(grown) == len(small_psl) + 1

    def test_duplicates_collapse(self):
        psl = PslBuilder().tld("com").tld("com").build()
        assert len(psl) == 1

    def test_len_counts_pending_rules(self):
        builder = PslBuilder().tld("com").wildcard("ck", exceptions=["www"])
        assert len(builder) == 3


class TestSnapshotValidation:
    def test_synthesized_snapshot_is_clean(self, snapshot):
        assert validate_snapshot(snapshot) == []

    def test_invalid_hostname_reported(self):
        snap = Snapshot()
        snap.add_hostname("bad..name")
        issues = validate_snapshot(snap)
        assert issues and issues[0].kind == "invalid-hostname"

    def test_ip_literal_reported(self):
        snap = Snapshot()
        snap.add_hostname("192.168.0.1")
        assert validate_snapshot(snap)[0].kind == "ip-literal"

    def test_denormalized_reported(self):
        snap = Snapshot()
        snap.add_hostname("UPPER.example.com")
        assert validate_snapshot(snap)[0].kind == "denormalized-hostname"

    def test_duplicate_pages_reported(self):
        snap = Snapshot()
        snap.add_page(Page("a.com", ()))
        snap.add_page(Page("a.com", ("b.com",)))
        kinds = {issue.kind for issue in validate_snapshot(snap)}
        assert "duplicate-page" in kinds

    def test_limit_respected(self):
        snap = Snapshot()
        for index in range(20):
            snap.add_hostname(f"-bad{index}.example")
        assert len(validate_snapshot(snap, limit=5)) == 5

    def test_assert_valid_raises(self):
        snap = Snapshot()
        snap.add_hostname("192.168.0.1")
        with pytest.raises(ValueError):
            assert_valid(snap)

    def test_assert_valid_passes_clean(self, snapshot):
        assert_valid(snapshot)
