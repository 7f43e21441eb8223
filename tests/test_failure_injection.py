"""Failure-injection tests: the misuse modes the paper documents.

The paper catalogues ways projects get the PSL wrong — silent
update failures that fall back to stale copies, vendoring only the
ICANN division, permissive parsers that drop rules silently.  These
tests drive each failure through the pipeline and check that the
library's behaviour is the *safe* counterpart (loud errors, measurable
drift) rather than the silent one.
"""

import datetime

import pytest

from repro.data import paper
from repro.psl.errors import PslParseError
from repro.psl.parser import parse_psl
from repro.psl.rules import Section
from repro.psl.serialize import serialize_psl, serialize_rules
from repro.psltool.doctor import diagnose
from repro.psltool.scanner import FoundList
from repro.repos.dating import date_list_text, strip_private_division


class TestMalformedLists:
    def test_strict_parse_is_loud(self):
        with pytest.raises(PslParseError):
            parse_psl("com\n!!broken!!\n")

    def test_lenient_parse_measurably_drops(self):
        strict_psl = parse_psl("com\nnet\n")
        lenient = parse_psl("com\n!!broken!!\nnet\n", strict=False)
        assert len(lenient) == len(strict_psl)

    def test_truncated_download_changes_fingerprint(self, small_psl):
        text = serialize_psl(small_psl)
        truncated = text[: len(text) // 2]
        partial = parse_psl(truncated, strict=False)
        assert partial.fingerprint != small_psl.fingerprint

    def test_html_error_page_yields_empty_not_garbage(self):
        html = "<html><body><h1>503 Service Unavailable</h1></body></html>"
        psl = parse_psl(html, strict=False)
        assert len(psl) == 0


class TestUpdateFallback:
    def test_stale_fallback_detected_by_doctor(self, store, world):
        """The 'updated' strategy's failure mode: the fetch fails and
        the app silently uses the bundled copy.  The doctor quantifies
        exactly what that costs."""
        fallback_date = paper.MEASUREMENT_DATE - datetime.timedelta(days=915)
        version = store.version_at_date(fallback_date)
        text = serialize_rules(store.rules_at(version.index))
        report = diagnose(store, FoundList("bundled.dat", text, "filename", 9000), dater=world.dater)
        assert report.age_days == 915
        assert report.missing_rules > 0
        assert report.risk in ("high", "critical")


class TestIcannOnlyVendors:
    def test_stripped_list_loses_private_protections(self, store):
        latest = serialize_rules(store.rules_at(-1))
        stripped = parse_psl(strip_private_division(latest))
        assert not stripped.rules_in_section(Section.PRIVATE)
        # The flagship harm: tenants collapse into one site.
        assert stripped.same_site("a.myshopify.com", "b.myshopify.com")

    def test_stripped_list_is_not_exact_datable(self, store):
        latest = serialize_rules(store.rules_at(-1))
        result = date_list_text(store, strip_private_division(latest))
        assert result is None or not result.is_exact

    def test_doctor_flags_stripped_list(self, store, world):
        latest = serialize_rules(store.rules_at(-1))
        found = FoundList("icann.dat", strip_private_division(latest), "filename", 7000)
        report = diagnose(store, found, dater=world.dater)
        assert report.missing_private_rules > 1000


class TestCorruptedVendorCopies:
    def test_locally_modified_copy_dated_nearest(self, store, world):
        version = store.version_at_date(paper.MEASUREMENT_DATE - datetime.timedelta(days=400))
        text = serialize_rules(store.rules_at(version.index)) + "my-company-internal.example\n"
        result = world.dater.date_text(text)
        assert result is not None
        assert not result.is_exact
        assert result.confidence > 0.99
        assert abs(result.version_index - version.index) <= 8

    def test_duplicated_lines_do_not_skew_dating(self, store, world):
        version = store.version_at_date(paper.MEASUREMENT_DATE - datetime.timedelta(days=400))
        text = serialize_rules(store.rules_at(version.index))
        doubled = text + "\n" + "\n".join(text.splitlines()[-50:])
        result = world.dater.date_text(doubled)
        assert result is not None and result.is_exact
        assert result.version_index == version.index


class TestSweepWorkerFailures:
    """Failure injection one layer down: the sweep's task runtime.

    The deeper matrix (timeouts, pool rebuilds, kill-and-resume) lives
    in test_runtime_resilience.py; these pin the safe-counterpart
    behaviours — a crash is a retry, a poisoned chunk is a loud
    quarantine entry, never a silently wrong series.
    """

    def _world(self):
        from tests.test_runtime_resilience import _make_world

        return _make_world()

    def test_worker_crash_retry_yields_identical_results(self):
        from repro.runtime import Fault, FaultKind, FaultPlan, RetryPolicy
        from repro.sweep import SweepEngine

        store, hostnames, pairs = self._world()
        serial = SweepEngine(store).sweep(hostnames, pairs)
        plan = FaultPlan({"classify-2": Fault(FaultKind.CRASH, attempts=2)})
        engine = SweepEngine(
            store,
            workers=2,
            chunk_size=8,
            fault_plan=plan,
            policy=RetryPolicy(backoff_base=0.0),
        )
        assert engine.sweep(hostnames, pairs) == serial
        report = engine.last_report
        assert "classify-2" in report.retried and not report.degraded

    def test_poisoned_chunk_is_enumerated_not_silent(self):
        from repro.runtime import ALWAYS, Fault, FaultKind, FaultPlan, RetryPolicy
        from repro.sweep import SweepEngine

        store, hostnames, pairs = self._world()
        plan = FaultPlan({"classify-0": Fault(FaultKind.CRASH, attempts=ALWAYS)})
        engine = SweepEngine(
            store,
            workers=2,
            chunk_size=8,
            fault_plan=plan,
            policy=RetryPolicy(backoff_base=0.0),
        )
        series = engine.sweep(hostnames, pairs)
        report = engine.last_report
        assert report.degraded
        assert report.quarantined_ids == ("classify-0",)
        assert series.hostname_count == len(hostnames) - 8
        assert "degraded" in report.summary()

    def test_corrupt_partial_never_reaches_the_merge(self):
        from repro.runtime import Fault, FaultKind, FaultPlan, RetryPolicy
        from repro.sweep import SweepEngine

        store, hostnames, pairs = self._world()
        serial = SweepEngine(store).sweep(hostnames, pairs)
        plan = FaultPlan({"classify-0": Fault(FaultKind.CORRUPT, attempts=1)})
        engine = SweepEngine(
            store,
            chunk_size=16,
            fault_plan=plan,
            policy=RetryPolicy(backoff_base=0.0),
        )
        assert engine.sweep(hostnames, pairs) == serial
        assert engine.last_report.retried == ("classify-0",)


class TestWrongListVariant:
    def test_word_list_is_rejected_by_scanner(self):
        from repro.psltool.scanner import looks_like_psl

        words = "\n".join(f"syllable{i}" for i in range(500))
        assert looks_like_psl(words) == (False, 0)

    def test_adblock_filter_list_not_mistaken_for_psl(self):
        from repro.psltool.scanner import looks_like_psl

        filters = "\n".join(f"||ads{i}.example.com^$third-party" for i in range(200))
        assert looks_like_psl(filters) == (False, 0)
