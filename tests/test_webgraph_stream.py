"""Tests for streaming site accounting."""

import pytest

from repro.webgraph.sites import group_sites, site_metrics
from repro.webgraph.stream import (
    LruDict,
    count_sites_streaming,
    count_third_party_streaming,
    iter_hostnames_from_jsonl,
)
from repro.webgraph.thirdparty import count_third_party


class TestCountSitesStreaming:
    def test_matches_in_memory(self, small_psl, snapshot):
        streamed = count_sites_streaming(small_psl, iter(snapshot.hostnames))
        assignment = group_sites(small_psl, snapshot.hostnames)
        metrics = site_metrics(assignment)
        assert streamed.sites == metrics.site_count
        assert streamed.hostnames == metrics.hostname_count

    def test_largest_site(self, small_psl):
        hosts = ["a.x.com", "b.x.com", "x.com", "solo.org"]
        streamed = count_sites_streaming(small_psl, hosts)
        assert streamed.largest_site == 3
        assert streamed.sites == 2

    def test_empty_stream(self, small_psl):
        streamed = count_sites_streaming(small_psl, iter(()))
        assert streamed.sites == 0 and streamed.largest_site == 0

    def test_duplicates_counted_per_occurrence(self, small_psl):
        streamed = count_sites_streaming(small_psl, ["a.com", "a.com"])
        assert streamed.hostnames == 2
        assert streamed.sites == 1


class TestMalformedStreams:
    """Graceful degradation: bad rows land in ``skipped``, not a traceback."""

    def test_malformed_hostnames_are_skipped_and_counted(self, small_psl):
        hosts = [
            "a.x.com",
            "",  # empty
            "bad..example",  # empty label
            "white space.com",  # embedded whitespace
            "b.x.com",
        ]
        streamed = count_sites_streaming(small_psl, hosts)
        assert streamed.hostnames == 2
        assert streamed.skipped == 3
        assert streamed.sites == 1

    def test_non_idna_hostname_is_skipped(self, small_psl):
        # A label that punycode-encodes past the 63-octet A-label limit.
        monster = "点" * 60 + ".example"
        streamed = count_sites_streaming(small_psl, ["ok.com", monster])
        assert streamed.hostnames == 1 and streamed.skipped == 1

    def test_clean_streams_report_zero_skipped(self, small_psl, snapshot):
        streamed = count_sites_streaming(small_psl, iter(snapshot.hostnames))
        assert streamed.skipped == 0

    def test_third_party_pairs_with_bad_endpoint_skipped(self, small_psl):
        pairs = [
            ("www.a.com", "cdn.a.com"),
            ("www.a.com", "broken..host"),
            ("", "t.ads.net"),
            ("www.a.com", "t.ads.net"),
        ]
        counts = count_third_party_streaming(small_psl, pairs)
        third, total = counts  # tuple unpacking stays supported
        assert (third, total) == (1, 2)
        assert counts.skipped == 2

    def test_third_party_result_fields(self, small_psl):
        counts = count_third_party_streaming(small_psl, [("a.com", "b.net")])
        assert counts.third_party == 1
        assert counts.total == 1
        assert counts.skipped == 0


class TestCountThirdPartyStreaming:
    def test_matches_in_memory(self, small_psl, snapshot):
        assignment = group_sites(small_psl, snapshot.hostnames)
        expected = count_third_party(assignment, snapshot)
        third, total = count_third_party_streaming(
            small_psl, snapshot.iter_request_pairs()
        )
        assert third == expected
        assert total == snapshot.request_count

    def test_simple_pairs(self, small_psl):
        pairs = [("www.a.com", "cdn.a.com"), ("www.a.com", "t.ads.net")]
        third, total = count_third_party_streaming(small_psl, pairs)
        assert (third, total) == (1, 2)


class TestJsonlStreaming:
    def test_roundtrip_through_file(self, small_psl, tmp_path, snapshot):
        path = tmp_path / "snap.jsonl"
        snapshot.dump_jsonl(str(path))
        # Stream with dedup, matching the snapshot's unique-host set.
        seen: set[str] = set()

        def unique():
            for host in iter_hostnames_from_jsonl(str(path)):
                if host not in seen:
                    seen.add(host)
                    yield host

        streamed = count_sites_streaming(small_psl, unique())
        assert streamed.hostnames == len(snapshot)
        metrics = site_metrics(group_sites(small_psl, snapshot.hostnames))
        assert streamed.sites == metrics.site_count


class TestLruDict:
    """The bounded memo behind ``count_third_party_streaming``."""

    def test_lru_eviction(self):
        lru: LruDict[str, int] = LruDict(2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("c", 3)  # evicts a, the least recently used
        assert "a" not in lru and lru.get("a") is None
        assert lru.get("b") == 2 and lru.get("c") == 3
        assert len(lru) == 2

    def test_move_to_end_on_hit(self):
        lru: LruDict[str, int] = LruDict(2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1  # refresh a; b becomes least recent
        lru.put("c", 3)  # evicts b, not a
        assert "b" not in lru
        assert "a" in lru and "c" in lru

    def test_put_refreshes_an_existing_key(self):
        lru: LruDict[str, int] = LruDict(2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("a", 10)  # overwrite refreshes a
        lru.put("c", 3)  # evicts b
        assert lru.get("a") == 10 and "b" not in lru

    def test_rejects_none(self):
        lru: LruDict[str, int] = LruDict(2)
        with pytest.raises(ValueError, match="miss sentinel"):
            lru.put("k", None)  # type: ignore[arg-type]
        assert len(lru) == 0

    def test_capacity_validated(self):
        for capacity in (0, -1):
            with pytest.raises(ValueError, match="capacity"):
                LruDict(capacity)
        assert LruDict(1).capacity == 1
