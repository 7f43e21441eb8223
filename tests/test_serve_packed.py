"""The packed zero-copy snapshot path through the serving layer.

``tests/test_psl_packed.py`` proves the encoding itself is
bit-faithful; this file proves the *serving* integration is: a
:class:`~repro.serve.snapshots.SnapshotRegistry` over a
:class:`~repro.psl.packed.PackedHistory` must answer exactly like the
dict-trie oracle ``VersionStore.checkout(v).match``, account for its
memory honestly, expose that accounting on ``/metrics``, and never let
the shared buffer be torn down while snapshots still view it.
"""

from __future__ import annotations

import datetime
import gc
import threading

import pytest

from repro.psl.diff import RuleDelta
from repro.psl.packed import (
    PackedBufferInUseError,
    PackedFormatError,
    PackedHistory,
    pack_history,
    pack_rules,
)
from repro.psl.rules import Rule
from repro.serve.engine import QueryEngine
from repro.serve.http import PslServer
from repro.serve.snapshots import PslSnapshot, SnapshotRegistry

from tests.test_serve_snapshots import make_registry, make_store

HOSTS = [
    "www.example.co.uk",
    "example.co.uk",
    "co.uk",
    "alice.github.io",
    "github.io",
    "deep.a.b.example.com",
    "foo.bar.kawasaki.jp",
    "city.kawasaki.jp",
    "sub.city.kawasaki.jp",
    "unlisted.zz",
]


@pytest.fixture()
def store():
    return make_store()


class TestPackedParity:
    def test_registry_answers_match_dict_registry(self, store):
        """Every version answers like the dict trie ``checkout`` builds."""
        for backend in ("self-packed", "packed"):
            registry = make_registry(store, backend)
            for index in range(len(store)):
                reference = store.checkout(index)
                candidate = registry.resident(index)
                assert candidate.fingerprint == reference.fingerprint
                for host in HOSTS:
                    assert candidate.match(host) == reference.match(host), (backend, index, host)

    def test_describe_marks_the_backend(self, store, tmp_path):
        in_heap = make_registry(store, "packed")
        assert in_heap.active.describe()["mmap_shared"] is False
        path = tmp_path / "history.pslpak"
        path.write_bytes(pack_history(store))
        mapped = SnapshotRegistry(store, packed=PackedHistory.load(path))
        assert mapped.active.describe()["mmap_shared"] is True

    def test_engine_parity_without_cache(self, store):
        """Every engine walk is uncached and answers like the dict oracle."""
        engine = QueryEngine(make_registry(store, "packed"), cache_capacity=0)
        latest = store.checkout(-1)
        for host in HOSTS:
            expected = latest.match(host)
            got = engine.site(host)
            assert got.site == expected.site
            assert got.public_suffix == expected.public_suffix
            assert got.registrable_domain == expected.registrable_domain
        for old in range(len(store)):
            oracle = store.checkout(old)
            for host in HOSTS:
                probe = engine.compare(host, old)
                assert probe.old.site == oracle.match(host).site, (old, host)
                assert probe.diverges == (oracle.match(host).site != latest.match(host).site)


class TestNoCacheMode:
    def test_cache_capacity_accepts_only_zero(self, store):
        registry = make_registry(store, "packed")
        QueryEngine(registry, cache_capacity=0)
        for capacity in (1, 65_536, -1):
            with pytest.raises(ValueError, match="cache_capacity"):
                QueryEngine(registry, cache_capacity=capacity)

    def test_batch_answers_are_never_cached(self, store, monkeypatch):
        engine = QueryEngine(make_registry(store, "packed"), cache_capacity=0)
        walks = []
        match = PslSnapshot.match
        monkeypatch.setattr(
            PslSnapshot, "match", lambda self, host: walks.append(host) or match(self, host)
        )
        answer = engine.batch(HOSTS * 2)
        assert len(walks) == 2 * len(HOSTS)  # a repeated host walks again
        assert all("cached" not in item.to_json() for item in answer.answers)


class TestMemoryAccounting:
    def test_packed_registry_accounts_slices_plus_shared_once(self, store):
        registry = make_registry(store, "packed", resident_capacity=len(store))
        for index in range(len(store)):
            registry.resident(index)
        packed = registry.packed_history
        accounting = registry.memory_accounting()
        slices = sum(packed.version_bytes(i) for i in range(len(store)))
        assert accounting.shared_bytes == packed.shared_bytes
        assert accounting.packed_bytes == slices + packed.shared_bytes
        assert accounting.dict_bytes_estimate > 0
        assert len(accounting.versions) == len(store)
        for row in accounting.versions:
            assert row["packed_mmap_shared"] is False  # in-heap buffer
            assert row["resident_bytes"] == packed.version_bytes(row["index"])
            assert row["dict_bytes_estimate"] > row["resident_bytes"]

    def test_ingested_version_accounts_its_whole_buffer(self, store):
        registry = make_registry(store, "self-packed", resident_capacity=len(store) + 1)
        added = frozenset({Rule.parse("dev")})
        registry.ingest(datetime.date(2023, 1, 1), RuleDelta(added=added, removed=frozenset()))
        accounting = registry.memory_accounting()
        rows = {row["index"]: row for row in accounting.versions}
        assert rows[3]["resident_bytes"] == len(pack_rules(store.rules_at(3)))
        assert accounting.packed_bytes == accounting.shared_bytes + sum(
            row["resident_bytes"] for row in accounting.versions
        )

    def test_eviction_shrinks_the_packed_total(self, store):
        registry = make_registry(store, "packed", resident_capacity=1)
        registry.resident(0)  # evicted immediately: capacity 1, active pinned
        accounting = registry.memory_accounting()
        resident = [row["index"] for row in accounting.versions]
        assert len(resident) == 1 and resident[0] == registry.active.index


class TestBufferLifecycle:
    """Safe-unmap: only mmap-backed buffers can refuse a close.

    An in-heap ``bytes`` buffer releases safely under live views (the
    views themselves keep the bytes object alive), so the refusal
    contract is exercised through :meth:`PackedHistory.load`.
    """

    @pytest.fixture()
    def mapped(self, store, tmp_path):
        path = tmp_path / "history.pslpak"
        path.write_bytes(pack_history(store))
        return PackedHistory.load(path)

    def test_close_refused_while_registry_views_live(self, store, mapped):
        registry = SnapshotRegistry(store, packed=mapped)
        assert mapped.mmap_shared is True
        with pytest.raises(PackedBufferInUseError):
            mapped.close()
        # The refusal must leave the history fully usable.
        snapshot = registry.resident(0)
        assert snapshot.match("www.example.co.uk").site == "co.uk"

    def test_close_succeeds_after_registry_dropped(self, store, mapped):
        registry = SnapshotRegistry(store, packed=mapped)
        registry.resident(0)
        del registry
        gc.collect()
        mapped.close()
        with pytest.raises(PackedFormatError, match="closed"):
            mapped.trie(0)

    def test_in_heap_buffer_close_is_always_safe(self, store):
        packed = PackedHistory.from_buffer(pack_history(store))
        registry = SnapshotRegistry(store, packed=packed)
        snapshot = registry.active
        packed.close()  # no mmap to refuse; outstanding views stay valid
        assert snapshot.match("www.example.co.uk").site == "example.co.uk"
        with pytest.raises(PackedFormatError, match="closed"):
            packed.trie(0)


class TestMetricsExposure:
    def _scrape(self, registry) -> str:
        engine = QueryEngine(registry, cache_capacity=0)
        server = PslServer(("127.0.0.1", 0), registry, engine=engine, max_inflight=8)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            import urllib.request

            with urllib.request.urlopen(server.url + "/metrics", timeout=10) as resp:
                return resp.read().decode()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    @staticmethod
    def _value(text: str, name: str) -> float:
        for line in text.splitlines():
            if line.startswith(name + " "):
                return float(line.rsplit(" ", 1)[1])
        raise AssertionError(f"{name} not exposed:\n{text}")

    def test_packed_registry_exports_memory_gauges(self, store):
        registry = make_registry(store, "packed")
        text = self._scrape(registry)
        packed = registry.packed_history
        assert self._value(text, "psl_serve_resident_packed_bytes") >= packed.shared_bytes
        assert self._value(text, "psl_serve_resident_dict_bytes_estimate") > 0
        # The dict-trie and per-hostname cache gauges are gone with their backends.
        assert "psl_serve_resident_dict_bytes " not in text
        assert "psl_serve_cache_" not in text
        active = registry.active.index
        assert (
            f'psl_serve_snapshot_packed_mmap_shared{{version="{active}"}} 0' in text
        )
