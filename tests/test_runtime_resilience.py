"""The resilient runtime under injected faults.

Every failure mode the runtime claims to survive is driven here
through the deterministic fault harness (:mod:`repro.runtime.faults`):

* worker crash -> bounded retry -> results identical to fault-free;
* abrupt worker death -> ``BrokenProcessPool`` -> pool rebuild, only
  unfinished tasks resubmitted;
* hang -> per-task timeout -> workers killed, task retried;
* poisoned task -> quarantine after a final serial in-process attempt,
  with its identity in the report instead of a sunk run;
* kill mid-run -> checkpoint/resume re-executes only unfinished chunks
  and matches an uninterrupted run bit for bit.
"""

import datetime
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.history.store import VersionStore
from repro.psl.rules import Rule
from repro.runtime import (
    ALWAYS,
    CheckpointStore,
    CorruptResult,
    Fault,
    FaultKind,
    FaultPlan,
    MISSING,
    ResilientExecutor,
    RetryPolicy,
)
from repro.sweep import SweepEngine

FAST = RetryPolicy(max_attempts=3, backoff_base=0.0)


def _square(task):
    return task * task


def _make_world(versions=10):
    """A small deterministic store + universe for engine-level tests."""
    store = VersionStore(snapshot_interval=8)
    day = datetime.date(2016, 1, 1)
    store.commit_rules(day, added=[Rule.parse("com"), Rule.parse("net")])
    extras = ["example", "pq.com", "*.tt.net", "!a.tt.net", "rs.com", "org", "io", "co"]
    for index in range(versions - 1):
        day += datetime.timedelta(days=7)
        rule = Rule.parse(extras[index % len(extras)])
        if index < len(extras):
            store.commit_rules(day, added=[rule])
        else:
            store.commit_rules(day, removed=[rule])
    hostnames = (
        [f"h{i}.pq.com" for i in range(16)]
        + [f"x{i}.tt.net" for i in range(16)]
        + [f"z{i}.example" for i in range(16)]
    )
    pairs = list(zip(hostnames, hostnames[1:] + hostnames[:1]))
    return store, hostnames, pairs


# -- executor unit tests ------------------------------------------------------


class TestExecutorBasics:
    def test_empty_task_list_short_circuits(self):
        results, report = ResilientExecutor(workers=4, policy=FAST).run(_square, [])
        assert results == []
        assert report.total == 0 and not report.degraded

    def test_serial_map_semantics(self):
        results, report = ResilientExecutor(policy=FAST).run(_square, [1, 2, 3])
        assert results == [1, 4, 9]
        assert report.executed == 3 and report.retried == ()

    def test_rejects_misaligned_or_duplicate_ids(self):
        executor = ResilientExecutor(policy=FAST)
        with pytest.raises(ValueError):
            executor.run(_square, [1, 2], task_ids=["a"])
        with pytest.raises(ValueError):
            executor.run(_square, [1, 2], task_ids=["a", "a"])

    def test_crash_fault_is_retried_serially(self):
        plan = FaultPlan({"1": Fault(FaultKind.CRASH, attempts=2)})
        results, report = ResilientExecutor(policy=FAST, fault_plan=plan).run(
            _square, [5, 6, 7]
        )
        assert results == [25, 36, 49]
        assert report.retried == ("1",) and not report.degraded

    def test_poisoned_task_is_quarantined_serially(self):
        plan = FaultPlan({"0": Fault(FaultKind.CRASH, attempts=ALWAYS)})
        results, report = ResilientExecutor(policy=FAST, fault_plan=plan).run(
            _square, [5, 6, 7]
        )
        assert results == [None, 36, 49]
        assert report.degraded and report.quarantined_ids == ("0",)
        assert report.quarantined[0].attempts == FAST.max_attempts
        assert "injected crash" in report.quarantined[0].error

    def test_corrupt_result_is_rejected_then_retried(self):
        plan = FaultPlan({"2": Fault(FaultKind.CORRUPT, attempts=1)})
        results, report = ResilientExecutor(policy=FAST, fault_plan=plan).run(
            _square, [1, 2, 3]
        )
        assert results == [1, 4, 9]  # the CorruptResult never reaches the caller
        assert report.retried == ("2",)

    def test_validator_failures_are_retryable(self):
        plan = FaultPlan({"0": Fault(FaultKind.CORRUPT, attempts=ALWAYS)})
        results, report = ResilientExecutor(policy=FAST, fault_plan=plan).run(
            _square, [4], task_ids=["0"], validate=lambda value: value == 16
        )
        assert results == [None] and report.degraded

    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(max_attempts=5, backoff_base=0.1, backoff_cap=0.3)
        assert policy.backoff(1) == 0.0
        assert policy.backoff(2) == pytest.approx(0.1)
        assert policy.backoff(3) == pytest.approx(0.2)
        assert policy.backoff(5) == pytest.approx(0.3)  # capped

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(task_timeout=0)
        with pytest.raises(ValueError):
            ResilientExecutor(workers=0)


class TestExecutorPool:
    def test_pool_crash_retry_identical(self):
        plan = FaultPlan({"3": Fault(FaultKind.CRASH, attempts=2)})
        tasks = list(range(8))
        clean, _ = ResilientExecutor(workers=2, policy=FAST).run(_square, tasks)
        faulty, report = ResilientExecutor(workers=2, policy=FAST, fault_plan=plan).run(
            _square, tasks
        )
        assert faulty == clean == [t * t for t in tasks]
        assert "3" in report.retried and not report.degraded

    def test_broken_pool_is_rebuilt_and_only_unfinished_resubmitted(self):
        plan = FaultPlan({"1": Fault(FaultKind.WORKER_EXIT, attempts=1)})
        tasks = list(range(6))
        results, report = ResilientExecutor(workers=2, policy=FAST, fault_plan=plan).run(
            _square, tasks
        )
        assert results == [t * t for t in tasks]
        assert report.pool_rebuilds >= 1 and not report.degraded

    def test_always_dying_worker_ends_in_quarantine_not_crash(self):
        plan = FaultPlan({"0": Fault(FaultKind.WORKER_EXIT, attempts=ALWAYS)})
        tasks = list(range(5))
        results, report = ResilientExecutor(workers=2, policy=FAST, fault_plan=plan).run(
            _square, tasks
        )
        # In-process the fault degrades to a raise, so the final serial
        # attempt fails too and the task is excluded cleanly.
        assert results == [None, 1, 4, 9, 16]
        assert report.quarantined_ids == ("0",)

    def test_hang_is_timed_out_killed_and_retried(self):
        plan = FaultPlan({"2": Fault(FaultKind.HANG, attempts=1, hang_seconds=30.0)})
        policy = RetryPolicy(max_attempts=3, backoff_base=0.0, task_timeout=0.4)
        begin = time.monotonic()
        results, report = ResilientExecutor(workers=2, policy=policy, fault_plan=plan).run(
            _square, [1, 2, 3, 4]
        )
        elapsed = time.monotonic() - begin
        assert results == [1, 4, 9, 16]
        assert report.pool_rebuilds >= 1
        assert elapsed < 10.0  # the 30s hang did not run to completion

    def test_innocent_neighbours_survive_a_poisoned_pool_mate(self):
        plan = FaultPlan({"4": Fault(FaultKind.WORKER_EXIT, attempts=ALWAYS)})
        tasks = list(range(9))
        results, report = ResilientExecutor(workers=3, policy=FAST, fault_plan=plan).run(
            _square, tasks
        )
        assert report.quarantined_ids == ("4",)
        assert [results[i] for i in range(9) if i != 4] == [
            i * i for i in range(9) if i != 4
        ]


class TestCheckpointStore:
    def test_save_load_roundtrip_and_missing(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("host-1", {"sites": 3})
        assert store.load("host-1") == {"sites": 3}
        assert store.load("host-2") is MISSING
        assert store.completed_count() == 1

    def test_reconcile_clears_on_fingerprint_change(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.reconcile("abc")
        store.save("t", 1)
        store.reconcile("abc")
        assert store.load("t") == 1  # same run shape: spills survive
        store.reconcile("def")
        assert store.load("t") is MISSING  # different shape: wiped

    def test_reconcile_without_resume_always_clears(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.reconcile("abc")
        store.save("t", 1)
        store.reconcile("abc", resume=False)
        assert store.load("t") is MISSING

    def test_truncated_spill_reads_as_missing(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("t", [1, 2, 3])
        path = store._task_path("t")
        with open(path, "r+b") as handle:
            handle.truncate(3)
        assert store.load("t") is MISSING

    def test_corrupt_checkpoint_payload_is_not_resumed(self, tmp_path):
        checkpoint = CheckpointStore(str(tmp_path))
        checkpoint.save("0", CorruptResult(task_id="0", attempt=1))
        executor = ResilientExecutor(policy=FAST, checkpoint=checkpoint)
        results, report = executor.run(_square, [7], task_ids=["0"])
        assert results == [49]
        assert report.resumed == 0 and report.executed == 1

    def test_executor_resumes_completed_tasks(self, tmp_path):
        checkpoint = CheckpointStore(str(tmp_path))
        executor = ResilientExecutor(policy=FAST, checkpoint=checkpoint)
        first, report_first = executor.run(_square, [2, 3], task_ids=["a", "b"])
        assert report_first.executed == 2
        again, report_again = ResilientExecutor(
            policy=FAST,
            checkpoint=CheckpointStore(str(tmp_path)),
            # A plan that would poison both tasks proves they never re-run.
            fault_plan=FaultPlan(
                {
                    "a": Fault(FaultKind.CRASH, attempts=ALWAYS),
                    "b": Fault(FaultKind.CRASH, attempts=ALWAYS),
                }
            ),
        ).run(_square, [2, 3], task_ids=["a", "b"])
        assert again == first == [4, 9]
        assert report_again.resumed == 2 and report_again.executed == 0


class TestAtomicWrite:
    WRITER = (
        "import os, sys, time\n"
        "from repro.runtime import atomic_write_bytes\n"
        "path, fill, go = sys.argv[1], int(sys.argv[2]), sys.argv[3]\n"
        "payload = bytes([fill]) * (1 << 20)\n"
        "while not os.path.exists(go):\n"
        "    time.sleep(0.001)\n"
        "for _ in range(100):\n"
        "    atomic_write_bytes(path, payload)\n"
    )

    def test_two_processes_writing_one_path_never_crash(self, tmp_path):
        """Two CLIs sharing a cache dir write the same artifact at once.

        With one fixed temp name per path, one writer's ``os.replace``
        found its temp file already renamed by the other and raised
        ``FileNotFoundError``.
        """
        path, go = tmp_path / "artifact.bin", tmp_path / "go"
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", self.WRITER, str(path), str(fill), str(go)],
                env=env,
                stderr=subprocess.PIPE,
            )
            for fill in (1, 2)
        ]
        time.sleep(0.2)  # both interpreters up before the race starts
        go.touch()
        failures = [w.stderr.read().decode()[-300:] for w in writers if w.wait(timeout=120)]
        assert failures == []
        assert path.read_bytes() in (b"\x01" * (1 << 20), b"\x02" * (1 << 20))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.bin", "go"]

    def test_failed_replace_removes_its_temp_file(self, tmp_path, monkeypatch):
        from repro.runtime import atomic_write_bytes

        path = tmp_path / "artifact.bin"
        path.write_bytes(b"last good")

        def refuse(source, target):
            raise OSError("disk went away")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk went away"):
            atomic_write_bytes(str(path), b"new")
        assert path.read_bytes() == b"last good"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.bin"]

    def test_clear_removes_spill_temp_files(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("t", 1)
        spill = store._task_path("t")
        for leftover in (spill + ".0123456789abcdef.tmp", spill + ".tmp"):
            open(leftover, "wb").close()
        store.clear()
        assert sorted(os.listdir(tmp_path)) == []


# -- engine-level resilience --------------------------------------------------


class TestEngineResilience:
    def test_fault_free_runtime_identical_to_raw_serial(self, tmp_path):
        """The runtime adds nothing to the numbers: the same kernel
        tasks run by a plain loop and merged give the identical series."""
        from repro.classify.columnar import universe_chunks
        from repro.classify.engine import ClassifyEngine
        from repro.classify.partials import classify_chunk

        store, hostnames, pairs = _make_world()
        resilient = SweepEngine(store, chunk_size=8).sweep(hostnames, pairs)
        engine = ClassifyEngine(
            store, version_indexes=range(len(store)), run_dir=str(tmp_path)
        )
        tasks = engine.tasks(universe_chunks(hostnames, pairs, 8))
        rows = engine.merge([classify_chunk(task) for task in tasks])
        assert resilient.site_counts == tuple(row.sites.sites for row in rows)
        assert resilient.third_party == tuple(row.third_party.third_party for row in rows)
        assert resilient.divergence == tuple(row.misclassified_hostnames for row in rows)

    def test_crashing_worker_sweep_identical_to_serial(self):
        store, hostnames, pairs = _make_world()
        serial = SweepEngine(store).sweep(hostnames, pairs)
        plan = FaultPlan(
            {
                "classify-0": Fault(FaultKind.CRASH, attempts=1),
                "classify-1": Fault(FaultKind.WORKER_EXIT, attempts=1),
            }
        )
        engine = SweepEngine(store, workers=2, chunk_size=8, fault_plan=plan, policy=FAST)
        assert engine.sweep(hostnames, pairs) == serial
        report = engine.last_report
        assert not report.degraded and report.pool_rebuilds >= 1

    def test_poisoned_chunk_is_quarantined_and_enumerated(self):
        store, hostnames, pairs = _make_world()
        plan = FaultPlan({"classify-1": Fault(FaultKind.CRASH, attempts=ALWAYS)})
        engine = SweepEngine(store, workers=2, chunk_size=8, fault_plan=plan, policy=FAST)
        degraded = engine.sweep(hostnames, pairs)
        report = engine.last_report
        assert report.degraded
        assert report.quarantined_ids == ("classify-1",)
        assert degraded.hostname_count == len(hostnames) - 8
        assert "classify-1" in report.summary()
        # The degraded series equals a serial sweep over the universe
        # minus exactly the quarantined chunk's hostnames and the
        # requests made from its pages.
        lost = set(hostnames[8:16])
        surviving = [host for host in hostnames if host not in lost]
        expected = SweepEngine(store).sweep(
            surviving, [pair for pair in pairs if pair[0] not in lost]
        )
        assert degraded == expected

    def test_quarantine_report_serializes(self):
        store, hostnames, pairs = _make_world()
        plan = FaultPlan({"classify-0": Fault(FaultKind.CRASH, attempts=ALWAYS)})
        engine = SweepEngine(store, chunk_size=16, fault_plan=plan, policy=FAST)
        engine.sweep(hostnames, pairs)
        payload = engine.last_report.to_json()
        assert payload["degraded"] is True
        assert payload["quarantined_chunks"] == ["classify-0"]
        assert payload["failures"][0]["task_id"] == "classify-0"

    def test_resume_reexecutes_only_unfinished_chunks(self, tmp_path):
        store, hostnames, pairs = _make_world()
        serial = SweepEngine(store).sweep(hostnames, pairs)
        poison = FaultPlan({"classify-2": Fault(FaultKind.CRASH, attempts=ALWAYS)})
        first = SweepEngine(
            store,
            chunk_size=8,
            checkpoint_dir=str(tmp_path),
            fault_plan=poison,
            policy=FAST,
        )
        first.sweep(hostnames, pairs)
        assert first.last_report.degraded

        resumed_engine = SweepEngine(store, chunk_size=8, checkpoint_dir=str(tmp_path))
        resumed = resumed_engine.sweep(hostnames, pairs)
        report = resumed_engine.last_report
        assert resumed == serial
        assert report.executed == 1  # only the formerly-poisoned chunk
        assert report.resumed == report.total - 1

    def test_checkpoints_from_another_sweep_shape_are_not_reused(self, tmp_path):
        store, hostnames, pairs = _make_world()
        engine = SweepEngine(store, chunk_size=8, checkpoint_dir=str(tmp_path))
        engine.sweep(hostnames, pairs)
        other = SweepEngine(store, chunk_size=16, checkpoint_dir=str(tmp_path))
        other.sweep(hostnames, pairs)
        assert other.last_report.resumed == 0


class TestKillAndResume:
    def test_sigkill_mid_sweep_then_resume_matches_uninterrupted(self, tmp_path):
        """The acceptance scenario: a sweep killed mid-run resumes from
        its checkpoints and ends bit-identical to an uninterrupted run.

        The child sweeps serially with a 60s hang injected on the 4th
        chunk, so the kill deterministically lands after chunks 0-2
        have been checkpointed and before anything later completes.
        """
        store, hostnames, pairs = _make_world()
        serial = SweepEngine(store).sweep(hostnames, pairs)
        checkpoint_dir = str(tmp_path / "spill")
        ledger = os.path.join(checkpoint_dir, "checkpoints")
        script = f"""
import datetime
import sys
sys.path.insert(0, {os.path.join(os.path.dirname(__file__), os.pardir, "src")!r})
sys.path.insert(0, {os.path.join(os.path.dirname(__file__), os.pardir)!r})
from tests.test_runtime_resilience import _make_world
from repro.runtime import Fault, FaultKind, FaultPlan
from repro.sweep import SweepEngine

store, hostnames, pairs = _make_world()
plan = FaultPlan({{"classify-3": Fault(FaultKind.HANG, attempts=1, hang_seconds=60.0)}})
engine = SweepEngine(store, chunk_size=8, checkpoint_dir={checkpoint_dir!r}, fault_plan=plan)
engine.sweep(hostnames, pairs)
"""
        child = subprocess.Popen([sys.executable, "-c", script])
        try:
            deadline = time.monotonic() + 60
            spilled = 0
            while time.monotonic() < deadline:
                if os.path.isdir(ledger):
                    spilled = sum(1 for name in os.listdir(ledger) if name.endswith(".pkl"))
                    if spilled >= 3:
                        break
                time.sleep(0.05)
            assert spilled >= 3, "child never reached the hang point"
        finally:
            child.kill()
            child.wait()

        resumed_engine = SweepEngine(store, chunk_size=8, checkpoint_dir=checkpoint_dir)
        resumed = resumed_engine.sweep(hostnames, pairs)
        report = resumed_engine.last_report
        assert resumed == serial
        assert report.resumed >= 3
        assert report.executed == report.total - report.resumed
        assert not report.degraded
