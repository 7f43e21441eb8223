"""Shared plumbing for the benchmark workloads: host record, memory, stats."""

from __future__ import annotations

import os
import pickle
import platform
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Any, BinaryIO

HERE = os.path.dirname(os.path.abspath(__file__))
_FRAME = struct.Struct("<Q")

#: Every scratch file a run writes lives under this directory of the
#: checkout (listed in .gitignore) and is removed when the run ends;
#: traced runs keep their span files under ``traces/`` for summarize.
WORK_ROOT = ".perfbench"

#: The world every workload serves, classifies or reproduces: the
#: paper's calibrated seed (the default of psl-serve, psl-classify and
#: psl-repro).  ``--seed`` varies the traffic and the request log, not
#: the list history, so the scorecard stays exact on every run.
WORLD_SEED = 20230701


def host_record(root: str) -> dict:
    """Cores, CPU model, Python version and source revision."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            rev = subprocess.run(
                ["git", "-C", root, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cores": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "git_rev": rev,
    }


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def nearest_rank(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile over an already sorted list."""
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[rank]


def make_workdir(root: str, label: str) -> str:
    """A fresh scratch directory inside the checkout."""
    base = os.path.join(root, WORK_ROOT)
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{label}-", dir=base)


def remove_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def child_env(root: str) -> dict:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_child(root: str, *args: str) -> subprocess.Popen:
    """Start ``perfbench/child.py`` with pipes on stdin and stdout.

    Plain subprocesses, not ``multiprocessing``: nothing outlives the
    run (no resource-tracker process) and nothing is written outside
    the checkout (no named semaphores).
    """
    return subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), *args],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(root), cwd=root,
    )


def finish_child(child: subprocess.Popen, timeout: float) -> int:
    """Close the child's pipes and wait for it; kill it past ``timeout``."""
    for stream in (child.stdin, child.stdout):
        if stream is not None:
            stream.close()
    try:
        return child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        return child.wait()


def send(stream: BinaryIO, value: Any) -> None:
    """Write one length-prefixed pickle frame (parent and child only)."""
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    stream.write(_FRAME.pack(len(payload)) + payload)
    stream.flush()


def _read_exact(stream: BinaryIO, count: int) -> bytes:
    chunks = []
    while count:
        chunk = stream.read(count)
        if not chunk:
            raise EOFError("peer closed the pipe")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def receive(stream: BinaryIO) -> Any:
    """Read one frame written by :func:`send`; EOFError when the peer is gone."""
    (length,) = _FRAME.unpack(_read_exact(stream, _FRAME.size))
    return pickle.loads(_read_exact(stream, length))


@dataclass(frozen=True)
class TraceFile:
    """Where a traced run writes its spans, and the header it writes first."""

    path: str
    meta: dict


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    #: End-to-end metrics (``--trace 0``) or per-layer ones (``--trace 1``):
    #: name -> (value, unit).
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    #: Failed correctness checks, one message each; empty means correct.
    problems: list[str] = field(default_factory=list)
    #: The workload's figures under their own names (site_p50_ms, cold_s…), for
    #: the human report: name -> (value, unit).
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Per-phase operation counts: phase -> (attempted, failed).
    phases: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: Extra human-readable report lines (layer tables, checks).
    notes: list[str] = field(default_factory=list)
