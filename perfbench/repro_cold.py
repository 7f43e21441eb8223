"""repro-cold: ``psl-repro scorecard`` on an empty cache dir, then on the warm one.

This is the researcher's "reproduce the paper" path, run as the user
runs it: each invocation is a fresh ``python -m repro.analysis.cli``
process.  Set-up is the CLI's fixed start-up cost (``psl-repro list``,
which builds nothing), taken several times.  The scorecard itself is
the correctness check: zero mismatches, the 1,313 / 50,750 headline,
and the warm run printing exactly what the cold run printed.

The world is the paper's calibrated seed on every run: the scorecard
is exact there, and ``--seed`` only names the run's scratch directory.
"""

from __future__ import annotations

import json
import os
import re
import select
import subprocess
import sys
import time

from benchlib import (
    WORLD_SEED, Outcome, TraceFile, child_env, finish_child, make_workdir, median, receive, remove_workdir, start_child,
)

SETUPS = 5
WARM_RUNS = 3
TIMEOUT = 170  # seconds one CLI invocation may take
HEADLINE = (
    re.compile(r"^TAB2\s+missing eTLDs\s+1,313\s+1,313\s+exact$", re.M),
    re.compile(r"^TAB2\s+affected hostnames\s+50,750\s+50,750\s+exact$", re.M),
)
SUMMARY = re.compile(r"^(\d+) rows: .*, (\d+) mismatches$", re.M)
#: PipelineReport stage name -> per-layer metric name.
STAGES = {
    "sweep@figures": "pipeline.sweep-figures_s",
    "sweep": "pipeline.sweep-tables_s",
    "datings": "pipeline.datings_s",
    "corpus": "pipeline.corpus_s",
    "snapshot@figures": "pipeline.snapshot-figures_s",
}


def cli(root: str, args: list[str], out_path: str) -> tuple[float, float, int]:
    """One ``psl-repro`` process: (wall seconds, peak RSS MB, exit code)."""
    command = [sys.executable, "-m", "repro.analysis.cli", *args]
    with open(out_path, "wb") as out:
        started = time.perf_counter()
        process = subprocess.Popen(command, stdout=out, stderr=subprocess.STDOUT, env=child_env(root), cwd=root)
        deadline = started + TIMEOUT
        while True:
            pid, status, usage = os.wait4(process.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                process.kill()
                pid, status, usage = os.wait4(process.pid, 0)
                break
            time.sleep(0.01)
        wall = time.perf_counter() - started
    process.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, process.returncode


def traced_cli(argv: list[str], out_path: str, span_path: str) -> tuple[int, float]:
    """``psl-repro`` in this process with span recorders on the sweep and the store.

    Runs inside ``child.py traced-repro``; returns (exit code, peak RSS MB).
    """
    from repro.analysis import cli as repro_cli
    from repro.pipeline.store import ArtifactStore
    from repro.sweep.engine import SweepEngine
    from benchlib import peak_rss_mb
    from spans import Tracer

    tracer = Tracer()

    def written(artifact, store, stage, fingerprint, value):
        tracer.add("pipeline.store.bytes_written", artifact.nbytes)

    tracer.wrap(SweepEngine, "sweep", "sweep.engine.sweep")
    tracer.wrap(ArtifactStore, "put", "pipeline.store.write", after=written)
    tracer.wrap(ArtifactStore, "get", "pipeline.store.read")
    with open(out_path, "w", encoding="utf-8") as out:
        stdout, sys.stdout = sys.stdout, out
        try:
            code = repro_cli.main(argv)
        finally:
            sys.stdout = stdout
    tracer.restore()
    tracer.write(span_path, {"workload": "repro-cold", "argv": argv})
    return code, peak_rss_mb()


def run_traced(root: str, argv: list[str], out_path: str, span_path: str) -> tuple[float, int]:
    """A traced ``psl-repro`` in a fresh interpreter: (wall seconds, exit code)."""
    started = time.perf_counter()
    child = start_child(root, "traced-repro", out_path, span_path, *argv)
    code = 1
    try:
        if select.select([child.stdout], [], [], TIMEOUT)[0]:
            code = receive(child.stdout)[0]
    except EOFError:
        pass
    finally:
        if finish_child(child, timeout=30) != 0:
            code = 1
    return time.perf_counter() - started, code


def scorecard_problems(text: str) -> list[str]:
    problems = []
    summary = SUMMARY.search(text)
    if summary is None:
        problems.append("no scorecard summary line")
    elif summary.group(2) != "0":
        problems.append(f"scorecard reports {summary.group(2)} mismatches")
    for pattern in HEADLINE:
        if pattern.search(text) is None:
            problems.append(f"headline row missing or wrong: {pattern.pattern}")
    return problems


def scorecard_part(text: str) -> str:
    """The rendered scorecard without the pipeline report (which differs cold vs warm)."""
    return text.split("Pipeline report", 1)[0]


def read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def run(seed: int, seconds: float, trace_file: TraceFile | None) -> Outcome:
    root = os.getcwd()
    workdir = make_workdir(root, f"repro-cold-seed{seed}")
    try:
        return _run(root, workdir, trace_file)
    finally:
        remove_workdir(workdir)


def _run(root: str, workdir: str, trace_file: TraceFile | None) -> Outcome:
    problems: list[str] = []
    phases: dict[str, tuple[int, int]] = {}

    def invoke(args: list[str], tag: str, phase: str) -> tuple[float, float, str]:
        out = os.path.join(workdir, f"{tag}.out")
        wall, rss, code = cli(root, args, out)
        attempted, failed = phases.get(phase, (0, 0))
        phases[phase] = (attempted + 1, failed + (code != 0))
        if code != 0:
            problems.append(f"psl-repro {' '.join(args)} exited {code}")
        return wall, rss, read(out)

    setups = [invoke(["list"], f"list-{i}", "set-up (psl-repro list)")[0] for i in range(SETUPS)]
    cache = os.path.join(workdir, "cache")
    scorecard = ["scorecard", "--seed", str(WORLD_SEED), "--cache-dir", cache, "--explain"]
    cold_s, rss, cold_text = invoke(scorecard, "cold", "cold scorecard")
    cold_report = read_report(cache)
    warm = [invoke(scorecard, f"warm-{i}", "warm scorecard") for i in range(WARM_RUNS)]
    warm_report = read_report(cache)

    problems += scorecard_problems(cold_text)
    for _, _, text in warm:
        if scorecard_part(text) != scorecard_part(cold_text):
            problems.append("warm scorecard differs from the cold one")
            break
    if cold_report.get("misses", 0) == 0:
        problems.append("the cold run computed no stage")
    if warm_report.get("misses", 1) != 0 or warm_report.get("hits", 0) == 0:
        problems.append(f"the warm run recomputed: {warm_report.get('misses')} misses")

    warm_s = median([wall for wall, _, _ in warm])
    stage_rate = cold_report.get("misses", 0) / cold_s
    named = {
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
        "cold_s": (cold_s, "s"),
        "warm_s": (warm_s, "s"),
        "stages_per_s": (stage_rate, "1/s"),
    }
    metrics = {
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
        "slow_ms": (cold_s * 1e3, "ms"),
        "rate_per_s": (stage_rate, "1/s"),
    }
    notes = [f"cold stages computed: {cold_report.get('misses')}; warm hits {warm_report.get('hits')}"]
    attempted = sum(total for total, _ in phases.values())
    failed = sum(bad for _, bad in phases.values())
    outcome = Outcome(metrics, attempted, failed, problems, named, phases, notes)
    if trace_file is not None:
        _trace(root, workdir, outcome, cold_s, warm_s, cold_report, warm_report, trace_file)
    return outcome


def read_report(cache: str) -> dict:
    try:
        with open(os.path.join(cache, "pipeline_report.json"), encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {}


def _trace(root, workdir, outcome, cold_s, warm_s, cold_report, warm_report, trace_file) -> None:
    """Traced cold and warm runs in fresh interpreters, plus the stage table."""
    from spans import layer_table, load, render_table

    cache = os.path.join(workdir, "traced-cache")
    argv = ["scorecard", "--seed", str(WORLD_SEED), "--cache-dir", cache, "--explain"]
    runs = {}
    for tag in ("cold", "warm"):
        out = os.path.join(workdir, f"traced-{tag}.out")
        spans_path = os.path.join(workdir, f"traced-{tag}.jsonl")
        wall, code = run_traced(root, argv, out, spans_path)
        outcome.attempted += 1
        if code != 0 or not os.path.isfile(spans_path):
            outcome.failed += 1
            outcome.problems.append(f"traced psl-repro {tag} run exited {code}")
            return
        if scorecard_part(read(out)) != scorecard_part(read(os.path.join(workdir, "cold.out"))):
            outcome.problems.append(f"traced {tag} scorecard differs from the untraced one")
        header, spans = load(spans_path)
        runs[tag] = (wall, header, spans)
    cold_wall, cold_header, cold_spans = runs["cold"]
    warm_wall, warm_header, warm_spans = runs["warm"]
    cold_table = layer_table(cold_spans)
    warm_table = layer_table(warm_spans)

    def total(table: dict, name: str) -> float:
        return table[name]["total_s"] if name in table else 0.0

    stage_seconds = {STAGES[s["stage"]]: s["seconds"] for s in cold_report.get("stages", [])
                     if s["stage"] in STAGES and s["source"] == "computed"}
    metrics = {name: (stage_seconds.get(name, 0.0), "s") for name in STAGES.values()}
    metrics.update({
        "sweep.engine.sweep_s": (total(cold_table, "sweep.engine.sweep"), "s"),
        "pipeline.store.write_s": (total(cold_table, "pipeline.store.write"), "s"),
        "pipeline.store.bytes_written": (float(cold_header["counts"].get("pipeline.store.bytes_written", 0)), "bytes"),
        "pipeline.store.read_s": (total(warm_table, "pipeline.store.read"), "s"),
        "pipeline.warm_s": (warm_s, "s"),
        "pipeline.hits": (float(warm_report.get("hits", 0)), "count"),
        "pipeline.misses": (float(warm_report.get("misses", 0)), "count"),
        "trace.overhead_pct": ((cold_wall - cold_s) / cold_s * 100.0, "%"),
        "trace.spans": (float(len(cold_spans) + len(warm_spans)), "count"),
    })
    outcome.metrics = metrics
    # One file for both runs; each span names its run (their ids overlap).
    with open(trace_file.path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"meta": dict(trace_file.meta, runs=list(runs)),
                                 "counts": cold_header["counts"], "phases": {}}) + "\n")
        for tag, (_, _, spans) in runs.items():
            for span in spans:
                handle.write(json.dumps(dict(span, run=tag)) + "\n")
    outcome.notes += [
        "per-layer self times (traced cold run):",
        render_table(cold_table),
        "per-layer self times (traced warm run):",
        render_table(warm_table),
        f"tracing overhead (traced - untraced): cold {cold_wall - cold_s:+.3f} s, warm {warm_wall - warm_s:+.3f} s",
    ]
