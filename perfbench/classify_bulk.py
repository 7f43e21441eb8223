"""classify-bulk: cold ClassifyEngine.run_synthetic, then resumes over the same run dir.

Set-up packs a cross-section of the history (``VERSIONS`` evenly
spaced versions, as ``pack_history(store, indexes=...)`` builds it) in
a child process.  Each repetition then runs in a fresh child process,
as a fresh ``psl-classify`` would: it classifies a seeded request log
under every version of the cross-section with one worker, cold, and
resumes it ``RESUMES`` times.  So every repetition starts with the
engine's per-process history and plan caches empty, and its peak RSS
is that one engine process's own.
"""

from __future__ import annotations

import functools
import gc
import os
import time

from benchlib import (
    WORLD_SEED, Outcome, TraceFile, finish_child, make_workdir, median, peak_rss_mb, receive, remove_workdir, start_child,
)

VERSIONS = 101
RECORDS = 131_072
BLOCK_SIZE = 32_768  # four generation blocks, one chunk each
BLOCKS_PER_TASK = 1
#: Resumes per repetition: a resume over a finished run dir redoes the
#: same work each time, and one takes well under a second.
RESUMES = 3
#: Cold repetitions a timed run makes at least (the cold figure is
#: their median); it makes more while ``--seconds`` lasts.
MIN_REPETITIONS = 3
#: Slots of the cross-section checked against the streaming oracles:
#: the first, middle and latest versions.
ORACLE_SLOTS = (0, VERSIONS // 2, VERSIONS - 1)


def pack_cross_section(path: str) -> None:
    """Child-process set-up: write the packed cross-section to ``path``."""
    from repro.classify.engine import select_version_indexes
    from repro.history.synthesis import SynthesisConfig, synthesize_history
    from repro.psl.packed import pack_history

    store = synthesize_history(SynthesisConfig(seed=WORLD_SEED))
    subset = select_version_indexes(len(store), VERSIONS)
    with open(path, "wb") as handle:
        handle.write(pack_history(store, indexes=subset))


@functools.cache
def _history():
    """The world's history, synthesized once per oracle worker process."""
    from repro.history.synthesis import SynthesisConfig, synthesize_history

    return synthesize_history(SynthesisConfig(seed=WORLD_SEED))


def oracle(task: tuple[str, int, int]) -> tuple[str, int, object]:
    """One streaming-oracle count over the whole log under one cross-section slot."""
    from repro.classify.engine import select_version_indexes
    from repro.webgraph.requestlog import RequestLogConfig, iter_records
    from repro.webgraph.stream import count_sites_streaming, count_third_party_streaming

    kind, slot, seed = task
    store = _history()
    psl = store.checkout(select_version_indexes(len(store), VERSIONS)[slot])
    config = RequestLogConfig(seed=seed, records=RECORDS, block_size=BLOCK_SIZE)
    if kind == "sites":
        counts = count_sites_streaming(psl, (host for record in iter_records(config) for host in record))
    else:
        counts = count_third_party_streaming(psl, iter_records(config))
    return kind, slot, counts


def setup(workdir: str) -> tuple[float, str]:
    """Pack the cross-section in a child process; returns (seconds, path)."""
    path = os.path.join(workdir, "cross-section.pslpak")
    started = time.perf_counter()
    code = finish_child(start_child(os.getcwd(), "pack-cross-section", path), timeout=150)
    seconds = time.perf_counter() - started
    if code != 0 or not os.path.isfile(path):
        raise RuntimeError(f"cross-section set-up failed (exit {code})")
    return seconds, path


def classifier(blob: str, workdir: str, rep: str, seed: int):
    """``classify(resume)`` over a fresh name of the cross-section and its own run dir."""
    from repro.classify.engine import ClassifyEngine
    from repro.webgraph.requestlog import RequestLogConfig

    packed = os.path.join(workdir, f"cross-section-{rep}.pslpak")
    os.link(blob, packed)  # a new name: the engine's process caches miss
    run_dir = os.path.join(workdir, f"run-{rep}")
    config = RequestLogConfig(seed=seed, records=RECORDS, block_size=BLOCK_SIZE)
    versions = range(VERSIONS)

    def classify(resume: bool):
        engine = ClassifyEngine(packed, version_indexes=versions, workers=1, run_dir=run_dir, resume=resume)
        return engine.run_synthetic(config, blocks_per_task=BLOCKS_PER_TASK)

    return classify


def repetition(blob: str, workdir: str, rep: int, seed: int, tracer=None) -> dict:
    """One cold run plus ``RESUMES`` resumes; wall times and results."""
    classify = classifier(blob, workdir, str(rep), seed)
    gc.collect()  # the previous repetition's garbage is not this run's cost
    started = time.perf_counter()
    if tracer is None:
        cold = classify(False)
    else:
        cold = tracer.call("classify.cold", classify, False, ctx=tracer.phase("cold"))
    cold_s = time.perf_counter() - started
    result = {"cold": cold, "cold_s": cold_s, "warms": [], "resume_walls": [], "classify": classify}
    resume_group(result, tracer)
    return result


def resume_group(result: dict, tracer=None) -> None:
    """``RESUMES`` resumes over one repetition's finished run dir."""
    classify = result["classify"]
    resume_ctx = tracer.phase("resume") if tracer is not None else None
    for _ in range(RESUMES):
        gc.collect()
        started = time.perf_counter()
        if tracer is None:
            result["warms"].append(classify(True))
        else:
            result["warms"].append(tracer.call("classify.resume", classify, True, ctx=resume_ctx))
        result["resume_walls"].append(time.perf_counter() - started)


def timed_repetition(blob: str, workdir: str, rep: int, seed: int) -> dict:
    """Child-process side of one timed repetition: walls, rows, checks, peak RSS."""
    result = repetition(blob, workdir, rep, seed)
    runs = [result["cold"], *result["warms"]]
    return {
        "cold_s": result["cold_s"],
        "resume_walls": result["resume_walls"],
        "rows": result["cold"].rows,
        "problems": check_repetition(result),
        "chunks": (result["cold"].chunks, sum(warm.chunks for warm in result["warms"])),
        "quarantined": (
            len(result["cold"].report.quarantined),
            sum(len(warm.report.quarantined) for warm in result["warms"]),
        ),
        "retries": sum(len(run.report.retried) for run in runs),
        "rss": peak_rss_mb(),
    }


def run_repetition(blob: str, workdir: str, rep: int, seed: int) -> dict:
    """One timed repetition in a fresh interpreter (``child.py classify-repetition``)."""
    child = start_child(os.getcwd(), "classify-repetition", blob, workdir, str(rep), str(seed))
    try:
        return receive(child.stdout)
    except EOFError:
        raise RuntimeError(f"classify repetition {rep} died") from None
    finally:
        finish_child(child, timeout=120)


def check_repetition(result: dict) -> list[str]:
    cold = result["cold"]
    problems = []
    if cold.degraded or cold.report.executed != cold.chunks:
        problems.append(f"cold run executed {cold.report.executed}/{cold.chunks} chunks cleanly")
    cold_json = [row.to_json() for row in cold.rows]
    for warm in result["warms"]:
        if warm.degraded or warm.report.resumed != warm.chunks:
            problems.append(f"resume reused {warm.report.resumed}/{warm.chunks} chunks")
        if warm.rows != cold.rows or [row.to_json() for row in warm.rows] != cold_json:
            problems.append("resume rows differ from cold rows")
    if cold.records != RECORDS:
        problems.append(f"cold run classified {cold.records} of {RECORDS} records")
    return problems


def check_oracles(rows, seed: int) -> list[str]:
    """First, middle and latest rows equal the streaming oracles (two processes)."""
    tasks = [f"{kind}:{slot}" for slot in ORACLE_SLOTS for kind in ("sites", "third_party")]
    # Site counting costs several times a third-party count: deal the
    # three site tasks 2 + 1 across the two children.
    shares = (tasks[0::2][:2] + tasks[1::2][:1], tasks[0::2][2:] + tasks[1::2][1:])
    children = [start_child(os.getcwd(), "oracle", str(seed), *share) for share in shares]
    results, problems = [], []
    for child, share in zip(children, shares):
        try:
            results += [receive(child.stdout) for _ in share]
        except EOFError:
            problems.append(f"oracle child for {share} died")
        finally:
            finish_child(child, timeout=60)
    for kind, slot, counts in results:
        row = rows[slot]
        got = row.sites if kind == "sites" else row.third_party
        if row.version_index != slot or got != counts:
            problems.append(f"{kind} at cross-section slot {slot}: engine {got}, oracle {counts}")
    return problems


def count_walks(blob: str, workdir: str, seed: int) -> tuple[int, int, object]:
    """An untimed cold run that counts trie walks: (walks, hosts x versions, result).

    ``site_for_reversed`` is called millions of times a run, so the
    wrapper that counts it would swell ``classify_chunk``'s self time;
    the count comes from this extra run instead of the traced one.
    """
    import repro.classify.partials as partials_module
    from repro.classify.columnar import SyntheticChunkRef
    from spans import Tracer

    counter = Tracer()
    counter.count_calls(partials_module, "site_for_reversed", "walks")
    counter.wrap(
        SyntheticChunkRef, "load", "classify.columnar.ingest",
        after=lambda chunk, ref: counter.add("hosts", len(chunk.hosts)),
    )
    try:
        result = classifier(blob, workdir, "count", seed)(False)
    finally:
        counter.restore()
    return counter.counts.get("walks", 0), counter.counts.get("hosts", 0) * VERSIONS, result


def install_spans(tracer) -> None:
    """Wrap the classify path's public callables (traced runs only)."""
    import repro.classify.engine as engine_module
    from repro.classify.columnar import SyntheticChunkRef
    from repro.classify.engine import ClassifyEngine
    from repro.classify.partials import SpillRef, SpillWriter
    from repro.runtime.checkpoint import CheckpointStore
    from repro.runtime.executor import ResilientExecutor

    def spilled(ref, writer):
        tracer.add("classify.spill_bytes", ref.nbytes)

    tracer.wrap(ClassifyEngine, "run_synthetic", "classify.engine.run_synthetic")
    tracer.wrap(ResilientExecutor, "run", "runtime.executor.run")
    # Spans under one chunk carry the chunk's id (index + 1) as context.
    tracer.wrap(
        engine_module, "classify_chunk", "classify.partials.classify_chunk",
        link=lambda task: (None, task.ref.index + 1),
    )
    tracer.wrap(SyntheticChunkRef, "load", "classify.columnar.ingest")
    tracer.wrap(SpillWriter, "add", "classify.partials.spill")
    tracer.wrap(SpillWriter, "finish", "classify.partials.spill", after=spilled)
    tracer.wrap(SpillRef, "verify", "classify.partials.verify")
    tracer.wrap(CheckpointStore, "save", "runtime.checkpoint.save")
    tracer.wrap(CheckpointStore, "load", "runtime.checkpoint.load")


def layer_metrics(tracer, spans: list[dict], retries: int, walks: tuple[int, int]) -> dict[str, tuple[float, str]]:
    from spans import layer_table

    phases = {label: ctx for ctx, label in tracer.phases.items()}
    chunks = {span["ctx"] for span in spans if span["ctx"] > 0}  # only cold runs walk chunks
    cold = layer_table(spans, ctx_in={phases["cold"]} | chunks)
    resume = layer_table(spans, ctx_in={phases["resume"]})

    def total(table: dict, name: str) -> float:
        return table[name]["total_s"] if name in table else 0.0

    def own(table: dict, name: str) -> float:
        return table[name]["self_s"] if name in table else 0.0

    calls, walked = walks
    return {
        "classify.columnar.ingest_s": (total(cold, "classify.columnar.ingest"), "s"),
        "classify.partials.walk_s": (own(cold, "classify.partials.classify_chunk"), "s"),
        "classify.partials.rewalk_ratio": (
            calls / walked if walked else 0.0, "ratio"
        ),
        "classify.partials.spill_s": (total(cold, "classify.partials.spill"), "s"),
        "classify.partials.spill_bytes": (float(tracer.counts.get("classify.spill_bytes", 0)), "bytes"),
        "classify.engine.merge_s": (own(cold, "classify.engine.run_synthetic"), "s"),
        "runtime.checkpoint.save_s": (total(cold, "runtime.checkpoint.save"), "s"),
        "runtime.checkpoint.load_s": (total(resume, "runtime.checkpoint.load") / RESUMES, "s"),
        "classify.partials.verify_s": (total(resume, "classify.partials.verify") / RESUMES, "s"),
        "runtime.executor.retries": (float(retries), "count"),
    }


def run(seed: int, seconds: float, trace_file: TraceFile | None) -> Outcome:
    workdir = make_workdir(os.getcwd(), "classify-bulk")
    try:
        return _run(workdir, seed, seconds, trace_file)
    finally:
        remove_workdir(workdir)


def _run(workdir: str, seed: int, seconds: float, trace_file: TraceFile | None) -> Outcome:
    trace = trace_file is not None
    setup_s, blob = setup(workdir)
    results = []
    started = time.perf_counter()
    while len(results) < (1 if trace else MIN_REPETITIONS) or (not trace and time.perf_counter() - started < seconds):
        results.append(run_repetition(blob, workdir, len(results), seed))
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        install_spans(tracer)
        try:
            traced = repetition(blob, workdir, len(results), seed, tracer)
        finally:
            tracer.restore()
        walks, walked, counted = count_walks(blob, workdir, seed)

    rows = results[0]["rows"]
    problems = check_oracles(rows, seed)
    for result in results:
        problems += result["problems"]
        if result["rows"] != rows:
            problems.append("repetitions over the same log produced different rows")
    if trace:
        problems += check_repetition(traced)
        if traced["cold"].rows != rows:
            problems.append("the traced repetition produced different rows")
        if counted.rows != rows:
            problems.append("the walk-counting run produced different rows")

    retries = sum(r["retries"] for r in results)
    cold_s = median([r["cold_s"] for r in results])
    resume_s = median([wall for r in results for wall in r["resume_walls"]])
    records_per_s = RECORDS / cold_s
    rss = median([r["rss"] for r in results])
    named = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "records_per_s": (records_per_s, "1/s"),
        "resume_s": (resume_s, "s"),
        "cold_s": (cold_s, "s"),
        "retries": (float(retries), "count"),
    }
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "slow_ms": (cold_s * 1e3, "ms"),
        "rate_per_s": (records_per_s, "1/s"),
    }
    phases = {
        "cold runs (chunks)": (sum(r["chunks"][0] for r in results), sum(r["quarantined"][0] for r in results)),
        "resume runs (chunks)": (sum(r["chunks"][1] for r in results), sum(r["quarantined"][1] for r in results)),
    }
    attempted = sum(total for total, _ in phases.values())
    failed = sum(bad for _, bad in phases.values())
    notes = [f"{len(results)} repetition(s) of {RECORDS:,} records x {VERSIONS} versions, one process each; "
             f"cold walls {[round(r['cold_s'], 3) for r in results]}; "
             f"resume medians {[round(median(r['resume_walls']), 4) for r in results]}; "
             f"peak RSS {[round(r['rss'], 1) for r in results]} MB"]
    outcome = Outcome(metrics, attempted, failed, problems, named, phases, notes)
    if trace:
        from spans import layer_table, render_table

        spans = tracer.spans()
        tracer.write(trace_file.path, trace_file.meta, spans)
        traced_retries = sum(len(run.report.retried) for run in [traced["cold"], *traced["warms"]])
        layers = layer_metrics(tracer, spans, retries + traced_retries, (walks, walked))
        plain = results[0]["cold_s"]
        layers["classify.engine.resume_s"] = (resume_s, "s")
        layers["trace.overhead_pct"] = ((traced["cold_s"] - plain) / plain * 100.0, "%")
        layers["trace.spans"] = (float(len(spans)), "count")
        outcome.metrics = layers
        outcome.notes += [
            "per-layer self times (traced repetition):",
            render_table(layer_table(spans)),
            f"tracing overhead (traced - untraced): cold {traced['cold_s'] - plain:+.3f} s, "
            f"resume {median(traced['resume_walls']) - median(results[0]['resume_walls']):+.4f} s",
        ]
    return outcome
