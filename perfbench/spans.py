"""Span recording and per-layer summaries for the traced benchmark runs.

Only a traced run (``--trace 1``) installs spans; the timed runs never
import a wrapper.  A span is one call into a layer's public callable:
name, start and end (``time.perf_counter_ns``, one clock for every
thread), the span that caused it, and a context id naming the request
or chunk it belongs to.  Spans stay in memory until the run ends and
are then written as JSON lines: a ``meta`` header, then one span per
line.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover, so the self times of one request's
spans add up to the request's root span.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Iterable

from benchlib import nearest_rank

_now = time.perf_counter_ns


class _Columns:
    """One thread's spans, column-wise in int arrays.

    Arrays of machine ints are not tracked by the garbage collector, so
    a run that keeps a hundred thousand spans in memory does not make
    every full collection of the program under test slower.
    """

    __slots__ = ("ids", "parents", "names", "starts", "ends", "ctxs")

    def __init__(self) -> None:
        for column in self.__slots__:
            setattr(self, column, array("q"))


class Tracer:
    """In-memory span sink plus the wrappers that feed it.

    A span's context id (``ctx``) is an int: the id of the client round
    trip a server-side span belongs to, or a phase code set by the
    workload (see :meth:`phase`).
    """

    def __init__(self) -> None:
        self.counts: dict[str, int] = defaultdict(int)
        self._counts_lock = threading.Lock()
        self.phases: dict[int, str] = {}
        self._names: dict[str, int] = {}
        self._buffers: list[_Columns] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []

    # -- span bookkeeping ------------------------------------------------------

    def code(self, name: str) -> int:
        """The int code of span name ``name`` (registered on first use)."""
        code = self._names.get(name)
        if code is None:
            code = self._names.setdefault(name, len(self._names) + 1)
        return code

    def add(self, counter: str, amount: int = 1) -> None:
        """Add to a named count (server handler threads call this concurrently)."""
        with self._counts_lock:
            self.counts[counter] += amount

    def phase(self, label: str) -> int:
        """A context id for one phase of a run (``"cold"``, ``"resume"``)."""
        ctx = -(len(self.phases) + 1)
        self.phases[ctx] = label
        return ctx

    def _thread(self):
        local = self._local
        try:
            return local.stack, local.columns
        except AttributeError:
            local.stack = []
            local.columns = _Columns()
            self._buffers.append(local.columns)
            return local.stack, local.columns

    def record(self, span_id: int, parent: int, name: int, start: int, end: int, ctx: int) -> None:
        """Append one finished span to this thread's columns."""
        columns = self._thread()[1]
        columns.ids.append(span_id)
        columns.parents.append(parent)
        columns.names.append(name)
        columns.starts.append(start)
        columns.ends.append(end)
        columns.ctxs.append(ctx)

    def enter(self, name: int, *, ctx: int | None = None, parent: int | None = None):
        """Open a span on this thread; returns the token :meth:`leave` takes.

        ``parent``/``ctx`` default to the innermost open span on this
        thread; passing them links a span to one opened on another
        thread (a server handler under the client's round trip).
        """
        stack = self._thread()[0]
        if parent is None:
            parent, inherited = stack[-1] if stack else (0, 0)
            if ctx is None:
                ctx = inherited
        elif ctx is None:
            ctx = 0
        span_id = next(self._ids)  # itertools.count is atomic under the GIL
        stack.append((span_id, ctx))
        return span_id, parent, name, ctx, _now()

    def leave(self, token) -> None:
        end = _now()
        span_id, parent, name, ctx, start = token
        self._thread()[0].pop()
        self.record(span_id, parent, name, start, end, ctx)

    def call(self, name: str, function: Callable, *args, ctx: int | None = None, **kwargs):
        """Run ``function`` inside a span named ``name``."""
        token = self.enter(self.code(name), ctx=ctx)
        try:
            return function(*args, **kwargs)
        finally:
            self.leave(token)

    # -- wrappers around public callables --------------------------------------

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        *,
        link: Callable[..., tuple[int | None, int] | None] | None = None,
        after: Callable[..., None] | None = None,
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        The wrapper is installed on the name the caller resolves (a
        class attribute, or the module global a caller imported), and
        :meth:`restore` puts the original back.  ``link(*args)`` may
        return ``(parent, ctx)`` to attach the span across threads
        (``parent`` None keeps this thread's innermost span);
        ``after(result, *args)`` observes each call's result (counts
        and byte totals taken where the work happens).
        """
        original = getattr(owner, attribute)
        code = self.code(name)
        enter, leave = self.enter, self.leave

        def traced(*args, **kwargs):
            parent = ctx = None
            if link is not None:
                linked = link(*args)
                if linked is not None:
                    parent, ctx = linked
            token = enter(code, ctx=ctx, parent=parent)
            try:
                result = original(*args, **kwargs)
            finally:
                leave(token)
            if after is not None:
                after(result, *args)
            return result

        traced.__wrapped__ = original
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def count_calls(self, owner: Any, attribute: str, counter: str) -> None:
        """Count calls to ``owner.attribute`` without timing them.

        For functions called millions of times per run (the trie walk
        inside a chunk), where a span per call would cost more than
        the call.
        """
        original = getattr(owner, attribute)
        add = self.add

        def counted(*args, **kwargs):
            add(counter)
            return original(*args, **kwargs)

        counted.__wrapped__ = original
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, counted)

    def restore(self) -> None:
        """Undo every wrapper, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- output ----------------------------------------------------------------

    def spans(self) -> list[dict]:
        """Every recorded span as a dict, in start order."""
        names = {code: name for name, code in self._names.items()}
        out = []
        for columns in list(self._buffers):
            for row in zip(columns.ids, columns.parents, columns.names,
                           columns.starts, columns.ends, columns.ctxs):
                out.append({"id": row[0], "parent": row[1], "name": names[row[2]],
                            "start": row[3], "end": row[4], "ctx": row[5]})
        out.sort(key=lambda span: span["start"])
        return out

    def write(self, path: str, meta: dict, spans: list[dict] | None = None) -> None:
        """Write a header (meta, counts, phase labels) and every span as JSON lines."""
        spans = self.spans() if spans is None else spans
        header = {"meta": meta, "counts": dict(self.counts), "phases": self.phases}
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for span in spans:
                handle.write(json.dumps(span) + "\n")


def load(path: str) -> tuple[dict, list[dict]]:
    """Read a span file: ``(header, spans)``; the header holds meta, counts, phases."""
    with open(path, encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        spans = [json.loads(line) for line in handle if line.strip()]
    return header, spans


def self_times(spans: Iterable[dict]) -> dict[int, int]:
    """Span id -> self time (ns): duration minus the covered child interval."""
    spans = list(spans)
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span["parent"]:
            children[span["parent"]].append((span["start"], span["end"]))
    result: dict[int, int] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(span["id"], ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span["id"]] = (end - start) - covered
    return result


def layer_table(spans: list[dict], *, ctx_in: set[int] | None = None) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, self p50/p99 (µs).

    ``ctx_in`` restricts the table to spans whose context id is in it
    (the round trips of one endpoint, or one phase of a run).
    """
    own = self_times(spans)
    grouped: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        if ctx_in is None or span["ctx"] in ctx_in:
            grouped[span["name"]].append(span)
    table: dict[str, dict] = {}
    for name, members in sorted(grouped.items()):
        selfs = sorted(own[span["id"]] / 1e3 for span in members)
        table[name] = {
            "calls": len(members),
            "total_s": sum(span["end"] - span["start"] for span in members) / 1e9,
            "self_s": sum(selfs) / 1e6,
            "self_p50_us": nearest_rank(selfs, 0.50),
            "self_p99_us": nearest_rank(selfs, 0.99),
        }
    return table


def tree_sum_check(spans: list[dict], root_name: str) -> tuple[int, float]:
    """Check that each ``root_name`` span equals the self-time sum of its tree.

    Returns ``(roots checked, worst relative error)``.  An error above
    rounding means some child span was not contained in its parent —
    a wrapper recorded time outside the request it claims.
    """
    own = self_times(spans)
    children: dict[int, list[int]] = defaultdict(list)
    for span in spans:
        if span["parent"]:
            children[span["parent"]].append(span["id"])
    checked = 0
    worst = 0.0
    for span in spans:
        if span["name"] != root_name:
            continue
        total = 0
        pending = [span["id"]]
        while pending:
            node = pending.pop()
            total += own[node]
            pending.extend(children.get(node, ()))
        duration = span["end"] - span["start"]
        if duration > 0:
            worst = max(worst, abs(total - duration) / duration)
        checked += 1
    return checked, worst


def render_table(table: dict[str, dict]) -> str:
    """The human summary: one row per layer."""
    lines = [
        f"  {'layer':36s} {'calls':>8s} {'total s':>9s} {'self s':>9s} "
        f"{'self p50 µs':>12s} {'self p99 µs':>12s}"
    ]
    for name, row in table.items():
        lines.append(
            f"  {name:36s} {row['calls']:8d} {row['total_s']:9.3f} {row['self_s']:9.3f} "
            f"{row['self_p50_us']:12.1f} {row['self_p99_us']:12.1f}"
        )
    return "\n".join(lines)
