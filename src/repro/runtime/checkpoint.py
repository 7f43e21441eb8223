"""Chunk-granular checkpointing for the task runtime.

A :class:`CheckpointStore` spills each completed task's result to its
own file under a directory, so a killed run resumes from the last
completed chunk instead of the beginning.  Three properties make that
safe:

* **atomic per-task files** — results are written to a temp name and
  ``os.replace``d into place, so a kill mid-write leaves no half
  checkpoint; an unreadable file is treated as absent, never trusted;
* **a fingerprint manifest** — the caller describes the run (universe,
  history, chunking) as an opaque fingerprint; :meth:`reconcile` wipes
  checkpoints written under any other fingerprint, so a resumed run can
  only ever reuse results that are bit-identical to what it would
  compute itself;
* **identity by task id** — file names derive from the caller's stable
  task ids (chunk indices for the sweep), so resuming re-executes
  exactly the ids without a checkpoint file.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import secrets
from typing import Any

from repro.fingerprint import fingerprint as _fingerprint

#: Sentinel for "no checkpoint for this task id" — distinct from a
#: legitimately-None payload.
MISSING = object()

_MANIFEST_NAME = "manifest.json"
_SAFE_ID = re.compile(r"[^A-Za-z0-9_.-]+")


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write ``payload`` to ``path`` via a temp file and ``os.replace``.

    The shared write discipline for every durable artifact (sweep
    checkpoints here, pipeline artifacts in
    :mod:`repro.pipeline.store`): a kill mid-write leaves a temp file,
    never a half-written final path.  Each call writes its own unique
    temp file in the target directory, so concurrent writers of one
    path never rename each other's temp file; the last replace wins.
    """
    # Exclusive create under a random name (not mkstemp, whose 0600 mode
    # would ignore the umask the final file has always been created with).
    temp = f"{path}.{secrets.token_hex(8)}.tmp"
    handle = open(temp, "xb")
    try:
        with handle:
            handle.write(payload)
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise


class CheckpointStore:
    """A directory of per-task result spills plus a run manifest."""

    def __init__(self, directory: str) -> None:
        self._directory = directory
        os.makedirs(directory, exist_ok=True)

    @property
    def directory(self) -> str:
        return self._directory

    def _task_path(self, task_id: str) -> str:
        safe = _SAFE_ID.sub("_", task_id) or "task"
        digest = hashlib.sha256(task_id.encode("utf-8")).hexdigest()[:12]
        return os.path.join(self._directory, f"{safe}-{digest}.pkl")

    def _manifest_path(self) -> str:
        return os.path.join(self._directory, _MANIFEST_NAME)

    # -- lifecycle ------------------------------------------------------------

    def reconcile(self, fingerprint: Any, *, resume: bool = True) -> None:
        """Bind the store to one run shape, clearing anything stale.

        ``fingerprint`` is either an already-computed digest string or
        any canonicalizable description of the run, which is keyed
        through :func:`repro.fingerprint.fingerprint` — the same scheme
        pipeline artifacts use, so the two layers can never disagree.
        With ``resume=False`` existing checkpoints are always dropped;
        otherwise they survive only when the recorded fingerprint
        matches exactly.
        """
        if not isinstance(fingerprint, str):
            fingerprint = _fingerprint(fingerprint)
        recorded: str | None = None
        try:
            with open(self._manifest_path(), encoding="utf-8") as handle:
                recorded = json.load(handle).get("fingerprint")
        except (OSError, ValueError):
            recorded = None
        if not resume or recorded != fingerprint:
            self.clear()
        with open(self._manifest_path(), "w", encoding="utf-8") as handle:
            json.dump({"fingerprint": fingerprint}, handle)

    def clear(self) -> None:
        """Drop every spilled result (the directory itself survives)."""
        for name in os.listdir(self._directory):
            # Spills end in .pkl; their temp files in .pkl.<random>.tmp.
            if name.endswith(".pkl") or (name.endswith(".tmp") and ".pkl." in name):
                try:
                    os.unlink(os.path.join(self._directory, name))
                except OSError:
                    pass

    # -- per-task results -----------------------------------------------------

    def load(self, task_id: str) -> Any:
        """The spilled result for ``task_id``, or :data:`MISSING`.

        A truncated or unreadable spill (e.g. from a kill mid-write on
        a filesystem without atomic replace) reads as missing — the
        task simply re-executes.
        """
        try:
            with open(self._task_path(task_id), "rb") as handle:
                return pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError, ValueError):
            return MISSING

    def save(self, task_id: str, payload: Any) -> None:
        """Atomically spill one completed task's result."""
        atomic_write_bytes(
            self._task_path(task_id),
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def completed_count(self) -> int:
        """How many task results are currently spilled."""
        return sum(1 for name in os.listdir(self._directory) if name.endswith(".pkl"))

    # -- failure reports ------------------------------------------------------

    def write_report(self, payload: dict[str, Any], name: str = "failure_report.json") -> str:
        """Persist a failure report next to the checkpoints; returns its path."""
        path = os.path.join(self._directory, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        return path
