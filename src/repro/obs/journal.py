"""Durable append-only request journal: JSONL segments on disk.

PR 6's traces, histograms and counters all live in-process and vanish
on restart; the journal is the persistent half of the observability
stack.  Every served translate (single-engine server and gateway alike)
appends one record — tenant, NLQ/keywords, chosen SQL, scores, latency,
cache hit/miss, error type, artifact version, trace id — and gateway
hot-reloads append a ``reload`` record.  The files are what
:mod:`repro.obs.selfquery` later loads back into a
:class:`repro.db.Database` so the NLIDB can answer NLQs over its own
serving history.

Design constraints, in order:

* **The hot path must stay within the <= 2 µs per-request budget** on
  the warm serving wire path (``bench_perf_core.py``).  :meth:`RequestJournal.offer`
  therefore does no serialization, no string work, no locking and no
  I/O: it is one bounded-length check and one ``deque.append`` of a
  pre-built tuple of references.  A single daemon writer thread drains
  the queue in batches every ``flush_interval`` seconds, builds the JSON
  lines, and appends them to the tail segment.
* **Durability is segment-grained, not record-grained.**  Records are
  buffered up to ``flush_interval``; a crash loses at most that window
  plus whatever the OS had not yet flushed.  What is *never* lost is
  integrity: segments rotate only **between** records (a record never
  spans two files), and opening a journal repairs a torn final line
  (truncate to the last newline) before appending, so replay after a
  crash sees only complete records.
* **Retention is bounded.**  When the tail segment would exceed
  ``segment_bytes`` the writer rotates to a new file and deletes the
  oldest segments beyond ``segments``; the journal's disk footprint is
  ~``segment_bytes * segments`` regardless of uptime.
* **Overload sheds, it does not block.**  When the in-memory queue is
  full :meth:`offer` drops the record and counts it
  (:attr:`RequestJournal.dropped`) instead of stalling a request thread.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path

from ..errors import JournalError

#: Segment file names: ``journal-00000000.jsonl``, monotonically numbered.
SEGMENT_PREFIX = "journal-"
SEGMENT_SUFFIX = ".jsonl"

#: Record kinds written by the journal (the ``kind`` field of each line).
KINDS = ("request", "error", "reload", "feedback", "canary")


def _segment_index(path: Path) -> int | None:
    name = path.name
    if not (name.startswith(SEGMENT_PREFIX) and name.endswith(SEGMENT_SUFFIX)):
        return None
    stem = name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)]
    return int(stem) if stem.isdigit() else None


def segment_files(directory: str | Path) -> list[Path]:
    """The journal's segment files, oldest first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = []
    for path in directory.iterdir():
        index = _segment_index(path)
        if index is not None:
            found.append((index, path))
    return [path for _, path in sorted(found)]


def replay_journal(directory: str | Path):
    """Yield journal records oldest-first, skipping torn or corrupt lines.

    Replay is read-only and tolerant by construction: a truncated final
    line (crash mid-append) or a corrupt line anywhere simply does not
    yield — it never raises — so a journal written by a killed process
    is always replayable.  Re-replaying the same directory yields the
    same records (replay mutates nothing).
    """
    for path in segment_files(directory):
        try:
            text = path.read_text("utf-8")
        except OSError:
            continue
        for line in text.split("\n"):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and record.get("kind") in KINDS:
                yield record


def _keyword_texts(keywords) -> list[str]:
    return [getattr(k, "text", None) or str(k) for k in (keywords or ())]


class RequestJournal:
    """Append-only JSONL journal with rotation, retention and batching.

    ``offer`` is the only method requests touch; everything else runs on
    the writer thread or at open/close time.  The creator owns the
    journal and must :meth:`close` it (engines close journals they
    built from config; the gateway closes the shared journal it hands
    to its tenants).
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        segment_bytes: int = 1_000_000,
        segments: int = 8,
        flush_interval: float = 0.2,
        max_queue: int = 10_000,
    ) -> None:
        if segment_bytes < 256:
            raise JournalError(
                f"journal segment_bytes must be >= 256, got {segment_bytes}"
            )
        if segments < 1:
            raise JournalError(
                f"journal segments must be >= 1, got {segments}"
            )
        self.directory = Path(directory)
        self.segment_bytes = int(segment_bytes)
        self.segments = int(segments)
        self.flush_interval = float(flush_interval)
        self.max_queue = int(max_queue)
        self.dropped = 0
        self.encode_errors = 0
        self.written = 0
        self._queue: deque = deque()
        self._io_lock = threading.RLock()
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._closed = False
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise JournalError(
                f"cannot create journal directory {self.directory}: {exc}"
            ) from exc
        self._repair()
        self._tail = None
        self._tail_index = -1
        self._tail_size = 0
        self._open_tail()
        self._writer = threading.Thread(
            target=self._run, name="repro-journal-writer", daemon=True
        )
        self._writer.start()

    # -- hot path ----------------------------------------------------------

    def offer(self, row: tuple) -> bool:
        """Enqueue one pre-built record tuple; never blocks, never raises.

        ``row[0]`` is the kind; the writer thread does all serialization,
        so callers pass references (keyword lists, result objects) as-is.
        Returns ``False`` when the record was shed (queue full or journal
        closed) — callers on the request path ignore the return value.
        """
        if self._closed or len(self._queue) >= self.max_queue:
            self.dropped += 1
            return False
        self._queue.append(row)
        return True

    # -- convenience emitters (not on the per-request hot path) ------------

    def log_reload(
        self,
        tenant: str,
        *,
        old_version: str | None,
        new_version: str | None,
        carried_observations: int = 0,
        build_ms: float = 0.0,
    ) -> bool:
        return self.offer((
            "reload", time.time(), tenant, old_version, new_version,
            int(carried_observations), float(build_ms),
        ))

    def log_feedback(
        self,
        tenant: str,
        *,
        verdict: str,
        nlq: str | None = None,
        sql: str | None = None,
        corrected_sql: str | None = None,
        request_id: str | None = None,
    ) -> bool:
        """One user verdict (accept/reject/correct) on a served response."""
        return self.offer((
            "feedback", time.time(), tenant, verdict, nlq, sql,
            corrected_sql, request_id,
        ))

    def log_canary(self, report) -> bool:
        """One shadow-canary verdict (a reload's pre-swap judgment).

        ``report`` is a :class:`~repro.obs.canary.CanaryReport`; only
        plain fields are journaled so replay needs no class.
        """
        return self.offer((
            "canary", time.time(), report.tenant, report.old_version,
            report.new_version, int(report.replayed),
            int(report.mismatches), float(report.divergence),
            float(report.score_shift), float(report.threshold),
            bool(report.passed), bool(report.forced),
        ))

    # -- lifecycle ---------------------------------------------------------

    @property
    def pending(self) -> int:
        """Records enqueued but not yet written."""
        return len(self._queue)

    def stats(self) -> dict:
        """Writer counters: what reached disk, what was shed, what waits."""
        return {
            "directory": str(self.directory),
            "written": self.written,
            "dropped": self.dropped,
            "encode_errors": self.encode_errors,
            "pending": self.pending,
        }

    def flush(self) -> None:
        """Drain the queue and flush the tail segment, synchronously."""
        self._drain()

    def close(self) -> None:
        """Stop the writer, drain remaining records, close the tail file."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        self._wake.set()
        self._writer.join(timeout=10.0)
        self._drain()
        with self._io_lock:
            if self._tail is not None:
                self._tail.close()
                self._tail = None

    def __enter__(self) -> "RequestJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- replay ------------------------------------------------------------

    @staticmethod
    def replay(directory: str | Path):
        """Alias for :func:`replay_journal`."""
        return replay_journal(directory)

    def records(self) -> list[dict]:
        """Flush, then replay this journal's own directory into a list."""
        self.flush()
        return list(replay_journal(self.directory))

    def segment_paths(self) -> list[Path]:
        return segment_files(self.directory)

    # -- writer internals --------------------------------------------------

    def _run(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(self.flush_interval)
            self._wake.clear()
            self._drain()
        self._drain()

    def _drain(self) -> None:
        with self._io_lock:
            queue = self._queue
            lines = []
            while queue:
                try:
                    row = queue.popleft()
                except IndexError:  # pragma: no cover - single consumer
                    break
                try:
                    lines.append(self._encode(row))
                except Exception:
                    self.encode_errors += 1
            if lines and self._tail is not None:
                self._write_locked(lines)

    def _write_locked(self, lines: list[str]) -> None:
        for line in lines:
            blob = (line + "\n").encode("utf-8")
            # Rotate only *between* records: a record never spans two
            # segments, and a record larger than segment_bytes still
            # lands whole (in its own segment).
            if self._tail_size and self._tail_size + len(blob) > self.segment_bytes:
                self._rotate_locked()
            self._tail.write(blob)
            self._tail_size += len(blob)
            self.written += 1
        self._tail.flush()

    def _rotate_locked(self) -> None:
        self._tail.close()
        self._tail_index += 1
        self._tail = open(self._segment_path(self._tail_index), "ab")
        self._tail_size = 0
        paths = segment_files(self.directory)
        while len(paths) > self.segments:
            oldest = paths.pop(0)
            try:
                oldest.unlink()
            except OSError:  # pragma: no cover - concurrent cleanup
                pass

    def _segment_path(self, index: int) -> Path:
        return self.directory / f"{SEGMENT_PREFIX}{index:08d}{SEGMENT_SUFFIX}"

    def _repair(self) -> None:
        """Truncate a torn final line left by a crash mid-append."""
        paths = segment_files(self.directory)
        if not paths:
            return
        tail = paths[-1]
        try:
            data = tail.read_bytes()
        except OSError:
            return
        if not data or data.endswith(b"\n"):
            return
        cut = data.rfind(b"\n")
        with open(tail, "r+b") as handle:
            handle.truncate(cut + 1 if cut >= 0 else 0)

    def _open_tail(self) -> None:
        paths = segment_files(self.directory)
        if paths:
            last = paths[-1]
            size = last.stat().st_size
            index = _segment_index(last)
            if size < self.segment_bytes:
                self._tail = open(last, "ab")
                self._tail_index = index
                self._tail_size = size
                return
            self._tail_index = index
        self._tail_index += 1
        self._tail = open(self._segment_path(self._tail_index), "ab")
        self._tail_size = 0

    # -- serialization -----------------------------------------------------

    def _encode(self, row: tuple) -> str:
        kind = row[0]
        if kind == "request":
            (_, ts, tenant, nlq, keywords, top, latency_ms, cache_hit,
             artifact_version, trace_id) = row
            record = {
                "kind": "request",
                "ts": round(ts, 6),
                "tenant": tenant,
                "nlq": nlq,
                "keywords": _keyword_texts(keywords),
                "sql": getattr(top, "sql", None),
                "config_score": getattr(top, "config_score", None),
                "join_score": getattr(top, "join_score", None),
                "latency_ms": round(latency_ms, 3),
                "cache_hit": bool(cache_hit),
                "artifact_version": artifact_version,
                "trace_id": trace_id,
            }
        elif kind == "error":
            (_, ts, tenant, nlq, keywords, error_type, latency_ms,
             artifact_version) = row
            record = {
                "kind": "error",
                "ts": round(ts, 6),
                "tenant": tenant,
                "nlq": nlq,
                "keywords": _keyword_texts(keywords),
                "error_type": error_type,
                "latency_ms": round(latency_ms, 3),
                "artifact_version": artifact_version,
            }
        elif kind == "feedback":
            (_, ts, tenant, verdict, nlq, sql, corrected_sql,
             request_id) = row
            record = {
                "kind": "feedback",
                "ts": round(ts, 6),
                "tenant": tenant,
                "verdict": verdict,
                "nlq": nlq,
                "sql": sql,
                "corrected_sql": corrected_sql,
                "request_id": request_id,
            }
        elif kind == "reload":
            (_, ts, tenant, old_version, new_version, carried, build_ms) = row
            record = {
                "kind": "reload",
                "ts": round(ts, 6),
                "tenant": tenant,
                "old_version": old_version,
                "new_version": new_version,
                "carried_observations": carried,
                "build_ms": round(build_ms, 3),
            }
        elif kind == "canary":
            (_, ts, tenant, old_version, new_version, replayed, mismatches,
             divergence, score_shift, threshold, passed, forced) = row
            record = {
                "kind": "canary",
                "ts": round(ts, 6),
                "tenant": tenant,
                "old_version": old_version,
                "new_version": new_version,
                "replayed": replayed,
                "mismatches": mismatches,
                "divergence": round(divergence, 4),
                "score_shift": round(score_shift, 4),
                "threshold": threshold,
                "passed": passed,
                "forced": forced,
            }
        else:
            raise JournalError(f"unknown journal record kind {kind!r}")
        return json.dumps(record, separators=(",", ":"), default=str)


__all__ = [
    "KINDS",
    "RequestJournal",
    "replay_journal",
    "segment_files",
]
