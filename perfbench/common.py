"""Plumbing shared by every workload: checkout layout, statistics, results.

Everything the benchmark writes goes under ``.perfbench-tmp/`` in the
checkout (control-plane SQLite files, journals, span dumps), and every
child process it starts gets the same directory as its ``TMPDIR``.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench-tmp"

#: Workload name -> the module that runs it.
WORKLOADS = {
    "cold_translate": "perfbench.cold",
    "warm_http": "perfbench.warm_http",
    "learn_feedback": "perfbench.learn",
}

#: The seed whose response digests ``digests.json`` records.
DEFAULT_SEED = 0

#: A p99 is reported only with at least this many samples beyond it, so a
#: run keeps measuring past ``--seconds`` until it has
#: ``MIN_BEYOND_P99 / 0.01`` latency samples.
MIN_BEYOND_P99 = 10
MIN_SAMPLES = 1000

#: Latency and throughput are computed per block of this many requests
#: (in completion order) and reported as the median over blocks.
BLOCK_REQUESTS = 1000

#: The response digest covers this many requests from the start of the
#: stream; every run completes at least this many (``MIN_SAMPLES``).
DIGEST_REQUESTS = 1000

#: Set-up is measured this many times per run (fresh processes) and the
#: median reported.
SETUP_SAMPLES = 5

#: No run measures longer than this, whatever ``MIN_SAMPLES`` asks for.
MAX_MEASURE_SECONDS = 120.0


class CheckoutError(RuntimeError):
    """The benchmark is not running from a checkout that holds the program."""


def require_checkout() -> None:
    """Put ``src/`` on the import path, or fail when it is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckoutError(
            f"no program source at {SRC / 'repro'}; run the benchmark from "
            f"the root of a full checkout"
        )
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def scratch_dir(prefix: str) -> Path:
    """A fresh directory under the checkout's ``.perfbench-tmp/``.

    Also points :mod:`tempfile` there, so nothing the program creates
    lands outside the checkout.
    """
    TMP_ROOT.mkdir(exist_ok=True)
    tempfile.tempdir = str(TMP_ROOT)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=TMP_ROOT))


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    TMP_ROOT.mkdir(exist_ok=True)
    env["TMPDIR"] = str(TMP_ROOT)
    return env


def environment() -> dict:
    """Facts recorded with every result."""
    return {
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------- statistics


def percentile(ordered: list[float], q: float) -> float:
    """Linearly interpolated ``q``-quantile of an ascending list."""
    if not ordered:
        raise ValueError("no samples")
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def beyond(ordered: list[float], value: float) -> int:
    """How many samples lie strictly above ``value``."""
    count = 0
    for sample in reversed(ordered):
        if sample <= value:
            break
        count += 1
    return count


def latency_summary(samples_ms: list[float]) -> dict:
    """Median and p99 with the sample-count rule applied.

    ``p99_reportable`` is False unless at least ``MIN_BEYOND_P99``
    samples lie beyond the p99.
    """
    ordered = sorted(samples_ms)
    p99 = percentile(ordered, 0.99)
    tail = beyond(ordered, p99)
    return {
        "n": len(ordered),
        "p50": percentile(ordered, 0.50),
        "p99": p99,
        "beyond_p99": tail,
        "p99_reportable": tail >= MIN_BEYOND_P99,
    }


def median(values: list[float]) -> float:
    return percentile(sorted(values), 0.5)


class ResponseDigest:
    """SHA-256 over the ordered SQL of the first ``limit`` responses."""

    def __init__(self, limit: int = DIGEST_REQUESTS) -> None:
        self.limit = limit
        self.count = 0
        self._hash = hashlib.sha256()

    def add(self, sqls) -> None:
        if self.count >= self.limit:
            return
        self.count += 1
        for sql in sqls:
            self._hash.update(sql.encode("utf-8"))
            self._hash.update(b"\n")
        self._hash.update(b"\x00")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


# ------------------------------------------------------------- set-up


def spawn_until_ready(module: str, args: list[str], timeout: float = 120.0):
    """Start ``python -m module args`` and wait for its ``READY`` line.

    Returns ``(process, seconds_to_ready, fields)`` where ``fields`` are
    the words after ``READY``.  The child is expected to stop when its
    standard input closes.
    """
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-m", module, *args],
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    deadline = started + timeout
    while True:
        line = process.stdout.readline()
        if not line:
            stop(process)
            raise RuntimeError(
                f"{module} exited before it was ready (code "
                f"{process.returncode})"
            )
        if line.startswith("READY"):
            return process, time.perf_counter() - started, line.split()[1:]
        if time.perf_counter() > deadline:
            stop(process)
            raise RuntimeError(f"{module} was not ready within {timeout} s")


def stop(process, timeout: float = 60.0) -> str:
    """Close the child's stdin, wait for it, return what it printed after."""
    if process.stdin is not None and not process.stdin.closed:
        try:
            process.stdin.close()
        except OSError:
            pass
    try:
        rest = process.stdout.read() if process.stdout is not None else ""
        process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        rest = ""
    return rest


def measure_setup(module: str, args: list[str], samples: int) -> list[float]:
    """Seconds from process start to ready, for ``samples`` fresh processes."""
    seconds = []
    for _ in range(samples):
        process, elapsed, _ = spawn_until_ready(module, args)
        stop(process)
        if process.returncode != 0:
            raise RuntimeError(
                f"set-up probe {module} {' '.join(args)} exited with code "
                f"{process.returncode}"
            )
        seconds.append(elapsed)
    return seconds


def measure_setup_metric(result, module: str, args: list[str]) -> None:
    """Set ``setup_s`` to the median of ``SETUP_SAMPLES`` fresh probes."""
    samples = measure_setup(module, args, SETUP_SAMPLES)
    result.metrics["setup_s"] = (median(samples), "s")
    result.info.append(("setup_samples", len(samples), "count"))
    result.info.append(("setup_max_s", max(samples), "s"))


# -------------------------------------------------------------- results


@dataclass
class Result:
    """What one workload run reports."""

    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    checks_failed: list[str] = field(default_factory=list)
    #: End-to-end metrics by name: (value, unit).
    metrics: dict = field(default_factory=dict)
    #: Per-layer metrics by name (traced runs): (value, unit).
    layers: dict = field(default_factory=dict)
    #: Supporting numbers printed but not gated on: (name, value, unit).
    info: list = field(default_factory=list)
    #: Printed verbatim after the metric lines (traced runs).
    notes: list = field(default_factory=list)
    #: The response digest this run computed (see checks.check_digest).
    digest: dict | None = None

    @property
    def correct(self) -> bool:
        return not self.checks_failed and self.failed == 0

    def fail(self, message: str) -> None:
        self.checks_failed.append(message)

    def add_timing(self, samples: list[tuple[float, float]]) -> None:
        """Latency and throughput metrics from ``(done_s, latency_ms)`` pairs.

        ``done_s`` is when the request completed on the run's measured
        clock (time spent outside the timed region is not on it).  The
        samples are cut, in completion order, into blocks of
        ``BLOCK_REQUESTS``; each block gives a median, a p99 and a
        throughput, and the run reports the median over blocks, so a
        burst of machine noise shorter than a block moves nothing.
        """
        ordered = sorted(samples)
        count = max(1, len(ordered) // BLOCK_REQUESTS)
        size = len(ordered) // count
        p50s, p99s, rates, tails = [], [], [], []
        start = 0.0
        for index in range(count):
            block = ordered[index * size:
                            len(ordered) if index == count - 1
                            else (index + 1) * size]
            summary = latency_summary([latency for _, latency in block])
            p50s.append(summary["p50"])
            p99s.append(summary["p99"])
            tails.append(summary["beyond_p99"])
            end = block[-1][0]
            rates.append(len(block) / (end - start) if end > start else 0.0)
            start = end
        if min(tails) < MIN_BEYOND_P99:
            self.fail(
                f"a p99 has only {min(tails)} samples beyond it "
                f"({len(ordered)} samples in {count} blocks)"
            )
        self.metrics["latency_p50_ms"] = (median(p50s), "ms")
        self.metrics["latency_p99_ms"] = (median(p99s), "ms")
        self.metrics["throughput_rps"] = (median(rates), "1/s")
        pooled = latency_summary([latency for _, latency in ordered])
        self.info.append(("latency_samples", len(ordered), "count"))
        self.info.append(("latency_blocks", count, "count"))
        self.info.append(("latency_p99_beyond_min", min(tails), "count"))
        self.info.append(("latency_pooled_p50_ms", pooled["p50"], "ms"))
        self.info.append(("latency_pooled_p99_ms", pooled["p99"], "ms"))
        self.info.append(
            ("throughput_pooled_rps", len(ordered) / ordered[-1][0], "1/s"))
