"""Control-plane acceptance benchmark: two replicas, one durable store.

Not part of the paper's evaluation; this regenerates the acceptance
numbers of the persistent control-plane subsystem:

* **durable hit latency** — a translation answered from the shared
  SQLite store (replica B serving a request replica A warmed) must cost
  no more than :data:`DURABLE_HIT_BUDGET` times an in-process LRU hit.
  Neither path parses the repeated NLQ (the LRU holds an NLQ-keyed
  entry; durable admission runs before parsing), so this is the whole
  HTTP-free request path both times.
* **zero duplicated learning** — two *separate gateway processes* share
  one store; an observed request served by replica A and idempotently
  retried against replica B (same ``Idempotency-Key``) must contribute
  exactly one observation across the fleet.  This is gated, never
  advisory.
* **cross-replica warmth and feedback** — a request warmed by replica A
  hits durably on replica B, and an accepted verdict submitted to B
  reaches A's QFG through its learning scheduler.

Run with ``PYTHONPATH=src python benchmarks/bench_controlplane.py``; CI
runs ``--smoke`` (fewer latency passes, the latency ratio becomes
advisory — shared runners jitter; the zero-duplication and
cross-replica gates stay hard).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _harness import format_rows, publish  # noqa: E402
from snapshot import emit_snapshot  # noqa: E402

from repro.api import Engine, EngineConfig  # noqa: E402

NLQ_WARM = "return the papers after 2000"
NLQ_OBSERVED = "return the organizations"
#: Durable hits may cost at most this many in-process LRU hits.  The LRU
#: hit stopped paying the NaLIR parse when NLQs got their own cache
#: entries (~6x cheaper), while a durable hit still reads and decodes a
#: stored payload from SQLite: ~3x of the LRU hit on a 2-CPU host.
DURABLE_HIT_BUDGET = 5.0
#: The two replica subprocesses share this much wall clock to come up.
READY_DEADLINE = 90.0
#: An accepted verdict submitted to one replica must reach the other
#: replica's QFG (via its learning scheduler) within this long.
PROPAGATION_DEADLINE = 30.0

_PORT_RE = re.compile(r"http://127\.0\.0\.1:(\d+)/")


def _post(port: int, path: str, payload: dict, headers: dict | None = None,
          timeout: float = 30.0):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def _get(port: int, path: str, timeout: float = 30.0):
    url = f"http://127.0.0.1:{port}{path}"
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, json.loads(response.read())


# ------------------------------------------------------------ phase A


def bench_hit_latency(tmp: Path, passes: int):
    """(lru_hit_s, durable_hit_s) medians over ``passes`` warm repeats.

    The LRU side is an engine without a control plane (warm repeats hit
    the in-process result cache); the durable side is a *fresh* engine
    on a store another engine warmed, so every repeat is answered from
    SQLite — the cross-replica path, minus HTTP.
    """
    def timed(engine) -> list[float]:
        samples = []
        for _ in range(passes):
            begun = time.perf_counter()
            engine.translate(NLQ_WARM)
            samples.append(time.perf_counter() - begun)
        return samples

    with Engine.from_config(EngineConfig(dataset="mas")) as engine:
        engine.translate(NLQ_WARM)  # populate the LRU
        lru = timed(engine)

    store = str(tmp / "latency-cp.db")
    with Engine.from_config(
        EngineConfig(dataset="mas", control_plane_path=store)
    ) as warmer:
        warmer.translate(NLQ_WARM)  # replica A warms the store
    with Engine.from_config(
        EngineConfig(dataset="mas", control_plane_path=store)
    ) as replica:
        durable = timed(replica)  # replica B never computed this request
        provenance = replica.translate(NLQ_WARM).provenance
        if provenance.get("control_plane") != "durable":
            raise AssertionError(
                f"expected durable hits on the fresh replica, provenance "
                f"says {provenance.get('control_plane')!r}"
            )
    return statistics.median(lru), statistics.median(durable)


# ------------------------------------------------------------ phase B


class Replica:
    """One ``repro gateway`` subprocess bound to a shared store."""

    def __init__(self, name: str, config_path: Path) -> None:
        self.name = name
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "gateway",
             "--config", str(config_path), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        self.port = self._await_port()

    def _await_port(self) -> int:
        """Parse the bound port off the CLI's endpoint table."""
        found: list[int] = []

        def scan() -> None:
            for line in self.process.stdout:
                match = _PORT_RE.search(line)
                if match:
                    found.append(int(match.group(1)))
                    return

        scanner = threading.Thread(target=scan, daemon=True)
        scanner.start()
        scanner.join(READY_DEADLINE)
        if not found:
            raise RuntimeError(
                f"replica {self.name} printed no endpoint table within "
                f"{READY_DEADLINE:.0f}s: {self.process.stderr.read()[:2000]}"
            )
        return found[0]

    def await_ready(self, deadline: float) -> None:
        while time.monotonic() < deadline:
            try:
                status, _ = _get(self.port, "/readyz", timeout=5.0)
                if status == 200:
                    return
            except Exception:  # noqa: BLE001 - still warming up
                pass
            time.sleep(0.1)
        raise RuntimeError(f"replica {self.name} never became ready")

    def learning_total(self) -> int:
        """Pending observations + QFG totals: invariant under absorption."""
        _, stats = _get(self.port, "/t/mas/stats")
        engine = stats["engine"]
        return (
            engine["pending_observations"]
            + engine["qfg"]["total_queries"]
        )

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(15.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(15.0)
        self.process.stdout.close()
        self.process.stderr.close()


def _await_cache_row(store: Path, deadline: float = 10.0) -> None:
    """Wait for replica A's write-behind thread to land its cache row.

    The durable cache is written *behind* the response (the hot path
    never blocks on SQLite), so a request fired at replica B immediately
    after A's response races the flush.  Real cross-replica warmth is
    eventual; the bench waits for it explicitly instead of sleeping.
    """
    from repro.controlplane import ControlPlaneStore

    begun = time.monotonic()
    with ControlPlaneStore(store) as reader:
        while time.monotonic() - begun < deadline:
            if reader.stats()["rows"]["cache"]:
                return
            time.sleep(0.05)
    raise RuntimeError(
        f"replica A's durable cache write never landed within {deadline}s"
    )


def bench_two_replicas(tmp: Path):
    """Two gateway processes on one store: warmth, idempotency, feedback.

    Returns ``(duplicated, durable_cross, propagation_s)``: observations
    beyond the expected single one after an idempotent retry across
    replicas, whether B served A's warmed request durably, and how long
    an accepted verdict took to reach the *other* replica's QFG.
    """
    store = tmp / "fleet-cp.db"
    replicas = []
    for name in ("a", "b"):
        config = {
            "tenants": {"mas": {"engine": {"dataset": "mas"}}},
            "journal_dir": str(tmp / f"journal-{name}"),
            "control_plane_path": str(store),
            "learn_interval_seconds": 0.5,
            "learn_jitter": 0.0,
        }
        path = tmp / f"gateway-{name}.json"
        path.write_text(json.dumps(config))
        replicas.append(Replica(name, path))
    a, b = replicas
    try:
        deadline = time.monotonic() + READY_DEADLINE
        for replica in replicas:
            replica.await_ready(deadline)

        # --- cross-replica durable warmth -----------------------------
        _, warm = _post(a.port, "/t/mas/translate", {"nlq": NLQ_WARM})
        warm_request_id = warm["provenance"]["request_id"]
        _await_cache_row(store)  # replica A's write-behind flush
        _, echo = _post(b.port, "/t/mas/translate", {"nlq": NLQ_WARM})
        durable_cross = echo["provenance"].get("control_plane") == "durable"

        # --- idempotent retry across replicas -------------------------
        baseline = a.learning_total() + b.learning_total()
        body = {"nlq": NLQ_OBSERVED, "observe": True}
        headers = {"Idempotency-Key": "bench-retry-1"}
        _, first = _post(a.port, "/t/mas/translate", body, headers)
        _, retried = _post(b.port, "/t/mas/translate", body, headers)
        if not retried["provenance"].get("idempotent_replay"):
            raise AssertionError(
                f"the retry against replica b was not replayed: "
                f"{retried['provenance']}"
            )
        # pending + absorbed is invariant under the schedulers' ticks,
        # so this reads exactly 'observations contributed by the fleet'.
        duplicated = (
            a.learning_total() + b.learning_total() - baseline
        ) - 1

        # --- feedback reaches the *other* replica ---------------------
        before_a = a.learning_total()
        _, verdict = _post(
            b.port, "/t/mas/feedback",
            {"verdict": "accept", "request_id": warm_request_id},
        )
        if verdict["applied"] < 1:
            raise AssertionError(
                f"replica b did not apply its own accepted verdict: "
                f"{verdict}"
            )
        begun = time.monotonic()
        propagation_s = None
        while time.monotonic() - begun < PROPAGATION_DEADLINE:
            if a.learning_total() > before_a:
                propagation_s = time.monotonic() - begun
                break
            time.sleep(0.1)
        return duplicated, durable_cross, propagation_s, first
    finally:
        for replica in replicas:
            replica.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="fewer latency passes; the durable/LRU latency ratio becomes "
             "advisory (the zero-duplication and cross-replica gates stay "
             "hard)",
    )
    args = parser.parse_args()
    passes = 20 if args.smoke else 200

    with tempfile.TemporaryDirectory() as raw:
        tmp = Path(raw)
        lru_s, durable_s = bench_hit_latency(tmp, passes)
        duplicated, durable_cross, propagation_s, first = (
            bench_two_replicas(tmp)
        )

    ratio = durable_s / lru_s if lru_s else float("inf")
    rows = [
        ["in-process LRU hit", f"{lru_s * 1e6:.0f} us", f"{passes} passes"],
        ["durable hit (fresh replica)", f"{durable_s * 1e6:.0f} us",
         f"{ratio:.2f}x of LRU (budget {DURABLE_HIT_BUDGET:.1f}x)"],
        ["warmed request on replica B", "durable" if durable_cross else "MISS",
         "served from the shared store"],
        ["observations after cross-replica retry", str(1 + duplicated),
         "expected exactly 1"],
        ["accepted verdict reached replica A",
         f"{propagation_s:.2f} s" if propagation_s is not None else "NEVER",
         "via its learning scheduler"],
    ]
    table = format_rows(["measure", "value", "note"], rows)
    publish(
        "controlplane",
        "Two gateway replicas, one durable store: cache warmth, "
        "idempotent retries, feedback loop",
        table,
    )

    hard_failures = []
    advisories = []
    if duplicated != 0:
        hard_failures.append(
            f"idempotent retry across replicas duplicated learning: "
            f"{1 + duplicated} observations, acceptance requires exactly 1"
        )
    if not durable_cross:
        hard_failures.append(
            "replica B recomputed a request replica A had already warmed "
            "in the shared store"
        )
    if propagation_s is None:
        hard_failures.append(
            f"accepted feedback never reached the other replica's QFG "
            f"within {PROPAGATION_DEADLINE:.0f}s"
        )
    if first["provenance"].get("idempotent_replay"):
        hard_failures.append(
            "the first keyed request was itself a replay; the store was "
            "not fresh"
        )
    if ratio > DURABLE_HIT_BUDGET:
        message = (
            f"durable hits cost {ratio:.2f}x an LRU hit "
            f"(budget {DURABLE_HIT_BUDGET:.1f}x)"
        )
        (advisories if args.smoke else hard_failures).append(message)

    snapshot = emit_snapshot(
        "controlplane",
        {
            "lru_hit_us": round(lru_s * 1e6, 1),
            "durable_hit_us": round(durable_s * 1e6, 1),
            "durable_over_lru": round(ratio, 3),
            "duplicated_observations": duplicated,
            "cross_replica_durable_hit": durable_cross,
            "feedback_propagation_s": (
                round(propagation_s, 3) if propagation_s is not None else None
            ),
        },
        config={
            "passes": passes,
            "durable_hit_budget": DURABLE_HIT_BUDGET,
            "smoke": args.smoke,
        },
    )
    print(f"snapshot: {snapshot}")

    for failure in hard_failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    for advisory in advisories:
        print(f"ADVISORY: {advisory} [not gating in --smoke]", file=sys.stderr)
    if not hard_failures:
        print(
            f"PASS: durable hits at {ratio:.2f}x of LRU, one observation "
            f"across an idempotent cross-replica retry, warmed request "
            f"served durably on the second replica, accepted feedback "
            f"propagated in {propagation_s:.2f}s"
        )
    return 1 if hard_failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
