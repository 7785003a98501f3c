"""Gateway acceptance benchmark: multi-tenant throughput + reload blackout.

Not part of the paper's evaluation; this regenerates the two acceptance
numbers of the multi-tenant gateway subsystem:

* **consolidation** — aggregate HTTP throughput of one gateway hosting
  mas, yelp and imdb behind a single port, versus the same three
  engines behind three one-tenant gateways — what ``repro serve`` runs
  (the in-process stand-in for N separate processes: same handlers,
  same engines, one port each).  Hosting everything in one process must not cost more
  than a modest routing overhead.
* **hot-reload blackout** — traffic is hammered at one tenant while a
  new artifact version is published and ``/admin/reload`` fires.  The
  acceptance criterion is **zero failed requests** during the swap
  (this is gated, never advisory), every response attributable to
  exactly the old or the new version, and both versions observed (the
  swap really happened mid-traffic).  The "blackout" is the worst
  request latency in the swap window — with RCU swapping there is no
  pause, so it should sit near the steady-state tail, and the new
  engine is built entirely off the serving path.
* **shadow-canary gate** — a deliberately degraded artifact (the QFG
  compiled from a truncated query log) is published and a reload is
  requested while traffic hammers the tenant.  Acceptance: the canary
  replay detects the divergence and the reload is **rejected with 422**,
  the old version keeps serving with zero failed requests, and a
  subsequently published clean artifact passes the same gate and swaps
  normally.  All of this is gated, never advisory.

Run with ``PYTHONPATH=src python benchmarks/bench_gateway.py``; CI runs
``--smoke`` (small request counts, throughput ratio advisory — shared
runners jitter; the zero-failure gate still fails the script).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _harness import format_rows, publish  # noqa: E402
from snapshot import emit_snapshot  # noqa: E402

from repro.core.log import QueryLog  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.gateway import Gateway, GatewayConfig, make_gateway_server  # noqa: E402
from repro.obs.prometheus import parse_exposition  # noqa: E402
from repro.serving import ArtifactStore  # noqa: E402

TENANTS = ("mas", "yelp", "imdb")
NLQS = {
    "mas": "return the papers after 2000",
    "yelp": "return the businesses",
    "imdb": "return the movies",
}
#: One gateway process must keep at least this share of the separate
#: servers' aggregate throughput (routing overhead budget).
CONSOLIDATION_TARGET = 0.5


def _post(port: int, path: str, payload: dict, timeout: float = 30.0):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def _scrape(port: int, timeout: float = 30.0) -> tuple[str, str]:
    """(content_type, body) of a live server's ``/metrics`` page."""
    url = f"http://127.0.0.1:{port}/metrics"
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return (
            response.headers.get("Content-Type", ""),
            response.read().decode("utf-8"),
        )


def check_exposition(content_type: str, body: str) -> list[str]:
    """Validation failures of one scraped exposition page (empty = ok)."""
    problems = []
    if not content_type.startswith("text/plain; version=0.0.4"):
        problems.append(f"unexpected /metrics content type {content_type!r}")
    try:
        metrics = parse_exposition(body)
    except ValueError as exc:
        return problems + [f"/metrics page does not parse: {exc}"]
    tenant_series = [
        labels
        for labels, _ in metrics.get("repro_requests_total", [])
        if "tenant" in labels
    ]
    if not tenant_series:
        problems.append(
            "no tenant-labelled repro_requests_total series on the page"
        )
    for name, series in metrics.items():
        if not name.endswith("_bucket"):
            continue
        by_key: dict[tuple, list[tuple[float, float]]] = {}
        for labels, value in series:
            rest = tuple(
                sorted((k, v) for k, v in labels.items() if k != "le")
            )
            le = float(labels.get("le", "inf"))  # float('+Inf') parses
            by_key.setdefault(rest, []).append((le, value))
        for key, buckets in by_key.items():
            counts = [count for _, count in sorted(buckets)]
            if counts != sorted(counts):
                problems.append(
                    f"non-monotonic cumulative buckets in {name}{dict(key)}"
                )
    return problems


def _serve(server) -> threading.Thread:
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


def _drive(targets: list[tuple[int, str, dict]], threads_per_target: int,
           requests_per_thread: int) -> tuple[float, int]:
    """Aggregate qps + failure count for concurrent clients on `targets`."""
    failures = [0]
    lock = threading.Lock()

    def client(port: int, path: str, payload: dict) -> None:
        for _ in range(requests_per_thread):
            try:
                status, _ = _post(port, path, payload)
                if status != 200:
                    raise RuntimeError(f"status {status}")
            except Exception:  # noqa: BLE001 - tallied, not raised
                with lock:
                    failures[0] += 1

    workers = [
        threading.Thread(target=client, args=target)
        for target in targets
        for _ in range(threads_per_target)
    ]
    started = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    elapsed = time.perf_counter() - started
    total = len(workers) * requests_per_thread
    return total / elapsed, failures[0]


def _artifact_config(names, store_root: Path) -> GatewayConfig:
    """A gateway hosting `names`, each served from the artifact store."""
    return GatewayConfig.from_dict({
        "tenants": {
            name: {"engine": {
                "dataset": name,
                "log_source": "artifacts",
                "artifacts": str(store_root),
            }}
            for name in names
        },
    })


def bench_consolidation(store_root: Path, threads_per_tenant: int,
                        requests_per_thread: int):
    """(gateway qps, separate-servers qps, failures) on identical traffic."""
    with Gateway.from_config(_artifact_config(TENANTS, store_root)) as gateway:
        server = make_gateway_server(gateway, port=0)
        _serve(server)
        port = server.server_address[1]
        targets = [
            (port, f"/t/{name}/translate", {"nlq": NLQS[name]})
            for name in TENANTS
        ]
        # Warm pass so both sides measure steady-state serving.
        _drive(targets, 1, 2)
        gateway_qps, gateway_failures = _drive(
            targets, threads_per_tenant, requests_per_thread
        )
        # Scrape while the tenants are live and have served traffic, so
        # the page carries tenant-labelled histograms worth validating.
        scrape = _scrape(port)
        server.shutdown()

    # The baseline: one `repro serve`-shaped gateway per tenant, each on
    # its own port and driven through the /translate alias.
    separate_servers = []
    targets = []
    for name in TENANTS:
        gateway = Gateway.from_config(
            _artifact_config([name], store_root)
        ).start()
        server = make_gateway_server(gateway, port=0)
        _serve(server)
        separate_servers.append((server, gateway))
        targets.append(
            (server.server_address[1], "/translate", {"nlq": NLQS[name]})
        )
    _drive(targets, 1, 2)
    separate_qps, separate_failures = _drive(
        targets, threads_per_tenant, requests_per_thread
    )
    for server, gateway in separate_servers:
        server.shutdown()
        gateway.close()
    return (
        gateway_qps, separate_qps,
        gateway_failures + separate_failures, scrape,
    )


def bench_reload_blackout(store_root: Path, client_threads: int,
                          seconds: float):
    """Hammer one tenant through a mid-load publish + reload.

    Returns (results, reload_info): results are per-request
    (ok, version, latency_seconds, monotonic_time) tuples; reload_info
    carries the versions and the swap timestamps.
    """
    dataset = load_dataset("mas")
    store = ArtifactStore(store_root)
    config = GatewayConfig.from_dict({
        "tenants": {"mas": {"engine": {
            "dataset": "mas",
            "log_source": "artifacts",
            "artifacts": str(store_root),
        }, "max_in_flight": 4 * client_threads}},
    })
    with Gateway.from_config(config) as gateway:
        server = make_gateway_server(gateway, port=0)
        _serve(server)
        port = server.server_address[1]
        old_version = gateway.host("mas").artifact_version

        results: list[tuple[bool, str | None, float, float]] = []
        lock = threading.Lock()
        stop = threading.Event()

        def hammer() -> None:
            payload = {"nlq": NLQS["mas"]}
            while not stop.is_set():
                begun = time.perf_counter()
                try:
                    _, body = _post(port, "/t/mas/translate", payload)
                    entry = (
                        True,
                        body["provenance"].get("artifact_version"),
                        time.perf_counter() - begun,
                        begun,
                    )
                except Exception:  # noqa: BLE001 - a failure IS the result
                    entry = (False, None, time.perf_counter() - begun, begun)
                with lock:
                    results.append(entry)

        workers = [
            threading.Thread(target=hammer) for _ in range(client_threads)
        ]
        for worker in workers:
            worker.start()
        time.sleep(seconds / 2)

        # Publish a new version mid-load, then hot-swap onto it.
        log = QueryLog(
            [item.gold_sql for item in dataset.usable_items()]
            + ["SELECT name FROM author WHERE name = 'bench'"]
        )
        new_version = store.compile(dataset, log).version
        reload_started = time.perf_counter()
        _post(port, "/admin/reload", {"tenant": "mas"})
        reload_ended = time.perf_counter()

        time.sleep(seconds / 2)
        stop.set()
        for worker in workers:
            worker.join(30.0)
        server.shutdown()

    return results, {
        "old": old_version,
        "new": new_version,
        "reload_started": reload_started,
        "reload_ended": reload_ended,
    }


def bench_canary_gate(root: Path, client_threads: int) -> dict:
    """Degraded artifact blocked, old version serves on, clean one swaps.

    Uses its own artifact store and journal so the phase is independent
    of the other benchmarks' stores.  The degraded artifact is the MAS
    QFG compiled from only the first three log statements — enough to
    still translate, wrong enough that replayed traffic diverges.
    """
    dataset = load_dataset("mas")
    store = ArtifactStore(root / "canary-store")
    clean_version = store.compile(dataset).version
    config = GatewayConfig.from_dict({
        "tenants": {"mas": {"engine": {
            "dataset": "mas",
            "log_source": "artifacts",
            "artifacts": str(root / "canary-store"),
        }, "max_in_flight": 4 * client_threads}},
        "journal_dir": str(root / "canary-journal"),
        "canary_requests": 16,
        "canary_divergence": 0.2,
    })
    outcome: dict = {"failures": []}
    with Gateway.from_config(config) as gateway:
        server = make_gateway_server(gateway, port=0)
        _serve(server)
        port = server.server_address[1]

        # Seed the journal with traffic the canary will replay; the
        # papers-after-2000 NLQ is the one a truncated-log QFG gets
        # wrong (join ranking collapses without log evidence).
        for _ in range(12):
            _post(port, "/t/mas/translate", {"nlq": NLQS["mas"]})
        for nlq in ("number of papers", "conferences with papers"):
            for _ in range(2):
                _post(port, "/t/mas/translate", {"nlq": nlq})

        degraded_log = QueryLog(
            [item.gold_sql for item in dataset.usable_items()][:3]
        )
        degraded_version = store.compile(dataset, degraded_log).version

        stop = threading.Event()
        hammer_failures = [0]
        lock = threading.Lock()

        def hammer() -> None:
            while not stop.is_set():
                try:
                    status, _ = _post(
                        port, "/t/mas/translate", {"nlq": NLQS["mas"]}
                    )
                    if status != 200:
                        raise RuntimeError(f"status {status}")
                except Exception:  # noqa: BLE001 - tallied, not raised
                    with lock:
                        hammer_failures[0] += 1

        workers = [
            threading.Thread(target=hammer) for _ in range(client_threads)
        ]
        for worker in workers:
            worker.start()

        blocked_status = None
        blocked_message = ""
        try:
            blocked_status, _ = _post(port, "/admin/reload", {"tenant": "mas"})
        except urllib.error.HTTPError as error:
            blocked_status = error.code
            blocked_message = json.loads(error.read()).get("error", "")
        if blocked_status != 422:
            outcome["failures"].append(
                f"degraded reload answered {blocked_status}, expected a "
                f"422 canary rejection"
            )
        elif "canary blocked" not in blocked_message:
            outcome["failures"].append(
                f"422 reload error does not mention the canary: "
                f"{blocked_message!r}"
            )
        serving = gateway.host("mas").artifact_version
        if serving != clean_version:
            outcome["failures"].append(
                f"after the blocked reload the tenant serves {serving}, "
                f"expected the old version {clean_version}"
            )

        # A clean republish (same log plus one benign statement) must
        # pass the very same gate and swap.
        clean_log = QueryLog(
            [item.gold_sql for item in dataset.usable_items()]
            + ["SELECT name FROM author WHERE name = 'canary'"]
        )
        new_version = store.compile(dataset, clean_log).version
        status, body = _post(port, "/admin/reload", {"tenant": "mas"})
        canary = (body.get("reloads") or [{}])[0].get("canary") or {}
        if status != 200 or not canary.get("passed"):
            outcome["failures"].append(
                f"clean reload did not pass the canary: status {status}, "
                f"canary {canary}"
            )
        if gateway.host("mas").artifact_version != new_version:
            outcome["failures"].append(
                f"clean reload did not swap to {new_version}"
            )

        stop.set()
        for worker in workers:
            worker.join(30.0)
        if hammer_failures[0]:
            outcome["failures"].append(
                f"{hammer_failures[0]} failed requests while the canary "
                f"evaluated (acceptance requires zero)"
            )
        stats = gateway.stats()["aggregate"]
        outcome.update({
            "old_version": clean_version,
            "degraded_version": degraded_version,
            "new_version": new_version,
            "blocked_status": blocked_status,
            "clean_canary": canary,
            "canary_passed": stats["canary_passed"],
            "canary_blocked": stats["canary_blocked"],
            "hammer_failures": hammer_failures[0],
        })
        server.shutdown()
    return outcome


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny traffic volumes; the throughput ratio becomes advisory "
             "(the zero-failed-requests gate stays hard)",
    )
    parser.add_argument(
        "--canary-only", action="store_true",
        help="run only the shadow-canary reload gate (every canary check "
             "is hard); exits 0 iff the degraded artifact is blocked under "
             "live load and the clean one passes and swaps",
    )
    args = parser.parse_args()
    threads_per_tenant = 2 if args.smoke else 4
    requests_per_thread = 5 if args.smoke else 40
    hammer_seconds = 1.0 if args.smoke else 4.0

    if args.canary_only:
        with tempfile.TemporaryDirectory() as tmp:
            canary = bench_canary_gate(
                Path(tmp), client_threads=threads_per_tenant
            )
        for failure in canary["failures"]:
            print(f"FAIL: {failure}", file=sys.stderr)
        if not canary["failures"]:
            print(
                f"PASS: canary blocked the degraded artifact "
                f"({canary['blocked_status']}), passed the clean one "
                f"(divergence {canary['clean_canary'].get('divergence')}), "
                f"{canary['hammer_failures']} failed during the gate"
            )
        return 1 if canary["failures"] else 0

    with tempfile.TemporaryDirectory() as tmp:
        store_root = Path(tmp)
        store = ArtifactStore(store_root)
        for name in TENANTS:
            store.compile(load_dataset(name))

        gateway_qps, separate_qps, transport_failures, scrape = (
            bench_consolidation(
                store_root, threads_per_tenant, requests_per_thread
            )
        )
        results, reload_info = bench_reload_blackout(
            store_root, client_threads=threads_per_tenant,
            seconds=hammer_seconds,
        )
        canary = bench_canary_gate(
            store_root, client_threads=threads_per_tenant
        )

    failed = [entry for entry in results if not entry[0]]
    versions = {entry[1] for entry in results if entry[0]}
    swap_window = [
        entry for entry in results
        if reload_info["reload_started"] - 0.1
        <= entry[3] <= reload_info["reload_ended"] + 0.5
    ]
    blackout_ms = max(
        (entry[2] for entry in swap_window), default=0.0
    ) * 1000.0
    steady = sorted(entry[2] for entry in results)
    p50_ms = steady[len(steady) // 2] * 1000.0 if steady else 0.0
    ratio = gateway_qps / separate_qps if separate_qps else 0.0

    rows = [
        ["3 separate one-tenant gateways", f"{separate_qps:.0f} q/s", ""],
        ["one gateway, one port", f"{gateway_qps:.0f} q/s",
         f"{ratio:.2f}x of separate"],
        ["requests during reload hammer", str(len(results)),
         f"{len(failed)} failed"],
        ["versions served during swap",
         " -> ".join(str(v) for v in (reload_info["old"], reload_info["new"])),
         f"{len(versions)} distinct"],
        ["worst latency in swap window", f"{blackout_ms:.1f} ms",
         f"p50 steady {p50_ms:.1f} ms"],
        ["canary verdicts (blocked/passed)",
         f"{canary['canary_blocked']}/{canary['canary_passed']}",
         f"degraded rejected {canary['blocked_status']}, "
         f"{canary['hammer_failures']} failed during gate"],
    ]
    table = format_rows(["measure", "value", "note"], rows)
    publish(
        "gateway",
        f"Multi-tenant gateway: {len(TENANTS)} tenants, hot reload "
        f"{reload_info['old']} -> {reload_info['new']}",
        table,
    )

    hard_failures = []
    # Exposition validity is deterministic — always a hard gate.
    hard_failures.extend(check_exposition(*scrape))
    if failed or transport_failures:
        hard_failures.append(
            f"{len(failed) + transport_failures} failed requests "
            f"(acceptance requires zero, including during the hot swap)"
        )
    unexpected = versions - {reload_info["old"], reload_info["new"]}
    if unexpected:
        hard_failures.append(
            f"responses served from unexpected versions: {unexpected}"
        )
    if versions != {reload_info["old"], reload_info["new"]}:
        hard_failures.append(
            f"expected traffic on both {reload_info['old']} and "
            f"{reload_info['new']}, saw only {versions} (swap did not "
            f"happen mid-traffic; raise the hammer duration)"
        )
    # Canary acceptance is deterministic — always a hard gate.
    hard_failures.extend(canary["failures"])
    advisories = []
    if ratio < CONSOLIDATION_TARGET:
        message = (
            f"gateway throughput only {ratio:.2f}x of separate servers "
            f"(target {CONSOLIDATION_TARGET:.2f}x)"
        )
        (advisories if args.smoke else hard_failures).append(message)

    snapshot = emit_snapshot(
        "gateway",
        {
            "gateway_qps": round(gateway_qps, 1),
            "separate_qps": round(separate_qps, 1),
            "consolidation_ratio": round(ratio, 3),
            "blackout_ms": round(blackout_ms, 3),
            "steady_p50_ms": round(p50_ms, 3),
            "hammered_requests": len(results),
            "failed_requests": len(failed) + transport_failures,
            "canary_blocked": canary["canary_blocked"],
            "canary_passed": canary["canary_passed"],
            "canary_blocked_status": canary["blocked_status"],
            "canary_clean_divergence": canary["clean_canary"].get(
                "divergence"
            ),
            "canary_hammer_failures": canary["hammer_failures"],
        },
        config={
            "tenants": list(TENANTS),
            "threads_per_tenant": threads_per_tenant,
            "requests_per_thread": requests_per_thread,
            "hammer_seconds": hammer_seconds,
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
            f"PASS: zero failed requests across {len(results)} hammered "
            f"({len(swap_window)} in the swap window), both versions "
            f"served, /metrics scrape parsed with tenant labels, "
            f"canary blocked the degraded artifact (422) and passed the "
            f"clean one with zero failures during the gate, "
            f"gateway at {ratio:.2f}x of separate servers"
        )
    return 1 if hard_failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
