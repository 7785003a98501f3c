"""``warm_http``: raw NLQs over HTTP/1.1 keep-alive to a gateway process.

The gateway serves the ``mas`` and ``yelp`` tenants with the journal on,
in its own process (``python -m perfbench.server``).  Up to ``nproc``
client threads each hold one keep-alive connection and run a closed loop
of ``POST /t/<tenant>/translate`` with raw NLQ strings, because NLIDB
users wait for their SQL.  A warm-up pass sends every NLQ the stream can
draw once, so every timed request hits the translate cache: socket, HTTP
framing, JSON, NLQ parsing and the journal are the whole cost.

Checks: every response's SQL must equal what an in-process ``Engine``
answers for the same request, and the default seed's response digest
must match the recorded one.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time

from perfbench import tracing
from perfbench.checks import Accuracy, check_digest
from perfbench.common import (
    MAX_MEASURE_SECONDS, MIN_SAMPLES, SETUP_SAMPLES, Result, ResponseDigest,
    environment, median, spawn_until_ready, stop,
)
from perfbench.streams import Catalogue

NAME = "warm_http"
TENANTS = ("mas", "yelp")
#: Cases generated per stream chunk; the stream is extended on demand.
CHUNK = 4096


def build_gateway(scratch):
    """The served gateway: ``mas`` and ``yelp`` tenants, journal on."""
    from repro.api import EngineConfig
    from repro.gateway import Gateway, GatewayConfig, TenantConfig

    config = GatewayConfig(
        tenants={
            name: TenantConfig(engine=EngineConfig(dataset=name))
            for name in TENANTS
        },
        journal_dir=str(scratch / "journal"),
    )
    return Gateway.from_config(config).start()


class Stream:
    """Seeded NLQ requests, generated in chunks as the clients need them."""

    def __init__(self, seed: int, usable: dict) -> None:
        from repro.fuzz import build_pool

        rng = random.Random(seed)
        self._pools = {
            name: build_pool(rng, name, items) for name, items in usable.items()
        }
        self._nlq = {
            (name, item.item_id): item.nlq
            for name, items in usable.items() for item in items
        }
        self._seeds = random.Random(rng.getrandbits(64))
        self._requests: list[tuple[str, str, int]] = []
        self._lock = threading.Lock()
        self._next = 0

    def _extend(self) -> None:
        from repro.fuzz import case_stream

        for case in case_stream(self._seeds.getrandbits(32), CHUNK,
                                self._pools):
            self._requests.append(
                (case.workload, self._nlq[(case.workload, case.item_id)],
                 case.limit)
            )

    def request(self, index: int) -> tuple[str, str, int]:
        with self._lock:
            while index >= len(self._requests):
                self._extend()
            return self._requests[index]

    def take(self) -> int:
        """The next request index (shared by every client thread)."""
        with self._lock:
            index = self._next
            self._next += 1
            return index


def _post(connection, tenant: str, nlq: str, limit: int, headers=None):
    body = json.dumps({"nlq": nlq, "limit": limit})
    connection.request(
        "POST", f"/t/{tenant}/translate", body,
        {"Content-Type": "application/json", **(headers or {})},
    )
    response = connection.getresponse()
    return response.status, response.read()


def _get(port: int, path: str) -> dict:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request("GET", path)
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()


def _cache_totals(stats: dict) -> dict:
    totals: dict = {}
    for tenant in stats["tenants"].values():
        tracing.count_caches(totals, tenant["engine"]["caches"])
    return totals


def run(seed: int, seconds: float, trace: bool, scratch) -> Result:
    from repro.api import Engine, EngineConfig
    from repro.eval.metrics import fq_correct

    result = Result(NAME, seed)
    server_args = ["--scratch", str(scratch)] + (["--trace"] if trace else [])

    # Set-up: fresh server processes, spawn to READY; the last one serves.
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        process, elapsed, _ = spawn_until_ready("perfbench.server", server_args)
        stop(process)
        setup.append(elapsed)
    server, elapsed, fields = spawn_until_ready("perfbench.server", server_args)
    setup.append(elapsed)
    port = int(fields[0])
    try:
        # Reference answers from in-process engines; only NLQs that parse
        # and translate are requested, so no request is expected to fail.
        catalogue = Catalogue.load(TENANTS)
        reference = {t: Engine.from_config(EngineConfig(dataset=t))
                     for t in TENANTS}
        expected: dict = {}
        usable: dict = {}
        accuracy = Accuracy()
        for tenant in TENANTS:
            usable[tenant] = []
            catalog = catalogue.datasets[tenant].database.catalog
            for item in catalogue.datasets[tenant].usable_items():
                try:
                    response = reference[tenant].translate(item.nlq)
                except Exception:  # noqa: BLE001 - unparseable NLQ: skip it
                    continue
                if not response.results:
                    continue
                usable[tenant].append(item)
                expected[(tenant, item.nlq)] = [r.sql for r in response.results]
                accuracy.add((tenant, item.item_id),
                             fq_correct(item, response.results, catalog))
        for engine in reference.values():
            engine.close()

        def check(tenant, nlq, limit, status, body) -> list | None:
            if status != 200:
                return None
            sqls = [entry["sql"] for entry in json.loads(body)["results"]]
            return sqls if sqls == expected[(tenant, nlq)][:limit] else None

        # Warm-up: every usable NLQ once, connection per request.
        for tenant, nlq in expected:
            connection = http.client.HTTPConnection("127.0.0.1", port,
                                                    timeout=60)
            try:
                status, body = _post(connection, tenant, nlq, 10)
            finally:
                connection.close()
            result.attempted += 1
            if check(tenant, nlq, 10, status, body) is None:
                result.failed += 1
                result.fail(f"warm-up {tenant} {nlq!r}: status {status}")

        stream = Stream(seed, usable)
        clients = max(1, min(2, environment()["nproc"]))
        before = _get(port, "/stats")
        outcomes: list[list] = [[] for _ in range(clients)]
        tracer = tracing.Tracer() if trace else None
        client_spans: dict = {}
        done = threading.Event()
        started = time.perf_counter()

        def client(slot: int) -> None:
            connection = http.client.HTTPConnection("127.0.0.1", port,
                                                    timeout=60)
            records = outcomes[slot]
            try:
                while not done.is_set():
                    index = stream.take()
                    tenant, nlq, limit = stream.request(index)
                    headers = None
                    span = None
                    armed = trace and index % 2 == 1
                    if trace:
                        headers = {"X-Bench-Request": str(index),
                                   "X-Bench-Trace": "1" if armed else "0"}
                    began = time.perf_counter()
                    if armed:
                        tracer.begin(index)
                        span = tracer.open("http", "POST translate")
                    try:
                        status, body = _post(connection, tenant, nlq, limit,
                                             headers)
                    except (OSError, http.client.HTTPException) as exc:
                        status, body = None, repr(exc).encode()
                        connection.close()
                        connection = http.client.HTTPConnection(
                            "127.0.0.1", port, timeout=60)
                    finally:
                        if span is not None:
                            tracer.close(span)
                            client_spans[index] = span
                    ended = time.perf_counter()
                    elapsed_ms = (ended - began) * 1000.0
                    sqls = check(tenant, nlq, limit, status, body)
                    records.append((index, ended - started, elapsed_ms, armed,
                                    sqls, status if sqls is None else None))
                    total = sum(len(r) for r in outcomes)
                    wall = time.perf_counter() - started
                    if wall >= MAX_MEASURE_SECONDS or (
                            wall >= seconds and total >= MIN_SAMPLES):
                        done.set()
            finally:
                connection.close()

        threads = [threading.Thread(target=client, args=(slot,))
                   for slot in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        measured = time.perf_counter() - started
        after = _get(port, "/stats")
    finally:
        report = json.loads(stop(server).strip().splitlines()[-1])

    records = sorted(r for slot in outcomes for r in slot)
    digest = ResponseDigest()
    samples, traced_ms, untraced_ms = [], [], []
    for index, finished, elapsed_ms, armed, sqls, status in records:
        result.attempted += 1
        samples.append((finished, elapsed_ms))
        (traced_ms if armed else untraced_ms).append(elapsed_ms)
        if sqls is None:
            result.failed += 1
            result.fail(f"request {index}: status {status} or SQL mismatch")
            continue
        digest.add(sqls)
    check_digest(result, digest)

    result.metrics["setup_s"] = (median(setup), "s")
    result.info.append(("setup_samples", len(setup), "count"))
    result.info.append(("setup_max_s", max(setup), "s"))
    result.add_timing(samples)
    result.metrics["peak_rss_mb"] = (report["peak_rss_mb"], "MB")
    result.metrics["top1_accuracy"] = (accuracy.value(), "ratio")
    result.info.append(("measured_s", measured, "s"))
    result.info.append(("connections", clients, "count"))
    result.info.append(("accuracy_items", accuracy.items, "count"))
    if trace:
        spans = list(tracer.spans) + tracing.import_spans(
            report["spans"], parents=client_spans)
        start_totals, end_totals = _cache_totals(before), _cache_totals(after)
        delta = {key: end_totals[key] - start_totals.get(key, 0)
                 for key in end_totals}
        extras = tracing.cache_hit_ratios(delta)
        extras["obs.journal.dropped"] = (
            after["journal"]["dropped"] - before["journal"]["dropped"])
        tracing.finish(
            result, spans, extras,
            traced_ms=traced_ms, untraced_ms=untraced_ms,
            traced_wall_ms=sum(traced_ms),
        )
    return result
