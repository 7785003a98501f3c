"""Command-line interface: run experiments and translate NLQs.

Usage (after ``pip install -e .``)::

    python -m repro.cli stats
    python -m repro.cli evaluate --dataset mas --system Pipeline+
    python -m repro.cli sweep --parameter kappa --dataset mas
    python -m repro.cli translate --dataset mas --nlq "return the papers after 2000"
    python -m repro.cli trace --dataset mas --nlq "return the papers after 2000"
    python -m repro.cli export --dataset yelp --output yelp.sql
    python -m repro.cli warmup --dataset mas --artifacts ./artifacts
    python -m repro.cli ingest --dataset mas --log big.sql --artifacts ./artifacts
    python -m repro.cli serve --dataset mas --artifacts ./artifacts --port 8080
    python -m repro.cli gateway --config gateway.json --port 8080
    python -m repro.cli logs query --journal ./journal --nlq "slowest tenant today"
    python -m repro.cli slo --url http://127.0.0.1:8080
    python -m repro.cli slo --journal ./journal --latency-p99-ms 50

Every subcommand that translates or serves builds its stack through
``repro.api.Engine.from_config`` — the CLI only describes *what* to run
(an :class:`~repro.api.config.EngineConfig`) and prints the results.

Exit codes are uniform across subcommands: 0 on success, 1 when a
translation request produced no result (unparseable NLQ, empty ranking),
2 on any operational :class:`~repro.errors.ReproError` (unknown dataset,
missing artifacts, unreadable files, ports in use, ...).
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
import time

from repro import __version__
from repro.api import Engine, EngineConfig
from repro.datasets import DATASET_BUILDERS, load_dataset
from repro.errors import ReproError
from repro.eval import EvalConfig, evaluate_system
from repro.eval.harness import SYSTEM_NAMES
from repro.eval.reporting import format_kv, format_rows, percentage
from repro.nlidb.registry import backend_names

#: Uniform exit codes (see module docstring).
EXIT_OK = 0
EXIT_NO_RESULT = 1
EXIT_ERROR = 2


def _cmd_stats(args: argparse.Namespace) -> int:
    rows = []
    for name in sorted(DATASET_BUILDERS):
        stats = load_dataset(name).stats()
        rows.append(
            [name.upper(), stats["relations"], stats["attributes"],
             stats["fk_pk"], stats["queries"]]
        )
    print(format_rows(["Dataset", "Rels", "Attrs", "FK-PK", "Queries"], rows))
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    config = EvalConfig(
        kappa=args.kappa,
        lam=args.lam,
        use_log_joins=not args.no_log_joins,
    )
    result = evaluate_system(dataset, args.system, config)
    print(
        f"{args.system} on {args.dataset.upper()}: "
        f"KW {percentage(result.kw_accuracy)}%  "
        f"FQ {percentage(result.fq_accuracy)}%"
    )
    if args.families:
        rows = [
            [family, correct, total]
            for family, (correct, total) in result.family_breakdown().items()
        ]
        print(format_rows(["family", "correct", "total"], rows))
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    if args.parameter == "kappa":
        values = [2, 4, 5, 6, 8, 10]
        configs = [EvalConfig(kappa=value) for value in values]
    else:
        values = [round(0.1 * i, 1) for i in range(11)]
        configs = [EvalConfig(lam=value) for value in values]
    rows = []
    for value, config in zip(values, configs):
        result = evaluate_system(dataset, "Pipeline+", config)
        rows.append([value, percentage(result.fq_accuracy)])
    print(format_rows([args.parameter, "FQ (%)"], rows))
    return EXIT_OK


def _engine_config(args: argparse.Namespace) -> EngineConfig:
    """The declarative description shared by ``translate`` and ``serve``."""
    artifacts = getattr(args, "artifacts", None)
    return EngineConfig(
        dataset=args.dataset,
        backend=getattr(args, "backend", "pipeline+"),
        log_source="artifacts" if artifacts is not None else "dataset",
        artifacts=artifacts,
        artifact_version=getattr(args, "version", None),
        cache_size=getattr(args, "cache_size", 2048),
        learn_batch_size=getattr(args, "learn_batch", None),
        slow_query_ms=getattr(args, "slow_query_ms", None),
        # Best-effort parsing for end users (the evaluation harness uses
        # the failure-faithful parser instead).
        simulate_parse_failures=False,
    )


def _cmd_translate(args: argparse.Namespace) -> int:
    with Engine.from_config(_engine_config(args)) as engine:
        parsed = engine.parser.parse(args.nlq)
        if parsed.failed:
            print("could not parse the NLQ into keywords", file=sys.stderr)
            return EXIT_NO_RESULT
        print("keywords:")
        for keyword in parsed.keywords:
            print(f"  {keyword.text!r} ({keyword.metadata.context.value})")
        for note in parsed.notes:
            print(f"  note: {note}")

        response = engine.translate(parsed.keywords)
        if not response.results:
            print("no translation found", file=sys.stderr)
            return EXIT_NO_RESULT
        top = response.top
        from repro.sql.formatter import format_query

        print(f"\nSQL: {top.sql}")
        print(format_query(top.query))
        if args.explain:
            # Served from the translate cache, so this costs one lookup.
            print("\n" + engine.explain(parsed.keywords).render())
        if args.execute:
            answer = engine.dataset.database.execute(top.sql)
            print(f"\nanswer ({len(answer.rows)} rows):")
            for row in answer.rows[: args.limit]:
                print(f"  {row}")
    return EXIT_OK


def _cmd_trace(args: argparse.Namespace) -> int:
    """Translate one NLQ and pretty-print its retained span tree."""
    from repro.obs.trace import format_trace

    if args.config is not None:
        config = EngineConfig.from_file(args.config)
    else:
        config = _engine_config(args)
    if not config.tracing:
        # Without the tracer there is no span tree to print; fail loudly
        # (exit 2) instead of translating and then shrugging "no trace".
        raise ReproError(
            "tracing is disabled in this configuration; set "
            '"tracing": true in the engine config to use `repro trace`'
        )
    with Engine.from_config(config) as engine:
        try:
            response = engine.translate(args.nlq)
        except ReproError as exc:
            # Failed requests always retain their trace; show it.
            print(f"translation failed: {exc}", file=sys.stderr)
            failed = engine.tracer.store.traces(limit=1)
            if failed:
                print(format_trace(failed[0]), file=sys.stderr)
            return EXIT_NO_RESULT
        if not response.results:
            print("no translation found", file=sys.stderr)
            return EXIT_NO_RESULT
        trace_id = response.provenance.get("trace_id")
        trace = (
            engine.tracer.store.get(trace_id) if trace_id is not None else None
        )
        if trace is None:
            # Tracing off, or the request fell below the store's
            # retention floor (only possible on a warmed engine).
            print("trace was not retained (is tracing enabled?)",
                  file=sys.stderr)
            return EXIT_NO_RESULT
        print(f"SQL: {response.top.sql}\n")
        print(format_trace(trace))
    return EXIT_OK


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.datasets.export import export_dataset_sql

    dataset = load_dataset(args.dataset)
    path = export_dataset_sql(dataset, args.output)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_warmup(args: argparse.Namespace) -> int:
    """Compile serving artifacts for a dataset (startup = load, not rebuild)."""
    from repro.serving import ArtifactStore

    dataset = load_dataset(args.dataset)
    store = ArtifactStore(args.artifacts)

    started = time.perf_counter()
    artifacts = store.compile(dataset, version=args.version)
    compile_seconds = time.perf_counter() - started

    started = time.perf_counter()
    store.load(dataset.name, artifacts.version)
    load_seconds = time.perf_counter() - started

    counts = artifacts.manifest["counts"]
    print(format_kv([
        ("dataset", dataset.name),
        ("version", artifacts.version),
        ("path", artifacts.path),
        ("log queries", counts["log_queries"]),
        ("qfg vertices", counts["qfg_vertices"]),
        ("qfg edges", counts["qfg_edges"]),
        ("compile + verify", f"{compile_seconds * 1000:.1f} ms"),
        ("verified load", f"{load_seconds * 1000:.1f} ms"),
    ]))
    return EXIT_OK


def _cmd_ingest(args: argparse.Namespace) -> int:
    """Parallel sharded QFG build from a log file, published as artifacts."""
    from pathlib import Path

    from repro.ingest import ingest_log

    dataset = load_dataset(args.dataset)
    catalog = dataset.database.catalog

    log_path = Path(args.log)
    if args.generate:
        from repro.datasets.loggen import write_synthetic_log

        write_synthetic_log(
            log_path, catalog, args.generate, seed=args.seed
        )
        print(f"generated a ~{args.generate}-statement synthetic log "
              f"at {log_path}")
    if not log_path.is_file():
        raise ReproError(
            f"log file {log_path} not found (use --generate N to synthesize one)"
        )

    checkpoint = args.checkpoint
    if checkpoint is None and args.artifacts is not None:
        # Outside the store's <dataset>/<version> namespace so a killed
        # ingest's leftover manifest can never look like a version.
        checkpoint = Path(args.artifacts) / ".ingest-checkpoint" / args.dataset

    result = ingest_log(
        log_path,
        catalog,
        num_shards=args.shards,
        workers=args.workers,
        checkpoint_dir=checkpoint,
        resume=not args.no_resume,
    )
    stats = result.stats
    rows: list[tuple[str, object]] = [
        ("dataset", dataset.name),
        ("log", log_path),
        ("statements", stats.raw_statements),
        ("unique statements", stats.unique_statements),
        ("skipped (noise)", stats.skipped_statements),
        ("dedup ratio", f"{stats.dedup_ratio:.1f}x"),
        ("shards", f"{stats.num_shards} "
                   f"({stats.reused_shards} reused from checkpoint)"),
        ("workers", stats.workers),
        ("wall clock", f"{stats.total_seconds:.2f} s"),
        ("throughput", f"{stats.statements_per_second:,.0f} stmts/s"),
        ("qfg", f"{result.qfg.vertex_count} vertices, "
                f"{result.qfg.edge_count} edges"),
        ("fingerprint", result.qfg.fingerprint()[:12]),
    ]
    if args.artifacts is not None:
        from repro.serving import ArtifactStore

        artifacts = ArtifactStore(args.artifacts).compile(
            dataset, result.log, qfg=result.qfg, version=args.version
        )
        rows.append(("published version", artifacts.version))
        rows.append(("artifact path", artifacts.path))
    print(format_kv(rows))
    return EXIT_OK


def _check_serve_args(args: argparse.Namespace) -> None:
    if getattr(args, "version", None) is not None and args.artifacts is None:
        raise ReproError(
            "--version pins an artifact version and requires --artifacts; "
            "without it the server rebuilds state from the query log"
        )
    if getattr(args, "workers", None) is not None:
        print("warning: --workers is deprecated and ignored (translation "
              "runs on the request thread); it will be removed in the next "
              "version", file=sys.stderr)


def _install_sigterm_shutdown(server) -> None:
    """Make SIGTERM a graceful stop, not a kill.

    ``kill <pid>`` (the normal supervisor/container stop signal) then
    behaves like Ctrl-C: the serve loop exits, and the caller's cleanup
    path flushes acknowledged observations into the in-memory QFG
    before the process ends.  The handler hands ``shutdown()`` to a
    helper thread because it blocks until the serve loop (running on
    this very thread) notices.
    """

    def _handle(signum, frame) -> None:
        threading.Thread(target=server.shutdown, daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, _handle)
    except ValueError:
        pass  # not the main thread (embedded/test use); Ctrl-C still works


def _serve_gateway(server, gateway) -> None:
    """Serve until Ctrl-C or SIGTERM, then flush and close the gateway."""
    _install_sigterm_shutdown(server)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.shutdown()
        server.server_close()
        pending = gateway.pending_observations()
        gateway.close()
        print(f"flushed {pending} pending observation(s) into the QFG",
              flush=True)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve one dataset: a one-tenant gateway named after the dataset.

    The dataset name is the tenant id, which is also the journal and
    control-plane tenant, so ``POST /translate`` and ``/feedback`` alias
    ``/t/<dataset>/...``.
    """
    from repro.gateway import (
        Gateway,
        GatewayConfig,
        TenantConfig,
        make_gateway_server,
    )

    _check_serve_args(args)
    if args.json_logs:
        from repro.obs.logs import configure_json_logging

        configure_json_logging()
    gateway = Gateway(GatewayConfig(
        tenants={args.dataset: TenantConfig(engine=_engine_config(args))},
        journal_dir=args.journal,
        control_plane_path=args.control_plane,
    ))
    try:
        # Engine first, listener second: a client that waits for the
        # banner finds the endpoint live.
        gateway.start()
        server = make_gateway_server(
            gateway, host=args.host, port=args.port, quiet=False
        )
    except BaseException:
        gateway.close()
        raise
    host, port = server.server_address[:2]
    engine = gateway.host(args.dataset).engine
    rows = [
        ("serving", f"{engine.nlidb.name} on {args.dataset.upper()}"),
        ("endpoint", f"http://{host}:{port}/translate"),
        ("health", f"http://{host}:{port}/healthz"),
        ("stats", f"http://{host}:{port}/stats"),
        ("metrics", f"http://{host}:{port}/metrics"),
    ]
    if gateway.control_plane is not None:
        rows.append(("feedback", f"POST http://{host}:{port}/feedback"))
    print(format_kv(rows), flush=True)
    _serve_gateway(server, gateway)
    return EXIT_OK


def _cmd_gateway(args: argparse.Namespace) -> int:
    """Run the multi-tenant gateway endpoint from a gateway.json."""
    from repro.gateway import Gateway, make_gateway_server

    if args.json_logs:
        from repro.obs.logs import configure_json_logging

        configure_json_logging()
    gateway = Gateway.from_config(args.config)
    server = make_gateway_server(
        gateway, host=args.host, port=args.port, quiet=False
    )
    host, port = server.server_address[:2]
    print(format_kv([
        ("tenants", ", ".join(sorted(gateway.hosts))),
        ("translate", f"http://{host}:{port}/t/<tenant>/translate"),
        ("health", f"http://{host}:{port}/healthz"),
        ("ready", f"http://{host}:{port}/readyz"),
        ("stats", f"http://{host}:{port}/stats"),
        ("reload", f"POST http://{host}:{port}/admin/reload"),
    ]), flush=True)

    # Engines warm up off the serve loop so the listener (and an honest
    # /readyz) is up immediately; a failed warm-up stops the server.
    warmup_failure: list[ReproError] = []

    def _warm_up() -> None:
        try:
            gateway.start()
        except ReproError as exc:
            warmup_failure.append(exc)
            server.shutdown()

    threading.Thread(target=_warm_up, daemon=True).start()
    _serve_gateway(server, gateway)
    if warmup_failure:
        raise warmup_failure[0]
    return EXIT_OK


def _cmd_logs(args: argparse.Namespace) -> int:
    """Self-analytics: translate an NLQ over the serving journal itself."""
    from repro.errors import TranslationError
    from repro.obs.selfquery import SelfQueryService

    service = SelfQueryService(args.journal)
    try:
        try:
            result = service.query(args.nlq, limit=args.limit)
        except TranslationError as exc:
            print(f"no translation found: {exc}", file=sys.stderr)
            return EXIT_NO_RESULT
    finally:
        service.close()
    if args.sql_only:
        print(result["sql"])
        return EXIT_OK
    print(format_kv([
        ("nlq", result["nlq"]),
        ("normalized", result["normalized_nlq"]),
        ("sql", result["sql"]),
        ("rows", result["row_count"]),
    ]))
    if result["rows"]:
        print(format_rows(list(result["columns"]),
                          [list(row) for row in result["rows"]]))
    if result["truncated"]:
        print(f"(showing the first {args.limit} of "
              f"{result['row_count']} rows)")
    return EXIT_OK


def _cmd_feedback(args: argparse.Namespace) -> int:
    """Record a user verdict on a prior translation, straight to the store."""
    from repro.controlplane import ControlPlane, validate_feedback_payload

    payload = {"verdict": args.verdict}
    for field in ("request_id", "trace_id", "nlq", "sql", "corrected_sql"):
        value = getattr(args, field)
        if value is not None:
            payload[field] = value
    data = validate_feedback_payload(payload)
    plane = ControlPlane(args.store)
    try:
        record = plane.submit_feedback(
            args.tenant,
            data["verdict"],
            request_id=data["request_id"],
            trace_id=data["trace_id"],
            nlq=data["nlq"],
            sql=data["sql"],
            corrected_sql=data["corrected_sql"],
        )
    finally:
        plane.close()
    print(format_kv([
        ("feedback_id", record["feedback_id"]),
        ("tenant", args.tenant),
        ("verdict", record["verdict"]),
        ("sql", record.get("sql") or "-"),
        ("corrected_sql", record.get("corrected_sql") or "-"),
    ]))
    return EXIT_OK


def _cmd_controlplane(args: argparse.Namespace) -> int:
    """Inspect or maintain a shared control-plane store."""
    from repro.controlplane import ControlPlaneStore

    store = ControlPlaneStore(args.store)
    try:
        if args.controlplane_command == "stats":
            stats = store.stats()
            counts = stats["rows"]
            rows = [
                ("store", stats["path"]),
                ("schema_version", stats["schema_version"]),
                ("size_bytes", stats["size_bytes"]),
                ("cache_entries", counts["cache"]),
                ("idempotency_keys", counts["idempotency"]),
                ("responses", counts["responses"]),
                ("feedback", counts["feedback"]),
            ]
            for verdict, count in sorted(stats["feedback_by_verdict"].items()):
                rows.append((f"feedback[{verdict}]", count))
            print(format_kv(rows))
        else:  # prune
            before = store.stats()["rows"]
            store.prune(
                idempotency_ttl_seconds=args.idempotency_ttl,
                cache_keep=args.cache_keep,
                responses_keep=args.responses_keep,
            )
            after = store.stats()["rows"]
            print(format_kv([
                ("cache_entries", f"{before['cache']} -> {after['cache']}"),
                ("idempotency_keys",
                 f"{before['idempotency']} -> {after['idempotency']}"),
                ("responses",
                 f"{before['responses']} -> {after['responses']}"),
            ]))
    finally:
        store.close()
    return EXIT_OK


def _slo_rows(tenant: str, report: dict) -> list[list[object]]:
    """Table rows for one tenant's /slo payload (or offline report)."""
    if not report.get("configured"):
        note = "engine warming up" if report.get("live") is False \
            else "no SLO policy configured"
        return [[tenant, "-", "-", "-", "-", note]]
    rows = []
    for objective in report.get("objectives", []):
        if objective["alerting"]:
            status = "ALERT"
        elif not objective["healthy"]:
            status = "burning"
        else:
            status = "ok"
        rows.append([
            tenant,
            objective["objective"],
            objective["target"],
            f"{objective['fast_burn']:.2f}",
            f"{objective['slow_burn']:.2f}",
            status,
        ])
    return rows


def _cmd_slo(args: argparse.Namespace) -> int:
    """SLO compliance from a running server or an offline journal replay."""
    if (args.url is None) == (args.journal is None):
        raise ReproError(
            "pass exactly one of --url (live server) or --journal "
            "(offline replay)"
        )
    if args.url is not None:
        import json
        from urllib.error import URLError
        from urllib.request import urlopen

        url = args.url.rstrip("/") + "/slo"
        try:
            with urlopen(url, timeout=10) as response:
                payload = json.load(response)
        except (URLError, OSError, ValueError) as exc:
            raise ReproError(f"could not fetch {url}: {exc}") from exc
        if not isinstance(payload, dict) or \
                not isinstance(payload.get("tenants"), dict):
            raise ReproError(f"{url} returned no per-tenant SLO reports")
        reports = payload["tenants"]
    else:
        from repro.obs.slo import SLOPolicy, evaluate_journal

        policy = SLOPolicy(
            latency_p99_ms=args.latency_p99_ms,
            error_rate=args.error_rate,
            cache_hit_rate=args.cache_hit_rate,
            feedback_reject_rate=args.feedback_reject_rate,
            fast_window_seconds=args.fast_window,
            slow_window_seconds=args.slow_window,
            burn_threshold=args.burn_threshold,
        )
        reports = {
            tenant: report.as_dict()
            for tenant, report in evaluate_journal(args.journal, policy).items()
        }
        if not reports:
            print("no request records found in the journal", file=sys.stderr)
            return EXIT_OK

    rows: list[list[object]] = []
    for tenant in sorted(reports):
        rows.extend(_slo_rows(tenant, reports[tenant]))
    print(format_rows(
        ["tenant", "objective", "target", "fast burn", "slow burn", "status"],
        rows,
    ))
    alerting = any(r.get("alerting") for r in reports.values())
    print("status: ALERTING" if alerting else "status: healthy")
    return EXIT_NO_RESULT if alerting else EXIT_OK


def _cmd_fuzz(args: argparse.Namespace) -> int:
    """Run the adversarial fuzzer + differential oracles."""
    from repro.fuzz import DEFAULT_WORKLOADS, emit_fuzz_snapshot, run_fuzz

    cases = 300 if args.smoke and args.cases is None else (args.cases or 2000)
    workloads = tuple(args.workloads) if args.workloads else DEFAULT_WORKLOADS

    def progress(done: int, total: int) -> None:
        if args.progress and (done % 100 == 0 or done == total):
            print(f"  ... {done}/{total} cases", file=sys.stderr)

    report = run_fuzz(
        args.seed, cases,
        workloads=workloads,
        corpus_dir=args.corpus_dir,
        progress=progress,
    )
    rows = [
        ("seed", report.seed),
        ("cases", report.cases),
        ("stream_digest", report.digest),
        ("elapsed_seconds", f"{report.elapsed_seconds:.2f}"),
        ("cases_per_second", f"{report.cases_per_second:.1f}"),
        ("violations", len(report.violations)),
        ("crashes", report.crashes),
    ]
    for oracle in sorted(report.oracle_counts):
        rows.append((f"violations[{oracle}]", report.oracle_counts[oracle]))
    for workload in sorted(report.workload_counts):
        rows.append((f"cases[{workload}]", report.workload_counts[workload]))
    print(format_kv(rows))
    if not args.no_snapshot:
        path = emit_fuzz_snapshot(report, smoke=args.smoke)
        print(f"snapshot: {path}")
    for violation in report.violations:
        print(
            f"VIOLATION [{violation['oracle']}] {violation['detail']}",
            file=sys.stderr,
        )
    for path in report.corpus_files:
        print(f"minimized repro written: {path}", file=sys.stderr)
    return EXIT_OK if report.clean else EXIT_NO_RESULT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Templar reproduction: experiments and NLQ translation",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("stats", help="print Table II dataset statistics")

    evaluate = sub.add_parser("evaluate", help="cross-validated accuracy")
    evaluate.add_argument("--dataset", choices=sorted(DATASET_BUILDERS),
                          default="mas")
    evaluate.add_argument("--system", choices=SYSTEM_NAMES, default="Pipeline+")
    evaluate.add_argument("--kappa", type=int, default=5)
    evaluate.add_argument("--lam", type=float, default=0.8)
    evaluate.add_argument("--no-log-joins", action="store_true")
    evaluate.add_argument("--families", action="store_true",
                          help="print the per-family breakdown")

    sweep = sub.add_parser("sweep", help="parameter sweep (Figures 5/6)")
    sweep.add_argument("--dataset", choices=sorted(DATASET_BUILDERS),
                       default="mas")
    sweep.add_argument("--parameter", choices=["kappa", "lam"],
                       default="kappa")

    translate = sub.add_parser("translate", help="translate one NLQ")
    translate.add_argument("--dataset", choices=sorted(DATASET_BUILDERS),
                           default="mas")
    translate.add_argument("--nlq", required=True)
    translate.add_argument("--backend", choices=backend_names(),
                           default="pipeline+",
                           help="registered NLIDB backend to translate with")
    translate.add_argument("--explain", action="store_true",
                           help="show the evidence decomposition")
    translate.add_argument("--execute", action="store_true",
                           help="run the SQL against the synthetic database")
    translate.add_argument("--limit", type=int, default=10)

    trace = sub.add_parser(
        "trace",
        help="translate one NLQ and print its span tree with per-stage "
             "self-times",
    )
    trace.add_argument("--dataset", choices=sorted(DATASET_BUILDERS),
                       default="mas")
    trace.add_argument("--nlq", required=True)
    trace.add_argument("--backend", choices=backend_names(),
                       default="pipeline+",
                       help="registered NLIDB backend to translate with")
    trace.add_argument("--config", default=None,
                       help="engine config JSON file to build the stack from "
                            "(overrides --dataset/--backend; exits 2 when it "
                            "disables tracing)")

    export = sub.add_parser("export", help="dump a dataset as SQL DDL+INSERTs")
    export.add_argument("--dataset", choices=sorted(DATASET_BUILDERS),
                        default="mas")
    export.add_argument("--output", required=True)

    warmup = sub.add_parser(
        "warmup", help="compile versioned serving artifacts for a dataset"
    )
    warmup.add_argument("--dataset", choices=sorted(DATASET_BUILDERS),
                        default="mas")
    warmup.add_argument("--artifacts", required=True,
                        help="artifact store root directory")
    warmup.add_argument("--version", default=None,
                        help="explicit version id (default: QFG fingerprint)")

    ingest = sub.add_parser(
        "ingest",
        help="parallel sharded QFG build from a SQL log, published as "
             "serving artifacts",
    )
    ingest.add_argument("--dataset", choices=sorted(DATASET_BUILDERS),
                        default="mas")
    ingest.add_argument("--log", required=True,
                        help="SQL log file (multi-line statements, ';' "
                             "separation and -- comments all handled)")
    ingest.add_argument("--artifacts", default=None,
                        help="publish the ingested QFG to this artifact "
                             "store (repro serve/warmup consume it); "
                             "omit for a dry run")
    ingest.add_argument("--version", default=None,
                        help="explicit artifact version id")
    ingest.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: CPU count; "
                             "1 = inline)")
    ingest.add_argument("--shards", type=int, default=8,
                        help="number of log shards")
    ingest.add_argument("--checkpoint", default=None,
                        help="checkpoint directory (default: "
                             "<artifacts>/.ingest-checkpoint/<dataset> "
                             "when --artifacts is given)")
    ingest.add_argument("--no-resume", action="store_true",
                        help="ignore an existing checkpoint and rebuild "
                             "every shard")
    ingest.add_argument("--generate", type=int, default=None,
                        help="first synthesize a messy log of N statements "
                             "at --log (benchmark/demo aid)")
    ingest.add_argument("--seed", type=int, default=2019,
                        help="seed for --generate")

    serve = sub.add_parser(
        "serve", help="run the JSON translation HTTP endpoint for one "
                      "dataset (a one-tenant gateway)"
    )
    serve.add_argument("--dataset", choices=sorted(DATASET_BUILDERS),
                       default="mas")
    serve.add_argument("--backend", choices=backend_names(),
                       default="pipeline+",
                       help="registered NLIDB backend to serve")
    serve.add_argument("--artifacts", default=None,
                       help="load state from this artifact store instead of "
                            "rebuilding from the query log")
    serve.add_argument("--version", default=None,
                       help="artifact version to serve (default: latest)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--cache-size", type=int, default=2048)
    serve.add_argument("--workers", type=int, default=None,
                       help="deprecated and ignored: translation runs on "
                            "the request thread")
    serve.add_argument("--learn-batch", type=int, default=None,
                       help="absorb served queries into the QFG every N "
                            "observations (default: learning off)")
    serve.add_argument("--slow-query-ms", type=float, default=None,
                       help="WARN-log any translate slower than this many "
                            "milliseconds (default: off)")
    serve.add_argument("--journal", default=None,
                       help="durably journal every request as JSONL segments "
                            "under this directory (enables "
                            "/admin/logs/query self-analytics and "
                            "`repro logs query`)")
    serve.add_argument("--control-plane", default=None, dest="control_plane",
                       help="shared WAL-mode SQLite control plane at this "
                            "path: durable translation cache, Idempotency-Key "
                            "support and the POST /feedback loop (replicas "
                            "pointing at the same file share all three)")
    serve.add_argument("--json-logs", action="store_true",
                       help="emit one structured JSON log line per record "
                            "(request log, slow-query log)")

    gateway = sub.add_parser(
        "gateway",
        help="run the multi-tenant gateway HTTP endpoint (many datasets "
             "behind one port, with artifact hot-reload)",
    )
    gateway.add_argument("--config", required=True,
                         help="gateway.json: tenants (engine config + "
                              "admission limits), reload polling, learning "
                              "scheduler")
    gateway.add_argument("--host", default="127.0.0.1")
    gateway.add_argument("--port", type=int, default=8080)
    gateway.add_argument("--json-logs", action="store_true",
                         help="emit one structured JSON log line per record "
                              "(request log, slow-query log)")

    logs = sub.add_parser(
        "logs",
        help="self-analytics over the durable request journal (the NLIDB "
             "answers NLQs about its own serving history)",
    )
    logs_sub = logs.add_subparsers(dest="logs_command", required=True)
    logs_query = logs_sub.add_parser(
        "query",
        help="translate an NLQ over the journal's telemetry schema and "
             "execute the resulting SQL",
    )
    logs_query.add_argument("--journal", required=True,
                            help="journal directory written by "
                                 "`repro serve --journal` or a gateway "
                                 "with journal_dir")
    logs_query.add_argument("--nlq", required=True,
                            help="e.g. 'slowest tenant today' or "
                                 "'number of errors'")
    logs_query.add_argument("--limit", type=int, default=20,
                            help="print at most this many answer rows")
    logs_query.add_argument("--sql-only", action="store_true",
                            help="print only the generated SQL (for "
                                 "scripting and CI assertions)")

    feedback = sub.add_parser(
        "feedback",
        help="record an accept/reject/correct verdict on a prior "
             "translation in the shared control plane",
    )
    feedback.add_argument("--store", required=True,
                          help="control-plane SQLite file (the serve/gateway "
                               "control_plane_path)")
    feedback.add_argument("--tenant", default="default",
                          help="tenant the verdict belongs to (`repro "
                               "serve` uses the dataset name, e.g. 'mas')")
    feedback.add_argument("--verdict", required=True,
                          choices=("accept", "reject", "correct"))
    feedback.add_argument("--request-id", default=None, dest="request_id",
                          help="the response's provenance.request_id")
    feedback.add_argument("--trace-id", default=None, dest="trace_id",
                          help="the response's provenance.trace_id")
    feedback.add_argument("--nlq", default=None,
                          help="the original question (optional context)")
    feedback.add_argument("--sql", default=None,
                          help="the served SQL (when not referencing a "
                               "prior response)")
    feedback.add_argument("--corrected-sql", default=None,
                          dest="corrected_sql",
                          help="the SQL that should have been returned "
                               "(required for --verdict correct)")

    slo = sub.add_parser(
        "slo",
        help="SLO compliance: burn rates + alerts from a running server "
             "(GET /slo) or an offline journal replay",
    )
    slo.add_argument("--url", default=None,
                     help="base URL of a running serve/gateway endpoint, "
                          "e.g. http://127.0.0.1:8080")
    slo.add_argument("--journal", default=None,
                     help="journal directory to replay offline (windows "
                          "anchor at the newest record)")
    slo.add_argument("--latency-p99-ms", type=float, default=None,
                     dest="latency_p99_ms",
                     help="p99 latency objective in milliseconds "
                          "(--journal mode)")
    slo.add_argument("--error-rate", type=float, default=None,
                     dest="error_rate",
                     help="error-rate budget in (0, 1) (--journal mode)")
    slo.add_argument("--cache-hit-rate", type=float, default=None,
                     dest="cache_hit_rate",
                     help="cache hit-rate floor in (0, 1) (--journal mode)")
    slo.add_argument("--feedback-reject-rate", type=float, default=None,
                     dest="feedback_reject_rate",
                     help="feedback reject-rate budget in (0, 1) "
                          "(--journal mode)")
    slo.add_argument("--fast-window", type=float, default=300.0,
                     dest="fast_window",
                     help="fast burn window in seconds (default 300)")
    slo.add_argument("--slow-window", type=float, default=3600.0,
                     dest="slow_window",
                     help="slow burn window in seconds (default 3600)")
    slo.add_argument("--burn-threshold", type=float, default=6.0,
                     dest="burn_threshold",
                     help="burn rate at which both windows must sit to "
                          "alert (default 6.0)")

    fuzz = sub.add_parser(
        "fuzz",
        help="adversarial workload fuzzer with differential oracles "
             "(beam≡brute-force, cache on≡off, gateway≡engine, "
             "mutation invariance); exits 1 on any violation",
    )
    fuzz.add_argument("--seed", type=int, default=0,
                      help="master seed; one seed = one byte-identical "
                           "case stream")
    fuzz.add_argument("--cases", type=int, default=None,
                      help="cases to generate (default 2000; 300 with "
                           "--smoke)")
    fuzz.add_argument("--smoke", action="store_true",
                      help="CI budget: fewer cases, same hard gates")
    fuzz.add_argument("--workloads", nargs="+", metavar="DATASET",
                      choices=sorted(DATASET_BUILDERS), default=None,
                      help="datasets to fuzz (default: mas wide)")
    fuzz.add_argument("--corpus-dir", default=None, dest="corpus_dir",
                      help="write minimized violation repros here "
                           "(use tests/corpus to commit them)")
    fuzz.add_argument("--no-snapshot", action="store_true",
                      dest="no_snapshot",
                      help="skip writing BENCH_fuzz.json")
    fuzz.add_argument("--progress", action="store_true",
                      help="print a progress line every 100 cases")

    controlplane = sub.add_parser(
        "controlplane",
        help="inspect or prune a shared control-plane store",
    )
    controlplane_sub = controlplane.add_subparsers(
        dest="controlplane_command", required=True
    )
    cp_stats = controlplane_sub.add_parser(
        "stats", help="row counts, size, and feedback verdict breakdown"
    )
    cp_stats.add_argument("--store", required=True,
                          help="control-plane SQLite file")
    cp_prune = controlplane_sub.add_parser(
        "prune", help="expire idempotency keys and trim cache/responses"
    )
    cp_prune.add_argument("--store", required=True,
                          help="control-plane SQLite file")
    cp_prune.add_argument("--idempotency-ttl", type=float, default=3600.0,
                          dest="idempotency_ttl",
                          help="drop idempotency keys older than this many "
                               "seconds")
    cp_prune.add_argument("--cache-keep", type=int, default=10_000,
                          dest="cache_keep",
                          help="keep at most this many cache entries "
                               "(newest first)")
    cp_prune.add_argument("--responses-keep", type=int, default=10_000,
                          dest="responses_keep",
                          help="keep at most this many feedback-resolvable "
                               "responses")
    return parser


_COMMANDS = {
    "stats": _cmd_stats,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "translate": _cmd_translate,
    "trace": _cmd_trace,
    "export": _cmd_export,
    "warmup": _cmd_warmup,
    "ingest": _cmd_ingest,
    "serve": _cmd_serve,
    "gateway": _cmd_gateway,
    "logs": _cmd_logs,
    "feedback": _cmd_feedback,
    "controlplane": _cmd_controlplane,
    "slo": _cmd_slo,
    "fuzz": _cmd_fuzz,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Downstream pipe closed early (e.g. `repro stats | head`); keep
        # the interpreter's exit-time flush from raising a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    except (ReproError, OSError) as exc:
        # Operational failures (unknown dataset, missing/corrupt artifact
        # paths, unparseable input, ports in use, unreadable files) get a
        # one-line actionable message instead of a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
