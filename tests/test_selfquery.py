"""Self-analytics: the NLIDB answers NLQs over its own serving journal."""

from __future__ import annotations

import datetime
import json
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from conftest import one_tenant_config, serve_gateway
from repro.api import Engine, EngineConfig
from repro.core.log import QueryLog
from repro.errors import JournalError, ReproError
from repro.obs.selfquery import (
    TELEMETRY_QUERY_LOG,
    SelfQueryService,
    build_selfquery_engine,
    build_telemetry_dataset,
    load_telemetry_database,
    normalize_nlq,
    telemetry_catalog,
)

TODAY = datetime.date(2026, 8, 7)


def _sample_records():
    day = TODAY.isoformat()

    def req(tenant, nlq, ts, latency, sql="SELECT 1", hit=False):
        return {
            "kind": "request", "ts": ts, "day": day, "tenant": tenant,
            "nlq": nlq, "keywords": [], "sql": sql, "config_score": 1.0,
            "join_score": 1.0, "latency_ms": latency, "cache_hit": hit,
            "artifact_version": None, "trace_id": None,
        }

    return [
        req("mas", "return the papers", 100.0, 12.0),
        req("mas", "return the authors", 101.0, 3.0, hit=True),
        req("yelp", "return the businesses", 102.0, 48.0),
        {
            "kind": "error", "ts": 103.0, "day": day, "tenant": "yelp",
            "nlq": "%%%", "keywords": [], "error_type": "TranslationError",
            "latency_ms": 1.5, "artifact_version": None,
        },
        {
            "kind": "reload", "ts": 104.0, "day": day, "tenant": "mas",
            "old_version": "a1", "new_version": "b2",
            "carried_observations": 2, "build_ms": 400.0,
        },
    ]


class TestNormalizeNLQ:
    def test_slowest_becomes_descending_latency_order(self):
        assert (
            normalize_nlq("slowest tenant today", today=TODAY)
            == "tenant '2026-08-07' ordered by highest latency"
        )

    def test_yesterday_becomes_a_quoted_iso_date(self):
        assert "'2026-08-06'" in normalize_nlq("requests yesterday",
                                               today=TODAY)

    def test_failures_become_errors(self):
        assert normalize_nlq("number of failures") == "number of errors"
        assert normalize_nlq("failed requests") == "errors requests"

    def test_plain_questions_pass_through(self):
        assert normalize_nlq("number of requests") == "number of requests"


class TestTelemetrySchema:
    def test_journal_records_load_into_the_database(self):
        database = load_telemetry_database(_sample_records())
        count = database.execute("SELECT COUNT(t1.rid) FROM requests t1")
        assert count.rows[0][0] == 3
        tenants = database.execute("SELECT t1.name FROM tenants t1")
        assert sorted(row[0] for row in tenants.rows) == ["mas", "yelp"]
        errors = database.execute("SELECT COUNT(t1.eid) FROM errors t1")
        assert errors.rows[0][0] == 1
        reloads = database.execute(
            "SELECT t1.new_version FROM reloads t1"
        )
        assert reloads.rows[0][0] == "b2"

    def test_curated_query_log_parses_cleanly(self):
        """Every seeded telemetry statement must contribute QFG mass."""
        dataset = build_telemetry_dataset(_sample_records())
        log = QueryLog(list(TELEMETRY_QUERY_LOG))
        qfg = log.build_qfg(dataset.database.catalog)
        assert qfg.total_queries == len(TELEMETRY_QUERY_LOG)


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def journal_dir(self, tmp_path_factory):
        """A journal written by a real engine serving real requests."""
        jdir = tmp_path_factory.mktemp("journal")
        with Engine.from_config(
            EngineConfig(dataset="mas", journal_dir=str(jdir)),
            journal_tenant="mas",
        ) as engine:
            engine.translate("return the papers after 2000")
            engine.translate("return the papers after 2000")  # cache hit
            engine.translate("return all the authors")
        return jdir

    def test_the_engine_translates_questions_about_itself(self, journal_dir):
        engine = build_selfquery_engine(journal_dir)
        try:
            response = engine.translate("number of requests")
            assert response.sql == "SELECT COUNT(t1.nlq) FROM requests t1"
            answer = engine.dataset.database.execute(response.sql)
            assert answer.rows[0][0] == 3
        finally:
            engine.close()

    def test_slowest_tenant_today_names_the_tenant(self, journal_dir):
        service = SelfQueryService(journal_dir)
        try:
            result = service.query("slowest tenant today")
        finally:
            service.close()
        assert "ORDER BY" in result["sql"] and "DESC" in result["sql"]
        assert "latency_ms" in result["sql"]
        assert result["rows"][0] == ["mas"]

    def test_query_envelope_truncates_but_reports_full_count(
        self, journal_dir
    ):
        service = SelfQueryService(journal_dir)
        try:
            result = service.query("return the requests", limit=2)
        finally:
            service.close()
        assert result["row_count"] == 3
        assert len(result["rows"]) == 2
        assert result["truncated"] is True

    def test_unanswerable_question_raises_a_repro_error(self, journal_dir):
        """Off-telemetry questions fail with a mapped ReproError (→ 422)."""
        service = SelfQueryService(journal_dir)
        try:
            with pytest.raises(ReproError, match="could not parse"):
                service.query("what is the airspeed of an unladen swallow")
        finally:
            service.close()

    def test_service_rebuilds_when_the_journal_grows(self, tmp_path):
        from repro.obs.journal import RequestJournal

        jdir = tmp_path / "journal"
        journal = RequestJournal(jdir)
        try:
            journal.offer((
                "request", 100.0, "mas", "q1", [], None, 5.0, False, None,
                None,
            ))
            service = SelfQueryService(jdir, journal=journal)
            assert service.query("number of requests")["rows"] == [[1]]
            journal.offer((
                "request", 101.0, "mas", "q2", [], None, 5.0, False, None,
                None,
            ))
            # The pending record is flushed and the engine rebuilt on the
            # next query; no restart, no manual invalidation.
            assert service.query("number of requests")["rows"] == [[2]]
            service.close()
        finally:
            journal.close()

    def test_empty_journal_raises_journal_error(self, tmp_path):
        with pytest.raises(JournalError, match="no records"):
            build_selfquery_engine(tmp_path / "empty")


class TestPersistenceAcrossRestart:
    def test_journal_survives_the_serving_process(self, tmp_path):
        """Serve in one process, self-query from a fresh one (the CLI)."""
        jdir = tmp_path / "journal"
        serve_script = (
            "from repro.api import Engine, EngineConfig\n"
            f"config = EngineConfig(dataset='mas', journal_dir={str(jdir)!r})\n"
            "with Engine.from_config(config) as engine:\n"
            "    engine.translate('return the papers after 2000')\n"
            "    engine.translate('return all the authors')\n"
        )
        src = str(Path(__file__).parent.parent / "src")
        for args, stdin in (
            ([sys.executable, "-c", serve_script], None),
            ([sys.executable, "-m", "repro.cli", "logs", "query",
              "--journal", str(jdir), "--nlq", "number of requests"], None),
        ):
            completed = subprocess.run(
                args, capture_output=True, text=True, timeout=300,
                env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
            )
            assert completed.returncode == 0, completed.stderr
        assert "SELECT COUNT(t1.nlq) FROM requests t1" in completed.stdout
        assert "2" in completed.stdout.split("sql")[-1]


def _get(port: int, path: str):
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}"
        ) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestHTTPSelfQuery:
    @pytest.fixture()
    def journaled_server(self, tmp_path):
        config = one_tenant_config(journal_dir=str(tmp_path / "j"))
        with serve_gateway(config) as server:
            yield server.gateway.host("mas").engine, server.server_address[1]

    def test_admin_logs_query_round_trip(self, journaled_server):
        engine, port = journaled_server
        engine.translate("return the papers after 2000")
        engine.translate("return all the authors")
        status, body = _get(port, "/admin/logs/query?nlq=number+of+requests")
        assert status == 200, body
        assert body["sql"] == "SELECT COUNT(t1.nlq) FROM requests t1"
        assert body["rows"] == [[2]]
        # The SQL the endpoint returned really executes over the journal.
        selfquery = SelfQueryService(engine.journal.directory)
        try:
            direct = selfquery.engine().dataset.database.execute(body["sql"])
        finally:
            selfquery.close()
        assert [list(row) for row in direct.rows] == body["rows"]

    def test_limit_parameter_caps_rows(self, journaled_server):
        engine, port = journaled_server
        for _ in range(3):
            engine.translate("return the papers after 2000")
        status, body = _get(
            port, "/admin/logs/query?nlq=return+the+requests&limit=1"
        )
        assert status == 200
        assert len(body["rows"]) == 1
        assert body["row_count"] == 3 and body["truncated"] is True
        status, body = _get(
            port, "/admin/logs/query?nlq=return+the+requests&limit=zero"
        )
        assert status == 400
        assert "integer" in body["error"]

    def test_missing_nlq_is_400(self, journaled_server):
        _, port = journaled_server
        status, body = _get(port, "/admin/logs/query")
        assert status == 400
        assert "nlq" in body["error"]

    def test_unjournaled_server_is_400(self):
        with serve_gateway(one_tenant_config()) as server:
            status, body = _get(
                server.server_address[1], "/admin/logs/query?nlq=x"
            )
        assert status == 400
        assert "journal" in body["error"]

    def test_empty_journal_is_422(self, journaled_server):
        _, port = journaled_server
        status, body = _get(port, "/admin/logs/query?nlq=number+of+requests")
        assert status == 422
        assert "no records" in body["error"]


class TestTelemetryCatalogShape:
    def test_latency_lives_only_on_requests(self):
        """'average latency' must map to requests, never to errors."""
        catalog = telemetry_catalog()
        assert catalog.tables["requests"].has_column("latency_ms")
        assert not catalog.tables["errors"].has_column("latency_ms")
