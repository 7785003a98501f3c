"""The pre-parse NLQ entry of the translate cache, and the SQL memo.

A raw NLQ is looked up in the translate LRU under its exact string and
the QFG revision before NaLIR runs, so a repeated question skips the
parse as well as the translation.  ``TranslationResult.sql`` is rendered
once per result and reused by every hit.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.api import Engine, EngineConfig
from repro.core import Templar
from repro.errors import ServingError
from repro.nlidb import NalirParser, PipelineNLIDB
from repro.serving import TranslationService
from repro.serving.service import translate_request
from repro.serving.wire import TranslationRequest
from repro.sql.writer import write_query

NLQ = "return the papers after 2000"


class CountingParser:
    """Wraps a parser and counts ``parse`` calls."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.calls = 0

    def parse(self, nlq: str):
        self.calls += 1
        return self.inner.parse(nlq)


@pytest.fixture()
def parser(mini_db):
    return CountingParser(
        NalirParser(mini_db, ["papers", "journals", "authors"],
                    simulate_failures=False)
    )


def _service(mini_db, mini_model, mini_log, **kwargs) -> TranslationService:
    templar = Templar(mini_db, mini_model, mini_log)
    nlidb = PipelineNLIDB(mini_db, mini_model, templar)
    return TranslationService(nlidb, **kwargs)


@pytest.fixture()
def service(mini_db, mini_model, mini_log):
    with _service(mini_db, mini_model, mini_log) as svc:
        yield svc


def _serve(service, parser, nlq: str = NLQ):
    return translate_request(service, TranslationRequest(nlq=nlq), parser=parser)


class TestNLQEntries:
    def test_repeat_nlq_skips_the_parse(self, service, parser):
        first = _serve(service, parser)
        second = _serve(service, parser)
        assert parser.calls == 1
        assert second.results is first.results
        assert second.keywords == first.keywords
        assert first.timings_ms["parse"] > 0.0
        assert second.timings_ms["parse"] == 0.0

    def test_hit_shares_the_keyword_entry_results(self, service, parser):
        response = _serve(service, parser)
        by_keywords = service.translate(response.keywords)
        assert by_keywords is response.results
        assert _serve(service, parser).results is by_keywords

    def test_each_request_records_one_of_everything(self, service, parser):
        _serve(service, parser)
        _serve(service, parser)
        stats = service._translate_cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        # The miss fills two slots: the keyword entry and the NLQ entry.
        assert stats.size == 2
        assert service.metrics.counter("requests") == 2
        assert service.metrics.snapshot()["latencies"]["translate"]["count"] == 2

    def test_key_is_the_exact_string(self, service, parser):
        _serve(service, parser)
        upper = _serve(service, parser, NLQ.upper())
        # The parse keeps the original case, so another spelling parses.
        assert parser.calls == 2
        assert upper.timings_ms["parse"] > 0.0

    def test_absorb_retires_nlq_entries(self, service, parser):
        _serve(service, parser)
        service.observe("SELECT p.title FROM publication p WHERE p.year > 2000")
        assert service.absorb_pending() == 1
        again = _serve(service, parser)
        assert parser.calls == 2
        assert again.timings_ms["parse"] > 0.0

    def test_cache_size_zero_parses_every_time(
        self, mini_db, mini_model, mini_log, parser
    ):
        with _service(mini_db, mini_model, mini_log, cache_size=0) as service:
            for _ in range(3):
                assert _serve(service, parser).timings_ms["parse"] > 0.0
            stats = service._translate_cache.stats()
        assert parser.calls == 3
        assert (stats.hits, stats.misses, stats.size) == (0, 3, 0)

    def test_parse_failures_are_not_cached(self, service, parser):
        for _ in range(2):
            with pytest.raises(ServingError, match="could not parse"):
                _serve(service, parser, "xyzzy")
        assert parser.calls == 2
        assert len(service._translate_cache) == 0
        assert service.metrics.counter("requests") == 0
        assert service.metrics.counter(
            "translate_errors", labels={"type": "ServingError"}
        ) == 2

    def test_keyword_requests_never_parse(self, service, parser):
        response = _serve(service, parser)
        keyword_response = translate_request(
            service, TranslationRequest(keywords=response.keywords),
            parser=parser,
        )
        assert parser.calls == 1
        assert keyword_response.results is response.results


class TestFeedbackRetiresNLQEntries:
    def test_applied_feedback_forces_a_fresh_parse(self, tmp_path):
        config = EngineConfig(
            dataset="mas",
            control_plane_path=str(tmp_path / "plane.sqlite3"),
            control_plane_cache=False,
        )
        with Engine.from_config(config) as engine:
            engine.parser = parser = CountingParser(engine.parser)
            first = engine.translate("return the authors")
            engine.translate("return the authors")
            assert parser.calls == 1
            engine.control_plane.submit_feedback(
                engine.service.journal_tenant, "accept",
                request_id=first.provenance["request_id"],
            )
            assert engine.apply_feedback() == 1
            again = engine.translate("return the authors")
        assert parser.calls == 2
        assert again.timings_ms["parse"] > 0.0
        assert again.sql == first.sql


class TestRenderedOnce:
    def test_sql_is_written_once_and_matches_the_writer(
        self, service, parser, monkeypatch
    ):
        import repro.nlidb.base as base

        calls = []

        def counting_write(query):
            calls.append(query)
            return write_query(query)

        monkeypatch.setattr(base, "write_query", counting_write)
        results = _serve(service, parser).results
        for result in results:
            assert result.sql == write_query(result.query)
            assert result.sql is result.sql
        # Every result was written exactly once, however often it was read.
        assert sorted(map(id, calls)) == sorted(id(r.query) for r in results)
        hit = _serve(service, parser).results
        assert [r.sql for r in hit] == [r.sql for r in results]
        assert len(calls) == len(results)

    def test_equality_and_pickles_ignore_the_memo(self, service, parser):
        [result, *_] = _serve(service, parser).results
        before = pickle.dumps(result)
        sql = result.sql
        assert pickle.dumps(result) == before
        clone = pickle.loads(before)
        assert clone == result
        assert clone.sql == sql
        assert "sql" not in {field.name for field in dataclasses.fields(result)}
        assert dataclasses.replace(result) == result
