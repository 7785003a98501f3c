"""TranslationService: cache consistency, batching, and online learning."""

from __future__ import annotations

import pytest

from repro.core import Keyword, KeywordMetadata, QueryLog, Templar
from repro.core.fragments import FragmentContext
from repro.embedding import CompositeModel
from repro.errors import ServingError
from repro.nlidb import PipelineNLIDB
from repro.serving import TranslationService


def _mini_requests() -> list[list[Keyword]]:
    select = FragmentContext.SELECT
    where = FragmentContext.WHERE
    return [
        [
            Keyword("papers", KeywordMetadata(select)),
            Keyword("after 2000", KeywordMetadata(where, comparison_op=">")),
        ],
        [
            Keyword("papers", KeywordMetadata(select)),
            Keyword("TKDE", KeywordMetadata(where)),
        ],
        [
            Keyword("papers", KeywordMetadata(select)),
            Keyword("John Smith", KeywordMetadata(where)),
        ],
        [Keyword("journals", KeywordMetadata(select))],
    ]


@pytest.fixture()
def service(mini_db, mini_model, mini_log):
    templar = Templar(mini_db, mini_model, mini_log)
    nlidb = PipelineNLIDB(mini_db, mini_model, templar)
    with TranslationService(nlidb, max_workers=3) as svc:
        yield svc


class TestCachedConsistency:
    def test_cached_and_batched_match_direct_translate(
        self, mini_db, mini_model, mini_log
    ):
        """The serving path must be a pure accelerator, never a rescorer."""
        templar = Templar(mini_db, mini_model, mini_log)
        direct = PipelineNLIDB(mini_db, mini_model, templar)
        direct_out = [
            [(r.sql, r.config_score, r.join_score) for r in direct.translate(kw)]
            for kw in _mini_requests()
        ]

        served_templar = Templar(mini_db, mini_model, mini_log)
        served_nlidb = PipelineNLIDB(mini_db, mini_model, served_templar)
        with TranslationService(served_nlidb, max_workers=4) as service:
            single = [
                [(r.sql, r.config_score, r.join_score) for r in service.translate(kw)]
                for kw in _mini_requests()
            ]
            # Twice through the batch API: cold then fully cached.
            for _ in range(2):
                batched = [
                    [(r.sql, r.config_score, r.join_score) for r in results]
                    for results in service.translate_batch(_mini_requests())
                ]
                assert batched == direct_out
            assert single == direct_out

    def test_consistency_on_sampled_mas_workload(self, mas_dataset):
        """Same check against real benchmark items (sampled for speed)."""
        db = mas_dataset.database
        model = CompositeModel(mas_dataset.lexicon)
        log = QueryLog([item.gold_sql for item in mas_dataset.usable_items()])
        items = mas_dataset.usable_items()[::17][:6]
        assert len(items) >= 4

        direct = PipelineNLIDB(db, model, Templar(db, model, log))
        expected = [
            [(r.sql, r.config_score) for r in direct.translate(item.keywords)]
            for item in items
        ]

        nlidb = PipelineNLIDB(db, model, Templar(db, model, log))
        with TranslationService(nlidb, max_workers=4) as service:
            requests = [item.keywords for item in items]
            batched = service.translate_batch(requests)
            rebatched = service.translate_batch(requests)
            assert [
                [(r.sql, r.config_score) for r in results] for results in batched
            ] == expected
            assert [
                [(r.sql, r.config_score) for r in results] for results in rebatched
            ] == expected
            stats = service.stats()
            translate_stats = next(
                c for c in stats["caches"] if c["name"] == "translate"
            )
            assert translate_stats["hits"] >= len(items)


class TestCachingBehaviour:
    def test_repeat_request_is_a_cache_hit(self, service):
        keywords = _mini_requests()[0]
        first = service.translate(keywords)
        second = service.translate(keywords)
        assert second is first
        stats = service._translate_cache.stats()
        assert stats.hits == 1
        assert stats.misses == 1

    def test_batch_deduplicates_identical_requests(self, service):
        keywords = _mini_requests()[0]
        results = service.translate_batch([keywords, keywords, keywords])
        assert len(results) == 3
        assert results[0] is results[1] is results[2]
        assert service.metrics.counter("batch_deduplicated") == 2

    def test_equal_but_distinct_keyword_objects_share_an_entry(self, service):
        first = service.translate(_mini_requests()[0])
        again = service.translate(
            [
                Keyword("papers", KeywordMetadata(FragmentContext.SELECT)),
                Keyword(
                    "after 2000",
                    KeywordMetadata(FragmentContext.WHERE, comparison_op=">"),
                ),
            ]
        )
        assert again is first

    def test_empty_batch(self, service):
        assert service.translate_batch([]) == []

    def test_stage_caches_serve_across_requests(self, service):
        # Two different NLQs over the same relations share join-path work.
        service.translate(_mini_requests()[0])
        service.translate(_mini_requests()[1])
        join_stats = next(
            c for c in service.stats()["caches"] if c["name"] == "join_paths"
        )
        assert join_stats["hits"] > 0

    def test_warm_fills_the_cache(self, service):
        assert service.warm(_mini_requests()) == len(_mini_requests())
        for keywords in _mini_requests():
            service.translate(keywords)
        assert service._translate_cache.stats().hits >= len(_mini_requests())


class TestOnlineLearning:
    def test_observe_and_absorb_bumps_revision_and_invalidates(self, service):
        keywords = _mini_requests()[0]
        before = service.translate(keywords)
        revision = service.templar.qfg.revision

        service.observe("SELECT p.title FROM publication p WHERE p.year > 2000")
        assert service.pending_observations == 1
        assert service.absorb_pending() == 1
        assert service.pending_observations == 0
        assert service.templar.qfg.revision == revision + 1

        after = service.translate(keywords)
        # New revision => new cache entry (recomputed, not the old object).
        assert after is not before
        assert [r.sql for r in after] == [r.sql for r in before]

    def test_unparseable_observation_is_counted_not_raised(self, service):
        service.observe("SELECT garbage FROM nowhere at all")
        assert service.absorb_pending() == 0
        assert service.metrics.counter("observe_errors") == 1

    def test_learn_batch_size_auto_absorbs(self, mini_db, mini_model, mini_log):
        import time

        templar = Templar(mini_db, mini_model, mini_log)
        nlidb = PipelineNLIDB(mini_db, mini_model, templar)
        with TranslationService(nlidb, learn_batch_size=2) as service:
            service.observe("SELECT j.name FROM journal j")
            assert service.pending_observations == 1
            service.observe("SELECT a.name FROM author a")
            # The drain is scheduled on the worker pool, off the hot path.
            deadline = time.monotonic() + 5.0
            while (
                service.metrics.counter("observed_absorbed") < 2
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert service.metrics.counter("observed_absorbed") == 2
            assert service.pending_observations == 0

    def test_pending_queue_is_bounded(self, mini_db, mini_model, mini_log):
        templar = Templar(mini_db, mini_model, mini_log)
        nlidb = PipelineNLIDB(mini_db, mini_model, templar)
        with TranslationService(nlidb, max_pending=3) as service:
            for i in range(5):
                service.observe(f"SELECT j.name FROM journal j -- {i}")
            assert service.pending_observations == 3
            assert service.metrics.counter("observed_dropped") == 2

    def test_observe_without_templar_raises(self, mini_db, mini_model):
        nlidb = PipelineNLIDB(mini_db, mini_model, None)
        with TranslationService(nlidb) as service:
            with pytest.raises(ServingError):
                service.observe("SELECT j.name FROM journal j")

    def test_take_pending_moves_queue_without_absorbing(self, service):
        revision = service.templar.qfg.revision
        service.observe("SELECT j.name FROM journal j")
        service.observe("SELECT a.name FROM author a")
        taken = service.take_pending()
        assert taken == [
            "SELECT j.name FROM journal j", "SELECT a.name FROM author a"
        ]
        assert service.pending_observations == 0
        # Nothing reached the graph: the caller owns the statements now
        # (the gateway hands them to a replacement engine on hot-swap).
        assert service.templar.qfg.revision == revision
        assert service.absorb_pending() == 0

    def test_closed_service_refuses_observations(self, service):
        service.close()
        with pytest.raises(ServingError, match="closed"):
            service.observe("SELECT j.name FROM journal j")

    def test_close_is_idempotent(self, service):
        service.observe("SELECT j.name FROM journal j")
        service.close()
        service.close()
        assert service.pending_observations == 0


class TestServiceStats:
    def test_stats_shape(self, service):
        service.translate(_mini_requests()[0])
        stats = service.stats()
        assert stats["system"] == "Pipeline+"
        assert {c["name"] for c in stats["caches"]} == {
            "translate", "join_paths"
        }
        assert stats["qfg"]["total_queries"] > 0
        assert stats["metrics"]["counters"]["requests"] == 1
        assert "translate" in stats["metrics"]["latencies"]

    def test_invalid_worker_count_rejected(self, mini_db, mini_model):
        nlidb = PipelineNLIDB(mini_db, mini_model, None)
        with pytest.raises(ServingError):
            TranslationService(nlidb, max_workers=0)

    def test_double_wrapping_one_nlidb_rejected(
        self, mini_db, mini_model, mini_log
    ):
        templar = Templar(mini_db, mini_model, mini_log)
        nlidb = PipelineNLIDB(mini_db, mini_model, templar)
        with TranslationService(nlidb):
            with pytest.raises(ServingError, match="already wrapped"):
                TranslationService(nlidb)

    def test_close_absorbs_acknowledged_observations(
        self, mini_db, mini_model, mini_log
    ):
        templar = Templar(mini_db, mini_model, mini_log)
        nlidb = PipelineNLIDB(mini_db, mini_model, templar)
        service = TranslationService(nlidb, learn_batch_size=100)
        before = templar.qfg.total_queries
        service.observe("SELECT j.name FROM journal j")
        service.close()
        assert templar.qfg.total_queries == before + 1
        assert service.pending_observations == 0

    def test_out_of_range_learn_batch_rejected(self, mini_db, mini_model):
        nlidb = PipelineNLIDB(mini_db, mini_model, None)
        for bad in (8, 0, -1):
            with pytest.raises(ServingError, match="max_pending"):
                TranslationService(nlidb, learn_batch_size=bad, max_pending=4)
