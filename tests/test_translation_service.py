"""TranslationService: cache consistency, batching, and online learning."""

from __future__ import annotations

import pytest

from repro.api import Engine, EngineConfig
from repro.core import Keyword, KeywordMetadata, QueryLog, Templar
from repro.core.fragments import FragmentContext
from repro.datasets.base import BenchmarkDataset
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
    with TranslationService(nlidb) as svc:
        yield svc


@pytest.fixture()
def engine(mini_db, mini_lexicon, mini_log):
    dataset = BenchmarkDataset(
        name="mini", database=mini_db, items=[], lexicon=mini_lexicon,
        schema_terms=["papers", "journals", "authors"],
    )
    config = EngineConfig(dataset="mini", log_source="none")
    with Engine.from_config(
        config, dataset=dataset, query_log=mini_log
    ) as built:
        yield built


def _translate_stats(engine) -> dict:
    return next(
        c for c in engine.stats()["caches"] if c["name"] == "translate"
    )


class TestCachedConsistency:
    def test_cached_and_batched_match_direct_translate(
        self, mini_db, mini_model, mini_log, engine
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
        with TranslationService(served_nlidb) as service:
            # Twice through the service: cold then fully cached.
            for _ in range(2):
                single = [
                    [(r.sql, r.config_score, r.join_score)
                     for r in service.translate(kw)]
                    for kw in _mini_requests()
                ]
                assert single == direct_out
        # Twice through the engine's batch API: cold then fully cached.
        for _ in range(2):
            batched = [
                [(r.sql, r.config_score, r.join_score) for r in response.results]
                for response in engine.translate_batch(_mini_requests())
            ]
            assert batched == direct_out

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

        config = EngineConfig(dataset="mas", log_source="none")
        with Engine.from_config(
            config, dataset=mas_dataset, query_log=log
        ) as engine:
            requests = [item.keywords for item in items]
            for _ in range(2):
                batched = engine.translate_batch(requests)
                assert [
                    [(r.sql, r.config_score) for r in response.results]
                    for response in batched
                ] == expected
            assert _translate_stats(engine)["hits"] >= len(items)


class TestCachingBehaviour:
    def test_repeat_request_is_a_cache_hit(self, service):
        keywords = _mini_requests()[0]
        first = service.translate(keywords)
        second = service.translate(keywords)
        assert second is first
        stats = service._translate_cache.stats()
        assert stats.hits == 1
        assert stats.misses == 1

    def test_batch_deduplicates_identical_requests(self, engine):
        # The translate cache is the one dedup mechanism: a batch's
        # duplicates are hits on the entry its first occurrence filled.
        keywords = _mini_requests()[0]
        responses = engine.translate_batch([keywords, keywords, keywords])
        assert len(responses) == 3
        assert responses[0].results is responses[1].results \
            is responses[2].results
        stats = _translate_stats(engine)
        assert (stats["misses"], stats["hits"]) == (1, 2)

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

    def test_empty_batch(self, engine):
        assert engine.translate_batch([]) == []

    def test_stage_caches_serve_across_requests(self, service):
        # Two different NLQs over the same relations share join-path work.
        service.translate(_mini_requests()[0])
        service.translate(_mini_requests()[1])
        join_stats = next(
            c for c in service.stats()["caches"] if c["name"] == "join_paths"
        )
        assert join_stats["hits"] > 0

    def test_warm_fills_the_cache(self, engine):
        # A warm-up batch leaves every request cached for later singles.
        assert len(engine.translate_batch(_mini_requests())) == len(
            _mini_requests()
        )
        for keywords in _mini_requests():
            engine.service.translate(keywords)
        assert _translate_stats(engine)["hits"] >= len(_mini_requests())


class TestOneMissPath:
    """A cold mas workload computes each translate and join miss once,
    whether it arrives as a loop, a batch or concurrent callers."""

    #: Sequential counts over mas's 194 usable keyword items.
    SEQUENTIAL_MISSES = {"translate": 194, "join_paths": 100}

    @staticmethod
    def _misses(engine) -> dict:
        return {
            c["name"]: c["misses"] for c in engine.stats()["caches"]
        }

    @staticmethod
    def _cold_engine(mas_dataset):
        return Engine.from_config(
            EngineConfig(dataset="mas"), dataset=mas_dataset
        )

    @pytest.fixture(scope="class")
    def loop(self, mas_dataset):
        """``(requests, SQL per request)`` from a loop over translate."""
        requests = [item.keywords for item in mas_dataset.usable_items()]
        with self._cold_engine(mas_dataset) as engine:
            sqls = [engine.translate(keywords).sql for keywords in requests]
            assert self._misses(engine) == self.SEQUENTIAL_MISSES
        return requests, sqls

    def test_batch_matches_a_loop_over_translate(self, mas_dataset, loop):
        requests, loop_sqls = loop
        with self._cold_engine(mas_dataset) as engine:
            batch = engine.translate_batch(requests)
            assert [response.sql for response in batch] == loop_sqls
            assert self._misses(engine) == self.SEQUENTIAL_MISSES
        # Every batch response is a full single-request response.
        for response in batch:
            assert set(response.timings_ms) == {"parse", "translate", "total"}

    def test_concurrent_callers_compute_each_miss_once(
        self, mas_dataset, loop
    ):
        import threading

        requests, loop_sqls = loop
        outputs: list[list[str]] = []
        errors: list[Exception] = []
        with self._cold_engine(mas_dataset) as engine:
            start = threading.Barrier(4)

            def caller() -> None:
                try:
                    start.wait()
                    outputs.append(
                        [engine.translate(kw).sql for kw in requests]
                    )
                except Exception as exc:  # pragma: no cover - reported
                    errors.append(exc)

            threads = [threading.Thread(target=caller) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
                assert not thread.is_alive()
            assert not errors
            assert self._misses(engine) == self.SEQUENTIAL_MISSES
        assert outputs == [loop_sqls] * 4


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
        templar = Templar(mini_db, mini_model, mini_log)
        nlidb = PipelineNLIDB(mini_db, mini_model, templar)
        with TranslationService(nlidb, learn_batch_size=2) as service:
            service.observe("SELECT j.name FROM journal j")
            assert service.pending_observations == 1
            # The observation that fills the batch absorbs it inline.
            service.observe("SELECT a.name FROM author a")
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

    def test_max_workers_key_is_deprecated(self):
        """A saved config with the retired pool width still loads, once
        warned; the key is dropped, not carried."""
        from repro.gateway import GatewayConfig

        with pytest.warns(DeprecationWarning, match="max_workers") as caught:
            config = EngineConfig.from_dict(
                {"dataset": "mas", "max_workers": 4}
            )
        assert len(caught) == 1
        assert config == EngineConfig(dataset="mas")
        assert "max_workers" not in config.to_dict()
        with pytest.warns(DeprecationWarning, match="max_workers"):
            gateway = GatewayConfig.from_dict({"tenants": {
                "mas": {"engine": {"dataset": "mas", "max_workers": 0}}
            }})
        assert gateway.tenants["mas"].engine == EngineConfig(dataset="mas")

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
