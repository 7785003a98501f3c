"""Engine serving: cache consistency, batching, and online learning."""

from __future__ import annotations

import pytest

from repro.api import Engine, EngineConfig
from repro.core import Keyword, KeywordMetadata, QueryLog, Templar
from repro.core.fragments import FragmentContext
from repro.datasets.base import BenchmarkDataset
from repro.embedding import CompositeModel
from repro.errors import ConfigError, ServingError
from repro.nlidb import PipelineNLIDB


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


def _mini_engine(mini_db, mini_lexicon, mini_log, **config) -> Engine:
    """A Pipeline+ engine over the mini schema, learning from ``mini_log``."""
    dataset = BenchmarkDataset(
        name="mini", database=mini_db, items=[], lexicon=mini_lexicon,
        schema_terms=["papers", "journals", "authors"],
    )
    config.setdefault("log_source", "none")
    query_log = mini_log if config.get("backend") != "pipeline" else None
    return Engine.from_config(
        EngineConfig(dataset="mini", **config),
        dataset=dataset, query_log=query_log,
    )


@pytest.fixture()
def engine(mini_db, mini_lexicon, mini_log):
    with _mini_engine(mini_db, mini_lexicon, mini_log) as built:
        yield built


def _results(engine, keywords):
    return engine.translate(keywords).results


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

        # Twice through the engine: cold then fully cached.
        for _ in range(2):
            single = [
                [(r.sql, r.config_score, r.join_score)
                 for r in _results(engine, kw)]
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
    def test_repeat_request_is_a_cache_hit(self, engine):
        keywords = _mini_requests()[0]
        first = _results(engine, keywords)
        second = _results(engine, keywords)
        assert second is first
        stats = _translate_stats(engine)
        assert stats["hits"] == 1
        assert stats["misses"] == 1

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

    def test_equal_but_distinct_keyword_objects_share_an_entry(self, engine):
        first = _results(engine, _mini_requests()[0])
        again = _results(
            engine,
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

    def test_stage_caches_serve_across_requests(self, engine):
        # Two different NLQs over the same relations share join-path work.
        engine.translate(_mini_requests()[0])
        engine.translate(_mini_requests()[1])
        join_stats = next(
            c for c in engine.stats()["caches"] if c["name"] == "join_paths"
        )
        assert join_stats["hits"] > 0

    def test_warm_fills_the_cache(self, engine):
        # A warm-up batch leaves every request cached for later singles.
        assert len(engine.translate_batch(_mini_requests())) == len(
            _mini_requests()
        )
        for keywords in _mini_requests():
            engine.translate(keywords)
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
    def test_observe_and_absorb_bumps_revision_and_invalidates(self, engine):
        keywords = _mini_requests()[0]
        before = _results(engine, keywords)
        revision = engine.templar.qfg.revision

        engine.observe("SELECT p.title FROM publication p WHERE p.year > 2000")
        assert engine.pending_observations == 1
        assert engine.absorb_pending() == 1
        assert engine.pending_observations == 0
        assert engine.templar.qfg.revision == revision + 1

        after = _results(engine, keywords)
        # New revision => new cache entry (recomputed, not the old object).
        assert after is not before
        assert [r.sql for r in after] == [r.sql for r in before]

    def test_unparseable_observation_is_counted_not_raised(self, engine):
        engine.observe("SELECT garbage FROM nowhere at all")
        assert engine.absorb_pending() == 0
        assert engine.metrics.counter("observe_errors") == 1

    def test_learn_batch_size_auto_absorbs(self, mini_db, mini_lexicon, mini_log):
        with _mini_engine(
            mini_db, mini_lexicon, mini_log, learn_batch_size=2
        ) as engine:
            engine.observe("SELECT j.name FROM journal j")
            assert engine.pending_observations == 1
            # The observation that fills the batch absorbs it inline.
            engine.observe("SELECT a.name FROM author a")
            assert engine.metrics.counter("observed_absorbed") == 2
            assert engine.pending_observations == 0

    def test_pending_queue_is_bounded(self, engine, monkeypatch):
        import repro.api.engine as engine_module

        monkeypatch.setattr(engine_module, "MAX_PENDING", 3)
        for i in range(5):
            engine.observe(f"SELECT j.name FROM journal j -- {i}")
        assert engine.pending_observations == 3
        assert engine.metrics.counter("observed_dropped") == 2

    def test_observe_without_templar_raises(self, mini_db, mini_lexicon, mini_log):
        with _mini_engine(
            mini_db, mini_lexicon, mini_log, backend="pipeline"
        ) as engine:
            with pytest.raises(ServingError):
                engine.observe("SELECT j.name FROM journal j")

    def test_take_pending_moves_queue_without_absorbing(self, engine):
        revision = engine.templar.qfg.revision
        engine.observe("SELECT j.name FROM journal j")
        engine.observe("SELECT a.name FROM author a")
        taken = engine.take_pending()
        assert taken == [
            "SELECT j.name FROM journal j", "SELECT a.name FROM author a"
        ]
        assert engine.pending_observations == 0
        # Nothing reached the graph: the caller owns the statements now
        # (the gateway hands them to a replacement engine on hot-swap).
        assert engine.templar.qfg.revision == revision
        assert engine.absorb_pending() == 0

    def test_closed_service_refuses_observations(self, engine):
        engine.close()
        with pytest.raises(ServingError, match="closed"):
            engine.observe("SELECT j.name FROM journal j")

    def test_close_is_idempotent(self, engine):
        engine.observe("SELECT j.name FROM journal j")
        engine.close()
        engine.close()
        assert engine.pending_observations == 0


class TestServiceStats:
    def test_stats_shape(self, engine):
        engine.translate(_mini_requests()[0])
        stats = engine.stats()
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

    def test_double_wrapping_one_nlidb_rejected(self, engine):
        with pytest.raises(ServingError, match="already serves"):
            Engine(
                engine.config, dataset=engine.dataset,
                backend=engine.backend, nlidb=engine.nlidb,
            )

    def test_close_absorbs_acknowledged_observations(
        self, mini_db, mini_lexicon, mini_log
    ):
        engine = _mini_engine(
            mini_db, mini_lexicon, mini_log, learn_batch_size=100
        )
        before = engine.templar.qfg.total_queries
        engine.observe("SELECT j.name FROM journal j")
        engine.close()
        assert engine.templar.qfg.total_queries == before + 1
        assert engine.pending_observations == 0

    def test_out_of_range_learn_batch_rejected(self):
        """The queue bound is checked when the config decodes, not when
        an engine (or a gateway's listener) is already being built."""
        from repro.api.config import MAX_PENDING
        from repro.gateway import GatewayConfig

        for bad in (MAX_PENDING + 1, 0, -1):
            with pytest.raises(ConfigError, match="learn_batch_size"):
                EngineConfig(learn_batch_size=bad)
        assert EngineConfig(learn_batch_size=MAX_PENDING).learn_batch_size \
            == MAX_PENDING
        with pytest.raises(ConfigError, match="learn_batch_size"):
            GatewayConfig.from_dict({"tenants": {
                "mas": {"engine": {"dataset": "mas", "learn_batch_size": 5000}}
            }})
