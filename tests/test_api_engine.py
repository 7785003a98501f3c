"""Engine / EngineConfig: the unified entry point and its wire format."""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.api import Engine, EngineConfig, TranslationRequest
from repro.core import Keyword, KeywordMetadata, QueryLog, Templar
from repro.core.fragments import FragmentContext
from repro.datasets.base import BenchmarkDataset
from repro.embedding import CompositeModel
from repro.errors import ConfigError, ReproError, ServingError
from repro.nlidb import PipelineNLIDB
from repro.serving.wire import keyword_from_dict

from tests.conftest import (
    build_mini_db,
    build_mini_lexicon,
    build_mini_log,
    one_tenant_config,
    serve_gateway,
)


def mini_dataset() -> BenchmarkDataset:
    return BenchmarkDataset(
        name="mini",
        database=build_mini_db(),
        items=[],
        lexicon=build_mini_lexicon(),
        schema_terms=["papers", "journals", "authors"],
    )


def mini_engine(**overrides) -> Engine:
    config = EngineConfig(
        dataset="mini", backend="pipeline+", log_source="none",
        **overrides,
    )
    return Engine.from_config(
        config, dataset=mini_dataset(), query_log=build_mini_log()
    )


KEYWORDS = (
    Keyword("papers", KeywordMetadata(FragmentContext.SELECT)),
    Keyword(
        "after 2000",
        KeywordMetadata(FragmentContext.WHERE, comparison_op=">"),
    ),
)


class TestEngineConfig:
    def test_round_trip_identity(self):
        config = EngineConfig(dataset="yelp", kappa=7, lam=0.5,
                              learn_batch_size=16)
        assert EngineConfig.from_dict(config.to_dict()) == config
        assert EngineConfig.from_dict(config.to_dict()).fingerprint() == \
            config.fingerprint()

    def test_file_round_trip(self, tmp_path):
        config = EngineConfig(dataset="imdb", backend="nalir+")
        path = config.save(tmp_path / "engine.json")
        assert EngineConfig.from_file(path) == config

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="datase"):
            EngineConfig.from_dict({"datase": "mas"})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError, match="log_source"):
            EngineConfig(log_source="s3")
        with pytest.raises(ConfigError, match="log_path"):
            EngineConfig(log_source="file")
        with pytest.raises(ConfigError, match="artifacts"):
            EngineConfig(log_source="artifacts")
        with pytest.raises(ConfigError, match="artifact_version"):
            EngineConfig(artifact_version="v1")
        with pytest.raises(ConfigError, match="lam"):
            EngineConfig(lam=1.5)
        with pytest.raises(ConfigError, match="obscurity"):
            EngineConfig(obscurity="Opaque")
        # Set-but-unused log fields fail loudly rather than silently
        # training on the wrong log.
        with pytest.raises(ConfigError, match="log_path"):
            EngineConfig(log_path="prod.sql")
        with pytest.raises(ConfigError, match="artifacts"):
            EngineConfig(artifacts="./store")

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            EngineConfig.from_file(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            EngineConfig.from_file(bad)


class TestEngineTranslate:
    def test_matches_direct_nlidb(self):
        """The Engine is a facade, never a rescorer."""
        db = build_mini_db()
        model = CompositeModel(build_mini_lexicon())
        templar = Templar(db, model, build_mini_log())
        direct = PipelineNLIDB(db, model, templar)
        expected = [
            (r.sql, r.config_score, r.join_score)
            for r in direct.translate(list(KEYWORDS))
        ]

        with mini_engine() as engine:
            response = engine.translate(KEYWORDS)
            actual = [
                (r.sql, r.config_score, r.join_score)
                for r in response.results
            ]
        assert actual == expected
        assert expected

    def test_raw_nlq_equals_parsed_keywords(self):
        with mini_engine() as engine:
            by_string = engine.translate("return the papers after 2000")
            by_keywords = engine.translate(KEYWORDS)
            assert by_string.sql == by_keywords.sql
            assert by_string.keywords  # the parse is surfaced
            assert by_string.timings_ms["parse"] >= 0.0

    def test_request_union_payload_and_request_object(self):
        payload = {
            "keywords": [
                {"text": "papers", "context": "SELECT"},
                {"text": "after 2000", "context": "WHERE",
                 "comparison_op": ">"},
            ],
            "limit": 1,
        }
        with mini_engine() as engine:
            from_payload = engine.translate(payload)
            from_request = engine.translate(
                TranslationRequest(keywords=KEYWORDS, limit=1)
            )
            assert from_payload.sql == from_request.sql
            body = from_payload.to_payload()
        assert body["count"] >= 1
        assert len(body["results"]) == 1
        assert body["provenance"]["backend"] == "Pipeline+"
        assert body["provenance"]["dataset"] == "mini"
        assert set(body["timings_ms"]) >= {"parse", "translate", "total"}

    def test_unparseable_nlq_raises_serving_error(self):
        with mini_engine() as engine:
            with pytest.raises(ServingError, match="could not parse"):
                engine.translate("xyzzy gibberish")

    def test_translate_batch_matches_singles(self):
        requests = [
            KEYWORDS,
            "return the papers after 2000",
            [Keyword("journals", KeywordMetadata(FragmentContext.SELECT))],
        ]
        with mini_engine() as engine:
            singles = [engine.translate(r).sql for r in requests]
            batch = engine.translate_batch(requests)
            assert [r.sql for r in batch] == singles
            # Each batch response carries its own request's timings.
            for response in batch:
                assert set(response.timings_ms) == {
                    "parse", "translate", "total"
                }

    def test_explain_decomposes_top_configuration(self):
        with mini_engine() as engine:
            rendered = engine.explain(KEYWORDS).render()
        assert "Score_σ" in rendered

    def test_explain_never_observes(self):
        """explain is a pure diagnostic: observe flags are ignored."""
        with mini_engine() as engine:
            engine.explain(TranslationRequest(keywords=KEYWORDS, observe=True))
            assert engine.service.pending_observations == 0

    def test_nlq_backend_keeps_its_own_parser(self):
        config = EngineConfig(dataset="mini", backend="nalir")
        with Engine.from_config(config, dataset=mini_dataset()) as engine:
            assert engine.parser is engine.nlidb.parser

    def test_observe_and_absorb_grow_the_qfg(self):
        with mini_engine() as engine:
            before = engine.templar.qfg.total_queries
            engine.observe(
                "SELECT p.title FROM publication p WHERE p.year > 1999"
            )
            assert engine.absorb_pending() == 1
            assert engine.templar.qfg.total_queries == before + 1

    def test_baseline_backend_has_no_templar(self):
        config = EngineConfig(dataset="mini", backend="pipeline")
        engine = Engine.from_config(config, dataset=mini_dataset())
        with engine:
            assert engine.templar is None
            assert engine.translate(KEYWORDS).results

    def test_observe_without_templar_rejected_before_translating(self):
        config = EngineConfig(dataset="mini", backend="pipeline")
        with Engine.from_config(config, dataset=mini_dataset()) as engine:
            with pytest.raises(ServingError, match="Templar"):
                engine.translate(KEYWORDS, observe=True)
            with pytest.raises(ServingError, match="Templar"):
                engine.translate_batch(
                    [TranslationRequest(keywords=KEYWORDS, observe=True)]
                )
            # The check fires before any translation work is paid for.
            assert "requests" not in engine.service.metrics.snapshot().get(
                "counters", {}
            )

    def test_fingerprint_stable_across_config_round_trip(self):
        a = mini_engine()
        b = Engine.from_config(
            EngineConfig.from_dict(a.config.to_dict()),
            dataset=mini_dataset(), query_log=build_mini_log(),
        )
        with a, b:
            assert a.fingerprint() == b.fingerprint()

    def test_stats_carry_engine_provenance(self):
        with mini_engine() as engine:
            stats = engine.stats()
        assert stats["engine"]["backend"] == "Pipeline+"
        assert "config_fingerprint" in stats["engine"]


class TestEngineArtifacts:
    def test_artifact_source_serves_compiled_state(self, tmp_path,
                                                   mas_dataset):
        from repro.serving import ArtifactStore

        artifacts = ArtifactStore(tmp_path).compile(mas_dataset)
        config = EngineConfig(
            dataset="mas", log_source="artifacts", artifacts=str(tmp_path)
        )
        with Engine.from_config(config) as engine:
            assert engine.artifact_version == artifacts.version
            assert engine.templar.qfg.fingerprint() == \
                artifacts.qfg.fingerprint()
            response = engine.translate(
                "return the papers after 2000", limit=1
            )
            assert response.sql is not None
            assert response.to_payload()["provenance"]["artifact_version"] \
                == artifacts.version

    def test_query_log_override_conflicts_with_concrete_sources(
        self, tmp_path
    ):
        config = EngineConfig(
            dataset="mini", log_source="artifacts", artifacts=str(tmp_path)
        )
        with pytest.raises(ConfigError, match="artifacts"):
            Engine.from_config(
                config, dataset=mini_dataset(), query_log=build_mini_log()
            )
        config = EngineConfig(
            dataset="mini", log_source="file",
            log_path=str(tmp_path / "prod.sql"),
        )
        with pytest.raises(ConfigError, match="file"):
            Engine.from_config(
                config, dataset=mini_dataset(), query_log=build_mini_log()
            )

    def test_baseline_backend_rejects_explicit_log_state(self, tmp_path):
        """Requested log state must fail loudly, never be silently dropped."""
        config = EngineConfig(
            dataset="mini", backend="pipeline",
            log_source="artifacts", artifacts=str(tmp_path),
        )
        with pytest.raises(ConfigError, match="not log-augmented"):
            Engine.from_config(config, dataset=mini_dataset())
        config = EngineConfig(
            dataset="mini", backend="pipeline",
            log_source="file", log_path=str(tmp_path / "log.sql"),
        )
        with pytest.raises(ConfigError, match="not log-augmented"):
            Engine.from_config(config, dataset=mini_dataset())
        with pytest.raises(ConfigError, match="query_log"):
            Engine.from_config(
                EngineConfig(dataset="mini", backend="pipeline"),
                dataset=mini_dataset(), query_log=build_mini_log(),
            )

    def test_artifact_obscurity_mismatch_rejected(self, tmp_path,
                                                  mas_dataset):
        from repro.serving import ArtifactStore

        ArtifactStore(tmp_path).compile(mas_dataset)  # NoConstOp
        config = EngineConfig(
            dataset="mas", log_source="artifacts", artifacts=str(tmp_path),
            obscurity="Full",
        )
        with pytest.raises(ConfigError, match="obscurity"):
            Engine.from_config(config)

    def test_log_file_source(self, tmp_path):
        log_file = tmp_path / "log.sql"
        log_file.write_text(
            "\n".join(build_mini_log().queries) + "\n"
        )
        config = EngineConfig(
            dataset="mini", log_source="file", log_path=str(log_file)
        )
        with Engine.from_config(config, dataset=mini_dataset()) as engine:
            assert engine.templar.qfg.total_queries == len(build_mini_log())


class TestStrictWireCodec:
    def test_unknown_request_field_rejected(self):
        with pytest.raises(ServingError, match="unknown request field"):
            TranslationRequest.from_payload(
                {"nlq": "x", "observ": True}
            )

    def test_unknown_keyword_field_rejected(self):
        with pytest.raises(ServingError, match="unknown keyword field"):
            keyword_from_dict({"text": "papers", "contxt": "SELECT"})

    def test_both_nlq_and_keywords_rejected(self):
        with pytest.raises(ServingError):
            TranslationRequest.from_payload({
                "nlq": "x",
                "keywords": [{"text": "papers"}],
            })

    def test_neither_nlq_nor_keywords_rejected(self):
        with pytest.raises(ServingError, match="keywords"):
            TranslationRequest.from_payload({})

    def test_request_payload_round_trip(self):
        request = TranslationRequest(
            keywords=KEYWORDS, limit=2, observe=True
        )
        again = TranslationRequest.from_payload(request.to_payload())
        assert again == request


class TestHTTPFromEngine:
    def test_server_built_from_engine(self):
        # `repro serve`'s shape with an engine the dataset registry does
        # not know: the factory supplies it, /translate aliases it.
        config = one_tenant_config(EngineConfig(
            dataset="mini", backend="pipeline+", log_source="none"
        ))
        with serve_gateway(
            config, engine_factories={"mini": mini_engine}
        ) as server:
            port = server.server_address[1]
            body = json.dumps(
                {"nlq": "return the papers after 2000", "limit": 1}
            ).encode("utf-8")
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/translate", data=body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request) as response:
                payload = json.loads(response.read())
            assert payload["count"] >= 1
            assert payload["provenance"]["backend"] == "Pipeline+"
            assert payload["provenance"]["tenant"] == "mini"
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/t/mini/stats"
            ) as response:
                stats = json.loads(response.read())
            assert stats["engine"]["engine"]["dataset"] == "mini"


class TestCLIEntryPoint:
    def test_version_flag(self, capsys):
        from repro import __version__
        from repro.cli import main

        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_repro_error_exits_2_uniformly(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["serve", "--dataset", "mas",
                     "--artifacts", str(tmp_path / "void"), "--port", "0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_translate_backend_flag(self, capsys):
        from repro.cli import main

        code = main(["translate", "--dataset", "mas", "--backend", "pipeline",
                     "--nlq", "return the papers after 2005"])
        assert code == 0
        assert "SQL: SELECT" in capsys.readouterr().out

    def test_workers_flag_is_deprecated(self, tmp_path, capsys):
        """``--workers`` still parses, warns and changes nothing; the
        missing artifact store then stops the server before it binds."""
        from repro.cli import main

        code = main(["serve", "--dataset", "mas", "--workers", "0",
                     "--artifacts", str(tmp_path / "void"), "--port", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--workers is deprecated and ignored" in err
        assert "error:" in err

    def test_misconfigured_learn_batch_exits_2(self, capsys):
        """Construction-time ServingError is operational: exit 2, not 1."""
        from repro.cli import main

        code = main(["serve", "--dataset", "mas", "--learn-batch", "5000",
                     "--port", "0"])
        assert code == 2
        assert "learn_batch_size" in capsys.readouterr().err

    def test_baseline_backend_with_artifacts_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["serve", "--dataset", "mas", "--backend", "pipeline",
                     "--artifacts", str(tmp_path), "--port", "0"])
        assert code == 2
        assert "not log-augmented" in capsys.readouterr().err
