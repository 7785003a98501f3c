"""Backend registry: registration, dispatch, and eval-harness parity."""

from __future__ import annotations

import pytest

from repro.core import QueryLog, Templar
from repro.core.keyword_mapper import ScoringParams
from repro.embedding import CompositeModel, LexiconModel
from repro.errors import ReproError
from repro.eval import EvalConfig, evaluate_system
from repro.eval.folds import split_folds, train_test_split
from repro.eval.harness import SYSTEM_NAMES
from repro.nlidb import NalirNLIDB, NalirParser, PipelineNLIDB
from repro.nlidb.registry import (
    backend_names,
    build_backend,
    display_names,
    get_backend,
    register,
    unregister,
)


class TestRegistryBasics:
    def test_builtin_backends_registered(self):
        assert set(backend_names()) >= {
            "pipeline", "pipeline+", "nalir", "nalir+"
        }

    def test_system_names_preserved(self):
        """The paper's four display names survive the registry redesign."""
        assert set(SYSTEM_NAMES) >= {"NaLIR", "NaLIR+", "Pipeline", "Pipeline+"}
        assert SYSTEM_NAMES == display_names()

    def test_lookup_is_case_insensitive(self):
        assert get_backend("Pipeline+").name == "pipeline+"
        assert get_backend("NALIR").name == "nalir"
        assert get_backend(" pipeline ").name == "pipeline"

    def test_unknown_backend_lists_registered_names(self):
        with pytest.raises(ReproError, match="pipeline"):
            get_backend("sqlova")

    def test_spec_flags(self):
        assert get_backend("pipeline+").augmented
        assert not get_backend("pipeline").augmented
        assert get_backend("nalir").parses_nlq
        assert not get_backend("pipeline").parses_nlq

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ReproError, match="already registered"):
            register("pipeline")(lambda *a, **k: None)

    def test_register_and_unregister_custom_backend(self, mini_db):
        @register("echo", display_name="Echo")
        def _build_echo(dataset, templar, **kwargs):
            return PipelineNLIDB(
                dataset.database, CompositeModel(dataset.lexicon), None
            )

        try:
            assert get_backend("echo").display_name == "Echo"
            assert "echo" in backend_names()
        finally:
            unregister("echo")
        with pytest.raises(ReproError):
            get_backend("echo")
        with pytest.raises(ReproError, match="unknown"):
            unregister("echo")

    def test_display_name_alias_resolves(self):
        """A backend resolves by the exact name SYSTEM_NAMES advertises."""

        @register("mysys+", display_name="MySys Plus", augmented=True)
        def _build_mysys(dataset, templar, **kwargs):
            raise NotImplementedError

        try:
            assert get_backend("MySys Plus").name == "mysys+"
            assert get_backend("mysys plus").name == "mysys+"
            assert get_backend("mysys+").name == "mysys+"
            with pytest.raises(ReproError, match="collides|already"):
                register("other", display_name="MySys Plus")(
                    lambda *a, **k: None
                )
        finally:
            unregister("MySys Plus")  # unregister by display name too
        with pytest.raises(ReproError):
            get_backend("mysys+")
        with pytest.raises(ReproError):
            get_backend("MySys Plus")


class TestBuildContract:
    def test_augmented_backend_requires_templar(self, mas_dataset):
        with pytest.raises(ReproError, match="needs a Templar"):
            build_backend("pipeline+", mas_dataset, None)

    def test_baseline_backend_rejects_templar(self, mini_db, mini_model,
                                              mini_log, mas_dataset):
        templar = Templar(mas_dataset.database,
                          CompositeModel(mas_dataset.lexicon), None)
        with pytest.raises(ReproError, match="does not consume"):
            build_backend("pipeline", mas_dataset, templar)

    def test_builds_the_right_types(self, mas_dataset):
        assert isinstance(
            build_backend("pipeline", mas_dataset), PipelineNLIDB
        )
        nalir = build_backend("nalir", mas_dataset)
        assert isinstance(nalir, NalirNLIDB)
        assert nalir.name == "NaLIR"


def _legacy_build_system(name, dataset, log, config):
    """The pre-registry hard-coded dispatch, verbatim, as the parity oracle."""
    database = dataset.database
    composite = CompositeModel(dataset.lexicon)
    if name == "Pipeline":
        return PipelineNLIDB(
            database, composite, None,
            max_configurations=config.max_configurations,
            params=config.scoring_params(),
        )
    if name == "Pipeline+":
        templar = Templar(
            database, composite, log,
            obscurity=config.obscurity,
            params=config.scoring_params(),
            use_log_keywords=config.use_log_keywords,
            use_log_joins=config.use_log_joins,
        )
        return PipelineNLIDB(
            database, composite, templar,
            max_configurations=config.max_configurations,
        )
    parser = NalirParser(database, dataset.schema_terms)
    wordnet_like = LexiconModel(dataset.nalir_model_lexicon())
    if name == "NaLIR":
        return NalirNLIDB(
            database, wordnet_like, parser, None,
            max_configurations=config.max_configurations,
            params=config.scoring_params(),
        )
    templar = Templar(
        database, composite, log,
        obscurity=config.obscurity,
        params=config.scoring_params(),
        use_log_keywords=config.use_log_keywords,
        use_log_joins=config.use_log_joins,
    )
    return NalirNLIDB(
        database, wordnet_like, parser, templar,
        max_configurations=config.max_configurations,
    )


def _legacy_evaluate(dataset, name, config):
    """The pre-registry evaluation loop over the legacy system builder."""
    from repro.eval.metrics import fq_correct, kw_correct

    items = dataset.usable_items()
    folds = split_folds(items, config.folds, config.fold_seed)
    catalog = dataset.database.catalog
    outcomes = []
    for trial in range(config.folds):
        train, test = train_test_split(folds, trial)
        log = QueryLog([item.gold_sql for item in train])
        system = _legacy_build_system(name, dataset, log, config)
        for item in test:
            try:
                if isinstance(system, NalirNLIDB):
                    results = system.translate_nlq(item.nlq)
                else:
                    results = system.translate(item.keywords)
            except ReproError:
                results = []
            outcomes.append((
                item.item_id,
                kw_correct(item, results, catalog),
                fq_correct(item, results, catalog),
                results[0].sql if results else None,
            ))
    return outcomes


class TestEvalParity:
    """Registry-driven evaluation must reproduce the old path exactly."""

    @pytest.mark.parametrize("system", ["Pipeline+", "NaLIR"])
    def test_registry_run_matches_legacy_numbers(self, yelp_dataset, system):
        config = EvalConfig()
        expected = _legacy_evaluate(yelp_dataset, system, config)
        result = evaluate_system(yelp_dataset, system, config)
        actual = [
            (o.item_id, o.kw, o.fq, o.top_sql) for o in result.outcomes
        ]
        assert actual == expected

    def test_canonical_name_matches_display_name(self, yelp_dataset):
        config = EvalConfig()
        by_display = evaluate_system(yelp_dataset, "Pipeline", config)
        by_canonical = evaluate_system(yelp_dataset, "pipeline", config)
        assert by_display.fq_accuracy == by_canonical.fq_accuracy
        assert by_display.kw_accuracy == by_canonical.kw_accuracy
        assert by_display.system == by_canonical.system == "Pipeline"


class TestDeprecatedShim:
    def test_evaluate_system_does_not_warn(self, yelp_dataset, recwarn):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            evaluate_system(
                yelp_dataset, "Pipeline", EvalConfig(folds=2)
            )
