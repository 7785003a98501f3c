"""Beam-search enumeration: exact equivalence with the full product.

``map_keywords(keywords, limit=k)`` must return bit-identical
configurations — same mappings, same scores, same tie-breaks — to the
first ``k`` entries of the full enumeration, for any κ/λ.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_mini_db, build_mini_lexicon, build_mini_log

from repro.core import FragmentContext, Keyword, KeywordMetadata
from repro.core.keyword_mapper import KeywordMapper, ScoringParams
from repro.db import Column, ColumnType, Database, TableSchema
from repro.embedding import CompositeModel

SELECT = FragmentContext.SELECT
WHERE = FragmentContext.WHERE
FROM = FragmentContext.FROM


def kw(text, context, op=None, aggregates=()):
    return Keyword(
        text,
        KeywordMetadata(context=context, comparison_op=op, aggregates=aggregates),
    )


#: Keyword pool mixing every Algorithm-2 branch (relations, attributes,
#: values, numerics, aggregates) over the mini database.
KEYWORD_POOL = (
    kw("papers", SELECT),
    kw("papers", FROM),
    kw("journal", SELECT),
    kw("authors", SELECT),
    kw("TKDE", WHERE),
    kw("John Smith", WHERE),
    kw("after 2000", WHERE, op=">"),
    kw("before 2006", WHERE, op="<"),
    kw("number of papers", SELECT, aggregates=("COUNT",)),
    kw("Scalable Query Processing", WHERE),
)

_DB = build_mini_db()
_MODEL = CompositeModel(build_mini_lexicon())
_QFG = build_mini_log().build_qfg(_DB.catalog)


def make_mapper(kappa, lam, with_log):
    # max_configurations high enough that the full-product reference never
    # degrades: the comparison is against the true, undegraded ranking.
    params = ScoringParams(
        kappa=kappa, lam=lam, max_configurations=10_000_000
    )
    return KeywordMapper(
        _DB, _MODEL, qfg=_QFG if with_log else None, params=params
    )


@settings(max_examples=50, deadline=None)
@given(
    indices=st.lists(
        st.integers(min_value=0, max_value=len(KEYWORD_POOL) - 1),
        min_size=1,
        max_size=3,
        unique=True,
    ),
    kappa=st.integers(min_value=1, max_value=8),
    lam=st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
    limit=st.integers(min_value=1, max_value=25),
    with_log=st.booleans(),
)
def test_beam_equals_product_prefix(indices, kappa, lam, limit, with_log):
    keywords = [KEYWORD_POOL[i] for i in indices]
    mapper = make_mapper(kappa, lam, with_log)
    full = mapper.map_keywords(keywords)
    beam = mapper.map_keywords(keywords, limit=limit)
    assert beam == full[:limit]
    # Bit-identical scores, not just approximately equal ranks.
    for got, expected in zip(beam, full):
        assert got.score == expected.score
        assert got.sigma_score == expected.sigma_score
        assert got.qfg_score == expected.qfg_score


def test_beam_zero_limit_is_empty():
    mapper = make_mapper(3, 0.8, True)
    assert mapper.map_keywords([kw("papers", SELECT)], limit=0) == []


def test_beam_exhausts_small_products():
    mapper = make_mapper(5, 0.8, True)
    keywords = [kw("papers", SELECT), kw("after 2000", WHERE, op=">")]
    full = mapper.map_keywords(keywords)
    assert mapper.map_keywords(keywords, limit=10_000) == full


def tie_flood_db(tables=3):
    """Every keyword 'gold' maps to ``tables`` exact-match candidates.

    Exact matches bypass the κ cut (they evict everything else), so
    repeating the keyword inflates the configuration product
    deterministically: ``tables ** n_keywords`` combinations.
    """
    db = Database("ties")
    for n in range(1, tables + 1):
        db.create_table(
            TableSchema(
                f"t{n}", [Column("val", ColumnType.TEXT, searchable=True)]
            )
        )
        db.insert(f"t{n}", ("gold",))
    return db


def test_product_truncation_reports_drop():
    """The max_configurations guard logs and surfaces the dropped count."""
    db = tie_flood_db(tables=3)
    params = ScoringParams(kappa=1, max_configurations=50)
    mapper = KeywordMapper(db, CompositeModel(), params=params)
    keywords = [kw("gold", WHERE)] * 4  # 3**4 = 81 > 50
    configs = mapper.map_keywords(keywords)
    assert configs
    # Degraded to kappa=1 per keyword: 1 combination kept, 80 dropped.
    assert len(configs) == 1
    assert mapper.take_truncation(keywords) == 80
    # Consuming the report resets it.
    assert mapper.take_truncation(keywords) == 0


def test_beam_path_reports_no_truncation(mini_db, mini_model):
    params = ScoringParams(kappa=2)
    mapper = KeywordMapper(mini_db, mini_model, params=params)
    keywords = [kw("papers", SELECT), kw("journal", SELECT)]
    assert mapper.map_keywords(keywords, limit=3)
    assert mapper.take_truncation(keywords) == 0


def test_truncation_surfaces_in_response_provenance():
    """A truncated request reports the drop through the serving layer."""
    from repro.serving.service import TranslationService, translate_request
    from repro.serving.wire import TranslationRequest

    db = tie_flood_db(tables=3)
    params = ScoringParams(kappa=1, max_configurations=50)
    mapper = KeywordMapper(db, CompositeModel(), params=params)

    class FullEnumerationNLIDB:
        """A custom backend that maps without a beam limit."""

        name = "full-enum"
        database = db
        _mapper = mapper

        def translate(self, keywords):
            self._mapper.map_keywords(list(keywords))
            return []

    service = TranslationService(FullEnumerationNLIDB())
    request = TranslationRequest(keywords=tuple([kw("gold", WHERE)] * 4))
    response = translate_request(service, request)
    assert response.provenance["configurations_truncated"] == 80
    # An untruncated request carries no marker.
    clean = translate_request(
        service, TranslationRequest(keywords=(kw("gold", WHERE),))
    )
    assert "configurations_truncated" not in clean.provenance
    service.close()


def test_cached_repeats_of_a_truncated_request_report_it():
    """The drop count rides the translate entry: hits report it too."""
    from types import SimpleNamespace

    from repro.serving.service import TranslationService, translate_request
    from repro.serving.wire import TranslationRequest

    db = tie_flood_db(tables=3)
    params = ScoringParams(kappa=1, max_configurations=50)
    mapper = KeywordMapper(db, CompositeModel(), params=params)
    truncating = tuple([kw("gold", WHERE)] * 4)

    class FullEnumerationNLIDB:
        name = "full-enum"
        database = db
        _mapper = mapper

        def translate(self, keywords):
            self._mapper.map_keywords(list(keywords))
            return []

    class FixedParser:
        def parse(self, nlq):
            return SimpleNamespace(failed=False, keywords=list(truncating))

    service = TranslationService(FullEnumerationNLIDB())
    by_keywords = [
        translate_request(service, TranslationRequest(keywords=truncating))
        for _ in range(2)
    ]
    by_nlq = [
        translate_request(
            service, TranslationRequest(nlq="gold gold gold gold"),
            parser=FixedParser(),
        )
        for _ in range(2)
    ]
    for response in by_keywords + by_nlq:
        assert response.provenance["configurations_truncated"] == 80
    stats = service._translate_cache.stats()
    # One computation; the other three requests were cache hits.
    assert (stats.misses, stats.hits) == (1, 3)
    service.close()


def test_truncation_surfaces_in_batch_provenance():
    """Batched requests also carry configurations_truncated (per request)."""
    from repro.api import Engine, EngineConfig
    from repro.datasets.base import BenchmarkDataset
    from repro.embedding import Lexicon
    from repro.nlidb import registry

    db = tie_flood_db(tables=3)
    params = ScoringParams(kappa=1, max_configurations=50)
    mapper = KeywordMapper(db, CompositeModel(), params=params)

    class FullEnumerationNLIDB:
        name = "full-enum"
        database = db

        def __init__(self):
            self._mapper = mapper

        def translate(self, keywords):
            self._mapper.map_keywords(list(keywords))
            return []

    @registry.register("full-enum-batch")
    def _factory(dataset, templar, *, max_configurations, params,
                 simulate_parse_failures):
        return FullEnumerationNLIDB()

    try:
        dataset = BenchmarkDataset(
            name="ties", database=db, items=[], lexicon=Lexicon()
        )
        config = EngineConfig(dataset="mas", backend="full-enum-batch")
        with Engine.from_config(config, dataset=dataset) as engine:
            truncating = tuple([kw("gold", WHERE)] * 4)
            clean = (kw("gold", WHERE),)
            responses = engine.translate_batch([truncating, clean, truncating])
        assert responses[0].provenance["configurations_truncated"] == 80
        assert "configurations_truncated" not in responses[1].provenance
        # The duplicate of a truncated request reports the same drop.
        assert responses[2].provenance["configurations_truncated"] == 80
    finally:
        registry.unregister("full-enum-batch")


def test_truncation_warning_logged(caplog):
    db = tie_flood_db(tables=3)
    params = ScoringParams(kappa=1, max_configurations=50)
    mapper = KeywordMapper(db, CompositeModel(), params=params)
    with caplog.at_level("WARNING", logger="repro.core.keyword_mapper"):
        mapper.map_keywords([kw("gold", WHERE)] * 4)
    assert any(
        "max_configurations" in record.message for record in caplog.records
    )
