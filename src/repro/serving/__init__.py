"""Production serving layer: artifacts, caching service, telemetry, HTTP.

The research pipeline rebuilds its state from the raw query log on every
run; this package is what turns the reproduction into something that can
sit behind traffic:

* :mod:`repro.serving.artifacts` — compile a dataset + query log into
  versioned on-disk artifacts (QFG tables, lexicon, catalog, schema
  graph) and load them back with integrity checks, so startup is a
  deserialize instead of a rebuild.
* :mod:`repro.serving.service` — :class:`TranslationService`: LRU-cached
  join paths and whole translations (each miss computed once, however
  many threads ask), and online QFG ingestion of served queries.
* :mod:`repro.serving.cache` / :mod:`repro.serving.telemetry` — the
  thread-safe LRU cache and the latency/QPS/counter registry behind it.
* :mod:`repro.serving.http_common` — request decoding and the uniform
  error envelope behind the HTTP surface (:mod:`repro.gateway.http`,
  which ``repro serve`` runs as a one-tenant gateway).
"""

from repro.serving.artifacts import (
    ArtifactStore,
    ServingArtifacts,
    catalog_from_dict,
    catalog_to_dict,
    join_graph_from_dict,
    join_graph_to_dict,
)
from repro.serving.cache import CacheStats, LRUCache
from repro.serving.http_common import error_envelope
from repro.serving.service import (
    CachingJoinPathGenerator,
    TranslationService,
    resolve_request_keywords,
    translate_request,
)
from repro.serving.telemetry import LatencySummary, MetricsRegistry, percentile
from repro.serving.wire import TranslationRequest, TranslationResponse

__all__ = [
    "ArtifactStore",
    "CacheStats",
    "CachingJoinPathGenerator",
    "LRUCache",
    "LatencySummary",
    "MetricsRegistry",
    "ServingArtifacts",
    "TranslationRequest",
    "TranslationResponse",
    "TranslationService",
    "catalog_from_dict",
    "catalog_to_dict",
    "error_envelope",
    "join_graph_from_dict",
    "join_graph_to_dict",
    "percentile",
    "resolve_request_keywords",
    "translate_request",
]
