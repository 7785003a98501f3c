"""Production serving layer: artifacts, caches, telemetry, wire, HTTP.

The research pipeline rebuilds its state from the raw query log on every
run; this package is what turns the reproduction into something that can
sit behind traffic:

* :mod:`repro.serving.artifacts` — compile a dataset + query log into
  versioned on-disk artifacts (QFG tables, lexicon, catalog, schema
  graph) and load them back with integrity checks, so startup is a
  deserialize instead of a rebuild.
* :mod:`repro.serving.cache` / :mod:`repro.serving.telemetry` — the
  thread-safe, single-flight LRU cache (plus the join-path memoizer
  built on it) and the latency/QPS/counter registry that
  :class:`~repro.api.Engine` serves through.
* :mod:`repro.serving.wire` — the request/response pair every frontend
  speaks.
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
from repro.serving.cache import CacheStats, CachingJoinPathGenerator, LRUCache
from repro.serving.http_common import error_envelope
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
    "catalog_from_dict",
    "catalog_to_dict",
    "error_envelope",
    "join_graph_from_dict",
    "join_graph_to_dict",
    "percentile",
]
