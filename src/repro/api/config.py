"""Declarative engine configuration: one serializable object per deployment.

:class:`EngineConfig` captures everything :class:`~repro.api.engine.Engine`
needs to assemble a translation stack — dataset, backend, query-log
source, similarity/scoring knobs, serving cache sizes — as a frozen,
JSON-round-trippable dataclass.  Every frontend (CLI, HTTP server, eval
harness, examples) describes *what* to run with one of these instead of
hand-wiring constructors.

The codec is strict: :meth:`EngineConfig.from_dict` rejects unknown keys
with a :class:`~repro.errors.ConfigError`, so a typo in a config file
fails loudly instead of silently running defaults.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from repro.core.fragments import Obscurity
from repro.core.keyword_mapper import ScoringParams
from repro.errors import ConfigError
from repro.obs.slo import SLOPolicy

#: Where the query log that feeds the QFG comes from.
#:
#: * ``"dataset"`` — the gold SQL of the dataset's usable items (the
#:   paper's log source),
#: * ``"file"`` — a SQL log file at :attr:`EngineConfig.log_path` (messy
#:   real-world formats handled by the ingest reader),
#: * ``"artifacts"`` — a compiled version in the artifact store at
#:   :attr:`EngineConfig.artifacts` (startup is a verified load, not a
#:   rebuild; ``repro warmup`` / ``repro ingest`` publish these),
#: * ``"none"`` — start with an empty log (online learning only).
LOG_SOURCES = ("dataset", "file", "artifacts", "none")


@dataclass(frozen=True)
class EngineConfig:
    """Everything needed to build an :class:`~repro.api.engine.Engine`.

    >>> config = EngineConfig(dataset="mas", backend="pipeline+", kappa=3)
    >>> config.dataset, config.backend, config.kappa
    ('mas', 'pipeline+', 3)
    >>> EngineConfig(log_source="nowhere")
    Traceback (most recent call last):
        ...
    repro.errors.ConfigError: unknown log_source 'nowhere'; one of: dataset, file, artifacts, none
    """

    # What to serve.
    dataset: str = "mas"
    backend: str = "pipeline+"

    # Where the query log comes from (see LOG_SOURCES).
    log_source: str = "dataset"
    log_path: str | None = None
    artifacts: str | None = None
    artifact_version: str | None = None

    # Templar / scoring knobs (paper defaults).
    obscurity: str = Obscurity.NO_CONST_OP.value
    kappa: int = 5
    lam: float = 0.8
    use_log_keywords: bool = True
    use_log_joins: bool = True
    max_configurations: int = 10

    # Serving knobs.
    cache_size: int = 2048
    learn_batch_size: int | None = None

    # Observability knobs: request tracing (tail-sampled span trees,
    # ``trace_keep`` slowest requests retained) and the slow-query log
    # threshold in milliseconds (None disables the log).
    tracing: bool = True
    trace_keep: int = 64
    slow_query_ms: float | None = None

    # Durable request journal (repro.obs.journal): JSONL segments under
    # ``journal_dir`` (None disables journaling), rotated at
    # ``journal_segment_bytes`` with the oldest deleted beyond
    # ``journal_segments``.
    journal_dir: str | None = None
    journal_segment_bytes: int = 1_000_000
    journal_segments: int = 8

    # Persistent control plane (repro.controlplane): one WAL-mode SQLite
    # file shared by every replica serving this config (None disables
    # it).  The three surfaces toggle independently: the durable
    # translation cache, idempotency keys (with request-hash fallback
    # for observe requests), and the user-feedback loop.
    control_plane_path: str | None = None
    control_plane_cache: bool = True
    control_plane_idempotency: bool = True
    control_plane_feedback: bool = True
    idempotency_ttl_seconds: float = 3600.0

    # Judgment layer (repro.obs.slo / repro.obs.drift): declarative
    # service-level objectives evaluated over the metrics registry with
    # multi-window burn-rate alerting (None = no SLOs declared), and the
    # quality-drift detection threshold — the total-variation shift in
    # ranking behaviour that flags a tick (None disables the monitor).
    slo: SLOPolicy | None = None
    drift_threshold: float | None = None

    # NLQ front-end: the harness keeps the paper-faithful failure modes,
    # end-user frontends use the best-effort parse.
    simulate_parse_failures: bool = False

    def __post_init__(self) -> None:
        if self.log_source not in LOG_SOURCES:
            raise ConfigError(
                f"unknown log_source {self.log_source!r}; "
                f"one of: {', '.join(LOG_SOURCES)}"
            )
        if self.log_source == "file" and not self.log_path:
            raise ConfigError("log_source 'file' requires log_path")
        if self.log_path is not None and self.log_source != "file":
            # A set-but-unused field would silently train on the wrong log.
            raise ConfigError(
                f"log_path is only used with log_source 'file' "
                f"(got log_source {self.log_source!r})"
            )
        if self.log_source == "artifacts" and not self.artifacts:
            raise ConfigError(
                "log_source 'artifacts' requires the artifacts store root"
            )
        if self.artifacts is not None and self.log_source != "artifacts":
            raise ConfigError(
                f"artifacts is only used with log_source 'artifacts' "
                f"(got log_source {self.log_source!r})"
            )
        if self.artifact_version is not None and not self.artifacts:
            raise ConfigError(
                "artifact_version pins a store version and requires artifacts"
            )
        try:
            Obscurity(self.obscurity)
        except ValueError:
            valid = ", ".join(o.value for o in Obscurity)
            raise ConfigError(
                f"unknown obscurity {self.obscurity!r}; one of: {valid}"
            ) from None
        if self.kappa < 1:
            raise ConfigError(f"kappa must be >= 1, got {self.kappa}")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lam must be in [0, 1], got {self.lam}")
        if self.max_configurations < 1:
            raise ConfigError(
                f"max_configurations must be >= 1, got {self.max_configurations}"
            )
        if self.cache_size < 0:
            raise ConfigError(
                f"cache_size must be >= 0 (0 disables caching), "
                f"got {self.cache_size}"
            )
        if self.trace_keep < 1:
            raise ConfigError(f"trace_keep must be >= 1, got {self.trace_keep}")
        if self.slow_query_ms is not None and self.slow_query_ms <= 0:
            raise ConfigError(
                f"slow_query_ms must be positive, got {self.slow_query_ms}"
            )
        if self.journal_segment_bytes < 256:
            raise ConfigError(
                f"journal_segment_bytes must be >= 256, "
                f"got {self.journal_segment_bytes}"
            )
        if self.journal_segments < 1:
            raise ConfigError(
                f"journal_segments must be >= 1, got {self.journal_segments}"
            )
        if self.idempotency_ttl_seconds <= 0:
            raise ConfigError(
                f"idempotency_ttl_seconds must be positive, "
                f"got {self.idempotency_ttl_seconds}"
            )
        if self.slo is not None and not isinstance(self.slo, SLOPolicy):
            raise ConfigError(
                f"slo must be an SLOPolicy (or a dict via from_dict), "
                f"got {type(self.slo).__name__}"
            )
        if self.drift_threshold is not None and not (
            0.0 < self.drift_threshold <= 1.0
        ):
            raise ConfigError(
                f"drift_threshold must be in (0, 1], "
                f"got {self.drift_threshold}"
            )

    # ------------------------------------------------------------ resolved

    def obscurity_level(self) -> Obscurity:
        """The configured obscurity as its enum.

        >>> EngineConfig().obscurity_level()
        <Obscurity.NO_CONST_OP: 'NoConstOp'>
        """
        return Obscurity(self.obscurity)

    def scoring_params(self) -> ScoringParams:
        """The mapper's :class:`ScoringParams` for this config.

        >>> params = EngineConfig(kappa=3, lam=0.5).scoring_params()
        >>> params.kappa, params.lam
        (3, 0.5)
        """
        return ScoringParams(kappa=self.kappa, lam=self.lam)

    # --------------------------------------------------------------- codec

    def to_dict(self) -> dict:
        """JSON-ready dict; ``from_dict(to_dict())`` is the identity.

        >>> config = EngineConfig(dataset="yelp", kappa=7)
        >>> EngineConfig.from_dict(config.to_dict()) == config
        True
        >>> policy = SLOPolicy(latency_p99_ms=50.0)
        >>> config = EngineConfig(slo=policy)
        >>> EngineConfig.from_dict(config.to_dict()).slo == policy
        True
        """
        payload = asdict(self)
        if self.slo is not None:
            payload["slo"] = self.slo.to_dict()
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "EngineConfig":
        """Strict decode: unknown keys raise :class:`ConfigError`.

        ``max_workers`` (the retired translation thread-pool width) is
        dropped with a :class:`DeprecationWarning` so saved configs load.

        >>> EngineConfig.from_dict({"dataset": "mas", "capa": 5})
        Traceback (most recent call last):
            ...
        repro.errors.ConfigError: unknown engine config field(s): capa; allowed: artifact_version, artifacts, backend, cache_size, control_plane_cache, control_plane_feedback, control_plane_idempotency, control_plane_path, dataset, drift_threshold, idempotency_ttl_seconds, journal_dir, journal_segment_bytes, journal_segments, kappa, lam, learn_batch_size, log_path, log_source, max_configurations, obscurity, simulate_parse_failures, slo, slow_query_ms, trace_keep, tracing, use_log_joins, use_log_keywords
        """
        if not isinstance(data, dict):
            raise ConfigError(
                f"engine config must be an object, got {type(data).__name__}"
            )
        if "max_workers" in data:
            warnings.warn(
                "engine config field 'max_workers' is ignored (translation "
                "runs on the calling thread) and will be rejected in the "
                "next version",
                DeprecationWarning,
                stacklevel=2,
            )
            data = {k: v for k, v in data.items() if k != "max_workers"}
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                f"unknown engine config field(s): {', '.join(unknown)}; "
                f"allowed: {', '.join(sorted(known))}"
            )
        if isinstance(data.get("slo"), dict):
            data = dict(data)
            data["slo"] = SLOPolicy.from_dict(data["slo"])
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(f"invalid engine config: {exc}") from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "EngineConfig":
        """Load a JSON config file.

        >>> import tempfile
        >>> with tempfile.TemporaryDirectory() as root:
        ...     saved = EngineConfig(dataset="imdb").save(root + "/e.json")
        ...     EngineConfig.from_file(saved).dataset
        'imdb'
        """
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read engine config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"engine config {path} is not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(data)

    def save(self, path: str | Path) -> Path:
        """Write the config as JSON; the file round-trips via from_file."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=1, sort_keys=True))
        return path

    def fingerprint(self) -> str:
        """Stable content hash of the configuration.

        >>> EngineConfig().fingerprint() == EngineConfig().fingerprint()
        True
        >>> EngineConfig().fingerprint() == EngineConfig(kappa=9).fingerprint()
        False
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
