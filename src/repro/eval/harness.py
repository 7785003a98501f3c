"""Cross-validated evaluation of the registered systems (Section VII).

For each of the 4 trials, the SQL query log is the *gold SQL of the three
training folds* — exactly the paper's setup — and the held-out fold is
translated.  Results aggregate across trials.

Systems are resolved through :mod:`repro.nlidb.registry`, so any backend
registered there — including ones added outside this repo — is evaluable
by name; ``SYSTEM_NAMES`` is derived from the registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.fragments import Obscurity
from repro.core.keyword_mapper import ScoringParams
from repro.core.log import QueryLog
from repro.datasets.base import BenchmarkDataset
from repro.errors import ReproError
from repro.eval.folds import split_folds, train_test_split
from repro.eval.metrics import fq_correct, kw_correct
from repro.nlidb.registry import (
    BackendSpec,
    display_names,
    get_backend,
)

#: Display names of every registered system — ("NaLIR", "NaLIR+",
#: "Pipeline", "Pipeline+") for the paper's four, plus any plugins
#: registered before this module is imported.
SYSTEM_NAMES = display_names()


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation parameters; defaults mirror the paper's headline setup."""

    kappa: int = 5
    lam: float = 0.8
    obscurity: Obscurity = Obscurity.NO_CONST_OP
    use_log_keywords: bool = True
    use_log_joins: bool = True
    folds: int = 4
    fold_seed: int = 17
    max_configurations: int = 10

    def scoring_params(self) -> ScoringParams:
        return ScoringParams(kappa=self.kappa, lam=self.lam)


@dataclass
class ItemOutcome:
    item_id: str
    family: str
    kw: bool
    fq: bool
    top_sql: str | None


@dataclass
class SystemResult:
    """Aggregated accuracy of one system on one dataset."""

    system: str
    dataset: str
    outcomes: list[ItemOutcome] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def kw_accuracy(self) -> float:
        return sum(o.kw for o in self.outcomes) / self.total if self.total else 0.0

    @property
    def fq_accuracy(self) -> float:
        return sum(o.fq for o in self.outcomes) / self.total if self.total else 0.0

    def failures(self, metric: str = "fq") -> list[ItemOutcome]:
        return [
            o for o in self.outcomes if not (o.kw if metric == "kw" else o.fq)
        ]

    def family_breakdown(self, metric: str = "fq") -> dict[str, tuple[int, int]]:
        """family -> (correct, total), for error analysis."""
        breakdown: dict[str, list[int]] = {}
        for outcome in self.outcomes:
            entry = breakdown.setdefault(outcome.family, [0, 0])
            entry[1] += 1
            entry[0] += int(outcome.kw if metric == "kw" else outcome.fq)
        return {k: (v[0], v[1]) for k, v in sorted(breakdown.items())}


def _engine_config(spec: BackendSpec, dataset_name: str, config: EvalConfig):
    """The declarative engine description for one evaluation trial."""
    from repro.api.config import EngineConfig

    return EngineConfig(
        dataset=dataset_name,
        backend=spec.name,
        # The fold log is injected explicitly per trial.
        log_source="none",
        obscurity=config.obscurity.value,
        kappa=config.kappa,
        lam=config.lam,
        use_log_keywords=config.use_log_keywords,
        use_log_joins=config.use_log_joins,
        max_configurations=config.max_configurations,
        # The paper-faithful protocol keeps the parser's documented
        # failure modes, translates one item at a time, and never learns
        # from its own output mid-trial.
        simulate_parse_failures=True,
    )


def _trial_engine(
    spec: BackendSpec,
    dataset: BenchmarkDataset,
    log: QueryLog,
    config: EvalConfig,
):
    """One assembled engine for a trial — the same path every frontend uses."""
    from repro.api.engine import Engine

    return Engine.from_config(
        _engine_config(spec, dataset.name, config),
        dataset=dataset,
        query_log=log if spec.augmented else None,
    )


def evaluate_system(
    dataset: BenchmarkDataset,
    system_name: str,
    config: EvalConfig | None = None,
) -> SystemResult:
    """Run the full 4-fold cross-validated evaluation of one system.

    ``system_name`` is resolved through the backend registry (canonical
    or display name, case-insensitive); each trial's system is assembled
    by ``Engine.from_config`` — the same construction path the CLI, HTTP
    endpoint and examples use.  NLQ-parsing backends receive the raw NLQ
    (routed through the engine's failure-faithful parser); the others
    receive the hand-parsed keywords.
    """
    config = config or EvalConfig()
    spec = get_backend(system_name)
    items = dataset.usable_items()
    folds = split_folds(items, config.folds, config.fold_seed)
    result = SystemResult(system=spec.display_name, dataset=dataset.name)
    catalog = dataset.database.catalog

    for trial in range(config.folds):
        train, test = train_test_split(folds, trial)
        log = QueryLog([item.gold_sql for item in train])
        with _trial_engine(spec, dataset, log, config) as engine:
            for item in test:
                request = item.nlq if spec.parses_nlq else item.keywords
                try:
                    results = engine.translate(request).results
                except ReproError:
                    results = []
                outcome = ItemOutcome(
                    item_id=item.item_id,
                    family=item.family,
                    kw=kw_correct(item, results, catalog),
                    fq=fq_correct(item, results, catalog),
                    top_sql=results[0].sql if results else None,
                )
                result.outcomes.append(outcome)
    return result
