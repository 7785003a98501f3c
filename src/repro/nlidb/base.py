"""Common NLIDB interface and result types."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property

from repro.core.interface import Configuration, Keyword
from repro.core.join_inference import JoinPath
from repro.sql.ast import Query
from repro.sql.writer import write_query


@dataclass(frozen=True)
class TranslationResult:
    """One ranked SQL translation of an NLQ.

    ``config_score`` ranks first, ``join_score`` second (a pipeline NLIDB
    decides keyword mappings before join paths); ``sql`` is the rendered
    statement, written once on first access and memoized on the instance
    (the frozen ``Query`` cannot change under it).  The memo is not a
    field: equality and pickles see the five fields only.
    """

    query: Query
    configuration: Configuration
    join_path: JoinPath
    config_score: float
    join_score: float

    @cached_property
    def sql(self) -> str:
        return write_query(self.query)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("sql", None)
        return state

    @property
    def rank_key(self) -> tuple[float, float]:
        """Sort key (descending on both components)."""
        return (self.config_score, self.join_score)

    def ties_with(self, other: "TranslationResult", tolerance: float = 1e-9) -> bool:
        """True when two results are indistinguishable by score."""
        return (
            abs(self.config_score - other.config_score) <= tolerance
            and abs(self.join_score - other.join_score) <= tolerance
        )

    def __str__(self) -> str:
        return f"[{self.config_score:.4f}/{self.join_score:.3f}] {self.sql}"


class NLIDB(ABC):
    """A system that translates keyword queries (or raw NLQs) to SQL."""

    name: str = "nlidb"

    @abstractmethod
    def translate(self, keywords: list[Keyword]) -> list[TranslationResult]:
        """Ranked SQL translations for parsed keywords (best first)."""
