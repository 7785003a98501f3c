"""MAPKEYWORDS: Algorithms 1–3 plus configuration ranking (Section V).

The mapper turns keywords (with parser metadata) into ranked
configurations:

1. :meth:`KeywordMapper.keyword_candidates` (Algorithm 2) retrieves
   candidate fragments from the database — numeric attributes for
   number-bearing keywords, all relations for FROM-context keywords, all
   attributes for SELECT-context keywords, and full-text value matches
   otherwise.  Retrieval runs against a precomputed
   :class:`~repro.core.candidate_index.CandidateIndex` (sorted numeric
   postings, inverted token→value postings with stemmed keys, per-column
   schema stems), so no request rescans the catalog or the value space.
2. :meth:`KeywordMapper.score_and_prune` (Algorithm 3) scores each
   candidate with the similarity model (``simtext``/``simnum``) and keeps
   the top-κ (exact matches evict everything else).  Token-pair
   similarities are memoized across keywords and across requests.
3. :meth:`KeywordMapper.map_keywords` (Algorithm 1) combines candidates
   into configurations scored by
   ``Score(φ) = λ·Score_σ(φ) + (1-λ)·Score_QFG(φ)`` — the geometric-mean
   word-similarity score blended with the Dice-based log score.  With a
   ``limit``, enumeration is a best-first beam search over the per-keyword
   top-κ lists (admissible bound from per-keyword maximum scores): the
   top-``limit`` configurations are exact but the cross product is never
   materialized.  Without a ``limit`` the full ranked product is returned
   (the seed behaviour, still guarded by ``max_configurations``).
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
import re
from dataclasses import dataclass

from repro.core.candidate_index import CandidateIndex
from repro.core.fragments import FragmentContext, FragmentKind, QueryFragment
from repro.core.interface import (
    Configuration,
    Keyword,
    QueryFragmentMapping,
    keywords_cache_key,
)
from repro.core.qfg import QueryFragmentGraph
from repro.db.catalog import ColumnRefSpec
from repro.db.database import Database
from repro.db.stemmer import stem
from repro.embedding.model import SimilarityModel
from repro.embedding.tokenize import content_tokens, word_tokens
from repro.errors import MappingError
from repro.obs.trace import stage

logger = logging.getLogger(__name__)

_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?")

#: Comparative/temporal words that parsers fold into the operator ω; they
#: are stripped from numeric keywords before text scoring unless nothing
#: else remains (so "after 2000" still scores "after" against "year").
OPERATOR_WORDS = frozenset(
    {
        "more", "less", "than", "least", "most", "at", "over", "under",
        "after", "before", "between", "fewer", "greater", "above",
        "below", "exactly", "since", "about", "around",
    }
)

#: Cap on the memoized token-pair similarity and fragment-key tables; the
#: vocabulary of a benchmark database is far below this, so the caches are
#: effectively unbounded in practice while still safe against pathological
#: value churn.
_MEMO_LIMIT = 500_000


@dataclass(frozen=True)
class ScoringParams:
    """Tunable parameters of the mapper (paper defaults).

    ``max_configurations`` bounds the materialized configuration space on
    the full-enumeration path: when the per-keyword candidate product
    exceeds it, each keyword's list degrades to its top-κ (ties dropped),
    a warning is logged with the number of dropped combinations, and the
    drop count is surfaced through :meth:`KeywordMapper.take_truncation`
    (the serving layer records it in response provenance).  The beam path
    (``map_keywords(..., limit=n)``) never materializes the product, so
    the guard is unreachable there except as a safety cap on expansions.
    """

    kappa: int = 5              # top-κ candidates kept per keyword
    lam: float = 0.8            # λ weight of Score_σ vs Score_QFG
    exact_epsilon: float = 1e-3  # σ ≥ 1-ε counts as an exact match
    numeric_fallback: float = 1e-3  # ε returned by simnum on empty predicates
    dice_floor: float = 1e-4    # floor for unseen co-occurrences in Score_QFG
    empty_text_score: float = 0.5  # σ when a keyword has no scorable text
    tie_tolerance: float = 1e-9  # float tolerance for κ-th place ties
    max_configurations: int = 100_000

    def __post_init__(self) -> None:
        if self.kappa < 1:
            raise MappingError("kappa must be >= 1")
        if not 0.0 <= self.lam <= 1.0:
            raise MappingError("lambda must be in [0, 1]")


def extract_number(text: str) -> int | float | None:
    """First numeric token of ``text`` (int when integral), else None."""
    match = _NUMBER_RE.search(text)
    if match is None:
        return None
    raw = match.group(0)
    return float(raw) if "." in raw else int(raw)


def strip_number(text: str) -> str:
    """``text`` with the first numeric token removed."""
    return _NUMBER_RE.sub(" ", text, count=1).strip()


class KeywordMapper:
    """Executes MAPKEYWORDS against one database.

    ``candidate_index`` injects a prebuilt (possibly deserialized)
    :class:`~repro.core.candidate_index.CandidateIndex`; without one the
    mapper builds its own lazily and rebuilds it whenever the database's
    ``data_revision`` changes.  ``use_index=False`` restores the seed
    scan-everything behaviour (and disables the similarity memo), which
    the benchmarks and equivalence tests use as the brute-force baseline.
    """

    def __init__(
        self,
        database: Database,
        similarity: SimilarityModel,
        qfg: QueryFragmentGraph | None = None,
        params: ScoringParams | None = None,
        *,
        candidate_index: CandidateIndex | None = None,
        use_index: bool = True,
    ) -> None:
        self.database = database
        self.similarity = similarity
        self.qfg = qfg
        self.params = params or ScoringParams()
        self.use_index = use_index
        self._index = candidate_index
        self._index_revision = (
            database.data_revision if candidate_index is not None else None
        )
        # Memo tables (see clear_caches); all are derived state only.
        self._pair_sim: dict[tuple[str, str], float] = {}
        self._scored_memo: dict[Keyword, list[QueryFragmentMapping]] = {}
        self._scored_revision = database.data_revision
        self._fragment_keys: dict[QueryFragment, str] = {}
        self._dice_graph: QueryFragmentGraph | None = None
        self._dice_revision = -1
        self._dice_memo: dict[tuple[str, str], float] = {}
        # Truncation reports keyed per request (see take_truncation).
        # Non-empty only when the max_configurations guard fired, which
        # is rare by construction; bounded regardless.
        self._truncations: dict[tuple, int] = {}

    # ------------------------------------------------------------ the index

    @property
    def index(self) -> CandidateIndex:
        """The candidate index, (re)built lazily after any data mutation."""
        if (
            self._index is None
            or self._index_revision != self.database.data_revision
        ):
            self._index = CandidateIndex.from_database(self.database)
            self._index_revision = self.database.data_revision
        return self._index

    def clear_caches(self) -> None:
        """Drop every memo table (e.g. after mutating the lexicon)."""
        self._pair_sim.clear()
        self._scored_memo.clear()
        self._fragment_keys.clear()
        self._dice_memo.clear()
        self._dice_graph = None
        self._dice_revision = -1

    @property
    def inner(self) -> "KeywordMapper":
        """The mapper itself, for code that unwraps stage wrappers.

        The benchmark's tracing self-test reads ``_mapper.inner`` the way
        it reads ``_joins.inner`` on the join cache.
        """
        return self

    # ----------------------------------------------------- Algorithm 1

    def map_keywords(
        self, keywords: list[Keyword], limit: int | None = None
    ) -> list[Configuration]:
        """Ranked configurations for ``keywords`` (empty when unmappable).

        With ``limit`` set, returns exactly the first ``limit`` entries of
        the full ranking (identical scores and tie-breaks) via best-first
        beam search — the cross product is never materialized.  Without a
        limit the complete ranked list is enumerated and returned.
        """
        request_key = keywords_cache_key(tuple(keywords))
        self._truncations.pop(request_key, None)
        per_keyword: list[list[QueryFragmentMapping]] = []
        with stage("candidate_probe"):
            for keyword in keywords:
                scored = self._scored_candidates(keyword)
                if not scored:
                    return []
                per_keyword.append(scored)
        with stage("enumeration"):
            if limit is not None:
                return self._rank_configurations_beam(
                    per_keyword, limit, request_key
                )
            return self._rank_configurations(per_keyword, request_key)

    def _scored_candidates(self, keyword: Keyword) -> list[QueryFragmentMapping]:
        """Retrieve + score + prune one keyword, memoized across requests.

        The scored top-κ list of a keyword depends only on the keyword,
        the database contents and the similarity model — not on the QFG —
        so it is safe to reuse across requests until the database mutates.
        Callers treat the returned list as read-only.
        """
        if not self.use_index:
            return self.score_and_prune(
                keyword, self.keyword_candidates(keyword)
            )
        if self._scored_revision != self.database.data_revision:
            self._scored_memo.clear()
            self._scored_revision = self.database.data_revision
        scored = self._scored_memo.get(keyword)
        if scored is None:
            scored = self.score_and_prune(
                keyword, self.keyword_candidates(keyword)
            )
            if len(self._scored_memo) > _MEMO_LIMIT:
                self._scored_memo.clear()
            self._scored_memo[keyword] = scored
        return scored

    # ----------------------------------------------------- Algorithm 2

    def keyword_candidates(self, keyword: Keyword) -> list[QueryFragment]:
        """Candidate fragments for one keyword (Algorithm 2)."""
        metadata = keyword.metadata
        number = extract_number(keyword.text)
        # The numeric branch requires both a number and an extracted
        # comparison operator ω; a value phrase that merely contains a
        # digit ("Distant Echoes 2") stays on the full-text path.
        if number is not None and metadata.comparison_op is not None:
            return self._numeric_candidates(keyword, number)
        if metadata.context is FragmentContext.FROM:
            if self.use_index:
                return list(self.index.relation_fragments())
            return [
                QueryFragment(
                    context=FragmentContext.FROM,
                    kind=FragmentKind.RELATION,
                    relation=relation,
                )
                for relation in self.database.relations
            ]
        if metadata.context in (
            FragmentContext.SELECT,
            FragmentContext.ORDER_BY,
            FragmentContext.GROUP_BY,
        ):
            refs = (
                self.index.attribute_refs()
                if self.use_index
                else self.database.attributes()
            )
            return [
                QueryFragment(
                    context=metadata.context,
                    kind=FragmentKind.ATTRIBUTE,
                    relation=ref.table,
                    attribute=ref.column,
                    aggregates=metadata.aggregates,
                    distinct=metadata.distinct,
                    descending=metadata.descending,
                )
                for ref in refs
            ]
        return self._value_candidates(keyword)

    def _numeric_candidates(
        self, keyword: Keyword, number: int | float
    ) -> list[QueryFragment]:
        """Numeric attributes whose predicate ``attr ω number`` is non-empty.

        Keywords carrying aggregate metadata (e.g. *more than 5 papers*)
        become HAVING candidates instead: one per relation, counting its
        first primary-key (or display) column.  The paper's Algorithm 2
        leaves the aggregate case implicit; this is the natural extension
        (the ``exec`` non-emptiness check does not apply to aggregates).
        """
        operator = keyword.metadata.comparison_op or "="
        if keyword.metadata.aggregates:
            return self._aggregate_candidates(keyword, number, operator)
        if self.use_index:
            index = self.index
            refs: tuple[ColumnRefSpec, ...] | list[ColumnRefSpec] = (
                index.numeric_refs()
            )
            nonempty = index.predicate_nonempty
        else:
            refs = self.database.numeric_attributes()
            nonempty = self.database.predicate_nonempty
        candidates: list[QueryFragment] = []
        for ref in refs:
            if nonempty(ref.table, ref.column, operator, number):
                candidates.append(
                    QueryFragment(
                        context=FragmentContext.WHERE,
                        kind=FragmentKind.PREDICATE,
                        relation=ref.table,
                        attribute=ref.column,
                        operator=operator,
                        value=number,
                    )
                )
        return candidates

    def _aggregate_candidates(
        self, keyword: Keyword, number: int | float, operator: str
    ) -> list[QueryFragment]:
        candidates: list[QueryFragment] = []
        for relation in self.database.relations:
            schema = self.database.catalog.table(relation)
            if schema.primary_key:
                attribute = schema.primary_key[0]
            elif schema.display_column is not None:
                attribute = schema.display_column
            else:
                attribute = schema.columns[0].name
            candidates.append(
                QueryFragment(
                    context=FragmentContext.HAVING,
                    kind=FragmentKind.PREDICATE,
                    relation=relation,
                    attribute=attribute,
                    operator=operator,
                    value=number,
                    aggregates=keyword.metadata.aggregates,
                    distinct=keyword.metadata.distinct,
                )
            )
        return candidates

    def _value_candidates(self, keyword: Keyword) -> list[QueryFragment]:
        """Full-text value predicates for a text keyword (Algorithm 2, L16).

        The indexed path first shortlists the searchable columns that can
        possibly match (global stemmed-prefix postings), then runs the
        exact per-column boolean-mode search only on the shortlist; the
        scan path probes every searchable column like the seed did.
        """
        operator = keyword.metadata.comparison_op or "="
        candidates: list[QueryFragment] = []
        if self.use_index:
            index = self.index
            tokens = content_tokens(keyword.text)
            shortlist = set(index.candidate_columns(tokens))
            if not shortlist:
                return candidates
            for ref in index.text_refs():
                key = (ref.table, ref.column)
                if key not in shortlist:
                    continue
                schema_stems = index.schema_stems(ref.table, ref.column)
                filtered = [t for t in tokens if stem(t) not in schema_stems]
                search = filtered or tokens
                values = index.search_column(ref.table, ref.column, search)
                candidates.extend(
                    self._value_fragment(ref, operator, value)
                    for value in values
                )
            return candidates
        for ref in self.database.text_attributes():
            tokens = self._search_tokens(keyword.text, ref)
            if not tokens:
                continue
            values = self.database.fulltext.search_column(
                ref.table, ref.column, tokens
            )
            candidates.extend(
                self._value_fragment(ref, operator, value) for value in values
            )
        return candidates

    @staticmethod
    def _value_fragment(
        ref: ColumnRefSpec, operator: str, value: str
    ) -> QueryFragment:
        return QueryFragment(
            context=FragmentContext.WHERE,
            kind=FragmentKind.PREDICATE,
            relation=ref.table,
            attribute=ref.column,
            operator=operator,
            value=value,
        )

    def _search_tokens(self, text: str, ref: ColumnRefSpec) -> list[str]:
        """Search tokens with schema-name tokens of the candidate removed.

        Following Section V-A: if a stemmed keyword token exactly matches
        the stemmed attribute or relation name of the candidate, drop it so
        the search is not over-constrained (*movie Saving Private Ryan*
        drops *movie* when probing ``movie.title``).
        """
        schema_stems = {
            stem(token)
            for token in word_tokens(ref.table) + word_tokens(ref.column)
        }
        tokens = content_tokens(text)
        filtered = [token for token in tokens if stem(token) not in schema_stems]
        return filtered or tokens

    # ----------------------------------------------------- Algorithm 3

    def score_and_prune(
        self, keyword: Keyword, candidates: list[QueryFragment]
    ) -> list[QueryFragmentMapping]:
        """Score candidates and keep the top-κ (Algorithm 3 + PRUNE)."""
        text = self._score_text(keyword)
        keyword_tokens = content_tokens(text) if text.strip() else []
        mappings = [
            QueryFragmentMapping(
                keyword, fragment, self._fragment_similarity(keyword_tokens, fragment)
            )
            for fragment in candidates
        ]
        if (
            keyword.metadata.aggregates
            and keyword.metadata.context is FragmentContext.SELECT
        ):
            mappings = self._collapse_aggregate_candidates(mappings)
        mappings.sort(
            key=lambda mapping: (-mapping.score, mapping.fragment.key())
        )
        return self._prune(mappings)

    def _collapse_aggregate_candidates(
        self, mappings: list[QueryFragmentMapping]
    ) -> list[QueryFragmentMapping]:
        """One aggregate candidate per relation.

        An aggregate keyword ("number of papers") scores every attribute
        of a relation identically through the relation name, which floods
        the top-κ cut with indistinguishable siblings and starves other
        relations.  Aggregating a relation means counting its entity, so
        keep its display column (falling back to primary key, then first
        column) as the single representative.
        """
        best: dict[str, QueryFragmentMapping] = {}
        for mapping in mappings:
            relation = mapping.fragment.relation
            if relation is None:
                continue
            schema = self.database.catalog.table(relation)
            preferred = (
                schema.display_column
                or (schema.primary_key[0] if schema.primary_key else None)
                or schema.column_names[0]
            )
            current = best.get(relation)
            candidate_rank = (
                -mapping.score,
                mapping.fragment.attribute != preferred,
                mapping.fragment.key(),
            )
            if current is None:
                best[relation] = mapping
                continue
            current_rank = (
                -current.score,
                current.fragment.attribute != preferred,
                current.fragment.key(),
            )
            if candidate_rank < current_rank:
                best[relation] = mapping
        return list(best.values())

    def _score_text(self, keyword: Keyword) -> str:
        """The text a keyword is scored on (numeric parts stripped).

        For numeric keywords (``simnum``): the candidate generator already
        verified ``exec(c)`` is non-empty, so score the non-numeric
        remainder of the keyword.  Comparative words already folded into ω
        are stripped unless they are all that remains.
        """
        number = extract_number(keyword.text)
        if number is not None and keyword.metadata.comparison_op is not None:
            tokens = content_tokens(strip_number(keyword.text))
            filtered = [t for t in tokens if t not in OPERATOR_WORDS]
            return " ".join(filtered or tokens)
        return keyword.text

    def _score(self, keyword: Keyword, fragment: QueryFragment) -> float:
        text = self._score_text(keyword)
        return self._text_similarity(text, fragment)

    def _text_similarity(self, text: str, fragment: QueryFragment) -> float:
        keyword_tokens = content_tokens(text) if text.strip() else []
        return self._fragment_similarity(keyword_tokens, fragment)

    def _fragment_similarity(
        self, keyword_tokens: list[str], fragment: QueryFragment
    ) -> float:
        """Directional keyword→fragment similarity in [0, 1].

        * Value predicates compare against the matched value text (with
          the keyword's schema-name tokens removed first; exact value
          matches score 1.0).
        * Relation fragments compare against the relation name.
        * Attribute fragments (and numeric predicates) compare against the
          attribute name; when the attribute is the relation's *display
          column* the relation name also counts — this is how "papers"
          reaches both ``journal.name`` and ``publication.title``, the
          confusion of the paper's Example 1.
        """
        if fragment.kind is FragmentKind.PREDICATE and isinstance(
            fragment.value, str
        ):
            return self._value_similarity(keyword_tokens, fragment)
        if not keyword_tokens:
            return self.params.empty_text_score
        if fragment.kind is FragmentKind.RELATION:
            relation_tokens = self._relation_tokens(fragment)
            return self._directional(
                keyword_tokens, relation_tokens
            ) * self._coverage_factor(keyword_tokens, relation_tokens)
        attribute_tokens = self._attribute_tokens(fragment)
        # Coverage-penalized: a keyword matching only part of a compound
        # attribute name ("citations" vs citation_num) must score below an
        # exact match, or spurious exact ties evict the right candidates.
        attribute_score = (
            self._directional(keyword_tokens, attribute_tokens)
            * self._coverage_factor(keyword_tokens, attribute_tokens)
            if attribute_tokens
            else 0.0
        )
        # Display attributes stand in for their relation ("papers" reaches
        # publication.title via "publication"); aggregate predicates are
        # about the counted entity, so its relation name counts too.  The
        # coverage factor keeps junction relations (domain_journal) from
        # matching their member nouns at full strength.
        if self._is_display_attribute(fragment) or fragment.aggregates:
            relation_tokens = self._relation_tokens(fragment)
            relation_score = self._directional(
                keyword_tokens, relation_tokens
            ) * self._coverage_factor(keyword_tokens, relation_tokens)
            return max(attribute_score, relation_score)
        return attribute_score

    def _relation_tokens(self, fragment: QueryFragment) -> list[str]:
        if self.use_index and fragment.relation is not None:
            return list(self.index.relation_tokens(fragment.relation))
        return fragment.relation_tokens()

    def _attribute_tokens(self, fragment: QueryFragment) -> list[str]:
        if (
            self.use_index
            and fragment.relation is not None
            and fragment.attribute not in (None, "*")
        ):
            return list(
                self.index.attribute_tokens(fragment.relation, fragment.attribute)
            )
        return fragment.attribute_tokens()

    def _value_similarity(
        self, keyword_tokens: list[str], fragment: QueryFragment
    ) -> float:
        if self.use_index:
            schema_stems = self.index.schema_stems(
                fragment.relation or "", fragment.attribute or ""
            )
            value_tokens = list(self.index.value_tokens(str(fragment.value)))
        else:
            schema_stems = {
                stem(token)
                for token in word_tokens(fragment.relation or "")
                + word_tokens(fragment.attribute or "")
            }
            value_tokens = word_tokens(str(fragment.value))
        stripped = [
            token for token in keyword_tokens if stem(token) not in schema_stems
        ]
        keyword_tokens = stripped or keyword_tokens
        if keyword_tokens == value_tokens:
            return 1.0
        if not keyword_tokens or not value_tokens:
            return self.params.empty_text_score
        # Penalize low coverage of the value so a keyword merely *contained*
        # in a long value (e.g. a paper title that mentions the phrase) does
        # not tie with the exact-match candidate.
        coverage = min(1.0, len(keyword_tokens) / len(value_tokens))
        return self._directional(keyword_tokens, value_tokens) * (
            0.5 + 0.5 * coverage
        )

    def _is_display_attribute(self, fragment: QueryFragment) -> bool:
        if fragment.relation is None or fragment.attribute in (None, "*"):
            return fragment.attribute == "*"
        if self.use_index:
            return self.index.is_display_attribute(
                fragment.relation, fragment.attribute
            )
        schema = self.database.catalog.table(fragment.relation)
        return schema.display_column == fragment.attribute

    def _token_similarity(self, a: str, b: str) -> float:
        """Memoized ``simtext`` lookup (kept across keywords and requests).

        The similarity model is treated as immutable; call
        :meth:`clear_caches` after mutating its lexicon.
        """
        if not self.use_index:
            return self.similarity.token_similarity(a, b)
        key = (a, b)
        cached = self._pair_sim.get(key)
        if cached is None:
            cached = self.similarity.token_similarity(a, b)
            if len(self._pair_sim) > _MEMO_LIMIT:
                self._pair_sim.clear()
            self._pair_sim[key] = cached
        return cached

    def _directional(self, source: list[str], target: list[str]) -> float:
        if not source or not target:
            return self.params.empty_text_score
        sim = self._token_similarity
        total = 0.0
        for token in source:
            total += max(sim(token, other) for other in target)
        return total / len(source)

    def _coverage_factor(self, source: list[str], target: list[str]) -> float:
        """Penalty for covering a multi-token target name only partially.

        Coverage is semantic, not positional: each target token counts as
        covered to the degree of its best match among the source tokens.
        ``journal`` inside ``domain_journal`` leaves ``domain`` uncovered
        (factor ≈ 0.65), while a two-token name whose tokens both relate
        to the keyword ("tv series" vs "films") keeps most of its score.
        """
        if not target:
            return 1.0
        backward = self._directional(target, source)
        return 0.5 + 0.5 * backward

    def _prune(
        self, mappings: list[QueryFragmentMapping]
    ) -> list[QueryFragmentMapping]:
        if not mappings:
            return []
        exact_cut = 1.0 - self.params.exact_epsilon
        exact = [mapping for mapping in mappings if mapping.score >= exact_cut]
        if exact:
            return exact
        kappa = self.params.kappa
        if len(mappings) <= kappa:
            return mappings
        threshold = mappings[kappa - 1].score
        kept = [
            mapping
            for mapping in mappings
            if mapping.score > threshold + self.params.tie_tolerance
        ]
        # Keep κ-th place ties with non-zero scores.
        if threshold > 0.0:
            kept.extend(
                mapping
                for mapping in mappings
                if abs(mapping.score - threshold) <= self.params.tie_tolerance
            )
        return kept[: kappa * 4]  # bound runaway tie groups

    # ------------------------------------------------ configuration scoring

    def _rank_configurations(
        self,
        per_keyword: list[list[QueryFragmentMapping]],
        request_key: tuple,
    ) -> list[Configuration]:
        """Full enumeration of the (possibly degraded) candidate product."""
        combo_count = math.prod(len(options) for options in per_keyword)
        if combo_count > self.params.max_configurations:
            # Degrade gracefully: keep only the top-κ of each keyword (ties
            # dropped) to bound the product.
            per_keyword = [
                options[: self.params.kappa] for options in per_keyword
            ]
            kept = math.prod(len(options) for options in per_keyword)
            self._report_truncation(request_key, combo_count, combo_count - kept)

        configurations = [
            self._configuration(combo)
            for combo in itertools.product(*per_keyword)
        ]
        configurations.sort(key=self._configuration_sort_key)
        return configurations

    def _rank_configurations_beam(
        self,
        per_keyword: list[list[QueryFragmentMapping]],
        limit: int,
        request_key: tuple,
    ) -> list[Configuration]:
        """Exact top-``limit`` configurations via best-first search.

        States are index tuples into the per-keyword candidate lists
        (sorted by descending score), explored in descending Score_σ order
        with a heap.  Since Score_QFG ≤ 1 and Score_σ is monotone along
        the lattice, ``λ·σ(state) + (1-λ)`` is an admissible bound on the
        final score of every unexplored configuration: once the ``limit``-th
        best final score found exceeds that bound, the remaining product —
        never materialized — cannot contribute and the search stops.  Ties
        at the cut are fully enumerated, so the result is bit-identical to
        the first ``limit`` entries of the full enumeration.
        """
        if limit < 1:
            return []
        lists = per_keyword
        arity = len(lists)
        lam = self.params.lam
        blend = self.qfg is not None

        def sigma_product(indices: tuple[int, ...]) -> float:
            product = 1.0
            for position, index in enumerate(indices):
                product *= max(lists[position][index].score, 1e-12)
            return product

        start = (0,) * arity
        frontier: list[tuple[float, tuple[int, ...]]] = [
            (-sigma_product(start), start)
        ]
        seen = {start}
        emitted: list[Configuration] = []
        top_scores: list[float] = []  # min-heap of the best `limit` finals
        expansions = 0
        max_expansions = self.params.max_configurations
        while frontier:
            negative, indices = heapq.heappop(frontier)
            if len(top_scores) >= limit:
                sigma_bound = (-negative) ** (1.0 / arity)
                bound = (
                    lam * sigma_bound + (1.0 - lam) if blend else sigma_bound
                )
                if bound < top_scores[0] - 1e-12:
                    break
            if expansions >= max_expansions:
                # Safety cap (unreachable for practical limits): give up
                # exactness beyond the explored region, like the seed's
                # degradation, and say so.
                self._report_truncation(request_key, max_expansions, -1)
                break
            expansions += 1
            combo = tuple(
                lists[position][index]
                for position, index in enumerate(indices)
            )
            configuration = self._configuration(combo)
            emitted.append(configuration)
            if len(top_scores) < limit:
                heapq.heappush(top_scores, configuration.score)
            elif configuration.score > top_scores[0]:
                heapq.heapreplace(top_scores, configuration.score)
            for position in range(arity):
                next_index = indices[position] + 1
                if next_index >= len(lists[position]):
                    continue
                successor = (
                    indices[:position] + (next_index,) + indices[position + 1 :]
                )
                if successor in seen:
                    continue
                seen.add(successor)
                heapq.heappush(
                    frontier, (-sigma_product(successor), successor)
                )
        emitted.sort(key=self._configuration_sort_key)
        return emitted[:limit]

    def _configuration(
        self, combo: tuple[QueryFragmentMapping, ...]
    ) -> Configuration:
        sigma = self._score_sigma(combo)
        qfg = self._score_qfg(combo, fallback=sigma)
        if self.qfg is None:
            final = sigma
        else:
            final = self.params.lam * sigma + (1.0 - self.params.lam) * qfg
        return Configuration(
            mappings=combo, sigma_score=sigma, qfg_score=qfg, score=final
        )

    @staticmethod
    def _configuration_sort_key(config: Configuration) -> tuple:
        return (
            -config.score,
            tuple(m.fragment.key() for m in config.mappings),
        )

    @staticmethod
    def _score_sigma(combo: tuple[QueryFragmentMapping, ...]) -> float:
        """Score_σ: geometric mean of the mapping similarity scores."""
        product = 1.0
        for mapping in combo:
            product *= max(mapping.score, 1e-12)
        return product ** (1.0 / len(combo))

    def _fragment_key(self, fragment: QueryFragment) -> str:
        """Memoized QFG vertex key of ``fragment`` (at the QFG's obscurity)."""
        key = self._fragment_keys.get(fragment)
        if key is None:
            key = fragment.key(self.qfg.obscurity)
            if len(self._fragment_keys) > _MEMO_LIMIT:
                self._fragment_keys.clear()
            self._fragment_keys[fragment] = key
        return key

    def _dice(self, key_a: str, key_b: str) -> float:
        """Memoized Dice lookup, invalidated when the QFG changes."""
        qfg = self.qfg
        if qfg is not self._dice_graph or qfg.revision != self._dice_revision:
            self._dice_memo.clear()
            self._fragment_keys.clear()
            self._dice_graph = qfg
            self._dice_revision = qfg.revision
        if key_a > key_b:
            key_a, key_b = key_b, key_a
        pair = (key_a, key_b)
        cached = self._dice_memo.get(pair)
        if cached is None:
            cached = qfg.pair_dice(key_a, key_b)
            if len(self._dice_memo) > _MEMO_LIMIT:
                self._dice_memo.clear()
            self._dice_memo[pair] = cached
        return cached

    def _score_qfg(
        self, combo: tuple[QueryFragmentMapping, ...], fallback: float
    ) -> float:
        """Score_QFG: Dice aggregated over pairs of non-FROM fragments.

        The paper's formula takes the product of Dice over all fragment
        pairs raised to 1/|φ|.  Configurations with fewer than two non-FROM
        fragments carry no pairwise evidence; we fall back to Score_σ so
        the λ-combination stays meaningful (documented in DESIGN.md).
        Unseen pairs contribute the ``dice_floor`` instead of zero.
        """
        if self.qfg is None:
            return fallback
        keys = [
            self._fragment_key(mapping.fragment)
            for mapping in combo
            if mapping.fragment.context is not FragmentContext.FROM
        ]
        if len(keys) < 2:
            return fallback
        product = 1.0
        floor = self.params.dice_floor
        for i, first in enumerate(keys):
            for second in keys[i + 1 :]:
                product *= max(self._dice(first, second), floor)
        return product ** (1.0 / len(combo))

    # ------------------------------------------------ truncation reporting

    def _report_truncation(
        self, request_key: tuple, space: int, dropped: int
    ) -> None:
        if len(self._truncations) > 256:
            self._truncations.clear()
        self._truncations[request_key] = dropped
        logger.warning(
            "map_keywords: configuration space of %d exceeds "
            "max_configurations=%d; degraded to per-keyword top-%d lists, "
            "dropping %s combinations",
            space,
            self.params.max_configurations,
            self.params.kappa,
            dropped if dropped >= 0 else "an unknown number of",
        )

    def take_truncation(
        self, keywords: list[Keyword] | tuple[Keyword, ...]
    ) -> int:
        """Combinations dropped by the last ``map_keywords(keywords)``.

        Returns the count recorded for that request (0 when nothing was
        truncated, -1 when the beam safety cap fired) and consumes the
        report.  Keyed per request, so concurrent requests each read
        their own count.  The serving layer reads it once per cache miss
        and stores it with the translate entry, so every response to the
        request — cached repeats included — carries a non-zero count in
        its provenance as ``configurations_truncated``.
        """
        return self._truncations.pop(keywords_cache_key(tuple(keywords)), 0)
