"""JSON wire format of the serving API.

Converts between the typed request/response objects
(:class:`~repro.core.interface.Keyword`,
:class:`~repro.nlidb.base.TranslationResult`) and plain dicts for the
HTTP endpoint.  Kept separate from the transport so tests and alternative
frontends can reuse the codec.

:class:`TranslationRequest` / :class:`TranslationResponse` are the
*unified* request/response pair every frontend shares: the HTTP endpoint,
``Engine.translate`` / ``translate_batch`` and ``repro translate`` all
accept a request (raw NLQ string or pre-parsed keywords) and produce a
response carrying the ranked SQL, per-stage timings and configuration
provenance.

The codec is strict: unknown request or keyword fields raise
:class:`~repro.errors.ServingError` instead of being silently ignored, so
a misspelled field in a client payload fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.fragments import FragmentContext
from repro.core.interface import Keyword, KeywordMetadata
from repro.nlidb.base import TranslationResult
from repro.errors import ServingError

#: Fields the request codec accepts; anything else is rejected.
REQUEST_FIELDS = ("keywords", "nlq", "limit", "observe")

#: Fields the keyword codec accepts; anything else is rejected.
KEYWORD_FIELDS = (
    "text", "context", "comparison_op", "aggregates",
    "grouped", "distinct", "descending", "limit",
)


def keyword_to_dict(keyword: Keyword) -> dict:
    """Encode one keyword as its JSON payload (default fields omitted).

    >>> from repro.core import FragmentContext, Keyword, KeywordMetadata
    >>> keyword = Keyword("after 2000", KeywordMetadata(
    ...     context=FragmentContext.WHERE, comparison_op=">"))
    >>> keyword_to_dict(keyword)
    {'text': 'after 2000', 'context': 'WHERE', 'comparison_op': '>'}
    """
    metadata = keyword.metadata
    payload: dict = {"text": keyword.text, "context": metadata.context.value}
    if metadata.comparison_op is not None:
        payload["comparison_op"] = metadata.comparison_op
    if metadata.aggregates:
        payload["aggregates"] = list(metadata.aggregates)
    if metadata.grouped:
        payload["grouped"] = True
    if metadata.distinct:
        payload["distinct"] = True
    if metadata.descending:
        payload["descending"] = True
    if metadata.limit is not None:
        payload["limit"] = metadata.limit
    return payload


def keyword_from_dict(data: dict) -> Keyword:
    """Strict decode of one keyword payload (unknown fields rejected).

    >>> keyword_from_dict({"text": "papers", "context": "SELECT"})
    Keyword(text='papers', metadata=KeywordMetadata(context=<FragmentContext.SELECT: 'SELECT'>, comparison_op=None, aggregates=(), grouped=False, distinct=False, descending=False, limit=None))
    >>> keyword_from_dict({"text": "papers", "ctx": "SELECT"})
    Traceback (most recent call last):
        ...
    repro.errors.ServingError: unknown keyword field(s): ctx; allowed: text, context, comparison_op, aggregates, grouped, distinct, descending, limit
    """
    if not isinstance(data, dict):
        raise ServingError(f"keyword must be an object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(KEYWORD_FIELDS))
    if unknown:
        raise ServingError(
            f"unknown keyword field(s): {', '.join(unknown)}; "
            f"allowed: {', '.join(KEYWORD_FIELDS)}"
        )
    try:
        text = str(data["text"])
        context = FragmentContext(data.get("context", "WHERE"))
    except KeyError as exc:
        raise ServingError(f"keyword is missing required field {exc}") from exc
    except ValueError as exc:
        valid = ", ".join(c.value for c in FragmentContext)
        raise ServingError(
            f"unknown keyword context {data.get('context')!r}; one of: {valid}"
        ) from exc
    comparison_op = data.get("comparison_op")
    if comparison_op is not None and not isinstance(comparison_op, str):
        raise ServingError(
            f"'comparison_op' for {text!r} must be a string operator"
        )
    aggregates = data.get("aggregates", ())
    if not isinstance(aggregates, (list, tuple)):
        # A bare string would be iterated character-by-character.
        raise ServingError(
            f"'aggregates' for {text!r} must be an array of function names"
        )
    limit = data.get("limit")
    if limit is not None and (
        not isinstance(limit, int) or isinstance(limit, bool) or limit < 1
    ):
        raise ServingError(
            f"'limit' for {text!r} must be a positive integer"
        )
    flags = {}
    for flag in ("grouped", "distinct", "descending"):
        value = data.get(flag, False)
        if not isinstance(value, bool):
            raise ServingError(f"{flag!r} for {text!r} must be a boolean")
        flags[flag] = value
    try:
        metadata = KeywordMetadata(
            context=context,
            comparison_op=comparison_op,
            aggregates=tuple(str(a).upper() for a in aggregates),
            limit=limit,
            **flags,
        )
    except (TypeError, ValueError) as exc:
        raise ServingError(f"invalid keyword field for {text!r}: {exc}") from exc
    return Keyword(text=text, metadata=metadata)


def keywords_from_payload(data: object) -> list[Keyword]:
    """Decode a request's ``keywords`` array (must be non-empty).

    >>> keywords = keywords_from_payload([{"text": "papers"}])
    >>> [keyword.text for keyword in keywords]
    ['papers']
    >>> keywords_from_payload([])
    Traceback (most recent call last):
        ...
    repro.errors.ServingError: 'keywords' must be a non-empty array of objects
    """
    if not isinstance(data, list) or not data:
        raise ServingError("'keywords' must be a non-empty array of objects")
    return [keyword_from_dict(item) for item in data]


def result_to_dict(result: TranslationResult) -> dict:
    """Encode one ranked translation for the response payload.

    Scores are rounded to 6 places — stable payloads over float noise:

    >>> from types import SimpleNamespace
    >>> result_to_dict(SimpleNamespace(
    ...     sql="SELECT 1", config_score=0.51234567, join_score=1.0))
    {'sql': 'SELECT 1', 'config_score': 0.512346, 'join_score': 1.0}
    """
    return {
        "sql": result.sql,
        "config_score": round(result.config_score, 6),
        "join_score": round(result.join_score, 6),
    }


def results_to_payload(
    results: list[TranslationResult], limit: int | None = None
) -> dict:
    """Ranked results as a payload; ``limit`` caps what is surfaced.

    ``count`` always reports the full result count, so a limited client
    can see how much it did not fetch.

    >>> results_to_payload([], limit=5)
    {'count': 0, 'results': []}
    """
    shown = results if limit is None else results[:limit]
    return {
        "count": len(results),
        "results": [result_to_dict(result) for result in shown],
    }


# ------------------------------------------------- unified request/response


def _check_limit(limit: object) -> int | None:
    if limit is not None and (
        not isinstance(limit, int) or isinstance(limit, bool) or limit < 1
    ):
        raise ServingError("'limit' must be a positive integer")
    return limit


@dataclass(frozen=True)
class TranslationRequest:
    """One translation request: a raw NLQ *or* pre-parsed keywords.

    Exactly one of ``nlq`` / ``keywords`` must be set.  ``limit`` caps the
    results surfaced in the response payload; ``observe`` asks the serving
    side to feed the top translation back into the QFG learning queue.

    >>> TranslationRequest(nlq="return the papers", limit=3)
    TranslationRequest(nlq='return the papers', keywords=None, limit=3, observe=False)
    >>> TranslationRequest()
    Traceback (most recent call last):
        ...
    repro.errors.ServingError: request must contain either 'keywords' or 'nlq'
    """

    nlq: str | None = None
    keywords: tuple[Keyword, ...] | None = None
    limit: int | None = None
    observe: bool = False

    def __post_init__(self) -> None:
        if (self.nlq is None) == (self.keywords is None):
            raise ServingError(
                "request must contain either 'keywords' or 'nlq'"
            )
        if self.keywords is not None:
            if not self.keywords:
                raise ServingError(
                    "'keywords' must be a non-empty array of objects"
                )
            object.__setattr__(self, "keywords", tuple(self.keywords))
        if self.nlq is not None and not str(self.nlq).strip():
            raise ServingError("'nlq' must be a non-empty string")
        _check_limit(self.limit)
        if not isinstance(self.observe, bool):
            raise ServingError("'observe' must be a boolean")

    @classmethod
    def of(
        cls,
        request: "TranslationRequest | str | Sequence[Keyword] | dict",
        *,
        limit: int | None = None,
        observe: bool | None = None,
    ) -> "TranslationRequest":
        """Normalize any accepted request shape into a TranslationRequest.

        Accepts an existing request (returned as-is unless ``limit`` /
        ``observe`` override it), a raw NLQ string, a sequence of
        :class:`~repro.core.interface.Keyword`, or a JSON payload dict.

        >>> TranslationRequest.of("return the papers").nlq
        'return the papers'
        >>> TranslationRequest.of({"nlq": "return the papers"}, limit=1).limit
        1
        """
        if isinstance(request, cls):
            if limit is None and observe is None:
                return request
            return cls(
                nlq=request.nlq,
                keywords=request.keywords,
                limit=request.limit if limit is None else limit,
                observe=request.observe if observe is None else observe,
            )
        kwargs = {
            "limit": limit,
            "observe": False if observe is None else observe,
        }
        if isinstance(request, str):
            return cls(nlq=request, **kwargs)
        if isinstance(request, dict):
            parsed = cls.from_payload(request)
            return cls.of(parsed, limit=limit, observe=observe)
        if isinstance(request, Sequence):
            keywords = tuple(request)
            if not all(isinstance(k, Keyword) for k in keywords):
                raise ServingError(
                    "keyword requests must be sequences of Keyword objects"
                )
            return cls(keywords=keywords, **kwargs)
        raise ServingError(
            f"unsupported request type {type(request).__name__}; pass an "
            f"NLQ string, a Keyword sequence, a payload dict, or a "
            f"TranslationRequest"
        )

    @classmethod
    def from_payload(cls, payload: object) -> "TranslationRequest":
        """Strict decode of a JSON request body.

        >>> request = TranslationRequest.from_payload(
        ...     {"keywords": [{"text": "papers", "context": "SELECT"}]})
        >>> request.keywords[0].text
        'papers'
        >>> TranslationRequest.from_payload({"nlq": "x", "observ": True})
        Traceback (most recent call last):
            ...
        repro.errors.ServingError: unknown request field(s): observ; allowed: keywords, nlq, limit, observe
        """
        if not isinstance(payload, dict):
            raise ServingError("request body must be a JSON object")
        unknown = sorted(set(payload) - set(REQUEST_FIELDS))
        if unknown:
            raise ServingError(
                f"unknown request field(s): {', '.join(unknown)}; "
                f"allowed: {', '.join(REQUEST_FIELDS)}"
            )
        keywords = None
        nlq = payload.get("nlq")
        if "keywords" in payload:
            keywords = tuple(keywords_from_payload(payload["keywords"]))
        if nlq is not None:
            nlq = str(nlq)
        # limit/observe validation happens in __post_init__.
        return cls(
            nlq=nlq,
            keywords=keywords,
            limit=payload.get("limit"),
            observe=payload.get("observe", False),
        )

    def to_payload(self) -> dict:
        """The JSON body for this request; round-trips via ``from_payload``.

        >>> TranslationRequest(nlq="return the papers", limit=2).to_payload()
        {'nlq': 'return the papers', 'limit': 2}
        """
        payload: dict = {}
        if self.nlq is not None:
            payload["nlq"] = self.nlq
        if self.keywords is not None:
            payload["keywords"] = [keyword_to_dict(k) for k in self.keywords]
        if self.limit is not None:
            payload["limit"] = self.limit
        if self.observe:
            payload["observe"] = True
        return payload


@dataclass
class TranslationResponse:
    """The unified answer every frontend returns.

    * ``results`` — full ranked list of translations (``request.limit``
      only caps what :meth:`to_payload` surfaces),
    * ``keywords`` — the keywords the translation actually ran on (the
      request's own, or the parse of its NLQ),
    * ``provenance`` — how the answer was produced: backend, dataset,
      config fingerprint, artifact version, QFG revision (plus the
      ``tenant`` id when served through the multi-tenant gateway),
    * ``timings_ms`` — per-stage wall-clock (``parse``, ``translate``,
      ``total``) of this request, batched or not.

    >>> response = TranslationResponse(
    ...     request=TranslationRequest(nlq="return the papers"), results=[])
    >>> response.sql is None and response.top is None
    True
    >>> response.to_payload()
    {'count': 0, 'results': [], 'keywords': [], 'provenance': {}, 'timings_ms': {}}
    """

    request: TranslationRequest
    results: list[TranslationResult]
    keywords: tuple[Keyword, ...] = ()
    provenance: dict = field(default_factory=dict)
    timings_ms: dict = field(default_factory=dict)

    @property
    def top(self) -> TranslationResult | None:
        """The best-ranked translation, or None when nothing translated."""
        return self.results[0] if self.results else None

    @property
    def sql(self) -> str | None:
        """The top-ranked SQL, or None when nothing translated."""
        top = self.top
        return top.sql if top is not None else None

    @property
    def learnable(self) -> bool:
        """False when observing this response would double-learn.

        The control plane marks idempotent replays and concurrent
        duplicates in the provenance; every observe site checks this one
        property so a retried request contributes exactly zero QFG
        observations no matter which frontend served it.
        """
        return not (
            self.provenance.get("idempotent_replay")
            or self.provenance.get("idempotent_duplicate")
        )

    def to_payload(self) -> dict:
        """The JSON body every frontend serves for this response."""
        payload = results_to_payload(self.results, self.request.limit)
        payload["keywords"] = [keyword_to_dict(k) for k in self.keywords]
        payload["provenance"] = dict(self.provenance)
        payload["timings_ms"] = {
            stage: round(ms, 3) for stage, ms in self.timings_ms.items()
        }
        return payload
