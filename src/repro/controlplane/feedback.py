"""User-feedback codec and the QFG apply loop.

The paper's thesis is that the query log is a learnable asset; until
now the only thing appended to it was the system's own unvetted output.
Feedback closes the loop with *user* verdicts:

``accept``
    The served SQL answered the question.  The pair (NLQ, SQL) is
    user-vetted signal — the SQL is re-observed into the tenant's QFG,
    reinforcing the fragments that produced it.
``reject``
    The served SQL was wrong.  Recorded durably (and queryable via
    ``repro logs query`` — "which tenant rejects the most
    translations") but never learned from.
``correct``
    The user supplied the SQL that *should* have been returned; the
    corrected SQL is observed instead of the served one — exactly the
    log-repair signal the paper's offline pipeline assumes exists.

Verdicts are validated here (:func:`validate_feedback_payload` — strict
fields, same contract as the wire codecs), persisted by
:meth:`ControlPlane.submit_feedback`, and consumed by
:func:`apply_feedback`, which advances a per-engine cursor over the
durable feedback table so each replica applies every verdict exactly
once per engine generation.  A reloaded or restarted engine starts from
cursor 0 and re-applies the full history against its freshly rebuilt
QFG — convergent, because its QFG was rebuilt without them.
"""

from __future__ import annotations

from ..errors import ReproError, ServingError

#: Accepted verdicts, in the order they appear in docs and stats.
FEEDBACK_VERDICTS = ("accept", "reject", "correct")

#: Strict wire fields for a feedback payload.
FEEDBACK_FIELDS = (
    "corrected_sql", "nlq", "request_id", "sql", "trace_id", "verdict",
)


def validate_feedback_payload(payload) -> dict:
    """Decode a feedback payload strictly; returns submit kwargs.

    >>> validate_feedback_payload({"verdict": "reject", "trace_id": "t-1"})
    {'verdict': 'reject', 'request_id': None, 'trace_id': 't-1', 'nlq': None, 'sql': None, 'corrected_sql': None}
    >>> validate_feedback_payload({"verdict": "maybe"})
    Traceback (most recent call last):
        ...
    repro.errors.ServingError: feedback verdict must be one of accept, reject, correct; got 'maybe'
    """
    if not isinstance(payload, dict):
        raise ServingError(
            f"feedback payload must be a JSON object, got {type(payload).__name__}"
        )
    unknown = set(payload) - set(FEEDBACK_FIELDS)
    if unknown:
        raise ServingError(
            "unknown feedback field(s): "
            f"{', '.join(sorted(unknown))}; allowed: "
            f"{', '.join(FEEDBACK_FIELDS)}"
        )
    verdict = payload.get("verdict")
    if verdict not in FEEDBACK_VERDICTS:
        raise ServingError(
            "feedback verdict must be one of "
            f"{', '.join(FEEDBACK_VERDICTS)}; got {verdict!r}"
        )
    out = {"verdict": verdict}
    for field in ("request_id", "trace_id", "nlq", "sql", "corrected_sql"):
        value = payload.get(field)
        if value is not None and not isinstance(value, str):
            raise ServingError(f"feedback field {field!r} must be a string")
        out[field] = value
    if verdict == "correct" and not out["corrected_sql"]:
        raise ServingError(
            "correct feedback must include corrected_sql (the SQL the "
            "system should have returned)"
        )
    if out["request_id"] is None and out["trace_id"] is None \
            and out["sql"] is None and out["corrected_sql"] is None:
        raise ServingError(
            "feedback must reference a prior response (request_id or "
            "trace_id) or carry sql/corrected_sql explicitly"
        )
    return out


def learnable_sql(row: dict) -> str | None:
    """The SQL a feedback row teaches, or ``None`` (rejects teach nothing)."""
    verdict = row.get("verdict")
    if verdict == "accept":
        return row.get("sql") or None
    if verdict == "correct":
        return row.get("corrected_sql") or None
    return None


def apply_feedback(engine, *, batch: int = 256) -> int:
    """Apply all unseen feedback for ``engine``'s tenant to its QFG.

    Walks the durable feedback table past ``engine.feedback_cursor``,
    observes every accepted/corrected SQL, and absorbs each batch so the
    observation queue never overflows on a large backlog.  Returns the
    number of verdicts whose SQL was observed.  Unparseable
    user-supplied SQL is counted by the engine (``observe_errors``) and
    skipped — one bad correction cannot wedge the loop.
    """
    plane = getattr(engine, "control_plane", None)
    if plane is None or not plane.feedback_enabled:
        return 0
    if getattr(engine, "templar", None) is None:
        return 0
    applied = 0
    while True:
        rows = plane.feedback_after(
            engine.journal_tenant, engine.feedback_cursor, limit=batch
        )
        if not rows:
            break
        observed = 0
        for row in rows:
            engine.feedback_cursor = row["feedback_id"]
            sql = learnable_sql(row)
            if sql is None:
                continue
            try:
                engine.observe(sql)
                observed += 1
            except ReproError:
                # Engine closed / learning unavailable: stop without
                # advancing past this generation's ability to learn.
                break
        if observed:
            try:
                engine.absorb_pending()
            except ReproError:  # pragma: no cover - engine closing
                break
            applied += observed
        if len(rows) < batch:
            break
    return applied


__all__ = [
    "FEEDBACK_FIELDS",
    "FEEDBACK_VERDICTS",
    "apply_feedback",
    "learnable_sql",
    "validate_feedback_payload",
]
