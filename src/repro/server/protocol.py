"""Wire protocol of the sampling server: requests, responses, error codes.

The protocol is deliberately plain: one JSON object per request, one JSON
object per response, transported over HTTP POST (see
:mod:`repro.server.http`) or handed directly to
:meth:`repro.server.service.SamplingService.handle` for in-process use
(tests, embedding).  Every response has the shape::

    {"ok": true,  "result": {...}}                          # success
    {"ok": false, "error": {"code": "...", "message": "...", ...}}

``error.code`` is the machine-readable contract (the ``message`` is for
humans and may change); the codes are enumerated in :data:`ERROR_CODES` and
each maps to a stable HTTP status so socket clients can route on either.

Request kinds
-------------

``sample``
    ``{"kind": "sample", "query": <join name>, "count": N, "seed": S}``
    plus optional ``weights`` (``"ew"``/``"eo"``), ``workers`` (> 1 routes
    through the shared :class:`~repro.parallel.pool.ParallelSamplerPool`),
    ``deadline`` (seconds), ``allow_partial``, ``max_attempts``.
    ``workers`` is bounded by :data:`MAX_REQUEST_WORKERS` on both kinds.
``aggregate``
    ``{"kind": "aggregate", "query": ..., "aggregate": "count|sum|avg",
    "seed": S}`` plus optional ``attribute``, ``group_by``, ``rel_error``,
    ``confidence``, ``method``, ``workers``, ``deadline``,
    ``allow_partial``, ``max_attempts``.
``mutate``
    ``{"kind": "mutate", "relation": <name>, "delete_positions": [...]}`` —
    deletes rows by position and bumps the relation's mutation epoch.
``health`` / ``stats``
    No arguments; liveness echo and server counters.

Retry contract: transient rejections (the :data:`RETRYABLE_CODES` — load
sheds, open breakers, exhausted epoch restarts) carry a machine-readable
``retry_after`` detail (seconds), mirrored by the HTTP layer as a standard
``Retry-After`` header; permanent refusals never do.  See
``docs/overload.md``.

Determinism contract: a ``sample``/``aggregate`` response is a pure function
of the request (including ``seed``) and the database snapshot it ran
against — never of what else the server is doing concurrently.  The
concurrency suite (``tests/test_server.py``) holds the server to that
bit-for-bit.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

#: Machine-readable error codes -> HTTP status.
ERROR_CODES: Dict[str, int] = {
    # The request does not parse / misses fields / has out-of-range values.
    "invalid-request": 400,
    # The named query or relation is not part of the served workload.
    "unknown-query": 404,
    # Admission control refused the request (priced cost, sample budget, or
    # concurrent-request cap); the error payload carries the offending limit.
    "admission-rejected": 429,
    # The per-request deadline expired before the job finished (and the
    # request did not allow a partial answer).
    "deadline-exceeded": 504,
    # A partial answer was allowed but zero samples were accepted — there is
    # no honest estimate to return (see resilience.errors.EmptyResultError).
    "empty-result": 504,
    # Mutations kept landing mid-flight until the restart budget ran out.
    "epoch-restart-exhausted": 503,
    # The overload gate is shedding all priced work until pressure drains
    # (health state OVERLOADED); the payload carries a retry_after hint.
    "overloaded": 503,
    # The per-(query, weights) circuit breaker is open after consecutive
    # deadline/epoch failures; retry_after is the remaining open window.
    "circuit-open": 503,
    # Anything else (reported honestly, with the exception text).
    "internal": 500,
}

#: upper bound on a request's ``workers`` field: a worker is a sampler (for
#: ``query="union"`` a whole union warm-up) plus a thread per step, none of
#: which the admission price sees.  (Its byte-size twin ``MAX_REQUEST_BYTES``
#: lives in :mod:`repro.server.http`, which the service cannot import.)
MAX_REQUEST_WORKERS = 64

#: codes a client may retry verbatim: the refusal is about *when* the
#: request arrived, not about the request itself — and every answer is a
#: pure function of (request, snapshot), so a retry can never double-apply.
RETRYABLE_CODES = frozenset(
    {"admission-rejected", "overloaded", "circuit-open",
     "epoch-restart-exhausted"}
)


class RequestError(Exception):
    """A request failed with a structured, protocol-level error."""

    def __init__(self, code: str, message: str, **details: object) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        self.code = code
        self.details = details
        super().__init__(message)

    @property
    def http_status(self) -> int:
        return ERROR_CODES[self.code]

    @property
    def retry_after(self) -> Optional[float]:
        """Computed retry hint in seconds, when the rejection is transient.

        Present on load sheds (429/503) and open breakers; absent on
        permanent refusals (an oversized request stays oversized no matter
        when it is retried).  The HTTP layer mirrors it as a standard
        ``Retry-After`` header.
        """
        value = self.details.get("retry_after")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        return float(value)

    def to_payload(self) -> Dict[str, object]:
        error: Dict[str, object] = {"code": self.code, "message": str(self)}
        error.update(self.details)
        return {"ok": False, "error": error}


def ok_response(result: Mapping[str, object]) -> Dict[str, object]:
    return {"ok": True, "result": dict(result)}


# ------------------------------------------------------------------ parsing
def get_str(request: Mapping[str, object], key: str, default: Optional[str] = None,
            *, required: bool = False,
            choices: Optional[Tuple[str, ...]] = None) -> Optional[str]:
    value = request.get(key, default)
    if value is None:
        if required:
            raise RequestError("invalid-request", f"missing required field {key!r}")
        return None
    if not isinstance(value, str):
        raise RequestError("invalid-request", f"field {key!r} must be a string")
    if choices is not None and value not in choices:
        raise RequestError(
            "invalid-request", f"field {key!r} must be one of {list(choices)}, got {value!r}"
        )
    return value


def get_int(request: Mapping[str, object], key: str, default: Optional[int] = None,
            *, required: bool = False, minimum: Optional[int] = None,
            maximum: Optional[int] = None) -> Optional[int]:
    value = request.get(key, default)
    if value is None:
        if required:
            raise RequestError("invalid-request", f"missing required field {key!r}")
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError("invalid-request", f"field {key!r} must be an integer")
    if minimum is not None and value < minimum:
        raise RequestError(
            "invalid-request", f"field {key!r} must be >= {minimum}, got {value}"
        )
    if maximum is not None and value > maximum:
        raise RequestError(
            "invalid-request", f"field {key!r} must be <= {maximum}, got {value}"
        )
    return value


def get_float(request: Mapping[str, object], key: str, default: Optional[float] = None,
              *, minimum: Optional[float] = None,
              exclusive_minimum: bool = False) -> Optional[float]:
    value = request.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError("invalid-request", f"field {key!r} must be a number")
    value = float(value)
    if minimum is not None:
        if exclusive_minimum and value <= minimum:
            raise RequestError(
                "invalid-request", f"field {key!r} must be > {minimum}, got {value}"
            )
        if not exclusive_minimum and value < minimum:
            raise RequestError(
                "invalid-request", f"field {key!r} must be >= {minimum}, got {value}"
            )
    return value


def get_bool(request: Mapping[str, object], key: str, default: bool = False) -> bool:
    value = request.get(key, default)
    if not isinstance(value, bool):
        raise RequestError("invalid-request", f"field {key!r} must be a boolean")
    return value


__all__ = [
    "ERROR_CODES",
    "MAX_REQUEST_WORKERS",
    "RETRYABLE_CODES",
    "RequestError",
    "get_bool",
    "get_float",
    "get_int",
    "get_str",
    "ok_response",
]
