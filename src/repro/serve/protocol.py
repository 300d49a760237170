"""Wire protocol of the schedule server: schemas, validation, error codes.

Everything the server reads off a socket is untrusted; this module is the
single place where raw JSON becomes typed values.  Validation is strict
in the same spirit as :meth:`repro.service.api.ProvisionRequest.from_dict`
(which it reuses): unknown keys, wrong-typed fields and oversized batches
raise a :class:`ProtocolError` naming the offending key, and nothing
mis-typed ever reaches the planner.

Every response body is a JSON object carrying the protocol version::

    {"protocol": 1, "ok": true, ...}                       # success
    {"protocol": 1, "ok": false,
     "error": {"code": "overloaded", "message": "..."}}    # failure

Error codes are versioned contract, not prose: clients branch on
``error.code`` (see :data:`RETRYABLE_CODES`), never on the message text.
The HTTP status of each code is fixed by :data:`ERROR_STATUS`.

Retryable errors (``overloaded``, ``draining``) may additionally carry a
``retry_after_s`` hint inside the ``error`` object — seconds the server
suggests waiting before the retry, derived from its current queue depth.
The field is additive and optional (protocol version stays 1): old
clients ignore it, new clients fall back to their own seeded backoff
when it is absent.

**Trace correlation** rides the same additive-field policy: a ``POST``
body may carry ``trace_id`` (and ``parent_id``, the caller's span id) —
:func:`pop_trace` strips and validates them before schema validation,
the server adopts the ids via :mod:`repro.obs.context`, and success
envelopes echo ``trace_id`` back.  Clients generate-or-forward: an
active :func:`repro.obs.context.trace_context` is forwarded, otherwise
the client mints a fresh id per logical call (stable across its
retries), so every request is correlatable end to end.

Domain failures — an infeasible duty budget, impossible class parameters —
are *not* protocol errors: they travel as per-request ``error`` fields
inside a ``200`` response, exactly like a ``repro provision`` result line.
Protocol errors mean the request never made it to the planner at all.
"""

from __future__ import annotations

import json
from typing import Any

from repro.service.api import ProvisionRequest

__all__ = ["PROTOCOL_VERSION", "MAX_BATCH", "ProtocolError",
           "ERR_BAD_REQUEST", "ERR_NOT_FOUND", "ERR_METHOD_NOT_ALLOWED",
           "ERR_PAYLOAD_TOO_LARGE", "ERR_OVERLOADED", "ERR_DRAINING",
           "ERR_DEADLINE_EXCEEDED", "ERR_INTERNAL", "ERROR_STATUS",
           "RETRYABLE_CODES", "MAX_TRACE_ID_LEN", "ok_doc", "error_doc",
           "retry_after_hint", "parse_body", "pop_trace",
           "parse_provision_body", "parse_plan_body"]

#: Version stamped into every response body.  Bump on any incompatible
#: change to the envelope, the error codes or the endpoint schemas.
PROTOCOL_VERSION = 1

#: Largest ``requests`` list one ``/provision`` call may carry; bigger
#: batches must be split client-side (the admission queue bounds work in
#: requests, so one request must stay boundedly sized too).
MAX_BATCH = 256

# -- versioned error codes (the client contract) -----------------------
#: Malformed body: not JSON, wrong shape, unknown or mis-typed field.
ERR_BAD_REQUEST = "bad-request"
#: No such endpoint.
ERR_NOT_FOUND = "not-found"
#: Endpoint exists but not for this HTTP method.
ERR_METHOD_NOT_ALLOWED = "method-not-allowed"
#: Body exceeds the server's body limit (1 MiB).
ERR_PAYLOAD_TOO_LARGE = "payload-too-large"
#: Admission bound reached; the request was refused, not queued.  Safe to
#: retry with backoff.
ERR_OVERLOADED = "overloaded"
#: Server is draining for shutdown; it will answer in-flight work but
#: admits nothing new.  Safe to retry against a replacement instance.
ERR_DRAINING = "draining"
#: The request was admitted but exceeded its processing deadline.
ERR_DEADLINE_EXCEEDED = "deadline-exceeded"
#: Unexpected server-side failure (a bug — the body carries no detail).
ERR_INTERNAL = "internal"

#: Error code -> HTTP status line of the response that carries it.
ERROR_STATUS = {
    ERR_BAD_REQUEST: 400,
    ERR_NOT_FOUND: 404,
    ERR_METHOD_NOT_ALLOWED: 405,
    ERR_PAYLOAD_TOO_LARGE: 413,
    ERR_OVERLOADED: 503,
    ERR_DRAINING: 503,
    ERR_DEADLINE_EXCEEDED: 504,
    ERR_INTERNAL: 500,
}

#: Codes a client may blindly retry (with backoff): the request was never
#: processed, so a retry cannot double-apply anything.
RETRYABLE_CODES = frozenset({ERR_OVERLOADED, ERR_DRAINING})


class ProtocolError(ValueError):
    """A request the server refuses before any planner work happens."""

    def __init__(self, code: str, message: str, *,
                 retry_after_s: float | None = None):
        if code not in ERROR_STATUS:
            raise ValueError(f"unknown protocol error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message
        self.retry_after_s = retry_after_s

    @property
    def status(self) -> int:
        """The HTTP status this error is served with."""
        return ERROR_STATUS[self.code]

    def to_doc(self) -> dict[str, Any]:
        """The response body for this error."""
        return error_doc(self.code, self.message,
                         retry_after_s=self.retry_after_s)


def ok_doc(**payload: Any) -> dict[str, Any]:
    """A success envelope: ``{"protocol": N, "ok": true, **payload}``."""
    return {"protocol": PROTOCOL_VERSION, "ok": True, **payload}


def error_doc(code: str, message: str, *,
              retry_after_s: float | None = None) -> dict[str, Any]:
    """A failure envelope carrying one versioned error code.

    *retry_after_s* (retryable codes only, optional) is the server's
    backoff hint in seconds; ``None`` omits the field entirely.
    """
    error: dict[str, Any] = {"code": code, "message": message}
    if retry_after_s is not None:
        error["retry_after_s"] = retry_after_s
    return {"protocol": PROTOCOL_VERSION, "ok": False, "error": error}


def retry_after_hint(doc: Any) -> float | None:
    """The ``error.retry_after_s`` hint of a response document, if sane.

    Returns ``None`` for non-error documents, absent hints and anything
    mis-typed or negative — a malformed hint must never turn into a
    client sleep.
    """
    if not isinstance(doc, dict):
        return None
    error = doc.get("error")
    if not isinstance(error, dict):
        return None
    hint = error.get("retry_after_s")
    if isinstance(hint, (int, float)) and not isinstance(hint, bool) \
            and hint >= 0:
        return float(hint)
    return None


#: Longest accepted ``trace_id``/``parent_id`` value — ids are opaque
#: client-chosen strings, but they end up in logs and span files, so
#: they stay bounded and single-line.
MAX_TRACE_ID_LEN = 128


def pop_trace(doc: dict[str, Any]) -> tuple[str | None, str | None]:
    """Strip the additive trace envelope fields from a request body.

    Returns ``(trace_id, parent_id)`` (either may be None) and removes
    the keys from *doc* so endpoint schema validation stays strict about
    everything else.  Mis-typed, empty, oversized or non-printable
    values raise bad-request — these strings flow into logs verbatim.
    """
    values = []
    for key in ("trace_id", "parent_id"):
        value = doc.pop(key, None)
        if value is None:
            values.append(None)
            continue
        if not isinstance(value, str) or not value \
                or len(value) > MAX_TRACE_ID_LEN \
                or not value.isprintable():
            raise ProtocolError(
                ERR_BAD_REQUEST,
                f"field {key!r} must be a printable string of at most "
                f"{MAX_TRACE_ID_LEN} characters")
        values.append(value)
    return values[0], values[1]


def parse_body(raw: bytes) -> dict[str, Any]:
    """Decode a request body into a JSON object, or raise bad-request."""
    if not raw:
        raise ProtocolError(ERR_BAD_REQUEST, "request body required")
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(ERR_BAD_REQUEST, f"body is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ProtocolError(ERR_BAD_REQUEST, "body must be a JSON object")
    return doc


def _check_flag(doc: dict[str, Any], key: str, default: bool) -> bool:
    value = doc.get(key, default)
    if not isinstance(value, bool):
        raise ProtocolError(ERR_BAD_REQUEST,
                            f"field {key!r} must be a boolean, "
                            f"got {type(value).__name__}")
    return value


def parse_provision_body(doc: dict[str, Any]
                         ) -> tuple[list[ProvisionRequest], bool]:
    """Validate a ``POST /provision`` body.

    Schema: ``{"requests": [{n, d, max_duty[, balanced]}, ...]``
    (1..:data:`MAX_BATCH` items)``[, "include_schedules": bool]}``.
    Returns ``(requests, include_schedules)``.
    """
    unknown = set(doc) - {"requests", "include_schedules"}
    if unknown:
        raise ProtocolError(ERR_BAD_REQUEST,
                            f"body has unknown fields: {sorted(unknown)}")
    entries = doc.get("requests")
    if not isinstance(entries, list) or not entries:
        raise ProtocolError(ERR_BAD_REQUEST,
                            "field 'requests' must be a non-empty list")
    if len(entries) > MAX_BATCH:
        raise ProtocolError(ERR_BAD_REQUEST,
                            f"batch of {len(entries)} exceeds the limit of "
                            f"{MAX_BATCH} requests per call")
    requests = []
    for i, entry in enumerate(entries):
        try:
            requests.append(ProvisionRequest.from_dict(entry))
        except ValueError as exc:
            raise ProtocolError(ERR_BAD_REQUEST, f"requests[{i}]: {exc}")
    return requests, _check_flag(doc, "include_schedules", True)


def parse_plan_body(doc: dict[str, Any]) -> tuple[ProvisionRequest, bool]:
    """Validate a ``POST /plan`` body.

    Schema: one request object — ``{n, d, max_duty[, balanced]
    [, include_schedule: bool]}``.  Returns ``(request,
    include_schedule)``.
    """
    include = _check_flag(doc, "include_schedule", True)
    fields = {k: v for k, v in doc.items() if k != "include_schedule"}
    try:
        return ProvisionRequest.from_dict(fields), include
    except ValueError as exc:
        raise ProtocolError(ERR_BAD_REQUEST, str(exc))
