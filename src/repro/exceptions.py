"""Exception hierarchy and error taxonomy for the :mod:`repro` library.

All library-raised errors derive from :class:`ReproError`, so callers can
``except ReproError`` to catch any failure coming from this package while
letting programming errors (``TypeError`` and friends raised by Python
itself) propagate.

Every class carries a stable machine-readable ``code`` that the API layer
serializes into failed :class:`repro.api.results.QueryResult` envelopes.
:func:`error_code` maps *any* exception — including builtins that leak out
of query execution, like the ``KeyError`` for an unknown object id — onto
this taxonomy, so batch consumers can branch on codes instead of parsing
message strings.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""

    code: str = "repro_error"


class DimensionalityError(ReproError):
    """Two geometric arguments disagree on the number of dimensions."""

    code = "dimensionality_mismatch"

    def __init__(self, expected: int, actual: int, what: str = "argument"):
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"{what} has {actual} dimension(s), expected {expected}"
        )


class InvalidProbabilityError(ReproError):
    """A probability or probability vector is outside [0, 1] / not normalized."""

    code = "invalid_probability"


class NotANonAnswerError(ReproError):
    """The designated object is actually an answer to the query.

    The causality and responsibility problem (Definitions 5 and 6 of the
    paper) is only defined for *non-answers*; asking for the causes of an
    answer is a caller error that we surface explicitly rather than
    returning an empty-but-plausible result.
    """

    code = "not_a_non_answer"


class EmptyDatasetError(ReproError):
    """An operation that requires at least one object received none."""

    code = "empty_dataset"


class SpecMismatchError(ReproError, TypeError):
    """A query spec was executed against the wrong kind of session.

    Also a :class:`TypeError`: the spec/session pairing is a type-level
    contract, and callers may reasonably catch it as such.
    """

    code = "spec_mismatch"


class InvalidSpecError(ReproError, ValueError):
    """A query spec payload is malformed (bad field, bad value, bad shape).

    Also a :class:`ValueError` so pre-taxonomy callers that catch
    ``ValueError`` around :func:`repro.engine.spec.spec_from_dict` keep
    working.
    """

    code = "invalid_spec"


class UnknownQueryKindError(InvalidSpecError):
    """A spec payload names a query kind absent from the registry."""

    code = "unknown_query_kind"


class UnknownObjectError(ReproError, KeyError):
    """A query references an object id the dataset does not contain.

    Also a :class:`KeyError` for pre-taxonomy callers.
    """

    code = "unknown_object"

    def __str__(self) -> str:  # KeyError repr-quotes its message
        return self.args[0] if self.args else ""


class ServeError(ReproError):
    """Base class for errors raised by the :mod:`repro.serve` layer."""

    code = "serve_error"


class OverloadedError(ServeError):
    """The server refused admission: queue bound or write queue exceeded.

    Carries a ``retry_after_s`` hint (the server's estimate of when a
    retry is likely to be admitted); serialized into the 429-style
    ``overloaded`` envelope / ``Retry-After`` HTTP header rather than
    dropping the connection.
    """

    code = "overloaded"

    def __init__(self, message: str = "server overloaded",
                 retry_after_s: float = 0.1):
        self.retry_after_s = float(retry_after_s)
        super().__init__(message)


class DeadlineExceededError(ServeError):
    """A request's ``deadline_ms`` budget expired before it could finish.

    Raised at the resilience checkpoints — admission-queue wait, the
    engine dispatch point, the single-writer drain — so work that can no
    longer be useful is never started.  Serialized as a structured
    ``deadline_exceeded`` envelope (HTTP 504), never a dropped
    connection or a silently late answer.
    """

    code = "deadline_exceeded"


class DatasetDegradedError(ServeError):
    """The dataset's single writer has died; the dataset is read-only.

    Reads keep serving the last successfully published snapshot; every
    mutation is refused with this error until the server is restarted.
    Surfaced in ``/healthz``/``stats`` as ``status: "degraded"``.
    """

    code = "degraded"


class WorkerCrashError(ReproError):
    """A batch executor lost worker process(es) and recovery failed.

    The :class:`~repro.engine.executor.ParallelExecutor` respawns a
    crashed pool once and resubmits only the incomplete chunks; a second
    crash within the same batch raises this instead of hanging.
    """

    code = "worker_crash"


class FaultInjectionError(ReproError):
    """An injected fault fired (deterministic chaos testing only).

    Raised by :mod:`repro.faults` seams whose action is ``error`` — e.g.
    the ``writer.apply`` seam — never by production code paths.
    """

    code = "fault_injected"


class UnknownDatasetError(ServeError, KeyError):
    """A request names a dataset the service does not host."""

    code = "unknown_dataset"

    def __str__(self) -> str:  # KeyError repr-quotes its message
        return self.args[0] if self.args else ""


class RemoteProtocolError(ServeError):
    """The remote peer sent bytes that do not parse as protocol frames,
    or closed the connection mid-request."""

    code = "remote_protocol"


class InvalidRequestError(ServeError, ValueError):
    """A protocol request frame is malformed (bad op, missing field)."""

    code = "invalid_request"


class RemoteQueryError(ServeError):
    """A remote request or query failed server-side.

    Carries the *server's* taxonomy code (the instance ``code`` shadows
    the class attribute), so ``error_code`` on a re-raised remote failure
    reports what actually went wrong over there, not a generic wrapper.
    """

    code = "remote_query"

    def __init__(
        self,
        code: str = "remote_query",
        remote_type: str = "Exception",
        message: str = "",
    ):
        self.code = code
        self.remote_type = remote_type
        super().__init__(f"[{code}] {remote_type}: {message}")


# Codes for non-repro exceptions that can escape query execution.
_BUILTIN_CODES = (
    (KeyError, "unknown_key"),
    (ValueError, "invalid_value"),
    (TypeError, "type_error"),
    (OSError, "io_error"),
)


def error_code(exc: BaseException) -> str:
    """The stable taxonomy code for *exc* (``internal_error`` fallback)."""
    if isinstance(exc, ReproError):
        return exc.code
    for cls, code in _BUILTIN_CODES:
        if isinstance(exc, cls):
            return code
    return "internal_error"
