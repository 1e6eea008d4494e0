"""Exception hierarchy for the Everest reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError` so
applications can catch library failures with a single ``except`` clause
while still distinguishing the common failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError, ValueError):
    """An invalid parameter or inconsistent configuration was supplied.

    Also a :class:`ValueError`: callers validating untrusted input
    (e.g. registry query strings like ``"count[car]"``) can catch the
    standard exception without importing the library hierarchy.
    """


class VideoError(ReproError):
    """A video source could not be generated, decoded, or addressed."""


class FrameIndexError(VideoError, IndexError):
    """A frame index fell outside the video's ``[0, num_frames)`` range."""

    def __init__(self, index: int, num_frames: int):
        super().__init__(
            f"frame index {index} out of range for video with "
            f"{num_frames} frames"
        )
        self.index = index
        self.num_frames = num_frames

    def __reduce__(self):
        # Custom __init__ signature: rebuild from (index, num_frames)
        # so the error survives a process-pool round trip intact.
        return (type(self), (self.index, self.num_frames))


class ModelError(ReproError):
    """A model could not be built, trained, or evaluated."""


class NotFittedError(ModelError):
    """A model was used for inference before it was trained."""


class ShapeError(ModelError, ValueError):
    """An array had an incompatible shape for the requested operation."""


class OracleError(ReproError):
    """The oracle (ground-truth scorer) failed or was misused."""


class OracleBudgetExceededError(OracleError):
    """An oracle-invocation budget was exhausted during cleaning."""

    def __init__(self, budget: int):
        super().__init__(f"oracle invocation budget of {budget} frames exhausted")
        self.budget = budget

    def __reduce__(self):
        # Custom __init__ signature: rebuild from the budget so pool
        # workers re-raise an identical error in the parent process.
        return (type(self), (self.budget,))


class CorpusError(ReproError):
    """A video corpus was malformed or its members were incompatible."""


class UncertainRelationError(ReproError):
    """An x-tuple or uncertain relation violated a structural invariant."""


class CheckpointError(ReproError):
    """A streaming checkpoint was missing, corrupt, or incompatible."""


class QueryError(ReproError):
    """A Top-K query was malformed or could not be answered."""


class ServiceError(ReproError):
    """The concurrent query service failed or was misused."""


class AdmissionError(ServiceError):
    """The service refused a submission (admission control).

    Raised when the pending-query queue is at ``max_pending`` — or, in
    subclasses, when a gateway quota trips; callers should back off
    and resubmit rather than queue without bound. ``reason`` is a
    stable machine-readable code (``"max_pending"``, ``"rate"``,
    ``"max_inflight"``) the gateway exports per tenant;
    ``retry_after`` is a backoff hint in seconds when one is known.
    """

    def __init__(
        self,
        message: str,
        *,
        reason: str = "max_pending",
        tenant: "str | None" = None,
        retry_after: "float | None" = None,
    ):
        super().__init__(message)
        self.reason = reason
        self.tenant = tenant
        self.retry_after = retry_after


class ServiceClosedError(ServiceError):
    """An operation was attempted on a closed query service."""


class GatewayError(ServiceError):
    """The HTTP/JSON gateway failed or was asked something malformed."""


class QuotaExceededError(GatewayError, AdmissionError):
    """A per-tenant gateway quota refused the request (HTTP 429).

    Raised by the token-bucket rate limiter (``reason="rate"``) or the
    max-inflight cap (``reason="max_inflight"``) before the request
    ever reaches the scheduler, so a quota rejection never perturbs
    service state or ledgers.
    """


class ResultExpiredError(GatewayError, KeyError):
    """An async query result outlived its TTL and was evicted.

    Also a :class:`KeyError`: the id no longer names anything. Maps to
    HTTP 410 — distinct from an id that never existed (404).
    """

    def __init__(self, result_id: str):
        # KeyError repr-quotes its args; format the message ourselves.
        super().__init__(
            f"result {result_id!r} expired and was evicted; "
            f"poll within the gateway's result TTL")
        self.result_id = result_id

    def __str__(self) -> str:
        return self.args[0]


class GuaranteeUnreachableError(QueryError):
    """The requested probabilistic guarantee cannot be met.

    Raised when every uncertain tuple has been cleaned and the resulting
    (fully certain) relation still cannot produce ``K`` results — e.g.
    the video has fewer distinct frames than ``K``.
    """
