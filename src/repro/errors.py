"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class TypeMismatchError(ReproError):
    """An IR expression was built or evaluated with incompatible types."""


class EvaluationError(ReproError):
    """An IR or ISA interpreter failed to evaluate an expression."""


class LoweringError(ReproError):
    """The frontend could not lower an algorithm to vector IR."""


class SynthesisError(ReproError):
    """A synthesis stage failed to find an equivalent implementation."""


class UnsupportedExpressionError(SynthesisError):
    """The optimizer does not handle this expression shape."""


class RealizationError(ReproError):
    """A target's swizzle grammar broke its contract: a realization
    embeds a placeholder that its sketch does not hold, so a
    concretization still holds one.

    Not a :class:`SynthesisError`: the search did not fail to find an
    implementation, the grammar is wrong, so the pipeline degrades the
    expression to the verified baseline and logs it.
    """


class PatternError(ReproError):
    """A baseline rewrite pattern was malformed or misapplied."""


class SimulationError(ReproError):
    """The cycle simulator was given an invalid program or machine state."""


class ScheduleError(ReproError):
    """A frontend schedule directive was invalid for the given Func."""


class CancelledError(ReproError):
    """A compilation was cooperatively cancelled before it completed."""


class DeadlineExceededError(CancelledError):
    """A compilation ran past its deadline and was cancelled."""


class ProtocolError(ReproError):
    """A service request or response violated the wire protocol."""


class ServiceError(ReproError):
    """The compilation service rejected or failed a request."""


class QueueFullError(ServiceError):
    """The service job queue is at capacity; retry later.

    ``retry_after_s`` is the server's backpressure hint (surfaced as the
    ``Retry-After`` header on the 503 response); clients that retry
    should sleep at least that long instead of their own schedule.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class NoHealthyNodeError(ServiceError):
    """The cluster router found no healthy worker node to dispatch to."""


class ServiceUnavailable(ServiceError):
    """The server stayed unreachable across the client's retry budget."""


class CircuitOpenError(ServiceError):
    """The scheduler's circuit breaker is open and shedding load.

    ``retry_after_s`` tells clients when a half-open probe will next be
    admitted; the HTTP server surfaces it as a ``Retry-After`` header on
    the 503 response.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s
