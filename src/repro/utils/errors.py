"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError` so that callers
can catch everything produced by this package with a single ``except``.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ValidationError(ReproError, ValueError):
    """An input failed validation (bad value, inconsistent arguments)."""


class ShapeError(ValidationError):
    """An array or matrix has an incompatible shape."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative routine failed to converge within its budget."""


class NotFittedError(ReproError, RuntimeError):
    """A model method requiring a prior ``fit`` was called before fitting."""


class ShardError(ReproError, RuntimeError):
    """A sharded dispatch failed (worker exception, crashed process, or
    timeout).  Raised by :mod:`repro.shard` with the shard index and the
    original failure message, so a poisoned shard surfaces as one clean
    error instead of a hung pool.  The serve tier's wire errors
    (:class:`~repro.serve.protocol.FrameError`) subclass it, and the
    router raises it for a daemon lost mid-request.

    Carries structured context alongside the message so callers (and the
    resilience layer's logs) can reason about the failure without parsing
    strings: the dispatching ``backend`` name (``"process"`` for the
    process pool), the ``shard_index`` inside its
    :class:`~repro.shard.plan.ShardPlan`, the ``worker`` identifier (the
    daemon address in router failures; ``None`` for the anonymous pool
    processes), how many ``attempts`` had been made when the error was
    raised, and the ``elapsed`` seconds since the first attempt began.
    All fields are optional — bare ``ShardError("message")`` raises keep
    working.
    """

    def __init__(
        self,
        message: str,
        *,
        backend=None,
        shard_index=None,
        worker=None,
        attempts=None,
        elapsed=None,
    ) -> None:
        super().__init__(message)
        self.backend = backend
        self.shard_index = shard_index
        self.worker = worker
        self.attempts = attempts
        self.elapsed = elapsed

    def context(self) -> dict:
        """The structured fields as a dict (``None`` entries dropped)."""
        fields = {
            "backend": self.backend,
            "shard_index": self.shard_index,
            "worker": self.worker,
            "attempts": self.attempts,
            "elapsed": self.elapsed,
        }
        return {key: value for key, value in fields.items() if value is not None}

    def __str__(self) -> str:
        message = super().__str__()
        context = self.context()
        if not context:
            return message
        detail = ", ".join(f"{key}={value}" for key, value in context.items())
        return f"{message} [{detail}]"


class ServeError(ReproError, RuntimeError):
    """A serving-daemon front-door failure (:mod:`repro.serve`).

    These errors travel the wire as structured ``(kind, message,
    fields)`` triples rather than pickled exception objects, so a client
    never has to unpickle arbitrary classes to learn why its request was
    refused.  ``fields`` carries machine-readable context (queue depth,
    tenant, elapsed seconds, ...) next to the human message.
    """

    #: wire tag used by :mod:`repro.serve.protocol`; subclasses override.
    kind = "serve"

    def __init__(self, message: str, **fields) -> None:
        super().__init__(message)
        self.fields = {
            key: value for key, value in fields.items() if value is not None
        }

    def __str__(self) -> str:
        message = super().__str__()
        if not self.fields:
            return message
        detail = ", ".join(
            f"{key}={value}" for key, value in sorted(self.fields.items())
        )
        return f"{message} [{detail}]"


class ServerOverloaded(ServeError):
    """Admission control shed the request: the daemon's bounded queue
    (depth or in-flight bytes) is full.  Shedding is deliberate and
    *fast* — the alternative is unbounded memory growth and a hang for
    every client; retry later, ideally with backoff."""

    kind = "overloaded"


class TenantQuotaExceeded(ServerOverloaded):
    """The request was shed by the *tenant's* token bucket, not by
    global pressure — this tenant is over its admission rate while the
    server itself may be healthy.  Subclasses :class:`ServerOverloaded`
    so generic shed handling catches both."""

    kind = "quota"


class ServerDraining(ServeError):
    """The daemon received a shutdown request (SIGTERM) and is draining:
    in-flight work finishes, new admissions are refused."""

    kind = "draining"


class DeadlineExceeded(ServeError):
    """The request's deadline expired before a result was produced —
    while queued (never started) or while running (the shard dispatches
    it owned were reclaimed through their per-attempt deadlines).  The
    client always gets this structured reply instead of a hang."""

    kind = "deadline"


class NoHealthyReplica(ServeError):
    """The routing front tier could not place a request: every replica
    of its key is dead, draining, breaker-open, or failed the dispatch
    within the deadline.  Carries the per-replica outcomes in
    ``fields`` so the failure is attributable, never silent."""

    kind = "no-replica"
