"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch the whole family with a single ``except`` clause while
still being able to discriminate subsystems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class MeshError(ReproError):
    """Invalid mesh construction or query (bad extents, unknown entity)."""


class ElementError(ReproError):
    """Unknown finite element family/order or invalid reference query."""


class AssemblyError(ReproError):
    """Assembly failure: shape mismatch, unknown form, bad coefficients."""


class SolverError(ReproError):
    """Linear solver failure (breakdown, non-convergence when strict)."""


class ConvergenceError(SolverError):
    """Iterative solver exhausted its iteration budget without converging."""

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class PartitionError(ReproError):
    """Invalid partitioning request (more parts than cells, bad weights)."""


class SimMPIError(ReproError):
    """Errors inside the virtual-time MPI runtime."""


class CommunicatorError(SimMPIError):
    """Invalid communicator usage (bad rank, mismatched collective)."""


class DeadlockError(SimMPIError):
    """The runtime detected that all live ranks are blocked on receives."""


class RankFailedError(SimMPIError):
    """An injected fault killed a rank mid-run (the spot-reclaim analogue).

    Raised out of the failing rank's next communication operation so that
    in-flight collectives (CG allreduces, assembly exchanges) abort
    cleanly instead of hanging; the launcher re-raises it as the run's
    root cause on every surviving rank's behalf.
    """

    def __init__(self, message: str, rank: int, step: int | None = None,
                 phase: str | None = None, kind: str | None = None):
        super().__init__(message)
        self.rank = rank
        self.step = step
        self.phase = phase
        # The fault kind that took the rank out ("spot_reclaim" vs
        # "rank_kill"): reclaim-driven kills are re-plan candidates the
        # resilient runner restarts without a backoff penalty.
        self.kind = kind


class LaunchError(SimMPIError):
    """The SPMD launcher could not start (or lost) ranks.

    This is the error the paper hit on *ellipse* above 512 ranks, where
    ``mpiexec`` could not initialise the remote daemons.
    """


class RecordingError(SimMPIError):
    """A schedule recording is malformed, corrupted, or truncated.

    Raised by :meth:`~repro.simmpi.recording.ScheduleRecording.from_bytes`
    when any header field, digest, or payload byte fails validation —
    the recording store treats it as a cache miss and drops the entry.
    """


class ReplayIncompatibleError(RecordingError):
    """A recording cannot be replayed on the requested topology.

    The recorded schedule froze ``algorithm="auto"`` collective choices
    that the target platform's selector would resolve differently, so a
    replay would walk the wrong message pattern; callers fall back to
    full simulation (see ``docs/replay.md``).
    """


class NetworkError(ReproError):
    """Network model misuse or injected fabric failure.

    The InfiniBand data-volume cap on *lagrange* surfaces as a subclass.
    """


class DataVolumeExceededError(NetworkError):
    """Injected failure: a rank exceeded the fabric's data-volume budget."""

    def __init__(self, message: str, rank: int, volume_bytes: int, limit_bytes: int):
        super().__init__(message)
        self.rank = rank
        self.volume_bytes = volume_bytes
        self.limit_bytes = limit_bytes


class PlatformError(ReproError):
    """Invalid platform specification or unsupported platform request."""


class ProvisioningError(PlatformError):
    """The provisioning planner could not satisfy the dependency closure."""


class SchedulerError(PlatformError):
    """Batch scheduler rejected or failed a job."""


class CloudError(ReproError):
    """EC2 simulation errors (bad instance type, exhausted capacity)."""


class SpotUnavailableError(CloudError):
    """A spot request could not be (fully) fulfilled."""


class BillingError(CloudError):
    """Inconsistent billing operations (double-stop, negative usage)."""


class CostModelError(ReproError):
    """Invalid cost model parameters or queries."""


class ExperimentError(ReproError):
    """Harness-level error: malformed experiment definition or results."""


class ResilienceError(ReproError):
    """Fault-plan or restart-protocol misuse (bad event, missing state)."""


class RetriesExhaustedError(ResilienceError):
    """The resilient runner's retry budget ran out before completion."""

    def __init__(self, message: str, attempts: int, failed_ranks: list[int]):
        super().__init__(message)
        self.attempts = attempts
        self.failed_ranks = failed_ranks


class ObservabilityError(ReproError):
    """Misuse of the observability layer (span stack, metrics, exporters)."""


class BrokerError(ReproError):
    """Invalid brokering request or an unsatisfiable placement search."""


class SweepCacheError(ReproError):
    """Sweep-cache misuse (unwritable directory, corrupt entry)."""


class ServiceError(ReproError):
    """Broker-service misuse (bad submission, transport failure, shutdown)."""


class AdmissionDenied(ServiceError):
    """The service refused a submission at the admission-control gate.

    ``reason`` names which guard fired — ``"rate"`` (the tenant's
    token bucket is empty), ``"quota"`` (the job would exceed the
    tenant's concurrent-point allowance), or ``"backpressure"`` (the
    global queue is full).  ``retry_after_s`` is the controller's hint
    for when a retry could succeed (None when it depends on other
    tenants draining the queue).
    """

    def __init__(self, message: str, tenant: str, reason: str,
                 retry_after_s: float | None = None):
        super().__init__(message)
        self.tenant = tenant
        self.reason = reason
        self.retry_after_s = retry_after_s


class JobNotFoundError(ServiceError):
    """No job with the requested id (or id prefix) exists on the service."""


class JobCancelledError(ServiceError):
    """The awaited job was cancelled before it produced a result."""
