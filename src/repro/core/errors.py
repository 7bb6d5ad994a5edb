"""Structured exception taxonomy for the whole harness.

Every failure the harness can produce is classifiable: each exception
class carries a stable ``kind`` string plus a free-form ``details``
dict, and :func:`classify` maps *any* exception (ours or foreign) onto
one of those kind strings.  The job layer stamps the kind onto its
failure events, so a batch's JSONL audit trail attributes every retry
and degradation to a machine-readable cause instead of an opaque
``repr``.

The taxonomy replaces the ad-hoc ``RuntimeError``\\ s that used to mark
internal invariant violations (memory-journal misuse, checkpoint
corruption, job failures); ``SimFault``/``ProgramExit`` stay separate
on purpose -- they model *simulated machine* behaviour, not harness
failures (see :mod:`repro.cpu.exceptions`).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for structured harness failures.

    ``kind`` is a stable, machine-readable failure class; ``details``
    carries whatever site-specific context the raiser attached
    (program name, fault site, spec key, ...).
    """

    kind = 'harness_error'

    def __init__(self, message='', **details):
        super().__init__(message or self.kind)
        self.details = details

    def to_dict(self):
        return {'kind': self.kind, 'message': str(self),
                'details': dict(self.details)}


class EngineError(ReproError):
    """An internal error escaped an engine run (not a simulated fault)."""

    kind = 'engine_internal'


class WatchdogTimeout(ReproError):
    """An ambient (job-level) deadline expired inside an engine run.

    Raised -- not truncated -- so the job layer can account for it the
    same way the pooled per-job timeout is accounted for.
    """

    kind = 'watchdog_timeout'


class CheckpointCorruption(ReproError):
    """A spawn checkpoint failed its integrity check at restore time."""

    kind = 'checkpoint_corrupt'


class WorkerCrash(ReproError):
    """A job-pool worker died (or was made to die) mid-job."""

    kind = 'worker_crash'


class JournalError(ReproError, RuntimeError):
    """Memory-journal protocol misuse (begin/rollback imbalance).

    Also a ``RuntimeError`` for compatibility with callers that caught
    the ad-hoc errors this class replaced.
    """

    kind = 'journal_state'


class InjectedFault(ReproError):
    """A fault deliberately raised by the fault-injection harness.

    Deliberately *not* a subclass of any recoverable simulator
    exception: injected faults must travel the same unexpected-error
    paths a real internal bug would.
    """

    kind = 'injected_fault'


class JobExecutionError(ReproError):
    """A job failed every allowed attempt.

    Always spec-attributed: carries the originating :class:`JobSpec`,
    its content-hash ``key`` and the total attempt count, whichever
    failure path (serial, pooled, broken-pool recovery) raised it.
    """

    kind = 'job_failed'

    def __init__(self, spec, attempts, reason):
        key = getattr(spec, 'key', None)
        super().__init__(
            'job %s failed after %d attempt(s): %s'
            % (spec, attempts, reason),
            key=key, attempts=attempts, reason=reason)
        self.spec = spec
        self.key = key
        self.attempts = attempts
        self.reason = reason


def classify(exc):
    """Map any exception to a stable failure-kind string."""
    if isinstance(exc, ReproError):
        return exc.kind
    # Late imports keep this module dependency-free (it sits below
    # everything else in the package graph).
    from repro.cpu.exceptions import ProgramExit, SimFault
    if isinstance(exc, SimFault):
        return 'sim_fault'
    if isinstance(exc, ProgramExit):
        return 'program_exit'
    try:
        from concurrent.futures import TimeoutError as FutureTimeout
        from concurrent.futures.process import BrokenProcessPool
        if isinstance(exc, BrokenProcessPool):
            return 'worker_crash'
        # Distinct from the builtin TimeoutError before Python 3.11.
        if isinstance(exc, FutureTimeout):
            return 'timeout'
    except ImportError:                          # pragma: no cover
        pass
    if isinstance(exc, TimeoutError):
        return 'timeout'
    if isinstance(exc, MemoryError):
        return 'resource_exhausted'
    if isinstance(exc, (OSError, IOError)):
        return 'os_error'
    if isinstance(exc, (ValueError, TypeError, KeyError, IndexError,
                        AttributeError)):
        return 'internal_bug'
    return 'unclassified'
