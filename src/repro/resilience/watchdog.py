"""Ambient job deadlines for in-process runs.

The job pool installs a :func:`deadline` around serial in-process
execution so ``JobPool(jobs=1, timeout=...)`` behaves like pooled mode.
An engine started inside the scope drives its taken path in
``CHECK_INTERVAL``-instruction chunks and polls the clock between
them; expiry *raises* :class:`~repro.core.errors.WatchdogTimeout`,
which the pool accounts for exactly like a pooled future timeout
(retry, then a structured spec-attributed failure).

The check is cooperative, so enforcement granularity is
``CHECK_INTERVAL`` retired instructions (milliseconds of wall time on
either backend).  A run adds zero per-instruction overhead outside a
deadline, and the dispatched instruction sequence is the same either
way, so a run that finishes gives the same result with or without one.
"""

from __future__ import annotations

import contextlib
import contextvars
import time

CHECK_INTERVAL = 10_000

_job_deadline = contextvars.ContextVar('repro_job_deadline',
                                       default=None)


@contextlib.contextmanager
def deadline(seconds):
    """Ambient deadline scope: engines started inside raise
    :class:`WatchdogTimeout` once ``seconds`` of wall time elapse."""
    if seconds is None:
        yield
        return
    token = _job_deadline.set(time.monotonic() + seconds)
    try:
        yield
    finally:
        _job_deadline.reset(token)


def current_deadline():
    """The ambient monotonic deadline, or None."""
    return _job_deadline.get()
