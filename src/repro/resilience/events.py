"""Process-local resilience event log.

Degradations, injected faults and backend fallbacks are *survived*,
so by design they leave no trace in a :class:`RunResult` (degraded
runs must stay byte-identical to clean reference runs).  This
recorder is where they leave their trace instead: a bounded in-process
ring of structured events that tests, benchmarks and operators can
inspect after the fact.

Events recorded inside pool *worker processes* stay in those processes;
the parent-side audit trail for batches is the
:class:`~repro.jobs.metrics.RunMetrics` event log.  Serial (in-process)
execution shares this recorder with the caller.
"""

from __future__ import annotations

import threading
import time

_MAX_EVENTS = 1000

_lock = threading.Lock()
_events = []
_seq = 0


def record(kind, **fields):
    """Append one event; returns the stored entry."""
    global _seq
    entry = {'event': kind, 'ts': time.time()}
    entry.update(fields)
    with _lock:
        _seq += 1
        entry['seq'] = _seq
        _events.append(entry)
        if len(_events) > _MAX_EVENTS:
            del _events[:len(_events) - _MAX_EVENTS]
    return entry


def recent(kind=None):
    """Recorded events, oldest first, optionally filtered by kind."""
    with _lock:
        snapshot = list(_events)
    if kind is None:
        return snapshot
    return [entry for entry in snapshot if entry['event'] == kind]


def counts():
    """``{event kind: occurrences}`` over the retained window."""
    tally = {}
    for entry in recent():
        tally[entry['event']] = tally.get(entry['event'], 0) + 1
    return tally


def clear():
    """Drop all retained events (test isolation)."""
    global _seq
    with _lock:
        del _events[:]
        _seq = 0
