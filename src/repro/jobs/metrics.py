"""Counters, timers and an event log for batch runs.

A :class:`RunMetrics` rides along with a
:class:`~repro.jobs.pool.JobPool` and records what actually happened:
how many jobs were submitted, how many simulations really ran, how many
were served from the cache, how often attempts were retried or timed
out, and how the batch's wall-clock time compares with the summed
simulation time (the parallel speedup).  It renders as a plain-text
summary table and, when given a path, appends every event as one JSON
line — the machine-readable audit trail for a batch.
"""

from __future__ import annotations

import json
import time

COUNTER_NAMES = ('jobs_submitted', 'jobs_run', 'cache_hits',
                 'cache_misses', 'retries', 'timeouts', 'failures',
                 'corrupt_evictions', 'serial_fallbacks',
                 'hung_worker_kills')


class RunMetrics:
    """Accounting for one batch of jobs."""

    def __init__(self, log_path=None):
        self.counters = {name: 0 for name in COUNTER_NAMES}
        self.wall_seconds = 0.0
        self.sim_seconds = 0.0
        self.events = []
        self.log_path = log_path

    # ------------------------------------------------------------------

    def incr(self, name, amount=1):
        if name not in self.counters:
            raise KeyError('unknown counter %r' % name)
        self.counters[name] += amount

    def __getattr__(self, name):
        counters = self.__dict__.get('counters')
        if counters is not None and name in counters:
            return counters[name]
        raise AttributeError(name)

    def add_wall_time(self, seconds):
        self.wall_seconds += seconds

    def add_sim_time(self, seconds):
        self.sim_seconds += seconds

    # ------------------------------------------------------------------

    def event(self, kind, **fields):
        """Record one event; mirrored to the JSONL log if configured."""
        entry = {'event': kind, 'ts': time.time()}
        entry.update(fields)
        self.events.append(entry)
        if self.log_path:
            with open(self.log_path, 'a', encoding='utf-8') as handle:
                handle.write(json.dumps(entry, sort_keys=True) + '\n')
        return entry

    # ------------------------------------------------------------------

    def summary_rows(self):
        rows = [(name, self.counters[name]) for name in COUNTER_NAMES]
        rows.append(('wall_seconds', round(self.wall_seconds, 3)))
        rows.append(('sim_seconds', round(self.sim_seconds, 3)))
        if self.wall_seconds > 0:
            rows.append(('parallel_speedup',
                         round(self.sim_seconds / self.wall_seconds, 2)))
        return rows

    def format_summary(self):
        rows = self.summary_rows()
        width = max(len(name) for name, _value in rows)
        lines = ['job metrics']
        for name, value in rows:
            lines.append('  %-*s  %s' % (width, name, value))
        return '\n'.join(lines)

    def to_dict(self):
        data = dict(self.counters)
        data['wall_seconds'] = self.wall_seconds
        data['sim_seconds'] = self.sim_seconds
        return data

    def __repr__(self):
        return '<RunMetrics run=%d hits=%d retries=%d>' % (
            self.counters['jobs_run'], self.counters['cache_hits'],
            self.counters['retries'])
