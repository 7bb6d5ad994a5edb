"""Job scheduler: process-pool fan-out with cache, retries, fallback.

The pool resolves each :class:`~repro.jobs.spec.JobSpec` in three
steps: serve it from the :class:`~repro.jobs.store.ResultStore` if a
valid record exists, otherwise execute it — across a
``ProcessPoolExecutor`` when ``jobs > 1``, in-process otherwise — and
persist the fresh result.  Failed attempts are retried with exponential
backoff; a per-job timeout counts as a failed attempt in *both* pooled
and serial mode (serial execution runs under an ambient watchdog
deadline — see :mod:`repro.resilience.watchdog`).  If worker processes
cannot be spawned, or the pool breaks mid-batch, the remaining jobs
fall back to serial in-process execution rather than failing the batch,
carrying each in-flight job's attempt count with them.

Hung workers are handled, not waited on: a pooled timeout with retries
remaining terminates the worker processes, rebuilds the executor and
resubmits every unfinished job (jobs are pure simulations, so restarts
are safe).  A job that exhausts its attempts either raises a
spec-attributed :class:`JobExecutionError` (``on_error='raise'``, the
default) or is *quarantined* (``on_error='quarantine'``): recorded on
``pool.quarantined``, its slot left ``None``, and the rest of the batch
completes.

Workers return plain dicts (``RunResult.to_dict()``), the same form the
cache stores, so the pooled, serial and cached paths all rehydrate
results identically.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool

from repro.core.errors import (JobExecutionError, WatchdogTimeout,
                               classify)
from repro.core.result import RunResult
from repro.jobs.metrics import RunMetrics
from repro.jobs.spec import JobSpec
from repro.resilience import worker_faults
from repro.resilience.watchdog import deadline

__all__ = ['JobPool', 'JobExecutionError', 'execute_spec']

ON_ERROR_CHOICES = ('raise', 'quarantine')


def execute_spec(spec_dict):
    """Worker entry point: run one job, return ``(result_dict, secs)``.

    Module-level (and fed plain dicts) so ``ProcessPoolExecutor`` can
    pickle both the callable and its argument.  Polls the worker-side
    fault-injection sites (crash/hang) before the simulation starts.
    """
    from repro.core.runner import run_job
    spec = JobSpec.from_dict(spec_dict)
    worker_faults(spec.key)
    start = time.perf_counter()
    result = run_job(spec).to_dict()
    elapsed = time.perf_counter() - start
    return result, elapsed


class _PoolState:
    """The rebuildable part of one pooled batch."""

    __slots__ = ('executor', 'futures')

    def __init__(self, executor):
        self.executor = executor
        self.futures = {}


class JobPool:
    """Schedules job specs over workers, a cache and a retry policy."""

    def __init__(self, jobs=1, store=None, metrics=None, timeout=None,
                 retries=2, backoff=0.25, runner=None, on_error='raise',
                 heartbeat_interval=1.0):
        if jobs < 1:
            raise ValueError('jobs must be >= 1')
        if on_error not in ON_ERROR_CHOICES:
            raise ValueError('on_error must be one of %s'
                             % (ON_ERROR_CHOICES,))
        self.jobs = jobs
        self.store = store
        self.metrics = metrics if metrics is not None else RunMetrics()
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.runner = runner if runner is not None else execute_spec
        self.on_error = on_error
        self.heartbeat_interval = heartbeat_interval
        # (spec, JobExecutionError) per poison job of the last run().
        self.quarantined = []

    # ------------------------------------------------------------------

    def run(self, specs):
        """Resolve every spec; results come back in submission order.

        With ``on_error='quarantine'`` a slot whose job exhausted its
        attempts holds ``None`` (the failure is on ``quarantined``).
        """
        specs = list(specs)
        start = time.perf_counter()
        evictions_before = self.store.corrupt_evictions \
            if self.store is not None else 0
        self.quarantined = []
        results = [None] * len(specs)
        pending = []
        for index, spec in enumerate(specs):
            self.metrics.incr('jobs_submitted')
            record = self.store.get(spec.key) \
                if self.store is not None else None
            if record is not None:
                try:
                    results[index] = \
                        RunResult.from_dict(record['result'])
                except Exception as exc:
                    # The record passed the store's shape checks but
                    # does not rehydrate: evict and rerun.
                    self.store.invalidate(spec.key)
                    self.metrics.event('cache_evict', key=spec.key,
                                       error_kind=classify(exc))
                    record = None
            if record is not None:
                self.metrics.incr('cache_hits')
                self.metrics.event('cache_hit', key=spec.key)
            else:
                if self.store is not None:
                    self.metrics.incr('cache_misses')
                pending.append((index, spec))
        if self.store is not None:
            evicted = self.store.corrupt_evictions - evictions_before
            if evicted:
                self.metrics.incr('corrupt_evictions', evicted)
        if pending:
            if self.jobs > 1:
                executed = self._run_pooled(pending)
            else:
                executed = self._run_serial(pending)
            for index, result in executed:
                results[index] = result
        self.metrics.add_wall_time(time.perf_counter() - start)
        return results

    def run_one(self, spec):
        return self.run([spec])[0]

    # ------------------------------------------------------------------

    def _backoff_delay(self, attempt):
        return self.backoff * (2 ** (attempt - 1))

    def _finish(self, spec, result_dict, elapsed):
        self.metrics.incr('jobs_run')
        self.metrics.add_sim_time(elapsed)
        self.metrics.event('job_done', key=spec.key,
                           seconds=round(elapsed, 6))
        if self.store is not None:
            self.store.put(spec.key, spec.to_dict(), result_dict,
                           elapsed)
        return RunResult.from_dict(result_dict)

    def _give_up(self, spec, error):
        """Terminal failure: quarantine the job or raise.

        Returns True when the caller should treat the job as resolved
        (quarantined, slot stays None); raises otherwise.
        """
        if self.on_error == 'quarantine':
            self.quarantined.append((spec, error))
            self.metrics.incr('quarantined')
            self.metrics.event('job_quarantined', key=spec.key,
                               attempts=error.attempts,
                               reason=error.reason)
            return True
        raise error

    # -- serial path ---------------------------------------------------

    def _run_serial(self, pending, attempt_carry=None):
        """In-process execution.  ``attempt_carry`` maps job index to
        attempts already spent in a broken pool, so recovery does not
        grant a failing job a fresh retry budget."""
        carry = attempt_carry or {}
        out = []
        for index, spec in pending:
            attempts = carry.get(index, 0)
            while True:
                attempts += 1
                try:
                    with deadline(self.timeout):
                        result_dict, elapsed = \
                            self.runner(spec.to_dict())
                except WatchdogTimeout:
                    self.metrics.incr('timeouts')
                    self.metrics.event('job_timeout', key=spec.key,
                                       attempt=attempts,
                                       timeout=self.timeout)
                    if attempts > self.retries:
                        if self._give_up(spec, JobExecutionError(
                                spec, attempts,
                                'timed out after %ss' % self.timeout)):
                            break
                except Exception as exc:
                    self.metrics.incr('failures')
                    self.metrics.event('job_failed', key=spec.key,
                                       attempt=attempts,
                                       error=repr(exc),
                                       error_kind=classify(exc))
                    if attempts > self.retries:
                        error = JobExecutionError(spec, attempts,
                                                  repr(exc))
                        error.__cause__ = exc
                        if self._give_up(spec, error):
                            break
                else:
                    out.append((index,
                                self._finish(spec, result_dict,
                                             elapsed)))
                    break
                self.metrics.incr('retries')
                time.sleep(self._backoff_delay(attempts))
        return out

    # -- pooled path ---------------------------------------------------

    def _make_executor(self, pending):
        return ProcessPoolExecutor(
            max_workers=min(self.jobs, len(pending)))

    def _run_pooled(self, pending):
        try:
            executor = self._make_executor(pending)
        except Exception as exc:
            self.metrics.incr('serial_fallbacks')
            self.metrics.event('serial_fallback', error=repr(exc))
            return self._run_serial(pending)
        state = _PoolState(executor)
        out = []
        done = set()
        attempt_carry = {}
        finished = False
        try:
            state.futures = {index: state.executor.submit(
                self.runner, spec.to_dict())
                for index, spec in pending}
            for index, spec in pending:
                out.append((index,
                            self._await_job(state, pending, done,
                                            index, spec,
                                            attempt_carry)))
                done.add(index)
            finished = True
        except BrokenProcessPool as exc:
            # A worker died hard (crash, OOM-kill, os._exit).  The
            # executor is unusable; run the remaining jobs serially,
            # preserving the in-flight attempt counts.
            self.metrics.incr('serial_fallbacks')
            self.metrics.event('serial_fallback', error=repr(exc),
                               error_kind=classify(exc))
            rest = [(i, s) for i, s in pending if i not in done]
            out.extend(self._run_serial(rest, attempt_carry))
        finally:
            # A batch that finished waits for the executor's manager
            # and queue-feeder threads, so none outlives run() to free
            # objects under the caller; a broken or failed one may
            # hold dead or hung workers and must not wait.
            state.executor.shutdown(wait=finished, cancel_futures=True)
        return out

    def _await_job(self, state, pending, done, index, spec,
                   attempt_carry):
        attempts = 0
        while True:
            attempts += 1
            attempt_carry[index] = attempts
            try:
                result_dict, elapsed = self._await_future(
                    state.futures[index], spec, attempts)
            except FutureTimeout:
                self.metrics.incr('timeouts')
                self.metrics.event('job_timeout', key=spec.key,
                                   attempt=attempts,
                                   timeout=self.timeout)
                if attempts > self.retries:
                    error = JobExecutionError(
                        spec, attempts,
                        'timed out after %ss' % self.timeout)
                    if self.on_error == 'quarantine':
                        # The batch continues: replace the hung
                        # worker pool first.
                        self._replace_executor(state, pending, done,
                                               index)
                        self._give_up(spec, error)
                        return None
                    self._terminate_workers(state.executor)
                    raise error
                # Retries remain: the worker may be hung, and a
                # running future cannot be cancelled -- kill the
                # workers and rebuild.
                self._replace_executor(state, pending, done, index)
            except BrokenProcessPool:
                raise
            except Exception as exc:
                self.metrics.incr('failures')
                self.metrics.event('job_failed', key=spec.key,
                                   attempt=attempts, error=repr(exc),
                                   error_kind=classify(exc))
                if attempts > self.retries:
                    error = JobExecutionError(spec, attempts,
                                              repr(exc))
                    error.__cause__ = exc
                    if self._give_up(spec, error):
                        return None
            else:
                attempt_carry.pop(index, None)
                return self._finish(spec, result_dict, elapsed)
            self.metrics.incr('retries')
            time.sleep(self._backoff_delay(attempts))
            state.futures[index] = state.executor.submit(
                self.runner, spec.to_dict())

    def _await_future(self, future, spec, attempt):
        """Wait for one future, emitting liveness heartbeats.

        Raises :class:`concurrent.futures.TimeoutError` once
        ``self.timeout`` elapses (never waits past it).
        """
        if self.timeout is None:
            return future.result()
        expiry = time.monotonic() + self.timeout
        beat = self.heartbeat_interval
        while True:
            remaining = expiry - time.monotonic()
            if remaining <= 0:
                raise FutureTimeout()
            try:
                return future.result(timeout=min(beat, remaining)
                                     if beat else remaining)
            except FutureTimeout:
                if time.monotonic() >= expiry:
                    raise
                self.metrics.event(
                    'heartbeat', key=spec.key, attempt=attempt,
                    waited=round(self.timeout
                                 - (expiry - time.monotonic()), 3))

    def _terminate_workers(self, executor):
        """Kill the executor's worker processes (hung-worker escape)."""
        procs = list((getattr(executor, '_processes', None)
                      or {}).values())
        killed = 0
        for proc in procs:
            try:
                proc.terminate()
                killed += 1
            except Exception:
                pass
        self.metrics.incr('hung_worker_kills')
        self.metrics.event('hung_worker_kill', workers=killed)

    def _replace_executor(self, state, pending, done, current_index):
        """Kill the workers, rebuild the executor and resubmit every
        unfinished job except ``current_index`` (its retry loop
        resubmits it after the backoff).  Jobs are pure simulations,
        so restarting in-flight ones is safe."""
        self._terminate_workers(state.executor)
        state.executor.shutdown(wait=False, cancel_futures=True)
        try:
            state.executor = self._make_executor(pending)
        except Exception as exc:
            raise BrokenProcessPool(
                'executor rebuild failed: %r' % exc) from exc
        for index, spec in pending:
            if index not in done and index != current_index:
                state.futures[index] = state.executor.submit(
                    self.runner, spec.to_dict())
