"""Job scheduler: process-pool fan-out with cache, retries, fallback.

The pool resolves each :class:`~repro.jobs.spec.JobSpec` in three
steps: serve it from the :class:`~repro.jobs.store.ResultStore` if a
valid record exists, otherwise execute it — across a
``ProcessPoolExecutor`` when ``jobs > 1``, in-process otherwise — and
persist the fresh result.

Jobs are pure, deterministic simulations, so every failure has one
remedy: run the job again.  One attempt loop (:meth:`JobPool._resolve`)
owns that policy for both paths.  A failed or timed-out attempt is
retried with exponential backoff; a job that exhausts its attempts
raises a spec-attributed :class:`JobExecutionError`.  A serial attempt
runs under an ambient watchdog deadline (see
:mod:`repro.resilience.watchdog`); a pooled attempt waits on the job's
future.  A pooled timeout kills the (possibly hung) workers, and the
next attempt rebuilds the executor and resubmits every unfinished job.
If worker processes cannot be started, or the pool breaks mid-batch,
the remaining jobs fall back to serial in-process execution, keeping
each job's attempt count.  No worker outlives :meth:`JobPool.run`.

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

# Seconds a terminated worker gets to exit before it is killed.
_JOIN_SECONDS = 2.0


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


def _stop_workers(executor):
    """Terminate the executor's worker processes and join them (kill
    any that ignore the request); returns how many there were."""
    procs = list((getattr(executor, '_processes', None) or {}).values())
    for proc in procs:
        proc.terminate()
    expiry = time.monotonic() + _JOIN_SECONDS
    for proc in procs:
        proc.join(max(expiry - time.monotonic(), 0))
        if proc.is_alive():
            proc.kill()
            proc.join()
    executor.shutdown(wait=False, cancel_futures=True)
    return len(procs)


class JobPool:
    """Schedules job specs over workers, a cache and a retry policy."""

    def __init__(self, jobs=1, store=None, metrics=None, timeout=None,
                 retries=2, backoff=0.25, runner=None):
        if jobs < 1:
            raise ValueError('jobs must be >= 1')
        self.jobs = jobs
        self.store = store
        self.metrics = metrics if metrics is not None else RunMetrics()
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.runner = runner if runner is not None else execute_spec

    # ------------------------------------------------------------------

    def run(self, specs):
        """Resolve every spec; results come back in submission order."""
        specs = list(specs)
        start = time.perf_counter()
        evictions_before = self.store.corrupt_evictions \
            if self.store is not None else 0
        results = [None] * len(specs)
        pending = {}
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
                pending[index] = spec
        if self.store is not None:
            evicted = self.store.corrupt_evictions - evictions_before
            if evicted:
                self.metrics.incr('corrupt_evictions', evicted)
        if pending:
            attempts = dict.fromkeys(pending, 0)
            if self.jobs > 1:
                self._run_pooled(pending, attempts, results)
            else:
                self._run_serial(pending, attempts, results)
        self.metrics.add_wall_time(time.perf_counter() - start)
        return results

    def run_one(self, spec):
        return self.run([spec])[0]

    # ------------------------------------------------------------------

    def _resolve(self, index, spec, attempts, attempt):
        """Call ``attempt(index, spec)`` until it returns
        ``(result_dict, secs)`` or the job's attempts, counted in
        ``attempts[index]``, are spent.  A ``BrokenProcessPool``
        propagates with its attempt counted."""
        while True:
            attempts[index] += 1
            tries = attempts[index]
            try:
                result_dict, elapsed = attempt(index, spec)
            except (WatchdogTimeout, FutureTimeout):
                self.metrics.incr('timeouts')
                self.metrics.event('job_timeout', key=spec.key,
                                   attempt=tries, timeout=self.timeout)
                error = JobExecutionError(
                    spec, tries, 'timed out after %ss' % self.timeout)
            except BrokenProcessPool:
                raise
            except Exception as exc:
                self.metrics.incr('failures')
                self.metrics.event('job_failed', key=spec.key,
                                   attempt=tries, error=repr(exc),
                                   error_kind=classify(exc))
                error = JobExecutionError(spec, tries, repr(exc))
                error.__cause__ = exc
            else:
                return self._finish(spec, result_dict, elapsed)
            if tries > self.retries:
                raise error
            self.metrics.incr('retries')
            time.sleep(self.backoff * (2 ** (tries - 1)))

    def _finish(self, spec, result_dict, elapsed):
        self.metrics.incr('jobs_run')
        self.metrics.add_sim_time(elapsed)
        self.metrics.event('job_done', key=spec.key,
                           seconds=round(elapsed, 6))
        if self.store is not None:
            self.store.put(spec.key, spec.to_dict(), result_dict,
                           elapsed)
        return RunResult.from_dict(result_dict)

    def _serial_attempt(self, index, spec):
        with deadline(self.timeout):
            return self.runner(spec.to_dict())

    def _run_serial(self, pending, attempts, results):
        for index, spec in pending.items():
            results[index] = self._resolve(index, spec, attempts,
                                           self._serial_attempt)

    def _run_pooled(self, pending, attempts, results):
        unfinished = dict(pending)
        futures = {}
        executor = None

        def pooled_attempt(index, spec):
            nonlocal executor
            if executor is None:
                # First attempt, or the first since a timeout killed
                # the workers: (re)start them on every unfinished job.
                try:
                    executor = ProcessPoolExecutor(
                        max_workers=min(self.jobs, len(unfinished)))
                    for other, job in unfinished.items():
                        futures[other] = executor.submit(
                            self.runner, job.to_dict())
                except Exception as exc:
                    attempts[index] -= 1    # no attempt ran
                    raise BrokenProcessPool(
                        'cannot start workers: %r' % exc) from exc
            future = futures.pop(index, None) or executor.submit(
                self.runner, spec.to_dict())
            try:
                return future.result(timeout=self.timeout)
            except FutureTimeout:
                # The worker may be hung, and a running future cannot
                # be cancelled: kill the workers.
                workers = _stop_workers(executor)
                executor = None
                self.metrics.incr('hung_worker_kills')
                self.metrics.event('hung_worker_kill', workers=workers)
                raise

        try:
            for index, spec in pending.items():
                results[index] = self._resolve(index, spec, attempts,
                                               pooled_attempt)
                del unfinished[index]
        except BaseException as exc:
            # Any end but a finished batch kills the workers, which
            # may be dead or hung.
            if executor is not None:
                _stop_workers(executor)
            if not isinstance(exc, BrokenProcessPool):
                raise
            # A worker died hard (crash, OOM-kill, os._exit), or none
            # could be started: run the rest serially.
            self.metrics.incr('serial_fallbacks')
            self.metrics.event('serial_fallback', error=repr(exc),
                               error_kind=classify(exc))
            self._run_serial(unfinished, attempts, results)
        else:
            # Wait for the executor's manager and queue-feeder threads,
            # so none outlives run() to free objects under the caller.
            executor.shutdown(wait=True)
