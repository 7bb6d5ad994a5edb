"""Layer spans and counters, installed from outside the simulator.

Nothing under ``src/`` knows about this module.  :func:`capture`
wraps the driver-facing entry points (``run_program`` and
``JobPool.run``) so a child can digest every result it produced, and
:class:`Tracer` wraps each layer's public entry points with spans:

==========  =====================================================
layer       wrapped entry points
==========  =====================================================
minic       ``compile_minic`` (every module that imported it)
codegen     ``FastInterpreter._build_fast_table`` and the
            ``compile()`` builtin as seen from ``repro.cpu.fastinterp``
dispatch    ``FastInterpreter.drive_taken``
nt          ``PathExpanderEngine._run_nt_path`` (spawn to squash)
branch      ``PathExpanderEngine._on_branch`` (BTB, coverage,
            selector)
detector    ``on_load`` / ``on_store`` / ``on_free`` /
            ``on_assert_fail`` of every detector class
cache       ``Cache.access`` / ``reset`` / ``gang_invalidate``
run         ``run_program`` (one simulated run)
jobs        ``JobPool.run``, ``ResultStore.get`` / ``put``
==========  =====================================================

Every time is *self* time: a span's duration minus the spans nested
inside it, so the layer times of one run add up without overlap.
Fast blocks inline the cache's last-line memo, so ``cache.calls`` and
``cache.s`` cover only accesses that reach ``Cache.access``;
``cache.hits`` and ``cache.misses`` are the cache model's own
counters and cover every access.
"""

from __future__ import annotations

import sys
from time import perf_counter

DETECTOR_HOOKS = ('on_load', 'on_store', 'on_free', 'on_assert_fail')


def replace_everywhere(original, replacement):
    """Rebind every ``repro.*`` module attribute that is ``original``.

    Functions imported by name (``from m import f``) live on in each
    importing module; rebinding only the defining module would miss
    those call sites.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith('repro'):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def capture(results, simulated):
    """Append every result the workload produces to ``results``, and
    those that were simulated in this call (not read back from a result
    store) to ``simulated``.

    A ``JobPool.run`` batch counts as simulated only if the store
    served none of it: the pooled workload's cold batch runs every job
    and its warm batch none.
    """
    from repro.core import runner
    from repro.jobs.pool import JobPool

    run_program = runner.run_program

    def captured_run(*args, **kwargs):
        result = run_program(*args, **kwargs)
        results.append(result)
        simulated.append(result)
        return result
    replace_everywhere(run_program, captured_run)

    pool_run = JobPool.run

    def captured_pool_run(pool, specs):
        hits = pool.metrics.counters['cache_hits']
        batch = pool_run(pool, specs)
        results.extend(batch)
        if pool.metrics.counters['cache_hits'] == hits:
            simulated.extend(batch)
        return batch
    JobPool.run = captured_pool_run


class Tracer:
    """Per-layer self time and call counts for one child process."""

    def __init__(self):
        self._stack = []
        self.cells = {}          # layer -> [self seconds, calls]
        self.blocks = 0
        self.caches = []
        self.retired_hits = 0
        self.retired_misses = 0
        self.resets = 0
        self.pool_spans = []
        self.jobs_submitted = 0
        self.store_hits = 0

    def span(self, layer, fn, observe=None):
        """``fn`` wrapped in a span that charges its self time to
        ``layer``; ``observe(result)`` sees each return value."""
        cell = self.cells.setdefault(layer, [0.0, 0])
        stack = self._stack
        clock = perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                cell[0] += elapsed - stack.pop()
                cell[1] += 1
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(result)
            return result
        return traced

    # ------------------------------------------------------------------

    def install_simulation(self):
        """Wrap the in-process simulation layers (serial workloads)."""
        from repro.core import runner
        from repro.core.engine import PathExpanderEngine
        from repro.cpu import fastinterp
        from repro.cpu.fastinterp import FastInterpreter
        from repro.detectors import (assertions, base, ccured, iwatcher)
        from repro.memory.cache import Cache
        from repro.minic.codegen import compile_minic

        replace_everywhere(compile_minic,
                           self.span('minic', compile_minic))
        replace_everywhere(runner.run_program,
                           self.span('run', runner.run_program))

        def count_blocks(table):
            self.blocks += sum(1 for fn in table if fn is not None)
        FastInterpreter._build_fast_table = self.span(
            'codegen', FastInterpreter._build_fast_table, count_blocks)
        fastinterp.compile = self.span('codegen.compile', compile)
        FastInterpreter.drive_taken = self.span(
            'dispatch', FastInterpreter.drive_taken)

        PathExpanderEngine._run_nt_path = self.span(
            'nt', PathExpanderEngine._run_nt_path)
        PathExpanderEngine._on_branch = self.span(
            'branch', PathExpanderEngine._on_branch)

        for cls in (base.Detector, ccured.CCuredDetector,
                    iwatcher.IWatcherDetector,
                    assertions.AssertionDetector):
            for hook in DETECTOR_HOOKS:
                if hook in vars(cls):
                    setattr(cls, hook,
                            self.span('detector', vars(cls)[hook]))

        init, reset = Cache.__init__, Cache.reset

        def registered_init(cache, *args, **kwargs):
            init(cache, *args, **kwargs)
            self.caches.append(cache)

        def counted_reset(cache):
            # reset() zeroes the model's counters: keep what it drops.
            self.retired_hits += cache.hits
            self.retired_misses += cache.misses
            self.resets += 1
            return reset(cache)
        Cache.__init__ = registered_init
        Cache.access = self.span('cache', Cache.access)
        Cache.reset = self.span('cache', counted_reset)
        Cache.gang_invalidate = self.span('cache', Cache.gang_invalidate)

    def install_jobs(self):
        """Time each ``JobPool.run`` and count jobs and store hits.

        The pooled workload calls ``JobPool.run`` twice: the first call
        runs cold, the second is served from the store.  Its
        simulations run in worker processes, which this tracer cannot
        see, so the simulation layers are not installed for it.
        ``JobPool.run`` skips the lookup while the store is empty (an
        empty ``ResultStore`` is falsy), so the hit ratio is taken over
        jobs submitted, not over ``ResultStore.get`` calls.
        """
        from repro.jobs.pool import JobPool
        from repro.jobs.store import ResultStore

        pool_run, get = JobPool.run, ResultStore.get

        def timed_run(pool, specs):
            specs = list(specs)
            self.jobs_submitted += len(specs)
            start = perf_counter()
            try:
                return pool_run(pool, specs)
            finally:
                self.pool_spans.append(perf_counter() - start)

        def counted_get(store, key):
            record = get(store, key)
            self.store_hits += record is not None
            return record
        JobPool.run = timed_run
        ResultStore.get = counted_get

    # ------------------------------------------------------------------

    def metrics(self, results):
        """The per-layer metrics of this child (see BENCHMARK.json)."""
        from repro.resilience import events

        def seconds(layer):
            return self.cells.get(layer, (0.0, 0))[0]

        def calls(layer):
            return self.cells.get(layer, (0.0, 0))[1]
        spawns = sum(r.nt_spawned for r in results)
        branch_calls = calls('branch')
        out = {
            'minic.calls': calls('minic'),
            'minic.s': seconds('minic'),
            'codegen.tables': calls('codegen'),
            'codegen.blocks': self.blocks,
            'codegen.s': seconds('codegen'),
            'codegen.compile_s': seconds('codegen.compile'),
            'dispatch.self_s': seconds('dispatch'),
            'nt.spawns': spawns,
            'nt.instret': sum(r.instret_nt for r in results),
            'nt.self_s': seconds('nt'),
            'detector.calls': calls('detector'),
            'detector.s': seconds('detector'),
            'cache.calls': calls('cache'),
            'cache.s': seconds('cache'),
            'cache.hits': self.retired_hits
            + sum(c.hits for c in self.caches),
            'cache.misses': self.retired_misses
            + sum(c.misses for c in self.caches),
            'cache.resets': self.resets,
            'branch.calls': branch_calls,
            'branch.s': seconds('branch'),
            'branch.spawn_ratio': spawns / branch_calls
            if branch_calls else 0.0,
            'jobs.cold_s': sum(self.pool_spans[:1]),
            'jobs.warm_s': sum(self.pool_spans[1:2]),
            'jobs.hit_ratio': self.store_hits / self.jobs_submitted
            if self.jobs_submitted else 0.0,
            'resilience.degraded': len(
                events.recent('degraded_to_reference')),
            'other.self_s': seconds('run'),
        }
        out.update(sim_counts(results))
        return out


def sim_counts(results):
    """Simulated totals; these repeat exactly and match across
    backends."""
    return {
        'sim.runs': len(results),
        'sim.instret': sum(r.instret_taken + r.instret_nt
                           for r in results),
        'sim.cycles': sum(r.cycles for r in results),
    }
