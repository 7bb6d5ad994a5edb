"""The PathExpander execution engine.

One engine drives all four modes:

* **baseline** -- run the program under the dynamic detector only;
* **standard** -- Fig. 4(a): at every selected branch, checkpoint, run
  the non-taken path in the sandbox, squash, resume (serialised, so
  NT-path cycles land on the primary core);
* **cmp** -- Fig. 4(b): identical functional behaviour, but NT-path
  cycles are placed on idle cores by :class:`~repro.core.cmp.CmpScheduler`
  and the primary core pays only the spawn overhead;
* **software** -- Section 5: identical algorithm; the run is re-costed
  with the PIN-style instrumentation model afterwards (see
  :mod:`repro.core.software`).
"""

from __future__ import annotations

from time import perf_counter

from repro.btb.btb import COUNTER_MAX, BranchTargetBuffer, _Entry
from repro.core.cmp import CmpScheduler
from repro.core.config import Mode, PathExpanderConfig
from repro.core.result import NTPathRecord, NTPathTermination, RunResult
from repro.core.selector import NTPathSelector
from repro.coverage.tracker import CoverageTracker
from repro.cpu.exceptions import ProgramExit, SimFault
from repro.cpu.fastinterp import FastInterpreter
from repro.cpu.interpreter import Interpreter
from repro.cpu.state import Core
from repro.cpu.syscalls import IOContext
from repro.cpu.timing import CostModel
from repro.memory.allocator import HeapAllocator
from repro.memory.cache import Cache
from repro.memory.checkpoint import Checkpoint
from repro.memory.main_memory import MainMemory
from repro.resilience import events, get_injector
from repro.resilience.watchdog import Watchdog

_NT_VERSION = 1

# The interpreter class per backend name (``config.BACKEND_CHOICES``;
# the config rejects any other name).  Both are result-identical: see
# DESIGN.md, "Dual-backend equivalence invariant".
INTERPRETERS = {'reference': Interpreter, 'fast': FastInterpreter}


class PathExpanderEngine:

    def __init__(self, program, detector=None, config=None, io=None,
                 memory_words=1 << 20, stack_words=1 << 16):
        self.program = program
        self.detector = detector
        self.config = config or PathExpanderConfig()
        self.io = io or IOContext()

        self.memory = MainMemory(size=memory_words,
                                 globals_size=program.globals_size,
                                 stack_words=stack_words)
        for addr, value in program.data_image.items():
            self.memory.cells[addr] = value
        self.allocator = HeapAllocator(self.memory.heap_base,
                                       self.memory.stack_limit)
        self.core = Core()
        self.core.reset(program.entry, self.memory.stack_top)

        cfg = self.config
        self.costs = CostModel(l1_hit=cfg.l1_hit_latency,
                               l2_hit=cfg.l2_hit_latency,
                               spawn_overhead=cfg.spawn_overhead,
                               squash_overhead=cfg.squash_overhead)
        if cfg.enable_cache_model:
            self.cache = Cache(size_bytes=cfg.l1_size_bytes,
                               ways=cfg.l1_ways,
                               line_bytes=cfg.l1_line_bytes,
                               hit_latency=cfg.l1_hit_latency,
                               miss_latency=cfg.l2_hit_latency)
        else:
            self.cache = None
        self.btb = BranchTargetBuffer(entries=cfg.btb_entries,
                                      ways=cfg.btb_ways)
        self.coverage = CoverageTracker(program)
        self.selector = NTPathSelector(self.btb, cfg)
        self.scheduler = None
        if cfg.mode == Mode.CMP:
            self.scheduler = CmpScheduler(cfg.num_cores,
                                          cfg.max_num_nt_paths,
                                          cfg.spawn_overhead,
                                          cfg.squash_overhead)

        if detector is not None and hasattr(detector, 'attach'):
            detector.attach(program, self.memory, self.allocator)

        self.interp = INTERPRETERS[cfg.resolved_backend](
            program, self.memory, self.allocator, self.core, self.io,
            self.costs, cache=self.cache, detector=detector,
            on_branch=self._on_branch)
        self.interp.sandbox_unsafe = cfg.sandbox_unsafe_events
        self.result = RunResult(program, self.config, detector)
        self.result.total_edges = program.num_edges
        self._in_nt = False
        self._spawning = cfg.spawning_enabled
        self._explore_from_nt = cfg.explore_nt_from_nt
        # Hot-path bindings for _on_branch (it runs at every retired
        # branch): the packed coverage sets and the selector's policy
        # constants, so the common no-spawn outcome touches no
        # intermediate objects.
        self._taken_edges = self.coverage._taken
        self._nt_edges = self.coverage._nt
        self._threshold = self.selector.threshold
        self._random_rate = self.selector.random_rate
        self._btb_sets = self.btb._sets
        self._btb_num_sets = self.btb.num_sets
        self._btb_ways = self.btb.ways
        self._nt_cache_pool = None
        self._nt_forced_edges = set()
        self.nt_store_count = 0
        # Reused across every spawn: capturing into a preallocated
        # checkpoint keeps the spawn hot path allocation-free.
        self._checkpoint = Checkpoint()
        injector = get_injector()
        self._checkpoint_injector = injector \
            if injector is not None \
            and injector.plan.has_site('checkpoint.corrupt') else None
        # Wall-clock seconds spent stepping inside NT-paths (not
        # serialized -- benchmark instrumentation only).
        self.nt_wall_seconds = 0.0

    # ==================================================================

    def run(self):
        """Execute the monitored run; returns the :class:`RunResult`."""
        result = self.result
        interp = self.interp
        limit = self.config.max_instructions
        # Fused blocks honour the budget themselves (they refuse to
        # overshoot it); drive_taken's loop check lands on exactly the
        # same truncation point either way.
        interp.instret_limit = limit
        try:
            reason = self._drive(limit)
            result.truncated = True
            result.truncation_reason = reason
        except ProgramExit as exit_:
            result.exit_code = exit_.code
        except SimFault as fault:
            result.crashed = True
            result.crash_kind = fault.kind
        finally:
            # Break the interpreter's cycles, so reference counting
            # frees the run as soon as its engine is dropped.
            interp.release()
        self._finalize()
        return result

    def _drive(self, limit):
        """Run the taken path to the instruction budget; returns the
        truncation reason.

        With a watchdog armed (run budgets in the config, or an
        ambient job deadline installed by the pool) the drive is
        chunked into ``check_interval``-instruction slices with a
        deadman poll between slices; the dispatched instruction
        sequence is identical either way, so watchdog-off and
        watchdog-on runs that finish produce the same result.
        """
        interp = self.interp
        watchdog = Watchdog.for_config(self.config)
        if watchdog is None:
            interp.drive_taken(limit)
            return 'instructions'
        core = self.core
        interval = watchdog.check_interval
        while True:
            chunk = core.instret + interval
            if chunk >= limit:
                interp.drive_taken(limit)
                return 'instructions'
            interp.drive_taken(chunk)
            reason = watchdog.poll(core)  # raises WatchdogTimeout
            if reason is not None:
                events.record('watchdog_truncated', reason=reason,
                              program=self.program.name,
                              instret=core.instret,
                              cycles=core.cycles)
                return reason

    def _finalize(self):
        result = self.result
        result.instret_taken = self.core.instret - result.instret_nt
        result.primary_cycles = self.core.cycles
        if self.scheduler is not None:
            result.cycles = max(self.core.cycles, self.scheduler.last_end)
        else:
            result.cycles = self.core.cycles
        taken_edges, covered_edges = self.coverage.edge_sets()
        result.baseline_covered = len(taken_edges)
        result.total_covered = len(covered_edges)
        result.taken_edges = taken_edges
        result.covered_edges = covered_edges
        if self.detector is not None:
            result.reports = list(self.detector.reports)
        result.output = self.io.output_text
        result.int_output = list(self.io.int_output)
        result.nt_store_count = self.nt_store_count

    # ==================================================================
    # branch handling: coverage, BTB, NT-path spawning

    def _on_branch(self, addr, taken, instr):
        if self._in_nt:
            self.result.nt_branch_count += 1
            self._nt_edges.add(addr << 1 | taken)
            if self._explore_from_nt:
                self._maybe_force_edge(addr, taken, instr)
            return
        self.result.taken_branch_count += 1
        self._taken_edges.add(addr << 1 | taken)
        # BranchTargetBuffer.observe_edge inlined (same reason as the
        # selector inline below; btb.py holds the reference copy and
        # the LRU-equivalence argument).
        btb = self.btb
        tick = btb._tick + 1
        btb._tick = tick
        entries = self._btb_sets[addr % self._btb_num_sets]
        for entry in entries:
            if entry.addr == addr:
                entry.lru = tick
                break
        else:
            if len(entries) >= self._btb_ways:
                victim = min(entries, key=lambda e: e.lru)
                entries.remove(victim)
                btb.evictions += 1
            entry = _Entry(addr, tick)
            entries.append(entry)
        if taken:
            if entry.taken_count < COUNTER_MAX:
                entry.taken_count += 1
        elif entry.nt_count < COUNTER_MAX:
            entry.nt_count += 1
        if not self._spawning:
            return
        selector = self.selector
        instret = self.core.instret
        # The periodic counter reset must precede the CMP busy check
        # (the reference path ran observe_retired unconditionally).
        if instret >= selector.next_reset:
            selector.reset_now(instret)
        if self.scheduler is not None \
                and not self.scheduler.slot_free(self.core.cycles):
            self.result.nt_skipped_busy += 1
            return
        nt_taken = not taken
        # NTPathSelector.consider inlined: the spawn decision runs at
        # every retired taken-path branch, and the no-spawn outcome
        # must cost no more than a counter compare.
        selector.considered += 1
        count = entry.taken_count if nt_taken else entry.nt_count
        if count >= self._threshold:
            if self._random_rate <= 0.0 \
                    or selector._next_random() >= self._random_rate:
                return
            selector.random_selected += 1
        selector.selected += 1
        # Entering the NT-path exercises the edge (Section 4.2(1)).
        if nt_taken:
            if entry.taken_count < COUNTER_MAX:
                entry.taken_count += 1
        elif entry.nt_count < COUNTER_MAX:
            entry.nt_count += 1
        target = instr.b if nt_taken else addr + 1
        self._run_nt_path(addr, nt_taken, target)

    def _maybe_force_edge(self, addr, taken, instr):
        """Ablation (Section 4.2(3)): explore non-taken edges *from*
        NT-paths by forcing each not-yet-covered opposite edge once.

        The forced direction compounds the state inconsistency (no
        variable fix is applied), which is why the paper measured a
        much higher early-crash ratio with this policy and rejected it.
        """
        other = not taken
        key = (addr, other)
        if key in self._nt_forced_edges:
            return
        if self.btb.edge_count(addr, other) == 0:
            self._nt_forced_edges.add(key)
            self.core.pc = instr.b if other else addr + 1
            self.coverage.record_nt(addr, other)

    # ==================================================================
    # NT-path lifecycle (Section 4.2(2)-(3))

    def _run_nt_path(self, branch_addr, edge_taken, target):
        config = self.config
        core = self.core
        interp = self.interp
        result = self.result

        result.nt_spawned += 1
        # The forced edge itself is executed (in the sandbox) and
        # therefore observed by the detector: it counts as covered.
        self.coverage.record_nt(branch_addr, edge_taken)
        cycles_at_spawn = core.cycles
        instret_at_spawn = core.instret
        stores_at_spawn = interp.store_count

        checkpoint = self._checkpoint
        checkpoint.capture(core)
        if self._checkpoint_injector is not None and \
                self._checkpoint_injector.poll('checkpoint.corrupt') \
                is not None:
            checkpoint.corrupt()
        self.allocator.begin_txn()
        self.memory.begin_journal()
        io_snapshot = self.io.snapshot() \
            if config.sandbox_unsafe_events else None
        saved_cache = interp.cache
        if self.scheduler is not None and interp.cache is not None:
            interp.cache = self._borrow_nt_cache()

        core.pc = target
        core.pred = config.variable_fixing
        nt_limit = instret_at_spawn + config.max_nt_path_length
        interp.enter_nt(_NT_VERSION, nt_limit)
        self._in_nt = True
        self._nt_forced_edges.clear()

        started = perf_counter()
        try:
            event = interp.drive_nt(nt_limit)
            if event is None:
                reason = NTPathTermination.LENGTH
            elif event == 'unsafe':
                reason = NTPathTermination.UNSAFE
            else:
                reason = NTPathTermination.OVERFLOW
        except SimFault:
            reason = NTPathTermination.CRASH
        except ProgramExit:
            reason = NTPathTermination.PROGRAM_END
        self.nt_wall_seconds += perf_counter() - started

        length = core.instret - instret_at_spawn
        nt_cycles = core.cycles - cycles_at_spawn
        self.nt_store_count += interp.store_count - stores_at_spawn

        # squash: memory rollback, register/allocator restore,
        # gang-invalidation of volatile cache lines
        entries = self.memory.rollback()
        result.journal_entries_total += entries
        checkpoint.restore(core)
        self.allocator.rollback_txn()
        if io_snapshot is not None:
            self.io.restore(io_snapshot)
        self._in_nt = False
        interp.exit_nt()

        if self.scheduler is not None:
            if interp.cache is not None:
                interp.cache = saved_cache
            core.cycles = cycles_at_spawn + config.spawn_overhead
            self.scheduler.commit(cycles_at_spawn, nt_cycles)
        else:
            if interp.cache is not None:
                interp.cache.gang_invalidate(_NT_VERSION)
            core.cycles = (cycles_at_spawn + config.spawn_overhead
                           + nt_cycles + config.squash_overhead)

        result.instret_nt += length
        result.count_termination(reason)
        if config.collect_nt_details:
            result.nt_details.append(NTPathRecord(
                branch_addr, edge_taken, length, reason,
                instret_at_spawn))

    def _borrow_nt_cache(self):
        """A cold L1 for the idle core running this NT-path (CMP)."""
        if self._nt_cache_pool is None:
            cfg = self.config
            self._nt_cache_pool = Cache(
                size_bytes=cfg.l1_size_bytes, ways=cfg.l1_ways,
                line_bytes=cfg.l1_line_bytes,
                hit_latency=cfg.l1_hit_latency,
                miss_latency=cfg.l2_hit_latency)
        else:
            self._nt_cache_pool.reset()
        return self._nt_cache_pool
