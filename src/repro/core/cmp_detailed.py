"""Detailed CMP engine: true multi-core interleaving (Fig. 4b + Fig. 6).

Where :class:`~repro.core.engine.PathExpanderEngine` (mode ``cmp``)
executes NT-paths inline and *models* their placement on idle cores,
this engine actually simulates the concurrent execution the paper's
TLS-based hardware performs:

* the primary core and up to ``num_cores - 1`` NT-path cores step in
  cycle order (the lowest-local-clock context advances next);
* while NT-paths are outstanding, taken-path stores land in
  **segment overlays** -- one per spawn-delimited taken-path segment --
  instead of committed memory (the uncommitted versions of Fig. 6);
* every context reads through its version chain: its own buffer, then
  the segments that existed when it started, then committed memory;
* a segment commits (its overlay merges into committed memory) only
  when its parent segment has committed *and* its sibling NT-path has
  squashed -- the commit-token / squash-token protocol;
* a segment whose write buffer outgrows the L1 dirty capacity forces a
  commit, squashing its sibling NT-path immediately (the paper's
  displacement rule).

The engine produces the same detections and coverage as the standard
configuration (the NT-paths observe identical memory snapshots); what
it adds is an independently derived cycle count that validates the
scheduling model -- see ``run_val_cmp_model`` in the harness.
"""

from __future__ import annotations

from repro.btb.btb import BranchTargetBuffer
from repro.core.config import Mode, PathExpanderConfig
from repro.core.result import NTPathRecord, NTPathTermination, RunResult
from repro.core.selector import NTPathSelector
from repro.coverage.tracker import CoverageTracker
from repro.cpu.exceptions import (ProgramExit, SimFault, UnsafeEvent,
                                  VolatileOverflow)
from repro.cpu.interpreter import Interpreter
from repro.cpu.state import Core
from repro.cpu.syscalls import IOContext
from repro.memory.allocator import HeapAllocator
from repro.memory.cache import Cache
from repro.memory.main_memory import MainMemory

_NT_VERSION = 1


class _Segment:
    """One uncommitted taken-path segment (Fig. 6)."""

    __slots__ = ('overlay', 'sibling_done', 'index')

    def __init__(self, index):
        self.overlay = {}
        self.sibling_done = False
        self.index = index


class _TakenView:
    """The primary core's memory interface.

    Writes go to the newest segment overlay while any segment is
    uncommitted; reads walk the full chain.  Mirrors the attributes of
    :class:`MainMemory` the interpreter touches.
    """

    def __init__(self, main, segments):
        self._main = main
        self._segments = segments
        self.stack_limit = main.stack_limit
        self.monitor_base = main.monitor_base
        self.monitor_limit = main.monitor_limit

    def read(self, addr):
        self._main._check(addr)
        for segment in reversed(self._segments):
            if addr in segment.overlay:
                return segment.overlay[addr]
        return self._main.cells[addr]

    def write(self, addr, value):
        self._main._check(addr)
        if self._segments and not (self.monitor_base <= addr
                                   < self.monitor_limit):
            self._segments[-1].overlay[addr] = value
        else:
            self._main.cells[addr] = value


class _NTView:
    """An NT-path core's memory interface: snapshot isolation.

    Sees the segments that existed at its spawn, buffers its own
    stores, and lets monitor-area stores through (error reports must
    survive the squash)."""

    def __init__(self, main, visible_segments):
        self._main = main
        self._visible = visible_segments
        self.buffer = {}
        self.stack_limit = main.stack_limit
        self.monitor_base = main.monitor_base
        self.monitor_limit = main.monitor_limit

    def read(self, addr):
        self._main._check(addr)
        if addr in self.buffer:
            return self.buffer[addr]
        for segment in reversed(self._visible):
            if addr in segment.overlay:
                return segment.overlay[addr]
        return self._main.cells[addr]

    def write(self, addr, value):
        self._main._check(addr)
        if self.monitor_base <= addr < self.monitor_limit:
            self._main.cells[addr] = value
        else:
            self.buffer[addr] = value


class _NTContext:
    """One in-flight NT-path on an idle core."""

    __slots__ = ('core', 'interp', 'view', 'segment', 'record_info',
                 'instret_start', 'max_instret')

    def __init__(self, core, interp, view, segment, record_info,
                 max_len):
        self.core = core
        self.interp = interp
        self.view = view
        self.segment = segment          # sibling taken-path segment
        self.record_info = record_info  # (branch_addr, edge, instret)
        self.instret_start = core.instret
        self.max_instret = core.instret + max_len


class DetailedCmpEngine:
    """Cycle-interleaved CMP simulation of PathExpander.

    ``max_instructions`` counts only the primary core's (taken-path)
    instructions, because the NT-paths run on other cores; the
    single-core engine counts both, so the two truncate at different
    points.
    """

    def __init__(self, program, detector=None, config=None, io=None,
                 memory_words=1 << 20, stack_words=1 << 16,
                 segment_capacity_words=512):
        self.program = program
        self.detector = detector
        self.config = config or PathExpanderConfig(mode=Mode.CMP)
        self.io = io or IOContext()
        self.segment_capacity_words = segment_capacity_words

        cfg = self.config
        self.memory = MainMemory(size=memory_words,
                                 globals_size=program.globals_size,
                                 stack_words=stack_words)
        for addr, value in program.data_image.items():
            self.memory.cells[addr] = value
        self.allocator = HeapAllocator(self.memory.heap_base,
                                       self.memory.stack_limit)
        self.btb = BranchTargetBuffer(entries=cfg.btb_entries,
                                      ways=cfg.btb_ways)
        self.coverage = CoverageTracker()
        self.selector = NTPathSelector(self.btb, cfg)

        if detector is not None and hasattr(detector, 'attach'):
            detector.attach(program, self.memory, self.allocator)

        self._segments = []
        self._segment_counter = 0
        self._taken_view = _TakenView(self.memory, self._segments)

        self.primary = Core(core_id=0)
        self.primary.reset(program.entry, self.memory.stack_top)
        # Cycle interleaving with NT contexts needs per-instruction
        # stepping, so only ``step`` is used here -- never fused
        # blocks -- and both backends share the reference ``step``:
        # this engine always runs the reference ``Interpreter``.
        self.primary_interp = Interpreter(
            program, self._taken_view, self.allocator,
            self.primary, self.io, Cache.l1(cfg),
            detector=detector, on_branch=self._on_primary_branch)

        self._nt_contexts = []
        self._nt_pending = []      # queued in free thread contexts
        self.result = RunResult(program, self.config, detector)
        self.result.total_edges = program.num_edges
        self._finished = False
        self._max_nt_cycles = 0

    # ==================================================================

    def run(self):
        limit = self.config.max_instructions
        try:
            while not self._finished:
                context = self._next_context()
                if context is None:
                    self._step_primary(limit)
                else:
                    self._step_nt(context)
            # drain outstanding NT-paths after the program finishes
            while self._nt_contexts or self._nt_pending:
                while self._nt_pending and len(self._nt_contexts) \
                        < self.config.num_cores - 1:
                    self._activate_pending(self.primary.cycles)
                self._step_nt(min(self._nt_contexts,
                                  key=lambda c: c.core.cycles))
            self._commit_ready_segments(force_all=True)
        finally:
            # Break the branch callbacks' cycles through this engine,
            # so reference counting frees the run as soon as it is
            # dropped (as PathExpanderEngine.run does).
            self.primary_interp.release()
            for context in self._nt_contexts + self._nt_pending:
                context.interp.release()
        self._finalize()
        return self.result

    def _next_context(self):
        """The NT context strictly behind the primary clock, if any."""
        best = None
        for context in self._nt_contexts:
            if context.core.cycles < self.primary.cycles:
                if best is None or context.core.cycles \
                        < best.core.cycles:
                    best = context
        return best

    # ------------------------------------------------------------------

    def _step_primary(self, limit):
        try:
            self.primary_interp.step()
            if self.primary.instret >= limit:
                self.result.truncated = True
                self.result.truncation_reason = 'instructions'
                self._finished = True
        except ProgramExit as exit_:
            self.result.exit_code = exit_.code
            self._finished = True
        except SimFault as fault:
            self.result.crashed = True
            self.result.crash_kind = fault.kind
            self._finished = True

    def _step_nt(self, context):
        core = context.core
        try:
            context.interp.step()
            if core.instret < context.max_instret:
                return
            reason = NTPathTermination.LENGTH
        except UnsafeEvent:
            reason = NTPathTermination.UNSAFE
        except VolatileOverflow as overflow:
            core.cycles += overflow.cycles
            reason = NTPathTermination.OVERFLOW
        except SimFault:
            reason = NTPathTermination.CRASH
        except ProgramExit:
            reason = NTPathTermination.PROGRAM_END
        self._squash_nt(context, reason)

    def _activate_pending(self, free_time):
        """Move one queued NT-path onto the freed core."""
        if not self._nt_pending:
            return
        context = self._nt_pending.pop(0)
        if context.core.cycles < free_time:
            context.core.cycles = free_time
        self._nt_contexts.append(context)

    def _squash_nt(self, context, reason):
        context.core.cycles += self.config.squash_overhead
        self._nt_contexts.remove(context)
        self._activate_pending(context.core.cycles)
        context.segment.sibling_done = True
        branch_addr, edge_taken, spawn_instret = context.record_info
        length = context.core.instret - context.instret_start
        self.result.instret_nt += length
        self.result.count_termination(reason)
        self.result.journal_entries_total += len(context.view.buffer)
        if self.config.collect_nt_details:
            self.result.nt_details.append(NTPathRecord(
                branch_addr, edge_taken, length, reason, spawn_instret))
        if context.core.cycles > self._max_nt_cycles:
            self._max_nt_cycles = context.core.cycles
        self._commit_ready_segments()

    # ------------------------------------------------------------------
    # segments: creation, forced commit, ordered commit

    def _commit_ready_segments(self, force_all=False):
        while self._segments:
            segment = self._segments[0]
            if not segment.sibling_done and not force_all:
                break
            for addr, value in segment.overlay.items():
                self.memory.cells[addr] = value
            self._segments.pop(0)

    def _maybe_force_commit(self):
        """Displacement rule: an overgrown oldest segment forces its
        commit, squashing the sibling NT-path immediately."""
        while self._segments and \
                len(self._segments[0].overlay) \
                > self.segment_capacity_words:
            segment = self._segments[0]
            if not segment.sibling_done:
                sibling = next((c for c in self._nt_contexts
                                if c.segment is segment), None)
                if sibling is not None:
                    self._squash_nt(sibling, NTPathTermination.OVERFLOW)
                segment.sibling_done = True
                self.result.forced_segment_commits += 1
            self._commit_ready_segments()
            if self._segments and self._segments[0] is segment:
                break   # still blocked (shouldn't happen)

    # ------------------------------------------------------------------
    # branch handling

    def _on_primary_branch(self, addr, taken, instr):
        self.result.taken_branch_count += 1
        self.coverage.record_taken(addr, taken)
        entry = self.btb.observe_edge(addr, taken)
        selector = self.selector
        instret = self.primary.instret
        # Counter reset must precede the busy check, as in the
        # engine's inlined copy of this decision.
        if instret >= selector.next_reset:
            selector.reset_now(instret)
        self._maybe_force_commit()
        nt_taken = not taken
        outstanding = len(self._nt_contexts) + len(self._nt_pending)
        if outstanding >= self.config.max_num_nt_paths:
            count = entry.taken_count if nt_taken else entry.nt_count
            if count < selector.threshold:
                self.result.nt_skipped_busy += 1
            return
        if selector.consider(entry, nt_taken):
            target = instr.b if nt_taken else addr + 1
            self._spawn_nt(addr, nt_taken, target)

    def _on_nt_branch(self, addr, taken, _instr):
        self.result.nt_branch_count += 1
        self.coverage.record_nt(addr, taken)

    def _spawn_nt(self, branch_addr, edge_taken, target):
        config = self.config
        self.result.nt_spawned += 1
        self.coverage.record_nt(branch_addr, edge_taken)
        self.primary.cycles += config.spawn_overhead

        # new taken-path segment whose sibling is this NT-path
        self._segment_counter += 1
        segment = _Segment(self._segment_counter)

        core = Core(core_id=len(self._nt_contexts) + 1)
        core.regs[:] = self.primary.regs
        core.pc = target
        core.pred = config.variable_fixing
        core.call_depth = self.primary.call_depth
        core.cycles = self.primary.cycles
        core.instret = 0
        core.lcg_state = self.primary.lcg_state

        view = _NTView(self.memory, tuple(self._segments))
        self._segments.append(segment)

        interp = Interpreter(self.program, view, self.allocator.clone(),
                             core, self.io, Cache.l1(config),
                             detector=self.detector,
                             on_branch=self._on_nt_branch)
        # NT interpreters here are stepped per-instruction for cycle
        # interleaving (never through fused blocks), and live for one
        # path only: enter_nt is never paired with exit_nt.
        interp.enter_nt(_NT_VERSION, config.max_nt_path_length)

        context = _NTContext(
            core, interp, view, segment,
            (branch_addr, edge_taken, self.primary.instret),
            config.max_nt_path_length)
        if len(self._nt_contexts) < config.num_cores - 1:
            self._nt_contexts.append(context)
        else:
            self._nt_pending.append(context)

    # ------------------------------------------------------------------

    def _finalize(self):
        result = self.result
        result.instret_taken = self.primary.instret
        result.primary_cycles = self.primary.cycles
        result.cycles = max(self.primary.cycles, self._max_nt_cycles)
        taken_edges, covered_edges = self.coverage.edge_sets()
        result.baseline_covered = len(taken_edges)
        result.total_covered = len(covered_edges)
        result.taken_edges = taken_edges
        result.covered_edges = covered_edges
        if self.detector is not None:
            result.reports = list(self.detector.reports)
        result.output = self.io.output_text
        result.int_output = list(self.io.int_output)
