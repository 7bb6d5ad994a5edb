"""Unit tests for the fast execution backend's machinery.

The system-level guarantee (byte-identical results on real apps) lives
in ``test_backend_equivalence.py``; this file pins down the individual
mechanisms: every opcode's block emitter against the reference step,
block fusion, budget-aware truncation, mid-block fault flushing,
predicated handling, out-of-range PCs, every fallback path,
tiered promotion and the per-Program code memo.
"""

from __future__ import annotations

import gc

import pytest

from repro.core.config import (BACKEND_CHOICES, PathExpanderConfig,
                               default_backend)
import repro.core.engine as engine_mod
from repro.core.engine import PathExpanderEngine
from repro.core.runner import run_program
import repro.cpu.fastinterp as fastinterp
from repro.cpu.exceptions import ProgramExit, SimFault
from repro.cpu.fastinterp import FastInterpreter, _BlockCompiler
from repro.cpu.interpreter import Interpreter
from repro.detectors import AssertionDetector, CCuredDetector, Detector
from repro.isa.cfg import (BLOCK_OPS, FUSEABLE_OPS, TERMINATOR_OPS,
                           basic_runs, block_leaders, fuseable_run)
from repro.isa.instructions import Instr, Reg, Syscall
from repro.isa.program import Program
from repro.memory.main_memory import MainMemory
from repro.resilience import ChaosDetector, events


def _prog(code, functions=None, entry=0, globals_size=64):
    return Program(list(code), functions or {'main': 0}, entry,
                   globals_size, name='unit')


def _run_both(program, mode='baseline', detector='none', **overrides):
    results = {}
    for backend in BACKEND_CHOICES:
        config = PathExpanderConfig(mode=mode, backend=backend,
                                    **overrides)
        results[backend] = run_program(program, detector=detector,
                                       config=config).to_dict()
    assert results['fast'] == results['reference']
    return results['reference']


def _engine(program, mode='baseline', **overrides):
    config = PathExpanderConfig(mode=mode, backend='fast', **overrides)
    return PathExpanderEngine(program, config=config)


@pytest.fixture
def promote_at_once(monkeypatch):
    """Compile every block on its first entry, so even short test
    programs run on fused blocks."""
    monkeypatch.setattr(fastinterp, '_PROMOTE_AFTER', 1)


def _alu_block_program(pad=6):
    """li/alu/cmp straight line, then print the result and halt."""
    code = [Instr('li', 3, 10), Instr('li', 4, 3)]
    for _ in range(pad):
        code += [Instr('add', 3, 3, 4), Instr('xor', 4, 4, 3),
                 Instr('slt', 5, 4, 3)]
    code += [Instr('mov', Reg.A1, 3),
             Instr('syscall', Syscall.PRINT_INT),
             Instr('halt')]
    return _prog(code)


# Promotion thresholds for the opcode tests.  At 1 every run is
# compiled on first entry, so each opcode executes in its
# _BlockCompiler emitter; at the default these short programs never
# promote and the fast backend runs them on the reference step.
_OPCODE_THRESHOLDS = (1, fastinterp._PROMOTE_AFTER)


def _run_opcodes(monkeypatch, code, **program_kwargs):
    """``_run_both`` at each of ``_OPCODE_THRESHOLDS``, on a fresh
    Program (cold block memo) each time."""
    data = None
    for after in _OPCODE_THRESHOLDS:
        monkeypatch.setattr(fastinterp, '_PROMOTE_AFTER', after)
        program = _prog(code, **program_kwargs)
        result = _run_both(program)
        if after == 1:
            assert any(entry is not None
                       for variant in program.block_memo.values()
                       for entry in variant.values())
        assert data is None or result == data
        data = result
    return data


class TestOpcodeClosures:
    def test_alu_cmp_shift_semantics(self, monkeypatch):
        # Operands live in high registers so the A1 moves for printing
        # cannot clobber them.
        code = [Instr('li', 10, -7), Instr('li', 11, 3)]
        for op in ('add', 'sub', 'mul', 'and', 'or', 'xor',
                   'shl', 'shr', 'slt', 'sle', 'seq', 'sne',
                   'sgt', 'sge', 'div', 'mod'):
            code.append(Instr(op, 12, 10, 11))
            code.append(Instr('mov', Reg.A1, 12))
            code.append(Instr('syscall', Syscall.PRINT_INT))
        code.append(Instr('halt'))
        data = _run_opcodes(monkeypatch, code)
        assert data['int_output'][:3] == [-4, -10, -21]

    def test_memory_stack_and_calls(self, monkeypatch):
        fn = 13
        code = [
            Instr('li', 1, 20),
            Instr('st', 1, 0, 16),          # globals base
            Instr('ld', 2, 0, 16),
            Instr('push', 2),
            Instr('call', fn, 'double'),
            Instr('pop', 3),
            Instr('mov', Reg.A1, Reg.RV),
            Instr('syscall', Syscall.PRINT_INT),
            Instr('mov', Reg.A1, 3),        # the popped value
            Instr('syscall', Syscall.PRINT_INT),
            Instr('mov', Reg.A1, Reg.SP),   # stack pointer after pop
            Instr('syscall', Syscall.PRINT_INT),
            Instr('halt'),
            # double(top of stack) -> RV
            Instr('ld', 4, Reg.SP, 1),      # arg above return address
            Instr('add', Reg.RV, 4, 4),
            Instr('ret'),
        ]
        data = _run_opcodes(monkeypatch, code,
                            functions={'main': 0, 'double': fn})
        assert data['int_output'][:2] == [40, 20]
        assert data['exit_code'] == 0

    def test_division_semantics_match(self, monkeypatch):
        # Truncation toward zero for negative operands, in and out of
        # fused blocks.
        for dividend, divisor in [(-7, 2), (7, -2), (-7, -2), (7, 2)]:
            code = [Instr('li', 1, dividend), Instr('li', 2, divisor),
                    Instr('div', 3, 1, 2), Instr('mod', 4, 1, 2),
                    Instr('mov', Reg.A1, 3),
                    Instr('syscall', Syscall.PRINT_INT),
                    Instr('mov', Reg.A1, 4),
                    Instr('syscall', Syscall.PRINT_INT),
                    Instr('halt')]
            data = _run_opcodes(monkeypatch, code)
            quotient, remainder = data['int_output']
            assert quotient * divisor + remainder == dividend


@pytest.mark.usefixtures('promote_at_once')
class TestBlockFusion:
    def test_blocks_are_compiled_and_used(self):
        engine = _engine(_alu_block_program())
        engine.run()
        interp = engine.interp
        assert isinstance(interp, FastInterpreter)
        assert interp.block_count > 0
        assert not interp.block_compile_failed

    def test_fused_run_identical_to_reference(self):
        _run_both(_alu_block_program())

    def test_truncation_mid_block(self):
        # The budget lands strictly inside the fused block: the block
        # must refuse to run and fall back to single stepping so both
        # backends truncate on the same instruction.
        for limit in (3, 7, 10):
            data = _run_both(_alu_block_program(pad=8),
                             max_instructions=limit)
            assert data['truncated']
            assert data['instret_taken'] == limit

    def test_mid_block_fault_flushes_partial_state(self):
        # div-by-zero after several fused instructions: cycles/instret
        # of the completed prefix must be retired and pc parked on the
        # faulting instruction, exactly as the reference does.
        code = [Instr('li', 1, 5), Instr('li', 2, 0)]
        code += [Instr('add', 1, 1, 1)] * 4
        code += [Instr('div', 3, 1, 2), Instr('halt')]
        data = _run_both(_prog(code))
        assert data['crashed']
        assert data['crash_kind'] == 'div_zero'

    def test_mid_block_memory_fault(self):
        # A wild load inside a fused block (NULL page).
        code = [Instr('li', 1, 2), Instr('add', 1, 1, 1),
                Instr('ld', 2, 1, 0), Instr('halt')]
        data = _run_both(_prog(code))
        assert data['crashed']
        assert data['crash_kind'] == 'null_access'

    def test_block_compile_failure_falls_back(self, monkeypatch):
        def bad_compile(self, leader, count, terminator):
            return '_bad%d' % leader, 'def _bad%d(:\n' % leader, {}
        monkeypatch.setattr(_BlockCompiler, 'compile', bad_compile)
        engine = _engine(_alu_block_program())
        result = engine.run()
        assert engine.interp.block_compile_failed
        assert engine.interp.block_count == 0
        assert result.int_output  # still ran, on the reference step

    def test_assert_fused_only_without_detector(self):
        code = [Instr('li', 1, 1), Instr('li', 2, 2),
                Instr('assert', 1, 'a0'), Instr('add', 3, 1, 2),
                Instr('halt')]
        program = _prog(code)
        _run_both(program)
        _run_both(program, mode='baseline', detector='assertions')


def _nt_program(nt_body, trips=6):
    """A taken-path loop around a never-taken branch whose non-taken
    side is ``nt_body`` -- code that only ever executes inside the
    NT-path sandbox."""
    code = [Instr('li', 1, 0), Instr('li', 2, trips), Instr('li', 9, 0)]
    loop = len(code)
    branch = Instr('br', 9, 0)           # target patched below
    code += [Instr('addi', 1, 1, 1),
             branch,
             Instr('slt', 8, 1, 2),
             Instr('br', 8, loop),
             Instr('halt')]
    branch.b = len(code)                 # NT side starts here
    code += list(nt_body)
    return _prog(code)


@pytest.mark.usefixtures('promote_at_once')
class TestNTBlocks:
    """NT-paths executed through fused closures must be
    indistinguishable from reference stepping."""

    def test_nt_paths_run_through_sandboxed_blocks(self):
        # An ALU loop on the NT side: every path length-terminates.
        body = [Instr('li', 4, 0)]
        body += [Instr('add', 4, 4, 1)] * 6
        program = _nt_program(body + [Instr('jmp', 8)])
        engine = _engine(program, mode='standard',
                         max_nt_path_length=50)
        data = engine.run().to_dict()
        assert data['nt_spawned'] > 0
        assert engine.interp.block_count > 0
        assert not engine.interp.block_compile_failed
        # The NT side (leader 8) is reached only inside NT-paths.
        memo, = program.block_memo.values()
        assert memo[8] is not None

    def test_mid_nt_fault_terminates_path_only(self):
        # div-by-zero inside a fused NT block: the path counts a crash
        # termination, the taken path continues, and both backends
        # agree byte-for-byte (cycles of the completed prefix, pc
        # parking, squash accounting).
        body = [Instr('li', 4, 3), Instr('add', 4, 4, 4),
                Instr('div', 5, 4, 9),   # r9 == 0
                Instr('halt')]
        data = _run_both(_nt_program(body), mode='standard',
                         max_nt_path_length=64)
        assert data['nt_spawned'] > 0
        assert data['nt_terminations'].get('crash', 0) > 0
        assert not data['crashed']       # the monitored run survives

    def test_nt_budget_truncation_at_block_boundaries(self):
        # An endless ALU loop on the NT side: every spawned path must
        # stop at exactly the length budget, whether that lands on a
        # block boundary or strictly inside a fused block.
        body = [Instr('li', 4, 0)]
        body += [Instr('add', 4, 4, 1)] * 7
        body += [Instr('jmp', 9)]        # loop the adds forever
        program = _nt_program(body)
        for length in (5, 8, 9, 12, 30):
            data = _run_both(program, mode='standard',
                             max_nt_path_length=length)
            terms = data['nt_terminations']
            # The loop-exit branch also spawns zero-length paths that
            # fall straight into halt (program_end); every other path
            # must stop at exactly the budget.
            assert set(terms) <= {'length', 'program_end'}
            assert terms.get('length', 0) > 0
            assert data['instret_nt'] == terms['length'] * length

    def test_nt_journal_rollback_completeness(self):
        # NT-side stores through the sandboxed blocks touch several
        # globals; after every squash the journal must be empty and
        # main memory byte-identical to the reference backend's.
        body = [Instr('li', 4, 16), Instr('li', 6, 0),
                Instr('ld', 5, 4, 0), Instr('addi', 5, 5, 7),
                Instr('st', 5, 4, 0), Instr('addi', 4, 4, 1),
                Instr('addi', 6, 6, 1), Instr('slt', 7, 6, 2),
                Instr('br', 7, 10), Instr('jmp', 8)]
        program = _nt_program(body)
        engines = {}
        for backend in BACKEND_CHOICES:
            config = PathExpanderConfig(mode='standard',
                                        backend=backend,
                                        max_nt_path_length=200)
            engine = PathExpanderEngine(program, config=config)
            engine.run()
            engines[backend] = engine
        fast, reference = engines['fast'], engines['reference']
        assert fast.result.to_dict() == reference.result.to_dict()
        assert fast.result.nt_spawned > 0
        assert fast.result.nt_store_count > 0
        assert fast.memory.cells == reference.memory.cells
        assert len(fast.memory.nt_journal) == 0

    def test_taken_and_nt_paths_share_blocks(self, monkeypatch):
        # A hot store loop whose never-taken branch leads back into the
        # same run: NT-paths re-enter the taken path's block and, each
        # store touching a fresh line, overflow the tiny L1's volatile
        # ways mid-block.
        code = [Instr('li', 1, 0), Instr('li', 2, 300),
                Instr('li', 5, 1000), Instr('li', 9, 0),
                Instr('st', 1, 5, 0),            # 4: loop
                Instr('addi', 5, 5, 16),
                Instr('addi', 1, 1, 1),
                Instr('br', 9, 4),               # NT side: the loop
                Instr('slt', 8, 1, 2),
                Instr('br', 8, 4),
                Instr('halt')]
        for after in _OPCODE_THRESHOLDS:
            monkeypatch.setattr(fastinterp, '_PROMOTE_AFTER', after)
            program = _prog(code)
            data = _run_both(program, mode='standard',
                             l1_size_bytes=512, l1_ways=2)
            assert data['nt_terminations']['overflow'] > 0
            assert len(program.block_memo) == 1


# NT-side bodies (code from index 8 of ``_nt_program``), each ending
# its NT-paths one way, keyed by the drive_nt outcome they produce: the
# returned event, or the class name of the exception it propagates.
_NT_ENDINGS = {
    None: ([Instr('li', 4, 0), Instr('add', 4, 4, 1),       # length
            Instr('jmp', 9)], {'max_nt_path_length': 12}),
    'overflow': ([Instr('li', 5, 1000), Instr('st', 1, 5, 0),
                  Instr('addi', 5, 5, 16), Instr('jmp', 9)],
                 {'l1_size_bytes': 512, 'l1_ways': 2}),
    'unsafe': ([Instr('li', Reg.A1, 7),
                Instr('syscall', Syscall.PRINT_INT),
                Instr('halt')], {}),
    'SimFault': ([Instr('li', 4, 3), Instr('div', 5, 4, 9),  # r9 == 0
                  Instr('halt')], {}),
    'ProgramExit': ([Instr('halt')], {}),
}


class TestDriveNT:
    """``drive_nt`` ends each NT-path the same way on both backends."""

    @staticmethod
    def _record(monkeypatch):
        """Wrap both backends' ``drive_nt``; each NT-path appends its
        outcome and the instret it stopped at."""
        outcomes = []
        for cls in (Interpreter, FastInterpreter):
            def recording(self, limit, drive=cls.drive_nt):
                try:
                    event = drive(self, limit)
                except (SimFault, ProgramExit) as exc:
                    outcomes.append((type(exc).__name__,
                                     self.core.instret))
                    raise
                outcomes.append((event, self.core.instret))
                return event
            monkeypatch.setattr(cls, 'drive_nt', recording)
        return outcomes

    @pytest.mark.parametrize('after', _OPCODE_THRESHOLDS)
    @pytest.mark.parametrize('ending', list(_NT_ENDINGS))
    def test_same_ending_at_same_instret(self, monkeypatch, ending,
                                         after):
        monkeypatch.setattr(fastinterp, '_PROMOTE_AFTER', after)
        body, overrides = _NT_ENDINGS[ending]
        program = _nt_program(body, trips=40)
        recorded = self._record(monkeypatch)
        outcomes = {}
        for backend in BACKEND_CHOICES:
            config = PathExpanderConfig(mode='standard', backend=backend,
                                        **overrides)
            run_program(program, config=config)
            outcomes[backend] = recorded[:]
            del recorded[:]
        assert outcomes['fast'] == outcomes['reference']
        assert ending in {outcome for outcome, _ in outcomes['fast']}

    @pytest.mark.parametrize('after', [1, float('inf')])
    def test_chaos_variant_polls_once_per_dispatch(self, monkeypatch,
                                                   after):
        monkeypatch.setattr(fastinterp, '_PROMOTE_AFTER', after)
        body, overrides = _NT_ENDINGS[None]
        expected = _engine(_nt_program(body), mode='standard',
                           **overrides).run().to_dict()
        engine = _engine(_nt_program(body), mode='standard', **overrides)
        interp = engine.interp
        nt_polls = []

        def hook():
            if interp.in_nt_path:
                nt_polls.append(interp.core.pc)
        interp._fault_hook = hook
        data = engine.run().to_dict()
        assert data == expected
        # Each NT-path that falls into halt polls once and retires
        # nothing; every other dispatch retires at least one
        # instruction, exactly one when nothing is ever compiled.
        dispatches = data['instret_nt'] \
            + data['nt_terminations'].get('program_end', 0)
        if after == 1:
            assert data['nt_spawned'] <= len(nt_polls) < dispatches
        else:
            assert len(nt_polls) == dispatches


def _memory_block_program():
    """A loop of fused loads and stores, so detector and cache hooks
    are part of its blocks."""
    code = [Instr('li', 1, 0), Instr('li', 2, 0), Instr('li', 5, 9),
            Instr('ld', 3, 1, 16), Instr('add', 2, 2, 3),
            Instr('addi', 3, 3, 1), Instr('st', 3, 1, 17),
            Instr('addi', 1, 1, 1), Instr('slt', 4, 1, 5),
            Instr('br', 4, 3),
            Instr('mov', Reg.A1, 2),
            Instr('syscall', Syscall.PRINT_INT),
            Instr('halt')]
    return _prog(code)


@pytest.mark.usefixtures('promote_at_once')
class TestBlockMemo:
    """Compiled block code is memoised on the Program: a second run
    reuses it, and every variant of the generated code gets its own
    entries."""

    def test_second_run_compiles_nothing(self, monkeypatch):
        calls = []

        def counting_compile(*args):
            calls.append(args[1])
            return compile(*args)
        monkeypatch.setattr(fastinterp, 'compile', counting_compile,
                            raising=False)
        program = _memory_block_program()
        first = _run_both(program, mode='standard', detector='ccured')
        assert calls
        assert program.block_memo
        del calls[:]
        second = _run_both(program, mode='standard', detector='ccured')
        assert calls == []
        assert second == first

    def test_memo_hits_install_blocks(self, monkeypatch):
        program = _memory_block_program()
        _engine(program).run()
        # A warm memo promotes at first entry whatever the threshold.
        monkeypatch.setattr(fastinterp, '_PROMOTE_AFTER', float('inf'))
        engine = _engine(program)
        engine.run()
        assert engine.interp.block_count > 0

    def test_variants_get_distinct_entries(self):
        program = _memory_block_program()
        variants = set()
        for detector, cache in (('none', True), ('ccured', True),
                                ('ccured', False)):
            _run_both(program, mode='standard', detector=detector,
                      enable_cache_model=cache)
            assert set(program.block_memo) > variants
            variants = set(program.block_memo)
        # One variant per detector/cache configuration, serving the
        # taken path and NT-paths alike.
        assert len(variants) == 3

    def test_failed_compile_is_memoised(self, monkeypatch):
        good_compile = _BlockCompiler.compile

        def bad_compile(self, leader, count, terminator):
            return '_bad%d' % leader, 'def _bad%d(:\n' % leader, {}
        monkeypatch.setattr(_BlockCompiler, 'compile', bad_compile)
        program = _alu_block_program()
        _engine(program).run()
        entries = [entry for variant in program.block_memo.values()
                   for entry in variant.values()]
        assert entries and all(entry is None for entry in entries)
        monkeypatch.setattr(_BlockCompiler, 'compile', good_compile)
        engine = _engine(program)
        engine.run()
        assert engine.interp.block_count == 0
        assert not engine.interp.block_compile_failed


class _RecordingCCured(CCuredDetector):
    """CCured that records the shadow byte of every hooked access."""

    def __init__(self):
        super().__init__()
        self.hooked = []

    def on_load(self, addr, value, interp):
        self.hooked.append(self.shadow[addr])
        return CCuredDetector.on_load(self, addr, value, interp)

    def on_store(self, addr, value, interp):
        self.hooked.append(self.shadow[addr])
        return CCuredDetector.on_store(self, addr, value, interp)


@pytest.mark.usefixtures('promote_at_once')
class TestShadowHooks:
    """Blocks test a memory checker's shadow inline and call its hooks
    only for words it does not mark legal; a detector that overrides
    neither hook gets none emitted."""

    def test_blocks_hook_only_words_not_marked_legal(self):
        # Each trip stores and loads a stack word (legal) and loads a
        # global gap word (an overrun).
        code = [Instr('li', 1, 0), Instr('li', 5, 9),
                Instr('st', 1, Reg.SP, -1), Instr('ld', 3, Reg.SP, -1),
                Instr('ld', 2, 1, 16), Instr('addi', 1, 1, 1),
                Instr('slt', 4, 1, 5), Instr('br', 4, 2),
                Instr('mov', Reg.A1, 3),
                Instr('syscall', Syscall.PRINT_INT), Instr('halt')]
        results, hooked = {}, {}
        for backend in BACKEND_CHOICES:
            detector = _RecordingCCured()
            results[backend] = run_program(
                _prog(code), detector=detector,
                config=PathExpanderConfig(backend=backend)).to_dict()
            hooked[backend] = detector.hooked
        assert results['fast'] == results['reference']
        assert results['fast']['reports']
        assert sorted(hooked['reference']) == [0] * 9 + [1] * 18
        assert hooked['fast'] == [0] * 9

    @pytest.mark.parametrize('wrap_base', [False, True])
    def test_hooks_emitted_per_detector(self, monkeypatch, wrap_base):
        if wrap_base:
            # A tracer wraps the base class's hooks in place: a
            # detector inheriting them still needs none.
            for hook in ('on_load', 'on_store'):
                base = vars(Detector)[hook]
                monkeypatch.setattr(
                    Detector, hook,
                    lambda *args, _base=base: _base(*args))
        program = _memory_block_program()
        # detector -> (hook calls emitted, inline shadow test emitted)
        cases = ((AssertionDetector(), False, False),
                 (CCuredDetector(), True, True),
                 (ChaosDetector(CCuredDetector(), None), True, False))
        for detector, hooks, shadow in cases:
            engine = PathExpanderEngine(
                program, detector=detector,
                config=PathExpanderConfig(backend='fast'))
            compiler = _BlockCompiler(engine.interp)
            text = ''.join(
                compiled[1] for compiled in (
                    compiler.compile(*run) for run in basic_runs(
                        program, engine.interp._block_ops()))
                if compiled is not None)
            assert '_v = _cells[_a]' in text
            assert ('_dl(' in text and '_ds(' in text) == hooks, detector
            assert ('_sh[' in text) == shadow, detector


class TestRunRelease:
    """A finished run frees itself by reference counting: no engine,
    interpreter or block table cycle keeps its memory image alive."""

    @pytest.mark.parametrize('after', _OPCODE_THRESHOLDS)
    @pytest.mark.parametrize('backend', BACKEND_CHOICES)
    def test_finished_run_frees_its_memory_image(self, monkeypatch,
                                                 backend, after):
        monkeypatch.setattr(fastinterp, '_PROMOTE_AFTER', after)
        program = _memory_block_program()
        config = PathExpanderConfig(mode='standard', backend=backend)

        def live_memories():
            return sum(type(obj) is MainMemory
                       for obj in gc.get_objects())
        gc.collect()
        before = live_memories()
        gc.disable()
        try:
            result = run_program(program, detector='ccured',
                                 config=config)
            assert result.nt_spawned > 0
            assert live_memories() == before
        finally:
            gc.enable()


class TestDispatchEdges:
    def test_predicated_instructions_skip(self):
        code = [Instr('li', 1, 1),
                Instr('li', 1, 99, pred=True),   # pred clear: a skip
                Instr('mov', Reg.A1, 1),
                Instr('syscall', Syscall.PRINT_INT),
                Instr('halt')]
        data = _run_both(_prog(code))
        assert data['int_output'] == [1]

    def test_predicated_execution_in_nt_entry(self):
        # Variable fixing sets the predicate at NT-path entry, so the
        # predicated leader actually executes there (reference
        # fallback); spawning must agree across backends.
        code = [Instr('li', 1, 4),
                Instr('li', 2, 0),
                # loop: branch is taken until r2 counts down
                Instr('li', 3, 1, pred=True),
                Instr('addi', 2, 2, 1),
                Instr('slt', 4, 2, 1),
                Instr('br', 4, 2),
                Instr('halt')]
        data = _run_both(_prog(code), mode='standard',
                         max_nt_path_length=16)
        assert data['nt_spawned'] > 0

    def test_negative_pc_faults_on_both_backends(self, monkeypatch):
        # jmp -1 (fused at threshold 1) parks core.pc at -1; the next
        # fetch must fault, not wrap to code[-1] (Python negative
        # indexing).
        for after in _OPCODE_THRESHOLDS:
            monkeypatch.setattr(fastinterp, '_PROMOTE_AFTER', after)
            code = [Instr('jmp', -1), Instr('li', 1, 3), Instr('halt')]
            data = _run_both(_prog(code))
            assert data['crashed']
            assert data['crash_kind'] == 'bad_jump'
            assert data['exit_code'] is None

    def test_malloc_free_take_reference_fallback(self):
        code = [Instr('li', 1, 4),
                Instr('malloc', 2, 1),
                Instr('li', 3, 7),
                Instr('st', 3, 2, 0),
                Instr('ld', Reg.A1, 2, 0),
                Instr('syscall', Syscall.PRINT_INT),
                Instr('free', 2),
                Instr('halt')]
        data = _run_both(_prog(code))
        assert data['int_output'] == [7]

    def test_syscall_exit_code(self):
        code = [Instr('li', Reg.A1, 42),
                Instr('syscall', Syscall.EXIT),
                Instr('halt')]
        data = _run_both(_prog(code))
        assert data['exit_code'] == 42


class TestCfgHelpers:
    def test_fuseable_run_stops_at_memory_op_in_pure_tier(self):
        code = [Instr('add', 1, 1, 2), Instr('ld', 3, 1, 0),
                Instr('halt')]
        count, terminator = fuseable_run(code, 0, FUSEABLE_OPS)
        assert count == 1 and terminator is None
        count, terminator = fuseable_run(code, 0, BLOCK_OPS)
        assert count == 2 and terminator is None

    def test_fuseable_run_absorbs_terminator(self):
        code = [Instr('add', 1, 1, 2), Instr('br', 1, 0),
                Instr('halt')]
        count, terminator = fuseable_run(code, 0, BLOCK_OPS)
        assert count == 1
        assert terminator is code[1]
        assert terminator.op in TERMINATOR_OPS

    def test_predicated_instr_continues_run(self):
        code = [Instr('add', 1, 1, 2),
                Instr('call', 5, 'f', pred=True),
                Instr('add', 1, 1, 2), Instr('halt')]
        count, _ = fuseable_run(code, 0, BLOCK_OPS)
        assert count == 3

    def test_block_leaders_include_targets_and_successors(self):
        code = [Instr('add', 1, 1, 2),    # 0: entry
                Instr('br', 1, 0),        # 1: -> {0, 2}
                Instr('call', 4, 'f'),    # 2: -> {4, 3}
                Instr('halt'),            # 3
                Instr('ret')]             # 4: 'f'
        program = _prog(code, functions={'main': 0, 'f': 4})
        leaders = block_leaders(program, BLOCK_OPS)
        assert {0, 2, 3, 4}.issubset(leaders)
        assert all(0 <= addr < len(code) for addr in leaders)


class TestBackendSelection:
    def test_engine_honours_backend_config(self):
        program = _alu_block_program()
        engine = PathExpanderEngine(
            program, config=PathExpanderConfig(backend='reference'))
        assert type(engine.interp) is Interpreter
        engine = PathExpanderEngine(
            program, config=PathExpanderConfig(backend='fast'))
        assert isinstance(engine.interp, FastInterpreter)

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            PathExpanderConfig(backend='jit')

    def test_replace_preserves_backend(self):
        config = PathExpanderConfig(backend='reference')
        assert config.replace(mode='cmp').backend == 'reference'

    def test_default_backend_resolution(self, monkeypatch):
        monkeypatch.delenv('REPRO_BACKEND', raising=False)
        assert default_backend() == 'fast'
        assert PathExpanderConfig().resolved_backend == 'fast'
        monkeypatch.setenv('REPRO_BACKEND', 'reference')
        assert default_backend() == 'reference'
        # explicit config wins over the environment
        assert PathExpanderConfig(backend='fast').resolved_backend \
            == 'fast'
        monkeypatch.setenv('REPRO_BACKEND', 'bogus')
        with pytest.raises(ValueError):
            default_backend()

    def test_construction_failure_falls_back_to_reference(
            self, monkeypatch):
        # run_program's degradation path re-executes the run on the
        # reference backend.
        program = _alu_block_program()
        expected = run_program(program, config=PathExpanderConfig(
            backend='reference')).to_dict()

        class Exploding(FastInterpreter):
            def __init__(self, *args, **kwargs):
                raise RuntimeError('boom')
        monkeypatch.setitem(engine_mod.INTERPRETERS, 'fast', Exploding)
        events.clear()
        result = run_program(program,
                             config=PathExpanderConfig(backend='fast'))
        assert result.to_dict() == expected
        assert events.counts() == {'degraded_to_reference': 1}
