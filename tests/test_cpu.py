"""Unit tests for the interpreter core: semantics, faults, predication,
syscalls, timing."""

import pytest

from repro.core.config import BACKEND_CHOICES, PathExpanderConfig
from repro.core.runner import run_program
from repro.cpu.exceptions import (FaultKind, ProgramExit, SimFault,
                                  UnsafeEvent)
from repro.cpu.interpreter import Interpreter
from repro.cpu.state import Core
from repro.cpu.syscalls import IOContext
from repro.cpu.timing import OP_COSTS
from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import Reg, Syscall
from repro.memory.allocator import HeapAllocator
from repro.memory.cache import Cache
from repro.memory.main_memory import MainMemory


def make_machine(build, text_input='', int_input=None):
    """Builds a program via ``build(builder)`` and wires a machine."""
    builder = ProgramBuilder('t')
    builder.func('main')
    build(builder)
    program = builder.build()
    memory = MainMemory(size=1 << 16,
                        globals_size=max(program.globals_size, 64),
                        stack_words=1 << 10)
    allocator = HeapAllocator(memory.heap_base, memory.stack_limit)
    core = Core()
    core.reset(program.entry, memory.stack_top)
    io = IOContext(text_input=text_input, int_input=int_input)
    interp = Interpreter(program, memory, allocator, core, io, Cache())
    return interp, core, memory, allocator, io


def run_to_halt(interp, limit=10_000):
    for _ in range(limit):
        try:
            interp.step()
        except ProgramExit:
            return
    raise AssertionError('program did not halt')


class TestALUSemantics:
    def test_register_arithmetic(self):
        def build(b):
            b.emit('li', 8, 6)
            b.emit('li', 9, 7)
            b.emit('mul', 10, 8, 9)
            b.emit('halt')
        interp, core, _m, _a, _io = make_machine(build)
        with pytest.raises(ProgramExit):
            for _ in range(10):
                interp.step()
        assert core.regs[10] == 42

    def test_division_by_zero_faults(self):
        def build(b):
            b.emit('li', 8, 1)
            b.emit('li', 9, 0)
            b.emit('div', 10, 8, 9)
        interp, _c, _m, _a, _io = make_machine(build)
        interp.step()
        interp.step()
        with pytest.raises(SimFault) as excinfo:
            interp.step()
        assert excinfo.value.kind == FaultKind.DIV_ZERO

    def test_mod_by_zero_faults(self):
        def build(b):
            b.emit('li', 8, 1)
            b.emit('li', 9, 0)
            b.emit('mod', 10, 8, 9)
        interp, _c, _m, _a, _io = make_machine(build)
        interp.step()
        interp.step()
        with pytest.raises(SimFault):
            interp.step()

    def test_shift_amount_masked(self):
        def build(b):
            b.emit('li', 8, 1)
            b.emit('li', 9, 1 << 20)      # enormous shift count
            b.emit('shl', 10, 8, 9)
            b.emit('halt')
        interp, core, _m, _a, _io = make_machine(build)
        with pytest.raises(ProgramExit):
            for _ in range(10):
                interp.step()
        assert core.regs[10] == 1 << ((1 << 20) & 63)


class TestMemoryInstructions:
    def test_load_store_round_trip(self):
        def build(b):
            base = b.alloc_global('g', 4)
            b.emit('li', 8, 1234)
            b.emit('st', 8, 0, base + 2)
            b.emit('ld', 9, 0, base + 2)
            b.emit('halt')
            build.base = base
        interp, core, _m, _a, _io = make_machine(build)
        with pytest.raises(ProgramExit):
            for _ in range(10):
                interp.step()
        assert core.regs[9] == 1234

    def test_null_access_faults(self):
        def build(b):
            b.emit('ld', 8, 0, 2)          # address 2: null guard
        interp, _c, _m, _a, _io = make_machine(build)
        with pytest.raises(SimFault) as excinfo:
            interp.step()
        assert excinfo.value.kind == FaultKind.NULL_ACCESS

    def test_store_counts(self):
        def build(b):
            base = b.alloc_global('g', 2)
            b.emit('li', 8, 1)
            b.emit('st', 8, 0, base)
            b.emit('st', 8, 0, base + 1)
            b.emit('halt')
        interp, _c, _m, _a, _io = make_machine(build)
        with pytest.raises(ProgramExit):
            for _ in range(10):
                interp.step()
        assert interp.store_count == 2


class TestControlFlow:
    def test_branch_taken_and_not(self):
        def build(b):
            target = b.new_label()
            b.emit('li', 8, 1)
            b.br(8, target)
            b.emit('li', 9, 111)           # skipped
            b.bind(target)
            b.emit('li', 10, 222)
            b.emit('halt')
        interp, core, _m, _a, _io = make_machine(build)
        with pytest.raises(ProgramExit):
            for _ in range(10):
                interp.step()
        assert core.regs[9] == 0
        assert core.regs[10] == 222

    def test_branch_callback(self):
        seen = []

        def build(b):
            label = b.new_label()
            b.emit('li', 8, 0)
            b.br(8, label)
            b.bind(label)
            b.emit('halt')
        interp, _c, _m, _a, _io = make_machine(build)
        interp.on_branch = lambda addr, taken, instr: \
            seen.append((addr, taken))
        with pytest.raises(ProgramExit):
            for _ in range(10):
                interp.step()
        assert seen == [(1, False)]

    def test_call_ret(self):
        def build(b):
            b.call('helper')
            b.emit('halt')
            b.func('helper')
            b.emit('li', 8, 5)
            b.emit('ret')
        interp, core, _m, _a, _io = make_machine(build)
        with pytest.raises(ProgramExit):
            for _ in range(10):
                interp.step()
        assert core.regs[8] == 5
        assert core.call_depth == 0

    def test_call_depth_limit(self):
        def build(b):
            b.call('main')                 # infinite recursion
        interp, _c, _m, _a, _io = make_machine(build)
        with pytest.raises(SimFault) as excinfo:
            for _ in range(10_000):
                interp.step()
        assert excinfo.value.kind in (FaultKind.CALL_DEPTH,
                                      FaultKind.STACK_OVERFLOW)

    def test_stack_overflow_on_push(self):
        def build(b):
            loop = b.new_label()
            b.bind(loop)
            b.emit('push', 8)
            b.jmp(loop)
        interp, _c, _m, _a, _io = make_machine(build)
        with pytest.raises(SimFault) as excinfo:
            for _ in range(10_000):
                interp.step()
        assert excinfo.value.kind == FaultKind.STACK_OVERFLOW

    def test_pc_out_of_range(self):
        def build(b):
            b.emit('nop')
        interp, _c, _m, _a, _io = make_machine(build)
        interp.step()
        with pytest.raises(SimFault) as excinfo:
            interp.step()
        assert excinfo.value.kind == FaultKind.BAD_JUMP

    def test_negative_pc_faults_on_both_backends(self):
        # ret to address -1: the fetch must fault, not wrap around to
        # code[-1] (the halt) and exit cleanly.
        builder = ProgramBuilder('t')
        builder.func('main')
        builder.emit('li', 8, -1)
        builder.emit('push', 8)
        builder.emit('ret')
        builder.emit('halt')
        program = builder.build()
        results = {}
        for backend in BACKEND_CHOICES:
            config = PathExpanderConfig(mode='baseline', backend=backend)
            results[backend] = run_program(program,
                                           config=config).to_dict()
        assert results['fast'] == results['reference']
        assert results['reference']['crashed']
        assert results['reference']['crash_kind'] == FaultKind.BAD_JUMP
        assert results['reference']['exit_code'] is None


class TestPredication:
    def _build(self, b):
        b.emit('li', 8, 1, pred=True)      # fix block
        b.emit('li', 9, 2, pred=True)
        b.emit('li', 10, 3)                # clears the predicate
        b.emit('li', 11, 4, pred=True)     # after the window: NOP
        b.emit('halt')

    def test_predicated_skipped_when_clear(self):
        interp, core, _m, _a, _io = make_machine(self._build)
        with pytest.raises(ProgramExit):
            for _ in range(10):
                interp.step()
        assert core.regs[8] == 0
        assert core.regs[9] == 0
        assert core.regs[10] == 3

    def test_predicated_executes_at_entry_then_clears(self):
        interp, core, _m, _a, _io = make_machine(self._build)
        core.pred = True                   # as set at NT-path entry
        with pytest.raises(ProgramExit):
            for _ in range(10):
                interp.step()
        assert core.regs[8] == 1
        assert core.regs[9] == 2
        assert core.regs[10] == 3
        assert core.regs[11] == 0          # window closed
        assert not core.pred


class TestSyscalls:
    def test_io_round_trip(self):
        def build(b):
            b.emit('syscall', Syscall.GETC)
            b.emit('mov', Reg.A1, Reg.RV)
            b.emit('syscall', Syscall.PUTC)
            b.emit('syscall', Syscall.READ_INT)
            b.emit('mov', Reg.A1, Reg.RV)
            b.emit('syscall', Syscall.PRINT_INT)
            b.emit('halt')
        interp, _c, _m, _a, io = make_machine(build, text_input='Q',
                                              int_input=[55])
        with pytest.raises(ProgramExit):
            for _ in range(10):
                interp.step()
        assert io.output_text == 'Q55\n'

    def test_exit_code(self):
        def build(b):
            b.emit('li', Reg.A1, 9)
            b.emit('syscall', Syscall.EXIT)
        interp, _c, _m, _a, _io = make_machine(build)
        interp.step()
        with pytest.raises(ProgramExit) as excinfo:
            interp.step()
        assert excinfo.value.code == 9

    def test_unknown_syscall_faults(self):
        def build(b):
            b.emit('syscall', 999)
        interp, _c, _m, _a, _io = make_machine(build)
        with pytest.raises(SimFault):
            interp.step()

    def test_unsafe_in_nt_mode(self):
        def build(b):
            b.emit('syscall', Syscall.PUTC)
        interp, _c, _m, _a, io = make_machine(build)
        interp.in_nt_path = True
        with pytest.raises(UnsafeEvent):
            interp.step()
        assert io.output_text == ''

    def test_rand_uses_core_state(self):
        def build(b):
            b.emit('syscall', Syscall.RAND)
            b.emit('mov', 8, Reg.RV)
            b.emit('syscall', Syscall.RAND)
            b.emit('mov', 9, Reg.RV)
            b.emit('halt')
        interp, core, _m, _a, _io = make_machine(build)
        with pytest.raises(ProgramExit):
            for _ in range(10):
                interp.step()
        assert core.regs[8] != core.regs[9]


class TestTiming:
    def test_expensive_ops_cost_more(self):
        assert OP_COSTS['div'] > OP_COSTS['add']
        assert OP_COSTS['malloc'] > OP_COSTS['li']

    def test_cycles_accumulate(self):
        def build(b):
            b.emit('li', 8, 1)
            b.emit('li', 9, 2)
            b.emit('div', 10, 9, 8)
            b.emit('halt')
        interp, core, _m, _a, _io = make_machine(build)
        with pytest.raises(ProgramExit):
            for _ in range(10):
                interp.step()
        assert core.cycles >= 1 + 1 + 12
        assert core.instret == 3


class TestCoreState:
    def test_reset(self):
        core = Core()
        core.regs[5] = 99
        core.cycles = 1000
        core.reset(entry=7, sp=500)
        assert core.pc == 7
        assert core.regs[Reg.SP] == 500
        assert core.regs[5] == 0
        assert core.cycles == 0

    def test_lcg_deterministic(self):
        a = Core(rand_seed=42)
        b = Core(rand_seed=42)
        assert [a.next_rand() for _ in range(5)] == \
            [b.next_rand() for _ in range(5)]
