"""The execution core: instruction semantics + cost accounting.

The interpreter executes one instruction per :meth:`Interpreter.step`;
:meth:`Interpreter.drive_taken` and :meth:`Interpreter.drive_nt` loop
over it up to an instruction budget.  PathExpander's engines observe
branches through the ``on_branch`` callback (where NT-path spawning
decisions are made).  ``step`` and the drive loops return nothing;
every early end is an exception (:mod:`repro.cpu.exceptions`):
``UnsafeEvent`` when an NT-path reaches a syscall, which is *not*
performed (side effects cannot be sandboxed); ``VolatileOverflow``,
raised by the cache model, when an NT-path store cannot be buffered in
L1; ``SimFault`` for a machine fault; ``ProgramExit`` at program end.
"""

from __future__ import annotations

from repro.cpu.exceptions import (FaultKind, ProgramExit, SimFault,
                                  UnsafeEvent)
from repro.cpu.timing import OP_COSTS, PREDICATED_SKIP_COST
from repro.isa.instructions import Reg, Syscall

_SHIFT_MASK = 63

# Effectively "no limit"; engines lower it to config.max_instructions.
NO_INSTRET_LIMIT = 1 << 62


class Interpreter:
    """Executes a :class:`~repro.isa.program.Program` on a core.

    This is the *reference* backend: one fully general dispatch per
    instruction.  :class:`~repro.cpu.fastinterp.FastInterpreter`
    subclasses it with basic-block closures and runs this ``step`` for
    non-block code; the two must stay semantically identical (see
    DESIGN.md, "Dual-backend equivalence invariant").
    """

    __slots__ = ('program', 'code', 'memory', 'allocator', 'core', 'io',
                 'cache', 'detector', 'on_branch', 'in_nt_path',
                 'cache_version', 'store_count', 'sandbox_unsafe',
                 '_cost', 'instret_limit', '_outer_limit')

    def __init__(self, program, memory, allocator, core, io, cache,
                 detector=None, on_branch=None):
        self.program = program
        self.code = program.code
        self.memory = memory
        self.allocator = allocator
        self.core = core
        self.io = io
        self.cache = cache
        self.detector = detector
        self.on_branch = on_branch
        self.in_nt_path = False
        self.cache_version = 0
        self.store_count = 0
        # With OS sandboxing of unsafe events (paper future work),
        # syscalls execute speculatively inside NT-paths; the engine
        # rolls the I/O context back at squash.
        self.sandbox_unsafe = False
        # The per-opcode cost table, bound for the hot path.
        self._cost = OP_COSTS
        # Instruction budget honoured by the fast backend's fused
        # blocks; the reference backend steps singly, so its engine
        # loop enforces the budget between steps instead.
        self.instret_limit = NO_INSTRET_LIMIT
        self._outer_limit = NO_INSTRET_LIMIT

    # ------------------------------------------------------------------
    # NT-path state transition
    #
    # Entering/leaving the sandbox changes three pieces of interpreter
    # state at once: the NT flag, the cache version under which lines
    # are tagged volatile, and the instret budget (inside an NT-path
    # the budget is the path length cap, not max_instructions -- the
    # reference engine loop never checks the global cap there either).
    # One call pair keeps every spawn site consistent and cheap.

    def enter_nt(self, cache_version, instret_limit):
        self.in_nt_path = True
        self.cache_version = cache_version
        self._outer_limit = self.instret_limit
        self.instret_limit = instret_limit

    def exit_nt(self):
        self.in_nt_path = False
        self.cache_version = 0
        self.instret_limit = self._outer_limit

    # ------------------------------------------------------------------

    def step(self):
        core = self.core
        pc = core.pc
        if pc < 0:                 # code[pc] would wrap to the end
            raise SimFault(FaultKind.BAD_JUMP, 'pc=%d' % pc)
        try:
            instr = self.code[pc]
        except IndexError:
            raise SimFault(FaultKind.BAD_JUMP, 'pc=%d' % pc)
        op = instr.op

        if instr.pred:
            if not core.pred:
                core.pc = pc + 1
                core.cycles += PREDICATED_SKIP_COST
                core.instret += 1
                return
        elif core.pred:
            core.pred = False

        regs = core.regs
        cost = self._cost[op]

        # Most frequent opcodes first (the dynamic mix of the paper's
        # short runs): every arm ahead of an opcode is a failed test.
        if op == 'li':
            regs[instr.a] = instr.b
            core.pc = pc + 1
        elif op == 'ld':
            addr = regs[instr.b] + instr.c
            value = self.memory.read(addr)
            regs[instr.a] = value
            cost += self.cache.access(addr, False, self.cache_version)
            if self.detector is not None:
                cost += self.detector.on_load(addr, value, self)
            core.pc = pc + 1
        elif op == 'mov':
            regs[instr.a] = regs[instr.b]
            core.pc = pc + 1
        elif op == 'st':
            addr = regs[instr.b] + instr.c
            value = regs[instr.a]
            self.store_count += 1
            cost += self.cache.access(addr, True, self.cache_version)
            self.memory.write(addr, value)
            if self.detector is not None:
                cost += self.detector.on_store(addr, value, self)
            core.pc = pc + 1
        elif op == 'br':
            taken = regs[instr.a] != 0
            core.pc = instr.b if taken else pc + 1
            core.cycles += cost
            core.instret += 1
            if self.on_branch is not None:
                self.on_branch(pc, taken, instr)
            return
        elif op == 'jmp':
            core.pc = instr.a
        elif op == 'add':
            regs[instr.a] = regs[instr.b] + regs[instr.c]
            core.pc = pc + 1
        elif op == 'push':
            sp = regs[Reg.SP] - 1
            if sp < self.memory.stack_limit:
                raise SimFault(FaultKind.STACK_OVERFLOW, 'sp=%d' % sp)
            regs[Reg.SP] = sp
            self.memory.write(sp, regs[instr.a])
            core.pc = pc + 1
        elif op == 'pop':
            sp = regs[Reg.SP]
            regs[instr.a] = self.memory.read(sp)
            regs[Reg.SP] = sp + 1
            core.pc = pc + 1
        elif op == 'ret':
            sp = regs[Reg.SP]
            core.pc = self.memory.read(sp)
            regs[Reg.SP] = sp + 1
            core.call_depth -= 1
        elif op == 'call':
            if core.call_depth >= core.MAX_CALL_DEPTH:
                raise SimFault(FaultKind.CALL_DEPTH, 'pc=%d' % pc)
            sp = regs[Reg.SP] - 1
            if sp < self.memory.stack_limit:
                raise SimFault(FaultKind.STACK_OVERFLOW, 'sp=%d' % sp)
            regs[Reg.SP] = sp
            self.memory.write(sp, pc + 1)
            core.call_depth += 1
            core.pc = instr.a
        elif op in ('seq', 'sne', 'slt', 'sge', 'sle', 'sgt'):
            lhs = regs[instr.b]
            rhs = regs[instr.c]
            if op == 'seq':
                regs[instr.a] = 1 if lhs == rhs else 0
            elif op == 'sne':
                regs[instr.a] = 1 if lhs != rhs else 0
            elif op == 'slt':
                regs[instr.a] = 1 if lhs < rhs else 0
            elif op == 'sge':
                regs[instr.a] = 1 if lhs >= rhs else 0
            elif op == 'sle':
                regs[instr.a] = 1 if lhs <= rhs else 0
            else:
                regs[instr.a] = 1 if lhs > rhs else 0
            core.pc = pc + 1
        elif op == 'addi':
            value = regs[instr.b] + instr.c
            regs[instr.a] = value
            if instr.a == Reg.SP and value < self.memory.stack_limit:
                raise SimFault(FaultKind.STACK_OVERFLOW, 'sp=%d' % value)
            core.pc = pc + 1
        elif op == 'sub':
            regs[instr.a] = regs[instr.b] - regs[instr.c]
            core.pc = pc + 1
        elif op == 'syscall':
            if self.in_nt_path and not self.sandbox_unsafe:
                # Unsafe event: do not perform; the engine squashes.
                raise UnsafeEvent(pc)
            self._do_syscall(instr.a, regs)
        elif op == 'mul':
            regs[instr.a] = regs[instr.b] * regs[instr.c]
            core.pc = pc + 1
        elif op == 'assert':
            if regs[instr.a] == 0 and self.detector is not None:
                cost += self.detector.on_assert_fail(instr.b, pc, self)
            core.pc = pc + 1
        elif op == 'mod':
            divisor = regs[instr.c]
            if divisor == 0:
                raise SimFault(FaultKind.DIV_ZERO, 'pc=%d' % pc)
            value = regs[instr.b]
            remainder = abs(value) % abs(divisor)
            regs[instr.a] = -remainder if value < 0 else remainder
            core.pc = pc + 1
        elif op == 'and':
            regs[instr.a] = regs[instr.b] & regs[instr.c]
            core.pc = pc + 1
        elif op == 'div':
            divisor = regs[instr.c]
            if divisor == 0:
                raise SimFault(FaultKind.DIV_ZERO, 'pc=%d' % pc)
            # C-style truncating division.
            quotient = abs(regs[instr.b]) // abs(divisor)
            if (regs[instr.b] < 0) != (divisor < 0):
                quotient = -quotient
            regs[instr.a] = quotient
            core.pc = pc + 1
        elif op == 'halt':
            raise ProgramExit(0)
        elif op == 'malloc':
            base = self.allocator.malloc(regs[instr.b])
            regs[instr.a] = base
            if self.detector is not None:
                self.detector.on_alloc(base, regs[instr.b], self)
            core.pc = pc + 1
        elif op == 'free':
            addr = regs[instr.a]
            ok = self.allocator.free(addr)
            if self.detector is not None:
                cost += self.detector.on_free(addr, ok, self)
            core.pc = pc + 1
        elif op == 'or':
            regs[instr.a] = regs[instr.b] | regs[instr.c]
            core.pc = pc + 1
        elif op == 'xor':
            regs[instr.a] = regs[instr.b] ^ regs[instr.c]
            core.pc = pc + 1
        elif op == 'shl':
            regs[instr.a] = regs[instr.b] << (regs[instr.c] & _SHIFT_MASK)
            core.pc = pc + 1
        elif op == 'shr':
            regs[instr.a] = regs[instr.b] >> (regs[instr.c] & _SHIFT_MASK)
            core.pc = pc + 1
        elif op == 'nop':
            core.pc = pc + 1
        else:                                    # pragma: no cover
            raise SimFault(FaultKind.BAD_JUMP, 'bad op %r' % op)

        core.cycles += cost
        core.instret += 1

    def drive_nt(self, limit):
        """Step until ``core.instret >= limit``.

        Every earlier end propagates as an exception (see the module
        docstring).  The fast backend overrides this with a loop over
        its block table.
        """
        core = self.core
        step = self.step
        while core.instret < limit:
            step()

    # The taken path shares the loop: it never raises UnsafeEvent or
    # VolatileOverflow (both need an NT-path), and the branch callback
    # runs each NT-path to its end before it returns.
    drive_taken = drive_nt

    def release(self):
        """Drop the engine's branch callback, a bound method whose cycle
        would keep the finished run alive until the cyclic collector."""
        self.on_branch = None

    # ------------------------------------------------------------------

    def _do_syscall(self, code, regs):
        io = self.io
        io.syscall_count += 1
        if code == Syscall.PRINT_INT:
            io.print_int(regs[Reg.A1])
        elif code == Syscall.PUTC:
            io.putc(regs[Reg.A1])
        elif code == Syscall.GETC:
            regs[Reg.RV] = io.getc()
        elif code == Syscall.READ_INT:
            regs[Reg.RV] = io.read_int()
        elif code == Syscall.EXIT:
            self.core.pc += 1
            raise ProgramExit(regs[Reg.A1])
        elif code == Syscall.RAND:
            regs[Reg.RV] = self.core.next_rand()
        elif code == Syscall.TIME:
            regs[Reg.RV] = self.core.next_rand() & 0xFFFF
        else:
            raise SimFault(FaultKind.BAD_JUMP, 'bad syscall %r' % code)
        self.core.pc += 1
