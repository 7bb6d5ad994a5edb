"""Fast execution backend: the reference step plus compiled blocks.

Layered on the reference :class:`Interpreter`, whose ``step`` it
inherits unchanged.  Every opcode is therefore defined twice: once in
``Interpreter.step`` (the oracle) and once in the
:class:`_BlockCompiler` emitters.

**Tiered basic-block compilation.** Straight-line runs (see
:func:`repro.isa.cfg.basic_runs`) can be compiled into a single
closure that executes the whole run in one call and retires its
cycles/instret in one update.  One drive loop (``drive_nt()``, also
bound as ``drive_taken()``) dispatches through one block table,
serving the taken path and NT-paths alike.  The table starts with a
cheap counting stub at each run leader; the stub executes the leader
on the reference ``step`` and, after ``_PROMOTE_AFTER`` entries from
either path, compiles *that run alone* (one small generated source,
one ``compile()``), runs it with ``exec`` in the table's namespace
and replaces itself with the block.
Compiled code objects are memoised on the :class:`Program`
(``Program.block_memo``), keyed by the :class:`_BlockCompiler` variant
key and the leader, so each later run of the same program and variant
installs a memoised block at its first entry without codegen; a run
that fails to compile is memoised as "stay on the reference step".
The memo lives and dies with its Program.

Results never depend on when, or whether, a block is compiled or
memoised: a stub and the block that replaces it execute the same
instructions with the same effects.  Semantics are *identical* to the
reference backend by construction (DESIGN.md, "Dual-backend
equivalence invariant"):

* fused blocks fire cache and detector hooks per instruction, in
  reference order, with ``core.pc`` parked on the hooked instruction,
  and contain no call, return or syscall; a load/store hook is skipped
  for a word the detector's shadow marks legal (its ``legal_cost`` is
  static) and not emitted for a detector that overrides neither;
* every fused load and store calls ``Cache.access`` (the sole owner of
  the cache's last-line memo) and inlines the ``MainMemory`` access;
* a faulting instruction inside a block (``div`` by zero, stack
  overflow) first flushes the cycles/instret of the instructions
  already executed and restores the faulting PC, reproducing the
  reference backend's mid-run state exactly;
* a block refuses to run when it would cross the interpreter's
  ``instret_limit`` (``max_instructions`` on the taken path, the
  NT-path length budget inside the sandbox -- see ``enter_nt``) and
  executes one instruction on the reference step instead, so
  truncation points match;
* a block's stores make the reference step's two NT-path decisions
  from run-time state, as ``step`` does: an L1 volatile overflow
  inside an NT-path flushes the completed prefix and returns
  ``'overflow'`` exactly where the reference would, and a write under
  an active journal records the old value first (monitor area
  excepted); everything else that can terminate a path
  (``syscall``/``malloc``/``free``, predicated execution) is never
  fused and reaches the reference semantics per instruction;
* every table slot without a stub or block -- cold code outside any
  fused run, ``call``/``ret``/``syscall``/``malloc``/``free``/``halt``,
  a run whose compile failed -- and every out-of-range PC runs the
  reference ``step``.

Every fallback is automatic and per-address; a program that defeats
the block compiler entirely still runs, just on the reference step.
"""

from __future__ import annotations

from repro.cpu.exceptions import FaultKind, SimFault
from repro.cpu.interpreter import Interpreter
from repro.cpu.timing import PREDICATED_SKIP_COST
from repro.detectors.base import Detector
from repro.isa.cfg import BLOCK_OPS, basic_runs
from repro.isa.instructions import Reg
from repro.memory.main_memory import NULL_GUARD
from repro.resilience import site_hook

_SP = Reg.SP

# Entries into a run leader before its block is compiled (tier-up).
# Results never depend on it: a stub and its block execute the same
# instructions with the same effects.  Chosen by measurement on the
# perfbench workloads (2-vCPU Linux host, CPython 3.11): 256 beat 128
# on fig8_short by ~13% and tied on fig9_long and table4_bugs; 512
# gained nothing over 256.
_PROMOTE_AFTER = 256

# Memo lookup default: no entry yet for this leader and variant.
_COLD = object()


def _is_reg(value):
    return isinstance(value, int) and 0 <= value < Reg.COUNT


def _is_imm(value):
    return isinstance(value, int) and not isinstance(value, bool)


# ======================================================================
# basic-block source generation

_ALU_SYMBOL = {'add': '+', 'sub': '-', 'mul': '*',
               'and': '&', 'or': '|', 'xor': '^'}
_CMP_SYMBOL = {'slt': '<', 'sle': '<=', 'seq': '==',
               'sne': '!=', 'sgt': '>', 'sge': '>='}


def _emit_pure(instr):
    """Source lines for a register-only instruction that can neither
    fault nor reach a hook, or None when ``instr`` is not one."""
    op, a, b, c = instr.op, instr.a, instr.b, instr.c
    if op == 'nop':
        return []
    if op == 'li':
        if _is_reg(a) and _is_imm(b):
            return ['r[%d] = %d' % (a, b)]
        return None
    if op == 'mov':
        if _is_reg(a) and _is_reg(b):
            return ['r[%d] = r[%d]' % (a, b)]
        return None
    if op == 'addi':
        if a != _SP and _is_reg(a) and _is_reg(b) and _is_imm(c):
            return ['r[%d] = r[%d] + %d' % (a, b, c)]
        return None
    if not (_is_reg(a) and _is_reg(b) and _is_reg(c)):
        return None
    if op in _ALU_SYMBOL:
        return ['r[%d] = r[%d] %s r[%d]' % (a, b, _ALU_SYMBOL[op], c)]
    if op in _CMP_SYMBOL:
        return ['r[%d] = 1 if r[%d] %s r[%d] else 0'
                % (a, b, _CMP_SYMBOL[op], c)]
    if op == 'shl':
        return ['r[%d] = r[%d] << (r[%d] & 63)' % (a, b, c)]
    if op == 'shr':
        return ['r[%d] = r[%d] >> (r[%d] & 63)' % (a, b, c)]
    return None


class _Emitted:
    """One fused instruction's generated code and bookkeeping."""

    __slots__ = ('lines', 'static', 'risky', 'cy', 'cache')

    def __init__(self, lines, static, risky=False, cy=False,
                 cache=False):
        self.lines = lines
        self.static = static    # statically known cycle cost
        self.risky = risky      # may raise SimFault mid-block
        self.cy = cy            # accumulates dynamic cycles into _cy
        self.cache = cache      # touches the cache model


class _BlockCompiler:
    """Generates closure source for fused runs of one interpreter.

    The generated function reproduces the reference backend's per-step
    state machine exactly (see the module docstring): hooks fire in
    reference order with ``core.pc`` set to the hooked instruction, and
    a ``SimFault`` unwinds through a handler that retires the cycles
    and instret of the instructions already completed and parks
    ``core.pc`` on the faulting instruction.

    One block serves the taken path and NT-paths: a store tests the
    ``Cache.access`` result for L1 volatile overflow inside an NT-path
    (flushing the completed prefix and returning ``'overflow'``
    mid-block, exactly where the reference per-instruction loop would
    stop) and, under an active journal, records the old value of its
    first write to a non-monitor address.
    """

    def __init__(self, interp):
        self.interp = interp
        self.cost = interp._cost
        det = interp.detector
        self.has_det = det is not None
        # Load/store hooks: none for a detector that overrides neither
        # (looked up now: a tracer may wrap the base methods); with a
        # shadow, only for words it does not mark legal.
        self.hooks = self.has_det and not (
            getattr(type(det), 'on_load', None) is Detector.on_load
            and getattr(type(det), 'on_store', None) is Detector.on_store)
        self.shadow = getattr(det, 'shadow', None) if self.hooks else None
        self.legal_cost = det.legal_cost if self.shadow is not None else 0
        self.has_cache = interp.cache is not None
        self.l1_hit = interp.costs.l1_hit
        # Generated source depends on the program and on exactly the
        # constants bound above; code memoised on the Program is keyed
        # by this tuple (plus the leader), so any constant added above
        # must be added here too.
        self.variant = (self.has_det, self.hooks, self.shadow is None,
                        self.legal_cost, self.has_cache, self.l1_hit,
                        tuple(sorted(self.cost.items())))

    # ------------------------------------------------------------------

    def compile(self, leader, count, terminator):
        """Returns ``(name, source, extra_namespace)`` for the run of
        ``count`` instructions at ``leader`` and its absorbed
        ``terminator`` (or None), or None when the run cannot be
        fused."""
        code = self.interp.code
        cost = self.cost
        parts = []
        for pc in range(leader, leader + count):
            emitted = self._emit(code[pc], pc, leader)
            if emitted is None:
                return None
            parts.append(emitted)
        retired = len(parts)
        total = sum(part.static for part in parts)
        risky = any(part.risky for part in parts)
        has_cy = any(part.cy for part in parts)
        uses_cache = any(part.cache for part in parts)
        if terminator is not None:
            if terminator.op == 'jmp':
                if not _is_imm(terminator.a):
                    return None
            elif not (_is_reg(terminator.a)
                      and _is_imm(terminator.b)):
                return None
            retired += 1
            total += cost[terminator.op]

        extra = {}
        name = '_b%d' % leader
        src = [
            'def %s():' % name,
            '    core = _core',
            '    if core.instret + %d > _interp.instret_limit:'
            % retired,
            '        return _fb()',
        ]
        if code[leader].pred:
            # A predicated leader with the predicate set must *execute*
            # (and keep the predicate) -- dispatch it singly.  With the
            # predicate clear (the steady state), it is a skip like any
            # other predicated instruction in the block.
            src.append('    if core.pred:')
            src.append('        return _fb()')
        else:
            src.append('    if core.pred:')
            src.append('        core.pred = False')
        src.append('    r = core.regs')
        if uses_cache:
            src.append('    _cache = _interp.cache')
            src.append('    _cv = _interp.cache_version')
        if has_cy:
            src.append('    _cy = 0')
        body_indent = '    '
        if risky:
            src.append('    _i = 0')
            src.append('    try:')
            body_indent = '        '
        body_empty = True
        for part in parts:
            for line in part.lines:
                src.append(body_indent + line)
                body_empty = False
        if risky:
            if body_empty:                       # pragma: no cover
                src.append(body_indent + 'pass')
            # Partial static-cycle sums, indexed by the faulting
            # instruction's block position.
            partials = []
            acc = 0
            for part in parts:
                partials.append(acc)
                acc += part.static
            sp_name = '_SP%d' % leader
            extra[sp_name] = tuple(partials)
            cy_flush = '_cy + %s[_i]' % sp_name if has_cy \
                else '%s[_i]' % sp_name
            src.append('    except _SimFault:')
            src.append('        core.pc = %d + _i' % leader)
            src.append('        core.cycles += ' + cy_flush)
            src.append('        core.instret += _i')
            src.append('        raise')
        cy_commit = '_cy + %d' % total if has_cy else '%d' % total

        if terminator is not None and terminator.op == 'br':
            br_pc = leader + count
            br_name = '_br%d' % br_pc
            extra[br_name] = terminator
            src.append('    _tk = r[%d] != 0' % terminator.a)
            src.append('    core.pc = %d if _tk else %d'
                       % (terminator.b, br_pc + 1))
            src.append('    core.cycles += ' + cy_commit)
            src.append('    core.instret += %d' % retired)
            src.append('    _ob = _interp.on_branch')
            src.append('    if _ob is not None:')
            src.append('        _ob(%d, _tk, %s)' % (br_pc, br_name))
            src.append('    return None')
        else:
            if terminator is not None:           # absorbed jmp
                next_pc = terminator.a
            else:
                next_pc = leader + count
            src.append('    core.pc = %d' % next_pc)
            src.append('    core.cycles += ' + cy_commit)
            src.append('    core.instret += %d' % retired)
        return name, '\n'.join(src) + '\n', extra

    # ------------------------------------------------------------------

    def _read_lines(self):
        """Source reading memory at ``_a`` into ``_v``: the bounds
        guard is inlined and the read is a list index; the guarded
        fallback call raises the exact reference fault
        (NULL_ACCESS/MEM_OOB) for bad addresses."""
        return ['if _a < %d or _a >= _msize:' % NULL_GUARD,
                '    _rd(_a)',
                '_v = _cells[_a]']

    def _write_lines(self):
        """Source writing ``_v`` to memory at ``_a``.

        The bounds guard and MainMemory.write's first-write-only
        journal capture (monitor area excepted) are inlined; the active
        journal, when there is one, is always ``nt_journal``.
        Out-of-bounds addresses take the fallback call, which raises
        the exact reference fault.
        """
        return ['if _a < %d or _a >= _msize:' % NULL_GUARD,
                '    _wr(_a, _v)',
                'elif _mem._journal is None or _a in _jl'
                ' or _mb <= _a < _ml:',
                '    _cells[_a] = _v',
                'else:',
                '    _jl[_a] = _cells[_a]',
                '    _cells[_a] = _v']

    def _hook_lines(self, pc, hook):
        """Source calling detector ``hook`` for the access at ``_a``."""
        lines = ['core.pc = %d' % pc, '_cy += %s(_a, _v, _interp) - %d'
                 % (hook, self.legal_cost)]
        if self.shadow is None:
            return lines
        return ['if not _sh[_a]:'] + ['    ' + line for line in lines]

    def _emit(self, instr, pc, leader):
        op, a, b, c = instr.op, instr.a, instr.b, instr.c
        index = pc - leader     # block position: the fault flush's _i
        if instr.pred:
            # Inside a block the predicate register is provably false
            # (the prologue cleared it; no fused instruction sets it),
            # so any predicated instruction is statically a skip.
            return _Emitted([], PREDICATED_SKIP_COST)
        cost = self.cost[op]
        pure = _emit_pure(instr)
        if pure is not None:
            return _Emitted(pure, cost)
        if op == 'addi':                         # SP destination
            if not (_is_reg(b) and _is_imm(c)):
                return None
            return _Emitted([
                '_i = %d' % index,
                '_v = r[%d] + %d' % (b, c),
                'r[%d] = _v' % a,
                'if _v < _stk:',
                "    raise _SimFault(_FK.STACK_OVERFLOW,"
                " 'sp=%d' % _v)",
            ], cost, risky=True)
        if op in ('div', 'mod'):
            if not (_is_reg(a) and _is_reg(b) and _is_reg(c)):
                return None
            lines = [
                '_i = %d' % index,
                '_d = r[%d]' % c,
                'if _d == 0:',
                "    raise _SimFault(_FK.DIV_ZERO, 'pc=%d')" % pc,
                '_n = r[%d]' % b,
            ]
            if op == 'div':
                lines += ['_q = abs(_n) // abs(_d)',
                          'if (_n < 0) != (_d < 0):',
                          '    _q = -_q',
                          'r[%d] = _q' % a]
            else:
                lines += ['_m = abs(_n) % abs(_d)',
                          'r[%d] = -_m if _n < 0 else _m' % a]
            return _Emitted(lines, cost, risky=True)
        if op == 'ld':
            if not (_is_reg(a) and _is_reg(b) and _is_imm(c)):
                return None
            lines = ['_i = %d' % index,
                     '_a = r[%d] + %d' % (b, c)]
            lines.extend(self._read_lines())
            lines.append('r[%d] = _v' % a)
            static = cost
            cy = False
            if self.has_cache:
                lines.append(
                    '_cy += _cache.access(_a, False, _cv).cycles')
                cy = True
            else:
                static += self.l1_hit
            if self.hooks:
                lines.extend(self._hook_lines(pc, '_dl'))
                static += self.legal_cost
                cy = True
            return _Emitted(lines, static, risky=True, cy=cy,
                            cache=self.has_cache)
        if op == 'st':
            if not (_is_reg(a) and _is_reg(b) and _is_imm(c)):
                return None
            lines = ['_i = %d' % index,
                     '_a = r[%d] + %d' % (b, c),
                     '_v = r[%d]' % a,
                     '_interp.store_count += 1']
            static = cost
            cy = False
            if self.has_cache:
                # Inside an NT-path, L1 may refuse to buffer another
                # volatile line.  The reference charges the store's
                # full cycles, leaves pc/instret on the store and
                # returns 'overflow'; flush the completed prefix
                # exactly as the SimFault handler would.
                lines.extend([
                    '_res = _cache.access(_a, True, _cv)',
                    '_tc = _res.cycles',
                    'if _res.volatile_overflow and _interp.in_nt_path:',
                    '    core.pc = %d' % pc,
                    '    core.cycles += _cy + _SP%d[%d] + %d + _tc'
                    % (leader, index, cost),
                    '    core.instret += %d' % index,
                    "    return 'overflow'",
                ])
                # The store's own cache latency is committed only once
                # the write succeeds (the reference discards it when
                # memory.write faults), but the cache state mutation
                # and store_count survive -- exactly as in step().
                lines.extend(self._write_lines())
                lines.append('_cy += _tc')
                cy = True
            else:
                lines.extend(self._write_lines())
                static += self.l1_hit
            if self.hooks:
                lines.extend(self._hook_lines(pc, '_ds'))
                static += self.legal_cost
                cy = True
            return _Emitted(lines, static, risky=True, cy=cy,
                            cache=self.has_cache)
        if op == 'push':
            if not _is_reg(a):
                return None
            lines = [
                '_i = %d' % index,
                '_s = r[%d] - 1' % _SP,
                'if _s < _stk:',
                "    raise _SimFault(_FK.STACK_OVERFLOW,"
                " 'sp=%d' % _s)",
                'r[%d] = _s' % _SP,
                '_a = _s',
                '_v = r[%d]' % a,
            ]
            lines.extend(self._write_lines())
            return _Emitted(lines, cost, risky=True)
        if op == 'pop':
            if not _is_reg(a):
                return None
            lines = ['_i = %d' % index,
                     '_a = r[%d]' % _SP]
            lines.extend(self._read_lines())
            lines.append('r[%d] = _v' % a)
            lines.append('r[%d] = _a + 1' % _SP)
            return _Emitted(lines, cost, risky=True)
        if op == 'assert' and not self.has_det:
            # Without a detector an assert is semantically a costed nop.
            return _Emitted([], cost)
        return None


# ======================================================================


class FastInterpreter(Interpreter):
    """Drop-in replacement for :class:`Interpreter` (same contract).

    ``step`` is the inherited reference step; only the drive loop
    (``drive_taken`` and ``drive_nt``) differs, dispatching through the
    block table.  ``memory`` must be a plain
    :class:`~repro.memory.main_memory.MainMemory`: blocks index its
    cells directly.
    """

    __slots__ = ('_n', '_fast', 'block_compile_failed', 'block_count',
                 '_fault_hook')

    def __init__(self, program, memory, allocator, core, io, costs,
                 cache=None, detector=None, on_branch=None):
        super().__init__(program, memory, allocator, core, io, costs,
                         cache=cache, detector=detector,
                         on_branch=on_branch)
        self._n = len(self.code)
        # Built lazily, at the first drive call.
        self._fast = None
        self.block_compile_failed = False
        self.block_count = 0
        # Chaos-harness hook ('fastinterp.block'): None unless a fault
        # plan arms the site, so steady-state dispatch never pays for it
        # (see repro.resilience.faults.site_hook).
        self._fault_hook = site_hook('fastinterp.block')

    def release(self):
        Interpreter.release(self)
        # Stubs hold ``promote``, which holds the table and this
        # interpreter: empty the table to break that cycle too.
        table, self._fast = self._fast, None
        if table is not None:
            table.clear()

    # ------------------------------------------------------------------
    # dispatch
    #
    # A table slot holds a block, a counting stub, or None; None (cold
    # or unfusable code) and out-of-range PCs run the reference step.

    def _step_chaos(self):
        """Poll the injection hook, then dispatch once (chaos runs)."""
        self._fault_hook()
        pc = self.core.pc
        fn = self._fast[pc] if 0 <= pc < self._n else None
        return Interpreter.step(self) if fn is None else fn()

    def drive_nt(self, limit):
        """The reference ``drive_nt`` loop over the block table.

        Serves the taken path and NT-paths alike (see
        ``Interpreter.drive_taken``): blocks test ``in_nt_path`` and
        the active journal at run time, and honour the NT instret
        budget that ``enter_nt`` installs.  The dispatch is inlined,
        as a per-dispatch call is a measurable share of run time.
        """
        core = self.core
        table = self._fast
        if table is None:
            table = self._build_fast_table()
        if self._fault_hook is not None:
            step = self._step_chaos
            while core.instret < limit:
                event = step()
                if event is not None:
                    return event
            return None
        n = self._n
        ref_step = Interpreter.step
        while core.instret < limit:
            pc = core.pc
            fn = table[pc] if 0 <= pc < n else None
            event = ref_step(self) if fn is None else fn()
            if event is not None:
                return event
        return None

    drive_taken = drive_nt

    # ------------------------------------------------------------------
    # basic-block closure compilation

    def _block_ops(self):
        ops = BLOCK_OPS
        if self.detector is None:
            ops = ops | frozenset({'assert'})
        return ops

    def _build_fast_table(self):
        """Install the block table.

        Each run leader starts as a counting stub that executes the
        leader on the reference step; after ``_PROMOTE_AFTER`` entries
        from either path it compiles its run alone (see
        :class:`_BlockCompiler`) and replaces itself with the block.
        Code objects are memoised on the Program under the compiler's
        variant key, so a later run of the same program and variant
        promotes each memoised block at its first entry, without
        codegen; a run that failed to compile is memoised as ``None``
        and its slot is emptied.  Every other slot is ``None``: code
        outside a fused run always runs on the reference step.
        """
        table = self._fast = [None] * self._n
        compiler = _BlockCompiler(self)
        memo = self.program.block_memo.setdefault(compiler.variant, {})
        step = self.step
        memory = self.memory
        namespace = {
            '_core': self.core,
            '_interp': self,
            '_fb': step,
            '_SimFault': SimFault,
            '_FK': FaultKind,
            '_stk': memory.stack_limit,
            '_rd': memory.read,
            '_wr': memory.write,
            '_cells': memory.cells,
            '_msize': memory.size,
            '_mem': memory,
            '_jl': memory.nt_journal,
            '_mb': memory.monitor_base,
            '_ml': memory.monitor_limit,
        }
        if compiler.hooks:
            namespace.update(_dl=self.detector.on_load,
                             _ds=self.detector.on_store,
                             _sh=compiler.shadow)
        filename = '<fastblocks:%s>' % self.program.name

        def promote(leader, count, terminator):
            entry = memo.get(leader, _COLD)
            try:
                if entry is _COLD:
                    entry = None
                    compiled = compiler.compile(leader, count,
                                                terminator)
                    if compiled is not None:
                        name, src, extra = compiled
                        entry = (compile(src, filename, 'exec'), name,
                                 extra)
                if entry is not None:
                    code, name, extra = entry
                    namespace.update(extra)
                    exec(code, namespace)
                    # Popped: the namespace is the block's globals, and
                    # keeping the block in it too would form a cycle.
                    fn = namespace.pop(name)
            except Exception:
                self.block_compile_failed = True
                entry = None
            memo[leader] = entry
            if entry is None:
                table[leader] = None
                return step
            self.block_count += 1
            table[leader] = fn
            return fn

        for leader, count, terminator in basic_runs(self.program,
                                                    self._block_ops()):
            entry = memo.get(leader, _COLD)
            if entry is not None:
                table[leader] = self._stub(
                    promote, leader, count, terminator,
                    _PROMOTE_AFTER if entry is _COLD else 1)
        return table

    def _stub(self, promote, leader, count, terminator, entries):
        """A leader's table entry until its block is promoted: counts
        ``entries`` down, executing the leader on the reference step
        meanwhile (``core.pc`` is the leader whenever the table
        dispatches it)."""
        step = self.step

        def stub():
            nonlocal entries
            entries -= 1
            if entries <= 0:
                return promote(leader, count, terminator)()
            return step()
        return stub
