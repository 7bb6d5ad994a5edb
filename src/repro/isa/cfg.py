"""Static control-flow helpers over a flat :class:`Program`.

Used by the fast execution backend to decide where basic blocks start
(``block_leaders``) and how far a straight-line fuseable run extends
(``fuseable_run``), and by tests/tools that want the same partitioning.

Two fuseable-op tiers exist:

* :data:`FUSEABLE_OPS` -- register-only instructions: executing one can
  neither transfer control, touch memory, reach a detector/cache hook,
  nor (unpredicated) depend on the predicate register.
* :data:`BLOCK_OPS` -- adds the straight-line memory instructions
  (``ld``/``st``/``push``/``pop``).  The fast backend fuses these too:
  their cache/detector hooks still fire per instruction *inside* the
  fused closure, in exactly the reference order.  Each run of the
  partitioning (:func:`basic_runs`) is compiled once, into a block that
  serves the taken path and NT-paths alike.

Additionally a run may contain *predicated* instructions: inside a
block the predicate register is provably false (a predicated-leader
block refuses to run with the predicate set, an unpredicated-leader
block clears it, and no fused instruction sets it), so a predicated
instruction in a block -- whatever its opcode -- is statically a
one-cycle skip.  A fused run may absorb one trailing unpredicated
``jmp`` or ``br`` terminator (:data:`TERMINATOR_OPS`): the transfer is
then the block's final action.
"""

from __future__ import annotations

FUSEABLE_OPS = frozenset({
    'li', 'mov', 'addi', 'add', 'sub', 'mul', 'div', 'mod',
    'slt', 'sle', 'seq', 'sne', 'sgt', 'sge',
    'and', 'or', 'xor', 'shl', 'shr', 'nop',
})

BLOCK_OPS = FUSEABLE_OPS | {'ld', 'st', 'push', 'pop'}

TERMINATOR_OPS = frozenset({'jmp', 'br'})


def fuseable_run(code, pc, ops=FUSEABLE_OPS):
    """The straight-line fuseable run starting at ``pc``.

    Returns ``(count, terminator)``: ``count`` fuseable instructions
    starting at ``pc`` (instructions in ``ops``, plus predicated
    instructions of any opcode -- with the predicate register false, a
    predicated instruction is statically a one-cycle skip, and a block
    whose *leader* is predicated refuses to run when the predicate is
    set), and ``terminator`` (the :class:`Instr` at ``pc + count``)
    when the run ends at an unpredicated ``jmp``/``br`` that a block
    may absorb, else ``None``.
    """
    n = len(code)
    end = pc
    while end < n:
        instr = code[end]
        if not instr.pred and instr.op not in ops:
            break
        end += 1
    terminator = None
    if end > pc and end < n:
        tail = code[end]
        if tail.op in TERMINATOR_OPS and not tail.pred:
            terminator = tail
    return end - pc, terminator


def basic_runs(program, ops=FUSEABLE_OPS):
    """Every fuseable run in ``program``, as ``[(leader, count,
    terminator), ...]`` sorted by leader.

    One CFG pass serving the block table built over the same op tier:
    the fast backend compiles each run once, for the taken path and
    NT-paths alike.  Runs of weight < 2 (nothing to fuse) are omitted.
    """
    code = program.code
    runs = []
    for leader in sorted(block_leaders(program, ops)):
        count, terminator = fuseable_run(code, leader, ops)
        if count + (1 if terminator is not None else 0) >= 2:
            runs.append((leader, count, terminator))
    return runs


def block_leaders(program, ops=FUSEABLE_OPS):
    """Addresses where execution plausibly *enters* straight-line code.

    The set contains the program entry, every function entry, every
    static control-transfer target, and the successor of every
    instruction that ends a run (control transfers, non-``ops``
    instructions, and predicated instructions -- a predicated leader
    dispatches singly, so the address after it restarts a run).
    Jumping into the middle of a run not in this set stays correct --
    the fast backend falls back to per-instruction dispatch for unknown
    entry points -- it is only (marginally) slower.
    """
    code = program.code
    n = len(code)
    leaders = {0, program.entry}
    leaders.update(program.functions.values())
    for addr, instr in enumerate(code):
        op = instr.op
        if op == 'br':
            leaders.add(instr.b)
            leaders.add(addr + 1)
        elif op in ('jmp', 'call'):
            leaders.add(instr.a)
            leaders.add(addr + 1)
        elif not instr.pred and op not in ops:
            leaders.add(addr + 1)
    return {addr for addr in leaders
            if isinstance(addr, int) and 0 <= addr < n}
