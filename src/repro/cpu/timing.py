"""Cycle-cost model.

The paper evaluates on a cycle-accurate out-of-order CMP (Table 2).  A
Python reproduction cannot be microarchitecturally faithful, so each
instruction has a fixed cost (:data:`OP_COSTS`) and every load or store
adds the latency the cache model (:mod:`repro.memory.cache`) returns.
All reported results are overhead *ratios*, which this preserves (see
DESIGN.md, "Fidelity losses").

Table 2 parameters carried over directly (the overheads and latencies
are :class:`~repro.core.config.PathExpanderConfig` fields):

* squash overhead: 10 cycles
* spawn overhead: 20 cycles
* L1: 16KB, 4-way, 32B lines, 3 cycles (2 for the non-CMP machine)
* L2: 1MB, 8-way, 32B lines, 10 cycles
* BTB: 2K entries, 2-way

Table 2's 200-cycle memory latency is not modelled: L2 is kept
abstract, and every L1 miss costs the L2 latency.
"""

from __future__ import annotations

from repro.isa.instructions import ALL_OPS

# Cost of a *skipped* predicated instruction (Section 4.4).
#
# Intended model, shared by both execution backends: a predicated
# instruction whose predicate is false still occupies one issue slot --
# it is squashed in the front end before it reads operands or reaches a
# functional unit, so it retires as a single-cycle NOP *regardless of
# the skipped opcode's nominal cost*.  The compiler only predicates the
# variable-fixing instructions (cheap moves/loads); charging the full
# opcode cost for a skipped `div` or `ld` would overstate the taken
# path's NT-entry overhead, and charging zero would hide the fetch
# bandwidth the fix instructions consume on every pass over the branch.
PREDICATED_SKIP_COST = 1

DEFAULT_OP_COSTS = {
    'mul': 3,
    'div': 12,
    'mod': 12,
    'call': 2,
    'ret': 2,
    'syscall': 6,
    'malloc': 30,
    'free': 20,
}

# The complete per-opcode cost table (one cycle unless listed above):
# both backends index it on their hot paths.
OP_COSTS = {op: DEFAULT_OP_COSTS.get(op, 1) for op in ALL_OPS}
