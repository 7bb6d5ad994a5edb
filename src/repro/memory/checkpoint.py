"""Processor-state checkpoints for NT-path spawn/rollback."""

from __future__ import annotations

from repro.core.errors import CheckpointCorruption


class Checkpoint:
    """Everything needed to resume the taken path after a squash.

    Captures architectural registers, the program counter and the call
    stack bookkeeping.  Memory contents are handled separately by the
    memory journal / versioned cache, and allocator metadata by its
    lazy transaction (:meth:`Allocator.begin_txn`), matching the
    hardware split of Section 4.2(2).

    A checkpoint is *reusable*: the engine allocates one and calls
    :meth:`capture` per spawn, so the spawn hot path allocates nothing
    beyond the register-list copy.

    Every capture also computes an integrity checksum over the saved
    state; :meth:`restore` verifies it and raises
    :class:`CheckpointCorruption` on mismatch rather than silently
    resuming the taken path from a scribbled context.
    """

    __slots__ = ('regs', 'pc', 'pred', 'call_depth', 'lcg_state',
                 'checksum')

    def __init__(self):
        self.regs = []
        self.pc = 0
        self.pred = False
        self.call_depth = 0
        self.lcg_state = 0
        self.checksum = 0

    def _compute_checksum(self):
        # Tuple hashing is order-sensitive and runs in C, and it is
        # deterministic for ints, so restore can recompute it exactly.
        return hash((self.pc, self.pred, self.call_depth,
                     self.lcg_state, *self.regs))

    def capture(self, core):
        self.regs[:] = core.regs
        self.pc = core.pc
        self.pred = core.pred
        self.call_depth = core.call_depth
        self.lcg_state = core.lcg_state
        self.checksum = self._compute_checksum()

    def restore(self, core):
        if self._compute_checksum() != self.checksum:
            raise CheckpointCorruption(
                'checkpoint integrity check failed at squash',
                pc=self.pc)
        core.regs[:] = self.regs
        core.pc = self.pc
        core.pred = self.pred
        core.call_depth = self.call_depth
        core.lcg_state = self.lcg_state

    def corrupt(self):
        """Scribble the saved context without refreshing the checksum
        (fault-injection helper for the ``checkpoint.corrupt`` site)."""
        if self.regs:
            self.regs[0] ^= 0x5A5A5A5A
        else:
            self.pc ^= 0x5A5A5A5A
