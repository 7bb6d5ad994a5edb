"""Word-addressable main memory with an undo-log sandbox.

Layout (word addresses)::

    [0, NULL_GUARD)                null guard -- any access faults
    [NULL_GUARD, heap_base)        globals (incl. strings, blank structs)
    [heap_base, stack_limit)       heap, managed by the allocator
    [stack_limit, size)            stack, grows downward from ``size``

The *monitor memory area* (Section 4.1) is a dedicated region carved
from the top of the globals segment: writes to it are never captured by
the sandbox undo log, so error reports produced during an NT-path
survive the rollback.
"""

from __future__ import annotations

import gc

from repro.core.errors import JournalError
from repro.cpu.exceptions import FaultKind, SimFault

NULL_GUARD = 16
DEFAULT_SIZE = 1 << 20            # 1M words
MONITOR_AREA_WORDS = 256


class MainMemory:
    """Flat memory with optional write journaling for sandboxing.

    Journaling implements the hardware sandbox functionally: while a
    journal is active every first write to an address records the old
    value, and :meth:`rollback` restores them in reverse.  The hardware
    buffers NT-path stores in volatile L1 lines instead; the observable
    semantics (all NT-path stores disappear on squash, monitor-area
    stores survive) are identical.
    """

    def __init__(self, size=DEFAULT_SIZE, globals_size=NULL_GUARD,
                 stack_words=1 << 16):
        if globals_size < NULL_GUARD:
            globals_size = NULL_GUARD
        self.size = size
        self.cells = [0] * size
        # The image is one huge tracked container, and the next
        # generation-0 and generation-1 collections would each walk all
        # of its slots (about 7 ms per pass at 1M words): most of a
        # short run's fixed cost.  freeze() + unfreeze() moves every
        # tracked object into the oldest generation in O(1).  A caller
        # that froze its heap (before a fork, say) or turned the
        # collector off is left alone.  The image is still freed by
        # reference counting when its run ends.
        if gc.isenabled() and gc.get_freeze_count() == 0:
            gc.freeze()
            gc.unfreeze()
        self.monitor_base = globals_size
        self.monitor_limit = globals_size + MONITOR_AREA_WORDS
        self.heap_base = self.monitor_limit
        # Leave at least half the address space to globals + heap.
        stack_words = min(stack_words, size // 2)
        self.stack_limit = size - stack_words
        if self.stack_limit <= self.heap_base:
            raise ValueError('memory too small for the requested layout')
        self.stack_top = size
        self._journal = None
        # Preallocated journal dict, reused across NT-path spawns:
        # ``begin_journal`` arms it instead of allocating, so it is the
        # only journal ever active, and the fast backend's blocks bind
        # it once per table.
        self.nt_journal = {}

    # ------------------------------------------------------------------
    # sandboxing

    def begin_journal(self):
        if self._journal is not None:
            raise JournalError('journal already active')
        journal = self.nt_journal
        journal.clear()
        self._journal = journal

    def rollback(self):
        journal = self._journal
        if journal is None:
            raise JournalError('no active journal')
        cells = self.cells
        for addr, old in journal.items():
            cells[addr] = old
        self._journal = None
        count = len(journal)
        journal.clear()
        return count

    # ------------------------------------------------------------------
    # access

    def _check(self, addr):
        if addr < NULL_GUARD or addr >= self.size:
            if 0 <= addr < NULL_GUARD or -NULL_GUARD < addr < 0:
                raise SimFault(FaultKind.NULL_ACCESS,
                               'address %d' % addr, addr=addr)
            raise SimFault(FaultKind.MEM_OOB, 'address %d' % addr, addr=addr)

    def read(self, addr):
        if addr < NULL_GUARD or addr >= self.size:
            self._check(addr)
        return self.cells[addr]

    def write(self, addr, value):
        if addr < NULL_GUARD or addr >= self.size:
            self._check(addr)
        journal = self._journal
        if journal is not None and addr not in journal \
                and not (self.monitor_base <= addr < self.monitor_limit):
            journal[addr] = self.cells[addr]
        self.cells[addr] = value
