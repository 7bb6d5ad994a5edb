"""Heap allocator with red zones.

The allocator serves the ``malloc``/``free`` instructions.  Every
object is surrounded by ``RED_ZONE`` guard words; the guard intervals
and the object liveness table are what the CCured-style and
iWatcher-style checkers consult to classify accesses (Purify-style
interval checking -- see DESIGN.md for the fidelity note), and the
heap words of a checker's shadow array are kept exact here.

Allocator state is small and snapshot-able, so the PathExpander sandbox
can roll heap metadata back together with memory contents.
"""

from __future__ import annotations

from bisect import bisect_right, insort

from repro.cpu.exceptions import FaultKind, SimFault

RED_ZONE = 2


class AllocRecord:
    __slots__ = ('base', 'size', 'live', 'serial')

    def __init__(self, base, size, live, serial):
        self.base = base
        self.size = size
        self.live = live
        self.serial = serial

    @property
    def limit(self):
        return self.base + self.size

    def __repr__(self):
        state = 'live' if self.live else 'freed'
        return '<Alloc @%d +%d %s>' % (self.base, self.size, state)


class HeapAllocator:
    """First-fit free-list allocator over ``[heap_base, heap_limit)``."""

    def __init__(self, heap_base, heap_limit):
        self.heap_base = heap_base
        self.heap_limit = heap_limit
        self._bump = heap_base
        self._free_blocks = []          # list of (base, total_words)
        self._objects = {}              # object base -> AllocRecord
        self._sorted_bases = []         # sorted keys of _objects
        self._serial = 0
        self.alloc_count = 0
        self.free_count = 0
        self._txn_armed = False
        self._txn_snap = None
        self.shadow = None              # set by attach_shadow

    # ------------------------------------------------------------------

    def malloc(self, size):
        """Allocate ``size`` words; returns the object base address."""
        if self._txn_armed and self._txn_snap is None:
            self._txn_snap = self.snapshot()
        if size <= 0:
            size = 1
        total = size + 2 * RED_ZONE
        base = None
        for index, (block_base, block_size) in enumerate(self._free_blocks):
            if block_size >= total:
                base = block_base
                remaining = block_size - total
                if remaining > 0:
                    self._free_blocks[index] = (block_base + total, remaining)
                else:
                    del self._free_blocks[index]
                break
        if base is None:
            if self._bump + total > self.heap_limit:
                raise SimFault(FaultKind.MEM_OOB, 'heap exhausted')
            base = self._bump
            self._bump += total
        obj_base = base + RED_ZONE
        self._serial += 1
        if obj_base not in self._objects:
            insort(self._sorted_bases, obj_base)
        self._objects[obj_base] = AllocRecord(obj_base, size, True,
                                              self._serial)
        if self.shadow is not None:
            self.shadow[obj_base:obj_base + size] = b'\x01' * size
        self.alloc_count += 1
        return obj_base

    def free(self, addr):
        if self._txn_armed and self._txn_snap is None:
            self._txn_snap = self.snapshot()
        record = self._objects.get(addr)
        if record is None or not record.live:
            # Invalid/double free: a program bug.  The checker reports
            # it; the allocator itself tolerates it.
            return False
        record.live = False
        if self.shadow is not None:
            self.shadow[record.base:record.limit] = bytes(record.size)
        self._free_blocks.append((record.base - RED_ZONE,
                                  record.size + 2 * RED_ZONE))
        self.free_count += 1
        return True

    # ------------------------------------------------------------------
    # queries used by the bug detectors

    def record_at(self, addr):
        """The allocation record owning ``addr``, live or freed."""
        index = bisect_right(self._sorted_bases, addr) - 1
        if index >= 0:
            record = self._objects[self._sorted_bases[index]]
            if record.base <= addr < record.limit:
                return record
        return None

    def classify(self, addr):
        """Classify a heap address: 'object', 'freed', 'redzone', 'wild'."""
        if not (self.heap_base <= addr < self._bump):
            return 'wild'
        record = self.record_at(addr)
        if record is not None:
            return 'object' if record.live else 'freed'
        return 'redzone'

    # ------------------------------------------------------------------
    # sandbox support

    def begin_txn(self):
        """Arm a lazy rollback transaction for one NT-path.

        The (comparatively expensive) :meth:`snapshot` is deferred to
        the first ``malloc``/``free`` inside the path; the overwhelming
        majority of NT-paths touch no allocator state and pay only the
        two attribute writes.
        """
        self._txn_armed = True
        self._txn_snap = None

    def rollback_txn(self):
        """Undo any allocator mutation since :meth:`begin_txn`."""
        snap = self._txn_snap
        if snap is not None:
            self.restore(snap)
            self._txn_snap = None
        self._txn_armed = False

    def snapshot(self):
        return (
            self._bump,
            list(self._free_blocks),
            {base: (r.size, r.live, r.serial)
             for base, r in self._objects.items()},
            self._serial, self.alloc_count, self.free_count,
        )

    def restore(self, snap):
        bump, free_blocks, objects, serial, allocs, frees = snap
        top = max(bump, self._bump)
        self._bump = bump
        self._free_blocks = list(free_blocks)
        self._objects = {
            base: AllocRecord(base, size, live, ser)
            for base, (size, live, ser) in objects.items()}
        self._sorted_bases = sorted(self._objects)
        self._serial = serial
        self.alloc_count = allocs
        self.free_count = frees
        if self.shadow is not None:     # repaint from the records
            self.shadow[self.heap_base:top] = bytes(top - self.heap_base)
            for rec in self._objects.values():
                if rec.live:
                    self.shadow[rec.base:rec.limit] = b'\x01' * rec.size

    def clone(self):
        """A copy with no shadow: its malloc/free never write ours."""
        twin = HeapAllocator(self.heap_base, self.heap_limit)
        twin.restore(self.snapshot())
        return twin

    def attach_shadow(self, shadow):
        """Keep ``shadow``'s heap words exact from now on."""
        self.shadow = shadow
        self.restore(self.snapshot())
