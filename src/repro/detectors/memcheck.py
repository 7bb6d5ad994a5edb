"""Shared address-classification logic for the memory checkers.

Both CCured (software) and iWatcher (hardware-assisted) detect the same
memory bug classes in our reproduction; what differs is the *cost
model* of their checks.  The classification itself -- which address
ranges are legal -- is Purify-style interval checking over red zones:

* heap objects carry 2-word red zones (allocator);
* global objects are laid out with 2-word gaps between them (compiler);
* freed objects stay poisoned until reuse;
* anything outside every region is a wild access.

Classification is the slow path: ``shadow`` holds a byte per word, 1
where :meth:`classify` returns ``None`` and 0 for "ask it".  See
DESIGN.md ("Shadow state"; pointer-provenance fidelity note).
"""

from __future__ import annotations

from bisect import bisect_right

from repro.detectors.base import ReportKind

OK = None


class MemoryCheckLogic:
    """Classifies a data access as legal or as a bug-report kind."""

    def __init__(self, program, memory, allocator):
        self.memory = memory
        self.allocator = allocator
        # Sorted global-object intervals for binary search.
        objs = sorted(program.global_objects, key=lambda item: item[1])
        self._global_bases = [base for _name, base, _size in objs]
        self._global_limits = [base + size for _name, base, size in objs]
        # Region boundaries are fixed for the run; caching them keeps
        # the per-access classification to integer compares + at most
        # one bisect, with no attribute chains.
        self._stack_limit = memory.stack_limit
        self._heap_base = allocator.heap_base
        self._monitor_base = memory.monitor_base
        # The shadow: seeded with every legal non-heap word (global
        # objects, as the bisect below sees them, the monitor area and
        # the stack); the allocator paints and repaints the heap.
        shadow = self.shadow = bytearray(memory.size)
        spans = [(base, min(limit, bound)) for base, limit, bound in zip(
            self._global_bases, self._global_limits,
            self._global_bases[1:] + [self._monitor_base])]
        spans += [(self._monitor_base, self._heap_base),
                  (self._stack_limit, memory.size)]
        for lo, hi in spans:
            if lo < hi:
                shadow[lo:hi] = b'\x01' * (hi - lo)
        allocator.attach_shadow(shadow)

    def classify(self, addr):
        """Return ``None`` if the access is legal, else a ReportKind."""
        if addr >= self._stack_limit:
            return OK                       # stack (frame-level: unchecked)
        if addr >= self._heap_base:
            kind = self.allocator.classify(addr)
            if kind == 'object':
                return OK
            if kind == 'redzone':
                return ReportKind.OVERRUN
            if kind == 'freed':
                return ReportKind.DANGLING
            return ReportKind.WILD
        if addr >= self._monitor_base:
            return OK                       # monitor memory area
        # Below the monitor area lies the globals segment:
        # interval-check it.
        index = bisect_right(self._global_bases, addr) - 1
        if index >= 0 and addr < self._global_limits[index]:
            return OK
        return ReportKind.OVERRUN           # gap between global objects
