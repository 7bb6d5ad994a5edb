"""iWatcher-style hardware-assisted dynamic memory checker.

iWatcher [41] associates monitoring functions with memory ranges; the
hardware triggers the check only when a watched word is touched, so
untriggered accesses are free.  We watch the same illegal intervals the
CCured model checks (red zones, freed objects, global gaps), but the
cost model is hardware-like: zero cycles unless a watchpoint fires.
The shadow (see ``memcheck.py``) plays the watch table: a word it marks
legal returns at once, and the fast backend's blocks do not call the
hooks for it at all.
"""

from __future__ import annotations

from repro.detectors.base import Detector, ReportKind
from repro.detectors.memcheck import MemoryCheckLogic


class IWatcherDetector(Detector):

    name = 'iwatcher'

    def __init__(self, trigger_cost=30):
        super().__init__()
        self.trigger_cost = trigger_cost
        self._logic = None
        self.triggers = 0

    def attach(self, program, memory, allocator):
        self._logic = MemoryCheckLogic(program, memory, allocator)
        self.shadow = self._logic.shadow

    def _check(self, addr, interp, op):
        if self.shadow[addr]:
            return 0
        kind = self._logic.classify(addr)
        if kind is None:
            return 0
        self.triggers += 1
        self._report_access(kind, interp, op, addr)
        return self.trigger_cost

    def on_load(self, addr, value, interp):
        return self._check(addr, interp, 'load')

    def on_store(self, addr, value, interp):
        return self._check(addr, interp, 'store')

    def on_free(self, addr, ok, interp):
        if not ok:
            self.triggers += 1
            self._report(ReportKind.INVALID_FREE, interp,
                         detail='free(%d)' % addr, mem_addr=addr)
            return self.trigger_cost
        return 0
