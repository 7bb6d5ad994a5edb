"""CCured-style software-only dynamic memory checker.

Models the dynamic half of CCured [27]: every load and store is guarded
by an inserted software check.  The check costs
``check_cost`` cycles, which is what makes CCured a *software* tool in
the overhead comparison; the detection power is the interval/red-zone
logic shared with iWatcher (see ``memcheck.py``).  A word the shadow
marks legal costs the check and nothing else, so the fast backend's
blocks charge ``legal_cost`` inline and call the hooks only for the
other words.
"""

from __future__ import annotations

from repro.detectors.base import Detector, ReportKind
from repro.detectors.memcheck import MemoryCheckLogic


class CCuredDetector(Detector):

    name = 'ccured'

    def __init__(self, check_cost=5, free_check_cost=12):
        super().__init__()
        self.check_cost = check_cost
        self.free_check_cost = free_check_cost
        self._logic = None

    @property
    def legal_cost(self):
        return self.check_cost

    def attach(self, program, memory, allocator):
        self._logic = MemoryCheckLogic(program, memory, allocator)
        self.shadow = self._logic.shadow

    def on_load(self, addr, value, interp):
        if not self.shadow[addr]:
            self._check(addr, interp, 'load')
        return self.check_cost

    def on_store(self, addr, value, interp):
        if not self.shadow[addr]:
            self._check(addr, interp, 'store')
        return self.check_cost

    def _check(self, addr, interp, op):
        kind = self._logic.classify(addr)
        if kind is not None:
            self._report_access(kind, interp, op, addr)

    def on_free(self, addr, ok, interp):
        if not ok:
            self._report(ReportKind.INVALID_FREE, interp,
                         detail='free(%d)' % addr, mem_addr=addr)
        return self.free_check_cost
