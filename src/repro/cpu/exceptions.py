"""Simulator fault model.

A :class:`SimFault` is the machine-level analogue of a hardware
exception (access violation, divide by zero, ...).  On the taken path a
fault terminates the program and is reported; on an NT-path the fault is
swallowed by PathExpander -- the path is squashed and the exception is
*not* delivered (Section 4.2(3)).

Every early end of an NT-path is one of these exceptions.  The two
that only NT-paths raise subclass :class:`SimFault`, so a compiled
block's fault handler retires the instructions before them; engines
catch them first.
"""

from __future__ import annotations

from repro.cpu.timing import OP_COSTS


class FaultKind:
    DIV_ZERO = 'div_zero'
    MEM_OOB = 'mem_oob'            # access outside the data segment
    NULL_ACCESS = 'null_access'    # access into the null guard page
    STACK_OVERFLOW = 'stack_overflow'
    BAD_JUMP = 'bad_jump'
    CALL_DEPTH = 'call_depth'


class SimFault(Exception):
    """A machine fault raised during simulated execution."""

    def __init__(self, kind, detail='', addr=None):
        super().__init__('%s%s' % (kind, (': %s' % detail) if detail else ''))
        self.kind = kind
        self.detail = detail
        self.addr = addr


class ProgramExit(Exception):
    """Raised when the program executes ``halt`` or the EXIT syscall."""

    def __init__(self, code=0):
        super().__init__('exit(%d)' % code)
        self.code = code


class UnsafeEvent(SimFault):
    """An NT-path reached a syscall (Section 3.2); it was not
    performed."""

    def __init__(self, pc):
        super().__init__('unsafe_event', 'pc=%d' % pc)


class VolatileOverflow(SimFault):
    """An NT-path store found every way of its L1 set volatile
    (Section 4.3).  It retires no instruction but costs ``cycles``:
    its instruction cost plus the miss ``latency``."""

    def __init__(self, latency):
        super().__init__('l1_overflow')
        self.cycles = OP_COSTS['st'] + latency
