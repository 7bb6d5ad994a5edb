"""Execution-backend registry and factory.

Two interchangeable backends execute programs (see DESIGN.md,
"Dual-backend equivalence invariant"):

``reference``
    :class:`~repro.cpu.interpreter.Interpreter` -- one fully general
    dispatch per instruction.  The semantic ground truth.

``fast``
    :class:`~repro.cpu.fastinterp.FastInterpreter` -- the reference
    ``step`` for non-block code plus fused basic-block closures, in
    one table serving the taken path and NT-paths; a block's stores
    test for an active memory journal and, inside an NT-path, for the
    volatile-overflow exit, and every block honours the NT length
    budget.  Must be byte-identical to the reference on every observable
    (:meth:`RunResult.to_dict`); the differential harness in
    ``tests/test_backend_equivalence.py`` enforces this.

``make_interpreter`` is the single construction point used by the
engines.  An unknown backend name raises ``ValueError`` up front (it is
a config error).  A run that fails on the fast backend is re-executed
on the reference backend by ``repro.core.runner.run_program``.
"""

from __future__ import annotations

from repro.cpu.fastinterp import FastInterpreter
from repro.cpu.interpreter import Interpreter

BACKENDS = ('reference', 'fast')

_CLASSES = {
    'reference': Interpreter,
    'fast': FastInterpreter,
}


def make_interpreter(backend, program, memory, allocator, core, io,
                     costs, cache=None, detector=None, on_branch=None):
    """Build the interpreter for ``backend`` (a name in ``BACKENDS``)."""
    try:
        cls = _CLASSES[backend]
    except KeyError:
        raise ValueError('unknown backend %r (expected one of %s)'
                         % (backend, ', '.join(BACKENDS)))
    return cls(program, memory, allocator, core, io, costs,
               cache=cache, detector=detector, on_branch=on_branch)
