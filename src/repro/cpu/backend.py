"""Execution-backend registry and factory.

Two interchangeable backends execute programs (see DESIGN.md,
"Dual-backend equivalence invariant"):

``reference``
    :class:`~repro.cpu.interpreter.Interpreter` -- one fully general
    dispatch per instruction.  The semantic ground truth.

``fast``
    :class:`~repro.cpu.fastinterp.FastInterpreter` -- the reference
    ``step`` for non-block code plus fused basic-block closures, in
    two tables: a taken-path block table and a *sandboxed* NT-path
    table whose stores route through the active memory journal and
    honour the volatile-overflow exit and the NT length budget.  Must
    be byte-identical to the reference on every observable
    (:meth:`RunResult.to_dict`); the differential harness in
    ``tests/test_backend_equivalence.py`` enforces this.

``make_interpreter`` is the single construction point used by the
engines.  An unknown backend name raises ``ValueError`` up front (it is
a config error), but a *failure inside* the fast backend's construction
falls back to the reference backend automatically: a run should never
die because an optimisation could not be applied.
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
    try:
        return cls(program, memory, allocator, core, io, costs,
                   cache=cache, detector=detector, on_branch=on_branch)
    except Exception as exc:
        if cls is Interpreter:
            raise
        # Automatic fallback: the fast backend is an optimisation, not
        # a requirement.
        from repro.resilience import events
        events.record('backend_construction_fallback',
                      program=program.name, error=repr(exc))
        return Interpreter(program, memory, allocator, core, io, costs,
                           cache=cache, detector=detector,
                           on_branch=on_branch)
