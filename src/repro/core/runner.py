"""Top-level public API: compile and run programs under PathExpander."""

from __future__ import annotations

import copy
from functools import lru_cache

from repro.core.config import Mode, PathExpanderConfig
from repro.core.engine import PathExpanderEngine
from repro.core.errors import EngineError, WatchdogTimeout
from repro.core.software import apply_software_costs
from repro.cpu.syscalls import IOContext
from repro.detectors.assertions import AssertionDetector
from repro.detectors.ccured import CCuredDetector
from repro.detectors.iwatcher import IWatcherDetector
from repro.minic.codegen import compile_minic
from repro.resilience import ChaosDetector, events, get_injector

DETECTOR_FACTORIES = {
    'none': lambda: None,
    'ccured': CCuredDetector,
    'iwatcher': IWatcherDetector,
    'assertions': AssertionDetector,
}


def make_detector(name):
    """Instantiate a detector by name ('ccured', 'iwatcher',
    'assertions' or 'none')."""
    if name not in DETECTOR_FACTORIES:
        raise ValueError('unknown detector %r (choose from %s)'
                         % (name, sorted(DETECTOR_FACTORIES)))
    return DETECTOR_FACTORIES[name]()


def run_program(program, detector=None, config=None, text_input='',
                int_input=None, memory_words=1 << 20):
    """Run a compiled program under a dynamic detector.

    Args:
        program: a :class:`~repro.isa.program.Program`.
        detector: a detector instance, a detector name, or ``None``.
        config: a :class:`PathExpanderConfig`; defaults to the paper's
            standard configuration.
        text_input: characters served to the GETC syscall.
        int_input: integers served to the READ_INT syscall.

    Returns:
        a :class:`~repro.core.result.RunResult`.
    """
    if isinstance(detector, str):
        detector = make_detector(detector)
    config = config or PathExpanderConfig()
    degradable = config.resolved_backend == 'fast'
    # Detectors are stateful (shadow memory, reports); degradation
    # re-executes from scratch, so it needs a pristine copy taken
    # before the first attempt ever touches the original.
    pristine = copy.deepcopy(detector) if degradable \
        and detector is not None else None
    try:
        return _execute_run(program, detector, config, text_input,
                            int_input, memory_words)
    except (WatchdogTimeout, KeyboardInterrupt):
        raise
    except Exception as exc:
        if not degradable:
            if isinstance(exc, EngineError):
                raise
            raise EngineError('engine failed on %s backend: %r'
                              % (config.resolved_backend, exc),
                              program=program.name) from exc
        # Graceful degradation: an unexpected internal failure on the
        # fast backend transparently re-executes on the reference
        # backend.  Both backends are result-identical by invariant,
        # so callers observe nothing but the event record.
        events.record('degraded_to_reference', program=program.name,
                      error=repr(exc))
        ref_config = config.replace(backend='reference')
        try:
            return _execute_run(program, pristine, ref_config,
                                text_input, int_input, memory_words)
        except (WatchdogTimeout, KeyboardInterrupt):
            raise
        except Exception as ref_exc:
            raise EngineError(
                'engine failed on both backends (fast: %r; '
                'reference: %r)' % (exc, ref_exc),
                program=program.name) from ref_exc


def _execute_run(program, detector, config, text_input, int_input,
                 memory_words):
    """One engine execution (the unit graceful degradation retries)."""
    injector = get_injector()
    if detector is not None and injector is not None \
            and injector.plan.has_site('detector.hook'):
        detector = ChaosDetector(detector, injector)
    io = IOContext(text_input=text_input, int_input=int_input)
    engine = PathExpanderEngine(program, detector=detector, config=config,
                                io=io, memory_words=memory_words)
    result = engine.run()
    if config.mode == Mode.SOFTWARE:
        apply_software_costs(result, config)
    return result


def run_detailed_cmp(program, detector=None, config=None, text_input='',
                     int_input=None, memory_words=1 << 20):
    """Run under the *detailed* CMP engine (true core interleaving).

    Functionally equivalent to ``mode='cmp'`` but simulates the Fig. 6
    segment/version protocol cycle by cycle instead of modelling
    NT-path placement; used to validate the scheduling model.
    """
    from repro.core.cmp_detailed import DetailedCmpEngine
    if isinstance(detector, str):
        detector = make_detector(detector)
    config = (config or PathExpanderConfig(mode=Mode.CMP))
    if config.mode != Mode.CMP:
        config = config.replace(mode=Mode.CMP)
    io = IOContext(text_input=text_input, int_input=int_input)
    engine = DetailedCmpEngine(program, detector=detector, config=config,
                               io=io, memory_words=memory_words)
    return engine.run()


def run_source(source, detector=None, config=None, text_input='',
               int_input=None, name='program'):
    """Compile MiniC source and run it (convenience wrapper)."""
    program = compile_minic(source, name=name)
    return run_program(program, detector=detector, config=config,
                       text_input=text_input, int_input=int_input)


@lru_cache(maxsize=1)
def _compiled_app(app_name, version):
    """Compile a registered app, reusing the last compilation.

    Programs are immutable during runs, so consecutive jobs over one
    app version (the drivers keep them adjacent) share one compilation.
    One entry keeps only that program alive: a deeper cache holds every
    app a long batch visits, with its compiled blocks.
    """
    from repro.apps.registry import get_app
    return get_app(app_name).compile(version)


def run_job(spec):
    """Execute one :class:`~repro.jobs.spec.JobSpec`.

    Module-level so process-pool workers can pickle it; the job layer
    (``repro.jobs``) uses this as its single entry point.  For app
    specs the configuration goes through ``app.make_config`` — exactly
    the path the serial harness takes — so pooled and in-process runs
    are result-identical.
    """
    overrides = dict(spec.config_overrides)
    if spec.app is not None:
        from repro.apps.registry import get_app
        app = get_app(spec.app)
        program = _compiled_app(spec.app, spec.version)
        config = app.make_config(mode=spec.mode, **overrides)
    else:
        program = compile_minic(spec.source, name=spec.program_name)
        config = PathExpanderConfig(mode=spec.mode, **overrides)
    return run_program(program, detector=spec.detector, config=config,
                       text_input=spec.text_input,
                       int_input=list(spec.int_input))


def run_with_and_without(program, detector_name, config=None,
                         text_input='', int_input=None):
    """Run baseline and PathExpander side by side (fresh detectors).

    Returns ``(baseline_result, pathexpander_result)`` -- the format
    every Table 4-style comparison in the paper uses.
    """
    config = config or PathExpanderConfig()
    baseline = run_program(
        program, detector=make_detector(detector_name),
        config=config.replace(mode=Mode.BASELINE),
        text_input=text_input, int_input=int_input)
    expanded = run_program(
        program, detector=make_detector(detector_name), config=config,
        text_input=text_input, int_input=int_input)
    return baseline, expanded
