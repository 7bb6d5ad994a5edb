"""Shared test helpers."""

from __future__ import annotations

import pytest

from repro.core.config import Mode, PathExpanderConfig
from repro.core.runner import run_source
from repro.detectors import CCuredDetector, IWatcherDetector
from repro.minic.codegen import compile_minic


def run_minic(source, detector=None, mode=Mode.BASELINE, text_input='',
              int_input=None, name='test', **config_overrides):
    """Compile + run MiniC under a given mode; returns the RunResult."""
    config = PathExpanderConfig(mode=mode, **config_overrides)
    return run_source(source, detector=detector, config=config,
                      text_input=text_input, int_input=int_input,
                      name=name)


def run_output(source, text_input='', int_input=None):
    """Run in baseline mode and return the program's text output."""
    result = run_minic(source, text_input=text_input, int_input=int_input)
    assert not result.crashed, 'program crashed: %s' % result.crash_kind
    return result.output


@pytest.fixture
def compile_src():
    return lambda src, **kw: compile_minic(src, **kw)


class _ZeroShadow:
    """Gives a memory checker an all-zero shadow of its own after
    ``attach``: every access then takes the ``classify`` path, as
    before the shadow existed.  The allocator keeps painting the real
    array, which nothing reads."""

    def attach(self, program, memory, allocator):
        super().attach(program, memory, allocator)
        self.shadow = bytearray(len(self.shadow))


_ZERO_SHADOW = {
    'ccured': type('ZeroShadowCCured', (_ZeroShadow, CCuredDetector), {}),
    'iwatcher': type('ZeroShadowIWatcher', (_ZeroShadow, IWatcherDetector),
                     {}),
}


def zero_shadow_detector(name):
    """A fresh ``name`` detector (ccured or iwatcher) that never trusts
    its shadow: the oracle a real shadow must match byte for byte."""
    return _ZERO_SHADOW[name]()
