"""The shadow state never changes a result.

A memory checker's shadow marks words where ``classify`` is provably
legal, and a zero byte means "ask ``classify``" -- today's path.  So a
detector whose shadow is all zeros is the oracle: on every access it
classifies exactly as the checkers did before the shadow existed.
Across the memory-bug matrix (the runs behind Tables 4 and 5, whose
false positives are NT-path reports from exactly these runs) the real
shadow must give byte-identical results on both backends, whenever the
fast backend compiles its blocks.
"""

from __future__ import annotations

import pytest

from repro.apps.registry import get_app
from repro.core.runner import make_detector, run_program
import repro.cpu.fastinterp as fastinterp
from repro.harness.experiments import MEMORY_BUG_TARGETS, MEMORY_TOOLS
from tests.conftest import zero_shadow_detector

# (backend, block promotion threshold): the reference step, and the
# fast backend compiling at first entry and at the default.
_BACKENDS = (('reference', fastinterp._PROMOTE_AFTER), ('fast', 1),
             ('fast', fastinterp._PROMOTE_AFTER))

# go_app runs 1.5M instructions on its default input; a prefix still
# reaches its NT-path reports and keeps the matrix quick.
_CAPS = {'go_app': 300_000}

_PROGRAMS = {}


def _program(app_name, version):
    key = (app_name, version)
    if key not in _PROGRAMS:
        _PROGRAMS[key] = get_app(app_name).compile(version)
    return _PROGRAMS[key]


@pytest.mark.parametrize('mode', ['baseline', 'standard'])
@pytest.mark.parametrize('tool', MEMORY_TOOLS)
@pytest.mark.parametrize('app_name,version', MEMORY_BUG_TARGETS)
def test_real_shadow_matches_zero_shadow(monkeypatch, app_name, version,
                                         tool, mode):
    app = get_app(app_name)
    program = _program(app_name, version)
    text, ints = app.default_input()
    overrides = {'variable_fixing': True}
    if app_name in _CAPS:
        overrides['max_instructions'] = _CAPS[app_name]
    expected = None
    for backend, threshold in _BACKENDS:
        monkeypatch.setattr(fastinterp, '_PROMOTE_AFTER', threshold)
        config = app.make_config(mode, backend=backend, **overrides)
        for detector in (make_detector(tool), zero_shadow_detector(tool)):
            program.block_memo.clear()
            result = run_program(program, detector=detector,
                                 config=config, text_input=text,
                                 int_input=ints).to_dict()
            if expected is None:
                expected = result
            assert result == expected, (backend, threshold,
                                        type(detector).__name__)
    if mode == 'standard':
        assert expected['reports'], 'the matrix must reach reports'
