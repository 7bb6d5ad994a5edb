"""Differential harness: the fast backend must be undetectable.

Every registered application runs in all four modes, under every
detector the app supports (plus detector-free), on both execution
backends -- and the two :meth:`RunResult.to_dict` payloads must be
byte-identical.  That covers cycles, instret, coverage sets, NT-path
accounting, detector reports, program output and crash state at once.

Runs are capped with ``max_instructions``, which doubles as a test of
the truncation contract: a fused block refuses to overshoot the budget,
so both backends must stop at exactly the same instruction.  A separate
uncapped test checks natural program exit.

Results must not depend on when, or whether, the fast backend compiles
a block: every case runs at three promotion thresholds (compile on
first entry, the default, never) and, at each, twice on the same
Program -- a cold run that fills the Program's block memo and a warm
run served from it.
"""

from __future__ import annotations

import pytest

from repro.apps.registry import ALL_APPS, get_app
from repro.core.config import Mode
from repro.core.runner import make_detector, run_program
import repro.cpu.fastinterp as fastinterp

# Block promotion thresholds (fastinterp._PROMOTE_AFTER).
_THRESHOLDS = {'first_entry': 1,
               'default': fastinterp._PROMOTE_AFTER,
               'never': float('inf')}

# Large enough to reach steady state (and NT-path spawning) in every
# app, small enough to keep the full matrix fast.
_INSTR_CAP = 25_000

_PROGRAMS = {}


def _program(name):
    if name not in _PROGRAMS:
        _PROGRAMS[name] = get_app(name).compile()
    return _PROGRAMS[name]


def _run(app, program, mode, detector_name, backend, **overrides):
    text, ints = app.default_input()
    config = app.make_config(mode, backend=backend, **overrides)
    result = run_program(program, detector=make_detector(detector_name),
                         config=config, text_input=text, int_input=ints)
    return result.to_dict()


def _assert_agree(monkeypatch, app_name, mode, **overrides):
    """Fast == reference for every detector, at every threshold, on a
    cold and then a warm block memo."""
    app = get_app(app_name)
    program = _program(app_name)
    for detector_name in ('none',) + tuple(app.tools):
        reference = _run(app, program, mode, detector_name, 'reference',
                         **overrides)
        for threshold, after in sorted(_THRESHOLDS.items()):
            monkeypatch.setattr(fastinterp, '_PROMOTE_AFTER', after)
            program.block_memo.clear()
            for memo in ('cold', 'warm'):
                fast = _run(app, program, mode, detector_name, 'fast',
                            **overrides)
                assert fast == reference, (app_name, mode, detector_name,
                                           threshold, memo)


@pytest.mark.parametrize('mode', Mode.ALL)
@pytest.mark.parametrize('app_name', sorted(ALL_APPS))
def test_backends_agree(app_name, mode, monkeypatch):
    _assert_agree(monkeypatch, app_name, mode,
                  max_instructions=_INSTR_CAP)


# NT-path policy extensions change what executes inside the sandbox
# (speculative syscalls; forced edges spawned from NT-paths), so each
# needs its own pass through the differential matrix in the spawning
# modes.
_NT_POLICY_OVERRIDES = {
    'sandbox_unsafe': {'sandbox_unsafe_events': True},
    'explore_from_nt': {'explore_nt_from_nt': True},
    'both': {'sandbox_unsafe_events': True, 'explore_nt_from_nt': True},
}


@pytest.mark.parametrize('policy', sorted(_NT_POLICY_OVERRIDES))
@pytest.mark.parametrize('mode', (Mode.STANDARD, Mode.CMP))
@pytest.mark.parametrize('app_name', sorted(ALL_APPS))
def test_backends_agree_nt_policies(app_name, mode, policy,
                                    monkeypatch):
    _assert_agree(monkeypatch, app_name, mode,
                  max_instructions=_INSTR_CAP,
                  **_NT_POLICY_OVERRIDES[policy])


@pytest.mark.parametrize('mode', Mode.ALL)
def test_backends_agree_uncapped(mode, monkeypatch):
    """Natural program exit (no truncation) on a small app."""
    _assert_agree(monkeypatch, 'schedule', mode)


def test_capped_matrix_exercises_truncation():
    """The cap actually bites on the big workloads, so the matrix above
    really does compare truncation points."""
    app = get_app('vpr_app')
    data = _run(app, _program('vpr_app'), Mode.BASELINE, 'none', 'fast',
                max_instructions=_INSTR_CAP)
    assert data['truncated']


def test_capped_matrix_exercises_nt_paths():
    """...and NT-paths spawn inside the capped window."""
    app = get_app('schedule')
    data = _run(app, _program('schedule'), Mode.STANDARD, 'none', 'fast',
                max_instructions=_INSTR_CAP)
    assert data['nt_spawned'] > 0
