"""Lossless ``RunResult`` serialization (``to_dict``/``from_dict``).

The job subsystem ships results between worker processes and the
on-disk cache as JSON, so the round trip must preserve every field —
coverage edge sets, NT-path termination counts, bug reports and cycle
counts — exactly.
"""

import json

import pytest

from repro.apps.registry import get_app
from repro.core.config import Mode
from repro.core.result import RunResult
from repro.core.runner import make_detector, run_program

# Two apps, two modes, two detectors; print_tokens2 v10 carries a
# memory bug so the report list is non-empty.
CASES = (
    ('schedule', 0, Mode.STANDARD, 'ccured'),
    ('print_tokens2', 10, Mode.CMP, 'iwatcher'),
)


def _run_case(app_name, version, mode, detector):
    app = get_app(app_name)
    program = app.compile(version)
    text, ints = app.default_input()
    config = app.make_config(mode=mode, collect_nt_details=True)
    return run_program(program, detector=make_detector(detector),
                       config=config, text_input=text, int_input=ints)


@pytest.mark.parametrize('app_name,version,mode,detector', CASES)
def test_round_trip_is_lossless(app_name, version, mode, detector):
    result = _run_case(app_name, version, mode, detector)
    data = result.to_dict()
    restored = RunResult.from_dict(json.loads(json.dumps(data)))

    # re-serialization reproduces the original record byte for byte
    assert restored.to_dict() == data
    assert json.dumps(restored.to_dict(), sort_keys=True) == \
        json.dumps(data, sort_keys=True)

    # the fields the experiments consume survive with full fidelity
    assert restored.taken_edges == result.taken_edges
    assert restored.covered_edges == result.covered_edges
    assert restored.nt_terminations == result.nt_terminations
    assert restored.cycles == result.cycles
    assert restored.primary_cycles == result.primary_cycles
    assert restored.nt_spawned == result.nt_spawned
    assert [r.to_dict() for r in restored.reports] == \
        [r.to_dict() for r in result.reports]
    assert [r.to_dict() for r in restored.nt_details] == \
        [r.to_dict() for r in result.nt_details]
    assert restored.output == result.output
    assert restored.int_output == result.int_output


@pytest.mark.parametrize('app_name,version,mode,detector', CASES)
def test_restored_result_behaves_like_original(app_name, version, mode,
                                               detector):
    result = _run_case(app_name, version, mode, detector)
    restored = RunResult.from_dict(
        json.loads(json.dumps(result.to_dict())))
    assert restored.baseline_coverage == result.baseline_coverage
    assert restored.total_coverage == result.total_coverage
    assert restored.overhead_vs(result) == 0.0
    for in_nt_path in (True, False):
        assert {r.site_key for r in restored.reports
                if r.in_nt_path == in_nt_path} == \
            {r.site_key for r in result.reports
             if r.in_nt_path == in_nt_path}
    assert repr(restored) == repr(result)


def test_edge_lists_are_sorted_and_deterministic():
    result = _run_case(*CASES[0])
    data = result.to_dict()
    assert data['taken_edges'] == sorted(data['taken_edges'])
    assert data['covered_edges'] == sorted(data['covered_edges'])
    # serializing twice yields identical bytes (cache determinism)
    assert json.dumps(result.to_dict(), sort_keys=True) == \
        json.dumps(result.to_dict(), sort_keys=True)
