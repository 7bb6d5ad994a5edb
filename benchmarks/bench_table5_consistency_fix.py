"""Table 5: variable fixing prunes false positives and exposes the
man bug."""

from functools import partial

from conftest import emit
from repro.harness.experiments import run_table5


def test_table5_consistency_fix(benchmark, experiment_pool):
    result = benchmark.pedantic(partial(run_table5, pool=experiment_pool),
                                rounds=1, iterations=1)
    emit(result)
    average = [row for row in result.rows if row[0] == 'AVERAGE'][0]
    fp_before, fp_after = average[2], average[3]
    assert fp_after < fp_before, \
        'fixing must reduce false positives (paper: 13 -> 4)'
    man_rows = [row for row in result.rows if row[1] == 'man_fmt']
    for row in man_rows:
        assert row[4] == 0 and row[5] == 1, \
            'man bug detected only after fixing (paper)'
