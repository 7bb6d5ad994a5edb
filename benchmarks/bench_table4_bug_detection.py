"""Table 4: bugs detected, baseline vs PathExpander (0 -> 21 of 38)."""

from functools import partial

from conftest import emit
from repro.harness.experiments import run_table4


def test_table4_bug_detection(benchmark, experiment_pool):
    result = benchmark.pedantic(partial(run_table4, pool=experiment_pool),
                                rounds=1, iterations=1)
    emit(result)
    total = [row for row in result.rows if row[0] == 'TOTAL'][0]
    assert total[2] == 38
    assert total[3] == 0, 'baseline must detect nothing'
    assert total[4] == 21, 'PathExpander detects 21 of 38 (paper)'
    rows = {(row[0], row[1]): row for row in result.rows[:-1]}
    # the paper's stated per-app constraints
    assert rows[('assertions', 'print_tokens')][3:] == [0, 5]
    assert rows[('ccured', 'bc_calc')][4] == 1
    assert rows[('ccured', 'go_app')][4] == 0
    assert rows[('ccured', 'man_fmt')][4] == 1
