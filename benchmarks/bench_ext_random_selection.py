"""Extension: random factor in NT-path selection (paper Section 7.1).

Recovers the two bugs missed because their entry edge saturated its
exercise counter before the bug-triggering state arose (the undetected
bc bug's mechanism).
"""

from functools import partial

from conftest import emit
from repro.harness.experiments import run_ext_random_selection


def test_ext_random_selection(benchmark, experiment_pool):
    result = benchmark.pedantic(
        partial(run_ext_random_selection, pool=experiment_pool), rounds=1,
        iterations=1)
    emit(result)
    for bug, app, plain, randomized, extra in result.rows:
        assert plain == 'no', \
            '%s must stay hidden under counter-only selection' % bug
        assert randomized == 'yes', \
            '%s must surface with the random factor' % bug
        assert extra > 0
