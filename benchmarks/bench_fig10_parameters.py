"""Parameter sensitivity (Section 7.6)."""

from functools import partial

from conftest import emit
from repro.harness.experiments import run_fig10


def test_fig10_parameters(benchmark, experiment_pool):
    result = benchmark.pedantic(partial(run_fig10, pool=experiment_pool),
                                rounds=1, iterations=1)
    emit(result)
    rows = result.row_dict()
    # longer NT-paths: more coverage, more overhead
    cov_short = float(rows['MaxNTPathLength=10'][1].rstrip('%'))
    cov_long = float(rows['MaxNTPathLength=1000'][1].rstrip('%'))
    assert cov_long >= cov_short
    ovh_short = float(rows['MaxNTPathLength=10'][2].rstrip('%'))
    ovh_long = float(rows['MaxNTPathLength=1000'][2].rstrip('%'))
    assert ovh_long > ovh_short
    # higher threshold: more NT-paths
    assert rows['NTPathCounterThreshold=15'][3] > \
        rows['NTPathCounterThreshold=1'][3]
