"""Figure 3: crash-latency / unsafe-latency CDFs for go, gzip, vpr."""

from functools import partial

from conftest import emit
from repro.harness.experiments import run_fig3


def test_fig3_crash_latency(benchmark, experiment_pool):
    result = benchmark.pedantic(
        partial(run_fig3, pool=experiment_pool), rounds=1, iterations=1)
    emit(result)
    rows = result.row_dict()

    def survival(app):
        return float(rows[app][-2].rstrip('%'))

    # paper: most NT-paths run a long time; go stops earliest least
    assert survival('go_app') >= 85.0
    assert survival('gzip_app') >= 40.0
    assert survival('vpr_app') >= 65.0
    # gzip/vpr stop mostly on unsafe events, not crashes
    for app in ('gzip_app', 'vpr_app'):
        stopped = 100.0 - survival(app)
        crash = float(rows[app][-1].rstrip('%'))
        assert crash <= stopped / 2 + 1e-9
