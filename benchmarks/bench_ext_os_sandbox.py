"""Extension: OS sandboxing of unsafe events (paper future work).

The paper predicts that with OS support for sandboxing unsafe events,
"more than 90% of NT-Paths may potentially execute up to 1000
instructions" (Section 3.2).
"""

from functools import partial

from conftest import emit
from repro.harness.experiments import run_ext_os_sandbox


def test_ext_os_sandbox(benchmark, experiment_pool):
    result = benchmark.pedantic(
        partial(run_ext_os_sandbox, pool=experiment_pool), rounds=1,
        iterations=1)
    emit(result)
    for app, plain, sandboxed in result.rows:
        plain_pct = float(plain.rstrip('%'))
        sandboxed_pct = float(sandboxed.rstrip('%'))
        assert sandboxed_pct >= plain_pct
        assert sandboxed_pct > 90.0, \
            'paper prediction: >90%% survival with OS sandboxing (%s)' \
            % app
