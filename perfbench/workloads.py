"""The benchmark's workloads: which unchanged experiment driver each
one calls, at what size, and on which inputs.

Each ``setup`` function runs in the child before the clock starts (it
is part of ``setup_s``) and returns the timed call, which returns the
list of :class:`~repro.harness.reporting.ExperimentResult` tables the
driver produced.  MiniC compilation happens inside the drivers, so it
is timed, as every user of an experiment pays it.

Every workload runs the paper's own fixed inputs, so each run of a
workload does the same simulated work and its results are pinned
exactly; ``--seed`` decides which backend runs first in each pair.
"""

from __future__ import annotations

import os

FIG8_RUNS = 3


def _fig8_short(tiny, workdir):
    from repro.harness import experiments
    from repro.workloads.inputs import CUMULATIVE_APP_NAMES, input_suite

    runs = 1 if tiny else FIG8_RUNS
    suites = {app: input_suite(app, count=runs)
              for app in CUMULATIVE_APP_NAMES}

    def pregenerated_suite(app_name, count=50, base_seed=1):
        if (count, base_seed) != (runs, 1):
            raise ValueError('fig8_short pregenerated %d inputs per app '
                             'from seed 1' % runs)
        return suites[app_name]
    # Input generation is set-up work: the driver reads the suites
    # generated above instead of generating them inside the timed call.
    experiments.input_suite = pregenerated_suite
    return lambda: [experiments.run_fig8(runs=runs)]


def _fig9_long(tiny, workdir):
    from repro.harness import experiments

    # One long app keeps every run long (compile amortised) while a
    # (fast, reference) pair stays short enough for several pairs per
    # timed run.
    apps = ('print_tokens2',) if tiny else ('go_app',)
    return lambda: [experiments.run_fig9(apps=apps)]


def _table4_bugs(tiny, workdir):
    from repro.harness import experiments

    # run_table4 has no size knob: the tiny scale runs it whole.
    return lambda: [experiments.run_table4()]


def _fig7_pooled(tiny, workdir):
    from repro.apps.registry import WORKLOAD_APP_NAMES
    from repro.harness import experiments
    from repro.jobs import JobPool
    from repro.jobs.store import ResultStore

    apps = ('schedule', 'schedule2') if tiny else WORKLOAD_APP_NAMES
    jobs = min(2, len(os.sched_getaffinity(0)))
    pool = JobPool(jobs=jobs,
                   store=ResultStore(os.path.join(workdir, 'store')))
    # Cold (every job runs in a worker), then the same batch warm
    # (every job is a store hit).
    return lambda: [experiments.run_fig7(apps=apps, pool=pool),
                    experiments.run_fig7(apps=apps, pool=pool)]


# name -> (setup, runs its simulations in pool workers)
WORKLOADS = {
    'fig8_short': (_fig8_short, False),
    'fig9_long': (_fig9_long, False),
    'table4_bugs': (_table4_bugs, False),
    'fig7_pooled': (_fig7_pooled, True),
}
