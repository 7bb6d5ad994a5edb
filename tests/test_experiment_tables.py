"""Experiment tables: pinned rows, and identical tables whether a
driver's jobs resolve serially, in a process pool or from a warm cache.

The pinned rows fix each table's numbers so that no change to how the
runs are described, scheduled or cached can move a figure unnoticed.
table4 is pinned by ``perfbench/pinned.json`` and
``tests/test_apps.py``.
"""

from __future__ import annotations

import functools

import pytest

from repro.harness.experiments import EXPERIMENTS, run_batch, run_table5
from repro.jobs import JobPool, ResultStore

# A narrow, cheap slice of every experiment except table4 and table5.
SLICES = {
    'table2': {},
    'table3': {},
    'fig3': {'apps': ('gzip_app',)},
    'fig7': {'apps': ('schedule2',)},
    'fig8': {'apps': ('schedule2',), 'runs': 3},
    'fig9': {'apps': ('schedule2',)},
    'table6': {'apps': ('schedule2',)},
    'fig10': {},
    'abl1': {},
    'ext1': {'apps': ('gzip_app',)},
    'ext2': {},
    'val1': {'apps': ('print_tokens2',)},
}

PINNED_ROWS = {
    'fig3': [['gzip_app', 38, '15.8%', '34.2%', '36.8%', '55.3%',
              '57.9%', '57.9%', '42.1%', '5.3%']],
    'ext1': [['gzip_app', '42.1%', '94.7%']],
    'val1': [['print_tokens2', '8.7%', '8.7%', 'yes', 235, 235]],
    'fig10': [
        ['MaxNTPathLength=10', '81.7%', '38.9%', 240],
        ['MaxNTPathLength=50', '90.8%', '93.8%', 240],
        ['MaxNTPathLength=100', '91.7%', '152.4%', 240],
        ['MaxNTPathLength=500', '91.7%', '617.6%', 240],
        ['MaxNTPathLength=1000', '93.3%', '1176.2%', 240],
        ['NTPathCounterThreshold=1', '90.0%', '30.0%', 48],
        ['NTPathCounterThreshold=2', '90.0%', '60.5%', 96],
        ['NTPathCounterThreshold=5', '91.7%', '152.4%', 240],
        ['NTPathCounterThreshold=10', '94.2%', '286.2%', 451],
        ['NTPathCounterThreshold=15', '94.2%', '386.7%', 610],
        ['MaxNumNTPaths=1', '75.8%', '6.8%', 112],
        ['MaxNumNTPaths=2', '88.3%', '9.0%', 150],
        ['MaxNumNTPaths=4', '91.7%', '12.0%', 199],
        ['MaxNumNTPaths=8', '91.7%', '13.8%', 229],
        ['MaxNumNTPaths=16', '91.7%', '13.9%', 231],
        ['MaxNumNTPaths=32', '91.7%', '14.3%', 237]],
    'abl1': [['follow taken edges only', '82.7%', '5.3%', 38],
             ['explore non-taken edges from NT-paths', '92.3%', '7.9%',
              38]],
    'ext2': [['bc_flush', 'bc_calc', 'no', 'yes', 1489],
             ['sch2_v5', 'schedule2', 'no', 'yes', 73]],
}

TABLE5_ROWS = [
    ['ccured', 'go_app', 25, 16, 0, 0],
    ['ccured', 'bc_calc', 3, 1, 1, 1],
    ['ccured', 'man_fmt', 6, 0, 0, 1],
    ['ccured', 'print_tokens2', 3, 0, 1, 1],
    ['iwatcher', 'go_app', 25, 16, 0, 0],
    ['iwatcher', 'bc_calc', 3, 1, 1, 1],
    ['iwatcher', 'man_fmt', 6, 0, 0, 1],
    ['iwatcher', 'print_tokens2', 3, 0, 1, 1],
    ['AVERAGE', '', 9.25, 4.25, '', ''],
]


@functools.lru_cache(maxsize=None)
def serial_table(exp_id):
    return EXPERIMENTS[exp_id](**SLICES[exp_id]).to_dict()


@pytest.mark.parametrize('exp_id', sorted(PINNED_ROWS))
def test_rows_are_pinned(exp_id):
    assert serial_table(exp_id)['rows'] == PINNED_ROWS[exp_id]


def test_table5_rows_are_pinned():
    assert run_table5().to_dict()['rows'] == TABLE5_ROWS


@pytest.mark.parametrize('exp_id', sorted(SLICES))
def test_pooled_serial_and_cached_tables_identical(exp_id, tmp_path):
    store = ResultStore(tmp_path)
    cold = JobPool(jobs=2, store=store)
    pooled = EXPERIMENTS[exp_id](pool=cold, **SLICES[exp_id]).to_dict()
    warm = JobPool(jobs=1, store=store)
    cached = EXPERIMENTS[exp_id](pool=warm, **SLICES[exp_id]).to_dict()
    assert pooled == serial_table(exp_id)
    assert cached == serial_table(exp_id)
    assert warm.metrics.jobs_run == 0
    assert warm.metrics.cache_hits == cold.metrics.jobs_submitted


def test_batch_runs_each_shared_run_once():
    # fig9 and table6 both need the baseline and the CMP run.
    pool = JobPool(jobs=1)
    tables = run_batch(['fig9', 'table6'], pool=pool, apps=('schedule2',))
    assert pool.metrics.jobs_submitted == 4
    assert [table.to_dict() for table in tables] \
        == [serial_table('fig9'), serial_table('table6')]


def test_fig10_default_sweep_points_are_one_run():
    # MaxNTPathLength=100 and NTPathCounterThreshold=5 are both
    # print_tokens2's default standard run.
    pool = JobPool(jobs=1)
    assert EXPERIMENTS['fig10'](pool=pool).to_dict() \
        == serial_table('fig10')
    assert pool.metrics.jobs_submitted == 16


def test_specs_carry_only_non_default_overrides():
    def specs(exp_id, **kwargs):
        return EXPERIMENTS[exp_id].plan(**kwargs)[0]
    for exp_id in ('fig7', 'fig8', 'fig9', 'table6'):
        assert all(spec.config_overrides == ()
                   for spec in specs(exp_id, **SLICES[exp_id]))
    # table5's fixed runs are table4's PathExpander runs.
    table4 = {spec.key for spec in specs('table4')}
    fixed = specs('table5')[1::2]
    assert all(spec.key in table4 for spec in fixed)
    # ext1's unsandboxed run and abl1's taken-only run are fig3's.
    fig3 = specs('fig3', apps=('gzip_app',))[0]
    assert specs('ext1', apps=('gzip_app',))[0] == fig3
    assert specs('abl1')[0] == fig3
