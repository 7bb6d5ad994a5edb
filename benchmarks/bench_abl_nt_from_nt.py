"""Ablation: why NT-paths only follow taken edges (Section 4.2(3))."""

from functools import partial

from conftest import emit
from repro.harness.experiments import run_ablation_nt_from_nt


def test_ablation_nt_from_nt(benchmark, experiment_pool):
    result = benchmark.pedantic(
        partial(run_ablation_nt_from_nt, pool=experiment_pool), rounds=1,
        iterations=1)
    emit(result)
    follow, explore = result.rows
    cov_follow = float(follow[1].rstrip('%'))
    cov_explore = float(explore[1].rstrip('%'))
    crash_follow = float(follow[2].rstrip('%'))
    crash_explore = float(explore[2].rstrip('%'))
    # the paper's trade-off: a bit more coverage, notably more crashes
    assert cov_explore >= cov_follow
    assert crash_explore > crash_follow
