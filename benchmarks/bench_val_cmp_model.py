"""Validation: CMP scheduling model vs the detailed Fig. 6 engine."""

from functools import partial

from conftest import emit
from repro.harness.experiments import run_val_cmp_model


def test_val_cmp_model(benchmark, experiment_pool):
    result = benchmark.pedantic(
        partial(run_val_cmp_model, pool=experiment_pool), rounds=1,
        iterations=1)
    emit(result)
    for app, model, detailed, same, _nm, _nd in result.rows:
        assert same == 'yes', '%s: detections must agree' % app
        assert float(model.rstrip('%')) < 9.9
        assert float(detailed.rstrip('%')) < 9.9
