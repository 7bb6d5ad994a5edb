"""Benchmark harness helpers.

Each ``bench_*`` module regenerates one table or figure of the paper:
it prints the measured rows (the same rows/series the paper reports)
and times a representative kernel with pytest-benchmark.  Heavy
experiments run exactly once via ``benchmark.pedantic``.

``--jobs N`` (or the ``REPRO_JOBS`` environment variable) routes
every simulating experiment driver (all but table2 and table3) through
a :class:`~repro.jobs.pool.JobPool` with N worker processes; val1's
detailed-CMP runs stay in-process.  The measured kernels are unchanged
— the same ``run_*`` driver is timed — so the benchmarks exercise both
the serial and pooled execution paths, which are required to produce
identical tables.

``--backend NAME`` (or ``$REPRO_BACKEND``) selects the execution
backend every simulation uses ('reference' or 'fast').  The two are
result-equivalent, so every table is identical either way — only the
wall-clock changes.
"""

from __future__ import annotations

import os

import pytest


def jobs_requested(config=None):
    """Worker count from --jobs, falling back to $REPRO_JOBS, then 1."""
    if config is not None:
        return config.getoption('--jobs')
    return int(os.environ.get('REPRO_JOBS', '1') or '1')


def pytest_addoption(parser):
    parser.addoption(
        '--jobs', type=int, default=jobs_requested(),
        help='worker processes for the experiment drivers '
             '(default: $REPRO_JOBS or 1 = serial in-process)')
    parser.addoption(
        '--backend', default=None,
        choices=['reference', 'fast'],
        help='execution backend for every simulation '
             '(default: $REPRO_BACKEND or fast)')


def pytest_configure(config):
    backend = config.getoption('--backend', default=None)
    if backend:
        # Read at each engine's construction; pool workers are
        # separate processes and inherit it too.
        os.environ['REPRO_BACKEND'] = backend


@pytest.fixture
def experiment_pool(request):
    """A JobPool honouring --jobs/$REPRO_JOBS, or None for serial."""
    jobs = jobs_requested(request.config)
    if jobs <= 1:
        return None
    from repro.jobs import JobPool
    return JobPool(jobs=jobs)


def emit(result):
    """Print an ExperimentResult table under the benchmark output."""
    print()
    print(result.format())
    return result
