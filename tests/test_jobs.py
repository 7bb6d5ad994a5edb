"""Tests for the parallel job subsystem (``repro.jobs``)."""

import gc
import json
import threading
import time

import pytest

from repro.core.runner import run_job
from repro.jobs import (JobExecutionError, JobPool, JobSpec,
                        ResultStore, RunMetrics)
from repro.jobs import pool as pool_module
from repro.memory.main_memory import MainMemory

TINY_SRC = '''
int main() {
  int n = read_int();
  if (n > 2) { print_int(n); } else { print_int(0); }
  return 0;
}
'''


def tiny_spec(n=5):
    return JobSpec.for_source(TINY_SRC, name='tiny', detector='none',
                              int_input=[n])


def app_spec(**overrides):
    overrides.setdefault('detector', 'ccured')
    return JobSpec.for_app('schedule', **overrides)


# Module-level runners so the process pool can pickle them.

_FLAKY_STATE = {'failures_left': 0}


def _flaky_runner(spec_dict):
    if _FLAKY_STATE['failures_left'] > 0:
        _FLAKY_STATE['failures_left'] -= 1
        raise RuntimeError('transient failure')
    return pool_module.execute_spec(spec_dict)


def _sleepy_runner(spec_dict):
    time.sleep(1.0)
    return pool_module.execute_spec(spec_dict)


# ---------------------------------------------------------------------


class TestJobSpec:
    def test_same_spec_same_key(self):
        assert tiny_spec().key == tiny_spec().key
        assert app_spec().key == app_spec().key
        assert tiny_spec() == tiny_spec()

    def test_changed_input_changes_key(self):
        assert tiny_spec(5).key != tiny_spec(6).key
        base = app_spec()
        assert base.key != app_spec(text_input='x').key
        assert base.key != app_spec(mode='cmp').key
        assert base.key != app_spec(detector='iwatcher').key
        assert base.key != app_spec(version=1).key
        assert base.key != app_spec(
            config_overrides={'max_nt_path_length': 10}).key

    def test_override_order_is_canonicalised(self):
        first = app_spec(config_overrides={'spawn_overhead': 25,
                                           'num_cores': 2})
        second = app_spec(config_overrides={'num_cores': 2,
                                            'spawn_overhead': 25})
        assert first.key == second.key

    def test_app_and_source_specs_differ(self):
        assert tiny_spec().key != app_spec().key

    def test_dict_round_trip_preserves_key(self):
        spec = app_spec(config_overrides={'num_cores': 2},
                        int_input=[1, 2, 3])
        clone = JobSpec.from_dict(json.loads(json.dumps(
            spec.to_dict())))
        assert clone.key == spec.key
        assert clone == spec

    def test_frozen(self):
        spec = tiny_spec()
        with pytest.raises(AttributeError):
            spec.detector = 'ccured'
        with pytest.raises(AttributeError):
            del spec.detector

    def test_validation(self):
        with pytest.raises(ValueError, match='exactly one'):
            JobSpec(app='schedule', source=TINY_SRC)
        with pytest.raises(ValueError, match='exactly one'):
            JobSpec()
        with pytest.raises(ValueError, match='bad mode'):
            JobSpec(app='schedule', mode='warp')
        with pytest.raises(TypeError, match='JSON scalar'):
            JobSpec(app='schedule',
                    config_overrides={'max_nt_path_length': [1]})


# ---------------------------------------------------------------------


class TestResultStore:
    def test_miss_returns_none(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get('00' + 'a' * 62) is None
        assert store.corrupt_evictions == 0

    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = tiny_spec()
        result = run_job(spec).to_dict()
        store.put(spec.key, spec.to_dict(), result, 0.25)
        record = store.get(spec.key)
        assert record['result'] == result
        assert record['spec'] == spec.to_dict()
        assert record['elapsed_seconds'] == 0.25
        assert spec.key in store
        assert list(store.keys()) == [spec.key]
        assert len(store) == 1

    def test_corrupt_record_is_evicted(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = tiny_spec()
        result = run_job(spec).to_dict()
        path = store.put(spec.key, spec.to_dict(), result, 0.0)
        with open(path, 'w') as handle:
            handle.write('{"key": truncated garbage')
        assert store.get(spec.key) is None
        assert store.corrupt_evictions == 1
        assert spec.key not in store
        # the evicted slot is reusable
        store.put(spec.key, spec.to_dict(), result, 0.0)
        assert store.get(spec.key)['result'] == result

    def test_mismatched_key_is_evicted(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = tiny_spec()
        result = run_job(spec).to_dict()
        path = store.put(spec.key, spec.to_dict(), result, 0.0)
        with open(path, 'w') as handle:
            json.dump({'key': 'f' * 64, 'result': result}, handle)
        assert store.get(spec.key) is None
        assert store.corrupt_evictions == 1

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = tiny_spec()
        store.put(spec.key, spec.to_dict(), run_job(spec).to_dict(),
                  0.0)
        store.clear()
        assert len(store) == 0


# ---------------------------------------------------------------------


class TestJobPool:
    def test_serial_matches_in_process(self):
        spec = app_spec()
        direct = run_job(spec)
        pooled = JobPool(jobs=1).run_one(spec)
        assert pooled.to_dict() == direct.to_dict()

    def test_process_pool_matches_in_process(self):
        specs = [app_spec(), app_spec(detector='iwatcher')]
        direct = [run_job(spec) for spec in specs]
        pool = JobPool(jobs=2)
        pooled = pool.run(specs)
        assert [r.to_dict() for r in pooled] == \
            [r.to_dict() for r in direct]
        assert pool.metrics.jobs_run == 2

    def test_no_executor_thread_outlives_run(self):
        before = set(threading.enumerate())
        results = JobPool(jobs=2).run([tiny_spec(3), tiny_spec(7)])
        assert [r.int_output for r in results] == [[3], [7]]
        assert [t.name for t in threading.enumerate()
                if t not in before and t.is_alive()] == []

    def test_worker_frees_each_run_before_the_next(self):
        # A finished run frees its engine, interpreter and memory image
        # by reference counting, so a long-lived worker never holds
        # more than one run's memory.
        def live_memories():
            return sum(type(obj) is MainMemory for obj in gc.get_objects())
        gc.collect()
        before = live_memories()
        gc.disable()
        try:
            pool_module.execute_spec(tiny_spec().to_dict())
            assert live_memories() == before
        finally:
            gc.enable()

    def test_cache_hit_skips_execution(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = tiny_spec()
        cold = JobPool(jobs=1, store=store)
        first = cold.run_one(spec)
        assert cold.metrics.jobs_run == 1
        assert cold.metrics.cache_misses == 1
        warm = JobPool(jobs=1, store=store)
        second = warm.run_one(spec)
        assert warm.metrics.jobs_run == 0
        assert warm.metrics.cache_hits == 1
        assert second.to_dict() == first.to_dict()

    def test_store_is_never_tested_for_truth(self, tmp_path,
                                             monkeypatch):
        # ResultStore.__len__ walks every shard: the pool must look a
        # store up per spec without ever sizing it, empty or not.
        def no_len(store):
            raise AssertionError('ResultStore.__len__ called')
        monkeypatch.setattr(ResultStore, '__len__', no_len)
        store = ResultStore(tmp_path)
        specs = [tiny_spec(n) for n in (1, 5)]
        cold = JobPool(jobs=1, store=store)
        first = cold.run(specs)
        assert cold.metrics.jobs_run == 2
        assert cold.metrics.cache_misses == 2
        warm = JobPool(jobs=1, store=store)
        second = warm.run(specs)
        assert warm.metrics.jobs_run == 0
        assert warm.metrics.cache_hits == 2
        assert [r.to_dict() for r in second] \
            == [r.to_dict() for r in first]

    def test_corrupt_cache_record_reruns_job(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = tiny_spec()
        first = JobPool(jobs=1, store=store)
        expected = first.run_one(spec).to_dict()
        with open(store._path(spec.key), 'w') as handle:
            handle.write('not json at all')
        recover = JobPool(jobs=1, store=store)
        result = recover.run_one(spec)
        assert result.to_dict() == expected
        assert recover.metrics.cache_hits == 0
        assert recover.metrics.jobs_run == 1
        assert recover.metrics.corrupt_evictions == 1
        # the rerun repaired the cache
        assert store.get(spec.key)['result'] == expected

    def test_retry_accounting_and_recovery(self):
        _FLAKY_STATE['failures_left'] = 2
        pool = JobPool(jobs=1, runner=_flaky_runner, retries=3,
                       backoff=0.001)
        result = pool.run_one(tiny_spec())
        assert result.output.strip() == '5'
        assert pool.metrics.failures == 2
        assert pool.metrics.retries == 2
        assert pool.metrics.jobs_run == 1

    def test_retries_exhausted_raises(self):
        _FLAKY_STATE['failures_left'] = 10
        pool = JobPool(jobs=1, runner=_flaky_runner, retries=1,
                       backoff=0.001)
        with pytest.raises(JobExecutionError, match='transient'):
            pool.run_one(tiny_spec())
        assert pool.metrics.failures == 2
        assert pool.metrics.retries == 1
        assert pool.metrics.jobs_run == 0
        _FLAKY_STATE['failures_left'] = 0

    def test_timeout_accounting(self):
        pool = JobPool(jobs=2, runner=_sleepy_runner, timeout=0.05,
                       retries=1, backoff=0.001)
        with pytest.raises(JobExecutionError, match='timed out'):
            pool.run([tiny_spec()])
        assert pool.metrics.timeouts == 2
        assert pool.metrics.retries == 1
        assert pool.metrics.jobs_run == 0

    def test_spawn_failure_falls_back_to_serial(self, monkeypatch):
        def broken_executor(*_args, **_kwargs):
            raise OSError('no processes for you')
        monkeypatch.setattr(pool_module, 'ProcessPoolExecutor',
                            broken_executor)
        spec = app_spec()
        pool = JobPool(jobs=4)
        result = pool.run_one(spec)
        assert result.to_dict() == run_job(spec).to_dict()
        assert pool.metrics.serial_fallbacks == 1
        assert pool.metrics.jobs_run == 1

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match='jobs'):
            JobPool(jobs=0)


# ---------------------------------------------------------------------


class TestRunMetrics:
    def test_summary_contains_all_counters(self):
        metrics = RunMetrics()
        metrics.incr('jobs_run', 3)
        metrics.add_wall_time(2.0)
        metrics.add_sim_time(6.0)
        text = metrics.format_summary()
        assert 'jobs_run' in text and 'cache_hits' in text
        assert 'parallel_speedup' in text
        assert metrics.to_dict()['jobs_run'] == 3

    def test_unknown_counter_rejected(self):
        with pytest.raises(KeyError):
            RunMetrics().incr('warp_factor')

    def test_event_log_is_jsonl(self, tmp_path):
        log = tmp_path / 'events.jsonl'
        metrics = RunMetrics(log_path=str(log))
        metrics.event('job_done', key='abc', seconds=0.5)
        metrics.event('cache_hit', key='def')
        lines = log.read_text().splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]['event'] == 'job_done'
        assert parsed[1]['key'] == 'def'
        assert metrics.events[0]['seconds'] == 0.5
