"""Chaos suite: fault injection, degradation, watchdog, recovery.

The core invariant under test (ISSUE: robustness): with any *single*
fault from the default plan matrix injected, a batch either completes
with results byte-identical to a fault-free run, or fails with one
structured, spec-attributed error — never a hang, a silent wrong
result, or an unhandled internal traceback.

``REPRO_CHAOS_SEED`` (CI matrix) varies the injection points.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

from repro.apps.registry import get_app
from repro.core.config import PathExpanderConfig
from repro.core.errors import (EngineError, InjectedFault,
                               JobExecutionError, WatchdogTimeout,
                               classify)
from repro.core.runner import make_detector, run_job, run_program
from repro.harness.experiments import run_batch
from repro.jobs import JobPool, JobSpec, ResultStore
from repro.jobs import pool as pool_module
from repro.resilience import (SITES, FaultInjector, FaultPlan,
                              FaultSpec, clear_plan, events,
                              install_plan)

SEED = int(os.environ.get('REPRO_CHAOS_SEED', '0'))

TINY_SRC = '''
int main() {
  int n = read_int();
  if (n > 2) { print_int(n); } else { print_int(0); }
  return 0;
}
'''

# Long enough that a generous max_instructions cap cannot finish
# within a tight wall-clock deadline (serial-timeout parity tests).
SLOW_SRC = '''
int main() {
  int i = 0;
  int acc = 0;
  while (i < 10000000) {
    acc = acc + i;
    i = i + 1;
  }
  print_int(acc);
  return 0;
}
'''

FAIL_MARKER = 13


def tiny_spec(n=5):
    return JobSpec.for_source(TINY_SRC, name='tiny', detector='none',
                              int_input=[n])


def slow_spec():
    return JobSpec.for_source(
        SLOW_SRC, name='slow', detector='none',
        config_overrides={'max_instructions': 500_000_000})


def app_spec(**overrides):
    overrides.setdefault('detector', 'ccured')
    overrides.setdefault('config_overrides',
                         {'max_instructions': 25_000})
    return JobSpec.for_app('schedule', **overrides)


# Module-level runners so the process pool can pickle them.

def _marker(spec_dict):
    int_input = spec_dict.get('int_input') or []
    return int_input[0] if int_input else None


def _failing_runner(spec_dict):
    raise RuntimeError('persistent failure')


def _exit_in_worker_runner(spec_dict):
    """Kills a pool worker outright; fails in the batch process."""
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    raise RuntimeError('persistent failure')


def _hang_runner(spec_dict):
    """Hangs (uninterruptibly for the pool) on the poison job."""
    if _marker(spec_dict) == FAIL_MARKER:
        time.sleep(30.0)
    return pool_module.execute_spec(spec_dict)


@pytest.fixture(autouse=True)
def _clean_slate():
    clear_plan()
    events.clear()
    yield
    clear_plan()
    events.clear()


def _app_run(backend, **overrides):
    app = get_app('schedule')
    text, ints = app.default_input()
    config = app.make_config('standard', backend=backend,
                             max_instructions=25_000, **overrides)
    return run_program(get_app('schedule').compile(),
                       detector=make_detector('ccured'),
                       config=config, text_input=text, int_input=ints)


# =====================================================================
# fault-plan machinery


class TestFaultPlan:
    def test_default_matrix_covers_every_site(self):
        plans = FaultPlan.default_matrix(SEED)
        assert sorted(site for plan in plans
                      for site in plan.specs) == sorted(SITES)

    def test_matrix_is_deterministic(self):
        first = [plan.to_json() for plan in
                 FaultPlan.default_matrix(SEED)]
        second = [plan.to_json() for plan in
                  FaultPlan.default_matrix(SEED)]
        assert first == second

    def test_json_round_trip(self):
        plan = FaultPlan.single('pool.worker_hang', seed=7,
                                fires=(1, 3), mode='exit',
                                duration=0.5, match_key='abc')
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.to_json() == plan.to_json()
        spec = clone.for_site('pool.worker_hang')
        assert spec.fires == (1, 3)
        assert spec.mode == 'exit'
        assert spec.match_key == 'abc'

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match='unknown fault site'):
            FaultSpec('warp.core')

    def test_fires_and_max_fires(self):
        injector = FaultInjector(FaultPlan.single(
            'fastinterp.block', fires=(1, 3), max_fires=1))
        hits = [injector.poll('fastinterp.block') is not None
                for _ in range(5)]
        assert hits == [False, True, False, False, False]

    def test_rate_is_seeded_and_reproducible(self):
        plan = FaultPlan.single('fastinterp.block', seed=SEED,
                                fires=None, rate=0.3, max_fires=None)
        def draw():
            injector = FaultInjector(FaultPlan.from_json(plan.to_json()))
            return [injector.poll('fastinterp.block') is not None
                    for _ in range(50)]

        pattern = [draw(), draw()]
        assert pattern[0] == pattern[1]
        assert any(pattern[0])

    def test_match_key_gates_without_counting(self):
        injector = FaultInjector(FaultPlan.single(
            'pool.worker_crash', fires=(0,), match_key='right'))
        assert injector.poll('pool.worker_crash', key='wrong') is None
        # The miss above must not have consumed invocation index 0.
        assert injector.poll('pool.worker_crash',
                             key='right') is not None

    def test_injected_fault_classifies(self):
        injector = install_plan(FaultPlan.single('detector.hook'))
        with pytest.raises(InjectedFault) as info:
            injector.check('detector.hook')
        assert classify(info.value) == 'injected_fault'
        assert events.counts().get('fault_injected') == 1


# =====================================================================
# graceful degradation (fast -> reference)


class TestDegradation:
    def test_block_fault_degrades_byte_identically(self):
        expected = _app_run('fast').to_dict()
        events.clear()
        install_plan(FaultPlan.single('fastinterp.block', seed=SEED,
                                      fires=(SEED % 3,)))
        degraded = _app_run('fast')
        assert degraded.to_dict() == expected
        assert events.counts().get('degraded_to_reference') == 1

    def test_detector_fault_degrades_byte_identically(self):
        expected = _app_run('fast').to_dict()
        events.clear()
        install_plan(FaultPlan.single('detector.hook', seed=SEED,
                                      fires=(SEED % 3,)))
        degraded = _app_run('fast')
        assert degraded.to_dict() == expected
        assert events.counts().get('degraded_to_reference') == 1

    def test_checkpoint_corruption_degrades_byte_identically(self):
        expected = _app_run('fast').to_dict()
        events.clear()
        install_plan(FaultPlan.single('checkpoint.corrupt', seed=SEED,
                                      fires=(SEED % 3,)))
        degraded = _app_run('fast')
        assert degraded.to_dict() == expected
        assert events.counts().get('degraded_to_reference') == 1

    def test_chaos_proxy_polls_every_load_and_store(self, monkeypatch):
        """Blocks skip the hooks for words a detector's shadow marks
        legal.  The proxy must expose no shadow of its own, or an
        injected hook fault could never reach a legal access: with a
        plan that never fires, the fast backend (every block compiled
        on first entry) polls once per retired load and store, as the
        reference backend does."""
        import repro.cpu.fastinterp as fastinterp
        monkeypatch.setattr(fastinterp, '_PROMOTE_AFTER', 1)
        expected = _app_run('fast').to_dict()
        polls = {}
        for backend in ('reference', 'fast'):
            injector = install_plan(FaultPlan.single('detector.hook',
                                                     fires=()))
            assert _app_run(backend).to_dict() == expected
            polls[backend] = injector._counts['detector.hook']
        assert polls['fast'] == polls['reference'] > 0

    def test_reference_backend_failure_is_structured(self):
        install_plan(FaultPlan.single('detector.hook'))
        with pytest.raises(EngineError) as info:
            _app_run('reference')
        assert info.value.kind == 'engine_internal'

    def test_watchdog_timeout_is_not_swallowed(self):
        """Degradation must not re-execute a job that timed out."""
        from repro.minic.codegen import compile_minic
        from repro.resilience.watchdog import deadline
        program = compile_minic(SLOW_SRC, name='slow')
        config = PathExpanderConfig(max_instructions=500_000_000,
                                    backend='fast')
        with pytest.raises(WatchdogTimeout):
            with deadline(0.05):
                run_program(program, detector=None, config=config)


# =====================================================================
# watchdog


class TestWatchdog:
    def _slow_program(self):
        from repro.minic.codegen import compile_minic
        return compile_minic(SLOW_SRC, name='slow')

    def test_instruction_cap_reason(self):
        config = PathExpanderConfig(max_instructions=5_000)
        result = run_program(self._slow_program(), config=config)
        assert result.truncated
        assert result.truncation_reason == 'instructions'
        assert result.exit_code is None

    def test_truncation_survives_round_trip(self):
        from repro.core.result import RunResult
        config = PathExpanderConfig(max_instructions=50_000)
        result = run_program(self._slow_program(), config=config)
        data = json.loads(json.dumps(result.to_dict()))
        restored = RunResult.from_dict(data)
        assert restored.truncated
        assert restored.truncation_reason == 'instructions'
        assert restored.to_dict() == data

    def test_unarmed_run_matches_armed_run_that_finishes(self):
        spec = tiny_spec()
        plain = run_job(spec).to_dict()
        armed = JobPool(jobs=1, timeout=30.0).run_one(spec).to_dict()
        assert armed == plain


# =====================================================================
# job pool robustness


class TestSerialTimeoutParity:
    @pytest.mark.parametrize('jobs', [1, 2])
    def test_timeout_accounting(self, jobs):
        """A serial deadline and a pooled future timeout count alike;
        only the pooled path has workers to kill."""
        pool = JobPool(jobs=jobs, timeout=0.1, retries=1, backoff=0.001)
        with pytest.raises(JobExecutionError, match='timed out'):
            pool.run([slow_spec()])
        metrics = pool.metrics
        assert (metrics.timeouts, metrics.retries, metrics.failures,
                metrics.jobs_run) == (2, 1, 0, 0)
        assert metrics.hung_worker_kills == (2 if jobs > 1 else 0)


class TestStructuredErrors:
    def test_job_error_attribution(self):
        spec = tiny_spec()
        pool = JobPool(jobs=1, runner=_failing_runner, retries=1,
                       backoff=0.001)
        with pytest.raises(JobExecutionError) as info:
            pool.run_one(spec)
        error = info.value
        assert error.key == spec.key
        assert error.spec == spec
        assert error.attempts == 2
        assert 'persistent failure' in error.reason
        assert classify(error) == 'job_failed'
        assert error.to_dict()['kind'] == 'job_failed'

    def test_failure_events_carry_error_kind(self):
        pool = JobPool(jobs=1, runner=_failing_runner, retries=0,
                       backoff=0.001)
        with pytest.raises(JobExecutionError):
            pool.run([tiny_spec()])
        failed = [entry for entry in pool.metrics.events
                  if entry['event'] == 'job_failed']
        assert failed
        assert failed[0]['error_kind'] == 'unclassified'

    def test_attempt_carry_preserved_through_recovery(self):
        """Serial fallback must not grant a fresh retry budget."""
        spec = tiny_spec()
        pool = JobPool(jobs=2, runner=_exit_in_worker_runner,
                       retries=2, backoff=0.001)
        with pytest.raises(JobExecutionError) as info:
            # The first attempt breaks the pool; the serial path gets
            # only the two remaining.
            pool.run([spec])
        assert info.value.attempts == 3
        assert pool.metrics.serial_fallbacks == 1
        assert pool.metrics.failures == 2


class TestHungWorkerRecovery:
    def test_hung_worker_killed_retried_then_fails(self):
        specs = [tiny_spec(5), tiny_spec(FAIL_MARKER)]
        pool = JobPool(jobs=2, runner=_hang_runner, timeout=2.0,
                       retries=1, backoff=0.001)
        start = time.monotonic()
        with pytest.raises(JobExecutionError) as info:
            pool.run(specs)
        elapsed = time.monotonic() - start
        assert multiprocessing.active_children() == []
        assert elapsed < 15.0          # never waits out the 30s hang
        assert info.value.key == specs[1].key
        assert info.value.attempts == 2
        assert pool.metrics.jobs_run == 1
        assert pool.metrics.timeouts == 2
        assert pool.metrics.hung_worker_kills == 2


class TestWorkerCrashInjection:
    def test_injected_worker_crash_recovers_serially(self):
        spec = tiny_spec()
        expected = run_job(spec).to_dict()
        install_plan(FaultPlan.single('pool.worker_crash', seed=SEED,
                                      fires=(0,)))
        pool = JobPool(jobs=1, retries=2, backoff=0.001)
        result = pool.run_one(spec)
        assert result.to_dict() == expected
        assert pool.metrics.failures == 1
        failed = [entry for entry in pool.metrics.events
                  if entry['event'] == 'job_failed']
        assert failed[0]['error_kind'] == 'worker_crash'

    def test_injected_hard_exit_falls_back_to_serial(self):
        spec = tiny_spec()
        expected = run_job(spec).to_dict()
        clear_plan()
        install_plan(FaultPlan.single('pool.worker_crash', seed=SEED,
                                      fires=(0,), mode='exit',
                                      match_key=spec.key),
                     propagate=True)
        pool = JobPool(jobs=2, retries=2, backoff=0.001)
        results = pool.run([spec, tiny_spec(7)])
        assert results[0].to_dict() == expected
        assert results[1].output.strip() == '7'
        assert pool.metrics.serial_fallbacks == 1


# =====================================================================
# result-store integrity


class TestStoreIntegrity:
    def _seed_store(self, root, spec):
        store = ResultStore(root)
        result = run_job(spec).to_dict()
        path = store.put(spec.key, spec.to_dict(), result, 0.0)
        return store, result, path

    def test_silent_corruption_caught_by_checksum(self, tmp_path):
        spec = tiny_spec()
        store, _result, path = self._seed_store(tmp_path, spec)
        with open(path, encoding='utf-8') as handle:
            record = json.load(handle)
        record['result']['cycles'] += 1    # checksum left stale
        with open(path, 'w', encoding='utf-8') as handle:
            json.dump(record, handle)
        assert store.get(spec.key) is None
        assert store.corrupt_evictions == 1

    def test_record_without_checksum_is_evicted(self, tmp_path):
        spec = tiny_spec()
        store, _result, path = self._seed_store(tmp_path, spec)
        with open(path, encoding='utf-8') as handle:
            record = json.load(handle)
        del record['checksum']
        record['record_version'] = 1
        with open(path, 'w', encoding='utf-8') as handle:
            json.dump(record, handle)
        assert store.get(spec.key) is None
        assert store.corrupt_evictions == 1
        assert not os.path.exists(path)

    def test_fsck_reports_and_repairs(self, tmp_path):
        good = tiny_spec(5)
        bad = tiny_spec(7)
        store, _result, _path = self._seed_store(tmp_path, good)
        bad_path = store.put(bad.key, bad.to_dict(),
                             run_job(bad).to_dict(), 0.0)
        with open(bad_path, encoding='utf-8') as handle:
            record = json.load(handle)
        record['result']['cycles'] += 1
        with open(bad_path, 'w', encoding='utf-8') as handle:
            json.dump(record, handle)
        report = store.fsck()
        assert report['checked'] == 2
        assert report['corrupt'] == [(bad.key, 'checksum mismatch')]
        assert report['repaired'] == []
        report = store.fsck(repair=True)
        assert report['repaired'] == [bad.key]
        assert store.fsck()['corrupt'] == []
        assert store.get(good.key) is not None

    def test_stale_tmp_files_collected_on_open(self, tmp_path):
        spec = tiny_spec()
        store, _result, path = self._seed_store(tmp_path, spec)
        stale = os.path.join(os.path.dirname(path), 'orphan123.tmp')
        with open(stale, 'w', encoding='utf-8') as handle:
            handle.write('half a record')
        reopened = ResultStore(tmp_path)
        assert not os.path.exists(stale)
        assert reopened.get(spec.key) is not None
        assert list(reopened.keys()) == [spec.key]

    def test_cache_fsck_cli(self, tmp_path, capsys):
        from repro.cli import main
        spec = tiny_spec()
        store, _result, path = self._seed_store(tmp_path, spec)
        assert main(['cache', 'fsck', str(tmp_path)]) == 0
        with open(path, 'w', encoding='utf-8') as handle:
            handle.write('{"key": garbage')
        assert main(['cache', 'fsck', str(tmp_path)]) == 1
        capsys.readouterr()      # drain text output before the JSON run
        assert main(['cache', 'fsck', str(tmp_path),
                     '--repair', '--json']) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload['repaired'] == [spec.key]
        assert main(['cache', 'fsck', str(tmp_path)]) == 0

    def test_unrehydratable_record_evicted_by_pool(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path)
        first = JobPool(jobs=1, store=store)
        expected = first.run_one(spec).to_dict()
        # Shape-valid record (passes the store's checks) whose result
        # payload cannot rehydrate: drop a required field and reseal
        # the checksum so only from_dict can notice.
        path = store._path(spec.key)
        with open(path, encoding='utf-8') as handle:
            record = json.load(handle)
        del record['result']['int_output']
        from repro.jobs.store import _record_checksum
        record['checksum'] = _record_checksum(record)
        with open(path, 'w', encoding='utf-8') as handle:
            json.dump(record, handle)
        recover = JobPool(jobs=1, store=store)
        result = recover.run_one(spec)
        assert result.to_dict() == expected
        assert recover.metrics.cache_hits == 0
        assert recover.metrics.jobs_run == 1
        assert recover.metrics.corrupt_evictions == 1


# =====================================================================
# the headline invariant: single-fault chaos matrix


def _plan_id(plan):
    return ','.join(sorted(plan.specs))


@pytest.mark.parametrize('plan,jobs', [
    pytest.param(plan, jobs, id=_plan_id(plan) + ('' if jobs == 1
                                                  else '-jobs2'))
    for jobs in (1, 2) for plan in FaultPlan.default_matrix(SEED)])
def test_single_fault_leaves_batch_correct(plan, jobs, tmp_path):
    """Any single default-matrix fault, serial or pooled: the batch
    completes and its results (including a warm-cache replay) are
    byte-identical to a fault-free run."""
    specs = [app_spec(), tiny_spec()]
    expected = [run_job(spec).to_dict() for spec in specs]

    install_plan(plan, propagate=True)
    store = ResultStore(tmp_path / 'chaos')
    pool = JobPool(jobs=jobs, store=store, retries=2, backoff=0.001,
                   timeout=60.0)
    results = pool.run(specs)
    assert [r.to_dict() for r in results] == expected

    # Warm replay over the same (possibly corrupted) store: corrupt
    # records are evicted and rerun, never served.
    replay = JobPool(jobs=jobs, store=store, retries=2, backoff=0.001,
                     timeout=60.0)
    replayed = replay.run(specs)
    assert [r.to_dict() for r in replayed] == expected


@pytest.mark.parametrize('plan', FaultPlan.default_matrix(SEED),
                         ids=_plan_id)
def test_single_fault_leaves_experiment_batch_correct(plan, tmp_path):
    """The same invariant on ``repro batch``'s path: fig9 and table6
    share two of their four distinct runs, and CCured fires the
    detector hook.  A cold batch and a warm replay each give the
    fault-free tables or fail with one spec-attributed error."""
    ids = ['fig9', 'table6']
    expected = [table.to_dict()
                for table in run_batch(ids, apps=('schedule2',))]

    install_plan(plan, propagate=True)
    store = ResultStore(tmp_path / 'chaos')
    for _replay in range(2):
        pool = JobPool(jobs=1, store=store, retries=2, backoff=0.001,
                       timeout=60.0)
        try:
            tables = run_batch(ids, pool=pool, apps=('schedule2',))
        except JobExecutionError as error:
            assert error.key is not None
            continue
        assert pool.metrics.jobs_submitted == 4
        assert [table.to_dict() for table in tables] == expected


# =====================================================================
# event log


class TestEvents:
    def test_record_recent_counts_clear(self):
        events.record('degraded_to_reference', program='x')
        events.record('fault_injected', site='detector.hook')
        events.record('fault_injected', site='fastinterp.block')
        assert events.counts() == {'degraded_to_reference': 1,
                                   'fault_injected': 2}
        recent = events.recent('fault_injected')
        assert len(recent) == 2
        assert recent[0]['site'] == 'detector.hook'
        assert all('ts' in entry and 'seq' in entry
                   for entry in recent)
        events.clear()
        assert events.counts() == {}
