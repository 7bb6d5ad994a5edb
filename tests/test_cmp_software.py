"""Tests for the CMP scheduling model and the software cost model."""

import pytest

from repro.core.cmp import CmpScheduler
from repro.core.config import Mode, PathExpanderConfig
from repro.core.software import software_cycles
from repro.minic.codegen import compile_minic
from repro.core.runner import run_program


class TestCmpScheduler:
    def _scheduler(self, cores=4, max_paths=32):
        return CmpScheduler(cores, max_paths, spawn_overhead=20,
                            squash_overhead=10)

    def test_needs_two_cores(self):
        with pytest.raises(ValueError):
            CmpScheduler(1, 32, 20, 10)

    def test_first_path_starts_after_spawn_overhead(self):
        scheduler = self._scheduler()
        end = scheduler.commit(now=100, duration=500)
        assert end == 100 + 20 + 500 + 10

    def test_parallel_paths_on_free_cores(self):
        scheduler = self._scheduler(cores=4)
        ends = [scheduler.commit(now=0, duration=100) for _ in range(3)]
        assert ends == [130, 130, 130]     # 3 idle cores, no queueing

    def test_queueing_behind_earliest_completion(self):
        scheduler = self._scheduler(cores=4)
        for _ in range(3):
            scheduler.commit(now=0, duration=1000)
        end = scheduler.commit(now=0, duration=100)
        assert end == 1030 + 100 + 10     # waits for the first free core
        assert scheduler.queued == 1

    def test_slots_free_after_completion(self):
        scheduler = self._scheduler(max_paths=2)
        scheduler.commit(now=0, duration=50)
        scheduler.commit(now=0, duration=50)
        assert not scheduler.slot_free(10)
        assert scheduler.slot_free(1000)

    def test_max_outstanding_respected(self):
        scheduler = self._scheduler(max_paths=4)
        for _ in range(4):
            assert scheduler.slot_free(0)
            scheduler.commit(now=0, duration=10_000)
        assert not scheduler.slot_free(0)
        assert scheduler.peak_outstanding == 4

    def test_last_end_tracks_latest(self):
        scheduler = self._scheduler()
        scheduler.commit(now=0, duration=100)
        scheduler.commit(now=500, duration=100)
        assert scheduler.last_end == 500 + 20 + 100 + 10


HIDDEN_BUG = '''
int sink[8];
int main() {
  int n = read_int();
  for (int i = 0; i < 40; i = i + 1) {
    if (i % 5 == n % 7) { sink[i & 7] = i; }
    else { sink[0] = sink[0] + 1; }
  }
  if (n > 500) { sink[7] = 0 - 1; }
  print_int(sink[0]);
  return 0;
}
'''


class TestCmpEngine:
    def _run(self, mode, **overrides):
        program = compile_minic(HIDDEN_BUG, name='cmp_test')
        config = PathExpanderConfig(mode=mode, **overrides)
        return run_program(program, detector='ccured', config=config,
                           int_input=[3])

    def test_functional_equivalence_with_standard(self):
        standard = self._run(Mode.STANDARD)
        cmp_run = self._run(Mode.CMP)
        assert cmp_run.output == standard.output
        assert cmp_run.total_covered == standard.total_covered
        assert [r.site_key for r in cmp_run.reports] == \
            [r.site_key for r in standard.reports]

    def test_cmp_cycles_below_standard(self):
        standard = self._run(Mode.STANDARD)
        cmp_run = self._run(Mode.CMP)
        assert cmp_run.cycles < standard.cycles

    def test_total_runtime_covers_nt_tail(self):
        cmp_run = self._run(Mode.CMP)
        assert cmp_run.cycles >= cmp_run.primary_cycles

    def test_max_num_nt_paths_limits_spawns(self):
        unlimited = self._run(Mode.CMP, max_num_nt_paths=32)
        throttled = self._run(Mode.CMP, max_num_nt_paths=1)
        assert throttled.nt_spawned <= unlimited.nt_spawned
        assert throttled.nt_skipped_busy >= 0


class TestSoftwareCostModel:
    def _runs(self):
        program = compile_minic(HIDDEN_BUG, name='sw_test')
        base = run_program(program, detector='ccured',
                           config=PathExpanderConfig(mode=Mode.BASELINE),
                           int_input=[3])
        sw = run_program(program, detector='ccured',
                         config=PathExpanderConfig(mode=Mode.SOFTWARE),
                         int_input=[3])
        return base, sw

    def test_software_far_more_expensive(self):
        base, sw = self._runs()
        assert sw.cycles > 10 * base.cycles

    def test_detection_identical_to_hardware(self):
        program = compile_minic(HIDDEN_BUG, name='sw_test')
        hw = run_program(program, detector='ccured',
                         config=PathExpanderConfig(mode=Mode.STANDARD),
                         int_input=[3])
        sw = run_program(program, detector='ccured',
                         config=PathExpanderConfig(mode=Mode.SOFTWARE),
                         int_input=[3])
        assert [r.site_key for r in sw.reports] == \
            [r.site_key for r in hw.reports]
        assert sw.total_covered == hw.total_covered

    def test_cost_terms_accumulate(self):
        config = PathExpanderConfig(mode=Mode.SOFTWARE)

        class Stub:
            primary_cycles = 1000
            taken_branch_count = 10
            nt_branch_count = 5
            instret_nt = 100
            nt_spawned = 2
            nt_store_count = 20
            journal_entries_total = 15

        expected = (1000 * config.sw_dilation
                    + 15 * config.sw_branch_cost
                    + 100 * config.sw_nt_instr_cost
                    + 2 * config.sw_checkpoint_cost
                    + 20 * config.sw_log_cost
                    + 2 * config.sw_restore_base
                    + 15 * config.sw_restore_per_entry)
        assert software_cycles(Stub(), config) == expected
