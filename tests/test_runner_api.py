"""Tests for the public runner API and the memcheck classification."""

import pytest

from repro.apps.registry import get_app
from repro.core.config import Mode, PathExpanderConfig
from repro.core.runner import (DETECTOR_FACTORIES, make_detector,
                               run_program, run_source,
                               run_with_and_without)
from repro.detectors.base import ReportKind
from repro.detectors.memcheck import MemoryCheckLogic
from repro.memory.allocator import HeapAllocator
from repro.memory.main_memory import MainMemory
from repro.minic.codegen import compile_minic

SRC = '''
int main() {
  int n = read_int();
  int *p = malloc(2);
  if (n > 800) { p[3] = 1; }
  free(p);
  print_int(n);
  return 0;
}
'''


class TestRunnerAPI:
    def test_detector_by_name(self):
        for name in DETECTOR_FACTORIES:
            detector = make_detector(name)
            if name == 'none':
                assert detector is None
            else:
                assert detector.name == name

    def test_unknown_detector_rejected(self):
        with pytest.raises(ValueError, match='unknown detector'):
            make_detector('valgrind')

    def test_run_source_convenience(self):
        result = run_source(SRC, detector='ccured', int_input=[5],
                            name='api')
        assert result.program_name == 'api'
        assert result.output.strip() == '5'

    def test_run_with_and_without_fresh_detectors(self):
        program = compile_minic(SRC, name='api')
        base, expanded = run_with_and_without(program, 'ccured',
                                              int_input=[5])
        # reports must not leak between the two runs
        assert base.reports == []
        assert len(expanded.reports) == 1
        assert base.mode == Mode.BASELINE
        assert expanded.mode == Mode.STANDARD

    def test_software_mode_costs_applied_by_runner(self):
        program = compile_minic(SRC, name='api')
        hw = run_program(program, detector='ccured',
                         config=PathExpanderConfig(mode=Mode.STANDARD),
                         int_input=[5])
        sw = run_program(program, detector='ccured',
                         config=PathExpanderConfig(mode=Mode.SOFTWARE),
                         int_input=[5])
        assert sw.cycles > hw.cycles

    def test_config_replace_copies(self):
        config = PathExpanderConfig()
        other = config.replace(mode=Mode.CMP, nt_counter_threshold=9)
        assert config.mode == Mode.STANDARD
        assert other.mode == Mode.CMP
        assert other.nt_counter_threshold == 9
        assert other.spawn_overhead == config.spawn_overhead

    def test_siemens_factory(self):
        assert get_app('schedule2').make_config().max_nt_path_length \
            == 100
        config = PathExpanderConfig.baseline()
        assert config.mode == Mode.BASELINE
        assert not config.spawning_enabled


class TestMemoryCheckLogic:
    def _logic(self):
        program = compile_minic('''
            int first[4];
            int second[4];
            int main() { return 0; }''', name='logic')
        memory = MainMemory(size=1 << 16,
                            globals_size=program.globals_size)
        allocator = HeapAllocator(memory.heap_base, memory.stack_limit)
        logic = MemoryCheckLogic(program, memory, allocator)
        objs = {name: base for name, base, _size
                in program.global_objects}
        return logic, memory, allocator, objs

    def test_globals_legal(self):
        logic, _m, _a, objs = self._logic()
        assert logic.classify(objs['first']) is None
        assert logic.classify(objs['first'] + 3) is None

    def test_gap_between_globals_is_overrun(self):
        logic, _m, _a, objs = self._logic()
        assert logic.classify(objs['first'] + 4) == ReportKind.OVERRUN

    def test_stack_unchecked(self):
        logic, memory, _a, _objs = self._logic()
        assert logic.classify(memory.stack_limit + 5) is None
        assert logic.classify(memory.size - 1) is None

    def test_monitor_area_legal(self):
        logic, memory, _a, _objs = self._logic()
        assert logic.classify(memory.monitor_base) is None

    def test_heap_classification(self):
        logic, _m, allocator, _objs = self._logic()
        base = allocator.malloc(4)
        assert logic.classify(base) is None
        assert logic.classify(base + 4) == ReportKind.OVERRUN
        allocator.free(base)
        assert logic.classify(base) == ReportKind.DANGLING

    def test_untouched_heap_is_wild(self):
        logic, _m, allocator, _objs = self._logic()
        assert logic.classify(allocator.heap_base + 500) == \
            ReportKind.WILD


class TestModeConstants:
    def test_all_modes_enumerated(self):
        assert set(Mode.ALL) == {'baseline', 'standard', 'cmp',
                                 'software'}

    def test_spawning_enabled(self):
        assert not PathExpanderConfig(mode=Mode.BASELINE).spawning_enabled
        for mode in (Mode.STANDARD, Mode.CMP, Mode.SOFTWARE):
            assert PathExpanderConfig(mode=mode).spawning_enabled
