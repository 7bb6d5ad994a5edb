"""Tests for the detailed CMP engine (Fig. 6 segment/version protocol
with true core interleaving)."""

import gc

import pytest

from repro.apps.registry import get_app
from repro.core.cmp_detailed import (DetailedCmpEngine, _NTView,
                                     _Segment, _TakenView)
from repro.core.config import BACKEND_CHOICES, Mode, PathExpanderConfig
from repro.core.runner import make_detector, run_detailed_cmp, run_program
from repro.cpu.syscalls import IOContext
from repro.memory.main_memory import MainMemory
from repro.minic.codegen import compile_minic

SRC = '''
int sink[8];
int main() {
  int n = read_int();
  for (int i = 0; i < 40; i = i + 1) {
    if (i % 5 == n % 7) { sink[i & 7] = i; }
    else { sink[0] = sink[0] + 1; }
  }
  if (n > 500) { sink[9] = 1; }
  print_int(sink[0]);
  return 0;
}
'''


class TestVersionedViews:
    def _setup(self):
        mem = MainMemory(size=4096, globals_size=64)
        mem.write(1000, 1)
        segments = []
        taken = _TakenView(mem, segments)
        return mem, segments, taken

    def test_taken_writes_direct_without_segments(self):
        mem, _segments, taken = self._setup()
        taken.write(1000, 5)
        assert mem.cells[1000] == 5

    def test_taken_writes_buffer_in_newest_segment(self):
        mem, segments, taken = self._setup()
        segments.append(_Segment(1))
        taken.write(1000, 7)
        assert mem.cells[1000] == 1          # committed value untouched
        assert taken.read(1000) == 7         # but visible to the writer

    def test_nt_view_snapshot_isolation(self):
        mem, segments, taken = self._setup()
        segments.append(_Segment(1))
        taken.write(1000, 7)
        nt = _NTView(mem, tuple(segments))   # spawned now
        segments.append(_Segment(2))
        taken.write(1000, 9)                 # after the NT's spawn
        assert nt.read(1000) == 7            # snapshot value
        assert taken.read(1000) == 9

    def test_nt_writes_private(self):
        mem, segments, taken = self._setup()
        nt = _NTView(mem, ())
        nt.write(1000, 42)
        assert nt.read(1000) == 42
        assert taken.read(1000) == 1

    def test_monitor_area_writes_through(self):
        mem, _segments, _taken = self._setup()
        nt = _NTView(mem, ())
        addr = mem.monitor_base + 1
        nt.write(addr, 77)
        assert mem.cells[addr] == 77

    def test_views_check_bounds(self):
        from repro.cpu.exceptions import SimFault
        mem, _segments, taken = self._setup()
        nt = _NTView(mem, ())
        for view in (taken, nt):
            with pytest.raises(SimFault):
                view.read(2)
            with pytest.raises(SimFault):
                view.write(-5, 0)


class TestDetailedEngine:
    def _run(self, mode_engine='detailed', int_input=(3,), **overrides):
        program = compile_minic(SRC, name='detailed')
        config = PathExpanderConfig(mode=Mode.CMP, **overrides)
        if mode_engine == 'detailed':
            return run_detailed_cmp(program, detector='ccured',
                                    config=config,
                                    int_input=list(int_input))
        return run_program(program, detector='ccured',
                           config=config.replace(mode=mode_engine),
                           int_input=list(int_input))

    def test_output_matches_baseline(self):
        detailed = self._run()
        baseline = self._run(mode_engine=Mode.BASELINE)
        assert detailed.output == baseline.output
        assert not detailed.crashed

    def test_detections_match_standard(self):
        detailed = self._run()
        standard = self._run(mode_engine=Mode.STANDARD)
        assert {r.site_key for r in detailed.reports} == \
            {r.site_key for r in standard.reports}
        assert detailed.total_covered == standard.total_covered

    def test_overhead_far_below_standard(self):
        baseline = self._run(mode_engine=Mode.BASELINE)
        detailed = self._run()
        standard = self._run(mode_engine=Mode.STANDARD)
        assert detailed.overhead_vs(baseline) < \
            standard.overhead_vs(baseline) / 4

    def test_queueing_beyond_core_count(self):
        throttled = self._run(max_num_nt_paths=2)
        free = self._run(max_num_nt_paths=32)
        assert throttled.nt_spawned <= free.nt_spawned

    def test_segments_all_committed_at_end(self):
        program = compile_minic(SRC, name='detailed')
        engine = DetailedCmpEngine(program,
                                   detector=make_detector('ccured'),
                                   config=PathExpanderConfig(mode=Mode.CMP),
                                   io=IOContext(int_input=[3]))
        engine.run()
        assert engine._segments == []
        assert engine._nt_contexts == []
        assert engine._nt_pending == []

    def test_forced_commit_on_segment_overflow(self):
        # a tiny segment capacity forces displacement commits
        program = compile_minic('''
            int big[600];
            int main() {
              int n = read_int();
              for (int i = 0; i < 550; i = i + 1) {
                if (i % 9 == n) { big[i] = i; }
                big[(i * 7) % 550] = i;
              }
              print_int(big[1]);
              return 0;
            }''', name='forcing')
        engine = DetailedCmpEngine(program,
                                   config=PathExpanderConfig(mode=Mode.CMP),
                                   io=IOContext(int_input=[3]),
                                   segment_capacity_words=64)
        result = engine.run()
        assert result.forced_segment_commits >= 1
        base = run_program(program,
                           config=PathExpanderConfig(mode=Mode.BASELINE),
                           int_input=[3])
        assert result.output == base.output

    def test_works_on_real_app(self):
        app = get_app('man_fmt')
        program = app.compile(0)
        text, ints = app.default_input()
        detailed = run_detailed_cmp(program, detector='ccured',
                                    config=app.make_config(mode=Mode.CMP),
                                    text_input=text, int_input=ints)
        standard = run_program(program, detector='ccured',
                               config=app.make_config(),
                               text_input=text, int_input=ints)
        assert {r.site_key for r in detailed.reports} == \
            {r.site_key for r in standard.reports}
        assert detailed.output == standard.output

    def test_backends_byte_identical(self):
        # The detailed engine steps every context one instruction at a
        # time; the fast backend must still be undetectable there.
        program = compile_minic(SRC, name='detailed_backends')
        results = {}
        for backend in BACKEND_CHOICES:
            results[backend] = run_detailed_cmp(
                program, detector='ccured',
                config=PathExpanderConfig(mode=Mode.CMP, backend=backend),
                int_input=[3]).to_dict()
        assert results['fast'] == results['reference']
        assert results['reference']['nt_spawned'] > 0
        assert results['reference']['reports']

    def test_instruction_budget_counts_the_primary_core_only(self):
        # NT-paths run on other cores, so only taken-path instructions
        # count; the single-core engine counts both.
        app = get_app('schedule2')
        program = app.compile(0)
        text, ints = app.default_input()
        config = app.make_config(mode=Mode.CMP, max_instructions=2000)
        detailed = run_detailed_cmp(program, detector='ccured',
                                    config=config, text_input=text,
                                    int_input=ints)
        assert detailed.truncated
        assert detailed.truncation_reason == 'instructions'
        assert detailed.instret_taken == 2000
        assert detailed.instret_nt > 0
        single = run_program(program, detector='ccured', config=config,
                             text_input=text, int_input=ints)
        assert single.truncation_reason == 'instructions'
        assert single.instret_taken < 2000 \
            <= single.instret_taken + single.instret_nt

    def test_config_coerced_to_cmp_mode(self):
        program = compile_minic(SRC, name='coerce')
        result = run_detailed_cmp(
            program, config=PathExpanderConfig(mode=Mode.STANDARD),
            int_input=[3])
        assert result.mode == Mode.CMP


class TestRunRelease:
    """A finished detailed-CMP run frees itself by reference counting,
    as a PathExpanderEngine run does: no interpreter's branch callback
    keeps the engine and its memory image alive."""

    def test_finished_run_frees_its_memory_image(self):
        app = get_app('print_tokens2')
        program = app.compile(0)
        text, ints = app.default_input()

        def live_memories():
            return sum(type(obj) is MainMemory
                       for obj in gc.get_objects())
        gc.collect()
        before = live_memories()
        gc.disable()
        try:
            result = run_detailed_cmp(
                program, detector='ccured',
                config=app.make_config(mode=Mode.CMP),
                text_input=text, int_input=ints)
            assert result.nt_spawned > 0
            assert live_memories() == before
        finally:
            gc.enable()
