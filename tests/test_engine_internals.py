"""Deeper engine tests: cache-capacity squash, counter resets, state
restoration, truncation, monitor-area realism and CMP/standard parity
across the full application suite."""

import hashlib
import json

import pytest

from repro.apps.registry import get_app
from repro.core.config import Mode, PathExpanderConfig
from repro.core.engine import PathExpanderEngine
from repro.core.result import NTPathTermination
from repro.core.runner import run_detailed_cmp, run_program
from repro.cpu.syscalls import IOContext
from repro.minic.codegen import compile_minic
from tests.conftest import run_minic


class TestCacheOverflowTermination:
    def test_nt_path_squashed_on_volatile_overflow(self):
        # the NT-path writes a huge stride so each store claims a new
        # cache set way; a tiny L1 forces volatile overflow
        src = '''
            int big[4096];
            int main() {
              int n = read_int();
              if (n > 900) {
                for (int i = 0; i < 4000; i = i + 1) { big[i] = i; }
              }
              print_int(big[0]);
              return 0;
            }'''
        result = run_minic(src, mode=Mode.STANDARD, int_input=[1],
                           l1_size_bytes=512, l1_ways=2,
                           max_nt_path_length=100_000)
        assert result.nt_terminations.get(
            NTPathTermination.OVERFLOW, 0) >= 1

    def test_large_l1_avoids_overflow(self):
        src = '''
            int big[64];
            int main() {
              int n = read_int();
              if (n > 900) {
                for (int i = 0; i < 64; i = i + 1) { big[i] = i; }
              }
              print_int(big[0]);
              return 0;
            }'''
        result = run_minic(src, mode=Mode.STANDARD, int_input=[1])
        assert result.nt_terminations.get(
            NTPathTermination.OVERFLOW, 0) == 0


def _digest(data):
    text = json.dumps(data, sort_keys=True, separators=(',', ':'))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# The paper's runs never overflow L1's volatile ways, so their pinned
# figures cannot see how an overflow is charged.  A 256 B direct-mapped
# L1 makes these runs overflow often.  Per (app, mode): cycles,
# spawned, (unsafe, overflow, length) endings, and the to_dict()
# digest of the engine's run and of the detailed CMP engine's.
_OVERFLOW_PINS = {
    ('schedule2', Mode.STANDARD):
        (40_087, 75, (12, 8, 55), '789d184815f27d60', None),
    ('schedule2', Mode.CMP):
        (17_399, 75, (12, 8, 55), 'c971144d029098a0',
         'b9cb9e15eab0763e'),
    ('print_tokens2', Mode.STANDARD):
        (128_560, 240, (17, 55, 168), '51db6ae5eaef3454', None),
    ('print_tokens2', Mode.CMP):
        (63_515, 237, (17, 54, 166), '35c06192a8787549',
         'c7e57f374cbbcee4'),
}

_OVERFLOW_CASES = [(app, mode, engine)
                   for app, mode in sorted(_OVERFLOW_PINS)
                   for engine in ('reference', 'fast', 'detailed')
                   if engine != 'detailed' or mode == Mode.CMP]


class TestOverflowAccounting:
    """Absolute cycles of runs that end NT-paths on every reason,
    overflow included: the overflowing store's charge is pinned on
    both backends and in the detailed CMP engine."""

    @pytest.mark.parametrize('app_name,mode,engine', _OVERFLOW_CASES)
    def test_tiny_l1_runs_are_pinned(self, app_name, mode, engine):
        app = get_app(app_name)
        program = app.compile(0)
        text, ints = app.default_input()
        config = app.make_config(mode, l1_size_bytes=256, l1_ways=1)
        if engine == 'detailed':
            result = run_detailed_cmp(program, detector='ccured',
                                      config=config, text_input=text,
                                      int_input=ints)
        else:
            result = run_program(program, detector='ccured',
                                 config=config.replace(backend=engine),
                                 text_input=text, int_input=ints)
        cycles, spawned, endings, digest, detailed_digest = \
            _OVERFLOW_PINS[app_name, mode]
        ends = result.nt_terminations
        assert result.cycles == cycles
        assert result.nt_spawned == spawned
        assert (ends.get(NTPathTermination.UNSAFE, 0),
                ends.get(NTPathTermination.OVERFLOW, 0),
                ends.get(NTPathTermination.LENGTH, 0)) == endings
        assert _digest(result.to_dict()) == (
            detailed_digest if engine == 'detailed' else digest)


class TestStateRestoration:
    def test_registers_and_rand_state_restored(self):
        # the NT-path consumes LCG randomness; the taken path's random
        # sequence must be unaffected
        src = '''
            int main() {
              int n = read_int();
              if (n > 900) {
                int burn = rand();
                print_int(burn);
              }
              print_int(rand() % 1000);
              return 0;
            }'''
        base = run_minic(src, mode=Mode.BASELINE, int_input=[1])
        # note: rand is a syscall (unsafe) -- with OS sandboxing the
        # NT-path actually executes it, which is the interesting case
        expanded = run_minic(src, mode=Mode.STANDARD, int_input=[1],
                             sandbox_unsafe_events=True)
        assert expanded.output == base.output

    def test_allocator_bump_restored_across_many_paths(self):
        src = '''
            int main() {
              int keep = 0;
              for (int i = 0; i < 25; i = i + 1) {
                if (i > 900) {
                  int *leak = malloc(100);
                  leak[0] = i;
                }
                int *p = malloc(3);
                keep = keep + p[0];
                free(p);
              }
              print_int(keep);
              return 0;
            }'''
        base = run_minic(src, mode=Mode.BASELINE)
        expanded = run_minic(src, mode=Mode.STANDARD)
        assert expanded.output == base.output
        assert expanded.nt_spawned >= 5


class TestTruncation:
    def test_max_instructions_flag(self):
        src = '''
            int main() {
              int i = 0;
              while (i >= 0) { i = i + 1; }
              return 0;
            }'''
        result = run_minic(src, mode=Mode.BASELINE,
                           max_instructions=5000)
        assert result.truncated
        assert result.instret_taken <= 5100


class TestCounterReset:
    def test_reset_counter_visible_in_selector(self):
        program = compile_minic('''
            int main() {
              for (int i = 0; i < 5000; i = i + 1) {
                if (i == 123456) { print_int(i); }
              }
              return 0;
            }''', name='reset_test')
        config = PathExpanderConfig(counter_reset_interval=20_000)
        engine = PathExpanderEngine(program, config=config,
                                    io=IOContext())
        engine.run()
        assert engine.selector.resets >= 1


class TestResultAccounting:
    def _result(self):
        src = '''
            int main() {
              int n = read_int();
              for (int i = 0; i < 30; i = i + 1) {
                if (i % 4 == n) { print_int(i); }
              }
              return 0;
            }'''
        return run_minic(src, mode=Mode.STANDARD, int_input=[2],
                         collect_nt_details=True)

    def test_instret_split(self):
        result = self._result()
        assert result.instret_taken > 0
        assert result.instret_nt == sum(r.length
                                        for r in result.nt_details)

    def test_termination_counts_match_details(self):
        result = self._result()
        assert sum(result.nt_terminations.values()) == result.nt_spawned
        assert len(result.nt_details) == result.nt_spawned

    def test_details_off_by_default(self):
        src = 'int main() { return 0; }'
        result = run_minic(src, mode=Mode.STANDARD)
        assert result.nt_details == []

    def test_repr_mentions_key_numbers(self):
        result = self._result()
        text = repr(result)
        assert 'NT-paths' in text and 'coverage' in text

    def test_overhead_vs_zero_baseline(self):
        result = self._result()

        class Zero:
            cycles = 0
        assert result.overhead_vs(Zero()) == 0.0


class TestModeParityAcrossApps:
    """Standard and CMP must be functionally identical everywhere."""

    @pytest.mark.parametrize('app_name', ['print_tokens', 'schedule',
                                          'bc_calc', 'man_fmt',
                                          'gzip_app'])
    def test_parity(self, app_name):
        app = get_app(app_name)
        program = app.compile(0)
        text, ints = app.default_input()
        runs = {}
        for mode in (Mode.STANDARD, Mode.CMP):
            runs[mode] = run_program(
                program, detector='ccured',
                config=app.make_config(mode=mode),
                text_input=text, int_input=ints)
        standard, cmp_run = runs[Mode.STANDARD], runs[Mode.CMP]
        assert cmp_run.output == standard.output
        assert cmp_run.total_covered <= standard.total_covered
        # CMP may skip spawns when all slots are busy, never add
        assert cmp_run.nt_spawned <= standard.nt_spawned
