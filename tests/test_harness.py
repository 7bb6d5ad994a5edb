"""Tests for the experiment harness, reporting, tracing and CLI."""

import json

import pytest

from repro.harness import experiments
from repro.harness.reporting import ExperimentResult, percent
from repro.harness.trace import TracedRun
from repro.minic.codegen import compile_minic
from repro.workloads.inputs import CUMULATIVE_APP_NAMES, input_suite


class TestReporting:
    def _result(self):
        return ExperimentResult('t1', 'demo', ['a', 'bee'],
                                [[1, 'x'], [22, 'yy']],
                                notes=['a note'])

    def test_format_contains_everything(self):
        text = self._result().format()
        assert 't1: demo' in text
        assert 'bee' in text
        assert '22' in text
        assert '# a note' in text

    def test_columns_aligned(self):
        lines = self._result().format().splitlines()
        header, rule, first, second = lines[1:5]
        assert len(rule) == len(header.rstrip()) or \
            len(rule) >= len('a  bee') - 1
        assert first.index('x') == second.index('yy')

    def test_row_dict(self):
        rows = self._result().row_dict()
        assert rows[1] == [1, 'x']

    def test_percent_formatting(self):
        assert percent(0.125) == '12.5%'
        assert percent(1.0) == '100.0%'

    def test_float_cells_two_decimals(self):
        result = ExperimentResult('x', 'y', ['v'], [[1.23456]])
        assert '1.23' in result.format()


class TestInputSuites:
    def test_suite_size_and_determinism(self):
        for name in CUMULATIVE_APP_NAMES:
            suite_a = input_suite(name, count=5)
            suite_b = input_suite(name, count=5)
            assert len(suite_a) == 5
            assert suite_a == suite_b

    def test_first_input_is_default(self):
        from repro.apps.registry import get_app
        suite = input_suite('schedule', count=3)
        assert suite[0] == get_app('schedule').default_input()

    def test_inputs_vary(self):
        suite = input_suite('bc_calc', count=10)
        texts = {text for text, _ints in suite}
        assert len(texts) >= 8


class TestExperimentDrivers:
    """Smoke tests on narrow slices (the full runs live in
    benchmarks/)."""

    def test_fig3_single_app(self):
        result = experiments.run_fig3(apps=('gzip_app',))
        assert len(result.rows) == 1
        records = result.rows[0][1]
        assert records > 0, 'must collect NT records'
        # The chart is drawn from the NT-path records themselves.
        assert any(note.startswith('gzip_app -- stopped NT-path ratio')
                   and note.endswith(' of %d stop early)' % records)
                   for note in result.notes)

    def test_fig7_single_app(self):
        result = experiments.run_fig7(apps=('schedule',))
        row = result.rows[0]
        assert row[0] == 'schedule'
        assert any(note.startswith('schedule ') and '->' in note
                   for note in result.notes), 'coverage bars in notes'

    def test_fig8_small(self):
        result = experiments.run_fig8(apps=('schedule2',), runs=5)
        improvement = float(result.rows[0][4].rstrip('%'))
        assert improvement > 0

    def test_fig9_single_app(self):
        result = experiments.run_fig9(apps=('schedule2',))
        row = result.rows[0]
        cmp_overhead = float(row[3].rstrip('%'))
        standard = float(row[2].rstrip('%'))
        assert cmp_overhead <= standard

    def test_table6_single_app(self):
        result = experiments.run_table6(apps=('schedule2',))
        orders = float(result.rows[0][4])
        assert orders >= 1.5

    def test_ext_random_rate_parameter(self):
        result = experiments.run_ext_random_selection(rate=0.4)
        assert '0.40' in result.title


class TestTrace:
    def test_trace_records_spawns_and_reports(self):
        program = compile_minic('''
            int main() {
              int n = read_int();
              int *p = malloc(2);
              if (n > 700) { p[3] = 1; }
              free(p);
              return 0;
            }''', name='traced')
        from repro.core.runner import make_detector
        traced = TracedRun(program, detector=make_detector('ccured'),
                           int_input=[5])
        result = traced.run()
        assert result.nt_spawned >= 1
        kinds = {event.kind for event in traced.events}
        assert kinds == {'nt-path', 'report'}
        text = traced.format(limit=3)
        assert 'trace of traced' in text
        assert 'NT-paths' in text

    def test_trace_limit(self):
        program = compile_minic('''
            int main() {
              for (int i = 0; i < 40; i = i + 1) {
                if (i == 99) { print_int(i); }
              }
              return 0;
            }''', name='traced2')
        traced = TracedRun(program)
        traced.run()
        text = traced.format(limit=2)
        assert 'more events' in text

    @pytest.mark.parametrize('mode', ['software', 'standard'])
    def test_trace_result_equals_untraced_run(self, mode):
        # A traced run is the run_program run: software-mode recost
        # included (it differs from the raw engine cycles).
        from repro.core.config import PathExpanderConfig
        from repro.core.runner import make_detector, run_program
        program = compile_minic('''
            int main() {
              int a[4];
              for (int i = 0; i < 40; i = i + 1) {
                if (i == 99) { a[i] = i; }
              }
              return 0;
            }''', name='traced3')
        config = PathExpanderConfig(mode=mode, collect_nt_details=True)
        expected = run_program(program, detector=make_detector('ccured'),
                               config=config)
        traced = TracedRun(program, detector=make_detector('ccured'),
                           config=config).run()
        assert traced.nt_spawned >= 1
        assert traced.to_dict() == expected.to_dict()


class TestCLI:
    def _run_cli(self, argv, capsys):
        from repro.cli import main
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out

    def test_apps_listing(self, capsys):
        code, out = self._run_cli(['apps'], capsys)
        assert code == 0
        assert 'print_tokens2' in out
        assert 'bc_calc' in out

    def test_bugs_command(self, capsys):
        code, out = self._run_cli(['bugs', 'man_fmt'], capsys)
        assert code == 0
        assert 'man_section' in out
        assert "['man_section']" in out

    def test_experiment_command(self, capsys):
        code, out = self._run_cli(['experiment', 'table2'], capsys)
        assert code == 0
        assert 'spawn overhead' in out

    @pytest.mark.parametrize('argv,message', [
        (['experiment', 'fig7', '--apps', 'nope'],
         'experiment: unknown app(s): nope '),
        (['batch', 'fig7', 'fig9', '--apps', 'schedule,nope'],
         'batch: unknown app(s): nope '),
        (['bugs', 'no_such_app'], 'bugs: unknown app: no_such_app '),
        (['bugs', 'go_app', '--version', '99'],
         'bugs: go_app has no version 99 '),
    ])
    def test_unknown_app_or_version_exits_2(self, capsys, argv, message):
        from repro.cli import main
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ''
        assert captured.err.count('\n') == 1
        assert captured.err.startswith(message)

    def test_report_command_is_gone(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(['report'])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize('exp_id,app', [('fig3', 'gzip_app'),
                                            ('ext1', 'gzip_app'),
                                            ('val1', 'print_tokens2')])
    def test_apps_reaches_every_driver_with_an_app_list(self, capsys,
                                                        exp_id, app):
        code, out = self._run_cli(
            ['experiment', exp_id, '--apps', app, '--json'], capsys)
        assert code == 0
        assert [row[0] for row in json.loads(out)['rows']] == [app]

    @pytest.mark.parametrize('ids,fixed', [(['experiment', 'table4'],
                                            'table4'),
                                           (['batch', 'fig7', 'fig10'],
                                            'fig10')])
    def test_apps_rejected_where_no_driver_takes_it(self, capsys, ids,
                                                    fixed):
        from repro.cli import main
        assert main(ids + ['--apps', 'schedule']) == 2
        captured = capsys.readouterr()
        assert captured.out == ''
        assert '--apps does not apply to %s ' % fixed in captured.err

    def test_every_experiment_honours_the_cache(self, capsys, tmp_path):
        argv = ['experiment', 'ext2', '--cache', str(tmp_path), '--json']
        cold = json.loads(self._run_cli(argv, capsys)[1])
        warm = json.loads(self._run_cli(argv, capsys)[1])
        assert cold['metrics']['jobs_run'] == 4
        assert warm['metrics']['jobs_run'] == 0
        assert warm['metrics']['cache_hits'] \
            == warm['metrics']['jobs_submitted'] == 4
        assert warm['rows'] == cold['rows']

    @pytest.mark.parametrize('argv', [
        ['experiment', 'ext2'],
        ['batch', 'ext2', '--jobs', '2']])
    def test_timed_out_job_fails_with_one_line(self, capsys, argv):
        # --timeout holds without --jobs/--cache too, and a job that
        # times out on every attempt exits 1 with its message only.
        from repro.cli import main
        assert main(argv + ['--timeout', '0.000001']) == 1
        captured = capsys.readouterr()
        assert captured.out == ''
        assert captured.err.count('\n') == 1
        assert 'failed after 3 attempt(s): timed out' in captured.err

    def test_run_and_disasm(self, capsys, tmp_path):
        source_file = tmp_path / 'demo.mc'
        source_file.write_text('''
            int main() {
              int n = read_int();
              int *p = malloc(2);
              if (n > 600) { p[4] = 1; }
              free(p);
              print_int(n);
              return 0;
            }''')
        code, out = self._run_cli(
            ['run', str(source_file), '--ints', '3'], capsys)
        assert code == 0
        assert 'REPORT' in out
        code, out = self._run_cli(
            ['run', str(source_file), '--ints', '3', '--trace'], capsys)
        assert code == 0
        assert 'nt-path' in out
        code, out = self._run_cli(
            ['disasm', str(source_file)], capsys)
        assert code == 0
        assert 'main:' in out
        assert 'malloc' in out
        code, out = self._run_cli(
            ['disasm', str(source_file), '--function', 'main'], capsys)
        assert code == 0
        assert '_start' not in out


class TestDisasm:
    def test_function_listing_unknown(self):
        from repro.isa.disasm import function_listing
        program = compile_minic('int main() { return 0; }')
        with pytest.raises(KeyError):
            function_listing(program, 'ghost')

    def test_predicated_marker(self):
        from repro.isa.disasm import disassemble
        program = compile_minic('''
            int main() {
              int x = read_int();
              if (x < 5) { print_int(x); }
              return 0;
            }''')
        listing = disassemble(program)
        assert '<pred>' in listing
        assert 'syscall read_int' in listing

    def test_every_instruction_formats(self):
        from repro.isa.disasm import format_instr
        from repro.isa.instructions import Instr
        samples = [
            Instr('li', 8, 5), Instr('add', 8, 9, 10),
            Instr('ld', 8, 29, -1), Instr('br', 8, 17),
            Instr('jmp', 3), Instr('ret'), Instr('halt'),
            Instr('assert', 8, 'ID'), Instr('syscall', 2),
            Instr('malloc', 8, 9), Instr('free', 8),
            Instr('push', 8), Instr('pop', 8), Instr('nop'),
        ]
        for instr in samples:
            text = format_instr(instr)
            assert instr.op.split('.')[0] in text or 'syscall' in text
