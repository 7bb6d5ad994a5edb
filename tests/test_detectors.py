"""Unit tests for the three dynamic bug detection tools."""

from repro.core.config import Mode
from repro.detectors.base import BugReport, Detector, ReportKind
from tests.conftest import run_minic


def _memory_run(src, detector, **kwargs):
    return run_minic(src, detector=detector, mode=Mode.BASELINE,
                     **kwargs)


class TestCCuredDetection:
    def test_heap_overrun_store(self):
        result = _memory_run('''
            int main() {
              int *p = malloc(4);
              p[4] = 1;             /* first red-zone word */
              free(p);
              return 0;
            }''', 'ccured')
        assert [r.kind for r in result.reports] == [ReportKind.OVERRUN]

    def test_heap_underrun_load(self):
        result = _memory_run('''
            int main() {
              int *p = malloc(4);
              int v = p[-1];
              free(p);
              return v;
            }''', 'ccured')
        assert [r.kind for r in result.reports] == [ReportKind.OVERRUN]

    def test_dangling_access(self):
        result = _memory_run('''
            int main() {
              int *p = malloc(4);
              free(p);
              p[0] = 7;
              return 0;
            }''', 'ccured')
        assert [r.kind for r in result.reports] == [ReportKind.DANGLING]

    def test_wild_heap_access(self):
        result = _memory_run('''
            int main() {
              int *p = malloc(4);
              p[400] = 1;
              free(p);
              return 0;
            }''', 'ccured')
        assert [r.kind for r in result.reports] == [ReportKind.WILD]

    def test_double_free(self):
        result = _memory_run('''
            int main() {
              int *p = malloc(4);
              free(p);
              free(p);
              return 0;
            }''', 'ccured')
        assert [r.kind for r in result.reports] == \
            [ReportKind.INVALID_FREE]

    def test_global_overrun_into_gap(self):
        result = _memory_run('''
            int a[4];
            int b[4];
            int main() {
              a[4] = 9;             /* gap between a and b */
              return b[0];
            }''', 'ccured')
        assert [r.kind for r in result.reports] == [ReportKind.OVERRUN]

    def test_legal_program_is_clean(self):
        result = _memory_run('''
            int table[8];
            int main() {
              int *p = malloc(8);
              for (int i = 0; i < 8; i = i + 1) {
                p[i] = i;
                table[i] = p[i];
              }
              free(p);
              print_int(table[7]);
              return 0;
            }''', 'ccured')
        assert result.reports == []

    def test_reports_deduplicated_per_site(self):
        result = _memory_run('''
            int main() {
              int *p = malloc(4);
              for (int i = 0; i < 10; i = i + 1) {
                p[4] = i;           /* same bad site, 10 times */
              }
              free(p);
              return 0;
            }''', 'ccured')
        assert len(result.reports) == 1

    def test_checks_cost_cycles(self):
        plain = _memory_run('int main() { int a[8]; a[3] = 1; '
                            'return a[3]; }', 'none')
        checked = _memory_run('int main() { int a[8]; a[3] = 1; '
                              'return a[3]; }', 'ccured')
        assert checked.cycles > plain.cycles


class TestIWatcherDetection:
    def test_same_bugs_as_ccured(self):
        src = '''
            int main() {
              int *p = malloc(4);
              p[4] = 1;
              free(p);
              p[0] = 2;
              return 0;
            }'''
        ccured = _memory_run(src, 'ccured')
        iwatcher = _memory_run(src, 'iwatcher')
        assert [r.kind for r in ccured.reports] == \
            [r.kind for r in iwatcher.reports]

    def test_hardware_cost_lower_than_software(self):
        src = '''
            int total;
            int main() {
              int a[32];
              for (int i = 0; i < 32; i = i + 1) { a[i] = i; }
              for (int r = 0; r < 50; r = r + 1) {
                for (int i = 0; i < 32; i = i + 1) {
                  total = total + a[i];
                }
              }
              print_int(total);
              return 0;
            }'''
        iwatcher = _memory_run(src, 'iwatcher')
        ccured = _memory_run(src, 'ccured')
        assert iwatcher.cycles < ccured.cycles

    def test_trigger_counter(self):
        from repro.detectors.iwatcher import IWatcherDetector
        from repro.core.runner import run_program
        from repro.minic.codegen import compile_minic
        from repro.core.config import PathExpanderConfig
        detector = IWatcherDetector()
        program = compile_minic('''
            int main() {
              int *p = malloc(2);
              p[2] = 1;
              free(p);
              return 0;
            }''')
        run_program(program, detector=detector,
                    config=PathExpanderConfig(mode=Mode.BASELINE))
        assert detector.triggers == 1


class TestAssertions:
    def test_failure_recorded_with_id(self):
        result = run_minic('''
            int main() {
              int x = 5;
              assert(x == 5, "GOOD");
              assert(x == 6, "BAD");
              return 0;
            }''', detector='assertions')
        assert [r.assert_id for r in result.reports] == ['BAD']

    def test_execution_continues_after_failure(self):
        result = run_minic('''
            int main() {
              assert(0 == 1, "FAIL");
              print_int(99);
              return 0;
            }''', detector='assertions')
        assert result.output.strip() == '99'
        assert len(result.reports) == 1

    def test_failed_assertion_ids(self):
        from repro.detectors.assertions import AssertionDetector
        from repro.core.runner import run_program
        from repro.minic.codegen import compile_minic
        from repro.core.config import PathExpanderConfig
        detector = AssertionDetector()
        program = compile_minic('''
            int main() {
              assert(1 == 2, "A");
              assert(2 == 3, "B");
              return 0;
            }''')
        run_program(program, detector=detector,
                    config=PathExpanderConfig(mode=Mode.BASELINE))
        assert {r.assert_id for r in detector.reports} == {'A', 'B'}


class TestDetectorBase:
    def test_reset_clears_reports(self):
        detector = Detector()
        detector.reports.append('sentinel')
        detector._seen_sites.add(('x', 1))
        detector.reset()
        assert detector.reports == []
        assert detector._seen_sites == set()

    def test_default_hooks_cost_nothing(self):
        detector = Detector()
        assert detector.on_load(0, 0, None) == 0
        assert detector.on_store(0, 0, None) == 0
        assert detector.on_assert_fail('x', 0, None) == 0
        assert detector.on_alloc(0, 0, None) == 0
        assert detector.on_free(0, True, None) == 0

    def test_report_repr_mentions_nt_path(self):
        report = BugReport('buffer_overrun', location='f+3',
                           in_nt_path=True)
        assert 'NT-path' in repr(report)

    def test_site_key_prefers_assert_id(self):
        with_id = BugReport('assertion_failure', code_addr=5,
                            assert_id='X')
        without = BugReport('assertion_failure', code_addr=5)
        assert with_id.site_key == ('assertion_failure', 'X')
        assert without.site_key == ('assertion_failure', 5)


class TestMonitorAreaSemantics:
    def test_nt_reports_survive_many_rollbacks(self):
        src = '''
            int main() {
              for (int i = 0; i < 30; i = i + 1) {
                int *p = malloc(2);
                if (i > 900) { p[2] = 1; }
                free(p);
              }
              return 0;
            }'''
        result = run_minic(src, detector='ccured', mode=Mode.STANDARD)
        assert result.nt_spawned >= 1
        assert len(result.reports) == 1
        assert result.reports[0].in_nt_path
