"""Tests for EXPERIMENTS.md rendering through ``batch --markdown``."""

from repro.cli import main
from repro.harness import experiments
from repro.harness.generate_report import _PAPER_NOTES


class TestGenerateReport:
    def test_every_step_has_a_paper_note(self):
        assert set(experiments.EXPERIMENTS) <= set(_PAPER_NOTES)

    def test_generate_writes_markdown(self, tmp_path, capsys):
        # Two runs write the same bytes: no timing line, sections in
        # the order asked for.
        paths = [tmp_path / 'first.md', tmp_path / 'second.md']
        for path in paths:
            assert main(['batch', 'table2', 'table3',
                         '--markdown', str(path)]) == 0
        capsys.readouterr()
        text = paths[0].read_text()
        assert text == paths[1].read_text()
        assert text.startswith('# EXPERIMENTS')
        assert text.index('## table2') < text.index('## table3')
        assert _PAPER_NOTES['table3'] in text
        assert '```' in text
        # No wall-clock line, such as '_(... in 0.0s)_', is written.
        assert '_(' not in text

    def test_step_ids_cover_all_paper_artifacts(self):
        ids = list(experiments.EXPERIMENTS)
        assert {'table2', 'table3', 'table4', 'table5', 'table6',
                'fig3', 'fig7', 'fig8', 'fig9', 'fig10',
                'abl1', 'ext1', 'ext2'} <= set(ids)
        # batch --all writes the paper's order, not sorted ids.
        assert ids[:5] == ['table2', 'table3', 'table4', 'table5', 'fig3']

    def test_all_plans_deduplicate_to_383_runs(self):
        # The paper's tables need 426 runs; a batch of every
        # experiment simulates each of the 383 distinct ones once.
        specs = [spec for driver in experiments.EXPERIMENTS.values()
                 for spec in driver.plan()[0]]
        assert len(experiments.EXPERIMENTS) == 14
        assert len(specs) == 426
        assert len({spec.key for spec in specs}) == 383
