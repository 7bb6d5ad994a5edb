"""Renders EXPERIMENTS.md from the tables of one experiment batch.

Usage::

    python -m repro batch --all --markdown EXPERIMENTS.md

:func:`generate` writes each measured table next to the paper's
reported numbers.  The tables come from
:func:`repro.harness.experiments.run_batch`, so the file depends only
on the simulations, and any backend, job count or cache writes the same
bytes.
"""

from __future__ import annotations

_PAPER_NOTES = {
    'table2': 'Machine parameters are carried over from Table 2 / '
              'Section 6.3 verbatim.',
    'table3': 'Paper: seven buggy applications, 38 tested bugs; memory '
              'bugs count once per memory tool.  Reproduced exactly. '
              'Source sizes are MiniC lines (the originals are C '
              'programs 2-3 orders of magnitude larger).',
    'table4': 'Paper: 0 of 38 at baseline, 21 of 38 with PathExpander; '
              'print_tokens 5/7; bc 1/2; schedule v1 & v3 missed '
              '(value coverage); print_tokens2 v3 missed '
              '(inconsistency); print_tokens2 v6 and both go bugs '
              'missed (need special inputs).  Reproduced exactly, '
              'mechanism for mechanism.',
    'table5': 'Paper: consistency fixing cuts false positives from 13 '
              'to 4 on average and is required to detect the man bug. '
              'Measured: ~9.3 -> ~4.3 -- the same >2x reduction with a '
              'residue of unfixable (data-linked) false positives; the '
              'man bug is found only with fixing.',
    'fig3': 'Paper: 65-99% of NT-paths execute at least 1000 '
            'instructions; go stops earliest in only ~0.5% of cases; '
            'gzip/vpr stop mostly on unsafe events.  Measured: '
            'survival 42-91% with go highest, and gzip/vpr stops are '
            'unsafe-dominated.  go stops more often than 0.5% because '
            'input-reading code is a far larger fraction of a MiniC '
            'analogue than of 29k-line 099.go.',
    'fig7': 'Paper: single-run branch coverage rises from 40% to 65% '
            'on average (+25 points).  Measured: a comparable +30 '
            'point gain at a higher absolute level -- small analogue '
            'programs leave proportionally fewer never-reachable '
            'edges.',
    'fig8': 'Paper: cumulative coverage over the multi-input suites '
            'still improves by ~19%.  Measured: ~29% -- same '
            'conclusion (NT-paths reach code that no input in the '
            'suite reaches).',
    'fig9': 'Paper: overhead below 9.9% with the CMP optimisation, '
            'hundreds to thousands of NT-paths per run.  Measured: '
            'worst CMP overhead below 9.9%, standard configuration '
            'one to two orders above it, NT-path counts in the '
            'expected range.',
    'table6': 'Paper: hardware PathExpander is 3-4 orders of magnitude '
              'cheaper than the pure-software (PIN) implementation. '
              'Measured: 2.8-3.9 orders, geomean ~3.3.',
    'fig10': 'Section 7.6 trends: longer MaxNTPathLength and higher '
             'NTPathCounterThreshold buy coverage with overhead; '
             'MaxNumNTPaths saturates once the idle cores keep up.',
    'abl1': 'Paper (164.gzip): exploring non-taken edges from inside '
            'NT-paths adds ~2% coverage but raises the early-crash '
            'ratio from 5% to 16%, so PathExpander follows only taken '
            'edges in NT-paths.  Measured: the same trade-off '
            '(crashes rise ~1.5x; the coverage gain is larger on our '
            'small programs).',
    'ext1': 'Extension implementing the paper\'s stated future work '
            '(Section 3.2): an OS that sandboxes unsafe events. '
            'The paper predicts >90% of NT-paths could then run the '
            'full 1000 instructions; measured 92-100%.',
    'ext2': 'Extension implementing the paper\'s Section 7.1 proposal: '
            'a random factor in NT-path selection.  Both '
            'exercised-edge misses (the undetected bc bug and '
            'schedule2 v5) become detectable.',
    'val1': 'Internal validation: the CMP scheduling model (used for '
            'fig9) against a detailed engine that truly interleaves '
            'cores and implements the Fig. 6 segment/version '
            'commit-token protocol.  Both agree on detections, '
            'coverage and overhead.',
}

_HEADER = '''# EXPERIMENTS — paper vs. measured

Every table and figure of the PathExpander paper (MICRO 2006),
regenerated by this reproduction.  Generated by
`python -m repro batch --all --markdown EXPERIMENTS.md`; the same
tables are printed and asserted by `pytest benchmarks/ --benchmark-only`.

Numbers are produced by the interpreter-level model described in
DESIGN.md: treat *relative* results (who wins, by what factor, which
mechanism causes each miss) as the reproduction target, not absolute
cycle counts.
'''


def generate(stream, tables):
    """Write the header, then each ``ExperimentResult`` in ``tables``
    under its paper note."""
    stream.write(_HEADER)
    for table in tables:
        stream.write('\n## %s — %s\n\n%s\n\n```\n%s\n```\n'
                     % (table.exp_id, table.title,
                        _PAPER_NOTES[table.exp_id], table.format()))
