"""NT-path event tracing: a debugging view of a PathExpander run.

Runs a program through :func:`~repro.core.runner.run_program` (so the
result is the one an untraced run gives) and collects a human-readable
event log -- every spawn, its forced edge, its termination, and every
detector report -- which is what you want when figuring out why a bug
was (or was not) exposed.
"""

from __future__ import annotations

from repro.core.config import PathExpanderConfig
from repro.core.runner import run_program


class TraceEvent:
    __slots__ = ('kind', 'detail', 'instret')

    def __init__(self, kind, detail, instret):
        self.kind = kind
        self.detail = detail
        self.instret = instret

    def __repr__(self):
        return '[%8d] %-8s %s' % (self.instret, self.kind, self.detail)


class TracedRun:
    """Runs a program and keeps the NT-path event log."""

    def __init__(self, program, detector=None, config=None,
                 text_input='', int_input=None):
        config = config or PathExpanderConfig(collect_nt_details=True)
        if not config.collect_nt_details:
            config = config.replace(collect_nt_details=True)
        self.program = program
        self.detector = detector
        self.config = config
        self.text_input = text_input
        self.int_input = int_input
        self.events = []
        self.result = None

    def run(self):
        result = run_program(self.program, detector=self.detector,
                             config=self.config,
                             text_input=self.text_input,
                             int_input=self.int_input)
        self.result = result
        for record in result.nt_details:
            edge = 'taken' if record.edge_taken else 'fall-through'
            self.events.append(TraceEvent(
                'nt-path',
                'branch @%d (%s), forced %s edge, ran %d instrs, %s'
                % (record.branch_addr,
                   self.program.location(record.branch_addr), edge,
                   record.length, record.reason),
                record.spawn_instret))
        for report in result.reports:
            where = 'NT-path' if report.in_nt_path else 'taken path'
            self.events.append(TraceEvent(
                'report', '%s at %s (%s)' % (report.kind,
                                             report.location, where),
                -1))
        return result

    def format(self, limit=None):
        lines = ['trace of %s (%s, detector=%s)'
                 % (self.result.program_name, self.result.mode,
                    self.result.detector_name)]
        events = self.events if limit is None else self.events[:limit]
        lines.extend(repr(event) for event in events)
        if limit is not None and len(self.events) > limit:
            lines.append('... (%d more events)'
                         % (len(self.events) - limit))
        summary = self.result
        lines.append('%d NT-paths, coverage %.1f%% -> %.1f%%, '
                     '%d report(s)'
                     % (summary.nt_spawned,
                        100 * summary.baseline_coverage,
                        100 * summary.total_coverage,
                        len(summary.reports)))
        return '\n'.join(lines)
