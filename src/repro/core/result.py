"""Run statistics containers."""

from __future__ import annotations


class NTPathTermination:
    LENGTH = 'length'          # reached MaxNTPathLength
    CRASH = 'crash'            # machine fault, swallowed
    UNSAFE = 'unsafe'          # unsafe event (syscall) reached
    OVERFLOW = 'overflow'      # L1 could not buffer more volatile lines
    PROGRAM_END = 'program_end'

    ALL = (LENGTH, CRASH, UNSAFE, OVERFLOW, PROGRAM_END)


class NTPathRecord:
    """Per-NT-path detail (only kept when collect_nt_details is set)."""

    __slots__ = ('branch_addr', 'edge_taken', 'length', 'reason',
                 'spawn_instret')

    def __init__(self, branch_addr, edge_taken, length, reason,
                 spawn_instret):
        self.branch_addr = branch_addr
        self.edge_taken = edge_taken
        self.length = length
        self.reason = reason
        self.spawn_instret = spawn_instret

    def to_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_dict(cls, data):
        return cls(**{slot: data[slot] for slot in cls.__slots__})


class RunResult:
    """Everything a monitored run produced."""

    def __init__(self, program, config, detector):
        self.program_name = program.name
        self.mode = config.mode
        self.detector_name = detector.name if detector else 'none'
        # timing
        self.cycles = 0                 # total modelled cycles
        self.primary_cycles = 0         # taken-path core cycles (CMP)
        self.instret_taken = 0
        self.instret_nt = 0
        # NT-path statistics
        self.nt_spawned = 0
        self.nt_skipped_busy = 0        # CMP: MaxNumNTPaths reached
        self.nt_terminations = {}       # reason -> count
        self.nt_details = []            # NTPathRecord list (optional)
        self.nt_store_count = 0
        self.nt_branch_count = 0
        self.taken_branch_count = 0
        self.journal_entries_total = 0
        self.forced_segment_commits = 0
        # coverage
        self.total_edges = 0
        self.baseline_covered = 0
        self.total_covered = 0
        self.taken_edges = set()      # edge keys covered by the taken path
        self.covered_edges = set()    # edge keys covered incl. NT-paths
        # detection
        self.reports = []
        # program outcome
        self.output = ''
        self.int_output = []
        self.exit_code = None
        self.crashed = False
        self.crash_kind = None
        self.truncated = False          # stopped before program end
        # 'instructions' when max_instructions stopped the run (the
        # detailed CMP engine leaves it None), None otherwise
        self.truncation_reason = None

    # ------------------------------------------------------------------

    @property
    def baseline_coverage(self):
        return self.baseline_covered / self.total_edges \
            if self.total_edges else 0.0

    @property
    def total_coverage(self):
        return self.total_covered / self.total_edges \
            if self.total_edges else 0.0

    def count_termination(self, reason):
        self.nt_terminations[reason] = \
            self.nt_terminations.get(reason, 0) + 1

    def overhead_vs(self, baseline_result):
        """Relative execution overhead against a baseline run."""
        base = baseline_result.cycles
        if base == 0:
            return 0.0
        return (self.cycles - base) / base

    # -- lossless serialization (job cache / worker transport) ---------

    _SCALAR_FIELDS = ('program_name', 'mode', 'detector_name', 'cycles',
                      'primary_cycles', 'instret_taken', 'instret_nt',
                      'nt_spawned', 'nt_skipped_busy', 'nt_store_count',
                      'nt_branch_count', 'taken_branch_count',
                      'journal_entries_total', 'forced_segment_commits',
                      'total_edges', 'baseline_covered',
                      'total_covered', 'output', 'exit_code', 'crashed',
                      'crash_kind', 'truncated', 'truncation_reason')

    # Fields added after records of version N were written: tolerated
    # as absent on rehydration so a warm cache survives an upgrade.
    _SCALAR_DEFAULTS = {'truncation_reason': None}

    def to_dict(self):
        """A JSON-safe dict carrying *every* field of this result.

        Edge sets are emitted sorted so the same run always serializes
        to the same bytes (the job cache depends on deterministic
        records).
        """
        data = {name: getattr(self, name)
                for name in self._SCALAR_FIELDS}
        data['int_output'] = list(self.int_output)
        data['nt_terminations'] = {
            reason: self.nt_terminations[reason]
            for reason in sorted(self.nt_terminations)}
        data['nt_details'] = [record.to_dict()
                              for record in self.nt_details]
        data['taken_edges'] = [list(edge)
                               for edge in sorted(self.taken_edges)]
        data['covered_edges'] = [list(edge)
                                 for edge in sorted(self.covered_edges)]
        data['reports'] = [report.to_dict() for report in self.reports]
        return data

    @classmethod
    def from_dict(cls, data):
        """Rebuild a result from :meth:`to_dict` output (or its JSON
        round-trip)."""
        from repro.detectors.base import BugReport
        result = cls.__new__(cls)
        for name in cls._SCALAR_FIELDS:
            if name in data:
                setattr(result, name, data[name])
            else:
                setattr(result, name, cls._SCALAR_DEFAULTS[name])
        result.int_output = list(data['int_output'])
        result.nt_terminations = dict(data['nt_terminations'])
        result.nt_details = [NTPathRecord.from_dict(record)
                             for record in data['nt_details']]
        result.taken_edges = {tuple(edge)
                              for edge in data['taken_edges']}
        result.covered_edges = {tuple(edge)
                                for edge in data['covered_edges']}
        result.reports = [BugReport.from_dict(report)
                          for report in data['reports']]
        return result

    def __repr__(self):
        return ('<RunResult %s/%s/%s: %d cycles, %d NT-paths, '
                'coverage %.1f%%->%.1f%%, %d reports>' % (
                    self.program_name, self.mode, self.detector_name,
                    self.cycles, self.nt_spawned,
                    100 * self.baseline_coverage,
                    100 * self.total_coverage, len(self.reports)))
