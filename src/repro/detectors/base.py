"""Detector plugin interface and bug reports.

PathExpander is detector-agnostic (Section 1.4 "Generality"): any tool
that observes loads, stores, frees and assertions plugs in here.  The
engines call the hooks on both the taken path and NT-paths; reports
made during an NT-path are flagged and -- matching the monitor-memory-
area semantics of Section 4.1 -- are never rolled back.

Each hook returns the number of *cycles* the check costs, so software
checkers (CCured) dilate execution while hardware-assisted checkers
(iWatcher) stay nearly free; this is what differentiates their overhead
in the evaluation.
"""

from __future__ import annotations


class BugReport:
    """One report from a dynamic bug detection tool."""

    __slots__ = ('kind', 'detail', 'code_addr', 'location', 'mem_addr',
                 'in_nt_path', 'assert_id')

    def __init__(self, kind, detail='', code_addr=None, location='',
                 mem_addr=None, in_nt_path=False, assert_id=None):
        self.kind = kind
        self.detail = detail
        self.code_addr = code_addr
        self.location = location
        self.mem_addr = mem_addr
        self.in_nt_path = in_nt_path
        self.assert_id = assert_id

    @property
    def site_key(self):
        """Dedup key: one report per (kind, site)."""
        return (self.kind, self.assert_id or self.code_addr)

    def to_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_dict(cls, data):
        return cls(**{slot: data[slot] for slot in cls.__slots__})

    def __repr__(self):
        where = 'NT-path' if self.in_nt_path else 'taken path'
        return '<BugReport %s at %s (%s)%s>' % (
            self.kind, self.location, where,
            ' id=%s' % self.assert_id if self.assert_id else '')


class ReportKind:
    OVERRUN = 'buffer_overrun'
    DANGLING = 'dangling_access'
    WILD = 'wild_access'
    INVALID_FREE = 'invalid_free'
    ASSERTION = 'assertion_failure'
    LEAKED_NULL = 'null_dereference'

    MEMORY_KINDS = frozenset({OVERRUN, DANGLING, WILD, INVALID_FREE,
                              LEAKED_NULL})


class Detector:
    """Base class; hooks return the cycle cost of the check.

    ``attach`` may set ``shadow``, a per-word array: on a word with a
    nonzero byte ``on_load``/``on_store`` only return ``legal_cost``,
    so compiled blocks call them for the other words alone.
    """

    name = 'none'
    shadow = None
    legal_cost = 0

    def __init__(self):
        self.reports = []
        self._seen_sites = set()

    def _report(self, kind, interp, detail='', mem_addr=None,
                assert_id=None):
        # Dedup before constructing anything: a site that already
        # reported (the common case on hot loops) costs one set lookup,
        # not a BugReport + source-location string build.
        code_addr = interp.core.pc
        site_key = (kind, assert_id or code_addr)
        if site_key in self._seen_sites:
            return None
        self._seen_sites.add(site_key)
        report = BugReport(
            kind, detail=detail, code_addr=code_addr,
            location=interp.program.location(code_addr),
            mem_addr=mem_addr, in_nt_path=interp.in_nt_path,
            assert_id=assert_id)
        self.reports.append(report)
        return report

    def _report_access(self, kind, interp, op, mem_addr):
        """:meth:`_report` for a load/store check site.

        The detail string (``'<op> @<addr>'``) is only formatted for
        *new* sites: on hot loops the same site re-reports every
        iteration, and building a throwaway string per access is a
        measurable share of a software checker's cost.
        """
        code_addr = interp.core.pc
        site_key = (kind, code_addr)
        if site_key in self._seen_sites:
            return None
        self._seen_sites.add(site_key)
        report = BugReport(
            kind, detail='%s @%d' % (op, mem_addr),
            code_addr=code_addr,
            location=interp.program.location(code_addr),
            mem_addr=mem_addr, in_nt_path=interp.in_nt_path)
        self.reports.append(report)
        return report

    # hooks ------------------------------------------------------------

    def on_load(self, addr, value, interp):
        return 0

    def on_store(self, addr, value, interp):
        return 0

    def on_assert_fail(self, assert_id, code_addr, interp):
        return 0

    def on_alloc(self, base, size, interp):
        return 0

    def on_free(self, addr, ok, interp):
        return 0

    def reset(self):
        self.reports = []
        self._seen_sites = set()
