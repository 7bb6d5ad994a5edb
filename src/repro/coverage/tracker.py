"""Branch-coverage measurement.

The paper's design targets *path* coverage but, like the paper
(Section 2), we report **branch coverage**: the fraction of a program's
static branch edges executed in the monitored run.  Edges executed
inside NT-paths count -- they are observed by the dynamic detector,
which is the point of PathExpander.
"""

from __future__ import annotations


class CoverageTracker:
    """Tracks executed branch edges for one program.

    Edges are stored internally as packed ints (``addr << 1 | taken``):
    the per-branch record on the hot path is then one shift-or and one
    set add, and the tuple keys the rest of the codebase consumes are
    only materialised at finalize time (:meth:`edge_sets` -- one pass,
    instead of the three separate unions the engines used to compute).
    """

    def __init__(self, program):
        self.program = program
        self.total_edges = program.num_edges
        self._taken = set()        # packed taken-path edges
        self._nt = set()           # packed NT-path edges

    def record_taken(self, branch_addr, taken):
        self._taken.add(branch_addr << 1 | taken)

    def record_nt(self, branch_addr, taken):
        self._nt.add(branch_addr << 1 | taken)

    def record(self, branch_addr, taken, in_nt_path):
        key = branch_addr << 1 | (1 if taken else 0)
        if in_nt_path:
            self._nt.add(key)
        else:
            self._taken.add(key)

    # ------------------------------------------------------------------

    @staticmethod
    def _unpack(keys):
        return {(key >> 1, bool(key & 1)) for key in keys}

    def edge_sets(self):
        """``(taken_edges, covered_edges)`` as tuple-key sets.

        Computes the taken set and the taken|NT union exactly once;
        finalize code should consume both from this single call.
        """
        taken = self._unpack(self._taken)
        covered = taken | self._unpack(self._nt)
        return taken, covered

    @property
    def baseline_covered(self):
        """Edges the monitored run covered without PathExpander."""
        return len(self._taken)

    @property
    def total_covered(self):
        return len(self._taken | self._nt)

    @property
    def baseline_coverage(self):
        if self.total_edges == 0:
            return 0.0
        return self.baseline_covered / self.total_edges

    @property
    def total_coverage(self):
        if self.total_edges == 0:
            return 0.0
        return self.total_covered / self.total_edges

    @property
    def covered_edge_keys(self):
        return self._unpack(self._taken | self._nt)

    @property
    def taken_edge_keys(self):
        return self._unpack(self._taken)

    def merge_into(self, cumulative):
        """Union this run's edges into a :class:`CumulativeCoverage`."""
        cumulative.add(self._unpack(self._taken), self._unpack(self._nt))


class CumulativeCoverage:
    """Coverage accumulated over multiple inputs (Section 7 multi-input
    experiment: the union over 50 test cases)."""

    def __init__(self, program):
        self.total_edges = program.num_edges
        self._taken = set()
        self._all = set()
        self.runs = 0

    def add(self, taken_edges, nt_edges):
        self._taken |= taken_edges
        self._all |= taken_edges
        self._all |= nt_edges
        self.runs += 1

    @property
    def baseline_coverage(self):
        if self.total_edges == 0:
            return 0.0
        return len(self._taken) / self.total_edges

    @property
    def total_coverage(self):
        if self.total_edges == 0:
            return 0.0
        return len(self._all) / self.total_edges
