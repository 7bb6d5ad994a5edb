"""Branch-coverage measurement.

The paper's design targets *path* coverage but, like the paper
(Section 2), we report **branch coverage**: the fraction of a program's
static branch edges executed in the monitored run.  Edges executed
inside NT-paths count -- they are observed by the dynamic detector,
which is the point of PathExpander.  The fractions themselves are
:attr:`RunResult.baseline_coverage` and
:attr:`RunResult.total_coverage`; the multi-input union is the
experiments' ``_cumulative_coverage``.
"""

from __future__ import annotations


class CoverageTracker:
    """Tracks the branch edges one run executes.

    Edges are stored internally as packed ints (``addr << 1 | taken``):
    the per-branch record on the hot path is then one shift-or and one
    set add, and the tuple keys the rest of the codebase consumes are
    only materialised at finalize time (:meth:`edge_sets` -- one pass,
    instead of the three separate unions the engines used to compute).
    """

    def __init__(self):
        self._taken = set()        # packed taken-path edges
        self._nt = set()           # packed NT-path edges

    def record_taken(self, branch_addr, taken):
        self._taken.add(branch_addr << 1 | taken)

    def record_nt(self, branch_addr, taken):
        self._nt.add(branch_addr << 1 | taken)

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
