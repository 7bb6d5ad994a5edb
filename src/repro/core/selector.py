"""NT-path selection policy (Section 4.2(1)).

A non-taken branch edge is selected for NT-path exploration when its
BTB exercise counter is below ``NTPathCounterThreshold``.  Counters are
bumped on every taken-path execution of an edge *and* at every NT-path
entry, and are periodically reset so long-running programs keep
exploring as new program states emerge.

The paper additionally proposes "adding random factor into
PathExpander's NT-Path selection" to catch bugs whose entry edge was
intensively exercised before the bug-triggering state arose (its second
miss mechanism, e.g. the undetected bc bug).  The
``selection_random_rate`` extension implements this: a saturated edge
is still explored with that probability, using a deterministic
per-run generator.
"""

from __future__ import annotations

from repro.btb.btb import COUNTER_MAX

_MASK64 = (1 << 63) - 1


class NTPathSelector:

    def __init__(self, btb, config):
        self.btb = btb
        self.threshold = config.nt_counter_threshold
        self.reset_interval = config.counter_reset_interval
        self.random_rate = config.selection_random_rate
        self._rng_state = config.selection_random_seed | 1
        self.next_reset = self.reset_interval
        self.resets = 0
        self.considered = 0
        self.selected = 0
        self.random_selected = 0

    def _next_random(self):
        self._rng_state = (self._rng_state * 6364136223846793005
                           + 1442695040888963407) & _MASK64
        return ((self._rng_state >> 17) & 0xFFFFFF) / float(1 << 24)

    def reset_now(self, instret):
        """Periodic BTB counter reset, due when ``instret`` reaches
        :attr:`next_reset` (the engines inline that comparison)."""
        self.btb.reset_counters()
        self.resets += 1
        self.next_reset = instret + self.reset_interval

    def consider(self, entry, nt_edge_taken):
        """Decide whether to explore the non-taken edge of a branch.

        ``entry`` is the branch's BTB entry, just returned by
        :meth:`BranchTargetBuffer.observe_edge` for the taken edge.  A
        selected edge is bumped too: entering the NT-path exercises it.
        """
        self.considered += 1
        count = entry.taken_count if nt_edge_taken else entry.nt_count
        if count >= self.threshold:
            if self.random_rate <= 0.0 \
                    or self._next_random() >= self.random_rate:
                return False
            self.random_selected += 1
        self.selected += 1
        # Entering the NT-path exercises the edge (Section 4.2(1)).
        if nt_edge_taken:
            if entry.taken_count < COUNTER_MAX:
                entry.taken_count += 1
        elif entry.nt_count < COUNTER_MAX:
            entry.nt_count += 1
        return True
