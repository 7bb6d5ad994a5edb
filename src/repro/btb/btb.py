"""Branch target buffer with per-edge exercise counters.

Section 4.2(1): the BTB is extended with two 4-bit saturating counters
per entry -- one per branch edge -- recording how often each edge has
been executed.  A BTB miss is treated as a zero count.  Counters are
periodically reset (every ``CounterResetInterval`` retired
instructions) so long-running programs keep re-exploring.
"""

from __future__ import annotations

COUNTER_MAX = 15          # 4-bit saturating


class _Entry:
    __slots__ = ('addr', 'taken_count', 'nt_count', 'lru')

    def __init__(self, addr, lru):
        self.addr = addr
        self.taken_count = 0
        self.nt_count = 0
        self.lru = lru


class BranchTargetBuffer:
    """2K-entry, 2-way set-associative BTB (Table 2)."""

    def __init__(self, entries=2048, ways=2):
        self.ways = ways
        self.num_sets = entries // ways
        self._sets = [[] for _ in range(self.num_sets)]
        self._tick = 0
        self.evictions = 0

    def edge_count(self, addr, taken):
        """Exercise count of one edge; a BTB miss reads as zero.

        A hit bumps the entry's LRU stamp, as every lookup does; a miss
        allocates nothing.
        """
        self._tick += 1
        for entry in self._sets[addr % self.num_sets]:
            if entry.addr == addr:
                entry.lru = self._tick
                return entry.taken_count if taken else entry.nt_count
        return 0

    def observe_edge(self, addr, taken):
        """Count one execution of an edge and return its entry.

        One lookup (allocating on a miss, evicting the set's least
        recently used entry) serves both the counter bump and the
        caller's spawn decision (:meth:`NTPathSelector.consider`).
        The engine inlines this and ``consider`` at every retired
        taken-path branch; ``tests/test_properties.py`` pins the two
        copies equal.
        """
        tick = self._tick + 1
        self._tick = tick
        entries = self._sets[addr % self.num_sets]
        for entry in entries:
            if entry.addr == addr:
                entry.lru = tick
                break
        else:
            if len(entries) >= self.ways:
                victim = min(entries, key=lambda e: e.lru)
                entries.remove(victim)
                self.evictions += 1
            entry = _Entry(addr, tick)
            entries.append(entry)
        if taken:
            if entry.taken_count < COUNTER_MAX:
                entry.taken_count += 1
        elif entry.nt_count < COUNTER_MAX:
            entry.nt_count += 1
        return entry

    def reset_counters(self):
        for entries in self._sets:
            for entry in entries:
                entry.taken_count = 0
                entry.nt_count = 0
