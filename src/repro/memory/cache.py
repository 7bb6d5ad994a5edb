"""Set-associative cache model with volatile/version tagging.

This models the L1 behaviour PathExpander relies on (Sections 4.1-4.3):

* NT-path stores are buffered in L1 lines marked with a *volatile tag*
  (standard configuration) or an 8-bit *path ID* (CMP optimisation).
* Squashing a path gang-invalidates all of its lines.
* A set that would need more volatile lines than it has ways signals a
  capacity overflow -- the NT-path cannot be sandboxed further and must
  be squashed (the paper chose the cache over a store buffer precisely
  to make this rare).
* On the taken path, displacing a dirty uncommitted line forces the
  owning segment to commit, which squashes its sibling NT-path.

The cache is a *state/timing* model: data values live in
:class:`~repro.memory.main_memory.MainMemory`; the cache tracks tags,
LRU order, latency, and ownership.
"""

from __future__ import annotations

COMMITTED = 0       # version id reserved for committed data


class CacheLine:
    __slots__ = ('tag', 'version', 'dirty', 'lru')

    def __init__(self, tag, version, dirty, lru):
        self.tag = tag
        self.version = version
        self.dirty = dirty
        self.lru = lru


class AccessResult:
    __slots__ = ('cycles', 'hit', 'volatile_overflow', 'displaced_dirty')

    def __init__(self, cycles, hit, volatile_overflow=False,
                 displaced_dirty=None):
        self.cycles = cycles
        self.hit = hit
        self.volatile_overflow = volatile_overflow
        self.displaced_dirty = displaced_dirty   # version id or None


class Cache:
    """One level of set-associative cache."""

    __slots__ = ('line_words', 'num_lines', 'num_sets', 'ways',
                 'hit_latency', 'miss_latency', '_sets', '_tick',
                 'hits', 'misses', '_hit_result',
                 '_last_tag', '_last_line', '_volatile')

    def __init__(self, size_bytes=16384, ways=4, line_bytes=32,
                 hit_latency=3, miss_latency=10, word_bytes=4):
        self.line_words = line_bytes // word_bytes
        self.num_lines = size_bytes // line_bytes
        self.num_sets = self.num_lines // ways
        self.ways = ways
        self.hit_latency = hit_latency
        self.miss_latency = miss_latency
        self._sets = [[] for _ in range(self.num_sets)]
        self._tick = 0
        self.hits = 0
        self.misses = 0
        # Hits dominate and their result fields never vary, so one
        # preallocated result serves them all (callers treat results as
        # read-only).
        self._hit_result = AccessResult(hit_latency, True)
        # Last-line memo, the only one: both backends reach it through
        # access().  Only an *exact* version match may use it: a
        # version-v line is always inserted before a committed line of
        # the same tag can appear, so exact match coincides with the
        # first-match scan below and the memo cannot change behaviour.
        self._last_tag = -1
        self._last_line = None
        # Exact list of resident lines with version != COMMITTED.
        # Squash-time gang invalidation then walks the (typically
        # tiny) volatile population instead of every set -- the
        # per-squash full-cache sweep would otherwise dominate
        # spawn-heavy runs.
        self._volatile = []

    def access(self, addr, is_write, version=COMMITTED):
        """Simulate one access; returns an :class:`AccessResult`."""
        tick = self._tick + 1
        self._tick = tick
        line_no = addr // self.line_words
        line = self._last_line
        if line is not None and self._last_tag == line_no \
                and line.version == version:
            if is_write:
                line.dirty = True
            line.lru = tick
            self.hits += 1
            return self._hit_result
        lines = self._sets[line_no % self.num_sets]
        tag = line_no
        for line in lines:
            if line.tag == tag and (line.version == version
                                    or line.version == COMMITTED):
                # A committed line written by a speculative path takes
                # on that path's version (copy-on-write at line level).
                if is_write:
                    line.dirty = True
                    if version != COMMITTED \
                            and line.version == COMMITTED:
                        line.version = version
                        self._volatile.append(line)
                line.lru = tick
                self.hits += 1
                self._last_tag = tag
                self._last_line = line
                return self._hit_result
        # miss: allocate
        self.misses += 1
        overflow = False
        displaced_dirty = None
        if len(lines) >= self.ways:
            victim = min(
                (line for line in lines if line.version == COMMITTED),
                key=lambda line: line.lru, default=None)
            if victim is None:
                # Every way holds an uncommitted (volatile) line.
                overflow = True
                victim = min(lines, key=lambda line: line.lru)
            if victim.dirty:
                displaced_dirty = victim.version
            lines.remove(victim)
            if victim.version != COMMITTED:
                self._volatile.remove(victim)    # rare: overflow only
        line = CacheLine(tag, version if is_write else COMMITTED,
                         is_write, self._tick)
        lines.append(line)
        if is_write and version != COMMITTED:
            self._volatile.append(line)
        self._last_tag = tag
        self._last_line = line
        return AccessResult(self.miss_latency, False,
                            volatile_overflow=overflow,
                            displaced_dirty=displaced_dirty)

    def gang_invalidate(self, version):
        """Drop every line owned by ``version`` (NT-path squash)."""
        volatile = self._volatile
        if not volatile:
            self._last_line = None
            return 0
        dropped = 0
        keep = []
        num_sets = self.num_sets
        for line in volatile:
            if line.version == version:
                self._sets[line.tag % num_sets].remove(line)
                dropped += 1
            else:
                keep.append(line)
        self._volatile = keep
        self._last_line = None
        return dropped

    def volatile_lines(self, version=None):
        if version is None:
            return len(self._volatile)
        return sum(1 for line in self._volatile
                   if line.version == version)

    def reset(self):
        self._sets = [[] for _ in range(self.num_sets)]
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self._last_tag = -1
        self._last_line = None
        self._volatile = []
