"""Set-associative cache model with volatile/version tagging.

This models the L1 behaviour PathExpander relies on (Sections 4.1-4.3):

* NT-path stores are buffered in L1 lines marked with a *volatile tag*
  (standard configuration) or an 8-bit *path ID* (CMP optimisation).
* Squashing a path gang-invalidates all of its lines.
* A store that would need more volatile lines in its set than it has
  ways raises :class:`~repro.cpu.exceptions.VolatileOverflow` -- the
  NT-path cannot be sandboxed further and must be squashed (the paper
  chose the cache over a store buffer precisely to make this rare).

The cache is a *state/timing* model: data values live in
:class:`~repro.memory.main_memory.MainMemory`; the cache tracks tags,
LRU order, latency, and ownership.
"""

from __future__ import annotations

from repro.cpu.exceptions import VolatileOverflow

COMMITTED = 0       # version id reserved for committed data


class CacheLine:
    __slots__ = ('tag', 'version', 'lru')

    def __init__(self, tag, version, lru):
        self.tag = tag
        self.version = version
        self.lru = lru


class Cache:
    """One level of set-associative cache."""

    __slots__ = ('line_words', 'num_lines', 'num_sets', 'ways',
                 'hit_latency', 'miss_latency', '_sets', '_tick',
                 'hits', 'misses', '_last_tag', '_last_line',
                 '_volatile')

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

    @classmethod
    def l1(cls, config):
        """The L1 a :class:`~repro.core.config.PathExpanderConfig`
        describes."""
        return cls(size_bytes=config.l1_size_bytes, ways=config.l1_ways,
                   line_bytes=config.l1_line_bytes,
                   hit_latency=config.l1_hit_latency,
                   miss_latency=config.l2_hit_latency)

    def access(self, addr, is_write, version=COMMITTED):
        """Simulate one access; returns its latency in cycles.

        A write miss by a non-committed version into a set of volatile
        lines completes the replacement, then raises
        :class:`VolatileOverflow`.  ``enter_nt``/``exit_nt`` set an
        interpreter's ``cache_version`` and ``in_nt_path`` together,
        so only NT-path stores raise; reads never do."""
        tick = self._tick + 1
        self._tick = tick
        line_no = addr // self.line_words
        line = self._last_line
        if line is not None and self._last_tag == line_no \
                and line.version == version:
            line.lru = tick
            self.hits += 1
            return self.hit_latency
        lines = self._sets[line_no % self.num_sets]
        tag = line_no
        for line in lines:
            if line.tag == tag and (line.version == version
                                    or line.version == COMMITTED):
                # A committed line written by a speculative path takes
                # on that path's version (copy-on-write at line level).
                if is_write and version != COMMITTED \
                        and line.version == COMMITTED:
                    line.version = version
                    self._volatile.append(line)
                line.lru = tick
                self.hits += 1
                self._last_tag = tag
                self._last_line = line
                return self.hit_latency
        # miss: allocate
        self.misses += 1
        overflow = False
        if len(lines) >= self.ways:
            victim = min(
                (line for line in lines if line.version == COMMITTED),
                key=lambda line: line.lru, default=None)
            if victim is None:
                # Every way holds an uncommitted (volatile) line.
                overflow = True
                victim = min(lines, key=lambda line: line.lru)
            lines.remove(victim)
            if victim.version != COMMITTED:
                self._volatile.remove(victim)    # rare: overflow only
        speculative = is_write and version != COMMITTED
        line = CacheLine(tag, version if speculative else COMMITTED,
                         tick)
        lines.append(line)
        if speculative:
            self._volatile.append(line)
        self._last_tag = tag
        self._last_line = line
        if overflow and speculative:
            raise VolatileOverflow(self.miss_latency)
        return self.miss_latency

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
