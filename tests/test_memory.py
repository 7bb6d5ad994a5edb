"""Unit tests for memory, allocator, cache and checkpointing."""

import gc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.exceptions import FaultKind, SimFault
from repro.detectors.memcheck import MemoryCheckLogic
from repro.memory.allocator import RED_ZONE, HeapAllocator
from repro.memory.cache import Cache
from repro.memory.main_memory import NULL_GUARD, MainMemory


class TestMainMemory:
    def test_read_write(self):
        mem = MainMemory(size=4096, globals_size=64)
        mem.write(100, 42)
        assert mem.read(100) == 42

    def test_null_guard_faults(self):
        mem = MainMemory(size=4096, globals_size=64)
        for addr in (0, 1, NULL_GUARD - 1):
            with pytest.raises(SimFault) as excinfo:
                mem.read(addr)
            assert excinfo.value.kind == FaultKind.NULL_ACCESS

    def test_out_of_bounds_faults(self):
        mem = MainMemory(size=4096, globals_size=64)
        with pytest.raises(SimFault) as excinfo:
            mem.write(4096, 1)
        assert excinfo.value.kind == FaultKind.MEM_OOB
        with pytest.raises(SimFault):
            mem.read(-100)

    def test_layout_regions_ordered(self):
        mem = MainMemory(size=1 << 16, globals_size=256)
        assert NULL_GUARD <= mem.monitor_base < mem.monitor_limit
        assert mem.monitor_limit == mem.heap_base
        assert mem.heap_base < mem.stack_limit < mem.stack_top == mem.size

    def test_journal_rollback_restores(self):
        mem = MainMemory(size=4096, globals_size=64)
        mem.write(500, 7)
        mem.begin_journal()
        mem.write(500, 99)
        mem.write(501, 1)
        assert mem.read(500) == 99
        undone = mem.rollback()
        assert undone == 2
        assert mem.read(500) == 7
        assert mem.read(501) == 0

    def test_journal_keeps_first_old_value(self):
        mem = MainMemory(size=4096, globals_size=64)
        mem.write(500, 7)
        mem.begin_journal()
        mem.write(500, 8)
        mem.write(500, 9)
        mem.rollback()
        assert mem.read(500) == 7

    def test_monitor_area_survives_rollback(self):
        mem = MainMemory(size=4096, globals_size=64)
        report_addr = mem.monitor_base + 3
        mem.begin_journal()
        mem.write(report_addr, 1234)
        mem.rollback()
        assert mem.read(report_addr) == 1234

    def test_commit_journal_keeps_values(self):
        mem = MainMemory(size=4096, globals_size=64)
        mem.begin_journal()
        mem.write(600, 5)
        mem.commit_journal()
        assert mem.read(600) == 5

    def test_nested_journal_rejected(self):
        mem = MainMemory(size=4096, globals_size=64)
        mem.begin_journal()
        with pytest.raises(RuntimeError):
            mem.begin_journal()

    def test_rollback_without_journal_rejected(self):
        mem = MainMemory(size=4096, globals_size=64)
        with pytest.raises(RuntimeError):
            mem.rollback()

    def test_string_round_trip(self):
        mem = MainMemory(size=4096, globals_size=64)
        mem.store_string(200, 'hello')
        assert mem.load_string(200) == 'hello'


def _in_generation(obj, generation):
    return any(other is obj
               for other in gc.get_objects(generation=generation))


class TestImagePromotion:
    """A new memory image goes straight to the oldest GC generation,
    so no young collection walks its slots, unless the caller froze
    its heap or turned the collector off."""

    def test_image_lands_in_oldest_generation(self):
        assert gc.isenabled() and gc.get_freeze_count() == 0
        mem = MainMemory(size=4096, globals_size=64)
        assert _in_generation(mem.cells, 2)

    def test_frozen_heap_stays_frozen(self):
        gc.collect()          # no collection during the construction
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            mem = MainMemory(size=4096, globals_size=64)
            assert gc.get_freeze_count() == frozen
            assert not _in_generation(mem.cells, 2)
        finally:
            gc.unfreeze()

    def test_disabled_collector_promotes_nothing(self):
        gc.disable()
        try:
            mem = MainMemory(size=4096, globals_size=64)
            assert _in_generation(mem.cells, 0)
        finally:
            gc.enable()


class TestAllocator:
    def _alloc(self):
        return HeapAllocator(1000, 5000)

    def test_malloc_returns_object_base(self):
        alloc = self._alloc()
        base = alloc.malloc(10)
        assert base == 1000 + RED_ZONE
        assert alloc.classify(base) == 'object'
        assert alloc.classify(base + 9) == 'object'

    def test_red_zones_flank_objects(self):
        alloc = self._alloc()
        base = alloc.malloc(10)
        assert alloc.classify(base - 1) == 'redzone'
        assert alloc.classify(base + 10) == 'redzone'

    def test_free_marks_dangling(self):
        alloc = self._alloc()
        base = alloc.malloc(4)
        assert alloc.free(base)
        assert alloc.classify(base) == 'freed'

    def test_double_free_rejected(self):
        alloc = self._alloc()
        base = alloc.malloc(4)
        assert alloc.free(base)
        assert not alloc.free(base)

    def test_free_wild_pointer_rejected(self):
        alloc = self._alloc()
        assert not alloc.free(1234)

    def test_freed_block_reused(self):
        alloc = self._alloc()
        first = alloc.malloc(8)
        alloc.free(first)
        second = alloc.malloc(8)
        assert second == first
        assert alloc.classify(second) == 'object'

    def test_wild_beyond_bump(self):
        alloc = self._alloc()
        alloc.malloc(4)
        assert alloc.classify(4000) == 'wild'

    def test_heap_exhaustion_faults(self):
        alloc = HeapAllocator(1000, 1020)
        with pytest.raises(SimFault):
            alloc.malloc(100)

    def test_zero_size_allocates_one_word(self):
        alloc = self._alloc()
        base = alloc.malloc(0)
        assert alloc.classify(base) == 'object'

    def test_snapshot_restore_round_trip(self):
        alloc = self._alloc()
        first = alloc.malloc(4)
        snap = alloc.snapshot()
        second = alloc.malloc(4)
        alloc.free(first)
        alloc.restore(snap)
        assert alloc.classify(first) == 'object'
        assert alloc.classify(second) in ('redzone', 'wild')
        assert alloc.alloc_count == 1

    def test_clone_is_independent(self):
        alloc = self._alloc()
        base = alloc.malloc(4)
        twin = alloc.clone()
        twin.free(base)
        assert alloc.classify(base) == 'object'
        assert twin.classify(base) == 'freed'


# One allocator operation: malloc(size), free of the n-th pointer handed
# out (live, freed or reused: valid, double and stale frees), a free of
# an arbitrary heap-ish address, or an NT-path transaction step.
_ALLOC_OPS = st.one_of(
    st.tuples(st.just('malloc'), st.integers(-1, 12)),
    st.tuples(st.just('free'), st.integers(0, 15)),
    st.tuples(st.just('free_at'), st.integers(300, 520)),
    st.tuples(st.just('begin_txn'), st.none()),
    st.tuples(st.just('rollback_txn'), st.none()),
)

# Globals as the compiler lays them out (2-word gaps), plus objects
# that start inside an earlier one (empty, and shorter): classify's
# bisect sees only the later object from its base on.
_GLOBALS = [('a', 16, 4), ('b', 22, 6), ('e', 25, 0), ('c', 30, 12),
            ('d', 33, 3), ('f', 45, 15)]


class TestShadow:
    """The checkers' shadow is exact: after every allocator operation,
    a word's byte is 1 if and only if ``classify`` calls it legal."""

    @staticmethod
    def _setup():
        memory = MainMemory(size=1024, globals_size=64)
        alloc = HeapAllocator(memory.heap_base, memory.stack_limit)
        return memory, alloc

    @staticmethod
    def _apply(alloc, op, arg, handed_out):
        if op == 'malloc':
            try:
                handed_out.append(alloc.malloc(arg))
            except SimFault:
                pass                    # heap exhausted: state unchanged
        elif op == 'free':
            if handed_out:
                alloc.free(handed_out[arg % len(handed_out)])
        elif op == 'free_at':
            alloc.free(arg)
        else:
            getattr(alloc, op)()

    @staticmethod
    def _assert_exact(logic, memory):
        shadow = logic.shadow
        words = range(NULL_GUARD, memory.size)
        wrong = [addr for addr in words
                 if bool(shadow[addr]) != (logic.classify(addr) is None)]
        assert wrong == []

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_ALLOC_OPS, min_size=8, max_size=40),
           st.integers(0, 12))
    def test_shadow_matches_classify(self, ops, attach_at):
        memory, alloc = self._setup()
        handed_out = []
        logic = None
        for index, (op, arg) in enumerate(ops + [('malloc', 0)]):
            if index == min(attach_at, len(ops)):
                logic = MemoryCheckLogic(
                    SimpleNamespace(global_objects=_GLOBALS), memory,
                    alloc)
                self._assert_exact(logic, memory)
            self._apply(alloc, op, arg, handed_out)
            if logic is not None:
                self._assert_exact(logic, memory)

    def test_clone_never_writes_the_shadow(self):
        memory, alloc = self._setup()
        logic = MemoryCheckLogic(SimpleNamespace(global_objects=_GLOBALS),
                                 memory, alloc)
        live = alloc.malloc(4)
        freed = alloc.malloc(6)
        alloc.free(freed)
        before = bytes(logic.shadow)
        twin = alloc.clone()
        assert twin.shadow is None
        twin.free(live)
        twin.malloc(2)
        twin.begin_txn()
        twin.malloc(9)
        twin.rollback_txn()
        twin.restore(twin.snapshot())
        assert bytes(logic.shadow) == before
        self._assert_exact(logic, memory)


class TestCache:
    def _cache(self):
        # tiny cache: 2 sets, 2 ways, 4-word lines
        return Cache(size_bytes=64, ways=2, line_bytes=16,
                     hit_latency=3, miss_latency=10)

    def test_miss_then_hit(self):
        cache = self._cache()
        first = cache.access(0, False)
        second = cache.access(1, False)      # same line
        assert not first.hit and first.cycles == 10
        assert second.hit and second.cycles == 3

    def test_lru_eviction(self):
        cache = self._cache()
        # set 0 holds lines with line_no % 2 == 0: line 0, 2, 4 ...
        cache.access(0, False)     # line 0
        cache.access(8, False)     # line 2
        cache.access(16, False)    # line 4 -> evicts line 0
        assert not cache.access(0, False).hit

    def test_volatile_overflow_when_all_ways_speculative(self):
        cache = self._cache()
        cache.access(0, True, version=1)    # line 0, volatile
        cache.access(8, True, version=1)    # line 2, volatile
        result = cache.access(16, True, version=1)
        assert result.volatile_overflow

    def test_committed_line_preferred_victim(self):
        cache = self._cache()
        cache.access(0, False)              # committed line 0
        cache.access(8, True, version=1)    # volatile line 2
        result = cache.access(16, True, version=1)
        assert not result.volatile_overflow   # committed line evicted
        assert cache.volatile_lines(1) == 2

    def test_gang_invalidate_drops_version_only(self):
        cache = self._cache()
        cache.access(0, False)
        cache.access(8, True, version=1)
        dropped = cache.gang_invalidate(1)
        assert dropped == 1
        assert cache.volatile_lines() == 0
        assert cache.access(0, False).hit

    def test_write_to_committed_line_takes_version(self):
        cache = self._cache()
        cache.access(0, False)
        cache.access(0, True, version=2)
        assert cache.volatile_lines(2) == 1

    def test_reset_clears_stats(self):
        cache = self._cache()
        cache.access(0, False)
        cache.reset()
        assert cache.hits == 0 and cache.misses == 0
        assert not cache.access(0, False).hit
