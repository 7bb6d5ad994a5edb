"""Property-based tests (hypothesis) on core invariants.

* the MiniC compiler's expression evaluation agrees with a Python
  oracle on randomly generated expressions;
* the memory journal rollback is an exact inverse of any write
  sequence;
* the allocator never hands out overlapping objects and survives
  snapshot/restore round trips;
* the cache's volatile accounting is consistent under random access
  streams, and its last-line memo agrees with a full set scan;
* BTB counters saturate and never exceed 4 bits;
* PathExpander never changes a program's observable output, for
  arbitrary inputs.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.btb.btb import COUNTER_MAX, BranchTargetBuffer
from repro.core.config import Mode, PathExpanderConfig
from repro.core.runner import run_program
from repro.memory.allocator import HeapAllocator
from repro.memory.cache import Cache
from repro.memory.main_memory import MainMemory
from repro.minic.codegen import compile_minic
from tests.conftest import run_minic

_SETTINGS = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------
# expression oracle

_INT = st.integers(min_value=-50, max_value=50)
_NONZERO = st.integers(min_value=1, max_value=20)


def _expr_strategy(depth=0):
    leaves = st.one_of(
        _INT.map(lambda v: (str(v) if v >= 0 else '(0 - %d)' % -v, v)),
    )
    if depth >= 3:
        return leaves

    def combine(children):
        (ltext, lval), op, (rtext, rval) = children
        if op == '+':
            return ('(%s + %s)' % (ltext, rtext), lval + rval)
        if op == '-':
            return ('(%s - %s)' % (ltext, rtext), lval - rval)
        if op == '*':
            return ('(%s * %s)' % (ltext, rtext), lval * rval)
        if op == '<':
            return ('(%s < %s)' % (ltext, rtext), int(lval < rval))
        if op == '==':
            return ('(%s == %s)' % (ltext, rtext), int(lval == rval))
        return ('(%s & %s)' % (ltext, rtext), lval & rval)

    inner = _expr_strategy(depth + 1)
    composite = st.tuples(inner,
                          st.sampled_from(['+', '-', '*', '<', '==',
                                           '&']),
                          inner).map(combine)
    return st.one_of(leaves, composite)


class TestExpressionOracle:
    @_SETTINGS
    @given(_expr_strategy())
    def test_codegen_matches_python(self, pair):
        text, expected = pair
        result = run_minic('int main() { print_int(%s); return 0; }'
                           % text)
        assert not result.crashed
        assert int(result.output.strip()) == expected

    @_SETTINGS
    @given(_INT, _NONZERO)
    def test_c_division_semantics(self, numerator, divisor):
        result = run_minic(
            'int main() { print_int((%s) / %d); '
            'print_int((%s) %% %d); return 0; }'
            % ('0 - %d' % -numerator if numerator < 0 else numerator,
               divisor,
               '0 - %d' % -numerator if numerator < 0 else numerator,
               divisor))
        quotient, remainder = map(int, result.output.split())
        # C truncates toward zero
        expected_q = abs(numerator) // divisor
        if numerator < 0:
            expected_q = -expected_q
        assert quotient == expected_q
        assert remainder == numerator - expected_q * divisor


# ---------------------------------------------------------------------
# journal rollback

class TestJournalProperties:
    @_SETTINGS
    @given(st.lists(st.tuples(st.integers(min_value=400, max_value=500),
                              st.integers(-1000, 1000)),
                    min_size=1, max_size=60))
    def test_rollback_is_exact_inverse(self, writes):
        # note: addresses must sit outside the monitor memory area,
        # which by design survives rollback
        mem = MainMemory(size=4096, globals_size=64)
        assert all(not mem.in_monitor_area(a) for a, _v in writes)
        for addr in range(400, 501):
            mem.write(addr, addr * 7)
        before = list(mem.cells)
        mem.begin_journal()
        for addr, value in writes:
            mem.write(addr, value)
        mem.rollback()
        assert mem.cells == before

    @_SETTINGS
    @given(st.lists(st.tuples(st.integers(min_value=400, max_value=500),
                              st.integers(-1000, 1000)),
                    min_size=1, max_size=60))
    def test_commit_keeps_final_values(self, writes):
        mem = MainMemory(size=4096, globals_size=64)
        mem.begin_journal()
        final = {}
        for addr, value in writes:
            mem.write(addr, value)
            final[addr] = value
        mem.commit_journal()
        for addr, value in final.items():
            assert mem.read(addr) == value


# ---------------------------------------------------------------------
# allocator

class TestAllocatorProperties:
    @_SETTINGS
    @given(st.lists(st.integers(min_value=1, max_value=32),
                    min_size=1, max_size=40))
    def test_live_objects_never_overlap(self, sizes):
        alloc = HeapAllocator(1000, 100_000)
        intervals = []
        for size in sizes:
            base = alloc.malloc(size)
            intervals.append((base, base + size))
        intervals.sort()
        for (a_start, a_end), (b_start, _b_end) in zip(intervals,
                                                       intervals[1:]):
            assert a_end <= b_start
        # every word of every object classifies as 'object'
        for start, end in intervals:
            assert alloc.classify(start) == 'object'
            assert alloc.classify(end - 1) == 'object'

    @_SETTINGS
    @given(st.lists(st.tuples(st.integers(min_value=1, max_value=16),
                              st.booleans()),
                    min_size=1, max_size=30))
    def test_snapshot_restore_round_trip(self, script):
        alloc = HeapAllocator(1000, 100_000)
        live = []
        for size, do_free in script:
            base = alloc.malloc(size)
            live.append(base)
            if do_free and live:
                alloc.free(live.pop(0))
        snap = alloc.snapshot()
        classes = {base: alloc.classify(base) for base in live}
        # arbitrary churn after the snapshot
        for _ in range(10):
            alloc.malloc(8)
        for base in list(live):
            alloc.free(base)
        alloc.restore(snap)
        for base, kind in classes.items():
            assert alloc.classify(base) == kind


# ---------------------------------------------------------------------
# cache

class TestCacheProperties:
    @_SETTINGS
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=511),
                              st.booleans(),
                              st.integers(min_value=0, max_value=3)),
                    min_size=1, max_size=100))
    def test_volatile_accounting(self, accesses):
        cache = Cache(size_bytes=256, ways=2, line_bytes=16)
        for addr, is_write, version in accesses:
            cache.access(addr, is_write, version)
        total_volatile = cache.volatile_lines()
        per_version = sum(cache.volatile_lines(v) for v in range(1, 4))
        assert total_volatile == per_version
        for version in range(1, 4):
            cache.gang_invalidate(version)
        assert cache.volatile_lines() == 0

    @_SETTINGS
    @given(st.lists(st.integers(min_value=0, max_value=255),
                    min_size=1, max_size=80))
    def test_hits_plus_misses_equals_accesses(self, addresses):
        cache = Cache(size_bytes=256, ways=2, line_bytes=16)
        for addr in addresses:
            cache.access(addr, False)
        assert cache.hits + cache.misses == len(addresses)


    @settings(_SETTINGS, max_examples=200)
    @given(st.lists(st.one_of(
        # addr None re-touches the previous address: a memo candidate
        st.tuples(st.just('access'),
                  st.one_of(st.none(),
                            st.integers(min_value=0, max_value=47)),
                  st.booleans(), st.integers(min_value=0, max_value=2)),
        st.tuples(st.just('gang'), st.integers(min_value=1, max_value=2)),
        st.tuples(st.just('reset'))), min_size=1, max_size=150))
    def test_memo_equals_set_scan(self, ops):
        # The last-line memo in Cache.access is the only one both
        # backends use: a cache that always scans must agree with it.
        memo = Cache(size_bytes=128, ways=2, line_bytes=16)
        scan = Cache(size_bytes=128, ways=2, line_bytes=16)

        def touch(addr, is_write, version):
            scan._last_line = None
            got = memo.access(addr, is_write, version)
            want = scan.access(addr, is_write, version)
            assert (got.cycles, got.hit, got.volatile_overflow,
                    got.displaced_dirty) \
                == (want.cycles, want.hit, want.volatile_overflow,
                    want.displaced_dirty)

        addr = 0
        for op in ops:
            if op[0] == 'access':
                addr = addr if op[1] is None else op[1]
                touch(addr, op[2], op[3])
            elif op[0] == 'gang':
                assert memo.gang_invalidate(op[1]) \
                    == scan.gang_invalidate(op[1])
                # A squashed path's line must not survive in the memo.
                touch(addr, False, op[1])
            else:
                memo.reset()
                scan.reset()
            assert (memo.hits, memo.misses, memo.volatile_lines()) \
                == (scan.hits, scan.misses, scan.volatile_lines())


# ---------------------------------------------------------------------
# BTB

class TestBTBProperties:
    @_SETTINGS
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=63),
                              st.booleans()),
                    min_size=1, max_size=200))
    def test_counters_bounded(self, edges):
        btb = BranchTargetBuffer(entries=32, ways=2)
        for addr, taken in edges:
            btb.record_edge(addr, taken)
        for addr, taken in edges:
            count = btb.edge_count(addr, taken)
            assert 0 <= count <= COUNTER_MAX


# ---------------------------------------------------------------------
# end-to-end transparency

_TRANSPARENCY_SRC = '''
int log[16];
int main() {
  int a = read_int();
  int b = read_int();
  int total = 0;
  for (int i = 0; i < 24; i = i + 1) {
    if ((i + a) % 3 == 0) { total = total + i; }
    else if ((i + b) % 5 == 0) { total = total - 1; }
    if (total > 40) { total = total / 2; }
    log[i & 15] = total;
  }
  print_int(total);
  print_int(log[7]);
  return 0;
}
'''


class TestTransparencyProperty:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=1000),
           st.integers(min_value=0, max_value=1000))
    def test_pathexpander_never_changes_output(self, a, b):
        program = compile_minic(_TRANSPARENCY_SRC, name='transparency')
        baseline = run_program(
            program, config=PathExpanderConfig(mode=Mode.BASELINE),
            int_input=[a, b])
        for mode in (Mode.STANDARD, Mode.CMP):
            expanded = run_program(
                program, config=PathExpanderConfig(mode=mode),
                int_input=[a, b])
            assert expanded.output == baseline.output
            assert expanded.exit_code == baseline.exit_code
            assert not expanded.crashed
