"""Differential fuzzing: the sandbox must be invisible.

Generates random (but crash-free) MiniC programs and asserts that the
observable behaviour -- output, exit code -- is bit-identical across
the baseline, the standard configuration, the CMP scheduling engine and
the detailed Fig. 6 engine, and that coverage accounting stays
consistent.  This is the strongest form of the paper's transparency
requirement.

A second generator reaches the heap: ``malloc``/``free``, unmasked
reads and writes that land in red zones, neighbouring objects or
freed blocks, and double frees.  Those programs run under CCured and
iWatcher, where both backends and the all-zero-shadow oracle (see
``tests/test_shadow.py``) must agree.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import Mode, PathExpanderConfig
from repro.core.runner import make_detector, run_detailed_cmp, run_program
import repro.cpu.fastinterp as fastinterp
from repro.minic.codegen import compile_minic
from tests.conftest import zero_shadow_detector

_SETTINGS = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

# Block promotion thresholds: compile on first entry, the default, never.
_THRESHOLDS = (1, fastinterp._PROMOTE_AFTER, float('inf'))

# L1 (size in bytes, ways): the paper's, and a direct-mapped 256 B one
# whose volatile ways random NT-path stores overflow, often mid-block.
_L1_GEOMETRIES = ((16384, 4), (256, 1))

_VARS = ('a', 'b', 'c')


def _expr(depth):
    leaf = st.one_of(
        st.integers(min_value=-40, max_value=40).map(
            lambda v: '(0 - %d)' % -v if v < 0 else str(v)),
        st.sampled_from(_VARS),
        st.integers(min_value=0, max_value=7).map(
            lambda i: 'arr[%d]' % i),
    )
    if depth >= 2:
        return leaf
    inner = _expr(depth + 1)
    composite = st.tuples(inner, st.sampled_from(['+', '-', '*', '&',
                                                  '<', '==']),
                          inner).map(lambda t: '(%s %s %s)' % t)
    return st.one_of(leaf, composite)


def _statement(depth):
    assign = st.tuples(st.sampled_from(_VARS), _expr(depth)).map(
        lambda t: '%s = %s;' % t)
    array_store = st.tuples(_expr(depth), _expr(depth)).map(
        lambda t: 'arr[(%s) & 7] = %s;' % t)
    emit = _expr(depth).map(lambda e: 'print_int(%s);' % e)
    if depth >= 2:
        return st.one_of(assign, array_store, emit)
    body = _statement(depth + 1)
    conditional = st.tuples(_expr(depth + 1), body, body).map(
        lambda t: 'if (%s) { %s } else { %s }' % t)
    loop = st.tuples(st.integers(min_value=1, max_value=6), body).map(
        lambda t: ('for (int i%d = 0; i%d < %d; i%d = i%d + 1) { %s }'
                   % (t[0], t[0], t[0], t[0], t[0], t[1])))
    return st.one_of(assign, array_store, emit, conditional, loop)


_PROGRAM = st.lists(_statement(0), min_size=3, max_size=10).map(
    lambda stmts: '''
int arr[8];
int main() {
  int a = read_int();
  int b = read_int();
  int c = 0;
  %s
  print_int(a); print_int(b); print_int(c);
  print_int(arr[0] + arr[3] + arr[7]);
  return 0;
}''' % '\n  '.join(stmts))


# Heap programs: two pointers, each (re)allocated with 0, 2 or 4
# words (0 allocates one).  Indices are unmasked, from the lower red
# zone to past the upper one, so reads and writes hit objects, both
# red zones, neighbours and freed blocks; frees may repeat.
_PTRS = ('p', 'q')
_HEAP_INDEX = st.integers(min_value=-2, max_value=6).map(
    lambda i: '(0 - %d)' % -i if i < 0 else str(i))


def _heap_expr():
    return st.one_of(
        _expr(1),
        st.tuples(st.sampled_from(_PTRS), _HEAP_INDEX).map(
            lambda t: '%s[%s]' % t))


def _heap_statement(depth):
    alloc = st.tuples(st.sampled_from(_PTRS),
                      st.sampled_from((0, 2, 4))).map(
        lambda t: '%s = malloc(%d);' % t)
    release = st.sampled_from(_PTRS).map(lambda ptr: 'free(%s);' % ptr)
    store = st.tuples(st.sampled_from(_PTRS), _HEAP_INDEX,
                      _heap_expr()).map(lambda t: '%s[%s] = %s;' % t)
    load = _heap_expr().map(lambda e: 'c = c + %s;' % e)
    flat = st.one_of(alloc, release, store, load)
    if depth >= 1:
        return flat
    body = st.lists(_heap_statement(depth + 1), min_size=1,
                    max_size=3).map(' '.join)
    conditional = st.tuples(_expr(1), body, body).map(
        lambda t: 'if (%s) { %s } else { %s }' % t)
    loop = st.tuples(st.integers(min_value=1, max_value=4), body).map(
        lambda t: ('for (int i%d = 0; i%d < %d; i%d = i%d + 1) { %s }'
                   % (t[0], t[0], t[0], t[0], t[0], t[1])))
    return st.one_of(flat, conditional, loop)


_HEAP_PROGRAM = st.lists(_heap_statement(0), min_size=3,
                         max_size=10).map(
    lambda stmts: '''
int arr[8];
int main() {
  int a = read_int();
  int b = read_int();
  int c = 0;
  int *p = malloc(4);
  int *q = malloc(2);
  %s
  print_int(a); print_int(b); print_int(c);
  return 0;
}''' % '\n  '.join(stmts))


class TestDifferentialFuzz:
    @_SETTINGS
    @given(_PROGRAM, st.integers(0, 100), st.integers(0, 100))
    def test_all_engines_agree(self, source, a, b):
        program = compile_minic(source, name='fuzz')
        inputs = [a, b]
        results = {}
        baseline = run_program(
            program, config=PathExpanderConfig(mode=Mode.BASELINE),
            int_input=inputs)
        assert not baseline.crashed, 'generator must be crash-free'
        for mode in (Mode.STANDARD, Mode.CMP):
            results[mode] = run_program(
                program, config=PathExpanderConfig(mode=mode),
                int_input=inputs)
        results['detailed'] = run_detailed_cmp(
            program, config=PathExpanderConfig(mode=Mode.CMP),
            int_input=inputs)
        for label, result in results.items():
            assert result.output == baseline.output, label
            assert result.exit_code == baseline.exit_code, label
            assert not result.crashed, label
            assert result.baseline_covered <= result.total_covered \
                <= result.total_edges, label

    @_SETTINGS
    @given(_PROGRAM, st.integers(0, 100))
    def test_standard_and_detailed_find_same_edges(self, source, seed):
        program = compile_minic(source, name='fuzz_cov')
        standard = run_program(
            program, config=PathExpanderConfig(mode=Mode.STANDARD),
            int_input=[seed, seed + 1])
        detailed = run_detailed_cmp(
            program,
            config=PathExpanderConfig(mode=Mode.CMP,
                                      max_num_nt_paths=64),
            int_input=[seed, seed + 1])
        # The detailed engine may skip spawns only through the
        # outstanding-path cap; with a high cap, covered edges match.
        assert detailed.covered_edges == standard.covered_edges


class TestBackendFuzz:
    """Property form of the dual-backend equivalence invariant
    (DESIGN.md): for random programs and L1 geometries, the fast
    backend's RunResult is byte-identical to the reference backend's in
    every mode, whenever (or whether) its blocks are compiled: at each
    block promotion threshold, on a cold and then a warm block memo."""

    @_SETTINGS
    @given(_PROGRAM, st.integers(0, 100), st.integers(0, 100),
           st.sampled_from(_L1_GEOMETRIES))
    def test_backends_identical_in_every_mode(self, source, a, b, l1):
        program = compile_minic(source, name='fuzz_backend')
        for mode in Mode.ALL:
            reference = self._run(program, mode, 'reference', a, b, l1)
            for threshold in _THRESHOLDS:
                program.block_memo.clear()
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(fastinterp, '_PROMOTE_AFTER',
                                  threshold)
                    for memo in ('cold', 'warm'):
                        fast = self._run(program, mode, 'fast', a, b,
                                         l1)
                        assert fast == reference, (mode, threshold,
                                                   memo)

    @staticmethod
    def _run(program, mode, backend, a, b, l1):
        size, ways = l1
        return run_program(
            program, detector='ccured',
            config=PathExpanderConfig(mode=mode, backend=backend,
                                      l1_size_bytes=size, l1_ways=ways),
            int_input=[a, b]).to_dict()


class TestHeapFuzz:
    """Heap programs under the memory checkers: the fast backend at
    every promotion threshold, and the all-zero-shadow oracle on both
    backends, give the reference backend's RunResult byte for byte."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_HEAP_PROGRAM, st.sampled_from(Mode.ALL),
           st.integers(0, 100), st.integers(0, 100))
    def test_backends_and_oracle_agree(self, source, mode, a, b):
        program = compile_minic(source, name='fuzz_heap')
        for tool in ('ccured', 'iwatcher'):
            expected = self._run(program, make_detector(tool), mode,
                                 'reference', a, b)
            assert self._run(program, zero_shadow_detector(tool), mode,
                             'reference', a, b) == expected, tool
            for threshold in _THRESHOLDS:
                program.block_memo.clear()
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(fastinterp, '_PROMOTE_AFTER',
                                  threshold)
                    for detector in (make_detector(tool),
                                     zero_shadow_detector(tool)):
                        fast = self._run(program, detector, mode,
                                         'fast', a, b)
                        assert fast == expected, (
                            tool, threshold, type(detector).__name__)

    @staticmethod
    def _run(program, detector, mode, backend, a, b):
        return run_program(
            program, detector=detector,
            config=PathExpanderConfig(mode=mode, backend=backend),
            int_input=[a, b]).to_dict()
