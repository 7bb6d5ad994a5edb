"""Unit tests for the coverage tracker and the MiniC semantic tables."""

import pytest

from repro.core.runner import run_program
from repro.coverage.tracker import CoverageTracker
from repro.harness.experiments import _cumulative_coverage
from repro.minic.codegen import compile_minic
from repro.minic.sema import LocalSym, Scope, TypeTable
from repro.minic.types import (INT, ArrayType, MiniCError, PtrType,
                               StructType)


def _program():
    return compile_minic('''
        int main() {
          int x = read_int();
          if (x > 0) { print_int(1); }
          if (x > 10) { print_int(2); }
          return 0;
        }''', name='cov')


class TestCoverageTracker:
    def test_denominator_is_static_edges(self):
        program = _program()
        result = run_program(program, int_input=[5])
        assert result.total_edges == program.num_edges == 4
        assert result.baseline_coverage == result.baseline_covered / 4
        assert result.total_coverage == result.total_covered / 4

    def test_taken_vs_nt_accounting(self):
        edges = list(_program().branch_edges)
        tracker = CoverageTracker()
        tracker.record_taken(edges[0].branch_addr, edges[0].taken)
        tracker.record_nt(edges[1].branch_addr, edges[1].taken)
        taken, covered = tracker.edge_sets()
        assert taken == {(edges[0].branch_addr, edges[0].taken)}
        assert covered == {(edge.branch_addr, edge.taken)
                           for edge in edges[:2]}

    def test_duplicate_records_count_once(self):
        tracker = CoverageTracker()
        for _ in range(10):
            tracker.record_taken(5, True)
        assert tracker.edge_sets() == ({(5, True)}, {(5, True)})

    def test_same_edge_in_both_sets_counts_once_total(self):
        tracker = CoverageTracker()
        tracker.record_taken(5, True)
        tracker.record_nt(5, True)
        assert tracker.edge_sets() == ({(5, True)}, {(5, True)})

    def test_empty_program_coverage_zero(self):
        program = compile_minic('int main() { return 0; }', name='nobr')
        result = run_program(program)
        assert result.total_edges == 0
        assert result.baseline_coverage == 0.0
        assert result.total_coverage == 0.0
        assert _cumulative_coverage([result]) == (0.0, 0.0)

    def test_edge_key_sets_are_copies(self):
        tracker = CoverageTracker()
        tracker.record_taken(5, True)
        taken, covered = tracker.edge_sets()
        taken.add(('bogus', True))
        covered.add(('bogus', True))
        assert tracker.edge_sets() == ({(5, True)}, {(5, True)})


class _Run:
    """The fields ``_cumulative_coverage`` reads from a RunResult."""

    def __init__(self, taken_edges, covered_edges, total_edges=4):
        self.taken_edges = taken_edges
        self.covered_edges = covered_edges
        self.total_edges = total_edges


class TestCumulativeUnion:
    def test_union_over_runs(self):
        runs = [_Run({(5, True)}, {(5, True), (5, False)}),
                _Run({(9, True)}, {(9, True)})]
        assert _cumulative_coverage(runs) == (2 / 4, 3 / 4)

    def test_union_of_tracked_runs(self):
        tracker = CoverageTracker()
        tracker.record_taken(5, True)
        tracker.record_nt(9, False)
        other = CoverageTracker()
        other.record_taken(5, True)
        other.record_nt(5, False)
        runs = [_Run(*t.edge_sets()) for t in (tracker, other)]
        assert _cumulative_coverage(runs) == (1 / 4, 3 / 4)


class TestTypeSystem:
    def test_sizes(self):
        assert INT.size == 1
        assert PtrType(INT).size == 1
        assert ArrayType(INT, 7).size == 7

    def test_struct_layout_offsets(self):
        struct = StructType('s')
        struct.add_field('a', INT)
        struct.add_field('arr', ArrayType(INT, 3))
        struct.add_field('b', PtrType(INT))
        assert struct.size == 5
        assert struct.field('a') == (0, INT)
        offset, ftype = struct.field('arr')
        assert offset == 1 and ftype.size == 3
        assert struct.field('b')[0] == 4

    def test_duplicate_field_rejected(self):
        struct = StructType('s')
        struct.add_field('a', INT)
        with pytest.raises(MiniCError):
            struct.add_field('a', INT)

    def test_unknown_field_rejected(self):
        struct = StructType('s')
        struct.add_field('a', INT)
        with pytest.raises(MiniCError):
            struct.field('ghost')

    def test_type_equality(self):
        assert PtrType(INT) == PtrType(INT)
        assert PtrType(PtrType(INT)) != PtrType(INT)
        assert StructType('a') == StructType('a')
        assert StructType('a') != StructType('b')

    def test_array_decay(self):
        arr = ArrayType(PtrType(INT), 4)
        assert arr.decay() == PtrType(PtrType(INT))


class TestTypeTable:
    def test_resolve_basic(self):
        table = TypeTable()
        assert table.resolve(('int', 0)) == INT
        assert table.resolve(('int', 2)) == PtrType(PtrType(INT))

    def test_void_pointer_is_int_pointer(self):
        table = TypeTable()
        assert table.resolve(('void', 1)) == PtrType(INT)

    def test_void_return(self):
        table = TypeTable()
        assert table.resolve(('void', 0)) is None

    def test_self_referential_struct(self):
        from repro.minic.parser import parse
        unit = parse('struct node { int v; struct node *next; };'
                     'int main() { return 0; }')
        table = TypeTable()
        struct = table.declare_struct(unit.structs[0])
        assert struct.size == 2
        _offset, next_type = struct.field('next')
        assert next_type.pointee is struct

    def test_unknown_struct_rejected(self):
        table = TypeTable()
        with pytest.raises(MiniCError):
            table.resolve(('ghost', 0))

    def test_field_array_spec(self):
        table = TypeTable()
        resolved = table.resolve(('int', 1, 4))
        assert isinstance(resolved, ArrayType)
        assert resolved.elem == PtrType(INT)


class TestScopes:
    def test_nested_lookup(self):
        outer = Scope()
        outer.define(LocalSym('x', INT, -1))
        inner = Scope(outer)
        inner.define(LocalSym('y', INT, -2))
        assert inner.lookup('x').offset == -1
        assert inner.lookup('y').offset == -2
        assert outer.lookup('y') is None

    def test_shadowing(self):
        outer = Scope()
        outer.define(LocalSym('x', INT, -1))
        inner = Scope(outer)
        inner.define(LocalSym('x', INT, -5))
        assert inner.lookup('x').offset == -5
        assert outer.lookup('x').offset == -1

    def test_duplicate_in_same_scope_rejected(self):
        scope = Scope()
        scope.define(LocalSym('x', INT, -1))
        with pytest.raises(MiniCError):
            scope.define(LocalSym('x', INT, -2))
