"""Unit tests for the BTB exercise counters and the NT-path selector.

They drive the pair the detailed CMP engine runs:
:meth:`BranchTargetBuffer.observe_edge`, the ``next_reset`` check and
:meth:`NTPathSelector.consider`.  ``tests/test_properties.py`` pins the
engine's inlined copy of the same decision equal to this pair.
"""

from repro.btb.btb import COUNTER_MAX, BranchTargetBuffer
from repro.core.config import PathExpanderConfig
from repro.core.selector import NTPathSelector


def _branch(selector, btb, addr, taken):
    """Retire a taken-path branch at ``addr`` going ``taken``; returns
    whether its other edge is selected for an NT-path."""
    return selector.consider(btb.observe_edge(addr, taken), not taken)


def _retire(selector, instret):
    """The engines' periodic-reset check at ``instret``."""
    if instret >= selector.next_reset:
        selector.reset_now(instret)


class TestBTB:
    def test_miss_reads_zero(self):
        btb = BranchTargetBuffer()
        assert btb.edge_count(1234, True) == 0
        assert btb.edge_count(1234, False) == 0

    def test_edges_counted_independently(self):
        btb = BranchTargetBuffer()
        btb.observe_edge(10, True)
        btb.observe_edge(10, True)
        btb.observe_edge(10, False)
        assert btb.edge_count(10, True) == 2
        assert btb.edge_count(10, False) == 1

    def test_counters_saturate_at_four_bits(self):
        btb = BranchTargetBuffer()
        for _ in range(100):
            btb.observe_edge(7, True)
        assert btb.edge_count(7, True) == COUNTER_MAX == 15

    def test_reset_clears_all(self):
        btb = BranchTargetBuffer()
        btb.observe_edge(3, True)
        btb.observe_edge(9, False)
        btb.reset_counters()
        assert btb.edge_count(3, True) == 0
        assert btb.edge_count(9, False) == 0
        # entries survive the reset, only counts clear
        assert sum(len(entries) for entries in btb._sets) == 2
        assert btb.evictions == 0

    def test_lru_eviction_loses_counts(self):
        # 2 entries, 1 way -> 2 sets; addresses 0 and 2 collide in set 0
        btb = BranchTargetBuffer(entries=2, ways=1)
        btb.observe_edge(0, True)
        btb.observe_edge(2, True)      # evicts address 0
        assert btb.evictions == 1
        assert btb.edge_count(0, True) == 0
        assert btb.edge_count(2, True) == 1

    def test_set_mapping(self):
        btb = BranchTargetBuffer(entries=8, ways=2)
        # different sets never interfere
        for addr in range(4):
            btb.observe_edge(addr, False)
        assert all(btb.edge_count(addr, False) == 1 for addr in range(4))


class TestSelector:
    def _selector(self, **overrides):
        config = PathExpanderConfig(**overrides)
        btb = BranchTargetBuffer()
        return NTPathSelector(btb, config), btb

    def test_spawns_until_threshold(self):
        selector, btb = self._selector(nt_counter_threshold=3)
        decisions = [_branch(selector, btb, 42, False) for _ in range(6)]
        assert decisions == [True, True, True, False, False, False]

    def test_entry_counts_toward_threshold(self):
        selector, btb = self._selector(nt_counter_threshold=5)
        btb.observe_edge(42, True)     # taken-path exercise
        btb.observe_edge(42, True)
        spawns = sum(_branch(selector, btb, 42, False) for _ in range(10))
        assert spawns == 3            # 2 exercises + 3 entries = 5

    def test_periodic_reset(self):
        selector, btb = self._selector(nt_counter_threshold=1,
                                       counter_reset_interval=1000)
        assert _branch(selector, btb, 7, True)
        assert not _branch(selector, btb, 7, True)
        _retire(selector, 1500)
        assert selector.resets == 1
        assert _branch(selector, btb, 7, True)

    def test_reset_schedule_advances(self):
        selector, _btb = self._selector(counter_reset_interval=100)
        _retire(selector, 150)
        _retire(selector, 200)             # before next boundary (250)
        assert selector.resets == 1
        _retire(selector, 260)
        assert selector.resets == 2

    def test_random_rate_zero_never_overrides(self):
        selector, btb = self._selector(nt_counter_threshold=1)
        assert _branch(selector, btb, 9, False)
        assert not any(_branch(selector, btb, 9, False)
                       for _ in range(200))

    def test_random_rate_one_always_spawns(self):
        selector, btb = self._selector(nt_counter_threshold=1,
                                       selection_random_rate=1.0)
        assert all(_branch(selector, btb, 9, False) for _ in range(50))
        assert selector.random_selected == 49

    def test_random_rate_is_probabilistic(self):
        selector, btb = self._selector(nt_counter_threshold=1,
                                       selection_random_rate=0.25)
        _branch(selector, btb, 9, False)      # saturate
        spawns = sum(_branch(selector, btb, 9, False)
                     for _ in range(2000))
        assert 350 < spawns < 650            # ~25% of 2000

    def test_random_sequence_deterministic(self):
        first, first_btb = self._selector(nt_counter_threshold=1,
                                          selection_random_rate=0.5,
                                          selection_random_seed=77)
        second, second_btb = self._selector(nt_counter_threshold=1,
                                            selection_random_rate=0.5,
                                            selection_random_seed=77)
        seq_a = [_branch(first, first_btb, 3, False) for _ in range(100)]
        seq_b = [_branch(second, second_btb, 3, False)
                 for _ in range(100)]
        assert seq_a == seq_b
