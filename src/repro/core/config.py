"""PathExpander configuration.

Defaults follow the paper's experimental setup (Sections 6.1, 6.3):
``NTPathCounterThreshold = 5``, ``MaxNTPathLength = 1000`` (100 for the
small Siemens benchmarks), ``MaxNumNTPaths = 32``, 4-core CMP, spawn
overhead 20 cycles, squash overhead 10 cycles, and the Table 2 memory
hierarchy.

The software-implementation cost constants model the PIN-based
implementation of Section 5; they are calibrated against published
PIN/Valgrind overhead ranges (see DESIGN.md, "Fidelity losses"): a JIT
dilation on every instruction, an analysis routine on every branch (the
exercise-history hash table), per-instruction termination monitoring on
NT-paths, a context checkpoint per spawn and a restore-log entry per
sandboxed store.

Two knobs implement the paper's stated future work and are off by
default: ``sandbox_unsafe_events`` (OS support that lets NT-paths run
through syscalls speculatively, Section 3.2) and
``selection_random_rate`` (a random factor in NT-path selection that
recovers exercised-edge misses, Section 7.1).  ``explore_nt_from_nt``
enables the Section 4.2(3) ablation the paper evaluated and rejected.
"""

from __future__ import annotations

import os

# Execution backends (PathExpanderEngine.INTERPRETERS maps each name to
# its interpreter class).  A config may pin one; otherwise the default
# is 'fast', and REPRO_BACKEND overrides it -- the CLI's and the
# benchmarks' --backend set that variable, which also reaches pool
# workers, so one flag steers every job a command spawns.
BACKEND_CHOICES = ('reference', 'fast')

DEFAULT_BACKEND = 'fast'


def default_backend():
    env = os.environ.get('REPRO_BACKEND')
    if env:
        if env not in BACKEND_CHOICES:
            raise ValueError('bad REPRO_BACKEND %r' % env)
        return env
    return DEFAULT_BACKEND


class Mode:
    BASELINE = 'baseline'      # detector only, no PathExpander
    STANDARD = 'standard'      # Fig. 4(a): checkpoint & sequential NT-paths
    CMP = 'cmp'                # Fig. 4(b): NT-paths on idle cores
    SOFTWARE = 'software'      # Section 5: PIN-style implementation

    ALL = (BASELINE, STANDARD, CMP, SOFTWARE)


class PathExpanderConfig:
    """All knobs in one explicit bag; everything has a paper default."""

    def __init__(self,
                 mode=Mode.STANDARD,
                 backend=None,
                 nt_counter_threshold=5,
                 counter_reset_interval=1_000_000,
                 max_nt_path_length=1000,
                 max_num_nt_paths=32,
                 variable_fixing=True,
                 explore_nt_from_nt=False,
                 # paper future-work extensions
                 sandbox_unsafe_events=False,
                 selection_random_rate=0.0,
                 selection_random_seed=0xC0FFEE,
                 num_cores=4,
                 max_instructions=50_000_000,
                 collect_nt_details=False,
                 # hardware costs (Table 2)
                 spawn_overhead=20,
                 squash_overhead=10,
                 l1_hit_latency=3,
                 l2_hit_latency=10,
                 l1_size_bytes=16384,
                 l1_ways=4,
                 l1_line_bytes=32,
                 btb_entries=2048,
                 btb_ways=2,
                 # software-implementation cost model (Section 5)
                 sw_dilation=5,
                 sw_branch_cost=50,
                 sw_nt_instr_cost=60,
                 sw_checkpoint_cost=5000,
                 sw_log_cost=30,
                 sw_restore_base=300,
                 sw_restore_per_entry=8):
        if mode not in Mode.ALL:
            raise ValueError('bad mode %r' % mode)
        self.mode = mode
        if backend is not None and backend not in BACKEND_CHOICES:
            raise ValueError('bad backend %r' % backend)
        # None = resolve default_backend() at engine-construction time,
        # so a config built before REPRO_BACKEND is set still honours
        # it (and job-cache keys stay backend-independent: both
        # backends produce identical results).
        self.backend = backend
        self.nt_counter_threshold = nt_counter_threshold
        self.counter_reset_interval = counter_reset_interval
        self.max_nt_path_length = max_nt_path_length
        self.max_num_nt_paths = max_num_nt_paths
        self.variable_fixing = variable_fixing
        self.explore_nt_from_nt = explore_nt_from_nt
        if not 0.0 <= selection_random_rate <= 1.0:
            raise ValueError('selection_random_rate must be in [0, 1]')
        self.sandbox_unsafe_events = sandbox_unsafe_events
        self.selection_random_rate = selection_random_rate
        self.selection_random_seed = selection_random_seed
        self.num_cores = num_cores
        self.max_instructions = max_instructions
        self.collect_nt_details = collect_nt_details
        self.spawn_overhead = spawn_overhead
        self.squash_overhead = squash_overhead
        self.l1_hit_latency = l1_hit_latency
        self.l2_hit_latency = l2_hit_latency
        self.l1_size_bytes = l1_size_bytes
        self.l1_ways = l1_ways
        self.l1_line_bytes = l1_line_bytes
        self.btb_entries = btb_entries
        self.btb_ways = btb_ways
        self.sw_dilation = sw_dilation
        self.sw_branch_cost = sw_branch_cost
        self.sw_nt_instr_cost = sw_nt_instr_cost
        self.sw_checkpoint_cost = sw_checkpoint_cost
        self.sw_log_cost = sw_log_cost
        self.sw_restore_base = sw_restore_base
        self.sw_restore_per_entry = sw_restore_per_entry

    @property
    def spawning_enabled(self):
        return self.mode != Mode.BASELINE

    @property
    def resolved_backend(self):
        """The backend to run with: pinned here, or the process default."""
        return self.backend if self.backend is not None \
            else default_backend()

    def replace(self, **overrides):
        """A copy of this config with some fields replaced."""
        fields = dict(self.__dict__)
        fields.update(overrides)
        return PathExpanderConfig(**fields)

    @classmethod
    def baseline(cls, **overrides):
        return cls(mode=Mode.BASELINE, **overrides)
