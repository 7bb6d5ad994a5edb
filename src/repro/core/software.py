"""Software-PathExpander cost model (Section 5).

The pure-software implementation runs the same NT-path exploration
algorithm under a PIN-style dynamic instrumentation tool.  Our
reproduction executes the identical algorithm on the simulator (so the
detection/coverage results match the hardware runs exactly, as the
paper also reports) and then re-costs the run with the software
instrumentation model:

* every executed instruction pays the JIT/dispatch dilation;
* every taken-path branch pays the exercise-history hash-table lookup;
* every NT-path instruction additionally pays the termination-condition
  monitoring instrumentation;
* every spawn pays a full processor-context checkpoint;
* every sandboxed store pays a restore-log append, and every squash
  pays the log-replay rollback.

Constants live in :class:`~repro.core.config.PathExpanderConfig` and
are calibrated from published PIN overhead figures (DESIGN.md).
"""

from __future__ import annotations


def software_cycles(result, config):
    """Estimate the software implementation's cycle count for a run."""
    dilated = result.primary_cycles * config.sw_dilation
    branch_cost = (result.taken_branch_count + result.nt_branch_count) \
        * config.sw_branch_cost
    nt_monitor = result.instret_nt * config.sw_nt_instr_cost
    checkpoints = result.nt_spawned * config.sw_checkpoint_cost
    logging = result.nt_store_count * config.sw_log_cost
    rollback = (result.nt_spawned * config.sw_restore_base
                + result.journal_entries_total
                * config.sw_restore_per_entry)
    return (dilated + branch_cost + nt_monitor + checkpoints
            + logging + rollback)


def apply_software_costs(result, config):
    """Mutate a run result so ``cycles`` reflects the software model."""
    result.cycles = software_cycles(result, config)
    return result
