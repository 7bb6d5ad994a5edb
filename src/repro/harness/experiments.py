"""Experiment drivers: one per table/figure of the paper.

Each driver is a *plan* returning ``(specs, tabulate)``: the
:class:`~repro.jobs.spec.JobSpec` list of every run its table needs,
and a pure step from their results to the
:class:`~repro.harness.reporting.ExperimentResult`.  :func:`_experiment`
registers the plan in :data:`EXPERIMENTS` and makes the public
``run_*`` driver, which resolves the specs through :func:`_run_jobs`,
in-process or through an optional ``pool``; :func:`run_batch` resolves
several experiments in one call, so a run they share executes once.
Pooled, serial and cached execution give identical tables (DESIGN.md).
val1's detailed-CMP runs use an engine a ``JobSpec`` cannot name, so
they alone run in-process, inside its table step.
"""

from __future__ import annotations

import functools
import itertools
import math

from repro.apps.bugs import classify_reports
from repro.apps.registry import (BUGGY_APP_NAMES, WORKLOAD_APP_NAMES,
                                 get_app, total_tested_bugs)
from repro.core.config import Mode, PathExpanderConfig
from repro.core.result import NTPathTermination
from repro.core.runner import make_detector, run_detailed_cmp, run_job
from repro.harness.plots import coverage_bars, fig3_plot
from repro.harness.reporting import ExperimentResult, percent
from repro.jobs.spec import JobSpec
from repro.workloads.inputs import CUMULATIVE_APP_NAMES, input_suite

# Memory-bug applications and the versions carrying their bugs,
# evaluated with both CCured and iWatcher (Tables 3-5).
MEMORY_BUG_TARGETS = (('go_app', 0), ('bc_calc', 0), ('man_fmt', 0),
                      ('print_tokens2', 10))
MEMORY_TOOLS = ('ccured', 'iwatcher')
MEMORY_RUNS = tuple((tool, app_name, version) for tool in MEMORY_TOOLS
                    for app_name, version in MEMORY_BUG_TARGETS)

# experiment id -> driver, in the paper's order.
EXPERIMENTS = {}


def _app_job(app_name, detector, mode=Mode.STANDARD, version=0,
             inputs=None, **overrides):
    """One run of a registered app as a spec.  Overrides equal to the
    app's default for ``mode`` are dropped: one run, one key."""
    app = get_app(app_name)
    text, ints = inputs if inputs is not None else app.default_input()
    default = app.make_config(mode=mode)
    overrides = {name: value for name, value in overrides.items()
                 if getattr(default, name) != value}
    return JobSpec.for_app(app_name, version=version, mode=mode,
                           detector=detector,
                           config_overrides=overrides,
                           text_input=text, int_input=ints)


def _run_jobs(pool, specs):
    """Resolve specs in list order, through a JobPool or in-process.
    Each distinct ``spec.key`` runs once; its slots share one result
    object, so table steps must not mutate results."""
    distinct = list({spec.key: spec for spec in specs}.values())
    if pool is not None:
        results = pool.run(distinct)
    else:
        results = [run_job(spec) for spec in distinct]
    by_key = {spec.key: result for spec, result in zip(distinct, results)}
    return [by_key[spec.key] for spec in specs]


def _experiment(exp_id):
    """Register a plan as ``exp_id``; its driver takes the plan's
    arguments plus ``pool=None`` and returns ``tabulate(_run_jobs(pool,
    specs))``.  ``driver.plan`` is the plan."""
    def register(plan):
        @functools.wraps(plan)
        def driver(*args, pool=None, **kwargs):
            specs, tabulate = plan(*args, **kwargs)
            return tabulate(_run_jobs(pool, specs))
        driver.plan = plan
        EXPERIMENTS[exp_id] = driver
        return driver
    return register


def run_batch(ids, pool=None, **kwargs):
    """The tables of experiments ``ids`` (``kwargs`` go to each plan),
    resolved in one :func:`_run_jobs` call."""
    plans = [EXPERIMENTS[exp_id].plan(**kwargs) for exp_id in ids]
    results = iter(_run_jobs(pool, [spec for specs, _ in plans
                                    for spec in specs]))
    return [tabulate(list(itertools.islice(results, len(specs))))
            for specs, tabulate in plans]


# ---------------------------------------------------------------------
# Table 2: machine parameters (configuration inventory)

@_experiment('table2')
def run_table2():
    config = PathExpanderConfig()
    rows = [
        ('spawn overhead', '%d cycles' % config.spawn_overhead),
        ('squash overhead', '%d cycles' % config.squash_overhead),
        ('L1 cache', '%dKB, %d-way, %dB/line, %d cycles'
         % (config.l1_size_bytes // 1024, config.l1_ways,
            config.l1_line_bytes, config.l1_hit_latency)),
        ('L2 latency', '%d cycles' % config.l2_hit_latency),
        ('BTB', '%d entries, %d-way' % (config.btb_entries,
                                        config.btb_ways)),
        ('cores (CMP option)', str(config.num_cores)),
        ('NTPathCounterThreshold', str(config.nt_counter_threshold)),
        ('MaxNTPathLength', '%d (100 for Siemens apps)'
         % config.max_nt_path_length),
        ('MaxNumNTPaths', str(config.max_num_nt_paths)),
        ('CounterResetInterval', '%d instructions'
         % config.counter_reset_interval),
    ]
    return [], lambda _results: ExperimentResult(
        'table2', 'Simulated machine and PathExpander parameters',
        ['parameter', 'value'], rows,
        notes=['mirrors Table 2 and the Section 6.3 defaults'])


# ---------------------------------------------------------------------
# Table 3: applications and bugs

@_experiment('table3')
def run_table3():
    rows = []
    for name in BUGGY_APP_NAMES:
        app = get_app(name)
        source_lines = sum(
            len(app.source(version).splitlines())
            for version in (sorted(app.versions) or [0])[:1])
        bug_count = sum(
            (2 if bug.is_memory_bug else 1)
            for bugs in app.versions.values() for bug in bugs)
        tools = '+'.join(app.tools)
        rows.append((name, source_lines, bug_count, tools))
    rows.append(('TOTAL', '', total_tested_bugs(), ''))
    return [], lambda _results: ExperimentResult(
        'table3', 'Applications and tested bugs',
        ['application', 'source lines', 'tested bugs', 'tools'], rows,
        notes=['paper: 38 tested bugs across seven buggy applications',
               'memory bugs count once per memory tool '
               '(CCured and iWatcher)'])


# ---------------------------------------------------------------------
# Table 4: bug detection, baseline vs PathExpander

@_experiment('table4')
def run_table4(mode=Mode.STANDARD):
    targets = list(MEMORY_RUNS) + [
        ('assertions', app_name, version)
        for app_name in BUGGY_APP_NAMES
        for version in get_app(app_name).assertion_versions]
    specs = [_app_job(app_name, tool, mode=run_mode, version=version)
             for tool, app_name, version in targets
             for run_mode in (Mode.BASELINE, mode)]

    def tabulate(results):
        # (tool, app) -> [#bugs tested, baseline found, PE found]
        grouped = {}
        for (tool, app_name, version), base, expanded in zip(
                targets, results[::2], results[1::2]):
            bugs = get_app(app_name).bugs(version)
            agg = grouped.setdefault((tool, app_name), [0, 0, 0])
            agg[0] += len(bugs)
            agg[1] += len(classify_reports(base.reports, bugs)[0])
            agg[2] += len(classify_reports(expanded.reports, bugs)[0])
        rows = [[tool, app_name] + agg
                for (tool, app_name), agg in grouped.items()]
        rows.append(['TOTAL', ''] + [sum(row[col] for row in rows)
                                     for col in (2, 3, 4)])
        return ExperimentResult(
            'table4', 'Bug detection results (baseline vs PathExpander)',
            ['tool', 'application', '#bugs tested', 'baseline detected',
             'PathExpander detected'], rows,
            notes=['paper: 38 tested, 0 detected at baseline, 21 with '
                   'PathExpander',
                   'paper constraints: print_tokens 5/7, bc 1/2, '
                   'schedule v1&v3 missed (value coverage), '
                   'print_tokens2 v3 missed (inconsistency), '
                   'print_tokens2 v6 and go missed (special input)'])
    return specs, tabulate


# ---------------------------------------------------------------------
# Table 5: consistency fixing -- false positives and detections

@_experiment('table5')
def run_table5():
    specs = [_app_job(app_name, tool, version=version,
                      variable_fixing=fixing)
             for tool, app_name, version in MEMORY_RUNS
             for fixing in (False, True)]

    def tabulate(results):
        rows = []
        for (tool, app_name, version), unfixed, fixed in zip(
                MEMORY_RUNS, results[::2], results[1::2]):
            bugs = get_app(app_name).bugs(version)
            found_before, fps_before = classify_reports(
                unfixed.reports, bugs)
            found_after, fps_after = classify_reports(
                fixed.reports, bugs)
            rows.append((tool, app_name, len(fps_before),
                         len(fps_after), len(found_before),
                         len(found_after)))
        count = len(rows)
        rows.append(('AVERAGE', '',
                     round(sum(row[2] for row in rows) / count, 2),
                     round(sum(row[3] for row in rows) / count, 2), '', ''))
        return ExperimentResult(
            'table5', 'Effect of key-variable consistency fixing',
            ['tool', 'application', 'FP before fix', 'FP after fix',
             'bugs before fix', 'bugs after fix'], rows,
            notes=['paper: false positives drop from 13 to 4 on '
                   'average; the man bug is detected only after fixing'])
    return specs, tabulate


# ---------------------------------------------------------------------
# Figure 3: crash-latency / unsafe-latency CDFs

FIG3_APPS = ('go_app', 'gzip_app', 'vpr_app')
FIG3_BUCKETS = (10, 50, 100, 200, 500, 999)

# Section 3.2 setup, shared by fig3, abl1 and ext1: spawn at every
# zero-count non-taken edge, no variable fixing, run to the
# 1000-instruction threshold.
LATENCY_SETUP = dict(nt_counter_threshold=1, variable_fixing=False,
                     max_nt_path_length=1000, collect_nt_details=True)


@_experiment('fig3')
def run_fig3(apps=FIG3_APPS):
    specs = [_app_job(app_name, 'none', **LATENCY_SETUP)
             for app_name in apps]

    def tabulate(results):
        rows = []
        for app_name, result in zip(apps, results):
            records = result.nt_details
            total = max(len(records), 1)
            stopped = [r for r in records
                       if r.reason in (NTPathTermination.CRASH,
                                       NTPathTermination.UNSAFE)]
            crash = [r for r in stopped
                     if r.reason == NTPathTermination.CRASH]
            row = [app_name, len(records)]
            for bucket in FIG3_BUCKETS:
                ratio = sum(1 for r in stopped
                            if r.length <= bucket) / total
                row.append(percent(ratio))
            row.append(percent(1.0 - len(stopped) / total))
            row.append(percent(len(crash) / total))
            rows.append(row)
        headers = ['application', '#NT-paths'] + [
            'stopped<=%d' % b for b in FIG3_BUCKETS] + [
            'survive>=1000', 'crash ratio']
        chart = fig3_plot({app_name: result.nt_details
                           for app_name, result in zip(apps, results)},
                          width=56)
        return ExperimentResult(
            'fig3', 'Crash-latency and unsafe-latency distribution',
            headers, rows,
            notes=['paper: 65-99% of NT-paths survive 1000 '
                   'instructions; go stops earliest in only ~0.5% of '
                   'paths; gzip/vpr stop mostly on unsafe events',
                   ''] + chart.splitlines())
    return specs, tabulate


# ---------------------------------------------------------------------
# Coverage, single input (Figure 7 analogue)

@_experiment('fig7')
def run_fig7(apps=WORKLOAD_APP_NAMES, mode=Mode.STANDARD):
    specs = [_app_job(app_name, 'none', mode=mode) for app_name in apps]

    def tabulate(results):
        rows = [(app_name, result.total_edges,
                 percent(result.baseline_coverage),
                 percent(result.total_coverage), result.nt_spawned)
                for app_name, result in zip(apps, results)]
        count = len(apps)
        rows.append((
            'AVERAGE', '',
            percent(sum(r.baseline_coverage for r in results) / count),
            percent(sum(r.total_coverage for r in results) / count), ''))
        return ExperimentResult(
            'fig7', 'Branch coverage of a single monitored run',
            ['application', '#edges', 'baseline coverage',
             'PathExpander coverage', 'NT-paths'], rows,
            notes=['paper: coverage rises from 40% to 65% on average',
                   ''] + coverage_bars(rows).splitlines())
    return specs, tabulate


# ---------------------------------------------------------------------
# Cumulative coverage over multiple inputs (Figure 8 analogue)

@_experiment('fig8')
def run_fig8(apps=CUMULATIVE_APP_NAMES, runs=50):
    specs = [_app_job(app_name, 'none', inputs=inputs)
             for app_name in apps
             for inputs in input_suite(app_name, count=runs)]

    def tabulate(results):
        coverages = [_cumulative_coverage(results[start:start + runs])
                     for start in range(0, len(results), runs)]
        rows = [(app_name, runs, percent(base_cov), percent(total_cov),
                 percent(total_cov - base_cov))
                for app_name, (base_cov, total_cov)
                in zip(apps, coverages)]
        count = len(apps)
        base_sum = sum(base_cov for base_cov, _ in coverages)
        total_sum = sum(total_cov for _, total_cov in coverages)
        rows.append(('AVERAGE', '', percent(base_sum / count),
                     percent(total_sum / count),
                     percent((total_sum - base_sum) / count)))
        return ExperimentResult(
            'fig8', 'Cumulative branch coverage over multiple inputs',
            ['application', '#inputs', 'baseline cumulative',
             'PathExpander cumulative', 'improvement'], rows,
            notes=['paper: cumulative coverage still improves by ~19% '
                   'on average'])
    return specs, tabulate


def _cumulative_coverage(results):
    """Union per-run edge sets (Section 7 multi-input experiment)."""
    total = max(results[-1].total_edges, 1)
    baseline_edges = set().union(*(r.taken_edges for r in results))
    all_edges = set().union(*(r.covered_edges for r in results))
    return len(baseline_edges) / total, len(all_edges) / total


# ---------------------------------------------------------------------
# Overhead (Figure 9 analogue)

FIG9_MODES = (Mode.BASELINE, Mode.STANDARD, Mode.CMP)


@_experiment('fig9')
def run_fig9(apps=WORKLOAD_APP_NAMES, detector='ccured'):
    specs = [_app_job(app_name, detector, mode=mode)
             for app_name in apps for mode in FIG9_MODES]

    def tabulate(results):
        rows = []
        worst_cmp = 0.0
        for app_name, base, std, cmp_ in zip(
                apps, results[::3], results[1::3], results[2::3]):
            std_overhead = std.overhead_vs(base)
            cmp_overhead = cmp_.overhead_vs(base)
            worst_cmp = max(worst_cmp, cmp_overhead)
            rows.append((app_name, base.cycles, percent(std_overhead),
                         percent(cmp_overhead), std.nt_spawned,
                         cmp_.nt_skipped_busy))
        rows.append(('WORST CMP', '', '', percent(worst_cmp), '', ''))
        return ExperimentResult(
            'fig9', 'Execution overhead of PathExpander',
            ['application', 'baseline cycles', 'standard overhead',
             'CMP overhead', 'NT-paths', 'CMP skipped (busy)'], rows,
            notes=['paper: overhead below 9.9% with the CMP '
                   'optimisation; hundreds to thousands of NT-paths '
                   'per run'])
    return specs, tabulate


# ---------------------------------------------------------------------
# Hardware vs software implementation (Section 7.5)

TABLE6_MODES = (Mode.BASELINE, Mode.CMP, Mode.SOFTWARE)


@_experiment('table6')
def run_table6(apps=('print_tokens2', 'schedule', 'bc_calc', 'gzip_app'),
               detector='ccured'):
    specs = [_app_job(app_name, detector, mode=mode)
             for app_name in apps for mode in TABLE6_MODES]

    def tabulate(results):
        rows = []
        ratios = []
        for app_name, base, cmp_, sw in zip(
                apps, results[::3], results[1::3], results[2::3]):
            native = base.cycles
            hw_overhead = max(cmp_.overhead_vs(base), 1e-6)
            sw_overhead = (sw.cycles - native) / native
            ratio = sw_overhead / hw_overhead
            ratios.append(ratio)
            rows.append((app_name, percent(hw_overhead),
                         '%.0fx' % sw_overhead, '%.0f' % ratio,
                         '%.1f' % math.log10(max(ratio, 1.0))))
        geo = math.prod(max(ratio, 1.0) for ratio in ratios) \
            ** (1.0 / len(ratios))
        rows.append(('GEOMEAN', '', '', '%.0f' % geo,
                     '%.1f' % math.log10(max(geo, 1.0))))
        return ExperimentResult(
            'table6', 'Hardware vs software PathExpander overhead',
            ['application', 'CMP overhead', 'software overhead',
             'overhead ratio', 'orders of magnitude'], rows,
            notes=['paper: hardware is 3-4 orders of magnitude cheaper '
                   'than the pure-software implementation'])
    return specs, tabulate


# ---------------------------------------------------------------------
# Parameter sensitivity (Section 7.6)

@_experiment('fig10')
def run_fig10(app_name='print_tokens2', detector='none'):
    settings = (
        [('MaxNTPathLength', Mode.STANDARD, 'max_nt_path_length', value)
         for value in (10, 50, 100, 500, 1000)]
        + [('NTPathCounterThreshold', Mode.STANDARD,
            'nt_counter_threshold', value) for value in (1, 2, 5, 10, 15)]
        + [('MaxNumNTPaths', Mode.CMP, 'max_num_nt_paths', value)
           for value in (1, 2, 4, 8, 16, 32)])
    specs = [_app_job(app_name, detector, mode=Mode.BASELINE)] + [
        _app_job(app_name, detector, mode=mode, **{field: value})
        for _label, mode, field, value in settings]

    def tabulate(results):
        base = results[0]
        rows = [('%s=%d' % (label, value), percent(result.total_coverage),
                 percent(result.overhead_vs(base)), result.nt_spawned)
                for (label, _mode, _field, value), result
                in zip(settings, results[1:])]
        return ExperimentResult(
            'fig10', 'Parameter sensitivity (%s)' % app_name,
            ['setting', 'coverage', 'overhead', 'NT-paths'], rows,
            notes=['Section 7.6: longer NT-paths and higher thresholds '
                   'increase coverage at higher overhead; more '
                   'outstanding NT-paths recover spawns skipped while '
                   'busy'])
    return specs, tabulate


# ---------------------------------------------------------------------
# Ablation: exploring non-taken edges from NT-paths (Section 4.2(3))

@_experiment('abl1')
def run_ablation_nt_from_nt(app_name='gzip_app'):
    policies = (('follow taken edges only', False),
                ('explore non-taken edges from NT-paths', True))
    specs = [_app_job(app_name, 'none', explore_nt_from_nt=flag,
                      **LATENCY_SETUP)
             for _label, flag in policies]

    def tabulate(results):
        rows = []
        for (label, _flag), result in zip(policies, results):
            total = max(result.nt_spawned, 1)
            crashes = sum(1 for r in result.nt_details
                          if r.reason == NTPathTermination.CRASH
                          and r.length <= 1000)
            rows.append((label, percent(result.total_coverage),
                         percent(crashes / total), result.nt_spawned))
        return ExperimentResult(
            'abl1', 'Design choice: NT-paths follow only taken edges',
            ['policy', 'coverage', 'crash ratio (<=1000 instr)',
             'NT-paths'], rows,
            notes=['paper (164.gzip): exploring non-taken edges from '
                   'NT-paths adds ~2% coverage but raises the '
                   'early-crash ratio from 5% to 16%'])
    return specs, tabulate


# ---------------------------------------------------------------------
# Extension 1 (paper future work, Section 3.2): OS support that
# sandboxes unsafe events.  The paper predicts "more than 90% of
# NT-Paths may potentially execute up to 1000 instructions".

@_experiment('ext1')
def run_ext_os_sandbox(apps=FIG3_APPS):
    specs = [_app_job(app_name, 'none', sandbox_unsafe_events=sandboxed,
                      **LATENCY_SETUP)
             for app_name in apps for sandboxed in (False, True)]

    def survival(result):
        stopped = sum(1 for record in result.nt_details
                      if record.reason in (NTPathTermination.CRASH,
                                           NTPathTermination.UNSAFE))
        return percent(1.0 - stopped / max(result.nt_spawned, 1))

    def tabulate(results):
        rows = [(app_name, survival(hw_only), survival(sandboxed))
                for app_name, hw_only, sandboxed
                in zip(apps, results[::2], results[1::2])]
        return ExperimentResult(
            'ext1', 'OS sandboxing of unsafe events (paper future work)',
            ['application', 'survival (hw only)',
             'survival (with OS sandbox)'], rows,
            notes=['paper prediction: with OS support, more than 90% of '
                   'NT-paths could execute up to 1000 instructions'])
    return specs, tabulate


# ---------------------------------------------------------------------
# Extension 2 (paper Section 7.1, miss mechanism 2): random factor in
# NT-path selection recovers bugs whose entry edge saturated its
# exercise counter before the bug-triggering state arose.

EXERCISED_EDGE_TARGETS = (('bc_calc', 0, 'ccured', 'bc_flush'),
                          ('schedule2', 5, 'assertions', 'sch2_v5'))


@_experiment('ext2')
def run_ext_random_selection(rate=0.3, seed=0xC0FFEE):
    # The seed reaches NTPathSelector via the config, so a given
    # (rate, seed) pair is reproducible and hashes into a stable
    # JobSpec key.
    randomized = dict(selection_random_rate=rate,
                      selection_random_seed=seed)
    specs = [_app_job(app_name, tool, version=version, **overrides)
             for app_name, version, tool, _bug in EXERCISED_EDGE_TARGETS
             for overrides in ({}, randomized)]

    def tabulate(results):
        rows = []
        for (app_name, version, _tool, bug_id), plain, random_ in zip(
                EXERCISED_EDGE_TARGETS, results[::2], results[1::2]):
            bugs = [bug for bug in get_app(app_name).bugs(version)
                    if bug.bug_id == bug_id]
            found_plain, _ = classify_reports(plain.reports, bugs)
            found_random, _ = classify_reports(random_.reports, bugs)
            rows.append((bug_id, app_name,
                         'yes' if found_plain else 'no',
                         'yes' if found_random else 'no',
                         random_.nt_spawned - plain.nt_spawned))
        return ExperimentResult(
            'ext2', 'Random factor in NT-path selection (rate=%.2f, '
            'seed=%#x)' % (rate, seed),
            ['bug', 'application', 'detected (counter only)',
             'detected (with random factor)', 'extra NT-paths'], rows,
            notes=['paper: "this problem can be addressed by adding '
                   'random factor into PathExpander\'s NT-Path '
                   'selection"'])
    return specs, tabulate


# ---------------------------------------------------------------------
# Validation: the CMP scheduling model against the detailed engine.
# The detailed engine interleaves cores cycle by cycle and implements
# the Fig. 6 segment/version protocol; detections and coverage must be
# identical, and both overhead estimates must stay under the paper's
# 9.9% bound.

@_experiment('val1')
def run_val_cmp_model(apps=('print_tokens2', 'schedule', 'bc_calc',
                            'man_fmt'), detector='ccured'):
    specs = [_app_job(app_name, detector, mode=mode)
             for app_name in apps for mode in (Mode.BASELINE, Mode.CMP)]

    def tabulate(results):
        rows = []
        for app_name, base, model in zip(apps, results[::2],
                                         results[1::2]):
            app = get_app(app_name)
            text, ints = app.default_input()
            detailed = run_detailed_cmp(
                app.compile(0), detector=make_detector(detector),
                config=app.make_config(mode=Mode.CMP),
                text_input=text, int_input=ints)
            same_bugs = ({r.site_key for r in model.reports}
                         == {r.site_key for r in detailed.reports})
            rows.append((app_name, percent(model.overhead_vs(base)),
                         percent(detailed.overhead_vs(base)),
                         'yes' if same_bugs else 'NO',
                         model.nt_spawned, detailed.nt_spawned))
        return ExperimentResult(
            'val1', 'CMP scheduling model vs detailed engine',
            ['application', 'model overhead', 'detailed overhead',
             'same detections', 'NT-paths (model)',
             'NT-paths (detailed)'], rows,
            notes=['the detailed engine simulates the Fig. 6 '
                   'segment/version protocol with true core '
                   'interleaving; both implementations must agree on '
                   'detections and stay under the 9.9% bound'])
    return specs, tabulate
