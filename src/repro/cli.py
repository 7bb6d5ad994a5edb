"""Command-line interface.

::

    python -m repro run FILE.mc [--detector ccured] [--mode standard]
                                [--input TEXT] [--ints 1,2,3] [--trace]
    python -m repro disasm FILE.mc [--function NAME]
    python -m repro apps
    python -m repro bugs APP [--version N]
    python -m repro experiment ID [--jobs N] [--cache DIR] [--json]
    python -m repro batch [IDS... | --all] [--jobs N] [--cache DIR]
                          [--markdown PATH]
    python -m repro cache fsck DIR [--repair] [--json]

``--jobs N`` fans an experiment's simulations out over N worker
processes; ``--cache DIR`` keeps an on-disk result store so re-runs
with unchanged inputs perform zero simulations; ``--timeout S`` bounds
each job, serial or pooled.  Each prints a job metrics summary after
the tables, and a job that fails every attempt ends the command with
its one-line error and exit status 1.  A batch resolves the
simulations of all its experiments together, running each distinct
one once; ``batch --all --markdown EXPERIMENTS.md`` regenerates the
paper's tables and figures as one markdown file.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys

from repro.apps.bugs import classify_reports
from repro.apps.registry import ALL_APPS
from repro.core.config import BACKEND_CHOICES, Mode, PathExpanderConfig
from repro.core.errors import JobExecutionError
from repro.core.runner import make_detector, run_program
from repro.harness import experiments, generate_report
from repro.harness.trace import TracedRun
from repro.isa.disasm import disassemble, function_listing
from repro.minic.codegen import compile_minic


def _parse_ints(text):
    if not text:
        return []
    return [int(piece) for piece in text.split(',')]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog='repro',
        description='PathExpander reproduction (MICRO 2006)')
    sub = parser.add_subparsers(dest='command', required=True)

    run_cmd = sub.add_parser('run', help='compile and run a MiniC file')
    run_cmd.add_argument('file')
    run_cmd.add_argument('--detector', default='ccured',
                         choices=['none', 'ccured', 'iwatcher',
                                  'assertions'])
    run_cmd.add_argument('--mode', default=Mode.STANDARD,
                         choices=list(Mode.ALL))
    run_cmd.add_argument('--input', default='',
                         help='text served to getc()')
    run_cmd.add_argument('--ints', default='',
                         help='comma-separated ints for read_int()')
    run_cmd.add_argument('--trace', action='store_true',
                         help='print the NT-path event log')
    run_cmd.add_argument('--no-fixing', action='store_true',
                         help='disable variable fixing (Section 4.4)')
    run_cmd.add_argument('--backend', default=None,
                         choices=list(BACKEND_CHOICES),
                         help='execution backend (default: fast, or '
                              '$REPRO_BACKEND)')

    disasm_cmd = sub.add_parser('disasm',
                                help='disassemble a MiniC file')
    disasm_cmd.add_argument('file')
    disasm_cmd.add_argument('--function', default=None)

    sub.add_parser('apps', help='list the benchmark applications')

    bugs_cmd = sub.add_parser('bugs',
                              help='run one buggy app and classify')
    bugs_cmd.add_argument('app')
    bugs_cmd.add_argument('--version', type=int, default=0)

    exp_cmd = sub.add_parser('experiment', help='run one experiment')
    exp_cmd.add_argument('id', choices=sorted(experiments.EXPERIMENTS))
    _add_jobs_options(exp_cmd)

    batch_cmd = sub.add_parser(
        'batch', help='run several experiments through one job pool')
    batch_cmd.add_argument('ids', nargs='*',
                           metavar='ID',
                           help='experiment ids (see "experiment")')
    batch_cmd.add_argument('--all', action='store_true',
                           help='run every experiment')
    batch_cmd.add_argument('--markdown', default=None, metavar='PATH',
                           help='also write the tables as markdown '
                                '(EXPERIMENTS.md)')
    _add_jobs_options(batch_cmd)

    cache_cmd = sub.add_parser('cache',
                               help='manage an on-disk result cache')
    cache_sub = cache_cmd.add_subparsers(dest='cache_command',
                                         required=True)
    fsck_cmd = cache_sub.add_parser(
        'fsck', help='verify every cached record (checksums, shape)')
    fsck_cmd.add_argument('dir', help='cache directory')
    fsck_cmd.add_argument('--repair', action='store_true',
                          help='delete corrupt records so the jobs '
                               'rerun (results are reproducible)')
    fsck_cmd.add_argument('--json', action='store_true',
                          help='emit the report as JSON')
    return parser


def _add_jobs_options(cmd):
    cmd.add_argument('--jobs', type=int, default=1,
                     help='worker processes (1 = in-process serial)')
    cmd.add_argument('--cache', default=None, metavar='DIR',
                     help='on-disk result cache directory')
    cmd.add_argument('--timeout', type=float, default=None,
                     help='per-job timeout in seconds; a job that '
                          'times out on every attempt fails the '
                          'command (exit 1)')
    cmd.add_argument('--json', action='store_true',
                     help='emit results (and metrics) as JSON')
    cmd.add_argument('--apps', default=None,
                     help='comma-separated app subset (only for '
                          'experiments that take an app list)')
    cmd.add_argument('--backend', default=None,
                     choices=list(BACKEND_CHOICES),
                     help='execution backend for every simulation '
                          '(default: fast, or $REPRO_BACKEND)')


def _apply_backend(args):
    """Make ``--backend`` the process-wide default through
    ``$REPRO_BACKEND``, which job pool workers inherit.  Cache keys
    ignore the backend on purpose: the two backends are
    result-equivalent, so cached results stay valid either way."""
    if getattr(args, 'backend', None):
        os.environ['REPRO_BACKEND'] = args.backend


def _make_pool(args):
    """A JobPool wired to the CLI's jobs/cache/timeout options, or
    None when none of them is given."""
    if args.jobs <= 1 and not args.cache and args.timeout is None:
        return None
    from repro.jobs import JobPool, ResultStore, RunMetrics
    store = None
    log_path = None
    if args.cache:
        store = ResultStore(args.cache)
        os.makedirs(args.cache, exist_ok=True)
        log_path = os.path.join(args.cache, 'events.jsonl')
    metrics = RunMetrics(log_path=log_path)
    return JobPool(jobs=max(args.jobs, 1), store=store,
                   metrics=metrics, timeout=args.timeout)


def _plan_kwargs(args, ids):
    """Driver arguments from ``--apps``, or None (reported on stderr)
    if an experiment in ``ids`` takes no app list or an app is
    unknown."""
    if not args.apps:
        return {}
    fixed = [exp_id for exp_id in ids if 'apps' not in inspect.signature(
        experiments.EXPERIMENTS[exp_id]).parameters]
    if fixed:
        print('%s: --apps does not apply to %s (no app list)'
              % (args.command, ', '.join(fixed)), file=sys.stderr)
        return None
    apps = tuple(name.strip() for name in args.apps.split(',')
                 if name.strip())
    unknown = [name for name in apps if name not in ALL_APPS]
    if unknown:
        print('%s: unknown app(s): %s (choose from %s)'
              % (args.command, ', '.join(unknown),
                 ', '.join(sorted(ALL_APPS))), file=sys.stderr)
        return None
    return {'apps': apps}


def _cmd_run(args):
    with open(args.file) as handle:
        source = handle.read()
    program = compile_minic(source, name=args.file)
    config = PathExpanderConfig(
        mode=args.mode, variable_fixing=not args.no_fixing,
        collect_nt_details=args.trace, backend=args.backend)
    detector = make_detector(args.detector)
    if args.trace:
        traced = TracedRun(program, detector=detector, config=config,
                           text_input=args.input,
                           int_input=_parse_ints(args.ints))
        result = traced.run()
        print(traced.format(limit=60))
    else:
        result = run_program(program, detector=detector, config=config,
                             text_input=args.input,
                             int_input=_parse_ints(args.ints))
        print(result)
    if result.output:
        print('--- program output ---')
        sys.stdout.write(result.output)
    for report in result.reports:
        print('REPORT: %r' % report)
    return 0


def _cmd_disasm(args):
    with open(args.file) as handle:
        source = handle.read()
    program = compile_minic(source, name=args.file)
    if args.function:
        print(function_listing(program, args.function))
    else:
        print(disassemble(program))
    return 0


def _cmd_apps(_args):
    print('%-14s %-28s %-9s %s' % ('name', 'tools', 'versions',
                                   'tested bugs'))
    for name in sorted(ALL_APPS):
        app = ALL_APPS[name]
        bug_count = sum((2 if bug.is_memory_bug else 1)
                        for bugs in app.versions.values()
                        for bug in bugs)
        print('%-14s %-28s %-9d %d'
              % (name, '+'.join(app.tools) or '-', len(app.versions),
                 bug_count))
    return 0


def _cmd_bugs(args):
    app = ALL_APPS.get(args.app)
    if app is None:
        print('bugs: unknown app: %s (choose from %s)'
              % (args.app, ', '.join(sorted(ALL_APPS))), file=sys.stderr)
        return 2
    versions = sorted({0} | set(app.versions))
    if args.version not in versions:
        print('bugs: %s has no version %d (choose from %s)'
              % (args.app, args.version,
                 ', '.join(map(str, versions))), file=sys.stderr)
        return 2
    program = app.compile(args.version)
    bugs = app.bugs(args.version)
    text, ints = app.default_input()
    detector_name = app.tools[0] if app.tools else 'none'
    for mode in (Mode.BASELINE, Mode.STANDARD):
        result = run_program(program,
                             detector=make_detector(detector_name),
                             config=app.make_config(mode=mode),
                             text_input=text, int_input=ints)
        found, false_positives = classify_reports(result.reports, bugs)
        print('%-9s detected=%s false-positives=%d NT-paths=%d'
              % (mode, sorted(found) or '[]', len(false_positives),
                 result.nt_spawned))
    for bug in bugs:
        status = 'expected DETECTED' if bug.expected_detected else \
            'expected MISSED (%s)' % bug.miss_reason
        print('  %-12s %s -- %s' % (bug.bug_id, status,
                                    bug.description))
    return 0


def _cmd_experiment(args):
    return _run_experiments(args, [args.id])


def _cmd_batch(args):
    known = list(experiments.EXPERIMENTS)
    ids = known if args.all else list(args.ids)
    if not ids:
        print('batch: give experiment IDs or --all', file=sys.stderr)
        return 2
    unknown = [exp_id for exp_id in ids if exp_id not in known]
    if unknown:
        print('batch: unknown experiment id(s): %s (choose from %s)'
              % (', '.join(unknown), ', '.join(known)), file=sys.stderr)
        return 2
    return _run_experiments(args, ids)


def _run_experiments(args, ids):
    """Resolve experiments ``ids`` in one batch and print their tables
    (or JSON), then the job metrics of a pool, if one is used."""
    kwargs = _plan_kwargs(args, ids)
    if kwargs is None:
        return 2
    _apply_backend(args)
    pool = _make_pool(args)
    try:
        tables = experiments.run_batch(ids, pool=pool, **kwargs)
    except JobExecutionError as exc:
        print('%s: %s' % (args.command, exc), file=sys.stderr)
        return 1
    if getattr(args, 'markdown', None):
        with open(args.markdown, 'w') as stream:
            generate_report.generate(stream, tables)
    if args.json:
        if args.command == 'experiment':
            payload = tables[0].to_dict()
        else:
            payload = {'experiments': [table.to_dict()
                                       for table in tables]}
        if pool is not None:
            payload['metrics'] = pool.metrics.to_dict()
        print(json.dumps(payload, indent=2))
        return 0
    print('\n\n'.join(table.format() for table in tables))
    if pool is not None:
        print()
        print(pool.metrics.format_summary())
    return 0


def _cmd_cache(args):
    from repro.jobs import ResultStore
    if not os.path.isdir(args.dir):
        print('cache fsck: no such directory: %s' % args.dir,
              file=sys.stderr)
        return 2
    report = ResultStore(args.dir).fsck(repair=args.repair)
    if args.json:
        payload = dict(report)
        payload['corrupt'] = [{'key': key, 'reason': reason}
                              for key, reason in report['corrupt']]
        print(json.dumps(payload, indent=2))
    else:
        print('checked   %d record(s)' % report['checked'])
        print('stale tmp %d removed' % report['stale_tmp'])
        for key, reason in report['corrupt']:
            print('corrupt   %s  (%s)' % (key, reason))
        if report['repaired']:
            print('repaired  %d record(s) removed'
                  % len(report['repaired']))
        if not report['corrupt']:
            print('ok        no corruption found')
    # Corrupt records that remain on disk are an error condition.
    remaining = len(report['corrupt']) - len(report['repaired'])
    return 1 if remaining else 0


_COMMANDS = {
    'run': _cmd_run,
    'disasm': _cmd_disasm,
    'apps': _cmd_apps,
    'bugs': _cmd_bugs,
    'experiment': _cmd_experiment,
    'batch': _cmd_batch,
    'cache': _cmd_cache,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == '__main__':
    sys.exit(main())
