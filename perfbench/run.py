"""End-to-end and per-layer benchmark over the paper's own experiments.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --pin

Run from the root of a checkout.  Every sample is a fresh child process
(``child.py``) with its own temporary working directory inside the
checkout, ``REPRO_BACKEND`` set and every other ``REPRO_*`` variable
(fault plans, job counts) cleared.

``--trace 0`` first starts a few children that stop once set up (more
``setup_s`` samples), then runs (fast, reference) child pairs,
alternating which backend goes first, until ``--seconds`` would be
exceeded (at least one pair), and reports the end-to-end metrics as
medians over the samples.  ``error_rate`` (failed / attempted simulated
runs, both backends) is printed with the other metrics on standard
error in both modes; in the result line it is carried by ``attempted``
and ``failed``, since a declared metric must never read 0.
``--trace 1`` runs two traced fast children side by side, then an
untraced fast and an untraced reference child, and reports the
per-layer metrics; the counts that must repeat exactly are compared
between the two traced children and, for simulated totals, across
backends.

Every child's results are checked against ``pinned.json``: one digest
per ``RunResult.to_dict()`` in run order plus one over the experiment
tables.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a failed
check makes the exit code 1.  ``--pin`` rewrites ``pinned.json`` from
reference-backend runs.  ``--self-test`` runs every workload once at
tiny scale in both modes and checks that every metric named in
``BENCHMARK.json`` is emitted with its unit, and that a tampered digest
fails the run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / 'pinned.json'
SCRATCH = ROOT / '.perfbench_tmp'
BACKENDS = ('fast', 'reference')
CPUS = len(os.sched_getaffinity(0))
# One invocation, children included, ends within this many seconds.
HARD_LIMIT = 170.0
# Counts two traced runs of the same code must reproduce exactly.
REPEAT_EXACT = ('sim.runs', 'sim.instret', 'sim.cycles', 'nt.spawns',
                'nt.instret', 'cache.hits', 'cache.misses',
                'branch.calls', 'codegen.tables', 'codegen.blocks')
TABLE4_TOTAL = ['TOTAL', '', 38, 0, 21]
# Set-up-only children started by each timed run.
SETUP_SAMPLES = 5


def pin_key(workload, tiny):
    return '%s/%s' % (workload, 'tiny' if tiny else 'full')


class Child:
    """One sample process; :meth:`finish` waits for it and returns its
    record (``None`` if it failed or overran the deadline)."""

    def __init__(self, workload, backend, tiny=False, mode='timed',
                 deadline=None):
        SCRATCH.mkdir(exist_ok=True)
        self.workdir = tempfile.mkdtemp(dir=SCRATCH)
        self.backend = backend
        self.deadline = deadline
        env = {key: value for key, value in os.environ.items()
               if not key.startswith('REPRO_')}
        env.update(REPRO_BACKEND=backend, PYTHONPATH=str(ROOT / 'src'),
                   TMPDIR=self.workdir, PYTHONHASHSEED='0')
        cmd = [sys.executable, str(HERE / 'child.py'),
               '--workload', workload, '--out', 'result.json']
        cmd += ['--tiny'] * tiny
        cmd += {'timed': [], 'traced': ['--trace'],
                'setup': ['--setup-only']}[mode]
        self.log = open(os.path.join(self.workdir, 'child.log'), 'w')
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, cwd=self.workdir, env=env, stdout=self.log,
            stderr=subprocess.STDOUT, start_new_session=True)

    def finish(self):
        pid = self.proc.pid
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                break
            if self.deadline is not None \
                    and time.monotonic() > self.deadline:
                os.killpg(pid, signal.SIGKILL)
                done, status, usage = os.wait4(pid, 0)
                break
            time.sleep(0.02)
        self.proc.returncode = code = os.waitstatus_to_exitcode(status)
        _reap_group(pid)
        self.log.close()
        record = None
        try:
            if code == 0:
                with open(os.path.join(self.workdir,
                                       'result.json')) as handle:
                    record = json.load(handle)
                record['setup_s'] = record['ready'] - self.spawned
                record['rss_mb'] = usage.ru_maxrss / 1024.0
            else:
                with open(os.path.join(self.workdir, 'child.log')) as log:
                    tail = log.read()[-2000:]
                print('%s child exited %d:\n%s' % (self.backend, code,
                                                   tail), file=sys.stderr)
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
        return record

    def kill(self):
        if self.proc.returncode is None:
            _reap_group(self.proc.pid)
            self.proc.wait()
            self.log.close()
            shutil.rmtree(self.workdir, ignore_errors=True)


def _reap_group(pgid):
    """Kill whatever is left in a child's session (e.g. pool workers)
    and wait, briefly, until the group is gone."""
    stop = time.monotonic() + 2.0
    while time.monotonic() < stop:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def run_children(specs, deadline, parallel=1):
    """Run ``(workload, backend, tiny, mode)`` specs,
    ``parallel`` at a time; records come back in spec order."""
    records = []
    for index in range(0, len(specs), parallel):
        batch = []
        try:
            for spec in specs[index:index + parallel]:
                batch.append(Child(*spec, deadline=deadline))
            records.extend(child.finish() for child in batch)
        finally:
            for child in batch:
                child.kill()
    return records


def check(record, pin, workload):
    """``(attempted, failed)`` simulated runs of one child."""
    expected = pin['runs']
    if record is None:
        return len(expected), len(expected)
    runs = record['runs']
    failed = sum(1 for index, want in enumerate(expected)
                 if index >= len(runs) or runs[index] != want)
    if not failed and (len(runs) != len(expected)
                       or record['rows'] != pin['rows']
                       or (workload == 'table4_bugs'
                           and record['last_row'] != TABLE4_TOTAL)):
        failed = 1
    if failed:
        print('digest mismatch: %d of %d runs' % (failed, len(expected)),
              file=sys.stderr)
    return len(expected), failed


def timed(workload, seed, seconds, tiny, pins):
    """End-to-end metrics from set-up-only children and alternating
    (fast, reference) pairs."""
    pin = pins[pin_key(workload, tiny)]
    start = time.monotonic()
    deadline = start + HARD_LIMIT
    setups = run_children(
        [(workload, BACKENDS[(seed + index) % 2], tiny, 'setup')
         for index in range(SETUP_SAMPLES)], deadline)
    failed = sum(1 for record in setups if record is None)
    attempted = failed
    setups = [record['setup_s'] for record in setups if record]
    samples = {backend: [] for backend in BACKENDS}
    pair = 0
    while True:
        began = time.monotonic()
        order = BACKENDS if (seed + pair) % 2 == 0 else BACKENDS[::-1]
        for backend in order:
            record, = run_children([(workload, backend, tiny, 'timed')],
                                   deadline)
            got, bad = check(record, pin, workload)
            attempted += got
            failed += bad
            if record is not None:
                samples[backend].append(record)
        pair += 1
        now = time.monotonic()
        took = now - began
        if failed or now - start + took > seconds \
                or now + took > deadline:
            break
    metrics = {}
    fast, ref = samples['fast'], samples['reference']
    if fast and ref:
        metrics = {
            'wall_s': statistics.median(r['wall_s'] for r in fast),
            'wall_s.reference': statistics.median(r['wall_s']
                                                  for r in ref),
            'sim_mips': statistics.median(
                r['sim']['sim.instret'] / r['wall_s'] / 1e6 for r in fast),
            'setup_s': statistics.median(
                setups + [r['setup_s'] for r in fast + ref]),
            'peak_rss_mb': statistics.median(r['rss_mb'] for r in fast),
        }
    print('%s: %d pairs, %d set-up samples, %d of %d runs failed'
          % (workload, pair, len(setups) + len(fast) + len(ref), failed,
             attempted), file=sys.stderr)
    for backend in BACKENDS:
        print('%s wall_s samples: %s' % (backend, json.dumps(
            [round(r['wall_s'], 4) for r in samples[backend]])),
            file=sys.stderr)
    return attempted, failed, metrics


def traced(workload, seed, tiny, pins):
    """Per-layer metrics: two traced fast children, then untraced fast
    and reference children for the overhead and cross-backend checks."""
    pin = pins[pin_key(workload, tiny)]
    deadline = time.monotonic() + HARD_LIMIT
    # Side by side, one child per CPU -- except for the pooled
    # workload, whose children already keep every CPU busy.
    pooled = WORKLOADS[workload][1]
    records = run_children(
        [(workload, 'fast', tiny, 'traced')] * 2
        + [(workload, backend, tiny, 'timed') for backend in BACKENDS],
        deadline,
        parallel=1 if pooled else CPUS)
    attempted = failed = 0
    for record in records:
        got, bad = check(record, pin, workload)
        attempted += got
        failed += bad
    if failed:
        return attempted, failed, {}
    first, second, fast, ref = records
    layers = dict(first['layers'])
    drift = [name for name in REPEAT_EXACT
             if first['layers'][name] != second['layers'][name]]
    drift += ['%s (%s)' % (name, backend)
              for backend, record in (('fast', fast), ('reference', ref))
              for name, value in record['sim'].items()
              if layers[name] != value]
    if drift:
        print('counts drifted between runs: %s' % ', '.join(drift),
              file=sys.stderr)
        failed += 1
    for name, value in first['layers'].items():
        if name.endswith('_s') or name.endswith('.s'):
            layers[name] = (value + second['layers'][name]) / 2
    layers['trace.wall_s'] = (first['wall_s'] + second['wall_s']) / 2
    layers['trace.overhead_s'] = layers['trace.wall_s'] - fast['wall_s']
    return attempted, failed, layers


def measure(workload, seed, seconds, trace, tiny=False, pins=None):
    """One benchmark run; returns the result object to print."""
    pins = pins if pins is not None else json.loads(PINS.read_text())
    spec = json.loads((ROOT / 'BENCHMARK.json').read_text())
    declared = spec['per_layer' if trace else 'end_to_end']
    if trace:
        attempted, failed, values = traced(workload, seed, tiny, pins)
    else:
        attempted, failed, values = timed(workload, seed, seconds, tiny,
                                          pins)
    metrics = {m['name']: {'value': values[m['name']], 'unit': m['unit']}
               for m in declared if m['name'] in values}
    correct = failed == 0 and len(metrics) == len(declared)
    return {'correct': correct, 'attempted': max(attempted, 1),
            'failed': failed, 'metrics': metrics}


def pin():
    """Rewrite pinned.json from one reference-backend run per workload
    and scale."""
    pins = {}
    for workload in WORKLOADS:
        for tiny in (False, True):
            record, = run_children([(workload, 'reference', tiny, 'timed')],
                                   None)
            if record is None:
                return False
            key = pin_key(workload, tiny)
            pins[key] = {'runs': record['runs'], 'rows': record['rows']}
            print('pinned', key, len(record['runs']), 'runs',
                  file=sys.stderr)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + '\n')
    return True


def self_test():
    """Every workload once per mode at tiny scale, plus a tamper check."""
    ok = True
    spec = json.loads((ROOT / 'BENCHMARK.json').read_text())
    pins = json.loads(PINS.read_text())
    for workload in WORKLOADS:
        for trace, kind in ((0, 'end_to_end'), (1, 'per_layer')):
            result = measure(workload, 0, 0, trace, tiny=True, pins=pins)
            want = {m['name']: m['unit'] for m in spec[kind]}
            got = {name: metric['unit']
                   for name, metric in result['metrics'].items()}
            if not result['correct'] or got != want:
                ok = False
                print('FAIL %s --trace %d: correct=%s, missing %s'
                      % (workload, trace, result['correct'],
                         sorted(set(want) - set(got))), file=sys.stderr)
    key = pin_key('fig8_short', True)
    tampered = dict(pins)
    tampered[key] = dict(pins[key], runs=['0' * 16] + pins[key]['runs'][1:])
    result = measure('fig8_short', 0, 0, 0, tiny=True, pins=tampered)
    if result['correct'] or result['failed'] == 0:
        ok = False
        print('FAIL tampered digest was not detected', file=sys.stderr)
    print('self-test', 'passed' if ok else 'FAILED', file=sys.stderr)
    return ok


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument('--workload', choices=sorted(WORKLOADS))
    parser.add_argument('--seed', type=int, default=0)
    parser.add_argument('--seconds', type=float, default=34.0)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    parser.add_argument('--tiny', action='store_true',
                        help='smallest sizes (what --self-test runs)')
    parser.add_argument('--self-test', action='store_true')
    parser.add_argument('--pin', action='store_true')
    args = parser.parse_args()
    if not (ROOT / 'src' / 'repro' / '__init__.py').is_file():
        print('no src/repro under %s: run from a full checkout' % ROOT,
              file=sys.stderr)
        return 2
    if args.self_test:
        return 0 if self_test() else 1
    if args.pin:
        return 0 if pin() else 1
    if args.workload is None:
        parser.error('--workload is required')
    result = measure(args.workload, args.seed, args.seconds, args.trace,
                     tiny=args.tiny)
    print('%-22s %14.6f %s' % ('error_rate', result['failed']
                               / result['attempted'], 'ratio'),
          file=sys.stderr)
    for name, metric in result['metrics'].items():
        print('%-22s %14.6f %s' % (name, metric['value'], metric['unit']),
              file=sys.stderr)
    print(json.dumps(result))
    return 0 if result['correct'] else 1


if __name__ == '__main__':
    try:
        sys.exit(main())
    finally:
        try:
            SCRATCH.rmdir()      # only once every child dir is gone
        except OSError:
            pass
