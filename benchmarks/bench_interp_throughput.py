"""Interpreter throughput: reference vs. fast execution backend.

Three synthetic kernels bound the backends' throughput (MIPS):

* ``alu_baseline`` -- a detector-free, cache-light ALU loop in baseline
  mode.  Its body is one straight-line run, so the fast backend fuses
  it into a single closure: this measures the best-case dispatch win.
* ``mem_monitored`` -- a load/store loop with data-dependent branches,
  run in standard mode under CCured with NT-path spawning enabled:
  the realistic monitored-run win.
* ``nt_heavy`` -- a never-taken branch whose non-taken side exhausts
  the whole NT-path length budget, spawned at nearly every encounter.
  Wall time is dominated by sandboxed NT-path execution, so this
  measures compiled blocks running inside NT-paths in isolation.

Each scenario row records a taken-vs-NT split (instructions and, per
backend, wall seconds spent inside NT-paths).

A report-only ``short_runs`` row tracks the per-run fixed cost:
milliseconds per ``run_program`` of a tiny monitored program (engine,
memory image and block table built, run and released), averaged over
many back-to-back runs so the garbage-collection pauses they cause
are included.  It has no gate.

All kernels are also differential tests: the run must produce a
byte-identical :class:`RunResult` on both backends before a timing is
accepted.

Run standalone (CI perf-smoke does) to write ``BENCH_interp.json``::

    PYTHONPATH=src python benchmarks/bench_interp_throughput.py \
        --json BENCH_interp.json --check-ratio 2.0 \
        --check-scenario mem_monitored=2.0 --check-scenario nt_heavy=2.0

``--check-ratio R`` exits non-zero if the fast backend is below R x
reference on the ``alu_baseline`` kernel; ``--check-scenario NAME=R``
(repeatable) applies the same gate to any scenario.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

if __package__ is None and __name__ == '__main__':
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        'src'))

from repro.core.config import PathExpanderConfig
from repro.core.engine import PathExpanderEngine
from repro.core.runner import make_detector, run_program
from repro.isa.instructions import Instr
from repro.isa.program import Program


def build_alu_kernel(iters=200_000):
    """A fuse-friendly ALU loop: ~30 straight-line register ops per
    iteration, one backward branch."""
    code = []
    emit = code.append
    emit(Instr('li', 1, 0))            # induction variable
    emit(Instr('li', 2, iters))        # trip count
    for reg in range(3, 11):
        emit(Instr('li', reg, reg * 7 + 1))
    loop = len(code)
    for _ in range(4):
        emit(Instr('add', 3, 3, 4))
        emit(Instr('xor', 4, 4, 5))
        emit(Instr('sub', 5, 5, 6))
        emit(Instr('and', 6, 6, 7))
        emit(Instr('or', 7, 7, 8))
        emit(Instr('shl', 8, 8, 9))
        emit(Instr('shr', 9, 9, 10))
    emit(Instr('addi', 1, 1, 1))
    emit(Instr('slt', 11, 1, 2))
    emit(Instr('br', 11, loop))
    emit(Instr('halt'))
    return Program(code, {'main': 0}, 0, 64, name='alu_kernel')


def build_mem_kernel(iters=40_000):
    """A memory/branch loop: a read-modify-write on a global word plus
    a data-dependent branch that the selector turns into NT-paths."""
    code = []
    emit = code.append
    emit(Instr('li', 1, 0))            # induction variable
    emit(Instr('li', 2, iters))        # trip count
    emit(Instr('li', 3, 16))           # global array base
    emit(Instr('li', 6, 0))            # accumulator
    loop = len(code)
    emit(Instr('li', 4, 0))
    emit(Instr('addi', 4, 3, 3))
    emit(Instr('ld', 5, 4, 0))
    emit(Instr('addi', 5, 5, 1))
    emit(Instr('st', 5, 4, 0))
    emit(Instr('add', 6, 6, 5))
    emit(Instr('and', 7, 1, 5))
    emit(Instr('sgt', 8, 7, 6))
    emit(Instr('br', 8, len(code) + 3))    # rarely taken
    emit(Instr('addi', 6, 6, 1))
    emit(Instr('jmp', len(code) + 1))
    emit(Instr('addi', 6, 6, 2))           # branch target
    emit(Instr('addi', 1, 1, 1))
    emit(Instr('slt', 9, 1, 2))
    emit(Instr('br', 9, loop))
    emit(Instr('halt'))
    return Program(code, {'main': 0}, 0, 64, name='mem_kernel')


def build_nt_heavy_kernel(iters=1500):
    """An NT-path-bound kernel: a cheap taken-path loop around a
    never-taken branch whose non-taken side is a load/store loop long
    enough to exhaust the whole NT-path length budget.  With a short
    counter-reset interval nearly every encounter spawns, so wall time
    is dominated by sandboxed NT-path execution."""
    code = []
    emit = code.append
    emit(Instr('li', 1, 0))            # induction variable
    emit(Instr('li', 2, iters))        # trip count
    emit(Instr('li', 3, 16))           # global word address
    emit(Instr('li', 9, 0))            # always-false branch condition
    loop = len(code)
    emit(Instr('addi', 1, 1, 1))
    emit(Instr('br', 9, len(code) + 4))    # never taken: NT side below
    emit(Instr('slt', 8, 1, 2))
    emit(Instr('br', 8, loop))
    emit(Instr('halt'))
    # Only ever executed inside the sandbox: a read-modify-write loop
    # whose trip count exceeds the NT budget, so every path terminates
    # at the length cap.
    emit(Instr('li', 4, 0))
    emit(Instr('li', 5, 200))
    inner = len(code)
    emit(Instr('ld', 7, 3, 0))
    emit(Instr('addi', 7, 7, 1))
    emit(Instr('st', 7, 3, 0))
    emit(Instr('addi', 4, 4, 1))
    emit(Instr('slt', 8, 4, 5))
    emit(Instr('br', 8, inner))
    emit(Instr('jmp', loop))
    return Program(code, {'main': 0}, 0, 64, name='nt_heavy_kernel')


SCENARIOS = {
    'alu_baseline': {
        'build': build_alu_kernel,
        'mode': 'baseline',
        'detector': 'none',
        'overrides': {},
    },
    'mem_monitored': {
        'build': build_mem_kernel,
        'mode': 'standard',
        'detector': 'ccured',
        # Shorter counter-reset interval so the selector keeps
        # spawning NT-paths across the whole run.
        'overrides': {'max_nt_path_length': 100,
                      'counter_reset_interval': 100_000},
    },
    'nt_heavy': {
        'build': build_nt_heavy_kernel,
        'mode': 'standard',
        'detector': 'none',
        # Full-budget NT-paths at nearly every branch encounter: the
        # reset interval is shorter than one spawned path, so the
        # selector's counters never stay saturated.
        'overrides': {'max_nt_path_length': 1000,
                      'counter_reset_interval': 1500},
    },
}


def _run_once(program, scenario, backend):
    """One timed engine run.

    Builds the engine outside the timed region (so block compilation
    setup costs land inside it, as they do in production runs, but
    memory-image construction does not) and returns the wall seconds,
    the serialized result, and the engine's NT-path wall seconds.
    """
    config = PathExpanderConfig(mode=scenario['mode'], backend=backend,
                                **scenario['overrides'])
    engine = PathExpanderEngine(program,
                                detector=make_detector(
                                    scenario['detector']),
                                config=config)
    start = time.perf_counter()
    result = engine.run()
    elapsed = time.perf_counter() - start
    return elapsed, result.to_dict(), engine.nt_wall_seconds


def measure_scenario(name, scale=1.0, repeats=3):
    scenario = SCENARIOS[name]
    build = scenario['build']
    default_iters = build.__defaults__[0]
    program = build(max(100, int(default_iters * scale)))
    row = {'mode': scenario['mode'], 'detector': scenario['detector']}
    reference_dict = None
    nt_seconds = {}
    for backend in ('reference', 'fast'):
        best = best_nt = None
        for _ in range(repeats):
            seconds, data, path_seconds = _run_once(
                program, scenario, backend)
            if best is None or seconds < best:
                best, best_nt = seconds, path_seconds
        if backend == 'reference':
            reference_dict = data
        elif data != reference_dict:
            raise AssertionError(
                'backend mismatch on %s: fast RunResult differs from '
                'reference' % name)
        instret = data['instret_taken'] + data['instret_nt']
        row[backend] = {'seconds': round(best, 4),
                        'mips': round(instret / best / 1e6, 3)}
        nt_seconds[backend] = best_nt
    instret_taken = reference_dict['instret_taken']
    instret_nt = reference_dict['instret_nt']
    total = instret_taken + instret_nt
    row['instret'] = total
    row['nt_spawned'] = reference_dict['nt_spawned']
    # Taken-vs-NT split: how much of the run (instructions and wall
    # time) each backend spent inside sandboxed NT-paths.
    row['split'] = {
        'instret_taken': instret_taken,
        'instret_nt': instret_nt,
        'nt_instret_share': round(instret_nt / total, 4) if total
        else 0.0,
        'reference_nt_seconds': round(nt_seconds['reference'], 4),
        'fast_nt_seconds': round(nt_seconds['fast'], 4),
    }
    row['speedup'] = round(row['reference']['seconds']
                           / row['fast']['seconds'], 3)
    return row


def measure_short_runs(runs=40):
    """Mean milliseconds per ``run_program`` of a tiny monitored
    program on each backend; the results must be identical."""
    program = build_mem_kernel(iters=20)
    row = {'runs': runs}
    results = {}
    for backend in ('reference', 'fast'):
        config = PathExpanderConfig(mode='standard', backend=backend)
        start = time.perf_counter()
        for _ in range(runs):
            results[backend] = run_program(program, detector='ccured',
                                           config=config).to_dict()
        row[backend] = {'ms': round(
            1000 * (time.perf_counter() - start) / runs, 3)}
    if results['fast'] != results['reference']:
        raise AssertionError('backend mismatch on short_runs: fast '
                             'RunResult differs from reference')
    return row


def measure(scale=1.0, repeats=3):
    payload = {'benchmark': 'interp_throughput', 'scale': scale,
               'repeats': repeats, 'scenarios': {}}
    for name in SCENARIOS:
        payload['scenarios'][name] = measure_scenario(
            name, scale=scale, repeats=repeats)
    payload['short_runs'] = measure_short_runs(
        runs=max(5, int(40 * scale)))
    return payload


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('--json', default=None, metavar='PATH',
                        help='write the measurements to PATH')
    parser.add_argument('--scale', type=float, default=1.0,
                        help='kernel iteration multiplier')
    parser.add_argument('--repeats', type=int, default=3,
                        help='timing repetitions (best-of)')
    parser.add_argument('--check-ratio', type=float, default=None,
                        metavar='R',
                        help='fail unless fast >= R x reference on the '
                             'alu_baseline kernel')
    parser.add_argument('--check-scenario', action='append', default=[],
                        metavar='NAME=R',
                        help='fail unless fast >= R x reference on '
                             'scenario NAME (repeatable)')
    args = parser.parse_args(argv)

    gates = []
    if args.check_ratio is not None:
        gates.append(('alu_baseline', args.check_ratio))
    for spec in args.check_scenario:
        name, sep, ratio = spec.partition('=')
        if not sep or name not in SCENARIOS:
            parser.error('bad --check-scenario %r (want NAME=R with '
                         'NAME in %s)' % (spec, sorted(SCENARIOS)))
        gates.append((name, float(ratio)))

    payload = measure(scale=args.scale, repeats=args.repeats)
    for name, row in payload['scenarios'].items():
        print('%-14s ref=%6.2f MIPS  fast=%6.2f MIPS  speedup=%.2fx  '
              'nt_spawned=%d  nt_share=%.1f%%'
              % (name, row['reference']['mips'], row['fast']['mips'],
                 row['speedup'], row['nt_spawned'],
                 100.0 * row['split']['nt_instret_share']))
    short = payload['short_runs']
    print('%-14s ref=%6.2f ms/run  fast=%6.2f ms/run  (report only)'
          % ('short_runs', short['reference']['ms'], short['fast']['ms']))
    if args.json:
        with open(args.json, 'w') as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write('\n')
        print('wrote', args.json)
    failed = False
    for name, required in gates:
        speedup = payload['scenarios'][name]['speedup']
        if speedup < required:
            print('FAIL: %s speedup %.2fx < required %.2fx'
                  % (name, speedup, required), file=sys.stderr)
            failed = True
        else:
            print('ratio gate OK: %s %.2fx >= %.2fx'
                  % (name, speedup, required))
    return 1 if failed else 0


def test_interp_throughput(benchmark):
    """Pytest wrapper: a scaled-down run of both scenarios, asserting
    the fast backend wins on the fuse-friendly kernel."""
    payload = benchmark.pedantic(
        lambda: measure(scale=0.1, repeats=1), rounds=1, iterations=1)
    for name, row in payload['scenarios'].items():
        print('%s: speedup=%.2fx' % (name, row['speedup']))
    assert payload['scenarios']['alu_baseline']['speedup'] > 1.0


if __name__ == '__main__':
    sys.exit(main())
