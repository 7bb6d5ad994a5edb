"""One benchmark sample: run one workload's driver once, in this fresh
process, and write what happened to ``--out`` as JSON.

Started by ``run.py`` with ``REPRO_BACKEND`` set, a fresh working
directory and ``PYTHONPATH`` pointing at the checkout's ``src``.  With
``--setup-only`` the child stops when the driver is ready to be called,
which gives one more ``setup_s`` sample at little cost.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(',', ':'),
                      default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument('--workload', required=True)
    parser.add_argument('--out', required=True)
    parser.add_argument('--tiny', action='store_true')
    parser.add_argument('--trace', action='store_true')
    parser.add_argument('--setup-only', action='store_true')
    args = parser.parse_args()

    import repro.harness.experiments  # noqa: F401  (import is set-up)
    from tracer import Tracer, capture, sim_counts
    from workloads import WORKLOADS

    setup, pooled = WORKLOADS[args.workload]
    results, simulated = [], []
    capture(results, simulated)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install_jobs()
        if not pooled:
            tracer.install_simulation()
    call = setup(args.tiny, '.')
    ready = time.monotonic()
    if args.setup_only:
        with open(args.out, 'w') as handle:
            json.dump({'ready': ready}, handle)
        return

    start = time.perf_counter()
    tables = call()
    wall = time.perf_counter() - start

    record = {
        'ready': ready,
        'wall_s': wall,
        'runs': [digest(result.to_dict()) for result in results],
        'rows': digest([table.rows for table in tables]),
        'last_row': list(tables[-1].rows[-1]),
        'sim': sim_counts(simulated),
        'layers': tracer.metrics(simulated) if tracer else None,
    }
    with open(args.out, 'w') as handle:
        json.dump(record, handle)


if __name__ == '__main__':
    main()
