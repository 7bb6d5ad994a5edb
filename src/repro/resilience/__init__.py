"""Fault injection and graceful degradation (see DESIGN.md, "Failure
model & degradation invariant").

The subsystem has three parts:

* :mod:`repro.resilience.faults` -- deterministic, seeded
  :class:`FaultPlan`/:class:`FaultInjector` machinery plus the named
  injection sites wired through the engine, backends, job pool, result
  store and checkpoints;
* :mod:`repro.resilience.watchdog` -- ambient job deadlines that the
  engine polls and that raise on expiry;
* :mod:`repro.resilience.events` -- the process-local record of every
  survived failure (degradations, injected faults).

Installing a plan and running any workload is the chaos harness: the
regression suite (``tests/test_resilience.py``) asserts that each
single injected fault leaves a batch either completed with fault-free
results or failed with one structured, spec-attributed error.
"""

from __future__ import annotations

from repro.resilience import events
from repro.resilience.faults import (SITES, ChaosDetector, FaultInjector,
                                     FaultPlan, FaultSpec, clear_plan,
                                     get_injector, install_plan,
                                     site_hook, worker_faults)
from repro.resilience.watchdog import current_deadline, deadline

__all__ = ['FaultPlan', 'FaultSpec', 'FaultInjector', 'ChaosDetector',
           'SITES', 'install_plan', 'clear_plan', 'get_injector',
           'site_hook', 'worker_faults', 'deadline',
           'current_deadline', 'events']
