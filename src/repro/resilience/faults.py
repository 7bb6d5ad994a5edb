"""Deterministic fault injection: plans, the injector, and site hooks.

A :class:`FaultPlan` is a seeded, serializable description of *which*
named sites misbehave and *when* (by invocation index or seeded rate).
A :class:`FaultInjector` executes a plan: instrumented sites poll it,
and when a site is armed for the current invocation the injector either
raises (:class:`~repro.core.errors.InjectedFault` /
:class:`~repro.core.errors.WorkerCrash`) or hands the site its
:class:`FaultSpec` so the site can apply a site-specific corruption
(scribble a cache record, flip a checkpointed register, sleep).

Determinism: a plan is a pure function of its seed and the sites'
invocation order -- two runs of the same workload under the same plan
inject the same faults at the same points.  Plans propagate to job-pool
worker processes through ``$REPRO_FAULT_PLAN`` (JSON), loaded lazily on
the worker's first site poll.

The known sites (:data:`SITES`) cover every layer the graceful-
degradation machinery protects: the fast backend's block dispatch,
detector hooks, spawn checkpoints, result-store records, and pool
workers.  All of this is a no-op at steady state: uninstrumented
processes pay one cached ``None`` check per site lookup.
"""

from __future__ import annotations

import json
import os
import random

from repro.core.errors import InjectedFault, WorkerCrash
from repro.resilience import events

ENV_VAR = 'REPRO_FAULT_PLAN'

# Every named injection site, with the failure it simulates:
SITES = (
    'fastinterp.block',      # internal error in fast-backend dispatch
    'detector.hook',         # detector on_load/on_store raises
    'checkpoint.corrupt',    # spawn checkpoint silently corrupted
    'store.corrupt_record',  # cache record corrupted after write
    'pool.worker_crash',     # worker raises (or hard-exits) mid-job
    'pool.worker_hang',      # worker stalls before running its job
)


class FaultSpec:
    """When and how one site misbehaves.

    ``fires`` -- tuple of 0-based invocation indices that fire; ``rate``
    -- per-invocation probability (seeded per site); neither -- every
    invocation fires.  ``max_fires`` caps total firings (``None`` =
    unlimited).  ``mode``/``duration`` parameterize the site action
    (e.g. ``'exit'`` vs ``'exception'`` for worker crashes, seconds for
    hangs).  ``match_key`` restricts job-level sites to one spec key;
    non-matching invocations neither fire nor advance the counter.
    """

    __slots__ = ('site', 'fires', 'rate', 'max_fires', 'mode',
                 'duration', 'match_key')

    def __init__(self, site, fires=(0,), rate=None, max_fires=1,
                 mode=None, duration=None, match_key=None):
        if site not in SITES:
            raise ValueError('unknown fault site %r (choose from %s)'
                             % (site, ', '.join(SITES)))
        self.site = site
        self.fires = tuple(fires) if fires is not None else None
        self.rate = rate
        self.max_fires = max_fires
        self.mode = mode
        self.duration = duration
        self.match_key = match_key

    def to_dict(self):
        return {slot: (list(self.fires) if slot == 'fires'
                       and self.fires is not None
                       else getattr(self, slot))
                for slot in self.__slots__}

    @classmethod
    def from_dict(cls, data):
        return cls(**{slot: data.get(slot) for slot in cls.__slots__})

    def __repr__(self):
        return '<FaultSpec %s fires=%r rate=%r mode=%r>' % (
            self.site, self.fires, self.rate, self.mode)


class FaultPlan:
    """A seeded set of fault specs, one per misbehaving site."""

    def __init__(self, specs=(), seed=0):
        self.seed = int(seed)
        self.specs = {}
        for spec in specs:
            if spec.site in self.specs:
                raise ValueError('duplicate spec for site %r'
                                 % spec.site)
            self.specs[spec.site] = spec

    def has_site(self, site):
        return site in self.specs

    def for_site(self, site):
        return self.specs.get(site)

    def to_json(self):
        return json.dumps(
            {'seed': self.seed,
             'specs': [self.specs[site].to_dict()
                       for site in sorted(self.specs)]},
            sort_keys=True)

    @classmethod
    def from_json(cls, payload):
        data = json.loads(payload)
        return cls(specs=[FaultSpec.from_dict(item)
                          for item in data.get('specs', ())],
                   seed=data.get('seed', 0))

    @classmethod
    def single(cls, site, seed=0, **spec_kwargs):
        """A plan arming exactly one site."""
        return cls(specs=[FaultSpec(site, **spec_kwargs)], seed=seed)

    @classmethod
    def default_matrix(cls, seed=0):
        """One single-site plan per known site (the chaos-suite matrix).

        Each plan fires exactly once, at a small invocation index
        derived deterministically from the seed, so different seeds
        exercise different injection points of the same workload.
        """
        plans = []
        for site in SITES:
            # String seeds hash via sha512, so the derived indices are
            # stable across processes (tuple seeds would depend on
            # PYTHONHASHSEED).
            rng = random.Random('%d:%s' % (seed, site))
            kwargs = {'fires': (rng.randrange(0, 3),), 'max_fires': 1}
            if site == 'pool.worker_hang':
                kwargs['duration'] = 0.05
            plans.append(cls.single(site, seed=seed, **kwargs))
        return plans

    def __repr__(self):
        return '<FaultPlan seed=%d sites=%s>' % (
            self.seed, ','.join(sorted(self.specs)) or '-')


class FaultInjector:
    """Executes a plan: counts site invocations, decides firings."""

    def __init__(self, plan):
        self.plan = plan
        self._counts = {}
        self._fired = {}
        self._rngs = {}
        self.fired_log = []      # (site, invocation index)

    # ------------------------------------------------------------------

    def poll(self, site, key=None):
        """The armed :class:`FaultSpec` for this invocation, or None.

        Advances the site's invocation counter (except for
        key-restricted specs polled with a non-matching key).
        """
        spec = self.plan.for_site(site)
        if spec is None:
            return None
        if spec.match_key is not None and key != spec.match_key:
            return None
        index = self._counts.get(site, 0)
        self._counts[site] = index + 1
        if spec.fires is not None:
            fire = index in spec.fires
        elif spec.rate is not None:
            rng = self._rngs.get(site)
            if rng is None:
                rng = self._rngs[site] = random.Random(
                    '%d:%s' % (self.plan.seed, site))
            fire = rng.random() < spec.rate
        else:
            fire = True
        if fire and spec.max_fires is not None \
                and self._fired.get(site, 0) >= spec.max_fires:
            fire = False
        if not fire:
            return None
        self._fired[site] = self._fired.get(site, 0) + 1
        self.fired_log.append((site, index))
        events.record('fault_injected', site=site, invocation=index,
                      mode=spec.mode)
        return spec

    def check(self, site, key=None):
        """Poll and raise :class:`InjectedFault` when armed."""
        if self.poll(site, key=key) is not None:
            raise InjectedFault('injected fault at %s' % site,
                                site=site)


# ======================================================================
# process-wide installation

_injector = None
_env_loaded = False


def install_plan(plan, propagate=False):
    """Install ``plan`` process-wide; returns its injector.

    With ``propagate=True`` the plan is also exported through
    ``$REPRO_FAULT_PLAN`` so freshly spawned pool workers load it (each
    worker gets its own injector, with its own invocation counters).
    """
    global _injector
    _injector = FaultInjector(plan)
    if propagate:
        os.environ[ENV_VAR] = plan.to_json()
    return _injector


def clear_plan():
    """Remove any installed plan (and its env propagation)."""
    global _injector, _env_loaded
    _injector = None
    _env_loaded = False
    os.environ.pop(ENV_VAR, None)


def get_injector():
    """The active injector, or None.  Lazily loads ``$REPRO_FAULT_PLAN``
    exactly once per process (how pool workers inherit a plan); a
    malformed plan is ignored rather than breaking real runs."""
    global _injector, _env_loaded
    if _injector is None and not _env_loaded:
        _env_loaded = True
        payload = os.environ.get(ENV_VAR)
        if payload:
            try:
                _injector = FaultInjector(FaultPlan.from_json(payload))
            except Exception:
                _injector = None
    return _injector


def site_hook(site):
    """A zero-arg raise-when-armed callable for ``site``, or None when
    no installed plan arms it.  Hot loops bind the result once and skip
    the per-iteration lookup entirely at steady state."""
    injector = get_injector()
    if injector is None or not injector.plan.has_site(site):
        return None

    def hook():
        injector.check(site)
    return hook


def worker_faults(key):
    """Run the worker-side crash/hang sites for job ``key``.

    Called by the job executor before the simulation starts.  A crash
    spec raises :class:`WorkerCrash` (``mode='exception'``, the
    default) or hard-exits the process (``mode='exit'`` -- downgraded
    to an exception when not inside a worker process, so an injected
    crash can never kill the batch parent).  A hang spec sleeps for
    ``duration`` seconds.
    """
    injector = get_injector()
    if injector is None:
        return
    spec = injector.poll('pool.worker_crash', key=key)
    if spec is not None:
        if spec.mode == 'exit' and _in_worker_process():
            os._exit(3)
        raise WorkerCrash('injected worker crash', key=key,
                          mode=spec.mode)
    spec = injector.poll('pool.worker_hang', key=key)
    if spec is not None:
        import time
        time.sleep(spec.duration if spec.duration is not None else 30.0)


def _in_worker_process():
    try:
        import multiprocessing
        return multiprocessing.parent_process() is not None
    except Exception:                            # pragma: no cover
        return False


class ChaosDetector:
    """Delegating detector proxy that injects ``detector.hook`` faults.

    Wraps a real detector; every load/store hook first polls the
    injector, so an armed plan makes the detector raise exactly once
    (or per its spec) while all other behaviour -- reports, attach,
    costs -- passes straight through.  Except the shadow: blocks skip
    the hooks for words it marks legal, and every access must poll.
    """

    shadow = None

    def __init__(self, inner, injector):
        self._inner = inner
        self._injector = injector

    def on_load(self, addr, value, interp):
        self._injector.check('detector.hook')
        return self._inner.on_load(addr, value, interp)

    def on_store(self, addr, value, interp):
        self._injector.check('detector.hook')
        return self._inner.on_store(addr, value, interp)

    def __getattr__(self, name):
        return getattr(self._inner, name)
