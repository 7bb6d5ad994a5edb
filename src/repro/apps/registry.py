"""Application registry: every evaluated program in one place.

Mirrors Table 3 of the paper: seven buggy applications (38 tested bugs
total) plus the three SPEC-analogue workloads added for the overhead
and coverage experiments (gzip, vpr, parser).
"""

from __future__ import annotations

from repro.apps import (bc_calc, go_app, gzip_app, man_fmt, parser_app,
                        print_tokens, print_tokens2, schedule, schedule2,
                        vpr_app)
from repro.core.config import Mode, PathExpanderConfig
from repro.minic.codegen import compile_minic


class AppSpec:
    """One benchmark application and its experiment metadata."""

    def __init__(self, module):
        self.module = module
        self.name = module.NAME
        self.tools = tuple(module.TOOLS)
        self.is_siemens = module.IS_SIEMENS
        self.versions = dict(module.VERSIONS)

    # ------------------------------------------------------------------

    def source(self, version=0):
        return self.module.make_source(version)

    def compile(self, version=0):
        name = self.name if version == 0 else '%s_v%s' % (self.name,
                                                          version)
        return compile_minic(self.source(version), name=name)

    def bugs(self, version=0):
        return list(self.versions.get(version, []))

    def default_input(self):
        return self.module.default_input()

    def random_input(self, seed):
        return self.module.random_input(seed)

    def make_config(self, mode=Mode.STANDARD, **overrides):
        """The paper's per-app configuration: MaxNTPathLength is 100
        for the small Siemens benchmarks and 1000 for the rest
        (Section 6.3)."""
        if self.is_siemens:
            overrides.setdefault('max_nt_path_length', 100)
        return PathExpanderConfig(mode=mode, **overrides)

    @property
    def assertion_versions(self):
        """Versions whose bugs are checked with assertions."""
        return sorted(
            version for version, bugs in self.versions.items()
            if bugs and all(bug.assert_id is not None for bug in bugs))

    def __repr__(self):
        return '<AppSpec %s: %d versions, tools=%s>' % (
            self.name, len(self.versions), list(self.tools))


_MODULES = (print_tokens, print_tokens2, schedule, schedule2, bc_calc,
            man_fmt, go_app, gzip_app, vpr_app, parser_app)

ALL_APPS = {module.NAME: AppSpec(module) for module in _MODULES}

# The seven buggy applications of Table 3.
BUGGY_APP_NAMES = ('go_app', 'bc_calc', 'man_fmt', 'print_tokens',
                   'print_tokens2', 'schedule', 'schedule2')

# Apps used for the overhead / coverage / crash-latency experiments.
WORKLOAD_APP_NAMES = ('go_app', 'gzip_app', 'vpr_app', 'parser_app',
                      'bc_calc', 'man_fmt', 'print_tokens',
                      'print_tokens2', 'schedule', 'schedule2')


def get_app(name):
    if name not in ALL_APPS:
        raise KeyError('unknown app %r (choose from %s)'
                       % (name, sorted(ALL_APPS)))
    return ALL_APPS[name]


def total_tested_bugs():
    """Bug count as in Table 3/4: memory bugs are tested once per
    memory tool (CCured and iWatcher), semantic bugs once."""
    total = 0
    for name in BUGGY_APP_NAMES:
        app = get_app(name)
        for bugs in app.versions.values():
            for bug in bugs:
                total += 2 if bug.is_memory_bug else 1
    return total
