"""Frozen, content-addressed description of one simulation job.

A :class:`JobSpec` captures *everything* that determines a
:class:`~repro.core.result.RunResult`: the program (a registered app
version or raw MiniC source), the PathExpander mode, the detector, any
configuration overrides and the program input.  Its :attr:`key` is a
SHA-256 over the canonical JSON form, so two specs hash equal exactly
when they describe the same run — the property the on-disk result cache
relies on.  Hashes are stable across processes and interpreter
invocations (no dependence on ``PYTHONHASHSEED``).
"""

from __future__ import annotations

import hashlib
import json

from repro.core.config import Mode

# Override values must survive a JSON round-trip unchanged; anything
# fancier would make the content hash ambiguous.
_SCALAR_TYPES = (str, int, float, bool, type(None))


class JobSpec:
    """One simulation request, frozen after construction."""

    __slots__ = ('app', 'version', 'source', 'program_name', 'mode',
                 'detector', 'config_overrides', 'text_input',
                 'int_input', '_key')

    def __init__(self, app=None, version=0, source=None,
                 program_name='program', mode=Mode.STANDARD,
                 detector='none', config_overrides=None, text_input='',
                 int_input=()):
        if (app is None) == (source is None):
            raise ValueError('exactly one of app/source must be given')
        if mode not in Mode.ALL:
            raise ValueError('bad mode %r' % mode)
        overrides = dict(config_overrides or {})
        for name, value in overrides.items():
            if not isinstance(name, str) \
                    or not isinstance(value, _SCALAR_TYPES):
                raise TypeError(
                    'config override %r=%r is not a JSON scalar'
                    % (name, value))
        set_ = object.__setattr__
        set_(self, 'app', app)
        set_(self, 'version', int(version))
        set_(self, 'source', source)
        set_(self, 'program_name', program_name)
        set_(self, 'mode', mode)
        set_(self, 'detector', detector)
        set_(self, 'config_overrides',
             tuple(sorted(overrides.items())))
        set_(self, 'text_input', text_input)
        set_(self, 'int_input', tuple(int(v) for v in int_input or ()))
        set_(self, '_key', None)

    # -- frozenness ----------------------------------------------------

    def __setattr__(self, name, value):
        raise AttributeError('JobSpec is frozen')

    def __delattr__(self, name):
        raise AttributeError('JobSpec is frozen')

    # -- construction helpers ------------------------------------------

    @classmethod
    def for_app(cls, app_name, version=0, mode=Mode.STANDARD,
                detector='none', config_overrides=None, text_input='',
                int_input=()):
        """A job over a registered benchmark application."""
        return cls(app=app_name, version=version, mode=mode,
                   detector=detector, config_overrides=config_overrides,
                   text_input=text_input, int_input=int_input)

    @classmethod
    def for_source(cls, source, name='program', mode=Mode.STANDARD,
                   detector='none', config_overrides=None,
                   text_input='', int_input=()):
        """A job over raw MiniC source."""
        return cls(source=source, program_name=name, mode=mode,
                   detector=detector, config_overrides=config_overrides,
                   text_input=text_input, int_input=int_input)

    # -- serialization and hashing -------------------------------------

    def to_dict(self):
        return {
            'app': self.app,
            'version': self.version,
            'source': self.source,
            'program_name': self.program_name,
            'mode': self.mode,
            'detector': self.detector,
            'config_overrides': dict(self.config_overrides),
            'text_input': self.text_input,
            'int_input': list(self.int_input),
        }

    @classmethod
    def from_dict(cls, data):
        return cls(app=data.get('app'),
                   version=data.get('version', 0),
                   source=data.get('source'),
                   program_name=data.get('program_name', 'program'),
                   mode=data['mode'],
                   detector=data.get('detector', 'none'),
                   config_overrides=data.get('config_overrides'),
                   text_input=data.get('text_input', ''),
                   int_input=data.get('int_input', ()))

    @property
    def key(self):
        """Canonical content hash: the cache key for this job.

        Overrides are hashed as given, so an override equal to the
        default still changes the key.  The experiment drivers build
        app specs with only the overrides that differ from the app's
        own configuration, which makes every run they share hash
        equal.
        """
        if self._key is None:
            canonical = json.dumps(self.to_dict(), sort_keys=True,
                                   separators=(',', ':'))
            digest = hashlib.sha256(canonical.encode('utf-8'))
            object.__setattr__(self, '_key', digest.hexdigest())
        return self._key

    # -- value semantics -----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, JobSpec):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        target = self.app if self.app is not None \
            else '<source:%s>' % self.program_name
        return '<JobSpec %s v%d %s/%s key=%s>' % (
            target, self.version, self.mode, self.detector,
            self.key[:12])
