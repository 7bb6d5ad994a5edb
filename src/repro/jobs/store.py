"""On-disk result cache keyed by :attr:`JobSpec.key`.

One JSON record per job, sharded by key prefix
(``<root>/ab/abcdef….json``).  Writes go through a temporary file in
the same directory followed by :func:`os.replace`, so a record is
either fully present or absent — never half-written; stale ``.tmp``
files left behind by a killed writer are garbage-collected when the
store is opened.  Every record embeds a sha256 checksum over its own
canonical JSON (record version 2), so *silent* corruption — a record
that still parses but whose payload was altered — is caught, not just
truncation.  Reads are corruption-tolerant: a record that fails to
parse, fails its sanity checks or fails its checksum is *evicted*
(deleted) and reported as a miss, so the job simply reruns instead of
crashing the batch.  :meth:`fsck` walks the whole store and verifies
(or repairs, with ``repair=True``) every record offline — the CLI
exposes it as ``repro cache fsck``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

_RECORD_VERSION = 2
_CHECKSUM_FIELD = 'checksum'


def _record_checksum(record):
    """sha256 over the record's canonical JSON, checksum field excluded."""
    body = {name: value for name, value in record.items()
            if name != _CHECKSUM_FIELD}
    payload = json.dumps(body, sort_keys=True, separators=(',', ':'))
    return hashlib.sha256(payload.encode('utf-8')).hexdigest()


class ResultStore:
    """Directory-backed cache of serialized run results."""

    def __init__(self, root):
        self.root = os.fspath(root)
        self.corrupt_evictions = 0
        self._gc_stale_tmp()

    # ------------------------------------------------------------------

    def _path(self, key):
        return os.path.join(self.root, key[:2], key + '.json')

    def _evict(self, path):
        self.corrupt_evictions += 1
        try:
            os.unlink(path)
        except OSError:
            pass

    def _gc_stale_tmp(self):
        """Remove ``.tmp`` leftovers of writers that died mid-put.

        A ``.tmp`` file only exists between ``mkstemp`` and
        ``os.replace``; anything surviving to the next store open is
        garbage by construction.
        """
        removed = 0
        for _shard, shard_dir, name in self._walk():
            if name.endswith('.tmp'):
                try:
                    os.unlink(os.path.join(shard_dir, name))
                    removed += 1
                except OSError:
                    pass
        return removed

    def _walk(self):
        """Yield ``(shard, shard_dir, filename)`` for every file."""
        if not os.path.isdir(self.root):
            return
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                yield shard, shard_dir, name

    # ------------------------------------------------------------------

    @staticmethod
    def _validate(record, key):
        """Why ``record`` is unusable for ``key``, or None when valid.

        Every record must carry a matching checksum; one written
        without (an older record version) simply reruns.
        """
        if not isinstance(record, dict):
            return 'not a record'
        if record.get('key') != key:
            return 'key mismatch'
        if not isinstance(record.get('result'), dict):
            return 'missing result'
        if record.get(_CHECKSUM_FIELD) != _record_checksum(record):
            return 'checksum mismatch'
        return None

    def get(self, key):
        """The cached record for ``key``, or ``None`` on miss.

        A corrupt or mismatched record counts as a miss and is removed
        so the next :meth:`put` starts clean.
        """
        path = self._path(key)
        try:
            with open(path, encoding='utf-8') as handle:
                record = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self._evict(path)
            return None
        if self._validate(record, key) is not None:
            self._evict(path)
            return None
        return record

    def put(self, key, spec_dict, result_dict, elapsed_seconds):
        """Atomically persist one job result (checksummed)."""
        record = {
            'record_version': _RECORD_VERSION,
            'key': key,
            'spec': spec_dict,
            'result': result_dict,
            'elapsed_seconds': elapsed_seconds,
        }
        record[_CHECKSUM_FIELD] = _record_checksum(record)
        path = self._path(key)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix='.tmp')
        try:
            with os.fdopen(fd, 'w', encoding='utf-8') as handle:
                json.dump(record, handle, sort_keys=True,
                          separators=(',', ':'))
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self._apply_corruption_fault(path, record)
        return path

    def invalidate(self, key):
        """Drop ``key``'s record (counted as a corrupt eviction)."""
        self._evict(self._path(key))

    # ------------------------------------------------------------------

    def fsck(self, repair=False):
        """Verify every record; returns a report dict.

        ``checked`` counts records examined; ``corrupt`` lists
        ``(key, reason)`` for every bad record found; ``repaired``
        lists the keys removed (``repair=True`` deletes bad records so
        the jobs rerun -- results are reproducible, so deletion *is*
        the repair); ``stale_tmp`` counts writer leftovers removed.
        """
        checked = 0
        corrupt = []
        repaired = []
        stale_tmp = self._gc_stale_tmp()
        for _shard, shard_dir, name in self._walk():
            if not name.endswith('.json'):
                continue
            checked += 1
            key = name[:-len('.json')]
            path = os.path.join(shard_dir, name)
            try:
                with open(path, encoding='utf-8') as handle:
                    record = json.load(handle)
            except (OSError, ValueError) as exc:
                reason = 'unreadable: %s' % exc.__class__.__name__
            else:
                reason = self._validate(record, key)
            if reason is None:
                continue
            corrupt.append((key, reason))
            if repair:
                self._evict(path)
                repaired.append(key)
        return {'checked': checked, 'corrupt': corrupt,
                'repaired': repaired, 'stale_tmp': stale_tmp}

    # ------------------------------------------------------------------

    def _apply_corruption_fault(self, path, record):
        """Chaos hook (``store.corrupt_record``): scribble the record
        that was just written, per the installed fault plan."""
        from repro.resilience import get_injector
        injector = get_injector()
        if injector is None:
            return
        spec = injector.poll('store.corrupt_record',
                             key=record.get('key'))
        if spec is None:
            return
        if spec.mode == 'silent':
            # Valid JSON, plausible shape, stale checksum: only the
            # embedded checksum can catch this one.
            mutated = dict(record)
            result = dict(mutated.get('result') or {})
            result['cycles'] = int(result.get('cycles') or 0) + 1
            mutated['result'] = result
            payload = json.dumps(mutated, sort_keys=True,
                                 separators=(',', ':'))
        else:
            payload = '{"truncated'
        try:
            with open(path, 'w', encoding='utf-8') as handle:
                handle.write(payload)
        except OSError:
            pass

    # ------------------------------------------------------------------

    def __contains__(self, key):
        return os.path.exists(self._path(key))

    def keys(self):
        for _shard, _shard_dir, name in self._walk():
            if name.endswith('.json'):
                yield name[:-len('.json')]

    def __len__(self):
        return sum(1 for _key in self.keys())

    def clear(self):
        for key in list(self.keys()):
            try:
                os.unlink(self._path(key))
            except OSError:
                pass

    def __repr__(self):
        return '<ResultStore %s: %d records>' % (self.root, len(self))
