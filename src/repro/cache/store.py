"""Content-addressed on-disk artifact store.

A :class:`CacheStore` maps hex digest keys to pickled payloads under a
cache directory. Keys are produced by :mod:`repro.cache.keys` and are
*content addresses*: every input that could change the artifact —
config fields, fault plans, dataset bytes, estimator parameters — is
folded into the digest, so invalidation is automatic (a different input
is a different key; stale entries are simply never addressed again).

Properties:

* **Atomic writes.** Entries are written through
  :func:`repro.cache.codec.write_artifact` (temp file +
  ``os.replace``), so concurrent writers and killed processes can never
  leave a readable-but-corrupt entry; two workers racing on the same key
  both write the same content and either rename wins.
* **Self-verifying reads.** Entries are framed by
  :mod:`repro.cache.codec` (magic, schema version, payload sha256) and
  the frame is verified on *every* read: a flipped bit is detected
  before any pickle opcode runs, the file is moved to ``quarantine/``
  and the read counts as ``cache.corrupt`` — never a silent hit, never
  a silent miss.  Bare-pickle entries written before the frame existed
  fail the frame check too, so they are quarantined and recomputed.
  ``MemoryError`` propagates: running out of memory is not a cache
  miss.
* **Observable.** Every operation bumps ``cache.hits`` /
  ``cache.misses`` (absent or stale entries) / ``cache.corrupt``
  (failed integrity checks) / ``cache.writes`` and the
  ``cache.bytes_read`` / ``cache.bytes_written`` counters in the
  contextual :class:`~repro.obs.metrics.MetricsRegistry`, so the run
  ledger (``repro report --run``) shows cache effectiveness per run —
  including from worker processes, whose registries merge back into
  the parent.
* **Maintainable.** :meth:`stats`, :meth:`verify` (offline integrity
  sweep), :meth:`gc` (age/size pruning) and :meth:`clear` back the
  ``repro cache`` CLI.

The store itself holds only the directory path, so it pickles cheaply
into :mod:`repro.parallel` worker processes.
"""

from __future__ import annotations

import time
from pathlib import Path

from ..obs import current_metrics, event, get_logger
from .codec import (
    QUARANTINE_DIR,
    CorruptArtifact,
    StaleArtifact,
    load_artifact,
    quarantine_entry,
    unframe,
    write_artifact,
)

__all__ = ["CacheStore"]

_log = get_logger("cache")

_SUFFIX = ".pkl"
_TMP_SUFFIX = ".tmp"

#: Orphaned temp files younger than this are presumed in-flight writes
#: and left alone by ``gc``.
_TMP_GRACE_S = 3600.0


class CacheStore:
    """Pickle store addressed by hex-digest keys under one directory.

    Parameters
    ----------
    directory:
        Cache root. Created lazily on the first write. Entries are
        sharded by the first two key characters (``ab12…`` →
        ``<dir>/ab/ab12….pkl``) to keep directory listings short;
        corrupt entries are moved to ``<dir>/quarantine/``.
    """

    def __init__(self, directory):
        self.directory = Path(directory)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheStore({str(self.directory)!r})"

    # ------------------------------------------------------------------
    def _path_for(self, key: str) -> Path:
        if not key or not all(c in "0123456789abcdef" for c in key):
            raise ValueError(f"cache keys must be hex digests, got {key!r}")
        return self.directory / key[:2] / f"{key}{_SUFFIX}"

    def get(self, key: str, default=None):
        """The payload stored under ``key``, or ``default`` on a miss.

        A corrupt entry (failed magic/length/digest check) is moved to
        ``quarantine/``, counted as ``cache.corrupt``, and returns
        ``default`` — the caller recomputes, and ``repro cache verify``
        lists the evidence.  An intact entry whose classes no longer
        import counts as an ordinary miss.  ``MemoryError`` propagates.
        """
        path = self._path_for(key)
        metrics = current_metrics()
        try:
            blob = path.read_bytes()
        except (FileNotFoundError, NotADirectoryError):
            metrics.counter("cache.misses").inc()
            return default
        try:
            payload = load_artifact(blob)
        except StaleArtifact as exc:
            metrics.counter("cache.misses").inc()
            _log.debug("cache.stale", key=key, error=str(exc))
            return default
        except CorruptArtifact as exc:
            moved = quarantine_entry(path, self.directory)
            metrics.counter("cache.corrupt").inc()
            event("cache.quarantined", key=key, reason=exc.reason)
            _log.warning("cache.corrupt", key=key, reason=exc.reason,
                         quarantined=str(moved) if moved else "deleted")
            return default
        metrics.counter("cache.hits").inc()
        metrics.counter("cache.bytes_read").inc(len(blob))
        _log.debug("cache.hit", key=key, bytes=len(blob))
        return payload

    def put(self, key: str, payload) -> int:
        """Atomically store ``payload`` under ``key``; returns bytes written."""
        path = self._path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        written = write_artifact(path, payload)
        metrics = current_metrics()
        metrics.counter("cache.writes").inc()
        metrics.counter("cache.bytes_written").inc(written)
        _log.debug("cache.put", key=key, bytes=written)
        return written

    def contains(self, key: str) -> bool:
        """Whether ``key`` has an entry on disk (no counters, no read)."""
        return self._path_for(key).is_file()

    # ------------------------------------------------------------------
    def _shard_dirs(self) -> list[Path]:
        if not self.directory.is_dir():
            return []
        return sorted(
            p for p in self.directory.iterdir()
            if p.is_dir() and p.name != QUARANTINE_DIR
        )

    def _entry_paths(self) -> list[Path]:
        return sorted(
            path
            for shard in self._shard_dirs()
            for path in shard.glob(f"*{_SUFFIX}")
        )

    def _quarantine_paths(self) -> list[Path]:
        quarantine = self.directory / QUARANTINE_DIR
        if not quarantine.is_dir():
            return []
        return sorted(p for p in quarantine.iterdir() if p.is_file())

    def _tmp_paths(self) -> list[Path]:
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.rglob(f"*{_TMP_SUFFIX}*"))

    def entry_count(self) -> int:
        """Number of entries currently on disk."""
        return len(self._entry_paths())

    def size_bytes(self) -> int:
        """Total bytes of all entries currently on disk."""
        return sum(p.stat().st_size for p in self._entry_paths())

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """One inventory pass: entries, bytes, quarantine, stray temps."""
        entries = self._entry_paths()
        quarantined = self._quarantine_paths()
        return {
            "directory": str(self.directory),
            "entries": len(entries),
            "bytes": sum(p.stat().st_size for p in entries),
            "shards": len(self._shard_dirs()),
            "quarantined": len(quarantined),
            "quarantined_bytes": sum(p.stat().st_size
                                     for p in quarantined),
            "tmp_files": len(self._tmp_paths()),
        }

    def verify(self, repair: bool = True) -> dict:
        """Integrity-sweep every entry; optionally quarantine failures.

        Frames are verified without unpickling (the digest is the
        proof); an unframed entry is corrupt.  ``repair=True``
        (the default) moves corrupt entries to ``quarantine/`` and
        counts them as ``cache.corrupt``, exactly as a hot read would.
        """
        report = {"checked": 0, "ok": 0, "corrupt": [], "quarantined": 0}
        metrics = current_metrics()
        for path in self._entry_paths():
            report["checked"] += 1
            try:
                unframe(path.read_bytes())
                report["ok"] += 1
            except CorruptArtifact as exc:
                report["corrupt"].append(path.stem)
                _log.warning("cache.verify.corrupt", entry=path.name,
                             reason=exc.reason)
                if repair:
                    metrics.counter("cache.corrupt").inc()
                    event("cache.quarantined", key=path.stem,
                          reason=exc.reason)
                    if quarantine_entry(path, self.directory) is not None:
                        report["quarantined"] += 1
        return report

    def gc(self, max_bytes: int | None = None,
           max_age_s: float | None = None, now: float | None = None
           ) -> dict:
        """Prune the store; returns what was removed.

        * stray ``*.tmp`` files older than an hour (torn writes);
        * entries (and quarantined files) older than ``max_age_s``;
        * then oldest-first eviction until the live entries fit in
          ``max_bytes``.
        """
        now = time.time() if now is None else now
        removed = {"expired": 0, "evicted": 0, "tmp": 0,
                   "quarantined": 0, "bytes_freed": 0}

        def _remove(path: Path, bucket: str) -> None:
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:
                return
            removed[bucket] += 1
            removed["bytes_freed"] += size

        for path in self._tmp_paths():
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue
            if age >= _TMP_GRACE_S:
                _remove(path, "tmp")
        if max_age_s is not None:
            for path in self._entry_paths():
                if now - path.stat().st_mtime > max_age_s:
                    _remove(path, "expired")
            for path in self._quarantine_paths():
                if now - path.stat().st_mtime > max_age_s:
                    _remove(path, "quarantined")
        if max_bytes is not None:
            survivors = [(p.stat().st_mtime, p.stat().st_size, p)
                         for p in self._entry_paths()]
            total = sum(size for _, size, _ in survivors)
            for _, size, path in sorted(survivors, key=lambda t: t[0]):
                if total <= max_bytes:
                    break
                _remove(path, "evicted")
                total -= size
        self._prune_empty_dirs()
        if any(removed[k] for k in ("expired", "evicted", "tmp",
                                    "quarantined")):
            _log.info("cache.gc", **removed)
        return removed

    def clear(self) -> int:
        """Delete every entry; returns how many were removed.

        Also sweeps stray temp files, the quarantine directory, and the
        now-empty shard directories, so a cleared store leaves nothing
        behind but its (empty) root.
        """
        removed = 0
        for path in self._entry_paths():
            try:
                path.unlink()
                removed += 1
            except FileNotFoundError:
                pass
        for path in self._tmp_paths() + self._quarantine_paths():
            try:
                path.unlink()
            except OSError:
                pass
        self._prune_empty_dirs()
        return removed

    def _prune_empty_dirs(self) -> None:
        candidates = self._shard_dirs()
        quarantine = self.directory / QUARANTINE_DIR
        if quarantine.is_dir():
            candidates.append(quarantine)
        for subdir in candidates:
            try:
                subdir.rmdir()  # refuses unless empty
            except OSError:
                pass
