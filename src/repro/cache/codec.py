"""Self-verifying artifact framing for the cache store.

Every on-disk artifact this package writes — each
:class:`~repro.cache.CacheStore` entry, including the per-scenario task
results a killed run resumes from — goes through one codec that wraps
the pickled payload in a *frame*::

    magic (4B)  version (1B)  sha256(payload) (32B)  length (8B)  payload

Reads verify the frame before a single pickle opcode executes: a
flipped bit anywhere in the payload fails the digest, a torn tail fails
the length, and an alien file — including a bare pickle written before
the frame existed — fails the magic.  The caller then decides
what a :class:`CorruptArtifact` means (the store quarantines the file
and recomputes; silent loading of damaged state is structurally
impossible).

One deliberate distinction, **corrupt vs stale**: a frame whose
digest verifies but whose payload references code that no longer
imports (a class was renamed between versions) raises
:class:`StaleArtifact` instead — the file is intact, the *schema* moved
on; it is a plain miss, not quarantine material.

``MemoryError`` always propagates: an allocation failure is a machine
problem, never evidence about the artifact.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import struct
import tempfile
from pathlib import Path

__all__ = [
    "CorruptArtifact",
    "FRAME_MAGIC",
    "FRAME_VERSION",
    "QUARANTINE_DIR",
    "StaleArtifact",
    "atomic_write_bytes",
    "dump_artifact",
    "is_framed",
    "load_artifact",
    "quarantine_entry",
    "unframe",
    "write_artifact",
]

#: Frame header: magic, schema version, payload sha256, payload length.
FRAME_MAGIC = b"RPAF"
FRAME_VERSION = 1
_HEADER = struct.Struct(">4sB32sQ")

#: Subdirectory (of a store root) corrupt entries move to.
QUARANTINE_DIR = "quarantine"


class CorruptArtifact(ValueError):
    """An on-disk artifact failed its integrity check.

    ``reason`` is a short machine-readable slug (``bad-magic``,
    ``truncated-header``, ``unknown-version``, ``length-mismatch``,
    ``digest-mismatch``, ``unpicklable-payload``).
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


class StaleArtifact(ValueError):
    """An intact artifact references code that no longer imports.

    Treated as a plain cache miss — the entry belongs to an older
    schema, it is not damaged.
    """


def is_framed(blob) -> bool:
    """Whether ``blob`` starts with the artifact-frame magic."""
    return blob[:len(FRAME_MAGIC)] == FRAME_MAGIC


def _frame_header(payload) -> bytes:
    """The frame header for raw payload bytes (any buffer)."""
    return _HEADER.pack(
        FRAME_MAGIC, FRAME_VERSION,
        hashlib.sha256(payload).digest(), len(payload),
    )


def frame(payload: bytes) -> bytes:
    """Wrap raw payload bytes in a verified frame."""
    return _frame_header(payload) + payload


def unframe(blob) -> memoryview:
    """Verify the frame; return a view of the payload inside ``blob``.

    The view shares ``blob``'s memory, so verifying an artifact never
    copies its payload.  Raises :class:`CorruptArtifact`.
    """
    if not is_framed(blob):
        raise CorruptArtifact("bad-magic",
                              repr(bytes(blob[:len(FRAME_MAGIC)])))
    if len(blob) < _HEADER.size:
        raise CorruptArtifact(
            "truncated-header",
            f"{len(blob)} bytes < {_HEADER.size}-byte header",
        )
    _, version, digest, length = _HEADER.unpack_from(blob)
    if version != FRAME_VERSION:
        raise CorruptArtifact("unknown-version", str(version))
    payload = memoryview(blob)[_HEADER.size:]
    if len(payload) != length:
        raise CorruptArtifact(
            "length-mismatch", f"{len(payload)} != {length}"
        )
    if hashlib.sha256(payload).digest() != digest:
        raise CorruptArtifact("digest-mismatch")
    return payload


_SANITIZE_TYPES: tuple | None = None


def _sanitize_types():
    """(SharedArray, Frame), imported lazily to keep codec low-level."""
    global _SANITIZE_TYPES
    if _SANITIZE_TYPES is None:
        from ..frame.frame import Frame
        from ..parallel.shm import SharedArray

        _SANITIZE_TYPES = (SharedArray, Frame)
    return _SANITIZE_TYPES


class _SanitizingPickler(pickle.Pickler):
    """Pickler that materialises shared-memory references.

    Artifacts outlive the run that wrote them, but a
    :class:`~repro.parallel.SharedArray` pickles as a ``/dev/shm``
    segment *name* that is unlinked when the run's
    :class:`~repro.parallel.SharedDataset` closes — persisted as-is it
    would be a dangling pointer.  This pickler intercepts shared arrays
    (copying their bytes in) and frames (rebuilt from plain columns,
    without their matrix cache), so every cache entry is
    self-contained no matter where its payload was computed.
    """

    def reducer_override(self, obj):
        import numpy as np

        shared_array_type, frame_type = _sanitize_types()
        if isinstance(obj, shared_array_type):
            plain = np.ascontiguousarray(obj)
            return plain.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
        if type(obj) is frame_type:
            from ..frame.frame import _rebuild_frame

            data = {
                name: (np.ascontiguousarray(arr)
                       if isinstance(arr, shared_array_type) else arr)
                for name, arr in obj.to_dict().items()
            }
            return (_rebuild_frame,
                    (obj.index, list(obj.columns), data))
        return NotImplemented


def _pickled(payload) -> memoryview:
    """Pickle ``payload`` (sanitising any shared-memory references);
    returns a view of the pickler's own buffer, not a copy of it."""
    buffer = io.BytesIO()
    _SanitizingPickler(
        buffer, protocol=pickle.HIGHEST_PROTOCOL
    ).dump(payload)
    return buffer.getbuffer()


def dump_artifact(payload) -> bytes:
    """Pickle ``payload`` (sanitising any shared-memory references)
    and wrap it in a verified frame."""
    return frame(_pickled(payload))


def write_artifact(path: Path, payload) -> int:
    """Atomically write ``payload`` as a framed artifact; returns the
    bytes written.

    The file holds exactly :func:`dump_artifact`'s bytes, but the
    header and a view of the pickled payload are written one after the
    other, so the payload is held once, never copied into a frame.
    """
    payload = _pickled(payload)
    return atomic_write_bytes(path, _frame_header(payload), payload)


def load_artifact(blob):
    """Verify a framed artifact and unpickle its payload in place.

    Raises :class:`CorruptArtifact` for damaged or unframed bytes,
    :class:`StaleArtifact` for intact payloads whose classes no longer
    import.  ``MemoryError`` propagates untouched.
    """
    payload = unframe(blob)
    try:
        return pickle.loads(payload)
    except (AttributeError, ImportError) as exc:
        raise StaleArtifact(str(exc)) from exc
    except MemoryError:
        raise
    except Exception as exc:
        # The digest verified, so the writer framed garbage — a bug,
        # but still never something to load silently.
        raise CorruptArtifact(
            "unpicklable-payload", f"{type(exc).__name__}: {exc}"
        ) from exc


def atomic_write_bytes(path: Path, *chunks) -> int:
    """Write ``chunks`` back to back, then rename into place, so readers
    never observe a partial file; returns the bytes written.

    Every on-disk artifact :class:`~repro.cache.CacheStore` writes goes
    through this helper (via :func:`write_artifact`).
    """
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except FileNotFoundError:
            pass
        raise
    return sum(len(chunk) for chunk in chunks)


def quarantine_entry(path: Path, root: Path) -> Path | None:
    """Move a corrupt entry into ``root/quarantine/``; returns the new
    path (None when the move itself failed and the file was deleted).

    Quarantined files keep their name, so an operator can inspect what
    was damaged; a second corruption of the same key overwrites the
    first (the newest evidence wins).
    """
    quarantine = Path(root) / QUARANTINE_DIR
    try:
        quarantine.mkdir(parents=True, exist_ok=True)
        target = quarantine / Path(path).name
        Path(path).replace(target)
        return target
    except OSError:
        try:
            Path(path).unlink()
        except OSError:
            pass
        return None
