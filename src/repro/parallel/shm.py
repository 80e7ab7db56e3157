"""Zero-copy shared-memory transport for the scenario fan-out.

``ParallelMap`` ships work to worker processes by pickling — fine for
seeds and index tuples, wasteful for the multi-megabyte feature
matrices every scenario task trains on.  The pipeline publishes each
scenario's ``X``/``y`` into POSIX shared memory **once per run**
(through its :class:`~repro.parallel.WorkerPool`'s dataset) and this
module teaches them to pickle *by reference*:

* :class:`SharedDataset` — the owning registry.  ``publish(arr)`` copies
  an ndarray into a fresh :class:`multiprocessing.shared_memory`
  segment and returns a read-only :class:`SharedArray` view over it.
  ``close()`` unlinks every segment; the dataset is also closed by an
  ``atexit`` hook, and the stdlib resource tracker unlinks owned
  segments even if the owning process is SIGKILLed — a crashed run
  never leaks ``/dev/shm``.
* :class:`SharedArray` — an ``np.ndarray`` subclass.  A whole
  published view pickles as its segment's spec (name, shape, dtype,
  order) instead of bytes while the segment is alive; unpickling
  attaches to the segment by name — zero bytes of array data cross the
  pipe.  Slices and every other derived array pickle by value, as does
  a view whose segment is gone.

Attaching to a segment that has been unlinked raises
:class:`SharedSegmentGone` — a structured error, never a segfault:
views are only handed out while the mapping is alive, and the owner
keeps every published segment mapped until ``close()``.

Determinism is untouched: ``publish`` stores a bit-exact copy and every
view is read-only, so a worker computes on exactly the bytes the serial
path would see.  Observability: ``parallel.shm_bytes`` counts bytes
published, ``parallel.shm_segments`` counts segments,
``parallel.shm_attach`` counts worker attachments; all flow into the
run ledger's counters (``repro report --run``).

Arrays below :data:`SHM_MIN_BYTES` (64 KiB) are cheaper to pickle than
to publish, so :meth:`SharedDataset.share` leaves them alone.
"""

from __future__ import annotations

import atexit
import weakref

import numpy as np

from ..obs import current_metrics, get_logger

__all__ = [
    "SHM_MIN_BYTES",
    "SharedArray",
    "SharedDataset",
    "SharedMatrix",
    "SharedSegmentGone",
    "shm_enabled",
]

_log = get_logger("parallel")

#: Below this many bytes an array is cheaper to pickle than to publish.
SHM_MIN_BYTES = 64 * 1024

#: Attached (non-owned) segments cached per process, evicted FIFO.
_ATTACH_CAP = 256

#: Retired SharedMemory handles, parked so ``__del__`` never closes a
#: mapping some numpy view may still read (see SharedMatrix.retire).
_GRAVEYARD: list = []


def shm_enabled() -> bool:
    """True when the platform supports the shared-memory transport."""
    return _shared_memory() is not None


def _shared_memory():
    """The ``multiprocessing.shared_memory`` module, or None."""
    try:
        from multiprocessing import shared_memory
    except ImportError:  # pragma: no cover - platform without it
        return None
    return shared_memory


class SharedSegmentGone(RuntimeError):
    """Attaching to (or viewing) an unlinked shared-memory segment.

    Raised instead of handing out a view over dead memory: a stale
    by-reference pickle loaded after its :class:`SharedDataset` closed
    fails with this error, never a segfault.
    """

    def __init__(self, name: str, detail: str = "segment is gone"):
        super().__init__(
            f"shared-memory segment {name!r} cannot be attached: "
            f"{detail}; its SharedDataset was closed or its owner died"
        )
        self.name = name


class SharedMatrix:
    """One published shared-memory segment plus its array geometry.

    Process-local handle: the *owner* (the publishing process) holds the
    segment until :meth:`SharedDataset.close`; *attachers* (workers)
    hold a read-only mapping cached per process.  ``spec()`` is the
    picklable identity used to reattach by name.
    """

    __slots__ = ("name", "shape", "dtype_str", "order", "nbytes",
                 "owner", "retired", "_shm", "__weakref__")

    def __init__(self, shm, shape, dtype_str, order, nbytes, owner):
        self.name = shm.name
        self.shape = tuple(shape)
        self.dtype_str = dtype_str
        self.order = order
        self.nbytes = int(nbytes)
        self.owner = owner
        self.retired = False
        self._shm = shm

    def spec(self) -> tuple:
        return (self.name, self.shape, self.dtype_str, self.order,
                self.nbytes)

    # ------------------------------------------------------------------
    def view(self) -> "SharedArray":
        """The canonical read-only full-array view."""
        if self.retired:
            raise SharedSegmentGone(self.name, "segment was retired")
        raw = np.ndarray(self.shape, dtype=np.dtype(self.dtype_str),
                         buffer=self._shm.buf, order=self.order)
        raw.flags.writeable = False
        out = raw.view(SharedArray)
        out._shm = self
        return out

    # ------------------------------------------------------------------
    def retire(self) -> None:
        """Detach and (for the owner) unlink the segment.

        After this every pickle of its views degrades to a by-value
        copy, and attaching its name raises
        :class:`SharedSegmentGone`.
        """
        if self.retired:
            return
        self.retired = True
        shm, self._shm = self._shm, None
        if shm is None:
            return
        if self.owner:
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
            except OSError as exc:  # pragma: no cover - platform quirk
                _log.warning("shm.unlink_failed", segment=self.name,
                             error=str(exc))
        # Never shm.close() here: numpy views built over the mapping do
        # not keep a PEP-3118 export alive, so closing would unmap the
        # pages under any still-live view and turn its next read into a
        # segfault. Parking the handle keeps the mapping valid (views
        # copy out safely via the by-value pickle fallback); the name
        # is already unlinked, and the OS reclaims the pages when the
        # process exits.
        _GRAVEYARD.append(shm)


# ----------------------------------------------------------------------
# Per-process attachment registry.
# ----------------------------------------------------------------------
#: name -> SharedMatrix.  Owners register on publish (so unpickling a
#: by-reference spec inside the owning process reuses the original
#: mapping); workers register on first attach.
_ATTACHMENTS: dict[str, SharedMatrix] = {}


def _register(matrix: SharedMatrix) -> None:
    _ATTACHMENTS[matrix.name] = matrix
    if len(_ATTACHMENTS) > _ATTACH_CAP:
        for name in list(_ATTACHMENTS):
            entry = _ATTACHMENTS[name]
            if not entry.owner and not entry.retired:
                del _ATTACHMENTS[name]
                entry.retire()
                break


def attach(spec: tuple) -> SharedMatrix:
    """Attach to a published segment by spec, cached per process.

    Raises :class:`SharedSegmentGone` when the segment was unlinked
    (clean close, crash cleanup, or owner death).
    """
    name, shape, dtype_str, order, nbytes = spec
    cached = _ATTACHMENTS.get(name)
    if cached is not None:
        if cached.retired:
            raise SharedSegmentGone(name, "segment was retired")
        return cached
    shared_memory = _shared_memory()
    if shared_memory is None:  # pragma: no cover - platform without shm
        raise SharedSegmentGone(name, "shared memory unsupported here")
    try:
        shm = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError) as exc:
        raise SharedSegmentGone(name, str(exc)) from None
    _untrack(shm)
    if shm.size < nbytes:  # truncated segment: refuse to view it
        try:
            shm.close()
        except BufferError:  # pragma: no cover
            pass
        raise SharedSegmentGone(
            name, f"segment holds {shm.size} bytes, expected {nbytes}"
        )
    matrix = SharedMatrix(shm, shape, dtype_str, order, nbytes,
                          owner=False)
    _register(matrix)
    current_metrics().counter("parallel.shm_attach").inc()
    return matrix


def _untrack(shm) -> None:
    """Deregister an *attached* segment from the resource tracker.

    Only the publishing process owns the unlink; without this, every
    worker's tracker would try to unlink the segment again at exit and
    spam ``KeyError`` / double-unlink warnings.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals moved
        pass


def _attach_view(spec):
    """Unpickle hook for by-reference :class:`SharedArray` pickles."""
    return attach(spec).view()


def _plain_array(arr: np.ndarray) -> np.ndarray:
    """Unpickle hook for the by-value fallback (plain ndarray)."""
    arr.flags.writeable = False
    return arr


class SharedArray(np.ndarray):
    """A read-only ndarray living in a shared-memory segment.

    Behaves exactly like the plain array it was published from — same
    dtype, shape, values, read-only flag.  Only the whole view handed
    out by :meth:`SharedMatrix.view` pickles *by reference* (the
    segment's spec) while its segment is alive, so shipping it to a
    worker costs a few hundred bytes regardless of size.  Every derived
    array — slices, transposes, fancy indexing, arithmetic — pickles by
    value as usual.
    """

    def __array_finalize__(self, obj):
        self._shm = None

    def __reduce__(self):
        src = getattr(self, "_shm", None)
        if src is not None and not src.retired:
            return (_attach_view, (src.spec(),))
        return (_plain_array, (np.ascontiguousarray(self),))


# ----------------------------------------------------------------------
# The owning registry.
# ----------------------------------------------------------------------
_LIVE_DATASETS: "weakref.WeakSet[SharedDataset]" = weakref.WeakSet()


class SharedDataset:
    """Owns the shared-memory segments published for one run.

    ``publish`` copies an array in and returns the shared read-only
    view; repeated publishes of the same object are deduplicated.
    ``share`` is the soft variant used on hot paths: it publishes only
    when the platform supports shared memory and the array is large
    enough to pay for a segment — otherwise it returns the
    array unchanged.  ``close`` unlinks everything (idempotent; also
    invoked from an ``atexit`` hook so a run that forgets is still
    clean, and the multiprocessing resource tracker unlinks owned
    segments even on SIGKILL).
    """

    def __init__(self, label: str = ""):
        self.label = label
        self.closed = False
        self._segments: list[SharedMatrix] = []
        self._published: dict[int, SharedArray] = {}
        self._pins: list = []  # keep id()-keyed sources alive
        _LIVE_DATASETS.add(self)

    # ------------------------------------------------------------------
    def publish(self, arr) -> SharedArray:
        """Copy ``arr`` into a fresh segment; return the shared view.

        The view is read-only and bit-exact.  Publishing the same
        object (by identity) twice returns the existing view.  Raises
        on platform failure — use :meth:`share` on paths that must
        degrade gracefully.
        """
        if self.closed:
            raise RuntimeError("SharedDataset is closed")
        if isinstance(arr, SharedArray):
            src = getattr(arr, "_shm", None)
            if src is not None and not src.retired:
                return arr
        arr = np.asarray(arr)
        existing = self._published.get(id(arr))
        if existing is not None:
            return existing
        shared_memory = _shared_memory()
        if shared_memory is None:  # pragma: no cover
            raise RuntimeError("shared memory is unsupported here")
        if arr.nbytes == 0:
            raise ValueError("cannot publish an empty array")
        order = "F" if (arr.flags.f_contiguous
                        and not arr.flags.c_contiguous) else "C"
        shm = shared_memory.SharedMemory(create=True, size=arr.nbytes)
        target = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf,
                            order=order)
        np.copyto(target, arr)
        matrix = SharedMatrix(shm, arr.shape, arr.dtype.str, order,
                              arr.nbytes, owner=True)
        self._segments.append(matrix)
        _register(matrix)
        metrics = current_metrics()
        metrics.counter("parallel.shm_bytes").inc(arr.nbytes)
        metrics.counter("parallel.shm_segments").inc()
        view = matrix.view()
        self._published[id(arr)] = view
        self._pins.append(arr)  # id() stays valid while pinned
        return view

    def share(self, arr):
        """Publish ``arr`` when worthwhile, else return it unchanged.

        "Worthwhile" = shared memory supported, real float/int/bool
        ndarray, at least :data:`SHM_MIN_BYTES`.  Platform errors
        degrade to the original array — callers on the hot path never
        have to guard.
        """
        if self.closed or not shm_enabled():
            return arr
        if isinstance(arr, SharedArray) or not isinstance(arr, np.ndarray):
            return arr
        if arr.dtype.kind not in "fiub" or arr.dtype.hasobject:
            return arr
        if arr.nbytes < SHM_MIN_BYTES:
            return arr
        try:
            return self.publish(arr)
        except (OSError, ValueError, RuntimeError) as exc:
            _log.warning("shm.publish_failed", error=str(exc),
                         nbytes=arr.nbytes, fallback="pickle")
            return arr

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._segments)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unlink every segment; idempotent."""
        if self.closed:
            return
        self.closed = True
        for matrix in self._segments:
            _ATTACHMENTS.pop(matrix.name, None)
            matrix.retire()
        self._published.clear()
        self._pins.clear()
        _LIVE_DATASETS.discard(self)

    def __enter__(self) -> "SharedDataset":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - gc timing dependent
        try:
            self.close()
        except Exception:
            pass


@atexit.register
def _close_live_datasets() -> None:  # pragma: no cover - exit hook
    for dataset in list(_LIVE_DATASETS):
        try:
            dataset.close()
        except Exception:
            pass
