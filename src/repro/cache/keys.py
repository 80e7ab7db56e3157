"""Cache-key construction: every input folds into the address.

All keys are full sha256 hex digests built from two kinds of material:

* **Config fingerprints** — :func:`config_fingerprint`, a digest of a
  frozen-dataclass ``repr``. Fault plans and degradation policies are
  part of those reprs, so a faulted/chaos run can *never* address a
  clean run's entry (and vice versa) — invalidation is structural, not
  bookkept.
* **Data digests** — raw bytes of the arrays an artifact was computed
  from (:func:`frame_digest`, :func:`array_digest`). Callers that accept
  externally-supplied data (e.g. ``run_experiment(raw=...)``) fold the
  digest in, so a hand-modified dataset cannot collide with the
  config-derived one.

Execution-shape fields (``n_jobs``, ``verbose``, ``on_error``, ...)
never enter a key: :func:`repro.core.pipeline.run_fingerprint`
normalises them away, so a serial run may reuse a parallel run's
artifacts and a ``--keep-going`` rerun may resume a killed strict one.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "array_digest",
    "config_fingerprint",
    "dataset_key",
    "fingerprint_parts",
    "frame_digest",
    "range_digest",
    "task_key",
]


def config_fingerprint(config) -> str:
    """A stable short digest of a config object (dataclass reprs are
    stable)."""
    return hashlib.sha256(repr(config).encode("utf-8")).hexdigest()[:16]


def fingerprint_parts(*parts) -> str:
    """sha256 over the ``repr`` of each part (order-sensitive).

    Parts are joined with an unambiguous separator so adjacent reprs
    cannot merge into a colliding stream.
    """
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x1f")
    return digest.hexdigest()


def array_digest(array) -> str:
    """sha256 of an array's dtype, shape, and raw bytes.

    The bytes are hashed in place, through a byte view of the
    contiguous buffer, never copied out with ``tobytes()``.
    """
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256()
    digest.update(str(array.dtype).encode())
    digest.update(repr(array.shape).encode())
    digest.update(array.reshape(-1).view(np.uint8))
    return digest.hexdigest()


def frame_digest(frame) -> str:
    """sha256 of a :class:`~repro.frame.Frame`'s columns, index and values.

    NaNs hash stably (IEEE-754 bit patterns), so frames with missing
    entries — e.g. faulted datasets — digest deterministically too.
    """
    return fingerprint_parts(
        tuple(frame.columns),
        array_digest(frame.index.ordinals),
        array_digest(frame.to_matrix()),
    )


def range_digest(frame, start=None, end=None) -> str:
    """Digest of only the rows with dates in the inclusive ``[start,
    end]`` range — the range-granular building block for period-scoped
    keys.

    Downstream consumers that slice their input to a fixed date range
    (the scenario builder) are untouched by rows outside it, so their
    cache addresses should be too: appending rows after ``end`` (the
    :mod:`repro.incremental` update path) leaves this digest — and
    every key built from it — unchanged, while any change *inside* the
    range shifts it. A monolithic :func:`frame_digest` of the full
    frame would invalidate everything on a one-day extension.

    The rows' digest is memoised on the frame by positional slice, and
    :meth:`~repro.frame.Frame.append_rows` carries the memo forward,
    so a chained update does not re-hash the rows its parent already
    hashed. A miss hashes ``frame.loc_range(start, end)`` as before.
    """
    rows = frame.index.slice_positions(start, end)
    span = (rows.start, rows.stop)
    digest = frame._row_digests.get(span)
    if digest is None:
        digest = frame._row_digests[span] = frame_digest(frame.iloc(rows))
    return fingerprint_parts("range", (start, end), digest)


def dataset_key(simulation_config, fault_plan=None, degradation=None) -> str:
    """Key for a generated raw dataset.

    The fault plan and degradation policy are explicit parts: the same
    simulation seed under chaos produces different data, and the two
    must never share an address. So is the simulator's output format:
    a dataset written by code that simulates other bytes, or keeps
    another carry, is never read back.
    """
    from ..synth.dataset import SIMULATOR_FORMAT

    return fingerprint_parts(
        "dataset", SIMULATOR_FORMAT, simulation_config, fault_plan,
        degradation,
    )


def task_key(config_fingerprint: str, dataset_digest: str,
             scenario_key: str) -> str:
    """Key for one scenario's full pipeline result (selection + models).

    ``config_fingerprint`` must already exclude execution-shape fields;
    ``dataset_digest`` ties the entry to the input data the scenario can
    actually see — the pipeline passes the scenario's *period* digest
    (:func:`repro.core.scenarios.period_digests`) rather than a
    whole-dataset digest, so extending the dataset past the period's
    end re-serves the cached task. Callers that pass a custom ``raw``
    dataset into ``run_experiment`` are still covered: the digest is
    computed from the bytes actually supplied.  So is the shape of a
    task entry (:data:`repro.core.pipeline.TASK_FORMAT`): an entry
    written in another shape is never read back.
    """
    from ..core.pipeline import TASK_FORMAT

    return fingerprint_parts(
        "task", TASK_FORMAT, config_fingerprint, dataset_digest,
        scenario_key,
    )

