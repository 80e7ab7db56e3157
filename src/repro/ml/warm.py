"""Warm-start refits: reuse fitted ensemble members across refits.

The incremental update path (:mod:`repro.incremental`) refits models on
a schedule, and most updates leave the refit window's training slice
untouched — a cold refit would reproduce the previous ensemble bit for
bit, buying nothing for its compute. This module gives the forest and
boosting estimators a ``fit(..., warm_start_from=prev)`` escape hatch
built on one invariant:

* every fitted estimator records its **fit signature** — the
  fit-relevant constructor parameters (``n_estimators`` excluded: it
  only grows the member list) plus a sha256 digest of the training
  bytes;
* a warm fit whose signature matches the previous estimator's reuses
  its members verbatim and computes only what a cold fit would add —
  forest trees are exchangeable work units off a prefix-stable
  ``SeedSequence.spawn``, so seed-tail trees fit independently;
  boosting replays each reused stage's RNG draws so continuation
  stages see the exact generator state a cold fit would have;
* any mismatch — different data bytes, params, or class — silently
  falls back to a cold fit. Warm start can therefore never change a
  result, only skip work that would reproduce it.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..obs import current_metrics

__all__ = ["fit_signature", "reusable_members"]


def fit_signature(estimator, X, y) -> tuple:
    """The (class, params, data-bytes) identity of a fit.

    Two fits with equal signatures train identical members, member for
    member, up to ``min(n_estimators)`` — the precondition for reuse.
    """
    params = dict(estimator.get_params())
    params.pop("n_estimators", None)
    digest = hashlib.sha256()
    for arr in (X, y):
        arr = np.ascontiguousarray(arr)
        digest.update(str(arr.dtype).encode())
        digest.update(repr(arr.shape).encode())
        digest.update(arr.tobytes())
    return (
        type(estimator).__name__,
        tuple(sorted(params.items())),
        digest.hexdigest(),
    )


def reusable_members(estimator, previous, signature) -> list | None:
    """Members of ``previous`` that ``estimator``'s fit may reuse.

    Returns up to ``estimator.n_estimators`` member trees when
    ``previous`` is a fitted estimator of the same class whose recorded
    fit signature equals ``signature``, else ``None`` (cold fit). The
    decision is observable via the ``ml.warm_reused_members`` /
    ``ml.warm_misses`` counters.
    """
    if previous is None:
        return None
    metrics = current_metrics()
    members = getattr(previous, "estimators_", None)
    if (
        type(previous) is not type(estimator)
        or not members
        or getattr(previous, "_fit_signature_", None) != signature
    ):
        metrics.counter("ml.warm_misses").inc()
        return None
    reused = list(members[: estimator.n_estimators])
    metrics.counter("ml.warm_reused_members").inc(len(reused))
    return reused
