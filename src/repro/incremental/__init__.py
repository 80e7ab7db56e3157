"""Append-only incremental updates: the daily-cadence experiment path.

The paper's study is a batch experiment, but its production shape is a
daily cadence — each new close appends one row and the full rerun
recomputes everything from scratch. This package turns that rerun into
an incremental update built from pieces that are each bit-identical to
their cold counterparts:

* **dataset extension** — :func:`repro.synth.extend_raw_dataset`
  continues every per-source RNG stream, so ``n`` days extended by
  ``k`` equals ``n+k`` days generated cold, byte for byte;
* **range-granular cache keys** — scenario tasks are addressed by
  per-period content digests (:func:`repro.core.scenarios.period_digests`),
  so appending rows after a period's end leaves its cached artifacts
  valid and the update re-serves them;
* **incremental features** — tail-update rolling/lag recomputation
  (:mod:`repro.features.engineering`, :mod:`repro.frame.ops`);
* **warm-start refits** — forests/boosters reuse fitted members when
  the refit window's bytes are untouched (:mod:`repro.ml.warm`).

:func:`update_experiment` composes these: extend the parent run's
dataset, re-run the experiment against the same artifact cache, and
append a ``kind="update"`` ledger record linked to the parent run's
fingerprint so ``repro report --compare`` renders cold-vs-incremental
chains. CLI: ``repro update --days N``.
"""

from .update import UpdateResult, update_experiment

__all__ = ["UpdateResult", "update_experiment"]
