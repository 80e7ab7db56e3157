#!/usr/bin/env python3
"""How closely the benchmark's study matches the preset it is cut from.

The study workloads run ``ExperimentConfig.fast`` with FRA pinned to a
fixed iteration count and 2-fold CV (``rep.study_config``).  This script
traces repetitions of each study workload at both scales, the benchmark's
(``bench``) and the unmodified preset (``preset``), and compares the
shares of time each layer takes::

    python3 benchmarks/pipeline/fidelity.py --seed 20240701 \\
        --out benchmarks/pipeline/results/fidelity.json

Each value is the median over ``--reps`` traced repetitions.  A share
may differ from the preset's by at most ``TOLERANCE`` (absolute), and
every binning pass must still serve exactly one ensemble fit.  Exits 1
when any row is outside.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

import rep
import run
import trace

#: Per-layer shares compared, as fractions of the traced process time.
SHARES = (
    "core.fra.share", "core.improvement.share", "core.selection.shap_share",
    "core.horizons.share", "ml.tree.fit_share", "ml.tree.bin_share",
    "ml.forest.share", "ml.boosting.share", "ml.importance.pfi_share",
    "ml.compiled.predict_share", "parallel.tail_share",
)
#: Largest allowed |bench - preset| of a share.
TOLERANCE = 0.05
STUDIES = ("study_serial", "study_parallel", "study_hist")


def traced(scratch: Path, spec: dict) -> dict:
    """One traced repetition; its per-layer metrics."""
    trace_dir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        result, _, error = run.Runner(scratch).spawn(
            {**spec, "trace_dir": str(trace_dir)})
        if result is None:
            raise SystemExit(f"fidelity.py: {spec['scale']} repetition "
                             f"failed: {error}")
        return trace.layer_metrics(trace.load_spans(trace_dir),
                                   result["counters"], 0.0)
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)


def rows(preset: dict, bench: dict) -> list[tuple]:
    """(metric, preset, bench, within tolerance) per compared metric."""
    out = [(m, preset[m], bench[m], abs(bench[m] - preset[m]) <= TOLERANCE)
           for m in SHARES]
    m = "ml.tree.bins_per_fit"
    out.append((m, preset[m], bench[m], bench[m] == preset[m]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=20240701)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    tmp_base = run.ROOT / ".bench_tmp"
    tmp_base.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=tmp_base))
    doc = {"seed": args.seed, "reps": args.reps, "tolerance": TOLERANCE,
           "bench": {"fra_iterations": rep.FRA_ITERATIONS,
                     "cv_folds": rep.CV_FOLDS},
           "workloads": {}}
    inside = True
    try:
        for name in STUDIES:
            w = run.WORKLOADS[name]
            base = {"op": "study", "seed": args.seed, "splitter": w.splitter,
                    "n_jobs": min(w.jobs, len(os.sched_getaffinity(0))),
                    "cache_dir": "cache" if w.cache else None}
            medians = {}
            for scale in ("preset", "bench"):
                reps = [traced(scratch, {**base, "scale": scale})
                        for _ in range(args.reps)]
                medians[scale] = {m: statistics.median(r[m] for r in reps)
                                  for m in (*SHARES, "ml.tree.bins_per_fit")}
            print(f"== {name}: metric, preset, bench, bench - preset")
            for metric, a, b, ok in rows(medians["preset"], medians["bench"]):
                inside &= ok
                print(f"  {metric:<28} {a:>8.4f} {b:>8.4f} {b - a:>+8.4f}"
                      f"{'' if ok else '  outside'}")
            doc["workloads"][name] = medians
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            tmp_base.rmdir()
        except OSError:
            pass
    doc["within_tolerance"] = inside
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print("all within tolerance" if inside else "outside tolerance")
    return 0 if inside else 1


if __name__ == "__main__":
    sys.exit(main())
