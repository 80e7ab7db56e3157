#!/usr/bin/env python3
"""Compare results of ``run.py --out`` metric by metric::

    python3 benchmarks/pipeline/compare.py BASE.json NEW.json
    python3 benchmarks/pipeline/compare.py --base B1.json B2.json ... \
        --new N1.json N2.json ...

One row per (workload, end-to-end metric): the medians, the ratio
NEW/BASE next to its base, the spread and a verdict under the metric's
``bound`` from ``BENCHMARK.json``.  With several runs per side, the
samples are the runs' medians and the spread is their run-to-run
interquartile range over median; with one run per side it falls back to
the samples inside each run.  The spread is the larger of the two
sides', and unknown when a side has a single sample, which is the case
for a study's ``run_s`` inside one run: give several runs per side.

* ``unresolved`` — the spread is unknown, or wider than the bound
  unless every NEW sample beats every BASE sample;
* ``worse`` / ``better`` — the median moved by more than the bound;
* ``same`` — otherwise.

Exits 1 when any row is worse or unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import iqr_share

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def classify(base: list[float], new: list[float], bound: float,
             better: str) -> str:
    """Verdict for one metric from its BASE and NEW samples."""
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    change = sign * (statistics.median(new) - base_median) / base_median
    spread = _spread(base, new)
    if spread is None:
        return "unresolved"
    if spread > bound:
        beats_all = all(sign * (n - b) < 0 for n in new for b in base)
        if beats_all:
            return "better" if change < -bound else "same"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def _spread(base: list[float], new: list[float]) -> float | None:
    spreads = (iqr_share(base), iqr_share(new))
    return None if None in spreads else max(spreads)


def _samples(results: list[dict], workload: str, metric: str):
    """The per-run medians, or one run's own samples; None if missing."""
    docs = [r["workloads"].get(workload, {}).get("end_to_end", {})
            .get(metric) for r in results]
    if any(d is None for d in docs):
        return None
    if len(docs) == 1:
        return docs[0]["samples"]
    return [d["value"] for d in docs]


def compare(base: list[dict], new: list[dict], spec: dict) -> list[tuple]:
    """Rows of (workload, metric, base median, new median, unit, spread,
    bound, verdict) for every workload the first base result measured."""
    rows = []
    for workload in base[0]["workloads"]:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = _samples(base, workload, name)
            b = _samples(new, workload, name)
            if a is None or b is None:
                rows.append((workload, name, None, None, metric["unit"],
                             None, bound, "unresolved"))
                continue
            rows.append((
                workload, name, statistics.median(a), statistics.median(b),
                metric["unit"], _spread(a, b), bound,
                classify(a, b, bound, metric["better"]),
            ))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("pair", type=Path, nargs="*",
                        help="BASE.json NEW.json (one run each)")
    parser.add_argument("--base", type=Path, nargs="+", default=[])
    parser.add_argument("--new", type=Path, nargs="+", default=[])
    args = parser.parse_args(argv)
    if args.pair:
        if len(args.pair) != 2 or args.base or args.new:
            parser.error("give BASE.json NEW.json, or --base ... --new ...")
        args.base, args.new = [args.pair[0]], [args.pair[1]]
    if not args.base or not args.new:
        parser.error("nothing to compare")
    spec = json.loads(BENCHMARK.read_text())
    base = [json.loads(p.read_text()) for p in args.base]
    new = [json.loads(p.read_text()) for p in args.new]
    for label, results in (("base", base), ("new", new)):
        described = ", ".join(f"git {r['host'].get('git')} seed {r['seed']}"
                              for r in results)
        print(f"{label}: {len(results)} run(s): {described}")
    print(f"{'workload':<15} {'metric':<12} {'base':>11} {'new':>11} "
          f"{'new/base':>9} {'spread':>7} {'bound':>6}  verdict")
    failing = 0
    for workload, name, a, b, unit, spread, bound, verdict in compare(
            base, new, spec):
        shown = "-" if spread is None else f"{spread:.3f}"
        if a is None:
            print(f"{workload:<15} {name:<12} {'-':>11} {'-':>11} "
                  f"{'-':>9} {shown:>7} {bound:>6.2f}  {verdict}")
        else:
            print(f"{workload:<15} {name:<12} {a:>9.4g}{unit:>2} "
                  f"{b:>9.4g}{unit:>2} {b / a:>9.3f} {shown:>7} "
                  f"{bound:>6.2f}  {verdict}")
        failing += verdict in ("worse", "unresolved")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
