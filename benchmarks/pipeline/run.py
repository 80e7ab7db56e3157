#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction pipeline, with a per-layer trace.

One command measures every workload named in ``BENCHMARK.json``, checks
the outputs and prints each metric with its unit and sample count::

    python3 benchmarks/pipeline/run.py --seed 20240701

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--out`` also writes the full
result (samples, spreads, per-layer trace, host) for ``compare.py``.
``--workload NAME`` measures one workload; ``--trace 1`` adds a traced
repetition after the untraced ones and reports the per-layer metrics.

Every repetition is a fresh ``rep.py`` process started from here, one at
a time (a closed loop with one caller), with every ``REPRO_*`` variable
removed, BLAS pools pinned to one thread and a private temporary cache.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
import rep  # noqa: E402
import trace  # noqa: E402


@dataclass(frozen=True)
class Workload:
    op: str  # "study": one cold run_experiment; "daily": chained updates
    splitter: str
    jobs: int  # capped at the usable CPU count
    cache: bool
    config_id: str  # key of the output digest in reference.json


#: Why each workload exists is recorded next to its name in BENCHMARK.json.
WORKLOADS = {
    "study_serial": Workload("study", "exact", 1, False, "study_exact"),
    "study_parallel": Workload("study", "exact", 2, True, "study_exact"),
    "study_hist": Workload("study", "hist", 1, False, "study_hist"),
    "daily_update": Workload("daily", "hist", 1, True, "daily_hist"),
}

#: Repetitions per workload: at least ``MIN_REPS``, and more while
#: ``--seconds`` have not passed.  A study repetition takes 10-38 s on a
#: 2-core host, and an automated schedule runs every workload 22 times
#: within an hour, so a run usually measures one: compare several runs
#: per side.
MIN_REPS = 1
#: Set-up-only processes per run, so ``setup_s`` is a median of several.
SETUP_PROBES = 5
#: Chained updates and warm reruns per daily_update process.
CHAIN = {"bench": (30, 6), "preset": (30, 6), "tiny": (3, 1)}
#: Pool width of the daily_update priming run (capped at the CPU count).
#: Cache keys leave ``n_jobs`` out, so the chains read what it wrote.
PRIME_JOBS = 2
#: Wall-clock budget of one workload, below the 180 s a run may take.
BUDGET_S = 165.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Statistics


def iqr_share(values) -> float | None:
    """(Q3 - Q1) / median, the spread rule ``compare.py`` applies; None
    for fewer than two samples.  Quartiles are inclusive: the default
    exclusive method puts them at the extremes of three samples."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten of ``n`` samples beyond
    it (nearest rank); None when that would not exceed the median."""
    if n < 20:
        return None
    return (100 * (n - 10)) // n


def percentile(values, p: int) -> float:
    """Nearest-rank ``p``-th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def _summary(samples) -> dict:
    return {"value": statistics.median(samples), "n": len(samples),
            "spread": iqr_share(samples), "samples": list(samples)}


# ----------------------------------------------------------------------
# Child processes


def child_env(scratch: Path) -> dict:
    """The parent environment minus ``REPRO_*``, with single-threaded BLAS,
    temporary files under ``scratch`` and imports served from ``src/``
    without writing bytecode."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
               TMPDIR=str(scratch))
    paths = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


class Runner:
    """Starts ``rep.py`` processes one at a time, each in its own fresh
    directory under ``scratch`` that is deleted when it exits."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.deadline = time.monotonic() + BUDGET_S
        self.env = child_env(scratch)

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(self, spec: dict):
        """Run one child; returns (result or None, wall seconds, error)."""
        cwd = Path(tempfile.mkdtemp(dir=self.scratch))
        out, log = cwd / "result.json", cwd / "rep.log"
        t0 = time.monotonic()
        args = [sys.executable, str(HERE / "rep.py"),
                json.dumps({**spec, "t0": t0}), str(out)]
        with open(log, "w") as log_fh:
            proc = subprocess.Popen(args, cwd=cwd, env=self.env,
                                    stdout=log_fh, stderr=subprocess.STDOUT,
                                    start_new_session=True)
            try:
                code = proc.wait(timeout=max(1.0, self.remaining()))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                # Stray pool workers share the child's process group.
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        wall = time.monotonic() - t0
        if code is None:
            result, error = None, "timed out"
        elif code != 0 or not out.exists():
            tail = log.read_text().strip().splitlines()[-3:]
            result, error = None, f"exit {code}: {' | '.join(tail)}"
        else:
            result, error = json.loads(out.read_text()), None
        shutil.rmtree(cwd, ignore_errors=True)
        return result, wall, error

    def repeat(self, seconds: float, step) -> None:
        """Call ``step`` until it ran ``MIN_REPS`` times and ``seconds``
        have passed; stop early only when the budget cannot fit another."""
        start = time.monotonic()
        walls: list[float] = []
        while len(walls) < MIN_REPS or time.monotonic() - start < seconds:
            if (len(walls) >= MIN_REPS
                    and self.remaining() < 3 * statistics.median(walls)):
                break
            began = time.monotonic()
            step()
            walls.append(time.monotonic() - began)


# ----------------------------------------------------------------------
# Output checks


class Checker:
    """Counts operations and checks each one's output digest.

    The expected digest is the reference one for this seed when
    ``reference.json`` has it (and the numpy version matches), else the
    first complete output of the run, so every repetition must agree.
    """

    def __init__(self, w: Workload, seed: int, scale: str):
        self.w, self.seed, self.scale = w, seed, scale
        self.digest: str | None = None
        self.versions: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.notes: list[str] = []

    def fail(self, units: int, error: str) -> None:
        self.attempted += units
        self.failed += units
        if len(self.errors) < 10:
            self.errors.append(error)

    def check(self, result: dict, op: dict, units: int) -> bool:
        """Count one operation (``units`` scenarios, or one update or
        rerun); True when its output is correct."""
        if self.digest is None and not op["errors"]:
            self.versions = result["versions"]
            self.digest = (self._reference(self.versions["numpy"])
                           or op["digest"])
        errors = list(op["errors"])
        if op["digest"] != self.digest:
            errors.append(f"{op['kind']} output digest {op['digest'][:12]} "
                          f"!= expected {str(self.digest)[:12]}")
        if op["kind"] != "run" and op["cache_misses"]:
            errors.append(f"{op['kind']} missed the cache "
                          f"{op['cache_misses']} times")
        if errors:
            self.fail(units, "; ".join(errors))
            return False
        self.attempted += units
        return True

    def _reference(self, numpy_version: str) -> str | None:
        if self.scale != "bench" or not REFERENCE.exists():
            return None
        ref = json.loads(REFERENCE.read_text())
        if ref["seed"] != self.seed or self.w.config_id not in ref["digests"]:
            return None
        if ref["numpy"] != numpy_version:
            self.notes.append(
                f"numpy {numpy_version} differs from the reference's "
                f"{ref['numpy']}: only run-to-run and cross-workload "
                "agreement are checked")
            return None
        return ref["digests"][self.w.config_id]


# ----------------------------------------------------------------------
# Workloads


def _per_layer(runner: Runner, spec: dict, untraced_s: float, timed) -> dict:
    """Run one traced repetition; returns its per-layer metrics or {}."""
    trace_dir = Path(tempfile.mkdtemp(dir=runner.scratch))
    try:
        result = timed({**spec, "trace_dir": str(trace_dir)})
        if not result:
            return {}
        traced_s, counters = result
        overhead = 100.0 * (traced_s / untraced_s - 1.0)
        return trace.layer_metrics(trace.load_spans(trace_dir), counters,
                                   overhead)
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)


def probe_setup(runner: Runner, checker: Checker, base: dict) -> list:
    """``SETUP_PROBES`` set-up-only processes; their ``setup_s`` values."""
    samples = []
    for _ in range(SETUP_PROBES):
        result, _, error = runner.spawn({**base, "op": "setup"})
        if result is None:
            checker.fail(1, f"set-up probe: {error}")
        else:
            samples.append(result["setup_s"])
    return samples


def measure_study(runner: Runner, checker: Checker, base: dict,
                  seconds: float, traced: bool, n_scenarios: int) -> dict:
    """Cold ``run_experiment`` repetitions, one process each."""
    w = checker.w
    reps = []

    def study_rep(spec):
        result, _, error = runner.spawn({
            **spec, "op": "study", "cache_dir": "cache" if w.cache else None})
        if result is None:
            checker.fail(n_scenarios, error)
            return None
        if not checker.check(result, result["ops"][0], n_scenarios):
            return None
        return result

    def step():
        result = study_rep(base)
        if result is not None:
            reps.append(result)

    runner.repeat(seconds, step)
    doc = {}
    if reps:
        setups = [r["setup_s"] for r in reps]
        doc["end_to_end"] = {
            "setup_s": _summary(setups + probe_setup(runner, checker, base)),
            "run_s": _summary([r["ops"][0]["wall_s"] for r in reps]),
            "cpu_s": _summary([r["ops"][0]["cpu_s"] for r in reps]),
            "peak_rss_mb": _summary([r["peak_rss_mb"] for r in reps]),
        }
    if traced and reps:
        def timed(spec):
            result = study_rep(spec)
            return result and (result["ops"][0]["wall_s"],
                               result["counters"])

        doc["per_layer"] = _per_layer(
            runner, base, doc["end_to_end"]["run_s"]["value"], timed)
    return doc


def measure_daily(runner: Runner, checker: Checker, base: dict,
                  seconds: float, traced: bool, n_scenarios: int,
                  scale: str) -> dict:
    """Prime a cache with one cold run, then run processes of warm
    reruns and chained 1-day updates against it."""
    updates, warm = CHAIN[scale]
    cache_root = Path(tempfile.mkdtemp(dir=runner.scratch))
    cache_dir = str(cache_root / "cache")
    try:
        prime_jobs = min(PRIME_JOBS, len(os.sched_getaffinity(0)))
        result, prime_s, error = runner.spawn(
            {**base, "op": "prime", "n_jobs": prime_jobs,
             "cache_dir": cache_dir})
        if result is None:
            checker.fail(n_scenarios, f"priming run: {error}")
            return {}
        if not checker.check(result, result["ops"][0], n_scenarios):
            return {}
        chain_spec = {**base, "op": "chain", "cache_dir": cache_dir,
                      "updates": updates, "warm": warm}
        chains = []

        def chain(spec):
            result, _, error = runner.spawn(spec)
            if result is None:
                checker.fail(updates + warm, error)
                return None
            result["ok_ops"] = [op for op in result["ops"]
                                if checker.check(result, op, 1)]
            return result

        def step():
            result = chain(chain_spec)
            if result is not None:
                chains.append(result)

        runner.repeat(seconds, step)

        def samples(kind, key, results):
            return [op[key] for r in results for op in r["ok_ops"]
                    if op["kind"] == kind]

        update_s = samples("update", "wall_s", chains)
        if not update_s:
            return {}
        # Set-up is each process's own: the priming run is one cold
        # study, reported apart as prime_s, which study_hist times.
        setups = [r["setup_s"] for r in chains]
        doc = {
            "end_to_end": {
                "setup_s": _summary(setups
                                    + probe_setup(runner, checker, base)),
                "run_s": _summary(update_s),
                "cpu_s": _summary(samples("update", "cpu_s", chains)),
                "peak_rss_mb": _summary([r["peak_rss_mb"] for r in chains]),
            },
            "extra": {
                "prime_s": _summary([prime_s]),
                "warm_run_s": _summary(samples("warm", "wall_s", chains)),
            },
        }
        p = tail_percentile(len(update_s))
        if p is not None:
            doc["extra"][f"update_p{p}_s"] = _summary(
                [percentile(update_s, p)])
        if traced:
            def timed(spec):
                result = chain(spec)
                traced_s = result and samples("update", "wall_s", [result])
                return traced_s and (statistics.median(traced_s),
                                     result["counters"])

            doc["per_layer"] = _per_layer(
                runner, chain_spec, doc["end_to_end"]["run_s"]["value"],
                timed)
        return doc
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)


def measure(name: str, seed: int, seconds: float, traced: bool,
            scale: str, scratch: Path) -> dict:
    """Measure one workload; returns its result document."""
    w = WORKLOADS[name]
    runner = Runner(scratch)
    checker = Checker(w, seed, scale)
    n_scenarios = rep.n_scenarios(scale)
    jobs = min(w.jobs, len(os.sched_getaffinity(0)))
    base = {"seed": seed, "splitter": w.splitter, "n_jobs": jobs,
            "scale": scale, "cache_dir": None, "trace_dir": None}
    if w.op == "study":
        doc = measure_study(runner, checker, base, seconds, traced,
                            n_scenarios)
    else:
        doc = measure_daily(runner, checker, base, seconds, traced,
                            n_scenarios, scale)
    doc.update(n_jobs=jobs, attempted=checker.attempted,
               failed=checker.failed, errors=checker.errors,
               notes=checker.notes, digest=checker.digest,
               versions=checker.versions)
    doc["correct"] = (checker.failed == 0 and "end_to_end" in doc
                      and (not traced or bool(doc.get("per_layer"))))
    return doc


# ----------------------------------------------------------------------
# Reporting


def print_report(name: str, doc: dict, why: str, units: dict) -> None:
    print(f"== {name} (n_jobs={doc['n_jobs']}): {why}")
    for section in ("end_to_end", "extra"):
        for metric, m in doc.get(section, {}).items():
            unit = units.get(metric, "s")
            spread = "-" if m["spread"] is None else f"{m['spread']:.3f}"
            print(f"  {metric:<16} {m['value']:>12.4f} {unit:<3} "
                  f"n={m['n']:<4} spread={spread}")
    layers = doc.get("per_layer", {})
    for metric in (m for m in units if m in layers):
        print(f"  {metric:<32} {layers[metric]:>14.6g} {units[metric]}")
    print(f"  ops attempted={doc['attempted']} failed={doc['failed']} "
          f"correct={doc['correct']}")
    for line in doc["notes"] + doc["errors"]:
        print(f"  ! {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="measure one workload (default: all)")
    parser.add_argument("--seed", type=int, default=20240701)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="minimum measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="add a traced repetition (default: 1 when "
                             "measuring every workload, else 0)")
    parser.add_argument("--scale", choices=rep.SCALES, default="bench",
                        help="study size: 'preset' is the unmodified fast "
                        "preset, 'tiny' the harness tests' smoke size")
    parser.add_argument("--out", type=Path, help="write the full result "
                        "(default with every workload: results/latest.json)")
    parser.add_argument("--write-reference", action="store_true",
                        help="record this run's output digests in "
                             "reference.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {ROOT / 'src'}; run it from "
              "a full checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    names = [args.workload] if args.workload else list(WORKLOADS)
    traced = bool(args.trace if args.trace is not None
                  else args.workload is None)
    out = args.out
    if out is None and args.workload is None:
        out = HERE / "results" / "latest.json"

    tmp_base = ROOT / ".bench_tmp"
    tmp_base.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=tmp_base))
    try:
        docs = {name: measure(name, args.seed, args.seconds, traced,
                              args.scale, scratch)
                for name in names}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            tmp_base.rmdir()
        except OSError:
            pass

    # Execution shape must not change results: workloads that run the
    # same configuration must produce the same digest.
    first_by_config: dict[str, str] = {}
    for name, doc in docs.items():
        if doc["digest"] is None:
            continue
        other = first_by_config.setdefault(WORKLOADS[name].config_id, name)
        if docs[other]["digest"] != doc["digest"]:
            doc["correct"] = False
            doc["failed"] = doc["attempted"]
            doc["errors"].append(f"output differs from {other}'s")

    for name, doc in docs.items():
        print_report(name, doc, whys[name], units)
    result = {
        "schema": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "host": {"nproc": len(os.sched_getaffinity(0)),
                 "machine": platform.machine(),
                 **next((d["versions"] for d in docs.values()
                         if d["versions"]), {})},
        "correct": all(d["correct"] for d in docs.values()),
        "attempted": sum(d["attempted"] for d in docs.values()),
        "failed": sum(d["failed"] for d in docs.values()),
        "workloads": docs,
    }
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=1) + "\n")
        print(f"wrote {out}")
    if args.write_reference:
        if not result["correct"] or args.scale != "bench" or args.workload:
            print("run.py: reference.json is written only from a correct "
                  "bench-scale run of every workload", file=sys.stderr)
            return 1
        REFERENCE.write_text(json.dumps({
            "seed": args.seed, "python": result["host"]["python"],
            "numpy": result["host"]["numpy"],
            "digests": {WORKLOADS[n].config_id: d["digest"]
                        for n, d in docs.items()},
        }, indent=1, sort_keys=True) + "\n")
        print(f"wrote {REFERENCE}")

    # One workload: the per-layer metrics when traced, else the
    # end-to-end ones.  Every workload: both, keyed "workload/metric".
    metrics = {}
    for name, doc in docs.items():
        values = dict(doc.get("per_layer", {})) if traced else {}
        if not (traced and args.workload):
            values.update((k, m["value"])
                          for k, m in doc.get("end_to_end", {}).items())
        for metric, value in values.items():
            key = metric if args.workload else f"{name}/{metric}"
            metrics[key] = {"value": value, "unit": units[metric]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": max(1, result["attempted"]),
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
