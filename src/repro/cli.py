"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``simulate``
    Generate the synthetic dataset and write it (plus the Crypto100
    target) to CSV files.
``run``
    Execute the full experiment at a chosen preset and print every
    reproduced table; optionally write them to a report file and the
    span trace to a JSONL file.
``update``
    Append-only incremental update (:mod:`repro.incremental`): extend
    the dataset by ``--days`` simulated days and re-run the experiment
    against the same artifact cache, re-serving every scenario whose
    period the new rows do not touch. Bit-identical to a cold rerun at
    the extended length; ledger records link to the parent run.
``index``
    Print the Crypto100 scaling-factor analysis (Figures 1-2 data).
``trace-summary``
    Summarise a span trace written by ``run --trace``: aggregate
    per-stage table, the slowest individual spans, and the run's
    counters (retries, breaker trips, injected faults, ...).
``chaos``
    Run the experiment twice — clean, then under a fault plan with a
    degradation policy — and print the per-category forecast-MSE
    degradation table (see :mod:`repro.resilience`).
``report``
    Render the run ledger (``run --ledger`` / ``$REPRO_LEDGER``): run
    history, one run's per-stage breakdown, or a two-run comparison.
``bench``
    Perf-regression gate: ``bench check`` compares fresh BENCH_*.json
    results against committed baselines (ratio metrics gate with a
    tolerance; absolute seconds are informational).
``cache``
    Maintain the content-addressed artifact cache: ``stats`` (one-line
    inventory), ``verify`` (integrity-sweep every entry, quarantining
    corrupt ones), ``gc`` (prune by age/size) and ``clear``.

Examples::

    python -m repro simulate --out data/ --seed 7
    python -m repro run --preset fast --seed 7 --report report.txt
    python -m repro run --preset default --cache-dir cache/ --ledger runs.jsonl
    python -m repro update --preset default --days 1 --cache-dir cache/ \
        --ledger runs.jsonl
    python -m repro run --preset fast --trace t.jsonl --log-level info
    python -m repro run --preset fast --cache-dir cache/ --keep-going
    python -m repro run --preset fast --cache-dir cache/  # resume a killed run
    python -m repro run --preset fast --splitter hist --cache-dir cache/
    python -m repro run --preset fast --ledger runs.jsonl --profile
    python -m repro chaos --preset fast --chaos-seed 11
    python -m repro report runs.jsonl --last 10
    python -m repro report runs.jsonl --run 1a2b3c4d
    python -m repro bench check --results /tmp/bench --tolerance 0.3
    python -m repro cache stats --dir cache/
    python -m repro cache verify --dir cache/
    python -m repro cache gc --dir cache/ --max-size 2G --max-age 30d
    python -m repro trace-summary t.jsonl
    python -m repro index --seed 7
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .categories import DataCategory
from .core.crypto100 import crypto100_index, tune_scaling_power
from .core.pipeline import ExperimentConfig, run_experiment
from .core.reporting import (
    render_contributions,
    render_improvement_by_category,
    render_improvement_by_window,
    render_table1,
    render_top_features,
    render_unique_features,
)
from .frame.io import write_csv
from .obs import (
    RunLedger,
    check_bench_dirs,
    configure_logging,
    format_runtime,
    format_slowest,
    format_stage_table,
    read_jsonl,
    render_bench_check,
    render_compare,
    render_history,
    render_record,
    write_jsonl,
)
from .obs.trace import Span
from .parallel import (
    resolve_n_jobs,
    resolve_task_retries,
    resolve_task_timeout,
)
from .resilience import (
    DEGRADATION_POLICIES,
    FaultPlan,
    random_fault_plan,
    render_chaos_table,
    run_chaos,
)
from .synth.config import SimulationConfig
from .synth.dataset import generate_raw_dataset
from .synth.latent import generate_latent_market
from .synth.market import generate_universe
from .synth.presets import PRESETS as MARKET_PRESETS

__all__ = ["main", "build_parser"]

_PRESETS = {
    "fast": ExperimentConfig.fast,
    "bench": ExperimentConfig.bench,
    "default": ExperimentConfig.default,
    "paper": ExperimentConfig.paper,
}


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return number


def _checked_by(parse, resolve):
    """An argparse ``type=`` that parses with ``parse`` and validates
    with the library's own ``resolve`` function, so the CLI and the
    library share one rule and one message. The parsed value is
    returned as given; the library resolves it again at run time."""
    def check(text: str):
        value = parse(text)  # argparse reports "invalid int value"
        try:
            resolve(value)
        except (TypeError, ValueError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    check.__name__ = parse.__name__
    return check


_jobs = _checked_by(int, resolve_n_jobs)
_task_timeout = _checked_by(float, resolve_task_timeout)
_task_retries = _checked_by(int, resolve_task_retries)


_SIZE_UNITS = {"": 1, "K": 1024, "M": 1024 ** 2, "G": 1024 ** 3,
               "T": 1024 ** 4}
_AGE_UNITS = {"": 1.0, "S": 1.0, "M": 60.0, "H": 3600.0, "D": 86400.0,
              "W": 7 * 86400.0}


def _size_bytes(value: str) -> int:
    """Parse ``500M`` / ``2G`` / plain bytes into an int."""
    text = value.strip().upper().removesuffix("B")
    unit = text[-1] if text and text[-1] in _SIZE_UNITS else ""
    try:
        number = float(text.removesuffix(unit)) * _SIZE_UNITS[unit]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a size (try 500M, 2G, or bytes): {value!r}"
        ) from None
    if number < 0:
        raise argparse.ArgumentTypeError(f"size must be >= 0: {value!r}")
    return int(number)


def _age_seconds(value: str) -> float:
    """Parse ``30d`` / ``12h`` / plain seconds into seconds."""
    text = value.strip().upper()
    unit = text[-1] if text and text[-1] in _AGE_UNITS else ""
    try:
        number = float(text.removesuffix(unit)) * _AGE_UNITS[unit]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a duration (try 30d, 12h, or seconds): {value!r}"
        ) from None
    if number < 0:
        raise argparse.ArgumentTypeError(f"age must be >= 0: {value!r}")
    return number


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'From On-chain to Macro' (VLDB 2024 FAB)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser(
        "simulate", help="generate the synthetic dataset as CSV"
    )
    sim.add_argument("--out", type=Path, required=True,
                     help="output directory (created if missing)")
    sim.add_argument("--seed", type=int, default=20240701)
    sim.add_argument("--include-eth", action="store_true",
                     help="also generate ETH on-chain metrics")
    sim.add_argument("--market", choices=sorted(MARKET_PRESETS),
                     default="baseline",
                     help="market-scenario preset (see repro.synth.presets)")

    run = sub.add_parser("run", help="run the full experiment")
    run.add_argument("--preset", choices=sorted(_PRESETS),
                     default="fast")
    run.add_argument("--seed", type=int, default=20240701)
    run.add_argument("--report", type=Path, default=None,
                     help="also write the rendered tables to this file")
    run.add_argument("--markdown", type=Path, default=None,
                     help="also write a full markdown report here")
    run.add_argument("--quiet", action="store_true",
                     help="suppress progress logging")
    run.add_argument("--log-level", default=None,
                     choices=("debug", "info", "warning", "error"),
                     help="structured-logging level "
                          "(default: $REPRO_LOG_LEVEL or warning; "
                          "implied info when the preset is verbose)")
    run.add_argument("--log-json", action="store_true",
                     help="emit JSON log lines instead of key=value")
    run.add_argument("--trace", type=Path, default=None, metavar="PATH",
                     help="write the run's span trace to this JSONL file")
    run.add_argument("--jobs", type=_jobs, default=None, metavar="N",
                     help="worker processes for the scenario fan-out "
                          "(default: $REPRO_JOBS or all cores; 1 = serial; "
                          "results are identical for any value)")
    run.add_argument("--task-timeout", type=_task_timeout, default=None,
                     metavar="SECONDS",
                     help="per-scenario deadline under --jobs: a hung "
                          "scenario is killed and reported while the "
                          "other scenarios' results are kept "
                          "(default: $REPRO_TASK_TIMEOUT or none)")
    run.add_argument("--task-retries", type=_task_retries, default=None,
                     metavar="N",
                     help="how many times a broken worker pool may be "
                          "rebuilt before giving up "
                          "(default: $REPRO_TASK_RETRIES or 16)")
    run.add_argument("--splitter", choices=("exact", "hist"),
                     default=None,
                     help="tree-growth kernel for every forest/booster "
                          "fit: 'exact' (bit-identical to historical "
                          "results) or 'hist' (quantile-binned histogram "
                          "kernel, substantially faster; statistically "
                          "equivalent output)")
    run.add_argument("--cache-dir", type=Path, default=None, metavar="DIR",
                     help="content-addressed artifact cache: memoise the "
                          "dataset, scenario frames and per-scenario "
                          "results here; rerunning a killed run "
                          "with the same cache resumes it "
                          "(default: $REPRO_CACHE_DIR if set)")
    run.add_argument("--no-cache", action="store_true",
                     help="disable the artifact cache even when "
                          "$REPRO_CACHE_DIR is set")
    run.add_argument("--keep-going", action="store_true",
                     help="isolate scenario failures: record them and "
                          "keep the other scenarios' results instead of "
                          "aborting the run")
    run.add_argument("--fault-plan", type=Path, default=None,
                     metavar="PATH",
                     help="inject the faults described by this JSON "
                          "FaultPlan while assembling the dataset")
    run.add_argument("--degradation", choices=DEGRADATION_POLICIES,
                     default=None,
                     help="policy for sources that stay bad "
                          "(default: abort)")
    run.add_argument("--ledger", type=Path, default=None, metavar="PATH",
                     help="append a run record (fingerprint, cache keys, "
                          "stage timings, metrics) to this JSONL ledger "
                          "(default: $REPRO_LEDGER if set)")
    run.add_argument("--profile", action="store_true",
                     help="resource-profile every stage span (CPU time, "
                          "tracemalloc peak, max-RSS, GC passes); also "
                          "enabled by REPRO_PROFILE=1")

    update = sub.add_parser(
        "update",
        help="append-only incremental update of a previous run",
    )
    update.add_argument("--days", type=_positive_int, default=1,
                        help="simulated days to append (default 1)")
    update.add_argument("--preset", choices=sorted(_PRESETS),
                        default="fast",
                        help="the parent run's preset (the update "
                             "derives the extended config itself)")
    update.add_argument("--seed", type=int, default=20240701,
                        help="the parent run's simulation seed")
    update.add_argument("--jobs", type=_jobs, default=None, metavar="N",
                        help="worker processes for the scenario fan-out")
    update.add_argument("--splitter", choices=("exact", "hist"),
                        default=None,
                        help="tree-growth kernel (must match the parent "
                             "run for its cached tasks to be reused)")
    update.add_argument("--cache-dir", type=Path, default=None,
                        metavar="DIR",
                        help="the parent run's artifact cache — what "
                             "makes the update incremental "
                             "(default: $REPRO_CACHE_DIR if set)")
    update.add_argument("--no-cache", action="store_true",
                        help="disable the artifact cache even when "
                             "$REPRO_CACHE_DIR is set (the update then "
                             "runs as a plain cold run)")
    update.add_argument("--ledger", type=Path, default=None,
                        metavar="PATH",
                        help="append one kind=update record linked to "
                             "the parent run's fingerprint "
                             "(default: $REPRO_LEDGER if set)")
    update.add_argument("--report", type=Path, default=None,
                        help="also write the rendered tables to this "
                             "file")
    update.add_argument("--quiet", action="store_true",
                        help="suppress progress logging")

    chaos = sub.add_parser(
        "chaos",
        help="clean-vs-faulted run: per-category forecast degradation",
    )
    chaos.add_argument("--preset", choices=sorted(_PRESETS),
                       default="fast")
    chaos.add_argument("--seed", type=int, default=20240701,
                       help="simulation seed shared by both runs")
    chaos.add_argument("--chaos-seed", type=int, default=1337,
                       help="seed for the generated fault plan")
    chaos.add_argument("--plan", type=Path, default=None, metavar="PATH",
                       help="load the fault plan from this JSON file "
                            "instead of generating one")
    chaos.add_argument("--save-plan", type=Path, default=None,
                       metavar="PATH",
                       help="write the fault plan used to this JSON file")
    chaos.add_argument("--degradation", choices=DEGRADATION_POLICIES,
                       default="fill",
                       help="policy for sources that stay bad")
    chaos.add_argument("--jobs", type=_jobs, default=None, metavar="N",
                       help="worker processes for both runs")
    chaos.add_argument("--report", type=Path, default=None,
                       help="also write the degradation table here")
    chaos.add_argument("--quiet", action="store_true",
                       help="suppress progress logging")
    chaos.add_argument("--ledger", type=Path, default=None, metavar="PATH",
                       help="append one chaos record to this JSONL "
                            "ledger (default: $REPRO_LEDGER if set)")

    report = sub.add_parser(
        "report",
        help="render the run ledger written by 'run --ledger'",
    )
    report.add_argument("ledger", type=Path, nargs="?", default=None,
                        help="the ledger JSONL file "
                             "(default: $REPRO_LEDGER)")
    report.add_argument("--last", type=_positive_int, default=None,
                        metavar="N", help="only the N newest records")
    report.add_argument("--kind",
                        choices=("run", "update", "chaos", "bench"),
                        default=None, help="filter by record kind")
    report.add_argument("--run", default=None, metavar="ID",
                        help="full detail (stage breakdown, counters) "
                             "for one run id (prefix accepted)")
    report.add_argument("--compare", nargs=2, default=None,
                        metavar=("A", "B"),
                        help="stage-by-stage comparison of two run ids")

    bench = sub.add_parser(
        "bench",
        help="perf-regression gate over BENCH_*.json artefacts",
    )
    bench.add_argument("action", choices=("check",),
                       help="'check': compare fresh results against "
                            "committed baselines")
    bench.add_argument("--results", type=Path, default=None, metavar="DIR",
                       help="directory of fresh BENCH_*.json files "
                            "(default: $REPRO_BENCH_DIR)")
    bench.add_argument("--baseline", type=Path,
                       default=Path("benchmarks/results"), metavar="DIR",
                       help="directory of committed baselines "
                            "(default: benchmarks/results)")
    bench.add_argument("--tolerance", type=float, default=0.25,
                       help="relative slack for gating speedup ratios "
                            "(default: 0.25 = fail below 75%% of "
                            "baseline)")
    bench.add_argument("--verbose", action="store_true",
                       help="also list informational (non-gating) "
                            "metrics")

    cache = sub.add_parser(
        "cache",
        help="inspect and maintain the content-addressed artifact cache",
    )
    cache.add_argument("action",
                       choices=("stats", "verify", "gc", "clear"),
                       help="'stats': inventory; 'verify': integrity-"
                            "sweep every entry (corrupt ones are "
                            "quarantined; exits 1 when any are found); "
                            "'gc': prune by --max-size/--max-age; "
                            "'clear': delete everything")
    cache.add_argument("--dir", type=Path, default=None, metavar="DIR",
                       dest="cache_dir",
                       help="the cache directory "
                            "(default: $REPRO_CACHE_DIR)")
    cache.add_argument("--max-size", type=_size_bytes, default=None,
                       metavar="SIZE",
                       help="gc: evict oldest entries until the cache "
                            "fits in SIZE (500M, 2G, or plain bytes)")
    cache.add_argument("--max-age", type=_age_seconds, default=None,
                       metavar="AGE",
                       help="gc: drop entries older than AGE "
                            "(30d, 12h, or plain seconds)")
    cache.add_argument("--no-repair", action="store_true",
                       help="verify: report corrupt entries without "
                            "moving them to quarantine")

    index = sub.add_parser(
        "index", help="Crypto100 scaling-factor analysis"
    )
    index.add_argument("--seed", type=int, default=20240701)

    trace = sub.add_parser(
        "trace-summary",
        help="summarise a span trace written by 'run --trace'",
    )
    trace.add_argument("path", type=Path,
                       help="the trace JSONL file to summarise")
    trace.add_argument("--top", type=_positive_int, default=10,
                       help="how many slowest spans to list")
    return parser


def _cmd_simulate(args) -> int:
    import dataclasses

    config = MARKET_PRESETS[args.market](seed=args.seed)
    if args.include_eth:
        config = dataclasses.replace(config, include_eth=True)
    raw = generate_raw_dataset(config)
    args.out.mkdir(parents=True, exist_ok=True)
    features_path = args.out / "features.csv"
    write_csv(raw.features, features_path)
    target_path = args.out / "crypto100.csv"
    write_csv(crypto100_index(raw.universe), target_path)
    categories_path = args.out / "categories.csv"
    with categories_path.open("w") as handle:
        handle.write("metric,category\n")
        for name in raw.features.columns:
            handle.write(f"{name},{raw.categories[name].value}\n")
    print(f"wrote {raw.n_metrics} metrics x {raw.features.n_rows} days to "
          f"{features_path}")
    print(f"wrote target index to {target_path}")
    print(f"wrote category map to {categories_path}")
    return 0


def _append_section(sections: list, label: str, make) -> None:
    """Render one report section, degrading to a note when the results
    are too incomplete for it (dropped categories, failed scenarios)."""
    try:
        sections.append(make())
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        sections.append(f"[{label} unavailable on this run: {exc}]")


def _render_full_report(results) -> str:
    sections = []
    if results.degradation is not None:
        sections.append(
            f"degraded inputs: {results.degradation.summary()}"
        )
    if results.failures:
        lines = [f"{len(results.failures)} scenario(s) failed "
                 f"(results below cover the rest):"]
        lines += [f"  {failure}"
                  for _, failure in sorted(results.failures.items())]
        sections.append("\n".join(lines))
    _append_section(sections, "Table 1",
                    lambda: render_table1(results.table1_vector_sizes()))
    _append_section(sections, "SHAP overlap", lambda: (
        f"mean FRA/SHAP top-100 overlap: "
        f"{results.mean_shap_overlap():.1f} features"
    ))
    for period in ("2017", "2019"):
        _append_section(
            sections, f"contributions {period}", lambda period=period:
            render_contributions(results.contributions(period), period)
        )
        _append_section(
            sections, f"Table 3 ({period})", lambda period=period:
            render_top_features(results.table3_top_features(period), period)
        )
        _append_section(
            sections, f"Table 4 ({period})", lambda period=period:
            render_unique_features(
                results.table4_unique_features(period), period
            )
        )
    _append_section(sections, "Table 5", lambda: render_improvement_by_window({
        p: results.table5_improvement_by_window(p) for p in ("2017", "2019")
    }))
    _append_section(
        sections, "Table 6", lambda: render_improvement_by_category({
            p: results.table6_improvement_by_category(p)
            for p in ("2017", "2019")
        })
    )
    lines = ["Overall average improvement (§4.3):"]
    for model in ("rf", "gb"):
        for period in ("2017", "2019"):
            try:
                value = results.overall_improvement(period, model)
            except ValueError:
                continue
            lines.append(f"  {model.upper()} set {period}: {value:.2f}%")
    sections.append("\n".join(lines))
    runtime_lines = [f"runtime: {format_runtime(results.runtime_seconds)}"]
    breakdown = results.run_summary.breakdown_line()
    if breakdown:
        runtime_lines.append(f"stages: {breakdown}")
    sections.append("\n".join(runtime_lines))
    return "\n\n".join(sections)


def _cmd_run(args) -> int:
    import dataclasses

    if args.log_level is not None or args.log_json:
        configure_logging(level=args.log_level, json_mode=args.log_json)
    make_config = _PRESETS[args.preset]
    config = make_config(seed=args.seed)
    if config.verbose == args.quiet:  # align verbosity with --quiet
        config = dataclasses.replace(config, verbose=not args.quiet)
    if args.jobs is not None:
        config = dataclasses.replace(config, n_jobs=args.jobs)
    if args.task_timeout is not None:
        config = dataclasses.replace(config, task_timeout=args.task_timeout)
    if args.task_retries is not None:
        config = dataclasses.replace(config, task_retries=args.task_retries)
    if args.fault_plan is not None:
        config = dataclasses.replace(
            config, fault_plan=FaultPlan.load(args.fault_plan)
        )
    if args.degradation is not None:
        config = dataclasses.replace(config, degradation=args.degradation)
    if args.keep_going:
        config = dataclasses.replace(config, on_error="capture")
    if args.splitter is not None:
        config = dataclasses.replace(config, splitter=args.splitter)
    if args.profile:
        config = dataclasses.replace(config, profile=True)

    ledger_path = args.ledger if args.ledger is not None \
        else os.environ.get("REPRO_LEDGER") or None

    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir if args.cache_dir is not None \
            else os.environ.get("REPRO_CACHE_DIR") or None
    # Passed as a conditional kwarg so callers that wrap run_experiment
    # with a narrower signature keep working when no cache is requested.
    cache_kwargs = {"cache_dir": str(cache_dir)} \
        if cache_dir is not None else {}
    if ledger_path is not None:
        cache_kwargs["ledger_path"] = str(ledger_path)

    results = run_experiment(config, **cache_kwargs)
    report = _render_full_report(results)
    print(report)
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(report + "\n")
        print(f"\nreport written to {args.report}")
    if args.markdown is not None:
        from .core.report import write_markdown_report

        path = write_markdown_report(results, args.markdown)
        print(f"markdown report written to {path}")
    if args.trace is not None:
        spans = list(results.run_summary.spans)
        counters = results.run_summary.metrics.get("counters", {})
        if counters:
            # Synthetic zero-duration record carrying the run's counters
            # so 'trace-summary' can report them alongside the stages.
            anchor = spans[0].start if spans else 0.0
            spans.append(Span(name="run.metrics", start=anchor,
                              end=anchor, attrs={"counters": counters}))
        path = write_jsonl(spans, args.trace)
        print(f"span trace ({len(results.run_summary.spans)} spans) "
              f"written to {path}")
    return 0


def _cmd_update(args) -> int:
    import dataclasses

    from .incremental import update_experiment

    config = _PRESETS[args.preset](seed=args.seed)
    if config.verbose == args.quiet:  # align verbosity with --quiet
        config = dataclasses.replace(config, verbose=not args.quiet)
    if args.jobs is not None:
        config = dataclasses.replace(config, n_jobs=args.jobs)
    if args.splitter is not None:
        config = dataclasses.replace(config, splitter=args.splitter)

    ledger_path = args.ledger if args.ledger is not None \
        else os.environ.get("REPRO_LEDGER") or None
    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir if args.cache_dir is not None \
            else os.environ.get("REPRO_CACHE_DIR") or None
    if cache_dir is None:
        print("note: no artifact cache (--cache-dir or $REPRO_CACHE_DIR) "
              "— the update runs cold")

    update = update_experiment(
        config,
        days=args.days,
        cache_dir=str(cache_dir) if cache_dir is not None else None,
        ledger_path=(str(ledger_path)
                     if ledger_path is not None else None),
    )
    lines = [
        f"update: +{update.days} day(s) -> "
        f"{update.config.simulation.end}",
        f"  dataset: "
        f"{'spliced from parent' if update.dataset_reused else 'cold'}",
        f"  scenarios: {update.scenarios_cached}/{update.scenarios_total}"
        f" served from cache",
        f"  runtime: {format_runtime(update.runtime_seconds)}",
    ]
    if update.parent_run_id is not None:
        lines.append(f"  parent run: {update.parent_run_id}")
    print("\n".join(lines))
    print()
    report = _render_full_report(update.results)
    print(report)
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(report + "\n")
        print(f"\nreport written to {args.report}")
    return 0 if update.results.complete else 1


def _cmd_chaos(args) -> int:
    import dataclasses

    config = _PRESETS[args.preset](seed=args.seed)
    config = dataclasses.replace(config, verbose=not args.quiet)
    if args.jobs is not None:
        config = dataclasses.replace(config, n_jobs=args.jobs)
    if args.plan is not None:
        plan = FaultPlan.load(args.plan)
    else:
        plan = random_fault_plan(
            args.chaos_seed, [c.value for c in DataCategory]
        )
    if args.save_plan is not None:
        path = plan.save(args.save_plan)
        print(f"fault plan written to {path}")
    ledger_path = args.ledger if args.ledger is not None \
        else os.environ.get("REPRO_LEDGER") or None
    # Conditional kwarg so callers that wrap run_chaos with a narrower
    # signature keep working when no ledger is requested.
    ledger_kwargs = {"ledger_path": str(ledger_path)} \
        if ledger_path is not None else {}
    report = run_chaos(config, plan, policy=args.degradation,
                       **ledger_kwargs)
    table = render_chaos_table(report)
    print(table)
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(table + "\n")
        print(f"\nreport written to {args.report}")
    return 0


def _cmd_report(args) -> int:
    path = args.ledger if args.ledger is not None \
        else os.environ.get("REPRO_LEDGER") or None
    if path is None:
        print("no ledger given (pass a path or set $REPRO_LEDGER)")
        return 1
    ledger = RunLedger(path)
    records, skipped = ledger.scan()
    if not records:
        print(f"no ledger records found in {path}")
        return 1
    if args.run is not None:
        record = ledger.get(args.run)
        if record is None:
            print(f"no record with run id {args.run!r} in {path}")
            return 1
        print(render_record(record))
        return 0
    if args.compare is not None:
        pair = [ledger.get(run_id) for run_id in args.compare]
        for run_id, record in zip(args.compare, pair):
            if record is None:
                print(f"no record with run id {run_id!r} in {path}")
                return 1
        print(render_compare(pair[0], pair[1]))
        return 0
    shown = ledger.query(kind=args.kind, limit=args.last)
    if not shown:
        print(f"no matching records in {path}")
        return 1
    print(render_history(shown))
    if skipped:
        print(f"\n({skipped} corrupt line(s) skipped)")
    return 0


def _cmd_bench(args) -> int:
    results_dir = args.results if args.results is not None \
        else os.environ.get("REPRO_BENCH_DIR") or None
    if results_dir is None:
        print("no fresh results directory "
              "(pass --results or set $REPRO_BENCH_DIR)")
        return 1
    try:
        deltas, ok = check_bench_dirs(
            results_dir, args.baseline, ratio_tolerance=args.tolerance,
        )
    except (OSError, ValueError) as exc:
        print(f"bench check failed to load artefacts: {exc}")
        return 2
    print(render_bench_check(deltas, verbose=args.verbose))
    return 0 if ok else 1


def _cmd_trace_summary(args) -> int:
    try:
        spans = read_jsonl(args.path)
    except FileNotFoundError:
        print(f"trace file not found: {args.path}")
        return 1
    except (json.JSONDecodeError, KeyError) as exc:
        print(f"not a span trace ({args.path}): {exc}")
        return 1
    if not spans:
        print(f"no spans found in {args.path}")
        return 1
    # 'run.metrics' records are synthetic counter carriers written by
    # 'run --trace', not real work — keep them out of the timing tables.
    counters: dict = {}
    for record in spans:
        if record.name == "run.metrics":
            counters.update(record.attrs.get("counters", {}))
    spans = [s for s in spans if s.name != "run.metrics"]
    if not spans:
        print(f"no timing spans found in {args.path}")
        return 1
    roots = [s for s in spans if s.parent_id is None]
    total = (max(s.duration for s in roots) if roots
             else max(s.end for s in spans) - min(s.start for s in spans))
    print(f"{len(spans)} spans, total traced time "
          f"{format_runtime(total)}\n")
    print(format_stage_table(spans))
    print()
    print(format_slowest(spans, args.top))
    if counters:
        print()
        print("counters:")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            print(f"  {name:<{width}}  {int(counters[name])}")
    return 0


def _cmd_cache(args) -> int:
    from .cache import CacheStore

    directory = args.cache_dir if args.cache_dir is not None \
        else os.environ.get("REPRO_CACHE_DIR") or None
    if directory is None:
        print("no cache directory given (pass --dir or set "
              "$REPRO_CACHE_DIR)")
        return 1
    store = CacheStore(directory)
    if args.action == "stats":
        stats = store.stats()
        print(f"cache {stats['directory']}")
        print(f"  entries      {stats['entries']} "
              f"({stats['bytes']:,} bytes in {stats['shards']} shards)")
        print(f"  quarantined  {stats['quarantined']} "
              f"({stats['quarantined_bytes']:,} bytes)")
        print(f"  tmp files    {stats['tmp_files']}")
        return 0
    if args.action == "verify":
        report = store.verify(repair=not args.no_repair)
        print(f"checked {report['checked']} entries: "
              f"{report['ok']} ok ({report['legacy']} legacy), "
              f"{report['stale']} stale, "
              f"{len(report['corrupt'])} corrupt")
        for key in report["corrupt"]:
            print(f"  corrupt: {key}")
        if report["quarantined"]:
            print(f"moved {report['quarantined']} corrupt entries to "
                  f"quarantine/")
        return 1 if report["corrupt"] else 0
    if args.action == "gc":
        if args.max_size is None and args.max_age is None:
            print("gc needs --max-size and/or --max-age")
            return 1
        removed = store.gc(max_bytes=args.max_size,
                           max_age_s=args.max_age)
        print(f"removed {removed['expired']} expired, "
              f"{removed['evicted']} evicted, "
              f"{removed['quarantined']} quarantined, "
              f"{removed['tmp']} tmp files "
              f"({removed['bytes_freed']:,} bytes freed)")
        return 0
    removed = store.clear()
    print(f"cleared {removed} entries from {store.directory}")
    return 0


def _cmd_index(args) -> int:
    config = SimulationConfig(seed=args.seed)
    latent = generate_latent_market(config)
    universe = generate_universe(config, latent)
    frame = crypto100_index(universe)
    share = frame["top100_cap"] / frame["total_cap"]
    print(f"days: {frame.n_rows}")
    print(f"Crypto100 range: {frame['crypto100'].min():,.0f} .. "
          f"{frame['crypto100'].max():,.0f}")
    print(f"top-100 market share: mean {share.mean():.2%}")
    best, distances = tune_scaling_power(universe)
    print(f"best scaling power: {best} (paper: 7)")
    for power, dist in sorted(distances.items()):
        marker = " <-- chosen" if power == best else ""
        print(f"  power {power}: mean |log10(index/BTC)| = "
              f"{dist:.3f}{marker}")
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "run": _cmd_run,
        "update": _cmd_update,
        "chaos": _cmd_chaos,
        "report": _cmd_report,
        "bench": _cmd_bench,
        "cache": _cmd_cache,
        "index": _cmd_index,
        "trace-summary": _cmd_trace_summary,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
