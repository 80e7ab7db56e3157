"""Chaos runs: forecast-quality degradation under injected faults.

The paper asks what *adding* a data category buys; a chaos run asks the
production-facing inverse — what does a category going bad *cost*?
:func:`run_chaos` executes the experiment twice on the same seed: once
clean, once under a :class:`~repro.resilience.faults.FaultPlan` with a
degradation policy, then lines up the per-category single-source MSEs
(the §4.3 machinery) from both runs. The rendered table is a direct
robustness extension of the paper's Table 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..categories import DataCategory
from ..core.reporting import format_table
from ..obs import RunLedger, Tracer, build_record, get_logger
from .degradation import DegradationReport
from .faults import FaultPlan

__all__ = ["CategoryDegradation", "ChaosReport", "run_chaos",
           "render_chaos_table"]

_log = get_logger("resilience")

#: Run-summary counter prefixes a chaos report surfaces.
_COUNTER_PREFIXES = ("resilience.", "preflight.", "experiment.scenario")


@dataclass
class CategoryDegradation:
    """Clean-vs-faulted MSE for one feature set (category or diverse)."""

    label: str
    clean_mse: float | None
    faulted_mse: float | None

    @property
    def pct_change(self) -> float | None:
        """Percentage MSE change under faults (positive = worse)."""
        if not self.clean_mse or self.faulted_mse is None:
            return None
        return (self.faulted_mse - self.clean_mse) / self.clean_mse * 100.0


@dataclass
class ChaosReport:
    """Everything a chaos run produced."""

    plan: FaultPlan
    policy: str
    rows: list[CategoryDegradation] = field(default_factory=list)
    degradation: DegradationReport = field(
        default_factory=DegradationReport
    )
    failures: dict[str, str] = field(default_factory=dict)
    """Scenario key → error summary for scenarios that failed under
    faults (failure isolation keeps the rest of the run alive)."""

    counters: dict[str, int] = field(default_factory=dict)
    """Resilience-related counters from the faulted run's telemetry."""

    n_scenarios_compared: int = 0
    clean_runtime: float = 0.0
    faulted_runtime: float = 0.0


def _mean_category_mse(improvements) -> dict[str, float]:
    """Label → mean MSE across scenarios (plus the diverse vector)."""
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}

    def add(label: str, value: float) -> None:
        sums[label] = sums.get(label, 0.0) + value
        counts[label] = counts.get(label, 0) + 1

    for imp in improvements:
        add("diverse", imp.diverse_mse)
        for category, mse in imp.category_mse.items():
            add(category.value, mse)
    return {label: sums[label] / counts[label] for label in sums}


def run_chaos(config, plan: FaultPlan, policy: str = "fill",
              model: str = "rf",
              ledger_path: str | None = None) -> ChaosReport:
    """Run clean and faulted experiments; compare per-category MSE.

    The faulted run uses scenario failure isolation (``on_error=
    "capture"``), so a scenario that dies under corruption becomes a
    report entry rather than a crash. Only scenarios completed by
    *both* runs enter the MSE comparison.

    ``ledger_path`` appends one ``kind="chaos"`` record summarising the
    whole clean-vs-faulted comparison to the run ledger (the inner
    experiment runs deliberately do not append their own records, so a
    chaos run is one ledger line, not three).  Both inner runs trace
    into one tracer, so the record's stage table covers both: its
    ``experiment.run`` row has count 2.
    """
    from ..core.pipeline import run_experiment  # late: avoids cycle

    tracer = Tracer()
    base = replace(config, fault_plan=None, degradation="abort")
    _log.info("chaos.clean_run", seed=config.simulation.seed)
    clean = run_experiment(base, tracer=tracer)

    faulted_config = replace(
        config, fault_plan=plan, degradation=policy, on_error="capture",
    )
    _log.info("chaos.faulted_run", events=len(plan.events), policy=policy)
    faulted = run_experiment(faulted_config, tracer=tracer)

    clean_imp = [i for i in _improvements(clean, model)]
    faulted_imp = [i for i in _improvements(faulted, model)]
    common = (
        {(i.period, i.window) for i in clean_imp}
        & {(i.period, i.window) for i in faulted_imp}
    )
    clean_mse = _mean_category_mse(
        [i for i in clean_imp if (i.period, i.window) in common]
    )
    faulted_mse = _mean_category_mse(
        [i for i in faulted_imp if (i.period, i.window) in common]
    )

    rows = [CategoryDegradation(
        label="diverse",
        clean_mse=clean_mse.get("diverse"),
        faulted_mse=faulted_mse.get("diverse"),
    )]
    for category in DataCategory:
        if category.value not in clean_mse \
                and category.value not in faulted_mse:
            continue
        rows.append(CategoryDegradation(
            label=category.value,
            clean_mse=clean_mse.get(category.value),
            faulted_mse=faulted_mse.get(category.value),
        ))

    counters = {
        name: value
        for name, value in faulted.run_summary.metrics.get(
            "counters", {}
        ).items()
        if name.startswith(_COUNTER_PREFIXES)
    }
    report = ChaosReport(
        plan=plan,
        policy=policy,
        rows=rows,
        degradation=(faulted.degradation if faulted.degradation is not None
                     else DegradationReport(policy=policy)),
        failures={
            key: f"{f.error_type}: {f.message}"
            for key, f in faulted.failures.items()
        },
        counters=counters,
        n_scenarios_compared=len(common),
        clean_runtime=clean.runtime_seconds,
        faulted_runtime=faulted.runtime_seconds,
    )
    if ledger_path is not None:
        RunLedger(ledger_path).try_append(build_record(
            "chaos", tracer.spans, {"counters": dict(report.counters)},
            status="ok" if not report.failures else "partial",
            duration_s=clean.runtime_seconds + faulted.runtime_seconds,
            seed=config.simulation.seed,
            labels={"policy": policy, "model": model,
                    "fault_events": len(plan.events)},
            extra={
                "scenarios_compared": report.n_scenarios_compared,
                "failures": sorted(report.failures),
                "diverse_pct_change": report.rows[0].pct_change,
                "clean_runtime_s": round(clean.runtime_seconds, 6),
                "faulted_runtime_s": round(faulted.runtime_seconds, 6),
            },
        ))
    return report


def _improvements(results, model: str):
    if model == "rf":
        return results.improvements_rf
    if model == "gb":
        return results.improvements_gb
    raise ValueError(f"unknown model family {model!r}")


def _fmt_mse(value: float | None) -> str:
    return f"{value:.4g}" if value is not None else "dropped"


def render_chaos_table(report: ChaosReport) -> str:
    """The per-category degradation table plus the resilience ledger."""
    rows = [
        ("diverse (final vector)" if row.label == "diverse"
         else str(DataCategory(row.label)),
         _fmt_mse(row.clean_mse),
         _fmt_mse(row.faulted_mse),
         f"{row.pct_change:+.1f}%" if row.pct_change is not None else "—")
        for row in report.rows
    ]
    lines = [format_table(
        ["feature set", "clean MSE", "faulted MSE", "change"], rows,
        title=f"Forecast degradation under faults "
              f"(policy={report.policy}, "
              f"{report.n_scenarios_compared} scenarios, "
              f"{len(report.plan.events)} fault events)",
    )]
    lines += ["", f"degradation: {report.degradation.summary()}"]
    if report.failures:
        lines.append("failed scenarios:")
        for key, detail in sorted(report.failures.items()):
            lines.append(f"  {key}: {detail}")
    if report.counters:
        lines.append("resilience counters:")
        for name, value in sorted(report.counters.items()):
            lines.append(f"  {name} = {int(value)}")
    return "\n".join(lines)
