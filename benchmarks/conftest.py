"""Shared fixtures for the benchmark harness.

The expensive artefacts are session-scoped and computed once:

* ``bench_results`` — one full experiment at the ``bench`` preset
  (all 10 paper scenarios). Every table/figure bench reads from it and
  writes its rendered artefact under ``benchmarks/results/``.
* ``universe`` — the simulated asset universe (Figures 1-2).

Each bench also *measures* a representative computation with
pytest-benchmark, so ``--benchmark-only`` runs double as a performance
regression harness for the library.

At session end the harness writes ``results/BENCH_obs.json`` through
the shared :mod:`benchmarks._emit` writer (unified
``{"schema": 1, ..., "benchmarks": {...}}`` shape): each benchmark
test's wall-time. The per-stage view of a run lives in
``benchmarks/pipeline/``.
"""

from pathlib import Path

import pytest

try:
    from benchmarks._emit import write_bench
except ImportError:  # invoked with benchmarks/ as the rootdir
    from _emit import write_bench

from repro import ExperimentConfig, run_experiment
from repro.synth import generate_latent_market, generate_universe

RESULTS_DIR = Path(__file__).parent / "results"

#: per-test wall times, filled as the session runs and flushed by
#: pytest_sessionfinish.
_durations: dict[str, float] = {}


@pytest.fixture(scope="session")
def bench_config():
    return ExperimentConfig.bench()


@pytest.fixture(scope="session")
def bench_results(bench_config):
    """One full paper reproduction at benchmark scale (computed once)."""
    return run_experiment(bench_config)


def _bench_name(nodeid: str) -> str:
    """``.../bench_x.py::test_fig1_top100`` → ``fig1_top100``."""
    name = nodeid.rsplit("::", 1)[-1]
    return name[len("test_"):] if name.startswith("test_") else name


def pytest_runtest_logreport(report):
    if report.when == "call" and report.passed:
        _durations[_bench_name(report.nodeid)] = round(report.duration, 4)


def pytest_sessionfinish(session, exitstatus):
    if not _durations:
        return
    benchmarks = {
        name: {"seconds": duration}
        for name, duration in sorted(_durations.items())
    }
    write_bench("obs", benchmarks, preset="bench")


@pytest.fixture(scope="session")
def latent(bench_config):
    return generate_latent_market(bench_config.simulation)


@pytest.fixture(scope="session")
def universe(bench_config, latent):
    return generate_universe(bench_config.simulation, latent)


@pytest.fixture(scope="session")
def artifact_writer():
    """Write a rendered table to benchmarks/results/<name>.txt and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[artifact written to {path}]")

    return write
