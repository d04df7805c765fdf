"""Shared fixtures for the figure-regeneration benchmarks.

Each benchmark regenerates one paper table/figure (quick grid), asserts
its reproduction-target *shape*, and writes the rendered rows/series to
``benchmarks/results/<figure>.txt`` for inspection.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import telemetry
from repro.experiments.figures import NURSERY_SCALE
from repro.experiments.runner import ExperimentRunner

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session", autouse=True)
def _benchmark_telemetry():
    """Benchmarks opt into metrics (the library default stays off)."""
    with telemetry.session():
        yield


def save_result(result) -> None:
    """Persist a FigureResult's rendered text."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{result.figure_id}.txt"
    path.write_text(str(result) + "\n")


def save_text(name: str, text: str) -> Path:
    """Persist arbitrary rendered text under ``results/``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    return path


def append_text(name: str, text: str) -> Path:
    """Append a section to a results file (tests sharing one report)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    existing = path.read_text() if path.exists() else ""
    path.write_text(existing + text + "\n")
    return path


@pytest.fixture(scope="session")
def breakdown_runner():
    """Runner shared by the breakdown figures (scale 1)."""
    return ExperimentRunner(scale=1)


@pytest.fixture(scope="session")
def sweep_runner():
    """Runner shared by the microarchitecture sweep figures."""
    return ExperimentRunner(scale=1)


@pytest.fixture(scope="session")
def nursery_runner():
    """Runner shared by the nursery-study figures (scaled workloads)."""
    return ExperimentRunner(scale=NURSERY_SCALE)
