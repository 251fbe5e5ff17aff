"""Shared fixtures and reporting helpers for the benchmark harness.

Each ``test_bench_*`` module regenerates one table or figure of the paper:
it runs the corresponding experiment (performance model or real model-scale
calculation), prints the same rows/series the paper reports, stores them as
JSON and asserts the qualitative shape (who wins, by roughly what factor,
where crossovers fall).

Run with ``pytest benchmarks/ --benchmark-only`` (pytest-benchmark) or plain
``pytest benchmarks/`` to execute the experiments without timing overhead.
By default the JSON goes to a per-session temporary directory, so a test
run leaves the tracked files alone; pass ``--update-results`` to rewrite
the tracked ``benchmarks/results/*.json`` (the option is registered in the
root ``conftest.py``, so it also works when pytest runs from the repo root).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

RESULTS_DIR = Path(__file__).resolve().parent / "results"


@pytest.fixture(scope="session")
def results_dir(request, tmp_path_factory) -> Path:
    if not request.config.getoption("--update-results"):
        return tmp_path_factory.mktemp("results")
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def pytest_configure(config):
    # Keep pytest-benchmark quiet about small sample counts: the model-scale
    # physics experiments are deliberately run once per benchmark round.
    config.addinivalue_line("markers", "paper_experiment: reproduces a paper artefact")
