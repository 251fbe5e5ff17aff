"""Pytest root configuration.

Ensures the ``src`` layout is importable even when the package has not been
pip-installed (useful on offline machines where editable installs via PEP
660 are unavailable); an installed ``repro`` takes precedence.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def pytest_addoption(parser):
    # Read by benchmarks/conftest.py's ``results_dir`` fixture.  Registered
    # here because only root-level conftests see the command line when
    # pytest runs without path arguments.
    parser.addoption(
        "--update-results",
        action="store_true",
        default=False,
        help="write benchmark results to the tracked benchmarks/results/*.json",
    )
