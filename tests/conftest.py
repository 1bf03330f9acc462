import os
import random
from pathlib import Path

import pytest

# Subprocesses started by the tests (CLI runs, `python -O` checks) import the
# package from src/, as the test process does through pyproject's pythonpath.
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture
def cold_levels(monkeypatch):
    """An empty lattice cache for the test, so it builds every level it reads."""
    from wallman_lab import enumeration

    monkeypatch.setattr(enumeration, "_LEVELS", {})


@pytest.fixture
def rng():
    """Deterministic RNG for randomized suites; seed from WALLMAN_LAB_SEED."""
    seed = int(os.environ.get("WALLMAN_LAB_SEED", "0"))
    return random.Random(seed)
