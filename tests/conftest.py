import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True, scope="session")
def children_import_this_checkout():
    """`python -m nadphase` subprocesses import the package from this checkout's
    src/, as the test process does through pyproject's `pythonpath`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        yield
