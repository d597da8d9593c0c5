import os
import pathlib

import numpy as np
import pytest

from grade3 import catalog

# Child processes (`python -m grade3`) import the package the tests import,
# wherever it came from: pyproject's `pythonpath` reaches this process only.
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(pathlib.Path(catalog.__file__).parents[1]),
                os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


@pytest.fixture(scope="session")
def sl2():
    return catalog.get_entry("sl2")


@pytest.fixture(scope="session")
def poincare3():
    return catalog.get_entry("poincare3")


@pytest.fixture(scope="session")
def jacobi1():
    return catalog.get_entry("jacobi1")


@pytest.fixture(scope="session")
def solvable():
    return catalog.get_entry("solvable")
