import importlib
import sys
import warnings
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pqaka import sim
from pqaka.rng import SeededRandom


@pytest.fixture
def world():
    return sim.make_world("test", seed=0)


@pytest.fixture
def rng():
    return SeededRandom(1)


def pytest_runtest_logreport(report):
    """After a failure, import the module hypothesis reports failing
    examples with, ignoring the DeprecationWarning that importing libcst
    raises: under -W error that warning, raised inside hypothesis's own
    report hook, ends the run with an INTERNALERROR that hides every later
    test. Passing runs never import it."""
    if report.failed and "hypothesis.extra._patching" not in sys.modules:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                importlib.import_module("hypothesis.extra._patching")
            except ImportError:     # libcst is not installed
                pass
