import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest
from hypothesis import settings

from metafix.endo import parse_endomorphism

# One profile for every run: no deadline, so a slow machine cannot fail a
# test on time alone, and examples derived from each test's name, so a
# failure anywhere replays as it is on any machine.
settings.register_profile("metafix", deadline=None, derandomize=True)
settings.load_profile("metafix")

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def data_path(name):
    return os.path.join(DATA_DIR, name)


@pytest.fixture
def displaced_pair():
    """x1 -> x1 s, x2 -> x2 s^-1 with s = [x1,x2]; no nontrivial fixed points."""
    with open(data_path("displaced_pair.endo")) as fh:
        return parse_endomorphism(fh.read())


@pytest.fixture
def infinite_fix():
    """x1 -> x1 [x2,x3,x1], fixes x2 and x3; infinitely generated Fix."""
    with open(data_path("infinite_fix.endo")) as fh:
        return parse_endomorphism(fh.read())
