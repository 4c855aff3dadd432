import numpy as np
import pytest

from enrichedfp import certify
from enrichedfp.mappings import Reflection1D, Scale1D

EPS = float(np.finfo(np.float64).eps)


@pytest.fixture(autouse=True)
def _nothing_parked():
    """Each test starts with no estimate's winning sweep parked for the next
    one (``certify._parked``), so that no test reads another's record."""
    certify._parked.clear()


@pytest.fixture(scope="session")
def unit_sample() -> certify.SampleSet:
    """101-point grid on [0,1] plus 100 seed-0 uniform points."""
    return certify.default_sample([(0.0, 1.0)], grid_points=101, random_points=100, seed=0)


@pytest.fixture(scope="session")
def reflection() -> Reflection1D:
    return Reflection1D()


@pytest.fixture(scope="session")
def scale_third() -> Scale1D:
    return Scale1D(c=1.0 / 3.0, bounds=(0.0, 1.0))
