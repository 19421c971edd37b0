import numpy as np
import pytest
from hypothesis import settings

from affinemaps.basis import product_basis

# every property test draws the same examples on every run; numerical
# kernels vary too much in speed for a per-example deadline
settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")


@pytest.fixture(scope="session")
def pb22():
    return product_basis(2, 2)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
