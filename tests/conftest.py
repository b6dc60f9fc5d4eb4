import numpy as np
import pytest

from vdfourier.sampling import SamplingPlan
from vdfourier.transforms import freq_values


def full_grid_plan(n, rho_value=1.0):
    """Every frequency exactly once."""
    ks = freq_values(n)
    freqs = np.stack(np.meshgrid(ks, ks, indexing="ij"), axis=-1).reshape(-1, 2)
    return SamplingPlan(n=n, freqs=freqs, rho=np.full(n * n, float(rho_value)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
