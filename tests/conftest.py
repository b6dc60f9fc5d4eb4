import numpy as np
import pytest

from vdfourier.sampling import SamplingPlan
from vdfourier.transforms import freq_values, haar_atom_1d


def full_grid_plan(n, rho_value=1.0):
    """Every frequency exactly once."""
    ks = freq_values(n)
    freqs = np.stack(np.meshgrid(ks, ks, indexing="ij"), axis=-1).reshape(-1, 2)
    return SamplingPlan(n=n, freqs=freqs, rho=np.full(n * n, float(rho_value)))


def fourier_haar_inner_1d_direct(p, k, e, n, l):
    """Direct summation oracle for :func:`vdfourier.coherence.fourier_haar_inner_1d`."""
    size = 1 << p
    j = np.arange(size)
    atom = haar_atom_1d(p, e, n, l)
    return complex(np.sum(np.exp(2j * np.pi * k * j / size) * atom) / np.sqrt(size))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
