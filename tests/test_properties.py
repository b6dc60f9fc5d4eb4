"""Property tests (hypothesis) for the dual-ball prox, the transforms and the
closed-form Fourier-Haar inner products."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdfourier import transforms
from vdfourier.coherence import (
    _inner_1d,
    coherence_tables_1d,
    fourier_haar_inner_1d,
    fourier_haar_inner_1d_direct,
)
from vdfourier.solvers import _prox_dual_ball
from vdfourier.transforms import (
    dft2_forward,
    dft2_inverse,
    freq_values,
    haar_forward,
    haar_inverse,
    haar_matrix,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def random_complex(seed, shape, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


# ---------------------------------------------------------------------------
# dual-ball prox

@PROPERTY
@given(
    size=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    r=st.floats(1e-2, 1e2),
    sig_spread=st.floats(0.0, 4.0),
    v_scale=st.floats(1e-2, 1e2),
)
def test_prox_warm_start_matches_cold_start(size, seed, r, sig_spread, v_scale):
    rng = np.random.default_rng(seed)
    sig = 10.0 ** rng.uniform(-sig_spread / 2, sig_spread / 2, size)  # non-uniform metric
    v = random_complex(seed + 1, size, v_scale)
    b = random_complex(seed + 2, size)
    z_cold, root, _ = _prox_dual_ball(v, sig, b, r, 0.0)
    for t0 in (1e-3 * root, 10.0 * root, 1e6):
        z_warm, root_warm, evals = _prox_dual_ball(v, sig, b, r, t0)
        assert evals < 80
        assert np.linalg.norm(z_warm - z_cold) <= 1e-10 * max(np.linalg.norm(z_cold), 1e-300)
    # optimality: 0 in r * d||z|| + b + (z - v) / sig
    scale = r + np.linalg.norm(v / sig) + np.linalg.norm(b)
    if np.any(z_cold):
        grad = r * z_cold / np.linalg.norm(z_cold) + b + (z_cold - v) / sig
        assert np.linalg.norm(grad) <= 1e-9 * scale
    else:
        assert np.linalg.norm(v / sig - b) <= r * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Haar

@PROPERTY
@given(p=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_haar_forward_matches_matrix_and_is_unitary(p, seed):
    n = 1 << p
    f = random_complex(seed, (n, n))
    w = random_complex(seed + 1, n * n)
    coef = haar_forward(f)
    np.testing.assert_allclose(coef, haar_matrix(p) @ f.ravel(), atol=1e-12)
    np.testing.assert_allclose(haar_inverse(coef), f, atol=1e-12)
    assert abs(np.vdot(coef, w) - np.vdot(f, haar_inverse(w))) <= 1e-12 * n * n


# ---------------------------------------------------------------------------
# DFT

def dft2_atom_oracle(f):
    """<phi_k, f> summed over the explicit atoms exp(2j*pi*t*k/n)/sqrt(n), t = 1..n."""
    n = f.shape[0]
    atoms = np.exp(-2j * np.pi * np.outer(freq_values(n), np.arange(1, n + 1)) / n) / np.sqrt(n)
    return atoms @ f @ atoms.T


@PROPERTY
@given(sides=st.lists(st.sampled_from([2, 4, 8, 16, 32]), min_size=2, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_dft2_matches_oracle_across_cached_sizes(sides, seed):
    for i, n in enumerate(sides):
        f = random_complex(seed + i, (n, n))
        spec = dft2_forward(f)
        np.testing.assert_allclose(spec, dft2_atom_oracle(f), atol=1e-12 * n)
        spec[0, 0] += 1.0  # results are fresh arrays, not views of the cache
        np.testing.assert_allclose(dft2_forward(f), dft2_atom_oracle(f), atol=1e-12 * n)
        np.testing.assert_allclose(dft2_inverse(dft2_forward(f)), f, atol=1e-12)


def test_cached_phase_grids_are_read_only():
    for grid in transforms._phase_grids(8):
        with pytest.raises(ValueError):
            grid[0, 0] = 0.0


# ---------------------------------------------------------------------------
# Fourier-Haar inner products

@PROPERTY
@given(p=st.integers(1, 10), seed=st.integers(0, 2**32 - 1),
       rows=st.integers(1, 6), cols=st.integers(1, 6))
def test_inner_1d_broadcasts_to_direct_oracle(p, seed, rows, cols):
    rng = np.random.default_rng(seed)
    size = 1 << p
    ks = rng.integers(-size // 2 + 1, size // 2 + 1, (rows, 1))
    es = rng.integers(0, 2, (1, cols))
    scales = rng.integers(0, p, (1, cols))
    shifts = (rng.random((1, cols)) * 2.0**scales).astype(int)
    got = _inner_1d(p, ks, es, scales, shifts)
    assert got.shape == (rows, cols)
    for (i, j), val in np.ndenumerate(got):
        want = fourier_haar_inner_1d_direct(p, int(ks[i, 0]), int(es[0, j]),
                                            int(scales[0, j]), int(shifts[0, j]))
        assert abs(val - want) <= 1e-12


@PROPERTY
@given(p=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
def test_coherence_tables_match_scalar_inner_product(p, seed):
    n = 1 << p
    ks = freq_values(n)
    tables = coherence_tables_1d(n)
    for i in np.random.default_rng(seed).integers(0, n, 8):
        for e in (0, 1):
            for s in range(p):
                want = abs(fourier_haar_inner_1d(p, int(ks[i]), e, s, 0))
                assert abs(tables[e][i, s] - want) <= 1e-15
