"""Property tests (hypothesis) for the data-ball projection, the duplicate merge,
the discrete gradient, the transforms, the partial DFT, the closed-form Fourier-Haar
inner products and PGM round trips."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import fourier_haar_inner_1d_direct
from vdfourier.coherence import (
    _inner_1d,
    coherence_tables_1d,
    fourier_haar_inner_1d,
)
from vdfourier.image_core import gradient, gradient_adjoint
from vdfourier.pgm import read_pgm, write_pgm
from vdfourier.sampling import SamplingPlan
from vdfourier.solvers import _merge_draws, _project_ball
from vdfourier.transforms import (
    dft2_forward,
    dft2_inverse,
    fft2_unphased,
    freq_values,
    haar_forward,
    haar_inverse,
    haar_matrix,
    ifft2_unphased,
    partial_dft,
    partial_dft_adjoint,
    sampled_phase,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def random_complex(seed, shape, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


# ---------------------------------------------------------------------------
# data-ball projection

@PROPERTY
@given(
    p=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    draws=st.floats(0.1, 2.0),
    w_spread=st.floats(0.0, 4.0),
    v_scale=st.floats(1e-2, 1e2),
    r_frac=st.one_of(st.just(0.0), st.floats(1e-2, 2.0)),
)
def test_project_ball_is_the_warm_startable_projection(p, seed, draws, w_spread, v_scale,
                                                       r_frac):
    n = 1 << p
    rng = np.random.default_rng(seed)
    # a plan with repeated frequencies, merged as the solvers merge it
    idx = rng.integers(0, n * n, max(1, int(draws * n * n)))
    lin, inv = np.unique(idx, return_inverse=True)
    w = np.bincount(inv, weights=10.0 ** rng.uniform(-w_spread / 2, w_spread / 2, idx.size))
    ybar = random_complex(seed + 1, lin.size)
    v = random_complex(seed + 2, (n, n), v_scale)
    u = random_complex(seed + 3, (n, n), v_scale)

    def dist(g):
        return np.linalg.norm(np.sqrt(w) * (fft2_unphased(g).ravel()[lin] - ybar))

    r = r_frac * dist(v)
    pv, root, _ = _project_ball(v, lin, w, ybar, r, 0.0)
    for t0 in (1e-3 * root, 10.0 * root, 1e6):
        warm, _, evals = _project_ball(v, lin, w, ybar, r, t0)
        assert evals < 80
        assert np.linalg.norm(warm - pv) <= 1e-10 * np.linalg.norm(pv)
    scale = np.linalg.norm(v) + np.linalg.norm(np.sqrt(w) * ybar)
    assert dist(pv) <= r + 1e-12 * (r if r > 0 else scale)
    # optimality: v - Pv is normal to the ball at Pv
    h, _, _ = _project_ball(u, lin, w, ybar, r, 0.0)
    normal = np.vdot(v - pv, h - pv).real
    assert normal <= 1e-10 * np.linalg.norm(v) * np.linalg.norm(h)
    again, _, _ = _project_ball(pv, lin, w, ybar, r, root)
    assert np.linalg.norm(again - pv) <= 1e-12 * scale
    if r > 0:  # a point strictly inside comes back untouched
        inside, _, _ = _project_ball(v, lin, w, ybar, r / 2, 0.0)
        assert _project_ball(inside, lin, w, ybar, r, 0.0)[0] is inside


# ---------------------------------------------------------------------------
# discrete gradient

@PROPERTY
@given(p=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_gradient_adjoint_is_exact_on_the_padded_field(p, seed):
    n = 1 << p
    f = random_complex(seed, (n, n))
    d = random_complex(seed + 1, (2, n, n))  # the pad entries d[0, -1] and d[1, :, -1] too
    assert np.all(d[0, -1] != 0) and np.all(d[1, :, -1] != 0)
    lhs = np.vdot(d, gradient(f))
    rhs = np.vdot(gradient_adjoint(d), f)
    assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(d) * np.linalg.norm(f)


@PROPERTY
@given(p=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), mix=st.floats(0.0, 1.0))
def test_gradient_pads_are_zero_and_norm_is_at_most_sqrt8(p, seed, mix):
    n = 1 << p
    # blended with the checkerboard, the image on which ||grad f||^2 / ||f||^2 nears 8
    t = np.arange(n)
    f = (1 - mix) * random_complex(seed, (n, n)) + mix * (-1.0) ** (t[:, None] + t[None, :])
    d = gradient(f)
    assert d.shape == (2, n, n)
    assert np.all(d[0, -1] == 0) and np.all(d[1, :, -1] == 0)
    assert np.vdot(d, d).real <= 8 * np.vdot(f, f).real


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


@PROPERTY
@given(p=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), draws=st.integers(1, 300))
def test_unphased_fft_pair_with_sampled_phase_is_dft2(p, seed, draws):
    n = 1 << p
    f = random_complex(seed, (n, n))
    lin = np.random.default_rng(seed + 1).integers(0, n * n, draws)  # repeats allowed
    spec = fft2_unphased(f)
    got = spec.ravel()[lin] * sampled_phase(n, lin)
    np.testing.assert_allclose(got, dft2_forward(f).ravel()[lin], rtol=0, atol=1e-12)
    np.testing.assert_allclose(ifft2_unphased(spec), f, rtol=0, atol=1e-12)
    np.testing.assert_allclose(fft2_unphased(ifft2_unphased(f)), f, rtol=0, atol=1e-12)


@PROPERTY
@given(p=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), draws=st.floats(0.05, 2.0),
       repeats=st.integers(1, 4))
def test_partial_dft_adjoint_identity_with_repeated_frequencies(p, seed, draws, repeats):
    n = 1 << p
    rng = np.random.default_rng(seed)
    freqs = rng.integers(-n // 2 + 1, n // 2 + 1, (max(1, int(draws * n * n)), 2))
    freqs = np.concatenate([freqs] * repeats + [freqs[: 1 + len(freqs) // 2]])
    plan = SamplingPlan(n=n, freqs=freqs, rho=rng.uniform(0.5, 2.0, len(freqs)))
    assert len(np.unique(freqs, axis=0)) < plan.m
    g = random_complex(seed + 1, (n, n))
    y = random_complex(seed + 2, plan.m)
    lhs = np.vdot(partial_dft(g, plan), y)
    rhs = np.vdot(g, partial_dft_adjoint(y, plan))
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


@PROPERTY
@given(p=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), draws=st.floats(0.05, 2.0),
       repeats=st.integers(1, 4))
def test_merged_draws_keep_the_weighted_data_fit(p, seed, draws, repeats):
    n = 1 << p
    rng = np.random.default_rng(seed)
    freqs = rng.integers(-n // 2 + 1, n // 2 + 1, (max(1, int(draws * n * n)), 2))
    freqs = np.concatenate([freqs] * repeats + [freqs[: 1 + len(freqs) // 2]])
    plan = SamplingPlan(n=n, freqs=freqs, rho=np.ones(len(freqs)))
    assert len(np.unique(freqs, axis=0)) < plan.m
    d2 = rng.uniform(0.1, 10.0, plan.m)
    x = random_complex(seed + 1, n * n)
    y = random_complex(seed + 2, plan.m)
    lin, w, ybar, spread = _merge_draws(plan, y, d2)
    assert np.array_equal(lin, np.unique(plan.lin))
    lhs = np.sum(d2 * np.abs(x[plan.lin] - y) ** 2)
    rhs = np.sum(w * np.abs(x[lin] - ybar) ** 2) + spread
    assert abs(lhs - rhs) <= 1e-10 * lhs


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


# ---------------------------------------------------------------------------
# PGM

@PROPERTY
@given(x=arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(1, 9)),
                elements=st.floats(0.0, 1.0)),
       maxval=st.integers(1, 65535))
def test_pgm_round_trip_is_the_quantization(tmp_path_factory, x, maxval):
    path = tmp_path_factory.mktemp("pgm") / "x.pgm"
    write_pgm(path, x, maxval)
    back, back_maxval = read_pgm(path)
    assert back_maxval == maxval
    assert back.shape == x.shape
    assert np.array_equal(back, np.rint(x * maxval) / maxval)
