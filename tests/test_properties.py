"""Property tests (hypothesis) for the data-ball projection, the duplicate merge, the Anderson
step, the discrete gradient, the lp norms, the transforms, the exact Haar reference, the isotropy
identity, the partial DFT, the storage-position decode, the closed-form Fourier-Haar inner
products, the grid CSV writer and PGM round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import fourier_haar_inner_1d_direct, write_grid_oracle
from vdfourier.cli import _write_grid_csv
from vdfourier.coherence import (
    _inner_1d,
    coherence_tables_1d,
    fourier_haar_inner_1d,
)
from vdfourier.image_core import as_image, gradient, gradient_adjoint, lp_norm
from vdfourier.pgm import read_pgm, write_pgm
from vdfourier.sampling import (
    Density,
    SamplingPlan,
    density_inverse_square,
    deterministic_mask,
    draw_plan,
)
from vdfourier.solvers import _AA_MOVES, _anderson_step, _merge_draws, _project_ball
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
from vdfourier.verify import check_atom_tv, isotropy_identity_error

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
NAN = complex(np.nan, np.nan)  # fills an output array that must be written, never read


def random_complex(seed, shape, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


# ---------------------------------------------------------------------------
# data-ball projection

def ball_multiplier_by_bisection(w, wa2):
    """The lam >= 0 with sum wa2/(1 + lam*w)^2 = 1 (sum wa2 > 1), by bisection in float64;
    phi(lam) <= sum(wa2)/(1 + lam*min(w))^2, so phi <= 1 at the upper end."""
    lo, hi = 0.0, (np.sqrt(wa2.sum()) - 1.0) / w.min()
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if np.sum(wa2 / (1.0 + mid * w) ** 2) > 1.0:
            lo = mid
        else:
            hi = mid
    return mid


@PROPERTY
@given(
    p=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    draws=st.floats(0.1, 2.0),
    w_spread=st.floats(0.0, 4.0),
    v_scale=st.floats(1e-2, 1e2),
    # 1 - 1e-12: a root within rounding of 0, where an exit on the step relative to lam alone
    # never fires
    r_frac=st.one_of(st.just(0.0), st.just(1 - 1e-12), st.floats(1e-2, 2.0)),
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

    def project(x, radius, t):  # into a fresh buffer whose NaNs show any entry left unwritten
        out = np.full((n, n), NAN)
        root, evals = _project_ball(x, lin, w, ybar, radius, t, out)
        return out, root, evals

    r = r_frac * dist(v)
    pv, root, _ = project(v, r, 0.0)
    for t0 in (0.0, 1e-3 * root, 10.0 * root, 1e6, 1e12):
        warm, _, evals = project(v, r, t0)
        assert evals <= 10
        assert np.linalg.norm(warm - pv) <= 1e-10 * np.linalg.norm(pv)
    if 0 < r < dist(v):  # a root was solved for
        # to 1e-12 relative in each factor 1/(1 + lam*w) it sets; near r = dist(v) rounding
        # fixes the root itself only to about 1e-16/w, for the bisection as for Newton
        a = fft2_unphased(v).ravel()[lin] - ybar
        ref = ball_multiplier_by_bisection(w, w * np.abs(a) ** 2 / r**2)
        assert abs(root - ref) <= 1e-12 * (ref + 1.0 / w.max())
    scale = np.linalg.norm(v) + np.linalg.norm(np.sqrt(w) * ybar)
    assert dist(pv) <= r + 1e-12 * (r if r > 0 else scale)
    # optimality: v - Pv is normal to the ball at Pv
    h, _, _ = project(u, r, 0.0)
    normal = np.vdot(v - pv, h - pv).real
    assert normal <= 1e-10 * np.linalg.norm(v) * np.linalg.norm(h)
    again, _, _ = project(pv, r, root)
    assert np.linalg.norm(again - pv) <= 1e-12 * scale
    if r > 0:  # a point strictly inside comes back bit for bit, with no Newton step
        inside, _, _ = project(v, r / 2, 0.0)
        copy, _, evals = project(inside, r, 0.0)
        assert copy.tobytes() == inside.tobytes() and evals == 0


# ---------------------------------------------------------------------------
# Anderson step

def anderson_type2_oracle(z, moves, newest, weight):
    """The textbook type-II step (Walker & Ni 2011) in float64, from the moves' differences by
    least squares in the omega-metric, without a ridge: z - sum_j gamma_j m_{j+1}."""
    k = len(moves)
    m = moves[[(newest + 1 + i) % k for i in range(k)]].astype(np.complex128)  # oldest first
    v = m.copy()
    v[:, 0] *= np.sqrt(weight)
    v[:, 1:] /= np.sqrt(weight)
    v = v.reshape(k, -1)
    v = np.concatenate([v.real, v.imag], axis=1)
    gamma = np.linalg.lstsq((v[1:] - v[:-1]).T, v[-1], rcond=None)[0]
    return z - np.tensordot(gamma, m[1:], axes=1)


@PROPERTY
@given(n=st.integers(8, 32), seed=st.integers(0, 2**32 - 1), newest=st.integers(0, _AA_MOVES - 1),
       log_weight=st.floats(-2.0, 2.0), dtype=st.sampled_from([np.complex128, np.complex64]))
def test_anderson_step_is_the_type2_step_and_leaves_the_ring(n, seed, newest, log_weight, dtype):
    # a ring of TV-shaped moves (g and the two dual planes); the step may not write the ring
    weight = 10.0**log_weight
    moves = random_complex(seed, (_AA_MOVES, 3, n, n)).astype(dtype)
    z = random_complex(seed + 1, (3, n, n)).astype(dtype)
    ring, start = moves.tobytes(), z.astype(np.complex128)
    assert _anderson_step(z, moves, newest, weight) == 1
    assert moves.tobytes() == ring and z.dtype == dtype
    if dtype == np.complex128:
        want = anderson_type2_oracle(start, moves, newest, weight)
        assert np.linalg.norm(z - want) <= 1e-8 * np.linalg.norm(want - start)
    zero = np.zeros_like(moves)
    before = z.tobytes()
    assert _anderson_step(z, zero, newest, weight) == 0
    assert z.tobytes() == before and not zero.any()


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
@given(p=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), zeros=st.floats(0.0, 0.9),
       dtype=st.sampled_from([np.complex128, np.complex64]))
def test_gradient_adjoint_is_the_slice_form_bit_for_bit(p, seed, zeros, dtype):
    # the slice form: zero-fill, then -dx, +dx, -dy, +dy over 2-D slices; signed zeros included
    n = 1 << p
    rng = np.random.default_rng(seed)
    d = random_complex(seed, (2, n, n)).astype(dtype)
    d.real[rng.random(d.shape) < zeros] = 0.0
    d.imag[rng.random(d.shape) < zeros] = -0.0
    dx, dy = d[0, :-1], d[1, :, :-1]
    want = np.zeros((n, n), dtype=dtype)
    want[:-1] -= dx
    want[1:] += dx
    want[:, :-1] -= dy
    want[:, 1:] += dy
    got = gradient_adjoint(d)
    assert got.dtype == dtype
    got, want = (a.view(a.real.dtype) for a in (got, want))  # real and imaginary parts
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@PROPERTY
@given(p=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), zeros=st.floats(0.0, 0.9),
       dtype=st.sampled_from([np.complex128, np.complex64]))
def test_gradient_is_the_slice_form_bit_for_bit(p, seed, zeros, dtype):
    # the slice form: dx and dy over 2-D slices, then zero pads; ``out`` starts with garbage
    n = 1 << p
    rng = np.random.default_rng(seed)
    f = random_complex(seed, (n, n)).astype(dtype)
    f.real[rng.random(f.shape) < zeros] = 0.0
    f.imag[rng.random(f.shape) < zeros] = -0.0
    want = np.zeros((2, n, n), dtype=dtype)
    want[0, :-1] = f[1:] - f[:-1]
    want[1, :, :-1] = f[:, 1:] - f[:, :-1]
    got = gradient(f, out=random_complex(seed + 1, (2, n, n)).astype(dtype))
    assert got.dtype == dtype
    got, want = (a.view(a.real.dtype) for a in (got, want))  # real and imaginary parts
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


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
# lp norms

@PROPERTY
@given(size=st.integers(1, 300), seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3),
       real=st.booleans())
def test_lp_norm_is_the_general_formula(size, seed, scale, real):
    x = random_complex(seed, size, scale)
    x = x.real if real else x
    assert lp_norm(x, 1) == float(np.abs(x).sum())  # the p = 1 case, bit for bit
    for p in (2, 3, np.inf):
        ref = np.linalg.norm(x, p)
        assert abs(lp_norm(x, p) - ref) <= 1e-12 * ref


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


# Every entry of haar_matrix is a signed power of two, so on small integers the dense reference
# and the butterflies are both exact, and so is each atom's TV: each comparison below is exact.

@PROPERTY
@given(p=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_haar_forward_is_the_exact_dense_product_on_integer_images(p, seed):
    n = 1 << p
    rng = np.random.default_rng(seed)
    f = rng.integers(-8, 9, (n, n)) + 1j * rng.integers(-8, 9, (n, n))
    assert haar_forward(f).tobytes() == (haar_matrix(p) @ f.ravel()).tobytes()


@pytest.mark.parametrize("n, tv", [(2, 4.0), (4, 6.0), (8, 8.0), (16, 8.0), (32, 8.0), (64, 8.0)])
def test_atom_tv_is_exact(n, tv):
    assert check_atom_tv(n) == tv



# ---------------------------------------------------------------------------
# isotropy identity

@PROPERTY
@given(p=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_isotropy_identity_holds_for_every_positive_density(p, seed):
    # rho_j = nu_j ** -0.5 preconditions any strictly positive density to the identity,
    # here with masses spread over twelve decades
    n = 1 << p
    mass = 10.0 ** np.random.default_rng(seed).uniform(-6, 6, (n, n))
    assert isotropy_identity_error(Density(values=mass / mass.sum())) <= 1e-10

# ---------------------------------------------------------------------------
# operators writing into a given array

@PROPERTY
@given(p=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3),
       dtype=st.sampled_from([np.complex128, np.complex64]))
def test_out_receives_the_allocating_result_without_reading_it(p, seed, k, dtype):
    n = 1 << p
    f = random_complex(seed, (n, n)).astype(dtype)
    stack = random_complex(seed + 1, (k, n, n)).astype(dtype)  # the verify layer's atom stacks
    cases = [
        (fft2_unphased, f), (fft2_unphased, stack), (ifft2_unphased, f), (ifft2_unphased, stack),
        (gradient, f), (gradient_adjoint, random_complex(seed + 2, (2, n, n)).astype(dtype)),
        (haar_forward, f), (haar_inverse, random_complex(seed + 3, n * n).astype(dtype)),
    ]
    for op, x in cases:
        want = op(x)
        out = np.full_like(want, NAN)
        assert op(x, out=out) is out
        assert np.array_equal(out, want), op.__name__


@PROPERTY
@given(p=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_transforms_keep_complex64_and_agree_with_complex128(p, seed):
    n = 1 << p
    cases = [
        (as_image, (n, n)), (fft2_unphased, (n, n)), (ifft2_unphased, (n, n)),
        (dft2_forward, (n, n)), (dft2_inverse, (n, n)), (gradient, (n, n)),
        (gradient_adjoint, (2, n, n)), (haar_forward, (n, n)), (haar_inverse, (n * n,)),
    ]
    for i, (op, shape) in enumerate(cases):
        x = random_complex(seed + i, shape)
        want, got = op(x), op(x.astype(np.complex64))
        assert (want.dtype, got.dtype) == (np.complex128, np.complex64), op.__name__
        # float32 rounding of the input and of each of the 2p levels or passes
        tol = 4 * np.finfo(np.float32).eps * (2 * p + 1) * np.abs(x).max() * np.sqrt(n)
        assert np.abs(got - want).max() <= tol, op.__name__
    for real in (np.ones((n, n)), np.ones((n, n), dtype=np.float32)):
        assert as_image(real).dtype == np.complex128


@PROPERTY
@given(p=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_transforms_equal_their_references_exactly(p, seed):
    n = 1 << p
    rng = np.random.default_rng(seed)
    # small integers: the butterflies add and halve them without rounding in either precision
    f = rng.integers(-50, 51, (n, n)) + 1j * rng.integers(-50, 51, (n, n))
    coef = haar_forward(f)
    assert np.array_equal(haar_forward(f.astype(np.complex64)), coef)
    assert np.array_equal(haar_inverse(coef.astype(np.complex64)), f)
    assert np.array_equal(haar_inverse(coef), f)
    for dtype in (np.complex128, np.complex64):
        x = random_complex(seed, (n, n)).astype(dtype)
        assert np.array_equal(fft2_unphased(x), np.fft.fft2(x, norm="ortho"))
        assert np.array_equal(ifft2_unphased(x), np.fft.ifft2(x, norm="ortho"))


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
@given(n=st.sampled_from([2, 4, 16, 64]), seed=st.integers(0, 2**32 - 1),
       draws=st.floats(0.05, 2.0))
def test_from_lin_inverts_lin_with_repeated_positions(n, seed, draws):
    rng = np.random.default_rng(seed)
    m = max(1, int(draws * n * n))
    lin = rng.integers(0, n * n, m)
    assert np.array_equal(SamplingPlan.from_lin(n, lin, rng.uniform(0.5, 2.0, m)).lin, lin)
    for plan in (draw_plan(density_inverse_square(n), m, seed),
                 deterministic_mask(n, "lowest_frequencies", m=min(m, n * n))):
        assert np.array_equal(SamplingPlan.from_lin(n, plan.lin, plan.rho).freqs, plan.freqs)


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
# grid CSV writer

@PROPERTY
@given(n=st.integers(1, 8), columns=st.integers(1, 2), seed=st.integers(0, 2**32 - 1),
       pool=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=64))
def test_grid_csv_matches_csv_writer_from_a_value_pool(tmp_path_factory, n, columns, seed, pool):
    # a small pool against n^2 cells takes the distinct-value path, a large one the per-cell path
    rng = np.random.default_rng(seed)
    pool = np.array(pool + [-0.0, 0.0, float("nan")])
    values = [pool[rng.integers(0, pool.size, (n, n))] for _ in range(columns)]
    labels = np.arange(n) - n // 2
    header = ["k1", "k2"] + [f"v{c}" for c in range(columns)]
    out = tmp_path_factory.mktemp("grid")
    _write_grid_csv(out / "grid.csv", header, labels, *values)
    write_grid_oracle(out / "want.csv", header, labels, *values)
    assert (out / "grid.csv").read_bytes() == (out / "want.csv").read_bytes()


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
