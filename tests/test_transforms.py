import numpy as np
import pytest

from conftest import full_grid_plan, haar_atom_2d, haar_indices
from vdfourier.sampling import SamplingPlan, density_uniform, draw_plan
from vdfourier.transforms import (
    dft2_forward,
    dft2_inverse,
    freq_values,
    haar_atom_1d,
    haar_forward,
    haar_inverse,
    haar_matrix,
    partial_dft,
    partial_dft_adjoint,
)


def dft2_oracle(f):
    """Naive O(n^4) double sum against the explicit Fourier atoms."""
    n = f.shape[0]
    ks = freq_values(n)
    out = np.zeros((n, n), dtype=complex)
    for i1, k1 in enumerate(ks):
        for i2, k2 in enumerate(ks):
            acc = 0.0
            for a in range(n):
                for b in range(n):
                    acc += f[a, b] * np.exp(-2j * np.pi * ((a + 1) * k1 + (b + 1) * k2) / n)
            out[i1, i2] = acc / n
    return out


# ---------------------------------------------------------------------------
# frequency layout

def test_freq_values_range():
    ks = freq_values(8)
    assert sorted(ks) == list(range(-3, 5))
    assert ks[0] == 0


@pytest.mark.parametrize("n", [32, 128])
@pytest.mark.parametrize("dtype", ["int8", "int16", "int32", "uint8", "uint16", "uint32", "uint64"])
def test_plan_of_any_integer_dtype_matches_int64(n, dtype):
    rng = np.random.default_rng(n)
    freqs = rng.integers(-n // 2 + 1, n // 2 + 1, size=(200, 2))
    if np.dtype(dtype).kind == "u":
        freqs = np.abs(freqs)
    want = SamplingPlan(n=n, freqs=freqs, rho=np.ones(200))
    plan = SamplingPlan(n=n, freqs=freqs.astype(dtype), rho=np.ones(200))
    assert np.array_equal(plan.lin, want.lin) and plan.lin.dtype == want.lin.dtype
    f = rng.standard_normal((n, n))
    assert partial_dft(f, plan).tobytes() == partial_dft(f, want).tobytes()
    y = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    assert partial_dft_adjoint(y, plan).tobytes() == partial_dft_adjoint(y, want).tobytes()
    for bad in ([n // 2 + 1, 0], [0, n // 2 + 1]):  # above the range, in the dtype's own width
        with pytest.raises(ValueError, match="outside"):
            SamplingPlan(n=n, freqs=np.array([bad], dtype=dtype), rho=np.ones(1))


# ---------------------------------------------------------------------------
# Haar atoms

def test_haar_atom_1d_window_is_constant():
    atom = haar_atom_1d(3, 0, 0, 0)
    assert np.allclose(atom, 2.0 ** (-1.5))


def test_haar_atom_1d_step_p2():
    assert np.array_equal(haar_atom_1d(2, 1, 0, 0), np.array([0.5, 0.5, -0.5, -0.5]))


def test_haar_atom_1d_matches_piecewise_definition():
    # independent per-point evaluation of the dyadic step function
    p, e, n, l = 3, 1, 1, 1
    atom = haar_atom_1d(p, e, n, l)
    wlen = 2 ** (p - n)
    expected = np.zeros(2**p)
    for t in range(2**p):
        if l * wlen <= t < l * wlen + wlen // 2:
            expected[t] = 2.0 ** ((n - p) / 2)
        elif l * wlen + wlen // 2 <= t < (l + 1) * wlen:
            expected[t] = -(2.0 ** ((n - p) / 2))
    assert np.array_equal(atom, expected)


def test_haar_atom_1d_rejects_bad_indices():
    with pytest.raises(ValueError):
        haar_atom_1d(3, 1, 3, 0)
    with pytest.raises(ValueError):
        haar_atom_1d(3, 1, 1, 2)
    with pytest.raises(ValueError):
        haar_atom_1d(3, 2, 1, 0)


@pytest.mark.parametrize("p", [-1, 0])
def test_haar_rejects_exponent_below_one(p):
    with pytest.raises(ValueError, match="power of two >= 2"):
        haar_matrix(p)
    with pytest.raises(ValueError, match="power of two >= 2"):
        haar_atom_1d(p, 0, 0, 0)


def test_haar_atom_2d_constant():
    p = 3
    atom = haar_atom_2d(p, haar_indices(p)[0])
    assert np.allclose(atom, 2.0**-p)


def test_haar_atom_2d_checkerboard_sign_pattern():
    p = 2
    atom = haar_atom_2d(p, ((1, 1), 0, (0, 0)))
    u = haar_atom_1d(p, 1, 0, 0)
    assert np.array_equal(atom, np.outer(u, u))
    assert atom[0, 0] > 0 and atom[0, 3] < 0 and atom[3, 0] < 0 and atom[3, 3] > 0


def test_haar_atoms_unit_norm_and_tensor_consistency():
    p = 3
    for idx in haar_indices(p):
        atom = haar_atom_2d(p, idx)
        assert np.linalg.norm(atom) == pytest.approx(1.0, abs=1e-12)
        outer = np.outer(
            haar_atom_1d(p, idx.e[0], idx.n, idx.l[0]),
            haar_atom_1d(p, idx.e[1], idx.n, idx.l[1]),
        )
        assert np.array_equal(atom, outer)


def test_haar_index_count():
    for p in (1, 2, 3, 4):
        assert len(haar_indices(p)) == 4**p


# ---------------------------------------------------------------------------
# Haar transform

@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_haar_matrix_orthonormal(p):
    h = haar_matrix(p)
    assert np.array_equal(h @ h.T, np.eye(4**p))  # signed powers of two: exact, not to rounding


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_haar_matrix_stacks_the_2d_atoms(p):
    # each atom exactly: its 1-D sign patterns times 2**(n - p), with no rounded 1-D factor
    atoms = [2.0 ** (n - p) * np.outer(np.sign(haar_atom_1d(p, e[0], n, l[0])),
                                       np.sign(haar_atom_1d(p, e[1], n, l[1]))).ravel()
             for e, n, l in haar_indices(p)]
    assert np.array_equal(haar_matrix(p), np.array(atoms))


def test_haar_forward_matches_dense_matrix():
    for p in (1, 2, 3):
        rng = np.random.default_rng(50 + p)
        n = 2**p
        f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        dense = haar_matrix(p) @ f.ravel()
        assert np.abs(haar_forward(f) - dense).max() < 1e-12


def test_haar_forward_delta_p1():
    f = np.zeros((2, 2))
    f[0, 0] = 1.0
    dense = haar_matrix(1) @ f.ravel()
    assert np.abs(haar_forward(f) - dense).max() < 1e-14


def test_haar_forward_constant_image():
    p, c = 3, 2.5
    w = haar_forward(np.full((2**p, 2**p), c))
    assert w[0] == pytest.approx(c * 2**p)
    assert np.abs(w[1:]).max() < 1e-12


def test_haar_roundtrip_and_parseval():
    rng = np.random.default_rng(60)
    f = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    w = haar_forward(f)
    assert np.abs(haar_inverse(w) - f).max() < 1e-12 * np.abs(f).max()
    assert np.linalg.norm(w) == pytest.approx(np.linalg.norm(f), rel=1e-12)


def test_haar_inverse_rejects_bad_length():
    with pytest.raises(ValueError):
        haar_inverse(np.zeros(10))


# ---------------------------------------------------------------------------
# Fourier transform

def test_dft2_constant_image():
    n, c = 8, 1.5
    spec = dft2_forward(np.full((n, n), c))
    assert spec[0, 0] == pytest.approx(c * n)
    spec[0, 0] = 0
    assert np.abs(spec).max() < 1e-12


def test_dft2_delta_flat_modulus():
    n = 8
    f = np.zeros((n, n))
    f[0, 0] = 1.0
    spec = dft2_forward(f)
    assert np.allclose(np.abs(spec), 1.0 / n)


def test_dft2_matches_naive_sum():
    rng = np.random.default_rng(70)
    f = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    assert np.abs(dft2_forward(f) - dft2_oracle(f)).max() < 1e-10


def test_dft2_unitary_roundtrip():
    rng = np.random.default_rng(71)
    f = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    spec = dft2_forward(f)
    assert np.linalg.norm(spec) == pytest.approx(np.linalg.norm(f), rel=1e-12)
    assert np.abs(dft2_inverse(spec) - f).max() < 1e-12


def test_dense_dft_matrix_unitary():
    n = 8
    ks = freq_values(n)
    t = np.arange(1, n + 1)
    rows = []
    for k1 in ks:
        for k2 in ks:
            atom = np.exp(2j * np.pi * (np.add.outer(t * k1, t * k2)) / n) / n
            rows.append(np.conj(atom).ravel())
    mat = np.array(rows)
    assert np.abs(mat @ mat.conj().T - np.eye(n * n)).max() <= 1e-12


# ---------------------------------------------------------------------------
# restricted operator

def test_partial_dft_full_grid_equals_forward():
    rng = np.random.default_rng(80)
    n = 8
    f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    plan = full_grid_plan(n)
    y = partial_dft(f, plan)
    i1, i2 = plan.freqs[:, 0] % n, plan.freqs[:, 1] % n
    assert np.array_equal(y, dft2_forward(f)[i1, i2])


def test_partial_dft_dc_only():
    n = 8
    rng = np.random.default_rng(81)
    f = rng.standard_normal((n, n))
    plan = SamplingPlan(n=n, freqs=np.array([[0, 0]]), rho=np.ones(1))
    assert partial_dft(f, plan)[0] == pytest.approx(f.mean() * n)


def test_partial_dft_matches_inner_product_oracle():
    rng = np.random.default_rng(82)
    n = 8
    f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    plan = draw_plan(density_uniform(n), 12, seed=5)
    t = np.arange(1, n + 1)
    for j in range(plan.m):
        k1, k2 = plan.freqs[j]
        atom = np.exp(2j * np.pi * np.add.outer(t * k1, t * k2) / n) / n
        assert partial_dft(f, plan)[j] == pytest.approx(np.vdot(atom, f), abs=1e-10)


def test_partial_dft_rejects_out_of_range():
    n = 8
    plan = SamplingPlan(n=n, freqs=np.array([[0, 0]]), rho=np.ones(1))
    object.__setattr__(plan, "freqs", np.array([[n, 0]]))
    f = np.zeros((n, n))
    with pytest.raises(ValueError):
        partial_dft(f, plan)


def test_adjoint_identity_many_plans():
    rng = np.random.default_rng(90)
    n = 8
    for _ in range(100):
        m = int(rng.integers(1, 20))
        plan = draw_plan(density_uniform(n), m, seed=int(rng.integers(1 << 30)))
        f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        lhs = np.vdot(partial_dft(f, plan), y)
        rhs = np.vdot(f, partial_dft_adjoint(y, plan))
        assert abs(lhs - rhs) < 1e-10


def test_adjoint_zero_and_duplicates():
    n = 8
    plan = SamplingPlan(n=n, freqs=np.array([[1, 2]]), rho=np.ones(1))
    assert np.all(partial_dft_adjoint(np.zeros(1), plan) == 0)
    dup = SamplingPlan(n=n, freqs=np.array([[1, 2], [1, 2]]), rho=np.ones(2))
    a = partial_dft_adjoint(np.array([1.0, 1.0]), dup)
    b = partial_dft_adjoint(np.array([2.0]), plan)
    assert np.abs(a - b).max() < 1e-14


def test_partial_dft_takes_the_grid_from_the_plan():
    plan = draw_plan(density_uniform(16), 20, seed=3)
    with pytest.raises(ValueError, match="plan.n"):
        partial_dft(np.ones((32, 32)), plan)
    y = partial_dft(np.ones((16, 16)), plan)
    assert partial_dft_adjoint(y, plan).shape == (16, 16)
