import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from conftest import atom_tv_loop, edge_lemma_loop, full_grid_plan, haar_atom_2d, haar_indices
from vdfourier.coherence import coherence_tables_1d, kappa_table, local_coherence_exact
from vdfourier.image_core import as_image, tv_norm
from vdfourier.sampling import (
    Density,
    SamplingPlan,
    density_from_kappa,
    density_inverse_square,
    density_uniform,
    draw_plan,
)
from vdfourier.transforms import freq_values, haar_inverse, haar_matrix
from vdfourier.verify import (
    build_preconditioned_matrix,
    check_atom_tv,
    check_coeff_decay,
    check_edge_lemma,
    isotropy_identity_error,
    rip_exact,
)


def rip_oracle_svd(a, s):
    """Independent per-support oracle via singular values of the submatrix."""
    worst = 0.0
    for sup in combinations(range(a.shape[1]), s):
        sv = np.linalg.svd(a[:, sup], compute_uv=False)
        worst = max(worst, abs(sv[0] ** 2 - 1.0), abs(1.0 - sv[-1] ** 2))
    return worst


# ---------------------------------------------------------------------------
# RIP constants

def test_rip_exact_unitary_is_zero():
    q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((12, 12)))
    for s in range(1, 13):
        assert rip_exact(q, s) <= 1e-12


def test_rip_exact_duplicated_column():
    e1 = np.zeros((4, 1))
    e1[0] = 1.0
    assert rip_exact(np.hstack([e1, e1]), 2) == pytest.approx(1.0, abs=1e-12)


def test_rip_exact_matches_svd_oracle():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 12)) / np.sqrt(6)
    assert rip_exact(a, 2) == pytest.approx(rip_oracle_svd(a, 2), rel=1e-10)


def test_rip_exact_over_several_support_chunks_matches_svd_oracle():
    # C(15, 6) = 5005 supports: more than one chunk of 4096
    a = np.random.default_rng(7).standard_normal((12, 15)) / np.sqrt(12)
    assert rip_exact(a, 6) == pytest.approx(rip_oracle_svd(a, 6), rel=1e-10)


def test_rip_exact_memory_is_flat_in_the_support_count():
    # C(20, 6) = 38760 supports; every 6 x 6 complex Gram submatrix at once took 28.4 MiB
    rng = np.random.default_rng(8)
    a = rng.standard_normal((16, 20)) + 1j * rng.standard_normal((16, 20))
    tracemalloc.start()
    try:
        rip_exact(a, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_rip_delta_nondecreasing_in_s():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((8, 12)) / np.sqrt(8)
    deltas = [rip_exact(a, s) for s in (1, 2, 3, 4)]
    assert all(x <= y + 1e-12 for x, y in zip(deltas, deltas[1:]))


def test_rip_exact_budget():
    with pytest.raises(ValueError, match=r"C\(60,6\) = 50063860 supports exceeds the budget"):
        rip_exact(np.eye(60), 6)


@pytest.mark.parametrize("s", [0, -1, 5], ids=lambda s: f"{s}-exact")
def test_rip_rejects_support_size_outside_the_columns(s):
    with pytest.raises(ValueError, match=rf"s must be in \[1, 4\], got {s}"):
        rip_exact(np.eye(4), s)


# ---------------------------------------------------------------------------
# preconditioned measurement matrix

def test_full_sampling_preconditioned_matrix_is_unitary():
    plan = full_grid_plan(8, rho_value=8.0)
    mat = build_preconditioned_matrix(plan)
    assert np.abs(mat.conj().T @ mat - np.eye(64)).max() <= 1e-10
    assert rip_exact(mat, 2) <= 1e-10


def test_preconditioned_matrix_size_budget():
    plan = full_grid_plan(32, 32.0)
    with pytest.raises(ValueError):
        build_preconditioned_matrix(plan)


def test_preconditioned_row_norm_expectation():
    # rows of sqrt(m) * matrix have squared norm rho^2; its mean over the
    # density approaches n^2
    n = 8
    plan = draw_plan(density_inverse_square(n), 10_000, seed=123)
    mat = build_preconditioned_matrix(plan)
    row2 = (np.abs(mat) ** 2).sum(axis=1) * plan.m
    assert abs(row2.mean() / n**2 - 1.0) <= 0.05


def test_delta2_median_decreases_with_m():
    n = 8
    density = density_inverse_square(n)
    medians = []
    for m in (16, 64):
        deltas = [
            rip_exact(build_preconditioned_matrix(draw_plan(density, m, 7000 + s)), 2)
            for s in range(5)
        ]
        medians.append(np.median(deltas))
    assert medians[1] < medians[0]


def test_isotropy_identity_exact():
    n = 8
    err = isotropy_identity_error(density_from_kappa(kappa_table(n)))
    assert err <= 1e-10
    err2 = isotropy_identity_error(density_inverse_square(n))
    assert err2 <= 1e-10


@pytest.mark.parametrize("n", [2, 4, 16])
def test_isotropy_identity_reads_n_from_the_density(n):
    assert isotropy_identity_error(density_inverse_square(n)) <= 1e-10


def test_isotropy_identity_gives_a_zero_mass_frequency_no_weight():
    # a frequency that is never drawn adds nothing to the weighted Gram, which then misses the
    # identity by exactly that frequency's rank-one term (1/nu = inf there gave nan)
    values = density_inverse_square(8).values.copy()
    values[3, 5] = 0.0
    err = isotropy_identity_error(Density(values / values.sum()))  # RuntimeWarnings raise
    plan = full_grid_plan(8)
    row = build_preconditioned_matrix(plan)[plan.lin == 3 * 8 + 5] * np.sqrt(plan.m)
    assert err == pytest.approx(np.abs(row).max() ** 2, abs=1e-15)
    assert err == pytest.approx(0.0455346, abs=1e-7)


def test_isotropy_identity_size_budget():
    # the same dense n^2 x n^2 matrix as build_preconditioned_matrix: 268 MB a copy at n = 64
    with pytest.raises(ValueError, match="n <= 16"):
        isotropy_identity_error(density_inverse_square(32))


# ---------------------------------------------------------------------------
# wavelet lemmas

@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_edge_lemma_bound(n):
    p = n.bit_length() - 1
    assert check_edge_lemma(n) <= 6 * p


def test_edge_lemma_regression_n16():
    assert check_edge_lemma(16) == 20


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_atom_tv_bound(n):
    assert check_atom_tv(n) <= 8.0


def test_atom_tv_constant_and_checkerboard():
    p = 3
    atoms = haar_matrix(p).reshape(-1, 1 << p, 1 << p)
    assert tv_norm(atoms[0]) == 0.0
    checker = next(k for k, i in enumerate(haar_indices(p)) if i.e == (1, 1) and i.n == 0)
    assert tv_norm(atoms[checker]) == 4.0  # jumps of 2**(1 - p) along 2 * 2**p pixel edges


def test_atom_tv_regression_n16():
    assert check_atom_tv(16) == 8.0


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
def test_lemma_checks_match_the_per_atom_loops(n):
    assert check_edge_lemma(n) == edge_lemma_loop(n)
    assert check_atom_tv(n) == atom_tv_loop(n)


def image_of_side(n):
    return as_image(np.zeros((n, n)))


def haar_inverse_of_side(n):
    return haar_inverse(np.zeros(n * n))


def plan_of_side(n):
    return SamplingPlan(n=n, freqs=np.zeros((1, 2), dtype=int), rho=np.ones(1))


# Every entry point that takes a grid side; an array cannot have a negative side.
SIDE_CASES = [(check, n)
              for check in (image_of_side, haar_inverse_of_side, freq_values, coherence_tables_1d,
                            local_coherence_exact, density_uniform, density_inverse_square,
                            plan_of_side, check_edge_lemma, check_atom_tv)
              for n in (-2, 0, 1, 3, 12)
              if n >= 0 or check not in (image_of_side, haar_inverse_of_side)]


@pytest.mark.parametrize("check, n", SIDE_CASES,
                         ids=[f"{n}-{check.__name__}" for check, n in SIDE_CASES])
def test_lemma_checks_reject_a_bad_side(check, n):
    with pytest.raises(ValueError, match=f"power of two >= 2, got {n}"):
        check(n)


# ---------------------------------------------------------------------------
# coefficient decay

def test_coeff_decay_single_atom():
    atom = haar_atom_2d(4, haar_indices(4)[5])
    assert check_coeff_decay(atom) == pytest.approx(0.25, rel=1e-12)


def test_coeff_decay_constant_image_rejected():
    with pytest.raises(ValueError):
        check_coeff_decay(np.full((8, 8), 1.0))


def test_coeff_decay_envelope_random_images():
    rng = np.random.default_rng(404)
    ratios = [check_coeff_decay(rng.standard_normal((32, 32))) for _ in range(100)]
    assert all(np.isfinite(r) for r in ratios)
    # regression envelope; measured max 0.1691 across this seeded family
    assert max(ratios) <= 0.19
