import math
import tracemalloc

import numpy as np
import pytest

from conftest import (
    fourier_haar_inner_1d_direct,
    haar_indices,
    local_coherence_full_grid,
    local_coherence_three_products,
)
from vdfourier.coherence import (
    coherence_tables_1d,
    fourier_haar_inner_1d,
    kappa_bound,
    kappa_l2,
    kappa_prime_bound,
    kappa_prime_table,
    kappa_table,
    local_coherence_exact,
    univariate_coherence_bound_check,
)
from vdfourier.transforms import freq_values, haar_atom_1d, haar_matrix


def dense_local_coherence(n):
    """Supremum per frequency over the dense atom inner products (oracle)."""
    p = n.bit_length() - 1
    ks = freq_values(n)
    t = np.arange(1, n + 1)
    conj_atoms = np.empty((n * n, n * n), dtype=complex)
    row = 0
    for k1 in ks:
        for k2 in ks:
            phi = np.exp(2j * np.pi * np.add.outer(t * k1, t * k2) / n) / n
            conj_atoms[row] = np.conj(phi).ravel()
            row += 1
    gram = conj_atoms @ haar_matrix(p).T
    return np.abs(gram).max(axis=1).reshape(n, n)


# ---------------------------------------------------------------------------
# 1-D inner products

def test_inner_1d_zero_frequency():
    assert fourier_haar_inner_1d(4, 0, 1, 2, 1) == 0
    assert fourier_haar_inner_1d(4, 0, 0, 2, 1) == pytest.approx(2.0**-1)
    assert fourier_haar_inner_1d(5, 0, 0, 3, 0) == pytest.approx(2.0**-1.5)


def test_inner_1d_closed_form_vs_direct_sum_spot():
    val = fourier_haar_inner_1d(4, 3, 1, 1, 0)
    oracle = fourier_haar_inner_1d_direct(4, 3, 1, 1, 0)
    assert abs(val - oracle) < 1e-12


def test_inner_1d_closed_form_vs_direct_sum_random():
    rng = np.random.default_rng(7)
    for _ in range(300):
        p = int(rng.integers(1, 9))
        size = 1 << p
        k = int(rng.integers(-size // 2 + 1, size // 2 + 1))
        n = int(rng.integers(0, p))
        l = int(rng.integers(0, 1 << n))
        e = int(rng.integers(0, 2))
        assert abs(
            fourier_haar_inner_1d(p, k, e, n, l)
            - fourier_haar_inner_1d_direct(p, k, e, n, l)
        ) < 1e-12


def test_inner_1d_is_the_conjugate_inner_product_up_to_a_phase():
    # against <phi_k, h> = sum_{t=1}^{N} conj(phi_k(t)) h(t-1), phi_k(t) = exp(2j*pi*t*k/N)/sqrt(N)
    rng = np.random.default_rng(11)
    for _ in range(300):
        p = int(rng.integers(1, 9))
        size = 1 << p
        k = int(rng.integers(-size // 2 + 1, size // 2 + 1))
        n = int(rng.integers(0, p))
        l = int(rng.integers(0, 1 << n))
        e = int(rng.integers(0, 2))
        t = np.arange(1, size + 1)
        phi = np.exp(2j * np.pi * t * k / size) / np.sqrt(size)
        inner = np.sum(phi.conj() * haar_atom_1d(p, e, n, l))
        want = np.exp(-2j * np.pi * k / size) * inner.conjugate()
        assert abs(fourier_haar_inner_1d(p, k, e, n, l) - want) < 1e-12


def test_inner_1d_magnitude_shift_invariant():
    p, k, n = 5, 7, 3
    mags = {
        e: [abs(fourier_haar_inner_1d(p, k, e, n, l)) for l in range(1 << n)]
        for e in (0, 1)
    }
    for e in (0, 1):
        assert np.ptp(mags[e]) < 1e-15


def test_inner_1d_rejects_bad_indices():
    for k, match in [(5, "frequency 5 out of range for p=3"),
                     (2.5, "k must be an integer, got 2.5"), (True, "k must be an integer, got True")]:
        with pytest.raises(ValueError, match=match):
            fourier_haar_inner_1d(3, k, 1, 1, 0)
    # bad orientation, scale n >= p, negative scale, shift l >= 2**n, negative shift; then a
    # non-integer or bool index, which is refused by name instead of read as a number
    for p, e, n, l, match in [(3, 2, 1, 0, "e must be 0 or 1"), (3, 1, 3, 0, "scale n"),
                              (3, 1, -1, 0, "scale n"), (3, 0, 1, 2, "shift l"),
                              (3, 0, 1, -1, "shift l"), (3, 0, 1, 0.5, "l must be an integer"),
                              (3, 0, 1.0, 1, "n must be an integer"),
                              (3, True, 1, 0, "e must be an integer"),
                              (2.0, 0, 1, 1, "p must be an integer"),
                              (3, 0, 1, np.bool_(False), "l must be an integer")]:
        with pytest.raises(ValueError, match=match) as atom:
            haar_atom_1d(p, e, n, l)
        with pytest.raises(ValueError) as inner:
            fourier_haar_inner_1d(p, 1, e, n, l)
        assert str(inner.value) == str(atom.value)


@pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.int64])
def test_inner_1d_and_atom_read_numpy_integers_as_ints(dtype):
    # unsigned indices used to wrap in 2**(n - p): a uint8 scale gave an atom entry of 1.7e38
    p, k, e, n, l = (dtype(v) for v in (3, 1, 0, 1, 1))
    assert fourier_haar_inner_1d(p, k, e, n, l) == fourier_haar_inner_1d(3, 1, 0, 1, 1)
    assert np.array_equal(haar_atom_1d(p, e, n, l), haar_atom_1d(3, 0, 1, 1))


# ---------------------------------------------------------------------------
# local coherence map

def test_local_coherence_dc_entry_is_one():
    assert local_coherence_exact(8)[0, 0] == 1.0


@pytest.mark.parametrize("n", [8, 16])
def test_local_coherence_matches_dense_oracle(n):
    mu = local_coherence_exact(n)
    assert np.abs(mu - dense_local_coherence(n)).max() < 1e-12


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256])
def test_local_coherence_matches_the_three_product_loop(n):
    assert np.array_equal(local_coherence_exact(n), local_coherence_three_products(n))


@pytest.mark.parametrize("n", [1 << p for p in range(1, 11)])
def test_local_coherence_quadrant_mirror_matches_the_full_grid(n):
    assert np.array_equal(local_coherence_exact(n), local_coherence_full_grid(n))


@pytest.mark.parametrize("n", [1 << p for p in range(1, 12)])
def test_local_coherence_is_symmetric_bit_for_bit(n):
    # the kernel runs the maximum on the upper triangle and transposes it into the lower one, so
    # the full-grid running maximum, which never uses the symmetry, must have it already
    for mu in (local_coherence_exact(n), local_coherence_full_grid(n)):
        bits = mu.view(np.int64)
        assert np.array_equal(bits, bits.T)


@pytest.mark.parametrize("n", [1 << p for p in range(1, 12)])
def test_coherence_tables_are_even_bit_for_bit(n):
    # storage index i holds frequency k and index n - i holds -k; the Nyquist index n/2 is its own mirror
    idx = np.r_[0 : n // 2 + 1, n // 2 - 1 : 0 : -1]
    for a in coherence_tables_1d(n):
        assert np.array_equal(a.view(np.int64)[idx], a.view(np.int64))


def test_local_coherence_factored_nyquist_entry_n32():
    n = 32
    mu = local_coherence_exact(n)
    dense = dense_local_coherence(n)
    i = (n // 2) % n
    assert mu[i, i] == pytest.approx(dense[i, i], abs=1e-12)


@pytest.mark.parametrize("n", [32, 64, 128])
def test_local_coherence_below_kappa(n):
    mu = local_coherence_exact(n)
    assert np.all(mu <= kappa_table(n))


def test_coherence_chain_up_to_256():
    for n in (16, 256):
        mu = local_coherence_exact(n)
        kap = kappa_table(n)
        kapp = kappa_prime_table(n)
        assert np.all(mu <= kap)
        assert np.all(kap <= kapp)
        assert np.all(kapp <= 1.0)


@pytest.mark.parametrize("n", [8, 16])
def test_bivariate_magnitude_factorizes_per_index(n):
    # |<phi_{k1,k2}, h>| equals the product of the univariate magnitudes for
    # every frequency and every atom, not only at the supremum
    p = n.bit_length() - 1
    ks = freq_values(n)
    t = np.arange(1, n + 1)
    tables = coherence_tables_1d(n)
    conj_atoms = np.empty((n * n, n * n), dtype=complex)
    row = 0
    for k1 in ks:
        for k2 in ks:
            phi = np.exp(2j * np.pi * np.add.outer(t * k1, t * k2) / n) / n
            conj_atoms[row] = np.conj(phi).ravel()
            row += 1
    gram = np.abs(conj_atoms @ haar_matrix(p).T)
    for col, idx in enumerate(haar_indices(p)):
        if idx.e == (0, 0):
            continue
        want = np.outer(tables[idx.e[0]][:, idx.n], tables[idx.e[1]][:, idx.n]).ravel()
        assert np.abs(gram[:, col] - want).max() < 1e-12


def test_local_coherence_memory_is_quadratic():
    n = 512
    tracemalloc.start()
    try:
        local_coherence_exact(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * n * n * 8


def test_local_coherence_mirrors_copy_no_source():
    # 8 MiB of result and its 1-D tables; the column mirror mu[:, h:] = mu[:, h - 2 : 0 : -1]
    # overlapped its source, which numpy copied first: 12.4 MiB
    tracemalloc.start()
    try:
        local_coherence_exact(1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 2**20  # 8.6 MiB


def test_kappa_table_builds_in_one_copy_of_its_grid():
    # the 8 MiB grid, the 8 MiB result written in place and two 1 MiB masks: 18.0 MiB; a third
    # full array (24.0 MiB) fails
    tracemalloc.start()
    try:
        kappa_table(1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20  # 18.0 MiB


def test_local_coherence_symmetries():
    n = 32
    mu = local_coherence_exact(n)
    assert np.abs(mu - mu.T).max() < 1e-14
    ks = freq_values(n)
    for i, k in enumerate(ks):
        if k == n // 2:  # -n/2 is outside the frequency range
            continue
        j = (-k) % n
        assert np.abs(mu[i, :] - mu[j, :]).max() < 1e-14


# ---------------------------------------------------------------------------
# kappa bounds

def test_kappa_at_origin():
    assert float(kappa_bound(0, 0)) == 1.0
    assert float(kappa_prime_bound(0, 0)) == 1.0


def test_kappa_cap_boundary():
    # 18*pi = 56.55 caps the bound exactly between |k| = 56 and 57
    assert float(kappa_bound(56, 0)) == 1.0
    val = float(kappa_bound(57, 0))
    assert val == pytest.approx(18 * np.pi / 57) and val < 1.0


@pytest.mark.parametrize("n", [8, 64, 128, 256])
def test_kappa_tables_match_the_scalar_formulas_bit_for_bit(n):
    ks = freq_values(n).tolist()
    scale = 18 * np.pi

    def capped(x, c):  # min(1, c / x), and 1 at x = 0
        return 1.0 if x == 0 else min(1.0, c / x)

    kap = [[capped(max(abs(k1), abs(k2)), scale) for k2 in ks] for k1 in ks]
    kapp = [[capped(math.sqrt(k1 * k1 + k2 * k2), scale * math.sqrt(2)) for k2 in ks]
            for k1 in ks]
    assert kappa_table(n).tolist() == kap
    assert kappa_prime_table(n).tolist() == kapp


def test_kappa_le_kappa_prime_exhaustive_n64():
    assert np.all(kappa_table(64) <= kappa_prime_table(64))


def test_kappa_l2_direct_oracle_p4():
    n = 16
    ks = freq_values(n)
    acc = 0.0
    for k1 in ks:
        for k2 in ks:
            acc += float(kappa_bound(k1, k2)) ** 2
    assert kappa_l2(n, "kappa") == pytest.approx(np.sqrt(acc), rel=1e-12)
    assert kappa_l2(n, "kappa") == pytest.approx(16.0)


def test_kappa_l2_ordering_and_regressions():
    # frozen values; the kappa' l2 growth rate is also pinned in acceptance
    expected = {
        4: (16.0, 16.0),
        5: (32.0, 32.0),
        6: (64.0, 64.0),
        7: (126.31694189082113, 127.85560081700832),
        8: (183.54576260831345, 208.35992312206074),
        9: (226.76285462602425, 266.9599745731598),
        10: (262.9706343466705, 314.83521138708807),
    }
    for p, (lk, lkp) in expected.items():
        n = 1 << p
        assert kappa_l2(n, "kappa") == pytest.approx(lk, rel=1e-12)
        assert kappa_l2(n, "kappa_prime") == pytest.approx(lkp, rel=1e-12)
        assert kappa_l2(n, "kappa") <= kappa_l2(n, "kappa_prime") + 1e-12


def test_kappa_prime_l2_squared_growth_bracket():
    # measured ratio ||kappa'||_2^2 / p; grows toward its asymptote instead
    # of staying below the 2700 the proof bookkeeping suggests
    measured = {6: 682.6666666666666, 8: 5426.732195428883, 10: 9912.121032915242}
    for p, ratio in measured.items():
        n = 1 << p
        assert kappa_l2(n, "kappa_prime") ** 2 / p == pytest.approx(ratio, rel=1e-12)
    assert measured[6] < measured[8] < measured[10]


def test_kappa_l2_rejects_unknown_variant():
    with pytest.raises(ValueError):
        kappa_l2(16, "nope")


# ---------------------------------------------------------------------------
# univariate lemma

@pytest.mark.parametrize("n", [16, 64])
def test_univariate_bound_holds(n):
    res = univariate_coherence_bound_check(n)
    assert res["max_ratio"] <= 1.0
    assert res["max_corollary_ratio"] <= 1.0


def test_univariate_max_ratio_regression_n16():
    res = univariate_coherence_bound_check(16)
    assert res["max_ratio"] == pytest.approx(0.16666666666666666, rel=1e-9)
    assert res["max_corollary_ratio"] == pytest.approx(0.1329807601338109, rel=1e-9)
