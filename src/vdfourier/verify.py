"""Desk-scale checks of the structural claims behind the sampling theory.

Covers exact restricted-isometry constants by support enumeration, the
preconditioned measurement matrix and its isotropy identity, the per-edge
wavelet-crossing count, the per-atom TV bound, and the sorted-coefficient
decay of the Haar transform relative to the TV seminorm.
"""

import math
from itertools import chain, combinations, islice

import numpy as np

from .image_core import as_image, side_exponent, tv_norm
from .transforms import _haar_blocks, fft2_unphased, haar_forward, haar_matrix

__all__ = [
    "rip_exact",
    "build_preconditioned_matrix",
    "isotropy_identity_error",
    "check_edge_lemma",
    "check_atom_tv",
    "check_coeff_decay",
]

ENUMERATION_BUDGET = 10**6


def rip_exact(a, s):
    """Exact restricted isometry constant delta_s of a matrix, by enumerating its column supports.

    delta_s is the max |eig - 1| of the s x s Gram submatrices over all size-s supports. Refuses
    when the support count exceeds the enumeration budget. The supports are read 4096 at a time,
    so memory stays flat however many there are.
    """
    a = np.asarray(a)
    n = a.shape[1]
    if not 1 <= s <= n:
        raise ValueError(f"s must be in [1, {n}], got {s}")
    count = math.comb(n, s)
    if count > ENUMERATION_BUDGET:
        raise ValueError(
            f"C({n},{s}) = {count} supports exceeds the budget of {ENUMERATION_BUDGET}")
    gram = a.conj().T @ a
    flat = chain.from_iterable(combinations(range(n), s))
    worst = []
    while (idx := np.fromiter(islice(flat, 4096 * s), np.intp).reshape(-1, s)).size:
        eig = np.linalg.eigvalsh(gram[idx[:, :, None], idx[:, None, :]])
        worst.append(np.abs(eig - 1.0).max())
    return float(np.max(worst))


def _atom_spectra(n):
    """Row k: the flattened :func:`dft2_forward` of the k-th Haar atom; dense, so n <= 16."""
    if n > 16:
        raise ValueError(f"dense materialization limited to n <= 16, got {n}")
    atoms = haar_matrix(side_exponent(n)).reshape(-1, n, n)
    return fft2_unphased(np.roll(atoms, 1, axis=(1, 2))).reshape(n * n, n * n)


def build_preconditioned_matrix(plan):
    """Dense m x n^2 matrix with rows rho_j/sqrt(m) * (Fourier row in Haar basis).

    Column k holds the measurements of the k-th Haar atom, so the matrix
    represents g-coefficients -> normalized weighted measurements on the
    plan's grid. Dense materialization is limited to n = plan.n <= 16.
    """
    return (plan.rho[:, None] / np.sqrt(plan.m)) * _atom_spectra(plan.n)[:, plan.lin].T


def isotropy_identity_error(density):
    """Deviation from identity of sum_j nu_j rho_j^2 conj(A_j,k1) A_j,k2.

    A ranges over the density's full n x n frequency grid (n = density.n) with
    rho_j = nu_j ** -0.5, so the weighted Gram of the preconditioned rows must
    be exactly the identity. Returns the max-abs deviation; n > 16 is refused.
    """
    n = density.n
    nu = density.values.ravel()
    rho2 = np.divide(1.0, nu, out=np.zeros_like(nu), where=nu > 0)  # zero mass: never drawn
    a = _atom_spectra(n).T
    gram = a.conj().T @ ((nu * rho2)[:, None] * a)
    return float(np.abs(gram - np.eye(n * n)).max())


def check_edge_lemma(n):
    """Max number of Haar atoms varying across any pair of adjacent pixels.

    Counts, per adjacent pixel pair, the atoms taking different values on its two pixels
    (at most 6*p); a (x) b varies across (t1, t1+1) at t2 iff a[t1+1] != a[t1] and b[t2] != 0.
    """
    p = side_exponent(n)
    count_x, count_y = np.zeros((n - 1, n), dtype=int), np.zeros((n, n - 1), dtype=int)
    for a, b, _ in _haar_blocks(p):
        count_x += np.outer((np.diff(a, axis=1) != 0).sum(0), (b != 0).sum(0))
        count_y += np.outer((a != 0).sum(0), (np.diff(b, axis=1) != 0).sum(0))
    return int(max(count_x.max(), count_y.max()))


def check_atom_tv(n):
    """Max anisotropic TV over all Haar atoms of the side-n system (<= 8), exact.

    TV(c a (x) b) = c (||Da||_1 ||b||_1 + ||a||_1 ||Db||_1), D the zero-padded forward difference,
    summed in integers over the sign patterns a, b and scaled once by the block's power of two c.
    """
    norms = [(c, *((np.abs(np.diff(x, axis=1)).sum(1), np.abs(x).sum(1)) for x in (a, b)))
             for a, b, c in _haar_blocks(side_exponent(n))]
    return max(c * float((np.outer(da, nb) + np.outer(na, db)).max())
               for c, (da, na), (db, nb) in norms)


def check_coeff_decay(f):
    """Empirical constant max_k k * |w_(k)| / ||f||_TV for a mean-zero image.

    ``w_(k)`` is the k-th largest Haar coefficient magnitude after removing
    the image mean. Constant images have no TV to compare against and are
    rejected.
    """
    f = as_image(f)
    f = f - f.mean()
    tv = tv_norm(f)
    if tv == 0:
        raise ValueError("coefficient decay is undefined for constant images")
    mags = np.sort(np.abs(haar_forward(f)))[::-1]
    k = np.arange(1, mags.size + 1)
    return float((k * mags).max() / tv)
