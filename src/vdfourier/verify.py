"""Desk-scale checks of the structural claims behind the sampling theory.

Covers exhaustive and Monte-Carlo restricted-isometry constants, the
preconditioned measurement matrix and its isotropy identity, the per-edge
wavelet-crossing count, the per-atom TV bound, and the sorted-coefficient
decay of the Haar transform relative to the TV seminorm.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .image_core import as_image, is_power_of_two, tv_norm
from .transforms import _haar_blocks, fft2_unphased, haar_forward, haar_matrix

__all__ = [
    "RipEstimate",
    "rip_exact",
    "rip_monte_carlo",
    "build_preconditioned_matrix",
    "isotropy_identity_error",
    "check_edge_lemma",
    "check_atom_tv",
    "check_coeff_decay",
]

ENUMERATION_BUDGET = 10**6


@dataclass(frozen=True)
class RipEstimate:
    """Restricted isometry constant of order s.

    Exhaustive enumeration fills ``delta_exact``; random supports yield
    only the lower bound ``delta_lower_mc`` (an exhaustive run records its
    value in both fields, the exact constant being the tightest bound).
    """

    s: int
    delta_lower_mc: float
    supports_checked: int
    method: str  # "exhaustive" | "monte_carlo"
    delta_exact: float | None = None

    @property
    def delta(self):
        """Best available value: exact when known, else the lower bound."""
        return self.delta_exact if self.delta_exact is not None else self.delta_lower_mc


def _delta_over_supports(gram, supports):
    """Max spectral deviation from identity over s x s Gram submatrices."""
    supports = np.asarray(supports)
    sub = gram[supports[:, :, None], supports[:, None, :]]
    eig = np.linalg.eigvalsh(sub)
    return float(np.abs(eig - 1.0).max())


def _support_columns(a, s):
    """``a`` as an array and its column count n, once ``1 <= s <= n`` is checked."""
    a = np.asarray(a)
    n = a.shape[1]
    if not 1 <= s <= n:
        raise ValueError(f"s must be in [1, {n}], got {s}")
    return a, n


def rip_exact(a, s):
    """Exact delta_s of a matrix by enumerating all size-s column supports.

    Refuses when the support count exceeds the enumeration budget; use
    :func:`rip_monte_carlo` for a seeded lower bound in that case.
    """
    a, n = _support_columns(a, s)
    count = math.comb(n, s)
    if count > ENUMERATION_BUDGET:
        raise ValueError(
            f"C({n},{s}) = {count} supports exceeds the budget of {ENUMERATION_BUDGET}; "
            "use rip_monte_carlo for a lower bound"
        )
    gram = a.conj().T @ a
    supports = np.fromiter(
        (i for comb in combinations(range(n), s) for i in comb), dtype=np.intp
    ).reshape(count, s)
    delta = _delta_over_supports(gram, supports)
    return RipEstimate(s=s, delta_lower_mc=delta, supports_checked=count,
                       method="exhaustive", delta_exact=delta)


def rip_monte_carlo(a, s, trials, seed=0):
    """Lower bound on delta_s from random supports; deterministic per seed."""
    a, n = _support_columns(a, s)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    supports = np.stack([rng.choice(n, size=s, replace=False) for _ in range(trials)])
    gram = a.conj().T @ a
    delta = _delta_over_supports(gram, supports)
    return RipEstimate(s=s, delta_lower_mc=delta, supports_checked=trials,
                       method="monte_carlo")


def _atom_spectra(n):
    """Row k: the flattened :func:`dft2_forward` of the k-th Haar atom, one batched FFT."""
    atoms = haar_matrix(n.bit_length() - 1).reshape(-1, n, n)
    return fft2_unphased(np.roll(atoms, 1, axis=(1, 2))).reshape(n * n, n * n)


def build_preconditioned_matrix(plan):
    """Dense m x n^2 matrix with rows rho_j/sqrt(m) * (Fourier row in Haar basis).

    Column k holds the measurements of the k-th Haar atom, so the matrix
    represents g-coefficients -> normalized weighted measurements on the
    plan's grid. Dense materialization is limited to n = plan.n <= 16.
    """
    n = plan.n
    if n > 16:
        raise ValueError(f"dense materialization limited to n <= 16, got {n}")
    return (plan.rho[:, None] / np.sqrt(plan.m)) * _atom_spectra(n)[:, plan.lin].T


def isotropy_identity_error(density):
    """Deviation from identity of sum_j nu_j rho_j^2 conj(A_j,k1) A_j,k2.

    A ranges over the density's full n x n frequency grid (n = density.n) with
    rho_j = nu_j ** -0.5, so the weighted Gram of the preconditioned rows must
    be exactly the identity. Returns the max-abs deviation.
    """
    n = density.n
    nu = density.values.ravel()
    rho2 = 1.0 / nu
    a = _atom_spectra(n).T
    gram = a.conj().T @ ((nu * rho2)[:, None] * a)
    return float(np.abs(gram - np.eye(n * n)).max())


def _side_exponent(n):
    if not is_power_of_two(n) or n < 2:
        raise ValueError(f"n must be a power of two >= 2, got {n}")
    return n.bit_length() - 1


def check_edge_lemma(n):
    """Max number of Haar atoms varying across any pair of adjacent pixels.

    Counts, per adjacent pixel pair, the atoms taking different values on its two pixels
    (at most 6*p); a (x) b varies across (t1, t1+1) at t2 iff a[t1+1] != a[t1] and b[t2] != 0.
    """
    p = _side_exponent(n)
    count_x, count_y = np.zeros((n - 1, n), dtype=int), np.zeros((n, n - 1), dtype=int)
    for a, b in _haar_blocks(p):
        count_x += np.outer((np.diff(a, axis=1) != 0).sum(0), (b != 0).sum(0))
        count_y += np.outer((a != 0).sum(0), (np.diff(b, axis=1) != 0).sum(0))
    return int(max(count_x.max(), count_y.max()))


def check_atom_tv(n):
    """Max anisotropic TV over all Haar atoms of the side-n system (<= 8).

    TV(a (x) b) = ||Da||_1 ||b||_1 + ||a||_1 ||Db||_1, D the zero-padded forward difference.
    """
    norms = [[(np.abs(np.diff(x, axis=1)).sum(1), np.abs(x).sum(1)) for x in ab]
             for ab in _haar_blocks(_side_exponent(n))]
    return max(float((np.outer(da, nb) + np.outer(na, db)).max()) for (da, na), (db, nb) in norms)


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
