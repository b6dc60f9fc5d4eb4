"""Fourier-Haar inner products and local coherence of the 2-D pair.

The local coherence map assigns to every frequency the largest inner-product
magnitude between its Fourier atom and any bivariate Haar atom. Because the
bases are tensor products sharing the dyadic scale, the map factors through
1-D inner products whose magnitudes do not depend on the wavelet shift, so
the exact supremum costs O(n^2 log n) instead of the O(n^6) dense scan.
"""

import numpy as np

from .image_core import is_power_of_two
from .transforms import freq_values

__all__ = [
    "fourier_haar_inner_1d",
    "coherence_tables_1d",
    "local_coherence_exact",
    "kappa_bound",
    "kappa_prime_bound",
    "kappa_table",
    "kappa_prime_table",
    "kappa_l2",
    "univariate_coherence_bound_check",
]

KAPPA_SCALE = 18 * np.pi  # frequency scale of the coherence decay bounds


def _check_args(p, k, n):
    size = 1 << p
    if not -size // 2 + 1 <= k <= size // 2:
        raise ValueError(f"frequency {k} out of range for p={p}")
    if not 0 <= n < p:
        raise ValueError(f"scale n must satisfy 0 <= n < {p}, got {n}")


def _inner_1d(p, k, e, scale, l):
    """Unchecked, broadcasting closed form of :func:`fourier_haar_inner_1d`."""
    zero = k == 0
    half = np.exp(2j * np.pi * k * 2.0 ** (-scale - 1))
    pre = np.exp(2j * np.pi * l * k * 2.0**-scale) * (1 + (1 - 2 * e) * half)
    den = np.where(zero, 1.0, 1 - np.exp(2j * np.pi * k * 2.0**-p))
    geo = 2.0 ** (scale / 2 - p) * (1 - half) / den
    return np.where(zero, (1 - e) * 2.0 ** (-scale / 2), pre * geo)


def fourier_haar_inner_1d(p, k, e, n, l):
    """Inner product of the 1-D Fourier atom phi_k with the Haar block h^e_{n,l}.

    Evaluated in closed form via the geometric sum

        exp(2j*pi*l*k/2^n) * (1 + (-1)^e * exp(2j*pi*k/2^(n+1)))
            * 2^(n/2 - p) * (1 - exp(2j*pi*k/2^(n+1))) / (1 - exp(2j*pi*k/2^p)),

    with the zero-frequency special cases <phi_0, h^1> = 0 and
    <phi_0, h^0> = 2^(-n/2).
    """
    _check_args(p, k, n)
    if e not in (0, 1):
        raise ValueError(f"e must be 0 or 1, got {e}")
    if not 0 <= l < (1 << n):
        raise ValueError(f"shift l out of range for scale {n}")
    return complex(_inner_1d(p, k, e, n, l))


def coherence_tables_1d(n):
    """Per-frequency, per-scale magnitudes |<phi_k, h^e_{n, .}>|.

    Returns (a0, a1), each shaped (n, p) on the storage frequency layout.
    The magnitude is shift-independent (the shift only rotates the phase),
    so a single shift per (k, e, scale) determines the supremum.
    """
    if not is_power_of_two(n):
        raise ValueError(f"n must be a power of two, got {n}")
    p = n.bit_length() - 1
    ks = freq_values(n)[:, None]
    return tuple(np.abs(_inner_1d(p, ks, e, np.arange(p), 0)) for e in (0, 1))


def local_coherence_exact(n):
    """Exact local coherence of the 2-D Fourier basis against bivariate Haar.

    Entry (k1 % n, k2 % n) is the supremum over all Haar atoms of the
    bivariate inner-product magnitude, computed from the factored 1-D
    tables; the constant atom contributes exactly at the zero frequency.
    A running maximum over scales and orientations keeps memory at O(n^2).
    """
    a0, a1 = coherence_tables_1d(n)
    mu = np.zeros((n, n))
    # orientation blocks (0,1), (1,0), (1,1) share the scale index
    for u0, u1 in zip(a0.T, a1.T):
        for r, c in ((u0, u1), (u1, u0), (u1, u1)):
            np.maximum(mu, np.multiply.outer(r, c), out=mu)
    mu[0, 0] = max(mu[0, 0], 1.0)  # constant Fourier atom vs constant Haar atom
    return mu


def kappa_bound(k1, k2):
    """Pointwise coherence bound min(1, 18*pi / max(|k1|, |k2|))."""
    mx = np.maximum(np.abs(k1), np.abs(k2)).astype(float)
    with np.errstate(divide="ignore"):
        val = np.where(mx > 0, KAPPA_SCALE / np.where(mx > 0, mx, 1.0), np.inf)
    return np.minimum(1.0, val)


def kappa_prime_bound(k1, k2):
    """Radial coherence bound min(1, 18*pi*sqrt(2) / sqrt(k1^2 + k2^2))."""
    r = np.hypot(np.asarray(k1, dtype=float), np.asarray(k2, dtype=float))
    val = np.where(r > 0, KAPPA_SCALE * np.sqrt(2) / np.where(r > 0, r, 1.0), np.inf)
    return np.minimum(1.0, val)


def kappa_table(n):
    """kappa bound evaluated on the stored n x n frequency grid."""
    k1 = freq_values(n)
    return kappa_bound(k1[:, None], k1[None, :])


def kappa_prime_table(n):
    """kappa' bound evaluated on the stored n x n frequency grid."""
    k1 = freq_values(n)
    return kappa_prime_bound(k1[:, None], k1[None, :])


def kappa_l2(n, variant="kappa"):
    """l2 norm of a coherence-bound table over the full frequency grid."""
    if variant == "kappa":
        tab = kappa_table(n)
    elif variant == "kappa_prime":
        tab = kappa_prime_table(n)
    else:
        raise ValueError(f"variant must be 'kappa' or 'kappa_prime', got {variant!r}")
    return float(np.sqrt((tab**2).sum()))


def univariate_coherence_bound_check(n):
    """Worst-case ratios of 1-D inner products to their decay bounds.

    Returns a dict with ``max_ratio`` against
    min(6 * 2^(n/2) / |k|, 3*pi * 2^(-n/2)) over all k != 0, scales, and both
    block types, and ``max_corollary_ratio`` of the detail-wavelet supremum
    against 3*sqrt(2*pi) / sqrt(|k|). Both must be <= 1.
    """
    a0, a1 = coherence_tables_1d(n)
    ks = freq_values(n)
    nz = ks != 0
    absk = np.abs(ks[nz])[:, None]
    scales = np.arange(a0.shape[1])
    bound = np.minimum(6 * 2.0 ** (scales / 2) / absk, 3 * np.pi * 2.0 ** (-scales / 2))
    max_ratio = np.max(np.maximum(a0[nz], a1[nz]) / bound, initial=0.0)
    max_cor = np.max(a1[nz] / (3 * np.sqrt(2 * np.pi) / np.sqrt(absk)), initial=0.0)
    return {"max_ratio": float(max_ratio), "max_corollary_ratio": float(max_cor)}
