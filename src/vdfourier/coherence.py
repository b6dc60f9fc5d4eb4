"""Fourier-Haar inner products and local coherence of the 2-D pair.

The local coherence map assigns to every frequency the largest inner-product
magnitude between its Fourier atom and any bivariate Haar atom. Because the
bases are tensor products sharing the dyadic scale, the map factors through
1-D inner products whose magnitudes do not depend on the wavelet shift, so
the exact supremum costs O(n^2 log n) instead of the O(n^6) dense scan. The tables use only
the modulus of :func:`fourier_haar_inner_1d`, a conjugated and phase-shifted inner product.
"""

import numpy as np

from .image_core import side_exponent
from .transforms import _capped_inverse, _check_1d_index, freq_values

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


def _inner_1d(p, k, e, scale, l):
    """Unchecked, broadcasting closed form of :func:`fourier_haar_inner_1d`."""
    zero = k == 0
    half = np.exp(2j * np.pi * k * 2.0 ** (-scale - 1))
    pre = np.exp(2j * np.pi * l * k * 2.0**-scale) * (1 + (1 - 2 * e) * half)
    den = np.where(zero, 1.0, 1 - np.exp(2j * np.pi * k * 2.0**-p))
    geo = 2.0 ** (scale / 2 - p) * (1 - half) / den
    return np.where(zero, (1 - e) * 2.0 ** (-scale / 2), pre * geo)


def fourier_haar_inner_1d(p, k, e, n, l):
    """sum_{j=0}^{N-1} exp(2j*pi*k*j/N) h(j) / sqrt(N) for the Haar block h = h^e_{n,l}, N = 2**p.

    Against the ``transforms`` convention <phi_k, h> = sum_{t=1}^{N} conj(phi_k(t)) h(t-1) this
    is exp(-2j*pi*k/N) * conj(<phi_k, h>): the same modulus, which is all the coherence tables
    use, but not the inner product itself. Evaluated in closed form via the geometric sum

        exp(2j*pi*l*k/2^n) * (1 + (-1)^e * exp(2j*pi*k/2^(n+1)))
            * 2^(n/2 - p) * (1 - exp(2j*pi*k/2^(n+1))) / (1 - exp(2j*pi*k/2^p)),

    with the zero-frequency special cases <phi_0, h^1> = 0 and
    <phi_0, h^0> = 2^(-n/2).
    """
    p, e, n, l, k = _check_1d_index(p, e, n, l, k=k)
    if not -(1 << p) // 2 + 1 <= k <= (1 << p) // 2:
        raise ValueError(f"frequency {k} out of range for p={p}")
    return complex(_inner_1d(p, k, e, n, l))


def coherence_tables_1d(n):
    """Per-frequency, per-scale magnitudes |<phi_k, h^e_{n, .}>|.

    Returns (a0, a1), each shaped (n, p) on the storage frequency layout.
    The magnitude is shift-independent (the shift only rotates the phase),
    so a single shift per (k, e, scale) determines the supremum.
    """
    p = side_exponent(n)
    ks = freq_values(n)[:, None]
    return tuple(np.abs(_inner_1d(p, ks, e, np.arange(p), 0)) for e in (0, 1))


def local_coherence_exact(n):
    """Exact local coherence of the 2-D Fourier basis against bivariate Haar.

    Entry (k1 % n, k2 % n) is the supremum over all Haar atoms (the constant one exactly at DC)
    of the bivariate inner-product magnitude, from the factored 1-D tables, which are even in k
    bit for bit: an O(n^2)-memory running maximum fills indices 0..n/2; i reads min(i, n - i).
    The quadrant is symmetric bit for bit (a transpose swaps the (0,1) and (1,0) products), so
    the maximum runs on its upper triangle, in row blocks that stay in cache across all scales,
    and each block's transpose fills the lower triangle.
    """
    h = n // 2 + 1
    a0, a1 = (np.ascontiguousarray(a[:h].T) for a in coherence_tables_1d(n))  # a row per scale
    a01 = np.maximum(a0, a1)
    mu = np.zeros((n, n))
    q = mu[:h, :h]
    b = 64
    tmp = np.empty((b, h))
    for r in range(0, h, b):
        blk = q[r : r + b, r:]
        t = tmp[: len(blk), : blk.shape[1]]
        # blocks (0,1), (1,0), (1,1) per scale; u >= 0, so max(u0 x u1, u1 x u1) = max(u0, u1) x u1
        for u01, u0, u1 in zip(a01, a0, a1):
            np.maximum(blk, np.multiply.outer(u01[r : r + b], u1[r:], out=t), out=blk)
            np.maximum(blk, np.multiply.outer(u1[r : r + b], u0[r:], out=t), out=blk)
        q[r + b :, r : r + b] = blk[:, b:].T
    q[0, 0] = max(q[0, 0], 1.0)  # constant Fourier atom vs constant Haar atom
    # mirrors k -> n - k; no source overlaps its target, so numpy copies none of them first
    mu[h:, :h] = mu[h - 2 : 0 : -1, :h]
    mu[:h, h:] = mu[h:, :h].T
    mu[h:, h:] = mu[h - 2 : 0 : -1, h:]
    return mu


def kappa_bound(k1, k2):
    """Pointwise coherence bound min(1, 18*pi / max(|k1|, |k2|))."""
    return _capped_inverse(KAPPA_SCALE, np.maximum(np.abs(k1), np.abs(k2)))


def kappa_prime_bound(k1, k2):
    """Radial coherence bound min(1, 18*pi*sqrt(2) / sqrt(k1^2 + k2^2)) (exact integer sum)."""
    return _capped_inverse(KAPPA_SCALE * np.sqrt(2), np.sqrt(k1 * k1 + k2 * k2))


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
