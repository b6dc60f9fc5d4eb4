"""Bivariate Haar basis, orthonormal 2-D DFT, and restricted Fourier operators.

Conventions
-----------
Frequencies live on the grid ``{-n/2+1, ..., n/2}^2`` and are stored in
arrays at position ``(k1 % n, k2 % n)``, matching standard FFT layout.
The Fourier atom is ``phi_k(t) = exp(2j*pi*t*k/n) / sqrt(n)`` evaluated at
``t = 1..n`` (pixel index + 1), so transform coefficients are
``<phi_k, f> = sum_t conj(phi_k(t)) f(t)``, linear in ``f``. Since t = index + 1
is a cyclic shift by one pixel, :func:`dft2_forward` is the orthonormal FFT of
``np.roll(f, 1, axis=(0, 1))``: one FFT pair serves both frames, and the shift
is the phase :func:`sampled_phase` on the spectrum.

Haar atoms are indexed by orientation ``e``, dyadic scale ``n`` and shift
``l``; the coefficient vector is ordered constant-first, then by ascending
scale with orientation blocks (0,1), (1,0), (1,1), each shift-row-major.
With that ordering the scale-``n`` block occupies ``[4**n, 4**(n+1))``.
"""

import math

import numpy as np

from .image_core import as_image, side_exponent

__all__ = [
    "freq_values",
    "freq_to_index",
    "haar_atom_1d",
    "haar_forward",
    "haar_inverse",
    "dft2_forward",
    "dft2_inverse",
    "fft2_unphased",
    "ifft2_unphased",
    "sampled_phase",
    "partial_dft",
    "partial_dft_adjoint",
]


# ---------------------------------------------------------------------------
# frequency grid

def freq_values(n):
    """Frequency value at each storage index: 0, 1, ..., n/2, -n/2+1, ..., -1."""
    side_exponent(n)
    k = np.arange(n)
    return np.where(k <= n // 2, k, k - n)


def _capped_inverse(scale, x):
    """min(1, scale / x) for x >= 0, with 1 where x = 0: the cap of every decay rule."""
    x = np.asarray(x, dtype=float)
    return np.minimum(1.0, np.divide(scale, x, out=np.full_like(x, np.inf), where=x > 0))


def freq_to_index(k1, k2, n):
    """Storage position of frequency (k1, k2); rejects out-of-range input."""
    k1 = np.asarray(k1)
    k2 = np.asarray(k2)
    lo, hi = -n // 2 + 1, n // 2
    if np.any(k1 < lo) or np.any(k1 > hi) or np.any(k2 < lo) or np.any(k2 > hi):
        raise ValueError(f"frequency outside [{lo}, {hi}] for n={n}")
    return k1 % n, k2 % n


# ---------------------------------------------------------------------------
# Haar system

def _check_1d_index(p, e, n, l):
    side_exponent(2**p)  # the system has a scale: p >= 1
    if e not in (0, 1):
        raise ValueError(f"e must be 0 or 1, got {e}")
    if not 0 <= n < p:
        raise ValueError(f"scale n must satisfy 0 <= n < {p}, got {n}")
    if not 0 <= l < (1 << n):
        raise ValueError(f"shift l must satisfy 0 <= l < {1 << n}, got {l}")


def haar_atom_1d(p, e, n, l):
    """Univariate Haar building block on 2**p points.

    ``e = 0`` is the window (constant on its dyadic interval), ``e = 1`` the
    step function (positive on the first half, negative on the second). The
    support is ``[l * 2**(p-n), (l+1) * 2**(p-n))`` and the nonzero value is
    ``2**((n-p)/2)``.
    """
    _check_1d_index(p, e, n, l)
    size = 1 << p
    wlen = 1 << (p - n)
    start = l * wlen
    v = 2.0 ** ((n - p) / 2)
    atom = np.zeros(size)
    if e == 0:
        atom[start : start + wlen] = v
    else:
        atom[start : start + wlen // 2] = v
        atom[start + wlen // 2 : start + wlen] = -v
    return atom


def _haar_blocks(p):
    """1-D factor stacks (A, B) of each atom block in canonical order (the constant atom, then
    per scale (0,1), (1,0), (1,1)); a block's atoms are ``np.outer(A[l1], B[l2])``, shift-row-major.
    """
    t0 = haar_atom_1d(p, 0, 0, 0)[None]
    yield t0, t0
    for n in range(p):
        w, s = (np.array([haar_atom_1d(p, e, n, l) for l in range(1 << n)]) for e in (0, 1))
        yield from ((w, s), (s, w), (s, s))


def haar_matrix(p):
    """Dense transform matrix: row per atom in canonical order."""
    return np.concatenate([(a[:, None, :, None] * b[None, :, None, :]).reshape(-1, 4**p)
                           for a, b in _haar_blocks(p)])


def haar_forward(f, out=None):
    """Bivariate Haar transform to the canonical coefficient vector.

    Computed by the recursive 2x2 butterfly scheme in O(n^2 log n); equals
    the dense matrix product with :func:`haar_matrix` rows. Each level forms
    row-pair sums and differences, then column-pair sums and differences of
    those (8 adds per 2x2 block); temporaries stay a quarter of the level.
    ``out`` (complex128, n*n entries) receives the coefficients when given.
    """
    f = as_image(f)
    n = f.shape[0]
    p = side_exponent(n)
    w = np.empty(n * n, dtype=np.complex128) if out is None else out
    cur = f
    for lev in range(p - 1, -1, -1):
        q, m = 4**lev, 1 << lev
        top, bot = cur[0::2], cur[1::2]
        s0, s1 = top[:, 0::2] + bot[:, 0::2], top[:, 1::2] + bot[:, 1::2]
        d0, d1 = top[:, 0::2] - bot[:, 0::2], top[:, 1::2] - bot[:, 1::2]
        np.subtract(s0, s1, out=w[q : 2 * q].reshape(m, m))
        np.add(d0, d1, out=w[2 * q : 3 * q].reshape(m, m))
        np.subtract(d0, d1, out=w[3 * q : 4 * q].reshape(m, m))
        w[q : 4 * q] *= 0.5
        cur = s0 + s1
        cur *= 0.5
    w[0] = cur[0, 0]
    return w


def haar_inverse(w, out=None):
    """Inverse of :func:`haar_forward` (the transform is unitary); ``out`` (complex128, n x n)
    receives the image when given."""
    w = np.asarray(w, dtype=np.complex128).ravel()
    n = math.isqrt(w.size)
    if n * n != w.size:
        raise ValueError(f"coefficient vector length {w.size} is not a perfect square")
    p = side_exponent(n)
    cur = w[:1].reshape(1, 1)
    for lev in range(p):
        q, m = 4**lev, 1 << lev
        d01 = w[q : 2 * q].reshape(m, m)
        d10 = w[2 * q : 3 * q].reshape(m, m)
        d11 = w[3 * q : 4 * q].reshape(m, m)
        s0, s1, d0, d1 = cur + d01, cur - d01, d10 + d11, d10 - d11
        last = out is not None and lev == p - 1
        cur = out if last else np.empty((2 * m, 2 * m), dtype=np.complex128)
        top, bot = cur[0::2], cur[1::2]
        np.add(s0, d0, out=top[:, 0::2])
        np.add(s1, d1, out=top[:, 1::2])
        np.subtract(s0, d0, out=bot[:, 0::2])
        np.subtract(s1, d1, out=bot[:, 1::2])
        cur *= 0.5
    return cur


# ---------------------------------------------------------------------------
# Fourier transforms

def dft2_forward(f):
    """Orthonormal 2-D DFT; entry (k1 % n, k2 % n) equals <phi_{k1,k2}, f>.

    The t = index + 1 atoms make it the FFT of f shifted by one pixel along each axis.
    """
    return fft2_unphased(np.roll(as_image(f), 1, axis=(0, 1)))


def dft2_inverse(spec):
    """Inverse (= adjoint) of :func:`dft2_forward`."""
    return np.roll(ifft2_unphased(np.asarray(spec, dtype=np.complex128)), -1, axis=(0, 1))


def fft2_unphased(f, out=None):
    """Orthonormal FFT over the last two axes: :func:`dft2_forward` without the one-pixel shift.

    At the flat storage positions ``lin`` the two differ by the factor ``sampled_phase(n, lin)``.
    Two in-place 1-D passes, the loop ``np.fft.fft2`` runs, so the result equals it bit for
    bit; ``out`` (complex, shaped like ``f``) receives it when given.
    """
    out = np.fft.fft(f, axis=-1, norm="ortho", out=out)
    return np.fft.fft(out, axis=-2, norm="ortho", out=out)


def ifft2_unphased(spec, out=None):
    """Inverse (= adjoint) of :func:`fft2_unphased`, equal to ``np.fft.ifft2``; same ``out``."""
    # two explicit 1-D passes, not np.fft.ifft2: numpy 2.4's ifft2 calls _raw_fftnd(..., out=None),
    # so it ignores ``out`` (fft2 honours it)
    out = np.fft.ifft(spec, axis=-1, norm="ortho", out=out)
    return np.fft.ifft(out, axis=-2, norm="ortho", out=out)


def sampled_phase(n, lin):
    """Phase exp(-2j*pi*(i1 + i2)/n) of the one-pixel shift at flat storage positions i1*n + i2.

    ``dft2_forward(f).ravel()[lin]`` equals
    ``fft2_unphased(f).ravel()[lin] * sampled_phase(n, lin)``.
    """
    return np.exp(-2j * np.pi * (lin // n + lin % n) / n)


def partial_dft(f, plan):
    """Fourier measurements of an image at a plan's frequencies.

    Duplicate frequencies produce repeated entries; the output is the
    row-subsample of :func:`dft2_forward` selected by the plan. The image
    side must be the plan's n.
    """
    f = as_image(f)
    if f.shape[0] != plan.n:
        raise ValueError(f"image side {f.shape[0]} != plan.n = {plan.n}")
    return dft2_forward(f).ravel()[plan.lin]


def partial_dft_adjoint(y, plan):
    """Adjoint of :func:`partial_dft`; duplicate frequencies accumulate."""
    y = np.asarray(y, dtype=np.complex128).ravel()
    if y.size != plan.m:
        raise ValueError(f"measurement length {y.size} != plan.m = {plan.m}")
    n, lin = plan.n, plan.lin
    spec = np.bincount(lin, weights=y.real, minlength=n * n) + 1j * np.bincount(
        lin, weights=y.imag, minlength=n * n
    )
    return dft2_inverse(spec.reshape(n, n))
