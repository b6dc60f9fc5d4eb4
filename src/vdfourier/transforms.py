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

from .image_core import as_complex, as_image, side_exponent

__all__ = [
    "freq_values",
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
    out = np.array(x, dtype=float)  # one private copy, written in place
    pos = out > 0
    np.divide(scale, out, out=out, where=pos)
    out[~pos] = 1.0
    return np.minimum(1.0, out, out=out)[()]  # [()]: a scalar for scalar x


# ---------------------------------------------------------------------------
# Haar system

def _check_1d_index(p, e, n, l, **k):
    for name, v in dict(p=p, e=e, n=n, l=l, **k).items():  # numpy integers pass, bools do not
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {v!r}")
    p, e, n, l, *k = (int(v) for v in (p, e, n, l, *k.values()))  # a uint8 n wraps in n - p
    side_exponent(2**p)  # the system has a scale: p >= 1
    if e not in (0, 1):
        raise ValueError(f"e must be 0 or 1, got {e}")
    if not 0 <= n < p:
        raise ValueError(f"scale n must satisfy 0 <= n < {p}, got {n}")
    if not 0 <= l < (1 << n):
        raise ValueError(f"shift l must satisfy 0 <= l < {1 << n}, got {l}")
    return p, e, n, l, *k


def _haar_patterns(p, n):
    """Window and step sign patterns (0, +-1) of scale ``n`` on 2**p points, one row per shift."""
    window = np.repeat(np.eye(1 << n, dtype=int), 1 << (p - n), axis=1)
    return window, window * np.tile(np.repeat([1, -1], 1 << (p - n - 1)), 1 << n)


def haar_atom_1d(p, e, n, l):
    """Univariate Haar building block on 2**p points.

    ``e = 0`` is the window (constant on its dyadic interval), ``e = 1`` the
    step function (positive on the first half, negative on the second). The
    support is ``[l * 2**(p-n), (l+1) * 2**(p-n))`` and the nonzero value is
    ``2**((n-p)/2)``.
    """
    p, e, n, l = _check_1d_index(p, e, n, l)
    return 2.0 ** ((n - p) / 2) * _haar_patterns(p, n)[e][l]


def _haar_blocks(p):
    """Sign patterns (A, B) and exact scale c = 2**(n-p) of each atom block in canonical order
    (the constant atom, then per scale n (0,1), (1,0), (1,1)); a block's atoms are
    ``c * np.outer(A[l1], B[l2])``, shift-row-major: every nonzero entry is ±c, exactly."""
    side_exponent(2**p)  # the system has a scale: p >= 1
    ones = np.ones((1, 1 << p), dtype=int)
    yield ones, ones, 2.0**-p
    for n in range(p):
        w, s = _haar_patterns(p, n)
        c = 2.0 ** (n - p)
        yield from ((w, s, c), (s, w, c), (s, s, c))


def haar_matrix(p):
    """Dense transform matrix: row per atom in canonical order, exact in binary floating point."""
    return np.concatenate([c * (a[:, None, :, None] * b[None, :, None, :]).reshape(-1, 4**p)
                           for a, b, c in _haar_blocks(p)])


def _quarters(x):  # the corners of the 2x2 blocks, in the butterfly's order
    return x[0::2, 0::2], x[1::2, 0::2], x[0::2, 1::2], x[1::2, 1::2]


def _haar_butterfly(x0, x1, x2, x3, y0, y1, y2, y3):
    """Twice the 2x2 block transform: with u, v = x0 +- x1 and s, d = x2 +- x3, writes
    (u + s, u - s, v + d, v - d) to (y0, y1, y2, y3). Symmetric and orthogonal up to the 2, it is
    its own inverse: :func:`_quarters` to average and (0,1), (1,0), (1,1) details, and back. All
    operands are read before the first write, so an output may alias an input."""
    u, v, s, d = x0 + x1, x0 - x1, x2 + x3, x2 - x3
    np.add(u, s, out=y0)
    np.subtract(u, s, out=y1)
    np.add(v, d, out=y2)
    np.subtract(v, d, out=y3)


def haar_forward(f, out=None):
    """Bivariate Haar transform to the canonical coefficient vector.

    Computed by the recursive 2x2 butterfly scheme in O(n^2 log n); equals the dense matrix
    product with :func:`haar_matrix` rows. Level q = 4**lev writes half the :func:`_haar_butterfly`
    of the finer average to ``[0, 4q)``: its average to ``[0, q)``, read by the next level. ``out``
    (a flat array of n*n entries, of the image's dtype) receives the coefficients when given.
    """
    f = as_image(f)
    n = f.shape[0]
    p = side_exponent(n)
    w = np.empty(n * n, dtype=f.dtype) if out is None else out
    cur = f
    for lev in range(p - 1, -1, -1):
        q, m = 4**lev, 1 << lev
        _haar_butterfly(*_quarters(cur), *w[: 4 * q].reshape(4, m, m))
        w[: 4 * q] *= 0.5
        cur = w[:q].reshape(m, m)
    return w


def haar_inverse(w, out=None):
    """Inverse of :func:`haar_forward` (unitary): the same butterfly, from a level's average and
    details to the finer quarters; ``out`` (n x n, of w's dtype) receives the image when given.
    Each level but the last gets a new array: rebuilding every level inside ``out`` gives the
    same bits but was slower per call at n = 32, 128 and 256 in most timings."""
    w = as_complex(w)
    n = math.isqrt(w.size)
    if w.ndim != 1 or n * n != w.size:
        raise ValueError(f"coefficients must be a flat vector of n*n entries, got shape {w.shape}")
    p = side_exponent(n)
    cur = w[:1].reshape(1, 1)
    for lev in range(p):
        q, m = 4**lev, 1 << lev
        last = out is not None and lev == p - 1
        avg, cur = cur, out if last else np.empty((2 * m, 2 * m), dtype=w.dtype)
        _haar_butterfly(avg, *w[q : 4 * q].reshape(3, m, m), *_quarters(cur))
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
    return np.roll(ifft2_unphased(as_image(spec)), -1, axis=(0, 1))


def fft2_unphased(f, out=None):
    """Orthonormal FFT over the last two axes: :func:`dft2_forward` without the one-pixel shift.

    At the flat storage positions ``lin`` the two differ by the factor ``sampled_phase(n, lin)``.
    Two in-place 1-D passes, the loop ``np.fft.fft2`` runs, so the result equals it bit for
    bit, complex64 staying complex64; ``out`` (complex, shaped like ``f``) receives it when given.
    ``np.fft.fft2(f, out=out)`` gives the same bits, but its n-d argument handling costs about
    10 us more a call at n = 32 (2-core Xeon, numpy 2.4), in either precision.
    """
    out = np.fft.fft(f, axis=-1, norm="ortho", out=out)
    return np.fft.fft(out, axis=-2, norm="ortho", out=out)


def ifft2_unphased(spec, out=None):
    """Inverse (= adjoint) of :func:`fft2_unphased`, equal to ``np.fft.ifft2``; same ``out``."""
    # two explicit 1-D passes: numpy 2.4's ifft2 ignores ``out``, and ifftn(axes=(-2, -1), out=)
    # gives the same bits about 10 us a call slower at n = 32, as fft2 does
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


def _measurements(y, plan):
    """``y`` as a flat complex128 vector of the plan's m measurements; rejects a wrong length
    or a non-finite entry."""
    y = np.asarray(y, dtype=np.complex128).ravel()
    if y.size != plan.m:
        raise ValueError(f"measurement length {y.size} != plan.m = {plan.m}")
    if not np.all(np.isfinite(y)):
        raise ValueError("measurements contain non-finite values")
    return y


def partial_dft_adjoint(y, plan):
    """Adjoint of :func:`partial_dft`; duplicate frequencies accumulate."""
    y = _measurements(y, plan)
    n, lin = plan.n, plan.lin
    spec = np.bincount(lin, weights=y.real, minlength=n * n) + 1j * np.bincount(
        lin, weights=y.imag, minlength=n * n
    )
    return dft2_inverse(spec.reshape(n, n))
