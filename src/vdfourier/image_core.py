"""Image container conventions, discrete gradients, norms, and s-term utilities.

Images are square complex arrays of side ``n = 2**p`` with row index ``t1``
(axis 0) and column index ``t2`` (axis 1). Real input is promoted to complex
with zero imaginary part; complex64 stays complex64 (:func:`as_complex`). :func:`side_exponent`
is the one check of that side rule, for images, densities, plans and the Haar system alike.
"""

import numpy as np

__all__ = [
    "side_exponent",
    "as_image",
    "gradient",
    "gradient_adjoint",
    "tv_norm",
    "lp_norm",
    "hard_threshold",
    "best_s_term_error",
]


def side_exponent(n):
    """The p of a grid side ``n = 2**p`` with p >= 1, so that the Haar system has a scale."""
    if n < 2 or n & (n - 1):
        raise ValueError(f"grid side must be a power of two >= 2, got {n}")
    return int(n).bit_length() - 1


def as_complex(x):
    """``x`` as complex64 if it is complex64, else as complex128; no copy if it already is."""
    x = np.asarray(x)
    return x.astype(np.complex64 if x.dtype == np.complex64 else np.complex128, copy=False)


def as_image(pixels):
    """Validate an image and return it as a square :func:`as_complex` array of side ``2**p``."""
    f = as_complex(pixels)
    if f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise ValueError(f"image must be square, got shape {f.shape}")
    side_exponent(f.shape[0])
    return f


def gradient(f, out=None):
    """Discrete gradient as one zero-padded (2, n, n) field ``(dx, dy)`` (Needell & Ward, TV).

    Forward differences with no wraparound, dx[t1, t2] = f[t1+1, t2] - f[t1, t2] and
    dy[t1, t2] = f[t1, t2+1] - f[t1, t2]; the last row of ``dx`` and the last column of ``dy``
    are zero. A constant image maps to zeros, and ||gradient(f)||^2 <= 8 ||f||^2.
    ``out`` (C-contiguous (2, n, n), of the image's dtype) receives the field when given; its
    pads are zeroed. dy runs over the flat image (faster than 2-D column slices), which writes
    row-crossing differences into its pads before they are zeroed.
    """
    f = as_image(f)
    n = f.shape[0]
    d = np.empty((2, n, n), dtype=f.dtype) if out is None else out
    if not d.flags.c_contiguous:
        raise ValueError("gradient needs a C-contiguous out")
    np.subtract(f[1:], f[:-1], out=d[0, :-1])
    flat = f.reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=d[1].reshape(-1)[:-1])
    d[0, -1] = 0
    d[1, :, -1] = 0
    return d


def gradient_adjoint(d, out=None):
    """Adjoint of :func:`gradient` on all of C^(2 x n x n): the pad entries are ignored, and a
    field of a shape that :func:`gradient` cannot produce is refused. ``out`` (C-contiguous
    n x n, of the field's dtype) receives the image when given. The dy terms run over the flat
    image (faster than 2-D column slices), which adds pads of dy to the first and last columns;
    those are then redone from their saved dx terms, in the same order.
    """
    d = as_complex(d)
    if d.ndim != 3 or d.shape[:2] != (2, d.shape[2]):
        raise ValueError(f"gradient field must have shape (2, n, n), got {d.shape}")
    side_exponent(d.shape[2])
    dx, dy = d[0, :-1], d[1]
    out = np.empty(d.shape[1:], dtype=d.dtype) if out is None else out
    if not out.flags.c_contiguous:
        raise ValueError("gradient_adjoint needs a C-contiguous out")
    np.subtract(0, dx, out=out[:-1])
    out[-1] = 0
    out[1:] += dx
    ends = out[:, [0, -1]]
    flat, dy_flat = out.reshape(-1), dy.reshape(-1)
    flat[:-1] -= dy_flat[:-1]
    flat[1:] += dy_flat[:-1]
    np.subtract(ends[:, 0], dy[:, 0], out=out[:, 0])
    np.add(ends[:, 1], dy[:, -2], out=out[:, -1])
    return out


def tv_norm(f):
    """Anisotropic total variation: the l1 norm of the discrete gradient."""
    return lp_norm(gradient(f), 1)


def lp_norm(x, p):
    """Vector lp norm for p in [1, inf]; p = inf gives the max modulus.

    The moduli are cast to float64 before the power, so complex64 input neither overflows nor
    underflows where its norm is a float64.
    """
    x = np.asarray(x).ravel()
    if not p >= 1:  # also refuses NaN
        raise ValueError(f"lp_norm requires p >= 1 or p = inf, got {p}")
    mags = np.abs(x).astype(np.float64, copy=False)
    if p == np.inf:
        return float(mags.max(initial=0.0))
    return float((mags**p).sum(dtype=np.float64) ** (1.0 / p))


def hard_threshold(x, s):
    """Keep the s largest-magnitude entries of a vector, zeroing the rest.

    Ties in magnitude are broken deterministically: among equal magnitudes
    the entry with the lowest index is kept first.
    """
    x = np.asarray(x)
    flat = x.ravel()
    if not 0 <= s <= flat.size:
        raise ValueError(f"s must be in [0, {flat.size}], got {s}")
    out = np.zeros_like(flat)
    keep = np.argsort(-np.abs(flat), kind="stable")[:s]  # ties keep index order
    out[keep] = flat[keep]
    return out.reshape(x.shape)


def best_s_term_error(x, s, p):
    """Error of the best s-term approximation of a vector in lp.

    Zero whenever the vector has at most s nonzero entries.
    """
    x = np.asarray(x).ravel()
    return lp_norm(x - hard_threshold(x, s), p)
