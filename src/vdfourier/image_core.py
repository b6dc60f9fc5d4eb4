"""Image container conventions, discrete gradients, norms, and s-term utilities.

Images are square complex arrays of side ``n = 2**p`` with row index ``t1``
(axis 0) and column index ``t2`` (axis 1). Real input is promoted to complex
with zero imaginary part.
"""

import numpy as np

__all__ = [
    "as_image",
    "gradient",
    "tv_norm",
    "lp_norm",
    "hard_threshold",
    "best_s_term_error",
]


def is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


def as_image(pixels):
    """Validate and return an image as a square complex128 array.

    The side length must be a power of two (at least 2).
    """
    f = np.asarray(pixels)
    if f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise ValueError(f"image must be square, got shape {f.shape}")
    n = f.shape[0]
    if n < 2 or not is_power_of_two(n):
        raise ValueError(f"image side must be a power of two >= 2, got {n}")
    return f.astype(np.complex128, copy=False)


def gradient(f):
    """Discrete directional derivatives of an image: the pair ``(dx, dy)``.

    Forward differences with no wraparound, so a constant image maps to zeros:
    ``dx`` has shape (n-1, n) with dx[t1, t2] = f[t1+1, t2] - f[t1, t2];
    ``dy`` has shape (n, n-1) with dy[t1, t2] = f[t1, t2+1] - f[t1, t2].
    """
    f = as_image(f)
    return f[1:, :] - f[:-1, :], f[:, 1:] - f[:, :-1]


def gradient_adjoint(dx, dy):
    """Adjoint of :func:`gradient` under the standard inner products."""
    n = dx.shape[1]
    out = np.zeros((n, n), dtype=np.complex128)
    out[:-1, :] -= dx
    out[1:, :] += dx
    out[:, :-1] -= dy
    out[:, 1:] += dy
    return out


def tv_norm(f):
    """Anisotropic total variation: the l1 norm of the discrete gradient."""
    return lp_norm(np.concatenate([part.ravel() for part in gradient(f)]), 1)


def lp_norm(x, p):
    """Vector lp norm for p in [1, inf]; p = inf gives the max modulus."""
    x = np.asarray(x).ravel()
    if p != np.inf and p < 1:
        raise ValueError(f"lp_norm requires p >= 1 or p = inf, got {p}")
    if x.size == 0:
        return 0.0
    mags = np.abs(x)
    if p == np.inf:
        return float(mags.max())
    if p == 1:
        return float(mags.sum())
    if p == 2:
        return float(np.sqrt((mags * mags).sum()))
    return float((mags**p).sum() ** (1.0 / p))


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
    if s > 0:
        # lexsort: primary key descending magnitude, secondary ascending index
        order = np.lexsort((np.arange(flat.size), -np.abs(flat)))
        keep = order[:s]
        out[keep] = flat[keep]
    return out.reshape(x.shape)


def best_s_term_error(x, s, p):
    """Error of the best s-term approximation of a vector in lp.

    Zero whenever the vector has at most s nonzero entries.
    """
    x = np.asarray(x).ravel()
    return lp_norm(x - hard_threshold(x, s), p)
