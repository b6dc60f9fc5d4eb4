"""Synthetic test images: a gradient-sparse square, a head phantom and a compressible scene."""

import numpy as np

__all__ = ["rect_phantom", "shepp_logan", "compressible_scene"]


def rect_phantom(n, seed=0, side=10):
    """Piecewise-constant image: one axis-aligned square of the given side.

    An interior square of side ``s`` contributes 4*s nonzero gradient
    entries, so a 10 x 10 square gives a gradient support of 40.
    Its position and amplitude are drawn from the seed.
    """
    if n < side + 4:
        raise ValueError(f"n = {n} too small for a side-{side} square")
    rng = np.random.default_rng(seed)
    r0 = int(rng.integers(1, n - side - 1))
    c0 = int(rng.integers(1, n - side - 1))
    f = np.zeros((n, n))
    f[r0 : r0 + side, c0 : c0 + side] = rng.uniform(0.5, 1.0)
    return f


# (x0, y0, a, b, angle_deg, value) on the [-1, 1]^2 square
_SHEPP_LOGAN_ELLIPSES = [
    (0.0, 0.0, 0.69, 0.92, 0.0, 1.0),
    (0.0, -0.0184, 0.6624, 0.874, 0.0, -0.8),
    (0.22, 0.0, 0.11, 0.31, -18.0, -0.2),
    (-0.22, 0.0, 0.16, 0.41, 18.0, -0.2),
    (0.0, 0.35, 0.21, 0.25, 0.0, 0.1),
    (0.0, 0.1, 0.046, 0.046, 0.0, 0.1),
    (0.0, -0.1, 0.046, 0.046, 0.0, 0.1),
    (-0.08, -0.605, 0.046, 0.023, 0.0, 0.1),
    (0.0, -0.605, 0.023, 0.023, 0.0, 0.1),
    (0.06, -0.605, 0.023, 0.046, 0.0, 0.1),
]


def shepp_logan(n):
    """Piecewise-constant head phantom scaled to [0, 1]."""
    x = np.linspace(-1, 1, n)
    gx, gy = x[:, None], x[None, :]
    f = np.zeros((n, n))
    for x0, y0, a, b, ang, val in _SHEPP_LOGAN_ELLIPSES:
        th = np.radians(ang)
        u = (gx - x0) * np.cos(th) + (gy - y0) * np.sin(th)
        v = (gy - y0) * np.cos(th) - (gx - x0) * np.sin(th)
        f[(u / a) ** 2 + (v / b) ** 2 <= 1.0] += val
    lo, hi = f.min(), f.max()
    if lo == hi:
        raise ValueError(f"n = {n} too small for the head phantom: no pixel centre lies inside it")
    return (f - lo) / (hi - lo)


def compressible_scene(n):
    """Smooth bumps plus piecewise shapes and a mild oscillation.

    Wavelet and gradient coefficients decay quickly but the image is not
    exactly sparse in either transform, which is what separates low-pass
    leaning sampling densities from uniform sampling.
    """
    x = np.linspace(-1, 1, n)
    gx, gy = x[:, None], x[None, :]
    f = np.exp(-((gx + 0.3) ** 2 + (gy + 0.2) ** 2) / 0.08)
    f += 0.8 * np.exp(-((gx - 0.35) ** 2 + (gy - 0.3) ** 2) / 0.02)
    f += 0.5 * (np.hypot(gx, gy) < 0.6)
    f += 0.25 * (np.abs(gx - 0.1) + np.abs(gy + 0.4) < 0.35)
    f += 0.15 * np.sin(3 * np.pi * gx) * np.sin(2 * np.pi * gy)
    return f / f.max()
