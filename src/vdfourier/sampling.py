"""Sampling densities over the frequency grid, i.i.d. plans, and masks.

Density values are stored on the same ``(k1 % n, k2 % n)`` layout as
spectra. Stochastic plans carry preconditioning weights
``rho_j = eta(omega_j) ** -0.5`` derived from the generating density;
deterministic masks carry ``rho = 1``.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .image_core import side_exponent
from .transforms import _capped_inverse, freq_values

__all__ = [
    "Density",
    "SamplingPlan",
    "density_uniform",
    "density_inverse_square",
    "density_power_law",
    "density_inverse_max",
    "density_from_kappa",
    "draw_plan",
    "deterministic_mask",
]

@dataclass(frozen=True, eq=False)
class Density:
    """Probability mass over the n x n frequency grid (storage layout); n is the side of ``values``."""

    values: np.ndarray

    @property
    def n(self):
        return self.values.shape[0]

    def __post_init__(self):
        v = self.values
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"density grid must be square, got shape {v.shape}")
        side_exponent(v.shape[0])
        if v.dtype.kind not in "iuf" or not np.all(np.isfinite(v) & (v >= 0)):
            raise ValueError("density entries must be finite and nonnegative reals")
        if not abs(v.sum() - 1.0) <= 1e-12:
            raise ValueError(f"density must sum to 1, got {v.sum()!r}")


@dataclass(frozen=True, eq=False)
class SamplingPlan:
    """m drawn frequencies (duplicates allowed) plus preconditioning weights.

    ``freqs`` is an (m, 2) array, of any integer dtype, of (k1, k2) values in
    {-n/2+1, ..., n/2}; ``rho`` the m positive weights. A stochastic plan is
    reproduced by calling :func:`draw_plan` again with the same density, m and seed.
    """

    n: int
    freqs: np.ndarray
    rho: np.ndarray

    @property
    def m(self):
        return self.freqs.shape[0]

    @property
    def lin(self):
        """Flat storage positions (k1 % n)*n + k2 % n of the m frequencies (checked range)."""
        n = self.n
        lo, hi = -n // 2 + 1, n // 2
        if self.freqs.min() < lo or self.freqs.max() > hi:
            raise ValueError(f"frequency outside [{lo}, {hi}] for n={n}")
        return np.ravel_multi_index(self.freqs.T, (n, n), mode="wrap")

    @classmethod
    def from_lin(cls, n, lin, rho):
        """The plan whose :attr:`lin` is ``lin``: each storage position in [0, n*n) as (k1, k2)."""
        ks = freq_values(n)  # first: a bad n gets side_exponent's message, not a position's
        return cls(n=n, freqs=ks[np.stack(np.unravel_index(lin, (n, n)), axis=1)], rho=rho)

    def __post_init__(self):
        side_exponent(self.n)
        if self.freqs.shape[:1] == (0,):  # also an empty CSV's (0,) array
            raise ValueError("a plan needs at least one frequency, got m = 0")
        if self.freqs.ndim != 2 or self.freqs.shape[1] != 2 or self.freqs.dtype.kind not in "iu":
            raise ValueError(f"freqs must be an (m, 2) array of integers, got {self.freqs.dtype}")
        if self.rho.shape != (self.freqs.shape[0],):
            raise ValueError("rho length must match the number of frequencies")
        if self.rho.dtype.kind not in "iuf" or not np.all(np.isfinite(self.rho) & (self.rho > 0)):
            raise ValueError("rho entries must be finite and positive reals")
        self.lin  # checks the frequency range

    def mask(self):
        """Boolean n x n array, True where a frequency was drawn at least once."""
        out = np.zeros((self.n, self.n), dtype=bool)
        out.flat[self.lin] = True
        return out

    def to_csv(self, path):
        """Write rows (j, k1, k2, rho)."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["j", "k1", "k2", "rho"])
            w.writerows(zip(range(self.m), *self.freqs.T.tolist(), map(repr, self.rho.tolist())))

    @classmethod
    def from_csv(cls, path, n):
        """Read the rows written by :meth:`to_csv`; the k1, k2 and rho columns are required.

        A row with more fields than the header, or a k1, k2 or rho that does not parse, raises a
        ValueError that names the file, the line and the column. Text that is not CSV (an unclosed
        quote, a field past ``csv.field_size_limit()``) raises one that names the last line read.
        """
        k1, k2, rho = [], [], []
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh, restval="", strict=True)
            try:
                missing = [c for c in ("k1", "k2", "rho") if c not in (reader.fieldnames or ())]
                if missing:
                    raise ValueError(f"plan CSV {path} has no {'/'.join(missing)} column")
                for row in reader:
                    where = f"plan CSV {path} line {reader.line_num}"
                    if None in row:  # DictReader's key for the fields past the header's
                        raise ValueError(f"{where} has more fields than its header")
                    for col, parse, values in (("k1", np.int64, k1), ("k2", np.int64, k2),
                                               ("rho", float, rho)):
                        try:
                            values.append(parse(row[col]))
                        except (ValueError, OverflowError) as exc:
                            raise ValueError(f"{where}, column {col}: {exc}") from None
            except csv.Error as exc:
                raise ValueError(f"plan CSV {path} after line {reader.line_num}: {exc}") from None
        return cls(n=n, freqs=np.array(list(zip(k1, k2)), dtype=int), rho=np.array(rho))


def _normalized(mass):
    return Density(values=mass / mass.sum())


def density_uniform(n):
    """Uniform density, 1/n^2 per frequency: the power law at alpha = 0."""
    return density_power_law(n, 0.0)


def density_inverse_square(n):
    """Density proportional to min(1, 1/(k1^2 + k2^2)); the cap binds only at radius <= 1."""
    k = freq_values(n).astype(float)
    return _normalized(_capped_inverse(1.0, k[:, None] ** 2 + k[None, :] ** 2))


def density_power_law(n, alpha):
    """Density proportional to (k1^2 + k2^2 + 1) ** (-alpha/2).

    ``alpha = 0`` is uniform. ``alpha = inf`` would be a point mass at the zero
    frequency, which i.i.d. draws cannot spread over m frequencies, so it is
    rejected; its limit is ``deterministic_mask(n, "lowest_frequencies", m=...)``.
    """
    if not alpha >= 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if math.isinf(alpha):
        raise ValueError("alpha = inf is a point mass; use "
                         "deterministic_mask(n, 'lowest_frequencies', m=...)")
    k = freq_values(n).astype(float)
    return _normalized((k[:, None] ** 2 + k[None, :] ** 2 + 1.0) ** (-alpha / 2))


def density_inverse_max(n):
    """Density proportional to min(1, 1/max(|k1|, |k2|))."""
    k = np.abs(freq_values(n))
    return _normalized(_capped_inverse(1.0, np.maximum(k[:, None], k[None, :])))


def density_from_kappa(kappa_table):
    """Density proportional to the square of a positive coherence-bound table."""
    kap = np.asarray(kappa_table, dtype=float)
    if np.any(kap <= 0):
        raise ValueError("kappa entries must be positive")
    return _normalized(kap**2)


def draw_plan(density, m, seed):
    """Draw m i.i.d. frequencies (with replacement) from a density.

    Uses inverse-CDF sampling over the flattened grid with a seeded PCG64
    generator, so a given (density, m, seed) always yields the same plan.
    Weights are ``rho_j = eta(omega_j) ** -0.5``.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    n = density.n
    flat = density.values.ravel()
    cdf = np.cumsum(flat)
    cdf[-1] = 1.0
    rng = np.random.default_rng(seed)
    lin = np.searchsorted(cdf, rng.random(m), side="right")
    return SamplingPlan.from_lin(n, lin, 1.0 / np.sqrt(flat[lin]))


def _lowest_frequencies(n, m):
    k = freq_values(n)
    k1, k2 = k[:, None], k[None, :]
    r2 = (k1.astype(float) ** 2 + k2**2).ravel()
    ang = np.mod(np.arctan2(k2, k1), 2 * np.pi).ravel()
    return np.lexsort((ang, r2))[:m]  # storage positions; stable: full ties keep storage order


def _radial_lines(n, lines):
    lo, hi = -n // 2 + 1, n // 2
    ks = np.arange(lo, hi + 1)
    hit = np.zeros((n, n), dtype=bool)  # hit[k1 - lo, k2 - lo]: argwhere reads it k1 first
    for i in range(lines):
        theta = np.pi * i / lines
        c, s = np.cos(theta), np.sin(theta)
        # step along the axis the line is closer to, rounding the other coordinate
        k1, k2 = (ks, np.rint(ks * s / c)) if abs(c) >= abs(s) else (np.rint(ks * c / s), ks)
        on = (k1 >= lo) & (k2 >= lo)  # |ratio| <= 1 keeps it <= hi, but it can round to -n/2
        hit[k1[on].astype(int) - lo, k2[on].astype(int) - lo] = True
    return np.ascontiguousarray(np.argwhere(hit)) + lo  # argwhere's own array is F-ordered


def deterministic_mask(n, variant, m=None, lines=None):
    """Structured sampling plans with rho = 1: lowpass or radial lines.

    ``lowest_frequencies``: the m frequencies of smallest k1^2 + k2^2, ties
    broken by angle then storage index.
    ``radial_lines``: lattice points of ``lines`` equispaced-angle digital
    lines through the origin, 1 <= lines <= 4n: past that the angular step pi/lines is
    below the about 1/n the grid resolves at its edge, and the mask grows no further.
    For m i.i.d. uniform draws use ``draw_plan(density_uniform(n), m, seed)``.
    """
    if variant == "lowest_frequencies":
        if m is None or not 1 <= m <= n * n:
            raise ValueError(f"lowest_frequencies requires 1 <= m <= {n * n}")
        return SamplingPlan.from_lin(n, _lowest_frequencies(n, m), np.ones(m))
    if variant == "radial_lines":
        if lines is None or not 1 <= lines <= 4 * n:
            raise ValueError(f"radial_lines requires 1 <= lines <= {4 * n} (4n)")
        freqs = _radial_lines(n, lines)
        return SamplingPlan(n=n, freqs=freqs, rho=np.ones(len(freqs)))
    raise ValueError(f"unknown mask variant {variant!r}")
