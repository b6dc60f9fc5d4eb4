import csv
from typing import NamedTuple

import numpy as np
import pytest

from vdfourier.coherence import coherence_tables_1d
from vdfourier.image_core import tv_norm
from vdfourier.sampling import SamplingPlan
from vdfourier.transforms import freq_values, haar_atom_1d


class HaarIndex(NamedTuple):
    """Label of a bivariate Haar atom.

    ``e = (0, 0)`` with ``n = 0``, ``l = (0, 0)`` is the constant atom;
    detail atoms use ``e`` in {(0,1), (1,0), (1,1)}, ``0 <= n < p`` and
    shifts ``0 <= l_i < 2**n``.
    """

    e: tuple
    n: int
    l: tuple


def haar_indices(p):
    """All 4**p Haar indices of the side-2**p system, in the canonical order of
    :func:`vdfourier.transforms.haar_matrix` rows."""
    idx = [HaarIndex((0, 0), 0, (0, 0))]
    for n in range(p):
        for e in ((0, 1), (1, 0), (1, 1)):
            for l1 in range(1 << n):
                for l2 in range(1 << n):
                    idx.append(HaarIndex(e, n, (l1, l2)))
    return idx


def haar_atom_2d(p, idx):
    """Bivariate Haar atom as a 2**p x 2**p image (tensor of 1-D atoms)."""
    e, n, l = idx
    if e == (0, 0):
        if n != 0 or l != (0, 0):
            raise ValueError(f"constant atom requires n=0, l=(0,0), got {idx}")
    elif e not in ((0, 1), (1, 0), (1, 1)):
        raise ValueError(f"invalid orientation {e}")
    return np.outer(haar_atom_1d(p, e[0], n, l[0]), haar_atom_1d(p, e[1], n, l[1]))


def full_grid_plan(n, rho_value=1.0):
    """Every frequency exactly once."""
    ks = freq_values(n)
    freqs = np.stack(np.meshgrid(ks, ks, indexing="ij"), axis=-1).reshape(-1, 2)
    return SamplingPlan(n=n, freqs=freqs, rho=np.full(n * n, float(rho_value)))


def fourier_haar_inner_1d_direct(p, k, e, n, l):
    """Direct summation oracle for :func:`vdfourier.coherence.fourier_haar_inner_1d`."""
    size = 1 << p
    j = np.arange(size)
    atom = haar_atom_1d(p, e, n, l)
    return complex(np.sum(np.exp(2j * np.pi * k * j / size) * atom) / np.sqrt(size))


def haar_atom_exact(p, idx):
    """Bivariate Haar atom from its definition, independent of :mod:`vdfourier.transforms`.

    Along axis i it is the window (``e_i = 0``) or the step (``e_i = 1``: +1 on the first half,
    -1 on the second) on the dyadic interval ``[l_i, l_i + 1) * 2**(p-n)``; the product is
    scaled by ``2.0**(n - p)``, so every nonzero entry is a power of two, exactly.
    """
    e, n, l = idx
    width = 1 << (p - n)
    axes = np.zeros((2, 1 << p))
    for axis, (ei, li) in enumerate(zip(e, l)):
        axes[axis, li * width:(li + 1) * width] = 1.0
        if ei:
            axes[axis, li * width + width // 2:(li + 1) * width] = -1.0
    return 2.0 ** (n - p) * np.outer(*axes)


def edge_lemma_loop(n):
    """Per-atom oracle for :func:`vdfourier.verify.check_edge_lemma`."""
    p = n.bit_length() - 1
    count_x = np.zeros((n - 1, n), dtype=int)
    count_y = np.zeros((n, n - 1), dtype=int)
    for idx in haar_indices(p)[1:]:
        atom = haar_atom_exact(p, idx)
        count_x += np.abs(atom[1:, :] - atom[:-1, :]) > 0
        count_y += np.abs(atom[:, 1:] - atom[:, :-1]) > 0
    return int(max(count_x.max(), count_y.max()))


def atom_tv_loop(n):
    """Per-atom oracle for :func:`vdfourier.verify.check_atom_tv`."""
    p = n.bit_length() - 1
    return max(tv_norm(haar_atom_exact(p, idx)) for idx in haar_indices(p))


def local_coherence_three_products(n):
    """Oracle for :func:`vdfourier.coherence.local_coherence_exact`, one product per block."""
    a0, a1 = coherence_tables_1d(n)
    mu = np.zeros((n, n))
    for u0, u1 in zip(a0.T, a1.T):
        for r, c in ((u0, u1), (u1, u0), (u1, u1)):
            np.maximum(mu, np.multiply.outer(r, c), out=mu)
    mu[0, 0] = max(mu[0, 0], 1.0)
    return mu


def local_coherence_full_grid(n):
    """Oracle for :func:`vdfourier.coherence.local_coherence_exact`: the running max over all n^2 cells."""
    a0, a1 = coherence_tables_1d(n)
    mu = np.zeros((n, n))
    for u0, u1 in zip(a0.T, a1.T):
        np.maximum(mu, np.multiply.outer(np.maximum(u0, u1), u1), out=mu)
        np.maximum(mu, np.multiply.outer(u1, u0), out=mu)
    mu[0, 0] = max(mu[0, 0], 1.0)
    return mu


def write_grid_oracle(path, header, labels, *values):
    """Reference bytes for :func:`vdfourier.cli._write_grid_csv`: csv.writer over every cell."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([k1, k2, *(repr(float(v[i, j])) for v in values)]
                    for i, k1 in enumerate(labels.tolist()) for j, k2 in enumerate(labels.tolist()))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
