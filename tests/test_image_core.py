from itertools import combinations

import numpy as np
import pytest

from vdfourier.image_core import (
    as_image,
    best_s_term_error,
    gradient,
    gradient_adjoint,
    hard_threshold,
    lp_norm,
    tv_norm,
)


def gradient_oracle(f):
    """Elementwise double-loop differences, zero-padded to (n, n) each."""
    n = f.shape[0]
    dx = np.zeros((n, n), dtype=complex)
    dy = np.zeros((n, n), dtype=complex)
    for t1 in range(n - 1):
        for t2 in range(n):
            dx[t1, t2] = f[t1 + 1, t2] - f[t1, t2]
    for t1 in range(n):
        for t2 in range(n - 1):
            dy[t1, t2] = f[t1, t2 + 1] - f[t1, t2]
    return dx, dy


@pytest.mark.parametrize("shape", [(4, 8), (4,), (2, 2, 2)])
def test_as_image_rejects_a_non_square_array(shape):
    with pytest.raises(ValueError, match=rf"image must be square, got shape \({shape[0]},"):
        as_image(np.zeros(shape))


def test_gradient_constant_image():
    dx, dy = gradient(np.full((4, 4), 3.7))
    assert np.all(dx == 0) and np.all(dy == 0)


def test_gradient_ramp():
    t1 = np.arange(8)[:, None] * np.ones((1, 8))
    dx, dy = gradient(t1)
    assert np.all(dx[:-1] == 1.0) and np.all(dx[-1] == 0.0) and np.all(dy == 0.0)


def test_gradient_matches_oracle():
    rng = np.random.default_rng(11)
    f = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    dx, dy = gradient(f)
    want_dx, want_dy = gradient_oracle(f)
    assert np.array_equal(dx, want_dx)
    assert np.array_equal(dy, want_dy)


def test_gradient_adjoint_identity():
    rng = np.random.default_rng(13)
    n = 8
    for _ in range(20):
        f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
        lhs = np.vdot(q, gradient(f))
        rhs = np.vdot(gradient_adjoint(q), f)
        assert abs(lhs - rhs) < 1e-10


def test_tv_constant_is_zero():
    assert tv_norm(np.full((8, 8), 2.5)) == 0.0


def test_tv_two_jumps():
    assert tv_norm(np.array([[0.0, 1.0], [0.0, 1.0]])) == 2.0


def test_tv_matches_bruteforce():
    rng = np.random.default_rng(21)
    f = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    acc = 0.0
    for t1 in range(7):
        for t2 in range(8):
            acc += abs(f[t1 + 1, t2] - f[t1, t2])
    for t1 in range(8):
        for t2 in range(7):
            acc += abs(f[t1, t2 + 1] - f[t1, t2])
    assert tv_norm(f) == pytest.approx(acc, rel=1e-12)


def test_tv_equals_l1_of_gradient_exactly():
    rng = np.random.default_rng(22)
    for _ in range(10):
        f = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        dx, dy = gradient(f)
        assert tv_norm(f) == lp_norm(np.concatenate([dx.ravel(), dy.ravel()]), 1)


def test_tv_shift_and_scale():
    rng = np.random.default_rng(23)
    f = rng.standard_normal((8, 8))
    assert tv_norm(f + 17.3) == pytest.approx(tv_norm(f), rel=1e-12)
    assert tv_norm(-2.5 * f) == pytest.approx(2.5 * tv_norm(f), rel=1e-12)


def test_lp_norm_basics():
    assert lp_norm(np.zeros(5), 3.0) == 0.0
    assert [lp_norm([], p) for p in (1, 2, 3.0, np.inf)] == [0.0] * 4
    assert lp_norm([3.0, 4.0], 2) == pytest.approx(5.0)
    assert lp_norm([1, -2, 3], np.inf) == 3.0
    rng = np.random.default_rng(31)
    x = rng.standard_normal(16)
    assert lp_norm(x, 1) == pytest.approx(sum(abs(v) for v in x), rel=1e-12)
    with pytest.raises(ValueError):
        lp_norm(x, 0.5)


def test_hard_threshold_identity_and_zero():
    x = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(hard_threshold(x, 3), x)
    assert np.all(hard_threshold(x, 0) == 0)
    with pytest.raises(ValueError):
        hard_threshold(x, 4)
    with pytest.raises(ValueError):
        hard_threshold(x, -1)


def test_hard_threshold_tie_rule():
    # magnitudes (1, 5, 3, 3): the tied 3s resolve to the lower index
    out = hard_threshold(np.array([1.0, -5.0, 3.0, 3.0]), 2)
    assert np.array_equal(out, np.array([0.0, -5.0, 3.0, 0.0]))


def test_hard_threshold_is_lp_minimizer():
    rng = np.random.default_rng(41)
    for p in (1, 2, np.inf):
        for _ in range(5):
            x = rng.standard_normal(10)
            for s in (0, 2, 5, 10):
                achieved = lp_norm(x - hard_threshold(x, s), p)
                best = min(
                    lp_norm([v for i, v in enumerate(x) if i not in set(sup)], p)
                    for sup in combinations(range(10), s)
                )
                assert achieved <= best + 1e-12


def test_best_s_term_error():
    sparse = np.array([0.0, 7.0, 0.0, -1.0])
    assert best_s_term_error(sparse, 2, 1) == 0.0
    assert best_s_term_error(np.array([4.0, 2.0, 1.0]), 1, 1) == pytest.approx(3.0)


def test_best_s_term_error_matches_support_enumeration():
    rng = np.random.default_rng(42)
    x = rng.standard_normal(9)
    best = min(
        lp_norm([v for i, v in enumerate(x) if i not in set(sup)], 1)
        for sup in combinations(range(9), 3)
    )
    assert best_s_term_error(x, 3, 1) == pytest.approx(best, rel=1e-12)


def test_best_s_term_error_monotone():
    rng = np.random.default_rng(43)
    x = rng.standard_normal(12)
    errs = [best_s_term_error(x, s, 1) for s in range(13)]
    assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
    assert errs[-1] == 0.0
