"""Constrained TV and l1-Haar reconstruction from partial Fourier data.

Both programs minimize a seminorm subject to the weighted data-fit ball

    || rho o (F_Omega g - y) ||_2 <= eps * sqrt(m)        (weighted)
    ||        F_Omega g - y  ||_2 <= eps * sqrt(m)        (unweighted)

via a first-order primal-dual splitting (PDHG). Repeated draws are merged
first: with W_k the sum of rho_j^2 over the draws of frequency k and ybar_k
their weighted mean, the ball becomes ||sqrt(W) o (F_K g - ybar)|| <=
sqrt(r^2 - C) over the distinct frequencies K, where C is the weighted
spread of the repeated samples about their means. Dual steps proportional
to 1/W_k (diagonal preconditioning, Pock & Chambolle 2011) turn the
measurement block into a partial isometry, so the step sizes follow from
the closed-form operator norms sqrt(8 + 1) (TV) and sqrt(2) (Haar). The
dual update is an l2-ball projection in a diagonal metric, solved by a
scalar Newton iteration that starts from the previous iteration's root,
clamped to a left bracket of the new one.
"""

from dataclasses import dataclass

import numpy as np

from .image_core import gradient_adjoint, lp_norm
from .transforms import (
    dft2_forward,
    dft2_inverse,
    haar_forward,
    haar_inverse,
    plan_storage_indices,
)

__all__ = [
    "SolverOptions",
    "SolverReport",
    "tv_min_reconstruct",
    "l1_haar_reconstruct",
    "add_noise",
]

_CHECK_EVERY = 50  # iterations between objective/violation checks


@dataclass(frozen=True)
class SolverOptions:
    """Iteration controls for the primal-dual solvers.

    The primal and dual steps tau = 1/(step_balance*L) and
    sigma = step_balance/L follow from the closed-form bound L on the
    stacked operator norm (3 for TV, sqrt(2) for Haar), so tau*sigma*L**2 = 1;
    ``step_balance`` sets how far the dual side is favored.
    ``epsilon`` is the noise level entering the constraint radius
    eps * sqrt(m).
    """

    max_iters: int = 20000
    primal_tol: float = 1e-6
    dual_tol: float = 1e-6
    noise_model: str = "unweighted"
    epsilon: float = 0.0
    step_balance: float = 10.0

    def __post_init__(self):
        if self.noise_model not in ("weighted", "unweighted"):
            raise ValueError(f"noise_model must be weighted|unweighted, got {self.noise_model!r}")
        if not np.isfinite(self.epsilon) or self.epsilon < 0:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon!r}")


@dataclass(frozen=True)
class SolverReport:
    iterations: int
    primal_residual: float
    constraint_violation: float
    objective: float
    converged: bool
    newton_steps: int  # Newton evaluations of phi in the dual-ball prox, summed


def _prox_dual_ball(v, sig, b, r, t):
    """argmin_z r*||z|| + Re<b, z> + (1/2) * sum |z_j - v_j|^2 / sig_j.

    The dual prox of the indicator of the ball {w : ||w - b|| <= r} under the
    diagonal step metric ``sig``: z = a*t/(t + r*sig) with a = v - sig*b and
    t the root of phi(t) = sum |a_j|^2/(t + r*sig_j)^2 = 1 (z = 0 if phi(0) <= 1).
    phi is convex decreasing and phi(lo) >= 1 at lo = max(||a|| - r*max(sig), 0).
    Newton starts at max(t, lo) for a warm start ``t`` (the previous root):
    from the right of the root one step lands at or left of it (clamped to
    lo); from the left it converges monotonically. Returns ``(z, root, evals)``
    (``t`` is passed through when no root is solved for).
    """
    a = v - sig * b
    if r == 0.0:
        return a, t, 0
    a2 = a.real**2 + a.imag**2
    rs = r * sig
    if np.sum(a2 / rs**2) <= 1.0:
        return np.zeros_like(a), t, 0
    lo = max(np.sqrt(a2.sum()) - rs.max(), 0.0)
    t = max(t, lo)
    for evals in range(1, 81):
        inv = 1.0 / (t + rs)
        a2inv2 = a2 * inv**2
        phi = a2inv2.sum()
        if abs(phi - 1.0) < 1e-13:
            break
        t = max(t + (phi - 1.0) / (2.0 * np.dot(a2inv2, inv)), lo)
    return a * (t / (t + rs)), t, evals


def _solve(y, plan, opts, k1, k1t, lam):
    """PDHG for min ||k1(g)||_1 s.t. ||d o (F_Omega g - y)|| <= eps*sqrt(m).

    ``lam`` bounds the norm of the stacked operator [k1; preconditioned
    measurement], i.e. sqrt(||k1||**2 + 1).
    """
    y = np.asarray(y, dtype=np.complex128).ravel()
    if y.size != plan.m:
        raise ValueError(f"measurement length {y.size} != plan.m = {plan.m}")
    if not np.all(np.isfinite(y)):
        raise ValueError("measurements contain non-finite values")
    n = plan.n
    radius = opts.epsilon * np.sqrt(plan.m)
    viol_tol = opts.dual_tol * np.sqrt(plan.m) * max(opts.epsilon, 1.0)

    # merge repeated draws: sum_j d_j^2 |x_k(j) - y_j|^2
    #   = sum_k w_k |x_k - ybar_k|^2 + spread
    i1, i2 = plan_storage_indices(plan, n)
    lin, inv = np.unique(i1 * n + i2, return_inverse=True)
    d2 = plan.rho.astype(float) ** 2 if opts.noise_model == "weighted" else np.ones(plan.m)
    w = np.bincount(inv, weights=d2)
    ybar = (np.bincount(inv, weights=d2 * y.real)
            + 1j * np.bincount(inv, weights=d2 * y.imag)) / w
    spread = float(np.sum(d2 * np.abs(y - ybar[inv]) ** 2))
    if np.sqrt(spread) - radius > viol_tol:
        raise ValueError(
            f"repeated samples disagree by {np.sqrt(spread):.6g}, more than the "
            f"data-fit radius {radius:.6g} allows"
        )
    sqw = np.sqrt(w)
    b = sqw * ybar
    radius_distinct = np.sqrt(max(radius**2 - spread, 0.0))

    def measure(g):
        return sqw * dft2_forward(g).ravel()[lin]

    spec = np.zeros(n * n, dtype=np.complex128)  # only spec[lin] is ever written

    def measure_adjoint(z):
        spec[lin] = sqw * z
        return dft2_inverse(spec.reshape(n, n))

    sig_base = opts.step_balance / lam
    tau = 1.0 / (opts.step_balance * lam)
    sig_m = sig_base / w

    def objective(g):
        return sum(lp_norm(part, 1) for part in k1(g))

    def violation(g):
        fit2 = float(np.linalg.norm(measure(g) - b)) ** 2
        return max(0.0, np.sqrt(fit2 + spread) - radius)

    g = np.zeros((n, n), dtype=np.complex128)
    gbar = g
    q = tuple(np.zeros_like(part) for part in k1(g))
    z = np.zeros(lin.size, dtype=np.complex128)
    t_ball = 0.0  # root of the last dual-ball prox, its next warm start
    newton_steps = 0

    obj_prev = objective(g)
    rel_change = np.inf
    viol = violation(g)
    converged = False
    it = 0
    for it in range(1, opts.max_iters + 1):
        q = tuple(qi + sig_base * pi for qi, pi in zip(q, k1(gbar)))
        q = tuple(u / np.maximum(1.0, np.abs(u)) for u in q)
        z, t_ball, evals = _prox_dual_ball(z + sig_m * measure(gbar), sig_m, b,
                                           radius_distinct, t_ball)
        newton_steps += evals
        g_old = g
        g = g - tau * (k1t(q) + measure_adjoint(z))
        gbar = 2 * g - g_old
        if it % _CHECK_EVERY == 0:
            obj = objective(g)
            viol = violation(g)
            rel_change = abs(obj - obj_prev) / max(abs(obj), 1e-30)
            obj_prev = obj
            if it >= 2 * _CHECK_EVERY and rel_change <= opts.primal_tol and viol <= viol_tol:
                converged = True
                break

    report = SolverReport(
        iterations=it,
        primal_residual=float(rel_change),
        constraint_violation=float(violation(g)),
        objective=float(objective(g)),
        converged=converged,
        newton_steps=newton_steps,
    )
    return g, report


def tv_min_reconstruct(y, plan, opts=None):
    """Minimize the anisotropic TV of g subject to the data-fit ball.

    Returns the reconstructed image and a :class:`SolverReport`;
    non-convergence within ``max_iters`` is reported, never raised.
    """
    opts = opts or SolverOptions()

    def k1(g):
        return (g[1:, :] - g[:-1, :], g[:, 1:] - g[:, :-1])

    def k1t(q):
        return gradient_adjoint(q[0], q[1])

    return _solve(y, plan, opts, k1, k1t, 3.0)  # ||grad||^2 <= 8


def l1_haar_reconstruct(y, plan, opts=None):
    """Minimize the l1 norm of the Haar coefficients of g subject to the ball."""
    opts = opts or SolverOptions()

    def k1(g):
        return (haar_forward(g),)

    def k1t(q):
        return haar_inverse(q[0])

    return _solve(y, plan, opts, k1, k1t, np.sqrt(2.0))  # Haar is unitary


def add_noise(clean, plan, eps, model="weighted", seed=0):
    """Corrupt measurements with complex Gaussian noise of exact level eps.

    The noise vector is rescaled so that ||rho o xi||_2 (weighted model) or
    ||xi||_2 (unweighted model) equals eps * sqrt(m) exactly; eps = 0
    returns the input unchanged.
    """
    if model not in ("weighted", "unweighted"):
        raise ValueError(f"model must be weighted|unweighted, got {model!r}")
    clean = np.asarray(clean, dtype=np.complex128).ravel()
    if clean.size != plan.m:
        raise ValueError(f"measurement length {clean.size} != plan.m = {plan.m}")
    if eps == 0:
        return clean.copy()
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal(plan.m) + 1j * rng.standard_normal(plan.m)
    w = plan.rho * xi if model == "weighted" else xi
    return clean + xi * (eps * np.sqrt(plan.m) / np.linalg.norm(w))
