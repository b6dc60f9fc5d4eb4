"""Constrained TV and l1-Haar reconstruction from partial Fourier data.

Both programs minimize a seminorm subject to the weighted data-fit ball

    || rho o (F_Omega g - y) ||_2 <= eps * sqrt(m)        (weighted)
    ||        F_Omega g - y  ||_2 <= eps * sqrt(m)        (unweighted)

via a primal-dual splitting (PDHG, Chambolle & Pock 2011), over-relaxed as in
Condat (2013). Repeated draws are merged first: with W_k the sum of rho_j^2
over the draws of frequency k and ybar_k their weighted mean, the ball becomes
||sqrt(W) o (F_K g - ybar)|| <= sqrt(r^2 - C) over the distinct frequencies K,
where C is the weighted spread of the repeated samples about their means. The
rows of F_K are orthonormal, so the projection onto that ball is one FFT pair
plus a scalar Newton iteration in its multiplier; the merged data are rotated
into the FFT's frame once per solve, so it applies no phase. It closes every
primal step, so every reported iterate is feasible (the relaxed one may leave
the ball if eps > 0), and the one dual block lives on the range of the gradient
(TV) or the Haar transform, whose closed-form norms L = sqrt(8) and 1 set the steps
tau = 1/(omega*L) and sigma = omega/L. The primal weight omega adapts, so the iteration
count depends little on the scale of the data. Each epoch ends with PDLP's update
omega <- sqrt(omega ||dq|| / ||dg||) (Applegate et al. 2021, arXiv 2106.04756), (dg, dq)
the move since the last update, at r2HPDHG's restart points (Lu & Yang 2024, arXiv
2407.16144): the residual r = sqrt(omega ||gt - g||^2 + ||qt - q||^2 / omega), taken at
an epoch's first iteration (r0) and at each check, is <= 0.2 r0, or <= 0.8 r0 and
rising, or the epoch has run 0.36 of all iterations. The iterates are not moved.
"""

from dataclasses import dataclass

import numpy as np
from numpy.linalg import norm

from .image_core import gradient, gradient_adjoint, lp_norm
from .transforms import (
    dft2_forward,
    fft2_unphased,
    haar_forward,
    haar_inverse,
    ifft2_unphased,
    sampled_phase,
)

__all__ = [
    "SolverOptions",
    "SolverReport",
    "tv_min_reconstruct",
    "l1_haar_reconstruct",
    "add_noise",
]

_CHECK_EVERY = 50  # iterations between objective/violation checks
_RELAX = 1.8  # over-relaxation of both blocks; converges for (0, 2) at tau*sigma*L**2 <= 1
# ends of a primal-weight epoch (module docstring)
_RESTART_SUFFICIENT = 0.2
_RESTART_NECESSARY = 0.8
_RESTART_ARTIFICIAL = 0.36


@dataclass(frozen=True)
class SolverOptions:
    """Iteration controls for the primal-dual solvers.

    ``step_balance`` is the initial primal weight omega: the primal and dual
    steps tau = 1/(omega*L) and sigma = omega/L follow from the closed-form
    norm L of the gradient (sqrt(8), TV) or the Haar transform (1), so
    tau*sigma*L**2 = 1; omega then adapts (module docstring). The data ball
    is met by projection, so ``dual_tol`` only scales the tolerances of the
    violation check in the stopping rule and of the repeated-sample spread
    check. ``epsilon`` is the noise level entering the radius eps * sqrt(m).
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
        if not isinstance(self.max_iters, (int, np.integer)) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an int >= 1, got {self.max_iters!r}")
        for name in ("primal_tol", "dual_tol", "step_balance"):
            if not np.isfinite(getattr(self, name)) or getattr(self, name) <= 0:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class SolverReport:
    """Outcome of one solve; every field is deterministic.

    ``iterations`` run, and whether the stopping rule ``converged`` within ``max_iters``;
    ``objective``: the seminorm of the returned image; ``primal_residual``: the relative
    objective change between the last two checks, not a residual; ``constraint_violation``:
    how far the returned image's data fit lies beyond the radius, measured with
    ``dft2_forward`` independently of the projection; ``newton_steps``: the Newton
    evaluations of phi summed over every data-ball projection of the solve;
    ``primal_weight``: the final omega; ``weight_updates``: the number of epochs ended.
    """

    iterations: int
    primal_residual: float
    constraint_violation: float
    objective: float
    converged: bool
    newton_steps: int
    primal_weight: float
    weight_updates: int


def _project_ball(v, lin, w, ybar, r, t):
    """Euclidean projection of the image v onto {g : ||sqrt(w) o ((F g)[lin] - ybar)|| <= r}.

    F is unitary, so the unsampled spectrum is kept and, with a = (F v)[lin] - ybar,
    (F g)[lin] = ybar + a/(1 + lam*w), lam the root of phi(lam) = sum w|a|^2/(1 + lam*w)^2
    = r^2 (v itself if phi(0) <= r^2). phi is convex decreasing and phi(lo) >= r^2 at
    lo = (sqrt(phi(0))/r - 1)/max(w). Newton starts at max(t, lo) for a warm start ``t``
    (the previous root): from the right of the root one step lands at or left of it
    (clamped to lo); from the left it converges monotonically. Returns ``(g, root,
    evals)`` (``t`` is passed through when no root is solved for). F is the unphased FFT
    ``fft2_unphased``: ``ybar`` is given in its frame, so no phase is applied here.
    """
    s = fft2_unphased(v).ravel()
    if r == 0.0:
        s[lin] = ybar
        return ifft2_unphased(s.reshape(v.shape)), t, 0
    a = s[lin] - ybar
    wa2 = w * (a.real**2 + a.imag**2) / r**2  # phi / r^2 at lam = 0, termwise
    phi0 = wa2.sum()
    if phi0 <= 1.0:
        return v, t, 0
    lo = (np.sqrt(phi0) - 1.0) / w.max()
    t = max(t, lo)
    for evals in range(1, 81):
        inv = 1.0 / (1.0 + t * w)
        terms = wa2 * inv**2
        phi = terms.sum()
        if abs(phi - 1.0) < 1e-13:
            break
        t = max(t + (phi - 1.0) / (2.0 * np.dot(terms, w * inv)), lo)
    s[lin] = ybar + a / (1.0 + t * w)
    return ifft2_unphased(s.reshape(v.shape)), t, evals


def _merge_draws(plan, y, d2):
    """Merge repeated draws: sum_j d2_j |x[lin_j] - y_j|^2 = sum_k w_k |x_k - ybar_k|^2 + spread.

    Returns the distinct storage positions ``lin``, their summed weights ``w``, the
    weighted means ``ybar`` and the weighted ``spread`` of the draws about them.
    """
    lin, inv = np.unique(plan.lin, return_inverse=True)
    w = np.bincount(inv, weights=d2)
    ybar = (np.bincount(inv, weights=d2 * y.real)
            + 1j * np.bincount(inv, weights=d2 * y.imag)) / w
    spread = float(np.sum(d2 * np.abs(y - ybar[inv]) ** 2))
    return lin, w, ybar, spread


def _solve(y, plan, opts, k1, k1t, lip):
    """PDHG for min ||k1(g)||_1 s.t. ||d o (F_Omega g - y)|| <= eps*sqrt(m).

    The dual q is one array shaped like k1(g) (``k1`` has norm <= ``lip``). An iteration sets
    gt = P_C(g - tau*k1t(q)) (P_C: data-ball projection), qt = clip(q + sigma*k1(2*gt - g)),
    and (g, q) += _RELAX*(gt - g, qt - q). Checks, report and result use the feasible gt;
    the relaxed anchor g may leave the ball when eps > 0. The merged means are rotated
    once into the frame of the unphased FFT, where P_C works; the violation check
    measures with the phased ``dft2_forward`` instead, independently of P_C.
    """
    y = np.asarray(y, dtype=np.complex128).ravel()
    if y.size != plan.m:
        raise ValueError(f"measurement length {y.size} != plan.m = {plan.m}")
    if not np.all(np.isfinite(y)):
        raise ValueError("measurements contain non-finite values")
    n = plan.n
    radius = opts.epsilon * np.sqrt(plan.m)
    viol_tol = opts.dual_tol * np.sqrt(plan.m) * max(opts.epsilon, 1.0)

    d2 = plan.rho.astype(float) ** 2 if opts.noise_model == "weighted" else np.ones(plan.m)
    lin, w, ybar, spread = _merge_draws(plan, y, d2)
    if np.sqrt(spread) - radius > viol_tol:
        raise ValueError(
            f"repeated samples disagree by {np.sqrt(spread):.6g}, more than the "
            f"data-fit radius {radius:.6g} allows"
        )
    radius_distinct = np.sqrt(max(radius**2 - spread, 0.0))
    ybar_u = ybar * sampled_phase(n, lin).conj()  # the means in the fft2_unphased frame

    def objective(g):
        return lp_norm(k1(g), 1)

    def violation(g):
        fit2 = float(np.sum(w * np.abs(dft2_forward(g).ravel()[lin] - ybar) ** 2))
        return max(0.0, np.sqrt(fit2 + spread) - radius)

    g, t_ball, newton_steps = _project_ball(np.zeros((n, n), dtype=np.complex128), lin, w,
                                            ybar_u, radius_distinct, 0.0)
    q = np.zeros_like(k1(g))
    g_ref, q_ref = g.copy(), q.copy()  # the iterates at the last weight update

    weight = opts.step_balance
    updates = 0
    start = 1  # first iteration of the current epoch
    obj_prev = objective(g)
    rel_change = np.inf
    converged = False
    for it in range(1, opts.max_iters + 1):
        tau, sigma = 1.0 / (weight * lip), weight / lip
        gt, t_ball, evals = _project_ball(g - tau * k1t(q), lin, w, ybar_u, radius_distinct,
                                          t_ball)
        newton_steps += evals
        qt = q + sigma * k1(2 * gt - g)  # clipped by a real scale: cheaper than complex division
        qt *= 1.0 / np.maximum(1.0, np.abs(qt))
        check = it % _CHECK_EVERY == 0
        if it == start or check:
            r = np.sqrt(weight * norm(gt - g) ** 2 + norm(qt - q) ** 2 / weight)
            if it == start:
                r0 = r_last = r
            elif (r <= _RESTART_SUFFICIENT * r0
                  or (r <= _RESTART_NECESSARY * r0 and r > r_last)
                  or it - start + 1 >= _RESTART_ARTIFICIAL * it):
                dg, dq = norm(gt - g_ref), norm(qt - q_ref)
                if dg > 0 and dq > 0:
                    weight = np.sqrt(weight * dq / dg)  # 1/2-log smoothing of dq/dg
                np.copyto(g_ref, gt)
                np.copyto(q_ref, qt)
                updates += 1
                start = it + 1
            else:
                r_last = r
        q += _RELAX * (qt - q)
        g += _RELAX * (gt - g)
        if check:
            obj = objective(gt)
            viol = violation(gt)
            rel_change = abs(obj - obj_prev) / max(abs(obj), 1e-30)
            obj_prev = obj
            if it >= 2 * _CHECK_EVERY and rel_change <= opts.primal_tol and viol <= viol_tol:
                converged = True
                break

    return gt, SolverReport(
        iterations=it,
        primal_residual=float(rel_change),
        constraint_violation=float(violation(gt)),
        objective=float(objective(gt)),
        converged=converged,
        newton_steps=newton_steps,
        primal_weight=float(weight),
        weight_updates=updates,
    )


def tv_min_reconstruct(y, plan, opts=None):
    """Minimize the anisotropic TV of g subject to the data-fit ball.

    Returns the reconstructed image and a :class:`SolverReport`;
    non-convergence within ``max_iters`` is reported, never raised.
    """
    opts = opts or SolverOptions()
    return _solve(y, plan, opts, gradient, gradient_adjoint, np.sqrt(8.0))  # ||grad||^2 <= 8


def l1_haar_reconstruct(y, plan, opts=None):
    """Minimize the l1 norm of the Haar coefficients of g subject to the ball."""
    opts = opts or SolverOptions()
    return _solve(y, plan, opts, haar_forward, haar_inverse, 1.0)  # Haar is unitary


def add_noise(clean, plan, eps, model="weighted", seed=0):
    """Corrupt measurements with complex Gaussian noise of exact level eps.

    The noise vector is rescaled so that ||rho o xi||_2 (weighted model) or
    ||xi||_2 (unweighted model) equals eps * sqrt(m) exactly; eps = 0
    returns the input unchanged.
    """
    if model not in ("weighted", "unweighted"):
        raise ValueError(f"model must be weighted|unweighted, got {model!r}")
    if not np.isfinite(eps) or eps < 0:
        raise ValueError(f"eps must be finite and >= 0, got {eps!r}")
    clean = np.asarray(clean, dtype=np.complex128).ravel()
    if clean.size != plan.m:
        raise ValueError(f"measurement length {clean.size} != plan.m = {plan.m}")
    if eps == 0:
        return clean.copy()
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal(plan.m) + 1j * rng.standard_normal(plan.m)
    w = plan.rho * xi if model == "weighted" else xi
    return clean + xi * (eps * np.sqrt(plan.m) / np.linalg.norm(w))
