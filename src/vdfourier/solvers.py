"""Constrained TV and l1-Haar reconstruction from partial Fourier data.

Both programs minimize a seminorm subject to the weighted data-fit ball

    || rho o (F_Omega g - y) ||_2 <= eps * sqrt(m)        (weighted)
    ||        F_Omega g - y  ||_2 <= eps * sqrt(m)        (unweighted)

via a primal-dual splitting (PDHG, Chambolle & Pock 2011), over-relaxed as in Condat (2013).
Repeated draws are merged first: with W_k the sum of rho_j^2 over the draws of frequency k and
ybar_k their weighted mean, the ball becomes ||sqrt(W) o (F_K g - ybar)|| <= sqrt(r^2 - C) over the
distinct frequencies K, where C is the weighted spread of the repeated samples about their means.
The rows of F_K are orthonormal, so the projection onto that ball is one FFT pair plus a scalar
Newton iteration in its multiplier; the merged data are rotated into the FFT's frame once per solve,
so it applies no phase. It closes every primal step, so every reported iterate is feasible (the
relaxed one may leave the ball if eps > 0), and the one dual block lives on the range of the
gradient (TV) or the Haar transform, whose closed-form norms L = sqrt(8) and 1 set the steps
tau = 1/(omega*L) and sigma = omega/L. The primal weight omega adapts, so the iteration count
depends little on the scale of the data. One check every 50 iterations decides the epoch end, the
precision switch and the stop. It takes the residual
r = sqrt(omega ||gt - g||^2 + ||qt - q||^2 / omega), as an epoch's first iteration does (r0), and
the objective's relative change since the previous check. The epoch ends with PDLP's update without
its half-log smoothing, omega <- ||dq|| / ||dg|| (Applegate et al. 2021, arXiv 2106.04756), (dg, dq)
the move since the last update, when r <= 0.2 r0 or the epoch has run 0.36 of all iterations (two of
r2HPDHG's restart rules, Lu & Yang 2024, arXiv 2407.16144); the iterates are not moved. The solve
stops at a change <= ``primal_tol``. Every 10th iteration, TV solves also mix their last 6 moves
(Anderson 1965; the type-II step of Walker & Ni 2011): weights that sum to 1 solve a 6 x 6 system,
and the state moves to that combination of the states after each move. The memory is cleared at each
weight update and at the precision switch; steps are 10 iterations apart, so each reads only moves
made after the previous one. The solve returns a new array, whose data fit is then measured once,
with ``dft2_forward``, independently of the projection. Each PDHG state z = (g, q) (the iterate, the
trial point, the restart reference and each slot of the ring of moves) is one array made once per
precision phase, so the move, the relaxation and the restart copy are one operation each; every
iteration runs in them through the ``out`` arguments of the FFT pair, the projection and the
transforms, with the operations and their order of the allocating calls, so the iterates are
bit for bit those of the allocating form. For n >= 64 they start in complex64 and are copied once to
complex128 at the first check whose objective change is <= max(1e-4, ``primal_tol``), or after
``max_iters - 1`` iterations; only complex128 checks stop a solve, and the last iteration always
runs in complex128. The draws, the Newton scalar, the objective and the norms stay in float64.
"""

import math
from dataclasses import dataclass

import numpy as np

from .image_core import gradient, gradient_adjoint, lp_norm
from .transforms import (
    _measurements,
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

_CHECK_EVERY = 50  # iterations between checks; > 1, so an epoch's first iteration is no check
_RELAX = 1.8  # over-relaxation of both blocks; converges for (0, 2) at tau*sigma*L**2 <= 1
# ends of a primal-weight epoch (module docstring)
_RESTART_SUFFICIENT = 0.2
_RESTART_ARTIFICIAL = 0.36
# complex64 from this side up; n = 32 stays complex128 to keep its stops (with complex64 two of
# six TV plans at primal_tol 1e-8 moved, 1450 -> 2000 and 3500 -> 2950 iterations), until the
# objective changes by at most this much: alone it stalls 2e-6-1.2e-5 above optimum
_SINGLE_MIN_N = 64
_SINGLE_UNTIL = 1e-4
# TV solves mix their last _AA_MOVES moves every _AA_EVERY >= _AA_MOVES iterations, so a step
# reads no move made before the previous step
_AA_EVERY = 10
_AA_MOVES = 6


@dataclass(frozen=True)
class SolverOptions:
    """Iteration controls for the primal-dual solvers.

    ``step_balance`` is the initial primal weight omega: the primal and dual
    steps tau = 1/(omega*L) and sigma = omega/L follow from the closed-form
    norm L of the gradient (sqrt(8), TV) or the Haar transform (1), so
    tau*sigma*L**2 = 1; omega then adapts (module docstring). ``primal_tol``
    bounds the relative objective change between two checks at which the
    solve stops. The data ball is met by projection, so ``dual_tol`` only sets the
    tolerance dual_tol * S, S = ||d o y|| + eps * sqrt(m) (d = rho weighted, 1 unweighted),
    of the data-fit check after the loop and of the repeated-sample spread check.
    ``epsilon`` is the noise level entering the radius eps * sqrt(m).
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
        if (isinstance(self.epsilon, (bool, np.bool_)) or not np.isfinite(self.epsilon)
                or self.epsilon < 0):
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon!r}")
        if (isinstance(self.max_iters, bool) or not isinstance(self.max_iters, (int, np.integer))
                or self.max_iters < 1):
            raise ValueError(f"max_iters must be an int >= 1, got {self.max_iters!r}")
        for name in ("primal_tol", "dual_tol", "step_balance"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)) or not np.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class SolverReport:
    """Outcome of one solve; every field is deterministic.

    ``iterations`` run; ``converged``: the stopping rule fired within ``max_iters`` and
    ``constraint_violation`` <= ``dual_tol`` * (||d o y|| + eps * sqrt(m)), the tolerance of
    :class:`SolverOptions`, so a converged image is feasible; ``objective``: the image's seminorm;
    ``primal_residual``: the relative objective change between the last two checks, not
    a residual (None until two complex128 checks have been compared); ``constraint_violation``:
    how far the returned image's data fit lies beyond the radius, measured once after the
    loop with ``dft2_forward`` independently of the projection; ``newton_steps``: the Newton
    steps on psi summed over every data-ball projection of the solve (one evaluation each);
    ``primal_weight``: the final omega; ``weight_updates``: the number of epochs ended;
    ``single_iterations``: the complex64 ones, at most ``iterations - 1`` when n >= 64, 0 below;
    ``aa_steps``: the Anderson steps taken (TV only; 0 for Haar).
    """

    iterations: int
    primal_residual: float | None
    constraint_violation: float
    objective: float
    converged: bool
    newton_steps: int
    primal_weight: float
    weight_updates: int
    single_iterations: int
    aa_steps: int


def _project_ball(v, lin, w, ybar, r, t, out):
    """Euclidean projection of the image v onto {g : ||sqrt(w) o ((F g)[lin] - ybar)|| <= r}.

    F is unitary, so the unsampled spectrum is kept and, with a = (F v)[lin] - ybar,
    (F g)[lin] = ybar + a/(1 + lam*w), lam the root of phi(lam) = sum w|a|^2/(1 + lam*w)^2
    = r^2 (v itself if phi(0) <= r^2). Newton on psi = r/sqrt(phi) - 1 (Moré & Sorensen 1983)
    runs from the warm start ``t`` (the previous root), clamped at 0 so 1 + lam*w > 0. psi is
    concave increasing for lam > -1/max(w): from the right of the root a step lands at or left of
    it, from the left Newton rises to it. The step is s*(sqrt(phi)/r - 1), s = 1/mean(w/(1 +
    lam*w)) >= lam + 1/max(w) (mean weighted by phi's terms); one <= 1e-7*s ends it, about
    1e-14*s from the root. The projection is written into ``out`` (complex, shaped like v, not
    v itself), where the FFT pair runs in place; returns ``(root, evals)`` (``t`` is passed
    through when no root is solved for). F is ``fft2_unphased``, in whose frame ``ybar`` is given.
    """
    s = fft2_unphased(v, out=out).ravel()
    if r == 0.0:
        s[lin] = ybar
        ifft2_unphased(out, out=out)
        return t, 0
    a = s[lin] - ybar
    wa2 = w * (a.real**2 + a.imag**2) / r**2  # phi / r^2 at lam = 0, termwise
    if wa2.sum() <= 1.0:
        np.copyto(out, v)
        return t, 0
    for evals in range(1, 81):
        inv = 1.0 / (1.0 + t * w)
        terms = wa2 * inv**2
        phi = terms.sum()
        scale = phi / np.dot(terms, w * inv)
        step = scale * (np.sqrt(phi) - 1.0)  # -psi/psi'
        t = max(t + step, 0.0)
        if abs(step) <= 1e-7 * scale:
            break
    s[lin] = ybar + a / (1.0 + t * w)
    ifft2_unphased(out, out=out)
    return t, evals


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


def _anderson_step(z, moves, newest, weight):
    """Anderson mixing (Anderson 1965) of the PDHG state z from a full ring of moves.

    With m_0 .. m_k the moves oldest first (m_k in slot ``newest``) and z_i the state after m_i,
    the alpha summing to 1 that minimize ||sum_i alpha_i m_i|| in the omega-metric (g by
    sqrt(omega), q by 1/sqrt(omega)) are a / sum(a) for (G + 1e-10 tr(G) I) a = 1, G the moves'
    Gram, and z = z_k moves to sum_i alpha_i z_i = z - sum_{i >= 1} (alpha_0 + ... + alpha_{i-1})
    m_i: the type-II step of Walker & Ni (2011) but for the ridge. The ring is not written.
    Returns 1, or 0 (no step) if the trace is not positive and finite.
    """
    k = len(moves)
    rows = moves.view(moves.real.dtype)  # real and imaginary parts side by side
    g_rows, q_rows = rows[:, 0].reshape(k, -1), rows[:, 1:].reshape(k, -1)
    gram = (weight * (g_rows @ g_rows.T) + (q_rows @ q_rows.T) / weight).astype(float)
    trace = np.trace(gram)
    if not 0 < trace < np.inf:
        return 0
    a = np.linalg.solve(gram + 1e-10 * trace * np.eye(k), np.ones(k))
    order = [(newest + 1 + i) % k for i in range(k)]  # oldest first
    coef = np.zeros(k)
    coef[order[1:]] = np.cumsum(a[order])[:-1] / a.sum()
    flat = z.view(rows.dtype).reshape(-1)
    flat -= coef.astype(rows.dtype) @ rows.reshape(k, -1)
    return 1


def _solve(y, plan, opts, k1, k1t, lip, anderson=False):
    """PDHG for min ||k1(g)||_1 s.t. ||d o (F_Omega g - y)|| <= eps*sqrt(m).

    The dual q is one array shaped like k1(g) (``k1`` has norm <= ``lip``; ``k1`` and ``k1t`` take
    an ``out`` array, which they fill without reading it). An iteration sets
    gt = P_C(g - tau*k1t(q)) (P_C: data-ball projection), qt = clip(q + sigma*k1(2*gt - g)), and
    z += _RELAX*(zt - z) for z = (g, q) and zt = (gt, qt), one array each; the move is written into
    the next slot of a ring. One check every _CHECK_EVERY iterations, before the relaxation,
    measures the move and the objective change and decides the epoch end; the change it sets decides
    the precision switch and the stop, after the relaxation and the Anderson step. With
    ``anderson``, the ring holds _AA_MOVES moves, and every _AA_EVERY-th iteration whose ring holds
    only moves made since the later of the last weight update and the precision switch mixes them
    into z by :func:`_anderson_step`. The loop exits with its last trial point (gt, qt), made in
    complex128. Checks, report and result use the feasible gt, and the solve returns a copy of it,
    an image that shares no loop array; the relaxed anchor g may leave the ball when eps > 0. The
    merged means are rotated once into the frame of the unphased FFT, where P_C works; the result's
    fit is measured with the phased ``dft2_forward``.
    """
    opts = opts or SolverOptions()
    y = _measurements(y, plan)
    n = plan.n
    radius = opts.epsilon * np.sqrt(plan.m)
    d2 = plan.rho.astype(float) ** 2 if opts.noise_model == "weighted" else np.ones(plan.m)
    viol_tol = opts.dual_tol * (lp_norm(np.sqrt(d2) * y, 2) + radius)

    lin, w, ybar, spread = _merge_draws(plan, y, d2)
    if np.sqrt(spread) - radius > viol_tol:
        raise ValueError(
            f"repeated samples disagree by {np.sqrt(spread):.6g}, more than the "
            f"data-fit radius {radius:.6g} allows"
        )
    radius_distinct = np.sqrt(max(radius**2 - spread, 0.0))
    ybar_u = ybar * sampled_phase(n, lin).conj()  # the means in the fft2_unphased frame

    qshape = k1(np.zeros((n, n), dtype=np.complex128)).shape  # (2, n, n) TV, (n*n,) Haar
    # made once per phase in its precision, image plane first: the state z = (g, q), the trial
    # point zt = (gt, qt), z_ref, the state at the last weight update, and a ring of the last
    # moves dz = zt - z (one slot without Anderson steps)
    z = np.zeros((1 + math.prod(qshape) // n**2, n, n), dtype=np.complex128)
    zt = np.zeros_like(z)
    t_ball, newton_steps = _project_ball(zt[0], lin, w, ybar_u, radius_distinct, 0.0, z[0])
    z_ref = z.copy()  # g = P_C(0), q = 0
    phases = ([(np.complex64, max(_SINGLE_UNTIL, opts.primal_tol), opts.max_iters - 1)]
              if n >= _SINGLE_MIN_N else [])

    slots = _AA_MOVES if anderson else 1
    weight = float(opts.step_balance)
    updates = aa_steps = it = 0
    start = 1  # first iteration of the current epoch
    for dtype, tol, last in phases + [(np.complex128, opts.primal_tol, opts.max_iters)]:
        first = it + 1  # first iteration of this phase, whose ring holds no earlier move
        z, zt, z_ref = (a.astype(dtype, copy=False) for a in (z, zt, z_ref))
        moves = np.empty((slots,) + z.shape, dtype=dtype)
        (g, q), (gt, qt) = ((a[0], a[1:].reshape(qshape)) for a in (z, zt))
        mag = np.empty(qshape, dtype=z.real.dtype)  # the dual step's modulus
        obj_prev = rel_change = np.inf  # no stop before two checks of this phase
        for it in range(it + 1, last + 1):
            dz = moves[it % slots]
            step = dz[0]  # the primal step, then 2*gt - g, until the move overwrites it
            tau, sigma = 1.0 / (weight * lip), weight / lip
            np.multiply(tau, k1t(q, out=step), out=step)
            np.subtract(g, step, out=step)  # g - tau*k1t(q)
            t_ball, evals = _project_ball(step, lin, w, ybar_u, radius_distinct, t_ball, gt)
            newton_steps += evals
            np.multiply(2, gt, out=step)
            np.subtract(step, g, out=step)  # 2*gt - g
            np.multiply(sigma, k1(step, out=qt), out=qt)
            np.add(q, qt, out=qt)  # q + sigma*k1(2*gt - g)
            # clipped by a real scale: cheaper than complex division
            np.abs(qt, out=mag)
            np.maximum(1.0, mag, out=mag)
            np.divide(1.0, mag, out=mag)
            qt *= mag
            np.subtract(zt, z, out=dz)
            if it == start or it % _CHECK_EVERY == 0:
                r = np.sqrt(weight * lp_norm(dz[0], 2) ** 2 + lp_norm(dz[1:], 2) ** 2 / weight)
                if it == start:
                    r0 = r
                else:  # a check: the objective change, then the epoch end
                    obj = lp_norm(k1(gt), 1)
                    rel_change = abs(obj - obj_prev) / max(abs(obj), 1e-30)
                    obj_prev = obj
                    if r <= _RESTART_SUFFICIENT * r0 or it - start + 1 >= _RESTART_ARTIFICIAL * it:
                        dg, dq = lp_norm(zt[0] - z_ref[0], 2), lp_norm(zt[1:] - z_ref[1:], 2)
                        # the full ratio dq/dg; weight and lip are Python floats, since an
                        # np.float64 step would run the complex64 products in complex128
                        if dg > 0 and dq > 0:
                            weight = dq / dg
                        np.copyto(z_ref, zt)
                        updates += 1
                        start = it + 1  # no step mixes moves made under two weights
            z += np.multiply(_RELAX, dz, out=dz)
            if anderson and it - max(start, first) + 1 >= slots and it % _AA_EVERY == 0:
                aa_steps += _anderson_step(z, moves, it % slots, weight)
            if rel_change <= tol:  # set at checks only
                break

    fit2 = float(np.sum(w * np.abs(dft2_forward(gt).ravel()[lin] - ybar) ** 2))
    violation = max(0.0, np.sqrt(fit2 + spread) - radius)
    return gt.copy(), SolverReport(
        iterations=it,
        primal_residual=None if rel_change == np.inf else float(rel_change),
        constraint_violation=float(violation),
        objective=float(lp_norm(k1(gt), 1)),
        converged=bool(rel_change <= opts.primal_tol  # true iff the loop stopped
                       and violation <= viol_tol),
        newton_steps=newton_steps,
        primal_weight=float(weight),
        weight_updates=updates,
        single_iterations=first - 1,  # the last phase is the complex128 one
        aa_steps=aa_steps,
    )


def tv_min_reconstruct(y, plan, opts=None):
    """Minimize the anisotropic TV of g subject to the data-fit ball.

    Returns the reconstructed image and a :class:`SolverReport`;
    non-convergence within ``max_iters`` is reported, never raised.
    """
    return _solve(y, plan, opts, gradient, gradient_adjoint, math.sqrt(8.0),  # ||grad||^2 <= 8
                  anderson=True)


def l1_haar_reconstruct(y, plan, opts=None):
    """Minimize the l1 norm of the Haar coefficients of g subject to the ball."""
    return _solve(y, plan, opts, haar_forward, haar_inverse, 1.0)  # Haar is unitary


def add_noise(clean, plan, eps, model=SolverOptions.noise_model, seed=0):
    """Corrupt measurements with complex Gaussian noise of exact level eps.

    The noise vector is rescaled so that ||rho o xi||_2 (weighted model) or ||xi||_2 (unweighted,
    the default ``SolverOptions.noise_model``) equals eps * sqrt(m) exactly; eps = 0 adds
    zeros. ``SolverOptions`` checks ``model`` and ``eps``; ``clean`` is m finite values.
    """
    SolverOptions(noise_model=model, epsilon=eps)
    clean = _measurements(clean, plan)
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal(plan.m) + 1j * rng.standard_normal(plan.m)
    w = plan.rho * xi if model == "weighted" else xi
    return clean + xi * (eps * np.sqrt(plan.m) / np.linalg.norm(w))
