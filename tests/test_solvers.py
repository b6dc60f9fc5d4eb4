import dataclasses
import functools

import numpy as np
import pytest

from conftest import full_grid_plan, haar_atom_2d, haar_indices
from vdfourier import solvers
from vdfourier.image_core import best_s_term_error, gradient, lp_norm, tv_norm
from vdfourier.phantoms import compressible_scene, rect_phantom, shepp_logan
from vdfourier.sampling import SamplingPlan, density_inverse_square, density_power_law, draw_plan
from vdfourier.solvers import (
    SolverOptions,
    add_noise,
    l1_haar_reconstruct,
    tv_min_reconstruct,
)
from vdfourier.transforms import (
    dft2_forward,
    fft2_unphased,
    haar_forward,
    partial_dft,
    partial_dft_adjoint,
)

FAST = SolverOptions(max_iters=6000)
# tight enough that a converged run sits within ~1e-6 of the optimal objective
TIGHT = SolverOptions(max_iters=20000, primal_tol=1e-8, dual_tol=1e-8)


def relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def data_scale(y, plan, opts):
    """S = ||d o y|| + eps sqrt(m), the scale of the solver's feasibility tolerance dual_tol * S."""
    d = plan.rho if opts.noise_model == "weighted" else 1.0
    return np.linalg.norm(d * y) + opts.epsilon * np.sqrt(plan.m)


# ---------------------------------------------------------------------------
# exact identities

def test_tv_full_sampling_recovers_random_image(rng):
    n = 16
    f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    plan = full_grid_plan(n, rho_value=n)
    y = partial_dft(f, plan)
    g, report = tv_min_reconstruct(y, plan, FAST)
    assert relative_error(g, f) <= 1e-6
    assert report.converged


def test_haar_full_sampling_recovers_random_image(rng):
    n = 16
    f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    plan = full_grid_plan(n, rho_value=n)
    y = partial_dft(f, plan)
    g, report = l1_haar_reconstruct(y, plan, FAST)
    assert relative_error(g, f) <= 1e-6
    assert report.converged and report.aa_steps == 0  # Haar solves take no Anderson steps


def test_tv_dc_only_recovers_constant():
    n = 8
    f = np.full((n, n), 0.7)
    plan = SamplingPlan(n=n, freqs=np.array([[0, 0]]), rho=np.ones(1))
    y = partial_dft(f, plan)
    g, report = tv_min_reconstruct(y, plan, FAST)
    assert relative_error(g, f) <= 1e-6
    assert report.converged


# ---------------------------------------------------------------------------
# compressive recovery regressions

def test_tv_phantom_recovery_40pct():
    n = 32
    f = rect_phantom(n, seed=0)
    assert sum(np.count_nonzero(part) for part in gradient(f)) == 40
    plan = draw_plan(density_inverse_square(n), 410, seed=100)
    y = partial_dft(f, plan)
    g, report = tv_min_reconstruct(y, plan, TIGHT)
    assert report.converged
    assert relative_error(g, f) <= 1e-3
    # minimality witness: the truth is feasible at eps = 0
    assert report.objective <= tv_norm(f) * (1 + 1e-5)


def test_haar_single_atom_recovery_50pct():
    n = 32
    p = 5
    f = 3.0 * haar_atom_2d(p, haar_indices(p)[37])
    plan = draw_plan(density_inverse_square(n), 512, seed=11)
    y = partial_dft(f, plan)
    g, report = l1_haar_reconstruct(y, plan, TIGHT)
    assert report.converged
    assert relative_error(g, f) <= 1e-3
    assert report.objective <= lp_norm(haar_forward(f), 1) * (1 + 1e-5)


def test_haar_weighted_noise_error_level():
    n = 32
    p = 5
    f = rect_phantom(n, seed=3)
    plan = draw_plan(density_inverse_square(n), 512, seed=12)
    clean = partial_dft(f, plan)
    eps = 0.1
    y = add_noise(clean, plan, eps, model="weighted", seed=5)
    opts = SolverOptions(max_iters=8000, noise_model="weighted", epsilon=eps)
    g, report = l1_haar_reconstruct(y, plan, opts)
    # error tracks the noise level; envelope constant recorded as 0.17/0.1
    assert relative_error(g, f) <= 0.3 * eps


# ---------------------------------------------------------------------------
# noise generation

def test_add_noise_zero_eps_is_identity():
    # eps = 0 takes the general path: the noise is scaled by 0 and added
    plan = draw_plan(density_inverse_square(8), 10, seed=0)
    clean = np.arange(10) * (1 - 2j) - 4
    for model in ("weighted", "unweighted"):
        y = add_noise(clean, plan, 0.0, model=model)
        assert np.array_equal(y, clean) and y is not clean


@pytest.mark.parametrize("model", ["weighted", "unweighted"])
def test_add_noise_exact_level(model):
    plan = draw_plan(density_inverse_square(8), 50, seed=1)
    clean = np.zeros(50, dtype=complex)
    eps = 0.37
    y = add_noise(clean, plan, eps, model=model, seed=9)
    xi = y - clean
    scaled = plan.rho * xi if model == "weighted" else xi
    assert np.linalg.norm(scaled) == pytest.approx(eps * np.sqrt(50), rel=1e-12)


@pytest.mark.parametrize("eps", [-0.1, np.nan, np.inf])
def test_add_noise_rejects_negative_or_nonfinite_eps(eps):
    plan = draw_plan(density_inverse_square(8), 20, seed=1)
    with pytest.raises(ValueError, match="eps"):
        add_noise(np.zeros(20, dtype=complex), plan, eps)


def test_add_noise_defaults_to_the_solver_noise_model():
    plan = draw_plan(density_inverse_square(8), 20, seed=1)
    clean = np.ones(20, dtype=complex)
    assert np.array_equal(add_noise(clean, plan, 0.2, seed=7),
                          add_noise(clean, plan, 0.2, model="unweighted", seed=7))


def test_add_noise_seed_reproducible():
    plan = draw_plan(density_inverse_square(8), 20, seed=1)
    clean = np.ones(20, dtype=complex)
    a = add_noise(clean, plan, 0.2, seed=123)
    b = add_noise(clean, plan, 0.2, seed=123)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# structural properties

def test_scaling_equivariance():
    n = 16
    f = rect_phantom(n, seed=2, side=6)
    plan = draw_plan(density_inverse_square(n), 150, seed=21)
    clean = partial_dft(f, plan)
    eps = 0.1
    y = add_noise(clean, plan, eps, model="weighted", seed=3)
    opts = SolverOptions(max_iters=8000, noise_model="weighted", epsilon=eps)
    g1, _ = tv_min_reconstruct(y, plan, opts)
    c = 3.5
    opts_scaled = SolverOptions(max_iters=8000, noise_model="weighted", epsilon=c * eps)
    g2, _ = tv_min_reconstruct(c * y, plan, opts_scaled)
    assert np.linalg.norm(g2 - c * g1) / np.linalg.norm(c * g1) <= 1e-3


def test_tv_shift_equivariance_with_dc_sample():
    n = 16
    f = rect_phantom(n, seed=4, side=6)
    plan = draw_plan(density_inverse_square(n), 160, seed=22)
    assert [0, 0] in plan.freqs.tolist()
    g1, _ = tv_min_reconstruct(partial_dft(f, plan), plan, FAST)
    c = 2.25
    g2, _ = tv_min_reconstruct(partial_dft(f + c, plan), plan, FAST)
    assert np.abs((g2 - g1) - c).max() <= 1e-4


def test_error_bound_envelope_gradient_compressible():
    # err <= C (sigma_s(grad f)_1 / sqrt(s) + eps) with one C for the suite
    n = 32
    s = 40
    ratios = []
    x = np.linspace(0, 1, n)
    wave = 0.02 * np.sin(4 * np.pi * x)[:, None] * np.cos(2 * np.pi * x)[None, :]
    for seed in range(10):
        f = rect_phantom(n, seed=seed) + wave
        plan = draw_plan(density_inverse_square(n), 410, seed=300 + seed)
        y = partial_dft(f, plan)
        g, _ = tv_min_reconstruct(y, plan, FAST)
        err = np.linalg.norm(g - f)
        diffs = np.concatenate([part.ravel() for part in gradient(f)])
        bound = best_s_term_error(diffs, s, 1) / np.sqrt(s)
        ratios.append(err / bound)
    assert max(ratios) <= 50.0


# ---------------------------------------------------------------------------
# adaptive primal weight

@functools.cache  # the scale-free and the ceiling test share the solves at scale 1
def _criterion_8_solves(scale):
    """Criterion 8's fixture (noise seed 1, the perfbench tv-weighted-n32 set-up) with the
    image, the data and eps all multiplied by ``scale``; one report per eps."""
    n = 32
    f = rect_phantom(n, seed=0)
    plan = draw_plan(density_inverse_square(n), 410, seed=1000)
    clean = partial_dft(f, plan)
    reports = []
    for eps in (0.05, 0.1, 0.2):
        y = add_noise(clean, plan, eps, model="weighted", seed=1)
        opts = SolverOptions(max_iters=20000, primal_tol=1e-7, noise_model="weighted",
                             step_balance=100.0, epsilon=scale * eps)
        g, report = tv_min_reconstruct(scale * y, plan, opts)
        assert report.converged
        assert relative_error(g, scale * f) <= 0.3 * eps
        reports.append(report)
    return tuple(reports)


def test_primal_weight_makes_iterations_scale_free():
    # a fixed step balance took 700 iterations at x10 and 10050 at x0.1
    iters = [r.iterations for scale in (0.1, 1.0, 10.0) for r in _criterion_8_solves(scale)]
    assert max(iters) <= 2 * min(iters), iters


def test_criterion_8_fixture_iteration_ceiling():
    # 3950/3500/2900 iterations at the fixed step balance of 100
    reports = _criterion_8_solves(1.0)
    assert max(r.iterations for r in reports) <= 2000, reports
    assert all(r.weight_updates >= 1 and r.primal_weight != 100.0 for r in reports)


def test_criterion_8_fixture_newton_steps_per_iteration():
    # eps 0.1: 1085 Newton steps in 500 iterations; Newton on phi from a bracket took 1676
    report = _criterion_8_solves(1.0)[1]
    assert report.iterations == 500
    assert report.newton_steps <= 2.5 * report.iterations, report


# ---------------------------------------------------------------------------
# options and reporting

def test_solver_reports_nonconvergence():
    n = 16
    f = rect_phantom(n, seed=1, side=6)
    plan = draw_plan(density_inverse_square(n), 100, seed=5)
    y = partial_dft(f, plan)
    g, report = tv_min_reconstruct(y, plan, SolverOptions(max_iters=100))
    assert not report.converged
    assert report.iterations == 100


def test_solver_deterministic():
    n = 16
    f = rect_phantom(n, seed=6, side=6)
    plan = draw_plan(density_inverse_square(n), 120, seed=6)
    y = partial_dft(f, plan)
    g1, r1 = tv_min_reconstruct(y, plan, FAST)
    g2, r2 = tv_min_reconstruct(y, plan, FAST)
    assert np.array_equal(g1, g2)
    assert r1 == r2


def test_solver_option_validation():
    with pytest.raises(ValueError):
        SolverOptions(noise_model="other")
    with pytest.raises(ValueError):
        SolverOptions(epsilon=-1.0)


def test_solver_rejects_disagreeing_duplicates():
    # the spread of repeated samples alone breaks the eps = 0 ball
    n = 8
    plan = SamplingPlan(n=n, freqs=np.array([[1, 2], [1, 2], [0, 0]]), rho=np.ones(3))
    y = np.array([1.0, 2.0, 0.5], dtype=complex)
    with pytest.raises(ValueError, match="repeated samples"):
        tv_min_reconstruct(y, plan)


@functools.cache
def _witness():
    """The default-stop witness's plan and clean data: rect_phantom(64), inverse-square,
    m 819, plan seed 0; 406 of the 819 draws are distinct."""
    plan = draw_plan(density_inverse_square(64), 819, seed=0)
    return plan, partial_dft(rect_phantom(64), plan)


@pytest.mark.parametrize("scale", [5e9, 2.0**40], ids=["x5e9", "x2^40"])
@pytest.mark.parametrize("solve", [tv_min_reconstruct, l1_haar_reconstruct])
def test_feasibility_tolerance_scales_with_the_data(solve, scale):
    # a tolerance of 1e-6 sqrt(m) took the rounding of the means of identical repeated
    # samples (3.6e-5 at x5e9) for a disagreement and raised
    plan, y = _witness()
    opts = SolverOptions()
    _, report = solve(scale * y, plan, opts)
    assert report.converged
    assert report.constraint_violation <= 1e-12 * data_scale(scale * y, plan, opts)


@pytest.mark.parametrize("solve", [tv_min_reconstruct, l1_haar_reconstruct])
def test_small_data_with_disagreeing_repeats_are_rejected(solve):
    # eps = 0 and one draw of the most-repeated frequency off by half: infeasible at any
    # scale, which a tolerance of 1e-6 sqrt(m) missed at x1e-6
    plan, y = _witness()
    y = 1e-6 * y
    y[np.argmax(plan.lin == np.bincount(plan.lin).argmax())] *= 1.5
    with pytest.raises(ValueError, match="repeated samples disagree"):
        solve(y, plan)


@pytest.mark.parametrize("n, m", [(16, 150), (64, 600)])  # n = 64 stops inside complex64
@pytest.mark.parametrize("model", ["weighted", "unweighted"])
def test_constraint_violation_matches_public_operator(model, n, m):
    f = rect_phantom(n, seed=7, side=6)
    plan = draw_plan(density_inverse_square(n), m, seed=23)
    assert len(np.unique(plan.freqs, axis=0)) < plan.m
    eps = 0.1
    radius = eps * np.sqrt(plan.m)
    y = add_noise(partial_dft(f, plan), plan, eps, model=model, seed=4)
    opts = SolverOptions(max_iters=10, noise_model=model, epsilon=eps)
    d = plan.rho if model == "weighted" else 1.0
    for solve in (tv_min_reconstruct, l1_haar_reconstruct):
        g, report = solve(y, plan, opts)
        want = max(0.0, np.linalg.norm(d * (partial_dft(g, plan) - y)) - radius)
        assert want <= 1e-12 * radius  # feasible already after 10 iterations
        assert report.constraint_violation == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("solve", [tv_min_reconstruct, l1_haar_reconstruct])
def test_converged_implies_feasible(monkeypatch, solve):
    # a fault that offsets the spectrum the data-fit check sees must turn a solve whose
    # stopping rule fires into a reported non-convergence, not a converged infeasible image
    n = 16
    f = rect_phantom(n, seed=7, side=6)
    plan = draw_plan(density_inverse_square(n), 150, seed=23)
    y = add_noise(partial_dft(f, plan), plan, 0.1, model="weighted", seed=4)
    opts = SolverOptions(max_iters=2000, noise_model="weighted", epsilon=0.1)
    assert solve(y, plan, opts)[1].converged
    monkeypatch.setattr(solvers, "dft2_forward", lambda g: dft2_forward(g) + 1.0)
    _, report = solve(y, plan, opts)
    assert report.iterations < opts.max_iters  # the objective-change test still fired
    assert not report.converged
    assert report.constraint_violation > 0


@pytest.mark.parametrize("eps", [np.nan, np.inf, True, np.True_])
def test_solver_options_reject_nonfinite_epsilon(eps):
    with pytest.raises(ValueError, match="epsilon"):
        SolverOptions(epsilon=eps)


@pytest.mark.parametrize("field, value", [
    ("max_iters", 0), ("max_iters", -5), ("max_iters", 2.5), ("max_iters", "300"),
    ("max_iters", True),
    ("primal_tol", np.nan), ("primal_tol", 0.0), ("primal_tol", True), ("primal_tol", np.True_),
    ("dual_tol", -1.0), ("dual_tol", np.inf), ("dual_tol", True), ("dual_tol", np.True_),
    ("step_balance", 0.0), ("step_balance", -np.inf), ("step_balance", np.nan),
    ("step_balance", True), ("step_balance", np.True_),
])
def test_solver_options_reject_bad_iteration_controls(field, value):
    with pytest.raises(ValueError, match=field):
        SolverOptions(**{field: value})


# ---------------------------------------------------------------------------
# precision phases

PRECISION_CASES = {
    "haar-64": lambda: (l1_haar_reconstruct, compressible_scene(64),
                        draw_plan(density_power_law(64, 1.0), 410, seed=2), SolverOptions()),
    "haar-128": lambda: (l1_haar_reconstruct, compressible_scene(128),
                         draw_plan(density_power_law(128, 1.0), 1638, seed=0), SolverOptions()),
    "tv-64": lambda: (tv_min_reconstruct, compressible_scene(64),
                      draw_plan(density_power_law(64, 2.0), 614, seed=4242), SolverOptions()),
    "tv-64-weighted": lambda: (tv_min_reconstruct, shepp_logan(64),
                               draw_plan(density_inverse_square(64), 614, seed=7),
                               SolverOptions(noise_model="weighted", epsilon=0.05)),
}


def _precision_case(name):
    solve, f, plan, opts = PRECISION_CASES[name]()
    y = add_noise(partial_dft(f, plan), plan, opts.epsilon, model=opts.noise_model, seed=1)
    return solve, y, plan, opts


@pytest.mark.parametrize("name", PRECISION_CASES)
def test_complex64_phase_stops_where_the_complex128_run_does(monkeypatch, name):
    solve, y, plan, opts = _precision_case(name)
    g, report = solve(y, plan, opts)
    monkeypatch.setattr(solvers, "_SINGLE_MIN_N", plan.n + 1)
    _, ref = solve(y, plan, opts)
    assert ref.single_iterations == 0 < report.single_iterations < report.iterations
    assert abs(report.iterations - ref.iterations) <= solvers._CHECK_EVERY
    assert report.objective == pytest.approx(ref.objective, rel=1e-6)
    assert g.dtype == np.complex128
    assert report.converged
    assert report.constraint_violation <= opts.dual_tol * data_scale(y, plan, opts)


@pytest.mark.parametrize("solve", [tv_min_reconstruct, l1_haar_reconstruct])
def test_small_grids_run_in_complex128_only(monkeypatch, solve):
    n = 32
    f = rect_phantom(n, seed=3, side=10)
    plan = draw_plan(density_inverse_square(n), 410, seed=3)
    y = add_noise(partial_dft(f, plan), plan, 0.05, model="weighted", seed=1)
    opts = SolverOptions(noise_model="weighted", epsilon=0.05)
    g, report = solve(y, plan, opts)
    monkeypatch.setattr(solvers, "_SINGLE_MIN_N", 10**9)
    g_off, report_off = solve(y, plan, opts)
    assert report.single_iterations == 0
    assert np.array_equal(g, g_off) and report == report_off


def test_a_stop_test_passed_in_complex64_only_switches():
    # the objective-change test at the switch never ends a solve: stopping there, or at a
    # primal_tol above the switch level, needs two more checks in complex128; capped at the
    # switch, the solve hands its last iteration to complex128
    solve, y, plan, opts = _precision_case("haar-64")
    switch = solve(y, plan, opts)[1].single_iterations
    g, cut = solve(y, plan, SolverOptions(max_iters=switch))
    assert (cut.iterations, cut.single_iterations, cut.converged) == (switch, switch - 1, False)
    assert g.dtype == np.complex128
    _, loose = solve(y, plan, SolverOptions(primal_tol=1e-2))
    assert loose.converged
    assert loose.iterations >= loose.single_iterations + 2 * solvers._CHECK_EVERY


@functools.cache
def _uncapped_switch(name):
    solve, y, plan, opts = _precision_case(name)
    return solve(y, plan, opts)[1].single_iterations


@pytest.mark.parametrize("cap", [lambda s: 1, lambda s: 51, lambda s: s - 1, lambda s: s,
                                 lambda s: s + 1], ids=["1", "51", "s-1", "s", "s+1"])
@pytest.mark.parametrize("name", ["haar-64", "tv-64-weighted"])
def test_every_capped_solve_ends_on_a_complex128_projection(name, cap):
    # s: the uncapped solve's complex64 iterations; whatever the cap, the last iteration runs
    # in complex128, so the returned image is a complex128 projection onto the data ball
    s = _uncapped_switch(name)
    solve, y, plan, opts = _precision_case(name)
    cap = cap(s)
    g, report = solve(y, plan, dataclasses.replace(opts, max_iters=cap))
    assert g.dtype == np.complex128
    assert (report.iterations, report.single_iterations) == (cap, min(cap - 1, s))
    assert not report.converged
    assert report.constraint_violation <= opts.dual_tol * data_scale(y, plan, opts)
    if opts.epsilon > 0:
        assert report.constraint_violation <= 1e-12 * opts.epsilon * np.sqrt(plan.m)


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("solve, seminorm", [
    (tv_min_reconstruct, tv_norm),
    (l1_haar_reconstruct, lambda g: lp_norm(haar_forward(g), 1)),
], ids=["tv", "haar"])
def test_a_solve_returns_an_image_it_does_not_share(solve, seminorm, n):
    # the image is a copy of the last trial point, not a view of the solver's arrays: it owns
    # its data, keeps none of them alive, and is the image the report's objective measures;
    # n = 64 runs a complex64 phase first, n = 16 runs in complex128 only
    f = rect_phantom(n, seed=5, side=n // 4)
    plan = draw_plan(density_inverse_square(n), n * n // 5, seed=3)
    opts = SolverOptions(noise_model="weighted", epsilon=0.05)
    y = add_noise(partial_dft(f, plan), plan, opts.epsilon, model=opts.noise_model, seed=2)
    g, report = solve(y, plan, opts)
    assert g.base is None and g.dtype == np.complex128
    assert (report.single_iterations > 0) == (n >= solvers._SINGLE_MIN_N)
    assert report.objective == seminorm(g)
    kept = g.copy()
    solve(y, plan, opts)
    assert np.array_equal(g, kept)


@pytest.mark.parametrize("cap", [None, 60, 110])
def test_no_anderson_step_reads_a_move_from_before_the_precision_switch(monkeypatch, cap):
    # each precision phase makes its ring of moves afresh, so a step may mix only moves made
    # in its own phase: the last _AA_MOVES projections (one per iteration, after one before the
    # loop) before every step share a dtype. Capped at 60 and 110, the complex64 phase runs to
    # the cap - 1, and the last iteration would reach a step on an epoch count alone
    project, mix = solvers._project_ball, solvers._anderson_step
    dtypes, steps = [], []

    def spy_project(v, lin, w, ybar, r, t, out):
        dtypes.append(out.dtype)
        return project(v, lin, w, ybar, r, t, out)

    def spy_mix(z, moves, newest, weight):
        steps.append(len(dtypes) - 1)  # the iteration of the step
        return mix(z, moves, newest, weight)

    monkeypatch.setattr(solvers, "_project_ball", spy_project)
    monkeypatch.setattr(solvers, "_anderson_step", spy_mix)
    solve, y, plan, opts = _precision_case("tv-64-weighted")
    if cap is not None:
        opts = dataclasses.replace(opts, max_iters=cap)
    _, report = solve(y, plan, opts)
    assert steps and len(steps) == report.aa_steps
    for it in steps:
        assert len(set(dtypes[it - solvers._AA_MOVES + 1:it + 1])) == 1, it


def test_newton_steps_counts_prox_work():
    n = 16
    f = rect_phantom(n, seed=7, side=6)
    plan = draw_plan(density_inverse_square(n), 150, seed=23)
    clean = partial_dft(f, plan)
    _, exact = tv_min_reconstruct(clean, plan, SolverOptions(max_iters=200))
    assert exact.newton_steps == 0
    y = add_noise(clean, plan, 0.1, model="weighted", seed=4)
    opts = SolverOptions(max_iters=200, noise_model="weighted", epsilon=0.1)
    _, noisy = tv_min_reconstruct(y, plan, opts)
    assert noisy.newton_steps > 0


@pytest.mark.parametrize("solve", [tv_min_reconstruct, l1_haar_reconstruct])
def test_zero_image_inside_the_ball_takes_the_inside_branch_throughout(solve):
    # eps so large that the zero image is feasible: every projection copies its input into
    # the trial image unchanged and solves for no root
    n = 16
    f = rect_phantom(n, seed=7, side=6)
    plan = draw_plan(density_inverse_square(n), 150, seed=23)
    y = partial_dft(f, plan)
    opts = SolverOptions(max_iters=500, epsilon=np.linalg.norm(y))  # radius ||y|| sqrt(m)
    g, report = solve(y, plan, opts)
    assert report.converged
    assert report.objective == 0.0 and report.newton_steps == 0
    assert np.all(g == 0)
    kept = g.copy()
    solve(y, plan, SolverOptions(max_iters=200))
    assert np.array_equal(g, kept)


def _zero_image_nearly_feasible(model):
    """Criterion 8's plan with clean data and eps at 0.95 of the level at which the zero image
    meets the ball; a constant image is feasible there (residual 0.949 r unweighted, 0.996 r
    weighted), so the minimum TV is 0."""
    n = 32
    plan = draw_plan(density_inverse_square(n), 410, seed=1000)
    y = partial_dft(rect_phantom(n, seed=0), plan)
    d = plan.rho if model == "weighted" else 1.0
    return y, plan, 0.95 * np.linalg.norm(d * y) / np.sqrt(plan.m)


def test_projection_inside_branch_returns_its_input(monkeypatch):
    # about two thirds of this solve's steps land inside the ball, where the projection must
    # return its input unchanged; with the step's spectrum left in ``out`` instead, the TV
    # objective after 3000 iterations is 19.7, not 0.029
    y, plan, eps = _zero_image_nearly_feasible("unweighted")
    project = solvers._project_ball
    inside = []

    def fit(image, lin, w, ybar):
        return np.linalg.norm(np.sqrt(w) * (fft2_unphased(image).ravel()[lin] - ybar))

    def checked(v, lin, w, ybar, r, t, out):
        v_in = v.copy()
        result = project(v, lin, w, ybar, r, t, out)
        if fit(v_in, lin, w, ybar) <= r * (1 - 1e-9):  # clear of the boundary's rounding
            inside.append(v_in.any())
            assert np.array_equal(out, v_in)
        assert fit(out, lin, w, ybar) <= r * (1 + 1e-9)
        return result

    monkeypatch.setattr(solvers, "_project_ball", checked)
    tv_min_reconstruct(y, plan, SolverOptions(max_iters=300, epsilon=eps))
    assert sum(inside) >= 100  # steps inside the ball, none of them the zero image


@pytest.mark.xfail(strict=True, reason="the objective-change stop cannot fire when the minimum "
                   "TV is 0: the objective only decays toward 0, by about 5 % per check")
@pytest.mark.parametrize("model", ["unweighted", "weighted"])
def test_tv_converges_when_a_constant_image_is_feasible(model):
    y, plan, eps = _zero_image_nearly_feasible(model)
    opts = SolverOptions(max_iters=2000, epsilon=eps, noise_model=model)
    assert tv_min_reconstruct(y, plan, opts)[1].converged


@pytest.mark.parametrize("f, m", [(rect_phantom(32), 102), (rect_phantom(64), 819),
                                  (shepp_logan(128), 3276)],
                         ids=["rect-32", "rect-64", "shepp-logan-128"])
def test_default_tv_stop_is_not_above_the_truth(f, m):
    # eps = 0, so the truth is feasible and a converged solve may not end above its TV. Plan
    # seed 0 is named, not chosen (seed 1 happens to pass rect-64, +6.3e-6). Without Anderson
    # steps these stopped at 3250/3850/2050 iterations, +1.1e-5/+3.6e-4/+2.6e-5 above the truth
    plan = draw_plan(density_inverse_square(len(f)), m, seed=0)
    _, report = tv_min_reconstruct(partial_dft(f, plan), plan, SolverOptions())
    assert report.converged
    assert report.objective <= tv_norm(f) * (1 + 1e-5)


@pytest.mark.parametrize("n, eps, model", [
    (16, 0.0, "unweighted"), (16, 0.0, "weighted"), (16, 0.1, "unweighted"), (16, 0.1, "weighted"),
    (32, 0.0, "unweighted"), (32, 0.0, "weighted"), (32, 0.1, "unweighted"), (32, 0.1, "weighted"),
    (64, 0.1, "weighted"),  # takes Anderson steps in the complex64 phase: 700 (350) iterations
])
def test_default_tv_stop_is_near_a_tight_reference(n, eps, model):
    # plan and noise seed 0 in every case, named, not chosen; the objective may not stop more
    # than 1e-5 away from that of a solve at primal_tol 1e-12
    f = rect_phantom(n, side=n // 4 + 2)
    plan = draw_plan(density_inverse_square(n), int(0.4 * n * n), seed=0)
    y = add_noise(partial_dft(f, plan), plan, eps, model=model, seed=0)
    opts = SolverOptions(noise_model=model, epsilon=eps)
    _, report = tv_min_reconstruct(y, plan, opts)
    _, ref = tv_min_reconstruct(y, plan, dataclasses.replace(opts, primal_tol=1e-12))
    assert report.converged and ref.converged and report.aa_steps > 0
    assert abs(report.objective - ref.objective) <= 1e-5 * ref.objective


def test_add_noise_rejects_a_bad_model():
    plan = draw_plan(density_inverse_square(8), 30, seed=8)
    with pytest.raises(ValueError, match="model must be weighted|unweighted"):
        add_noise(np.zeros(30, dtype=complex), plan, 0.1, model="other")


@pytest.mark.parametrize("consume", [lambda y, plan: add_noise(y, plan, 0.1),
                                     partial_dft_adjoint, tv_min_reconstruct],
                         ids=["add_noise", "partial_dft_adjoint", "tv_min_reconstruct"])
def test_every_consumer_checks_a_measurement_vector_alike(consume):
    plan = draw_plan(density_inverse_square(8), 30, seed=8)
    with pytest.raises(ValueError, match="measurement length 29 != plan.m = 30"):
        consume(np.zeros(29, dtype=complex), plan)
    for bad in (np.nan, np.inf):
        y = np.zeros(30, dtype=complex)
        y[4] = bad
        with pytest.raises(ValueError, match="non-finite"):
            consume(y, plan)
