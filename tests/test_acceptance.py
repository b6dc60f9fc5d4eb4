"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. Solver-based criteria share session fixtures so witness
checks reuse the same converged runs.
"""

import hashlib
import math
import time

import numpy as np
import pytest
from scipy.stats import mannwhitneyu

from conftest import fourier_haar_inner_1d_direct, full_grid_plan
from vdfourier.cli import main as cli_main
from vdfourier.coherence import (
    fourier_haar_inner_1d,
    kappa_l2,
    kappa_prime_table,
    kappa_table,
    local_coherence_exact,
    univariate_coherence_bound_check,
)
from vdfourier.image_core import lp_norm, tv_norm
from vdfourier.pgm import write_pgm
from vdfourier.phantoms import compressible_scene, rect_phantom, shepp_logan
from vdfourier.sampling import density_inverse_square, density_power_law, draw_plan
from vdfourier.solvers import (
    SolverOptions,
    add_noise,
    l1_haar_reconstruct,
    tv_min_reconstruct,
)
from vdfourier.transforms import haar_forward, partial_dft
from vdfourier.verify import build_preconditioned_matrix, isotropy_identity_error, rip_exact

TIGHT = SolverOptions(max_iters=20000, primal_tol=1e-8, dual_tol=1e-8)


def announce(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


def rel_err(got, truth):
    return float(np.linalg.norm(got - truth) / np.linalg.norm(truth))


# ---------------------------------------------------------------------------
# shared solver runs

@pytest.fixture(scope="session")
def phantom_suite():
    """Criterion 7 runs: 20 seeded phantom/plan pairs, TV at eps = 0."""
    n, m = 32, 410
    density = density_inverse_square(n)
    runs = []
    t0 = time.perf_counter()
    for seed in range(20):
        f = rect_phantom(n, seed=seed)
        plan = draw_plan(density, m, seed=1000 + seed)
        y = partial_dft(f, plan)
        recon, report = tv_min_reconstruct(y, plan, TIGHT)
        runs.append({
            "error": rel_err(recon, f),
            "objective": report.objective,
            "objective_truth": tv_norm(f),
            "converged": report.converged,
        })
    return {"runs": runs, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def noise_suite():
    """Criterion 8 runs: one phantom and plan, weighted noise per (eps, seed)."""
    n, m = 32, 410
    f = rect_phantom(n, seed=0)
    plan = draw_plan(density_inverse_square(n), m, seed=1000)
    clean = partial_dft(f, plan)
    opts_base = SolverOptions(max_iters=20000, primal_tol=1e-7, dual_tol=1e-6,
                              noise_model="weighted", step_balance=100.0)
    runs = []
    for eps in (0.05, 0.1, 0.2):
        for noise_seed in (1, 2, 3):
            y = add_noise(clean, plan, eps, model="weighted", seed=noise_seed)
            opts = SolverOptions(max_iters=opts_base.max_iters,
                                 primal_tol=opts_base.primal_tol,
                                 dual_tol=opts_base.dual_tol,
                                 noise_model="weighted",
                                 step_balance=opts_base.step_balance,
                                 epsilon=eps)
            recon, report = tv_min_reconstruct(y, plan, opts)
            runs.append({
                "eps": eps,
                "error": rel_err(recon, f),
                "objective": report.objective,
                "objective_truth": tv_norm(f),
                "converged": report.converged,
            })
    return runs


@pytest.fixture(scope="session")
def full_sampling_suite():
    """Criterion 11 runs: both solvers on fully sampled random images."""
    n = 16
    plan = full_grid_plan(n, rho_value=n)
    rng = np.random.default_rng(2718)
    runs = []
    for solver, name in ((tv_min_reconstruct, "tv"), (l1_haar_reconstruct, "haar")):
        f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        y = partial_dft(f, plan)
        recon, report = solver(y, plan, TIGHT)
        truth_obj = tv_norm(f) if name == "tv" else lp_norm(haar_forward(f), 1)
        runs.append({
            "solver": name,
            "error": rel_err(recon, f),
            "objective": report.objective,
            "objective_truth": truth_obj,
            "converged": report.converged,
        })
    return runs


# ---------------------------------------------------------------------------
# criteria

def test_criterion_1_coherence_bound_conformance():
    worst = -np.inf
    elapsed_256 = None
    for n in (32, 64, 128, 256):
        t0 = time.perf_counter()
        mu = local_coherence_exact(n)
        dt = time.perf_counter() - t0
        if n == 256:
            elapsed_256 = dt
        kap = kappa_table(n)
        kapp = kappa_prime_table(n)
        worst = max(worst, float((mu - kap).max()))
        assert np.all(mu <= kap), f"local coherence exceeds kappa at n={n}"
        assert np.all(kap <= kapp), f"kappa exceeds kappa' at n={n}"
    ok = worst <= 0.0 and elapsed_256 < 60.0
    assert announce(1, ok, f"max(mu - kappa) = {worst:.3e}, n=256 took {elapsed_256:.2f}s")
    assert elapsed_256 < 60.0


def test_criterion_2_l2_estimate_regressions():
    expected = {8: 208.35992312206074, 9: 266.9599745731598, 10: 314.83521138708807}
    vals = {p: kappa_l2(1 << p, "kappa_prime") for p in (8, 9, 10)}
    for p, v in vals.items():
        assert v == pytest.approx(expected[p], rel=1e-12)
        assert kappa_l2(1 << p, "kappa") <= v
    announce("2 (regression)", True,
             "exact |kappa'|_2 = " + ", ".join(f"p={p}: {v:.4f}" for p, v in vals.items()))


def test_criterion_2_l2_estimate_52_sqrt_p_bound():
    # stated bound |kappa'|_2 <= 52 sqrt(p); the measured values above exceed
    # it for every p in range, so this check fails as the numbers stand
    vals = {p: kappa_l2(1 << p, "kappa_prime") for p in (8, 9, 10)}
    ok = all(v <= 52 * math.sqrt(p) for p, v in vals.items())
    announce(2, ok, ", ".join(
        f"p={p}: {v:.2f} vs bound {52 * math.sqrt(p):.2f}" for p, v in vals.items()))
    for p, v in vals.items():
        assert v <= 52 * math.sqrt(p), (
            f"|kappa'|_2 = {v:.2f} exceeds 52 sqrt({p}) = {52 * math.sqrt(p):.2f}"
        )


def test_criterion_3_univariate_lemma():
    worst = 0.0
    for n in (16, 64, 256):
        res = univariate_coherence_bound_check(n)
        worst = max(worst, res["max_ratio"])
        assert res["max_ratio"] <= 1.0
    rng = np.random.default_rng(31415)
    worst_gap = 0.0
    for _ in range(1000):
        p = int(rng.integers(1, 9))
        size = 1 << p
        k = int(rng.integers(-size // 2 + 1, size // 2 + 1))
        scale = int(rng.integers(0, p))
        shift = int(rng.integers(0, 1 << scale))
        e = int(rng.integers(0, 2))
        gap = abs(fourier_haar_inner_1d(p, k, e, scale, shift)
                  - fourier_haar_inner_1d_direct(p, k, e, scale, shift))
        worst_gap = max(worst_gap, gap)
    ok = worst <= 1.0 and worst_gap <= 1e-12
    assert announce(3, ok, f"max ratio {worst:.4f}, closed-vs-sum gap {worst_gap:.2e}")


def test_criterion_4_lemma_suite():
    from vdfourier.verify import check_atom_tv, check_edge_lemma

    t0 = time.perf_counter()
    details = []
    ok = True
    for n in (2, 4, 8, 16, 32, 64):
        p = n.bit_length() - 1
        edges = check_edge_lemma(n)
        atom_tv = check_atom_tv(n)
        ok &= edges <= 6 * p and atom_tv <= 8.0
        details.append(f"n={n}: edges {edges}/{6 * p}, tv {atom_tv:.3f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    assert announce(4, ok, "; ".join(details) + f" ({elapsed:.1f}s)")


def test_criterion_5_isotropy_identity():
    from vdfourier.sampling import density_from_kappa

    err = isotropy_identity_error(density_from_kappa(kappa_table(8)))
    assert announce(5, err <= 1e-10, f"max deviation from identity {err:.2e}")


def test_criterion_6_rip_trend():
    n = 8
    density = density_inverse_square(n)
    medians = []
    for m in (16, 32, 64, 128):
        deltas = [
            rip_exact(build_preconditioned_matrix(draw_plan(density, m, 7000 + s)), 2)
            for s in range(20)
        ]
        medians.append(float(np.median(deltas)))
    decreasing = all(a > b for a, b in zip(medians, medians[1:]))
    full_delta = rip_exact(build_preconditioned_matrix(full_grid_plan(n, rho_value=n)), 2)
    ok = decreasing and full_delta <= 1e-10
    assert announce(6, ok,
                    "median delta_2 " + " > ".join(f"{v:.3f}" for v in medians)
                    + f"; full sampling {full_delta:.1e}")


def test_criterion_7_exact_recovery_regression(phantom_suite):
    hits = sum(r["error"] <= 1e-3 for r in phantom_suite["runs"])
    elapsed = phantom_suite["elapsed"]
    ok = hits >= 18 and elapsed < 120.0
    errs = [r["error"] for r in phantom_suite["runs"]]
    assert announce(7, ok,
                    f"{hits}/20 seeds at error <= 1e-3 "
                    f"(median {np.median(errs):.2e}, total {elapsed:.0f}s)")


def test_criterion_8_noise_robustness_shape(noise_suite):
    x = np.array([r["eps"] for r in noise_suite])
    y = np.array([r["error"] for r in noise_suite])
    envelope = float((y / x).max())
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    r2 = 1.0 - float((resid**2).sum() / ((y - y.mean()) ** 2).sum())
    ok = r2 >= 0.9 and np.all(y <= envelope * x + 1e-15) and envelope <= 0.3
    assert announce(8, ok, f"fitted C = {envelope:.3f}, linear fit R^2 = {r2:.3f}")


def test_criterion_9_density_comparison():
    n = 64
    m = int(0.15 * n * n)
    image = compressible_scene(n)
    opts = SolverOptions(max_iters=8000)
    errors = {}
    for alpha in (0.0, 2.0):
        density = density_power_law(n, alpha)
        errors[alpha] = []
        for trial in range(10):
            plan = draw_plan(density, m, seed=4242 + trial)
            recon, _ = tv_min_reconstruct(partial_dft(image, plan), plan, opts)
            errors[alpha].append(rel_err(recon, image))
    mean0, mean2 = np.mean(errors[0.0]), np.mean(errors[2.0])
    pvalue = mannwhitneyu(errors[2.0], errors[0.0], alternative="less").pvalue
    ok = mean2 < mean0 and pvalue < 0.05
    assert announce(9, ok,
                    f"mean error alpha=2: {mean2:.3f} < alpha=0: {mean0:.3f} "
                    f"(rank-sum p = {pvalue:.2e})")


def test_criterion_10_minimality_witness(phantom_suite, noise_suite, full_sampling_suite):
    runs = phantom_suite["runs"] + noise_suite + full_sampling_suite
    converged = [r for r in runs if r["converged"]]
    assert len(converged) >= 20, "witness check needs a body of converged runs"
    worst = max(r["objective"] / r["objective_truth"] - 1.0 for r in converged)
    ok = worst <= 1e-5
    assert announce(10, ok,
                    f"{len(converged)} converged runs, worst objective excess {worst:.2e}")


def test_criterion_11_full_sampling_identities(full_sampling_suite):
    ok = all(r["error"] <= 1e-6 and r["converged"] for r in full_sampling_suite)
    assert announce(11, ok, ", ".join(
        f"{r['solver']}: {r['error']:.2e}" for r in full_sampling_suite))


def test_criterion_12_reproducibility(tmp_path):
    img_path = tmp_path / "input.pgm"
    write_pgm(img_path, shepp_logan(16), maxval=255)
    out = tmp_path / "run"
    args = ["reconstruct", "--image", str(img_path), "--density", "inv-square",
            "--m", "150", "--seed", "3", "--eps", "0.05",
            "--out", str(out), "--max-iters", "2000"]
    cli_main(args)
    hashes1 = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
    cli_main(args)
    hashes2 = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
    ok = hashes1 == hashes2 and "manifest.json" in hashes1
    assert announce(12, ok, f"{len(hashes1)} artifacts hashed identically across runs")
