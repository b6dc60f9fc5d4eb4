"""Command-line front end: coherence tables, masks, reconstructions, sweeps.

Commands emit tidy CSV/JSON artifacts plus a ``manifest.json`` holding the
command, the package version, the image side n and every parsed flag under
``"args"`` (seeds included). Running ``main`` on those flags again, with a new
``--out``, rewrites every other artifact byte for byte. Plotting is left to
external tools.

Exit codes: 0 success, 2 invalid input, 3 solver non-convergence,
4 verification failure, 5 every cell of a sweep failed.
"""

import argparse
import contextlib
import csv
import functools
import itertools
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .coherence import (
    kappa_l2,
    kappa_prime_table,
    kappa_table,
    local_coherence_exact,
    univariate_coherence_bound_check,
)
from .image_core import as_image, side_exponent
from .pgm import read_pgm, write_pgm
from .sampling import (
    SamplingPlan,
    density_from_kappa,
    density_inverse_max,
    density_inverse_square,
    density_power_law,
    density_uniform,
    deterministic_mask,
    draw_plan,
)
from .solvers import SolverOptions, add_noise, l1_haar_reconstruct, tv_min_reconstruct
from .transforms import freq_values, partial_dft
from .verify import (
    build_preconditioned_matrix,
    check_atom_tv,
    check_coeff_decay,
    check_edge_lemma,
    isotropy_identity_error,
    rip_exact,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3
EXIT_VERIFY_FAILED = 4
EXIT_SWEEP_FAILED = 5  # every sweep cell failed

NOISE_SEED_OFFSET = 1_000_003  # keeps plan and noise streams decoupled


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=float, allow_nan=False)
        fh.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_grid_csv(path, header, labels, *values):
    """One row per cell of an n x n grid: its two axis labels, then each value's repr.

    Same bytes as :func:`_write_csv`, one write per grid row. A grid with at most half as many
    distinct bit patterns as cells reprs each once; others go row by row (O(n) objects alive).
    """
    labels = list(map(str, labels.tolist()))
    cols = []
    for bits in (np.ascontiguousarray(v, dtype=float).view(np.int64) for v in values):
        keys = np.sort(bits, axis=None)  # bit patterns, so -0.0 and 0.0 stay apart
        keys = keys[np.r_[True, keys[1:] != keys[:-1]]]
        cols.append((bits.view(float), repr) if 2 * keys.size > bits.size else
                    (np.searchsorted(keys, bits), list(map(repr, keys.view(float).tolist())).__getitem__))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i, k1 in enumerate(labels):
            cells = zip(itertools.repeat(k1), labels, *(map(f, a[i].tolist()) for a, f in cols))
            fh.write("\r\n".join(map(",".join, cells)) + "\r\n")


def _make_out(path):
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out, args, n):
    """The run's record: every parsed flag, so ``main`` on them reproduces the run."""
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    _write_json(out / "manifest.json",
                {"command": args.command, "version": __version__, "n": n, "args": flags})


def _check_row(claim, bound, measured, ok, **where):
    """One row of a check table (``where`` names its case, e.g. n); prints its PASS/FAIL line."""
    print(f"[{'PASS' if ok else 'FAIL'}]", *(f"{k}={v}" for k, v in where.items()),
          f"{claim}: measured {measured:.6g}")
    return {"claim": claim, **where, "bound": bound, "measured": measured, "pass": bool(ok)}


def _power_exponent(text):
    alpha = float(text)  # float() parses inf
    if not alpha >= 0:
        raise ValueError(f"power-law exponent must be >= 0, got {alpha}")
    return alpha


_DENSITY_SPECS = "uniform|inv-square|inv-max|power:<a>|lowpass|radial:<L>"
_DENSITIES = {"uniform": density_uniform, "inv-square": density_inverse_square,
              "inv-max": density_inverse_max, "lowpass": None}  # None: the lowest m frequencies


def _build_plan(n, spec, m, seed):
    """The plan a --density spec names; the spec is checked before --m is."""
    kind, colon, param = spec.partition(":")
    if colon and kind == "radial":
        return deterministic_mask(n, "radial_lines", lines=int(param))
    if colon and kind == "power":
        alpha = _power_exponent(param)
        density = None if math.isinf(alpha) else functools.partial(density_power_law, alpha=alpha)
    elif spec in _DENSITIES:
        density = _DENSITIES[spec]
    else:
        raise ValueError(f"unknown density spec {spec!r}")
    if m is None:
        raise ValueError(f"density {spec!r} requires --m")
    if density is None:
        return deterministic_mask(n, "lowest_frequencies", m=m)
    return draw_plan(density(n), m, seed)


def _check_n(n, limit=256):
    """The p of ``--n`` = 2**p <= limit."""
    if n <= limit:
        with contextlib.suppress(ValueError):
            return side_exponent(n)
    raise ValueError(f"--n must be a power of two in [2, {limit}], got {n}")


# ---------------------------------------------------------------------------
# coherence

def cmd_coherence(args):
    p = _check_n(args.n)
    out = _make_out(args.out)
    n = args.n

    mu = local_coherence_exact(n)
    kap = kappa_table(n)
    kapp = kappa_prime_table(n)
    for name, table in (("coherence_map", mu), ("kappa", kap), ("kappa_prime", kapp)):
        _write_grid_csv(out / f"{name}.csv", ["k1", "k2", "value"], freq_values(n), table)

    uni = univariate_coherence_bound_check(n)
    l2k = kappa_l2(n, "kappa")
    l2kp = kappa_l2(n, "kappa_prime")
    checks = [
        _check_row("local_coherence <= kappa", 1e-9, float((mu - kap).max()),
                   (mu <= kap + 1e-9).all()),
        _check_row("kappa <= kappa_prime", 0.0, float((kap - kapp).max()),
                   (kap <= kapp).all()),
        _check_row("univariate ratio <= 1", 1.0, uni["max_ratio"], uni["max_ratio"] <= 1.0),
        _check_row("corollary ratio <= 1", 1.0, uni["max_corollary_ratio"],
                   uni["max_corollary_ratio"] <= 1.0),
    ]
    if p >= 8:
        bound = 52 * math.sqrt(p)
        checks.append(_check_row("kappa_prime l2 <= 52 sqrt(p)", bound, l2kp, l2kp <= bound))
    _write_json(out / "report.json",
                {"n": n, "kappa_l2": l2k, "kappa_prime_l2": l2kp, "checks": checks})
    _write_manifest(out, args, n)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sample

def cmd_sample(args):
    _check_n(args.n)
    plan = _build_plan(args.n, args.density, args.m, args.seed)
    out = _make_out(args.out)
    plan.to_csv(out / "plan.csv")
    write_pgm(out / "mask.pgm", np.fft.fftshift(plan.mask()))
    _write_manifest(out, args, args.n)
    print(f"wrote plan with m={plan.m} ({plan.m - np.unique(plan.lin).size} duplicate draws)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# reconstruct

def _solver_options(args, eps):
    return SolverOptions(max_iters=args.max_iters, primal_tol=args.primal_tol,
                         dual_tol=args.dual_tol, noise_model=args.noise_model, epsilon=eps)


def _load_image(path):
    pixels, maxval = read_pgm(path)
    as_image(pixels)  # the image rules: square, side 2**p with p >= 1
    return pixels, maxval


def _reconstruct_once(f, plan, solver, opts, noise_seed):
    y = add_noise(partial_dft(f, plan), plan, opts.epsilon, model=opts.noise_model,
                  seed=noise_seed)
    solve = tv_min_reconstruct if solver == "tv" else l1_haar_reconstruct
    recon, report = solve(y, plan, opts)
    err = float(np.linalg.norm(recon - f) / np.linalg.norm(f))
    return recon, report, err


def cmd_reconstruct(args):
    f, maxval = _load_image(args.image)
    n = f.shape[0]
    plan = (SamplingPlan.from_csv(args.plan, n) if args.plan is not None
            else _build_plan(n, args.density, args.m, args.seed))
    opts = _solver_options(args, args.eps)
    out = _make_out(args.out)
    recon, report, err = _reconstruct_once(f, plan, args.solver, opts,
                                           args.seed + NOISE_SEED_OFFSET)

    write_pgm(out / "recon.pgm", recon.real, maxval=maxval)
    if np.abs(recon.imag).max() > 1e-6:
        _write_grid_csv(out / "recon_complex.csv", ["t1", "t2", "real", "imag"],
                        np.arange(n), recon.real, recon.imag)
    _write_csv(out / "error.csv", ["quantity", "value"], [["relative_l2_error", repr(err)]])
    _write_json(out / "report.json", asdict(report))
    plan.to_csv(out / "plan.csv")
    _write_manifest(out, args, n)
    print(f"relative l2 error: {err:.6g} (converged={report.converged}, "
          f"iterations={report.iterations})")
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


# ---------------------------------------------------------------------------
# sweep

SWEEP_COLUMNS = ["alpha", "epsilon", "trial", "m", "error", "seed", "converged", "status"]


def _sweep_cell(task):
    """One (alpha, eps, trial) cell; returns a result row dict."""
    f, alpha, opts, trial, m, seed, solver = task
    row = {"alpha": alpha, "epsilon": opts.epsilon, "trial": trial, "m": m,
           "error": float("nan"), "seed": seed, "converged": False, "status": "ok"}
    try:
        plan = _build_plan(f.shape[0], f"power:{alpha!r}", m, seed)
        _, report, row["error"] = _reconstruct_once(f, plan, solver, opts,
                                                    seed + NOISE_SEED_OFFSET)
        row["converged"] = report.converged
    except Exception as exc:  # noqa: BLE001 - cell failures must not kill the sweep
        row["status"] = f"error: {exc}"
    return row


def cmd_sweep(args):
    f, _ = _load_image(args.image)
    alphas = [_power_exponent(a) for a in args.alphas.split(",")]
    eps_list = [float(e) for e in args.eps_list.split(",")]
    opts_list = [_solver_options(args, eps) for eps in eps_list]
    for flag in ("trials", "m", "jobs"):
        if getattr(args, flag) < 1:
            raise ValueError(f"--{flag} must be >= 1, got {getattr(args, flag)}")
    if args.m > f.size:
        raise ValueError(f"--m must be <= n^2 = {f.size}, got {args.m}")
    out = _make_out(args.out)

    tasks = []
    for alpha in alphas:
        for opts in opts_list:
            for trial in range(args.trials):
                tasks.append((f, alpha, opts, trial, args.m, args.seed + len(tasks),
                              args.solver))

    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_cell, tasks))
    else:
        rows = [_sweep_cell(t) for t in tasks]

    _write_csv(out / "sweep.csv", SWEEP_COLUMNS, ([r[c] for c in SWEEP_COLUMNS] for r in rows))
    _write_manifest(out, args, f.shape[0])
    bad = sum(r["status"] != "ok" for r in rows)
    print(f"sweep finished: {len(rows)} cells, {bad} failed")
    return EXIT_SWEEP_FAILED if bad == len(rows) else EXIT_OK


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args):
    n_list = [int(v) for v in args.n_list.split(",")]
    p_list = [_check_n(n, limit=64) for n in n_list]
    out = _make_out(args.out)

    results = []
    for n, p in zip(n_list, p_list):
        edge = check_edge_lemma(n)
        results.append(_check_row("edge crossings <= 6p", 6 * p, edge, edge <= 6 * p, n=n))
        atom_tv = check_atom_tv(n)
        results.append(_check_row("atom TV <= 8", 8.0, atom_tv, atom_tv <= 8.0 + 1e-9, n=n))
        ratio = univariate_coherence_bound_check(n)["max_ratio"]
        results.append(_check_row("univariate ratio <= 1", 1.0, ratio, ratio <= 1.0, n=n))

    iso = isotropy_identity_error(density_from_kappa(kappa_table(8)))
    results.append(_check_row("preconditioned isotropy identity", 1e-10, iso, iso <= 1e-10, n=8))

    ks = freq_values(8)
    full = SamplingPlan(n=8, freqs=np.stack([np.repeat(ks, 8), np.tile(ks, 8)], axis=1),
                        rho=np.full(64, 8.0))
    delta = rip_exact(build_preconditioned_matrix(full), 2).delta
    results.append(_check_row("full-sampling RIP delta_2 = 0", 1e-10, delta, delta <= 1e-10, n=8))

    mean_zero = np.add.outer(np.linspace(-1, 1, 16), np.linspace(-1, 1, 16))
    decay = check_coeff_decay(mean_zero)
    results.append(_check_row("coefficient decay constant finite", None, decay,
                              math.isfinite(decay), n=16))

    all_pass = all(r["pass"] for r in results)
    _write_json(out / "verify.json", {"all_pass": all_pass, "results": results})
    _write_manifest(out, args, max(n_list))
    return EXIT_OK if all_pass else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# parser

def _add_common_solver_flags(sp):
    sp.add_argument("--noise-model", choices=["weighted", "unweighted"],
                    default=SolverOptions.noise_model)
    sp.add_argument("--solver", choices=["tv", "haar"], default="tv")
    sp.add_argument("--max-iters", type=int, default=SolverOptions.max_iters)
    sp.add_argument("--primal-tol", type=float, default=SolverOptions.primal_tol)
    sp.add_argument("--dual-tol", type=float, default=SolverOptions.dual_tol)


def build_parser():
    ap = argparse.ArgumentParser(prog="vdfourier",
                                 description="Variable-density Fourier compressive imaging")
    # no abbreviations: a mistyped flag must not silently become another one
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=functools.partial(argparse.ArgumentParser,
                                                           allow_abbrev=False))

    sp = sub.add_parser("coherence", help="exact coherence map and bound report")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_coherence)

    sp = sub.add_parser("sample", help="draw a sampling plan and mask image")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--density", required=True, help=_DENSITY_SPECS)
    sp.add_argument("--m", type=int)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("reconstruct", help="reconstruct a PGM image from partial DFT")
    sp.add_argument("--image", required=True)
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--plan", help="existing plan CSV")
    source.add_argument("--density", help=_DENSITY_SPECS)
    sp.add_argument("--m", type=int)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.add_argument("--eps", type=float, default=SolverOptions.epsilon, help="noise level epsilon")
    _add_common_solver_flags(sp)
    sp.set_defaults(func=cmd_reconstruct)

    sp = sub.add_parser("sweep", help="error table over power-law exponents and noise")
    sp.add_argument("--image", required=True)
    sp.add_argument("--alphas", required=True, help="comma list, e.g. 0,2,4,inf")
    sp.add_argument("--eps-list", default="0")
    sp.add_argument("--trials", type=int, default=1)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--out", required=True)
    _add_common_solver_flags(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("verify", help="run the structural verification suite")
    sp.add_argument("--n-list", default="2,4,8,16,32,64")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_verify)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
