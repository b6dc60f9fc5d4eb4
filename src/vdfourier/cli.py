"""Command-line front end: coherence tables, masks, reconstructions, sweeps.

Commands emit tidy CSV/JSON artifacts; each run starts by writing ``manifest.json``: the
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
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .coherence import (
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

    Same bytes as :func:`_write_csv`, assembled in blocks of about 4096 cells: each field a byte
    row of its repr, zero padding and its separator, the padding deleted at the end (no field
    holds a zero byte). A column with at most half as many distinct bit patterns as cells reprs
    each once and gathers them by rank; any other reprs only the block's cells (at most
    max(n, 4096) strings alive).
    """
    def reprs(cells, end):  # a byte row per cell, in cells' shape: repr, zero padding, end
        strs = list(map(repr, cells.ravel().tolist()))
        w = max(map(len, strs)) + len(end)
        rows = np.fromiter(strs, f"S{w}", len(strs)).view(np.uint8).reshape(-1, w)
        rows[:, w - len(end) :] = list(end.encode())
        return rows.reshape(*cells.shape, w)

    cols = []  # (values or ranks per cell, a block of them -> its byte rows)
    for bits, end in zip((np.ascontiguousarray(v, dtype=float).view(np.int64) for v in values),
                         [","] * (len(values) - 1) + ["\r\n"]):
        keys = np.sort(bits, axis=None)  # bit patterns, so -0.0 and 0.0 stay apart
        keys = keys[np.r_[True, keys[1:] != keys[:-1]]]
        cols.append((bits.view(float), functools.partial(reprs, end=end))
                    if 2 * keys.size > bits.size else
                    (np.searchsorted(keys, bits), reprs(keys.view(float), end).__getitem__))
    lab = reprs(labels, ",")  # str and repr agree on ints and floats
    n = len(lab)
    step = max(1, 4096 // n)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for i in range(0, n, step):
            r = min(step, n - i)
            line = np.concatenate([np.broadcast_to(lab[i : i + r, None], (r, *lab.shape)),
                                   np.broadcast_to(lab, (r, *lab.shape)),
                                   *(field(a[i : i + r]) for a, field in cols)], axis=2)
            fh.write(line.tobytes().translate(None, b"\0"))


def _start_run(args, n):
    """Make ``--out``, the returned directory, and write the run's record ``manifest.json``."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    _write_json(out / "manifest.json",
                {"command": args.command, "version": __version__, "n": n, "args": flags})
    return out


def _check_row(claim, bound, measured, **where):
    """One row of a check table (``where`` names its case, e.g. n); prints its PASS/FAIL line."""
    ok = math.isfinite(measured) if bound is None else measured <= bound  # the one pass rule
    print(f"[{'PASS' if ok else 'FAIL'}]", *(f"{k}={v}" for k, v in where.items()),
          f"{claim}: measured {measured:.6g}")
    return {"claim": claim, **where, "bound": bound, "measured": measured, "pass": bool(ok)}


_DENSITY_SPECS = "uniform|inv-square|inv-max|power:<a>|lowpass|radial:<L>"
_DENSITIES = {"uniform": density_uniform, "inv-square": density_inverse_square,
              "inv-max": density_inverse_max, "lowpass": None}  # None: the lowest m frequencies


def _build_plan(n, spec, m, seed):
    """The plan a --density spec names; the spec is checked before --m is (radial fixes m)."""
    kind, _, param = spec.partition(":")
    with contextlib.suppress(ValueError):  # a number that does not parse stays text: unknown spec
        param = {"radial": int, "power": float}.get(kind, str)(param)
    if kind == "radial" and isinstance(param, int):
        plan = deterministic_mask(n, "radial_lines", lines=param)
        if m is not None:
            raise ValueError(f"--m does not apply to density {spec!r}, which fixes m itself")
        return plan
    if kind == "power" and isinstance(param, float):
        # == inf, not isinf: density_power_law refuses -inf, nan and alpha < 0
        density = None if param == math.inf else functools.partial(density_power_law, alpha=param)
    elif spec in _DENSITIES:
        density = _DENSITIES[spec]
    else:
        raise ValueError(f"unknown density spec {spec!r}, expected one of {_DENSITY_SPECS}")
    if m is None:
        raise ValueError(f"density {spec!r} requires --m")
    if density is None:
        return deterministic_mask(n, "lowest_frequencies", m=m)
    return draw_plan(density(n), m, seed)


def _check_n(n, limit, flag="--n"):
    """The p of ``n`` = 2**p <= limit (``n`` an int or its text); errors name ``flag``."""
    with contextlib.suppress(ValueError):
        if int(n) <= limit:
            return side_exponent(int(n))
    raise ValueError(f"{flag} must be a power of two in [2, {limit}], got {n}")


def _floats(text, flag):
    """The numbers of the comma list ``text``; errors name ``flag``."""
    with contextlib.suppress(ValueError):
        return [float(v) for v in text.split(",")]
    raise ValueError(f"{flag} must be a comma list of numbers, got {text}")


# ---------------------------------------------------------------------------
# coherence

def cmd_coherence(args):
    p = _check_n(args.n, 256)
    n = args.n
    out = _start_run(args, n)

    mu = local_coherence_exact(n)
    kap = kappa_table(n)
    kapp = kappa_prime_table(n)
    for name, table in (("coherence_map", mu), ("kappa", kap), ("kappa_prime", kapp)):
        _write_grid_csv(out / f"{name}.csv", ["k1", "k2", "value"], freq_values(n), table)

    uni = univariate_coherence_bound_check(n)
    l2k, l2kp = (float(np.sqrt((table**2).sum())) for table in (kap, kapp))  # as kappa_l2
    checks = [
        _check_row("local_coherence <= kappa", 0.0, float((mu - kap).max())),
        _check_row("kappa <= kappa_prime", 0.0, float((kap - kapp).max())),
        _check_row("univariate ratio <= 1", 1.0, uni["max_ratio"]),
        _check_row("corollary ratio <= 1", 1.0, uni["max_corollary_ratio"]),
    ]
    if p >= 8:
        checks.append(_check_row("kappa_prime l2 <= 52 sqrt(p)", 52 * math.sqrt(p), l2kp))
    _write_json(out / "report.json",
                {"n": n, "kappa_l2": l2k, "kappa_prime_l2": l2kp, "checks": checks})
    return EXIT_OK


# ---------------------------------------------------------------------------
# sample

def cmd_sample(args):
    _check_n(args.n, 1024)
    plan = _build_plan(args.n, args.density, args.m, args.seed)
    out = _start_run(args, args.n)
    plan.to_csv(out / "plan.csv")
    mask = plan.mask()
    write_pgm(out / "mask.pgm", np.fft.fftshift(mask))
    print(f"wrote plan with m={plan.m} ({plan.m - np.count_nonzero(mask)} duplicate draws)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# reconstruct

def _solver_options(args, eps):
    return SolverOptions(max_iters=args.max_iters, primal_tol=args.primal_tol,
                         noise_model=args.noise_model, epsilon=eps)


def _load_image(path):
    pixels, maxval = read_pgm(path)
    as_image(pixels)  # the image rules: square, side 2**p with p >= 1
    if not np.any(pixels):
        raise ValueError(f"image {path} is all zero: its relative error is undefined")
    return pixels, maxval


def _reconstruct_once(f, plan, solver, opts, seed):
    """Noisy data (noise seed: the plan's ``seed`` + NOISE_SEED_OFFSET), its solve and error."""
    y = add_noise(partial_dft(f, plan), plan, opts.epsilon, model=opts.noise_model,
                  seed=seed + NOISE_SEED_OFFSET)
    solve = tv_min_reconstruct if solver == "tv" else l1_haar_reconstruct
    recon, report = solve(y, plan, opts)
    err = float(np.linalg.norm(recon - f) / np.linalg.norm(f))
    return recon, report, err


def cmd_reconstruct(args):
    f, maxval = _load_image(args.image)
    n = f.shape[0]
    if args.plan is not None and args.m is not None:
        raise ValueError("--m does not apply to --plan, whose rows fix m")
    plan = (SamplingPlan.from_csv(args.plan, n) if args.plan is not None
            else _build_plan(n, args.density, args.m, args.seed))
    opts = _solver_options(args, args.eps)
    out = _start_run(args, n)
    recon, report, err = _reconstruct_once(f, plan, args.solver, opts, args.seed)

    write_pgm(out / "recon.pgm", recon.real, maxval=maxval)
    _write_grid_csv(out / "recon_complex.csv", ["t1", "t2", "real", "imag"],
                    np.arange(n), recon.real, recon.imag)
    _write_csv(out / "error.csv", ["quantity", "value"], [["relative_l2_error", repr(err)]])
    _write_json(out / "report.json", asdict(report))
    plan.to_csv(out / "plan.csv")
    print(f"relative l2 error: {err:.6g} (converged={report.converged}, "
          f"iterations={report.iterations})")
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


# ---------------------------------------------------------------------------
# sweep

SWEEP_COLUMNS = ["alpha", "epsilon", "trial", "m", "error", "seed", "converged", "status"]


def _sweep_cell(task):
    """One (alpha, eps, trial) cell; returns its row in SWEEP_COLUMNS order."""
    f, solver, m, alpha, opts, trial, seed = task
    error, converged, status = float("nan"), False, "ok"
    try:
        plan = _build_plan(f.shape[0], f"power:{alpha!r}", m, seed)
        _, report, error = _reconstruct_once(f, plan, solver, opts, seed)
        converged = report.converged
    except Exception as exc:  # noqa: BLE001 - cell failures must not kill the sweep
        status = f"error: {exc}"
    return [alpha, opts.epsilon, trial, m, error, seed, converged, status]


def cmd_sweep(args):
    f, _ = _load_image(args.image)
    alphas = _floats(args.alphas, "--alphas")
    opts_list = [_solver_options(args, eps) for eps in _floats(args.eps_list, "--eps-list")]
    for alpha in alphas:  # the plan rules (alpha, --m) are _build_plan's, checked per entry
        _build_plan(f.shape[0], f"power:{alpha!r}", args.m, args.seed)
    out = _start_run(args, f.shape[0])
    tasks = [(f, args.solver, args.m, *cell, args.seed + i)  # cell i's seed: --seed + i
             for i, cell in enumerate(itertools.product(alphas, opts_list, range(args.trials)))]

    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # here: its import slows every command
        # fork starts every worker at the first submit, so no more than there are cells
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) as pool:
            rows = list(pool.map(_sweep_cell, tasks))
    else:
        rows = [_sweep_cell(t) for t in tasks]

    _write_csv(out / "sweep.csv", SWEEP_COLUMNS, rows)
    bad = sum(row[-1] != "ok" for row in rows)
    print(f"sweep finished: {len(rows)} cells, {bad} failed")
    return EXIT_SWEEP_FAILED if bad == len(rows) else EXIT_OK


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args):
    p_list = [_check_n(n, 64, "--n-list entry") for n in args.n_list.split(",")]
    out = _start_run(args, 1 << max(p_list))

    results = []
    for p in p_list:
        n = 1 << p
        results += [_check_row("edge crossings <= 6p", 6 * p, check_edge_lemma(n), n=n),
                    _check_row("atom TV <= 8", 8.0, check_atom_tv(n), n=n),
                    _check_row("univariate ratio <= 1", 1.0,
                               univariate_coherence_bound_check(n)["max_ratio"], n=n)]

    iso = isotropy_identity_error(density_from_kappa(kappa_table(8)))
    results.append(_check_row("preconditioned isotropy identity", 1e-10, iso, n=8))

    full = SamplingPlan.from_lin(8, np.arange(64), np.full(64, 8.0))
    delta = rip_exact(build_preconditioned_matrix(full), 2).delta
    results.append(_check_row("full-sampling RIP delta_2 = 0", 1e-10, delta, n=8))

    mean_zero = np.add.outer(np.linspace(-1, 1, 16), np.linspace(-1, 1, 16))
    results.append(_check_row("coefficient decay constant finite", None,
                              check_coeff_decay(mean_zero), n=16))

    all_pass = all(r["pass"] for r in results)
    _write_json(out / "verify.json", {"all_pass": all_pass, "results": results})
    return EXIT_OK if all_pass else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# parser

def build_parser():
    ap = argparse.ArgumentParser(prog="vdfourier",
                                 description="Variable-density Fourier compressive imaging")
    out, seed, solve = (argparse.ArgumentParser(add_help=False) for _ in range(3))  # shared flags
    out.add_argument("--out", required=True)
    seed.add_argument("--seed", type=int, default=0)
    solve.add_argument("--image", required=True)
    solve.add_argument("--noise-model", choices=["weighted", "unweighted"],
                       default=SolverOptions.noise_model)
    solve.add_argument("--solver", choices=["tv", "haar"], default="tv")
    solve.add_argument("--max-iters", type=int, default=SolverOptions.max_iters)
    solve.add_argument("--primal-tol", type=float, default=SolverOptions.primal_tol)
    # no abbreviations: a mistyped flag must not silently become another one
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=functools.partial(argparse.ArgumentParser,
                                                           allow_abbrev=False))

    sp = sub.add_parser("coherence", parents=[out], help="exact coherence map and bound report")
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=cmd_coherence)

    sp = sub.add_parser("sample", parents=[out, seed], help="draw a sampling plan and mask image")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--density", required=True, help=_DENSITY_SPECS)
    sp.add_argument("--m", type=int)
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("reconstruct", parents=[out, seed, solve],
                        help="reconstruct a PGM image from partial DFT")
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--plan", help="existing plan CSV")
    source.add_argument("--density", help=_DENSITY_SPECS)
    sp.add_argument("--m", type=int)
    sp.add_argument("--eps", type=float, default=SolverOptions.epsilon, help="noise level epsilon")
    sp.set_defaults(func=cmd_reconstruct)

    sp = sub.add_parser("sweep", parents=[out, seed, solve],
                        help="error table over power-law exponents and noise")
    sp.add_argument("--alphas", required=True, help="comma list, e.g. 0,2,4,inf")
    sp.add_argument("--eps-list", default="0")
    sp.add_argument("--trials", type=int, default=1)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--jobs", type=int, default=1)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("verify", parents=[out], help="run the structural verification suite")
    sp.add_argument("--n-list", default="2,4,8,16,32,64")
    sp.set_defaults(func=cmd_verify)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        for flag, low in (("seed", 0), ("trials", 1), ("jobs", 1)):  # before --out exists
            if getattr(args, flag, low) < low:
                raise ValueError(f"--{flag} must be >= {low}, got {getattr(args, flag)}")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
