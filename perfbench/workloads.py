"""Benchmark workloads: inputs made from a seed, operations, and output checks.

Each workload builds its inputs in ``__init__`` (the set-up that ``setup_s``
times) and hands out a list of :class:`Op` per pass. An op's ``call`` is
the timed call into vdfourier; its ``check`` inspects the returned value
and any files written, raises :class:`CheckFailed` when the output is
wrong, and otherwise returns an :class:`Outcome`.

All calls go through module attributes (``solvers.tv_min_reconstruct``,
``cli.main``) so that the tracer's wrappers are picked up when installed.
"""

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from vdfourier import cli, coherence, image_core, pgm, phantoms, sampling, solvers, transforms


class CheckFailed(Exception):
    """The program returned, but its output fails a check."""


@dataclass(frozen=True)
class Outcome:
    error_ratio: float  # output error over its reference scale
    ceiling: float = 1.0  # an error_ratio above this fails the op
    error: float = math.nan  # reconstruction relative l2 error, when there is one
    iterations: int = 0  # solver iterations; 0 when the op runs no solver
    distinct_ratio: float = 0.0  # distinct frequencies / m of the op's plan; 0 without a plan


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


def _rel_error(recon, truth):
    return float(np.linalg.norm(recon - truth) / np.linalg.norm(truth))


def _distinct_ratio(freqs):
    return len({(int(a), int(b)) for a, b in freqs}) / len(freqs)


# The ground truth lies in the feasible set, so a minimizer's objective cannot
# exceed the truth's; a solver that stops short of the minimum can
OBJECTIVE_SLACK = 1e-3


def _check_minimality(objective, truth_objective):
    if not objective <= truth_objective * (1 + OBJECTIVE_SLACK):
        raise CheckFailed(f"objective {objective:.6g} above the ground truth's {truth_objective:.6g}")


class TvWeighted:
    """Library TV solves in the configuration of the criterion-8 fixture.

    Phantom ``rect_phantom(n)``, inverse-square plan (plan seed 1000) and
    weighted noise (noise seed 1) at each eps, solved with
    ``step_balance=100``, ``primal_tol=1e-7``, ``dual_tol=1e-6``.

    The seed sets a global phase e^{i theta} on image and measurements.
    PDHG is exactly equivariant under it, so every seed does the same
    iterations: another noise draw or plan moves the iteration count by
    up to a factor of two (the objective-change stopping rule), which
    would swamp run-to-run comparison of solve time.
    """

    name = "tv-weighted-n32"
    pass_cost_s = 11.5  # nominal wall time of one pass on a 2-core Xeon
    EPSILONS = (0.05, 0.1, 0.2)
    CEILING = 0.3  # criterion 8's error envelope: rel_error <= 0.3 * eps

    def __init__(self, seed, workdir, small=False):
        n, m = (16, 128) if small else (32, 410)
        theta = 2 * math.pi * np.random.default_rng(seed).random()
        phase = complex(math.cos(theta), math.sin(theta))
        f = phantoms.rect_phantom(n, side=8 if small else 10)
        self.plan = sampling.draw_plan(sampling.density_inverse_square(n), m, seed=1000)
        clean = transforms.partial_dft(f, self.plan)
        self.truth = phase * f
        self.truth_tv = image_core.tv_norm(self.truth)
        self.distinct = _distinct_ratio(self.plan.freqs)
        self.cases = []
        for eps in self.EPSILONS:
            y = phase * solvers.add_noise(clean, self.plan, eps, model="weighted", seed=1)
            opts = solvers.SolverOptions(max_iters=20000, primal_tol=1e-7, dual_tol=1e-6,
                                         noise_model="weighted", step_balance=100.0,
                                         epsilon=eps)
            self.cases.append((eps, y, opts))

    def pass_ops(self, index):
        return [Op(f"tv eps={eps:g}", self._caller(y, opts), self._checker(eps))
                for eps, y, opts in self.cases]

    def _caller(self, y, opts):
        return lambda: solvers.tv_min_reconstruct(y, self.plan, opts)

    def _checker(self, eps):
        def check(result):
            recon, report = result
            if not report.converged:
                raise CheckFailed(f"no convergence in {report.iterations} iterations")
            _check_minimality(report.objective, self.truth_tv)
            err = _rel_error(recon, self.truth)
            return Outcome(err / eps, self.CEILING, err, report.iterations, self.distinct)
        return check


class HaarCli:
    """``vdfourier reconstruct --solver haar`` called in-process.

    Inputs: ``compressible_scene(n)`` written as an 8-bit PGM in set-up,
    density ``power:1`` with m = 1638 (10 %), eps = 0. Op ``i`` of a run uses
    CLI seed ``100 * seed + i``, so each op draws its own plan; the run
    averages over several plans because the iteration count varies by
    about 10 % between plans.
    """

    name = "haar-cli-n128"
    pass_cost_s = 7.5
    # Errors are measured against the zero-filled reconstruction on the same
    # plan, which takes out most of the plan-to-plan spread (0.17 .. 0.64 raw).
    # Over 52 plans at n = 128 the ratio lay in 0.65 .. 0.95.
    CEILING = 1.2

    def __init__(self, seed, workdir, small=False):
        self.n = 32 if small else 128
        self.m = 512 if small else 1638
        self.seed = seed
        self.image = Path(workdir) / "scene.pgm"
        self.out = Path(workdir) / "recon"
        pgm.write_pgm(self.image, phantoms.compressible_scene(self.n))
        self.truth, _ = pgm.read_pgm(self.image)
        self.truth_l1 = image_core.lp_norm(transforms.haar_forward(self.truth), 1)
        self.energy = np.abs(transforms.dft2_forward(self.truth)) ** 2

    def pass_ops(self, index):
        argv = ["reconstruct", "--image", str(self.image), "--density", "power:1",
                "--m", str(self.m), "--seed", str(100 * self.seed + index),
                "--solver", "haar", "--out", str(self.out)]
        return [Op(f"haar-cli plan {index}", lambda: cli.main(argv), self._check)]

    def _check(self, code):
        if code == cli.EXIT_NO_CONVERGENCE:
            raise CheckFailed("reconstruct did not converge (exit code 3)")
        if code != cli.EXIT_OK:
            raise CheckFailed(f"reconstruct exit code {code}")
        report = json.loads((self.out / "report.json").read_text())
        if not report["converged"]:
            raise CheckFailed("report.json says not converged")
        _check_minimality(report["objective"], self.truth_l1)
        with open(self.out / "error.csv", newline="") as fh:
            err = float(dict(csv.reader(fh))["relative_l2_error"])
        recon, _ = pgm.read_pgm(self.out / "recon.pgm")
        if recon.shape != self.truth.shape:
            raise CheckFailed(f"recon.pgm has shape {recon.shape}")
        with open(self.out / "plan.csv", newline="") as fh:
            freqs = [(int(row["k1"]), int(row["k2"])) for row in csv.DictReader(fh)]
        if len(freqs) != self.m:
            raise CheckFailed(f"plan.csv has {len(freqs)} rows, expected {self.m}")
        seen = {(k1 % self.n, k2 % self.n) for k1, k2 in freqs}
        missed = self.energy.sum() - sum(self.energy[i] for i in seen)
        zero_filled = math.sqrt(max(missed, 0.0) / self.energy.sum())
        if _rel_error(recon, self.truth) > self.CEILING * zero_filled:
            raise CheckFailed("recon.pgm is further from the truth than the ceiling allows")
        return Outcome(err / zero_filled, self.CEILING, err, report["iterations"],
                       len(seen) / self.m)


# kappa' l2 at n = 256 exceeds the stated cap 52 sqrt(8); the gap is documented
# and frozen by tests/test_acceptance.py (criterion 2), so it is checked as that
# value instead of counting as a failure
KAPPA_PRIME_L2_256 = 208.35992312206074
GAP_CLAIM = "kappa_prime l2 <= 52 sqrt(p)"


class Analysis:
    """The solver-free commands: ``coherence --n 256``, ``verify`` and
    ``local_coherence_exact(1024)``. Their inputs are sizes only, so the
    seed changes nothing here.
    """

    name = "analysis"
    pass_cost_s = 1.6

    def __init__(self, seed, workdir, small=False):
        self.coherence_n = 16 if small else 256
        self.verify_args = ["--n-list", "2,4,8"] if small else []
        self.exact_n = 64 if small else 1024
        self.kappa = coherence.kappa_table(self.exact_n)
        self.coh_out = Path(workdir) / "coherence"
        self.ver_out = Path(workdir) / "verify"
        self.gap = None

    def pass_ops(self, index):
        coh = ["coherence", "--n", str(self.coherence_n), "--out", str(self.coh_out)]
        ver = ["verify", *self.verify_args, "--out", str(self.ver_out)]
        return [
            Op(f"coherence --n {self.coherence_n}", lambda: cli.main(coh), self._check_coherence),
            Op("verify", lambda: cli.main(ver), self._check_verify),
            Op(f"local_coherence_exact({self.exact_n})",
               lambda: coherence.local_coherence_exact(self.exact_n), self._check_exact),
        ]

    def _check_coherence(self, code):
        if code != cli.EXIT_OK:
            raise CheckFailed(f"coherence exit code {code}")
        report = json.loads((self.coh_out / "report.json").read_text())
        ratio = 0.0
        for c in report["checks"]:
            if c["claim"] == GAP_CLAIM:
                if not math.isclose(c["measured"], KAPPA_PRIME_L2_256, rel_tol=1e-12):
                    raise CheckFailed(f"kappa' l2 = {c['measured']!r} moved from the frozen "
                                      f"{KAPPA_PRIME_L2_256!r}")
                self.gap = (c["measured"], c["bound"])
                continue
            if not c["pass"]:
                raise CheckFailed(f"coherence check failed: {c['claim']}")
            if c["claim"].endswith("ratio <= 1"):
                ratio = max(ratio, c["measured"])
        with open(self.coh_out / "coherence_map.csv") as fh:
            rows = sum(1 for _ in fh)
        if rows != self.coherence_n**2 + 1:
            raise CheckFailed(f"coherence_map.csv has {rows} lines")
        return Outcome(ratio)

    def _check_verify(self, code):
        if code != cli.EXIT_OK:
            raise CheckFailed(f"verify exit code {code}")
        doc = json.loads((self.ver_out / "verify.json").read_text())
        if not doc["all_pass"] or not all(r["pass"] for r in doc["results"]):
            raise CheckFailed("verify reports a failed check")
        # atom TV meets its bound of 8 exactly, so only the lemma ratios are reported
        return Outcome(max(r["measured"] for r in doc["results"] if r["claim"].endswith("ratio <= 1")))

    def _check_exact(self, mu):
        if mu.shape != self.kappa.shape:
            raise CheckFailed(f"coherence map has shape {mu.shape}")
        if mu[0, 0] != 1.0:
            raise CheckFailed(f"zero-frequency coherence {mu[0, 0]!r} != 1")
        ratio = mu / self.kappa
        ratio[0, 0] = 0.0
        if not np.isfinite(mu).all() or ratio.max() > 1.0 + 1e-9:
            raise CheckFailed("local coherence exceeds kappa")
        return Outcome(float(ratio.max()))


WORKLOADS = {w.name: w for w in (TvWeighted, HaarCli, Analysis)}
