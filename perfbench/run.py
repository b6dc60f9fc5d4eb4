"""Benchmark harness for vdfourier.

Run from the repository root:

    python3 perfbench/run.py --workload tv-weighted-n32 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One process serves one workload in a closed loop: a single caller makes
each call in turn. ``--workload all`` runs every workload in its own child
process, so that each ``peak_rss_mb`` is that workload's own peak. BLAS and
OpenMP pools are pinned to one thread.

``--seconds`` sets the amount of work: a workload's pass (a fixed list of
operations) is repeated ``seconds // pass_cost_s`` times (at least once),
where ``pass_cost_s`` is the pass's wall time on a 2-core Xeon, so a run
takes at most about ``--seconds`` there and a seed always does the same work.

``--trace 0`` reports the end-to-end metrics (see BENCHMARK.json):
``setup_s`` is the median over fresh interpreters of the time from
``import vdfourier`` to the inputs being ready; ``workload_s`` sums the
timed calls; ``op_s`` is the median over passes of a pass's mean call time
(so that a pass of unlike calls cannot flip it); ``error_ratio`` is the median over
operations of the output error over its reference scale (TV: rel_error / eps;
Haar: rel_error over that of the zero-filled reconstruction on the same
plan; analysis: the largest checked ratio against its bound of 1);
``peak_rss_mb`` is this process's peak resident memory. An operation fails
when it raises, does not converge, fails a structural check, or its error
ratio exceeds the workload's ceiling.

``--trace 1`` makes the work for ``seconds / 2`` and runs every operation
twice, untraced and traced, so that it also takes about ``--seconds``. It
reports the per-layer metrics from the traced calls, averaged per operation
(set-up is traced too and counts toward the same totals). The spans are
written to ``.perfbench/spans-<workload>.npz``.

The last line of stdout is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

# numpy, vdfourier and the modules beside this file are imported inside the
# functions below, after load_package() has pinned the BLAS threads and put
# the sources on sys.path; the set-up probe also times those imports

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
WORKLOAD_NAMES = ("tv-weighted-n32", "haar-cli-n128", "analysis")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 11

END_TO_END_UNITS = {"setup_s": "s", "workload_s": "s", "op_s": "s",
                    "error_ratio": "ratio", "peak_rss_mb": "MB"}
TRACED_FUNCTIONS = (
    "transforms.dft2_forward", "transforms.dft2_inverse",
    "transforms.haar_forward", "transforms.haar_inverse",
    "image_core.gradient_adjoint", "image_core.lp_norm",
    "sampling.draw_plan",
    "coherence.local_coherence_exact", "coherence.univariate_coherence_bound_check",
    "coherence.coherence_tables_1d",
    "verify.check_edge_lemma", "verify.check_atom_tv",
    "verify.isotropy_identity_error", "verify.rip_exact",
    "pgm.read_pgm", "pgm.write_pgm",
    "cli.main",
)


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order."""
    from spans import LAYERS

    units = {"trace_overhead": "ratio", "solvers.iterations": "count",
             "solvers.us_per_iter": "us", "solvers.solve.calls": "count",
             "solvers.solve.self_s": "s", "sampling.distinct_ratio": "ratio"}
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    for fn in TRACED_FUNCTIONS:
        units.update({f"{fn}.calls": "count", f"{fn}.self_s": "s", f"{fn}.us_per_call": "us"})
    return units


def load_package():
    """Put the checkout's sources on sys.path, or exit when they are missing."""
    if not (SRC / "vdfourier" / "__init__.py").is_file():
        sys.exit(f"error: no vdfourier sources under {SRC}")
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    SCRATCH.mkdir(exist_ok=True)


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def probe_setup(name, seed):
    """Set up one workload in this fresh interpreter; print the seconds it took."""
    t0 = time.perf_counter()
    import workloads

    with tempfile.TemporaryDirectory(dir=SCRATCH) as workdir:
        workloads.WORKLOADS[name](seed, workdir)
        elapsed = time.perf_counter() - t0
    print(repr(elapsed))


def measure_setup(name, seed):
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def attempt(workloads, op, tracer=None, run_label=None):
    """Time one call, then check its output: (seconds, Outcome or None, failure or None)."""
    elapsed = 0.0
    try:
        # the commands' own console lines are dropped so that stdout stays the report
        with tracer.installed(run_label) if tracer else nullcontext(), redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            result = op.call()
            elapsed = time.perf_counter() - t0
    except Exception as exc:  # noqa: BLE001 - a raising call is a counted failure
        traceback.print_exc()
        return elapsed, None, f"raised {type(exc).__name__}: {exc}"
    try:
        outcome = op.check(result)
    except workloads.CheckFailed as exc:
        return elapsed, None, str(exc)
    except (OSError, ValueError, KeyError) as exc:
        return elapsed, None, f"unreadable output: {exc!r}"
    if not outcome.error_ratio <= outcome.ceiling:
        return elapsed, outcome, f"error ratio {outcome.error_ratio:.4g} above {outcome.ceiling:g}"
    return elapsed, outcome, None


def describe(label, elapsed, outcome, failure):
    parts = [f"op {label}: {elapsed:.4f} s"]
    if outcome is not None:
        if outcome.iterations:
            parts.append(f"iterations {outcome.iterations}")
        if outcome.error == outcome.error:
            parts.append(f"rel_error {outcome.error:.6g}")
        if outcome.distinct_ratio:
            parts.append(f"distinct_ratio {outcome.distinct_ratio:.4f}")
        parts.append(f"error_ratio {outcome.error_ratio:.6g}")
    parts.append(f"FAILED: {failure}" if failure else "ok")
    return ", ".join(parts)


def make_passes(workload, seconds):
    return [workload.pass_ops(i) for i in range(max(1, int(seconds // workload.pass_cost_s)))]


def run_untraced(name, seed, seconds):
    setup_times = measure_setup(name, seed)
    import workloads

    with tempfile.TemporaryDirectory(dir=SCRATCH, prefix=f"{name}-") as workdir:
        workload = workloads.WORKLOADS[name](seed, workdir)
        records, pass_means = [], []
        for ops in make_passes(workload, seconds):
            for op in ops:
                records.append(attempt(workloads, op))
                print(describe(op.label, *records[-1]), flush=True)
            pass_means.append(statistics.fmean(r[0] for r in records[-len(ops):]))
    times = [r[0] for r in records]
    ratios = [r[1].error_ratio for r in records if r[1] is not None]
    report_gap(workload)
    values = {
        "setup_s": (statistics.median(setup_times), len(setup_times), "median"),
        "workload_s": (sum(times), len(times), "sum"),
        "op_s": (statistics.median(pass_means), len(pass_means), "median over passes"),
        "error_ratio": (statistics.median(ratios) if ratios else None, len(ratios), "median"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1, "max"),
    }
    for key, (value, count, stat) in values.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"metric {key} = {shown} {END_TO_END_UNITS[key]} ({stat} of n={count})")
    return records, {k: {"value": v[0], "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def run_traced(name, seed, seconds):
    import workloads
    from spans import LAYERS, SOLVE_SPANS, Tracer

    tracer = Tracer()
    plain, traced = [], []
    with tempfile.TemporaryDirectory(dir=SCRATCH, prefix=f"{name}-") as workdir:
        with tracer.installed("setup"):
            workload = workloads.WORKLOADS[name](seed, workdir)
        ops = [op for ops in make_passes(workload, seconds / 2) for op in ops]
        for i, op in enumerate(ops):
            # alternate which of the pair goes first, so warm-up does not bias the overhead
            if i % 2:
                traced.append(attempt(workloads, op, tracer, f"op{i}"))
                plain.append(attempt(workloads, op))
            else:
                plain.append(attempt(workloads, op))
                traced.append(attempt(workloads, op, tracer, f"op{i}"))
            print(describe(f"{op.label} [traced]", *traced[-1]), flush=True)
    report_gap(workload)
    tracer.save(SCRATCH / f"spans-{name}.npz")

    summary = tracer.summary()
    n_ops = len(ops)

    def total(names, key):
        return sum(summary[nm][key] for nm in names if nm in summary)

    outcomes = [r[1] for r in traced if r[1] is not None]
    iterations = sum(o.iterations for o in outcomes)
    solves = sum(1 for o in outcomes if o.iterations)
    plans = [o.distinct_ratio for o in outcomes if o.distinct_ratio]
    values = {
        "trace_overhead": sum(r[0] for r in traced) / sum(r[0] for r in plain),
        "solvers.iterations": iterations / solves if solves else 0.0,
        "solvers.us_per_iter": 1e6 * total(SOLVE_SPANS, "incl_s") / iterations if iterations else 0.0,
        "solvers.solve.calls": total(SOLVE_SPANS, "calls") / n_ops,
        "solvers.solve.self_s": total(SOLVE_SPANS, "self_s") / n_ops,
        "sampling.distinct_ratio": statistics.fmean(plans) if plans else 0.0,
    }
    for layer in LAYERS:
        in_layer = [nm for nm in summary if nm.split(".", 1)[0] == layer]
        values[f"{layer}.self_s"] = total(in_layer, "self_s") / n_ops
    for fn in TRACED_FUNCTIONS:
        calls, self_s = total([fn], "calls"), total([fn], "self_s")
        values[f"{fn}.calls"] = calls / n_ops
        values[f"{fn}.self_s"] = self_s / n_ops
        values[f"{fn}.us_per_call"] = 1e6 * self_s / calls if calls else 0.0

    layer_total = sum(values[f"{layer}.self_s"] for layer in LAYERS)
    for layer in sorted(LAYERS, key=lambda lay: -values[f"{lay}.self_s"]):
        share = values[f"{layer}.self_s"] / layer_total if layer_total else 0.0
        print(f"layer {layer}: self {values[f'{layer}.self_s']:.6g} s per op ({share:.1%})")
    for label, counts in tracer.calls_per_run(SOLVE_SPANS + TRACED_FUNCTIONS).items():
        print(f"calls in {label}: " + ", ".join(f"{k}={v}" for k, v in counts.items() if v))
    units = per_layer_units()
    for key, value in values.items():
        print(f"metric {key} = {value:.6g} {units[key]} (n={n_ops} traced ops)")
    return plain + traced, {k: {"value": values[k], "unit": u} for k, u in units.items()}


def report_gap(workload):
    gap = getattr(workload, "gap", None)
    if gap:
        print(f"criterion-2 gap (documented, not a failure): kappa' l2 = {gap[0]:.10g} "
              f"against the cap 52*sqrt(8) = {gap[1]:.6g}")


def run_one(args):
    load_package()
    print("env " + json.dumps(environment(), sort_keys=True))
    if args.trace:
        records, metrics = run_traced(args.workload, args.seed, args.seconds)
    else:
        records, metrics = run_untraced(args.workload, args.seed, args.seconds)
    failed = sum(1 for r in records if r[2])
    print(f"verdict: {'correct' if failed == 0 else 'INCORRECT'}, fail_ratio {failed}/{len(records)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))


def run_all(args):
    """Each workload in its own child process; prints their lines and a combined result."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with code {proc.returncode}")
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{k}": v for name, r in results.items() for k, v in r["metrics"].items()},
    }))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.probe_setup:
        load_package()
        probe_setup(args.workload, args.seed)
    elif args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
