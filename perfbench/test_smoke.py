"""Smoke test of the benchmark at a reduced size; it asserts no timing.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from vdfourier import solvers  # noqa: E402


@pytest.fixture
def workdir():
    run.SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.SCRATCH) as path:
        yield Path(path)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_outputs_pass_their_checks(name, workdir):
    workload = workloads.WORKLOADS[name](3, workdir, small=True)
    for op in workload.pass_ops(0):
        _, outcome, failure = run.attempt(workloads, op)
        assert failure is None, f"{op.label}: {failure}"
        assert 0 < outcome.error_ratio <= outcome.ceiling


def test_same_seed_gives_same_inputs(workdir):
    a = workloads.TvWeighted(5, workdir, small=True)
    b = workloads.TvWeighted(5, workdir, small=True)
    c = workloads.TvWeighted(6, workdir, small=True)
    assert all((ya == yb).all() for (_, ya, _), (_, yb, _) in zip(a.cases, b.cases))
    assert not (a.cases[0][1] == c.cases[0][1]).all()


def test_wrong_outputs_count_as_failures(workdir):
    workload = workloads.TvWeighted(3, workdir, small=True)
    op = workload.pass_ops(0)[-1]
    recon, report = op.call()
    early = workloads.Op(op.label, lambda: (recon, replace(report, converged=False)), op.check)
    off = workloads.Op(op.label, lambda: (recon + 0.5, report), op.check)
    raising = workloads.Op(op.label, lambda: solvers.tv_min_reconstruct([1.0], workload.plan),
                           op.check)
    for bad in (early, off, raising):
        assert run.attempt(workloads, bad)[2] is not None


def test_tracer_attributes_calls_and_restores_originals(workdir):
    workload = workloads.HaarCli(3, workdir, small=True)
    original = solvers.dft2_forward
    tracer = Tracer()
    with tracer.installed("op0"):
        assert solvers.dft2_forward is not original
        _, outcome, failure = run.attempt(workloads, workload.pass_ops(0)[0])
    assert failure is None
    assert solvers.dft2_forward is original
    summary = tracer.summary()
    assert summary["cli.main"]["calls"] == 1
    assert summary["solvers.l1_haar_reconstruct"]["calls"] == 1
    assert summary["transforms.haar_inverse"]["calls"] >= outcome.iterations
    assert summary["image_core.gradient_adjoint"]["calls"] == 0
    for entry in summary.values():
        assert 0 <= entry["self_s"] <= entry["incl_s"] + 1e-9


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
