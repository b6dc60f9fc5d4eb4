import csv
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import full_grid_plan, write_grid_oracle
from vdfourier import cli
from vdfourier.cli import _write_grid_csv, main
from vdfourier.coherence import kappa_l2, kappa_prime_table, kappa_table, local_coherence_exact
from vdfourier.pgm import read_pgm, write_pgm
from vdfourier.sampling import deterministic_mask
from vdfourier.solvers import SolverOptions
from vdfourier.phantoms import shepp_logan
from vdfourier.transforms import freq_values


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_test_image(path, n=16):
    write_pgm(path, shepp_logan(n), maxval=255)
    img, _ = read_pgm(path)
    return img


def read_recon_complex(out, n):
    """The exact reconstruction that ``reconstruct`` writes to ``out/recon_complex.csv``."""
    recon = np.zeros((n, n), dtype=complex)
    with open(out / "recon_complex.csv") as fh:
        for r in csv.DictReader(fh):
            recon[int(r["t1"]), int(r["t2"])] = float(r["real"]) + 1j * float(r["imag"])
    return recon


def manifest_argv(out):
    """The command line that ``out/manifest.json`` records, with its ``--out``."""
    manifest = json.loads((out / "manifest.json").read_text())
    return [manifest["command"]] + [arg for k, v in manifest["args"].items() if v is not None
                                    for arg in (f"--{k.replace('_', '-')}", str(v))]


def assert_rows_follow_the_pass_rule(rows):
    """Each check row passes exactly when measured <= bound, or, with no bound, when finite."""
    for r in rows:
        bound, measured = r["bound"], r["measured"]
        assert r["pass"] is (math.isfinite(measured) if bound is None else measured <= bound)


# ---------------------------------------------------------------------------
# coherence

def test_cmd_coherence_outputs(tmp_path):
    out = tmp_path / "coh"
    assert main(["coherence", "--n", "32", "--out", str(out)]) == 0
    for name in ("coherence_map.csv", "kappa.csv", "kappa_prime.csv", "report.json"):
        assert (out / name).exists()
    report = json.loads((out / "report.json").read_text())
    assert all(c["pass"] for c in report["checks"])
    with open(out / "coherence_map.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 32 * 32


def test_cmd_coherence_n256_reports_the_kappa_prime_l2_row(tmp_path):
    # the row exists from p = 8 on, and it fails there: criterion 2's gap in the paper's constant
    out = tmp_path / "coh256"
    assert main(["coherence", "--n", "256", "--out", str(out)]) == 0
    checks = json.loads((out / "report.json").read_text())["checks"]
    assert_rows_follow_the_pass_rule(checks)
    row = checks[-1]
    assert row["claim"] == "kappa_prime l2 <= 52 sqrt(p)"
    assert row["bound"] == 52 * np.sqrt(8)
    assert row["measured"] == kappa_l2(256, "kappa_prime") and row["pass"] is False


def test_cmd_coherence_rejects_bad_n(tmp_path):
    assert main(["coherence", "--n", "3", "--out", str(tmp_path / "x")]) == 2


def test_cmd_coherence_l2_matches_library(tmp_path):
    out = tmp_path / "coh8"
    assert main(["coherence", "--n", "8", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["kappa_prime_l2"] == pytest.approx(kappa_l2(8, "kappa_prime"), rel=1e-12)


def test_cmd_coherence_grid_csvs_match_the_cell_loop(tmp_path):
    n = 8
    out = tmp_path / "coh8"
    assert main(["coherence", "--n", str(n), "--out", str(out)]) == 0
    ks = freq_values(n)
    for name, table in (("coherence_map", local_coherence_exact(n)), ("kappa", kappa_table(n)),
                        ("kappa_prime", kappa_prime_table(n))):
        want = ["k1,k2,value"] + [f"{ks[i1]},{ks[i2]},{float(v)!r}"
                                  for (i1, i2), v in np.ndenumerate(table)]
        assert (out / f"{name}.csv").read_text().splitlines() == want


def test_grid_csv_matches_csv_writer(tmp_path):
    labels = np.array([0, 1, 2, -1])
    re = np.array([[0.5, -1.25, np.nan, np.inf], [-np.inf, -0.0, 1e-300, 3.0],
                   [-2.5e17, 7.0, 1e22, 0.1], [1.0 / 3, -1e-5, 2.0, -0.5]])
    im = -re.T
    _write_grid_csv(tmp_path / "grid.csv", ["t1", "t2", "real", "imag"], labels, re, im)
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t1", "t2", "real", "imag"])
        w.writerows([k1, k2, repr(float(re[i, j])), repr(float(im[i, j]))]
                    for i, k1 in enumerate(labels.tolist()) for j, k2 in enumerate(labels.tolist()))
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_grid_csv_with_repeats_matches_csv_writer(tmp_path):
    # one array holds -0.0 and 0.0, several nans and both infinities among heavy repeats,
    # so a value-keyed dedup that merges -0.0 into 0.0 would show
    labels = np.array([0, 1, 2, 3, -4, -3, -2, -1])
    pool = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 0.1, 1.0 / 3])
    vals = pool[np.arange(64).reshape(8, 8) % pool.size]
    vals[7, 7] = -np.nan
    zeros = vals[vals == 0.0]
    assert 0 < np.signbit(zeros).sum() < zeros.size  # both -0.0 and 0.0 are present
    for header, values in ((["k1", "k2", "value"], (vals,)),
                           (["t1", "t2", "real", "imag"], (vals, vals.T[::-1]))):
        _write_grid_csv(tmp_path / "grid.csv", header, labels, *values)
        write_grid_oracle(tmp_path / "want.csv", header, labels, *values)
        assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("n", [100, 128])
def test_grid_csv_across_assembly_blocks_matches_csv_writer(tmp_path, n):
    # n^2 cells span several of the writer's byte blocks (the last one short when n = 100);
    # two nan payloads, -0.0 and 0.0 repeat in every column, beside a mixed grid whose second
    # column is all distinct and so is repr'd one block at a time
    rng = np.random.default_rng(n)
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001]).view(float)
    pool = np.r_[-0.0, 0.0, nans, np.inf, -np.inf, rng.standard_normal(200)]
    rep, rep2 = pool[rng.integers(0, pool.size, (2, n, n))]
    for col in (rep, rep2):  # every column holds both zeros and both nans
        assert set(pool[:4].view(np.int64).tolist()) <= set(col.view(np.int64).ravel().tolist())
    labels = np.arange(n) - n // 2
    for header, values in ((["k1", "k2", "value"], (rep,)),
                           (["t1", "t2", "real", "imag"], (rep, rep2)),
                           (["t1", "t2", "real", "imag"], (rep, rng.standard_normal((n, n))))):
        _write_grid_csv(tmp_path / "grid.csv", header, labels, *values)
        write_grid_oracle(tmp_path / "want.csv", header, labels, *values)
        assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_grid_csv_all_distinct_matches_csv_writer(tmp_path):
    rng = np.random.default_rng(3)
    labels = np.arange(16)
    re, im = rng.standard_normal((2, 16, 16)) * 10.0 ** rng.integers(-300, 300, (2, 16, 16))
    _write_grid_csv(tmp_path / "grid.csv", ["t1", "t2", "real", "imag"], labels, re, im)
    write_grid_oracle(tmp_path / "want.csv", ["t1", "t2", "real", "imag"], labels, re, im)
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_grid_csv_memory_on_distinct_values(tmp_path):
    # an all-distinct grid (as recon_complex.csv is) is repr'd one block at a time: measured about
    # 20 bytes per cell (mostly the sorted bit patterns), against about 210 when every grid keeps
    # one repr per cell
    n = 256
    re, im = np.random.default_rng(0).standard_normal((2, n, n))
    tracemalloc.start()
    try:
        _write_grid_csv(tmp_path / "grid.csv", ["t1", "t2", "real", "imag"], np.arange(n), re, im)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * n * n


# ---------------------------------------------------------------------------
# sample

def test_cmd_sample_lowpass_single_pixel(tmp_path):
    out = tmp_path / "s"
    assert main(["sample", "--n", "8", "--density", "lowpass", "--m", "1",
                 "--out", str(out)]) == 0
    mask, _ = read_pgm(out / "mask.pgm")
    assert mask.sum() == 1.0
    assert mask[4, 4] == 1.0  # DC lands at the center after fftshift


def test_cmd_sample_reproducible_hash(tmp_path):
    args = ["sample", "--n", "32", "--density", "power:2", "--m", "200", "--seed", "7"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert file_hash(out1 / "mask.pgm") == file_hash(out2 / "mask.pgm")
    assert file_hash(out1 / "plan.csv") == file_hash(out2 / "plan.csv")


def test_cmd_sample_uniform_duplicates_in_csv(tmp_path, capsys):
    out = tmp_path / "u"
    n = 16
    assert main(["sample", "--n", str(n), "--density", "uniform", "--m", str(n * n),
                 "--seed", "3", "--out", str(out)]) == 0
    with open(out / "plan.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == n * n  # duplicates kept in the CSV
    unique = {(r["k1"], r["k2"]) for r in rows}
    mask, _ = read_pgm(out / "mask.pgm")
    assert int(mask.sum()) == len(unique) < n * n
    assert f"({n * n - len(unique)} duplicate draws)" in capsys.readouterr().out


def test_cmd_sample_invalid_density(tmp_path):
    for density in ("banana", "bogus", "power:-1", "power:nan", "radial:0"):
        assert main(["sample", "--n", "8", "--density", density, "--m", "4",
                     "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()


def test_cmd_sample_radial_lines_match_library(tmp_path):
    out = tmp_path / "r"
    assert main(["sample", "--n", "16", "--density", "radial:4", "--out", str(out)]) == 0
    deterministic_mask(16, "radial_lines", lines=4).to_csv(tmp_path / "want.csv")
    assert (out / "plan.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_cmd_sample_caps_n_at_1024(tmp_path):
    # sample has its own cap, not coherence's 256: reconstruct reads a 512 x 512 plan
    out = tmp_path / "s"
    assert main(["sample", "--n", "512", "--density", "inv-square", "--m", "100",
                 "--out", str(out)]) == 0
    with open(out / "plan.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 100
    assert read_pgm(out / "mask.pgm")[0].shape == (512, 512)
    assert main(["sample", "--n", "2048", "--density", "inv-square", "--m", "100",
                 "--out", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x").exists()


def test_cmd_sample_rejects_more_than_4n_radial_lines(tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["sample", "--n", "16", "--density", "radial:65", "--out", str(out)]) == 2
    assert "lines <= 64" in capsys.readouterr().err
    assert not out.exists()


def test_cmd_sample_random_density_requires_m(tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["sample", "--n", "16", "--density", "inv-square", "--out", str(out)]) == 2
    assert "requires --m" in capsys.readouterr().err
    assert not out.exists()


def test_cmd_sample_radial_density_rejects_m(tmp_path, capsys):
    # the line count fixes m, so an --m would be recorded in manifest.json but not used
    out = tmp_path / "x"
    assert main(["sample", "--n", "16", "--density", "radial:4", "--m", "5",
                 "--out", str(out)]) == 2
    assert "--m does not apply" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# reconstruct

def test_bare_reconstruct_and_sweep_parse_to_the_default_solver_options():
    parser = cli.build_parser()
    reconstruct = parser.parse_args(["reconstruct", "--image", "a.pgm", "--density", "uniform",
                                     "--out", "o"])
    sweep = parser.parse_args(["sweep", "--image", "a.pgm", "--alphas", "0", "--m", "4",
                               "--out", "o"])
    assert cli._solver_options(reconstruct, reconstruct.eps) == SolverOptions()
    assert cli._solver_options(sweep, float(sweep.eps_list)) == SolverOptions()


# every dest and default of each command, parsed from its shortest valid command line; each
# flag in these lines is required (reconstruct's --density stands for its --plan/--density group)
CLI_SURFACE = {
    ("coherence", "--n", "8", "--out", "o"): {"n": 8, "out": "o"},
    ("sample", "--n", "8", "--density", "uniform", "--out", "o"):
        {"n": 8, "density": "uniform", "m": None, "seed": 0, "out": "o"},
    ("reconstruct", "--image", "a.pgm", "--density", "uniform", "--out", "o"):
        {"image": "a.pgm", "plan": None, "density": "uniform", "m": None, "seed": 0, "out": "o",
         "eps": 0.0, "noise_model": "unweighted", "solver": "tv", "max_iters": 20000,
         "primal_tol": 1e-6},
    ("sweep", "--image", "a.pgm", "--alphas", "0", "--m", "4", "--out", "o"):
        {"image": "a.pgm", "alphas": "0", "eps_list": "0", "trials": 1, "m": 4, "seed": 0,
         "jobs": 1, "out": "o", "noise_model": "unweighted", "solver": "tv", "max_iters": 20000,
         "primal_tol": 1e-6},
    ("verify", "--out", "o"): {"n_list": "2,4,8,16,32,64", "out": "o"},
}


@pytest.mark.parametrize("argv", CLI_SURFACE)
def test_cli_surface_dests_defaults_and_required_flags(argv, capsys):
    args = vars(cli.build_parser().parse_args(argv))
    assert args.pop("func") is getattr(cli, f"cmd_{argv[0]}")
    assert args == {"command": argv[0], **CLI_SURFACE[argv]}
    for i in range(1, len(argv), 2):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv[:i] + argv[i + 2 :])
        assert exc.value.code == 2
        assert argv[i] in capsys.readouterr().err


def test_cmd_reconstruct_full_sampling_identity(tmp_path):
    img_path = tmp_path / "in.pgm"
    f = write_test_image(img_path, n=16)
    plan_path = tmp_path / "full.csv"
    full_grid_plan(16, rho_value=16.0).to_csv(plan_path)
    out = tmp_path / "rec"
    code = main(["reconstruct", "--image", str(img_path), "--plan", str(plan_path),
                 "--out", str(out), "--max-iters", "6000"])
    assert code == 0
    recon, _ = read_pgm(out / "recon.pgm")
    assert np.abs(recon - f).max() <= 1.0 / 255  # within output quantization
    with open(out / "error.csv") as fh:
        rows = {r["quantity"]: float(r["value"]) for r in csv.DictReader(fh)}
    assert rows["relative_l2_error"] <= 1e-6
    # the run's own files reproduce its error even when the result is almost real
    recon = read_recon_complex(out, 16)
    expected = np.linalg.norm(recon - f) / np.linalg.norm(f)
    assert rows["relative_l2_error"] == pytest.approx(expected, rel=1e-12)
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True


def test_cmd_reconstruct_error_formula(tmp_path):
    img_path = tmp_path / "in.pgm"
    f = write_test_image(img_path, n=16)
    out = tmp_path / "rec"
    main(["reconstruct", "--image", str(img_path), "--density", "inv-square",
          "--m", "120", "--seed", "5", "--out", str(out), "--max-iters", "3000"])
    # recompute || f - f# ||_2 / || f ||_2 from the exact reconstruction the run writes
    recon = read_recon_complex(out, 16)
    with open(out / "error.csv") as fh:
        rows = {r["quantity"]: float(r["value"]) for r in csv.DictReader(fh)}
    expected = np.linalg.norm(recon - f) / np.linalg.norm(f)
    assert rows["relative_l2_error"] == pytest.approx(expected, rel=1e-12)


def test_cmd_reconstruct_phantom_regression(tmp_path):
    from vdfourier.phantoms import rect_phantom

    img_path = tmp_path / "phantom.pgm"
    write_pgm(img_path, rect_phantom(32, seed=0), maxval=255)
    out = tmp_path / "rec"
    code = main(["reconstruct", "--image", str(img_path), "--density", "inv-square",
                 "--m", "410", "--seed", "100", "--out", str(out),
                 "--primal-tol", "1e-8"])
    assert code == 0
    with open(out / "error.csv") as fh:
        rows = {r["quantity"]: float(r["value"]) for r in csv.DictReader(fh)}
    assert rows["relative_l2_error"] <= 1e-3


def test_cmd_reconstruct_rejects_bad_image(tmp_path, capsys):
    for side in (1, 6):
        img_path = tmp_path / f"bad{side}.pgm"
        write_pgm(img_path, np.zeros((side, side)), maxval=255)
        for argv in (["reconstruct", "--density", "uniform", "--m", "10"],
                     ["sweep", "--alphas", "0", "--m", "10"]):
            out = tmp_path / f"{argv[0]}{side}"
            assert main(argv + ["--image", str(img_path), "--out", str(out)]) == 2
            assert f"power of two >= 2, got {side}" in capsys.readouterr().err
            assert not out.exists()
    img_path = tmp_path / "zero16.pgm"  # a valid side, but no relative error to report
    write_pgm(img_path, np.zeros((16, 16)), maxval=255)
    for argv in (["reconstruct", "--density", "uniform", "--m", "10"],
                 ["sweep", "--alphas", "0", "--m", "10"]):
        out = tmp_path / f"{argv[0]}16"
        assert main(argv + ["--image", str(img_path), "--out", str(out)]) == 2
        assert "is all zero: its relative error is undefined" in capsys.readouterr().err
        assert not out.exists()


def test_cmd_reconstruct_rejects_nan_eps(tmp_path):
    img_path = tmp_path / "in.pgm"
    write_test_image(img_path, n=16)
    assert main(["reconstruct", "--image", str(img_path), "--density", "inv-square",
                 "--m", "100", "--eps", "nan", "--out", str(tmp_path / "rec")]) == 2
    assert not (tmp_path / "rec").exists()
    with pytest.raises(SystemExit) as exc:  # --dens is not read as --density
        main(["reconstruct", "--image", str(img_path), "--dens", "inv-square",
              "--m", "100", "--out", str(tmp_path / "rec")])
    assert exc.value.code == 2
    assert not (tmp_path / "rec").exists()


@pytest.mark.parametrize("flag, value, field", [
    ("--primal-tol", "nan", "primal_tol"), ("--max-iters", "-5", "max_iters"),
])
def test_cmd_reconstruct_rejects_bad_solver_options(tmp_path, capsys, flag, value, field):
    img_path = tmp_path / "in.pgm"
    write_test_image(img_path, n=16)
    assert main(["reconstruct", "--image", str(img_path), "--density", "inv-square",
                 "--m", "100", "--eps", "0.1", "--max-iters", "300", flag, value,
                 "--out", str(tmp_path / "rec")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "rec").exists()


def test_cmd_reconstruct_rejects_nonfinite_plan(tmp_path):
    img_path = tmp_path / "in.pgm"
    write_test_image(img_path, n=16)
    plan_path = tmp_path / "plan.csv"
    plan_path.write_text("j,k1,k2,rho\n0,0,0,1.0\n1,1,2,nan\n")
    assert main(["reconstruct", "--image", str(img_path), "--plan", str(plan_path),
                 "--out", str(tmp_path / "rec")]) == 2
    assert not (tmp_path / "rec").exists()


@pytest.mark.parametrize("text, message", [
    ("j,k1,k2\n0,0,0\n", "no rho column"), ("j,k2,rho\n0,0,1.0\n", "no k1 column"),
    ("", "no k1/k2/rho column"), ("j,k1,k2,rho\n0,0,0\n", "float"),
    ("j,k1,k2,rho\n", "m = 0"),
])
def test_cmd_reconstruct_rejects_malformed_plan_csv(tmp_path, capsys, text, message):
    img_path = tmp_path / "in.pgm"
    write_test_image(img_path, n=16)
    plan_path = tmp_path / "plan.csv"
    plan_path.write_text(text)
    assert main(["reconstruct", "--image", str(img_path), "--plan", str(plan_path),
                 "--out", str(tmp_path / "rec")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "rec").exists()


def test_cmd_reconstruct_nonconvergence_exit_code(tmp_path):
    img_path = tmp_path / "in.pgm"
    write_test_image(img_path, n=16)
    out = tmp_path / "rec"
    code = main(["reconstruct", "--image", str(img_path), "--density", "inv-square",
                 "--m", "100", "--seed", "1", "--out", str(out),
                 "--max-iters", "120"])
    assert code == 3
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False


def _reject_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


@pytest.mark.parametrize("max_iters", [10, 60])
def test_cmd_reconstruct_report_is_strict_json(tmp_path, max_iters):
    # fewer than two objective checks: no objective change to report
    img_path = tmp_path / "in.pgm"
    write_test_image(img_path, n=32)
    out = tmp_path / "rec"
    assert main(["reconstruct", "--image", str(img_path), "--density", "inv-square",
                 "--m", "300", "--out", str(out), "--max-iters", str(max_iters)]) == 3
    report = json.loads((out / "report.json").read_text(), parse_constant=_reject_constant)
    assert report["primal_residual"] is None


def test_cmd_reconstruct_manifest_reproducibility(tmp_path):
    img_path = tmp_path / "in.pgm"
    write_test_image(img_path, n=16)
    out = tmp_path / "rec"
    args = ["reconstruct", "--image", str(img_path), "--density", "inv-square",
            "--m", "150", "--seed", "9", "--eps", "0.05", "--noise-model",
            "unweighted", "--out", str(out), "--max-iters", "2000"]
    main(args)
    first = {p.name: file_hash(p) for p in out.iterdir()}
    main(args)
    second = {p.name: file_hash(p) for p in out.iterdir()}
    assert first == second


@pytest.mark.parametrize("both", [True, False], ids=["both", "neither"])
def test_cmd_reconstruct_needs_exactly_one_of_plan_and_density(tmp_path, both):
    img_path = tmp_path / "in.pgm"
    write_test_image(img_path, n=16)
    plan_path = tmp_path / "full.csv"
    full_grid_plan(16, rho_value=16.0).to_csv(plan_path)
    source = ["--plan", str(plan_path), "--density", "inv-square"] if both else []
    with pytest.raises(SystemExit) as exc:
        main(["reconstruct", "--image", str(img_path), "--m", "100", *source,
              "--out", str(tmp_path / "rec")])
    assert exc.value.code == 2
    assert not (tmp_path / "rec").exists()


@pytest.mark.parametrize("from_csv", [True, False], ids=["plan", "radial"])
def test_cmd_reconstruct_rejects_m_where_the_plan_fixes_it(tmp_path, capsys, from_csv):
    img_path = tmp_path / "in.pgm"
    write_test_image(img_path, n=16)
    plan_path = tmp_path / "full.csv"
    full_grid_plan(16, rho_value=16.0).to_csv(plan_path)
    source = ["--plan", str(plan_path)] if from_csv else ["--density", "radial:4"]
    assert main(["reconstruct", "--image", str(img_path), *source, "--m", "5",
                 "--out", str(tmp_path / "rec")]) == 2
    assert "--m does not apply" in capsys.readouterr().err
    assert not (tmp_path / "rec").exists()


def test_manifest_args_replay_every_artifact(tmp_path):
    img_path = tmp_path / "in.pgm"
    write_test_image(img_path, n=16)
    full_grid_plan(16, rho_value=16.0).to_csv(tmp_path / "full.csv")
    runs = {
        "plan": ["reconstruct", "--image", str(img_path), "--plan", str(tmp_path / "full.csv"),
                 "--eps", "0.05", "--max-iters", "300"],
        "density": ["reconstruct", "--image", str(img_path), "--density", "inv-square",
                    "--m", "120", "--seed", "5", "--eps", "0.05", "--noise-model", "weighted",
                    "--solver", "haar", "--max-iters", "300"],
        "sweep": ["sweep", "--image", str(img_path), "--alphas", "0,inf", "--eps-list", "0,0.1",
                  "--m", "60", "--seed", "2", "--max-iters", "200"],
        "coherence": ["coherence", "--n", "8"],
        "sample": ["sample", "--n", "16", "--density", "inv-square", "--m", "60"],
        "verify": ["verify", "--n-list", "2,4"],
    }
    for name, argv in runs.items():
        first, again = tmp_path / name, tmp_path / f"{name}-again"
        main(argv + ["--out", str(first)])
        recorded = manifest_argv(first)
        assert recorded[recorded.index("--out") + 1] == str(first)
        recorded[recorded.index("--out") + 1] = str(again)
        main(recorded)
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in again.iterdir())
        for artifact in set(names) - {"manifest.json"}:
            assert (first / artifact).read_bytes() == (again / artifact).read_bytes(), artifact
        assert manifest_argv(again) == recorded


# ---------------------------------------------------------------------------
# sweep

def test_cmd_sweep_manifest_records_max_iters(tmp_path):
    img_path = tmp_path / "in.pgm"
    write_test_image(img_path, n=16)
    args = ["sweep", "--image", str(img_path), "--alphas", "2", "--m", "60", "--out"]
    manifests = []
    for iters in ("40", "50"):
        out = tmp_path / iters
        assert main(args + [str(out), "--max-iters", iters]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["args"].pop("out") == str(out)
        manifests.append(manifest)
    assert manifests[0] != manifests[1]
    assert [m["args"]["max_iters"] for m in manifests] == [40, 50]


def test_cmd_sweep_rows_and_columns(tmp_path):
    img_path = tmp_path / "in.pgm"
    write_test_image(img_path, n=16)
    out = tmp_path / "sw"
    code = main(["sweep", "--image", str(img_path), "--alphas", "0,2,inf",
                 "--eps-list", "0,0.2", "--trials", "2", "--m", "80",
                 "--seed", "11", "--out", str(out), "--max-iters", "800"])
    assert code == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 2 * 2
    seeds = sorted(int(r["seed"]) for r in rows)
    assert seeds == list(range(11, 11 + 12))  # one seed per cell
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n"] == 16


def test_cmd_sweep_noise_monotonicity(tmp_path):
    img_path = tmp_path / "in.pgm"
    write_test_image(img_path, n=16)
    out = tmp_path / "mono"
    assert main(["sweep", "--image", str(img_path), "--alphas", "2",
                 "--eps-list", "0,0.5", "--trials", "3", "--m", "120",
                 "--seed", "21", "--out", str(out), "--max-iters", "4000"]) == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    by_eps = {}
    for r in rows:
        by_eps.setdefault(float(r["epsilon"]), []).append(float(r["error"]))
    assert np.mean(by_eps[0.0]) <= np.mean(by_eps[0.5])


def test_cmd_sweep_density_trend_64(tmp_path):
    # low-pass leaning density beats uniform on a compressible 64x64 scene
    from vdfourier.phantoms import compressible_scene

    img_path = tmp_path / "scene.pgm"
    write_pgm(img_path, compressible_scene(64), maxval=255)
    out = tmp_path / "trend"
    assert main(["sweep", "--image", str(img_path), "--alphas", "0,2",
                 "--trials", "3", "--m", "614", "--seed", "4242",
                 "--out", str(out), "--max-iters", "4000"]) == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    by_alpha = {}
    for r in rows:
        by_alpha.setdefault(float(r["alpha"]), []).append(float(r["error"]))
    assert np.mean(by_alpha[2.0]) < np.mean(by_alpha[0.0])


def test_cmd_sweep_rejects_bad_input(tmp_path, capsys):
    img_path = tmp_path / "in.pgm"
    write_test_image(img_path, n=16)
    args = ["sweep", "--image", str(img_path), "--m", "60", "--out", str(tmp_path / "sw")]
    for bad, message in ((["--alphas=-1"], "alpha must be >= 0, got -1.0"),
                         (["--alphas", "2", "--eps-list", "0,nan"], "epsilon must be finite"),
                         (["--alphas", "2", "--trials", "0"], "--trials must be >= 1, got 0"),
                         (["--alphas", "2", "--trials", "-2"], "--trials must be >= 1, got -2"),
                         (["--alphas", "2", "--m", "0"], "m must be >= 1, got 0"),
                         (["--alphas", "2", "--jobs", "0"], "--jobs must be >= 1, got 0"),
                         (["--alphas", "0,1,2", "--seed", "-2"], "--seed must be >= 0, got -2"),
                         (["--alphas", "1,y"], "--alphas must be a comma list of numbers, got 1,y"),
                         (["--alphas", "2", "--eps-list", "0,z"],
                          "--eps-list must be a comma list of numbers, got 0,z")):
        assert main(args + bad) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()
    with pytest.raises(SystemExit) as exc:  # sweep has no --eps; it reads --eps-list
        main(args + ["--alphas", "2", "--eps", "0.1"])
    assert exc.value.code == 2
    assert not (tmp_path / "sw").exists()


def test_cmd_reconstruct_and_sample_reject_a_negative_seed(tmp_path, capsys):
    # reconstruct's noise seed, --seed + 1_000_003, is >= 0 here: the check is on --seed itself
    img_path = tmp_path / "in.pgm"
    write_test_image(img_path, n=16)
    for argv in (["reconstruct", "--image", str(img_path), "--density", "lowpass", "--m", "10",
                  "--seed", "-1000004"],
                 ["sample", "--n", "16", "--density", "radial:4", "--seed", "-1"]):
        out = tmp_path / argv[0]
        assert main(argv + ["--out", str(out)]) == 2
        assert f"--seed must be >= 0, got {argv[-1]}" in capsys.readouterr().err
        assert not out.exists()


def test_cmd_sweep_m_above_grid_size_exits_2(tmp_path, capsys):
    img_path = tmp_path / "in.pgm"
    write_test_image(img_path, n=16)
    out = tmp_path / "sw"
    assert main(["sweep", "--image", str(img_path), "--alphas", "inf,2", "--m", "257",
                 "--out", str(out)]) == 2
    assert "lowest_frequencies requires 1 <= m <= 256" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("alphas, m", [("2", 257), ("inf", 257), ("0,inf", 256), ("-1", 10),
                                       ("nan", 10), ("2", 0)])
def test_sweep_refuses_exactly_what_sample_refuses(tmp_path, alphas, m):
    # one owner for the plan rules: sweep builds each --alphas entry's plan as sample does
    img_path = tmp_path / "in.pgm"
    write_test_image(img_path, n=16)
    sample_codes = [main(["sample", "--n", "16", "--density", f"power:{alpha}", "--m", str(m),
                          "--out", str(tmp_path / f"sample{i}")])
                    for i, alpha in enumerate(alphas.split(","))]
    out = tmp_path / "sw"
    code = main(["sweep", "--image", str(img_path), "--alphas", alphas, "--m", str(m),
                 "--max-iters", "50", "--out", str(out)])
    assert code == max(sample_codes) and set(sample_codes) <= {0, 2}
    assert out.exists() == (code == 0)


def test_cmd_sweep_all_cells_failed_exits_5(tmp_path, monkeypatch):
    def fail(*args):
        raise RuntimeError("solver exploded")

    monkeypatch.setattr(cli, "tv_min_reconstruct", fail)
    img_path = tmp_path / "in.pgm"
    write_test_image(img_path, n=16)
    out = tmp_path / "sw"
    assert main(["sweep", "--image", str(img_path), "--alphas", "0,2", "--m", "60",
                 "--out", str(out)]) == cli.EXIT_SWEEP_FAILED == 5
    with open(out / "sweep.csv") as fh:
        assert [r["status"] for r in csv.DictReader(fh)] == ["error: solver exploded"] * 2


def assert_image_rejected_before_out(tmp_path, data):
    img_path = tmp_path / "bad.pgm"
    img_path.write_bytes(data)
    for args in (["reconstruct", "--density", "uniform", "--m", "4"], ["sweep", "--alphas", "2", "--m", "4"]):
        out = tmp_path / args[0]
        assert main(args + ["--image", str(img_path), "--out", str(out)]) == 2
        assert not out.exists()


@pytest.mark.parametrize("data", [b"", b"P5\n4 4\n", b"P2\n"], ids=["empty", "no-maxval", "p2-no-size"])
def test_cmd_reconstruct_and_sweep_reject_truncated_pgm_header(tmp_path, data):
    assert_image_rejected_before_out(tmp_path, data)


@pytest.mark.parametrize("data", [b"P2\n2 2\n255\n0 0 -1 0\n", b"P2\n2 2\n255\n0 0 0 4294967296\n",
                                  b"P5\n-2 -2\n255\n" + bytes(4), b"P2\n2 2\n0\n0 0 0 0\n",
                                  b"P5\n2 2\n65536\n" + bytes(8), b"P2\n2 2\n255\n0 0 0\n"],
                         ids=["negative-pixel", "pixel-past-uint32", "negative-size", "zero-maxval",
                              "maxval-past-16-bit", "truncated-p2-raster"])
def test_cmd_reconstruct_and_sweep_reject_bad_pgm_values(tmp_path, data, capsys):
    assert_image_rejected_before_out(tmp_path, data)
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("error: ") == 2


def test_cmd_sweep_parallel_matches_serial(tmp_path):
    img_path = tmp_path / "in.pgm"
    write_test_image(img_path, n=16)
    args = ["sweep", "--image", str(img_path), "--alphas", "0,2", "--trials", "2",
            "--m", "60", "--seed", "4", "--max-iters", "400"]
    out1, out2 = tmp_path / "ser", tmp_path / "par"
    assert main(args + ["--out", str(out1), "--jobs", "1"]) == 0
    assert main(args + ["--out", str(out2), "--jobs", "2"]) == 0
    assert file_hash(out1 / "sweep.csv") == file_hash(out2 / "sweep.csv")


def test_cmd_sweep_starts_no_more_workers_than_cells(tmp_path, monkeypatch):
    # the pool is faked, so no process starts: fork would start every requested worker
    import concurrent.futures

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    workers = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    img_path = tmp_path / "in.pgm"
    write_test_image(img_path, n=16)
    assert main(["sweep", "--image", str(img_path), "--alphas", "0,2", "--m", "60",
                 "--max-iters", "100", "--jobs", "64", "--out", str(tmp_path / "sw")]) == 0
    assert workers == [2]


# ---------------------------------------------------------------------------
# verify

def test_cmd_verify_passes(tmp_path):
    out = tmp_path / "v"
    assert main(["verify", "--n-list", "2,4,8", "--out", str(out)]) == 0
    report = json.loads((out / "verify.json").read_text())
    assert report["all_pass"] is True
    claims = {r["claim"] for r in report["results"]}
    assert "preconditioned isotropy identity" in claims


def test_cmd_verify_fails_exactly_the_rows_over_their_bound(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "check_atom_tv", lambda n: 8.5)
    out = tmp_path / "v"
    assert main(["verify", "--n-list", "2,4", "--out", str(out)]) == 4
    report = json.loads((out / "verify.json").read_text())
    assert report["all_pass"] is False
    assert_rows_follow_the_pass_rule(report["results"])
    failed = [(r["claim"], r["n"]) for r in report["results"] if not r["pass"]]
    assert failed == [("atom TV <= 8", 2), ("atom TV <= 8", 4)]
    fail_lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("[FAIL]")]
    assert fail_lines == [f"[FAIL] n={n} atom TV <= 8: measured 8.5" for n in (2, 4)]


def test_cmd_verify_rejects_large_n(tmp_path, capsys):
    for n_list, bad in (("128", "128"), ("2,128", "128"), ("2,x", "x")):
        assert main(["verify", "--n-list", n_list, "--out", str(tmp_path / "x")]) == 2
        assert (f"--n-list entry must be a power of two in [2, 64], got {bad}"
                in capsys.readouterr().err)
        assert not (tmp_path / "x").exists()
    with pytest.raises(SystemExit) as exc:  # --n is not read as --n-list
        main(["verify", "--n", "4", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert not (tmp_path / "x").exists()
