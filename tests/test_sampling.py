import math
from dataclasses import fields

import numpy as np
import pytest

from vdfourier.coherence import kappa_table
from vdfourier.sampling import (
    Density,
    SamplingPlan,
    density_from_kappa,
    density_inverse_max,
    density_inverse_square,
    density_power_law,
    density_uniform,
    deterministic_mask,
    draw_plan,
)
from vdfourier.transforms import freq_values

ALL_DENSITIES = [
    lambda n: density_uniform(n),
    lambda n: density_inverse_square(n),
    lambda n: density_inverse_max(n),
    lambda n: density_power_law(n, 2.0),
    lambda n: density_power_law(n, 3.5),
]


def density_oracle(n, mass_fn):
    """Normalize an explicit per-frequency mass function."""
    ks = freq_values(n)
    vals = np.array([[mass_fn(k1, k2) for k2 in ks] for k1 in ks], dtype=float)
    return vals / vals.sum()


# ---------------------------------------------------------------------------
# densities

@pytest.mark.parametrize("maker", ALL_DENSITIES)
def test_density_sums_to_one_and_symmetric(maker):
    d = maker(16)
    v = d.values
    assert abs(v.sum() - 1.0) <= 1e-12
    assert np.all(v >= 0)
    assert np.abs(v - v.T).max() < 1e-15
    ks = freq_values(16)
    for i, k in enumerate(ks):
        if k == 8:
            continue
        assert np.abs(v[i, :] - v[(-k) % 16, :]).max() < 1e-15


def test_inverse_square_cap_values():
    d = density_inverse_square(8)
    v = d.values
    # unnormalized masses 1, 1, 1/4 at radii 0, 1, 2
    assert v[0, 0] == pytest.approx(v[1 % 8, 0])
    assert v[2 % 8, 0] == pytest.approx(v[0, 0] / 4)


def test_inverse_square_matches_oracle_n64():
    d = density_inverse_square(64)
    oracle = density_oracle(64, lambda k1, k2: min(1.0, 1.0 / (k1**2 + k2**2)) if (k1, k2) != (0, 0) else 1.0)
    assert np.abs(d.values - oracle).max() < 1e-15


def test_power_law_uniform_at_zero():
    d = density_power_law(8, 0.0)
    assert np.allclose(d.values, 1 / 64)


def test_power_law_mass_ratio():
    d = density_power_law(16, 2.0)
    assert d.values[1, 0] / d.values[3, 0] == pytest.approx(5.0, rel=1e-12)


def test_power_law_matches_oracle_n64():
    d = density_power_law(64, 3.0)
    oracle = density_oracle(64, lambda k1, k2: (k1**2 + k2**2 + 1.0) ** -1.5)
    assert np.abs(d.values - oracle).max() < 1e-15


def test_power_law_rejects_negative():
    with pytest.raises(ValueError):
        density_power_law(8, -0.1)
    with pytest.raises(ValueError, match="alpha"):
        density_power_law(8, math.nan)


def test_power_law_infinite_is_degenerate():
    # the alpha -> inf limit is a point mass: no i.i.d. density, only the lowpass mask
    with pytest.raises(ValueError, match="deterministic_mask"):
        density_power_law(8, math.inf)


def test_inverse_max_matches_oracle_n32():
    d = density_inverse_max(32)
    oracle = density_oracle(
        32, lambda k1, k2: min(1.0, 1.0 / max(abs(k1), abs(k2))) if max(abs(k1), abs(k2)) else 1.0
    )
    assert np.abs(d.values - oracle).max() < 1e-15


def test_density_from_kappa():
    flat = density_from_kappa(np.ones((8, 8)))
    assert np.allclose(flat.values, 1 / 64)
    kap = kappa_table(64)
    d = density_from_kappa(kap)
    assert np.abs(d.values - kap**2 / (kap**2).sum()).max() < 1e-15
    assert abs(d.values.sum() - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        density_from_kappa(np.zeros((8, 8)))


def test_inverse_square_vs_power2_ratio_bracket():
    # same shape up to the +1 shift away from the origin
    a = density_inverse_square(32).values
    b = density_power_law(32, 2.0).values
    k1, k2 = np.meshgrid(freq_values(32), freq_values(32), indexing="ij")
    sel = k1**2 + k2**2 >= 1
    ratio = a[sel] / b[sel]
    assert ratio.min() >= 0.5 and ratio.max() <= 2.0


def test_density_validation():
    with pytest.raises(ValueError, match=r"density grid must be square, got shape \(4, 8\)"):
        Density(values=np.full((4, 8), 1 / 32))
    with pytest.raises(ValueError):
        Density(values=np.full((8, 8), 2.0 / 64))
    with pytest.raises(ValueError):
        Density(values=-np.ones((8, 8)) / 64)
    for make in (lambda: Density(values=np.full((4, 4), np.nan)),
                 lambda: Density(values=np.where(np.eye(4) > 0, np.inf, 0.0))):
        with pytest.raises(ValueError, match="finite"):
            make()


# ---------------------------------------------------------------------------
# plans

def test_draw_plan_point_mass():
    vals = np.zeros((8, 8))
    vals[3, 2] = 1.0
    d = Density(values=vals)
    plan = draw_plan(d, 7, seed=1)
    assert np.all(plan.freqs[:, 0] == 3) and np.all(plan.freqs[:, 1] == 2)
    assert np.allclose(plan.rho, 1.0)


def test_draw_plan_seed_reproducible():
    d = density_inverse_square(8)
    a = draw_plan(d, 5, 42)
    b = draw_plan(d, 5, 42)
    assert np.array_equal(a.freqs, b.freqs) and np.array_equal(a.rho, b.rho)
    # frozen stream of numpy's default generator (pcg64)
    assert a.freqs.tolist() == [[-2, -2], [1, -3], [-1, 0], [-3, -2], [0, 1]]
    assert a.rho == pytest.approx(
        [10.171959653753389, 11.372596625088898, 3.596330824562493,
         12.966755191491757, 3.596330824562493], rel=1e-12)


def test_draw_plan_rho_eta_identity():
    d = density_inverse_square(16)
    plan = draw_plan(d, 200, 3)
    i1 = plan.freqs[:, 0] % 16
    i2 = plan.freqs[:, 1] % 16
    # exact up to one rounding of the product
    assert np.abs(plan.rho * np.sqrt(d.values[i1, i2]) - 1.0).max() <= 5e-16


def test_draw_plan_uniform_concentration():
    n, m = 16, 100_000
    plan = draw_plan(density_uniform(n), m, seed=2024)
    counts = np.zeros((n, n))
    np.add.at(counts, (plan.freqs[:, 0] % n, plan.freqs[:, 1] % n), 1)
    p = 1 / n**2
    sigma = np.sqrt(m * p * (1 - p))
    assert np.abs(counts - m * p).max() <= 5 * sigma


def test_draw_plan_chi_square_sanity():
    n, m = 8, 100_000
    plan = draw_plan(density_uniform(n), m, seed=77)
    counts = np.zeros(n * n)
    np.add.at(counts, (plan.freqs[:, 0] % n) * n + plan.freqs[:, 1] % n, 1)
    expected = m / n**2
    stat = ((counts - expected) ** 2 / expected).sum()
    assert stat < 103.45  # chi2.ppf(0.999, 63)


def test_draw_plan_rejects_bad_m():
    with pytest.raises(ValueError):
        draw_plan(density_uniform(8), 0, 0)


# ---------------------------------------------------------------------------
# deterministic masks

def test_lowest_frequencies_single():
    plan = deterministic_mask(8, "lowest_frequencies", m=1)
    assert plan.freqs.tolist() == [[0, 0]]
    assert np.all(plan.rho == 1.0)


def test_lowest_frequencies_five():
    plan = deterministic_mask(8, "lowest_frequencies", m=5)
    got = {tuple(v) for v in plan.freqs.tolist()}
    assert got == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}


def test_lowest_frequencies_radii_sorted():
    plan = deterministic_mask(16, "lowest_frequencies", m=40)
    r2 = (plan.freqs**2).sum(axis=1)
    assert np.all(np.diff(r2) >= 0)


def test_radial_lines_two_axes():
    plan = deterministic_mask(8, "radial_lines", lines=2)
    got = {tuple(v) for v in plan.freqs.tolist()}
    expected = {(k, 0) for k in range(-3, 5)} | {(0, k) for k in range(-3, 5)}
    assert got == expected
    assert np.all(plan.rho == 1.0)


def test_radial_lines_rasterization_oracle():
    # every requested angle contributes a digital line: nearest lattice point
    # per step of the dominant coordinate
    n, lines = 16, 4
    plan = deterministic_mask(n, "radial_lines", lines=lines)
    got = {tuple(v) for v in plan.freqs.tolist()}
    lo, hi = -n // 2 + 1, n // 2
    expected = set()
    for i in range(lines):
        th = np.pi * i / lines
        c, s = np.cos(th), np.sin(th)
        for step in range(lo, hi + 1):
            if abs(c) >= abs(s):
                pt = (step, int(round(step * s / c)))
            else:
                pt = (int(round(step * c / s)), step)
            if lo <= pt[0] <= hi and lo <= pt[1] <= hi:
                expected.add(pt)
    assert got == expected


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_plan_rejects_bad_rho(bad):
    rho = np.ones(3)
    rho[1] = bad
    with pytest.raises(ValueError, match="finite and positive"):
        SamplingPlan(n=8, freqs=np.array([[0, 0], [1, 2], [-3, 4]]), rho=rho)


def test_plan_rejects_a_bad_freqs_shape_or_rho_length():
    with pytest.raises(ValueError, match=r"freqs must be an \(m, 2\) array"):
        SamplingPlan(n=8, freqs=np.zeros((3, 3), dtype=int), rho=np.ones(3))
    with pytest.raises(ValueError, match="rho length must match"):
        SamplingPlan(n=8, freqs=np.zeros((3, 2), dtype=int), rho=np.ones(2))


def test_mask_variant_errors():
    with pytest.raises(ValueError):
        deterministic_mask(8, "lowest_frequencies", m=65)
    with pytest.raises(ValueError):
        deterministic_mask(8, "no_such_variant", m=5)


def test_plan_csv_roundtrip(tmp_path):
    plan = draw_plan(density_inverse_square(16), 30, seed=4)
    path = tmp_path / "plan.csv"
    plan.to_csv(path)
    back = SamplingPlan.from_csv(path, 16)
    assert np.array_equal(back.freqs, plan.freqs)
    assert np.allclose(back.rho, plan.rho, rtol=0, atol=0)


def test_plan_and_density_hold_only_what_the_pipeline_reads():
    assert [f.name for f in fields(SamplingPlan)] == ["n", "freqs", "rho"]
    assert [f.name for f in fields(Density)] == ["values"]


def test_plan_lin_is_the_flat_storage_position():
    n = 16
    plan = draw_plan(density_inverse_square(n), 50, seed=2)
    k1, k2 = plan.freqs[:, 0], plan.freqs[:, 1]
    assert np.array_equal(plan.lin, (k1 % n) * n + k2 % n)
    assert np.array_equal(np.flatnonzero(plan.mask()), np.unique(plan.lin))
    for bad in ([[n // 2 + 1, 0]], [[0, -n // 2]]):
        with pytest.raises(ValueError, match="outside"):
            SamplingPlan(n=n, freqs=np.array(bad), rho=np.ones(1))


def test_plan_mask_marks_sampled_cells():
    plan = deterministic_mask(8, "lowest_frequencies", m=5)
    mask = plan.mask()
    assert mask.sum() == 5
    assert mask[0, 0]
