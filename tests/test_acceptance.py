"""Acceptance criteria for the shipped default calibration.

Each test is one criterion at its stated tolerance and prints a PASS line
(visible with ``pytest -s``; under ``pytest -v`` each criterion also shows
as its own pass/fail line).  The bias-map criteria share one full-window
sweep of the default configuration.
"""

import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from pillartune.config import load_run_config
from pillartune.device import generate_mesh, make_strip_mesh
from pillartune.exciton import (
    ExcitonParams,
    exciton_state,
    fss_vector,
    splitting_hamiltonian,
)
from pillartune.solver import BiasPoint, SheetSystem
from pillartune.spectro import (
    PolarizationScan,
    fit_fss_sine,
    shift_law,
)
from pillartune.tuner import (
    find_zero_fss,
    iso_fss_points,
    read_sweep_csv,
    regime_summary,
    run_bias_sweep,
    write_sweep_csv,
)

GOLDEN = Path(__file__).parent / "data" / "golden_sweep"
# Newton stops at 1e-11 of the residual scale (``newton_tol``); three
# decades of margin cover the conditioning from residual to outputs.
GOLDEN_RTOL = 1e-8


def _ok(line: str) -> None:
    print(f"ACCEPTANCE {line}")


@pytest.fixture(scope="module")
def cfg():
    return load_run_config()


@pytest.fixture(scope="module")
def mesh(cfg):
    return generate_mesh(cfg.geometry, cfg.mesh_edge)


@pytest.fixture(scope="module")
def default_sweep(cfg, mesh):
    t0 = time.perf_counter()
    result = run_bias_sweep(cfg.sweep, mesh, cfg.materials, cfg.exciton, cfg.solver)
    result.metadata["wall_s"] = time.perf_counter() - t0
    return result


@pytest.fixture(scope="module")
def tuned(cfg, mesh):
    return find_zero_fss(
        BiasPoint(0.0, 0.0, cfg.sweep.vc),
        ("A", "B"),
        tol=1.5,
        mesh=mesh,
        materials=cfg.materials,
        exciton_params=cfg.exciton,
        cfg=cfg.solver,
        bounds=cfg.sweep.tune_bounds(),
    )


@pytest.fixture(scope="module")
def summary(cfg, default_sweep):
    return regime_summary(default_sweep, cfg.geometry, cfg.solver.regime_threshold)


def test_criterion_01_regime_map(default_sweep, summary):
    """41x41 map: all four regimes, region 1 fills the mutually
    reverse-biased quadrant, region 2 is exactly the both-over-threshold
    set, all cells converged, runtime within budget."""
    recs = default_sweep.records
    assert len(recs) == 41 * 41
    assert all(r.ok for r in recs), "all cells must converge"
    regions = dict(zip((1, 2, 3, 4), summary.region_counts))
    assert all(n > 0 for n in regions.values()), regions
    assert summary.reverse_quadrant_blocked is True and summary.region2_exact is True
    wall = default_sweep.metadata["wall_s"]
    assert wall <= 300.0
    _ok(
        f"1 PASS: four regimes {regions}, clean reverse quadrant, "
        f"{wall:.0f}s for 41x41"
    )


def test_criterion_02_region1_field_normal_to_ridge_c(summary):
    """>= 20 blocked-regime points with the in-plane field normal to the
    unconnected ridge C within 5 degrees."""
    worst = summary.blocked_deviation_deg  # None with fewer than 20 points
    assert worst is not None and worst <= 5.0
    _ok(f"2 PASS: 20 region-1 points normal to ridge C (worst {worst:.2f} deg)")


def test_criterion_03_region2_angular_coverage(summary):
    """Directions accessible in the two-diode passing regime span >= 0.8 pi."""
    span = summary.region2_span_pi
    assert summary.region_counts[1] > 10 and span >= 0.8
    _ok(f"3 PASS: region-2 direction span {span:.3f} pi")


def test_criterion_04_field_magnitude_ratio(summary):
    """Max passing-regime field over max blocked-regime field in [2, 8]."""
    ratio = summary.field_ratio
    assert ratio is not None and 2.0 <= ratio <= 8.0
    _ok(f"4 PASS: passing/blocked field ratio {ratio:.2f}")


def test_criterion_05_conservation_and_laplace_limit(cfg, default_sweep):
    """Kirchhoff balance at every converged cell; uniform-field strip limit."""
    floor = cfg.solver.current_floor
    worst = 0.0
    for r in default_sweep.records:
        if not r.ok:
            continue
        err = abs(r.ia + r.ib + r.ic - r.i_junction)
        bound = 1e-8 * max(abs(r.ia), abs(r.ib), abs(r.ic), floor)
        worst = max(worst, err / bound)
        assert err <= bound
    length = 50.0
    strip = make_strip_mesh(
        length,
        10.0,
        1.0,
        built_in_voltage=cfg.geometry.built_in_voltage,
        intrinsic_thickness_nm=cfg.geometry.intrinsic_thickness_nm,
    )
    materials = dataclasses.replace(
        cfg.materials,
        sheet_conductance=1e-4,
        saturation_current_density=0.0,
        contact_resistance=(1.0, 1.0, 1.0),
    )
    sol = SheetSystem(strip, materials).solve(
        BiasPoint(2.0, 0.0, None), cfg.solver
    )
    expected = 2.0 / length * 1e6
    assert sol.e_inplane[0] == pytest.approx(expected, rel=0.01)
    _ok(f"5 PASS: Kirchhoff within bound (worst {worst:.2e} of bound), strip E=dV/L")


def test_default_sweep_factors_at_most_1700_times(default_sweep):
    """No failed cell, and no factorization from a step inside the norm test
    (1,667 factorizations for 5,124 Newton steps; 1,780 when such steps factored)."""
    meta = default_sweep.metadata
    assert meta["n_failed"] == 0
    assert meta["factorizations"] <= 1700
    _ok(f"sweep factorizations {meta['factorizations']} for {meta['newton_iters']} steps")


def test_criterion_06_exciton_oracle_equivalence():
    """Closed-form splitting and axis match dense eigensolves to 1e-10."""
    rng = np.random.default_rng(20260401)
    params = ExcitonParams(
        zero_field_energy=1.34,
        zero_field_splitting=(0.0, 0.0),
        inplane_coupling=((1.0, 0.0), (0.0, 1.0)),
        vertical_coupling=(0.0, 0.0),
        dipole=0.0,
        polarizability=0.0,
    )
    checked = 0
    for _ in range(1000):
        dx, dy = rng.uniform(-30.0, 30.0, size=2)
        if math.hypot(dx, dy) < 0.1:
            continue
        state = exciton_state(params, (dx, dy, 0.0))
        evals, evecs = np.linalg.eigh(splitting_hamiltonian((dx, dy)))
        gap = evals[1] - evals[0]
        angle = math.atan2(evecs[1, 1], evecs[0, 1]) % math.pi
        assert abs(state.fss - gap) <= 1e-10 * max(1.0, gap)
        diff = abs(state.theta0 - angle) % math.pi
        assert min(diff, math.pi - diff) <= 1e-10
        checked += 1
    assert checked >= 990
    _ok(f"6 PASS: closed form vs eigensolver on {checked} draws to 1e-10")


def test_criterion_07_fit_recovery_and_uncertainty():
    """Noiseless fits exact to 1e-6 relative; Monte-Carlo scatter matches the
    reported 1-sigma within 20 %."""
    n = 36
    angles = np.arange(n) * math.pi / n
    for delta in (0.5, 2.0, 10.0, 20.0):
        for theta0 in (0.0, 0.7, 1.9, 2.9):
            scan = PolarizationScan(
                angles=angles,
                peak_energies=shift_law(angles, delta, theta0, 0.3),
            )
            fit = fit_fss_sine(scan)
            assert fit.delta_fss == pytest.approx(delta, rel=1e-6)
            diff = abs(fit.theta0 - theta0) % math.pi
            assert min(diff, math.pi - diff) <= 1e-6
    rng = np.random.default_rng(7)
    clean = shift_law(angles, 10.0, 0.6, 0.0)
    deltas, reported = [], []
    for _ in range(500):
        fit = fit_fss_sine(
            PolarizationScan(
                angles=angles,
                peak_energies=clean + rng.normal(0.0, 0.5, n),
                sigma=0.5,
            )
        )
        deltas.append(fit.delta_fss)
        reported.append(fit.uncertainties[0])
    empirical = float(np.std(deltas, ddof=1))
    mean_reported = float(np.mean(reported))
    assert abs(mean_reported - empirical) <= 0.2 * empirical
    _ok(
        f"7 PASS: exact recovery to 1e-6; MC sigma {empirical:.3f} vs "
        f"reported {mean_reported:.3f}"
    )


def test_criterion_08_cancellation(cfg, mesh, tuned):
    """Affine-chain zero found below 0.1 ueV; default calibration reaches
    <= 1.5 ueV in-window; eigenaxes swap by pi/2 within 0.1 rad."""
    # affine chain: junction off makes the field affine in the biases
    laplace = dataclasses.replace(cfg.materials, saturation_current_density=0.0)
    system = SheetSystem(mesh, laplace)
    probe = ExcitonParams(
        zero_field_energy=1.34,
        zero_field_splitting=(0.0, 0.0),
        inplane_coupling=((4e-2, 1e-2), (-5e-3, 3e-2)),
        vertical_coupling=(-1.2e-6, 5e-7),
        dipole=0.0,
        polarizability=0.0,
    )

    def delta(va, vb, params):
        sol = system.solve(BiasPoint(va, vb, None), cfg.solver)
        return np.array(fss_vector(params, sol.field))

    d00 = delta(0.0, 0.0, probe)
    jac = np.column_stack(
        [delta(1.0, 0.0, probe) - d00, delta(0.0, 1.0, probe) - d00]
    )
    target = np.array([2.2, 3.4])
    d0 = -(d00 + jac @ target)
    affine_params = ExcitonParams(
        zero_field_energy=1.34,
        zero_field_splitting=(float(d0[0]), float(d0[1])),
        inplane_coupling=probe.inplane_coupling,
        vertical_coupling=probe.vertical_coupling,
        dipole=0.0,
        polarizability=0.0,
    )
    v_star = np.linalg.solve(jac, -(d00 + d0))
    affine = find_zero_fss(
        BiasPoint(0.0, 0.0, None),
        ("A", "B"),
        tol=0.1,
        mesh=mesh,
        materials=laplace,
        exciton_params=affine_params,
        cfg=cfg.solver,
        bounds=cfg.sweep.tune_bounds(),
    )
    assert affine.converged and affine.achieved_fss < 0.1
    assert abs(affine.bias[0] - v_star[0]) < 0.1
    assert abs(affine.bias[1] - v_star[1]) < 0.1

    # default calibration: near-cancellation somewhere in the window
    assert tuned.converged
    assert tuned.achieved_fss <= 1.5
    assert tuned.rotation is not None
    assert abs(tuned.rotation - math.pi / 2.0) <= 0.1
    _ok(
        f"8 PASS: affine zero {affine.achieved_fss:.2g} ueV at analytic point; "
        f"default best {tuned.achieved_fss:.3f} ueV at "
        f"({tuned.bias[0]:.2f}, {tuned.bias[1]:.2f}) V, "
        f"axis rotation {tuned.rotation:.3f} rad"
    )


def test_criterion_09_algebraic_sign_change(default_sweep, tuned):
    """The fixed-basis signed splitting changes sign along a grid line
    through the confirmed zero crossing."""
    va_values = default_sweep.spec.va_values()
    vb_values = default_sweep.spec.vb_values()
    i_col = int(np.argmin(np.abs(va_values - tuned.bias[0])))
    column = [
        default_sweep.record(i_vb, i_col) for i_vb in range(len(vb_values))
    ]
    signs = [
        (r.vb, r.algebraic_fss)
        for r in column
        if r.ok and abs(r.vb - tuned.bias[1]) <= 1.0
    ]
    flips = [
        (a, b)
        for a, b in zip(signs, signs[1:])
        if a[1] * b[1] < 0.0
    ]
    assert flips, f"no sign change near vb={tuned.bias[1]:.2f}"
    _ok(
        f"9 PASS: algebraic splitting flips sign along va={va_values[i_col]:.2f} V "
        f"near vb={flips[0][0][0]:.2f} V"
    )


def test_criterion_10_stark_and_splitting_bands(default_sweep):
    """Mean-energy excursion in [40, 160] ueV; splitting span in [10, 30] ueV."""
    ok = [r for r in default_sweep.records if r.ok]
    energies = np.array([r.mean_energy for r in ok])
    excursion = (energies.max() - energies.min()) * 1e6
    assert 40.0 <= excursion <= 160.0
    fss = np.array([r.fss for r in ok])
    span = fss.max() - fss.min()
    assert 10.0 <= span <= 30.0
    _ok(f"10 PASS: mean-energy excursion {excursion:.1f} ueV, splitting span {span:.1f} ueV")


def test_criterion_11_reproducibility(cfg, mesh, tmp_path):
    """Byte-identical sweep CSVs across repeats and concurrency levels."""
    spec = dataclasses.replace(
        cfg.sweep,
        va_start=-1.0, va_stop=6.0, va_step=0.875,
        vb_start=-1.0, vb_stop=6.0, vb_step=0.875,
    )
    blobs = []
    for i, jobs in enumerate((1, 1, 3)):
        result = run_bias_sweep(
            spec, mesh, cfg.materials, cfg.exciton, cfg.solver, jobs=jobs
        )
        path = tmp_path / f"acc_{i}.csv"
        write_sweep_csv(result, str(path))
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    _ok("11 PASS: byte-identical sweep CSVs across repeats and jobs=1/3")


def test_golden_sweep_within_tolerance(cfg, default_sweep):
    """The 0.35 V subgrid of the default map matches the committed golden
    sweep: grid, status and region exactly, every physics float to
    GOLDEN_RTOL of its column's largest magnitude."""
    meta = json.loads(GOLDEN.with_suffix(".json").read_text())
    assert meta["config_hash"] == cfg.config_hash
    golden = read_sweep_csv(str(GOLDEN.with_suffix(".csv")))
    n_vb, n_va = default_sweep.grid_shape()
    cells = [
        default_sweep.record(i_vb, i_va)
        for i_vb in range(0, n_vb, 2)
        for i_va in range(0, n_va, 2)
    ]
    assert len(cells) == len(golden) == 21 * 21
    exact = ("va", "vb", "vc", "status", "region")
    diagnostics = ("iters", "residual")
    for name in exact:
        assert [getattr(r, name) for r in cells] == [getattr(r, name) for r in golden]
    worst = {}
    for name in default_sweep.spec.columns():
        if name in exact or name in diagnostics:
            continue
        got = np.array([getattr(r, name) for r in cells], dtype=float)
        ref = np.array([getattr(r, name) for r in golden], dtype=float)
        assert np.array_equal(np.isnan(got), np.isnan(ref)), name
        diff, scale = np.nanmax(np.abs(got - ref)), np.nanmax(np.abs(ref))
        assert diff <= GOLDEN_RTOL * scale, (name, diff, scale)
        worst[name] = diff / scale if scale else 0.0
    name = max(worst, key=worst.get)
    _ok(f"golden PASS: worst column-scaled difference {worst[name]:.1e} ({name})")


# Largest splitting difference between the 0.35 V subgrid swept at 2 um and
# the same cells of the default 1 um map: 0.0398 ueV measured (at V_A = V_B =
# 6 V, where the splitting is 11.7 ueV); the bound leaves half that again.
MESH_FSS_ATOL_UEV = 0.06


def test_regime_map_is_not_a_mesh_artifact(cfg, default_sweep):
    """The 0.35 V subgrid swept at twice the default edge has the default
    map's region in every cell and its splitting within MESH_FSS_ATOL_UEV.
    The sign of algebraic_fss is not compared: near its zero the meshes may
    disagree on it."""
    spec = dataclasses.replace(
        cfg.sweep, va_step=2.0 * cfg.sweep.va_step, vb_step=2.0 * cfg.sweep.vb_step
    )
    mesh = generate_mesh(cfg.geometry, 2.0 * cfg.mesh_edge)
    edge2 = run_bias_sweep(spec, mesh, cfg.materials, cfg.exciton, cfg.solver).records
    n_vb, n_va = default_sweep.grid_shape()
    cells = [
        default_sweep.record(i_vb, i_va)
        for i_vb in range(0, n_vb, 2)
        for i_va in range(0, n_va, 2)
    ]
    assert [(r.va, r.vb) for r in edge2] == [(r.va, r.vb) for r in cells]
    assert all(r.ok for r in edge2)
    assert [r.region for r in edge2] == [r.region for r in cells]
    worst = max(abs(a.fss - b.fss) for a, b in zip(edge2, cells))
    assert worst <= MESH_FSS_ATOL_UEV
    _ok(
        f"mesh PASS: {len(cells)} regions equal at {mesh.target_edge:g} um, "
        f"fss within {worst:.3f} ueV"
    )


def test_iso_fss_pairs_available(default_sweep):
    """Companion check: equal-splitting pairs at well-separated energies
    exist in the default map (target 5 ueV, separation 30 ueV)."""
    pairs = iso_fss_points(default_sweep, 5.0, 30.0, max_pairs=10)
    assert pairs
    _ok(
        f"iso PASS: {len(pairs)} pair(s), best separation "
        f"{pairs[0].energy_separation_uev:.1f} ueV"
    )
