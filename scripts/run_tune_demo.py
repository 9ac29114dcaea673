#!/usr/bin/env python3
"""End-to-end splitting-control demo on the default calibration.

Walks the full chain: locate a zero-splitting bias point, verify the
eigenaxis swap across it, synthesize a polarization scan near the optimum,
re-fit it, and list equal-splitting bias pairs at distinct mean energies.

Usage:
    python scripts/run_tune_demo.py [--config FILE] [--tol UEV]
"""

from __future__ import annotations

import argparse
import math
import sys

from pillartune.config import load_run_config
from pillartune.device import generate_mesh
from pillartune.solver import BiasPoint, sheet_system
from pillartune.spectro import fit_fss_sine, synth_polarization_scan
from pillartune.tuner import find_zero_fss, iso_fss_points, run_bias_sweep


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config")
    ap.add_argument("--tol", type=float, default=1.5)
    args = ap.parse_args()

    cfg = load_run_config(args.config)
    mesh = generate_mesh(cfg.geometry, cfg.mesh_edge)

    result = find_zero_fss(
        BiasPoint(0.0, 0.0, cfg.sweep.vc),
        ("A", "B"),
        tol=args.tol,
        mesh=mesh,
        materials=cfg.materials,
        exciton_params=cfg.exciton,
        cfg=cfg.solver,
        bounds=cfg.sweep.tune_bounds(),
    )
    print(
        f"zero search: fss = {result.achieved_fss:.4f} ueV at "
        f"(V_A, V_B) = ({result.bias[0]:.3f}, {result.bias[1]:.3f}) V "
        f"after {result.iterations} splitting evaluations, "
        f"{result.newton_iters} Newton steps "
        f"(status {result.status})"
    )
    if result.rotation is not None:
        print(
            f"eigenaxis rotation across the optimum: {result.rotation:.4f} rad "
            f"(pi/2 = {math.pi / 2:.4f}; swap "
            f"{'verified' if result.crossing_verified else 'not seen'})"
        )

    # synthesize and re-fit a polarization scan near the optimum
    system = sheet_system(mesh, cfg.materials)
    sol = system.solve(
        BiasPoint(result.bias[0] + 0.3, result.bias[1], cfg.sweep.vc), cfg.solver
    )
    scan = synth_polarization_scan(
        cfg.exciton,
        sol.field,
        linewidth=60.0,
        noise_sigma=0.3,
        n_angles=36,
        seed=cfg.seed,
    )
    fit = fit_fss_sine(scan)
    print(
        f"scan near optimum: fitted delta = {fit.delta_fss:.2f} "
        f"+/- {fit.uncertainties[0]:.2f} ueV, "
        f"theta0 = {fit.theta0:.3f} +/- {fit.uncertainties[1]:.3f} rad"
    )

    sweep = run_bias_sweep(cfg.sweep, mesh, cfg.materials, cfg.exciton, cfg.solver)
    pairs = iso_fss_points(sweep, target_fss=5.0, min_energy_separation=30.0,
                           max_pairs=3)
    print(f"iso-splitting pairs (5 ueV, >= 30 ueV apart): {len(pairs)} shown")
    for p in pairs:
        print(
            f"  ({p.bias_a[0]:.2f}, {p.bias_a[1]:.2f}) V <-> "
            f"({p.bias_b[0]:.2f}, {p.bias_b[1]:.2f}) V : "
            f"fss {p.fss_a:.2f}/{p.fss_b:.2f} ueV, "
            f"delta E = {p.energy_separation_uev:.1f} ueV"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
