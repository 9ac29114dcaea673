#!/usr/bin/env python3
"""Run the default bias map and summarize its regime structure.

Produces the sweep CSV plus a terminal summary: regime populations, the
blocked-regime field orientation, the passing-regime direction span and the
field-magnitude ratio between passing and blocked regimes.

Usage:
    python scripts/run_regime_map.py [--config FILE] [--out PREFIX]
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from pillartune.config import load_run_config
from pillartune.device import generate_mesh
from pillartune.tuner import run_bias_sweep, write_sweep_csv

FIELD_FLOOR = 1e-6  # blocked-regime cells below this fraction of the strongest


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config")
    ap.add_argument("--out", default="regime_map")
    args = ap.parse_args()

    cfg = load_run_config(args.config)
    mesh = generate_mesh(cfg.geometry, cfg.mesh_edge)
    print(f"mesh: {mesh.n_nodes} nodes, {mesh.n_cells} cells")

    t0 = time.perf_counter()
    result = run_bias_sweep(cfg.sweep, mesh, cfg.materials, cfg.exciton, cfg.solver)
    print(f"sweep: {len(result.records)} cells in {time.perf_counter() - t0:.1f} s, "
          f"{result.metadata['n_failed']} failed")

    path = f"{args.out}_{cfg.config_hash}.csv"
    write_sweep_csv(result, path)
    print(f"written: {path}")

    recs = [r for r in result.records if r.ok]
    counts = {k: sum(1 for r in recs if r.region == k) for k in (1, 2, 3, 4)}
    print(f"regimes: {counts}")
    quadrant = [r for r in result.records if r.va <= 0 and r.vb <= 0]
    print(f"reverse quadrant all region 1: {all(r.region == 1 for r in quadrant)}")

    uc = np.array([
        math.cos(cfg.geometry.ridge_angles[2]),
        math.sin(cfg.geometry.ridge_angles[2]),
    ])
    blocked = [r for r in recs if r.region == 1 and r.va <= 0 and r.vb <= 0]
    blocked.sort(key=lambda r: -np.hypot(r.ex, r.ey))
    # cells with V_A = V_B carry a field of rounding size whose direction is noise
    floor = FIELD_FLOOR * np.hypot(blocked[0].ex, blocked[0].ey) if blocked else 0.0
    used = [r for r in blocked if np.hypot(r.ex, r.ey) > floor]
    skipped = len(blocked) - len(used)
    devs = []
    for r in used[:20]:
        e = np.array([r.ex, r.ey])
        along = abs(float(e @ uc)) / np.linalg.norm(e)
        devs.append(math.degrees(math.asin(min(along, 1.0))))
    if devs:
        print(f"blocked-regime field vs normal-to-C: worst {max(devs):.2f} deg "
              f"over {len(devs)} points, {skipped} below {FIELD_FLOOR:g} of the "
              f"strongest skipped")

    angles = np.sort(np.mod(
        [math.atan2(r.ey, r.ex) for r in recs if r.region == 2], 2 * math.pi
    ))
    if len(angles) > 1:
        gaps = np.diff(angles, append=angles[0] + 2 * math.pi)
        print(f"region-2 direction span: {(2 * math.pi - gaps.max()) / math.pi:.3f} pi")

    passing = max(np.hypot(r.ex, r.ey) for r in recs if r.region in (2, 3, 4))
    blocked_max = max(np.hypot(r.ex, r.ey) for r in recs if r.region == 1)
    print(f"field ratio passing/blocked: {passing / blocked_max:.2f}")
    print(f"peak current: {max((abs(r.ia) + abs(r.ib)) for r in recs) * 1e6:.1f} uA")
    return 0


if __name__ == "__main__":
    sys.exit(main())
