#!/usr/bin/env python3
"""Write the golden sweep that the tolerance gate in tests/test_acceptance.py reads.

Runs the default 41x41 sweep (the acceptance fixture's sweep) and keeps its
even-index 21x21 subgrid, the 0.35 V points.  Writes ``golden_sweep.csv``
and a ``golden_sweep.json`` sidecar naming the commit and config hash it
came from.  Regenerate only for an intended physics change, and say so.

Usage:
    python scripts/make_golden_sweep.py [--out-dir tests/data]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess

from pillartune.config import load_run_config
from pillartune.device import generate_mesh
from pillartune.tuner import SweepResult, run_bias_sweep, write_sweep_csv


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-dir", default=os.path.join("tests", "data"))
    args = ap.parse_args()

    cfg = load_run_config()
    mesh = generate_mesh(cfg.geometry, cfg.mesh_edge)
    result = run_bias_sweep(cfg.sweep, mesh, cfg.materials, cfg.exciton, cfg.solver)
    n_vb, n_va = result.grid_shape()
    subgrid = [
        result.record(i_vb, i_va)
        for i_vb in range(0, n_vb, 2)
        for i_va in range(0, n_va, 2)
    ]
    os.makedirs(args.out_dir, exist_ok=True)
    write_sweep_csv(
        SweepResult(cfg.sweep, subgrid), os.path.join(args.out_dir, "golden_sweep.csv")
    )
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True
    ).stdout.strip()
    meta = {
        "source": "default config 41x41 sweep, even-index 21x21 subgrid",
        "config_hash": cfg.config_hash,
        "commit": commit,
        "grid": [len(range(0, n_vb, 2)), len(range(0, n_va, 2))],
    }
    with open(os.path.join(args.out_dir, "golden_sweep.json"), "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
