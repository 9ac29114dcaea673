"""Record the scan workload's reference results.

Lays a fixed pool of bias points over the default sweep window, the first
points of the R2 sequence (consecutive points spread evenly), and, for
each, records the cold-solve field, the splitting and a summary of its M
fitted scans.  The scan workload draws its points from this pool by seed
and checks its outputs against these values.  Rerun only when the recorded
behaviour is meant to change:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import csv
import sys
import tempfile
from pathlib import Path

from pillartune import config, device, solver

import workloads

POOL_SIZE = 400


def main() -> int:
    cfg = config.load_run_config()
    mesh = device.generate_mesh(device.build_geometry(cfg.geometry), cfg.mesh_edge)
    system = solver.SheetSystem(mesh, cfg.materials)
    lo, hi = cfg.sweep.va_start, cfg.sweep.va_stop
    points = [[lo + (hi - lo) * u for u in workloads.r2(n)] for n in range(POOL_SIZE)]
    rows = []
    out_dir = Path(__file__).resolve().parents[1] / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as work_dir:
        ctx = workloads.Context(cfg=cfg, mesh=mesh, system=system, work_dir=work_dir)
        for index, (va, vb) in enumerate(points):
            field, state, fits = workloads.scan_point(ctx, index, float(va), float(vb))
            row = {"index": index, "va": repr(float(va)), "vb": repr(float(vb)),
                   "ex": field[0], "ey": field[1], "ez": field[2], "fss": state.fss}
            row.update(workloads.fit_summary(fits))
            rows.append({k: (repr(v) if isinstance(v, float) else v) for k, v in row.items()})
    with open(workloads.REFERENCE_CSV, "w", newline="") as fh:
        out = csv.DictWriter(fh, fieldnames=workloads.REFERENCE_COLUMNS, lineterminator="\n")
        out.writeheader()
        out.writerows(rows)
    print(f"wrote {len(rows)} points to {workloads.REFERENCE_CSV}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
