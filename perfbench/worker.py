"""One benchmark run in a fresh process.

Started by ``run.py`` with the spawn time in ``PERFBENCH_SPAWN_T`` (the
system-wide monotonic clock), so set-up time counts from process start:
interpreter start, imports, config, geometry, mesh and the first
``SheetSystem``.  Prints one JSON object as its last line of output.

    python3 perfbench/worker.py --workload map --seed 1 --seconds 30 \
        --trace 0 --out-dir .perfbench_out [--ops N] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time


def main() -> int:
    spawn = float(os.environ.get("PERFBENCH_SPAWN_T", time.monotonic()))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--ops", type=int, default=0, help="stop after this many operations")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    from pillartune import config, device, solver

    import speed
    import workloads

    tracer = None
    if args.trace:
        import layers
        from spans import Tracer

        tracer = Tracer()
        layers.install(tracer)

    cfg = config.load_run_config()
    mesh = device.generate_mesh(device.build_geometry(cfg.geometry), cfg.mesh_edge)
    system = solver.SheetSystem(mesh, cfg.materials)
    setup_s = time.monotonic() - spawn
    report = {"setup_s": setup_s, "setup_kernel_s": speed.SpeedProbe().sample()}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    with tempfile.TemporaryDirectory(dir=args.out_dir) as work_dir:
        ctx = workloads.Context(cfg=cfg, mesh=mesh, system=system, work_dir=work_dir)
        outcome = workloads.WORKLOADS[args.workload](
            ctx, args.seed, args.seconds, tracer, args.ops)

        if tracer is not None:
            tracer.uninstall()
            summary = layers.summarize(tracer.spans)
            report["layers"] = layers.metrics(tracer, summary, mesh, outcome.fit_z_std)
            report["traffic"] = layers.traffic(tracer, summary, mesh, ctx, args.workload)
            tracer.write(os.path.join(args.out_dir, f"spans_{args.workload}.csv.gz"))

    report.update(
        op_s=outcome.op_s,
        op_ref_s=outcome.op_ref_s,
        kernel_s=outcome.kernel_s,
        units=outcome.units,
        attempted=outcome.attempted,
        failed=outcome.failed,
        messages=outcome.messages,
        sizes=outcome.sizes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
