"""pillartune benchmark: map, tune and scan workloads.

    python3 perfbench/run.py --workload map --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (it needs ``src/pillartune``).  Each
run is a fresh single-threaded child process (BLAS/OpenMP pinned to one
thread) that sets up, repeats the workload's operation for ``--seconds``
and checks every output.  ``--trace 0`` adds four set-up-only children and
reports the end-to-end metrics, with times at reference speed (see
``speed.py``) and the raw wall-clock figures beside them; ``--trace 1``
runs untraced for half the time, then a traced child on a fixed number of
operations, and reports the per-layer metrics, the tracing overhead and
the ROADMAP traffic check.  ``--workload all`` runs the three in turn.
The last line of output is one JSON object; the full record, with the
environment, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import speed
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("map", "tune", "scan")
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# The tail each workload reports: the highest percentile with at least ten
# samples beyond it at the usual sample count (scan: p90 of ~115 points),
# else the maximum (map: 2-3 sweeps).  A tune run has ~15 searches, whose
# maximum is one search's noise (its IQR over ten runs was 12 %), so tune
# reports the mean of its slowest quarter; the maximum is printed too.
TAIL_Q = {"map": 100.0, "scan": 90.0}
TAIL_SHARE = 0.25

# Fixed work of the traced run (the first operations of the seed's stream),
# so its per-layer counts repeat exactly for a seed: one sweep, six
# searches, forty points; each about 15 s here.
TRACE_OPS = {"map": 1, "tune": 6, "scan": 40}

# How each end-to-end metric reads on each workload (printed report).
LABELS = {
    "map": {"ops_per_s": ("cells_per_s", 1.0, "1/s"),
            "op_ms_p50": ("cell_ms_p50", 1.0, "ms"),
            "op_ms_tail": ("cell_ms_max", 1.0, "ms")},
    "tune": {"ops_per_s": ("searches_per_s", 1.0, "1/s"),
             "op_ms_p50": ("search_s_p50", 1e-3, "s"),
             "op_ms_tail": ("search_s_slowq", 1e-3, "s")},
    "scan": {"ops_per_s": ("points_per_s", 1.0, "1/s"),
             "op_ms_p50": ("point_ms_p50", 1.0, "ms"),
             "op_ms_tail": ("point_ms_p90", 1.0, "ms")},
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int,
              out_dir: Path, ops: int = 0, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--out-dir", str(out_dir), "--ops", str(ops)]
    if setup_only:
        cmd.append("--setup-only")
    env = child_env()
    env["PERFBENCH_SPAWN_T"] = repr(time.monotonic())
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(workload: str, main: dict, setups: list[dict], scaled: bool = True):
    """End-to-end metrics of one measuring child and its set-up samples.

    With ``scaled`` every time is at reference speed (see ``speed.py``);
    without, it is the raw wall time.
    """
    def scale(kernel_s: float) -> float:
        return speed.NOMINAL_S / kernel_s if scaled else 1.0

    op_s = main["op_ref_s"] if scaled else main["op_s"]
    op_ms = [1e3 * t / u for t, u in zip(op_s, main["units"])]
    if workload in TAIL_Q:
        tail, beyond = stats.percentile(op_ms, TAIL_Q[workload])
        tail_desc = f"p{TAIL_Q[workload]:g}, {beyond} samples beyond"
    else:
        tail, k = stats.slowest_mean(op_ms, TAIL_SHARE)
        tail_desc = (f"mean of the slowest {k} of {len(op_ms)}; "
                     f"search_s_max {1e-3 * max(op_ms):.6g} s")
    return {
        "setup_s": (stats.median(s["setup_s"] * scale(s["setup_kernel_s"])
                                 for s in setups), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
        "ok_ratio": (1.0 - main["failed"] / main["attempted"], "ratio"),
        "ops_per_s": (sum(main["units"]) / sum(op_s), "1/s"),
        "op_ms_p50": (stats.median(op_ms), "ms"),
        "op_ms_tail": (tail, "ms"),
    }, {"ops": len(op_ms), "tail": tail_desc, "setup_samples": len(setups),
        "kernel_ms_p50": 1e3 * stats.median(main["kernel_s"])}


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pillartune").rglob("*")):
        if path.suffix in (".py", ".cfg"):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "threads": {v: "1" for v in THREAD_VARS},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 out_dir: Path) -> dict:
    record = {"workload": workload, "trace": trace, "seconds": seconds}
    if trace == 0:
        setups = [run_child(workload, seed, seconds, 0, out_dir, setup_only=True)
                  for _ in range(SETUP_PROBES)]
        main = run_child(workload, seed, seconds, 0, out_dir)
        metrics, info = end_to_end(workload, main, setups + [main])
        raw, _ = end_to_end(workload, main, setups + [main], scaled=False)
        record["wall_clock"] = {k: v[0] for k, v in raw.items()}
        runs = [main]
    else:
        # Untraced for half the time, then the traced fixed work; the
        # overhead compares the operations both ran.
        plain = run_child(workload, seed, seconds / 2, 0, out_dir)
        traced = run_child(workload, seed, float(CHILD_TIMEOUT_S), 1, out_dir,
                           ops=TRACE_OPS[workload])
        base, info = end_to_end(workload, plain, [plain])
        with_trace, _ = end_to_end(workload, traced, [traced])
        metrics = {k: tuple(v) for k, v in traced["layers"].items()}
        common = min(len(plain["op_s"]), len(traced["op_s"]))
        metrics["trace.overhead_pct"] = (100.0 * (
            sum(traced["op_ref_s"][:common]) / sum(plain["op_ref_s"][:common]) - 1.0), "%")
        info["traced_ops"] = len(traced["op_s"])
        record["untraced"] = {k: v[0] for k, v in base.items()}
        record["traced"] = {k: v[0] for k, v in with_trace.items()}
        record["traffic"] = traced["traffic"]
        runs = [plain, traced]
    record.update(
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        info=info,
        sizes=runs[-1]["sizes"],
        attempted=sum(r["attempted"] for r in runs),
        failed=sum(r["failed"] for r in runs),
        messages=[m for r in runs for m in r["messages"]],
    )
    return record


def print_report(record: dict) -> None:
    w = record["workload"]
    info = record["info"]
    ops = f"{info['ops']}" + (f" untraced, {info['traced_ops']} traced"
                              if "traced_ops" in info else "")
    print(f"== {w}  sizes {json.dumps(record['sizes'])}  ops {ops}  speed kernel "
          f"{info['kernel_ms_p50']:.1f} ms (nominal {1e3 * speed.NOMINAL_S:g})")
    for name, m in record["metrics"].items():
        label, scale, unit = LABELS[w].get(name, (name, 1.0, m["unit"]))
        extra = ""
        if name == "op_ms_tail":
            extra = f"  ({info['tail']})"
        raw = record.get("wall_clock", {}).get(name)
        if raw is not None and raw != m["value"]:
            extra += f"  wall clock {raw * scale:.6g}"
        print(f"  {label:<28} {m['value'] * scale:>14.6g} {unit:<6} [{name}]{extra}")
    fail_ratio = record["failed"] / record["attempted"]
    print(f"  {'fail_ratio':<28} {fail_ratio:>14.6g} ratio  "
          f"({record['failed']} of {record['attempted']} operations)")
    for msg in record["messages"]:
        print(f"  FAILED: {msg}")
    for row in record.get("traffic", []):
        print(f"  roadmap {row['figure']}: {row['roadmap']} -> measured "
              f"{row['measured']:.4g}  {row['status']}  {row['note']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "pillartune" / "__init__.py").is_file():
        print(f"perfbench: no pillartune source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    env = environment(args.seed)
    print(f"env {json.dumps(env)}")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, args.trace, out_dir)
            record["env"] = env
            (out_dir / f"result_{name}_trace{args.trace}.json").write_text(
                json.dumps(record, indent=1) + "\n")
            print_report(record)
            records.append(record)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    prefix = len(records) > 1
    result = {
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): v
                    for r in records for k, v in r["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
