"""The three benchmark workloads, written against pillartune's public API.

Each workload repeats one user-level operation until its time budget is
spent, times every operation, and checks every output outside the timed
region.  Library calls go through module attributes (``tuner.run_bias_sweep``
and so on), so the traced run sees them through the tracer's wrappers.

- ``map``: a warm-started 21x21 bias sweep at a 0.35 V step over the
  default window (run as 11 row-pair sweeps, see ``row_pairs``), then its
  CSV written, read back and paired for equal splittings.  The seed
  shifts the grid origin by a sub-step offset.
- ``tune``: the zero-splitting search over free terminals (A, B), once per
  quantum dot, each dot's zero-field splitting within +-20 % of the
  default calibration.
- ``scan``: a cold solve and exciton state at a bias point taken from the
  recorded pool in ``scan_reference.csv``, then M synthesized polarization
  scans through CSV and the sinusoid fit.

Seeded inputs follow the R2 sequence from a seed-chosen start, so each
run's inputs differ by seed while their mix of easy and hard cases stays
the same; run-to-run spread then measures the program, not the draw.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import math
import os
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import speed
from pillartune import exciton, solver, spectro, tuner

# map
MAP_STEP_V = 0.35
ISO_TARGET_UEV = 5.0
ISO_SEPARATION_UEV = 30.0

# tune
TUNE_TOL_UEV = 1.5
DOT_SPREAD = 0.2

# scan
SCAN_FITS_PER_POINT = 50   # M
SCAN_ANGLES = 36
SCAN_LINEWIDTH_UEV = 30.0
SCAN_NOISE_UEV = 0.3
REFERENCE_CSV = Path(__file__).with_name("scan_reference.csv")
# Agreement with the recorded values: |x - ref| <= ABS + REL * |ref|.
REFERENCE_ABS = 1e-6
REFERENCE_REL = 1e-6

MAX_FAILURE_MESSAGES = 10


@dataclasses.dataclass
class Context:
    """What set-up builds before the first operation."""

    cfg: object          # pillartune.config.RunConfig
    mesh: object         # pillartune.device.Mesh
    system: object       # pillartune.solver.SheetSystem
    work_dir: str


class Outcome:
    """Operation timings and check results of one workload run."""

    def __init__(self):
        self.op_s: list[float] = []      # wall time of each operation
        self.op_ref_s: list[float] = []  # the same at reference speed (speed.py)
        self.kernel_s: list[float] = []  # every speed-kernel sample
        self.units: list[int] = []       # work units (cells, searches, points)
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.sizes: dict = {}
        self.fit_z_std = 0.0             # scan only, see run_scan

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < MAX_FAILURE_MESSAGES:
                self.messages.append(message)


def r2(n: int) -> tuple[float, float]:
    """n-th point of the R2 low-discrepancy sequence in the unit square.

    Any run of consecutive points covers the square evenly, so a run's
    inputs differ by seed while their cost mix stays nearly the same.
    """
    g = 1.32471795724474602596  # plastic number
    return ((0.5 + n / g) % 1.0, (0.5 + n / (g * g)) % 1.0)


def _start_index(seed: int) -> int:
    return int(np.random.default_rng(seed).integers(1 << 20))


def _timed_ops(seconds: float, items, run_op, check_op, outcome: Outcome, tracer,
               max_ops: int = 0):
    """Run ``run_op(item, watch)`` on successive items until the budget is spent.

    ``run_op`` times its work in ``watch.piece()`` blocks.  Another
    operation starts while half of the last one's duration still fits, so
    a run overshoots its budget by half an operation at most (6 s for a
    map, whose 12 s operations would otherwise fit only twice in 30 s); the
    first operation always runs.  ``max_ops`` > 0 also caps the count.
    """
    watch = speed.Stopwatch()
    start = time.perf_counter()
    done = 0
    for item in items:
        watch.op = done
        if tracer is not None:
            tracer.op = done
        t0 = time.perf_counter()
        result = run_op(item, watch)
        last = time.perf_counter() - t0
        check_op(item, result)
        done += 1
        if done == max_ops or time.perf_counter() - start + 0.5 * last > seconds:
            break
    outcome.op_s, outcome.op_ref_s, outcome.kernel_s = watch.per_op(done)


# -- map -----------------------------------------------------------------------


def map_specs(cfg, seed: int):
    """Endless stream of seeded 21x21 grids over the default window."""
    base = cfg.sweep
    n = _start_index(seed)
    while True:
        da, db = ((u - 0.5) * MAP_STEP_V for u in r2(n))
        n += 1
        yield dataclasses.replace(
            base,
            va_start=base.va_start + da,
            va_stop=base.va_stop + da,
            va_step=MAP_STEP_V,
            vb_start=base.vb_start + db,
            vb_stop=base.vb_stop + db,
            vb_step=MAP_STEP_V,
        )


def run_map(ctx: Context, seed: int, seconds: float, tracer=None,
            max_ops: int = 0) -> Outcome:
    cfg = ctx.cfg
    out = Outcome()
    path = os.path.join(ctx.work_dir, "sweep.csv")

    def run_op(spec, watch):
        records = []
        for part in row_pairs(spec):
            with watch.piece():
                records += tuner.run_bias_sweep(
                    part, ctx.mesh, cfg.materials, cfg.exciton, cfg.solver, jobs=1
                ).records
        result = tuner.SweepResult(spec=spec, records=records)
        with watch.piece():
            tuner.write_sweep_csv(result, path)
            back = tuner.read_sweep_csv(path)
            pairs = tuner.iso_fss_points(
                tuner.SweepResult(spec=spec, records=back),
                ISO_TARGET_UEV,
                ISO_SEPARATION_UEV,
            )
        return result, back, pairs

    def check_op(spec, outputs):
        result, back, pairs = outputs
        out.units.append(len(result.records))
        out.check(
            result.grid_shape() == (21, 21)
            and {r.region for r in result.records} == {1, 2, 3, 4}
            and len(back) == len(result.records)
            and all(_iso_pair_ok(p) for p in pairs),
            f"map grid {result.grid_shape()}: regimes, read-back length or iso pairs wrong",
        )
        for i, rec in enumerate(result.records):
            out.check(_cell_ok(rec, cfg.solver) and i < len(back) and back[i] == rec,
                      f"map cell ({rec.va:.4f}, {rec.vb:.4f}): {rec.status}, "
                      "Kirchhoff or CSV read-back mismatch")

    specs = map_specs(cfg, seed)
    _timed_ops(seconds, specs, run_op, check_op, out, tracer, max_ops)
    out.sizes = {"grid": [21, 21], "step_v": MAP_STEP_V, "sweeps": len(out.op_s)}
    return out


def row_pairs(spec):
    """The sweep as consecutive two-row sweeps (the last may be one row).

    Rows are independent and each call walks its first row forward and its
    second backward, so every cell takes the same Newton path as in one
    call over the whole grid (a second row's V_B may differ in the last
    bit).  The speed kernel can then be sampled about every second instead
    of once per 12 s sweep.
    """
    vb = spec.vb_values()
    for i in range(0, len(vb), 2):
        last = float(vb[min(i + 1, len(vb) - 1)])
        yield dataclasses.replace(spec, vb_start=float(vb[i]), vb_stop=last)


def _cell_ok(rec, solver_cfg) -> bool:
    if not rec.ok:
        return False
    sol = SimpleNamespace(i_a=rec.ia, i_b=rec.ib, i_c=rec.ic, i_junction=rec.i_junction)
    return solver.kirchhoff_error(sol) <= solver.kirchhoff_bound(sol, solver_cfg)


def _iso_pair_ok(pair) -> bool:
    return (
        abs(pair.fss_a - ISO_TARGET_UEV) <= 0.1 * ISO_TARGET_UEV
        and abs(pair.fss_b - ISO_TARGET_UEV) <= 0.1 * ISO_TARGET_UEV
        and pair.energy_separation_uev >= ISO_SEPARATION_UEV
    )


# -- tune ----------------------------------------------------------------------


def tune_dots(cfg, seed: int):
    """Endless stream of quantum dots, zero-field splitting within +-20 %."""
    d0 = cfg.exciton.zero_field_splitting
    n = _start_index(seed)
    while True:
        scale = [1.0 + DOT_SPREAD * (2.0 * u - 1.0) for u in r2(n)]
        n += 1
        yield dataclasses.replace(
            cfg.exciton,
            zero_field_splitting=(float(d0[0] * scale[0]), float(d0[1] * scale[1])),
        )


def tune_search(ctx: Context, params):
    cfg = ctx.cfg
    return tuner.find_zero_fss(
        solver.BiasPoint(0.0, 0.0, cfg.sweep.vc),
        ("A", "B"),
        tol=TUNE_TOL_UEV,
        mesh=ctx.mesh,
        materials=cfg.materials,
        exciton_params=params,
        cfg=cfg.solver,
        bounds=(cfg.sweep.va_start, cfg.sweep.va_stop),
    )


def run_tune(ctx: Context, seed: int, seconds: float, tracer=None,
             max_ops: int = 0) -> Outcome:
    out = Outcome()

    def check_op(params, result):
        out.units.append(1)
        out.check(
            result.converged and result.crossing_verified,
            f"tune dot {params.zero_field_splitting}: converged={result.converged} "
            f"crossing={result.crossing_verified} fss={result.achieved_fss:.3f}",
        )

    def run_op(params, watch):
        with watch.piece():
            return tune_search(ctx, params)

    _timed_ops(seconds, tune_dots(ctx.cfg, seed), run_op, check_op, out, tracer, max_ops)
    out.sizes = {"K": len(out.op_s), "tol_uev": TUNE_TOL_UEV, "spread": DOT_SPREAD}
    return out


# -- scan ----------------------------------------------------------------------


def noise_seed(index: int, m: int) -> int:
    """Noise seed of the m-th scan at pool point ``index``."""
    return 1000 * index + m


def scan_point(ctx: Context, index: int, va: float, vb: float, watch=None):
    """Cold solve, exciton state and M fitted scans at one pool point."""
    with watch.piece() if watch else contextlib.nullcontext():
        cfg = ctx.cfg
        sol = ctx.system.solve(solver.BiasPoint(va, vb, cfg.sweep.vc), cfg.solver)
        field = (sol.e_inplane[0], sol.e_inplane[1], sol.e_z)
        state = exciton.exciton_state(cfg.exciton, field)
        path = os.path.join(ctx.work_dir, "scan.csv")
        fits = []
        for m in range(SCAN_FITS_PER_POINT):
            scan = spectro.synth_polarization_scan(
                cfg.exciton,
                field,
                linewidth=SCAN_LINEWIDTH_UEV,
                noise_sigma=SCAN_NOISE_UEV,
                n_angles=SCAN_ANGLES,
                seed=noise_seed(index, m),
            )
            spectro.scan_to_csv(scan, path)
            try:
                fits.append(spectro.fit_fss_sine(spectro.scan_from_csv(path)))
            except spectro.FitError as exc:
                fits.append(exc)
    return field, state, fits


def fit_summary(fits) -> dict:
    """What the reference records of a point's M fits."""
    deltas = np.array([f.delta_fss for f in fits])
    return {
        "fit_delta_mean": float(deltas.mean()),
        "fit_delta_rms": float(np.sqrt(np.mean(deltas**2))),
        "fit_cos2_mean": float(np.mean([math.cos(2.0 * f.theta0) for f in fits])),
        "fit_sin2_mean": float(np.mean([math.sin(2.0 * f.theta0) for f in fits])),
    }


REFERENCE_COLUMNS = (
    "index", "va", "vb", "ex", "ey", "ez", "fss",
    "fit_delta_mean", "fit_delta_rms", "fit_cos2_mean", "fit_sin2_mean",
)


def load_reference() -> list[dict]:
    with open(REFERENCE_CSV, newline="") as fh:
        rows = list(csv.DictReader(fh))
    out = []
    for row in rows:
        rec = {k: float(row[k]) for k in REFERENCE_COLUMNS}
        rec["index"] = int(row["index"])
        out.append(rec)
    return out


def _agrees(value: float, ref: float) -> bool:
    return abs(value - ref) <= REFERENCE_ABS + REFERENCE_REL * abs(ref)


def run_scan(ctx: Context, seed: int, seconds: float, tracer=None,
             max_ops: int = 0) -> Outcome:
    out = Outcome()
    pool = load_reference()
    first = _start_index(seed) % len(pool)
    z_scores: list[float] = []

    def check_op(ref, outputs):
        field, state, fits = outputs
        out.units.append(1)
        measured = {"ex": field[0], "ey": field[1], "ez": field[2], "fss": state.fss}
        out.check(
            all(_agrees(measured[k], ref[k]) for k in measured),
            f"scan point {ref['index']}: field or splitting differs from the reference",
        )
        good = [f for f in fits if isinstance(f, spectro.FitResult)]
        summary_ok = len(good) == len(fits) and all(
            _agrees(v, ref[k]) for k, v in fit_summary(good).items()
        )
        for f in fits:
            out.check(
                summary_ok,
                f"scan point {ref['index']}: fit "
                + (f"failed: {f}" if isinstance(f, Exception) else "differs from the reference"),
            )
        z_scores.extend(
            (f.delta_fss - state.fss) / f.uncertainties[0]
            for f in good
            if f.uncertainties[0] > 0.0
        )

    points = (pool[(first + k) % len(pool)] for k in range(len(pool)))
    _timed_ops(
        seconds,
        points,
        lambda ref, watch: scan_point(ctx, ref["index"], ref["va"], ref["vb"], watch),
        check_op,
        out,
        tracer,
        max_ops,
    )
    out.sizes = {"N": len(out.op_s), "M": SCAN_FITS_PER_POINT, "angles": SCAN_ANGLES,
                 "pool": len(pool)}
    out.fit_z_std = float(np.std(z_scores)) if z_scores else 0.0
    return out


WORKLOADS = {"map": run_map, "tune": run_tune, "scan": run_scan}
