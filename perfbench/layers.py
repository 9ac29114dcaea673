"""What the traced run wraps, and how its spans become per-layer metrics.

Spans sit at the public entry points of each module: ``SheetSystem``
construction, ``solve``, ``residual`` and ``jacobian``, SciPy's sparse
direct solver, and every public function of ``config``, ``device``,
``exciton``, ``spectro`` and ``tuner``.  ``SheetSystem._newton`` is only
counted (no span), so that accepted Newton steps and line-search trials
can be told apart without splitting ``solve`` self time.
"""

from __future__ import annotations

import inspect
import os
import sys
from collections import defaultdict

import scipy.sparse.linalg as spla

import stats
import workloads
from pillartune import config, device, exciton, solver, spectro, tuner
from spans import END, FAILED, NAME, START, VALUE, has_ancestor, self_times

TRACED_MODULES = (config, device, exciton, spectro, tuner)
SOLVE_COLD = "SheetSystem.solve:cold"
SOLVE_WARM = "SheetSystem.solve:warm"
SPSOLVE = "scipy.spsolve"


def _solve_name(args, kwargs):
    phi0 = kwargs.get("phi0", args[3] if len(args) > 3 else None)
    return SOLVE_COLD if phi0 is None else SOLVE_WARM


# span-name -> value extracted from (args, kwargs, result)
_VALUES = {
    "tuner.find_zero_fss": lambda a, k, r: r.iterations,
    "tuner.write_sweep_csv": lambda a, k, r: os.path.getsize(a[1]),
    "tuner.iso_fss_points": lambda a, k, r: len(r),
}


def install(tracer) -> None:
    """Wrap every traced boundary (see the module docstring)."""
    modules = [m for name, m in sys.modules.items()
               if name == "pillartune" or name.startswith("pillartune.")]
    for module in TRACED_MODULES:
        short = module.__name__.rsplit(".", 1)[-1]
        for attr, fn in list(vars(module).items()):
            if (inspect.isfunction(fn) and not attr.startswith("_")
                    and fn.__module__ == module.__name__):
                name = f"{short}.{attr}"
                tracer.wrap_function(fn, modules, name, _VALUES.get(name))
    system = solver.SheetSystem
    tracer.wrap(system, "__init__", "SheetSystem.__init__")
    tracer.wrap(system, "solve", _solve_name, lambda a, k, r: r.newton_iters)
    tracer.wrap(system, "residual", "SheetSystem.residual")
    tracer.wrap(system, "jacobian", "SheetSystem.jacobian")
    tracer.wrap(system, "_newton", "solver.newton", lambda a, k, r: r[2], span=False)
    tracer.wrap(spla, "spsolve", SPSOLVE)


class _Layer:
    __slots__ = ("calls", "total_s", "self_s", "failed", "value", "durations")

    def __init__(self):
        self.calls = self.failed = 0
        self.total_s = self.self_s = 0.0
        self.value = 0.0
        self.durations: list[float] = []


def summarize(spans) -> dict[str, _Layer]:
    by_name: dict[str, _Layer] = defaultdict(_Layer)
    for s, own in zip(spans, self_times(spans)):
        layer = by_name[s[NAME]]
        d = s[END] - s[START]
        layer.calls += 1
        layer.total_s += d
        layer.self_s += own
        layer.failed += int(s[FAILED])
        layer.value += s[VALUE] or 0
        layer.durations.append(d)
    return by_name


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def metrics(tracer, L, mesh, fit_z_std: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, name -> (value, unit).

    ``L`` is ``summarize(tracer.spans)``; ``fit_z_std`` comes from the
    scan workload's own checks.  A layer the workload does not exercise
    reads 0.
    """
    spans = tracer.spans
    solves = [L[SOLVE_COLD], L[SOLVE_WARM]]
    n_solves = sum(s.calls for s in solves)
    solve_ms = [1e3 * d for s in solves for d in s.durations]
    solve_names = {SOLVE_COLD, SOLVE_WARM}
    linear = [s[END] - s[START] for i, s in enumerate(spans)
              if s[NAME] == SPSOLVE and has_ancestor(spans, i, solve_names)]
    newton_calls = tracer.calls["solver.newton"]
    newton_iters = tracer.totals["solver.newton"]
    residual = L["SheetSystem.residual"]
    searches = L["tuner.find_zero_fss"]
    fits = L["spectro.fit_fss_sine"]
    m = {
        "config.load_s": (L["config.load_run_config"].total_s, "s"),
        "device.geometry_s": (L["device.build_geometry"].total_s, "s"),
        "device.mesh_s": (L["device.generate_mesh"].total_s, "s"),
        "device.mesh_nodes": (mesh.n_nodes, "count"),
        "device.mesh_cells": (mesh.n_cells, "count"),
        "solver.linear_solves": (len(linear), "count"),
        "solver.linear_solve_s": (sum(linear), "s"),
        "solver.jacobian_calls": (L["SheetSystem.jacobian"].calls, "count"),
        "solver.jacobian_s": (L["SheetSystem.jacobian"].total_s, "s"),
        "solver.solves": (n_solves, "count"),
        "solver.solves_cold": (L[SOLVE_COLD].calls, "count"),
        "solver.solves_failed": (sum(s.failed for s in solves), "count"),
        "solver.newton_iters": (newton_iters, "count"),
        "solver.iters_per_solve": (_ratio(newton_iters, n_solves), "count"),
        "solver.residual_calls": (residual.calls, "count"),
        "solver.residual_s": (residual.total_s, "s"),
        # Each Newton start evaluates one residual; every other residual is
        # a line-search trial, and an accepted trial is a Newton step.
        "solver.step_accept_ratio": (
            _ratio(newton_iters, residual.calls - newton_calls), "ratio"),
        "solver.solve_p50_ms": (
            stats.percentile(solve_ms, 50)[0] if solve_ms else 0.0, "ms"),
        "solver.solve_p90_ms": (
            stats.percentile(solve_ms, 90)[0] if solve_ms else 0.0, "ms"),
        "solver.solve_self_s": (sum(s.self_s for s in solves), "s"),
        "solver.systems_built": (L["SheetSystem.__init__"].calls, "count"),
        "solver.system_build_s": (L["SheetSystem.__init__"].total_s, "s"),
        "exciton.state_calls": (L["exciton.exciton_state"].calls, "count"),
        "exciton.state_s": (L["exciton.exciton_state"].total_s, "s"),
        "spectro.synth_s": (L["spectro.synth_polarization_scan"].total_s, "s"),
        "spectro.scan_io_s": (
            L["spectro.scan_to_csv"].total_s + L["spectro.scan_from_csv"].total_s, "s"),
        "spectro.fit_calls": (fits.calls, "count"),
        "spectro.fit_s": (fits.total_s, "s"),
        "spectro.fit_failures": (fits.failed, "count"),
        "spectro.fit_z_std": (fit_z_std, "count"),
        "tuner.searches": (searches.calls, "count"),
        "tuner.objective_evals": (searches.value, "count"),
        "tuner.evals_per_search": (_ratio(searches.value, searches.calls), "count"),
        "tuner.search_self_s": (searches.self_s, "s"),
        "tuner.sweep_self_s": (L["tuner.run_bias_sweep"].self_s, "s"),
        "tuner.reference_s": (L["tuner.zero_bias_reference"].total_s, "s"),
        "tuner.csv_write_s": (L["tuner.write_sweep_csv"].total_s, "s"),
        "tuner.csv_read_s": (L["tuner.read_sweep_csv"].total_s, "s"),
        "tuner.csv_bytes": (L["tuner.write_sweep_csv"].value, "count"),
        "tuner.iso_s": (L["tuner.iso_fss_points"].total_s, "s"),
        "tuner.iso_pairs": (L["tuner.iso_fss_points"].value, "count"),
        "trace.spans": (len(spans), "count"),
    }
    return {k: (float(v), unit) for k, (v, unit) in m.items()}


# ROADMAP baseline figures the traced run can reproduce.  A measured value
# within ``tol`` (relative) of the figure, or inside its range, matches;
# any other is flagged.
ROADMAP_FIGURES = {
    "mesh_nodes": ("default mesh nodes", 2140, 0.0),
    "mesh_cells": ("default mesh cells", 3717, 0.0),
    "warm_iters": ("Newton iterations per warm-started cell", 3.5, 0.15),
    "linear_share": ("linear-solve share of sweep time", 0.80, 0.125),
    "cold_iters": ("Newton iterations per cold solve", (19, 25), 0.0),
    "tune_evals": ("objective evaluations, default-calibration tune", 91, 0.0),
}


def traffic(tracer, L, mesh, ctx, workload: str) -> list[dict]:
    """Restate each ROADMAP baseline figure this workload reproduces."""
    spans = tracer.spans
    measured = {"mesh_nodes": mesh.n_nodes, "mesh_cells": mesh.n_cells}
    note = {}
    if workload == "map":
        warm = L[SOLVE_WARM]
        measured["warm_iters"] = _ratio(warm.value, warm.calls)
        note["warm_iters"] = "at a 0.35 V step; the figure is for 0.175 V"
        linear = sum(s[END] - s[START] for i, s in enumerate(spans)
                     if s[NAME] == SPSOLVE and has_ancestor(spans, i, {"tuner.run_bias_sweep"}))
        measured["linear_share"] = _ratio(linear, L["tuner.run_bias_sweep"].total_s)
    if workload == "scan":
        iters = [s[VALUE] for s in spans if s[NAME] == SOLVE_COLD and s[VALUE] is not None]
        if iters:
            measured["cold_iters"] = stats.median(iters)
            note["cold_iters"] = f"median; range {min(iters)}-{max(iters)} over {len(iters)}"
    if workload == "tune":
        measured["tune_evals"] = workloads.tune_search(ctx, ctx.cfg.exciton).iterations
        note["tune_evals"] = "untraced, after the timed window"
    rows = []
    for key, value in measured.items():
        label, figure, tol = ROADMAP_FIGURES[key]
        if isinstance(figure, tuple):
            ok = figure[0] <= value <= figure[1]
        else:
            ok = abs(value - figure) <= tol * abs(figure)
        rows.append({"figure": label, "roadmap": figure, "measured": value,
                     "status": "matches" if ok else "DIFFERS", "note": note.get(key, "")})
    return rows
