"""Bias-space orchestration: grid sweeps and zero-splitting search.

Sweeps walk the (V_A, V_B) grid row by row.  Each row is one ``SolveChain``
that runs in ascending V_A, and rows are independent of each other, so
row-parallel execution produces byte-identical output to a serial run.
The zero-splitting search solves the smooth splitting vector delta(V) = 0
by a projected Gauss-Newton iteration inside the bias window, with its
exact Jacobian from the chain's tangent; its norm, the observable
splitting, is not differentiable at the zero.  It is a two-grid search: a
3-per-axis grid of seeds is ranked on a mesh of three times the edge, and
the best seeds are refined on the caller's mesh, each refinement starting
from its seed's coarse potential interpolated onto that mesh.  Each mesh
has one chain.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .device import DeviceGeometry, MaterialParams, Mesh, cell_gradients, generate_mesh
from .exciton import (
    ExcitonParams,
    ExcitonState,
    algebraic_fss,
    exciton_state,
    fss_vector,
    stark_shift,
)
from .solver import (
    MAX_BIAS_V,
    TERMINALS,
    BiasPoint,
    FieldSolution,
    SheetSystem,
    SolveChain,
    SolverConfig,
    SolverError,
    classify_regime,
    sheet_system,
)

_FLOATING = "floating"  # spelling of a floating V_C in configs, CSVs and reports


def _parse_vc(text: str) -> float | None:
    """A finite V_C voltage, or None for a floating terminal."""
    if text.strip().lower() == _FLOATING:
        return None
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("value must be finite")
    return value


def _format_vc(vc: float | None) -> str:
    return _FLOATING if vc is None else repr(float(vc))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # builtin repr even for numpy scalars
    return str(value)


# A sweep CSV column: its output group (None: always written; the groups follow
# in field order whatever order ``SweepSpec.outputs`` names them in) and the
# (parse, format) codec of one cell.
def _column(default=math.nan, group: str | None = None, codec=(float, _fmt)):
    return field(default=default, metadata={"group": group, "codec": codec})


@dataclass
class CellRecord:
    """One grid cell; its fields are the sweep CSV columns in file order."""

    va: float = _column(MISSING)
    vb: float = _column(MISSING)
    vc: float | None = _column(MISSING, codec=(_parse_vc, _format_vc))
    status: str = _column("ok", codec=(str, _fmt))
    iters: int = _column(0, codec=(int, _fmt))
    residual: float = _column()
    ex: float = _column(group="fields")
    ey: float = _column(group="fields")
    ez: float = _column(group="fields")
    ia: float = _column(group="currents")
    ib: float = _column(group="currents")
    ic: float = _column(group="currents")
    i_junction: float = _column(group="currents")
    region: int | None = _column(None, group="regime", codec=(int, _fmt))
    fss: float = _column(group="fss")
    theta0: float | None = _column(None, group="theta0")
    algebraic_fss: float = _column(group="algebraic_fss")
    mean_energy: float = _column(group="stark")
    stark: float = _column(group="stark")

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def __eq__(self, other) -> bool:
        """Field-wise equality in which NaN equals NaN (failed cells hold NaN)."""
        if not isinstance(other, CellRecord):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(a == b or (a != a and b != b) for a, b in pairs)


COLUMNS = {f.name: f.metadata["group"] for f in fields(CellRecord)}  # in file order
ALL_OUTPUTS = tuple(dict.fromkeys(group for group in COLUMNS.values() if group))
_CODECS = {f.name: f.metadata["codec"] for f in fields(CellRecord)}


class TunerError(ValueError):
    pass


@dataclass(frozen=True)
class SweepSpec:
    """Rectangular (V_A, V_B) grid with a fixed or floating V_C."""

    va_start: float
    va_stop: float
    va_step: float
    vb_start: float
    vb_stop: float
    vb_step: float
    vc: float | None
    outputs: tuple[str, ...]

    def __post_init__(self) -> None:
        for start, stop, step, name in (
            (self.va_start, self.va_stop, self.va_step, "va"),
            (self.vb_start, self.vb_stop, self.vb_step, "vb"),
        ):
            if not (step > 0.0):
                raise ValueError(f"{name}_step must be positive")
            if stop < start:
                raise ValueError(f"{name} range is empty")
        for name in ("va_start", "va_stop", "vb_start", "vb_stop", "vc"):
            v = getattr(self, name)
            if v is not None and not abs(v) <= MAX_BIAS_V:
                raise ValueError(f"{name} must lie within +-{MAX_BIAS_V:g} V, got {v}")
        unknown = set(self.outputs) - set(ALL_OUTPUTS)
        if unknown:
            raise ValueError(f"unknown sweep outputs: {sorted(unknown)}")

    @staticmethod
    def _axis(start: float, stop: float, step: float) -> np.ndarray:
        n = int(math.floor((stop - start) / step * (1.0 + 1e-12))) + 1
        return start + np.arange(n) * step

    def va_values(self) -> np.ndarray:
        return self._axis(self.va_start, self.va_stop, self.va_step)

    def vb_values(self) -> np.ndarray:
        return self._axis(self.vb_start, self.vb_stop, self.vb_step)

    def tune_bounds(self) -> tuple[float, float]:
        """Voltage window of the zero search: the span of both sweep axes."""
        return (min(self.va_start, self.vb_start), max(self.va_stop, self.vb_stop))

    def columns(self) -> tuple[str, ...]:
        return tuple(c for c, g in COLUMNS.items() if g is None or g in self.outputs)


@dataclass
class SweepResult:
    spec: SweepSpec
    records: list[CellRecord]          # row-major: vb outer, va inner
    metadata: dict = field(default_factory=dict)

    def grid_shape(self) -> tuple[int, int]:
        return (len(self.spec.vb_values()), len(self.spec.va_values()))

    def record(self, i_vb: int, i_va: int) -> CellRecord:
        return self.records[i_vb * self.grid_shape()[1] + i_va]

    def ok_records(self) -> list[CellRecord]:
        return [r for r in self.records if r.ok]


@dataclass
class TuneResult:
    bias: tuple[float, float, float | None]
    achieved_fss: float
    theta_before: float | None
    theta_after: float | None
    rotation: float | None
    crossing_verified: bool
    mean_energy: float
    iterations: int
    newton_iters: int
    converged: bool
    status: str  # "zero", "bound_minimum" or "above_tol", see find_zero_fss

    def to_dict(self) -> dict:
        va, vb, vc = self.bias
        return {
            "va": va,
            "vb": vb,
            "vc": _FLOATING if vc is None else vc,
            "achieved_fss_uev": self.achieved_fss,
            "theta_before_rad": self.theta_before,
            "theta_after_rad": self.theta_after,
            "rotation_rad": self.rotation,
            "crossing_verified": self.crossing_verified,
            "mean_energy_ev": self.mean_energy,
            "iterations": self.iterations,
            "newton_iters": self.newton_iters,
            "converged": self.converged,
            "status": self.status,
        }


@dataclass(frozen=True)
class IsoFssPair:
    index_a: int
    index_b: int
    bias_a: tuple[float, float, float | None]
    bias_b: tuple[float, float, float | None]
    fss_a: float
    fss_b: float
    energy_separation_uev: float

    def to_dict(self) -> dict:
        def b(t):
            return {"va": t[0], "vb": t[1], "vc": _FLOATING if t[2] is None else t[2]}

        return {
            "index_a": self.index_a,
            "index_b": self.index_b,
            "bias_a": b(self.bias_a),
            "bias_b": b(self.bias_b),
            "fss_a_uev": self.fss_a,
            "fss_b_uev": self.fss_b,
            "energy_separation_uev": self.energy_separation_uev,
        }


def _fill_record(
    rec: CellRecord,
    sol: FieldSolution,
    state: ExcitonState,
    params: ExcitonParams,
    theta_ref: float,
    i_threshold: float,
) -> None:
    rec.iters = sol.newton_iters
    rec.residual = sol.residual
    rec.ex, rec.ey, rec.ez = sol.field
    rec.ia, rec.ib, rec.ic = sol.i_a, sol.i_b, sol.i_c
    rec.i_junction = sol.i_junction
    rec.region = classify_regime(sol, i_threshold)
    rec.fss = state.fss
    rec.theta0 = state.theta0
    rec.mean_energy = state.mean_energy
    rec.stark = stark_shift(params, sol.e_z)
    rec.algebraic_fss = algebraic_fss(state, theta_ref)


def zero_bias_reference(
    system: SheetSystem,
    exciton_params: ExcitonParams,
    cfg: SolverConfig,
    vc: float | None,
) -> tuple[float, ExcitonState]:
    """Eigenaxis at V_A = V_B = 0, used as the fixed algebraic basis."""
    bias = BiasPoint(0.0, 0.0, None if vc is None else 0.0)
    sol = system.solve(bias, cfg)
    state = exciton_state(exciton_params, sol.field)
    theta_ref = state.theta0 if state.theta0 is not None else 0.0
    return theta_ref, state


def run_bias_sweep(
    spec: SweepSpec,
    mesh: Mesh,
    materials: MaterialParams,
    exciton_params: ExcitonParams,
    cfg: SolverConfig,
    jobs: int = 1,
) -> SweepResult:
    """Evaluate the grid; failed cells keep an error status instead of aborting.

    The rows share the ``sheet_system`` of ``mesh`` and ``materials``, so
    repeated sweeps on one mesh assemble it once.  ``jobs`` is the number
    of rows solved in threads; it must be at least 1.  The band
    factorization holds the interpreter lock, so more jobs measured slower
    than one; the output is the same for every ``jobs``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    t_start = time.perf_counter()
    system = sheet_system(mesh, materials)
    va = spec.va_values()
    vb = spec.vb_values()
    theta_ref, state0 = zero_bias_reference(system, exciton_params, cfg, spec.vc)

    def run_row(v_b: float) -> tuple[list[CellRecord], int]:
        """The row's records in ascending V_A, and its solves' factorizations."""
        row = []
        chain = SolveChain(system, cfg)
        for v_a in va:
            bias = BiasPoint(float(v_a), float(v_b), spec.vc)
            rec = CellRecord(va=bias.v_a, vb=bias.v_b, vc=spec.vc)
            try:
                sol = chain.solve(bias)
                state = exciton_state(exciton_params, sol.field)
                _fill_record(
                    rec, sol, state, exciton_params, theta_ref, cfg.regime_threshold
                )
            except SolverError as exc:
                rec.status = f"error:{type(exc).__name__}"
            row.append(rec)
        return row, chain.factorizations

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(run_row, vb))
    else:
        rows = [run_row(v_b) for v_b in vb]

    records = [rec for row, _ in rows for rec in row]
    iters = [r.iters for r in records if r.ok]
    meta = {
        "grid": [len(vb), len(va)],
        "theta_ref_rad": theta_ref,
        "zero_bias_fss_uev": state0.fss,
        "regime_threshold_a": cfg.regime_threshold,
        "mesh_nodes": mesh.n_nodes,
        "mesh_cells": mesh.n_cells,
        "n_failed": len(records) - len(iters),
        "newton_iters": sum(iters),
        "newton_iters_hist": {k: iters.count(k) for k in sorted(set(iters))},
        "factorizations": sum(n for _, n in rows),
        "elapsed_s": time.perf_counter() - t_start,
    }
    return SweepResult(spec=spec, records=records, metadata=meta)


# -- CSV round trip ----------------------------------------------------------


def write_sweep_csv(result: SweepResult, path: str) -> None:
    cols = result.spec.columns()
    formats = [_CODECS[col][1] for col in cols]
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(cols)
        for rec in result.records:
            out.writerow([f(getattr(rec, col)) for f, col in zip(formats, cols)])


def read_sweep_csv(path: str) -> list[CellRecord]:
    """Read a sweep CSV; empty cells keep the ``CellRecord`` default."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise TunerError(f"cannot read sweep CSV {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise TunerError(f"{path}: not a UTF-8 CSV file: {exc}") from exc
    if not rows:
        raise TunerError(f"{path}: empty sweep CSV")
    header = rows[0]
    bad = [h for h in header if h not in _CODECS]
    if bad:
        raise TunerError(f"{path}: unknown sweep columns {bad}")
    repeated = sorted({h for h in header if header.count(h) > 1})
    if repeated:
        raise TunerError(f"{path}: repeated sweep columns {repeated}")
    missing = [
        f.name
        for f in fields(CellRecord)
        if f.default is MISSING and f.name not in header
    ]
    if missing:
        raise TunerError(f"{path}: missing sweep columns {missing}")
    parsers = [_CODECS[h][0] for h in header]
    records = []
    for row_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise TunerError(
                f"{path}: row {row_no} has {len(row)} fields, "
                f"header has {len(header)}"
            )
        try:
            values = {h: p(v) for h, p, v in zip(header, parsers, row) if v}
            records.append(CellRecord(**values))
        except (TypeError, ValueError) as exc:
            raise TunerError(f"{path}: row {row_no}: {exc}") from exc
    return records


# -- zero-splitting search ---------------------------------------------------

_GRID_POINTS = 3     # seed grid points per free terminal, spanning the bounds
_SEED_EDGE_FACTOR = 3.0  # the seed grid is ranked on a mesh of this times the edge
_N_STARTS = 3        # best seeds refined by the projected Newton iteration
_PROBE_STEP = 0.05   # V either side of the optimum for the eigenaxis swap
_XTOL = 1e-8         # a run ends on an accepted step below _XTOL * (_XTOL + |x|)
_AHEAD_FRACTION = 0.01  # ... or on a predicted next step below this times that
_MIN_STEP_FRACTION = 2.0**-6  # a run ends when backtracking halves below this
_MAX_EVALS = 30      # splitting evaluations of one run, its start included
_CACHED_SEED_MESHES = 4  # seed meshes ``_seed_mesh`` keeps, the most recently used


@functools.lru_cache(maxsize=_CACHED_SEED_MESHES)
def _seed_mesh(geometry: DeviceGeometry, edge: float) -> Mesh:
    """The seed-ranking mesh of ``geometry`` at ``edge``, built on first use."""
    return generate_mesh(geometry, edge)


@functools.lru_cache(maxsize=_CACHED_SEED_MESHES)
def _prolongation(mesh: Mesh, seed_mesh: Mesh):
    """Sparse (n, n_seed) P1 interpolation of seed-mesh potentials onto ``mesh``.

    Each node of ``mesh`` takes its barycentric weights in a seed cell that
    holds it.  A node outside every seed cell (on the pillar arc, which the
    coarser seed rim cuts inside) takes the weights of its nearest cell,
    clamped to non-negative and renormalized.  Candidate cells come from a
    grid of buckets as wide as the widest cell, a dozen or so per node;
    only the few outside nodes are measured against every cell.
    """
    from scipy.sparse import csr_matrix  # already loaded by the solver

    x, y = mesh.nodes.T
    n = len(x)
    cx, cy = seed_mesh.nodes[seed_mesh.cells].transpose(2, 0, 1)  # (cells, 3)
    ax, ay = np.roll(cx, -1, axis=1), np.roll(cy, -1, axis=1)  # vertex i + 1
    bx, by = np.roll(cx, 1, axis=1), np.roll(cy, 1, axis=1)  # vertex i + 2
    gx, gy = (g.T for g in cell_gradients(seed_mesh))  # (3, cells) weight gradients

    def weights(node, cell):
        # from differences to vertex 0, so exact to rounding on linear fields
        dx, dy = x[node] - cx[cell, 0], y[node] - cy[cell, 0]
        return [gx[i, cell] * dx + gy[i, cell] * dy + float(i == 0) for i in range(3)]

    # A cell holding a node has the lower-left corner of its bounding box in
    # the node's bucket, the one left of it, below it or both.
    lx, ly = cx.min(axis=1), cy.min(axis=1)
    width = max(np.ptp(cx, axis=1).max(), np.ptp(cy, axis=1).max())

    def bucket(px, py):
        return (
            np.floor((px - lx.min()) / width).astype(int),
            np.floor((py - ly.min()) / width).astype(int),
        )

    ix, iy = bucket(lx, ly)
    rows = iy.max() + 2
    order = np.argsort(ix * rows + iy, kind="stable")
    keys = (ix * rows + iy)[order]
    jx, jy = bucket(x, y)
    low = (jx[:, None] - [0, 1]) * rows + (jy - 1)[:, None]  # then row jy
    start = np.searchsorted(keys, low).ravel()
    count = np.searchsorted(keys, low + 1, side="right").ravel() - start
    node = np.repeat(np.arange(n), count.reshape(n, 2).sum(axis=1))
    offset = np.repeat(start - np.cumsum(count) + count, count)
    cell = order[np.arange(count.sum()) + offset]
    # in the cell, or on its edge to rounding
    holds = np.logical_and.reduce([w >= -1e-12 for w in weights(node, cell)])
    hit, first = np.unique(node[holds], return_index=True)
    owner = np.full(n, -1)
    owner[hit] = cell[holds][first]

    # Nodes outside the seed mesh: distance to each cell edge a -> b.
    out = np.flatnonzero(owner < 0)
    px, py = x[out, None, None], y[out, None, None]
    ex, ey = bx - ax, by - ay
    t = np.clip(((px - ax) * ex + (py - ay) * ey) / (ex * ex + ey * ey), 0.0, 1.0)
    gap = np.hypot(px - ax - t * ex, py - ay - t * ey).min(axis=2)
    owner[out] = gap.argmin(axis=1)

    w = np.clip(np.column_stack(weights(np.arange(n), owner)), 0.0, None)
    w /= w.sum(axis=1, keepdims=True)
    indptr = np.arange(0, 3 * n + 1, 3)
    shape = (n, seed_mesh.n_nodes)
    return csr_matrix((w.ravel(), seed_mesh.cells[owner].ravel(), indptr), shape=shape)


def _eigenaxis_rotation(
    theta_a: float | None, theta_b: float | None
) -> float | None:
    """Eigenaxis rotation folded to [0, pi/2] rad; None if either axis is undefined."""
    if theta_a is None or theta_b is None:
        return None
    d = abs(theta_a - theta_b) % math.pi
    return min(d, math.pi - d)


def _splitting_jacobian(
    chain: SolveChain, params: ExcitonParams, free: tuple[str, ...]
) -> np.ndarray:
    """d(delta)/dV over the ``free`` terminals at the chain's held solution.

    (d(delta)/dE)(dE/dV): the constant matrix of the linear ``fss_vector``
    times the QD field change of each free terminal's exact tangent, all
    from one factorization, which the chain then holds.
    """
    steps = [[float(t == name) for t in TERMINALS] for name in free]
    d_phi = chain.tangent(steps)
    d_field = np.column_stack([chain.system.field_change_at_qd(d) for d in d_phi.T])
    return params.field_matrix() @ d_field


def _projected_newton(fun, jac, x0, lo: float, hi: float):
    """Gauss-Newton on ``fun(x) = 0`` with every variable in [lo, hi].

    Each iteration takes ``jac`` at the accepted point, holds each
    variable that sits on a bound while its step points out of the box,
    and solves for the others by ``lstsq``, so the system may be square,
    under- or over-determined.  The step is clipped to the box and halved
    until |fun| decreases.  A run stops when |fun| is zero, on a zero step,
    on an accepted step shorter than ``_XTOL * (_XTOL + |x|)`` or a next
    step, predicted on the same Jacobian, shorter than ``_AHEAD_FRACTION``
    of that, when the halving falls below ``_MIN_STEP_FRACTION``, or after
    ``_MAX_EVALS`` evaluations of ``fun``.  Returns x, fun(x) and the
    active-bound mask of the last iteration: -1 for a variable held on
    ``lo``, +1 on ``hi``.
    """
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    f = fun(x)
    evals = 1
    active = np.zeros(x.size, dtype=int)
    while evals < _MAX_EVALS and np.any(f != 0.0):
        J = jac(x)
        held = np.zeros(x.size, dtype=bool)
        step = np.zeros(x.size)
        while not held.all():
            step[:] = 0.0
            step[~held] = np.linalg.lstsq(J[:, ~held], -f, rcond=None)[0]
            outward = ((x <= lo) & (step < 0.0)) | ((x >= hi) & (step > 0.0))
            if not outward.any():
                break
            held |= outward
        step[held] = 0.0
        active = np.where(held, np.where(x <= lo, -1, 1), 0)
        if not step.any():
            break
        f_norm = np.linalg.norm(f)
        t = 1.0
        while True:
            x_new = np.clip(x + t * step, lo, hi)
            f_new = fun(x_new)
            evals += 1
            if np.linalg.norm(f_new) < f_norm:
                break
            t *= 0.5
            if t < _MIN_STEP_FRACTION or evals >= _MAX_EVALS:
                return x, f, active
        moved = np.linalg.norm(x_new - x)
        x, f = x_new, f_new
        # A run at its zero (or bound minimum) stops here, not after one
        # more Jacobian and halvings that rounding keeps from decreasing |fun|.
        ahead = np.linalg.norm(np.linalg.lstsq(J[:, ~held], -f, rcond=None)[0])
        xtol = _XTOL * (_XTOL + np.linalg.norm(x))
        if moved < xtol or ahead < _AHEAD_FRACTION * xtol:
            break
    return x, f, active


def find_zero_fss(
    start: BiasPoint,
    free_terminals,
    tol: float,
    mesh: Mesh,
    materials: MaterialParams,
    exciton_params: ExcitonParams,
    cfg: SolverConfig,
    bounds: tuple[float, float],
) -> TuneResult:
    """Search the free terminal voltages for a splitting below ``tol`` (ueV).

    Two grids: a 3-per-axis grid of seeds over ``bounds`` (the CLI passes
    ``SweepSpec.tune_bounds()``) is ranked on a mesh of the same geometry at
    three times the edge, and the best seeds are refined on ``mesh`` in
    turn by a projected Gauss-Newton iteration (``_projected_newton``,
    exact Jacobian from the solution's tangent) on the smooth splitting
    vector delta(V), until one lands below ``tol / 4``; seeds and starts
    whose solve fails are skipped.  Each mesh has one chain, whose solves
    are predicted from the one before, except the first solve of each
    refinement, at its seed, which starts from the seed's potential on
    the seed mesh interpolated onto ``mesh``.  The seed mesh comes from
    ``_seed_mesh``, the interpolation from ``_prolongation`` and both
    systems from ``sheet_system``, so searches on one mesh and materials
    share them; no solve is shared.  ``mesh`` must come from
    ``generate_mesh``, which records its geometry (a ``make_strip_mesh``
    mesh has none and raises ``ValueError``).  ``tol`` must be positive
    and finite, and ``bounds`` finite with lo < hi and within
    +-``MAX_BIAS_V``; ``start`` gives the voltages of the terminals that
    are not free.  The eigenaxis swap is
    verified by probing 0.05 V either side of the optimum along the
    approach direction, each probe clipped to ``bounds``:
    ``crossing_verified`` holds when the axes of the two probes differ by
    at least pi/2 - 0.1 rad.
    A failed search returns the best candidate with ``converged=False``;
    ``iterations`` counts the splitting evaluations of the search and
    ``newton_iters`` the Newton steps of all its solves, on both meshes.
    ``converged`` means only ``achieved_fss <= tol``; ``crossing_verified``
    is the eigenaxis test.  ``status`` says what the search found:
    ``above_tol`` when not converged, ``bound_minimum`` when converged and
    the best run ends with a free terminal held on a bound (a minimum on
    the bound, not a zero, such as the dot with zero-field splitting
    (10.29, 1.95) ueV that ends on V_B = -1 V at 0.154 ueV), else ``zero``.
    """
    if not (0.0 < tol < math.inf):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    lo, hi = bounds
    if not (-math.inf < lo < hi < math.inf):
        raise ValueError(f"bounds must be finite with lo < hi, got {bounds}")
    if max(-lo, hi) > MAX_BIAS_V:
        raise ValueError(f"bounds must lie within +-{MAX_BIAS_V:g} V, got {bounds}")
    free = tuple(free_terminals)
    if not free or len(set(free)) < len(free) or not set(free) <= set(TERMINALS):
        raise ValueError("free_terminals must be distinct terminals among A, B, C")
    for t in free:
        if start.terminal(t) is None:
            raise ValueError(f"free terminal {t} is floating in the start bias")
    if mesh.geometry is None:
        raise ValueError("mesh has no geometry to rank seeds on; use generate_mesh")

    seed_mesh = _seed_mesh(mesh.geometry, _SEED_EDGE_FACTOR * mesh.target_edge)
    seed_chain = SolveChain(sheet_system(seed_mesh, materials), cfg)
    chain = SolveChain(sheet_system(mesh, materials), cfg)
    evals = 0

    def bias_at(x) -> BiasPoint:
        values = dict(zip(free, map(float, x)))
        return BiasPoint(*(values.get(t, start.terminal(t)) for t in TERMINALS))

    def splitting(x, on: SolveChain = chain) -> np.ndarray:
        nonlocal evals
        evals += 1
        return np.array(fss_vector(exciton_params, on.solve(bias_at(x)).field))

    def jacobian(x) -> np.ndarray:
        chain.solve(bias_at(x))
        return _splitting_jacobian(chain, exciton_params, free)

    def state_at(x) -> ExcitonState:
        return exciton_state(exciton_params, chain.solve(bias_at(x)).field)

    grid_axis = np.linspace(lo, hi, _GRID_POINTS)
    scored = []
    for seed in itertools.product(grid_axis, repeat=len(free)):
        x = np.array(seed)
        try:
            norm = math.hypot(*splitting(x, seed_chain))
        except SolverError:
            continue
        scored.append((norm, x, seed_chain.held.phi))
    scored.sort(key=lambda t: t[0])

    # Coarse norms only rank the seeds: any refined run beats them.  With
    # every seed failed the search reports the first seed, solved on ``mesh``.
    best_f = math.inf
    best_x = scored[0][1] if scored else np.full(len(free), lo)
    on_bound = False
    approach = None
    for _, x0, seed_phi in scored[:_N_STARTS]:
        try:
            # the run's first solve, at x0, starts from the seed's coarse potential
            chain.solve(bias_at(x0), phi0=_prolongation(mesh, seed_mesh) @ seed_phi)
            x, f, active = _projected_newton(splitting, jacobian, x0, lo, hi)
        except SolverError:
            continue
        f = math.hypot(*f)
        if f < best_f:
            best_f, best_x, approach = f, x, x - x0
            on_bound = bool(active.any())
        if best_f < 0.25 * tol:
            break

    best_state = state_at(best_x)
    achieved = best_state.fss

    if approach is None or not np.any(np.abs(approach) > 1e-12):
        approach = np.ones(len(free))
    direction = approach / np.linalg.norm(approach)

    try:
        state_lo = state_at(np.clip(best_x - _PROBE_STEP * direction, lo, hi))
        state_hi = state_at(np.clip(best_x + _PROBE_STEP * direction, lo, hi))
        theta_before, theta_after = state_lo.theta0, state_hi.theta0
    except SolverError:
        theta_before = theta_after = None
    rotation = _eigenaxis_rotation(theta_before, theta_after)

    bias = bias_at(best_x)
    converged = achieved <= tol
    status = "bound_minimum" if on_bound else "zero"
    return TuneResult(
        bias=(bias.v_a, bias.v_b, bias.v_c),
        achieved_fss=achieved,
        theta_before=theta_before,
        theta_after=theta_after,
        rotation=rotation,
        crossing_verified=rotation is not None and rotation >= 0.5 * math.pi - 0.1,
        mean_energy=best_state.mean_energy,
        iterations=evals,
        newton_iters=seed_chain.newton_iters + chain.newton_iters,
        converged=converged,
        status=status if converged else "above_tol",
    )


def iso_fss_points(
    sweep: SweepResult,
    target_fss: float,
    min_energy_separation: float,
    max_pairs: int | None = None,
) -> list[IsoFssPair]:
    """Grid-point pairs with similar splitting at well-separated mean energies.

    Both members must lie within 10 % of ``target_fss`` (ueV, positive and
    finite); the pair qualifies when the mean transition energies differ
    by at least ``min_energy_separation`` (ueV, finite).  Pairs come widest
    separation first, ties by index; at most ``max_pairs`` (None or a count
    >= 0) are kept.  An empty list is a valid outcome; an argument out of
    its range raises ValueError.
    """
    if not (0.0 < target_fss < math.inf):
        raise ValueError("target_fss must be positive and finite")
    if not math.isfinite(min_energy_separation):
        raise ValueError("min_energy_separation must be finite")
    if max_pairs is not None and max_pairs < 0:
        raise ValueError(f"max_pairs must be at least 0, got {max_pairs}")
    cand = np.array(
        [
            i
            for i, rec in enumerate(sweep.records)
            if rec.ok
            and math.isfinite(rec.fss)
            and abs(rec.fss - target_fss) <= 0.1 * target_fss
        ],
        dtype=int,
    )
    energy = np.array([sweep.records[i].mean_energy for i in cand], dtype=float)
    a, b = np.triu_indices(len(cand), k=1)
    sep = np.abs(energy[a] - energy[b]) * 1e6
    keep = sep >= min_energy_separation
    ia, ib, sep = cand[a[keep]], cand[b[keep]], sep[keep]
    order = np.lexsort((ib, ia, -sep))[:max_pairs]
    pairs = []
    for i, j, s in zip(ia[order].tolist(), ib[order].tolist(), sep[order].tolist()):
        ra, rb = sweep.records[i], sweep.records[j]
        pairs.append(
            IsoFssPair(
                index_a=i,
                index_b=j,
                bias_a=(ra.va, ra.vb, ra.vc),
                bias_b=(rb.va, rb.vb, rb.vc),
                fss_a=ra.fss,
                fss_b=rb.fss,
                energy_separation_uev=s,
            )
        )
    return pairs
