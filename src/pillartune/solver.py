"""Stationary potential on the conductive sheet with a distributed junction.

The top sheet conducts laterally (sheet conductance per square); every node
also drains vertically through a Shockley junction into the grounded
substrate.  Contacts are lumped: the pad-edge nodes (``Mesh.pads``) of a driven
terminal connect to the terminal voltage through one series resistance per
ridge, split evenly over the pad nodes.  A floating terminal simply has no
such connection, so it carries exactly zero current.  A bias reaches the
sheet only through the contacts: ``_contacts`` turns it, once per solve,
into two node vectors, the conductance g, 1 / (R_k |pad k|) on the pad
nodes of each driven terminal k and 0 elsewhere, and the terminal voltage
v on the same nodes.  They add g (phi - v) to the residual and g to the
Jacobian diagonal, and the residual, energy, Jacobian and terminal
currents take the pair (g, v) in place of the bias.

Discretisation is node-centred finite volume on the triangle mesh (P1
stiffness for the lateral term, lumped nodal areas for the junction term).
The residual is the gradient of a strictly convex energy (``energy``), so
damped Newton with a line search on that energy converges from any start,
equilibrium included; no bias continuation is needed.

The Jacobian is symmetric positive definite, and only its diagonal changes
from step to step.  In reverse Cuthill-McKee order it is a narrow band
(half-bandwidth 54 on the 2,140-node default mesh), and that band is the
only form it takes: the stiffness band is built once per system, and a
factorization copies it, adds the junction and contact conductances to its
diagonal and factors it with LAPACK's banded Cholesky (``dpbtrf``).  A
solve holds its factor across steps and refactors only when the last step
needed a line-search halving or shrank the residual by less than
``1 / _CHORD_CONTRACTION``; the steps in between are chord steps on the held
factor (``dpbtrs``), still descent directions of the energy.  The last
factor rides on the returned ``FieldSolution`` and never on the system, and
no factor crosses solves, so a solve depends only on its bias, config and
starting potential.  ``SolveChain`` runs a chain of solves, each predicted
from the one before.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .device import MaterialParams, Mesh, cell_areas, cell_gradients

EXP_CLAMP = 40.0
_E_CLAMP = math.exp(EXP_CLAMP)

# A step that leaves more than this fraction of the residual ends the chord
# steps on the held factor: the next step factors the Jacobian afresh.
_CHORD_CONTRACTION = 0.1

# Fraction of the current floor below which the node-balance sum must fall
# before a solve is declared converged; keeps the Kirchhoff check at
# 1e-8 * max(|I|, current_floor) satisfiable with margin.
_KIRCHHOFF_FRACTION = 1e-9

# Largest terminal voltage magnitude (V) a bias may hold.  Far past it a
# solve cannot start (at 1e8 V every trial point's junction term
# overflows), so a larger bias is an input error, not a solver failure.
MAX_BIAS_V = 1e3

# Assembled systems ``sheet_system`` keeps, the most recently used: a
# search's two meshes and a sweep's one fit with room to spare.
_CACHED_SYSTEMS = 4

# LAPACK's banded Cholesky factor and solve come from ``_lapack`` on each
# call, so that importing the solver loads no SciPy; a test sets one of these
# names to stand in for it.
dpbtrf = dpbtrs = None

TERMINALS = ("A", "B", "C")
_VOLTAGE_FIELDS = {"A": "v_a", "B": "v_b", "C": "v_c"}


class SolverError(RuntimeError):
    """Base class for solver failures."""


class ConvergenceError(SolverError):
    """Newton iteration did not reach tolerance; carries the residual history."""

    def __init__(self, message: str, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


class NumericalError(SolverError):
    """NaN or infinity appeared in the residual."""


@dataclass(frozen=True)
class BiasPoint:
    """Applied terminal potentials; ``None`` marks a floating terminal."""

    v_a: float | None
    v_b: float | None
    v_c: float | None = None

    def __post_init__(self) -> None:
        values = (self.v_a, self.v_b, self.v_c)
        if all(v is None for v in values):
            raise ValueError("at least one terminal must be driven")
        for v in values:
            if v is not None and not math.isfinite(v):
                raise ValueError("bias values must be finite")
            if v is not None and abs(v) > MAX_BIAS_V:
                raise ValueError(f"bias {v:g} V exceeds the {MAX_BIAS_V:g} V limit")

    def terminal(self, name: str) -> float | None:
        return getattr(self, _VOLTAGE_FIELDS[name])


@dataclass(frozen=True)
class SolverConfig:
    newton_tol: float
    max_iters: int
    damping: float
    current_floor: float        # A, smallest terminal current scale resolved
    regime_threshold: float     # A, I_th for regime labelling

    def __post_init__(self) -> None:
        if not (self.newton_tol > 0.0):
            raise ValueError("newton_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("damping must lie in (0, 1]")
        if not (self.current_floor > 0.0):
            raise ValueError("current_floor must be positive")
        if not (self.regime_threshold > 0.0):
            raise ValueError("regime_threshold must be positive")


@dataclass(frozen=True)
class FieldSolution:
    """Converged solve at one bias point, with QD fields and terminal currents."""

    bias: BiasPoint
    phi: np.ndarray
    e_inplane: tuple[float, float]    # V/m at the QD node
    e_z: float                        # V/m at the QD node
    i_a: float
    i_b: float
    i_c: float
    i_junction: float
    newton_iters: int                 # Newton steps, chord steps included
    residual: float                   # scaled infinity norm at convergence
    factorizations: int = 0           # Jacobians factored by the solve
    # banded Cholesky of the last Jacobian factored (None: no step taken);
    # a ``SolveChain`` may hold an earlier or a fresher one in its place
    factor: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def field(self) -> tuple[float, float, float]:
        """(E_x, E_y, E_z) in V/m at the QD node."""
        return (self.e_inplane[0], self.e_inplane[1], self.e_z)


@functools.cache
def _lapack():
    from scipy.linalg import lapack

    return lapack


def _exp_clamped(u: np.ndarray) -> np.ndarray:
    """exp(u) for u <= EXP_CLAMP, continued linearly (C^1) beyond.

    ``u`` is a float array or NumPy scalar.
    """
    out = np.exp(np.minimum(u, EXP_CLAMP))
    if not u.max(initial=-math.inf) <= EXP_CLAMP:  # a NaN takes this branch too
        out = np.where(u > EXP_CLAMP, _E_CLAMP * (1.0 + (u - EXP_CLAMP)), out)
    return out


def diode_current_density(materials: MaterialParams, phi_local):
    """Vertical junction current density (A/um^2) at sheet potential ``phi_local``.

    Shockley law with an overflow-guarded exponential: the argument is
    clamped at ``EXP_CLAMP`` and extended linearly beyond, which keeps the
    law strictly increasing and C^1 everywhere.
    """
    nvt = materials.ideality * materials.thermal_voltage
    u = np.asarray(phi_local, dtype=float) / nvt
    j = materials.saturation_current_density * (_exp_clamped(u) - 1.0)
    return j if j.shape else float(j)


def _diode_conductance(materials: MaterialParams, phi_local):
    nvt = materials.ideality * materials.thermal_voltage
    u = np.asarray(phi_local, dtype=float) / nvt
    return materials.saturation_current_density * np.exp(np.minimum(u, EXP_CLAMP)) / nvt


class SheetSystem:
    """Assembled operators for one mesh/material pair, reusable across solves.

    Every array it holds is read-only, so a shared system cannot be changed
    by one of its users.  ``sheet_system`` builds one per pair and shares it.
    """

    def __init__(self, mesh: Mesh, materials: MaterialParams):
        self.mesh = mesh
        self.materials = materials
        self.n = mesh.n_nodes
        self._build_stiffness()
        self._build_band()
        self._build_node_areas()
        self._build_contacts()
        self._build_qd_gradient()
        k = self.conduction
        for array in (*vars(self).values(), k.data, k.indices, k.indptr):
            if isinstance(array, np.ndarray):
                array.setflags(write=False)

    # -- assembly -----------------------------------------------------------

    def _build_stiffness(self) -> None:
        from scipy.sparse import coo_matrix

        cells = self.mesh.cells
        area = cell_areas(self.mesh)
        b, c = cell_gradients(self.mesh)  # grad N_i = (b_i, c_i)

        rows, cols, vals = [], [], []
        for i in range(3):
            for j in range(3):
                rows.append(cells[:, i])
                cols.append(cells[:, j])
                vals.append(area * (b[:, i] * b[:, j] + c[:, i] * c[:, j]))
        k = coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.n, self.n),
        ).tocsr()
        self.conduction = (self.materials.sheet_conductance * k).tocsr()
        self._grad_b, self._grad_c, self._cell_area = b, c, area

    def _build_band(self) -> None:
        # The stiffness without stored zeros, in reverse Cuthill-McKee order,
        # as the column-major (bandwidth + 1, n) lower band that LAPACK's
        # dpbtrf reads: entry (i, j), i >= j, sits at band[i - j, j].  A Mesh
        # is connected, so every node is in a cell and on the diagonal.
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        k = self.conduction.copy()
        k.eliminate_zeros()
        perm = reverse_cuthill_mckee(k, symmetric_mode=True)
        rank = np.empty(self.n, dtype=np.intp)
        rank[perm] = np.arange(self.n)
        k = k.tocoo()
        rows, cols = rank[k.row], rank[k.col]
        lower = rows >= cols
        offset, cols = rows[lower] - cols[lower], cols[lower]
        band = np.zeros((int(offset.max()) + 1, self.n), order="F")
        band[offset, cols] = k.data[lower]
        self._stiffness_band, self._perm = band, perm

    def _build_node_areas(self) -> None:
        area = self._cell_area
        node_area = np.zeros(self.n)
        for i in range(3):
            np.add.at(node_area, self.mesh.cells[:, i], area / 3.0)
        self.node_area = node_area
        self.total_area = float(area.sum())

    def _build_contacts(self) -> None:
        # Pad incidence (n, 3), and each terminal's series resistance split
        # evenly across its pad-edge nodes: g_k = 1 / (R_k |pad k|).
        pads = np.zeros((self.n, len(TERMINALS)), order="F")
        for k, ids in enumerate(self.mesh.pads):
            pads[ids, k] = 1.0
        count = pads.sum(axis=0)
        r = np.asarray(self.materials.contact_resistance)
        self._pads = pads
        self._pad_g = np.where(count > 0, 1.0 / (r * np.maximum(count, 1.0)), 0.0)

    def _build_qd_gradient(self) -> None:
        qd = self.mesh.qd_node
        mask = np.any(self.mesh.cells == qd, axis=1)
        tris = np.nonzero(mask)[0]
        wsum = float(self._cell_area[tris].sum())
        gx = np.zeros(self.n)
        gy = np.zeros(self.n)
        for t in tris:
            for v in range(3):
                n = self.mesh.cells[t, v]
                gx[n] += self._cell_area[t] * self._grad_b[t, v] / wsum
                gy[n] += self._cell_area[t] * self._grad_c[t, v] / wsum
        keep = np.nonzero((gx != 0.0) | (gy != 0.0))[0]
        self._qd_support = keep
        self._qd_gx = gx[keep]
        self._qd_gy = gy[keep]

    # -- physics ------------------------------------------------------------

    def _contacts(self, bias: BiasPoint) -> tuple[np.ndarray, np.ndarray]:
        """Per-node contact conductance g and terminal voltage v at ``bias``.

        Both are 0 off the pads and at floating terminals, so the contacts
        add g (phi - v) to the residual.  This is the one place a bias
        becomes node vectors: ``residual``, ``energy``, ``jacobian`` and
        ``terminal_currents`` take the pair as ``contacts``, and a solve
        computes it once.
        """
        gv = np.zeros((len(TERMINALS), 2))
        for k, name in enumerate(TERMINALS):
            v = bias.terminal(name)
            if v is None:
                continue
            if not self._pad_g[k]:
                raise SolverError(f"terminal {name} is driven but has no contact nodes")
            gv[k] = self._pad_g[k], v
        g, v = gv.T @ self._pads.T
        return g, v

    def residual(self, phi: np.ndarray, contacts) -> np.ndarray:
        g, v = contacts
        f = self.conduction @ phi
        f += diode_current_density(self.materials, phi) * self.node_area
        f += g * (phi - v)
        return f

    def energy(self, phi: np.ndarray, contacts) -> float:
        """Convex sheet energy whose gradient is ``residual``."""
        m = self.materials
        g, v = contacts
        nvt = m.ideality * m.thermal_voltage
        u = phi / nvt
        x = np.maximum(u - EXP_CLAMP, 0.0)
        # primitive of the clamped exponential: exp(u), quadratic beyond
        prim = np.exp(np.minimum(u, EXP_CLAMP)) * (1.0 + x + 0.5 * x * x)
        e = 0.5 * float(phi @ (self.conduction @ phi))
        e += m.saturation_current_density * nvt * float(self.node_area @ (prim - u))
        e += 0.5 * float(g @ (phi - v) ** 2)
        return e

    def jacobian(self, phi: np.ndarray, contacts) -> np.ndarray:
        """A fresh lower band of the Jacobian in RCM order (``_build_band``).

        A copy of the stiffness band with the junction and contact
        conductances added to its diagonal, row 0.
        """
        g, _ = contacts
        diag = _diode_conductance(self.materials, phi) * self.node_area + g
        band = self._stiffness_band.copy(order="F")
        band[0] += diag[self._perm]
        return band

    @staticmethod
    def _cholesky(band: np.ndarray) -> np.ndarray:
        """Banded Cholesky factor of a ``jacobian`` band, computed in place."""
        chol, info = (dpbtrf or _lapack().dpbtrf)(band, lower=1, overwrite_ab=1)
        if info != 0:
            raise NumericalError(f"Jacobian factorization failed: dpbtrf info {info}")
        return chol

    def _back_solve(self, chol: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``J^{-1} b`` in node order from the ``_cholesky`` factor of J.

        ``b`` is one right-hand side or one per column.
        """
        x, _ = (dpbtrs or _lapack().dpbtrs)(chol, b[self._perm], lower=1)
        out = np.empty(b.shape)
        out[self._perm] = x
        return out

    def _terminal_drive(self, bias: BiasPoint, dv) -> np.ndarray:
        """sum_k g_k 1_{pad k} dV_k over the terminals driven in ``bias``.

        ``dv`` is one step (dV_A, dV_B, dV_C) or a stack of them, shape
        (m, 3); a stack gives one column per step.
        """
        driven = [bias.terminal(t) is not None for t in TERMINALS]
        return self._pads @ (self._pad_g * driven * np.asarray(dv, dtype=float)).T

    def terminal_currents(self, phi: np.ndarray, contacts):
        g, v = contacts
        i_a, i_b, i_c = self._pads.T @ (g * (v - phi))
        i_junction = float(
            np.sum(diode_current_density(self.materials, phi) * self.node_area)
        )
        return float(i_a), float(i_b), float(i_c), i_junction

    def field_at_qd(self, phi: np.ndarray) -> tuple[float, float]:
        """In-plane field (V/m) from the area-weighted P1 gradient at qd_node."""
        ex = -float(self._qd_gx @ phi[self._qd_support]) * 1e6
        ey = -float(self._qd_gy @ phi[self._qd_support]) * 1e6
        return ex, ey

    def field_change_at_qd(self, dphi: np.ndarray) -> np.ndarray:
        """Change (dE_x, dE_y, dE_z) in V/m of the QD field for a potential change."""
        ex, ey = self.field_at_qd(dphi)
        ez = -float(dphi[self.mesh.qd_node]) / (self.mesh.intrinsic_thickness_nm * 1e-9)
        return np.array([ex, ey, ez])

    # -- Newton -------------------------------------------------------------

    def _residual_scale(self, contacts, cfg: SolverConfig) -> float:
        # max |v| is the largest driven |V_k|: every driven terminal has pad
        # nodes (``_contacts`` raises otherwise), and v is 0 off them
        drive = float(np.max(np.abs(contacts[1])))
        return max(
            self.materials.sheet_conductance * (1.0 + drive),
            self.materials.saturation_current_density * self.total_area,
            1e-3 * cfg.current_floor,
        )

    def _newton(self, phi0: np.ndarray, cfg: SolverConfig, contacts):
        """Damped Newton from ``phi0`` on the ``_contacts`` pair of one bias.

        Returns ``(phi, converged, iters, history, factor, factorizations)``.
        A step factors the Jacobian at the current iterate (``_cholesky``)
        when there is no factor yet, or when the last step needed a
        line-search halving or left more than ``_CHORD_CONTRACTION`` of the
        residual; otherwise it is a chord step on the held factor.  Either
        way the step solves against a positive definite matrix, so it
        descends the convex energy, and ``lambda`` is halved until
        ``phi + lambda d`` lowers it: Armijo on ``energy``, or the 1-D
        convexity test ``f(phi + lambda d) . d <= 0``, which still decides
        the last steps where energy differences fall below rounding.
        Convergence is judged on the residual and the Kirchhoff balance
        alone.  ``iters`` counts chord and full steps alike; ``factor`` is
        the last factor, None when no step was taken.
        """
        scale = self._residual_scale(contacts, cfg)
        tol = cfg.newton_tol * scale
        balance_tol = _KIRCHHOFF_FRACTION * cfg.current_floor

        phi = phi0.copy()
        f = self.residual(phi, contacts)
        norm = float(np.max(np.abs(f)))
        if not math.isfinite(norm):
            raise NumericalError("NaN in residual at Newton start")
        history = [norm / scale]

        iters = factorizations = 0
        factor = None
        refactor = True
        while iters < cfg.max_iters:
            if norm <= tol and abs(float(f.sum())) <= balance_tol:
                return phi, True, iters, history, factor, factorizations
            if refactor:
                factor = self._cholesky(self.jacobian(phi, contacts))
                factorizations += 1
            delta = self._back_solve(factor, -f)
            if not np.all(np.isfinite(delta)):
                raise NumericalError("NaN in Newton step")
            slope = float(f @ delta)
            energy = None  # E(phi), computed only when the 1-D test fails
            lam = cfg.damping
            while True:
                phi_try = phi + lam * delta
                f_try = self.residual(phi_try, contacts)
                if float(f_try @ delta) <= 0.0:
                    break
                if energy is None:
                    energy = self.energy(phi, contacts)
                if self.energy(phi_try, contacts) <= energy + 1e-4 * lam * slope:
                    break
                lam *= 0.5
                if lam < 2.0**-24:
                    return phi, False, iters, history, factor, factorizations
            norm_try = float(np.max(np.abs(f_try)))
            refactor = lam < cfg.damping or norm_try > _CHORD_CONTRACTION * norm
            phi, f, norm = phi_try, f_try, norm_try
            iters += 1
            history.append(norm / scale)

        converged = norm <= tol and abs(float(f.sum())) <= balance_tol
        return phi, converged, iters, history, factor, factorizations

    def solve(
        self,
        bias: BiasPoint,
        cfg: SolverConfig,
        phi0: np.ndarray | None = None,
    ) -> FieldSolution:
        """One damped Newton descent from ``phi0`` (zeros when omitted).

        The result depends only on the arguments, and carries the last
        band factor of the solve for ``SolveChain``.  Raises
        ``ConvergenceError`` with the residual history when
        ``cfg.max_iters`` steps do not converge, and ``NumericalError``
        when a residual, a step or a Jacobian factorization breaks down.
        """
        phi0 = np.zeros(self.n) if phi0 is None else np.asarray(phi0, float)
        contacts = self._contacts(bias)
        phi, ok, iters, history, factor, factorizations = self._newton(
            phi0, cfg, contacts
        )
        if not ok:
            raise ConvergenceError(
                f"no convergence at bias {bias} after {iters} Newton iterations "
                f"(last residual {history[-1]:.3e})",
                history,
            )
        i_a, i_b, i_c, i_j = self.terminal_currents(phi, contacts)
        ex, ey = self.field_at_qd(phi)
        mesh = self.mesh
        e_z = (mesh.built_in_voltage - float(phi[mesh.qd_node])) / (
            mesh.intrinsic_thickness_nm * 1e-9
        )
        return FieldSolution(
            bias=bias,
            phi=phi,
            e_inplane=(ex, ey),
            e_z=e_z,
            i_a=i_a,
            i_b=i_b,
            i_c=i_c,
            i_junction=i_j,
            newton_iters=iters,
            residual=history[-1],
            factorizations=factorizations,
            factor=factor,
        )


@functools.lru_cache(maxsize=_CACHED_SYSTEMS)
def sheet_system(mesh: Mesh, materials: MaterialParams) -> SheetSystem:
    """The ``SheetSystem`` of ``mesh`` and ``materials``, built on first use.

    Later calls with the same mesh (by identity) and equal materials return
    the same system; the ``_CACHED_SYSTEMS`` most recently used are kept.
    Only the assembled operators are shared, never a factor or a solution.
    """
    return SheetSystem(mesh, materials)


class SolveChain:
    """A chain of solves on one system, each started from the one before.

    Terminal voltages enter only the contact rows, so the change of the
    converged potential with them, dphi/dV_k = J^-1 (g_k 1_{pad k}), is one
    back-solve per step.  ``solve`` predicts its start from the held
    solution ``held`` by that back-solve of the voltage change on the held
    band factor, a Jacobian a few chord steps stale, so the predictor costs
    no factorization; with no factor held it starts cold (a held solution
    without a factor took no step from phi = 0), and a start the caller
    gives replaces the prediction.  A solve that takes no step keeps the
    held factor, and a failed one drops ``held``.
    ``tangent`` factors J at the held potential, so through the linear QD
    field it gives exact field derivatives, and the chain then holds that
    factor.  ``newton_iters`` and ``factorizations`` total the chain's
    solves.  The chain never writes to its system, so chains may share one.
    """

    def __init__(self, system: SheetSystem, cfg: SolverConfig):
        self.system = system
        self.cfg = cfg
        self.held: FieldSolution | None = None
        self.newton_iters = 0
        self.factorizations = 0

    def solve(self, bias: BiasPoint, phi0: np.ndarray | None = None) -> FieldSolution:
        """The solution at ``bias``, started from ``phi0`` if given, else predicted."""
        held, system = self.held, self.system
        if held is not None and held.bias == bias:
            return held
        if phi0 is None and held is not None and held.factor is not None:
            pairs = ((held.bias.terminal(t), bias.terminal(t)) for t in TERMINALS)
            dv = [0.0 if a is None or b is None else b - a for a, b in pairs]
            drive = system._terminal_drive(held.bias, dv)
            phi0 = held.phi + system._back_solve(held.factor, drive)
        try:
            sol = system.solve(bias, self.cfg, phi0=phi0)
        except SolverError:
            self.held = None
            raise
        if sol.factor is None and held is not None:
            sol = replace(sol, factor=held.factor)
        self.held = sol
        self.newton_iters += sol.newton_iters
        self.factorizations += sol.factorizations
        return sol

    def tangent(self, dv) -> np.ndarray:
        """Exact first-order change of the held potential for terminal steps.

        Factors J at the held solution once and solves J dphi = sum_k g_k
        1_{pad k} dV_k; the steps of terminals floating in its bias are
        ignored.  ``dv`` is one step (dV_A, dV_B, dV_C) or a stack of m
        steps, which share the factorization and give dphi of shape (n, m).
        """
        held, system = self.held, self.system
        contacts = system._contacts(held.bias)
        factor = system._cholesky(system.jacobian(held.phi, contacts))
        self.held = replace(held, factor=factor)
        return system._back_solve(factor, system._terminal_drive(held.bias, dv))


def classify_regime(solution: FieldSolution, i_threshold: float) -> int:
    """Bias-plane regime: 1 none passing, 2 both, 3 only A, 4 only B."""
    if not (i_threshold > 0.0):
        raise ValueError("i_threshold must be positive")
    a = solution.i_a >= i_threshold
    b = solution.i_b >= i_threshold
    if a and b:
        return 2
    if a:
        return 3
    if b:
        return 4
    return 1


def kirchhoff_error(solution: FieldSolution) -> float:
    return abs(
        solution.i_a + solution.i_b + solution.i_c - solution.i_junction
    )


def kirchhoff_bound(solution: FieldSolution, cfg: SolverConfig) -> float:
    return 1e-8 * max(
        abs(solution.i_a),
        abs(solution.i_b),
        abs(solution.i_c),
        cfg.current_floor,
    )
