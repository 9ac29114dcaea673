"""Electric-field control of the bright-exciton doublet.

The splitting is carried as a two-component vector: its norm is the
observable splitting, half its polar angle is the high-energy eigenaxis.
The local field enters linearly (in-plane through a 2x2 coupling, vertical
through a 2-vector), which is the minimal model with two independent
non-parallel controls and therefore supports exact cancellation.  The mean
transition energy shifts with the vertical field through dipole and
polarizability terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Splitting below which the eigenaxis angle is ill-conditioned and reported
# as undefined (ueV).
AXIS_TOLERANCE_UEV = 0.01


@dataclass(frozen=True)
class ExcitonParams:
    """Zero-field doublet and field couplings.

    Energies in eV, splittings in ueV, couplings in ueV per (V/m) and the
    polarizability in ueV per (V/m)^2.  ``inplane_coupling`` is row-major
    ((m11, m12), (m21, m22)) acting on (E_x, E_y); it need not be symmetric.
    """

    # The one class whose defaults repeat default.cfg ([exciton]): the
    # benchmark self-test builds a bare ExcitonParams().  A test keeps them equal.
    zero_field_energy: float = 1.34
    zero_field_splitting: tuple[float, float] = (7.38, 3.06)
    inplane_coupling: tuple[tuple[float, float], tuple[float, float]] = (
        (5.0e-2, 0.0),
        (0.0, 5.0e-2),
    )
    vertical_coupling: tuple[float, float] = (-2.05e-6, -8.5e-7)
    dipole: float = 0.0
    polarizability: float = 1.0e-12

    def __post_init__(self) -> None:
        pairs = (self.zero_field_splitting, self.vertical_coupling)
        if [len(v) for v in (*pairs, *self.inplane_coupling)] != [2, 2, 2, 2]:
            raise ValueError(
                "zero_field_splitting needs 2 values, inplane_coupling 2x2 "
                "and vertical_coupling 2"
            )
        values = [
            self.zero_field_energy,
            *self.zero_field_splitting,
            *self.inplane_coupling[0],
            *self.inplane_coupling[1],
            *self.vertical_coupling,
            self.dipole,
            self.polarizability,
        ]
        if not all(math.isfinite(v) for v in values):
            raise ValueError("exciton parameters must be finite")

    def field_matrix(self) -> np.ndarray:
        """d(delta)/dE: the constant 2x3 matrix (ueV per V/m) of ``fss_vector``."""
        (m11, m12), (m21, m22) = self.inplane_coupling
        g1, g2 = self.vertical_coupling
        return np.array([[m11, m12, g1], [m21, m22, g2]], dtype=float)


@dataclass(frozen=True)
class ExcitonState:
    """Doublet observables at one field point.

    ``theta0`` is the polarization angle of the high-energy line in the
    detection frame, folded to [0, pi); ``None`` when the splitting is
    below ``AXIS_TOLERANCE_UEV``.
    """

    fss: float                 # ueV, >= 0
    theta0: float | None       # rad in [0, pi)
    mean_energy: float         # eV
    e_high: float              # eV
    e_low: float               # eV


def fss_vector(params: ExcitonParams, field) -> tuple[float, float]:
    """Splitting vector (delta_x, delta_y) in ueV for field (E_x, E_y, E_z) in V/m."""
    ex, ey, ez = (float(v) for v in field)
    (m11, m12), (m21, m22) = params.inplane_coupling
    g1, g2 = params.vertical_coupling
    d0x, d0y = params.zero_field_splitting
    dx = d0x + m11 * ex + m12 * ey + g1 * ez
    dy = d0y + m21 * ex + m22 * ey + g2 * ez
    return dx, dy


def splitting_hamiltonian(delta: tuple[float, float]) -> np.ndarray:
    """2x2 exchange block in the linear-polarization basis (ueV)."""
    dx, dy = delta
    return 0.5 * np.array([[dx, dy], [dy, -dx]])


def stark_shift(params: ExcitonParams, e_z: float) -> float:
    """Mean-energy shift (ueV) relative to the zero-field energy."""
    return -params.dipole * e_z - params.polarizability * e_z * e_z


def exciton_state(params: ExcitonParams, field) -> ExcitonState:
    """Closed-form doublet observables for the given field (V/m)."""
    dx, dy = fss_vector(params, field)
    fss = math.hypot(dx, dy)
    if fss > AXIS_TOLERANCE_UEV:
        theta0 = 0.5 * math.atan2(dy, dx) % math.pi
    else:
        theta0 = None
    e_z = float(field[2])
    mean = params.zero_field_energy + 1e-6 * stark_shift(params, e_z)
    half = 0.5e-6 * fss
    return ExcitonState(
        fss=fss,
        theta0=theta0,
        mean_energy=mean,
        e_high=mean + half,
        e_low=mean - half,
    )


def algebraic_fss(state: ExcitonState, theta_ref: float) -> float:
    """Signed splitting along the fixed basis (theta_ref, theta_ref + pi/2).

    ``theta_ref`` is normally the eigenaxis found at zero bias.  The value
    fss * cos(2*(theta_ref - theta0)) flips sign when the splitting vector
    crosses zero; it is 0 for a degenerate state (``theta0`` None).
    """
    if state.theta0 is None:
        return 0.0
    return state.fss * math.cos(2.0 * (theta_ref - state.theta0))
