"""Polarization-resolved peak-shift synthesis and fitting.

A doublet narrower than the spectrometer resolution shows up as a single
line whose apparent peak slides sinusoidally with the detection angle: the
two lines are equal-width Lorentzians weighted by Malus's law, and the peak
of their sum moves between the low and high line.  That peak is found by a
bracketed Newton iteration from the second-order small-splitting start; a
scan with an even number of angles solves only its first half, because a
quarter turn later the Malus weights swap and the peak is the mirror image
fss - x.  The fit recovers the shift law
offset + delta * (cos(2*(theta - theta0)) + 1) / 2  in closed form, as a
weighted linear fit of its 2-theta harmonic, with Jacobian-based
uncertainties.  The signed splitting of a sweep is read off the exciton
state, not a scan (``exciton.algebraic_fss``).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .exciton import ExcitonParams, exciton_state


class ScanInputError(ValueError):
    """Malformed polarization scan input."""


class FitError(RuntimeError):
    """The scan does not determine the peak-shift law."""


@dataclass
class PolarizationScan:
    """Peak energy versus detection polarization angle.

    Angles in rad, energies in ueV relative to an arbitrary reference,
    ``sigma`` is the per-point measurement noise (broadcast from a scalar).
    Angles and energies must be finite and every sigma finite and >= 0;
    anything else raises ``ScanInputError``.
    """

    angles: np.ndarray
    peak_energies: np.ndarray
    sigma: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self) -> None:
        self.angles = np.asarray(self.angles, dtype=float)
        self.peak_energies = np.asarray(self.peak_energies, dtype=float)
        sig = np.asarray(self.sigma, dtype=float)
        if sig.ndim == 0:
            sig = np.full(self.angles.shape, float(sig))
        elif sig.size == 0:
            sig = np.zeros(self.angles.shape)
        self.sigma = sig
        n = len(self.angles)
        if len(self.peak_energies) != n or len(self.sigma) != n:
            raise ScanInputError("angles, peak_energies and sigma must match in length")
        if not (np.isfinite(self.angles).all() and np.isfinite(self.peak_energies).all()):
            raise ScanInputError("angles and peak energies must be finite")
        if not (np.isfinite(self.sigma) & (self.sigma >= 0.0)).all():
            raise ScanInputError("sigma must be finite and non-negative")
        if n < 6:
            raise ScanInputError(f"at least 6 scan points required, got {n}")
        span = float(self.angles.max() - self.angles.min())
        # Uniform sampling of [0, pi) spans pi * (n-1)/n; accept anything that
        # covers at least one full period of the 2-theta harmonic this way.
        if span < math.pi * (1.0 - 1.0 / n) - 1e-9:
            raise ScanInputError(
                f"angles span {span:.4f} rad; need at least {math.pi * (1 - 1 / n):.4f}"
            )


@dataclass(frozen=True)
class SpectrumModel:
    """Two equal-width Lorentzians with Malus-law weights."""

    e_high: float       # ueV
    e_low: float        # ueV
    linewidth: float    # ueV FWHM
    theta0: float       # rad, polarization angle of the high-energy line

    def __post_init__(self) -> None:
        if not (0.0 < self.linewidth < math.inf):
            raise ScanInputError(
                f"linewidth must be positive and finite, got {self.linewidth}"
            )
        if self.e_high < self.e_low:
            raise ValueError("e_high must be >= e_low")

    def amplitudes(self, theta: float) -> tuple[float, float]:
        wh = math.cos(theta - self.theta0) ** 2
        return wh, 1.0 - wh

    def intensity(self, energy, theta: float):
        wh, wl = self.amplitudes(theta)
        g = 0.5 * self.linewidth
        e = np.asarray(energy, dtype=float)
        return wh * g * g / ((e - self.e_high) ** 2 + g * g) + wl * g * g / (
            (e - self.e_low) ** 2 + g * g
        )


@dataclass(frozen=True)
class FitResult:
    delta_fss: float            # ueV, >= 0
    theta0: float               # rad in [0, pi)
    offset: float               # ueV
    residual_rms: float         # ueV
    covariance: np.ndarray      # 3x3, order (delta, theta0, offset)
    uncertainties: tuple[float, float, float]

    def to_dict(self) -> dict:
        return {
            "delta_fss_uev": self.delta_fss,
            "theta0_rad": self.theta0,
            "offset_uev": self.offset,
            "residual_rms_uev": self.residual_rms,
            "sigma_delta_uev": self.uncertainties[0],
            "sigma_theta0_rad": self.uncertainties[1],
            "sigma_offset_uev": self.uncertainties[2],
            "covariance": [[float(v) for v in row] for row in self.covariance],
        }


def shift_law(theta, delta: float, theta0: float, offset: float):
    """The fitted peak-shift law: offset + delta*(cos(2(theta-theta0))+1)/2."""
    th = np.asarray(theta, dtype=float)
    return offset + 0.5 * delta * (np.cos(2.0 * (th - theta0)) + 1.0)


def peak_centroid(model: SpectrumModel, theta: float) -> float:
    """Apparent peak position (ueV) of the weighted doublet at angle ``theta``.

    Exact single-line cases short-circuit; otherwise the stationary point of
    the two-Lorentzian sum is found by a bracketed Newton iteration between
    the line centres (the sum's maximum always lies there for equal widths).
    It starts from the small-splitting expansion to second order in
    s = delta / linewidth, or from the weighted mean where that expansion
    leaves the bracket (bimodal doublets).
    """
    wh, wl = model.amplitudes(theta)
    e_high, e_low, width = model.e_high, model.e_low, model.linewidth
    delta = e_high - e_low
    if delta == 0.0:
        return e_low
    if wl < 1e-14:
        return e_high
    if wh < 1e-14:
        return e_low

    g2 = (0.5 * width) ** 2
    tol = 1e-15 * max(width, delta)
    lo, hi = e_low, e_high
    s, c = delta / width, wh - wl
    e = 0.5 * (e_low + e_high + delta * c * (1.0 + 4.0 * (1.0 - c * c) * s * s))
    if not (lo < e < hi):
        e = wh * e_high + wl * e_low  # weighted-mean start

    for _ in range(200):
        d1, d2 = e - e_high, e - e_low
        q1, q2 = d1 * d1 + g2, d2 * d2 + g2
        # f' = -2 g2 p and f'' = -2 g2 k: only their signs and ratio are used
        p = wh * d1 / (q1 * q1) + wl * d2 / (q2 * q2)
        if p < 0.0:  # f' > 0
            lo = e
        else:
            hi = e
        k = wh * (q1 - 4.0 * d1 * d1) / (q1 * q1 * q1) + wl * (
            q2 - 4.0 * d2 * d2
        ) / (q2 * q2 * q2)
        # f' is rounding noise near the root and may pull the bracket onto e:
        # stop on a rounding-level Newton step; bisect where f'' >= 0.
        step = -p / k if k > 0.0 else math.inf
        if abs(step) <= tol:
            return e
        e_new = e + step
        if not (lo < e_new < hi):
            e_new = 0.5 * (lo + hi)
        if abs(e_new - e) <= tol:
            return e_new
        e = e_new
    return e


def synth_polarization_scan(
    params: ExcitonParams,
    fieldvec,
    linewidth: float,
    noise_sigma: float,
    n_angles: int,
    seed: int,
) -> PolarizationScan:
    """Synthesize a scan from the exciton state at ``fieldvec`` (V/m).

    Angles are uniform over [0, pi); energies are apparent-peak positions
    relative to the low line, plus seeded Gaussian noise.
    """
    if n_angles < 6:
        raise ScanInputError("n_angles must be at least 6")
    if not (0.0 <= noise_sigma < math.inf):
        raise ScanInputError(
            f"noise_sigma must be finite and non-negative, got {noise_sigma}"
        )
    state = exciton_state(params, fieldvec)
    theta0 = state.theta0 if state.theta0 is not None else 0.0
    model = SpectrumModel(
        e_high=0.5 * state.fss,
        e_low=-0.5 * state.fss,
        linewidth=linewidth,
        theta0=theta0,
    )
    angles = np.arange(n_angles) * (math.pi / n_angles)
    # For even n, angle k + n/2 is angle k + pi/2: the Malus weights swap and
    # the apparent peak is the mirror image fss - clean[k].
    half = n_angles // 2 if n_angles % 2 == 0 else n_angles
    clean = np.empty(n_angles)
    clean[:half] = [peak_centroid(model, th) + 0.5 * state.fss for th in angles[:half]]
    clean[half:] = state.fss - clean[: n_angles - half]
    rng = np.random.default_rng(seed)
    noisy = clean + rng.normal(0.0, noise_sigma, size=n_angles) if noise_sigma else clean
    return PolarizationScan(
        angles=angles,
        peak_energies=noisy,
        sigma=np.full(n_angles, noise_sigma),
    )


def fit_fss_sine(scan: PolarizationScan) -> FitResult:
    """Fit the peak-shift law; returns amplitude, axis angle and offset.

    The law is linear in (offset + delta/2, (delta/2) cos 2 theta0,
    (delta/2) sin 2 theta0), so one weighted linear least-squares solve over
    the columns [1, cos 2 theta, sin 2 theta] gives the fit, with delta >= 0
    by construction.  The covariance is the Jacobian-based estimate in
    (delta, theta0, offset) scaled by the residual variance.  Raises
    ``FitError`` when the angles do not determine the 2-theta harmonic or
    the covariance is singular.
    """
    th = scan.angles
    y = scan.peak_energies
    n = len(th)
    use_weights = bool(np.all(scan.sigma > 0.0))
    w = 1.0 / scan.sigma if use_weights else np.ones(n)

    th2 = 2.0 * th
    design = np.empty((n, 3))  # weighted columns [1, cos 2 theta, sin 2 theta]
    design[:, 0] = w
    design[:, 1] = w * np.cos(th2)
    design[:, 2] = w * np.sin(th2)
    coef, _, rank, _ = np.linalg.lstsq(design, w * y, rcond=None)
    if rank < 3:
        raise FitError("scan angles do not determine the 2-theta harmonic")
    c, a, b = (float(v) for v in coef)
    delta = 2.0 * math.hypot(a, b)
    theta0 = (0.5 * math.atan2(b, a)) % math.pi
    offset = c - 0.5 * delta

    resid = shift_law(th, delta, theta0, offset) - y
    r = w * resid
    # The weighted Jacobian from the same harmonics, by the angle-difference
    # identity: cos 2(theta - theta0) = cos 2theta ct + sin 2theta st and
    # sin 2(theta - theta0) = sin 2theta ct - cos 2theta st.
    ct, st = math.cos(2.0 * theta0), math.sin(2.0 * theta0)
    j = design @ np.array(
        [[0.5, 0.0, 1.0], [0.5 * ct, -delta * st, 0.0], [0.5 * st, delta * ct, 0.0]]
    )
    dof = max(n - 3, 1)
    try:
        cov = np.linalg.inv(j.T @ j) * (float(r @ r) / dof)
    except np.linalg.LinAlgError as exc:
        raise FitError(f"singular Jacobian in covariance estimate: {exc}") from exc
    cov = 0.5 * (cov + cov.T)
    rms = math.sqrt(float(resid @ resid) / n)
    sig = tuple(float(math.sqrt(max(v, 0.0))) for v in np.diag(cov))
    return FitResult(
        delta_fss=delta,
        theta0=theta0,
        offset=offset,
        residual_rms=rms,
        covariance=cov,
        uncertainties=sig,
    )


_SCAN_HEADER = ["angle_rad", "energy_ueV", "sigma_ueV"]  # exactly, in this order


def scan_to_csv(scan: PolarizationScan, path: str) -> None:
    rows = zip(scan.angles.tolist(), scan.peak_energies.tolist(), scan.sigma.tolist())
    text = "".join(f"{a!r},{e!r},{s!r}\n" for a, e, s in rows)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_SCAN_HEADER) + "\n" + text)


def scan_from_csv(path: str) -> PolarizationScan:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ScanInputError(f"cannot read scan {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ScanInputError(f"{path}: not a UTF-8 CSV file: {exc}") from exc
    if not rows or [h.strip() for h in rows[0]] != _SCAN_HEADER:
        raise ScanInputError(f"{path}: expected header {','.join(_SCAN_HEADER)}")
    angles, energies, sigmas = [], [], []
    for row_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ScanInputError(f"{path}: row {row_no} has {len(row)} fields")
        try:
            angles.append(float(row[0]))
            energies.append(float(row[1]))
            sigmas.append(float(row[2]))
        except ValueError as exc:
            raise ScanInputError(f"{path}: row {row_no}: {exc}") from exc
    return PolarizationScan(
        angles=np.array(angles),
        peak_energies=np.array(energies),
        sigma=np.array(sigmas),
    )
