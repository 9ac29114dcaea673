import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from pillartune.exciton import ExcitonParams, algebraic_fss, exciton_state
from pillartune.spectro import (
    FitError,
    PolarizationScan,
    ScanInputError,
    SpectrumModel,
    fit_fss_sine,
    peak_centroid,
    scan_from_csv,
    scan_to_csv,
    shift_law,
    synth_polarization_scan,
)


def sinusoid_scan(delta, theta0, offset=0.0, n=36, noise=0.0, seed=0):
    angles = np.arange(n) * math.pi / n
    energies = shift_law(angles, delta, theta0, offset)
    if noise:
        energies = energies + np.random.default_rng(seed).normal(0, noise, n)
    return PolarizationScan(angles=angles, peak_energies=energies, sigma=noise)


def exciton_params_with_splitting(dx, dy):
    return ExcitonParams(
        zero_field_energy=1.34,
        zero_field_splitting=(dx, dy),
        inplane_coupling=((0.0, 0.0), (0.0, 0.0)),
        vertical_coupling=(0.0, 0.0),
        dipole=0.0,
        polarizability=0.0,
    )


# -- peak centroid -------------------------------------------------------------


def test_spectrum_model_amplitudes_are_malus_weights():
    m = SpectrumModel(e_high=5.0, e_low=-5.0, linewidth=100.0, theta0=0.3)
    for theta in np.linspace(0.0, math.pi, 13):
        wh, wl = m.amplitudes(theta)
        assert 0.0 <= wh <= 1.0 and 0.0 <= wl <= 1.0
        assert wh + wl == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        SpectrumModel(e_high=1.0, e_low=0.0, linewidth=0.0, theta0=0.0)


def test_centroid_on_axis_returns_line_centres():
    m = SpectrumModel(e_high=5.0, e_low=-5.0, linewidth=100.0, theta0=0.3)
    assert peak_centroid(m, 0.3) == 5.0
    assert peak_centroid(m, 0.3 + math.pi / 2.0) == -5.0


def test_centroid_midpoint_at_45_degrees():
    m = SpectrumModel(e_high=10.0, e_low=0.0, linewidth=100.0, theta0=0.0)
    c = peak_centroid(m, math.pi / 4.0)
    assert abs(c - 5.0) <= 0.2


def test_centroid_against_grid_search_oracle():
    m = SpectrumModel(e_high=6.0, e_low=-4.0, linewidth=80.0, theta0=0.7)
    for theta in np.linspace(0.0, math.pi, 9):
        grid = np.linspace(m.e_low - 1.0, m.e_high + 1.0, 2_000_001)
        oracle = grid[int(np.argmax(m.intensity(grid, theta)))]
        assert peak_centroid(m, theta) == pytest.approx(oracle, abs=1e-4)


def test_centroid_approaches_sinusoid_for_wide_lines():
    delta = 10.0
    m = SpectrumModel(e_high=delta, e_low=0.0, linewidth=1e4 * delta, theta0=0.4)
    for theta in np.linspace(0.0, math.pi, 7):
        sine = shift_law(theta, delta, 0.4, 0.0)
        assert abs(peak_centroid(m, theta) - sine) <= 1e-6 * delta


def test_centroid_amplitude_converges_to_splitting():
    # linewidth / splitting = 100: apparent amplitude within 1 % of the splitting
    delta = 1.0
    m = SpectrumModel(e_high=delta, e_low=0.0, linewidth=100.0 * delta, theta0=0.0)
    amp = peak_centroid(m, 0.0) - peak_centroid(m, math.pi / 2.0)
    assert abs(amp - delta) <= 0.01 * delta


def _intensity_gain(m, theta, c, h):
    """I(c + h) - I(c) for the model, free of cancellation.

    For a Lorentzian L(x) = g^2 / (x^2 + g^2) the difference is
    -g^2 h (2x + h) / ((x^2 + g^2)((x + h)^2 + g^2)), so it keeps its
    relative precision even where h is far below the rounding of I itself.
    """
    wh, wl = m.amplitudes(theta)
    g2 = (0.5 * m.linewidth) ** 2

    def lorentz_gain(centre):
        x = c - centre
        return -g2 * h * (2.0 * x + h) / ((x * x + g2) * ((x + h) ** 2 + g2))

    return wh * lorentz_gain(m.e_high) + wl * lorentz_gain(m.e_low)


@pytest.mark.parametrize("ratio", [0.02, 0.2, 0.4])
@pytest.mark.parametrize("theta0", [0.0, 0.7, 2.5])
def test_centroid_is_stationary_at_rounding_level(ratio, theta0):
    linewidth = 30.0
    delta = ratio * linewidth
    m = SpectrumModel(
        e_high=1.0 + 0.5 * delta, e_low=1.0 - 0.5 * delta,
        linewidth=linewidth, theta0=theta0,
    )
    near_axis = math.asin(math.sqrt(1e-13))  # the other line's weight ~1e-13
    thetas = list(np.linspace(0.0, math.pi, 37)) + [
        theta0 + math.pi / 4.0, theta0 - math.pi / 4.0,
        theta0 + near_axis, theta0 - near_axis,
        theta0 + math.pi / 2.0 + near_axis, theta0 + math.pi / 2.0 - near_axis,
    ]
    h = 1e-12 * max(linewidth, delta)
    for theta in thetas:
        c = peak_centroid(m, theta)
        assert m.e_low <= c <= m.e_high
        assert _intensity_gain(m, theta, c, h) <= 0.0, theta
        assert _intensity_gain(m, theta, c, -h) <= 0.0, theta


# -- synthesis -----------------------------------------------------------------


def test_synth_noiseless_is_on_the_sinusoid():
    params = exciton_params_with_splitting(10.0, 0.0)
    scan = synth_polarization_scan(
        params, (0.0, 0.0, 0.0), linewidth=1e6, noise_sigma=0.0, n_angles=24, seed=1
    )
    expected = shift_law(scan.angles, 10.0, 0.0, 0.0)
    assert np.max(np.abs(scan.peak_energies - expected)) <= 1e-8


def test_synth_fig_s1_style_trace():
    # splitting ~10 ueV under a much wider line: sinusoid with two periods
    # per half-wave-plate revolution
    params = exciton_params_with_splitting(10.0, 0.0)
    scan = synth_polarization_scan(
        params, (0.0, 0.0, 0.0), linewidth=60.0, noise_sigma=0.0, n_angles=72, seed=1
    )
    fit = fit_fss_sine(scan)
    # at splitting/linewidth = 1/6 the apparent-peak law deviates from the
    # pure sinusoid by a few percent
    assert fit.delta_fss == pytest.approx(10.0, rel=0.05)
    # detection angle runs [0, pi): the sinusoid completes one full period,
    # i.e. two periods per 2*pi turn of the half-wave plate
    spectrum = np.fft.rfft(scan.peak_energies - scan.peak_energies.mean())
    assert int(np.argmax(np.abs(spectrum))) == 1


def test_synth_deterministic_for_fixed_seed():
    params = exciton_params_with_splitting(7.0, 2.0)
    a = synth_polarization_scan(params, (0, 0, 0), 60.0, 0.5, 36, seed=42)
    b = synth_polarization_scan(params, (0, 0, 0), 60.0, 0.5, 36, seed=42)
    assert np.array_equal(a.peak_energies, b.peak_energies)
    c = synth_polarization_scan(params, (0, 0, 0), 60.0, 0.5, 36, seed=43)
    assert not np.array_equal(a.peak_energies, c.peak_energies)


@pytest.mark.parametrize("n", [6, 7, 35, 36, 72])
def test_synth_equals_the_centroid_at_every_angle(n):
    # the mirrored half of an even scan against one centroid per angle
    linewidth = 30.0
    near_axis = math.asin(math.sqrt(1e-13))  # the other line's weight ~1e-13
    grid = 2 * math.pi / n  # a grid angle
    cases = [(0.0, 0.0)] + [
        (ratio, theta0)
        for ratio in (0.01, 0.03, 0.1, 0.3, 0.5, 1.0, 2.0, 3.0)
        for theta0 in (0.37, 1.9, grid, grid + near_axis, grid - near_axis)
    ]
    for ratio, theta0 in cases:
        delta = ratio * linewidth
        params = exciton_params_with_splitting(
            delta * math.cos(2.0 * theta0), delta * math.sin(2.0 * theta0)
        )
        scan = synth_polarization_scan(
            params, (0.0, 0.0, 0.0), linewidth, noise_sigma=0.0, n_angles=n, seed=1
        )
        state = exciton_state(params, (0.0, 0.0, 0.0))
        fss = state.fss
        model = SpectrumModel(
            e_high=0.5 * fss, e_low=-0.5 * fss, linewidth=linewidth,
            theta0=state.theta0 if state.theta0 is not None else 0.0,
        )
        tol = 4e-15 * max(linewidth, fss)
        for th, got in zip(scan.angles, scan.peak_energies):
            want = peak_centroid(model, th) + 0.5 * fss
            wh, wl = model.amplitudes(th)
            if ratio > 1.0 / math.sqrt(3.0) and abs(wh - wl) < 1e-15:
                # equal weights on a bimodal doublet: two equally high maxima,
                # and rounding picks one; the mirror may pick the other
                assert min(abs(got - want), abs(got - (fss - want))) <= tol
            else:
                assert abs(got - want) <= tol, (ratio, theta0, th)


def test_synth_rejects_too_few_angles():
    params = exciton_params_with_splitting(5.0, 0.0)
    with pytest.raises(ScanInputError):
        synth_polarization_scan(params, (0, 0, 0), 60.0, 0.0, 5, seed=1)


# -- fitting -------------------------------------------------------------------


def test_fit_recovers_exactly_on_noiseless_sinusoid():
    scan = sinusoid_scan(10.0, math.radians(30.0), offset=2.0)
    fit = fit_fss_sine(scan)
    assert fit.delta_fss == pytest.approx(10.0, abs=1e-8)
    assert fit.theta0 == pytest.approx(math.radians(30.0), abs=1e-8)
    assert fit.offset == pytest.approx(2.0, abs=1e-8)
    assert fit.residual_rms <= 1e-10


@pytest.mark.parametrize("delta", [0.5, 2.0, 5.0, 12.0, 20.0])
@pytest.mark.parametrize("theta0", [0.0, 0.6, 1.5, 2.8])
def test_fit_consistency_over_parameter_grid(delta, theta0):
    fit = fit_fss_sine(sinusoid_scan(delta, theta0))
    assert fit.delta_fss == pytest.approx(delta, rel=1e-6)
    diff = abs(fit.theta0 - theta0) % math.pi
    assert min(diff, math.pi - diff) <= 1e-6


def _iterative_fit(scan):
    """Levenberg-Marquardt fit of the shift law, started from the discrete
    second harmonic, with the amplitude folded non-negative."""
    th, y, w = scan.angles, scan.peak_energies, 1.0 / scan.sigma
    a2 = 2.0 / len(th) * float(np.sum(y * np.cos(2.0 * th)))
    b2 = 2.0 / len(th) * float(np.sum(y * np.sin(2.0 * th)))
    delta0 = 2.0 * math.hypot(a2, b2)
    x0 = [delta0, 0.5 * math.atan2(b2, a2), float(np.mean(y)) - 0.5 * delta0]
    res = least_squares(
        lambda p: w * (shift_law(th, *p) - y),
        x0,
        method="lm",
        xtol=1e-15,
        ftol=1e-15,
        gtol=1e-15,
        max_nfev=2000,
    )
    assert res.success
    delta, theta0, offset = res.x
    if delta < 0.0:
        delta, theta0, offset = -delta, theta0 + 0.5 * math.pi, offset + delta
    return delta, theta0 % math.pi, offset


def test_fit_matches_iterative_fit_on_irregular_weighted_scans():
    rng = np.random.default_rng(77)
    for _ in range(300):
        n = int(rng.integers(6, 40))
        angles = np.sort(rng.uniform(0.0, math.pi, n))
        angles[0], angles[-1] = 0.0, rng.uniform(math.pi * (1 - 1 / n), math.pi)
        sigma = rng.uniform(0.05, 1.0, n)
        # splittings of at least 1 ueV: near zero the iterative fit leaves
        # theta0 loosely converged
        energies = shift_law(
            angles, rng.uniform(1.0, 20.0), rng.uniform(0.0, math.pi),
            rng.uniform(-5.0, 5.0),
        ) + sigma * rng.normal(size=n)
        scan = PolarizationScan(angles=angles, peak_energies=energies, sigma=sigma)
        delta, theta0, offset = _iterative_fit(scan)
        fit = fit_fss_sine(scan)
        assert fit.delta_fss == pytest.approx(delta, abs=1e-6)
        diff = abs(fit.theta0 - theta0) % math.pi
        assert min(diff, math.pi - diff) <= 1e-6
        assert fit.offset == pytest.approx(offset, abs=1e-6)


def _column_stack_fit(scan):
    """The fit with every harmonic computed where it is used, one column_stack
    per matrix: the reference that ``fit_fss_sine`` must reproduce."""
    th, y = scan.angles, scan.peak_energies
    n = len(th)
    w = 1.0 / scan.sigma if np.all(scan.sigma > 0.0) else np.ones(n)
    design = np.column_stack([np.ones(n), np.cos(2.0 * th), np.sin(2.0 * th)])
    coef, _, rank, _ = np.linalg.lstsq(w[:, None] * design, w * y, rcond=None)
    if rank < 3:
        raise FitError("rank")
    c, a, b = (float(v) for v in coef)
    delta = 2.0 * math.hypot(a, b)
    theta0 = (0.5 * math.atan2(b, a)) % math.pi
    offset = c - 0.5 * delta
    model = shift_law(th, delta, theta0, offset)
    r = w * (model - y)
    arg = 2.0 * (th - theta0)
    j = w[:, None] * np.column_stack(
        [0.5 * (np.cos(arg) + 1.0), delta * np.sin(arg), np.ones(n)]
    )
    try:
        cov = np.linalg.inv(j.T @ j) * (float(r @ r) / max(n - 3, 1))
    except np.linalg.LinAlgError as exc:
        raise FitError("singular") from exc
    rms = float(np.sqrt(np.mean((model - y) ** 2)))
    return delta, theta0, offset, rms, 0.5 * (cov + cov.T)


def test_fit_matches_the_column_stack_fit():
    rng = np.random.default_rng(2024)
    for i in range(240):
        n = int(rng.integers(6, 73))
        angles = np.arange(n) * (math.pi / n)
        if i % 4 >= 2:  # irregular angles
            angles = np.sort(rng.uniform(0.0, math.pi, n))
            angles[0], angles[-1] = 0.0, rng.uniform(math.pi * (1 - 1 / n), math.pi)
        sigma = rng.uniform(0.05, 1.0, n)  # weighted
        if i % 4 == 1:  # unweighted: every sigma zero
            sigma = np.zeros(n)
        elif i % 4 == 3:  # unweighted: one sigma zero
            sigma[int(rng.integers(n))] = 0.0
        delta = 10.0 ** rng.uniform(-3.0, 1.5)
        energies = shift_law(
            angles, delta, rng.uniform(0.0, math.pi), rng.uniform(-5.0, 5.0)
        ) + rng.uniform(0.0, 0.5) * rng.normal(size=n)
        scan = PolarizationScan(angles=angles, peak_energies=energies, sigma=sigma)
        fit = fit_fss_sine(scan)
        delta, theta0, offset, rms, cov = _column_stack_fit(scan)
        assert fit.delta_fss == pytest.approx(delta, rel=1e-12)
        assert fit.theta0 == pytest.approx(theta0, rel=1e-12)
        assert fit.offset == pytest.approx(offset, rel=1e-12)
        assert fit.residual_rms == pytest.approx(rms, rel=1e-12)
        scale = np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
        assert np.all(np.abs(fit.covariance - cov) <= 1e-12 * scale)


def test_fit_errors_match_the_column_stack_fit():
    angles = np.arange(36) * (math.pi / 36)
    rank_two = PolarizationScan(  # two distinct angles
        angles=np.array([0.0] * 5 + [5.0 * math.pi / 6.0]),
        peak_energies=np.array([1.0, 1.1, 0.9, 1.0, 1.0, 3.0]),
    )
    flat = PolarizationScan(angles=angles, peak_energies=np.zeros(36), sigma=0.3)
    for scan, message in ((rank_two, "2-theta harmonic"), (flat, "singular Jacobian")):
        with pytest.raises(FitError, match=message):
            fit_fss_sine(scan)
        with pytest.raises(FitError):
            _column_stack_fit(scan)


def test_fit_rejects_angles_that_miss_the_second_harmonic():
    # valid span, but only two distinct angles: three unknowns, rank 2
    angles = np.array([0.0] * 5 + [5.0 * math.pi / 6.0])
    scan = PolarizationScan(
        angles=angles, peak_energies=np.array([1.0, 1.1, 0.9, 1.0, 1.0, 3.0])
    )
    with pytest.raises(FitError, match="2-theta harmonic"):
        fit_fss_sine(scan)


def test_fit_rejects_short_scans():
    angles = np.arange(5) * math.pi / 5
    with pytest.raises(ScanInputError):
        PolarizationScan(angles=angles, peak_energies=np.zeros(5))


def test_fit_rejects_narrow_angle_coverage():
    angles = np.linspace(0.0, 0.5, 12)
    with pytest.raises(ScanInputError):
        PolarizationScan(angles=angles, peak_energies=np.zeros(12))


def test_fit_monte_carlo_uncertainty_calibration():
    """Reported 1-sigma tracks the observed scatter to 20 %."""
    rng = np.random.default_rng(2024)
    truth = 10.0
    n = 36
    angles = np.arange(n) * math.pi / n
    clean = shift_law(angles, truth, 0.6, 0.0)
    deltas = []
    reported = []
    for _ in range(500):
        noisy = clean + rng.normal(0.0, 0.5, n)
        fit = fit_fss_sine(
            PolarizationScan(angles=angles, peak_energies=noisy, sigma=0.5)
        )
        deltas.append(fit.delta_fss)
        reported.append(fit.uncertainties[0])
    empirical = float(np.std(deltas, ddof=1))
    mean_reported = float(np.mean(reported))
    assert abs(mean_reported - empirical) <= 0.2 * empirical


def test_fit_near_cancellation_brackets_truth():
    truth = 1.5
    fit = fit_fss_sine(sinusoid_scan(truth, 1.0, noise=0.3, seed=11))
    assert abs(fit.delta_fss - truth) <= 3.0 * max(fit.uncertainties[0], 0.1)


def test_theta0_uncertainty_diverges_at_degeneracy():
    strong = fit_fss_sine(sinusoid_scan(10.0, 0.8, noise=0.3, seed=3))
    weak = fit_fss_sine(sinusoid_scan(0.3, 0.8, noise=0.3, seed=3))
    assert weak.uncertainties[1] >= 10.0 * strong.uncertainties[1]


def test_fit_covariance_is_symmetric_psd():
    fit = fit_fss_sine(sinusoid_scan(6.0, 0.9, noise=0.4, seed=5))
    cov = fit.covariance
    assert np.allclose(cov, cov.T)
    assert np.all(np.linalg.eigvalsh(cov) >= -1e-12)


# -- algebraic splitting --------------------------------------------------------


def test_algebraic_sign_convention():
    params = exciton_params_with_splitting(9.0, 0.0)  # theta0 = 0
    state = exciton_state(params, (0.0, 0.0, 0.0))
    assert algebraic_fss(state, 0.0) == pytest.approx(9.0)
    rotated = exciton_state(exciton_params_with_splitting(-9.0, 0.0), (0, 0, 0))
    assert algebraic_fss(rotated, 0.0) == pytest.approx(-9.0)


def test_algebraic_sign_change_across_cancellation():
    values = []
    for dx in np.linspace(6.0, -6.0, 13):
        state = exciton_state(exciton_params_with_splitting(dx, 0.5), (0, 0, 0))
        values.append(algebraic_fss(state, 0.0))
    assert values[0] > 0 > values[-1]


def test_degenerate_state_has_zero_algebraic_value():
    state = exciton_state(exciton_params_with_splitting(0.0, 0.0), (0, 0, 0))
    assert algebraic_fss(state, 0.2) == 0.0


# -- CSV round trip --------------------------------------------------------------


def test_scan_csv_round_trip(tmp_path):
    scan = sinusoid_scan(5.0, 1.2, noise=0.2, seed=9)
    path = tmp_path / "scan.csv"
    scan_to_csv(scan, str(path))
    back = scan_from_csv(str(path))
    assert np.array_equal(back.angles, scan.angles)
    assert np.array_equal(back.peak_energies, scan.peak_energies)
    assert np.array_equal(back.sigma, scan.sigma)


def test_scan_csv_bytes_are_pinned(tmp_path):
    scan = PolarizationScan(
        angles=np.arange(6) * (math.pi / 6.0),
        peak_energies=[-1.25, 0.0, 1e-310, 0.1 + 0.2, -123456.78901234567, -0.0],
        sigma=[0.0, 0.3, 2.0 / 3.0, 1e-17, 5.0, 1.0],
    )
    path = tmp_path / "scan.csv"
    scan_to_csv(scan, str(path))
    assert path.read_bytes() == (
        b"angle_rad,energy_ueV,sigma_ueV\n"
        b"0.0,-1.25,0.0\n"
        b"0.5235987755982988,0.0,0.3\n"
        b"1.0471975511965976,1e-310,0.6666666666666666\n"
        b"1.5707963267948966,0.30000000000000004,1e-17\n"
        b"2.0943951023931953,-123456.78901234567,5.0\n"
        b"2.617993877991494,-0.0,1.0\n"
    )
    back = scan_from_csv(str(path))
    for name in ("angles", "peak_energies", "sigma"):
        assert getattr(back, name).tobytes() == getattr(scan, name).tobytes()


def test_scan_csv_bad_header_reports_error(tmp_path):
    path = tmp_path / "bad.csv"
    # the header is exactly three names: an extra column is refused too
    for header in ("a,b,c", "angle_rad,energy_ueV,sigma_ueV,extra"):
        path.write_text(f"{header}\n1,2,3\n")
        with pytest.raises(ScanInputError, match="expected header"):
            scan_from_csv(str(path))


def test_scan_csv_bad_row_reports_row_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("angle_rad,energy_ueV,sigma_ueV\n0.0,1.0,0.1\n0.1,oops,0.1\n")
    with pytest.raises(ScanInputError, match="row 3"):
        scan_from_csv(str(path))


def test_non_utf8_scan_names_the_file(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"angle_rad,energy_ueV,sigma_ueV\n0.0,1.0,0.1\xff\n")
    with pytest.raises(ScanInputError, match="latin.csv"):
        scan_from_csv(str(path))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(
    st.binary(),
    st.binary().map(lambda b: b"angle_rad,energy_ueV,sigma_ueV\n" + b),
))
def test_any_scan_bytes_parse_or_raise_scan_input_error(tmp_path, blob):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(blob)
    try:
        scan_from_csv(str(path))
    except ScanInputError:
        pass
