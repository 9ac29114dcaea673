import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pillartune.exciton import (
    AXIS_TOLERANCE_UEV,
    ExcitonParams,
    exciton_state,
    fss_vector,
    splitting_hamiltonian,
    stark_shift,
)

finite = st.floats(-50.0, 50.0, allow_nan=False)


def make_params(**kw):
    base = dict(
        zero_field_energy=1.34,
        zero_field_splitting=(8.0, -3.0),
        inplane_coupling=((2e-2, 5e-3), (-1e-3, 3e-2)),
        vertical_coupling=(-1e-6, 4e-7),
        dipole=2e-6,
        polarizability=8e-13,
    )
    base.update(kw)
    return ExcitonParams(**base)


def test_decoupled_limit_returns_zero_field_splitting():
    p = make_params(
        inplane_coupling=((0.0, 0.0), (0.0, 0.0)), vertical_coupling=(0.0, 0.0)
    )
    assert fss_vector(p, (123.0, -47.0, 1e7)) == p.zero_field_splitting


def test_constructed_cancellation():
    m = ((2e-2, 0.0), (0.0, 3e-2))
    field = (40.0, -25.0, 0.0)
    d0 = (-m[0][0] * field[0], -m[1][1] * field[1])
    p = make_params(
        zero_field_splitting=d0, inplane_coupling=m, vertical_coupling=(0.0, 0.0)
    )
    assert fss_vector(p, field) == (0.0, 0.0)


@given(
    d0x=finite, d0y=finite,
    m11=finite, m12=finite, m21=finite, m22=finite,
    gx=finite, gy=finite,
    ex=finite, ey=finite, ez=finite,
)
@settings(max_examples=200, deadline=None)
def test_fss_vector_matches_direct_arithmetic(
    d0x, d0y, m11, m12, m21, m22, gx, gy, ex, ey, ez
):
    p = make_params(
        zero_field_splitting=(d0x, d0y),
        inplane_coupling=((m11, m12), (m21, m22)),
        vertical_coupling=(gx, gy),
    )
    dx, dy = fss_vector(p, (ex, ey, ez))
    assert dx == pytest.approx(d0x + m11 * ex + m12 * ey + gx * ez, abs=1e-9)
    assert dy == pytest.approx(d0y + m21 * ex + m22 * ey + gy * ez, abs=1e-9)


def test_diagonal_and_mixing_cases():
    p = make_params(
        zero_field_splitting=(10.0, 0.0),
        inplane_coupling=((0.0, 0.0), (0.0, 0.0)),
        vertical_coupling=(0.0, 0.0),
    )
    s = exciton_state(p, (0.0, 0.0, 0.0))
    assert s.fss == pytest.approx(10.0)
    assert s.theta0 == pytest.approx(0.0)

    p = make_params(
        zero_field_splitting=(0.0, 10.0),
        inplane_coupling=((0.0, 0.0), (0.0, 0.0)),
        vertical_coupling=(0.0, 0.0),
    )
    s = exciton_state(p, (0.0, 0.0, 0.0))
    assert s.fss == pytest.approx(10.0)
    assert s.theta0 == pytest.approx(math.pi / 4.0)


def test_closed_form_matches_eigensolver_on_random_draws():
    rng = np.random.default_rng(12345)
    for _ in range(1000):
        dx, dy = rng.uniform(-30.0, 30.0, size=2)
        if math.hypot(dx, dy) <= AXIS_TOLERANCE_UEV:
            continue
        h = splitting_hamiltonian((dx, dy))
        evals, evecs = np.linalg.eigh(h)
        gap = evals[1] - evals[0]
        vec = evecs[:, 1]  # high-energy eigenvector
        angle = math.atan2(vec[1], vec[0]) % math.pi

        p = make_params(
            zero_field_splitting=(dx, dy),
            inplane_coupling=((0.0, 0.0), (0.0, 0.0)),
            vertical_coupling=(0.0, 0.0),
        )
        s = exciton_state(p, (0.0, 0.0, 0.0))
        assert abs(s.fss - gap) <= 1e-10 * max(1.0, gap)
        diff = abs(s.theta0 - angle) % math.pi
        assert min(diff, math.pi - diff) <= 1e-10


def test_degenerate_state_has_no_axis():
    p = make_params(
        zero_field_splitting=(0.0, 0.0),
        inplane_coupling=((0.0, 0.0), (0.0, 0.0)),
        vertical_coupling=(0.0, 0.0),
    )
    s = exciton_state(p, (0.0, 0.0, 0.0))
    assert s.theta0 is None
    assert s.fss == 0.0


@given(dx=finite, dy=finite, phi=st.floats(0.0, 2.0 * math.pi))
@settings(max_examples=200, deadline=None)
def test_fss_invariant_under_frame_rotation(dx, dy, phi):
    # rotating the lab frame rotates the splitting vector by twice the angle
    c, s = math.cos(2.0 * phi), math.sin(2.0 * phi)
    rot = (c * dx - s * dy, s * dx + c * dy)
    assert math.hypot(*rot) == pytest.approx(math.hypot(dx, dy), abs=1e-9)


@given(
    dx=st.floats(-20.0, 20.0), dy=st.floats(-20.0, 20.0), t=st.floats(0.05, 0.95)
)
@settings(max_examples=200, deadline=None)
def test_axis_swap_across_origin(dx, dy, t):
    """Crossing zero along a straight segment swaps the eigenaxes by pi/2."""
    if math.hypot(dx, dy) < 1.0:
        return
    p = make_params(
        zero_field_splitting=(0.0, 0.0),
        inplane_coupling=((1.0, 0.0), (0.0, 1.0)),
        vertical_coupling=(0.0, 0.0),
    )
    before = exciton_state(p, (dx, dy, 0.0))
    after = exciton_state(p, (-t * dx, -t * dy, 0.0))
    diff = abs(before.theta0 - after.theta0) % math.pi
    assert abs(min(diff, math.pi - diff) - math.pi / 2.0) <= 1e-6


def test_stark_shift_trivials():
    p = make_params(dipole=3e-6, polarizability=9e-13)
    assert stark_shift(p, 0.0) == 0.0
    p_lin = make_params(dipole=3e-6, polarizability=0.0)
    assert stark_shift(p_lin, 2e6) == pytest.approx(-3e-6 * 2e6)
    assert stark_shift(p_lin, 4e6) == pytest.approx(2.0 * stark_shift(p_lin, 2e6))


def test_state_energy_bookkeeping():
    p = make_params()
    field = (25.0, -10.0, 3e6)
    s = exciton_state(p, field)
    assert s.e_high - s.e_low == pytest.approx(s.fss * 1e-6)
    assert 0.5 * (s.e_high + s.e_low) == pytest.approx(s.mean_energy)
    assert s.mean_energy == pytest.approx(
        p.zero_field_energy + 1e-6 * stark_shift(p, field[2])
    )


@pytest.mark.parametrize(
    "kw",
    [
        {"zero_field_splitting": (1.0, 2.0, 3.0)},
        {"zero_field_splitting": (1.0,)},
        {"vertical_coupling": (1.0, 2.0, 3.0)},
        {"inplane_coupling": ((1.0, 2.0), (3.0,))},
        {"inplane_coupling": ((1.0, 2.0), (3.0, 4.0), (5.0, 6.0))},
    ],
)
def test_tuple_shapes_are_checked_at_construction(kw):
    with pytest.raises(ValueError, match="zero_field_splitting needs 2 values"):
        ExcitonParams(**kw)
