import dataclasses
import itertools
import math
from decimal import Decimal, getcontext

import numpy as np
import pytest
from scipy.optimize import brentq

from pillartune import solver
from pillartune.config import load_run_config
from pillartune.device import (
    Mesh,
    MeshError,
    cell_areas,
    generate_mesh,
    make_strip_mesh,
)
from pillartune.solver import (
    EXP_CLAMP,
    TERMINALS,
    BiasPoint,
    ConvergenceError,
    NumericalError,
    SheetSystem,
    SolveChain,
    SolverError,
    classify_regime,
    diode_current_density,
    kirchhoff_bound,
    kirchhoff_error,
)

DEFAULT = load_run_config()
CFG = DEFAULT.solver
# the vertical stack that strip meshes take from the calibration
STACK = {
    "built_in_voltage": DEFAULT.geometry.built_in_voltage,
    "intrinsic_thickness_nm": DEFAULT.geometry.intrinsic_thickness_nm,
}


def _band_to_dense(system, band):
    """The dense symmetric matrix, in node order, of a ``jacobian`` band."""
    n, perm = system.n, system._perm
    lower = np.zeros((n, n))
    for d in range(band.shape[0]):
        lower[np.arange(d, n), np.arange(n - d)] = band[d, : n - d]
    dense = np.empty((n, n))
    dense[np.ix_(perm, perm)] = lower + np.tril(lower, -1).T
    return dense


def _conductance_diagonal(system, phi, bias):
    """Junction and contact conductances: the Jacobian minus the stiffness."""
    m = system.materials
    nvt = m.ideality * m.thermal_voltage
    g_junction = m.saturation_current_density * np.exp(np.minimum(phi / nvt, EXP_CLAMP))
    diag = g_junction / nvt * system.node_area
    for name, ids, r in zip(TERMINALS, system.mesh.pads, m.contact_resistance):
        if bias.terminal(name) is not None:
            diag[ids] += 1.0 / (r * len(ids))
    return diag


def test_bias_point_validation():
    with pytest.raises(ValueError):
        BiasPoint(None, None, None)
    with pytest.raises(ValueError):
        BiasPoint(float("nan"), 0.0, None)
    b = BiasPoint(1.0, -2.0, None)
    assert [b.terminal(t) for t in TERMINALS] == [1.0, -2.0, None]
    # the limit itself is a valid bias; anything past it is an input error
    BiasPoint(-solver.MAX_BIAS_V, -solver.MAX_BIAS_V, -solver.MAX_BIAS_V)
    for v in (1.0001e3, -1e8, 1e300):
        with pytest.raises(ValueError, match="exceeds the 1000 V limit"):
            BiasPoint(0.0, None, v)
    with pytest.raises(KeyError):
        b.terminal("D")


# -- diode law ---------------------------------------------------------------


def test_diode_zero_bias_is_zero():
    m = DEFAULT.materials
    assert diode_current_density(m, 0.0) == 0.0


def test_diode_reverse_saturation():
    m = DEFAULT.materials
    phi = -10.0 * m.ideality * m.thermal_voltage
    j = diode_current_density(m, phi)
    assert j < 0
    assert abs(j + m.saturation_current_density) <= 1e-4 * m.saturation_current_density


def test_diode_against_high_precision_oracle():
    # independent arbitrary-precision evaluation of the Shockley law
    m = dataclasses.replace(
        DEFAULT.materials,
        saturation_current_density=1e-18,
        ideality=1.5,
        thermal_voltage=0.02585,
    )
    phi = 0.9
    getcontext().prec = 50
    u = Decimal("0.9") / (Decimal("1.5") * Decimal("0.02585"))
    expected = Decimal("1e-18") * (u.exp() - 1)
    got = diode_current_density(m, phi)
    assert abs(got - float(expected)) <= 1e-12 * float(expected)


def test_diode_strictly_increasing_through_clamp():
    m = DEFAULT.materials
    nvt = m.ideality * m.thermal_voltage
    phis = np.linspace(-1.0, (EXP_CLAMP + 20.0) * nvt, 400)
    j = diode_current_density(m, phis)
    assert np.all(np.diff(j) > 0)


def test_diode_clamp_holds_beside_a_nan_and_on_no_nodes():
    # a NaN must not switch the linear branch off for the other nodes
    m = DEFAULT.materials
    phi = (EXP_CLAMP + 1.0) * m.ideality * m.thermal_voltage
    j = diode_current_density(m, np.array([math.nan, phi]))
    assert math.isnan(j[0]) and j[1] == diode_current_density(m, phi)
    assert diode_current_density(m, np.empty(0)).shape == (0,)


def test_diode_clamp_is_linear_beyond_threshold():
    m = DEFAULT.materials
    nvt = m.ideality * m.thermal_voltage
    u1, u2, u3 = EXP_CLAMP + 1.0, EXP_CLAMP + 2.0, EXP_CLAMP + 3.0
    j1, j2, j3 = (diode_current_density(m, u * nvt) for u in (u1, u2, u3))
    assert abs((j3 - j2) - (j2 - j1)) <= 1e-9 * abs(j2 - j1)


# -- assembly ----------------------------------------------------------------


def test_equilibrium_residual_is_zero(coarse_system):
    phi = np.zeros(coarse_system.n)
    f = coarse_system.residual(phi, coarse_system._contacts(BiasPoint(0.0, 0.0, None)))
    assert np.all(f == 0.0)


def test_node_outside_every_cell_rejected():
    # the Jacobian's diagonal lives in the stiffness pattern, so every node
    # must belong to a cell: a node in none leaves the mesh unconnected
    no_pad = np.empty(0, dtype=np.int32)
    with pytest.raises(MeshError, match="not connected"):
        Mesh(
            nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]]),
            cells=np.array([[0, 1, 2]], dtype=np.int32),
            pads=(np.array([1], dtype=np.int32), no_pad, no_pad),
            qd_node=0,
            **STACK,
        )


def test_dimension_mismatch_rejected(coarse_system):
    with pytest.raises(ValueError):
        coarse_system.residual(np.zeros(3), coarse_system._contacts(BiasPoint(0.0, 0.0)))


def test_linear_phi_is_discretely_harmonic():
    # no junction: interior residual of a linear potential vanishes exactly
    mesh = make_strip_mesh(20.0, 6.0, 1.0, **STACK)
    materials = dataclasses.replace(DEFAULT.materials, saturation_current_density=0.0)
    phi = 0.05 * mesh.nodes[:, 0] + 0.3
    system = SheetSystem(mesh, materials)
    f = system.residual(phi, system._contacts(BiasPoint(0.0, 0.0, None)))
    contact = set(map(int, mesh.pads[0])) | set(map(int, mesh.pads[1]))
    interior = [i for i in range(mesh.n_nodes) if i not in contact]
    assert np.max(np.abs(f[interior])) < 1e-15


def test_jacobian_matches_finite_differences():
    mesh = make_strip_mesh(4.0, 2.0, 1.0, **STACK)  # 15 nodes
    materials = dataclasses.replace(
        DEFAULT.materials,
        sheet_conductance=1e-3,
        saturation_current_density=1e-12,
        ideality=1.5,
        thermal_voltage=0.026,
        contact_resistance=(1e5, 2e5, 1e5),
    )
    bias = BiasPoint(0.4, -0.2, None)
    rng = np.random.default_rng(7)
    phi = 0.3 * rng.standard_normal(mesh.n_nodes)
    system = SheetSystem(mesh, materials)
    contacts = system._contacts(bias)
    jac = _band_to_dense(system, system.jacobian(phi, contacts))
    fd = np.zeros_like(jac)
    h = 1e-7
    for k in range(mesh.n_nodes):
        dphi = np.zeros(mesh.n_nodes)
        dphi[k] = h
        fp = system.residual(phi + dphi, contacts)
        fm = system.residual(phi - dphi, contacts)
        fd[:, k] = (fp - fm) / (2.0 * h)
    scale = np.max(np.abs(jac))
    assert np.max(np.abs(jac - fd)) <= 1e-6 * scale


def test_jacobian_reuses_one_pattern_and_equals_dense_reference(coarse_system):
    system = coarse_system
    rng = np.random.default_rng(3)
    stiffness = system.conduction.toarray()
    for bias in (
        BiasPoint(0.0, 0.0, None),
        BiasPoint(2.0, -0.5, 1.0),
        BiasPoint(None, 4.0, None),
    ):
        phi = 0.6 * rng.standard_normal(system.n)
        jac = system.jacobian(phi, system._contacts(bias))
        assert jac.shape == system._stiffness_band.shape
        assert jac.flags.f_contiguous
        # only the diagonal, row 0 of the band, differs from the stiffness
        assert np.array_equal(jac[1:], system._stiffness_band[1:])
        diag = _conductance_diagonal(system, phi, bias)
        assert np.array_equal(_band_to_dense(system, jac), stiffness + np.diag(diag))
    # every call returns a fresh band: writing to one leaves the next intact
    jac[:] = 0.0
    jac = system.jacobian(phi, system._contacts(bias))
    assert np.array_equal(_band_to_dense(system, jac), stiffness + np.diag(diag))


# -- solve -------------------------------------------------------------------


def test_system_arrays_are_read_only(coarse_system):
    with pytest.raises(ValueError, match="read-only"):
        coarse_system.node_area += 1.0
    k = coarse_system.conduction
    held = {n: v for n, v in vars(coarse_system).items() if isinstance(v, np.ndarray)}
    assert {"_stiffness_band", "_perm", "node_area", "_pads", "_pad_g"} <= held.keys()
    arrays = (*held.values(), k.data, k.indices, k.indptr)
    assert not any(a.flags.writeable for a in arrays)


def test_sheet_system_is_shared_per_mesh_and_materials(coarse_mesh):
    solver.sheet_system.cache_clear()
    materials = DEFAULT.materials
    system = solver.sheet_system(coarse_mesh, materials)
    assert solver.sheet_system(coarse_mesh, dataclasses.replace(materials)) is system
    assert solver.sheet_system(dataclasses.replace(coarse_mesh), materials) is not system
    other = dataclasses.replace(materials, sheet_conductance=1e-3)
    assert solver.sheet_system(coarse_mesh, other) is not system
    assert solver.sheet_system.cache_info().misses == 3


def test_equilibrium_solution(coarse_system):
    sol = coarse_system.solve(BiasPoint(0.0, 0.0, 0.0), CFG)
    assert sol.e_inplane == (0.0, 0.0) or np.hypot(*sol.e_inplane) < 1e-12
    mesh = coarse_system.mesh
    assert sol.e_z == pytest.approx(
        mesh.built_in_voltage / (mesh.intrinsic_thickness_nm * 1e-9)
    )
    assert sol.i_a == sol.i_b == sol.i_c == 0.0
    assert sol.i_junction == 0.0


def test_threefold_symmetric_bias_has_no_inplane_field(default_config):
    geom = dataclasses.replace(
        default_config.geometry,
        ridge_angles=(math.radians(90), math.radians(210), math.radians(330)),
    )
    materials = dataclasses.replace(
        default_config.materials, contact_resistance=(9e5, 9e5, 9e5)
    )
    mesh = generate_mesh(geom, 1.5)
    system = SheetSystem(mesh, materials)
    sol = system.solve(BiasPoint(1.0, 1.0, 1.0), CFG)
    scale = mesh.built_in_voltage / (mesh.intrinsic_thickness_nm * 1e-9)
    assert np.hypot(*sol.e_inplane) <= 1e-6 * scale


def test_bias_permutation_rotates_field(default_config):
    geom = dataclasses.replace(
        default_config.geometry,
        ridge_angles=(math.radians(90), math.radians(210), math.radians(330)),
    )
    materials = dataclasses.replace(
        default_config.materials, contact_resistance=(9e5, 9e5, 9e5)
    )
    mesh = generate_mesh(geom, 1.5)
    system = SheetSystem(mesh, materials)
    biases = (2.5, 0.5, -1.0)
    sol1 = system.solve(BiasPoint(*biases), CFG)
    sol2 = system.solve(BiasPoint(biases[2], biases[0], biases[1]), CFG)
    # arm A now plays arm C's role: the field pattern rotates by +120 deg
    rot = math.radians(120.0)
    e1 = np.array(sol1.e_inplane)
    expected = np.array(
        [
            e1[0] * math.cos(rot) - e1[1] * math.sin(rot),
            e1[0] * math.sin(rot) + e1[1] * math.cos(rot),
        ]
    )
    e2 = np.array(sol2.e_inplane)
    assert np.linalg.norm(e2) == pytest.approx(np.linalg.norm(e1), rel=1e-6)
    assert np.linalg.norm(e2 - expected) <= 1e-6 * np.linalg.norm(e1)


@pytest.mark.parametrize("va, vb", [(1.0, 0.3), (-0.5, 2.0), (3.0, 4.5)])
def test_swapping_a_and_b_mirrors_about_the_c_arm(
    coarse_mesh, default_config, va, vb
):
    # the default layout is mirror-symmetric about arm C; with equal contact
    # resistances, swapping V_A and V_B mirrors the solution
    materials = dataclasses.replace(
        default_config.materials, contact_resistance=(9e5,) * 3
    )
    system = SheetSystem(coarse_mesh, materials)
    sol = system.solve(BiasPoint(va, vb, None), CFG)
    swapped = system.solve(BiasPoint(vb, va, None), CFG)
    assert swapped.i_a == pytest.approx(sol.i_b, rel=1e-6)
    assert swapped.i_b == pytest.approx(sol.i_a, rel=1e-6)
    assert swapped.e_z == pytest.approx(sol.e_z, rel=1e-5)
    assert swapped.i_junction == pytest.approx(sol.i_junction, rel=1e-5)
    alpha = default_config.geometry.ridge_angles[2]
    uc = np.array([math.cos(alpha), math.sin(alpha)])
    e = np.array(sol.e_inplane)
    mirrored = 2.0 * float(e @ uc) * uc - e
    # quad diagonals of the mesh are not mirror images: about 5e-3 at 2 um
    gap = np.linalg.norm(np.array(swapped.e_inplane) - mirrored)
    assert gap <= 1e-2 * np.linalg.norm(e)


def test_reverse_bias_raises_vertical_field(coarse_system, default_config):
    sol0 = coarse_system.solve(BiasPoint(0.0, 0.0, None), CFG)
    sol = coarse_system.solve(BiasPoint(-3.0, -2.0, None), CFG)
    assert sol.e_z > sol0.e_z
    assert np.hypot(*sol.e_inplane) < 1e-3 * sol.e_z
    # the small remaining in-plane field is normal to the unconnected ridge C
    uc = np.array(
        [
            math.cos(default_config.geometry.ridge_angles[2]),
            math.sin(default_config.geometry.ridge_angles[2]),
        ]
    )
    e = np.array(sol.e_inplane)
    e /= np.linalg.norm(e)
    assert abs(float(e @ uc)) <= math.sin(math.radians(5.0))


def test_region1_field_normal_to_unconnected_ridge(default_config, coarse_mesh):
    system = SheetSystem(coarse_mesh, default_config.materials)
    uc = np.array(
        [
            math.cos(default_config.geometry.ridge_angles[2]),
            math.sin(default_config.geometry.ridge_angles[2]),
        ]
    )
    sol = system.solve(BiasPoint(-1.0, -0.2, None), CFG)
    e = np.array(sol.e_inplane)
    e /= np.linalg.norm(e)
    assert abs(float(e @ uc)) <= math.sin(math.radians(5.0))


def test_kirchhoff_balance_everywhere(coarse_system):
    cfg = CFG
    for bias in [
        BiasPoint(-1.0, 0.5, None),
        BiasPoint(3.0, 2.0, None),
        BiasPoint(6.0, 6.0, None),
        BiasPoint(2.0, -1.0, 0.5),
    ]:
        sol = coarse_system.solve(bias, cfg)
        assert kirchhoff_error(sol) <= kirchhoff_bound(sol, cfg)


@pytest.fixture(scope="module")
def default_system():
    mesh = generate_mesh(DEFAULT.geometry, DEFAULT.mesh_edge)
    return SheetSystem(mesh, DEFAULT.materials)


_ROUNDING_DEFECT = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: phi is held as an absolute voltage, and its rounding "
    "swamps the node balance from about -30 V",
)


@pytest.mark.parametrize("c_equal", [False, True], ids=["C-floating", "C-equal"])
@pytest.mark.parametrize(
    "v",
    [-20.0, *(pytest.param(v, marks=_ROUNDING_DEFECT) for v in (-30, -100, -200))],
)
def test_kirchhoff_bound_at_equal_reverse_bias(default_system, v, c_equal):
    # on the default mesh the error grows about linearly with |V|: 7.0e-15 A
    # at -20 V, 1.1e-14 to 7.7e-14 A from -30 to -200 V, against 1e-14 A
    sol = default_system.solve(BiasPoint(v, v, v if c_equal else None), CFG)
    assert kirchhoff_error(sol) <= kirchhoff_bound(sol, CFG)


def test_floating_terminal_carries_no_current(coarse_system):
    sol = coarse_system.solve(BiasPoint(2.0, 1.0, None), CFG)
    assert sol.i_c == 0.0


def test_deep_reverse_junction_is_saturation_times_area(
    coarse_system, coarse_mesh, default_config
):
    sol = coarse_system.solve(BiasPoint(-3.0, -3.0, -3.0), CFG)
    expected = -default_config.materials.saturation_current_density * float(
        cell_areas(coarse_mesh).sum()
    )
    assert sol.i_junction == pytest.approx(expected, rel=0.01)


def test_single_lumped_node_matches_scalar_oracle():
    # a short, wide strip with high sheet conductance is one equipotential
    # lump: (V - phi)/R = j(phi) * A_total, solved independently by bracketing
    mesh = make_strip_mesh(0.5, 5.0, 0.5, **STACK)
    r_series = 2.0e5
    materials = dataclasses.replace(
        DEFAULT.materials,
        sheet_conductance=1.0,
        saturation_current_density=1e-12,
        ideality=1.5,
        thermal_voltage=0.026,
        contact_resistance=(r_series, 1e12, 1e12),
    )
    area = float(cell_areas(mesh).sum())
    v = 0.9
    sol = SheetSystem(mesh, materials).solve(BiasPoint(v, None, None), CFG)

    def balance(phi):
        return (v - phi) / r_series - diode_current_density(materials, phi) * area

    phi_star = brentq(balance, -1.0, v, xtol=1e-15, rtol=1e-15)
    expected = (v - phi_star) / r_series
    assert sol.i_a == pytest.approx(expected, rel=1e-5)
    assert sol.i_junction == pytest.approx(expected, rel=1e-5)


def test_laplace_strip_uniform_field():
    # no junction: the two-contact strip carries E = dV / L
    length, width = 50.0, 10.0
    mesh = make_strip_mesh(length, width, 1.0, **STACK)
    materials = dataclasses.replace(
        DEFAULT.materials,
        sheet_conductance=1e-4,
        saturation_current_density=0.0,
        contact_resistance=(1.0, 1.0, 1.0),
    )
    dv = 2.0
    sol = SheetSystem(mesh, materials).solve(BiasPoint(dv, 0.0, None), CFG)
    expected = dv / length * 1e6  # V/m, pointing from A (x=0, high) toward B
    assert sol.e_inplane[0] == pytest.approx(expected, rel=0.01)
    assert abs(sol.e_inplane[1]) <= 0.01 * expected
    # terminal current matches the sheet resistance of the strip
    squares = length / width
    assert sol.i_a == pytest.approx(
        dv * materials.sheet_conductance / squares, rel=0.01
    )


def test_monotone_current_on_bias_ladder(coarse_system):
    previous = -np.inf
    phi = None
    for va in np.linspace(-1.0, 6.0, 10):
        sol = coarse_system.solve(BiasPoint(float(va), 1.0, None), CFG, phi0=phi)
        phi = sol.phi
        assert sol.i_a >= previous - 1e-15
        previous = sol.i_a


def test_newton_residual_history_decreases(coarse_system):
    phi0 = np.zeros(coarse_system.n)
    bias = BiasPoint(1.5, 1.0, None)
    phi, ok, iters, history, *_ = coarse_system._newton(
        phi0, CFG, coarse_system._contacts(bias)
    )
    assert ok
    assert all(b < a for a, b in zip(history, history[1:]))


def test_warm_start_agrees_with_cold_start(coarse_system):
    bias = BiasPoint(3.0, 2.0, None)
    cold = coarse_system.solve(bias, CFG)
    neighbour = coarse_system.solve(BiasPoint(2.8, 2.0, None), CFG)
    warm = coarse_system.solve(bias, CFG, phi0=neighbour.phi)
    v_scale = max(1.0, abs(bias.v_a), abs(bias.v_b))
    assert np.max(np.abs(warm.phi - cold.phi)) <= 10.0 * CFG.newton_tol * v_scale


def test_starved_newton_gives_up_after_max_iters(coarse_system, monkeypatch):
    spent = []
    newton = coarse_system._newton

    def counted(*args):
        result = newton(*args)
        spent.append(result[2])
        return result

    monkeypatch.setattr(coarse_system, "_newton", counted)
    starved = dataclasses.replace(CFG, max_iters=1)
    with pytest.raises(ConvergenceError, match="after 1 Newton iterations") as err:
        coarse_system.solve(
            BiasPoint(4.0, 4.0, None), starved, phi0=np.zeros(coarse_system.n)
        )
    # one descent run, no retry, and no more steps than max_iters
    assert spent == [1]
    assert len(err.value.residual_history) == starved.max_iters + 1


def test_energy_gradient_is_the_residual(coarse_system):
    # no converged solve in the window reaches EXP_CLAMP, so phi is set by
    # hand to put about a tenth of the nodes on the quadratic branch
    system = coarse_system
    m = system.materials
    phi = np.random.default_rng(5).uniform(-1.0, 2.5, system.n)
    assert np.sum(phi / (m.ideality * m.thermal_voltage) > EXP_CLAMP + 1.0) > 20
    contacts = system._contacts(BiasPoint(0.5, 2.0, -0.5))
    f = system.residual(phi, contacts)
    h = 1e-5
    fd = np.empty(system.n)
    for k in range(system.n):
        step = np.zeros(system.n)
        step[k] = h
        fd[k] = system.energy(phi + step, contacts) - system.energy(phi - step, contacts)
    fd /= 2 * h
    assert np.max(np.abs(fd - f)) <= 1e-8 * np.max(np.abs(f))


@pytest.mark.parametrize(
    "bias", [BiasPoint(3.0, 2.0, None), BiasPoint(-1.0, -1.0, None), BiasPoint(6.0, 6.0, 6.0)]
)
def test_cold_newton_descends_the_energy(coarse_system, monkeypatch, bias):
    # one Jacobian per factorization, each at an accepted iterate: the
    # iterate of a step is the last residual evaluated before its back-solve
    system = coarse_system
    evaluated, iterates, factored = [], [], []
    residual, back_solve, jacobian = system.residual, system._back_solve, system.jacobian

    def residual_spy(phi, contacts):
        evaluated.append(phi)
        return residual(phi, contacts)

    def back_solve_spy(chol, rhs):
        iterates.append(evaluated[-1])
        return back_solve(chol, rhs)

    def jacobian_spy(phi, contacts):
        factored.append(phi)
        return jacobian(phi, contacts)

    monkeypatch.setattr(system, "residual", residual_spy)
    monkeypatch.setattr(system, "_back_solve", back_solve_spy)
    monkeypatch.setattr(system, "jacobian", jacobian_spy)
    contacts = system._contacts(bias)
    phi, ok, iters, _, _, factorizations = system._newton(np.zeros(system.n), CFG, contacts)
    assert ok and len(iterates) == iters
    assert len(factored) == factorizations <= iters
    assert all(any(p is q for q in iterates) for p in factored)
    energies = [system.energy(p, contacts) for p in (*iterates, phi)]
    assert energies[-1] < energies[0]
    # last steps move E below the rounding of the quadratic form (about
    # 1e-17 at (3, 2) and (-1, -1)); allow a few ulps of that form
    k_abs = abs(system.conduction)
    for p, e_prev, e_next in zip(iterates, energies, energies[1:]):
        rounding = np.finfo(float).eps * float(np.abs(p) @ (k_abs @ np.abs(p)))
        assert e_next <= e_prev + 4.0 * rounding


@pytest.mark.parametrize(
    "va, vb, vc",
    [(-1.0, -1.0, None), (-1.0, 6.0, None), (6.0, -1.0, None), (6.0, 6.0, None), (6.0, 6.0, 6.0)],
)
def test_cold_solves_converge_without_continuation(coarse_system, va, vb, vc):
    sol = coarse_system.solve(BiasPoint(va, vb, vc), CFG)
    assert sol.newton_iters <= 15


def test_solve_leaves_no_factorization_on_the_system(coarse_system):
    # no attribute is rebound, and no array (the stiffness band included)
    # is written to by a solve: the factorization runs on a copy
    before = dict(vars(coarse_system))
    arrays = {k: v.tobytes() for k, v in before.items() if isinstance(v, np.ndarray)}
    assert "_stiffness_band" in arrays
    coarse_system.solve(BiasPoint(3.0, 2.0, None), CFG)
    after = vars(coarse_system)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert {k: after[k].tobytes() for k in arrays} == arrays


def test_solve_is_independent_of_earlier_solves(coarse_system, coarse_mesh, default_config):
    phi0 = coarse_system.solve(BiasPoint(2.8, 2.0, None), CFG).phi
    bias = BiasPoint(3.0, 2.0, None)
    fresh = SheetSystem(coarse_mesh, default_config.materials).solve(bias, CFG, phi0)
    for other in (BiasPoint(-1.0, 4.0, None), BiasPoint(5.0, 0.5, 1.0)):
        coarse_system.solve(other, CFG)
    again = coarse_system.solve(bias, CFG, phi0)
    assert again.phi.tobytes() == fresh.phi.tobytes()


@pytest.mark.parametrize("bias", [BiasPoint(3.0, 2.0, None), BiasPoint(6.0, 6.0, 6.0)])
def test_solve_computes_its_contacts_once(coarse_system, monkeypatch, bias):
    # every residual, energy, Jacobian and terminal current of a solve
    # reads the one pair of contact vectors the solve computed
    system = coarse_system
    contacts, energies = [], []
    real_contacts, real_energy = system._contacts, system.energy

    def contacts_spy(b):
        contacts.append(b)
        return real_contacts(b)

    def energy_spy(*args):
        energies.append(args)
        return real_energy(*args)

    monkeypatch.setattr(system, "_contacts", contacts_spy)
    monkeypatch.setattr(system, "energy", energy_spy)
    cold = system.solve(bias, CFG)
    assert cold.newton_iters > 0 and energies  # the line search ran too
    assert contacts == [bias]
    again = system.solve(bias, CFG, cold.phi)
    assert again.newton_iters == 0 and contacts == [bias, bias]
    # a predicted solve and a tangent compute only their own bias's contacts
    chain = SolveChain(system, CFG)
    chain.held = cold
    step = BiasPoint(bias.v_a + 0.1, bias.v_b, bias.v_c)
    contacts.clear()
    chain.solve(step)
    assert chain.held.bias == step and contacts == [step]
    chain.tangent((1.0, 0.0, 0.0))
    assert contacts == [step, step]


@pytest.mark.parametrize(
    "bias, dv",
    [(BiasPoint(2.0, 1.0, None), (1.0, 0.0, 0.0)), (BiasPoint(2.0, 1.0, 0.5), (0.0, 0.0, 1.0))],
)
def test_tangent_matches_central_differences(coarse_system, monkeypatch, bias, dv):
    system = coarse_system
    chain = SolveChain(system, CFG)
    sol = chain.solve(bias)
    # the solve ended on chord steps, so its held factor is stale at sol.phi
    assert 0 < sol.factorizations < sol.newton_iters
    tangent = chain.tangent(dv)
    h = 1e-4

    def shifted(sign):
        v = [x if x is None else x + sign * h * d for x, d in zip(
            (bias.v_a, bias.v_b, bias.v_c), dv)]
        return system.solve(BiasPoint(*v), CFG, phi0=sol.phi).phi

    fd = (shifted(1.0) - shifted(-1.0)) / (2 * h)
    assert np.max(np.abs(tangent - fd)) <= 1e-5 * np.max(np.abs(fd))
    # a solve that takes no step carries no factor; the tangent is the same
    again = system.solve(bias, CFG, phi0=sol.phi)
    assert again.newton_iters == 0 and again.factor is None
    chain.held = again
    tangent = chain.tangent(dv)
    assert np.max(np.abs(tangent - fd)) <= 1e-5 * np.max(np.abs(fd))
    # the chain holds the exact factor: the next start is the tangent step
    starts = []

    def spy(b, cfg, phi0=None):
        starts.append(phi0)
        return again

    monkeypatch.setattr(system, "solve", spy)
    step = [x if x is None else x + d for x, d in zip((bias.v_a, bias.v_b, bias.v_c), dv)]
    chain.solve(BiasPoint(*step))
    assert np.array_equal(starts, [again.phi + tangent])


def test_tangent_of_stacked_steps_equals_single_steps(coarse_system):
    chain = SolveChain(coarse_system, CFG)
    chain.solve(BiasPoint(2.0, 1.0, 0.5))
    steps = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.3, -0.2, 0.7]])
    stacked = chain.tangent(steps)
    factor = chain.held.factor
    assert stacked.shape == (coarse_system.n, len(steps))
    for column, dv in zip(stacked.T, steps):
        single = chain.tangent(dv)
        assert np.array_equal(chain.held.factor, factor)
        assert np.allclose(column, single, rtol=1e-12, atol=0.0)


def test_tangent_ignores_floating_terminals(coarse_system):
    chain = SolveChain(coarse_system, CFG)
    chain.solve(BiasPoint(2.0, 1.0, None))
    assert np.array_equal(chain.tangent((1.0, 0.0, 5.0)), chain.tangent((1.0, 0.0, 0.0)))


def test_chain_after_a_solve_without_a_step_predicts_as_a_cold_start(coarse_system):
    # at V = 0 the zero potential is already converged: no step, no factor
    chain = SolveChain(coarse_system, CFG)
    first = chain.solve(BiasPoint(0.0, 0.0))
    assert first.newton_iters == 0 and first.factor is None
    assert chain.held.phi.tobytes() == np.zeros(coarse_system.n).tobytes()
    bias = BiasPoint(2.0, 1.0)
    sol = chain.solve(bias)
    cold = coarse_system.solve(bias, CFG)
    assert sol.phi.tobytes() == cold.phi.tobytes()
    assert (sol.newton_iters, sol.factorizations) == (cold.newton_iters, cold.factorizations)


def test_chain_drops_its_held_solution_when_a_solve_fails(coarse_system, monkeypatch):
    chain = SolveChain(coarse_system, CFG)
    first = chain.solve(BiasPoint(2.0, 1.0, None))

    def fail(bias, cfg, phi0=None):
        raise ConvergenceError("forced failure")

    monkeypatch.setattr(coarse_system, "solve", fail)
    with pytest.raises(ConvergenceError):
        chain.solve(BiasPoint(2.2, 1.0, None))
    assert chain.held is None
    # only successful solves are counted
    assert chain.newton_iters == first.newton_iters
    assert chain.factorizations == first.factorizations


def _strip_system():
    return SheetSystem(make_strip_mesh(20.0, 6.0, 1.0, **STACK), DEFAULT.materials)


def _forward_biased(system):
    # phi set by hand so that a tenth or more of the nodes sit past EXP_CLAMP
    m = system.materials
    phi = np.random.default_rng(11).uniform(-1.0, 2.5, system.n)
    assert np.sum(phi / (m.ideality * m.thermal_voltage) > EXP_CLAMP) >= system.n // 10
    return phi


@pytest.mark.parametrize("which", ["coarse", "strip"])
def test_band_unpacks_to_the_lower_jacobian(coarse_system, which):
    system = coarse_system if which == "coarse" else _strip_system()
    bias = BiasPoint(2.0, 0.5, None)
    phi = _forward_biased(system)
    band = system.jacobian(phi, system._contacts(bias))
    assert band.flags.f_contiguous
    n, perm = system.n, system._perm
    assert sorted(perm) == list(range(n))
    for d in range(band.shape[0]):
        assert not np.any(band[d, n - d :])
    lower = np.tril(_band_to_dense(system, band)[np.ix_(perm, perm)])
    reference = system.conduction.toarray() + np.diag(_conductance_diagonal(system, phi, bias))
    assert np.array_equal(lower, np.tril(reference[np.ix_(perm, perm)]))


@pytest.mark.parametrize("which", ["coarse", "strip"])
def test_newton_direction_matches_dense_solve(coarse_system, which):
    system = coarse_system if which == "coarse" else _strip_system()
    phi = _forward_biased(system)
    contacts = system._contacts(BiasPoint(2.0, 0.5, None))
    band, f = system.jacobian(phi, contacts), system.residual(phi, contacts)
    reference = np.linalg.solve(_band_to_dense(system, band), -f)
    delta = system._back_solve(system._cholesky(band), -f)
    assert np.max(np.abs(delta - reference)) <= 1e-10 * np.max(np.abs(reference))


def test_singular_factor_raises_numerical_error(coarse_system, monkeypatch):
    monkeypatch.setattr(solver, "dpbtrf", lambda ab, **kwargs: (ab, 1))
    with pytest.raises(NumericalError, match="factorization failed"):
        coarse_system.solve(BiasPoint(3.0, 2.0, None), CFG)


# every driven/floating pattern of the three terminals (one at least driven)
_PATTERNS = [
    p for p in itertools.product((True, False), repeat=len(TERMINALS)) if any(p)
]


@pytest.mark.parametrize(
    "driven",
    _PATTERNS,
    ids=["".join(t for t, d in zip(TERMINALS, p) if d) for p in _PATTERNS],
)
def test_contact_vectors_match_a_per_terminal_reference(coarse_system, driven):
    # the contact model written out per terminal, from the mesh's pads and
    # the materials' contact resistances
    system = coarse_system
    voltages = [v if d else None for v, d in zip((0.8, -0.4, 0.3), driven)]
    bias = BiasPoint(*voltages)
    pads = []  # (terminal index, pad nodes, per-node conductance, voltage)
    for k, v in enumerate(voltages):
        if v is not None:
            ids = system.mesh.pads[k]
            r = system.materials.contact_resistance[k]
            pads.append((k, ids, 1.0 / (r * len(ids)), v))
    rng = np.random.default_rng(5)
    phi = system.solve(bias, CFG).phi + 0.01 * rng.standard_normal(system.n)

    f = system.conduction @ phi
    f += diode_current_density(system.materials, phi) * system.node_area
    for _, ids, g, v in pads:
        f[ids] += g * (phi[ids] - v)
    contacts = system._contacts(bias)
    assert np.array_equal(system.residual(phi, contacts), f)
    # Newton's residual scale reads the largest driven |V_k| as max |v|
    assert np.max(np.abs(contacts[1])) == max(abs(v) for v in voltages if v is not None)

    diag = _conductance_diagonal(system, phi, bias)
    band = system.jacobian(phi, contacts)
    assert np.array_equal(band[0], system._stiffness_band[0] + diag[system._perm])

    dv = rng.standard_normal((2, len(TERMINALS)))
    drive = np.zeros((system.n, 2))
    for k, ids, g, _ in pads:
        drive[ids] += g * dv[:, k]
    assert np.array_equal(system._terminal_drive(bias, dv), drive)
    assert np.array_equal(system._terminal_drive(bias, dv[0]), drive[:, 0])

    currents = [0.0] * len(TERMINALS)
    for k, ids, g, v in pads:
        currents[k] = float(np.sum(g * (v - phi[ids])))
    got = system.terminal_currents(phi, contacts)[:3]
    scale = max(map(abs, currents))
    assert all(abs(a - b) <= 1e-15 * scale for a, b in zip(got, currents))
    # a floating terminal's current is +0.0, never -0.0, in the sweep CSV
    for i, d in zip(got, driven):
        if not d:
            assert i == 0.0 and math.copysign(1.0, i) == 1.0


@pytest.mark.parametrize(
    "call", ["solve", "residual", "energy", "jacobian", "terminal_currents"]
)
def test_driven_terminal_without_contact_nodes_fails(call):
    no_c = make_strip_mesh(4.0, 2.0, 1.0, **STACK)
    system = SheetSystem(no_c, DEFAULT.materials)
    bias = BiasPoint(0.0, 0.0, 1.0)
    with pytest.raises(SolverError, match="terminal C is driven but has no contact"):
        if call == "solve":
            system.solve(bias, CFG)
        else:
            # the sheet physics takes contact vectors, and only _contacts builds them
            getattr(system, call)(np.zeros(system.n), system._contacts(bias))


# -- regime classification ----------------------------------------------------


def _solution_with(ia, ib):
    from pillartune.solver import FieldSolution

    return FieldSolution(
        bias=BiasPoint(0.0, 0.0, None),
        phi=np.zeros(1),
        e_inplane=(0.0, 0.0),
        e_z=0.0,
        i_a=ia,
        i_b=ib,
        i_c=0.0,
        i_junction=ia + ib,
        newton_iters=0,
        residual=0.0,
    )


def test_classify_regime_definitions():
    i_th = 1e-6
    assert classify_regime(_solution_with(0.0, 0.0), i_th) == 1
    assert classify_regime(_solution_with(10 * i_th, 0.0), i_th) == 3
    assert classify_regime(_solution_with(0.0, 10 * i_th), i_th) == 4
    assert classify_regime(_solution_with(2 * i_th, 2 * i_th), i_th) == 2
    with pytest.raises(ValueError):
        classify_regime(_solution_with(0.0, 0.0), 0.0)
