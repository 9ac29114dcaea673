import dataclasses
import itertools
import math
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pillartune import device, solver, tuner
from pillartune.config import load_run_config
from pillartune.device import generate_mesh, make_strip_mesh
from pillartune.exciton import ExcitonParams, fss_vector
from pillartune.solver import (
    BiasPoint,
    ConvergenceError,
    SheetSystem,
    SolveChain,
    SolverError,
)
from pillartune.tuner import (
    ALL_OUTPUTS,
    CellRecord,
    IsoFssPair,
    RegimeSummary,
    SweepResult,
    TunerError,
    _eigenaxis_rotation,
    _splitting_jacobian,
    find_zero_fss,
    iso_fss_points,
    read_sweep_csv,
    regime_summary,
    run_bias_sweep,
    write_sweep_csv,
)

DEFAULT = load_run_config()
CFG = DEFAULT.solver
SPEC = DEFAULT.sweep


def laplace_materials():
    """Junction disabled: fields are affine in the applied biases."""
    return dataclasses.replace(
        DEFAULT.materials,
        sheet_conductance=2e-3,
        saturation_current_density=0.0,
        contact_resistance=(9e5, 1.4e6, 9e5),
    )


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        dataclasses.replace(SPEC, va_step=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(SPEC, va_start=1.0, va_stop=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(SPEC, outputs=("fields", "bogus"))
    spec = dataclasses.replace(SPEC, va_start=0.0, va_stop=1.0, va_step=0.5)
    assert list(spec.va_values()) == [0.0, 0.5, 1.0]


def test_tune_bounds_span_both_sweep_axes():
    spec = dataclasses.replace(
        SPEC, va_start=-1.0, va_stop=2.0, vb_start=0.5, vb_stop=4.0
    )
    assert spec.tune_bounds() == (-1.0, 4.0)


def test_single_cell_sweep_is_equilibrium(coarse_mesh, default_config):
    spec = dataclasses.replace(
        SPEC,
        va_start=0.0, va_stop=0.0, va_step=1.0,
        vb_start=0.0, vb_stop=0.0, vb_step=1.0,
        vc=None,
    )
    result = run_bias_sweep(
        spec, coarse_mesh, default_config.materials, default_config.exciton, CFG
    )
    assert len(result.records) == 1
    rec = result.records[0]
    assert rec.ok
    assert rec.ia == rec.ib == rec.ic == 0.0
    assert rec.region == 1


def _small_spec():
    return dataclasses.replace(
        SPEC,
        va_start=-1.0, va_stop=3.0, va_step=1.0,
        vb_start=-1.0, vb_stop=3.0, vb_step=1.0,
        vc=None,
    )


def test_sweep_deterministic_across_concurrency(
    tmp_path, coarse_mesh, default_config
):
    paths = []
    for i, jobs in enumerate((1, 1, 3)):
        result = run_bias_sweep(
            _small_spec(),
            coarse_mesh,
            default_config.materials,
            default_config.exciton,
            CFG,
            jobs=jobs,
        )
        path = tmp_path / f"sweep_{i}.csv"
        write_sweep_csv(result, str(path))
        paths.append(path.read_bytes())
    assert paths[0] == paths[1] == paths[2]


def test_a_row_swept_alone_equals_its_row_of_the_grid(coarse_mesh, default_config):
    """Every row runs the same path however the grid is split into calls."""
    spec = dataclasses.replace(default_config.sweep, va_step=0.875, vb_step=0.875)
    args = (coarse_mesh, default_config.materials, default_config.exciton, CFG)
    full = run_bias_sweep(spec, *args)
    assert full.grid_shape() == (9, 9)
    vb = spec.vb_values()
    for i in (1, 3):
        one_row = dataclasses.replace(spec, vb_start=vb[i], vb_stop=vb[i])
        row = run_bias_sweep(one_row, *args).records
        assert row == [full.record(i, j) for j in range(9)]


def test_sweep_csv_round_trip(tmp_path, coarse_mesh, default_config):
    result = run_bias_sweep(
        _small_spec(),
        coarse_mesh,
        default_config.materials,
        default_config.exciton,
        CFG,
    )
    path = tmp_path / "sweep.csv"
    write_sweep_csv(result, str(path))
    assert read_sweep_csv(str(path)) == result.records


def test_failed_cell_equals_itself_after_csv_round_trip(tmp_path):
    records = [
        CellRecord(va=0.0, vb=1.0, vc=None, status="error:ConvergenceError"),
        CellRecord(va=1.0, vb=1.0, vc=0.5, iters=3, residual=1e-12, ex=2.0,
                   ey=-1.0, ez=3e5, ia=1e-7, ib=2e-7, ic=-3e-7, i_junction=0.0,
                   region=2, fss=3.5, theta0=0.25, mean_energy=1.3, stark=-1.0,
                   algebraic_fss=3.4),
    ]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(SweepResult(spec=SPEC, records=records), str(path))
    assert read_sweep_csv(str(path)) == records
    failed = records[0]
    assert failed != dataclasses.replace(failed, ex=0.0)
    assert failed != dataclasses.replace(failed, status="ok")
    assert failed != dataclasses.replace(failed, region=1)


def _count_systems(monkeypatch) -> list:
    """The mesh of every ``SheetSystem`` built from now on, in build order."""
    built = []
    init = SheetSystem.__init__

    def spy(self, mesh, materials):
        built.append(mesh)
        init(self, mesh, materials)

    monkeypatch.setattr(SheetSystem, "__init__", spy)
    return built


def _clear_caches() -> None:
    solver.sheet_system.cache_clear()
    device.coarse_grid.cache_clear()


def test_sweeps_on_one_mesh_build_one_system(
    coarse_mesh, default_config, monkeypatch
):
    _clear_caches()
    built = _count_systems(monkeypatch)
    args = (coarse_mesh, default_config.materials, default_config.exciton, CFG)
    first = run_bias_sweep(_small_spec(), *args)
    second = run_bias_sweep(_small_spec(), *args)
    # the mesh's, then its coarse grid's for the cold starts, each built once
    assert built == [coarse_mesh, device.coarse_grid(coarse_mesh)[0]]
    assert second.records == first.records


def test_searches_on_one_mesh_build_two_systems(
    coarse_mesh, default_config, monkeypatch
):
    def search():
        return find_zero_fss(
            BiasPoint(0.0, 0.0, None),
            ("A", "B"),
            tol=1.5,
            mesh=coarse_mesh,
            materials=default_config.materials,
            exciton_params=default_config.exciton,
            cfg=CFG,
            bounds=SPEC.tune_bounds(),
        )

    _clear_caches()
    built = _count_systems(monkeypatch)
    search()
    second = search()
    # the seed mesh, then the caller's, each meshed and assembled once
    assert len(built) == 2 and built[1] is coarse_mesh
    assert built[0].target_edge == 3.0 * coarse_mesh.target_edge
    assert device.coarse_grid.cache_info().misses == 1
    _clear_caches()
    assert search().to_dict() == second.to_dict()
    assert len(built) == 4


def test_cold_solves_after_a_search_reuse_its_seed_mesh(
    coarse_mesh, default_config, monkeypatch
):
    # the search's seed mesh is the coarse grid a cold solve starts from
    _clear_caches()
    built = _count_systems(monkeypatch)
    args = (coarse_mesh, default_config.materials, default_config.exciton, CFG)
    find_zero_fss(
        BiasPoint(0.0, 0.0, None), ("A", "B"), 1.5, *args, bounds=SPEC.tune_bounds()
    )
    run_bias_sweep(_small_spec(), *args)
    solver.sheet_system(coarse_mesh, default_config.materials).solve(
        BiasPoint(0.8, 0.4, None), CFG
    )
    assert built == [device.coarse_grid(coarse_mesh)[0], coarse_mesh]
    assert device.coarse_grid.cache_info().misses == 1


def test_sweep_rejects_jobs_below_one(coarse_mesh, default_config):
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        run_bias_sweep(
            _small_spec(), coarse_mesh, default_config.materials,
            default_config.exciton, CFG, jobs=0,
        )


def test_column_table_covers_cell_record():
    names = tuple(f.name for f in dataclasses.fields(CellRecord))
    assert SPEC.columns() == names
    assert ALL_OUTPUTS == (
        "fields", "currents", "regime", "fss", "theta0", "algebraic_fss", "stark"
    )


def test_formats_doc_lists_sweep_columns_in_file_order():
    doc = (Path(__file__).parents[1] / "docs" / "formats.md").read_text()
    table = doc.split("## Sweep CSV", 1)[1].split("\n## ", 1)[0]
    documented = []
    for line in table.splitlines():
        if line.startswith("| `"):
            documented += re.findall(r"`([a-z_0-9]+)`", line.split("|")[1])
    assert tuple(documented) == SPEC.columns()


def test_sweep_csv_keeps_failed_cells_and_fixed_vc(tmp_path):
    records = [
        CellRecord(va=0.0, vb=1.0, vc=0.5, status="error:ConvergenceError"),
        CellRecord(va=1.0, vb=1.0, vc=0.5, iters=3, residual=1e-12, ex=2.0,
                   region=2, fss=3.5, theta0=None, stark=-1.0),
    ]
    spec = dataclasses.replace(SPEC, outputs=("stark", "fields", "regime", "theta0"))
    path = tmp_path / "sweep.csv"
    write_sweep_csv(SweepResult(spec=spec, records=records), str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "va,vb,vc,status,iters,residual,ex,ey,ez,region,theta0,mean_energy,stark"
    )
    assert lines[1] == "0.0,1.0,0.5,error:ConvergenceError,0,nan,nan,nan,nan,,,nan,nan"
    back = read_sweep_csv(str(path))
    assert back[0].status == "error:ConvergenceError"
    assert math.isnan(back[0].ex) and back[0].region is None
    assert (back[1].iters, back[1].ex, back[1].region) == (3, 2.0, 2)
    assert back[1].theta0 is None and back[1].stark == -1.0
    assert math.isnan(back[1].fss)  # column not written: default kept


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "cannot read"),
        ("va,vb,status\n0.0,0.0,ok\n", "missing sweep columns \\['vc'\\]"),
        ("va,vb,vc,bogus\n0.0,0.0,floating,1\n", "unknown sweep columns"),
        # a repeated column is refused, not read with its last value
        ("va,vb,vc,status,va\n1.0,2.0,floating,ok,5.0\n",
         "repeated sweep columns \\['va'\\]"),
        ("va,vb,vc\n0.0,zero,floating\n", "row 2"),
        # a short row is not an ok cell with missing values, and a long
        # row's extra fields are not dropped
        ("va,vb,vc,status,iters,residual,fss\n1.0,2.0,floating\n",
         "row 2 has 3 fields, header has 7"),
        ("va,vb,vc\n0.0,0.0,floating\n1.0,2.0,floating,ok\n",
         "row 3 has 4 fields, header has 3"),
    ],
)
def test_read_sweep_csv_rejects_bad_input(tmp_path, text, message):
    path = tmp_path / "sweep.csv"
    if text is not None:
        path.write_text(text)
    with pytest.raises(TunerError, match=message):
        read_sweep_csv(str(path))


def test_non_utf8_sweep_csv_names_the_file(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"va,vb,vc,status,iters,residual\n0.0,0.0,floating,ok\xff,1,0.0\n")
    with pytest.raises(TunerError, match="latin.csv"):
        read_sweep_csv(str(path))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(
    st.binary(),
    st.binary().map(lambda b: b"va,vb,vc,status,iters,residual,fss\n" + b),
))
def test_any_sweep_csv_bytes_parse_or_raise_tuner_error(tmp_path, blob):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(blob)
    try:
        read_sweep_csv(str(path))
    except TunerError:
        pass


def test_failed_cells_are_recorded_not_dropped(coarse_mesh, default_config):
    # a solver allowed one Newton step fails at forward bias but the sweep
    # still emits one record per cell
    crippled = dataclasses.replace(CFG, max_iters=1)
    spec = dataclasses.replace(
        SPEC,
        va_start=0.0, va_stop=4.0, va_step=2.0,
        vb_start=0.0, vb_stop=4.0, vb_step=2.0,
        vc=None,
    )
    result = run_bias_sweep(
        spec, coarse_mesh, default_config.materials, default_config.exciton, crippled
    )
    assert len(result.records) == 9
    failed = [r for r in result.records if not r.ok]
    assert failed, "expected at least one non-converged cell"
    for rec in failed:
        assert rec.status.startswith("error:")
        assert math.isnan(rec.fss)


def test_cell_after_a_failure_is_a_fresh_cold_solve(
    coarse_mesh, default_config, monkeypatch
):
    # a failed cell drops the row's warm start, so the next cell is bit
    # for bit what a fresh system solves cold
    failing = BiasPoint(1.0, 1.0, None)
    phis = {}  # of the solves on the swept mesh, not those of its coarse starts
    solve = SheetSystem.solve

    def flaky(self, bias, cfg, phi0=None, **kwargs):
        if bias == failing:
            raise ConvergenceError("forced failure")
        sol = solve(self, bias, cfg, phi0, **kwargs)
        if self.mesh is coarse_mesh:
            phis[bias] = sol.phi
        return sol

    monkeypatch.setattr(SheetSystem, "solve", flaky)
    spec = dataclasses.replace(
        SPEC,
        va_start=0.0, va_stop=3.0, va_step=1.0,
        vb_start=1.0, vb_stop=1.0, vb_step=1.0,
    )
    result = run_bias_sweep(
        spec, coarse_mesh, default_config.materials, default_config.exciton, CFG
    )
    assert [r.status for r in result.records] == [
        "ok", "error:ConvergenceError", "ok", "ok"
    ]
    after = BiasPoint(2.0, 1.0, None)
    fresh = solve(SheetSystem(coarse_mesh, default_config.materials), after, CFG)
    assert phis[after].tobytes() == fresh.phi.tobytes()


def test_singular_factor_is_recorded_as_numerical_error(
    coarse_mesh, default_config, monkeypatch
):
    monkeypatch.setattr(solver._lapack(), "dpbtrf", lambda ab, **kwargs: (ab, 1))
    # the zero-bias cell is solved exactly by phi = 0 and needs no factor
    spec = dataclasses.replace(
        SPEC,
        va_start=0.0, va_stop=1.0, va_step=1.0,
        vb_start=0.0, vb_stop=0.0, vb_step=1.0,
    )
    result = run_bias_sweep(
        spec, coarse_mesh, default_config.materials, default_config.exciton, CFG
    )
    assert [r.status for r in result.records] == ["ok", "error:NumericalError"]


def test_tangent_predictor_saves_newton_steps(coarse_mesh, default_config):
    # the same row warm-started from the neighbour's potential alone
    spec = dataclasses.replace(
        SPEC,
        va_start=-1.0, va_stop=6.0, va_step=0.35,
        vb_start=2.0, vb_stop=2.0, vb_step=1.0,
    )
    result = run_bias_sweep(
        spec, coarse_mesh, default_config.materials, default_config.exciton, CFG
    )
    system = SheetSystem(coarse_mesh, default_config.materials)
    phi, plain = None, 0
    for va in spec.va_values():
        sol = system.solve(BiasPoint(float(va), 2.0, None), CFG, phi0=phi)
        phi, plain = sol.phi, plain + sol.newton_iters
    assert all(r.ok for r in result.records)
    assert result.metadata["newton_iters"] == sum(r.iters for r in result.records)
    assert result.metadata["newton_iters"] < plain


def _solve_free(chain, free, x, vc):
    """Solve the chain at voltages ``x`` of the ``free`` terminals, the
    others at (0, 0, vc), as ``find_zero_fss`` does from that start."""
    values = dict(zip(free, map(float, x)))
    return chain.solve(
        BiasPoint(values.get("A", 0.0), values.get("B", 0.0), values.get("C", vc))
    )


@pytest.mark.parametrize("vc", [None, 0.5])
def test_splitting_jacobian_matches_central_differences(coarse_system, default_config, vc):
    params = default_config.exciton
    free = ("A", "B") if vc is None else ("A", "B", "C")
    chain = SolveChain(coarse_system, CFG)

    def splitting(x):
        return np.array(fss_vector(params, _solve_free(chain, free, x, vc).field))

    x = np.array([1.0, 2.0, 0.5][: len(free)])
    splitting(x)
    chain.held = dataclasses.replace(chain.held, factor=None)  # the exact tangent
    jac = _splitting_jacobian(chain, params, free)
    assert jac.shape == (2, len(free))
    h = 1e-4
    fd = np.column_stack([
        (splitting(x + h * e) - splitting(x - h * e)) / (2 * h) for e in np.eye(len(free))
    ])
    assert np.max(np.abs(jac - fd)) <= 1e-4 * np.max(np.abs(fd))


def test_splitting_reuses_the_held_solution(own_system, default_config, monkeypatch):
    chain = SolveChain(own_system, CFG)
    bias = BiasPoint(1.0, 2.0, None)
    first = chain.solve(bias)
    monkeypatch.setattr(own_system, "solve", None)  # any further solve fails
    assert chain.solve(bias) is first
    stale = first.factor.copy()  # from before the solve's last chord steps
    chain.held = dataclasses.replace(first, factor=None)  # the exact tangent
    _splitting_jacobian(chain, default_config.exciton, ("A", "B"))
    # the tangent factors the band exactly at the solution and keeps it
    again = chain.solve(bias)
    exact = SheetSystem._cholesky(own_system.jacobian(first.phi, own_system._contacts(bias)))
    assert again.phi is first.phi
    assert again.factor.tobytes() == exact.tobytes() != stale.tobytes()
    assert chain.newton_iters == first.newton_iters
    assert chain.factorizations == first.factorizations


def _count_factorizations(monkeypatch, nodes=None) -> list[str]:
    """The caller of every ``SheetSystem._cholesky`` call, in call order;
    given ``nodes``, only of the calls on a band of that many nodes."""
    callers = []
    real_cholesky = SheetSystem._cholesky

    def spy(band):
        if nodes is None or band.shape[1] == nodes:
            callers.append(sys._getframe(1).f_code.co_name)
        return real_cholesky(band)

    monkeypatch.setattr(SheetSystem, "_cholesky", staticmethod(spy))
    return callers


def test_warm_row_factors_less_than_once_per_newton_step(
    coarse_mesh, default_config, monkeypatch
):
    callers = _count_factorizations(monkeypatch)
    spec = dataclasses.replace(
        SPEC,
        va_start=-1.0, va_stop=6.0, va_step=0.35,
        vb_start=2.0, vb_stop=2.0, vb_step=1.0,
    )
    result = run_bias_sweep(
        spec, coarse_mesh, default_config.materials, default_config.exciton, CFG
    )
    assert all(r.ok for r in result.records)
    # every factorization is a Newton step's: the predictor only back-solves
    assert set(callers) == {"_newton"}
    assert len(callers) == result.metadata["factorizations"]
    assert result.metadata["factorizations"] < result.metadata["newton_iters"]


def test_solve_without_a_step_keeps_the_chains_factor(coarse_system, monkeypatch):
    chain = SolveChain(coarse_system, CFG)
    first = chain.solve(BiasPoint(2.0, 1.0, None))
    kept = first.factor.copy()
    # a step far below the tolerance: the prediction is already converged
    again = chain.solve(BiasPoint(2.0, 1.0 + 1e-12, None))
    assert again.newton_iters == again.factorizations == 0
    assert again.factor is first.factor and chain.held is again
    assert again.factor.tobytes() == kept.tobytes()
    callers = _count_factorizations(monkeypatch)
    # the prediction back-solves on the kept factor; only Newton factors
    sol = chain.solve(BiasPoint(2.2, 1.0, None))
    assert callers == ["_newton"] * sol.factorizations


@pytest.mark.parametrize("vc", [None, 0.5])
def test_splitting_jacobian_at_a_held_seed_factors_once(
    coarse_system, default_config, monkeypatch, vc
):
    free = ("A", "B") if vc is None else ("A", "B", "C")
    chain = SolveChain(coarse_system, CFG)
    x = np.array([1.0, 2.0, 0.5][: len(free)])
    sol = _solve_free(chain, free, x, vc)
    # the chain holds a potential alone, with no band factor
    chain.held = dataclasses.replace(sol, factor=None)
    callers = _count_factorizations(monkeypatch)
    _splitting_jacobian(chain, default_config.exciton, free)
    assert callers == ["tangent"]
    assert chain.held.factor is not None
    # the next prediction back-solves on that factor and factors nothing
    after = _solve_free(chain, free, x + 0.1, vc)
    assert callers == ["tangent"] + ["_newton"] * after.factorizations


# no intrinsic splitting, pure in-plane coupling: the splitting vanishes
# exactly where the in-plane field does
CONSTRUCTED_ZERO = ExcitonParams(
    zero_field_energy=1.34,
    zero_field_splitting=(0.0, 0.0),
    inplane_coupling=((5e-2, 0.0), (0.0, 5e-2)),
    vertical_coupling=(0.0, 0.0),
    dipole=0.0,
    polarizability=0.0,
)


def _find_constructed_zero(mesh):
    return find_zero_fss(
        BiasPoint(0.0, 0.0, None),
        ("A", "B"),
        tol=0.05,
        mesh=mesh,
        materials=laplace_materials(),
        exciton_params=CONSTRUCTED_ZERO,
        cfg=CFG,
        bounds=(-1.0, 3.0),
    )


def test_constructed_zero_found(coarse_mesh):
    result = _find_constructed_zero(coarse_mesh)
    assert result.converged
    assert result.achieved_fss < 0.05
    # it ends on the (-1, -1) V corner, on the line of zeros V_A = V_B
    assert result.status == "zero"


def _fail_solves(monkeypatch, fails) -> None:
    """``SolveChain.solve`` raises ConvergenceError where ``fails(chain, bias)``."""
    real_solve = SolveChain.solve

    def solve(self, bias, phi0=None):
        if fails(self, bias):
            raise ConvergenceError("forced failure")
        return real_solve(self, bias, phi0)

    monkeypatch.setattr(SolveChain, "solve", solve)


def _record_runs(monkeypatch) -> list:
    """Every projected Newton run, in call order: its ``start``, ``coarse``
    (a run on the seed mesh, the one given its start value), ``evals`` of
    its ``fun`` and ``finished``, None while the run goes on and False once
    it raised."""
    runs = []
    real_projected_newton = tuner._projected_newton

    def spy(fun, jac, x0, lo, hi, **kwargs):
        run = SimpleNamespace(
            start=tuple(x0.tolist()), coarse=kwargs.get("f0") is not None,
            evals=0, finished=None,
        )
        runs.append(run)

        def counted(x):
            run.evals += 1
            return fun(x)

        try:
            result = real_projected_newton(counted, jac, x0, lo, hi, **kwargs)
        except SolverError:
            run.finished = False
            raise
        run.finished = True
        return result

    monkeypatch.setattr(tuner, "_projected_newton", spy)
    return runs


def test_seeds_whose_solve_fails_are_skipped(coarse_mesh, monkeypatch):
    # the seed grid is (-1, 1, 3) V per axis; the V_A = 1 V column fails
    _fail_solves(
        monkeypatch, lambda chain, bias: chain.system.mesh is not coarse_mesh
        and bias.v_a == 1.0,
    )
    runs = _record_runs(monkeypatch)
    result = _find_constructed_zero(coarse_mesh)
    # each seed's run starts on the seed mesh at the seed
    assert runs and runs[0].coarse
    assert all(run.start[0] != 1.0 for run in runs if run.coarse)
    assert result.converged


def test_with_every_seed_failed_the_first_seed_is_reported(coarse_mesh, monkeypatch):
    _fail_solves(monkeypatch, lambda chain, bias: chain.system.mesh is not coarse_mesh)
    runs = _record_runs(monkeypatch)
    result = _find_constructed_zero(coarse_mesh)
    # nothing is refined; the low corner is solved on the caller's mesh,
    # where V_A = V_B with C floating leaves no in-plane field
    assert runs == []
    assert result.bias == (-1.0, -1.0, None)
    assert result.achieved_fss < 0.05


def test_a_refinement_run_that_fails_is_skipped(coarse_mesh, monkeypatch):
    runs = _record_runs(monkeypatch)
    # every solve of the first refinement run, on the caller's mesh, fails
    _fail_solves(
        monkeypatch, lambda chain, bias: chain.system.mesh is coarse_mesh
        and len(runs) == 2 and runs[1].finished is None,
    )
    result = _find_constructed_zero(coarse_mesh)
    assert runs[0].coarse and runs[0].finished
    assert not runs[1].coarse and runs[1].finished is False
    # the next seed is run on the seed mesh and refined
    assert [run.coarse for run in runs[2:4]] == [True, False]
    assert all(run.finished for run in runs[2:])
    assert result.converged


def test_failed_probe_solves_leave_the_crossing_unverified(coarse_mesh, monkeypatch):
    runs = _record_runs(monkeypatch)
    after = []  # biases asked of the caller's mesh once a refinement has finished

    def probing(chain, bias):
        if chain.system.mesh is not coarse_mesh or not runs:
            return False
        if runs[-1].coarse or not runs[-1].finished:
            return False
        after.append(bias)
        return len(after) > 1  # the probe may be clipped onto the optimum's bias

    _fail_solves(monkeypatch, probing)
    result = _find_constructed_zero(coarse_mesh)
    # the first refinement ends the search: the optimum is solved, its first
    # probe fails and the second is not tried
    assert [run.coarse for run in runs] == [True, False]
    assert len(after) == 2
    assert result.bias == (after[0].v_a, after[0].v_b, None)
    assert result.converged
    assert result.theta_before is None and result.theta_after is None
    assert result.rotation is None and not result.crossing_verified


AFFINE_COUPLING = ExcitonParams(
    zero_field_energy=1.34,
    zero_field_splitting=(0.0, 0.0),
    inplane_coupling=((4e-2, 1e-2), (-5e-3, 3e-2)),
    vertical_coupling=(-1.2e-6, 5e-7),
    dipole=0.0,
    polarizability=0.0,
)


def _delta_at(system, params, va, vb):
    sol = system.solve(BiasPoint(va, vb, None), CFG)
    return np.array(fss_vector(params, sol.field))


def _affine_chain(system):
    """(c, J) of the splitting map delta(V) = c + J (V_A, V_B) under
    ``AFFINE_COUPLING``, sampled at three biases (junction off)."""
    d00 = _delta_at(system, AFFINE_COUPLING, 0.0, 0.0)
    d10 = _delta_at(system, AFFINE_COUPLING, 1.0, 0.0)
    d01 = _delta_at(system, AFFINE_COUPLING, 0.0, 1.0)
    return d00, np.column_stack([d10 - d00, d01 - d00])


def test_affine_chain_matches_inversion_oracle(coarse_mesh):
    """With the junction off the field is affine in (V_A, V_B); the zero of
    the composed affine map is computed by direct inversion and the tuner
    must find it."""
    materials = laplace_materials()
    system = SheetSystem(coarse_mesh, materials)
    d00, jac = _affine_chain(system)
    target = np.array([1.8, 2.6])
    offset = -(d00 + jac @ target)  # choose delta0 so the zero sits at target
    params = dataclasses.replace(
        AFFINE_COUPLING, zero_field_splitting=(offset[0], offset[1])
    )
    # oracle: invert the sampled affine map for the new zero-field splitting
    v_star = np.linalg.solve(jac, -(d00 + offset))
    assert np.allclose(v_star, target, atol=1e-8)
    assert np.linalg.norm(_delta_at(system, params, *v_star)) < 1e-9

    result = find_zero_fss(
        BiasPoint(0.0, 0.0, None),
        ("A", "B"),
        tol=0.1,
        mesh=coarse_mesh,
        materials=materials,
        exciton_params=params,
        cfg=CFG,
        bounds=(-1.0, 4.0),
    )
    assert result.converged
    assert result.achieved_fss < 0.1
    assert abs(result.bias[0] - v_star[0]) < 0.1
    assert abs(result.bias[1] - v_star[1]) < 0.1


def test_single_free_terminal_reaches_least_squares_minimum(coarse_mesh):
    """One free terminal cannot cancel both splitting components: the search
    must stop at the closed-form minimiser of |c + J0 V_A + J1 V_B|."""
    materials = laplace_materials()
    c, jac = _affine_chain(SheetSystem(coarse_mesh, materials))
    j0, j1 = jac[:, 0], jac[:, 1]
    vb = 2.0
    va_star = -j0 @ (c + j1 * vb) / (j0 @ j0)
    result = find_zero_fss(
        BiasPoint(0.0, vb, None),
        ("A",),
        tol=0.05,
        mesh=coarse_mesh,
        materials=materials,
        exciton_params=AFFINE_COUPLING,
        cfg=CFG,
        bounds=(-1.0, 4.0),
    )
    assert result.bias[1] == vb
    assert abs(result.bias[0] - va_star) < 0.05
    residual = np.linalg.norm(c + j0 * va_star + j1 * vb)
    assert result.achieved_fss == pytest.approx(residual, abs=1e-3)
    assert not result.converged


def test_tuner_never_claims_convergence_above_tol(coarse_mesh):
    # constant splitting far above tolerance: search must report failure
    params = ExcitonParams(
        zero_field_energy=1.34,
        zero_field_splitting=(40.0, 0.0),
        inplane_coupling=((0.0, 0.0), (0.0, 0.0)),
        vertical_coupling=(0.0, 0.0),
        dipole=0.0,
        polarizability=0.0,
    )
    result = find_zero_fss(
        BiasPoint(0.0, 0.0, None),
        ("A", "B"),
        tol=1.0,
        mesh=coarse_mesh,
        materials=laplace_materials(),
        exciton_params=params,
        cfg=CFG,
        bounds=(-1.0, 3.0),
    )
    assert not result.converged
    assert result.achieved_fss == pytest.approx(40.0, rel=1e-6)


def _record_newton_steps(monkeypatch) -> list[tuple]:
    """(mesh, Newton steps) of every successful ``SheetSystem.solve``, in call order."""
    steps = []
    real_solve = SheetSystem.solve

    def spy(self, *args, **kwargs):
        sol = real_solve(self, *args, **kwargs)
        steps.append((self.mesh, sol.newton_iters))
        return sol

    monkeypatch.setattr(SheetSystem, "solve", spy)
    return steps


def _tune_default(coarse_mesh, default_config, exciton_params=None):
    return find_zero_fss(
        BiasPoint(0.0, 0.0, default_config.sweep.vc),
        ("A", "B"),
        tol=1.5,
        mesh=coarse_mesh,
        materials=default_config.materials,
        exciton_params=exciton_params or default_config.exciton,
        cfg=default_config.solver,
        bounds=default_config.sweep.tune_bounds(),
    )


def test_tune_newton_iters_totals_every_solve(coarse_mesh, default_config, monkeypatch):
    steps = _record_newton_steps(monkeypatch)
    result = _tune_default(coarse_mesh, default_config)
    assert result.converged
    assert result.newton_iters == sum(n for _, n in steps) > 0
    coarse = sum(n for mesh, n in steps if mesh is not coarse_mesh)
    assert result.coarse_newton_iters == coarse > 0
    report = result.to_dict()
    assert report["newton_iters"] == result.newton_iters
    assert report["coarse_newton_iters"] == result.coarse_newton_iters


def test_tune_iterations_split_between_the_meshes(coarse_mesh, default_config, monkeypatch):
    """``coarse_iterations`` counts the nine seed evaluations and those of the
    runs on the seed mesh; the rest of ``iterations`` are the refinements'."""
    runs = _record_runs(monkeypatch)
    result = _tune_default(coarse_mesh, default_config)
    assert result.converged
    coarse = sum(run.evals for run in runs if run.coarse)
    fine = sum(run.evals for run in runs if not run.coarse)
    assert result.coarse_iterations == 9 + coarse
    assert result.iterations - result.coarse_iterations == fine > 0
    assert result.to_dict()["coarse_iterations"] == result.coarse_iterations


def test_seeds_are_ranked_on_three_times_the_edge_and_refined_on_the_mesh(
    coarse_mesh, default_config, monkeypatch
):
    """The seed grid solves on a mesh of three times the caller's edge.  Each
    seed's run then starts on that mesh from the seed's own potential, and
    the refinement on the caller's mesh that follows starts at the run's end
    point, whose solve there, made just before it, starts from the coarse
    potential at that point interpolated onto the mesh.  Solves on the seed
    mesh belong to the seed grid and the coarse runs, every other solve to
    the caller's mesh."""
    solves = []  # (mesh, bias, phi0, phi) of every SheetSystem.solve, in order
    real_solve = SheetSystem.solve

    def spy_solve(self, bias, cfg, phi0=None, **kwargs):
        sol = real_solve(self, bias, cfg, phi0=phi0, **kwargs)
        solves.append((self.mesh, bias, phi0, sol.phi))
        return sol

    runs = []  # (solves made before the run started, its start x0, coarse)
    real_projected_newton = tuner._projected_newton

    def spy_projected_newton(fun, jac, x0, lo, hi, **kwargs):
        runs.append((len(solves), tuple(x0.tolist()), "f0" in kwargs))
        return real_projected_newton(fun, jac, x0, lo, hi, **kwargs)

    monkeypatch.setattr(SheetSystem, "solve", spy_solve)
    monkeypatch.setattr(tuner, "_projected_newton", spy_projected_newton)
    result = _tune_default(coarse_mesh, default_config)
    assert result.converged
    seed_phase = solves[:9]
    seed_mesh = seed_phase[0][0]
    assert seed_mesh.target_edge == 3.0 * coarse_mesh.target_edge
    assert all(m is seed_mesh for m, *_ in seed_phase)
    seed_phi = {bias: phi for _, bias, _, phi in seed_phase}
    grid_mesh, prolongation = device.coarse_grid(coarse_mesh)
    assert grid_mesh is seed_mesh
    # runs pair up: one on the seed mesh, then its refinement
    assert runs and [coarse for *_, coarse in runs] == [True, False] * (len(runs) // 2)
    assert runs[0][0] == 10  # the first run's start is the first solve after the seeds
    marks = [mark for mark, *_ in runs] + [len(solves) + 1]
    for (mark, x0, coarse), end in zip(runs, marks[1:]):
        mesh, bias, phi0, phi = solves[mark - 1]
        assert (bias.v_a, bias.v_b) == x0
        if coarse:
            # given the seed's solution: the solve takes no step
            assert mesh is seed_mesh and phi0 is seed_phi[bias]
            np.testing.assert_array_equal(phi, phi0)
        else:
            last = [phi for m, b, _, phi in solves[: mark - 1] if m is seed_mesh and b == bias]
            assert mesh is coarse_mesh and last
            np.testing.assert_array_equal(phi0, prolongation @ last[-1])
        # every solve until the next run's start is on the run's mesh
        assert all(m is mesh for m, *_ in solves[mark - 1 : end - 1])


def test_search_zero_is_the_zero_of_a_run_on_the_mesh_alone(coarse_mesh, default_config):
    """Oracle: the one-grid flow, a projected Newton run on the caller's mesh
    alone from the seed the search refined, lands on the search's zero
    within 1e-8 V on the default calibration at 2 um."""
    runs = []
    real_projected_newton = tuner._projected_newton

    def spy(fun, jac, x0, lo, hi, **kwargs):
        runs.append((x0, "f0" in kwargs))
        return real_projected_newton(fun, jac, x0, lo, hi, **kwargs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(tuner, "_projected_newton", spy)
        result = _tune_default(coarse_mesh, default_config)
    assert result.converged and result.status == "zero"
    seed = [x0 for x0, coarse in runs if coarse][-1]

    params, free = default_config.exciton, ("A", "B")
    chain = SolveChain(SheetSystem(coarse_mesh, default_config.materials), CFG)

    def bias_at(x):
        return BiasPoint(float(x[0]), float(x[1]), default_config.sweep.vc)

    def fun(x):
        return np.array(fss_vector(params, chain.solve(bias_at(x)).field))

    def jac(x):
        chain.solve(bias_at(x))
        return _splitting_jacobian(chain, params, free)

    x, f, _ = real_projected_newton(fun, jac, seed, *default_config.sweep.tune_bounds())
    assert np.linalg.norm(f) < 0.25 * 1.5
    assert np.abs(np.array(result.bias[:2]) - x).max() <= 1e-8


def test_interpolated_start_saves_fine_factorizations(
    default_mesh, default_config, monkeypatch
):
    """On the default calibration and mesh the first solve on the mesh takes
    at most 2 factorizations, and the search's solves there fewer than the
    13 they took when that first solve started cold (6 of them in it)."""
    factorizations = []  # of every solve on the caller's mesh, in order
    real_solve = SheetSystem.solve

    def spy_solve(self, bias, cfg, phi0=None, **kwargs):
        sol = real_solve(self, bias, cfg, phi0=phi0, **kwargs)
        if self.mesh is default_mesh:
            factorizations.append(sol.factorizations)
        return sol

    monkeypatch.setattr(SheetSystem, "solve", spy_solve)
    result = _tune_default(default_mesh, default_config)
    assert result.converged and result.crossing_verified
    assert factorizations[0] <= 2
    assert sum(factorizations) < 13


def test_seeds_are_solved_in_ascending_drive(default_mesh, default_config, monkeypatch):
    """The nine seed solves, the first on the seed mesh, come in ascending
    V_A + V_B, ties in product order, so each is predicted from a seed of
    lower drive.  On the default calibration they take at most 19
    factorizations (33 in product order)."""
    seed_solves = []  # (bias, factorizations) of every seed-mesh solve
    real_solve = SheetSystem.solve

    def spy_solve(self, bias, cfg, phi0=None, **kwargs):
        sol = real_solve(self, bias, cfg, phi0=phi0, **kwargs)
        if self.mesh is not default_mesh:
            seed_solves.append((bias, sol.factorizations))
        return sol

    monkeypatch.setattr(SheetSystem, "solve", spy_solve)
    result = _tune_default(default_mesh, default_config)
    assert result.converged
    axis = np.linspace(*default_config.sweep.tune_bounds(), tuner._GRID_POINTS)
    expected = sorted(itertools.product(axis, repeat=2), key=sum)
    seeds = seed_solves[:9]
    assert [(b.v_a, b.v_b) for b, _ in seeds] == [tuple(e) for e in expected]
    assert sum(n for _, n in seeds) <= 19


def test_chord_splitting_jacobian_is_near_the_exact_one(
    coarse_mesh, default_config, monkeypatch
):
    """The search's splitting Jacobian, a back-solve on the held band factor,
    is within 1e-2 in relative 2-norm of the exact one at every accepted
    point of the default search on the 2 um mesh, on both meshes; the first
    Jacobian of a run on the seed mesh, held without a factor, is the exact
    one.  Measured there: at most 1.5e-3 over the 28 chord Jacobians of the
    default search and eight dots with each splitting component scaled by
    0.8, 1 or 1.2 (1.6e-3 over 27 at 1 um)."""
    errors, exact_firsts = [], []
    real_jacobian = tuner._splitting_jacobian

    def spy(chain, params, free):
        if chain.held.factor is None:  # the exact tangent
            exact_firsts.append(chain.system.mesh)
            return real_jacobian(chain, params, free)
        jac = real_jacobian(chain, params, free)
        # the exact Jacobian at the same potential, on a chain of its own
        exact_chain = SolveChain(chain.system, chain.cfg)
        exact_chain.held = dataclasses.replace(chain.held, factor=None)
        exact = real_jacobian(exact_chain, params, free)
        errors.append(np.linalg.norm(jac - exact, 2) / np.linalg.norm(exact, 2))
        return jac

    monkeypatch.setattr(tuner, "_splitting_jacobian", spy)
    result = _tune_default(coarse_mesh, default_config)
    assert result.converged and result.crossing_verified
    assert exact_firsts and all(m is not coarse_mesh for m in exact_firsts)
    assert errors and 0.0 < max(errors) <= 1e-2


def _record_tangents(monkeypatch) -> list:
    """The mesh of every ``SolveChain.tangent`` call, in call order."""
    meshes = []
    real_tangent = SolveChain.tangent

    def spy(self, dv):
        meshes.append(self.system.mesh)
        return real_tangent(self, dv)

    monkeypatch.setattr(SolveChain, "tangent", spy)
    return meshes


def test_default_search_factors_no_tangent(default_mesh, default_config, monkeypatch):
    """On the default calibration and mesh every splitting Jacobian there is
    a back-solve on the factor the fine chain holds: the search factors only
    in its solves there, at most twice (measured once; 5 when each run went
    all the way on the mesh, 9 with the exact tangent).  The exact tangents
    are the first Jacobians of the runs on the seed mesh, one per run."""
    tangents = _record_tangents(monkeypatch)
    runs = _record_runs(monkeypatch)
    fine = _count_factorizations(monkeypatch, nodes=default_mesh.n_nodes)
    result = _tune_default(default_mesh, default_config)
    assert result.converged and result.crossing_verified
    assert result.status == "zero" and result.iterations <= 16
    assert default_mesh not in tangents
    assert len(tangents) == sum(run.coarse for run in runs) > 0
    assert fine and set(fine) == {"_newton"} and len(fine) <= 2


def test_search_factors_a_tangent_only_where_no_factor_is_held(
    coarse_mesh, default_config, monkeypatch
):
    """With each run's start held without a factor, the run's first Jacobian
    is the exact tangent, which leaves the factor its later ones back-solve
    on.  A run on the seed mesh starts so by itself; a refinement is made to."""
    starts, tangents = [], []
    real_solve, real_tangent = SolveChain.solve, SolveChain.tangent

    def spy_solve(self, bias, phi0=None):
        sol = real_solve(self, bias, phi0)
        # a run's start: on the seed mesh from the seed's potential, on the
        # caller's mesh from the coarse one interpolated; and the search's
        # first solve, the seed chain's, given zeros
        if phi0 is not None:
            if self.system.mesh is coarse_mesh:
                self.held = sol = dataclasses.replace(sol, factor=None)
            starts.append(bias)
        return sol

    def spy_tangent(self, dv):
        tangents.append((self.held.bias, self.held.factor is None))
        return real_tangent(self, dv)

    monkeypatch.setattr(SolveChain, "solve", spy_solve)
    monkeypatch.setattr(SolveChain, "tangent", spy_tangent)
    result = _tune_default(coarse_mesh, default_config)
    assert result.converged and result.crossing_verified
    assert len(starts) >= 3  # the seed chain's first, a run and its refinement
    assert tangents == [(bias, True) for bias in starts[1:]]


@pytest.fixture(scope="module")
def default_mesh(default_config):
    return generate_mesh(default_config.geometry, default_config.mesh_edge)


def _barycentric(points: np.ndarray, tri: np.ndarray) -> np.ndarray:
    """(n_points, n_cells, 3) barycentric coordinates of each point in each triangle."""
    a = tri[:, 0]
    edges = np.stack([tri[:, 1] - a, tri[:, 2] - a], axis=-1)  # (cells, 2, 2)
    l12 = np.linalg.solve(edges, (points[:, None, :] - a)[..., None])[..., 0]
    return np.concatenate([1.0 - l12.sum(axis=-1, keepdims=True), l12], axis=-1)


def _distance_to_triangles(point: np.ndarray, tri: np.ndarray) -> np.ndarray:
    """Distance from one point outside every triangle to each triangle's edges."""
    best = np.full(len(tri), np.inf)
    for i in range(3):
        a, b = tri[:, i], tri[:, (i + 1) % 3]
        t = np.einsum("ij,ij->i", point - a, b - a) / np.sum((b - a) ** 2, axis=1)
        gap = point - a - np.clip(t, 0.0, 1.0)[:, None] * (b - a)
        best = np.minimum(best, np.linalg.norm(gap, axis=1))
    return best


@pytest.mark.parametrize(
    "mesh_fixture, n_outside", [("coarse_mesh", 8), ("default_mesh", 16)]
)
def test_prolongation_interpolates_the_seed_mesh(request, mesh_fixture, n_outside):
    """The P1 interpolation onto the 2 um test mesh (seeds on 6 um) and the
    default 1 um mesh (3 um): exact on linear fields inside the seed mesh,
    clamped weights of the nearest cell outside it, every row a partition
    of unity, the QD on the seed QD, built once per mesh."""
    mesh = request.getfixturevalue(mesh_fixture)
    seed_mesh, prolongation = device.coarse_grid(mesh)
    assert seed_mesh.target_edge == device._COARSE_EDGE_FACTOR * mesh.target_edge
    assert device.coarse_grid(mesh)[1] is prolongation
    weights = prolongation.toarray()
    assert weights.shape == (mesh.n_nodes, seed_mesh.n_nodes)
    assert np.all(weights >= 0.0)
    assert np.all(np.abs(weights.sum(axis=1) - 1.0) <= 4e-16)
    assert weights[mesh.qd_node, seed_mesh.qd_node] == 1.0
    assert np.count_nonzero(weights[mesh.qd_node]) == 1

    tri = seed_mesh.nodes[seed_mesh.cells]
    lam = _barycentric(mesh.nodes, tri)
    inside = np.any(lam.min(axis=2) >= -1e-12, axis=1)
    assert np.count_nonzero(~inside) == n_outside
    linear = 0.3 + np.array([1.7, -0.9]) @ seed_mesh.nodes.T
    exact = 0.3 + np.array([1.7, -0.9]) @ mesh.nodes.T
    scale = np.abs(exact).max()
    assert np.all(np.abs(prolongation @ linear - exact)[inside] <= 1e-14 * scale)

    for node in np.flatnonzero(~inside):
        cell = np.argmin(_distance_to_triangles(mesh.nodes[node], tri))
        clamped = np.clip(lam[node, cell], 0.0, None)
        expected = np.zeros(seed_mesh.n_nodes)
        expected[seed_mesh.cells[cell]] = clamped / clamped.sum()
        np.testing.assert_allclose(weights[node], expected, rtol=0, atol=1e-14)


def _seed_norms(mesh, config, params) -> np.ndarray:
    """|delta| at each point of the seed grid, solved in grid order on ``mesh``."""
    lo, hi = config.sweep.tune_bounds()
    axis = np.linspace(lo, hi, tuner._GRID_POINTS)
    chain = SolveChain(SheetSystem(mesh, config.materials), config.solver)
    return np.array([
        math.hypot(*fss_vector(params, chain.solve(BiasPoint(va, vb, config.sweep.vc)).field))
        for va, vb in itertools.product(axis, repeat=2)
    ])


@pytest.mark.parametrize(
    "scale, same_order",
    [((1.0, 1.0), False), ((0.8, 0.8), True), ((0.8, 1.2), True),
     ((1.2, 0.8), True), ((1.2, 1.2), True)],
)
def test_seed_mesh_ranks_the_seeds_as_the_default_mesh_does(
    default_config, default_mesh, scale, same_order
):
    """On the default 1 um mesh the seed mesh picks the same best seed, and
    each of its top ``_N_STARTS`` seeds is within 0.5 % of the seed of the
    same rank on the 1 um mesh.  Only the default calibration swaps two
    seeds, its third and fourth, whose 1 um norms lie 0.2 % apart (a mesh
    of twice the edge swaps them too); its search ends after one run."""
    d0 = default_config.exciton.zero_field_splitting
    params = dataclasses.replace(
        default_config.exciton, zero_field_splitting=(d0[0] * scale[0], d0[1] * scale[1])
    )
    seed_mesh = generate_mesh(
        default_mesh.geometry, device._COARSE_EDGE_FACTOR * default_mesh.target_edge
    )
    fine = _seed_norms(default_mesh, default_config, params)
    coarse = _seed_norms(seed_mesh, default_config, params)
    top = tuner._N_STARTS
    fine_order = np.argsort(fine, kind="stable")[:top]
    coarse_order = np.argsort(coarse, kind="stable")[:top]
    assert coarse_order[0] == fine_order[0]
    assert np.all(fine[coarse_order] <= 1.005 * fine[fine_order])
    if same_order:
        assert np.array_equal(coarse_order, fine_order)


@pytest.mark.parametrize(
    "zero_field, bounds, status",
    [
        # the dot whose search ends on the V_B = -1 V bound
        ((10.29, 1.95), (-1.0, 6.0), "bound_minimum"),
        # the default zero, near (0.428, 0.428) V, 0.022 V inside the upper
        # bound: the probe 0.05 V along the diagonal approach would cross it
        (None, (-1.0, 0.45), "zero"),
    ],
)
def test_eigenaxis_probes_stay_inside_the_window(
    coarse_mesh, default_config, monkeypatch, zero_field, bounds, status
):
    biases = []
    real_solve = SheetSystem.solve

    def spy_solve(self, bias, cfg, phi0=None, **kwargs):
        biases.append(bias)
        return real_solve(self, bias, cfg, phi0=phi0, **kwargs)

    monkeypatch.setattr(SheetSystem, "solve", spy_solve)
    params = default_config.exciton
    if zero_field is not None:
        params = dataclasses.replace(params, zero_field_splitting=zero_field)
    result = find_zero_fss(
        BiasPoint(0.0, 0.0, default_config.sweep.vc), ("A", "B"), tol=1.5,
        mesh=coarse_mesh, materials=default_config.materials,
        exciton_params=params, cfg=default_config.solver, bounds=bounds,
    )
    assert result.status == status
    assert result.crossing_verified == (status == "zero")
    lo, hi = bounds
    assert biases and all(lo <= v <= hi for b in biases for v in (b.v_a, b.v_b))


@pytest.mark.parametrize("scale_a", [0.8, 1.0, 1.2])
@pytest.mark.parametrize("scale_b", [0.8, 1.0, 1.2])
def test_dots_around_the_default_converge_and_cross(
    coarse_mesh, default_config, scale_a, scale_b
):
    d0 = default_config.exciton.zero_field_splitting
    params = dataclasses.replace(
        default_config.exciton, zero_field_splitting=(d0[0] * scale_a, d0[1] * scale_b)
    )
    result = _tune_default(coarse_mesh, default_config, params)
    assert result.converged and result.crossing_verified, result
    assert result.status == "zero"


def test_a_minimum_on_the_window_edge_is_not_crossing_verified(
    coarse_mesh, default_config
):
    # the dot docs/formats.md names: a minimum on the V_B = -1 V bound, not a zero
    params = dataclasses.replace(
        default_config.exciton, zero_field_splitting=(10.29, 1.95)
    )
    result = _tune_default(coarse_mesh, default_config, params)
    assert result.converged and result.bias[1] == -1.0, result
    assert result.rotation < 0.5 * math.pi - 0.1
    assert not result.crossing_verified
    assert result.status == "bound_minimum"
    assert result.to_dict()["status"] == "bound_minimum"


class _Counted:
    """``fun`` with a count of its evaluations."""

    def __init__(self, fun):
        self.fun, self.evals = fun, 0

    def __call__(self, x):
        self.evals += 1
        return np.asarray(self.fun(x), dtype=float)


def test_projected_newton_solves_an_affine_square_map_exactly():
    a = np.array([[2.0, 1.0], [-1.0, 3.0]])
    c = np.array([-4.0, 5.0])
    fun = _Counted(lambda x: a @ x + c)
    x, f, active = tuner._projected_newton(fun, lambda x: a, [0.5, 0.5], -5.0, 5.0)
    assert np.allclose(x, np.linalg.solve(a, -c), rtol=0, atol=1e-14)
    assert np.max(np.abs(f)) <= 1e-14
    assert active.tolist() == [0, 0]
    # the start, then one full step; the step predicted after it is zero
    assert fun.evals == 2


def test_projected_newton_with_one_variable_reaches_the_least_squares_minimum():
    j = np.array([[2.0], [1.0]])
    c = np.array([-3.0, 1.0])
    fun = _Counted(lambda x: j @ x + c)
    x, f, active = tuner._projected_newton(fun, lambda x: j, [0.0], -5.0, 5.0)
    x_star = -(j[:, 0] @ c) / (j[:, 0] @ j[:, 0])  # 1.0
    assert x[0] == pytest.approx(x_star, abs=1e-14)
    assert np.linalg.norm(f) == pytest.approx(np.linalg.norm(j[:, 0] * x_star + c))
    assert active.tolist() == [0]
    assert fun.evals == 2


def test_projected_newton_holds_a_variable_on_the_bound_its_zero_lies_beyond():
    # the zero is at (1, -2), below the lower bound of x1: x1 is held on
    # -1 and x0 minimises |fun| alone, at 1 exactly (fun is decoupled)
    fun = _Counted(lambda x: (x[0] - 1.0, x[1] + 2.0))
    x, f, active = tuner._projected_newton(
        fun, lambda x: np.eye(2), [0.0, 0.0], -1.0, 3.0
    )
    assert x.tolist() == [1.0, -1.0]
    assert f.tolist() == [0.0, 1.0]
    assert active.tolist() == [0, -1]
    # the start, the step clipped onto the bound; then x1 is held, x0 is
    # already at its minimum and the step is zero
    assert fun.evals == 2


def test_projected_newton_stops_at_once_on_a_constant_map():
    fun = _Counted(lambda x: (40.0, 0.0))
    x, f, active = tuner._projected_newton(
        fun, lambda x: np.zeros((2, 2)), [0.5, 7.0], -1.0, 3.0
    )
    assert x.tolist() == [0.5, 3.0]  # the start, clipped to the bounds
    assert f.tolist() == [40.0, 0.0]
    assert active.tolist() == [0, 0]
    assert fun.evals == 1


def test_projected_newton_converges_on_a_nonlinear_map():
    fun = _Counted(lambda x: (x[0] ** 2 - 2.0, x[1] - 1.0))
    x, f, active = tuner._projected_newton(
        fun, lambda x: np.array([[2.0 * x[0], 0.0], [0.0, 1.0]]), [3.0, 0.0], 0.0, 4.0
    )
    assert x == pytest.approx([math.sqrt(2.0), 1.0], abs=1e-12)
    assert np.linalg.norm(f) <= 1e-12
    assert active.tolist() == [0, 0]
    # quadratic convergence from 3: one evaluation per Newton step
    assert fun.evals == 6


def test_projected_newton_stops_on_a_map_that_never_decreases():
    # every trial point evaluates higher than the start: the step halves
    # until it falls below its floor, and the run returns the start
    fun = _Counted(lambda x: (1.0 + np.linalg.norm(x - 0.25), 0.0))
    x, f, active = tuner._projected_newton(
        fun, lambda x: np.eye(2), [0.25, 0.25], -1.0, 3.0
    )
    assert x.tolist() == [0.25, 0.25] and f.tolist() == [1.0, 0.0]
    halvings = int(math.log2(1.0 / tuner._MIN_STEP_FRACTION)) + 1
    assert fun.evals == 1 + halvings <= tuner._MAX_EVALS


def test_projected_newton_stops_within_its_evaluation_cap():
    # a Jacobian 100 times too steep: every step is accepted but covers 1 %
    # of the way, so only the cap ends the run
    fun = _Counted(lambda x: x - 2.0)
    x, f, active = tuner._projected_newton(
        fun, lambda x: 100.0 * np.eye(2), [0.0, 0.0], -1.0, 3.0
    )
    assert fun.evals == tuner._MAX_EVALS
    assert np.all((0.0 < x) & (x < 2.0)) and np.all(f == x - 2.0)


def test_projected_newton_stops_once_fun_is_within_its_target():
    # the nonlinear map above, which takes 6 evaluations to its zero: |fun|
    # is 7.07 at the start, 1.36 after one step and 0.14 after two
    fun = _Counted(lambda x: (x[0] ** 2 - 2.0, x[1] - 1.0))
    x, f, _ = tuner._projected_newton(
        fun, lambda x: np.array([[2.0 * x[0], 0.0], [0.0, 1.0]]), [3.0, 0.0],
        0.0, 4.0, target=0.5,
    )
    assert fun.evals == 3
    assert 0.1 < np.linalg.norm(f) <= 0.5
    assert np.array_equal(f, fun(x))
    # a start within the target takes no Jacobian and no step
    fun.evals = 0
    x, f, _ = tuner._projected_newton(fun, None, [1.5, 1.0], 0.0, 4.0, target=0.5)
    assert x.tolist() == [1.5, 1.0] and fun.evals == 1


def test_projected_newton_given_its_start_value_does_not_evaluate_it():
    a = np.array([[2.0, 1.0], [-1.0, 3.0]])
    c = np.array([-4.0, 5.0])
    points = []

    def fun(x):
        points.append(x.tolist())
        return a @ x + c

    x0 = np.array([0.5, 0.5])
    x, f, _ = tuner._projected_newton(fun, lambda x: a, x0, -5.0, 5.0, f0=a @ x0 + c)
    assert np.allclose(x, np.linalg.solve(a, -c), rtol=0, atol=1e-14)
    assert points == [x.tolist()]  # the full step alone
    # the first step is taken from the value given, even a wrong one
    points.clear()
    tuner._projected_newton(fun, lambda x: a, x0, -5.0, 5.0, f0=a @ x0 + 2.0 * c)
    assert np.allclose(points[0], x0 - np.linalg.solve(a, a @ x0 + 2.0 * c))


def test_find_zero_input_validation(coarse_mesh, default_config):
    with pytest.raises(ValueError):
        find_zero_fss(
            BiasPoint(0.0, 0.0, None), (), 1.0,
            coarse_mesh, default_config.materials, default_config.exciton,
            CFG, (-1.0, 4.0),
        )
    with pytest.raises(ValueError):
        find_zero_fss(
            BiasPoint(0.0, 0.0, None), ("C",), 1.0,
            coarse_mesh, default_config.materials, default_config.exciton,
            CFG, (-1.0, 4.0),
        )


@pytest.mark.parametrize(
    "bounds",
    [(3.0, 1.0), (0.0, 0.0), (-math.inf, 1.0), (0.0, math.nan), (-2e3, 1.0), (0.0, 1e8)],
)
def test_find_zero_rejects_bad_bounds_before_any_solve(
    coarse_mesh, default_config, monkeypatch, bounds
):
    calls = []
    solve = SheetSystem.solve
    monkeypatch.setattr(
        SheetSystem, "solve", lambda *a, **k: calls.append(a) or solve(*a, **k)
    )
    with pytest.raises(ValueError, match=re.escape(f"got {bounds}")):
        find_zero_fss(
            BiasPoint(0.0, 0.0, None), ("A", "B"), 1.0,
            coarse_mesh, default_config.materials, default_config.exciton,
            CFG, bounds,
        )
    assert calls == []


def test_find_zero_rejects_a_mesh_without_geometry_before_any_solve(
    default_config, monkeypatch
):
    # a strip mesh has pads A and B but no geometry to mesh the seeds on
    strip = make_strip_mesh(
        20.0,
        6.0,
        1.0,
        built_in_voltage=default_config.geometry.built_in_voltage,
        intrinsic_thickness_nm=default_config.geometry.intrinsic_thickness_nm,
    )
    assert strip.geometry is None
    calls = []
    solve = SheetSystem.solve
    monkeypatch.setattr(
        SheetSystem, "solve", lambda *a, **k: calls.append(a) or solve(*a, **k)
    )
    with pytest.raises(ValueError, match="no geometry to rank seeds on"):
        find_zero_fss(
            BiasPoint(0.0, 0.0, None), ("A", "B"), 1.0,
            strip, laplace_materials(), default_config.exciton,
            CFG, (-1.0, 4.0),
        )
    assert calls == []


@pytest.mark.parametrize("free", [("A", "A"), ("B", "A", "B")])
def test_find_zero_rejects_repeated_free_terminals(coarse_mesh, default_config, free):
    with pytest.raises(ValueError, match="distinct"):
        find_zero_fss(
            BiasPoint(0.0, 0.0, None), free, 1.0,
            coarse_mesh, default_config.materials, default_config.exciton,
            CFG, (-1.0, 4.0),
        )


@pytest.mark.parametrize(
    "theta_a, theta_b, rotation, crossing",
    [
        (0.0, 0.5 * math.pi, 0.5 * math.pi, True),
        (-0.25 * math.pi, 0.25 * math.pi, 0.5 * math.pi, True),
        (0.1, math.pi - 0.1, 0.2, False),
        (0.0, 0.5 * math.pi - 0.1, 0.5 * math.pi - 0.1, True),
        (None, 0.3, None, False),
        (0.3, None, None, False),
    ],
    ids=[
        "quarter-turn", "symmetric", "wraps-through-pi", "at-threshold",
        "undefined-a", "undefined-b",
    ],
)
def test_eigenaxis_rotation_fold(theta_a, theta_b, rotation, crossing):
    folded = _eigenaxis_rotation(theta_a, theta_b)
    if rotation is None:
        assert folded is None
    else:
        assert folded == pytest.approx(rotation, abs=1e-15)
    # the crossing rule of find_zero_fss: a fold of at least pi/2 - 0.1 rad
    assert (folded is not None and folded >= 0.5 * math.pi - 0.1) == crossing


def _record(idx, fss, energy):
    return CellRecord(
        va=float(idx), vb=0.0, vc=None, status="ok",
        fss=fss, mean_energy=energy,
    )


def _cell(va, vb, region, magnitude, angle, ia=0.0, ib=0.0):
    """An ok cell with an in-plane field of ``magnitude`` at ``angle`` (rad)."""
    ex, ey = magnitude * math.cos(angle), magnitude * math.sin(angle)
    return CellRecord(va=va, vb=vb, vc=None, ex=ex, ey=ey, ia=ia, ib=ib, region=region)


def test_regime_summary_of_a_hand_built_map():
    th, normal = CFG.regime_threshold, DEFAULT.geometry.ridge_angles[2] + math.pi / 2
    # 21 region-1 cells in the reverse quadrant, at the given angles (deg) on
    # either side of the normal to C: the weakest is not among the 20
    # strongest, and the next, at 1e-9 of the strongest field, is
    degrees = [60.0, 40.0, *(0.1 * k for k in range(1, 20))]
    strengths = [1e-12, 1e-9, *range(1, 20)]
    cells = [
        _cell(-k / 10, -1.0, 1, m, normal + (-1) ** k * math.radians(d))
        for k, (m, d) in enumerate(zip(strengths, degrees))
    ]
    cells += [
        _cell(1.0, -1.0, 1, 30.0, 0.3, ia=-7 * th, ib=-th),  # outside the quadrant
        *(_cell(2.0, 2.0, 2, 60.0, a, ia=2 * th, ib=2 * th) for a in (0.1, 0.5, 2.0)),
        _cell(3.0, 0.0, 3, 90.0, 1.0, ia=5 * th),
        _cell(0.0, 3.0, 4, 10.0, 1.0, ib=5 * th),
    ]
    s = regime_summary(SweepResult(SPEC, cells), DEFAULT.geometry, th)
    exact = [pytest.approx(x, rel=1e-12) for x in (40.0, 1.9 / math.pi, 90.0 / 30.0, 8 * th)]
    assert s == RegimeSummary((22, 3, 1, 1), True, True, *exact)
    # a quadrant cell in region 2 without both currents breaks both tests
    cells[5] = dataclasses.replace(cells[5], region=2)
    s = regime_summary(SweepResult(SPEC, cells), DEFAULT.geometry, th)
    assert s.reverse_quadrant_blocked is False and s.region2_exact is False


def test_regime_summary_leaves_what_a_sparse_failed_grid_lacks_undefined():
    th = CFG.regime_threshold
    failed = CellRecord(va=-1.0, vb=-1.0, vc=None, status="error:ConvergenceError")
    cells = [failed, _cell(1.0, 0.0, 1, 2.0, 0.0), _cell(2.0, 1.0, 3, 5.0, 0.0, ia=2 * th)]
    s = regime_summary(SweepResult(SPEC, cells), DEFAULT.geometry, th)
    assert s == RegimeSummary((1, 0, 1, 0), None, True, None, None, 2.5, 2 * th)
    s = regime_summary(SweepResult(SPEC, [failed]), DEFAULT.geometry, th)
    assert s == RegimeSummary((0, 0, 0, 0), None, None, None, None, None, None)


def test_iso_fss_pairs_on_synthetic_sweep():
    spec = dataclasses.replace(
        SPEC,
        va_start=0.0, va_stop=4.0, va_step=1.0,
        vb_start=0.0, vb_stop=0.0, vb_step=1.0,
    )
    records = [
        _record(0, 5.0, 1.340000),
        _record(1, 5.2, 1.340040),
        _record(2, 4.9, 1.340100),
        _record(3, 9.0, 1.340200),  # off-target fss
        _record(4, 5.1, 1.340000),
    ]
    sweep = SweepResult(spec=spec, records=records)
    pairs = iso_fss_points(sweep, target_fss=5.0, min_energy_separation=50.0)
    keys = {(p.index_a, p.index_b) for p in pairs}
    assert (0, 2) in keys and (2, 4) in keys
    assert all(3 not in (p.index_a, p.index_b) for p in pairs)
    assert all(p.energy_separation_uev >= 50.0 for p in pairs)
    # constant-splitting sweep: every pair passes the fss filter
    flat = SweepResult(
        spec=spec, records=[_record(i, 5.0, 1.34 + i * 1e-4) for i in range(5)]
    )
    assert len(iso_fss_points(flat, 5.0, 50.0)) == 10
    assert iso_fss_points(flat, 5.0, 1e6) == []


@pytest.mark.parametrize("max_pairs", [-1, -2])
def test_iso_fss_rejects_negative_max_pairs(max_pairs):
    spec = dataclasses.replace(
        SPEC,
        va_start=0.0, va_stop=2.0, va_step=1.0,
        vb_start=0.0, vb_stop=0.0, vb_step=1.0,
    )
    records = [_record(i, 5.0, 1.34 + i * 1e-4) for i in range(3)]
    sweep = SweepResult(spec=spec, records=records)
    assert len(iso_fss_points(sweep, 5.0, 50.0)) == 3
    with pytest.raises(ValueError, match="max_pairs"):
        iso_fss_points(sweep, 5.0, 50.0, max_pairs)


@pytest.mark.parametrize("target", [0.0, -5.0, math.inf, math.nan])
def test_iso_fss_rejects_target_not_positive_and_finite(target):
    spec = dataclasses.replace(
        SPEC,
        va_start=0.0, va_stop=2.0, va_step=1.0,
        vb_start=0.0, vb_stop=0.0, vb_step=1.0,
    )
    sweep = SweepResult(spec=spec, records=[_record(i, 5.0, 1.34) for i in range(3)])
    with pytest.raises(ValueError, match="target_fss must be positive and finite"):
        iso_fss_points(sweep, target, 0.0)


def _iso_pairs_reference(sweep, target_fss, min_energy_separation, max_pairs):
    """Every qualifying pair by a double loop, sorted, then truncated."""
    candidates = [
        (i, rec)
        for i, rec in enumerate(sweep.records)
        if rec.ok
        and math.isfinite(rec.fss)
        and abs(rec.fss - target_fss) <= 0.1 * target_fss
    ]
    pairs = []
    for a in range(len(candidates)):
        ia, ra = candidates[a]
        for b in range(a + 1, len(candidates)):
            ib, rb = candidates[b]
            sep = abs(ra.mean_energy - rb.mean_energy) * 1e6
            if sep >= min_energy_separation:
                pairs.append(
                    IsoFssPair(
                        index_a=ia,
                        index_b=ib,
                        bias_a=(ra.va, ra.vb, ra.vc),
                        bias_b=(rb.va, rb.vb, rb.vc),
                        fss_a=ra.fss,
                        fss_b=rb.fss,
                        energy_separation_uev=sep,
                    )
                )
    pairs.sort(key=lambda p: (-p.energy_separation_uev, p.index_a, p.index_b))
    return pairs if max_pairs is None else pairs[:max_pairs]


@pytest.mark.parametrize("max_pairs", [None, 0, 3])
def test_iso_fss_pairs_match_double_loop_reference(max_pairs):
    spec = dataclasses.replace(
        SPEC,
        va_start=0.0, va_stop=11.0, va_step=1.0,
        vb_start=0.0, vb_stop=0.0, vb_step=1.0,
    )
    # energies on a 40 ueV ladder with repeats give tied separations;
    # off-target, non-finite and failed cells are skipped
    fss = [5.0, 5.2, 4.9, 9.0, 5.1, 5.0, float("nan"), 4.6, 5.0, 5.3, 5.0, 4.8]
    energy = [1.34, 1.34004, 1.34008, 1.34, 1.34004, 1.34, 1.34,
              1.34012, 1.34008, 1.34004, 1.34012, 1.34]
    records = [_record(i, f, e) for i, (f, e) in enumerate(zip(fss, energy))]
    records[10].status = "error:ConvergenceError"
    sweep = SweepResult(spec=spec, records=records)
    expected = _iso_pairs_reference(sweep, 5.0, 40.0, max_pairs)
    assert iso_fss_points(sweep, 5.0, 40.0, max_pairs) == expected
    if max_pairs is None:
        seps = [p.energy_separation_uev for p in expected]
        assert len(set(seps)) < len(seps)
