"""Self-tests of the benchmark's helpers.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import scipy.sparse.linalg as spla  # noqa: E402

import layers  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
from pillartune import config, device, exciton, solver  # noqa: E402
from spans import END, FAILED, NAME, PARENT, START, Tracer, self_times  # noqa: E402


def test_percentile_interpolates_and_counts_samples_beyond():
    values = list(range(1, 21))                     # 1..20
    assert stats.percentile(values, 90) == pytest.approx((18.1, 2))
    assert stats.percentile(values, 100) == (20.0, 0)
    assert stats.median([4, 1, 3, 2]) == 2.5
    # p90 needs about 100 samples to keep ten above it.
    assert stats.percentile(range(100), 90)[1] == 10
    assert stats.percentile(range(90), 90)[1] == 9


def test_slowest_mean_averages_the_top_share():
    assert stats.slowest_mean([5, 1, 4, 2, 3], 0.25) == (4.5, 2)
    assert stats.slowest_mean([7.0], 0.25) == (7.0, 1)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_pieces_are_scaled_by_the_samples_around_them():
    nominal = speed.NOMINAL_S
    pieces = [(0, 1.0), (0, 2.0), (1, 4.0)]
    marks = [(0, nominal), (2, 3 * nominal), (3, 2 * nominal)]
    wall, ref = speed.attribute(pieces, marks, 2)
    assert wall == [3.0, 4.0]
    # op 0 ran between samples nominal and 3x nominal (mean 2x): half speed;
    # op 1 between 3x and 2x (mean 2.5x).
    assert ref == pytest.approx([1.5, 1.6])


def test_self_time_subtracts_union_of_children():
    #   root   0 ........................ 10
    #   a        1 ....... 4
    #   b               3 ...... 6           (overlaps a)
    #   a.x        2 .. 3
    spans = [
        ["root", 0.0, 10.0, -1, 0, False, None],
        ["a", 1.0, 4.0, 0, 0, False, None],
        ["b", 3.0, 6.0, 0, 0, False, None],
        ["a.x", 2.0, 3.0, 1, 0, False, None],
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0])


def test_tracer_records_nested_spans_with_parents_and_failures():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Box:
        def inner(self, fail=False):
            if fail:
                raise KeyError("x")
            return 7

        def outer(self):
            self.inner()
            with pytest.raises(KeyError):
                self.inner(fail=True)
            return self.inner()

    tracer.wrap(Box, "inner", "inner", value=lambda a, k, r: r)
    tracer.wrap(Box, "outer", "outer")
    tracer.op = 3
    assert Box().outer() == 7
    spans = tracer.spans
    assert [s[NAME] for s in spans] == ["outer", "inner", "inner", "inner"]
    assert [s[PARENT] for s in spans] == [-1, 0, 0, 0]
    assert [s[FAILED] for s in spans] == [False, False, True, False]
    assert all(s[4] == 3 for s in spans)
    # outer: ticks 0..7, each inner one tick long -> self time 7 - 3.
    assert spans[0][END] - spans[0][START] == 7.0
    assert self_times(spans)[0] == 4.0


def _bindings():
    """Every attribute the traced run may replace, by identity."""
    modules = [m for n, m in sys.modules.items()
               if n == "pillartune" or n.startswith("pillartune.")]
    out = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    out.update({("SheetSystem", k): v for k, v in vars(solver.SheetSystem).items()})
    out[("spla", "spsolve")] = spla.spsolve
    return out


def test_trace_wrappers_are_fully_removed():
    before = _bindings()
    tracer = Tracer()
    layers.install(tracer)
    patched = {k for k, v in _bindings().items() if before[k] is not v}
    # Re-exported and imported-by-name bindings are wrapped too.
    for key in [("pillartune.tuner", "exciton_state"), ("pillartune.spectro", "exciton_state"),
                ("pillartune.solver", "cell_areas"), ("pillartune", "run_bias_sweep"),
                ("SheetSystem", "solve"), ("SheetSystem", "_newton"), ("spla", "spsolve")]:
        assert key in patched
    exciton.exciton_state(exciton.ExcitonParams(), (0.0, 0.0, 0.0))
    assert [s[NAME] for s in tracer.spans] == [
        "exciton.exciton_state", "exciton.fss_vector", "exciton.stark_shift"]
    tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not tracer._patches


def test_traced_solve_yields_per_layer_counts():
    cfg = config.load_run_config()
    mesh = device.generate_mesh(device.build_geometry(cfg.geometry), 2.0)
    tracer = Tracer()
    layers.install(tracer)
    try:
        system = solver.SheetSystem(mesh, cfg.materials)
        sol = system.solve(solver.BiasPoint(1.0, 0.5, None), cfg.solver)
        system.solve(solver.BiasPoint(1.1, 0.5, None), cfg.solver, phi0=sol.phi)
    finally:
        tracer.uninstall()

    summary = layers.summarize(tracer.spans)
    m = {k: v for k, (v, _) in layers.metrics(tracer, summary, mesh, 0.0).items()}
    assert m["solver.solves"] == 2 and m["solver.solves_cold"] == 1
    assert m["solver.systems_built"] == 1
    assert m["solver.newton_iters"] >= 2
    assert m["solver.linear_solves"] == m["solver.jacobian_calls"] == m["solver.newton_iters"]
    assert 0.0 < m["solver.step_accept_ratio"] <= 1.0
    assert m["tuner.searches"] == 0 and m["spectro.fit_calls"] == 0
