import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pillartune
from pillartune import cli, solver
from pillartune.cli import main
from pillartune.config import ConfigError, load_run_config
from pillartune.device import GeometryError, MeshError, generate_mesh
from pillartune.spectro import FitError, ScanInputError, scan_from_csv, shift_law
from pillartune.tuner import TunerError

FAST_DEVICE = """
[device]
mesh_edge_um = 2.5

[sweep]
va_start_v = 0.0
va_stop_v = 3.0
va_step_v = 1.0
vb_start_v = 0.0
vb_stop_v = 3.0
vb_step_v = 1.0
"""

CONSTRUCTED_ZERO = """
[device]
mesh_edge_um = 2.5

[exciton]
zero_field_splitting_uev = 0.0, 0.0
inplane_coupling_uev_m_per_v = 5e-2, 0.0, 0.0, 5e-2
vertical_coupling_uev_m_per_v = 0.0, 0.0
polarizability_uev_m2_per_v2 = 0.0

[sweep]
va_start_v = -1.0
va_stop_v = 1.0
va_step_v = 0.5
vb_start_v = -1.0
vb_stop_v = 1.0
vb_step_v = 0.5
"""

UNREACHABLE_ZERO = """
[device]
mesh_edge_um = 2.5

[exciton]
zero_field_splitting_uev = 40.0, 0.0
inplane_coupling_uev_m_per_v = 0.0, 0.0, 0.0, 0.0
vertical_coupling_uev_m_per_v = 0.0, 0.0

[sweep]
va_start_v = -1.0
va_stop_v = 1.0
va_step_v = 1.0
vb_start_v = -1.0
vb_stop_v = 1.0
vb_step_v = 1.0
"""


STARVED_SOLVER = FAST_DEVICE + """
[solver]
max_iters = 1
"""


@pytest.fixture
def fast_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_DEVICE)
    return str(path)


def test_solve_equilibrium(fast_config, capsys):
    code = main(["--config", fast_config, "solve", "--va", "0", "--vb", "0",
                 "--vc", "0"])
    out = capsys.readouterr().out
    assert code == 0
    values = dict(
        line.split(" = ") for line in out.strip().splitlines() if " = " in line
    )
    assert float(values["i_a_a"]) == 0.0
    assert float(values["i_junction_a"]) == 0.0
    expected_ez = 1.4 / 270e-9
    assert float(values["ez_v_per_m"]) == pytest.approx(expected_ez)
    assert values["region"] == "1"
    # phi = 0 solves the equilibrium exactly: no step, nothing factored
    assert values["newton_iters"] == values["factorizations"] == "0"


def test_solve_prints_factorizations(fast_config, capsys):
    code = main(["--config", fast_config, "solve", "--va", "3", "--vb", "2"])
    out = capsys.readouterr().out
    assert code == 0
    values = dict(line.split(" = ") for line in out.splitlines() if " = " in line)
    assert 0 < int(values["factorizations"]) < int(values["newton_iters"])


def test_solve_floating_terminal_region1(fast_config, capsys):
    code = main(["--config", fast_config, "solve", "--va", "-1", "--vb", "-0.3",
                 "--vc", "floating"])
    out = capsys.readouterr().out
    assert code == 0
    values = dict(
        line.split(" = ") for line in out.strip().splitlines() if " = " in line
    )
    assert values["vc_v"] == "floating"
    assert float(values["i_c_a"]) == 0.0
    assert values["region"] == "1"
    # field normal to the unconnected ridge C within 5 degrees
    cfg = load_run_config(fast_config)
    uc = np.array([
        math.cos(cfg.geometry.ridge_angles[2]),
        math.sin(cfg.geometry.ridge_angles[2]),
    ])
    e = np.array([float(values["ex_v_per_m"]), float(values["ey_v_per_m"])])
    e /= np.linalg.norm(e)
    assert abs(float(e @ uc)) <= math.sin(math.radians(5.0))


def test_solve_writes_potential(fast_config, tmp_path):
    out = tmp_path / "phi.csv"
    code = main(["--config", fast_config, "solve", "--va", "1", "--vb", "0",
                 "--phi-out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "node_id,phi_v"
    assert len(lines) > 100


def test_unknown_config_key_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[device]\nnot_a_key = 1\n")
    code = main(["--config", str(bad), "solve", "--va", "0", "--vb", "0"])
    assert code == 2
    assert "not_a_key" in capsys.readouterr().err


def test_sweep_outputs_are_deterministic(fast_config, tmp_path, capsys):
    cfg = load_run_config(fast_config)
    for prefix in ("one", "two"):
        assert main(["--config", fast_config, "sweep", "--out", prefix]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[2].startswith("region_counts = (") and out[8].startswith("peak_current_a = ")
    csv_a = (tmp_path / f"one_{cfg.config_hash}.csv").read_bytes()
    csv_b = (tmp_path / f"two_{cfg.config_hash}.csv").read_bytes()
    assert csv_a == csv_b
    assert main(["--config", fast_config, "sweep", "--out", "par", "--jobs", "3"]) == 0
    csv_c = (tmp_path / f"par_{cfg.config_hash}.csv").read_bytes()
    assert csv_c == csv_a
    rows = csv_a.decode().strip().splitlines()
    assert len(rows) == 1 + 16  # header + 4x4 grid
    meta = json.loads((tmp_path / f"one_{cfg.config_hash}.meta.json").read_text())
    assert meta["config_hash"] == cfg.config_hash
    assert meta["version"] == pillartune.__version__
    assert meta["grid"] == [4, 4]
    assert meta["regime_summary"]["region2_exact"] is True


def test_synth_scan_then_fit_round_trip(fast_config, tmp_path, capsys):
    scan_path = tmp_path / "scan.csv"
    # linewidth far above the splitting keeps the apparent-peak law on the
    # pure sinusoid, so the fit recovers the true splitting tightly
    code = main([
        "--config", fast_config, "synth-scan", "--va", "-1", "--vb", "-1",
        "--noise", "0", "--n-angles", "24", "--linewidth", "1000",
        "--out", str(scan_path),
    ])
    assert code == 0
    truth_line = [
        line for line in capsys.readouterr().out.splitlines() if "true fss" in line
    ][0]
    truth = float(truth_line.split("=")[1].split("ueV")[0])
    fit_path = tmp_path / "fit.json"
    code = main(["--config", fast_config, "fit", str(scan_path),
                 "--out", str(fit_path)])
    assert code == 0
    payload = json.loads(fit_path.read_text())
    assert payload["delta_fss_uev"] == pytest.approx(truth, rel=1e-3)
    assert "config_hash" in payload


def _write_sine_scan(path) -> None:
    """A noiseless 36-angle scan of a 10 ueV splitting at theta0 = 0.5 rad."""
    angles = np.arange(36) * math.pi / 36
    energies = shift_law(angles, 10.0, 0.5, 1.0)
    with open(path, "w") as fh:
        fh.write("angle_rad,energy_ueV,sigma_ueV\n")
        for a, e in zip(angles, energies):
            fh.write(f"{float(a)!r},{float(e)!r},0.0\n")


def test_fit_recovers_handwritten_sinusoid(fast_config, tmp_path, capsys):
    path = tmp_path / "sine.csv"
    _write_sine_scan(path)
    code = main(["--config", fast_config, "fit", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "delta_fss = 10" in out


def test_fit_rejects_short_scan(fast_config, tmp_path, capsys):
    path = tmp_path / "short.csv"
    with open(path, "w") as fh:
        fh.write("angle_rad,energy_ueV,sigma_ueV\n")
        for k in range(5):
            fh.write(f"{k * 0.6},1.0,0.1\n")
    code = main(["--config", fast_config, "fit", str(path)])
    assert code == 2
    assert "6" in capsys.readouterr().err


def test_fit_two_angle_scan_exits_4(fast_config, tmp_path, capsys):
    path = tmp_path / "two_angles.csv"
    with open(path, "w") as fh:
        fh.write("angle_rad,energy_ueV,sigma_ueV\n")
        for a, e in zip([0.0] * 5 + [5.0 * math.pi / 6.0], [1, 1.1, 0.9, 1, 1, 3]):
            fh.write(f"{a!r},{e!r},0.0\n")
    code = main(["--config", fast_config, "fit", str(path)])
    err = capsys.readouterr().err
    assert code == 4
    assert "fit error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "row, message",
    [
        ("0.5,nan,0.1", "finite"),
        ("inf,1.0,0.1", "finite"),
        ("0.5,1.0,-0.1", "sigma"),
        ("0.5,1.0,nan", "sigma"),
    ],
)
def test_fit_rejects_non_finite_scan_exits_2(fast_config, tmp_path, capsys, row, message):
    path = tmp_path / "scan.csv"
    with open(path, "w") as fh:
        fh.write("angle_rad,energy_ueV,sigma_ueV\n")
        for k in range(11):
            fh.write(f"{k * math.pi / 12!r},1.0,0.1\n")
        fh.write(row + "\n")
    code = main(["--config", fast_config, "fit", str(path), "--out", "fit.json"])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "fit.json").exists()


def test_jobs_below_one_exits_2(fast_config, capsys):
    assert main(["--config", fast_config, "sweep", "--jobs", "0"]) == 2
    assert "jobs must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "synth-scan"])
def test_solver_failure_exits_3_with_residual_history(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "starved.cfg"
    path.write_text(STARVED_SOLVER)
    code = main(["--config", str(path), command, "--va", "3", "--vb", "3"])
    err = capsys.readouterr().err
    assert code == 3
    assert "solver error: no convergence" in err
    assert "residual history (tail): " in err
    assert "Traceback" not in err


def test_sweep_with_failed_cells_warns_and_exits_0(tmp_path, monkeypatch, capsys):
    # one Newton step is too few for every cell but the zero-bias one
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "starved.cfg"
    path.write_text(STARVED_SOLVER)
    config_hash = load_run_config(str(path)).config_hash
    assert main(["--config", str(path), "sweep"]) == 0
    err = capsys.readouterr().err
    meta = json.loads((tmp_path / f"sweep_{config_hash}.meta.json").read_text())
    rows = (tmp_path / f"sweep_{config_hash}.csv").read_text().splitlines()[1:]
    assert meta["n_failed"] == sum(",ok," not in row for row in rows) == 15
    assert meta["regime_summary"]["blocked_deviation_deg"] is None  # one ok cell
    assert "warning: 15 cells failed to converge" in err


def test_failed_write_exits_2_and_leaves_no_temp_file(
    fast_config, tmp_path, monkeypatch, capsys
):
    scan = tmp_path / "scan.csv"
    _write_sine_scan(scan)

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(cli.os, "replace", refuse)
    code = main(["--config", fast_config, "fit", str(scan), "--out", "fit.json"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: cannot write fit.json: Permission denied" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fast.cfg", "scan.csv"]


@pytest.mark.parametrize("vc_args, vc", [(["--vc", "floating"], None), ([], 0.5)],
                         ids=["floating", "omitted"])
@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--va", "1", "--vb", "0"],
        ["synth-scan", "--va", "1", "--vb", "0"],
        ["tune", "--out", "tune.json"],
    ],
    ids=["solve", "synth-scan", "tune"],
)
def test_vc_floating_is_told_apart_from_an_omitted_vc(
    tmp_path, monkeypatch, capsys, argv, vc_args, vc
):
    # [sweep] vc_v fills an omitted --vc only; "--vc floating" floats C
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "vc.cfg"
    path.write_text(FAST_DEVICE + "vc_v = 0.5\n")
    solved = set()
    real_solve = solver.SheetSystem.solve

    def spy(self, bias, *args, **kwargs):
        solved.add(bias.v_c)
        return real_solve(self, bias, *args, **kwargs)

    monkeypatch.setattr(solver.SheetSystem, "solve", spy)
    code = main(["--config", str(path), *argv, *vc_args])
    out = capsys.readouterr().out
    assert code in (0, 5)
    assert solved == {vc}
    spelled = "floating" if vc is None else vc
    if argv[0] == "solve":
        values = dict(line.split(" = ") for line in out.splitlines())
        assert values["vc_v"] == str(spelled)
        assert (float(values["i_c_a"]) == 0.0) == (vc is None)
    if argv[0] == "tune":
        assert json.loads((tmp_path / "tune.json").read_text())["vc"] == spelled


def test_singular_factor_exits_3(fast_config, monkeypatch, capsys):
    monkeypatch.setattr(solver._lapack(), "dpbtrf", lambda ab, **kwargs: (ab, 1))
    code = main(["--config", fast_config, "solve", "--va", "3", "--vb", "3"])
    err = capsys.readouterr().err
    assert code == 3
    assert "solver error: Jacobian factorization failed" in err
    assert "Traceback" not in err


def test_fit_missing_scan_exits_2(fast_config, capsys):
    assert main(["--config", fast_config, "fit", "nope.csv"]) == 2
    assert "nope.csv" in capsys.readouterr().err


def test_iso_fss_missing_sweep_csv_exits_2(fast_config, capsys):
    code = main(["--config", fast_config, "iso-fss", "--target", "5.0",
                 "--min-separation", "1.0", "--sweep-csv", "nope.csv"])
    assert code == 2
    assert "nope.csv" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("va,vb,status\n0.0,0.0,ok\n", "vc"),
        ("va,vb,vc,bogus\n0.0,0.0,floating,1\n", "bogus"),
        ("va,vb,vc,status,iters,residual,fss\n1.0,2.0,floating\n", "row 2"),
    ],
)
def test_iso_fss_bad_sweep_csv_exits_2(fast_config, tmp_path, capsys, text, message):
    path = tmp_path / "bad_sweep.csv"
    path.write_text(text)
    code = main(["--config", fast_config, "iso-fss", "--target", "5.0",
                 "--min-separation", "1.0", "--sweep-csv", str(path)])
    assert code == 2
    assert message in capsys.readouterr().err


def test_tune_constructed_zero_converges(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "zero.cfg"
    cfg_path.write_text(CONSTRUCTED_ZERO)
    out = tmp_path / "tune.json"
    code = main(["--config", str(cfg_path), "tune", "--tol", "0.1",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["converged"] is True
    assert payload["status"] == "zero"
    assert payload["achieved_fss_uev"] < 0.1


def test_tune_nonconvergence_exits_5_with_report(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "stuck.cfg"
    cfg_path.write_text(UNREACHABLE_ZERO)
    out = tmp_path / "tune.json"
    code = main(["--config", str(cfg_path), "tune", "--tol", "1.5",
                 "--out", str(out)])
    assert code == 5
    payload = json.loads(out.read_text())
    assert payload["converged"] is False
    assert payload["status"] == "above_tol"
    assert payload["achieved_fss_uev"] == pytest.approx(40.0, rel=1e-6)


def test_tune_minimum_on_the_window_edge_exits_5_with_report(
    tmp_path, monkeypatch, capsys
):
    # converged (0.15 ueV < tol) but on the V_B = -1 V bound: not a zero
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "edge.cfg"
    cfg_path.write_text(
        "[device]\nmesh_edge_um = 2.0\n\n"
        "[exciton]\nzero_field_splitting_uev = 10.29, 1.95\n"
    )
    out = tmp_path / "tune.json"
    code = main(["--config", str(cfg_path), "tune", "--tol", "1.5",
                 "--out", str(out)])
    assert code == 5
    payload = json.loads(out.read_text())
    assert payload["converged"] is True
    assert payload["status"] == "bound_minimum"
    assert payload["vb"] == -1.0
    assert "minimum on the V_B = -1 V bound, not a zero" in capsys.readouterr().err


def test_tune_searches_the_span_of_both_sweep_axes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "window.cfg"
    cfg_path.write_text(
        FAST_DEVICE.replace("va_start_v = 0.0", "va_start_v = -0.5").replace(
            "vb_stop_v = 3.0", "vb_stop_v = 4.0"
        )
    )
    seen = {}

    def spy(*args, bounds, **kwargs):
        seen["bounds"] = bounds
        raise TunerError("stop after the bounds are seen")

    monkeypatch.setattr(cli, "find_zero_fss", spy)
    assert main(["--config", str(cfg_path), "tune"]) == 2
    assert seen["bounds"] == (-0.5, 4.0)


def _sweep(config, tmp_path, capsys):
    """Run ``sweep`` under ``config``; the path of the CSV it wrote."""
    assert main(["--config", config, "sweep", "--out", "map"]) == 0
    capsys.readouterr()
    return tmp_path / f"map_{load_run_config(config).config_hash}.csv"


def test_iso_fss_from_sweep_csv(fast_config, tmp_path, capsys):
    sweep_csv = _sweep(fast_config, tmp_path, capsys)
    out = tmp_path / "iso.json"
    code = main([
        "--config", fast_config, "iso-fss", "--target", "5.0",
        "--min-separation", "1.0", "--sweep-csv", str(sweep_csv),
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["n_pairs"] == len(payload["pairs"])


def test_iso_fss_without_sweep_csv_exits_2_and_writes_nothing(
    fast_config, tmp_path, capsys
):
    # iso-fss pairs the cells of the CSV that sweep wrote; it never sweeps
    with pytest.raises(SystemExit) as exc:
        main(["--config", fast_config, "iso-fss", "--target", "5.0",
              "--min-separation", "1.0"])
    assert exc.value.code == 2
    assert "--sweep-csv" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["fast.cfg"]


def test_iso_fss_accepts_a_sweep_csv_without_its_sidecar(fast_config, tmp_path, capsys):
    sweep_csv = _sweep(fast_config, tmp_path, capsys)
    sweep_csv.with_suffix(".meta.json").unlink()
    out = tmp_path / "iso.json"
    code = main([
        "--config", fast_config, "iso-fss", "--target", "5.0",
        "--min-separation", "1.0", "--sweep-csv", str(sweep_csv),
        "--out", str(out),
    ])
    assert code == 0
    assert json.loads(out.read_text())["n_pairs"] >= 0


@pytest.mark.parametrize(
    "sidecar", ["{not json", "[1, 2]", None], ids=["not-json", "not-an-object", "a-directory"]
)
def test_iso_fss_unreadable_sweep_metadata_exits_2(
    fast_config, tmp_path, capsys, sidecar
):
    sweep_csv = _sweep(fast_config, tmp_path, capsys)
    meta = sweep_csv.with_suffix(".meta.json")
    meta.unlink()
    if sidecar is None:
        meta.mkdir()  # there, but open() fails
    else:
        meta.write_text(sidecar)
    out = tmp_path / "iso.json"
    code = main([
        "--config", fast_config, "iso-fss", "--target", "5.0",
        "--min-separation", "1.0", "--sweep-csv", str(sweep_csv),
        "--out", str(out),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert f"cannot read sweep metadata {meta}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_iso_fss_rejects_sweep_csv_from_another_grid(fast_config, tmp_path, capsys):
    other = tmp_path / "other.cfg"
    other.write_text(FAST_DEVICE.replace("vb_stop_v = 3.0", "vb_stop_v = 2.0"))
    assert main(["--config", str(other), "sweep", "--out", "other"]) == 0
    sweep_csv = tmp_path / f"other_{load_run_config(str(other)).config_hash}.csv"
    out = tmp_path / "iso.json"
    code = main([
        "--config", fast_config, "iso-fss", "--target", "5.0",
        "--min-separation", "1.0", "--sweep-csv", str(sweep_csv),
        "--out", str(out),
    ])
    assert code == 2
    assert "[sweep] grid" in capsys.readouterr().err
    assert not out.exists()


def test_iso_fss_rejects_sweep_csv_from_another_config(fast_config, tmp_path, capsys):
    # same [sweep] grid, another calibration: the sweep's sidecar meta names it
    other = tmp_path / "other.cfg"
    other.write_text(FAST_DEVICE + "\n[exciton]\nzero_field_splitting_uev = 5.0, 0.0\n")
    other_hash = load_run_config(str(other)).config_hash
    assert other_hash != load_run_config(fast_config).config_hash
    assert main(["--config", str(other), "sweep", "--out", "other"]) == 0
    sweep_csv = tmp_path / f"other_{other_hash}.csv"
    out = tmp_path / "iso.json"
    code = main([
        "--config", fast_config, "iso-fss", "--target", "5.0",
        "--min-separation", "1.0", "--sweep-csv", str(sweep_csv),
        "--out", str(out),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert f"swept with config {other_hash}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_tune_repeated_free_terminal_exits_2(fast_config, capsys):
    assert main(["--config", fast_config, "tune", "--free", "A,A"]) == 2
    assert "distinct terminals" in capsys.readouterr().err


def test_iso_fss_negative_max_pairs_exits_2(fast_config, tmp_path, capsys):
    sweep_csv = _sweep(fast_config, tmp_path, capsys)
    out = tmp_path / "iso.json"
    code = main([
        "--config", fast_config, "iso-fss", "--target", "5.0",
        "--min-separation", "1.0", "--sweep-csv", str(sweep_csv),
        "--max-pairs", "-2", "--out", str(out),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "max_pairs must be at least 0" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "target, separation, max_pairs, message",
    [
        ("0", "1.0", "5", "target_fss must be positive"),
        ("inf", "1.0", "5", "target_fss must be positive and finite"),
        ("5.0", "nan", "5", "min_energy_separation must be finite"),
        ("5.0", "inf", "5", "min_energy_separation must be finite"),
        ("5.0", "1.0", "-1", "max_pairs must be at least 0"),
    ],
)
def test_iso_fss_rejects_bad_arguments(
    fast_config, tmp_path, capsys, target, separation, max_pairs, message
):
    sweep_csv = _sweep(fast_config, tmp_path, capsys)
    out = tmp_path / "iso.json"
    code = main([
        "--config", fast_config, "iso-fss", "--target", target,
        "--min-separation", separation, "--max-pairs", max_pairs,
        "--sweep-csv", str(sweep_csv), "--out", str(out),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["synth-scan", "--noise", "nan"], "noise_sigma must be finite and non-negative"),
        (["synth-scan", "--noise", "inf"], "noise_sigma must be finite and non-negative"),
        (["synth-scan", "--linewidth", "inf"], "linewidth must be positive and finite"),
        (["synth-scan", "--linewidth", "nan"], "linewidth must be positive and finite"),
        (["tune", "--tol", "inf"], "tol must be positive and finite"),
        (["tune", "--tol", "nan"], "tol must be positive and finite"),
    ],
)
def test_non_finite_numeric_input_exits_2_naming_it(
    fast_config, tmp_path, capsys, argv, message
):
    out = tmp_path / "out"
    extra = ["--va", "0", "--vb", "0"] if argv[0] == "synth-scan" else []
    code = main(["--config", fast_config, *argv, *extra, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--va", "1e8", "--vb", "0"],
        ["solve", "--va", "0", "--vb", "0", "--vc", "1e9"],
        ["synth-scan", "--va", "0", "--vb=-1e300"],
        ["tune", "--free", "A", "--vb", "2e3"],
    ],
    ids=["solve-va", "solve-vc", "synth-scan", "tune"],
)
def test_bias_beyond_the_limit_exits_2_before_meshing(
    fast_config, tmp_path, monkeypatch, capsys, argv
):
    monkeypatch.chdir(tmp_path)
    calls = []
    monkeypatch.setattr(cli, "generate_mesh", lambda *a: calls.append(a))
    code = main(["--config", fast_config, *argv])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "exceeds the 1000 V limit" in err
    assert calls == []


@pytest.mark.parametrize("command", ["solve", "synth-scan", "tune"])
@pytest.mark.parametrize("flag", ["--va", "--vb", "--vc"])
def test_negative_bias_in_exponent_form_is_a_value(command, flag):
    # argparse's own negative-number pattern has no exponent, and took
    # "-2e-1" for an option ("expected one argument")
    rest = [a for f in ("--va", "--vb") if f != flag for a in (f, "0")]
    args = cli.build_parser().parse_args([command, flag, "-2e-1", *rest])
    assert getattr(args, flag[2:]) == -0.2


@pytest.mark.parametrize("text", ["-1E+1", "-.5e-3", "-3.e2", "-7", "-0.25"])
def test_negative_number_spellings_are_values(text):
    args = cli.build_parser().parse_args(["solve", "--va", text, "--vb", "0"])
    assert args.va == float(text)


def test_solve_takes_a_negative_bias_in_exponent_form(fast_config, capsys):
    assert main(["--config", fast_config, "solve", "--va", "-2e-1", "--vb", "0"]) == 0
    assert "va_v = -0.2\n" in capsys.readouterr().out


def _solve_with_stdout_closed(config: str, *extra: str) -> str:
    """Run ``solve --va 1 --vb 0`` whose stdout reader is gone; its stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(pillartune.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "pillartune.cli", "--config", config,
         "solve", "--va", "1", "--vb", "0", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # the reader goes away before anything is printed
    try:
        err = proc.communicate(timeout=60)[1].decode()
    finally:
        proc.kill()
    assert proc.returncode == 1
    assert "Traceback" not in err
    assert "BrokenPipeError" not in err
    return err


def test_closed_stdout_exits_1_without_traceback(fast_config):
    _solve_with_stdout_closed(fast_config)


def test_closed_stdout_still_writes_the_potential_file(fast_config, tmp_path):
    """The potential file is written before the report is printed."""
    out = tmp_path / "phi.csv"
    _solve_with_stdout_closed(fast_config, "--phi-out", str(out))
    cfg = load_run_config(fast_config)
    n_nodes = generate_mesh(cfg.geometry, cfg.mesh_edge).n_nodes
    lines = out.read_text().splitlines()
    assert lines[0] == "node_id,phi_v"
    node_ids = [line.split(",")[0] for line in lines[1:]]
    assert node_ids == [str(i) for i in range(n_nodes)]


@pytest.mark.parametrize(
    "text, argv, message",
    [
        # the rim windows at 0 and 40 deg are apart, but 60 um pads overlap
        ("[device]\nridge_angles_deg = 0, 40, 200\npad_size_um = 60\n",
         ["solve", "--va", "0", "--vb", "0"],
         "pad 0 and pad 1 overlap; ridge_angles too close (key ridge_angles_deg)"),
        ("[run]\nseed = -5\n", ["synth-scan", "--va", "0", "--vb", "0"],
         "bad value for 'seed' in [run]: seed must be a non-negative integer"),
        ("", ["synth-scan", "--va", "0", "--vb", "0", "--seed", "-3"],
         "seed must be a non-negative integer, got -3"),
    ],
    ids=["overlapping-pads", "config-seed", "seed-flag"],
)
def test_bad_layout_or_seed_exits_2_before_meshing(
    tmp_path, monkeypatch, capsys, text, argv, message
):
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text)
    calls = []
    monkeypatch.setattr(cli, "generate_mesh", lambda *a: calls.append(a))
    code = main(["--config", str(cfg_path), *argv])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert message in err
    assert calls == []
    assert list(tmp_path.iterdir()) == [cfg_path]


@pytest.mark.parametrize(
    "text, argv, message",
    [
        # both axes end where they start: the tune window is one point
        (FAST_DEVICE.replace("stop_v = 3.0", "stop_v = 0.0"), ["tune"],
         "bounds must be finite with lo < hi, got (0.0, 0.0)"),
        (FAST_DEVICE + "\n[solver]\nregime_threshold_a = -1\n",
         ["solve", "--va", "1", "--vb", "0"], "regime_threshold must be positive"),
    ],
    ids=["one-point-window", "negative-threshold"],
)
def test_bad_config_values_exit_2_before_any_solve(
    tmp_path, monkeypatch, capsys, text, argv, message
):
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text)
    calls = []
    monkeypatch.setattr(solver.SheetSystem, "solve", lambda *a, **k: calls.append(a))
    code = main(["--config", str(cfg_path), *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err
    assert calls == []


def test_scan_csv_written_by_cli_parses(fast_config, tmp_path):
    scan_path = tmp_path / "s.csv"
    assert main([
        "--config", fast_config, "synth-scan", "--va", "0", "--vb", "0",
        "--noise", "0.2", "--seed", "7", "--out", str(scan_path),
    ]) == 0
    scan = scan_from_csv(str(scan_path))
    assert len(scan.angles) == 36


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--out", "{missing}/s"],
        ["tune", "--out", "{missing}/t.json"],
        ["iso-fss", "--target", "5", "--min-separation", "1", "--sweep-csv", "{scan}",
         "--out", "{missing}/i.json"],
        ["solve", "--va", "0.8", "--vb", "0.4", "--phi-out", "{missing}/p.csv"],
        ["synth-scan", "--va", "0.8", "--vb", "0.4", "--out", "{missing}/s.csv"],
        ["fit", "{scan}", "--out", "{missing}/f.json"],
    ],
)
def test_out_in_missing_directory_exits_2_before_solving(
    fast_config, tmp_path, monkeypatch, capsys, argv
):
    def too_early(*args):
        raise AssertionError("worked before the output directory was checked")

    monkeypatch.setattr(cli, "generate_mesh", too_early)
    monkeypatch.setattr(cli, "fit_fss_sine", too_early)
    scan, missing = tmp_path / "scan.csv", tmp_path / "missing"
    _write_sine_scan(scan)
    code = main([
        "--config", fast_config, *(a.format(scan=scan, missing=missing) for a in argv)
    ])
    out, err = capsys.readouterr()
    assert code == 2
    assert f"error: cannot write {missing}/" in err
    assert out == ""


@pytest.mark.parametrize("error", [MeshError, TunerError])
def test_every_input_error_is_a_value_error_and_exits_2(
    fast_config, monkeypatch, capsys, error
):
    # main maps OutputError and ValueError to exit 2; solver and fit
    # failures keep their own codes
    input_errors = (ConfigError, GeometryError, MeshError, ScanInputError, TunerError)
    assert all(issubclass(cls, ValueError) for cls in input_errors)
    assert not any(issubclass(cls, ValueError) for cls in (solver.SolverError, FitError))

    def fail(*args):
        raise error("bad input")

    monkeypatch.setattr(cli, "generate_mesh", fail)
    assert main(["--config", fast_config, "solve", "--va", "0", "--vb", "0"]) == 2
    assert "error: bad input" in capsys.readouterr().err


def test_sweep_meta_counts_newton_iterations(fast_config, tmp_path, capsys):
    cfg = load_run_config(fast_config)
    assert main(["--config", fast_config, "sweep", "--out", "t"]) == 0
    meta = json.loads((tmp_path / f"t_{cfg.config_hash}.meta.json").read_text())
    lines = (tmp_path / f"t_{cfg.config_hash}.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert meta["newton_iters"] == sum(int(r["iters"]) for r in rows) > 0
    hist = {int(k): v for k, v in meta["newton_iters_hist"].items()}
    assert sum(hist.values()) == sum(r["status"] == "ok" for r in rows)
    assert sum(k * v for k, v in hist.items()) == meta["newton_iters"]
    # full and chord steps: never more factorizations than steps
    assert 0 < meta["factorizations"] <= meta["newton_iters"]
    assert "factorizations" not in header
