"""Command-line front end.

Subcommands: solve, sweep, fit, synth-scan, tune, iso-fss.  All artifacts
are written atomically (temp file + rename) and carry the hash of the fully
resolved configuration, so outputs from different calibrations never
collide.  Exit codes: 0 success, 2 config/input error or an artifact that
cannot be written, 3 solver failure, 4 fit failure, 5 tuner did not reach
tolerance or found only a minimum on the bound of its window.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile

from . import __version__
from .config import RunConfig, load_run_config
from .device import generate_mesh
from .exciton import exciton_state
from .solver import TERMINALS, BiasPoint, SolverError, classify_regime, sheet_system
from .spectro import (
    FitError,
    ScanInputError,
    fit_fss_sine,
    scan_from_csv,
    scan_to_csv,
    synth_polarization_scan,
)
from .tuner import (
    _FLOATING,
    SweepResult,
    TunerError,
    _parse_vc,
    check_iso_fss_args,
    find_zero_fss,
    iso_fss_points,
    read_sweep_csv,
    run_bias_sweep,
    write_sweep_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_FIT = 4
EXIT_TUNER = 5


class OutputError(RuntimeError):
    """An artifact cannot be written."""


def _check_out_dir(path: str) -> None:
    """Reject an output path whose directory is missing, before any solve."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise OutputError(f"cannot write {path}: no directory {directory}")


def _atomic_write(path: str, writer) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=".part")
        os.close(fd)
        try:
            writer(tmp)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_json(path: str, payload: dict) -> None:
    def write(tmp: str) -> None:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")

    _atomic_write(path, write)


def _load(args) -> RunConfig:
    return load_run_config(args.config)


def _mesh(cfg: RunConfig):
    return generate_mesh(cfg.geometry, cfg.mesh_edge)


def _bias_from_args(args, cfg: RunConfig) -> BiasPoint:
    vc = args.vc if args.vc is not None else cfg.sweep.vc
    return BiasPoint(args.va, args.vb, vc)


def cmd_solve(args) -> int:
    cfg = _load(args)
    if args.phi_out:
        _check_out_dir(args.phi_out)
    bias = _bias_from_args(args, cfg)
    mesh = _mesh(cfg)
    system = sheet_system(mesh, cfg.materials)
    sol = system.solve(bias, cfg.solver)
    state = exciton_state(cfg.exciton, sol.field)
    region = classify_regime(sol, cfg.solver.regime_threshold)
    lines = [
        ("config_hash", cfg.config_hash),
        ("va_v", bias.v_a),
        ("vb_v", bias.v_b),
        ("vc_v", _FLOATING if bias.v_c is None else bias.v_c),
        ("ex_v_per_m", sol.e_inplane[0]),
        ("ey_v_per_m", sol.e_inplane[1]),
        ("ez_v_per_m", sol.e_z),
        ("i_a_a", sol.i_a),
        ("i_b_a", sol.i_b),
        ("i_c_a", sol.i_c),
        ("i_junction_a", sol.i_junction),
        ("region", region),
        ("newton_iters", sol.newton_iters),
        ("factorizations", sol.factorizations),
        ("residual", sol.residual),
        ("fss_uev", state.fss),
        ("theta0_rad", "undefined" if state.theta0 is None else state.theta0),
        ("mean_energy_ev", state.mean_energy),
    ]
    for key, value in lines:
        print(f"{key} = {value}")

    if args.phi_out:
        def write(tmp: str) -> None:
            with open(tmp, "w", newline="") as fh:
                fh.write("node_id,phi_v\n")
                for i, phi in enumerate(sol.phi):
                    fh.write(f"{i},{float(phi)!r}\n")

        _atomic_write(args.phi_out, write)
        print(f"potential written to {args.phi_out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load(args)
    prefix = args.out or "sweep"
    csv_path = f"{prefix}_{cfg.config_hash}.csv"
    meta_path = f"{prefix}_{cfg.config_hash}.meta.json"
    _check_out_dir(csv_path)
    mesh = _mesh(cfg)
    result = run_bias_sweep(
        cfg.sweep, mesh, cfg.materials, cfg.exciton, cfg.solver, jobs=args.jobs
    )
    result.metadata.update(config_hash=cfg.config_hash, version=__version__)
    _atomic_write(csv_path, lambda tmp: write_sweep_csv(result, tmp))
    _write_json(meta_path, result.metadata)
    print(f"sweep written to {csv_path}")
    print(f"metadata written to {meta_path}")
    failed = result.metadata["n_failed"]
    if failed:
        print(f"warning: {failed} cells failed to converge", file=sys.stderr)
    return EXIT_OK


def cmd_fit(args) -> int:
    cfg = _load(args)
    scan = scan_from_csv(args.scan)
    out = args.out or f"{os.path.splitext(args.scan)[0]}_fit_{cfg.config_hash}.json"
    _check_out_dir(out)
    result = fit_fss_sine(scan)
    print(
        f"delta_fss = {result.delta_fss:.6g} +/- {result.uncertainties[0]:.3g} ueV"
    )
    print(
        f"theta0 = {result.theta0:.6g} +/- {result.uncertainties[1]:.3g} rad"
    )
    print(f"offset = {result.offset:.6g} ueV")
    print(f"residual_rms = {result.residual_rms:.6g} ueV")
    payload = result.to_dict()
    payload["config_hash"] = cfg.config_hash
    payload["scan_file"] = os.path.basename(args.scan)
    _write_json(out, payload)
    print(f"fit written to {out}")
    return EXIT_OK


def cmd_synth_scan(args) -> int:
    cfg = _load(args)
    out = args.out or f"scan_{cfg.config_hash}.csv"
    _check_out_dir(out)
    bias = _bias_from_args(args, cfg)
    seed = args.seed if args.seed is not None else cfg.seed
    if seed < 0:
        raise ScanInputError(f"seed must be a non-negative integer, got {seed}")
    mesh = _mesh(cfg)
    system = sheet_system(mesh, cfg.materials)
    sol = system.solve(bias, cfg.solver)
    scan = synth_polarization_scan(
        cfg.exciton,
        sol.field,
        linewidth=args.linewidth,
        noise_sigma=args.noise,
        n_angles=args.n_angles,
        seed=seed,
    )
    state = exciton_state(cfg.exciton, sol.field)
    _atomic_write(out, lambda tmp: scan_to_csv(scan, tmp))
    theta = "undefined" if state.theta0 is None else f"{state.theta0:.6g}"
    print(f"true fss = {state.fss:.6g} ueV, true theta0 = {theta} rad")
    print(f"scan written to {out}")
    return EXIT_OK


def cmd_tune(args) -> int:
    cfg = _load(args)
    out = args.out or f"tune_{cfg.config_hash}.json"
    _check_out_dir(out)
    start = _bias_from_args(args, cfg)
    mesh = _mesh(cfg)
    free = tuple(t.strip().upper() for t in args.free.split(",") if t.strip())
    bounds = cfg.sweep.tune_bounds()
    result = find_zero_fss(
        start,
        free,
        args.tol,
        mesh,
        cfg.materials,
        cfg.exciton,
        cfg.solver,
        bounds=bounds,
    )
    payload = result.to_dict()
    payload["config_hash"] = cfg.config_hash
    _write_json(out, payload)
    print(
        f"best point: va={result.bias[0]:.4f} vb={result.bias[1]:.4f} "
        f"fss={result.achieved_fss:.4g} ueV "
        f"(eigenaxis swap {'verified' if result.crossing_verified else 'not verified'})"
    )
    print(f"tune report written to {out}")
    if not result.converged:
        print(
            f"tuner did not reach tol={args.tol} ueV; best candidate emitted",
            file=sys.stderr,
        )
        return EXIT_TUNER
    if result.status == "bound_minimum":
        edges = [
            f"V_{t} = {v:g} V"
            for t, v in zip(TERMINALS, result.bias)
            if t in free and v in bounds
        ]
        print(
            f"minimum on the {' and '.join(edges)} bound, not a zero", file=sys.stderr
        )
        return EXIT_TUNER
    return EXIT_OK


def _check_sweep_meta(csv_path: str, config_hash: str) -> None:
    """Reject a sweep CSV whose ``cmd_sweep`` sidecar names another config."""
    meta_path = f"{os.path.splitext(csv_path)[0]}.meta.json"
    if not os.path.exists(meta_path):
        return
    try:
        with open(meta_path, encoding="utf-8") as fh:
            swept = json.load(fh).get("config_hash", config_hash)
    except (OSError, ValueError, AttributeError) as exc:
        raise TunerError(f"cannot read sweep metadata {meta_path}: {exc}") from exc
    if swept != config_hash:
        raise TunerError(
            f"{csv_path}: swept with config {swept}, loaded config is {config_hash}"
        )


def cmd_iso_fss(args) -> int:
    cfg = _load(args)
    check_iso_fss_args(args.target, args.min_separation, args.max_pairs)
    out = args.out or f"iso_fss_{cfg.config_hash}.json"
    _check_out_dir(out)
    if args.sweep_csv:
        records = read_sweep_csv(args.sweep_csv)
        spec = cfg.sweep
        grid = [(va, vb, spec.vc) for vb in spec.vb_values() for va in spec.va_values()]
        if [(r.va, r.vb, r.vc) for r in records] != grid:
            raise TunerError(
                f"{args.sweep_csv}: cells are not the [sweep] grid of the loaded config"
            )
        _check_sweep_meta(args.sweep_csv, cfg.config_hash)
        sweep = SweepResult(spec=spec, records=records, metadata={})
    else:
        mesh = _mesh(cfg)
        sweep = run_bias_sweep(
            cfg.sweep, mesh, cfg.materials, cfg.exciton, cfg.solver, jobs=args.jobs
        )
    pairs = iso_fss_points(
        sweep, args.target, args.min_separation, max_pairs=args.max_pairs
    )
    payload = {
        "config_hash": cfg.config_hash,
        "target_fss_uev": args.target,
        "min_energy_separation_uev": args.min_separation,
        "n_pairs": len(pairs),
        "pairs": [p.to_dict() for p in pairs],
    }
    _write_json(out, payload)
    print(f"{len(pairs)} pair(s) found; report written to {out}")
    return EXIT_OK


_JOBS_HELP = (
    "bias rows solved in threads (default 1); the band factorization holds "
    "the interpreter lock, so more jobs measured slower than one"
)


class _Parser(argparse.ArgumentParser):
    """Reads ``-2e-1`` as a negative number, not an option; subparsers inherit it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pillartune",
        description="Three-contact micropillar device simulator and exciton tuner",
    )
    parser.add_argument("--config", help="config file (default: packaged calibration)")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one bias point")
    p.add_argument("--va", type=float, required=True)
    p.add_argument("--vb", type=float, required=True)
    p.add_argument("--vc", type=_parse_vc, default=None,
                   help="voltage or 'floating' (default: sweep section)")
    p.add_argument("--phi-out", help="write the full node potential as CSV")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="run the configured bias grid")
    p.add_argument("--out", help="output prefix (default 'sweep')")
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fit", help="fit a polarization scan CSV")
    p.add_argument("scan", help="CSV with angle_rad,energy_ueV,sigma_ueV")
    p.add_argument("--out", help="output JSON path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("synth-scan", help="synthesize a polarization scan")
    p.add_argument("--va", type=float, required=True)
    p.add_argument("--vb", type=float, required=True)
    p.add_argument("--vc", type=_parse_vc, default=None)
    p.add_argument("--linewidth", type=float, default=60.0, help="FWHM in ueV")
    p.add_argument("--noise", type=float, default=0.3, help="noise sigma in ueV")
    p.add_argument("--n-angles", type=int, default=36)
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--out", help="output CSV path")
    p.set_defaults(func=cmd_synth_scan)

    p = sub.add_parser("tune", help="search for a zero-splitting bias point")
    p.add_argument("--tol", type=float, default=1.5, help="target fss in ueV")
    p.add_argument("--va", type=float, default=0.0, help="V_A when A is not free")
    p.add_argument("--vb", type=float, default=0.0, help="V_B when B is not free")
    p.add_argument("--vc", type=_parse_vc, default=None)
    p.add_argument("--free", default="A,B", help="free terminals, e.g. A,B")
    p.add_argument("--out", help="output JSON path")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("iso-fss", help="find equal-splitting pairs at distinct energies")
    p.add_argument("--target", type=float, required=True, help="target fss in ueV")
    p.add_argument("--min-separation", type=float, required=True,
                   help="minimum mean-energy separation in ueV")
    p.add_argument("--sweep-csv", help="reuse an existing sweep CSV")
    p.add_argument("--max-pairs", type=int, default=50)
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    p.add_argument("--out", help="output JSON path")
    p.set_defaults(func=cmd_iso_fss)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OutputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        history = getattr(exc, "residual_history", None)
        if history:
            tail = ", ".join(f"{r:.3e}" for r in history[-12:])
            print(f"residual history (tail): {tail}", file=sys.stderr)
        return EXIT_SOLVER
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT


if __name__ == "__main__":
    sys.exit(main())
