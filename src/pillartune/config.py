"""Run configuration: strict key-value config files and hashing.

Files are INI-style sections of ``key = value`` pairs.  Parsing is strict:
unknown sections or keys abort with a message naming the offender, so a
typo in a calibration file cannot silently fall back to defaults.  Missing
keys take their values from the packaged ``configs/default.cfg``, the one
place the defaults are written down.  Every output produced from a config
carries a short hash of the fully resolved values.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Callable

from .device import DeviceGeometry, MaterialParams
from .exciton import ExcitonParams
from .solver import SolverConfig
from .tuner import ALL_OUTPUTS, SweepSpec, _parse_vc


class ConfigError(ValueError):
    """Invalid, unknown or malformed configuration content."""


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("value must be finite")
    return value


def _parse_int(text: str) -> int:
    return int(text, 10)


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(_parse_float(p) for p in text.split(","))


def _parse_outputs(text: str) -> tuple[str, ...]:
    items = tuple(p.strip() for p in text.split(",") if p.strip())
    unknown = set(items) - set(ALL_OUTPUTS)
    if unknown:
        raise ValueError(f"unknown outputs {sorted(unknown)}")
    return items


# section -> key -> parser; every default lives in configs/default.cfg
SCHEMA: dict[str, dict[str, Callable[[str], object]]] = {
    "run": {
        "seed": _parse_int,
    },
    "device": {
        "pillar_diameter_um": _parse_float,
        "ridge_width_um": _parse_float,
        "ridge_length_um": _parse_float,
        "ridge_angles_deg": _parse_float_list,
        "pad_size_um": _parse_float,
        "intrinsic_thickness_nm": _parse_float,
        "built_in_voltage_v": _parse_float,
        "mesh_edge_um": _parse_float,
    },
    "materials": {
        "sheet_conductance_s": _parse_float,
        "saturation_current_a_per_um2": _parse_float,
        "ideality": _parse_float,
        "thermal_voltage_v": _parse_float,
        "contact_resistance_a_ohm": _parse_float,
        "contact_resistance_b_ohm": _parse_float,
        "contact_resistance_c_ohm": _parse_float,
    },
    "exciton": {
        "zero_field_energy_ev": _parse_float,
        "zero_field_splitting_uev": _parse_float_list,
        "inplane_coupling_uev_m_per_v": _parse_float_list,
        "vertical_coupling_uev_m_per_v": _parse_float_list,
        "dipole_uev_m_per_v": _parse_float,
        "polarizability_uev_m2_per_v2": _parse_float,
    },
    "solver": {
        "newton_tol": _parse_float,
        "max_iters": _parse_int,
        "damping": _parse_float,
        "current_floor_a": _parse_float,
        "regime_threshold_a": _parse_float,
    },
    "sweep": {
        "va_start_v": _parse_float,
        "va_stop_v": _parse_float,
        "va_step_v": _parse_float,
        "vb_start_v": _parse_float,
        "vb_stop_v": _parse_float,
        "vb_step_v": _parse_float,
        "vc_v": _parse_vc,
        "outputs": _parse_outputs,
    },
}


@dataclass(frozen=True)
class RunConfig:
    geometry: DeviceGeometry
    mesh_edge: float
    materials: MaterialParams
    exciton: ExcitonParams
    solver: SolverConfig
    sweep: SweepSpec
    seed: int
    resolved: dict
    config_hash: str


def _resolve(parser: configparser.ConfigParser, source: str) -> dict:
    """Parse every schema key; ``parser`` holds the defaults under the user text."""
    resolved: dict[str, dict] = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"{source}: unknown section [{section}]")
        for key in parser[section]:
            if key not in SCHEMA[section]:
                raise ConfigError(
                    f"{source}: unknown key '{key}' in section [{section}]"
                )
    for section, keys in SCHEMA.items():
        resolved[section] = {}
        for key, parse in keys.items():
            try:
                resolved[section][key] = parse(parser.get(section, key))
            except (ValueError, TypeError) as exc:
                raise ConfigError(
                    f"{source}: bad value for '{key}' in [{section}]: {exc}"
                ) from exc
    return resolved


def _canonical(resolved: dict) -> str:
    def encode(value):
        if isinstance(value, tuple):
            return list(value)
        return value

    payload = {
        s: {k: encode(v) for k, v in keys.items()} for s, keys in resolved.items()
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def config_hash(resolved: dict) -> str:
    return hashlib.sha256(_canonical(resolved).encode("utf-8")).hexdigest()[:12]


def _build(resolved: dict) -> RunConfig:
    dev = resolved["device"]
    angles = tuple(math.radians(a) for a in dev["ridge_angles_deg"])
    if len(angles) != 3:
        raise ConfigError("device: ridge_angles_deg needs exactly three angles")
    try:
        geometry = DeviceGeometry(
            pillar_diameter=dev["pillar_diameter_um"],
            ridge_width=dev["ridge_width_um"],
            ridge_length=dev["ridge_length_um"],
            ridge_angles=angles,  # type: ignore[arg-type]
            pad_size=dev["pad_size_um"],
            intrinsic_thickness_nm=dev["intrinsic_thickness_nm"],
            built_in_voltage=dev["built_in_voltage_v"],
        )
        mat = resolved["materials"]
        materials = MaterialParams(
            sheet_conductance=mat["sheet_conductance_s"],
            saturation_current_density=mat["saturation_current_a_per_um2"],
            ideality=mat["ideality"],
            thermal_voltage=mat["thermal_voltage_v"],
            contact_resistance=(
                mat["contact_resistance_a_ohm"],
                mat["contact_resistance_b_ohm"],
                mat["contact_resistance_c_ohm"],
            ),
        )
        exc = resolved["exciton"]
        d0 = exc["zero_field_splitting_uev"]
        m = exc["inplane_coupling_uev_m_per_v"]
        gz = exc["vertical_coupling_uev_m_per_v"]
        if len(d0) != 2 or len(m) != 4 or len(gz) != 2:
            raise ConfigError(
                "exciton: zero_field_splitting needs 2 values, "
                "inplane_coupling 4, vertical_coupling 2"
            )
        exciton = ExcitonParams(
            zero_field_energy=exc["zero_field_energy_ev"],
            zero_field_splitting=(d0[0], d0[1]),
            inplane_coupling=((m[0], m[1]), (m[2], m[3])),
            vertical_coupling=(gz[0], gz[1]),
            dipole=exc["dipole_uev_m_per_v"],
            polarizability=exc["polarizability_uev_m2_per_v2"],
        )
        sol = resolved["solver"]
        solver_cfg = SolverConfig(
            newton_tol=sol["newton_tol"],
            max_iters=sol["max_iters"],
            damping=sol["damping"],
            current_floor=sol["current_floor_a"],
            regime_threshold=sol["regime_threshold_a"],
        )
        sw = resolved["sweep"]
        sweep = SweepSpec(
            va_start=sw["va_start_v"],
            va_stop=sw["va_stop_v"],
            va_step=sw["va_step_v"],
            vb_start=sw["vb_start_v"],
            vb_stop=sw["vb_stop_v"],
            vb_step=sw["vb_step_v"],
            vc=sw["vc_v"],
            outputs=sw["outputs"],
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc

    return RunConfig(
        geometry=geometry,
        mesh_edge=dev["mesh_edge_um"],
        materials=materials,
        exciton=exciton,
        solver=solver_cfg,
        sweep=sweep,
        seed=resolved["run"]["seed"],
        resolved=resolved,
        config_hash=config_hash(resolved),
    )


def parse_config_text(text: str, source: str = "<string>") -> RunConfig:
    """Resolve ``text`` on top of the packaged default calibration."""
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str  # keys are case-sensitive
    parser.read_string(default_config_text(), source="<default>")
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    return _build(_resolve(parser, source))


def default_config_text() -> str:
    return (
        resources.files("pillartune.configs").joinpath("default.cfg").read_text("utf-8")
    )


def load_run_config(path: str | None = None) -> RunConfig:
    """Load a config file, or the packaged default calibration when ``path`` is None."""
    if path is None:
        return parse_config_text("", source="<default>")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a UTF-8 config file: {exc}") from exc
    return parse_config_text(text, source=path)
