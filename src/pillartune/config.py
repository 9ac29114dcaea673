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
import re
from dataclasses import dataclass, fields
from importlib import resources
from typing import Callable

from .device import DeviceGeometry, MaterialParams
from .exciton import ExcitonParams
from .solver import SolverConfig
from .tuner import SweepSpec, _parse_vc


class ConfigError(ValueError):
    """Invalid, unknown or malformed configuration content."""


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("value must be finite")
    return value


def _parse_int(text: str) -> int:
    return int(text, 10)


def _parse_seed(text: str) -> int:
    seed = _parse_int(text)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(_parse_float(p) for p in text.split(","))


def _parse_outputs(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _radians(degrees: tuple[float, ...]) -> tuple[float, ...]:
    return tuple(math.radians(a) for a in degrees)


def _rows(m: tuple[float, ...]) -> tuple[tuple[float, ...], ...]:
    """Row-major entries of a 2x2 matrix as its two rows."""
    return (m[:2], m[2:])


# section -> key -> (parser, field it fills); every default lives in
# configs/default.cfg.  A field fed by several keys takes their values in
# key order; a field that is RunConfig's own is set there, every other one
# on the dataclass its section builds (``_SECTIONS``).
SCHEMA: dict[str, dict[str, tuple[Callable[[str], object], str]]] = {
    "run": {
        "seed": (_parse_seed, "seed"),
    },
    "device": {
        "pillar_diameter_um": (_parse_float, "pillar_diameter"),
        "ridge_width_um": (_parse_float, "ridge_width"),
        "ridge_length_um": (_parse_float, "ridge_length"),
        "ridge_angles_deg": (_parse_float_list, "ridge_angles"),
        "pad_size_um": (_parse_float, "pad_size"),
        "intrinsic_thickness_nm": (_parse_float, "intrinsic_thickness_nm"),
        "built_in_voltage_v": (_parse_float, "built_in_voltage"),
        "mesh_edge_um": (_parse_float, "mesh_edge"),
    },
    "materials": {
        "sheet_conductance_s": (_parse_float, "sheet_conductance"),
        "saturation_current_a_per_um2": (_parse_float, "saturation_current_density"),
        "ideality": (_parse_float, "ideality"),
        "thermal_voltage_v": (_parse_float, "thermal_voltage"),
        "contact_resistance_a_ohm": (_parse_float, "contact_resistance"),
        "contact_resistance_b_ohm": (_parse_float, "contact_resistance"),
        "contact_resistance_c_ohm": (_parse_float, "contact_resistance"),
    },
    "exciton": {
        "zero_field_energy_ev": (_parse_float, "zero_field_energy"),
        "zero_field_splitting_uev": (_parse_float_list, "zero_field_splitting"),
        "inplane_coupling_uev_m_per_v": (_parse_float_list, "inplane_coupling"),
        "vertical_coupling_uev_m_per_v": (_parse_float_list, "vertical_coupling"),
        "dipole_uev_m_per_v": (_parse_float, "dipole"),
        "polarizability_uev_m2_per_v2": (_parse_float, "polarizability"),
    },
    "solver": {
        "newton_tol": (_parse_float, "newton_tol"),
        "max_iters": (_parse_int, "max_iters"),
        "damping": (_parse_float, "damping"),
        "current_floor_a": (_parse_float, "current_floor"),
        "regime_threshold_a": (_parse_float, "regime_threshold"),
    },
    "sweep": {
        "va_start_v": (_parse_float, "va_start"),
        "va_stop_v": (_parse_float, "va_stop"),
        "va_step_v": (_parse_float, "va_step"),
        "vb_start_v": (_parse_float, "vb_start"),
        "vb_stop_v": (_parse_float, "vb_stop"),
        "vb_step_v": (_parse_float, "vb_step"),
        "vc_v": (_parse_vc, "vc"),
        "outputs": (_parse_outputs, "outputs"),
    },
}

# fields whose dataclass value is converted from the resolved one
_CONVERT = {"ridge_angles": _radians, "inplane_coupling": _rows}


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


# section -> (RunConfig field, dataclass) that the section's keys build
_SECTIONS = {
    "device": ("geometry", DeviceGeometry),
    "materials": ("materials", MaterialParams),
    "exciton": ("exciton", ExcitonParams),
    "solver": ("solver", SolverConfig),
    "sweep": ("sweep", SweepSpec),
}


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
        for key, (parse, _) in keys.items():
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


def _build(resolved: dict, source: str) -> RunConfig:
    """Fill each ``SCHEMA`` field from its keys' resolved values."""
    own = {f.name for f in fields(RunConfig)}
    run: dict[str, object] = {}
    try:
        for section, keys in SCHEMA.items():
            values: dict[str, list] = {}
            for key, (_, name) in keys.items():
                values.setdefault(name, []).append(resolved[section][key])
            kwargs = {}
            for name, vs in values.items():
                value = vs[0] if len(vs) == 1 else tuple(vs)
                value = _CONVERT[name](value) if name in _CONVERT else value
                (run if name in own else kwargs)[name] = value
            if section in _SECTIONS:
                attr, cls = _SECTIONS[section]
                run[attr] = cls(**kwargs)
    except ValueError as exc:
        keys = [
            key
            for key, (_, name) in SCHEMA[section].items()
            if re.search(rf"\b{name}\b", str(exc))
        ]
        label = "keys" if len(keys) > 1 else "key"
        named = f" ({label} {', '.join(keys)})" if keys else ""
        raise ConfigError(
            f"{source}: invalid configuration in [{section}]: {exc}{named}"
        ) from exc
    return RunConfig(**run, resolved=resolved, config_hash=config_hash(resolved))


def parse_config_text(text: str, source: str = "<string>") -> RunConfig:
    """Resolve ``text`` on top of the packaged default calibration."""
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str  # keys are case-sensitive
    parser.read_string(default_config_text(), source="<default>")
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    return _build(_resolve(parser, source), source)


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
