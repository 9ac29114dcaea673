import dataclasses
import inspect
import math
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pillartune.config import (
    _SECTIONS,
    SCHEMA,
    ConfigError,
    RunConfig,
    config_hash,
    default_config_text,
    load_run_config,
    parse_config_text,
)
from pillartune.device import DeviceGeometry, MaterialParams, Mesh, make_strip_mesh
from pillartune.exciton import ExcitonParams
from pillartune.solver import SolverConfig
from pillartune.tuner import SweepSpec


def test_default_config_loads():
    cfg = load_run_config()
    assert len(cfg.config_hash) == 12
    assert cfg.geometry.pillar_diameter == 10.0
    assert cfg.sweep.vc is None
    assert cfg.mesh_edge == 1.0
    assert cfg.seed == 20260401


def test_default_text_round_trips_to_same_hash():
    a = parse_config_text(default_config_text())
    b = load_run_config()
    assert a.config_hash == b.config_hash
    assert a.resolved == b.resolved


def test_config_hashes_are_pinned():
    # a changed hash orphans every artifact written under the old one
    assert load_run_config().config_hash == "4cf7eda5d5bf"
    assert parse_config_text("").config_hash == "4cf7eda5d5bf"
    cfg = parse_config_text("[device]\npillar_diameter_um = 12.0\n")
    assert cfg.config_hash == "3f1cd75a80f9"


def test_schema_holds_parsers_only():
    # the defaults live in default.cfg alone; each key names the field it fills
    entries = [
        (section, parse, name)
        for section, keys in SCHEMA.items()
        for parse, name in keys.values()
    ]
    assert len(entries) == 35
    own = {f.name for f in dataclasses.fields(RunConfig)}
    for section, parse, name in entries:
        assert callable(parse)
        built = _SECTIONS[section][1] if section in _SECTIONS else RunConfig
        assert name in own | {f.name for f in dataclasses.fields(built)}


def test_default_config_matches_dataclass_defaults():
    # ExcitonParams alone keeps defaults (a bare one is built in perfbench/)
    assert load_run_config().exciton == ExcitonParams()


def test_calibration_comes_from_the_config_alone():
    # no dataclass a config section builds, ExcitonParams aside, has a
    # default, nor do the mesh's stack scalars: the values come from
    # default.cfg or are passed in
    cfg = load_run_config()
    built = {cls: getattr(cfg, attr) for attr, cls in _SECTIONS.values()}
    assert set(built) == {
        DeviceGeometry, MaterialParams, ExcitonParams, SolverConfig, SweepSpec
    }
    for cls, value in built.items():
        assert type(value) is cls
        names = [f.name for f in dataclasses.fields(cls)]
        assert cls(**{n: getattr(value, n) for n in names}) == value
        if cls is not ExcitonParams:
            for f in dataclasses.fields(cls):
                assert f.default is f.default_factory is dataclasses.MISSING, f.name
    mesh_fields = {f.name: f for f in dataclasses.fields(Mesh)}
    strip_params = inspect.signature(make_strip_mesh).parameters
    for name in ("built_in_voltage", "intrinsic_thickness_nm"):
        assert mesh_fields[name].default is dataclasses.MISSING
        assert strip_params[name].kind is inspect.Parameter.KEYWORD_ONLY
        assert strip_params[name].default is inspect.Parameter.empty


@pytest.mark.parametrize(
    "text",
    [
        "[mystery]\nx = 1\n",
        "[device]\nbogus_key = 3\n",
        "[materials]\nideality = banana\n",
        "not a section\n",
        "[run]\nseed = 1\nseed = 2\n",
    ],
)
def test_errors_name_the_user_source(text):
    with pytest.raises(ConfigError, match="user.cfg"):
        parse_config_text(text, source="user.cfg")


def test_unknown_key_is_fatal_and_named():
    text = "[device]\npillar_diameter_um = 10\nbogus_key = 3\n"
    with pytest.raises(ConfigError, match="bogus_key"):
        parse_config_text(text)


def test_unknown_section_is_fatal():
    with pytest.raises(ConfigError, match="mystery"):
        parse_config_text("[mystery]\nx = 1\n")


def test_bad_value_names_key_and_section():
    with pytest.raises(ConfigError, match="ideality"):
        parse_config_text("[materials]\nideality = banana\n")


def test_missing_keys_take_defaults():
    cfg = parse_config_text("[device]\npillar_diameter_um = 12.0\n")
    assert cfg.geometry.pillar_diameter == 12.0
    assert cfg.geometry.ridge_width == 3.0


def test_hash_changes_with_values():
    a = parse_config_text("[device]\npillar_diameter_um = 10.0\n")
    b = parse_config_text("[device]\npillar_diameter_um = 11.0\n")
    assert a.config_hash != b.config_hash
    assert config_hash(a.resolved) == a.config_hash


def test_ridge_angles_parse_to_radians():
    cfg = parse_config_text("[device]\nridge_angles_deg = 10, 120, 250\n")
    assert cfg.geometry.ridge_angles[1] == pytest.approx(math.radians(120.0))


def test_vc_floating_and_numeric():
    assert parse_config_text("[sweep]\nvc_v = floating\n").sweep.vc is None
    assert parse_config_text("[sweep]\nvc_v = 0.5\n").sweep.vc == 0.5


def test_outputs_validation():
    with pytest.raises(ConfigError, match="nonsense"):
        parse_config_text("[sweep]\noutputs = fields, nonsense\n")
    cfg = parse_config_text("[sweep]\noutputs = fields, regime\n")
    assert cfg.sweep.outputs == ("fields", "regime")


def test_non_positive_regime_threshold_is_config_error():
    for value in ("-1", "0"):
        with pytest.raises(ConfigError, match="regime_threshold must be positive"):
            parse_config_text(f"[solver]\nregime_threshold_a = {value}\n")


@pytest.mark.parametrize(
    "text, key",
    [
        ("[sweep]\nva_stop_v = 2000\n", "va_stop_v"),
        ("[sweep]\nvb_start_v = -1000.5\n", "vb_start_v"),
        ("[sweep]\nvc_v = 1e9\n", "vc_v"),
    ],
)
def test_sweep_bias_beyond_the_limit_is_config_error_naming_the_key(text, key):
    with pytest.raises(ConfigError, match=rf"\(key {key}\)"):
        parse_config_text(text)


@pytest.mark.parametrize(
    "key, value",
    [
        ("zero_field_splitting_uev", "1.0, 2.0, 3.0"),
        ("inplane_coupling_uev_m_per_v", "1.0, 2.0, 3.0"),
        ("vertical_coupling_uev_m_per_v", "1.0"),
    ],
)
def test_exciton_tuple_lengths_are_config_errors(key, value):
    with pytest.raises(ConfigError, match="zero_field_splitting needs 2 values"):
        parse_config_text(f"[exciton]\n{key} = {value}\n")


def test_ridge_angle_count_is_config_error():
    with pytest.raises(ConfigError, match=r"\[device\]: exactly three ridge_angles"):
        parse_config_text("[device]\nridge_angles_deg = 10, 120\n")


def test_dataclass_check_names_the_user_source():
    # prefixed like a parse error ("u.cfg: bad value for ...")
    with pytest.raises(
        ConfigError,
        match=r"^u\.cfg: invalid configuration in \[device\]: exactly three",
    ):
        parse_config_text("[device]\nridge_angles_deg = 1, 2\n", "u.cfg")
    with pytest.raises(ConfigError, match=r"^u\.cfg: bad value for 'ideality'"):
        parse_config_text("[materials]\nideality = banana\n", "u.cfg")


def test_dataclass_check_names_the_key():
    with pytest.raises(ConfigError) as info:
        parse_config_text("[device]\nridge_angles_deg = 1, 2\n", "u.cfg")
    assert str(info.value) == (
        "u.cfg: invalid configuration in [device]: "
        "exactly three ridge_angles are required (key ridge_angles_deg)"
    )
    # a message that names no field is left as it is
    with pytest.raises(ConfigError, match=r"va range is empty$"):
        parse_config_text("[sweep]\nva_stop_v = -5\n", "u.cfg")


def test_formats_doc_lists_config_keys_in_schema_order():
    doc = (Path(__file__).parents[1] / "docs" / "formats.md").read_text()
    table = doc.split("## Config files", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for line in table.splitlines():
        if line.startswith("| `"):
            _, section, keys, _ = line.split("|")
            keys = re.sub(r"\([^)]*\)", "", keys)  # "(number or `floating`)"
            documented[section.strip(" `")] = re.findall(r"`([a-z_0-9]+)`", keys)
    assert list(documented) == list(SCHEMA)
    assert documented == {section: list(keys) for section, keys in SCHEMA.items()}


def test_invalid_geometry_from_config_is_config_error():
    with pytest.raises(ConfigError):
        parse_config_text("[device]\nridge_length_um = 0\n")
    with pytest.raises(ConfigError, match="key ridge_angles_deg"):
        parse_config_text("[device]\nridge_angles_deg = 0, 20, 180\n")
    # the rim windows are apart, but the arms' pad rectangles overlap
    text = "[device]\nridge_angles_deg = 0, 40, 200\npad_size_um = 60\n"
    with pytest.raises(ConfigError, match=r"pad 0 and pad 1 overlap.*\(key ridge_angles_deg\)"):
        parse_config_text(text)


def test_negative_seed_is_config_error():
    with pytest.raises(ConfigError, match=r"'seed' in \[run\]: seed must be a non-negative"):
        parse_config_text("[run]\nseed = -1\n")
    assert parse_config_text("[run]\nseed = 0\n").seed == 0


def test_syntax_error_reports_source():
    with pytest.raises(ConfigError, match="my.cfg"):
        parse_config_text("not a section\n", source="my.cfg")


def test_missing_file_reports_path(tmp_path):
    with pytest.raises(ConfigError, match="nope.cfg"):
        load_run_config(str(tmp_path / "nope.cfg"))


def test_non_utf8_config_names_the_file(tmp_path):
    path = tmp_path / "latin.cfg"
    path.write_bytes(b"[device]\nmesh_edge_um = 2.0 \xff\n")
    with pytest.raises(ConfigError, match="latin.cfg"):
        load_run_config(str(path))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.binary(), st.binary().map(lambda b: b"[sweep]\nva_start_v = " + b)))
def test_any_config_bytes_load_or_raise_config_error(tmp_path, blob):
    path = tmp_path / "fuzz.cfg"
    path.write_bytes(blob)
    try:
        load_run_config(str(path))
    except ConfigError:
        pass
