import dataclasses
import math

import numpy as np
import pytest

from pillartune.config import load_run_config
from pillartune.device import (
    PAD_TAGS,
    GeometryError,
    MeshError,
    _stitch_rows,
    build_geometry,
    cell_areas,
    generate_mesh,
    make_strip_mesh,
    validate_mesh,
)

DEFAULT = load_run_config()
GEOMETRY = DEFAULT.geometry
# the vertical stack that strip meshes take from the calibration
STACK = {
    "built_in_voltage": GEOMETRY.built_in_voltage,
    "intrinsic_thickness_nm": GEOMETRY.intrinsic_thickness_nm,
}


def test_default_footprint_builds():
    fp = build_geometry(GEOMETRY)
    assert len(fp.ridges) == 3
    assert len(fp.pads) == 3


def test_paper_layout_footprint():
    geom = dataclasses.replace(
        GEOMETRY,
        pillar_diameter=10.0,
        ridge_width=3.0,
        ridge_length=50.0,
        ridge_angles=(math.radians(90), math.radians(210), math.radians(330)),
    )
    fp = build_geometry(geom)
    assert len(fp.pads) == 3


def test_degenerate_ridge_rejected():
    with pytest.raises(GeometryError):
        build_geometry(dataclasses.replace(GEOMETRY, ridge_length=0.0))


def test_equal_ridge_angles_rejected():
    with pytest.raises(GeometryError):
        build_geometry(
            dataclasses.replace(GEOMETRY, ridge_angles=(0.0, 0.0, math.radians(180)))
        )


def test_close_ridge_angles_rejected():
    # attachment windows overlap when the separation is below 2*asin(w/d)
    with pytest.raises(GeometryError):
        build_geometry(
            dataclasses.replace(
                GEOMETRY,
                ridge_angles=(0.0, math.radians(20), math.radians(180)),
            )
        )


def test_negative_dimensions_rejected():
    with pytest.raises(GeometryError):
        dataclasses.replace(GEOMETRY, pillar_diameter=-1.0)
    with pytest.raises(GeometryError):
        dataclasses.replace(GEOMETRY, ridge_width=12.0)  # wider than the pillar
    with pytest.raises(GeometryError):
        dataclasses.replace(GEOMETRY, intrinsic_thickness_nm=0.0)
    with pytest.raises(GeometryError):
        dataclasses.replace(GEOMETRY, built_in_voltage=-0.5)


def test_material_params_validation():
    with pytest.raises(ValueError):
        dataclasses.replace(DEFAULT.materials, sheet_conductance=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(DEFAULT.materials, ideality=2.5)
    with pytest.raises(ValueError):
        dataclasses.replace(DEFAULT.materials, contact_resistance=(1.0, 1.0, 0.0))
    # junction may be disabled entirely for Laplace-limit runs
    dataclasses.replace(DEFAULT.materials, saturation_current_density=0.0)


def test_mesh_structure_and_tags():
    mesh = generate_mesh(build_geometry(GEOMETRY), 1.0)
    validate_mesh(mesh)
    assert tuple(mesh.boundary_tags) == PAD_TAGS
    areas = cell_areas(mesh)
    assert np.all(areas > 0)
    for tag in ("PAD_A", "PAD_B", "PAD_C"):
        assert len(mesh.pad_nodes(tag)) > 0
    ids = [set(map(int, mesh.pad_nodes(t))) for t in ("PAD_A", "PAD_B", "PAD_C")]
    assert not (ids[0] & ids[1] or ids[0] & ids[2] or ids[1] & ids[2])


def test_qd_node_at_pillar_centre():
    mesh = generate_mesh(build_geometry(GEOMETRY), 1.0)
    assert np.hypot(*mesh.nodes[mesh.qd_node]) < 0.5 * mesh.target_edge


def test_refinement_node_count_ratio():
    fp = build_geometry(GEOMETRY)
    coarse = generate_mesh(fp, 1.0)
    fine = generate_mesh(fp, 0.5)
    assert coarse.footprint is fine.footprint is fp
    ratio = fine.n_nodes / coarse.n_nodes
    assert 2.0 <= ratio <= 6.0  # ~4x when the edge halves


def test_max_edge_bound():
    mesh = generate_mesh(build_geometry(GEOMETRY), 1.5)
    p = mesh.nodes[mesh.cells]
    for i, j in ((0, 1), (1, 2), (2, 0)):
        lengths = np.hypot(p[:, i, 0] - p[:, j, 0], p[:, i, 1] - p[:, j, 1])
        assert lengths.max() <= 2.0 * 1.5 + 1e-9


@pytest.mark.parametrize(
    "make",
    [
        *(
            pytest.param(lambda e=e: generate_mesh(build_geometry(GEOMETRY), e),
                         id=f"device@{e}")
            for e in (0.5, 1.0, 2.5, 5.0)
        ),
        # a pad wider than its ridge by less than 1e-12 um
        pytest.param(
            lambda: generate_mesh(
                build_geometry(dataclasses.replace(GEOMETRY, pad_size=3.0 + 1e-13)), 2.0
            ),
            id="device-pad-barely-wider@2.0",
        ),
        pytest.param(lambda: make_strip_mesh(50.0, 10.0, 1.0, **STACK), id="strip"),
    ],
)
def test_mesh_is_conforming_and_simply_connected(make):
    mesh = make()
    c = mesh.cells
    edges = np.sort(np.concatenate([c[:, [0, 1]], c[:, [1, 2]], c[:, [2, 0]]]), axis=1)
    _, uses = np.unique(edges, axis=0, return_counts=True)
    assert uses.max() <= 2  # no edge is shared by more than two cells
    assert mesh.n_nodes - len(uses) + mesh.n_cells == 1  # Euler: one disc


def test_stitcher_splits_each_quad_along_its_rising_diagonal():
    rows = np.array([[0, 1, 2], [3, 4, 5]])
    assert _stitch_rows(rows).tolist() == [[0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4]]


def test_bad_edge_length_rejected():
    fp = build_geometry(GEOMETRY)
    with pytest.raises(MeshError):
        generate_mesh(fp, 0.0)


def test_strip_mesh_tags_and_probe():
    mesh = make_strip_mesh(50.0, 10.0, 1.0, **STACK)
    assert tuple(mesh.boundary_tags) == PAD_TAGS
    assert len(mesh.pad_nodes("PAD_A")) == len(mesh.pad_nodes("PAD_B"))
    assert len(mesh.pad_nodes("PAD_C")) == 0
    x, y = mesh.nodes[mesh.qd_node]
    assert abs(x - 25.0) <= 0.5 and abs(y - 5.0) <= 0.5


def test_disconnected_mesh_rejected():
    strip = make_strip_mesh(4.0, 2.0, 1.0, **STACK)
    island = np.array([[10.0, 10.0], [11.0, 10.0], [10.0, 11.0]])
    n = strip.n_nodes
    mesh = dataclasses.replace(
        strip,
        nodes=np.vstack([strip.nodes, island]),
        cells=np.vstack([strip.cells, [[n, n + 1, n + 2]]]).astype(np.int32),
    )
    with pytest.raises(MeshError, match="not connected"):
        validate_mesh(mesh, require_all_pads=False)
    validate_mesh(strip, require_all_pads=False)


def test_refinement_convergence_of_qd_potential(default_config):
    """Potential at the probe node moves by < 1% when the edge is halved."""
    from pillartune.solver import BiasPoint, SheetSystem

    fp = build_geometry(default_config.geometry)
    cfg = default_config.solver
    materials = default_config.materials
    biases = [
        BiasPoint(-1.0, -0.5, None),
        BiasPoint(2.0, 1.0, None),
        BiasPoint(4.0, 4.0, None),
    ]
    coarse = SheetSystem(generate_mesh(fp, 1.0), materials)
    fine = SheetSystem(generate_mesh(fp, 0.5), materials)
    for bias in biases:
        phi_c = coarse.solve(bias, cfg).phi[coarse.mesh.qd_node]
        phi_f = fine.solve(bias, cfg).phi[fine.mesh.qd_node]
        scale = max(abs(phi_f), 0.1)
        assert abs(phi_c - phi_f) / scale < 0.01


def test_refinement_convergence_of_qd_field(default_config):
    """The in-plane QD field converges under refinement: against 0.5 um, its
    relative error shrinks from 2 to 1 um with an observed order >= 0.5.
    (At 4 um the mesh is pre-asymptotic and the error is not monotone.)"""
    from pillartune.solver import BiasPoint, SheetSystem

    fp = build_geometry(default_config.geometry)
    cfg = default_config.solver
    biases = [
        BiasPoint(-1.0, -0.5, None),
        BiasPoint(2.0, 1.0, None),
        BiasPoint(4.0, 4.0, None),
        BiasPoint(2.0, 1.0, 0.5),  # C driven
    ]
    systems = [
        SheetSystem(generate_mesh(fp, edge), default_config.materials)
        for edge in (2.0, 1.0, 0.5)
    ]
    for bias in biases:
        e2, e1, ref = (np.asarray(s.solve(bias, cfg).e_inplane) for s in systems)
        err2, err1 = (np.linalg.norm(e - ref) / np.linalg.norm(ref) for e in (e2, e1))
        assert err1 < err2, (bias, err2, err1)
        assert math.log2(err2 / err1) >= 0.5, (bias, err2, err1)
