"""Lateral device layout and meshing.

The device is a circular pillar connected through three narrow ridges to
three remote contact pads.  The vertical layer stack is collapsed into two
scalar parameters carried by the geometry (intrinsic thickness and built-in
voltage); everything else here is purely two-dimensional.

The mesh starts from one list of rim points round the pillar: the flat
chord where each ridge attaches (half-width equal to half the ridge width,
so the attachment geometry does not depend on mesh resolution) and the arcs
between them.  Concentric rings scale that rim towards the centre; each
ridge grows rows outward from its chord's slice of the outermost ring, and
each pad widens the ridge's last row.  One stitcher splits every quad
between consecutive rows into two triangles.  Ridge and pad nodes are
placed in a ridge-local frame, which keeps a 120-degree-symmetric layout
symmetric to floating point rounding.

``DeviceGeometry`` and ``Mesh`` check themselves when built, so every
layout and mesh that exists is valid.  ``coarse_grid`` meshes the layout
of a generated mesh again at three times its edge, with the interpolation
from that grid onto the mesh.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

_COARSE_EDGE_FACTOR = 3.0  # ``coarse_grid`` meshes at this times the edge
_CACHED_COARSE_GRIDS = 4  # coarse grids ``coarse_grid`` keeps, the most recently used


class GeometryError(ValueError):
    """Raised for invalid or self-intersecting device layouts."""


class MeshError(ValueError):
    """Raised when a geometry cannot be meshed or a mesh check fails."""


@dataclass(frozen=True)
class DeviceGeometry:
    """Lateral layout parameters (lengths in micrometres, angles in radians).

    ``intrinsic_thickness_nm`` and ``built_in_voltage`` describe the
    collapsed vertical junction; they feed the vertical-field readout only.
    """

    pillar_diameter: float
    ridge_width: float
    ridge_length: float
    ridge_angles: tuple[float, float, float]
    pad_size: float
    intrinsic_thickness_nm: float
    built_in_voltage: float

    def __post_init__(self) -> None:
        if not (self.pillar_diameter > 0.0):
            raise GeometryError("pillar_diameter must be positive")
        if not (0.0 < self.ridge_width < self.pillar_diameter):
            raise GeometryError("ridge_width must lie in (0, pillar_diameter)")
        if not (self.ridge_length > 0.0):
            raise GeometryError("ridge_length must be positive (degenerate ridge)")
        if not (self.pad_size > 0.0):
            raise GeometryError("pad_size must be positive")
        if not (self.intrinsic_thickness_nm > 0.0):
            raise GeometryError("intrinsic_thickness_nm must be positive")
        if not (self.built_in_voltage > 0.0):
            raise GeometryError("built_in_voltage must be positive")
        if len(self.ridge_angles) != 3:
            raise GeometryError("exactly three ridge_angles are required")
        for a in self.ridge_angles:
            if not math.isfinite(a):
                raise GeometryError("ridge_angles must be finite")
        # The arms must stay apart: their attachment windows on the pillar
        # rim, then their ridge and pad rectangles.
        beta = self.attach_half_angle
        d, end = self.chord_distance, self.chord_distance + self.ridge_length
        spans = ((d, end, self.ridge_width), (end, end + self.pad_size, self.pad_size))
        arms = [[_rectangle(a, *span) for span in spans] for a in self.ridge_angles]
        for i in range(3):
            for j in range(i + 1, 3):
                sep = _circ_dist(self.ridge_angles[i], self.ridge_angles[j])
                if sep <= 2.0 * beta + 1e-9:
                    raise GeometryError(
                        f"ridge_angles too close: windows of ridges {i} and {j} overlap "
                        f"on the pillar rim (separation {sep:.4f} rad <= {2 * beta:.4f})"
                    )
                for a_poly, a_name in zip(arms[i], (f"ridge {i}", f"pad {i}")):
                    for b_poly, b_name in zip(arms[j], (f"ridge {j}", f"pad {j}")):
                        if _convex_overlap(a_poly, b_poly):
                            raise GeometryError(
                                f"{a_name} and {b_name} overlap; ridge_angles too close"
                            )

    @property
    def pillar_radius(self) -> float:
        return 0.5 * self.pillar_diameter

    @property
    def attach_half_angle(self) -> float:
        """Half-angle subtended by a ridge attachment chord at the centre."""
        return math.asin(0.5 * self.ridge_width / self.pillar_radius)

    @property
    def chord_distance(self) -> float:
        """Distance from the pillar centre to an attachment chord."""
        return self.pillar_radius * math.cos(self.attach_half_angle)


@dataclass(frozen=True)
class MaterialParams:
    """Electrical parameters of the sheet and the distributed junction.

    ``sheet_conductance`` is per square of the conductive top layer.
    ``saturation_current_density`` may be zero to disable the junction
    entirely (pure-Laplace validation runs); everything else is strictly
    positive.  ``contact_resistance`` is one lumped series resistance per
    terminal, in the order (A, B, C).
    """

    sheet_conductance: float                 # S per square
    saturation_current_density: float        # A / um^2
    ideality: float
    thermal_voltage: float                   # V
    contact_resistance: tuple[float, float, float]

    def __post_init__(self) -> None:
        if not (self.sheet_conductance > 0.0):
            raise ValueError("sheet_conductance must be positive")
        if self.saturation_current_density < 0.0:
            raise ValueError("saturation_current_density must be >= 0")
        if not (1.0 <= self.ideality <= 2.0):
            raise ValueError("ideality must lie in [1, 2]")
        if not (self.thermal_voltage > 0.0):
            raise ValueError("thermal_voltage must be positive")
        if len(self.contact_resistance) != 3:
            raise ValueError("contact_resistance needs one value per terminal")
        for r in self.contact_resistance:
            if not (r > 0.0):
                raise ValueError("contact resistances must be positive")


@dataclass(frozen=True, eq=False)
class Mesh:
    """Conforming triangle mesh with its contact nodes, checked when built.

    ``pads`` holds the contact nodes of terminals A, B and C, in that order:
    the nodes on the outer edge of each pad, or an empty array for a
    terminal without one.  ``qd_node`` is the node of interest at the
    pillar centre.
    The two vertical-stack scalars are copied from the generating geometry
    so field post-processing does not need the geometry object.
    ``geometry`` is the layout ``generate_mesh`` meshed, so the same
    device can be meshed again at another edge; other meshes have none.

    Construction raises ``MeshError`` unless every cell has positive area,
    no edge exceeds twice a positive ``target_edge``, the cells connect
    every node (so none lies outside every cell) and no node is on two pads.

    A mesh equals only itself and hashes by identity, so it can key a
    cache (``solver.sheet_system``); a copy is a different mesh.  It holds
    read-only copies of ``nodes``, ``cells`` and each ``pads`` array, so no
    write can change it under a system built from it.
    """

    nodes: np.ndarray                  # (N, 2) float64, um
    cells: np.ndarray                  # (M, 3) int32, CCW
    pads: tuple[np.ndarray, ...]       # int32 node ids per terminal A, B, C
    qd_node: int
    built_in_voltage: float
    intrinsic_thickness_nm: float
    target_edge: float = 0.0
    geometry: DeviceGeometry | None = None

    def __post_init__(self) -> None:
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        object.__setattr__(self, "nodes", _read_only(self.nodes))
        object.__setattr__(self, "cells", _read_only(self.cells))
        object.__setattr__(self, "pads", tuple(map(_read_only, self.pads)))
        if not np.all(cell_areas(self) > 0.0):
            raise MeshError("mesh contains non-positive-area cells")

        # every cell edge, as (start, end) node ids
        ends = (self.cells.ravel(), np.roll(self.cells, -1, axis=1).ravel())
        length = np.hypot(*(self.nodes[ends[0]] - self.nodes[ends[1]]).T)
        if self.target_edge > 0.0 and length.max() > 2.0 * self.target_edge + 1e-9:
            raise MeshError("mesh edge exceeds twice the target edge length")
        graph = coo_matrix((np.ones(len(length)), ends), shape=(self.n_nodes,) * 2)
        if connected_components(graph, directed=False)[0] != 1:
            raise MeshError("mesh is not connected")
        ids = np.concatenate([np.unique(pad) for pad in self.pads])
        if len(np.unique(ids)) < len(ids):
            raise MeshError("pads are not disjoint")

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.shape[0])

    @property
    def n_cells(self) -> int:
        return int(self.cells.shape[0])


def _read_only(array) -> np.ndarray:
    copy = np.array(array)
    copy.setflags(write=False)
    return copy


def _circ_dist(a: float, b: float) -> float:
    d = math.fmod(a - b, TWO_PI)
    if d < 0.0:
        d += TWO_PI
    return min(d, TWO_PI - d)


def _unit(angle: float) -> np.ndarray:
    return np.array([math.cos(angle), math.sin(angle)])


def _perp(angle: float) -> np.ndarray:
    return np.array([-math.sin(angle), math.cos(angle)])


def _rectangle(alpha: float, s0: float, s1: float, width: float) -> np.ndarray:
    """Corners of the rectangle from s0 to s1 along direction alpha, width across."""
    h = 0.5 * width
    frame = np.array([_unit(alpha), _perp(alpha)])
    return np.array([[s0, -h], [s1, -h], [s1, h], [s0, h]]) @ frame


def _convex_overlap(p: np.ndarray, q: np.ndarray, tol: float = 1e-9) -> bool:
    """Separating-axis test for two convex polygons (strict interior overlap)."""
    for poly in (p, q):
        n = len(poly)
        for i in range(n):
            edge = poly[(i + 1) % n] - poly[i]
            axis = np.array([-edge[1], edge[0]])
            norm = np.hypot(axis[0], axis[1])
            if norm == 0.0:
                continue
            axis /= norm
            p_proj = p @ axis
            q_proj = q @ axis
            if p_proj.max() <= q_proj.min() + tol or q_proj.max() <= p_proj.min() + tol:
                return False
    return True


def build_geometry(config: DeviceGeometry) -> DeviceGeometry:
    # kept only because perfbench/ still calls it; DeviceGeometry checks itself
    return config


def _subdiv(length: float, edge: float) -> int:
    return max(1, int(math.ceil(length / edge - 1e-9)))


def generate_mesh(geometry: DeviceGeometry, target_edge_length: float) -> Mesh:
    """Triangulate the device layout with a block-structured conforming mesh.

    One list of rim points runs counter-clockwise round the pillar: the flat
    chord of each ridge, then the arc to the next ridge.  The pillar is that
    rim scaled onto concentric rings round the centre node.  Each ridge
    continues its chord's slice of the outermost ring as a grid of rows, and
    each pad widens the ridge's last row to the pad width.  ``_stitch_rows``
    splits every quad of rings, ridges and pads into two triangles.

    Maximum element edge stays below twice ``target_edge_length``.  The
    pillar-centre node is index 0 and becomes ``qd_node``.
    """
    if not (target_edge_length > 0.0):
        raise MeshError("target_edge_length must be positive")

    g = geometry
    r = g.pillar_radius
    beta = g.attach_half_angle
    d = g.chord_distance
    w = g.ridge_width
    edge = float(target_edge_length)

    order = sorted(range(3), key=lambda k: g.ridge_angles[k] % TWO_PI)
    sorted_angles = [g.ridge_angles[k] % TWO_PI for k in order]
    t_chord = np.linspace(-0.5 * w, 0.5 * w, _subdiv(w, edge) + 1)

    # Rim points; ridge k's chord starts at rim[chord_start[k]].
    rim: list[np.ndarray] = []
    chord_start = [0, 0, 0]
    for pos, k in enumerate(order):
        alpha = sorted_angles[pos]
        u, v = _unit(g.ridge_angles[k]), _perp(g.ridge_angles[k])
        chord_start[k] = len(rim)
        rim.extend(d * u + t * v for t in t_chord)
        alpha_next = sorted_angles[(pos + 1) % 3] + (TWO_PI if pos == 2 else 0.0)
        arc_span = (alpha_next - beta) - (alpha + beta)
        n_arc = _subdiv(r * arc_span, edge)
        rim.extend(
            r * _unit(alpha + beta + arc_span * i / n_arc) for i in range(1, n_arc)
        )

    # Pillar: centre node 0, then ring i holds the rim scaled by (i+1)/n_rings.
    n_theta = len(rim)
    n_rings = max(2, _subdiv(r, edge))
    rim_arr = np.array(rim)
    nodes = [np.zeros((1, 2))] + [(i + 1) / n_rings * rim_arr for i in range(n_rings)]
    rings = 1 + np.arange(n_rings * n_theta).reshape(n_rings, n_theta)
    rings = np.column_stack([rings, rings[:, 0]])  # close each ring
    fan = np.column_stack([np.zeros(n_theta, int), rings[0, :-1], rings[0, 1:]])
    cells = [fan, _stitch_rows(rings)]

    def add_rows(alpha: float, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """New nodes s*u + t*v in the ridge frame at alpha; ids, one row per s."""
        u, v = _unit(alpha), _perp(alpha)
        points = np.asarray(s)[:, None, None] * u + t[None, :, None] * v
        first = sum(len(block) for block in nodes)
        nodes.append(points.reshape(-1, 2))
        return first + np.arange(points[..., 0].size).reshape(points.shape[:2])

    length, pad = g.ridge_length, g.pad_size
    n_s = _subdiv(length, edge)
    n_p = _subdiv(pad, edge)
    n_e = _subdiv(0.5 * (pad - w), edge) if pad > w else 0
    # Pad t-values: the ridge's, extended symmetrically to the pad width.
    ext = np.linspace(0.5 * w, 0.5 * pad, n_e + 1)[1:]
    t_pad = np.concatenate([-ext[::-1], t_chord, ext])

    pads = []
    for k, alpha in enumerate(g.ridge_angles):
        root = rings[-1, chord_start[k] : chord_start[k] + len(t_chord)]
        s_ridge = d + length * np.arange(1, n_s + 1) / n_s
        ridge = np.vstack([root, add_rows(alpha, s_ridge, t_chord)])
        sides = add_rows(alpha, [d + length], np.concatenate([-ext[::-1], ext]))[0]
        s_pad = d + length + pad * np.arange(1, n_p + 1) / n_p
        pad_rows = np.vstack([
            np.concatenate([sides[:n_e], ridge[-1], sides[n_e:]]),
            add_rows(alpha, s_pad, t_pad),
        ])
        cells += [_stitch_rows(ridge), _stitch_rows(pad_rows)]
        pads.append(pad_rows[-1].astype(np.int32))

    node_arr = np.concatenate(nodes)
    cell_arr = _orient_ccw(node_arr, np.concatenate(cells).astype(np.int32))

    return Mesh(
        nodes=node_arr,
        cells=cell_arr,
        pads=tuple(pads),
        qd_node=0,
        built_in_voltage=g.built_in_voltage,
        intrinsic_thickness_nm=g.intrinsic_thickness_nm,
        target_edge=edge,
        geometry=geometry,
    )


def _stitch_rows(rows: np.ndarray) -> np.ndarray:
    """Split each quad between consecutive rows of a node-index grid in two.

    Quad (lo[j], lo[j+1], hi[j+1], hi[j]) becomes the triangles
    (lo[j], lo[j+1], hi[j+1]) and (lo[j], hi[j+1], hi[j]), row by row.
    """
    lo, hi = rows[:-1], rows[1:]
    a, b, c, e = lo[:, :-1], lo[:, 1:], hi[:, 1:], hi[:, :-1]
    return np.stack([a, b, c, a, c, e], axis=-1).reshape(-1, 3)


def _signed_area2(nodes: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Twice the signed area of each triangle, positive when counter-clockwise."""
    p0 = nodes[cells[:, 0]]
    p1 = nodes[cells[:, 1]]
    p2 = nodes[cells[:, 2]]
    return (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (
        p2[:, 0] - p0[:, 0]
    ) * (p1[:, 1] - p0[:, 1])


def _orient_ccw(nodes: np.ndarray, cells: np.ndarray) -> np.ndarray:
    flip = _signed_area2(nodes, cells) < 0.0
    out = cells.copy()
    out[flip, 1], out[flip, 2] = cells[flip, 2], cells[flip, 1]
    return out


def cell_areas(mesh: Mesh) -> np.ndarray:
    return 0.5 * _signed_area2(mesh.nodes, mesh.cells)


def cell_gradients(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """P1 basis gradients (b, c), each (cells, 3): vertex i's basis function
    has gradient (y_{i+1} - y_{i+2}, x_{i+2} - x_{i+1}) / 2A in its cell."""
    x, y = mesh.nodes[mesh.cells].transpose(2, 0, 1)
    area2 = 2.0 * cell_areas(mesh)[:, None]  # exact: undoes the halving
    nxt, prev = [1, 2, 0], [2, 0, 1]  # vertex i + 1 and i + 2
    return (y[:, nxt] - y[:, prev]) / area2, (x[:, prev] - x[:, nxt]) / area2


@functools.lru_cache(maxsize=_CACHED_COARSE_GRIDS)
def coarse_grid(mesh: Mesh):
    """The 3x-edge mesh of ``mesh`` and its prolongation, built on first use.

    The grid meshes ``mesh.geometry`` at ``_COARSE_EDGE_FACTOR`` times the
    edge of ``mesh``, so ``mesh`` must come from ``generate_mesh``.  The
    prolongation is the sparse (n, n_grid) P1 interpolation of grid
    potentials onto ``mesh``: each node takes its barycentric weights in a
    grid cell that holds it.  A node outside every grid cell (on the
    pillar arc, which the coarser rim cuts inside) takes the weights of its
    nearest cell, clamped to non-negative and renormalized.  Candidate
    cells come from a grid of buckets as wide as the widest cell, a dozen
    or so per node; only the few outside nodes are measured against every
    cell.  A mesh (by identity) gets the same pair on every call, of the
    ``_CACHED_COARSE_GRIDS`` most recently used.
    """
    from scipy.sparse import csr_matrix

    grid = generate_mesh(mesh.geometry, _COARSE_EDGE_FACTOR * mesh.target_edge)
    x, y = mesh.nodes.T
    n = len(x)
    cx, cy = grid.nodes[grid.cells].transpose(2, 0, 1)  # (cells, 3)
    ax, ay = np.roll(cx, -1, axis=1), np.roll(cy, -1, axis=1)  # vertex i + 1
    bx, by = np.roll(cx, 1, axis=1), np.roll(cy, 1, axis=1)  # vertex i + 2
    gx, gy = (g.T for g in cell_gradients(grid))  # (3, cells) weight gradients

    def weights(node, cell):
        # from differences to vertex 0, so exact to rounding on linear fields
        dx, dy = x[node] - cx[cell, 0], y[node] - cy[cell, 0]
        return [gx[i, cell] * dx + gy[i, cell] * dy + float(i == 0) for i in range(3)]

    # A cell holding a node has the lower-left corner of its bounding box in
    # the node's bucket, the one left of it, below it or both.
    lx, ly = cx.min(axis=1), cy.min(axis=1)
    width = max(np.ptp(cx, axis=1).max(), np.ptp(cy, axis=1).max())

    def bucket(px, py):
        return (
            np.floor((px - lx.min()) / width).astype(int),
            np.floor((py - ly.min()) / width).astype(int),
        )

    ix, iy = bucket(lx, ly)
    rows = iy.max() + 2
    order = np.argsort(ix * rows + iy, kind="stable")
    keys = (ix * rows + iy)[order]
    jx, jy = bucket(x, y)
    low = (jx[:, None] - [0, 1]) * rows + (jy - 1)[:, None]  # then row jy
    start = np.searchsorted(keys, low).ravel()
    count = np.searchsorted(keys, low + 1, side="right").ravel() - start
    node = np.repeat(np.arange(n), count.reshape(n, 2).sum(axis=1))
    offset = np.repeat(start - np.cumsum(count) + count, count)
    cell = order[np.arange(count.sum()) + offset]
    # in the cell, or on its edge to rounding
    holds = np.logical_and.reduce([w >= -1e-12 for w in weights(node, cell)])
    hit, first = np.unique(node[holds], return_index=True)
    owner = np.full(n, -1)
    owner[hit] = cell[holds][first]

    # Nodes outside the grid: distance to each cell edge a -> b.
    out = np.flatnonzero(owner < 0)
    px, py = x[out, None, None], y[out, None, None]
    ex, ey = bx - ax, by - ay
    t = np.clip(((px - ax) * ex + (py - ay) * ey) / (ex * ex + ey * ey), 0.0, 1.0)
    gap = np.hypot(px - ax - t * ex, py - ay - t * ey).min(axis=2)
    owner[out] = gap.argmin(axis=1)

    w = np.clip(np.column_stack(weights(np.arange(n), owner)), 0.0, None)
    w /= w.sum(axis=1, keepdims=True)
    indptr = np.arange(0, 3 * n + 1, 3)
    cols = grid.cells[owner].ravel()
    return grid, csr_matrix((w.ravel(), cols, indptr), shape=(n, grid.n_nodes))


def make_strip_mesh(
    length: float,
    width: float,
    edge: float,
    *,
    built_in_voltage: float,
    intrinsic_thickness_nm: float,
) -> Mesh:
    """Rectangular two-contact strip used for Laplace-limit validation.

    Pad A spans the x=0 edge, pad B the x=length edge; C has no pad.
    The probe node sits closest to the strip centre.
    """
    if length <= 0.0 or width <= 0.0 or edge <= 0.0:
        raise MeshError("strip dimensions and edge must be positive")
    nx = _subdiv(length, edge)
    ny = _subdiv(width, edge)
    xs = np.linspace(0.0, length, nx + 1)
    ys = np.linspace(0.0, width, ny + 1)

    nodes = np.array([[x, y] for y in ys for x in xs])
    grid = np.arange(len(nodes)).reshape(ny + 1, nx + 1)  # row j holds y = ys[j]

    centre = np.array([0.5 * length, 0.5 * width])
    qd = int(np.argmin(np.hypot(nodes[:, 0] - centre[0], nodes[:, 1] - centre[1])))

    return Mesh(
        nodes=nodes,
        cells=_stitch_rows(grid).astype(np.int32),
        pads=(
            grid[:, 0].astype(np.int32),
            grid[:, nx].astype(np.int32),
            np.empty(0, dtype=np.int32),
        ),
        qd_node=qd,
        built_in_voltage=built_in_voltage,
        intrinsic_thickness_nm=intrinsic_thickness_nm,
        target_edge=edge,
    )
