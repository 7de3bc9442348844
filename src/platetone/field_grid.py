"""Grids, masks and scalar fields on the reference ball.

The computational substrate is a uniform lattice with an odd number of nodes
per side covering the cube [-R_B, R_B]^n; the open reference ball B of radius
R_B is inscribed in that cube.  A Mask is a finite set of lattice nodes lying
strictly inside B, carries its Grid, and stands for the open set the
eigenfunction lives on.  A ScalarField carries its Mask and one value per
lattice node, zero outside the mask (extension by zero to the whole of B).

All operations are pure: they return fresh immutable objects and never touch
their inputs, so grids, masks and fields can be shared freely across threads.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import ndimage


class MaskClippedWarning(UserWarning):
    """A geometric image left the reference ball and was clipped back to it."""


@dataclass(frozen=True)
class Grid:
    """Uniform lattice over [-radius_B, radius_B]^dim with an odd node count
    per side, so the box center is itself a node."""

    dim: int
    nodes_per_side: int
    radius_B: float

    @property
    def spacing(self) -> float:
        return 2.0 * self.radius_B / (self.nodes_per_side - 1)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.nodes_per_side,) * self.dim

    @property
    def node_count(self) -> int:
        return self.nodes_per_side ** self.dim

    def axis_coords(self) -> np.ndarray:
        return _axis_coords(self)


def make_grid(dim: int, nodes_per_side: int, radius_B: float) -> Grid:
    """Build a grid, rejecting shapes the field solvers cannot handle.

    dim must be 2 or 3 (higher dimensions are supported only by the constants
    module); nodes_per_side must be odd and at least 9; radius_B positive.
    """
    if dim not in (2, 3):
        raise ValueError(f"field grids support dim 2 or 3, got {dim}")
    if nodes_per_side < 9:
        raise ValueError(f"nodes_per_side must be >= 9, got {nodes_per_side}")
    if nodes_per_side % 2 == 0:
        raise ValueError(
            f"nodes_per_side must be odd so the center is a node, got {nodes_per_side}"
        )
    if not (radius_B > 0 and np.isfinite(radius_B)):
        raise ValueError(f"radius_B must be positive and finite, got {radius_B}")
    return Grid(dim, nodes_per_side, float(radius_B))


@lru_cache(maxsize=32)
def _axis_coords(grid: Grid) -> np.ndarray:
    c = np.linspace(-grid.radius_B, grid.radius_B, grid.nodes_per_side)
    c.setflags(write=False)
    return c


@lru_cache(maxsize=32)
def _radius_sq(grid: Grid) -> np.ndarray:
    axes = np.meshgrid(*[_axis_coords(grid)] * grid.dim, indexing="ij", sparse=True)
    r2 = sum(a * a for a in axes)
    r2.setflags(write=False)
    return r2


@lru_cache(maxsize=32)
def inside_ball(grid: Grid) -> np.ndarray:
    """Boolean array of nodes strictly inside the open reference ball."""
    ins = _radius_sq(grid) < grid.radius_B ** 2
    ins.setflags(write=False)
    return ins


@lru_cache(maxsize=8)
def _face_structure(dim: int) -> np.ndarray:
    return ndimage.generate_binary_structure(dim, 1)


@dataclass(frozen=True, eq=False)
class Mask:
    """A set of lattice nodes strictly inside the reference ball."""

    grid: Grid
    inside: np.ndarray      # bool, shape grid.shape, frozen

    def __eq__(self, other) -> bool:
        return (isinstance(other, Mask) and self.grid == other.grid
                and np.array_equal(self.inside, other.inside))

    @property
    def member_count(self) -> int:
        return int(np.count_nonzero(self.inside))

    @property
    def is_empty(self) -> bool:
        return not bool(self.inside.any())


def _freeze_mask(grid: Grid, raw: np.ndarray) -> Mask:
    arr = np.logical_and(raw, inside_ball(grid))
    arr.setflags(write=False)
    return Mask(grid, arr)


def mask_from_array(grid: Grid, members: np.ndarray) -> Mask:
    """Wrap a boolean membership array, clipping it to the open ball."""
    members = np.asarray(members, dtype=bool)
    if members.shape != grid.shape:
        raise ValueError(f"array shape {members.shape} does not match grid {grid.shape}")
    return _freeze_mask(grid, members)


def ball_mask(grid: Grid, center, radius: float) -> Mask:
    """Nodes with |x - center| < radius, clipped to the reference ball.

    An empty result is legal (radius 0, or a ball placed outside B).
    """
    center = np.asarray(center, dtype=float).reshape(-1)
    if center.size != grid.dim:
        raise ValueError(f"center must have {grid.dim} components")
    if np.any(np.abs(center) > grid.radius_B):
        raise ValueError(f"center {center.tolist()} lies outside the bounding box")
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    axes = np.meshgrid(*[grid.axis_coords()] * grid.dim, indexing="ij", sparse=True)
    d2 = sum((a - c) ** 2 for a, c in zip(axes, center))
    return _freeze_mask(grid, d2 < radius * radius)


def mask_volume(mask: Mask) -> float:
    """Lattice measure of the mask: h^n per member node."""
    return mask.grid.spacing ** mask.grid.dim * mask.member_count


def connected_components(mask: Mask) -> tuple[int, np.ndarray]:
    """Face-adjacency components.  Returns (count, labels); labels are 0 for
    non-members and 1..count for members."""
    labels, count = ndimage.label(mask.inside, structure=_face_structure(mask.grid.dim))
    return int(count), labels


def dilate(mask: Mask) -> Mask:
    """Add one ring of face neighbors, clipped to the reference ball."""
    grown = ndimage.binary_dilation(mask.inside, structure=_face_structure(mask.grid.dim))
    return _freeze_mask(mask.grid, grown)


def erode(mask: Mask) -> Mask:
    """Remove members that have any non-member face neighbor."""
    kept = ndimage.binary_erosion(
        mask.inside, structure=_face_structure(mask.grid.dim), border_value=0
    )
    return _freeze_mask(mask.grid, kept)


def boundary_nodes(mask: Mask) -> np.ndarray:
    """Members with at least one non-member face neighbor (boolean array)."""
    return np.logical_and(mask.inside, np.logical_not(erode(mask).inside))


def member_positions(mask: Mask) -> np.ndarray:
    """Coordinates of the member nodes, shape (count, dim)."""
    idx = np.argwhere(mask.inside)
    return idx * mask.grid.spacing - mask.grid.radius_B


def mask_centroid(mask: Mask) -> np.ndarray:
    if mask.is_empty:
        raise ValueError("centroid of an empty mask is undefined")
    return member_positions(mask).mean(axis=0)


def rescale_mask(mask: Mask, t: float) -> Mask:
    """Rescale about the mask centroid by the spatial factor t.

    A target node x is a member when the pulled-back point
    centroid + (x - centroid)/t lands (nearest-node sampling) on a member of
    the original mask, so the volume scales like t^n up to one boundary
    layer.  If the exact image leaves the open ball the result is clipped and
    a MaskClippedWarning is emitted.
    """
    if not (t > 0 and np.isfinite(t)):
        raise ValueError(f"scale factor must be positive and finite, got {t}")
    if t == 1.0 or mask.is_empty:
        return mask
    grid = mask.grid
    h = grid.spacing
    centroid = mask_centroid(mask)

    pts = member_positions(mask)
    image_radii = np.linalg.norm(centroid + t * (pts - centroid), axis=1)
    clipped = bool(np.any(image_radii >= grid.radius_B))

    targets = np.argwhere(inside_ball(grid))
    x = targets * h - grid.radius_B
    src = centroid + (x - centroid) / t
    idx = np.rint((src + grid.radius_B) / h).astype(np.int64)
    valid = np.all((idx >= 0) & (idx < grid.nodes_per_side), axis=1)
    hit = np.zeros(len(targets), dtype=bool)
    hit[valid] = mask.inside[tuple(idx[valid].T)]

    out = np.zeros(grid.shape, dtype=bool)
    out[tuple(targets[hit].T)] = True
    if clipped:
        warnings.warn(
            f"rescale by t={t} pushed the mask outside the reference ball; clipped",
            MaskClippedWarning,
            stacklevel=2,
        )
    return _freeze_mask(grid, out)


# ---------------------------------------------------------------------------
# scalar fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ScalarField:
    """One value per lattice node, identically zero outside the mask."""

    mask: Mask
    values: np.ndarray      # float64, shape grid.shape, frozen

    @property
    def grid(self) -> Grid:
        return self.mask.grid


def make_field(mask: Mask, values: np.ndarray) -> ScalarField:
    """Build a field on a mask; values off the mask are forced to zero.

    Rejects non-finite values anywhere on the mask.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != mask.grid.shape:
        raise ValueError(
            f"value shape {values.shape} does not match grid {mask.grid.shape}"
        )
    if not np.all(np.isfinite(values[mask.inside])):
        raise ValueError("field values must be finite")
    out = np.where(mask.inside, values, 0.0)
    out.setflags(write=False)
    return ScalarField(mask, out)


# ---------------------------------------------------------------------------
# serialization: PGM (2D masks) and MSK1 (flat binary, any supported dim)
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sII d")     # magic, dim, N, radius_B; padded to 32
_HEADER_SIZE = 32


def _pack_header(magic: bytes, grid: Grid) -> bytes:
    raw = _HEADER.pack(magic, grid.dim, grid.nodes_per_side, grid.radius_B)
    return raw + b"\x00" * (_HEADER_SIZE - len(raw))


def _unpack_header(blob: bytes, magic: bytes) -> Grid:
    if len(blob) < _HEADER_SIZE:
        raise ValueError("truncated header")
    got, dim, n, radius = _HEADER.unpack(blob[: _HEADER.size])
    if got != magic:
        raise ValueError(f"bad magic {got!r}, expected {magic!r}")
    return make_grid(dim, n, radius)


def save_mask_pgm(mask: Mask, path) -> None:
    """Binary PGM (P5): 0 outside the mask, 255 inside.  2D only.

    Image rows follow the first lattice axis; there is no geometry metadata,
    so the loader needs the grid the mask was built on.
    """
    if mask.grid.dim != 2:
        raise ValueError("PGM serialization is defined for 2D masks only")
    n = mask.grid.nodes_per_side
    header = f"P5\n{n} {n}\n255\n".encode("ascii")
    payload = np.where(mask.inside, 255, 0).astype(np.uint8).tobytes()
    with open(path, "wb") as fh:
        fh.write(header + payload)


def load_mask_pgm(path, grid: Grid) -> Mask:
    with open(path, "rb") as fh:
        blob = fh.read()
    parts = blob.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5":
        raise ValueError("not a binary PGM produced by save_mask_pgm")
    w, h = (int(tok) for tok in parts[1].split())
    if parts[2] != b"255":
        raise ValueError("unexpected maxval")
    if (w, h) != (grid.nodes_per_side, grid.nodes_per_side) or grid.dim != 2:
        raise ValueError("PGM dimensions do not match the grid")
    data = np.frombuffer(parts[3][: w * h], dtype=np.uint8).reshape(h, w)
    return mask_from_array(grid, data > 127)


def save_mask_msk(mask: Mask, path) -> None:
    """Flat binary mask: 32-byte MSK1 header then one byte (0/1) per node in
    C order."""
    with open(path, "wb") as fh:
        fh.write(_pack_header(b"MSK1", mask.grid))
        fh.write(mask.inside.astype(np.uint8).tobytes())


def load_mask_msk(path) -> Mask:
    with open(path, "rb") as fh:
        blob = fh.read()
    grid = _unpack_header(blob, b"MSK1")
    body = np.frombuffer(blob[_HEADER_SIZE:], dtype=np.uint8)
    if body.size != grid.node_count:
        raise ValueError("payload size does not match the header geometry")
    return mask_from_array(grid, body.reshape(grid.shape) != 0)
