"""Grids, masks and scalar fields on the reference ball.

The computational substrate is a uniform lattice with an odd number of nodes
per side covering the cube [-R_B, R_B]^n; the open reference ball B of radius
R_B is inscribed in that cube.  A Mask is a finite set of lattice nodes lying
strictly inside B, carries its Grid, and stands for the open set the
eigenfunction lives on.  A ScalarField carries its Mask and one value per
lattice node, zero outside the mask (extension by zero to the whole of B).

All operations are pure: they return fresh immutable objects and never touch
their inputs, so grids, masks and fields can be shared freely across threads.
The module also owns the lattice gradient and every file format of masks and
fields.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral, Real

import numpy as np
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components as graph_components


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
        """Coordinate of each node along any axis, from -radius_B to radius_B;
        every absolute node coordinate is read from here."""
        return np.linspace(-self.radius_B, self.radius_B, self.nodes_per_side)


# The lattices the field solvers handle (nodes_per_side must also be odd);
# higher dimensions are served only by the constants module.
FIELD_DIMS = (2, 3)
MIN_NODES_PER_SIDE = 9


def is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for a Python or numpy real number; a bool is not one."""
    return isinstance(value, Real) and not isinstance(value, bool)


def count_errors(name: str, value, rule: str, holds) -> list[str]:
    """The integer-count rule: no message when value is an integer for which
    ``holds(value)`` is true, else one naming the field; ``rule`` words what
    ``holds`` checks."""
    if not is_integer(value):
        return [f"{name}: must be an integer, got {value!r}"]
    return [] if holds(value) else [f"{name}: must be {rule}, got {value}"]


def real_errors(name: str, value, upper: float = np.inf) -> list[str]:
    """The real-in-an-open-interval rule: no message when value is a real
    number in (0, upper), else one naming the field."""
    if not is_real(value):
        return [f"{name}: must be a real number, got {value!r}"]
    if 0 < value < upper:
        return []
    if upper == np.inf:
        return [f"{name}: must be positive and finite, got {value}"]
    return [f"{name}: must lie in (0, {upper:g}), got {value}"]


def raise_errors(errors: list[str]) -> None:
    """Raise one ValueError joining the messages, if there are any."""
    if errors:
        raise ValueError("; ".join(errors))


def lattice_errors(dim: int, nodes_per_side: int, radius_B: float) -> list[str]:
    """Every way the lattice misses the rule the field solvers need, one
    message per field: dim an integer in ``FIELD_DIMS``, nodes_per_side an
    odd integer (so the center is a node) and at least
    ``MIN_NODES_PER_SIDE``, radius_B a positive and finite real number."""
    return (count_errors("dim", dim, f"one of {FIELD_DIMS}", FIELD_DIMS.__contains__)
            + count_errors("nodes_per_side", nodes_per_side,
                           f"odd and >= {MIN_NODES_PER_SIDE}",
                           lambda k: k >= MIN_NODES_PER_SIDE and k % 2 == 1)
            + real_errors("radius_B", radius_B))


def make_grid(dim: int, nodes_per_side: int, radius_B: float) -> Grid:
    """Build a grid, raising one ValueError that lists every
    ``lattice_errors`` of the shape."""
    raise_errors(lattice_errors(dim, nodes_per_side, radius_B))
    return Grid(int(dim), int(nodes_per_side), float(radius_B))


@lru_cache(maxsize=32)
def inside_ball(grid: Grid) -> np.ndarray:
    """Boolean array of nodes strictly inside the open reference ball."""
    axes = np.meshgrid(*[grid.axis_coords()] * grid.dim, indexing="ij", sparse=True)
    ins = sum(a * a for a in axes) < grid.radius_B ** 2
    ins.setflags(write=False)
    return ins


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
    if not np.all(np.abs(center) <= grid.radius_B):
        raise ValueError(f"center {center.tolist()} lies outside the bounding box")
    if not radius >= 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    axes = np.meshgrid(*[grid.axis_coords()] * grid.dim, indexing="ij", sparse=True)
    d2 = sum((a - c) ** 2 for a, c in zip(axes, center))
    return _freeze_mask(grid, d2 < radius * radius)


def mask_volume(mask: Mask) -> float:
    """Lattice measure of the mask: h^n per member node."""
    return mask.grid.spacing ** mask.grid.dim * mask.member_count


def face_neighbours(values: np.ndarray, fill=0):
    """The 2n face-neighbour views of a node array, ``fill`` (zero unless
    given) beyond its border: view k holds, at each node, its k-th
    neighbour's value; along each axis the upper neighbour comes first.
    All views share one padded copy of the array."""
    padded = np.full([size + 2 for size in values.shape], fill, dtype=values.dtype)
    core = [slice(1, -1)] * values.ndim
    padded[tuple(core)] = values
    for ax in range(values.ndim):
        for start in (2, 0):
            shift = list(core)
            shift[ax] = slice(start, start + values.shape[ax])
            yield padded[tuple(shift)]


def gradient_field(field: ScalarField) -> np.ndarray:
    """Central differences of the zero-extended field, shape (dim, *grid)."""
    views = list(face_neighbours(field.values))
    two_h = 2.0 * field.grid.spacing
    return np.stack([(up - down) / two_h for up, down in zip(views[::2], views[1::2])])


def _label(members: np.ndarray) -> tuple[int, np.ndarray]:
    """Face-adjacency components of a boolean array.  Returns (count,
    labels); labels are 0 off the members and 1..count on them, numbered in
    the C order of each component's first member.  That is csgraph's own
    numbering: it labels an undirected graph by scanning its nodes in index
    order, and the members' indices follow C order
    (``TestMatchesNdimage::test_random_masks`` pins it against
    ``ndimage.label``)."""
    size = int(np.count_nonzero(members))
    ids = np.full(members.shape, -1)
    ids[members] = np.arange(size)
    # the graph is undirected: the upper neighbour along each axis suffices
    upper = list(face_neighbours(ids, -1))[::2]
    rows = np.tile(ids[members], members.ndim)
    cols = np.concatenate([view[members] for view in upper])
    linked = cols >= 0
    adjacency = coo_array((np.ones(np.count_nonzero(linked)), (rows[linked], cols[linked])),
                          shape=(size, size))
    count, comp = graph_components(adjacency, directed=False)
    labels = np.zeros(members.shape, dtype=np.int32)
    labels[members] = comp + 1
    return int(count), labels


def connected_components(mask: Mask) -> tuple[int, np.ndarray]:
    """Face-adjacency components.  Returns (count, labels); labels are 0 for
    non-members and 1..count for members, numbered in the C order of each
    component's first member."""
    return _label(mask.inside)


def fill_holes(mask: Mask) -> Mask | None:
    """The mask with its holes made members, or None when it has no hole.

    A hole is a face-connected set of non-members that cannot reach the
    outside of the mask's bounding box.  Each hole node has members on both
    sides of it along every axis, so it lies inside the reference ball, and a
    box with no such non-member has no hole.  Otherwise the box is labelled,
    padded by one layer of non-members: the padding is one component, first
    in C order, and every non-member that reaches it lies outside the mask.
    """
    inside = mask.inside
    if not inside.any():
        return None
    box = tuple(slice(ax.min(), ax.max() + 1) for ax in np.nonzero(inside))
    members = inside[box]
    enclosed = ~members
    for ax in range(members.ndim):
        enclosed &= np.logical_or.accumulate(members, axis=ax)
        enclosed &= np.flip(np.logical_or.accumulate(np.flip(members, ax), axis=ax), ax)
    if not enclosed.any():
        return None
    _, labels = _label(np.pad(~members, 1, constant_values=True))
    holes = labels[(slice(1, -1),) * members.ndim] > 1
    if not holes.any():
        return None
    filled = inside.copy()
    filled[box] |= holes
    return _freeze_mask(mask.grid, filled)


def dilate(mask: Mask) -> Mask:
    """Add one ring of face neighbors, clipped to the reference ball."""
    grown = mask.inside.copy()
    for neighbour in face_neighbours(mask.inside):
        grown |= neighbour
    return _freeze_mask(mask.grid, grown)


def erode(mask: Mask) -> Mask:
    """Remove members that have any non-member face neighbor (nodes beyond
    the lattice count as non-members)."""
    kept = mask.inside.copy()
    for neighbour in face_neighbours(mask.inside):
        kept &= neighbour
    return _freeze_mask(mask.grid, kept)


def boundary_nodes(mask: Mask) -> np.ndarray:
    """Members with at least one non-member face neighbor (boolean array)."""
    return np.logical_and(mask.inside, np.logical_not(erode(mask).inside))


def member_positions(mask: Mask) -> np.ndarray:
    """Coordinates of the member nodes, shape (count, dim)."""
    return mask.grid.axis_coords()[np.argwhere(mask.inside)]


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
# serialization: PGM (2D masks), MSK1 masks and FLD1 fields (flat binary,
# any supported dim), CSV fields (readable, small grids)
# ---------------------------------------------------------------------------

# MSK1 and FLD1: magic, dim, nodes_per_side, radius_B, zero padding to 32
# bytes, then one payload value per node in C order
_HEADER = struct.Struct("<4sIId12x")


def _write_lattice_file(path, magic: bytes, grid: Grid, payload: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(magic, grid.dim, grid.nodes_per_side, grid.radius_B))
        fh.write(payload.tobytes())


def _read_lattice_file(path, magic: bytes, dtype: str) -> tuple[Grid, np.ndarray]:
    """The grid in the header and the payload as an array of its shape;
    raises ValueError unless the magic and the payload size match."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise ValueError("truncated header")
    got, dim, n, radius = _HEADER.unpack_from(blob)
    if got != magic:
        raise ValueError(f"bad magic {got!r}, expected {magic!r}")
    grid = make_grid(dim, n, radius)
    if len(blob) - _HEADER.size != grid.node_count * np.dtype(dtype).itemsize:
        raise ValueError("payload size does not match the header geometry")
    return grid, np.frombuffer(blob, dtype=dtype, offset=_HEADER.size).reshape(grid.shape)


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
    size = parts[1].split() if len(parts) == 4 else []
    if parts[0] != b"P5" or len(size) != 2 or not all(tok.isdigit() for tok in size):
        raise ValueError("not a binary PGM produced by save_mask_pgm")
    w, h = (int(tok) for tok in size)
    if parts[2] != b"255":
        raise ValueError("unexpected maxval")
    if (w, h) != (grid.nodes_per_side, grid.nodes_per_side) or grid.dim != 2:
        raise ValueError("PGM dimensions do not match the grid")
    if len(parts[3]) != w * h:
        raise ValueError("payload size does not match the header geometry")
    data = np.frombuffer(parts[3], dtype=np.uint8).reshape(h, w)
    return mask_from_array(grid, data > 127)


def save_mask_msk(mask: Mask, path) -> None:
    """Flat binary mask: 32-byte MSK1 header then one byte (0/1) per node in
    C order."""
    _write_lattice_file(path, b"MSK1", mask.grid, mask.inside.astype(np.uint8))


def load_mask_msk(path) -> Mask:
    grid, members = _read_lattice_file(path, b"MSK1", "u1")
    return mask_from_array(grid, members != 0)


def save_field_fld(field: ScalarField, path) -> None:
    """Flat binary dump: 32-byte FLD1 header, float64 node values in C order."""
    _write_lattice_file(path, b"FLD1", field.grid, field.values.astype("<f8"))


def load_field_fld(path) -> ScalarField:
    """Read a field written by ``save_field_fld``.

    FLD1 stores no membership, so the loaded mask is the support of the
    values: a member whose value is exactly 0.0 loads as a non-member.  Load
    the mask's own MSK1 or PGM file to recover the exact mask.
    """
    grid, values = _read_lattice_file(path, b"FLD1", "<f8")
    return make_field(mask_from_array(grid, values != 0.0), values)


def save_field_csv(field: ScalarField, path) -> None:
    """Readable dump for small grids: node index, coordinates, value."""
    grid = field.grid
    coords = grid.axis_coords()
    header = "index," + ",".join("xyz"[: grid.dim]) + ",value"
    lines = [header]
    for flat, idx in enumerate(np.ndindex(grid.shape)):
        pos = ",".join(format(coords[i], ".17g") for i in idx)
        lines.append(f"{flat},{pos},{format(field.values[idx], '.17g')}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
