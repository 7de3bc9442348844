"""Discrete clamped bilaplacian and the fundamental-tone eigensolver.

The clamped conditions u = |grad u| = 0 on the free boundary are not imposed
on any fitted mesh.  Instead every field is extended by zero outside its mask
and the energy sums |lap u|^2 over the whole lattice: a jump in the normal
derivative across the mask edge costs O(1/h) energy, so as the lattice is
refined the minimizer is forced flat at the boundary.  The masked operator is

    A = restrict . lap_h . lap_h . extend

with lap_h the (2n+1)-point Laplacian, i.e. the 13-point biharmonic stencil
in 2D once the zero padding is folded in.  A is symmetric positive definite
on the masked subspace, so the smallest eigenvalue is found by shift-invert
Lanczos (ARPACK through ``scipy.sparse.linalg.eigsh``) at shift zero, with a
single sparse LU of A, factored in SuperLU's symmetric mode (minimum degree
ordering of A + A^T, diagonal pivots), serving every inverse application.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from platetone.field_grid import (
    Grid,
    Mask,
    ScalarField,
    _pack_header,
    _unpack_header,
    _HEADER_SIZE,
    make_field,
)


# Lanczos basis size of the eigensolve.  Triangular solves per optimize run
# for NCV = 5/6/8/10/20: 5112/3636/3847/4878/8608 on the 2D N=129 annulus
# start and 927/854/990/1210/2310 on the 3D N=33 square start.
NCV = 6


class VanishingFieldError(ValueError):
    """Rayleigh quotient of an identically zero field (value would be +inf)."""


class EmptyMaskError(ValueError):
    """An eigensolve was requested on an empty mask."""


class ConvergenceFailure(RuntimeError):
    """The eigensolver did not converge; carries the best pair it found."""

    def __init__(self, message: str, last_result: "ToneResult"):
        super().__init__(message)
        self.last_result = last_result


@dataclass(frozen=True, eq=False)
class ToneResult:
    """Fundamental tone of a masked domain and its normalized eigenfield.

    gamma is the smallest discrete eigenvalue; the eigenfield satisfies
    sum(u^2) h^n = 1; residual is ||A u - gamma u||_2 / ||u||_2; iterations
    counts the triangular solves with the LU factor of A (applications of
    A^-1), zero for masks small enough to be solved densely.
    """

    gamma: float
    eigenfield: ScalarField
    iterations: int
    residual: float


# ---------------------------------------------------------------------------
# stencil paths (array based, matrix free)
# ---------------------------------------------------------------------------

def _lap(values: np.ndarray, h: float) -> np.ndarray:
    """(2n+1)-point Laplacian of a zero-extended node array."""
    out = (-2.0 * values.ndim) * values
    for ax in range(values.ndim):
        lo = [slice(None)] * values.ndim
        hi = [slice(None)] * values.ndim
        lo[ax] = slice(0, -1)
        hi[ax] = slice(1, None)
        out[tuple(lo)] += values[tuple(hi)]
        out[tuple(hi)] += values[tuple(lo)]
    out /= h * h
    return out


def apply_clamped_bilap(grid: Grid, mask: Mask, field: ScalarField) -> ScalarField:
    """lap_h(lap_h u~) restricted to the mask, u~ the zero extension."""
    if field.mask is not mask and field.mask != mask:
        raise ValueError("field mask does not match the operator mask")
    w = _lap(_lap(field.values, grid.spacing), grid.spacing)
    return make_field(mask, w)


def rayleigh_quotient(grid: Grid, mask: Mask, field: ScalarField) -> float:
    """sum over all nodes of (lap_h u~)^2 over sum of u^2 (h^n cancels in the
    numerator/denominator pair shown; both carry it).

    The numerator deliberately sums over every lattice node: the energy the
    zero extension deposits just outside the mask is what encodes the clamped
    condition.
    """
    den = float(np.sum(field.values * field.values))
    if den == 0.0:
        raise VanishingFieldError("Rayleigh quotient of a vanishing field")
    w = _lap(field.values, grid.spacing)
    return float(np.sum(w * w)) / den


def gradient_field(grid: Grid, field: ScalarField) -> np.ndarray:
    """Central differences of the zero-extended field, shape (dim, *grid)."""
    v = field.values
    h = grid.spacing
    out = np.zeros((grid.dim,) + grid.shape)
    for ax in range(grid.dim):
        lo = [slice(None)] * grid.dim
        hi = [slice(None)] * grid.dim
        lo[ax] = slice(0, -1)
        hi[ax] = slice(1, None)
        g = out[ax]
        g[tuple(lo)] += v[tuple(hi)]
        g[tuple(hi)] -= v[tuple(lo)]
        g /= 2.0 * h
    return out


def eigen_residual(grid: Grid, mask: Mask, field: ScalarField, gamma: float) -> float:
    """||A u - gamma u||_2 / ||u||_2 for the masked operator."""
    norm = float(np.linalg.norm(field.values))
    if norm == 0.0:
        raise VanishingFieldError("residual of a vanishing field")
    au = _lap(_lap(field.values, grid.spacing), grid.spacing)
    r = np.where(mask.inside, au - gamma * field.values, 0.0)
    return float(np.linalg.norm(r)) / norm


# ---------------------------------------------------------------------------
# sparse operator and eigensolver
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _grid_laplacian(grid: Grid) -> sp.csr_matrix:
    """Full-lattice Laplacian with zero Dirichlet padding beyond the box."""
    n = grid.nodes_per_side
    h = grid.spacing
    t = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n), format="csr")
    eye = sp.identity(n, format="csr")
    L = None
    for ax in range(grid.dim):
        parts = [t if k == ax else eye for k in range(grid.dim)]
        term = parts[0]
        for p in parts[1:]:
            term = sp.kron(term, p, format="csr")
        L = term if L is None else L + term
    return (L / (h * h)).tocsr()


def _masked_bilap(grid: Grid, mask: Mask) -> tuple[sp.csr_matrix, np.ndarray]:
    """Masked biharmonic matrix A = L[mask,:] @ L[:,mask] and the flat index."""
    flat = np.flatnonzero(mask.inside.ravel())
    L = _grid_laplacian(grid)
    rows = L[flat]
    return (rows @ rows.T).tocsr(), flat


def fundamental_tone(grid: Grid, mask: Mask, tol: float = 1e-8,
                     max_iter: int = 200, initial: ScalarField | None = None,
                     residual_tol: float | None = None) -> ToneResult:
    """Smallest eigenvalue of the masked clamped bilaplacian.

    A is factored once in SuperLU's symmetric mode and ARPACK's
    shift-invert Lanczos (``eigsh`` with sigma = 0) finds the largest
    eigenvalue of A^-1; ``tol`` is ARPACK's relative accuracy of that Ritz
    value and ``max_iter`` its restart budget.  Lanczos keeps ``NCV`` basis
    vectors, which separate a near-degenerate lowest pair (two similar
    components, an annulus) that a single-vector iteration cannot.  gamma
    is then recomputed as the Rayleigh quotient of the
    returned eigenvector and the residual from A.  Masks of at most ``NCV``
    nodes are solved densely.

    ``initial`` seeds the Lanczos start vector, which makes repeated solves
    on slowly changing masks cheap.

    Raises EmptyMaskError on an empty mask and ConvergenceFailure (carrying
    the best pair found) if ARPACK exhausts ``max_iter`` or the residual
    exceeds ``residual_tol * gamma`` (``residual_tol`` defaults to
    sqrt(tol)).
    """
    if mask.is_empty:
        raise EmptyMaskError("fundamental tone of an empty mask is undefined")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if residual_tol is None:
        residual_tol = tol ** 0.5

    A, flat = _masked_bilap(grid, mask)
    solves = 0
    failure = None
    if flat.size <= NCV:
        # ARPACK needs more unknowns than Lanczos vectors
        u = np.linalg.eigh(A.toarray())[1][:, 0]
    else:
        lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))

        def solve(rhs):
            nonlocal solves
            solves += 1
            return lu.solve(rhs)

        v0 = None
        if initial is not None:
            v0 = initial.values.ravel()[flat].astype(float)
        if v0 is None or not np.any(v0):
            v0 = np.ones(flat.size)
        op = spla.LinearOperator(A.shape, matvec=solve, dtype=float)
        try:
            _, vecs = spla.eigsh(A, k=1, sigma=0.0, which="LM", OPinv=op,
                                 v0=v0, tol=tol, ncv=NCV, maxiter=max_iter)
        except spla.ArpackNoConvergence as exc:
            vecs = exc.eigenvectors
            failure = f"ARPACK did not converge in {max_iter} restarts"
        # with no converged pair, one inverse-iteration step is the best guess
        u = vecs[:, 0] if vecs.size else solve(v0)

    u = u / np.linalg.norm(u)
    if u.sum() < 0.0:
        u = -u
    Au = A @ u
    gamma = float(u @ Au)
    residual = float(np.linalg.norm(Au - gamma * u))
    full = np.zeros(grid.node_count)
    full[flat] = u / np.sqrt(grid.spacing ** grid.dim)
    result = ToneResult(gamma=gamma,
                        eigenfield=make_field(mask, full.reshape(grid.shape)),
                        iterations=solves, residual=residual)
    if failure is None and residual > residual_tol * gamma:
        failure = f"residual above {residual_tol!r} * gamma"
    if failure is not None:
        raise ConvergenceFailure(
            f"{failure} (last gamma {gamma!r}, residual {residual!r})", result)
    return result


# ---------------------------------------------------------------------------
# field serialization
# ---------------------------------------------------------------------------

def save_field_fld(field: ScalarField, path) -> None:
    """Flat binary dump: 32-byte FLD1 header, float64 node values in C order."""
    with open(path, "wb") as fh:
        fh.write(_pack_header(b"FLD1", field.grid))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def load_field_fld(path) -> ScalarField:
    from platetone.field_grid import mask_from_array

    with open(path, "rb") as fh:
        blob = fh.read()
    grid = _unpack_header(blob, b"FLD1")
    body = np.frombuffer(blob[_HEADER_SIZE:], dtype="<f8")
    if body.size != grid.node_count:
        raise ValueError("payload size does not match the header geometry")
    values = body.reshape(grid.shape)
    mask = mask_from_array(grid, values != 0.0)
    return make_field(mask, values)


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
