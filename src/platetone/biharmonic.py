"""Discrete clamped bilaplacian and the fundamental-tone eigensolver.

A mask stands for the union of its members' lattice cells, the set whose
volume ``mask_volume`` counts, so the plate is clamped (u = |grad u| = 0) at
the midpoint of every lattice edge from a member to a non-member.  The
energy is |K u|^2 over the member values u, with three kinds of row in K:

* each member's (2n+1)-point Laplacian, where the value beyond a cut edge
  is the ghost of the clamped profile a s^2 + b s^3 (s the distance from the
  wall) through the member and its inward neighbor;
* one consistency row per such edge, which ties the member and its next two
  inward neighbors to that profile;
* where a cut edge has fewer than two inward members to fit (isolated nodes,
  features one or two nodes thick) the value beyond it is zero instead, and
  the exterior node keeps the row of the zero-extension energy there.

The masked operator A = K^T K is symmetric, and positive definite on every
mask tried; on masks whose cells are the exact domain (an axis-aligned box)
its tone converges at second order in h.  The smallest eigenvalue is found by
shift-invert Lanczos (ARPACK through ``scipy.sparse.linalg.eigsh``) at shift
zero, with a single banded Cholesky factor of A (LAPACK through
``scipy.linalg.cholesky_banded``) serving every inverse application.  The
members are numbered along the lattice diagonal, by coordinate sum and then
flat index, so a face neighbor lies in the next or the previous diagonal
layer: A's band is about two layers wide, about 1/sqrt(n) of the band of the
flat order (two lattice planes or rows).  Every
function reads the lattice from its mask and the mask from its field;
``rayleigh_quotient`` and ``eigen_residual`` also take both, and reject
copies that differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh
from scipy.linalg import cho_solve_banded, cholesky_banded

from platetone.field_grid import Grid, Mask, ScalarField, make_field, raise_errors, real_errors
# re-exported only because perfbench/worker.py imports the field codecs from here
from platetone.field_grid import save_field_csv, save_field_fld


# Lanczos basis size of the eigensolve.  Triangular solves per optimize run
# of the seed-0 benchmark configs for NCV = 4/5/6/7/8/10: 291/258/210/212/
# 213/251 on the 2D N=129 annulus start and 63/78/63/80/90/110 on the 3D
# N=33 square start, where NCV >= 7 also ends on another mask.
NCV = 6
MAX_RESTARTS = 200      # ARPACK's restart budget per eigensolve

# Weight, in units of 1/h, of the consistency rows.  Weaker rows let modes
# that are not clamped through: over random ragged masks (2D N=17, 3D N=11)
# the lowest eigenvalue fell to 0.31 (weight 0.3) and 0.88 (weight 1) of the
# zero-extension one, whose wall lies further out, and never measurably
# below it from weight 2 on.  Stronger rows over-constrain the corners of
# the staircase: the 3D ball of cell volume pi/4 at N=33 sits +7.8%
# (weight 2), +10.8% (4) and +15.3% (10) above the continuum ball of that
# volume, the 2D disk at N=129 +3.5% (2) and +3.6% (4).  Between 2 and 4
# the optimizer needs the fewest evaluations at 4.
CLAMP_WEIGHT = 4.0

# The clamped fit residual u_i - 2 u_p / 9 + u_p2 / 25 at the wall member i
# and its inward neighbors p, p2 (s = h/2, 3h/2, 5h/2 from the wall): it
# vanishes on a s^2 + b s^3, the profiles with u = u' = 0 at s = 0.
_FIT = np.array([1.0, -2.0 / 9.0, 1.0 / 25.0])


class VanishingFieldError(ValueError):
    """Rayleigh quotient of an identically zero field (value would be +inf)."""


class EmptyMaskError(ValueError):
    """An eigensolve was requested on an empty mask."""


class ConvergenceFailure(RuntimeError):
    """The eigensolver did not converge, or its pair failed the residual gate."""


@dataclass(frozen=True, eq=False)
class ToneResult:
    """Fundamental tone of a masked domain and its normalized eigenfield.

    gamma is the smallest discrete eigenvalue; the eigenfield satisfies
    sum(u^2) h^n = 1; residual is ||A u - gamma u||_2 / ||u||_2; iterations
    counts the triangular solves with the Cholesky factor of A (applications
    of A^-1), zero for masks small enough to be solved densely.
    """

    gamma: float
    eigenfield: ScalarField
    iterations: int
    residual: float


# ---------------------------------------------------------------------------
# the clamped operator
# ---------------------------------------------------------------------------

def _steps(grid: Grid) -> np.ndarray:
    """Flat-index steps to the 2n face neighbors, ordered so that direction
    2n - 1 - d is opposite direction d."""
    strides = grid.nodes_per_side ** np.arange(grid.dim - 1, -1, -1)
    return np.concatenate([strides, -strides[::-1]]).astype(np.int32)


def _clamped_rows(mask: Mask) -> tuple[sp.csr_matrix, np.ndarray]:
    """Rows K of the clamped energy |K u|^2 over the members, and the flat index.

    Column j of K is member ``flat[j]``, the members sorted by their diagonal
    layer (their coordinate sum i + j (+ k)), ties by flat index.  The wall
    sits at the midpoint of every cut edge (member i to non-member), the
    boundary of the cells that ``mask_volume`` counts.  A cut edge is clamped
    when i has two inward members p, p2 behind it on the edge's line.  The
    rows, in this order:

    * one (2n+1)-point Laplacian per member; beyond a clamped edge it reads
      the ghost 2 u_i - u_p / 9, beyond any other cut edge it reads zero;
    * one consistency row CLAMP_WEIGHT / h * (u_i - 2 u_p / 9 + u_p2 / 25)
      / h^2 per clamped edge;
    * one row per exterior node beyond an unclamped cut edge: the Laplacian
      there of the zero extension of those edges' members, as in a pure
      zero-extension energy.  So isolated nodes and features one or two
      nodes thick keep the zero-extension stencil.

    Members lie strictly inside the reference ball, so none is on a box face
    and every neighbor index below is in range.
    """
    grid = mask.grid
    inside = mask.inside.ravel()
    flat = np.flatnonzero(inside)
    flat = flat[np.argsort(sum(np.unravel_index(flat, grid.shape)), kind="stable")].astype(np.int32)
    n = flat.size
    dim = grid.dim
    width = 2 * dim + 1
    steps = _steps(grid)
    nbr = flat[:, None] + steps
    member = inside[nbr]
    pos = np.empty(inside.size, dtype=np.int32)
    pos[flat] = np.arange(n, dtype=np.int32)

    # cut edges (member ci, direction cd), the direction back into the mask,
    # and whether p and p2 lie behind (p2 is only read where p is a member)
    ci, cd = np.divmod(np.flatnonzero(~member), 2 * dim)
    back = 2 * dim - 1 - cd
    edge = flat[ci]
    clamped = member[ci, back] & inside.take(edge + 2 * steps[back], mode="clip")
    ki, kd = ci[clamped], back[clamped]
    zi = ci[~clamped]
    ext = nbr[zi, cd[~clamped]]
    order = np.argsort(ext, kind="stable")
    ext = ext[order]

    m_end = n * width
    f_end = m_end + 3 * ki.size
    ih2 = 1.0 / (grid.spacing * grid.spacing)
    data = np.empty(f_end + ext.size)
    indices = np.empty(f_end + ext.size, dtype=np.int32)

    # member rows, fixed width: the diagonal, then one slot per direction; a
    # slot with no member neighbor holds a zero on the diagonal column, and
    # the p of a clamped edge weighs 1 - 1/9
    cols = indices[:m_end].reshape(n, width)
    cols[:, 0] = np.arange(n)
    cols[:, 1:] = pos[nbr]
    cols[ci, 1 + cd] = ci
    vals = data[:m_end].reshape(n, width)
    vals[:, 1:] = ih2
    vals[ci, 1 + cd] = 0.0
    vals[ki, 1 + kd] -= ih2 / 9.0
    vals[:, 0] = ih2 * (2.0 * np.bincount(ki, minlength=n) - 2.0 * dim)

    # consistency rows: i, p (the slot behind i) and p2
    fit = indices[m_end:f_end].reshape(-1, 3)
    fit[:, 0] = ki
    fit[:, 1] = cols[ki, 1 + kd]
    fit[:, 2] = pos[edge[clamped] + 2 * steps[kd]]
    data[m_end:f_end].reshape(-1, 3)[:] = CLAMP_WEIGHT / grid.spacing * ih2 * _FIT

    # zero-extension rows, grouped by exterior node
    indices[f_end:] = zi[order]
    data[f_end:] = ih2

    starts = f_end + np.flatnonzero(np.diff(ext, prepend=-1))
    indptr = np.empty(n + ki.size + starts.size + 1, dtype=np.int32)
    indptr[:n + 1] = np.arange(0, m_end + 1, width)
    indptr[n:n + ki.size + 1] = np.arange(m_end, f_end + 1, 3)
    indptr[n + ki.size:-1] = starts
    indptr[-1] = f_end + ext.size
    K = sp.csr_matrix((data, indices, indptr), shape=(indptr.size - 1, n))
    return K, flat


def _masked_bilap(mask: Mask) -> tuple[sp.csr_matrix, np.ndarray]:
    """Masked clamped biharmonic matrix A = K^T K and the flat index."""
    K, flat = _clamped_rows(mask)
    return K.T.tocsr() @ K, flat


def _clamped_energy(grid: Grid, mask: Mask, field: ScalarField):
    """(K, u): the rows of the mask's energy and the field's member values.

    The field carries the grid and mask; its two callers keep them as
    arguments because the benchmark worker passes them."""
    if grid != mask.grid:
        raise ValueError("grid does not match the mask's lattice")
    if field.mask is not mask and field.mask != mask:
        raise ValueError("field mask does not match the operator mask")
    K, flat = _clamped_rows(mask)
    return K, field.values.ravel()[flat]


def rayleigh_quotient(grid: Grid, mask: Mask, field: ScalarField) -> float:
    """|K u|^2 / |u|^2, the clamped energy of the field over its squared norm
    (h^n cancels between the two, so neither carries it)."""
    K, u = _clamped_energy(grid, mask, field)
    den = float(u @ u)
    if den == 0.0:
        raise VanishingFieldError("Rayleigh quotient of a vanishing field")
    Ku = K @ u
    return float(Ku @ Ku) / den


def eigen_residual(grid: Grid, mask: Mask, field: ScalarField, gamma: float) -> float:
    """||A u - gamma u||_2 / ||u||_2 for the masked operator."""
    K, u = _clamped_energy(grid, mask, field)
    norm = float(np.linalg.norm(u))
    if norm == 0.0:
        raise VanishingFieldError("residual of a vanishing field")
    return float(np.linalg.norm(K.T @ (K @ u) - gamma * u)) / norm


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------

# Least semi-bandwidth KD of a packed band; narrower bands are padded with
# zeros.  Reference ILAENV gives LAPACK's xPBTRF a block size of 1 for
# KD <= 64, and OpenBLAS threads the column loop that results one column at a
# time: at 2 BLAS threads a random 1428-unknown band took 4.7 ms at KD = 64,
# 1.4 ms at KD = 65 and 2.7 ms at KD = 32 on a 2-vCPU Xeon VM (1.3, 1.2 and
# 0.6 ms at one thread).
MIN_SEMI_BANDWIDTH = 65


class _BandedCholesky:
    """Upper banded Cholesky factor of a symmetric positive definite A, kept in
    A's own order (the members' diagonal order), with at least
    ``MIN_SEMI_BANDWIDTH`` superdiagonals; ``nnz`` counts the stored band.
    The upper form's bits were equal at 1 and 2 BLAS threads at every size
    tried; the lower form's were not (a random band, n/band 3000/300).
    ``solves`` counts the calls of ``solve``.  Raises ConvergenceFailure,
    chained from LAPACK's LinAlgError, when A is not positive definite."""

    def __init__(self, A: sp.csr_matrix):
        rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
        upper = A.indices >= rows
        cols = A.indices[upper]
        offset = cols - rows[upper]
        # Fortran order is LAPACK's layout; a C-ordered band is first copied
        # to it, which made the Cholesky of a 3D N=33 ball (band 251, 1045
        # unknowns) 6.2 ms instead of 3.7 ms on a 2-vCPU Xeon VM
        kd = max(int(offset.max()), MIN_SEMI_BANDWIDTH)
        band = np.zeros((kd + 1, A.shape[0]), order="F")
        band[kd - offset, cols] = A.data[upper]
        self.nnz = band.size
        self.solves = 0
        try:
            self._cb = cholesky_banded(band, overwrite_ab=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(f"banded Cholesky of A failed: {exc}") from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        self.solves += 1
        return cho_solve_banded((self._cb, False), rhs, check_finite=False)


# The factor under the name of scipy.sparse.linalg's LU: the benchmark's traced
# mode times ``spla.splu`` and the ``solve`` of the factor it returns.
spla = SimpleNamespace(splu=_BandedCholesky)


def fundamental_tone(mask: Mask, tol: float = 1e-8,
                     initial: ScalarField | None = None) -> ToneResult:
    """Smallest eigenvalue of the masked clamped bilaplacian.

    A is factored once by LAPACK's banded Cholesky and ARPACK's
    shift-invert Lanczos (``eigsh`` with sigma = 0) finds the largest
    eigenvalue of A^-1; ``tol`` is ARPACK's relative accuracy of that Ritz
    value and ``MAX_RESTARTS`` its restart budget.  Lanczos keeps ``NCV`` basis
    vectors, which separate a near-degenerate lowest pair (two similar
    components, an annulus) that a single-vector iteration cannot.  gamma
    is then recomputed as the Rayleigh quotient of the
    returned eigenvector and the residual from A.  Masks of at most ``NCV``
    nodes are solved densely.

    ``initial`` seeds the Lanczos start vector, which makes repeated solves
    on slowly changing masks cheap; it must lie on the mask's lattice.

    Raises ValueError unless tol is positive and finite, or when ``initial``
    lies on another lattice, EmptyMaskError on an empty mask and
    ConvergenceFailure if A is not positive definite (chained from
    ``LinAlgError``), ARPACK exhausts its restarts (chained from
    ``ArpackNoConvergence``) or the residual exceeds sqrt(tol) * gamma.
    """
    if mask.is_empty:
        raise EmptyMaskError("fundamental tone of an empty mask is undefined")
    raise_errors(real_errors("tol", tol))
    if initial is not None and initial.grid != mask.grid:
        raise ValueError("initial field lies on another lattice than the mask")

    grid = mask.grid
    A, flat = _masked_bilap(mask)
    if flat.size <= NCV:
        # ARPACK needs more unknowns than Lanczos vectors
        u = np.linalg.eigh(A.toarray())[1][:, 0]
        iterations = 0
    else:
        factor = spla.splu(A)
        v0 = None if initial is None else initial.values.ravel()[flat]
        if v0 is None or not np.any(v0):
            # ARPACK's own start vector is random, which would break reruns
            v0 = np.ones(flat.size)
        op = LinearOperator(A.shape, matvec=factor.solve, dtype=float)
        try:
            u = eigsh(A, k=1, sigma=0.0, which="LM", OPinv=op, v0=v0,
                      tol=tol, ncv=NCV, maxiter=MAX_RESTARTS)[1][:, 0]
        except ArpackNoConvergence as exc:
            raise ConvergenceFailure(
                f"ARPACK did not converge in {MAX_RESTARTS} restarts") from exc
        iterations = factor.solves

    u = u / np.linalg.norm(u)
    if u.sum() < 0.0:
        u = -u
    Au = A @ u
    gamma = float(u @ Au)
    residual = float(np.linalg.norm(Au - gamma * u))
    if residual > tol ** 0.5 * gamma:
        raise ConvergenceFailure(f"residual above {tol ** 0.5!r} * gamma "
                                 f"(gamma {gamma!r}, residual {residual!r})")
    full = np.zeros(grid.node_count)
    full[flat] = u / np.sqrt(grid.spacing ** grid.dim)
    return ToneResult(gamma=gamma, eigenfield=make_field(mask, full.reshape(grid.shape)),
                      iterations=iterations, residual=residual)
