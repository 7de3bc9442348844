"""Structural diagnostics for a computed eigenfield and its mask.

These probes measure, on the discrete output of a run, quantities the theory
reasons about; nothing is assumed, everything is counted on the lattice.
``run_diagnostics`` reports the component count, the boundary doubling
ratio, the nondegeneracy rate of the gradient near the free boundary and
the smallest local density quotients.  The doubling ratio and the density
quotient also have standalone probes, and so has the scaling/translation
dichotomy for the final volume (``dichotomy_check``), which the report
leaves out: its tolerance, one boundary layer (about 30% of omega0 at 33
nodes per side), let it read VolumeMet on every run measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from platetone.constants import unit_ball_volume
from platetone.field_grid import (
    Grid,
    Mask,
    ScalarField,
    boundary_nodes,
    connected_components,
    gradient_field,
    mask_volume,
    member_positions,
    raise_errors,
    real_errors,
)


class Dichotomy(Enum):
    VOLUME_MET = "VolumeMet"
    SCALED_FITS_CONTRADICTION = "ScaledFits_Contradiction"
    SCALED_DOES_NOT_FIT = "ScaledDoesNotFit"


@dataclass(frozen=True)
class DiagnosticsReport:
    component_count: int
    doubling_sigma: float
    nondegeneracy_c1: float
    density_c2_profile: tuple[tuple[float, float], ...]


def _probes(boundary: np.ndarray, cap: int) -> list:
    """Indices of the boundary nodes, deterministically thinned to at most cap."""
    idx = np.argwhere(boundary)
    if idx.shape[0] == 0:
        raise ValueError("mask has no boundary nodes")
    return idx[::int(math.ceil(idx.shape[0] / cap))].tolist()


@lru_cache(maxsize=8)
def _distance_table(grid: Grid, span: int) -> np.ndarray:
    """Squared distances of the (2 span + 1)^n lattice offsets to the centre."""
    d2 = sum((k * grid.spacing) ** 2 for k in np.ogrid[(slice(-span, span + 1),) * grid.dim])
    d2.setflags(write=False)
    return d2


# Probes gathered at once by _balls.  On square-3d-33's final field (seed 0)
# the diagnostics' tracemalloc peak is 2.28 MB with 32, as with one probe at
# a time, 3.1 MB with 64 and 9.5 MB with 128; 16 was no faster than 32.
PROBE_BLOCK = 32


def _balls(grid: Grid, probes: list, R: float, *arrays: np.ndarray):
    """Per block of PROBE_BLOCK probes: the squared distances of the lattice
    offsets within R, ascending (``_distance_table``'s values, so a ball
    counts the nodes a ``_window`` counts), and each array read at those
    offsets around each probe, shape (block, offsets), zero beyond the
    lattice (as the window is clipped there)."""
    span = int(math.ceil(R / grid.spacing)) + 1
    table = _distance_table(grid, span)
    order = np.argsort(table, axis=None)
    d2 = table.ravel()[order]
    within = np.searchsorted(d2, R * R, "right")
    padded = [np.pad(a, span) for a in arrays]
    # node p + offset t - span sits at p + t on the padded lattice
    steps = np.ravel_multi_index(np.unravel_index(order[:within], table.shape), padded[0].shape)
    starts = np.ravel_multi_index(np.transpose(probes), padded[0].shape)
    for k in range(0, starts.size, PROBE_BLOCK):
        at = starts[k:k + PROBE_BLOCK, None] + steps
        yield (d2[:within], *(a.take(at) for a in padded))


def _window(grid: Grid, idx, R: float) -> tuple[tuple[slice, ...], np.ndarray]:
    """Index box around node idx that holds the ball of radius R, clipped to
    the lattice, and the squared distances of its nodes to idx."""
    span = int(math.ceil(R / grid.spacing)) + 1
    box = tuple(slice(max(c - span, 0), min(c + span + 1, grid.nodes_per_side)) for c in idx)
    cut = tuple(slice(b.start - c + span, b.stop - c + span) for b, c in zip(box, idx))
    return box, _distance_table(grid, span)[cut]


def dyadic_radii(R0: float, r_min: float) -> tuple[float, ...]:
    """R0, R0/2, ... down to (and including the last value >=) r_min.

    Raises ValueError unless 0 < r_min <= R0 < inf: otherwise the halving
    never stops (r_min <= 0, R0 = inf) or yields no radius (r_min > R0)."""
    if not 0.0 < r_min <= R0 < math.inf:
        raise ValueError(f"dyadic radii need 0 < r_min <= R0 < inf, got r_min={r_min}, R0={R0}")
    radii = []
    r = R0
    while r >= r_min * (1.0 - 1e-12):
        radii.append(r)
        r *= 0.5
    return tuple(radii)


def estimate_doubling_sigma(mask: Mask, R0: float,
                            r_min: float | None = None) -> float:
    """Worst doubling ratio |B_2R cap mask| / |B_R cap mask| over all boundary
    probes and dyadic radii R0, R0/2, ... >= r_min (default 4h).

    The probe node itself is excluded from both counts: it always lies in the
    mask, but a lone point carries no measure in the limit, and counting it
    would silently turn a degenerate probe (no other mass nearby) into a
    harmless ratio of one.  A probe whose inner ball captures nothing else
    therefore contributes +inf.
    """
    h = mask.grid.spacing
    if r_min is None:
        r_min = 4.0 * h
    if R0 < 4.0 * h:
        raise ValueError(f"R0 must be at least 4h = {4.0 * h}, got {R0}")
    return _doubling_sigma(mask, boundary_nodes(mask), R0, dyadic_radii(R0, r_min))


def _doubling_sigma(mask: Mask, boundary: np.ndarray, R0: float, radii: tuple) -> float:
    worst = 1.0
    for d2, near in _balls(mask.grid, _probes(boundary, 512), 2.0 * R0, mask.inside):
        for r in radii:
            inner = near[:, :np.searchsorted(d2, r * r)].sum(axis=1) - 1   # minus the probe
            outer = near[:, :np.searchsorted(d2, 4.0 * r * r)].sum(axis=1) - 1
            if np.any(inner <= 0):
                return math.inf
            worst = max(worst, float(np.max(outer / inner)))
    return worst


def _nondegeneracy_c1(boundary: np.ndarray, mag: np.ndarray, grid: Grid, radii: tuple) -> float:
    """Smallest sup_{B_r(x0)} |grad u| / r over boundary probes x0 and radii r;
    zero signals a degenerate (flat) eigenfield."""
    worst = math.inf
    for d2, local in _balls(grid, _probes(boundary, 512), radii[0], mag):
        for r in radii:
            peak = local[:, :np.searchsorted(d2, r * r, "right")].max(axis=1)
            worst = min(worst, float(peak.min()) / r)
    return worst


def density_quotient(mask: Mask, x0: tuple[int, ...], R: float) -> float:
    """Fraction of the lattice ball B_R around the boundary node x0 that the
    mask occupies (member count over node count, both in the open ball)."""
    h = mask.grid.spacing
    if not 2.0 * h <= R < math.inf:
        raise ValueError(f"R must be finite and at least 2h = {2.0 * h}, got {R}")
    box, d2 = _window(mask.grid, x0, R)
    local = mask.inside[box]
    # the probe and its face neighbours are the window nodes within h; members
    # lie strictly inside B, so the box never clips a member's neighbour
    if not mask.inside[tuple(x0)] or local[d2 <= h * h].all():
        raise ValueError(f"probe {x0} is not a boundary node")
    ball = d2 < R * R
    return int(np.count_nonzero(local & ball)) / int(np.count_nonzero(ball))


def default_vol_tol(grid: Grid, omega0: float) -> float:
    """One boundary layer of volume for a domain of volume omega0."""
    raise_errors(real_errors("omega0", omega0))
    n = grid.dim
    r_eq = (omega0 / unit_ball_volume(n)) ** (1.0 / n)
    return 5.0 * grid.spacing * r_eq ** (n - 1)


def dichotomy_check(mask: Mask, omega0: float) -> Dichotomy:
    """Classify the final volume against the scaling/translation alternative.

    Volume within ``default_vol_tol`` of omega0 reports VOLUME_MET.  Otherwise
    the mask is rescaled about its centroid to volume omega0 and recentered.
    If the scaled set fits strictly inside the reference ball (directly, or
    after an exhaustive lattice search of translations whenever the
    centroid-centered circumradius is within 2h of the ball radius) the case
    is SCALED_FITS_CONTRADICTION: the theory excludes a minimizer with this
    property, so observing it flags a search failure.  Otherwise the scaled
    set genuinely cannot be translated into the ball: SCALED_DOES_NOT_FIT.
    """
    raise_errors(real_errors("omega0", omega0))
    if mask.is_empty:
        raise ValueError("dichotomy check on an empty mask")
    grid = mask.grid
    vol = mask_volume(mask)
    if abs(vol - omega0) <= default_vol_tol(grid, omega0):
        return Dichotomy.VOLUME_MET

    t = (omega0 / vol) ** (1.0 / grid.dim)
    pos = member_positions(mask)
    pts = t * (pos - pos.mean(axis=0))   # recentred scaled set
    h = grid.spacing
    circum = float(np.linalg.norm(pts, axis=1).max())
    if circum < grid.radius_B - 2.0 * h:
        return Dichotomy.SCALED_FITS_CONTRADICTION
    if circum > grid.radius_B + 2.0 * h:
        return Dichotomy.SCALED_DOES_NOT_FIT

    # near-threshold: centroid centering may be suboptimal for asymmetric
    # sets, so search translations on the lattice
    lo = pts.max(axis=0) - grid.radius_B
    hi = pts.min(axis=0) + grid.radius_B
    if np.any(hi < lo):
        return Dichotomy.SCALED_DOES_NOT_FIT
    axes = [np.arange(a, b + h, h) for a, b in zip(lo, hi)]
    for shift in np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, grid.dim):
        if np.linalg.norm(pts - shift, axis=1).max() < grid.radius_B:
            return Dichotomy.SCALED_FITS_CONTRADICTION
    return Dichotomy.SCALED_DOES_NOT_FIT


def default_probe_radius(grid: Grid, omega0: float) -> float:
    """Probe cap: local enough to stay boundary-scale, large enough to
    beat lattice noise."""
    raise_errors(real_errors("omega0", omega0))
    n = grid.dim
    r_eq = (omega0 / unit_ball_volume(n)) ** (1.0 / n)
    return max(4.0 * grid.spacing, min(0.25 * r_eq, 32.0 * grid.spacing))


def run_diagnostics(field: ScalarField, omega0: float) -> DiagnosticsReport:
    """Evaluate the full diagnostic bundle on a computed field and its mask,
    probing at the dyadic radii from ``default_probe_radius`` down to 4h.
    The mask's boundary and |grad u| are computed once for every statistic."""
    mask, grid = field.mask, field.grid
    R0 = default_probe_radius(grid, omega0)     # raises the omega0 rule's text
    if mask.is_empty:
        raise ValueError("diagnostics on an empty mask")
    radii = dyadic_radii(R0, 4.0 * grid.spacing)
    boundary = boundary_nodes(mask)
    mag = np.linalg.norm(gradient_field(field), axis=0)
    count, _ = connected_components(mask)
    lowest = [1.0] * len(radii)
    lattice = np.ones(grid.shape, dtype=bool)
    for d2, local, nodes in _balls(grid, _probes(boundary, 128), R0, mask.inside, lattice):
        for i, r in enumerate(radii):
            k = np.searchsorted(d2, r * r)
            quotient = local[:, :k].sum(axis=1) / nodes[:, :k].sum(axis=1)
            lowest[i] = min(lowest[i], float(quotient.min()))
    return DiagnosticsReport(
        component_count=count,
        doubling_sigma=_doubling_sigma(mask, boundary, R0, radii),
        nondegeneracy_c1=_nondegeneracy_c1(boundary, mag, grid, radii),
        density_c2_profile=tuple(zip(radii, lowest)),
    )
