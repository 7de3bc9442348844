"""Structural diagnostics for a computed eigenfield and its mask.

These probes measure, on the discrete output of a run, the quantities the
theory reasons about: connectedness, the boundary doubling ratio, the
nondegeneracy rate of the gradient near the free boundary, local density
quotients, the split of the boundary into degenerate and nodal parts, and
the scaling/translation dichotomy for the final volume.  Nothing here is
assumed; everything is counted on the lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from platetone.biharmonic import gradient_field
from platetone.constants import unit_ball_volume
from platetone.field_grid import (
    Grid,
    Mask,
    ScalarField,
    boundary_nodes,
    connected_components,
    mask_centroid,
    mask_volume,
    member_positions,
)


class Dichotomy(Enum):
    VOLUME_MET = "VolumeMet"
    SCALED_FITS_CONTRADICTION = "ScaledFits_Contradiction"
    SCALED_DOES_NOT_FIT = "ScaledDoesNotFit"


@dataclass(frozen=True)
class DiagnosticsReport:
    connected: bool
    component_count: int
    doubling_sigma: float
    nondegeneracy_c1: float
    density_c2_profile: tuple[tuple[float, float], ...]
    sigma0_count: int
    sigma1_count: int
    dichotomy: Dichotomy
    probe_radii: tuple[float, ...]


def check_connected(mask: Mask) -> tuple[bool, int]:
    """(is connected, component count); an empty mask is not connected."""
    count, _ = connected_components(mask)
    return count == 1, count


def _probes(mask: Mask, cap: int) -> np.ndarray:
    """Boundary-node indices, deterministically thinned to at most cap."""
    idx = np.argwhere(boundary_nodes(mask))
    if idx.shape[0] == 0:
        raise ValueError("mask has no boundary nodes")
    if idx.shape[0] > cap:
        stride = int(math.ceil(idx.shape[0] / cap))
        idx = idx[::stride]
    return idx


def _window(grid: Grid, idx: np.ndarray, R: float) -> tuple[tuple[slice, ...], np.ndarray]:
    """Index box around node idx that holds the ball of radius R, and the
    squared distances of its nodes to idx."""
    h = grid.spacing
    span = int(math.ceil(R / h)) + 1
    lo = np.maximum(idx - span, 0)
    hi = np.minimum(idx + span + 1, grid.nodes_per_side)
    coords = np.meshgrid(
        *[(np.arange(a, b) - c) * h for a, b, c in zip(lo, hi, idx)],
        indexing="ij", sparse=True,
    )
    return tuple(slice(a, b) for a, b in zip(lo, hi)), sum(cc * cc for cc in coords)


def _gradient_norm(field: ScalarField) -> np.ndarray:
    """|grad u| at every node."""
    grad = gradient_field(field)
    return np.sqrt(np.sum(grad * grad, axis=0))


def dyadic_radii(R0: float, r_min: float) -> tuple[float, ...]:
    """R0, R0/2, ... down to (and including the last value >=) r_min."""
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
    probes = _probes(mask, 512) * h - mask.grid.radius_B
    members = member_positions(mask)
    radii = dyadic_radii(R0, r_min)
    worst = 1.0
    for x0 in probes:
        d2 = np.sum((members - x0) ** 2, axis=1)
        for r in radii:
            inner = int(np.count_nonzero(d2 < r * r)) - 1   # minus the probe
            outer = int(np.count_nonzero(d2 < 4.0 * r * r)) - 1
            if inner <= 0:
                return math.inf
            worst = max(worst, outer / inner)
    return worst


def estimate_nondegeneracy_c1(field: ScalarField, R0: float) -> float:
    """Smallest value of sup_{B_R(x0)} |grad u| / R over probes x0 on the
    boundary of the field's mask and dyadic radii R0, R0/2, ... >= 4h; zero
    signals a degenerate (flat) eigenfield."""
    grid = field.grid
    h = grid.spacing
    if R0 < 4.0 * h:
        raise ValueError(f"R0 must be at least 4h = {4.0 * h}, got {R0}")
    mag = _gradient_norm(field)
    radii = dyadic_radii(R0, 4.0 * h)
    worst = math.inf
    for idx in _probes(field.mask, 512):
        window, d2 = _window(grid, idx, R0)
        local = mag[window]
        for r in radii:
            sup = float(local[d2 <= r * r].max(initial=0.0))
            worst = min(worst, sup / r)
    return worst


def density_quotient(mask: Mask, x0: tuple[int, ...], R: float) -> float:
    """Fraction of the lattice ball B_R around the boundary node x0 that the
    mask occupies (member count over node count, both in the open ball)."""
    grid = mask.grid
    h = grid.spacing
    if R < 2.0 * h:
        raise ValueError(f"R must be at least 2h = {2.0 * h}, got {R}")
    window, d2 = _window(grid, np.asarray(x0), R)
    local = mask.inside[window]
    # the probe and its face neighbours are the window nodes within h; members
    # lie strictly inside B, so the box never clips a member's neighbour
    if not mask.inside[tuple(x0)] or local[d2 <= h * h].all():
        raise ValueError(f"probe {x0} is not a boundary node")
    ball = d2 < R * R
    total = int(np.count_nonzero(ball))
    inside = int(np.count_nonzero(local & ball))
    return inside / total


def classify_boundary(field: ScalarField, tol_grad: float | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Split the boundary nodes of the field's mask into the flat part
    (|grad u| <= tol_grad) and the nodal part (|grad u| > tol_grad).

    tol_grad defaults to 10 h max|grad u|: a sharp zero test is meaningless
    in floating point, and the gradient of a genuinely clamped field decays
    like h at the free boundary, so stability of the split under refinement
    is the meaningful check.
    """
    mag = _gradient_norm(field)
    if tol_grad is None:
        tol_grad = 10.0 * field.grid.spacing * float(mag.max())
    boundary = boundary_nodes(field.mask)
    sigma0 = np.logical_and(boundary, mag <= tol_grad)
    sigma1 = np.logical_and(boundary, mag > tol_grad)
    return sigma0, sigma1


def default_vol_tol(grid: Grid, omega0: float) -> float:
    """One boundary layer of volume for a domain of volume omega0."""
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
    if mask.is_empty:
        raise ValueError("dichotomy check on an empty mask")
    grid = mask.grid
    vol = mask_volume(mask)
    if abs(vol - omega0) <= default_vol_tol(grid, omega0):
        return Dichotomy.VOLUME_MET

    t = (omega0 / vol) ** (1.0 / grid.dim)
    centroid = mask_centroid(mask)
    pts = t * (member_positions(mask) - centroid)   # recentred scaled set
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
    best = math.inf
    for shift in np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, grid.dim):
        r = float(np.linalg.norm(pts - shift, axis=1).max())
        best = min(best, r)
        if best < grid.radius_B:
            return Dichotomy.SCALED_FITS_CONTRADICTION
    return Dichotomy.SCALED_DOES_NOT_FIT


def default_probe_radius(grid: Grid, omega0: float) -> float:
    """Probe cap: local enough to stay boundary-scale, large enough to
    beat lattice noise."""
    n = grid.dim
    r_eq = (omega0 / unit_ball_volume(n)) ** (1.0 / n)
    return max(4.0 * grid.spacing, min(0.25 * r_eq, 32.0 * grid.spacing))


def run_diagnostics(field: ScalarField, omega0: float) -> DiagnosticsReport:
    """Evaluate the full diagnostic bundle on a computed field and its mask,
    probing at the dyadic radii from ``default_probe_radius`` down to 4h."""
    mask, grid = field.mask, field.grid
    if mask.is_empty:
        raise ValueError("diagnostics on an empty mask")
    R0 = default_probe_radius(grid, omega0)
    connected, count = check_connected(mask)
    sigma = estimate_doubling_sigma(mask, R0)
    c1 = estimate_nondegeneracy_c1(field, R0)
    radii = dyadic_radii(R0, 4.0 * grid.spacing)
    probes = _probes(mask, 128)
    profile = []
    for r in radii:
        quotients = [density_quotient(mask, tuple(p), r) for p in probes]
        profile.append((r, min(quotients)))
    s0, s1 = classify_boundary(field)
    return DiagnosticsReport(
        connected=connected,
        component_count=count,
        doubling_sigma=sigma,
        nondegeneracy_c1=c1,
        density_c2_profile=tuple(profile),
        sigma0_count=int(np.count_nonzero(s0)),
        sigma1_count=int(np.count_nonzero(s1)),
        dichotomy=dichotomy_check(mask, omega0),
        probe_radii=radii,
    )
