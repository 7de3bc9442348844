"""Structural diagnostics for a computed eigenfield and its mask.

These probes measure, on the discrete output of a run, quantities the theory
reasons about; nothing is assumed, everything is counted on the lattice.
``run_diagnostics`` reports the component count, the boundary doubling ratio,
the nondegeneracy rate of the gradient near the free boundary and the
smallest local density quotients.  The doubling ratio and the density
quotient have standalone probes that count as the report does, and so has the
scaling/translation dichotomy of the final volume (``dichotomy_check``),
which the report leaves out: its tolerance, one boundary layer (about 30% of
omega0 at 33 nodes per side), let it read VolumeMet on every run measured.
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
    is_integer,
    is_real,
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
def _distance_table(grid: Grid, span: int) -> tuple[np.ndarray, np.ndarray]:
    """The (2 span + 1)^n lattice offsets sorted by distance to the centre:
    their squared distances, ascending, and their flat steps on the lattice
    padded by span (node p + offset t - span sits at p + t there)."""
    d2 = sum((k * grid.spacing) ** 2 for k in np.ogrid[(slice(-span, span + 1),) * grid.dim])
    order = np.argsort(d2, axis=None)
    steps = np.ravel_multi_index(np.unravel_index(order, d2.shape), np.add(grid.shape, 2 * span))
    d2 = d2.ravel()[order]
    for a in (d2, steps):
        a.setflags(write=False)
    return d2, steps


# Entries (probes x offsets) _balls gathers at once, so a block holds
# max(1, GATHER_ENTRIES // offsets) probes.  run_diagnostics reads at most
# 2,109 offsets on square-3d-33, 31 probes a block: its tracemalloc peak was
# 2.3 MB at 32 probes, 2.8 MB at 62 (2 ** 17 entries, which also raised the
# benchmark's peak RSS by 0.95 MB) and 9.5 MB at 128.  The doubling ratio at
# R0 = 6 on a 3D N=33 ball reads 274,625 offsets a probe, one probe a block:
# it peaks at 13 MB, where 32 probes a block took 155 MB.
GATHER_ENTRIES = 2 ** 16


def _balls(grid: Grid, probes: list, R: float, *arrays: np.ndarray):
    """Per block of probes (``GATHER_ENTRIES``): the squared distances of the
    lattice offsets within R, ascending, and each array read at those offsets
    around each probe, shape (block, offsets), zero beyond the lattice.  No
    offset longer than N - 1 along an axis reaches a node, so the table stops
    there whatever R is."""
    span = min(int(math.ceil(R / grid.spacing)) + 1, grid.nodes_per_side - 1)
    d2, steps = _distance_table(grid, span)
    within = np.searchsorted(d2, R * R, "right")
    block = max(1, GATHER_ENTRIES // within)
    padded = [np.pad(a, span) for a in arrays]
    starts = np.ravel_multi_index(np.transpose(probes), padded[0].shape)
    for k in range(0, starts.size, block):
        at = starts[k:k + block, None] + steps[:within]
        yield (d2[:within], *(a.take(at) for a in padded))


def _lowest_density(mask: Mask, probes: list, radii: tuple) -> list[float]:
    """Per radius r (largest first), the smallest density quotient over the
    probes: members over lattice nodes in the open ball B_r(probe)."""
    lowest = np.ones(len(radii))
    lattice = np.ones(mask.grid.shape, dtype=bool)
    for d2, local, nodes in _balls(mask.grid, probes, radii[0], mask.inside, lattice):
        last = np.searchsorted(d2, np.square(radii)) - 1    # >= 0, as d2[0] = 0 < r * r
        quotient = local.cumsum(axis=1)[:, last] / nodes.cumsum(axis=1)[:, last]
        lowest = np.minimum(lowest, quotient.min(axis=0))
    return lowest.tolist()


def _radius_errors(**radii) -> list[str]:
    """``real_errors``' text for each radius that is not a real number."""
    return [e for name, r in radii.items() if not is_real(r) for e in real_errors(name, r)]


def dyadic_radii(R0: float, r_min: float) -> tuple[float, ...]:
    """R0, R0/2, ... down to (and including the last value >=) r_min.

    Raises one ValueError with ``real_errors``' text for each radius that is
    not a real number, and one unless 0 < r_min <= R0 < inf: otherwise the
    halving never stops (r_min <= 0, R0 = inf) or yields no radius
    (r_min > R0)."""
    raise_errors(_radius_errors(R0=R0, r_min=r_min))
    if not 0.0 < r_min <= R0 < math.inf:
        raise ValueError(f"dyadic radii need 0 < r_min <= R0 < inf, got r_min={r_min}, R0={R0}")
    radii = []
    r = R0
    while r >= r_min * (1.0 - 1e-12):
        radii.append(r)
        r *= 0.5
    return tuple(radii)


def estimate_doubling_sigma(mask: Mask, R0: float, r_min: float | None = None) -> float:
    """Worst doubling ratio |B_2R cap mask| / |B_R cap mask| over the boundary
    probes of ``run_diagnostics`` and dyadic radii R0, R0/2, ... >= r_min
    (default 4h).  The probe node is left out of both counts: a lone point
    carries no measure in the limit, and counting it would turn a degenerate
    probe (no other member nearby) into a harmless ratio of one, so a probe
    whose inner ball holds no other member contributes +inf."""
    h = mask.grid.spacing
    r_min = 4.0 * h if r_min is None else r_min
    raise_errors(_radius_errors(R0=R0, r_min=r_min))
    if R0 < 4.0 * h:
        raise ValueError(f"R0 must be at least 4h = {4.0 * h}, got {R0}")
    return _doubling_sigma(mask, _probes(boundary_nodes(mask), 512), R0, dyadic_radii(R0, r_min))


def _doubling_sigma(mask: Mask, probes: list, R0: float, radii: tuple) -> float:
    worst = 1.0
    for d2, near in _balls(mask.grid, probes, 2.0 * R0, mask.inside):
        for r in radii:
            inner = near[:, :np.searchsorted(d2, r * r)].sum(axis=1) - 1   # minus the probe
            outer = near[:, :np.searchsorted(d2, 4.0 * r * r)].sum(axis=1) - 1
            if np.any(inner <= 0):
                return math.inf
            worst = max(worst, float(np.max(outer / inner)))
    return worst


def _nondegeneracy_c1(probes: list, mag: np.ndarray, grid: Grid, radii: tuple) -> float:
    """Smallest sup_{B_r(x0)} |grad u| / r over boundary probes x0 and radii r;
    zero signals a degenerate (flat) eigenfield."""
    worst = math.inf
    for d2, local in _balls(grid, probes, radii[0], mag):
        for r in radii:
            peak = local[:, :np.searchsorted(d2, r * r, "right")].max(axis=1)
            worst = min(worst, float(peak.min()) / r)
    return worst


def density_quotient(mask: Mask, x0: tuple[int, ...], R: float) -> float:
    """Fraction of the lattice ball B_R around the boundary node x0 that the
    mask occupies (member count over node count, both in the open ball), as
    ``run_diagnostics`` counts it.  x0 is dim integer node indices."""
    grid, N = mask.grid, mask.grid.nodes_per_side
    nodes = tuple(x0) if isinstance(x0, (tuple, list)) or np.ndim(x0) == 1 else ()
    on_lattice = len(nodes) == grid.dim and all(is_integer(c) and 0 <= c < N for c in nodes)
    errors = [] if on_lattice else [f"x0: must be {grid.dim} integers in [0, {N}), got {x0!r}"]
    raise_errors(errors + _radius_errors(R=R))
    if not 2.0 * grid.spacing <= R < math.inf:
        raise ValueError(f"R must be finite and at least 2h = {2.0 * grid.spacing}, got {R}")
    if not boundary_nodes(mask)[nodes]:
        raise ValueError(f"probe {x0} is not a boundary node")
    return _lowest_density(mask, [nodes], (R,))[0]


def _radius_eq(grid: Grid, omega0: float) -> float:
    """Radius of the ball of volume omega0, after omega0's rule."""
    raise_errors(real_errors("omega0", omega0))
    return (omega0 / unit_ball_volume(grid.dim)) ** (1.0 / grid.dim)


def default_vol_tol(grid: Grid, omega0: float) -> float:
    """One boundary layer of volume for a domain of volume omega0."""
    return 5.0 * grid.spacing * _radius_eq(grid, omega0) ** (grid.dim - 1)


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
    return max(4.0 * grid.spacing, min(0.25 * _radius_eq(grid, omega0), 32.0 * grid.spacing))


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
    probes = _probes(boundary, 512)
    return DiagnosticsReport(
        component_count=connected_components(mask)[0],
        doubling_sigma=_doubling_sigma(mask, probes, R0, radii),
        nondegeneracy_c1=_nondegeneracy_c1(probes, mag, grid, radii),
        density_c2_profile=tuple(zip(radii, _lowest_density(mask, _probes(boundary, 128), radii))),
    )
