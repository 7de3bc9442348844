"""Descent over discrete domains for the penalized tone objective.

The minimization over fields in the continuum problem becomes a search over
masks here: each step proposes a deterministic list of candidate masks built
from the current eigenfield (two superlevel sets, each at a fixed quantile
scaled by an aggressiveness knob, one bare and one dilated), from one-ring
morphology, from a volume-targeted partial dilation, from volume-neutral
boundary exchanges, and from connected-component restrictions (bare and
regrown).  The candidate with the lowest objective wins, ties broken by list
position; a step that fails to improve the objective by the fixed relative
margin ``DELTA_REL`` (1e-6) halves the aggressiveness, and the run stops when
the aggressiveness underflows 1e-3 or the step budget is exhausted.

When the lattice with half the spacing still resolves the target ball, the
run descends there first and starts from that optimum, prolonged at its
exact volume (see ``coarse_nodes_per_side``); ``optimize`` loops over the
lattices, so a 2D N=257 run descends on N=65, then 129, then 257.  One
history spans the levels; a step works on its incumbent mask's lattice.

No candidate is solved whose objective is bounded away from acceptance
before any solve: the tone is positive, and a subset of the incumbent has a
tone at least the incumbent's (H^2_0 of the subset lies in H^2_0 of the
incumbent), so that tone floor plus the candidate's exact penalty,
``objective_floor``, bounds its J from below.  A candidate whose floor lies
above the acceptance bar is ruled out and adds no history row.

A mask is solved at most once per lattice.  Accepted J falls by at least
``DELTA_REL * |J|`` per step, so after a mask's solve either the incumbent is
unchanged and a second solve would repeat the first exactly, or the bar lies
at least that margin below the mask's J, which another warm start moves only
by about the solve tolerance: the mask could never pass again.
``validate_config`` holds ``tone_tol`` below ``DELTA_REL`` for this.

Everything is deterministic for a fixed config, including the seeded blob
initializer, so a rerun reproduces the trace bit for bit.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from platetone.biharmonic import (
    ConvergenceFailure,
    EmptyMaskError,
    ToneResult,
)
from platetone.constants import (
    TheoryConstants,
    compute_constants,
    eps0,
    eps1_effective,
    unit_ball_volume,
)
from platetone.diagnostics import DiagnosticsReport, run_diagnostics
from platetone.field_grid import (
    Grid,
    Mask,
    ScalarField,
    ball_mask,
    connected_components,
    dilate,
    erode,
    inside_ball,
    make_grid,
    mask_from_array,
    mask_volume,
)
from platetone.penalty import PenaltyKind, objective, penalty_value

log = logging.getLogger(__name__)

INIT_SHAPES = ("disk", "square", "annulus", "two_disks", "random_blob")
TERMINATED_CONVERGED = "aggressiveness_floor"
TERMINATED_MAX_STEPS = "max_steps"
AGGRESSIVENESS_FLOOR = 1e-3
DELTA_REL = 1e-6    # a step is accepted only when it lowers J by DELTA_REL * |J|

# A run starts on the lattice of half its resolution while that lattice has
# at least this many nodes across the diameter of the ball of volume omega0.
# Measured against single-level runs (in-process optimize, 2-vCPU VM): at
# 21.3 and 42.7 nodes across (2D N=129 and 257, five init shapes) every
# continued run was faster except random_blob at N=129 (0.48 -> 0.52 s); at
# 10.7 across (2D N=65) final J rose 0.4-1.05% on 4 of 5 starts and disk and
# random_blob took about twice as long; at 6.1 across (3D N=33) the square
# start went 0.55 -> 1.28 s, and at 12.2 across (3D N=65) 105 -> 146 s.
MIN_COARSE_NODES_ACROSS = 16


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one optimization run.

    ``eps=None`` means "use the largest theoretically safe value" for the
    chosen penalty variant (eps1_effective for plain, min(eps0,
    eps1_effective) for rewarding).  Values above the safe threshold are
    rejected unless ``eps_override`` is set.
    """

    dim: int = 2
    nodes_per_side: int = 129
    radius_B: float = 1.5
    omega0: float = math.pi / 4
    eps: float | None = None
    penalty_variant: str = "plain"
    init_shape: str = "disk"
    max_steps: int = 300
    tone_tol: float = 1e-8
    seed: int = 0
    d_n: float = 0.5
    eps_override: bool = False
    snapshot_every: int = 10


@dataclass
class HistoryRow:
    step: int
    gamma: float
    volume: float
    penalty: float
    J: float
    accepted: bool
    nodes_per_side: int     # the lattice the evaluation ran on


@dataclass
class SearchState:
    """Mutable incumbent of the descent loop."""

    mask: Mask
    tone: ToneResult
    J: float
    volume: float
    step: int
    aggressiveness: float
    history: list[HistoryRow] = field(default_factory=list)
    terminated: str | None = None
    # packed masks solved on this lattice, its start mask included
    solved: set[bytes] = field(default_factory=set)


@dataclass(frozen=True)
class RunResult:
    config: RunConfig
    constants: TheoryConstants
    mask: Mask
    tone: ToneResult
    gamma: float
    volume: float
    penalty: float
    J: float
    history: tuple[HistoryRow, ...]
    diagnostics: DiagnosticsReport
    termination: str
    steps: int
    wall_time: float
    levels: tuple[int, ...]     # nodes per side of each lattice, coarsest first


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def validate_config(config: RunConfig) -> list[str]:
    """Field-by-field validation; returns a list of error strings."""
    errors = []
    c = config
    if c.dim not in (2, 3):
        errors.append(f"dim: must be 2 or 3, got {c.dim}")
    if c.nodes_per_side < 9 or c.nodes_per_side % 2 == 0:
        errors.append(f"nodes_per_side: must be odd and >= 9, got {c.nodes_per_side}")
    if not 0 < c.radius_B < math.inf:
        errors.append(f"radius_B: must be positive and finite, got {c.radius_B}")
    if not c.omega0 > 0:
        errors.append(f"omega0: must be positive, got {c.omega0}")
    if c.eps is not None and not 0 < c.eps < math.inf:
        errors.append(f"eps: must be positive and finite, got {c.eps}")
    if c.penalty_variant not in ("plain", "rewarding"):
        errors.append(f"penalty_variant: must be plain or rewarding, got {c.penalty_variant!r}")
    if c.init_shape not in INIT_SHAPES:
        errors.append(f"init_shape: must be one of {INIT_SHAPES}, got {c.init_shape!r}")
    if c.max_steps < 1:
        errors.append(f"max_steps: must be >= 1, got {c.max_steps}")
    if not 0 < c.tone_tol < DELTA_REL:
        errors.append(f"tone_tol: must be in (0, DELTA_REL = {DELTA_REL}), got {c.tone_tol}")
    if not 0.0 < c.d_n < 1.0:
        errors.append(f"d_n: must lie in (0, 1), got {c.d_n}")
    if c.seed < 0:
        errors.append(f"seed: must be >= 0, got {c.seed}")
    if c.snapshot_every < 1:
        errors.append(f"snapshot_every: must be >= 1, got {c.snapshot_every}")
    if c.dim in (2, 3) and c.omega0 > 0 and 0 < c.radius_B < math.inf:
        if c.omega0 >= unit_ball_volume(c.dim) * c.radius_B ** c.dim:
            errors.append("omega0: target volume does not fit inside the reference ball")
    return errors


def eps_threshold(config: RunConfig) -> float:
    """Largest eps the theory covers for the configured penalty variant."""
    e1_eff = eps1_effective(config.dim, config.omega0, config.radius_B)
    if config.penalty_variant == "plain":
        return e1_eff
    return min(eps0(config.dim, config.omega0, config.d_n), e1_eff)


def resolve_eps(config: RunConfig) -> tuple[RunConfig, TheoryConstants]:
    """Fill a defaulted eps and enforce the threshold unless overridden."""
    threshold = eps_threshold(config)
    if config.eps is None:
        config = replace(config, eps=threshold)
    elif config.eps > threshold and not config.eps_override:
        raise ValueError(
            f"eps={config.eps} exceeds the theoretical threshold {threshold} "
            f"for the {config.penalty_variant} penalty; set eps_override to "
            "run above it"
        )
    consts = compute_constants(config.dim, config.omega0, config.eps,
                               d_n=config.d_n, radius_B=config.radius_B)
    return config, consts


def penalty_kind(config: RunConfig) -> PenaltyKind:
    if config.eps is None:
        raise ValueError("eps is unresolved; call resolve_eps first")
    return PenaltyKind(config.penalty_variant, config.eps, config.omega0)


# ---------------------------------------------------------------------------
# initial shapes
# ---------------------------------------------------------------------------

def initial_mask(grid: Grid, shape: str, omega0: float, seed: int = 0) -> Mask:
    """Centered starting mask of the requested topology whose volume matches
    omega0 up to one boundary layer of nodes."""
    if shape not in INIT_SHAPES:
        raise ValueError(f"unknown init shape {shape!r}")
    n = grid.dim
    wn = unit_ball_volume(n)
    if omega0 >= wn * grid.radius_B ** n:
        raise ValueError(
            f"omega0={omega0} does not fit inside the reference ball "
            f"(|B|={wn * grid.radius_B ** n})"
        )
    center = (0.0,) * n

    if shape == "disk":
        return ball_mask(grid, center, (omega0 / wn) ** (1.0 / n))

    if shape == "square":
        half = 0.5 * omega0 ** (1.0 / n)
        if half * math.sqrt(n) >= grid.radius_B:
            raise ValueError("square of the requested volume does not fit in B")
        axes = np.meshgrid(*[grid.axis_coords()] * n, indexing="ij", sparse=True)
        inside = np.ones(grid.shape, dtype=bool)
        for a in axes:
            inside &= np.abs(a) < half
        return mask_from_array(grid, inside)

    if shape == "annulus":
        outer = (omega0 / (wn * (1.0 - 0.5 ** n))) ** (1.0 / n)
        inner = 0.5 * outer
        if outer >= grid.radius_B:
            raise ValueError("annulus of the requested volume does not fit in B")
        shell = np.logical_and(ball_mask(grid, center, outer).inside,
                               np.logical_not(ball_mask(grid, center, inner).inside))
        return mask_from_array(grid, shell)

    if shape == "two_disks":
        r = (omega0 / (2.0 * wn)) ** (1.0 / n)
        offset = 1.5 * r
        if offset + r >= grid.radius_B:
            raise ValueError("two disks of the requested volume do not fit in B")
        c1 = np.zeros(n)
        c1[0] = offset
        both = np.logical_or(ball_mask(grid, c1, r).inside,
                             ball_mask(grid, -c1, r).inside)
        return mask_from_array(grid, both)

    # random_blob: low-order angular wobble of the volume-matched ball,
    # renormalized to the target volume by a few fixed-point steps
    rng = np.random.default_rng(seed)
    modes = np.arange(2, 6)
    amp = 0.25 * rng.standard_normal(modes.size) / modes
    phase = rng.uniform(0.0, 2.0 * math.pi, modes.size)
    axes = np.meshgrid(*[grid.axis_coords()] * n, indexing="ij", sparse=True)
    rho = np.sqrt(sum(a * a for a in axes))
    theta = np.arctan2(axes[1], axes[0])
    wobble = np.zeros(grid.shape)
    for k, a, p in zip(modes, amp, phase):
        wobble += a * np.cos(k * theta + p)
    base = (omega0 / wn) ** (1.0 / n)
    for _ in range(4):
        mask = mask_from_array(grid, rho < base * (1.0 + wobble))
        vol = mask_volume(mask)
        if vol <= 0:
            base *= 1.25
            continue
        base *= (omega0 / vol) ** (1.0 / n)
    mask = mask_from_array(grid, rho < base * (1.0 + wobble))
    if mask.is_empty:
        raise ValueError("random blob initialization collapsed to an empty mask")
    return mask


# ---------------------------------------------------------------------------
# candidates
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


def _best(idx: np.ndarray, score: np.ndarray, k: int) -> np.ndarray:
    """The (at most) k entries of idx with the largest score, ties broken by
    ascending idx; pass -score to take the smallest."""
    return idx[np.lexsort((idx, -score))[:k]]


def _superlevels(grid: Grid, values: np.ndarray, low: float,
                 high: float) -> tuple[Mask, Mask]:
    """Superlevel sets {|u| >= t_q}, t_q the q-quantile of the positive
    magnitudes of u, for q = low and q = high.  The incumbent eigenfield is
    normalized and finite, so it never vanishes."""
    mag = np.abs(values)
    t_low, t_high = np.quantile(mag[mag > 0.0], [low, high])
    return mask_from_array(grid, mag >= t_low), mask_from_array(grid, mag >= t_high)


def _exchange(mask: Mask, ring: np.ndarray, boundary: np.ndarray,
              score: np.ndarray, fraction: float) -> Mask | None:
    """Volume-neutral boundary exchange: swap the k weakest boundary members
    for the k strongest exterior ring nodes (flat indices, ranked by score).

    Strength is the squared Laplacian of the zero-extended eigenfield, a
    heuristic stand-in for the boundary energy density that drives the shape
    derivative of the tone (it is not the clamped operator's energy): growth
    where it is large buys the most tone reduction, shrink where it is small
    costs the least.  Pure shrink or growth moves cannot trade mass at
    constant volume, and at the volume target the penalty blocks both, so
    without this move the search stalls on the first shape that hits the
    target volume.
    """
    if ring.size == 0 or boundary.size == 0:
        return None
    k = max(1, int(round(fraction * min(ring.size, boundary.size))))
    k = min(k, ring.size, boundary.size)
    swapped = mask.inside.copy()
    swapped.ravel()[_best(ring, score[ring], k)] = True
    swapped.ravel()[_best(boundary, -score[boundary], k)] = False
    return mask_from_array(mask.grid, swapped)


def _grow_to_budget(mask: Mask, ring: np.ndarray, score: np.ndarray,
                    omega0: float) -> Mask | None:
    """One partial dilation ring toward volume omega0, best nodes first.

    Ring nodes (flat indices) are taken in decreasing order of score, the
    squared Laplacian of the zero-extended eigenfield, never more than the
    remaining volume budget allows.  The score is a heuristic kept from a
    zero-extension energy, in which it was the energy charged at exterior
    neighbors of the mask; the clamped operator charges it only beyond
    features too thin to clamp, so here it just ranks the nodes.
    """
    hn = mask.grid.spacing ** mask.grid.dim
    budget = int(math.floor((omega0 - mask_volume(mask)) / hn))
    if budget <= 0 or ring.size == 0:
        return None
    grown = mask.inside.copy()
    grown.ravel()[_best(ring, score[ring], budget)] = True
    return mask_from_array(mask.grid, grown)


def candidate_masks(state: SearchState, config: RunConfig) -> list[Mask]:
    """Deterministic candidate list for one descent step.

    Order: the superlevel set at quantile 0.02 * aggressiveness, dilate,
    erode, dilate of the superlevel set at quantile 0.25 * aggressiveness,
    the volume-targeted partial dilation, two volume-neutral boundary
    exchanges (coarse and fine), then, when the mask is disconnected, one
    restriction per connected component plus that restriction grown by one
    budgeted ring.  The grown restriction matters: dropping a dead component
    alone improves the objective only through the penalty slope (an O(eps)
    sliver that cannot clear the acceptance margin), while restriction plus
    regrowth buys an O(gamma h) tone drop at once.  Empty candidates are
    dropped.

    The incumbent's dilation, erosion, exterior ring, boundary, score and
    quantile thresholds are each computed once and shared by the moves.
    """
    mask, grid = state.mask, state.mask.grid
    values = state.tone.eigenfield.values
    grown, shrunk = dilate(mask), erode(mask)
    ring = np.flatnonzero(grown.inside & ~mask.inside)
    boundary = np.flatnonzero(mask.inside & ~shrunk.inside)
    score = _lap(values, grid.spacing).ravel() ** 2
    # One bare cut: bare cuts at 0.02, 0.05, 0.1 and 0.25 won none of 233
    # accepted steps on the benchmark's seeds 0-5, but the cut and erode are
    # the only shrink moves, and an overfull start needs one.
    cut, top = _superlevels(grid, values, 0.02 * state.aggressiveness,
                            0.25 * state.aggressiveness)
    cands = [
        cut,
        grown,
        shrunk,
        dilate(top),
        _grow_to_budget(mask, ring, score, config.omega0),
        _exchange(mask, ring, boundary, score, 0.25 * state.aggressiveness),
        _exchange(mask, ring, boundary, score, 0.05 * state.aggressiveness),
    ]
    count, labels = connected_components(mask)
    if count > 1:
        for comp in range(1, count + 1):
            part = mask_from_array(grid, labels == comp)
            cands.append(part)
            if mask_volume(part) >= config.omega0:
                continue    # no growth budget: skip building the ring and score
            part_ring = np.flatnonzero(dilate(part).inside & ~part.inside)
            part_score = _lap(np.where(part.inside, values, 0.0), grid.spacing).ravel() ** 2
            cands.append(_grow_to_budget(part, part_ring, part_score, config.omega0))
    return [m for m in cands if m is not None and not m.is_empty]


# ---------------------------------------------------------------------------
# descent
# ---------------------------------------------------------------------------

def _record(state: SearchState, kind: PenaltyKind, gamma: float, volume: float,
            J: float, accepted: bool) -> None:
    state.history.append(HistoryRow(
        step=state.step,
        gamma=gamma,
        volume=volume,
        penalty=penalty_value(kind, volume),
        J=J,
        accepted=accepted,
        nodes_per_side=state.mask.grid.nodes_per_side,
    ))


def objective_floor(state: SearchState, cand: Mask, kind: PenaltyKind) -> float:
    """Lower bound on the candidate's J, without a solve.

    The tone part is the incumbent's tone when the candidate is a subset of
    the incumbent mask (tone monotonicity under inclusion), and 0 otherwise
    (A = K^T K is positive definite); the penalty part is exact, so the
    incumbent's own floor is its J, above any acceptance bar.  On the
    lattice, monotonicity is the continuum theorem: a ragged subset can
    undercut the incumbent's tone, but only by a discretization artifact.
    """
    subset = not np.any(cand.inside & ~state.mask.inside)
    tone = state.tone.gamma if subset else 0.0
    return tone + penalty_value(kind, mask_volume(cand))


def descent_step(state: SearchState, config: RunConfig,
                 kind: PenaltyKind) -> SearchState:
    """Evaluate the candidates, accept the best strict improvement.

    Acceptance requires J_new <= bar = J_old - DELTA_REL * |J_old|; otherwise
    the aggressiveness is halved.  A candidate whose ``objective_floor`` lies
    above the bar cannot pass, so it is not solved and adds no history row
    (logged at DEBUG).  Candidate eigensolves are warm started from the
    incumbent eigenfield; a candidate whose solve fails is skipped and
    logged, never fatal.  Every evaluation lands in the history.

    A mask is solved at most once per lattice: it joins ``state.solved``
    just before its solve.  Against the same incumbent a second solve would
    repeat exactly; after an acceptance the bar lies ``DELTA_REL * |J|`` or
    more below the mask's J, far beyond the ~``tone_tol`` that another warm
    start moves it.  A mask whose solve fails is not retried on the lattice.
    """
    state.step += 1
    bar = state.J - DELTA_REL * abs(state.J)
    evals: list[tuple[float, int, Mask, ToneResult, float]] = []
    for idx, cand in enumerate(candidate_masks(state, config)):
        key = np.packbits(cand.inside).tobytes()
        if key in state.solved:
            continue
        floor = objective_floor(state, cand, kind)
        if floor > bar:
            log.debug("step %d: candidate %d ruled out: floor %.17g > bar %.17g",
                      state.step, idx, floor, bar)
            continue
        state.solved.add(key)
        try:
            J, tone, vol = objective(cand.grid, cand, kind, tone_tol=config.tone_tol,
                                     initial=state.tone.eigenfield)
        except (ConvergenceFailure, EmptyMaskError) as exc:
            log.warning("step %d: candidate %d skipped: %s", state.step, idx, exc)
            continue
        evals.append((J, idx, cand, tone, vol))

    accepted_entry = None
    if evals:
        best = min(evals, key=lambda e: (e[0], e[1]))
        if best[0] <= bar:
            accepted_entry = best

    for J, idx, cand, tone, vol in evals:
        is_best = accepted_entry is not None and idx == accepted_entry[1]
        _record(state, kind, tone.gamma, vol, J, is_best)

    if accepted_entry is not None:
        J, _, cand, tone, vol = accepted_entry
        state.mask, state.tone, state.J, state.volume = cand, tone, J, vol
    else:
        state.aggressiveness *= 0.5
        if state.aggressiveness < AGGRESSIVENESS_FLOOR:
            state.terminated = TERMINATED_CONVERGED
    return state


def descend(config: RunConfig, kind: PenaltyKind, mask: Mask,
            prior: SearchState | None = None, on_accept=None) -> SearchState:
    """Solve the start ``mask`` on its lattice, then take descent steps on
    that lattice until the aggressiveness underflows or ``config.max_steps``
    steps have been taken.

    ``prior`` is the finished state of a coarser lattice.  Its history and
    step count carry on, so steps are numbered continuously across lattices
    and ``config.max_steps`` bounds their total; the start row shares the
    step number of the last coarse step.  ``on_accept(state)`` is invoked
    after every accepted step; the start is not a step.
    """
    J0, tone0, vol0 = objective(mask.grid, mask, kind, tone_tol=config.tone_tol)
    state = SearchState(mask=mask, tone=tone0, J=J0, volume=vol0, step=0,
                        aggressiveness=1.0, solved={np.packbits(mask.inside).tobytes()})
    if prior is not None:
        state.step, state.history = prior.step, prior.history
    _record(state, kind, tone0.gamma, vol0, J0, accepted=True)

    while state.terminated is None and state.step < config.max_steps:
        j_before = state.J
        state = descent_step(state, config, kind)
        if on_accept is not None and state.J < j_before:
            on_accept(state)
    if state.terminated is None:
        state.terminated = TERMINATED_MAX_STEPS
    return state


def coarse_nodes_per_side(config: RunConfig) -> int | None:
    """Nodes per side of the lattice a run descends on before its own, or
    None when it starts on its own lattice from ``init_shape``.

    The coarse lattice keeps radius_B and has half the resolution, so fine
    node 2i is coarse node i; its node count (N + 1) / 2 is odd only for
    N = 1 (mod 4).  It is used only while it keeps MIN_COARSE_NODES_ACROSS
    nodes across the diameter of the ball of volume omega0.
    """
    n = config.nodes_per_side
    if n % 4 != 1:
        return None
    coarse = (n + 1) // 2
    h = 2.0 * config.radius_B / (coarse - 1)
    diameter = 2.0 * (config.omega0 / unit_ball_volume(config.dim)) ** (1.0 / config.dim)
    return coarse if diameter / h >= MIN_COARSE_NODES_ACROSS else None


def _prolong(values: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of a node array onto the lattice of half the
    spacing: fine node 2i is coarse node i, and each fine node between
    coarse nodes averages its two neighbours along every such axis."""
    for ax in range(values.ndim):
        shape = list(values.shape)
        shape[ax] = 2 * shape[ax] - 1
        fine = np.empty(shape)
        even, odd, lo, hi = ([slice(None)] * values.ndim for _ in range(4))
        even[ax], odd[ax] = slice(0, None, 2), slice(1, None, 2)
        lo[ax], hi[ax] = slice(0, -1), slice(1, None)
        fine[tuple(even)] = values
        fine[tuple(odd)] = 0.5 * (values[tuple(lo)] + values[tuple(hi)])
        values = fine
    return values


def prolong_mask(field: ScalarField) -> Mask:
    """The mask of a coarse eigenfield on the lattice of half its spacing, at
    the coarse mask's exact volume.

    Keeps 2^n times the coarse member count of the nodes strictly inside B,
    ranked by the multilinear interpolation of the coarse membership, ties
    broken by the interpolated magnitude of the field, then by flat index.
    Every fine node that coincides with a coarse member interpolates to 1
    and is kept: at most 2^n fine nodes interpolate to 1 per coarse member.
    """
    mask, coarse = field.mask, field.grid
    grid = make_grid(coarse.dim, 2 * coarse.nodes_per_side - 1, coarse.radius_B)
    membership = _prolong(mask.inside.astype(float)).ravel()
    magnitude = _prolong(np.abs(field.values)).ravel()
    idx = np.flatnonzero(inside_ball(grid))
    order = np.lexsort((idx, -magnitude[idx], -membership[idx]))
    keep = np.zeros(grid.node_count, dtype=bool)
    keep[idx[order[:2 ** grid.dim * mask.member_count]]] = True
    return mask_from_array(grid, keep.reshape(grid.shape))


def optimize(config: RunConfig, on_accept=None) -> RunResult:
    """Run the full search: ``descend`` on each lattice, coarsest first (see
    ``coarse_nodes_per_side``), from ``init_shape`` on the first and from the
    previous optimum, prolonged, on each later one; bundle diagnostics of the
    final lattice.  ``on_accept(state)`` is invoked after every accepted step
    on any lattice (the CLI counts the calls to dump masks).
    """
    errors = validate_config(config)
    if errors:
        raise ValueError("invalid config: " + "; ".join(errors))
    config, consts = resolve_eps(config)
    kind = penalty_kind(config)

    t_start = time.perf_counter()
    sizes = [config.nodes_per_side]
    while coarse := coarse_nodes_per_side(replace(config, nodes_per_side=sizes[-1])):
        sizes.append(coarse)
    levels = tuple(reversed(sizes))
    grid = make_grid(config.dim, levels[0], config.radius_B)
    mask = initial_mask(grid, config.init_shape, config.omega0, config.seed)
    state = descend(config, kind, mask, None, on_accept)
    for _ in levels[1:]:
        state = descend(config, kind, prolong_mask(state.tone.eigenfield), state, on_accept)
    diagnostics = run_diagnostics(state.tone.eigenfield, config.omega0)
    wall = time.perf_counter() - t_start
    return RunResult(
        config=config,
        constants=consts,
        mask=state.mask,
        tone=state.tone,
        gamma=state.tone.gamma,
        volume=state.volume,
        penalty=penalty_value(kind, state.volume),
        J=state.J,
        history=tuple(state.history),
        diagnostics=diagnostics,
        termination=state.terminated,
        steps=state.step,
        wall_time=wall,
        levels=levels,
    )
