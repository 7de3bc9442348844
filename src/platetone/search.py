"""Descent over discrete domains for the penalized tone objective.

The minimization over fields in the continuum problem becomes a search over
masks here: each step proposes a deterministic list of candidate masks built
from the current eigenfield (superlevel sets at configured quantiles scaled
by an aggressiveness knob), from one-ring morphology, from a volume-targeted
partial dilation, from volume-neutral boundary exchanges, and from
connected-component restrictions (bare and regrown).  The candidate with the
lowest objective wins, ties broken by list position; a step that fails to
improve the objective by the relative margin ``delta_rel`` halves the
aggressiveness, and the run stops when the aggressiveness underflows 1e-3 or
the step budget is exhausted.

No candidate is solved whose objective is bounded away from acceptance
before any solve: the tone is positive, and a subset of the incumbent has a
tone at least the incumbent's (H^2_0 of the subset lies in H^2_0 of the
incumbent), so that tone floor plus the candidate's exact penalty,
``objective_floor``, bounds its J from below.  A candidate whose floor lies
above the acceptance bar is ruled out and adds no history row.

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
from platetone.constants import TheoryConstants, compute_constants, unit_ball_volume
from platetone.diagnostics import DiagnosticsReport, run_diagnostics
from platetone.field_grid import (
    Grid,
    Mask,
    ball_mask,
    connected_components,
    dilate,
    erode,
    make_grid,
    mask_from_array,
    mask_volume,
)
from platetone.penalty import PenaltyKind, objective_with_tone, penalty_value

log = logging.getLogger(__name__)

INIT_SHAPES = ("disk", "square", "annulus", "two_disks", "random_blob")
TERMINATED_CONVERGED = "aggressiveness_floor"
TERMINATED_MAX_STEPS = "max_steps"
AGGRESSIVENESS_FLOOR = 1e-3


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
    quantiles: tuple[float, ...] = (0.02, 0.05, 0.1, 0.25)
    delta_rel: float = 1e-6
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
    # packed masks evaluated against this incumbent in rejected steps
    rejected: set[bytes] = field(default_factory=set)


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
    if not c.radius_B > 0:
        errors.append(f"radius_B: must be positive, got {c.radius_B}")
    if not c.omega0 > 0:
        errors.append(f"omega0: must be positive, got {c.omega0}")
    if c.eps is not None and not c.eps > 0:
        errors.append(f"eps: must be positive, got {c.eps}")
    if c.penalty_variant not in ("plain", "rewarding"):
        errors.append(f"penalty_variant: must be plain or rewarding, got {c.penalty_variant!r}")
    if c.init_shape not in INIT_SHAPES:
        errors.append(f"init_shape: must be one of {INIT_SHAPES}, got {c.init_shape!r}")
    if not c.quantiles:
        errors.append("quantiles: must not be empty")
    elif not all(0.0 < q < 1.0 for q in c.quantiles):
        errors.append(f"quantiles: must lie in (0, 1), got {c.quantiles}")
    elif tuple(sorted(c.quantiles)) != tuple(c.quantiles):
        errors.append(f"quantiles: must be sorted ascending, got {c.quantiles}")
    if not c.delta_rel > 0:
        errors.append(f"delta_rel: must be positive, got {c.delta_rel}")
    if c.max_steps < 1:
        errors.append(f"max_steps: must be >= 1, got {c.max_steps}")
    if not c.tone_tol > 0:
        errors.append(f"tone_tol: must be positive, got {c.tone_tol}")
    if not 0.0 < c.d_n < 1.0:
        errors.append(f"d_n: must lie in (0, 1), got {c.d_n}")
    if c.snapshot_every < 1:
        errors.append(f"snapshot_every: must be >= 1, got {c.snapshot_every}")
    if c.dim in (2, 3) and c.omega0 > 0 and c.radius_B > 0:
        if c.omega0 >= unit_ball_volume(c.dim) * c.radius_B ** c.dim:
            errors.append("omega0: target volume does not fit inside the reference ball")
    return errors


def eps_threshold(config: RunConfig, constants: TheoryConstants) -> float:
    """Largest eps the theory covers for the configured penalty variant."""
    e1_eff = constants.eps1_effective
    assert e1_eff is not None
    if config.penalty_variant == "plain":
        return e1_eff
    return min(constants.eps0, e1_eff)


def resolve_eps(config: RunConfig) -> tuple[RunConfig, TheoryConstants]:
    """Fill a defaulted eps and enforce the threshold unless overridden."""
    probe_eps = config.eps if config.eps is not None else 1.0
    consts = compute_constants(config.dim, config.omega0, probe_eps,
                               d_n=config.d_n, radius_B=config.radius_B)
    threshold = eps_threshold(config, consts)
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


def _superlevels(grid: Grid, values: np.ndarray,
                 q_effs: list[float]) -> list[Mask | None]:
    """Superlevel sets {|u| >= t_q}, t_q the q-quantile of the positive
    magnitudes of u, for each q (None when u vanishes)."""
    mag = np.abs(values)
    positive = mag[mag > 0.0]
    if positive.size == 0:
        return [None] * len(q_effs)
    return [mask_from_array(grid, mag >= thr) for thr in np.quantile(positive, q_effs)]


def _exchange(grid: Grid, mask: Mask, ring: np.ndarray, boundary: np.ndarray,
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
    return mask_from_array(grid, swapped)


def _grow_to_budget(grid: Grid, mask: Mask, ring: np.ndarray, score: np.ndarray,
                    omega0: float) -> Mask | None:
    """One partial dilation ring toward volume omega0, best nodes first.

    Ring nodes (flat indices) are taken in decreasing order of score, the
    squared Laplacian of the zero-extended eigenfield, never more than the
    remaining volume budget allows.  The score is a heuristic kept from a
    zero-extension energy, in which it was the energy charged at exterior
    neighbors of the mask; the clamped operator charges it only beyond
    features too thin to clamp, so here it just ranks the nodes.
    """
    hn = grid.spacing ** grid.dim
    budget = int(math.floor((omega0 - mask_volume(mask)) / hn))
    if budget <= 0 or ring.size == 0:
        return None
    grown = mask.inside.copy()
    grown.ravel()[_best(ring, score[ring], budget)] = True
    return mask_from_array(grid, grown)


def candidate_masks(state: SearchState, config: RunConfig, grid: Grid) -> list[Mask]:
    """Deterministic candidate list for one descent step.

    Order: superlevel sets for each configured quantile (scaled by the
    current aggressiveness), dilate, erode, dilate of the top-quantile set,
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
    mask = state.mask
    values = state.tone.eigenfield.values
    grown, shrunk = dilate(mask), erode(mask)
    ring = np.flatnonzero(grown.inside & ~mask.inside)
    boundary = np.flatnonzero(mask.inside & ~shrunk.inside)
    score = _lap(values, grid.spacing).ravel() ** 2
    cuts = _superlevels(grid, values, [q * state.aggressiveness for q in config.quantiles])
    top = cuts[config.quantiles.index(max(config.quantiles))]
    cands = cuts + [
        grown,
        shrunk,
        dilate(top) if top is not None else None,
        _grow_to_budget(grid, mask, ring, score, config.omega0),
        _exchange(grid, mask, ring, boundary, score, 0.25 * state.aggressiveness),
        _exchange(grid, mask, ring, boundary, score, 0.05 * state.aggressiveness),
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
            cands.append(_grow_to_budget(grid, part, part_ring, part_score, config.omega0))
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
    ))


def objective_floor(state: SearchState, cand: Mask, kind: PenaltyKind) -> float:
    """Lower bound on the candidate's J, without a solve.

    The tone part is the incumbent's tone when the candidate is a subset of
    the incumbent mask (tone monotonicity under inclusion), and 0 otherwise
    (A = K^T K is positive definite); the penalty part is exact.  On the
    lattice, monotonicity is the continuum theorem: a ragged subset can
    undercut the incumbent's tone, but only by a discretization artifact.
    """
    subset = not np.any(cand.inside & ~state.mask.inside)
    tone = state.tone.gamma if subset else 0.0
    return tone + penalty_value(kind, mask_volume(cand))


def descent_step(state: SearchState, config: RunConfig, grid: Grid,
                 kind: PenaltyKind) -> SearchState:
    """Evaluate the candidates, accept the best strict improvement.

    Acceptance requires J_new <= bar = J_old - delta_rel * |J_old|; otherwise
    the aggressiveness is halved.  A candidate whose ``objective_floor`` lies
    above the bar cannot pass, so it is not solved and adds no history row
    (logged at DEBUG).  Candidate eigensolves are warm started from the
    incumbent eigenfield; a candidate whose solve fails is skipped and
    logged, never fatal.  Every evaluation lands in the history.

    A candidate already evaluated in a rejected step against the same
    incumbent is not evaluated again: with the same warm start its solve
    repeats exactly, so it fails the unchanged acceptance test again (dilate
    and erode recur in every step of a run's closing rejections).
    """
    state.step += 1
    bar = state.J - config.delta_rel * abs(state.J)
    evals: list[tuple[float, int, Mask, ToneResult, float]] = []
    tried: list[bytes] = []
    for idx, cand in enumerate(candidate_masks(state, config, grid)):
        if cand == state.mask:
            continue
        key = np.packbits(cand.inside).tobytes()
        if key in state.rejected:
            continue
        floor = objective_floor(state, cand, kind)
        if floor > bar:
            log.debug("step %d: candidate %d ruled out: floor %.17g > bar %.17g",
                      state.step, idx, floor, bar)
            continue
        tried.append(key)
        try:
            J, tone, vol = objective_with_tone(
                grid, cand, kind, tone_tol=config.tone_tol,
                initial=state.tone.eigenfield,
            )
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
        state.rejected.clear()
    else:
        state.rejected.update(tried)
        state.aggressiveness *= 0.5
        if state.aggressiveness < AGGRESSIVENESS_FLOOR:
            state.terminated = TERMINATED_CONVERGED
    return state


def optimize(config: RunConfig,
             snapshot_hook=None) -> RunResult:
    """Run the full search: initialize, descend, bundle diagnostics.

    ``snapshot_hook(state)`` is invoked after every accepted step whose index
    is a multiple of config.snapshot_every (the CLI uses it to dump masks).
    """
    errors = validate_config(config)
    if errors:
        raise ValueError("invalid config: " + "; ".join(errors))
    config, consts = resolve_eps(config)
    kind = penalty_kind(config)
    grid = make_grid(config.dim, config.nodes_per_side, config.radius_B)

    t_start = time.perf_counter()
    mask0 = initial_mask(grid, config.init_shape, config.omega0, config.seed)
    J0, tone0, vol0 = objective_with_tone(grid, mask0, kind, tone_tol=config.tone_tol)
    state = SearchState(mask=mask0, tone=tone0, J=J0, volume=vol0,
                        step=0, aggressiveness=1.0)
    _record(state, kind, tone0.gamma, vol0, J0, accepted=True)

    accepted_steps = 0
    while state.terminated is None and state.step < config.max_steps:
        j_before = state.J
        state = descent_step(state, config, grid, kind)
        if state.J < j_before:
            accepted_steps += 1
            if snapshot_hook is not None and accepted_steps % config.snapshot_every == 0:
                snapshot_hook(state)
    if state.terminated is None:
        state.terminated = TERMINATED_MAX_STEPS

    diagnostics = run_diagnostics(grid, state.mask, state.tone.eigenfield,
                                  config.omega0)
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
    )
