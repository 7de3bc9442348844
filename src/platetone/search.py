"""Descent over discrete domains for the penalized tone objective.

The minimization over fields in the continuum problem becomes a search over
masks here: each step proposes a deterministic list of candidate masks built
from the current eigenfield: a cut of its weakest members (a fixed fraction
scaled by an aggressiveness knob; only while the incumbent has more members
than the lattice's node budget floor(omega0 / h^n)), a one-ring dilation
(only while eps lies above its threshold), one growth per connected
component toward the node budget (of the whole incumbent when it is
connected; a component with no room left is offered bare), volume-neutral
boundary exchanges (a fine one at every step, and a coarse one only on a
lattice whose node budget is below ``COARSE_EXCHANGE_MAX_NODES``, while the
fine one moves at most two nodes), and last the incumbent with its holes
filled and then shrunk to the volume budget.  Every node choice, the
prolongation below included, follows one rule (``_ranked``): descending
score, ties by ascending flat index; the growths and the exchanges take
prefixes of one ranking of the incumbent's ring, and both shrinks are one
peel (``_peel``), least |u| first.  What the list reads of the incumbent
(both rankings, the dilation, the components' growths, the filled mask) is
derived once per incumbent and read by every step against it; only the cut
and the exchanges follow the aggressiveness.
The candidate with the lowest objective wins, ties broken by list
position; a step that fails to improve the objective by the fixed relative
margin ``DELTA_REL`` (1e-6) halves the aggressiveness.  A lattice's descent
ends at the first such step with nothing new to solve, or when the step
budget is exhausted.

When the lattice with half the spacing still resolves the target ball, the
run descends there first and starts from that optimum, prolonged at its
exact volume (see ``lattice_levels``); ``optimize`` loops over the
lattices, so a 2D N=257 run descends on N=65, then 129, then 257.  One
history spans the levels; a step works on its incumbent mask's lattice.

No candidate is solved whose objective is bounded away from acceptance
before any solve: the lattice tone is positive (A = K^T K is positive
definite), so a candidate's exact penalty alone bounds its J from below, and
a candidate whose penalty lies above the acceptance bar is ruled out and adds
no history row.  The bound is a fact about the lattice; it does not borrow
the continuum's monotonicity (a subset's H^2_0 lies in its superset's),
which the lattice operator breaks on ragged nested pairs.

A mask is solved at most once per lattice.  Accepted J falls by at least
``DELTA_REL * |J|`` per step, so after a mask's solve either the incumbent is
unchanged and a second solve would repeat the first exactly, or the bar lies
at least that margin below the mask's J, which another warm start moves only
by about the solve tolerance: the mask could never pass again.  That
tolerance is the constant ``RunConfig.tone_tol``, below ``DELTA_REL``.

Everything is deterministic for a fixed config, including the seeded blob
initializer, so a rerun reproduces the trace bit for bit.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import ClassVar

import numpy as np

from platetone.biharmonic import ConvergenceFailure, ToneResult
from platetone.constants import (
    TheoryConstants,
    ball_fit_errors,
    ball_radius,
    compute_constants,
    eps0,
    eps1_effective,
    unit_ball_volume,
)
from platetone.diagnostics import DiagnosticsReport, run_diagnostics
from platetone.field_grid import (
    FIELD_DIMS,
    Grid,
    Mask,
    ScalarField,
    ball_mask,
    boundary_nodes,
    connected_components,
    count_errors,
    dilate,
    face_neighbours,
    fill_holes,
    inside_ball,
    lattice_errors,
    make_grid,
    mask_from_array,
    mask_volume,
    raise_errors,
    real_errors,
)
from platetone.penalty import PLAIN, PenaltyKind, objective, penalty_value, variant_errors

log = logging.getLogger(__name__)

INIT_SHAPES = ("disk", "square", "annulus", "two_disks", "random_blob")
TERMINATED_CONVERGED = "nothing_to_solve"
TERMINATED_MAX_STEPS = "max_steps"
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

# The coarse exchange is offered only on a lattice whose node budget,
# floor(omega0 / h^n), is below this.  Its winning solves over all its
# solves, by budget, on one-lattice runs (five starts at the default omega0
# unless one is given; square-3d-33 seeds 0-22) and on annulus-2d-129's
# N=129 lattice (seeds 0-10, the move forced on):
#   budget  89     119   201   357   402   511   558   638   641   675   682
#   2D/3D N 2D 33  3D 17 2D 49 2D 65 3D 25 3D 27 2D 81 3D 29 2D 65 2D 89 2D 65
#   omega0                                               1.41        1.5
#   wins    10/36  2/19  2/35  2/24  2/26  0/6   0/10  0/20  2/24  1/14  2/24
#   budget  706    771   785   800   838   907   938-970  980   1143  1357
#   2D/3D N 2D 91  2D 95 3D 31 2D 65 2D 99 2D103 3D 33    2D107 3D 35 3D 37
#   omega0                     1.76
#   wins    0/15   0/23  1/19  0/21  0/21  0/20  1/75     0/21  5/33  0/14
#   budget  1385   1408-1455  1861
#   2D/3D N 2D127  2D 129     3D 41
#   wins    0/20   0/41       0/22
# No budget separates the lattices where it wins from those where it does
# not: it wins 24 of 295 solves below 800 nodes and 6 of 288 from 800 up.
# 800 keeps every win measured below 938 and lies under omega_2 16^2 = 804,
# the least budget of a later lattice (one with MIN_COARSE_NODES_ACROSS
# nodes across on the coarser lattice), so no later lattice gains the move.
# Above it the move costs a quarter of square-3d-33's solves; dropping it
# there raised the final J of square-3d-33 seeds 20 and 24 (of 0-34) by
# 0.085% and 0.015%, and of the 3D N=35 disk and annulus starts by 0.38%
# and 0.28%.
COARSE_EXCHANGE_MAX_NODES = 800


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one optimization run.

    ``eps=None`` means "use the largest theoretically safe value" for the
    chosen penalty variant (eps1_effective for plain, min(eps0,
    eps1_effective) for rewarding).  Values above the safe threshold are
    rejected unless ``eps_override`` is set; that check needs the ball-tone
    oracles and is made by ``resolve_eps``.  Every other field is checked at
    construction (``dataclasses.replace`` included): one ValueError names
    each bad field.
    """

    dim: int = 2
    nodes_per_side: int = 129
    radius_B: float = 1.5
    omega0: float = math.pi / 4
    eps: float | None = None
    penalty_variant: str = "plain"
    init_shape: str = "disk"
    max_steps: int = 300
    seed: int = 0
    d_n: float = 0.5
    eps_override: bool = False
    snapshot_every: int = 10
    # Relative tolerance of every eigensolve.  A constant, not a key: a mask
    # is solved once per lattice only while a warm start moves its J far less
    # than the acceptance margin DELTA_REL (1e-6) (see descent_step).
    tone_tol: ClassVar[float] = 1e-8

    def __post_init__(self):
        errors = lattice_errors(self.dim, self.nodes_per_side, self.radius_B)
        errors += start_errors(self.init_shape, self.omega0, self.seed)
        if self.eps is not None:
            errors += real_errors("eps", self.eps)
        errors += variant_errors(self.penalty_variant)
        errors += count_errors("max_steps", self.max_steps, ">= 1", lambda k: k >= 1)
        errors += real_errors("d_n", self.d_n, 1.0)
        errors += count_errors("snapshot_every", self.snapshot_every, ">= 1", lambda k: k >= 1)
        if not isinstance(self.eps_override, (bool, np.bool_)):
            errors.append(f"eps_override: must be a bool, got {self.eps_override!r}")
        if self.dim in FIELD_DIMS and not (real_errors("omega0", self.omega0)
                                           or real_errors("radius_B", self.radius_B)):
            errors += ball_fit_errors(self.dim, self.omega0, self.radius_B)
        raise_errors(errors)


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
    step: int
    aggressiveness: float
    history: list[HistoryRow] = field(default_factory=list)
    terminated: str | None = None
    # packed masks attempted on this lattice (its start mask included), so
    # that none is solved twice there, whether its solve succeeded or not
    solved: set[bytes] = field(default_factory=set)
    grow_past: bool = False     # eps > eps_threshold: volume past omega0 can pay
    # (mask, tone, omega0) of the incumbent, then what candidate_masks derived
    # from them (see _derive); derived again once any of the three is another
    # object, so once per incumbent
    derived: tuple = (None, None, None)


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

def eps_threshold(config: RunConfig) -> float:
    """Largest eps the theory covers for the configured penalty variant."""
    e1_eff = eps1_effective(config.dim, config.omega0, config.radius_B)
    if config.penalty_variant == PLAIN:
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

def start_errors(shape: str, omega0: float, seed: int) -> list[str]:
    """The rules of the start that ``RunConfig`` and ``initial_mask`` share,
    one message per bad field: a known init_shape, omega0 a positive and
    finite real number, seed an integer >= 0."""
    errors = [] if shape in INIT_SHAPES else [
        f"init_shape: must be one of {INIT_SHAPES}, got {shape!r}"]
    return (errors + real_errors("omega0", omega0)
            + count_errors("seed", seed, ">= 0", lambda k: k >= 0))


def initial_mask(grid: Grid, shape: str, omega0: float, seed: int = 0) -> Mask:
    """Centered starting mask of the requested topology whose volume matches
    omega0 up to one boundary layer of nodes.

    Raises ValueError naming each field that misses ``start_errors`` or
    ``ball_fit_errors``, and naming the shape and omega0 when the shape
    reaches past B (radius_B) or falls between the lattice nodes and the
    mask is empty (nodes_per_side)."""
    raise_errors(start_errors(shape, omega0, seed))
    raise_errors(ball_fit_errors(grid.dim, omega0, grid.radius_B))
    n = grid.dim
    wn = unit_ball_volume(n)
    radius = ball_radius(n, omega0)
    # how far the square, the annulus and the two disks reach from the
    # center; the disk and the blob fit whenever omega0 < |B|
    half = 0.5 * omega0 ** (1.0 / n)
    outer = (omega0 / (wn * (1.0 - 0.5 ** n))) ** (1.0 / n)
    r = ball_radius(n, 0.5 * omega0)
    offset = 1.5 * r
    reach = {"square": half * math.sqrt(n), "annulus": outer, "two_disks": offset + r}
    if reach.get(shape, 0.0) >= grid.radius_B:
        raise ValueError(
            f"init_shape {shape}: the start of volume omega0={omega0} does not fit "
            f"in the reference ball of radius_B={grid.radius_B}; lower omega0 or "
            "raise radius_B"
        )
    axes = np.meshgrid(*[grid.axis_coords()] * n, indexing="ij", sparse=True)
    rho2 = sum(a * a for a in axes)

    if shape == "disk":
        members = rho2 < radius * radius

    elif shape == "square":
        members = reduce(np.maximum, map(np.abs, axes)) < half

    elif shape == "annulus":
        members = (rho2 < outer * outer) & ~(rho2 < (0.5 * outer) * (0.5 * outer))

    elif shape == "two_disks":
        c1 = offset * np.eye(n)[0]
        members = ball_mask(grid, c1, r).inside | ball_mask(grid, -c1, r).inside

    else:
        # random_blob: low-order angular wobble of the volume-matched ball,
        # renormalized to the target volume by a few fixed-point steps
        rng = np.random.default_rng(seed)
        modes = np.arange(2, 6)
        amp = 0.25 * rng.standard_normal(modes.size) / modes
        phase = rng.uniform(0.0, 2.0 * math.pi, modes.size)
        rho = np.sqrt(rho2)
        theta = np.arctan2(axes[1], axes[0])
        wobble = sum(a * np.cos(k * theta + p) for k, a, p in zip(modes, amp, phase))
        base = radius
        for _ in range(4):
            vol = mask_volume(mask_from_array(grid, rho < base * (1.0 + wobble)))
            base *= 1.25 if vol <= 0 else (omega0 / vol) ** (1.0 / n)
        members = rho < base * (1.0 + wobble)

    mask = mask_from_array(grid, members)
    if mask.is_empty:
        raise ValueError(
            f"init_shape {shape}: the start of volume omega0={omega0} covers no "
            f"node of the lattice with nodes_per_side={grid.nodes_per_side}; "
            "raise omega0 or nodes_per_side"
        )
    return mask


# ---------------------------------------------------------------------------
# candidates
# ---------------------------------------------------------------------------

def _lap(values: np.ndarray, h: float) -> np.ndarray:
    """(2n+1)-point Laplacian of a zero-extended node array."""
    out = (-2.0 * values.ndim) * values
    for neighbour in face_neighbours(values):
        out += neighbour
    out /= h * h
    return out


def _ranked(idx: np.ndarray, *scores: np.ndarray) -> np.ndarray:
    """The flat indices idx in descending order of scores (arrays aligned
    with idx, the first the most significant), ties broken by ascending idx;
    negate a score to rank it ascending.

    Every node choice takes a prefix of such a ranking: each component's
    growth and the exchanges (``candidate_masks``), each layer of the peel
    that makes the cut and the fill (``_peel``) and the prolongation
    (``prolong_mask``).
    """
    return idx[np.lexsort((idx, *[-s for s in reversed(scores)]))]


def _budget(grid: Grid, omega0: float) -> int:
    """Nodes the volume budget omega0 admits on the lattice, floor(omega0 / h^n)."""
    return math.floor(omega0 / grid.spacing ** grid.dim)


_NO_NODES = np.empty(0, dtype=np.intp)


def _moved(mask: Mask, add: np.ndarray = _NO_NODES, drop: np.ndarray = _NO_NODES) -> Mask:
    """The mask with the flat indices ``add`` made members and ``drop``
    made non-members."""
    inside = mask.inside.copy()
    inside.ravel()[add] = True
    inside.ravel()[drop] = False
    return mask_from_array(mask.grid, inside)


def _peel(mask: Mask, magnitude: np.ndarray, count: int) -> Mask:
    """The mask without its ``count`` weakest members by ``magnitude`` (|u|
    per flat index); the mask itself when count <= 0.  It peels one boundary
    layer of what is left (members with a non-member face neighbour) at a
    time, weakest first, and the next layer only once the whole of this one
    went."""
    while count > 0:
        layer = np.flatnonzero(boundary_nodes(mask))
        drop = _ranked(layer, -magnitude[layer])[:count]
        mask = _moved(mask, drop=drop)
        count -= drop.size
    return mask


def candidate_masks(state: SearchState, omega0: float) -> list[Mask]:
    """Deterministic candidate list for one descent step.

    Order: the cut (only while the incumbent has more members than the
    lattice's node budget ``_budget``, the one side of it where a shrink
    lowers the penalty), dilate, one growth per connected component, the
    volume-neutral boundary exchanges (a coarse one, only while the node
    budget is below ``COARSE_EXCHANGE_MAX_NODES`` and the fine one moves at
    most two nodes, then the fine one), and last, when the mask
    has a hole, the mask with its holes filled (``fill_holes``).  A
    component's growth is the component grown toward the budget: the whole
    incumbent's budgeted growth when it is connected, and the bare component
    when it alone leaves no budget to grow into.  Below the budget, dropping a
    dead component alone moves the objective only through the penalty, by
    nothing (plain) or an O(eps) sliver (rewarding), while the grown component
    contains the bare one, stays within the budget and buys an O(gamma h) tone
    drop at once; so does the filled move, where a ring start otherwise fills
    its hole by whole-mask dilations far above the budget.  Both shrinks peel
    the weakest members by |u| from the outer boundary inward (``_peel``): the
    cut ceil(0.02 * aggressiveness * (m - 1)) of the m members (those below
    that quantile of |u| when no magnitudes tie), the filled mask those the
    target volume ``omega0`` does not admit, its filled nodes (u = 0 there)
    only after every layer outside them.  The component growths fill toward
    ``omega0``; only whole-mask dilation grows past it, and it is offered only
    when ``state.grow_past``: eps above its threshold, where excess volume can
    pay.  Empty candidates are dropped, and so is the incumbent itself, the
    growth of a connected incumbent with no room left.

    The incumbent's exterior ring is ranked strongest first and its
    boundary weakest first once per incumbent (``_derive``; ``_ranked``:
    ties by ascending flat index).  The score is the squared Laplacian of
    the zero-extended eigenfield, a heuristic stand-in for the boundary
    energy density that drives the shape derivative of the tone (not the
    clamped operator's energy): growth where it is large buys the most tone
    reduction, shrink where it is small costs the least.  A component's growth adds the first
    budget - |component| ring nodes that touch the component (a ring node
    between two components is scored by both fields), and an exchange swaps
    the first k boundary members for the first k ring nodes: with span =
    aggressiveness * min(|ring|, |boundary|), k = max(1, round(0.05 * span))
    for the fine exchange and max(1, round(0.25 * span)) for the coarse one.
    The exchange keeps the volume, which pure growth or shrink cannot; without
    it the search stalls on the first shape that hits the target volume.
    """
    mask = state.mask
    key = (mask, state.tone, omega0)
    if any(a is not b for a, b in zip(state.derived, key)):
        state.derived = (None, None, None)      # the old incumbent's arrays go first
        state.derived = key + _derive(mask, state.tone, omega0)
    ring, boundary, budget, grown, growths, filled = state.derived[3:]
    # The one shrink move of a connected mask without holes, and an overfull
    # start needs one.  It is built only above the budget, as the dilation is
    # only above the eps threshold: at or under the budget a shrink lowers no
    # penalty (plain) or raises it (rewarding), and in the continuum it raises
    # the tone.  Over 42 runs (seeds 0-10 of both benchmark workloads, five
    # starts at 2D N=65, 129, 257 and 3D N=33) the cut is built 26 times,
    # solved 26 times and wins 4 steps.
    cut = None
    if mask.member_count > budget:
        count = math.ceil(0.02 * state.aggressiveness * (mask.member_count - 1))
        cut = _peel(mask, np.abs(state.tone.eigenfield.values).ravel(), count)
    cands = [cut, grown if state.grow_past else None, *growths]
    # The coarse exchange can step past a stall only while the fine one moves
    # at most two nodes, and only on a lattice of few budget nodes (see
    # COARSE_EXCHANGE_MAX_NODES).
    if ring.size and boundary.size:
        span = state.aggressiveness * min(ring.size, boundary.size)
        fine = max(1, round(0.05 * span))
        coarse = fine <= 2 and budget < COARSE_EXCHANGE_MAX_NODES
        sizes = [max(1, round(0.25 * span)), fine] if coarse else [fine]
        for k in sizes:
            cands.append(_moved(mask, add=ring[:k], drop=boundary[:k]))
    cands.append(filled)
    return [m for m in cands if m is not None and not m.is_empty and m != mask]


def _derive(mask: Mask, tone: ToneResult, omega0: float) -> tuple:
    """What ``candidate_masks`` reads of an incumbent whatever the
    aggressiveness: the ranked ring and boundary, the budget, the dilation,
    each component's growth and the filled-and-peeled mask (None without a
    hole)."""
    values = tone.eigenfield.values
    grown = dilate(mask)
    score = _lap(values, mask.grid.spacing).ravel() ** 2
    ring = np.flatnonzero(grown.inside & ~mask.inside)
    ring = _ranked(ring, score[ring])
    boundary = np.flatnonzero(boundary_nodes(mask))
    boundary = _ranked(boundary, -score[boundary])
    budget = _budget(mask.grid, omega0)
    count, labels = connected_components(mask)
    growths = []
    for comp in range(1, count + 1):
        part = mask_from_array(mask.grid, labels == comp)
        touching = ring[dilate(part).inside.ravel()[ring]]
        growths.append(_moved(part, add=touching[:max(budget - part.member_count, 0)]))
    filled = fill_holes(mask)
    if filled is not None:
        filled = _peel(filled, np.abs(values).ravel(), filled.member_count - budget)
    return ring, boundary, budget, grown, growths, filled


# ---------------------------------------------------------------------------
# descent
# ---------------------------------------------------------------------------

def _record(state: SearchState, kind: PenaltyKind, gamma: float, volume: float,
            J: float, accepted: bool) -> HistoryRow:
    state.history.append(HistoryRow(
        step=state.step,
        gamma=gamma,
        volume=volume,
        penalty=penalty_value(kind, volume),
        J=J,
        accepted=accepted,
        nodes_per_side=state.mask.grid.nodes_per_side,
    ))
    return state.history[-1]


def descent_step(state: SearchState, kind: PenaltyKind) -> SearchState:
    """Evaluate the candidates, accept the best strict improvement.

    Acceptance requires J_new <= bar = J_old - DELTA_REL * |J_old|; otherwise
    the aggressiveness is halved.  A candidate whose exact penalty alone lies
    above the bar cannot pass, since its tone is positive (A = K^T K is
    positive definite), so it is not solved and adds no history row (logged
    at DEBUG).  Candidate eigensolves are warm started from the
    incumbent eigenfield; a failed solve is skipped and logged, never fatal.
    Each solve adds its history row at once; the row of the first candidate
    with the lowest J at or under the bar is then flagged accepted.  The
    candidates grow toward ``kind.omega0``, the volume the penalty charges.

    A mask is solved at most once per lattice: its key joins
    ``state.solved`` just before its solve.  Against the same incumbent a
    second solve would repeat exactly; after an acceptance the bar lies
    ``DELTA_REL * |J|`` or more below the mask's J, far beyond the
    ~``RunConfig.tone_tol`` (a constant below ``DELTA_REL``) that another
    warm start moves it.  A mask whose solve fails is not retried on the
    lattice either.  A rejected step that adds no key there had nothing new
    to solve and ends the descent on the lattice; a step that goes on lowers
    J or solves a new mask, so every run ends without a tuned constant.
    """
    state.step += 1
    bar = state.J - DELTA_REL * abs(state.J)
    best, known = None, len(state.solved)
    for idx, cand in enumerate(candidate_masks(state, kind.omega0)):
        key = np.packbits(cand.inside).tobytes()
        if key in state.solved:
            continue
        floor = penalty_value(kind, mask_volume(cand))
        if floor > bar:
            log.debug("step %d: candidate %d ruled out: floor %.17g > bar %.17g",
                      state.step, idx, floor, bar)
            continue
        state.solved.add(key)
        try:
            J, tone, vol = objective(cand.grid, cand, kind, tone_tol=RunConfig.tone_tol,
                                     initial=state.tone.eigenfield)
        except ConvergenceFailure as exc:
            log.warning("step %d: candidate %d skipped: %s", state.step, idx, exc)
            continue
        row = _record(state, kind, tone.gamma, vol, J, accepted=False)
        if J <= bar and (best is None or J < best[0]):
            best = (J, cand, tone, row)

    if best is not None:
        state.J, state.mask, state.tone, row = best
        row.accepted = True
    else:
        state.aggressiveness *= 0.5
        if len(state.solved) == known:
            state.terminated = TERMINATED_CONVERGED
    return state


def descend(config: RunConfig, mask: Mask, prior: SearchState | None = None,
            on_accept=None) -> SearchState:
    """Solve the start ``mask`` on its lattice, then take descent steps on
    that lattice until one is left with nothing to solve or
    ``config.max_steps`` steps have been taken.  The penalty is
    ``penalty_kind(config)``, so ``config`` must have a resolved eps.

    ``prior`` is the finished state of a coarser lattice.  Its history and
    step count carry on, so steps are numbered continuously across lattices
    and ``config.max_steps`` bounds their total; the start row shares the
    step number of the last coarse step.  ``on_accept(state)`` is invoked
    after every accepted step; the start is not a step.
    """
    kind = penalty_kind(config)
    J0, tone0, vol0 = objective(mask.grid, mask, kind, tone_tol=RunConfig.tone_tol)
    state = SearchState(mask=mask, tone=tone0, J=J0, step=0,
                        aggressiveness=1.0,
                        solved={np.packbits(mask.inside).tobytes()},
                        grow_past=kind.eps > eps_threshold(config))
    if prior is not None:
        state.step, state.history = prior.step, prior.history
    _record(state, kind, tone0.gamma, vol0, J0, accepted=True)

    while state.terminated is None and state.step < config.max_steps:
        j_before = state.J
        state = descent_step(state, kind)
        if on_accept is not None and state.J < j_before:
            on_accept(state)
    if state.terminated is None:
        state.terminated = TERMINATED_MAX_STEPS
    return state


def lattice_levels(config: RunConfig) -> tuple[int, ...]:
    """Nodes per side of each lattice a run descends on, coarsest first; the
    last is ``config.nodes_per_side``.

    Each coarser lattice keeps radius_B and has half the resolution, so fine
    node 2i is coarse node i; its node count (N + 1) / 2 is odd only for
    N = 1 (mod 4).  It is used only while it keeps MIN_COARSE_NODES_ACROSS
    nodes across the diameter of the ball of volume omega0.
    """
    levels = (config.nodes_per_side,)
    diameter = 2.0 * ball_radius(config.dim, config.omega0)
    while levels[0] % 4 == 1:
        coarse = (levels[0] + 1) // 2
        if diameter / (2.0 * config.radius_B / (coarse - 1)) < MIN_COARSE_NODES_ACROSS:
            break
        levels = (coarse, *levels)
    return levels


def _prolong(values: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of a node array onto the lattice of half the
    spacing, one axis at a time: each coarse value is repeated twice, then
    each pair of neighbours averaged, so fine node 2i is coarse node i (the
    mean of its value with itself) and fine node 2i + 1 the mean of coarse
    nodes i and i + 1."""
    for _ in range(values.ndim):
        twice = np.repeat(values, 2, axis=0)
        # the interpolated axis moves last: after ndim passes the order is back
        values = np.moveaxis(0.5 * (twice[:-1] + twice[1:]), 0, -1)
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
    top = _ranked(idx, membership[idx], magnitude[idx])[:2 ** grid.dim * mask.member_count]
    return _moved(mask_from_array(grid, np.zeros(grid.shape, dtype=bool)), add=top)


def optimize(config: RunConfig, on_accept=None) -> RunResult:
    """Run the full search: ``descend`` on each lattice, coarsest first (see
    ``lattice_levels``), from ``init_shape`` on the first and from the
    previous optimum, prolonged, on each later one; bundle diagnostics of the
    final lattice.  ``on_accept(state)`` is invoked after every accepted step
    on any lattice (the CLI counts the calls to dump masks).
    """
    config, consts = resolve_eps(config)

    t_start = time.perf_counter()
    levels = lattice_levels(config)
    grid = make_grid(config.dim, levels[0], config.radius_B)
    mask = initial_mask(grid, config.init_shape, config.omega0, config.seed)
    state = descend(config, mask, None, on_accept)
    for _ in levels[1:]:
        state = descend(config, prolong_mask(state.tone.eigenfield), state, on_accept)
    diagnostics = run_diagnostics(state.tone.eigenfield, config.omega0)
    wall = time.perf_counter() - t_start
    volume = mask_volume(state.mask)
    return RunResult(
        config=config,
        constants=consts,
        mask=state.mask,
        tone=state.tone,
        gamma=state.tone.gamma,
        volume=volume,
        penalty=penalty_value(penalty_kind(config), volume),
        J=state.J,
        history=tuple(state.history),
        diagnostics=diagnostics,
        termination=state.terminated,
        steps=state.step,
        wall_time=wall,
        levels=levels,
    )
