"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Every tolerance is pinned here, not tuned at runtime.  The two grid-versus-
analytic tone comparisons (criteria 2 and 7) are implemented exactly at their
stated tolerances, with nothing calibrated around them: the discretization
clamps the plate at the boundary of the mask's lattice cells, so their tone
clauses measure how far the lattice staircase of a disk is from the disk.
"""

import math
import time

import numpy as np

from platetone.biharmonic import fundamental_tone
from platetone.constants import (
    alpha0,
    ball_tone_for_volume,
    eps1,
    gamma_ball_bessel,
    gamma_ball_radial,
    unit_ball_volume,
)
from platetone.diagnostics import (
    Dichotomy,
    density_quotient,
    dichotomy_check,
    estimate_doubling_sigma,
)
from platetone.field_grid import (
    ball_mask,
    boundary_nodes,
    erode,
    make_grid,
    mask_from_array,
)
from platetone.penalty import PenaltyKind, penalty_value
from platetone.search import RunConfig, optimize

OMEGA0 = math.pi / 4.0


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number}: {status}  {detail}")


def test_criterion_1_dual_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(2, 9):
        fd = gamma_ball_radial(n)
        bs = gamma_ball_bessel(n)
        worst = max(worst, abs(fd - bs) / bs)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    report(1, ok, f"worst rel diff {worst:.3e} over n=2..8, {elapsed:.2f}s")
    assert worst <= 1e-6
    assert elapsed < 10.0


def test_criterion_2_grid_vs_oracle_tone():
    t0 = time.perf_counter()
    grid = make_grid(2, 129, 1.0)
    mask = ball_mask(grid, (0.0, 0.0), 1.0)
    tone = fundamental_tone(mask, tol=1e-10)
    oracle = gamma_ball_radial(2)
    rel = abs(tone.gamma - oracle) / oracle
    elapsed = time.perf_counter() - t0
    ok = rel <= 0.02 and elapsed < 60.0
    report(2, ok, f"gamma {tone.gamma:.4f} vs oracle {oracle:.4f}, "
                  f"rel {rel:.4f} (bound 0.02), {elapsed:.1f}s")
    assert elapsed < 60.0
    assert rel <= 0.02


def test_criterion_3_scaling_law():
    errors = []
    for n in (65, 129, 257):
        grid = make_grid(2, n, 1.0)
        g_half = fundamental_tone(ball_mask(grid, (0.0, 0.0), 0.5), tol=1e-9).gamma
        g_full = fundamental_tone(ball_mask(grid, (0.0, 0.0), 1.0), tol=1e-9).gamma
        errors.append(abs(g_half / g_full / 16.0 - 1.0))
    monotone = errors[0] > errors[1] > errors[2]
    ok = monotone and errors[2] <= 0.03
    report(3, ok, f"ratio errors over N=65/129/257: "
                  f"{errors[0]:.4f} > {errors[1]:.4f} > {errors[2]:.4f}, "
                  f"final bound 0.03")
    assert monotone
    assert errors[2] <= 0.03


def _nested_pair(grid, rng):
    """A random mask and a random strict subset of it, both nonempty."""
    n_disks = int(rng.integers(1, 4))
    arr = np.zeros(grid.shape, dtype=bool)
    for _ in range(n_disks):
        center = rng.uniform(-0.4, 0.4, size=2)
        radius = float(rng.uniform(0.2, 0.5))
        arr |= ball_mask(grid, center, radius).inside
    outer = mask_from_array(grid, arr)
    mode = int(rng.integers(0, 3))
    if mode == 0:
        inner = erode(outer)
    elif mode == 1:
        cut = float(rng.uniform(-0.2, 0.2))
        axes = np.meshgrid(*[grid.axis_coords()] * 2, indexing="ij")
        inner = mask_from_array(grid, outer.inside & (axes[0] < cut))
    else:
        center = rng.uniform(-0.2, 0.2, size=2)
        inner = mask_from_array(
            grid, outer.inside & ball_mask(grid, center, float(rng.uniform(0.3, 0.6))).inside)
    if inner.is_empty:
        inner = erode(outer)
    return inner, outer


def test_criterion_4_domain_monotonicity():
    grid = make_grid(2, 49, 1.0)
    violations = 0
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        inner, outer = _nested_pair(grid, rng)
        g_in = fundamental_tone(inner, tol=1e-12).gamma
        g_out = fundamental_tone(outer, tol=1e-12).gamma
        gap = g_in - g_out
        worst = min(worst, gap)
        if gap < -1e-8:
            violations += 1
    ok = violations == 0
    report(4, ok, f"20 nested pairs, violations {violations}, "
                  f"worst gap {worst:.3e} (bound -1e-8)")
    assert violations == 0


def test_criterion_5_penalty_identities():
    om0, eps = 2.0, 0.125
    plain = PenaltyKind("plain", eps, om0)
    rewarding = PenaltyKind("rewarding", eps, om0)
    identities = (
        penalty_value(plain, om0) == 0.0,
        penalty_value(plain, om0 + eps) == 1.0,
        penalty_value(rewarding, om0 - 1.0) == -eps,
    )
    s = np.linspace(0.0, 2.0 * om0, 1000)
    v0 = np.array([penalty_value(plain, x) for x in s])
    v1 = np.array([penalty_value(rewarding, x) for x in s])
    monotone = bool(np.all(np.diff(v0) >= 0.0) and np.all(np.diff(v1) > 0.0))
    ok = all(identities) and monotone
    report(5, ok, f"identities {identities}, monotone sweep {monotone}")
    assert all(identities)
    assert monotone


def test_criterion_6_alpha0():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        om0 = float(10.0 ** rng.uniform(-1.0, 1.0))
        d_n = float(rng.uniform(0.5, 0.99))
        eps = float(rng.uniform(1e-6, 1.0)) * eps1(n, om0)
        _, res = alpha0(n, eps, om0, d_n)
        worst = max(worst, res)
    a0, _ = alpha0(4, 1e-9, 1.0, 0.5)
    limit_err = abs(a0 - 0.5)
    ok = worst <= 1e-10 and limit_err <= 1e-6
    report(6, ok, f"worst residual {worst:.3e} (bound 1e-10), "
                  f"limit error {limit_err:.3e} (bound 1e-6)")
    assert worst <= 1e-10
    assert limit_err <= 1e-6


def test_criterion_7_optimizer_recovers_disk():
    t0 = time.perf_counter()
    config = RunConfig(dim=2, nodes_per_side=129, radius_B=1.5, omega0=OMEGA0,
                       eps=None, penalty_variant="plain", init_shape="square",
                       max_steps=300, seed=0)
    result = optimize(config)
    elapsed = time.perf_counter() - t0
    target = ball_tone_for_volume(OMEGA0, 2)
    gamma_rel = abs(result.gamma - target) / target
    vol_rel = abs(result.volume - OMEGA0) / OMEGA0
    # informational: the same comparison against the lattice disk at the
    # same resolution, the discretization-matched optimum
    grid = make_grid(2, 129, 1.5)
    lattice_disk = fundamental_tone(
        ball_mask(grid, (0.0, 0.0), 0.5), tol=1e-9).gamma
    matched_rel = abs(result.gamma - lattice_disk) / lattice_disk
    dichotomy = dichotomy_check(result.mask, OMEGA0)
    ok = (gamma_rel <= 0.05 and vol_rel <= 0.02
          and dichotomy is Dichotomy.VOLUME_MET
          and elapsed < 900.0)
    report(7, ok,
           f"gamma {result.gamma:.2f} vs analytic ball {target:.2f} "
           f"(rel {gamma_rel:.4f}, bound 0.05; lattice-disk-matched rel "
           f"{matched_rel:.4f}), volume rel {vol_rel:.5f} (bound 0.02), "
           f"dichotomy {dichotomy.value}, {elapsed:.0f}s")
    assert elapsed < 900.0
    assert vol_rel <= 0.02
    assert dichotomy is Dichotomy.VOLUME_MET
    assert gamma_rel <= 0.05


def test_criterion_8_rewarding_volume_window():
    t0 = time.perf_counter()
    config = RunConfig(dim=2, nodes_per_side=129, radius_B=1.5, omega0=OMEGA0,
                       eps=None, penalty_variant="rewarding",
                       init_shape="two_disks", max_steps=300, seed=0)
    result = optimize(config)
    elapsed = time.perf_counter() - t0
    assert result.config.eps <= result.constants.eps0
    h = make_grid(2, 129, 1.5).spacing
    tol_h = 5.0 * h * (OMEGA0 / unit_ball_volume(2)) ** 0.5
    lo = result.constants.alpha0 * OMEGA0 - tol_h
    hi = OMEGA0 + tol_h
    in_window = lo <= result.volume <= hi
    components = result.diagnostics.component_count
    ok = in_window and components == 1 and elapsed < 900.0
    report(8, ok, f"volume {result.volume:.5f} in [{lo:.5f}, {hi:.5f}]: "
                  f"{in_window}, components {components}, "
                  f"{elapsed:.0f}s")
    assert elapsed < 900.0
    assert in_window
    assert components == 1


def test_criterion_9_trace_monotone_and_deterministic():
    config = RunConfig(dim=2, nodes_per_side=65, radius_B=1.5, omega0=OMEGA0,
                       penalty_variant="plain", init_shape="random_blob",
                       max_steps=60, seed=11)
    r1 = optimize(config)
    r2 = optimize(config)
    rows1 = [(r.step, r.gamma, r.volume, r.penalty, r.J, r.accepted) for r in r1.history]
    rows2 = [(r.step, r.gamma, r.volume, r.penalty, r.J, r.accepted) for r in r2.history]
    identical = rows1 == rows2 and r1.mask == r2.mask
    accepted = [r.J for r in r1.history if r.accepted]
    monotone = all(a > b for a, b in zip(accepted, accepted[1:]))
    ok = identical and monotone
    report(9, ok, f"identical reruns {identical}, "
                  f"{len(accepted)} accepted steps strictly decreasing {monotone}")
    assert identical
    assert monotone


def test_criterion_10_free_boundary_diagnostics():
    grid = make_grid(2, 257, 1.0)
    h = grid.spacing
    axes = np.meshgrid(*[grid.axis_coords()] * 2, indexing="ij")
    mask = mask_from_array(grid, axes[0] < 0.0)

    sigma = estimate_doubling_sigma(mask, R0=16.0 * h, r_min=16.0 * h)
    sigma_ok = abs(sigma / 4.0 - 1.0) <= 0.10

    ix = int(np.argwhere(np.isclose(grid.axis_coords(), -h))[0][0])
    iy = grid.nodes_per_side // 2
    assert boundary_nodes(mask)[ix, iy]
    q = density_quotient(mask, (ix, iy), 16.0 * h)
    density_ok = abs(q / 0.5 - 1.0) <= 0.05

    ok = sigma_ok and density_ok
    report(10, ok, f"doubling {sigma:.4f} (target 4 +-10%), "
                   f"density {q:.4f} (target 0.5 +-5%) at R=16h, N=257")
    assert sigma_ok
    assert density_ok
