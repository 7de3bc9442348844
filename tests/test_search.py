import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from platetone import search
from platetone.biharmonic import fundamental_tone
from platetone.constants import unit_ball_volume
from platetone.field_grid import (
    ball_mask,
    connected_components,
    dilate,
    erode,
    make_grid,
    mask_from_array,
    mask_volume,
)
from platetone.search import (
    RunConfig,
    SearchState,
    candidate_masks,
    descent_step,
    initial_mask,
    objective_floor,
    optimize,
    penalty_kind,
    resolve_eps,
    validate_config,
)

OMEGA0 = math.pi / 4.0


def small_config(**overrides):
    base = dict(dim=2, nodes_per_side=49, radius_B=1.5, omega0=OMEGA0,
                penalty_variant="plain", init_shape="disk", max_steps=60,
                tone_tol=1e-8, seed=0)
    base.update(overrides)
    return RunConfig(**base)


def make_state(grid, mask, config):
    kind = penalty_kind(resolve_eps(config)[0])
    tone = fundamental_tone(grid, mask, tol=config.tone_tol)
    vol = mask_volume(mask)
    from platetone.penalty import penalty_value

    return SearchState(mask=mask, tone=tone,
                       J=tone.gamma + penalty_value(kind, vol),
                       volume=vol, step=0, aggressiveness=1.0)


class TestValidateConfig:
    def test_default_config_is_valid(self):
        assert validate_config(RunConfig()) == []

    def test_collects_field_errors(self):
        bad = RunConfig(dim=5, nodes_per_side=10, omega0=-1.0,
                        quantiles=(0.5, 0.2), penalty_variant="foo")
        errors = validate_config(bad)
        joined = "\n".join(errors)
        for token in ("dim", "nodes_per_side", "omega0", "quantiles", "penalty_variant"):
            assert token in joined

    def test_omega0_must_fit_reference_ball(self):
        bad = RunConfig(omega0=100.0)
        assert any("fit" in e for e in validate_config(bad))


class TestResolveEps:
    def test_defaults_to_threshold(self):
        config, consts = resolve_eps(small_config())
        assert config.eps == consts.eps1_effective

    def test_rewarding_uses_smaller_threshold(self):
        config, consts = resolve_eps(small_config(penalty_variant="rewarding"))
        assert config.eps == min(consts.eps0, consts.eps1_effective)

    def test_rejects_eps_above_threshold(self):
        with pytest.raises(ValueError):
            resolve_eps(small_config(eps=1.0))

    def test_override_allows_large_eps(self):
        config, _ = resolve_eps(small_config(eps=1.0, eps_override=True))
        assert config.eps == 1.0


class TestInitialMask:
    def test_disk_radius(self):
        g = make_grid(2, 129, 1.5)
        m = initial_mask(g, "disk", OMEGA0)
        assert mask_volume(m) == pytest.approx(OMEGA0, rel=0.05)
        count, _ = connected_components(m)
        assert count == 1

    def test_square_volume(self):
        g = make_grid(2, 129, 1.5)
        m = initial_mask(g, "square", OMEGA0)
        assert mask_volume(m) == pytest.approx(OMEGA0, rel=0.05)

    def test_annulus_is_connected_with_hole(self):
        g = make_grid(2, 129, 1.5)
        m = initial_mask(g, "annulus", OMEGA0)
        count, _ = connected_components(m)
        assert count == 1
        center = (g.nodes_per_side // 2,) * 2
        assert not m.inside[center]

    def test_two_disks_topology(self):
        g = make_grid(2, 129, 1.5)
        m = initial_mask(g, "two_disks", OMEGA0)
        count, labels = connected_components(m)
        assert count == 2
        sizes = [(labels == k).sum() for k in (1, 2)]
        assert abs(sizes[0] - sizes[1]) <= 0.05 * max(sizes)
        assert mask_volume(m) == pytest.approx(OMEGA0, rel=0.05)

    def test_random_blob_deterministic_and_sized(self):
        g = make_grid(2, 129, 1.5)
        m1 = initial_mask(g, "random_blob", OMEGA0, seed=7)
        m2 = initial_mask(g, "random_blob", OMEGA0, seed=7)
        m3 = initial_mask(g, "random_blob", OMEGA0, seed=8)
        assert m1 == m2
        assert m1 != m3
        assert mask_volume(m1) == pytest.approx(OMEGA0, rel=0.10)

    def test_rejects_oversized_volume(self):
        g = make_grid(2, 65, 1.0)
        with pytest.raises(ValueError):
            initial_mask(g, "disk", 10.0)
        with pytest.raises(ValueError):
            initial_mask(g, "two_disks", 2.5)

    def test_rejects_unknown_shape(self):
        g = make_grid(2, 65, 1.0)
        with pytest.raises(ValueError):
            initial_mask(g, "pentagon", 0.5)


class TestCandidateMasks:
    def test_quantile_zero_aggressiveness_keeps_support(self):
        config = small_config()
        g = make_grid(2, 49, 1.5)
        m = ball_mask(g, (0.0, 0.0), 0.5)
        state = make_state(g, m, config)
        state.aggressiveness = 1e-12
        cands = candidate_masks(state, config, g)
        # with the threshold at the minimum positive magnitude the superlevel
        # set is the support of the eigenfield, i.e. the current mask
        assert any(c == m for c in cands)

    def test_erode_candidate_present(self):
        config = small_config()
        g = make_grid(2, 49, 1.5)
        m = ball_mask(g, (0.0, 0.0), 0.5)
        state = make_state(g, m, config)
        cands = candidate_masks(state, config, g)
        assert any(c == erode(m) for c in cands)

    def test_all_candidates_nonempty(self):
        config = small_config(init_shape="two_disks")
        g = make_grid(2, 49, 1.5)
        m = initial_mask(g, "two_disks", OMEGA0)
        state = make_state(g, m, config)
        for c in candidate_masks(state, config, g):
            assert not c.is_empty

    def test_layout_on_two_disks(self):
        config = small_config(init_shape="two_disks")
        g = make_grid(2, 49, 1.5)
        m = initial_mask(g, "two_disks", OMEGA0)
        state = make_state(g, m, config)
        cands = candidate_masks(state, config, g)
        nq = len(config.quantiles)
        # above the volume target, so the budgeted growth is empty and dropped
        assert mask_volume(m) > OMEGA0
        count, labels = connected_components(m)
        assert count == 2
        assert len(cands) == nq + 3 + 2 + 2 * count
        # superlevel cuts first, one per quantile, each at its own quantile
        mag = np.abs(state.tone.eigenfield.values)
        positive = mag[mag > 0.0]
        for cut, q in zip(cands[:nq], config.quantiles):
            thr = np.quantile(positive, q * state.aggressiveness)
            assert cut == mask_from_array(g, mag >= thr)
        top = cands[config.quantiles.index(max(config.quantiles))]
        assert cands[nq:nq + 3] == [dilate(m), erode(m), dilate(top)]
        # two volume-neutral exchanges
        for swapped in cands[nq + 3:nq + 5]:
            assert swapped != m
            assert swapped.member_count == m.member_count
        # each component, then that component grown by a budgeted ring
        for comp in range(1, count + 1):
            part, regrown = cands[nq + 3 + 2 * comp:nq + 5 + 2 * comp]
            assert part == mask_from_array(g, labels == comp)
            assert not np.any(part.inside & ~regrown.inside)

    def test_component_candidates_for_disconnected_mask(self):
        config = small_config(init_shape="two_disks")
        g = make_grid(2, 49, 1.5)
        m = initial_mask(g, "two_disks", OMEGA0)
        state = make_state(g, m, config)
        cands = candidate_masks(state, config, g)
        comp_counts = [connected_components(c)[0] for c in cands]
        assert 1 in comp_counts


class TestDescentStep:
    def test_rejection_halves_aggressiveness(self):
        # a disk at the target volume with plain penalty is already locally
        # optimal at coarse aggressiveness 1e-2-ish; force rejection by
        # shrinking delta_rel's complement: use a state where no candidate
        # improves by making delta_rel huge
        config = small_config(delta_rel=0.5)
        g = make_grid(2, 49, 1.5)
        m = initial_mask(g, "disk", OMEGA0)
        state = make_state(g, m, config)
        kind = penalty_kind(resolve_eps(config)[0])
        before = state.aggressiveness
        state = descent_step(state, config, g, kind)
        assert state.aggressiveness == 0.5 * before
        assert state.mask == m
        assert all(not row.accepted for row in state.history)

    def test_acceptance_decreases_J(self):
        config = small_config(init_shape="square")
        g = make_grid(2, 49, 1.5)
        m = initial_mask(g, "square", OMEGA0)
        state = make_state(g, m, config)
        kind = penalty_kind(resolve_eps(config)[0])
        j0 = state.J
        state = descent_step(state, config, g, kind)
        assert state.J < j0
        assert any(row.accepted for row in state.history)

    def test_rejected_candidates_not_solved_again(self):
        # a rejected step leaves the incumbent and its warm start as they
        # were, so the next step solves only the candidates new to it
        config = small_config(delta_rel=0.5)
        g = make_grid(2, 49, 1.5)
        m = initial_mask(g, "disk", OMEGA0)
        state = make_state(g, m, config)
        kind = penalty_kind(resolve_eps(config)[0])
        bar = state.J - config.delta_rel * abs(state.J)

        def solvable(cands):
            return [c for c in cands
                    if c != m and objective_floor(state, c, kind) <= bar]

        first = solvable(candidate_masks(state, config, g))
        state = descent_step(state, config, g, kind)
        assert len(state.history) == len(first)
        second = solvable(candidate_masks(state, config, g))
        new = [c for c in second if not any(c == f for f in first)]
        state = descent_step(state, config, g, kind)
        assert 0 < len(new) < len(second)
        assert len(state.history) == len(first) + len(new)

    def test_every_evaluation_recorded(self):
        config = small_config(init_shape="square")
        g = make_grid(2, 49, 1.5)
        m = initial_mask(g, "square", OMEGA0)
        state = make_state(g, m, config)
        kind = penalty_kind(resolve_eps(config)[0])
        bar = state.J - config.delta_rel * abs(state.J)
        cands = candidate_masks(state, config, g)
        distinct = [c for c in cands if c != state.mask
                    and objective_floor(state, c, kind) <= bar]
        state = descent_step(state, config, g, kind)
        assert len(state.history) == len(distinct)

    def test_bounded_out_candidates_not_solved(self, monkeypatch):
        # at the lattice disk both branches of the floor rule candidates out:
        # erode is a subset (floor = the incumbent's tone) and dilate's
        # excess volume alone costs more than J
        config = small_config()
        g = make_grid(2, 49, 1.5)
        m = initial_mask(g, "disk", OMEGA0)
        state = make_state(g, m, config)
        kind = penalty_kind(resolve_eps(config)[0])
        before = replace(state, history=[])
        bar = state.J - config.delta_rel * abs(state.J)
        cands = [c for c in candidate_masks(state, config, g) if c != m]
        out = [c for c in cands if objective_floor(before, c, kind) > bar]
        assert any(c == erode(m) for c in out)
        assert any((c.inside & ~m.inside).any() for c in out)

        solved = []
        real = search.objective_with_tone

        def recording(grid, mask, *args, **kwargs):
            solved.append(mask)
            return real(grid, mask, *args, **kwargs)

        monkeypatch.setattr(search, "objective_with_tone", recording)
        descent_step(state, config, g, kind)
        assert len(solved) == len(cands) - len(out)
        assert all(objective_floor(before, c, kind) <= bar for c in solved)


class TestPickBestTieBreak:
    def test_lowest_index_wins_on_exact_tie(self):
        entries = [(5.0, 2), (4.0, 1), (4.0, 0)]
        best = min(entries, key=lambda e: (e[0], e[1]))
        assert best == (4.0, 0)


class TestOptimize:
    def test_disk_init_is_near_stationary(self):
        # starting at the optimal shape the search must not drift: tone within
        # 1 percent of the initial one, volume within 2 percent of the target.
        # This needs production resolution: at coarse N the lattice disk sits
        # far enough from the discrete optimum that boundary rearrangements
        # still buy several percent.
        config = small_config(nodes_per_side=129, init_shape="disk", max_steps=60)
        res = optimize(config)
        g0 = res.history[0].gamma
        assert abs(res.gamma - g0) <= 0.01 * g0
        assert abs(res.volume - OMEGA0) <= 0.02 * OMEGA0

    def test_square_init_reaches_disk_tone(self):
        config = small_config(init_shape="square", max_steps=80)
        res = optimize(config)
        g = make_grid(2, 49, 1.5)
        disk_tone = fundamental_tone(g, initial_mask(g, "disk", OMEGA0), tol=1e-9).gamma
        assert res.gamma <= disk_tone * 1.05
        assert abs(res.volume - OMEGA0) <= 0.02 * OMEGA0

    def test_two_disks_rewarding_becomes_connected(self):
        config = small_config(init_shape="two_disks", penalty_variant="rewarding",
                              max_steps=80)
        res = optimize(config)
        assert res.diagnostics.connected

    def test_accepted_J_strictly_decreasing(self):
        config = small_config(init_shape="square", max_steps=60)
        res = optimize(config)
        accepted = [row.J for row in res.history if row.accepted]
        assert all(a > b for a, b in zip(accepted, accepted[1:]))

    def test_deterministic_history(self):
        config = small_config(init_shape="random_blob", seed=5, max_steps=25)
        r1 = optimize(config)
        r2 = optimize(config)
        assert len(r1.history) == len(r2.history)
        for a, b in zip(r1.history, r2.history):
            assert (a.step, a.gamma, a.volume, a.penalty, a.J, a.accepted) == \
                   (b.step, b.gamma, b.volume, b.penalty, b.J, b.accepted)
        assert r1.mask == r2.mask

    def test_plain_volume_never_exceeds_budget(self):
        # discrete analogue of the excess-volume exclusion: final volume at
        # most omega0 (1 + 5h/r_eq) for eps at the effective threshold
        config = small_config(init_shape="square", max_steps=60)
        res = optimize(config)
        g = make_grid(2, 49, 1.5)
        r_eq = (OMEGA0 / unit_ball_volume(2)) ** 0.5
        assert res.volume <= OMEGA0 * (1.0 + 5.0 * g.spacing / r_eq)

    def test_rewarding_volume_window(self):
        config = small_config(init_shape="two_disks", penalty_variant="rewarding",
                              max_steps=80)
        res = optimize(config)
        g = make_grid(2, 49, 1.5)
        r_eq = (OMEGA0 / unit_ball_volume(2)) ** 0.5
        tol_h = 5.0 * g.spacing * r_eq
        assert res.constants.alpha0 * OMEGA0 - tol_h <= res.volume <= OMEGA0 + tol_h

    def test_final_tone_above_half_ball_tone(self):
        # every optimized 2D domain must beat half the equal-volume ball tone
        # (the d_n = 1/2 floor); the lattice staircase moves the tone by a
        # few percent but nowhere near a factor of two
        from platetone.constants import ball_tone_for_volume

        for shape, variant in (("square", "plain"), ("two_disks", "rewarding")):
            config = small_config(init_shape=shape, penalty_variant=variant,
                                  max_steps=60)
            res = optimize(config)
            assert res.gamma > 0.5 * ball_tone_for_volume(res.volume, 2)

    @pytest.mark.parametrize("shape", ["annulus", "two_disks"])
    def test_near_degenerate_inits_skip_no_candidate(self, shape, caplog):
        # both inits produce candidates whose two lowest eigenvalues nearly
        # coincide; every one of them must be evaluated
        caplog.set_level(logging.WARNING, logger="platetone.search")
        optimize(small_config(nodes_per_side=33, init_shape=shape))
        assert [r.getMessage() for r in caplog.records
                if "skipped" in r.getMessage()] == []

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            optimize(small_config(omega0=-2.0))

    def test_snapshot_hook_called(self):
        seen = []
        config = small_config(init_shape="square", max_steps=40, snapshot_every=1)
        optimize(config, snapshot_hook=lambda s: seen.append(s.step))
        assert seen
