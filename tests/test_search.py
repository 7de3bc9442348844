import dataclasses
import hashlib
import itertools
import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from platetone import search
from platetone.biharmonic import ConvergenceFailure, fundamental_tone
from platetone.constants import (
    alpha0,
    compute_constants,
    eps0,
    eps1,
    eps1_effective,
    unit_ball_volume,
)
from platetone.diagnostics import (
    default_probe_radius,
    default_vol_tol,
    dichotomy_check,
    run_diagnostics,
)
from platetone.field_grid import (
    ball_mask,
    boundary_nodes,
    connected_components,
    dilate,
    erode,
    fill_holes,
    inside_ball,
    make_field,
    make_grid,
    mask_from_array,
    mask_volume,
)
from platetone.penalty import PenaltyKind, penalty_value
from platetone.search import (
    RunConfig,
    _lap,
    _peel,
    _prolong,
    _ranked,
    SearchState,
    candidate_masks,
    descend,
    descent_step,
    initial_mask,
    lattice_levels,
    optimize,
    penalty_kind,
    prolong_mask,
    resolve_eps,
)

OMEGA0 = math.pi / 4.0


def small_config(**overrides):
    base = dict(dim=2, nodes_per_side=49, radius_B=1.5, omega0=OMEGA0,
                penalty_variant="plain", init_shape="disk", max_steps=60, seed=0)
    base.update(overrides)
    return RunConfig(**base)


def packed(mask):
    return np.packbits(mask.inside).tobytes()


def make_state(mask, config):
    """The state ``descend`` starts from: the mask solved, its key the one
    entry of ``solved``, and ``grow_past`` set when eps lies above the
    threshold."""
    kind = penalty_kind(resolve_eps(config)[0])
    tone = fundamental_tone(mask, tol=config.tone_tol)
    vol = mask_volume(mask)
    return SearchState(mask=mask, tone=tone,
                       J=tone.gamma + penalty_value(kind, vol),
                       step=0, aggressiveness=1.0,
                       solved={packed(mask)},
                       grow_past=kind.eps > search.eps_threshold(config))


def past_the_threshold(config, factor=0.8):
    """The config at eps = factor * eps1 with ``eps_override``, above the
    threshold, where excess volume can pay."""
    eps = factor * eps1(config.dim, config.omega0)
    assert eps > search.eps_threshold(config)
    return replace(config, eps=eps, eps_override=True)


def bounded_out(c, kind, bar):
    """True when the candidate's exact penalty alone lies above the bar."""
    return penalty_value(kind, mask_volume(c)) > bar


def above_the_threshold(config, factor=1.5):
    """The config at eps = factor * eps_threshold with ``eps_override``."""
    return replace(config, eps=factor * search.eps_threshold(config), eps_override=True)


def predicted_solves(state, cands, kind):
    """The candidates a step solves, in list order: each one not solved on
    the lattice yet (nor earlier in the list) whose penalty lies at or below
    the bar."""
    bar = state.J - search.DELTA_REL * abs(state.J)
    seen = set(state.solved)
    out = []
    for c in cands:
        if packed(c) in seen or bounded_out(c, kind, bar):
            continue
        seen.add(packed(c))
        out.append(c)
    return out


class TestValidateConfig:
    """A RunConfig checks its fields when it is built or replaced."""

    def test_default_config_is_valid(self):
        RunConfig()

    def test_collects_field_errors(self):
        with pytest.raises(ValueError) as info:
            RunConfig(dim=5, nodes_per_side=10, omega0=-1.0, penalty_variant="foo")
        fields = [e.split(":")[0] for e in str(info.value).split("; ")]
        assert fields == ["dim", "nodes_per_side", "omega0", "penalty_variant"]

    def test_replace_is_checked(self):
        with pytest.raises(ValueError, match=r"^nodes_per_side: must be odd and >= 9, got 8$"):
            replace(RunConfig(), nodes_per_side=8)

    @pytest.mark.parametrize("dim, n, field", [
        (1, 33, "dim"), (4, 33, "dim"), (2, 7, "nodes_per_side"),
        (2, 8, "nodes_per_side"), (3, 10, "nodes_per_side"), (2, 9, None), (3, 9, None),
        (2.0, 33, "dim"), (2, 33.0, "nodes_per_side"), (True, 33, "dim"),
        (np.int64(2), np.int32(9), None),
    ])
    def test_lattice_rule_matches_make_grid(self, dim, n, field):
        if field is None:
            RunConfig(dim=dim, nodes_per_side=n, omega0=0.1)
            make_grid(dim, n, 1.5)
            return
        with pytest.raises(ValueError) as from_config:
            RunConfig(dim=dim, nodes_per_side=n, omega0=0.1)
        with pytest.raises(ValueError) as from_grid:
            make_grid(dim, n, 1.5)
        assert str(from_config.value) == str(from_grid.value)
        assert str(from_grid.value).startswith(f"{field}: must be")

    # a float node count would fail deep in numpy, and a fractional
    # max_steps would run its ceiling in steps
    @pytest.mark.parametrize("field, value", [
        ("nodes_per_side", "33"), ("max_steps", 2.5), ("max_steps", True),
        ("seed", 1.0), ("seed", False), ("snapshot_every", 10.0),
    ])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError) as info:
            RunConfig(**{field: value})
        assert str(info.value) == f"{field}: must be an integer, got {value!r}"

    def test_two_non_integer_fields_are_two_messages(self):
        with pytest.raises(ValueError) as info:
            RunConfig(nodes_per_side=33.0, max_steps=2.5)
        assert str(info.value) == ("nodes_per_side: must be an integer, got 33.0; "
                                   "max_steps: must be an integer, got 2.5")

    # a string or None reached a bare TypeError that named no field, and a
    # bool counted as a number
    @pytest.mark.parametrize("field, value", [
        ("omega0", "0.5"), ("omega0", True), ("radius_B", "1.5"), ("radius_B", None),
        ("eps", "1e-4"), ("eps", False), ("d_n", None), ("d_n", "0.5"),
    ])
    def test_real_fields_must_be_real_numbers(self, field, value):
        with pytest.raises(ValueError) as info:
            RunConfig(**{field: value})
        assert str(info.value) == f"{field}: must be a real number, got {value!r}"

    def test_two_non_real_fields_are_two_messages(self):
        with pytest.raises(ValueError) as info:
            RunConfig(omega0="0.5", d_n=None)
        assert str(info.value) == ("omega0: must be a real number, got '0.5'; "
                                   "d_n: must be a real number, got None")

    def test_radius_rule_matches_make_grid(self):
        with pytest.raises(ValueError) as from_config:
            RunConfig(radius_B="1.5")
        with pytest.raises(ValueError) as from_grid:
            make_grid(2, 33, "1.5")
        assert str(from_config.value) == str(from_grid.value)

    # each entry point that takes the field raises the one text of its rule;
    # omega0 = -1 read five ways, and "0.5" or None ended in a bare TypeError
    # (the diagnostics: -1 a TypeError, 0 a report, nan and inf a report or
    # "arange: cannot compute length")
    @pytest.mark.parametrize("field, value", [
        *[("omega0", v) for v in ("0.5", True, -1.0, 0.0, math.inf, math.nan)],
        *[("eps", v) for v in ("1e-4", 0.0, math.inf, math.nan)],
        *[("d_n", v) for v in (None, 0.0, 1.0)],
        # the ball fit: omega0 = 100 misses |B| = 7.07, and |B| of radius
        # 1e200 overflows
        ("omega0 fit", 100.0), ("radius_B fit", 1e200),
    ])
    def test_one_fact_one_text(self, field, value):
        grid = make_grid(2, 33, 1.5)
        disk = initial_mask(grid, "disk", OMEGA0)
        disk_field = make_field(disk, np.ones(grid.shape))
        omega0, radius_B = (value, 1.5) if field == "omega0 fit" else (OMEGA0, value)
        fit = [lambda: RunConfig(omega0=omega0, radius_B=radius_B),
               lambda: initial_mask(make_grid(2, 33, radius_B), "disk", omega0),
               lambda: eps1_effective(2, omega0, radius_B),
               lambda: compute_constants(2, omega0, 1e-4, radius_B=radius_B)]
        entry_points = {
            "omega0": [lambda: RunConfig(omega0=value),
                       lambda: initial_mask(grid, "disk", value),
                       lambda: PenaltyKind("plain", 1e-4, value),
                       lambda: compute_constants(2, value, 1e-4),
                       lambda: eps1(2, value),
                       lambda: eps1_effective(2, value, 1.5),
                       lambda: alpha0(2, 1e-4, value),
                       lambda: eps0(2, value),
                       lambda: run_diagnostics(disk_field, value),
                       lambda: dichotomy_check(disk, value),
                       lambda: default_vol_tol(grid, value),
                       lambda: default_probe_radius(grid, value)],
            "eps": [lambda: RunConfig(eps=value),
                    lambda: PenaltyKind("rewarding", value, OMEGA0),
                    lambda: compute_constants(2, OMEGA0, value),
                    lambda: alpha0(2, value, OMEGA0)],
            "d_n": [lambda: RunConfig(d_n=value),
                    lambda: compute_constants(2, OMEGA0, 1e-4, d_n=value),
                    lambda: alpha0(2, 1e-4, OMEGA0, d_n=value),
                    lambda: eps0(2, OMEGA0, d_n=value)],
            "omega0 fit": fit,
            "radius_B fit": fit,
        }
        messages = set()
        for call in entry_points[field]:
            with pytest.raises(ValueError) as info:
                call()
            messages.add(str(info.value))
        assert len(messages) == 1
        assert messages.pop().startswith(f"{field.split()[0]}: ")

    # the string "false" is truthy, so resolve_eps ran at eps 1e-3
    @pytest.mark.parametrize("value", ["false", None])
    def test_eps_override_must_be_a_bool(self, value):
        with pytest.raises(ValueError) as info:
            RunConfig(nodes_per_side=33, eps=1e-3, eps_override=value)
        assert str(info.value) == f"eps_override: must be a bool, got {value!r}"
        assert RunConfig(eps=1e-3, eps_override=np.bool_(True)).eps_override

    def test_integers_and_numpy_reals_construct(self):
        config = RunConfig(nodes_per_side=33, omega0=np.float32(0.5), radius_B=1,
                           eps=np.float64(1e-4), d_n=np.float16(0.5))
        assert config.radius_B == 1
        assert make_grid(2, 33, np.float32(1.5)).radius_B == 1.5

    def test_numpy_integers_construct(self):
        config = RunConfig(dim=np.int64(2), nodes_per_side=np.int64(33), max_steps=np.int32(2),
                           seed=np.int64(3), snapshot_every=np.int16(1))
        assert optimize(config).steps <= 2
        g = make_grid(np.int64(2), np.int64(33), 1.5)
        assert (type(g.dim), type(g.nodes_per_side)) == (int, int)

    def test_omega0_must_fit_reference_ball(self):
        with pytest.raises(ValueError, match="^omega0: target volume does not fit"):
            RunConfig(omega0=100.0)

    @pytest.mark.parametrize("radius_B", [1e154, 1e200])
    def test_reference_ball_volume_must_be_finite(self, radius_B):
        # radius_B ** 2 overflows (1e200) or pi * radius_B ** 2 does (1e154)
        with pytest.raises(ValueError) as info:
            RunConfig(radius_B=radius_B)
        assert str(info.value) == f"radius_B: the reference ball's volume overflows, got {radius_B}"

    @pytest.mark.parametrize("tol", [0.0, -1e-8, search.DELTA_REL, 1e-3, math.inf, math.nan])
    def test_tone_tol_must_lie_below_the_acceptance_margin(self, tol):
        # a mask is solved once per lattice only while the solve tolerance
        # stays well below the acceptance margin DELTA_REL; the tolerance is
        # a class constant, so no config can move it to a value outside
        # (0, DELTA_REL) such as tol
        assert not 0 < tol < search.DELTA_REL
        assert "tone_tol" not in {f.name for f in dataclasses.fields(RunConfig)}
        assert 0 < RunConfig.tone_tol < search.DELTA_REL
        with pytest.raises(TypeError):
            RunConfig(tone_tol=tol)
        with pytest.raises(TypeError):
            replace(RunConfig(), tone_tol=tol)
        # an instance reads the constant, as the benchmark worker does
        assert RunConfig().tone_tol == RunConfig.tone_tol


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

    # member count and sha256 of the packed start at omega0 = pi / 4 and
    # radius_B 1.5, recorded before the shapes became membership tests on
    # one coordinate grid
    @pytest.mark.parametrize("dim, n, shape, seed, count, digest", [
        (2, 33, "disk", 0, 89, "3e1ffb26f2440f687f84d452792d91364632d03a795a287ff569667a5ccf1aec"),
        (2, 33, "square", 0, 81, "b0b651b742be75589fe48df014164c0373d8db0e0b0f52fd102bcc234902471e"),
        (2, 33, "annulus", 0, 92, "f3e246d64ff701bc6157f24bbd11ce4ee0c2fd99c1fc4cd85d2a758c178ef79d"),
        (2, 33, "two_disks", 0, 84,
         "661834f59359a20d2cd0c57ebb5c13ab39396a2523106061929635c11652d88b"),
        (2, 33, "random_blob", 0, 89,
         "ceb4bab5a752617981825bcd5d838dc56e1f63bb743217c47f17b2561f95ce14"),
        (2, 33, "random_blob", 7, 90,
         "536cbad4285f4b5b43562f54a681208c6db44fda458ba127be0d730d32b9d7ac"),
        (3, 17, "disk", 0, 123, "7e6b5eec686c54a8e7da1c4d6de25ed750cded151e254a5acc37a3d4d3831956"),
        (3, 17, "square", 0, 125, "db0d5b07922bed3c1e10f253e2a5ce3519c7cd4116c62d9c6df92f89aca392ca"),
        (3, 17, "annulus", 0, 128, "a8f46b39b3fe1d9ad90e5f262dc1cf36b33a5c965cd8988f09e027c51f92add1"),
        (3, 17, "two_disks", 0, 130,
         "7b75c4bf45418567fac0793d52bba71a92b9a9bea72358806f2988766ed39c00"),
        (3, 17, "random_blob", 0, 119,
         "23f03dbd80e670943d3760b4bb1fb88e114a30d7f9c58aad36db8a75379bc9ad"),
        (3, 17, "random_blob", 7, 112,
         "6a6b91e63488198831c11083d498aa5a2bc8a054d0d43b54bcc147ac561ee482"),
    ])
    def test_start_is_pinned(self, dim, n, shape, seed, count, digest):
        m = initial_mask(make_grid(dim, n, 1.5), shape, OMEGA0, seed)
        assert m.member_count == count
        assert hashlib.sha256(packed(m)).hexdigest() == digest

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
        # each start of omega0 = 2.5 < |B| = pi reaches past B
        for shape in ("square", "annulus", "two_disks"):
            with pytest.raises(ValueError, match=f"^init_shape {shape}: the start of volume "
                                                 r"omega0=2.5 does not fit in the reference "
                                                 r"ball of radius_B=1.0; lower omega0"):
                initial_mask(g, shape, 2.5)

    # a negative omega0 would take a complex root, and random_blob would end
    # in the empty-start message
    @pytest.mark.parametrize("omega0", [-1.0, 0.0, math.inf])
    @pytest.mark.parametrize("shape", search.INIT_SHAPES)
    def test_rejects_omega0_not_positive_and_finite(self, shape, omega0):
        g = make_grid(2, 33, 1.5)
        with pytest.raises(ValueError) as info:
            initial_mask(g, shape, omega0)
        assert str(info.value) == f"omega0: must be positive and finite, got {omega0}"

    @pytest.mark.parametrize("omega0", ["0.5", True, None])
    @pytest.mark.parametrize("shape", search.INIT_SHAPES)
    def test_rejects_omega0_not_a_real_number(self, shape, omega0):
        g = make_grid(2, 33, 1.5)
        with pytest.raises(ValueError) as info:
            initial_mask(g, shape, omega0)
        assert str(info.value) == f"omega0: must be a real number, got {omega0!r}"

    def test_rejects_unknown_shape(self):
        g = make_grid(2, 65, 1.0)
        with pytest.raises(ValueError):
            initial_mask(g, "pentagon", 0.5)

    # these said "unknown init shape ['disk']", or ended in numpy's
    # "expected non-negative integer" or a bare TypeError
    @pytest.mark.parametrize("field, shape, seed", [
        ("init_shape", ["disk"], 0), ("seed", "random_blob", -1), ("seed", "random_blob", "1"),
    ])
    def test_start_rules_match_run_config(self, field, shape, seed):
        with pytest.raises(ValueError) as from_mask:
            initial_mask(make_grid(2, 33, 1.5), shape, 0.5, seed=seed)
        with pytest.raises(ValueError) as from_config:
            RunConfig(init_shape=shape, seed=seed)
        assert str(from_mask.value) == str(from_config.value)
        assert str(from_mask.value).startswith(f"{field}: must be")

    # the shape falls between the lattice nodes; before, the run failed
    # later with "fundamental tone of an empty mask is undefined"
    @pytest.mark.parametrize("dim, n, shape, omega0", [
        (2, 17, "annulus", 0.02), (2, 17, "two_disks", 0.02),
        (2, 129, "annulus", 1e-4), (2, 129, "two_disks", 1e-4),
        (3, 17, "annulus", 0.01),
    ])
    def test_empty_start_names_shape_omega0_and_lattice(self, dim, n, shape, omega0):
        g = make_grid(dim, n, 1.5)
        with pytest.raises(ValueError, match=f"init_shape {shape}: .*omega0={omega0} .*"
                                             f"nodes_per_side={n};"):
            initial_mask(g, shape, omega0)
        with pytest.raises(ValueError, match=f"init_shape {shape}: "):
            optimize(RunConfig(dim=dim, nodes_per_side=n, init_shape=shape, omega0=omega0))


class TestLaplacian:
    @staticmethod
    def explicit(values, h):
        # the (2n+1)-point formula node by node, zero beyond the array; each
        # axis adds its upper then its lower neighbour
        out = np.empty_like(values)
        for idx in np.ndindex(values.shape):
            acc = -2.0 * values.ndim * values[idx]
            for ax in range(values.ndim):
                for step in (1, -1):
                    nbr = list(idx)
                    nbr[ax] += step
                    inside = 0 <= nbr[ax] < values.shape[ax]
                    acc += values[tuple(nbr)] if inside else 0.0
            out[idx] = acc / (h * h)
        return out

    @pytest.mark.parametrize("shape", [(13, 13), (9, 17), (7, 7, 7), (5, 8, 6)])
    def test_equals_the_explicit_formula(self, shape):
        # random values everywhere, box faces included, so every border
        # node reads the zero beyond the lattice
        values = np.random.default_rng(len(shape)).standard_normal(shape)
        assert np.all(values[0] != 0.0) and np.all(values[..., -1] != 0.0)
        assert np.array_equal(_lap(values, 0.37), self.explicit(values, 0.37))


class TestCandidateMasks:
    def test_smallest_cut_drops_the_weakest_boundary_member(self):
        config = small_config()
        g = make_grid(2, 49, 1.5)
        m = ball_mask(g, (0.0, 0.0), 0.5)
        state = make_state(m, config)
        # a target one node under the disk, so the cut is offered
        omega0 = (m.member_count - 0.5) * g.spacing ** 2
        assert search._budget(g, omega0) == m.member_count - 1
        # the cut drops the boundary member with the least |u|, ties by
        # ascending flat index
        mag = np.abs(state.tone.eigenfield.values).ravel()
        boundary = np.flatnonzero(boundary_nodes(m))
        weakest = boundary[np.argmin(mag[boundary])]
        assert mag[weakest] == mag[m.inside.ravel()].min()
        inside = m.inside.copy()
        inside.ravel()[weakest] = False
        # nothing bounds the aggressiveness from below, and however small
        # it gets, the cut still drops that one member
        for aggressiveness in (2.0 ** -9, 2.0 ** -60):
            state.aggressiveness = aggressiveness
            assert 0.02 * aggressiveness * (m.member_count - 1) < 1.0
            assert candidate_masks(state, omega0)[0] == mask_from_array(g, inside)

    @pytest.mark.parametrize("dim, n", [(2, 49), (3, 25)])
    def test_cut_only_above_the_node_budget(self, dim, n):
        # the cut, a strict subset of the incumbent, leads the list exactly
        # when the incumbent has more members than the node budget; at or
        # under the budget no candidate is a strict subset of the incumbent
        config = small_config(dim=dim, nodes_per_side=n)
        g = make_grid(dim, n, 1.5)
        m = ball_mask(g, (0.0,) * dim, 0.5)
        state = make_state(m, config)
        mag = np.abs(state.tone.eigenfield.values).ravel()
        cell = g.spacing ** dim
        for budget in (m.member_count - 1, m.member_count, m.member_count + 1):
            omega0 = (budget + 0.5) * cell
            assert search._budget(g, omega0) == budget
            cands = candidate_masks(state, omega0)
            subsets = [c for c in cands if not np.any(c.inside & ~m.inside)]
            if m.member_count > budget:
                k = math.ceil(0.02 * state.aggressiveness * (m.member_count - 1))
                assert subsets == [cands[0]] == [_peel(m, mag, k)]
            else:
                assert subsets == []

    def test_all_candidates_nonempty(self):
        config = small_config(init_shape="two_disks")
        g = make_grid(2, 49, 1.5)
        m = initial_mask(g, "two_disks", OMEGA0)
        state = make_state(m, config)
        for c in candidate_masks(state, config.omega0):
            assert not c.is_empty

    def test_layout_on_two_disks(self):
        config = small_config(init_shape="two_disks")
        g = make_grid(2, 49, 1.5)
        m = initial_mask(g, "two_disks", OMEGA0)
        state = make_state(m, config)
        cands = candidate_masks(state, config.omega0)
        a = state.aggressiveness
        # above the volume target as a whole, each disk alone below it
        assert mask_volume(m) > OMEGA0
        count, labels = connected_components(m)
        assert count == 2
        assert len(cands) == 1 + count + 1
        # the cut first: the ceil(0.02 a (m - 1)) weakest members peeled
        mag = np.abs(state.tone.eigenfield.values)
        k = math.ceil(0.02 * a * (m.member_count - 1))
        assert k > 1
        assert cands[0] == _peel(m, mag.ravel(), k)
        assert cands[0].member_count == m.member_count - k
        # against the superlevel set {|u| >= t}, t the 0.02 a quantile of
        # the positive magnitudes: np.quantile puts t after the k weakest,
        # so the cut lies inside the set, and the set keeps beyond the cut
        # only members whose |u| ties with the weakest one the cut keeps
        # (here one: the two disks' |u| ties across their mirror planes)
        positive = mag[mag > 0.0]
        assert positive.size == m.member_count
        superlevel = mask_from_array(g, mag >= np.quantile(positive, 0.02 * a))
        assert not np.any(cands[0].inside & ~superlevel.inside)
        assert np.all(mag[superlevel.inside & ~cands[0].inside] == mag[cands[0].inside].min())
        # one growth per component next: each disk alone lies under the
        # budget, so it is offered grown by a budgeted ring, not bare
        for comp in range(1, count + 1):
            part = mask_from_array(g, labels == comp)
            regrown = cands[comp]
            assert regrown != part
            assert not np.any(part.inside & ~regrown.inside)
            assert mask_volume(regrown) <= OMEGA0
        # last, one volume-neutral exchange: the fine one moves more than two
        # nodes here, so the coarse one is not offered
        swapped = cands[1 + count]
        assert swapped != m
        assert swapped.member_count == m.member_count
        assert len(added(swapped, m)) >= 3
        # the default eps is the threshold, where excess volume never pays:
        # no whole-ring dilation.  Above the threshold the same list has it
        # second, the one move that grows past omega0
        assert not state.grow_past
        above = make_state(m, past_the_threshold(config))
        assert above.grow_past
        assert candidate_masks(above, config.omega0) == cands[:1] + [dilate(m)] + cands[1:]

    def test_component_without_budget_is_offered_bare(self):
        # a disk larger than the budget next to a small one: the large
        # component leaves no budget to regrow into, so it is offered bare,
        # and the small one is offered regrown, both right after the cut
        config = small_config()
        g = make_grid(2, 49, 1.5)
        big = ball_mask(g, (-0.5, 0.0), 0.52)
        small = ball_mask(g, (0.8, 0.0), 0.15)
        assert mask_volume(big) > OMEGA0
        m = mask_from_array(g, big.inside | small.inside)
        cands = candidate_masks(make_state(m, config), config.omega0)
        assert connected_components(m)[0] == 2
        assert len(cands) == 1 + 2 + 1
        assert cands[1] == big
        regrown = cands[2]
        assert regrown != small and not np.any(small.inside & ~regrown.inside)
        assert not np.any(regrown.inside & big.inside)

    def test_disks_under_the_budget_grow_one_at_a_time(self):
        # two disjoint disks under the budget together: first (no cut under
        # the budget) each disk is offered grown by the prefix of the
        # incumbent's ring ranking that touches it, up to the budget, and no
        # candidate grows both at once
        config = small_config()
        g = make_grid(2, 49, 1.5)
        left = ball_mask(g, (-0.5, 0.0), 0.3)
        right = ball_mask(g, (0.5, 0.0), 0.3)
        m = mask_from_array(g, left.inside | right.inside)
        assert mask_volume(m) < OMEGA0
        state = make_state(m, config)
        cands = candidate_masks(state, config.omega0)
        score = _lap(state.tone.eigenfield.values, g.spacing).ravel() ** 2
        ring = ranked_by_hand(np.flatnonzero(dilate(m).inside & ~m.inside), score)
        budget = math.floor(OMEGA0 / g.spacing ** 2)
        for part, grown in zip((left, right), cands[:2]):
            touching = [i for i in ring if dilate(part).inside.ravel()[i]]
            assert added(grown, part) == set(touching[:budget - part.member_count])
            assert dropped(grown, part) == set()
        assert not any(not np.any(m.inside & ~c.inside) for c in cands)

    def test_last_candidate_fills_the_hole_within_budget(self):
        config = small_config(init_shape="annulus")
        g = make_grid(2, 49, 1.5)
        m = initial_mask(g, "annulus", OMEGA0)
        state = make_state(m, config)
        cands = candidate_masks(state, config.omega0)
        filled = fill_holes(m)
        last = cands[-1]
        magnitude = np.abs(state.tone.eigenfield.values).ravel()
        # peeled by the members the volume budget omega0 does not admit
        excess = filled.member_count - math.floor(OMEGA0 / g.spacing ** 2)
        assert excess > 0
        assert last == _peel(filled, magnitude, excess)
        assert fill_holes(last) is None
        assert mask_volume(last) <= OMEGA0 < mask_volume(filled)
        # the peel took members of the incumbent only, from its outer
        # boundary inward: the hole stays filled, and every member deeper
        # than the layers the peel needed is kept
        taken = filled.inside & ~last.inside
        assert not np.any(taken & ~m.inside)
        depth, core = 0, filled
        while np.count_nonzero(filled.inside & ~core.inside) < np.count_nonzero(taken):
            depth, core = depth + 1, erode(core)
        assert depth >= 1
        assert not np.any(taken & core.inside)
        # and it took no more of the outer layers than the budget required
        assert np.count_nonzero(taken) == excess

    def test_peel(self):
        g = make_grid(2, 49, 1.5)
        m = ball_mask(g, (0.0, 0.0), 0.5)
        magnitude = np.random.default_rng(5).random(g.node_count)
        # a count of zero or less peels nothing
        assert _peel(m, magnitude, 0) == m
        assert _peel(m, magnitude, -5) == m
        ring = np.flatnonzero(boundary_nodes(m))
        second = np.flatnonzero(boundary_nodes(erode(m)))
        # part of the outer layer: its k least-magnitude members
        k = ring.size // 3
        peeled = _peel(m, magnitude, k)
        gone = np.flatnonzero(m.inside.ravel() & ~peeled.inside.ravel())
        assert set(gone) == set(ring[np.argsort(magnitude[ring])[:k]])
        # more than the outer layer: all of it, then the least of the next
        peeled = _peel(m, magnitude, ring.size + k)
        gone = np.flatnonzero(m.inside.ravel() & ~peeled.inside.ravel())
        assert set(gone) == set(ring) | set(second[np.argsort(magnitude[second])[:k]])
        assert peeled.member_count == m.member_count - ring.size - k

    def test_components_regrow_by_the_incumbents_ring_ranking(self):
        # two 5x3 blocks two lattice steps apart, u = 1 on the left and 10 on
        # the right: a node of the gap column touches both, so its squared
        # Laplacian of the whole field, (1 + 10)^2, beats every other ring
        # node, and each block's three-node regrowth fills the top of the
        # gap.  Scored by its own block's field alone, every ring node of a
        # block ties, and the lowest flat indices, the row above it, would win
        config = small_config()
        g = make_grid(2, 17, 1.5)
        inside = np.zeros(g.shape, dtype=bool)
        inside[6:11, 3:6] = inside[6:11, 7:10] = True
        values = np.where(inside, 1.0, 0.0)
        values[:, 7:] *= 10.0
        m = mask_from_array(g, inside)
        state = make_state(m, config)
        state.tone = replace(state.tone, eigenfield=make_field(m, values))
        assert connected_components(m)[0] == 2 and fill_holes(m) is None
        omega0 = (15 + 3.5) * g.spacing ** 2    # room for three nodes per block
        gap = np.zeros(g.shape, dtype=bool)
        gap[6:9, 6] = True
        for block, regrown in zip((slice(3, 6), slice(7, 10)),
                                  candidate_masks(state, omega0)[1:3]):
            part = np.zeros(g.shape, dtype=bool)
            part[6:11, block] = True
            assert regrown == mask_from_array(g, part | gap)

    def test_component_candidates_for_disconnected_mask(self):
        config = small_config(init_shape="two_disks")
        g = make_grid(2, 49, 1.5)
        m = initial_mask(g, "two_disks", OMEGA0)
        state = make_state(m, config)
        cands = candidate_masks(state, config.omega0)
        comp_counts = [connected_components(c)[0] for c in cands]
        assert 1 in comp_counts


def ranked_by_hand(idx, score):
    """idx by descending score, ties by ascending index, without lexsort."""
    return [int(i) for i in sorted(idx, key=lambda i: (-score[i], i))]


def added(cand, mask):
    return set(np.flatnonzero(cand.inside.ravel() & ~mask.inside.ravel()).tolist())


def dropped(cand, mask):
    return set(np.flatnonzero(mask.inside.ravel() & ~cand.inside.ravel()).tolist())


class TestMoves:
    """The budgeted growth (``cands[0]``) and the exchanges (``cands[1:]``)
    of a connected mask without holes below the budget at the default eps (so
    no cut), checked against rankings computed here node by node."""

    @staticmethod
    def under_budget_disk(aggressiveness=1.0, nodes_per_side=49):
        config = small_config(nodes_per_side=nodes_per_side)
        g = make_grid(2, nodes_per_side, 1.5)
        m = ball_mask(g, (0.0, 0.0), 0.45)
        state = make_state(m, config)
        state.aggressiveness = aggressiveness
        return state, candidate_masks(state, config.omega0)

    @staticmethod
    def rankings(state):
        m, g = state.mask, state.mask.grid
        score = _lap(state.tone.eigenfield.values, g.spacing).ravel() ** 2
        ring = np.flatnonzero(dilate(m).inside & ~m.inside)
        boundary = np.flatnonzero(boundary_nodes(m))
        return ranked_by_hand(ring, score), ranked_by_hand(boundary, -score)

    def test_growth_adds_the_room_strongest_ring_nodes(self):
        state, cands = self.under_budget_disk()
        m, g = state.mask, state.mask.grid
        ring, _ = self.rankings(state)
        room = math.floor(OMEGA0 / g.spacing ** 2) - m.member_count
        assert 0 < room < len(ring)
        assert len(cands) == 3
        assert added(cands[0], m) == set(ring[:room])
        assert dropped(cands[0], m) == set()
        assert mask_volume(cands[0]) <= OMEGA0 < mask_volume(dilate(m))

    @pytest.mark.parametrize("aggressiveness", [1.0, 0.5, 0.01])
    def test_exchanges_swap_the_weakest_boundary_for_the_strongest_ring(self, aggressiveness):
        state, cands = self.under_budget_disk(aggressiveness)
        m = state.mask
        ring, boundary = self.rankings(state)
        for fraction, swapped in zip((0.25, 0.05), cands[1:3]):
            k = max(1, round(fraction * aggressiveness * min(len(ring), len(boundary))))
            assert swapped.member_count == m.member_count
            assert added(swapped, m) == set(ring[:k])
            assert dropped(swapped, m) == set(boundary[:k])

    # the fine exchange moves k = round(0.05 * a * 52) nodes of this N=65
    # disk; the coarse one, round(0.25 * a * 52) nodes, comes first and only
    # while k <= 2
    @pytest.mark.parametrize("aggressiveness, sizes", [
        (1.0, [3]), (0.8, [10, 2]), (0.5, [6, 1]),
    ])
    def test_coarse_exchange_only_while_the_fine_one_moves_two_nodes(
            self, aggressiveness, sizes):
        state, cands = self.under_budget_disk(aggressiveness, nodes_per_side=65)
        m = state.mask
        ring, boundary = self.rankings(state)
        assert min(len(ring), len(boundary)) == 52
        exchanges = cands[1:]
        assert len(exchanges) == len(sizes)
        for k, swapped in zip(sizes, exchanges):
            assert swapped.member_count == m.member_count
            assert added(swapped, m) == set(ring[:k])
            assert dropped(swapped, m) == set(boundary[:k])

    def test_coarse_exchange_only_on_the_first_lattice(self):
        # a two-lattice run's second lattice, N=129, starts from the prolonged
        # N=65 optimum with a node budget above COARSE_EXCHANGE_MAX_NODES: it
        # is offered the fine exchange alone where N=65 also had the coarse one
        state, first = self.under_budget_disk(0.8, nodes_per_side=65)
        ring, boundary = self.rankings(state)
        coarse = first[1]
        assert added(coarse, state.mask) == set(ring[:10])
        assert dropped(coarse, state.mask) == set(boundary[:10])
        config = small_config(nodes_per_side=129)
        assert lattice_levels(config) == (65, 129)
        m = prolong_mask(state.tone.eigenfield)
        assert search._budget(m.grid, OMEGA0) >= search.COARSE_EXCHANGE_MAX_NODES
        fine_state = make_state(m, config)
        ring, boundary = self.rankings(fine_state)
        fine_state.aggressiveness = 30.0 / min(len(ring), len(boundary))
        fine = max(1, round(0.05 * 30.0))
        assert fine <= 2 < max(1, round(0.25 * 30.0))
        exchanges = candidate_masks(fine_state, OMEGA0)[1:]
        assert len(exchanges) == 1
        assert added(exchanges[0], m) == set(ring[:fine])
        assert dropped(exchanges[0], m) == set(boundary[:fine])

    # the coarse exchange is offered only on a lattice whose node budget,
    # floor(omega0 / h^n), is below COARSE_EXCHANGE_MAX_NODES = 800, whether
    # or not the lattice is a run's first: each of these is a one-lattice run
    # (2D N=89 and 3D N=31 are lattices where the move won a step)
    @pytest.mark.parametrize("dim, n, budget, offered", [
        (2, 65, 357, True), (2, 89, 675, True), (2, 99, 838, False),
        (3, 25, 402, True), (3, 31, 785, True), (3, 33, 953, False),
    ])
    def test_coarse_exchange_only_below_the_node_budget(self, dim, n, budget, offered):
        config = small_config(dim=dim, nodes_per_side=n)
        assert lattice_levels(config) == (n,)
        m = ball_mask(make_grid(dim, n, 1.5), (0.0,) * dim, 0.45)
        assert search._budget(m.grid, OMEGA0) == budget
        state = make_state(m, config)
        ring, boundary = self.rankings(state)
        state.aggressiveness = 30.0 / min(len(ring), len(boundary))
        span = state.aggressiveness * min(len(ring), len(boundary))
        fine, k = max(1, round(0.05 * span)), max(1, round(0.25 * span))
        assert fine <= 2 < k
        sizes = [k, fine] if offered else [fine]
        exchanges = candidate_masks(state, OMEGA0)[1:]
        assert len(exchanges) == len(sizes)
        for size, swapped in zip(sizes, exchanges):
            assert swapped.member_count == m.member_count
            assert added(swapped, m) == set(ring[:size])
            assert dropped(swapped, m) == set(boundary[:size])

    def test_no_later_lattice_is_below_the_node_budget(self):
        # a later lattice has 2 * MIN_COARSE_NODES_ACROSS nodes or more across
        # the target ball, so omega_n 16^n budget nodes or more: 804 in 2D,
        # 805 at the threshold of 2D N=65 after N=33 (omega0 = 1.77)
        config = small_config(nodes_per_side=65, omega0=1.77)
        assert lattice_levels(config) == (33, 65)
        assert math.floor(1.77 / make_grid(2, 65, 1.5).spacing ** 2) == 805
        least = math.floor(unit_ball_volume(2) * search.MIN_COARSE_NODES_ACROSS ** 2)
        assert least == 804
        assert search.COARSE_EXCHANGE_MAX_NODES <= least

    def test_growth_and_exchanges_add_prefixes_of_one_ring_order(self):
        state, cands = self.under_budget_disk()
        ring, _ = self.rankings(state)
        sizes = []
        for cand in cands[:3]:
            gained = added(cand, state.mask)
            sizes.append(len(gained))
            assert gained == set(ring[:len(gained)])
        assert sizes[0] > sizes[1] > sizes[2] >= 1

    def test_equal_scores_go_by_ascending_flat_index(self):
        # a square with a constant field: every exterior ring node has one
        # member neighbour and every non-corner boundary member one
        # non-member neighbour, so their scores tie exactly and the moves
        # take the lowest flat indices; the corners score 4x and go last
        config = small_config()
        g = make_grid(2, 49, 1.5)
        ax = np.abs(g.axis_coords())
        m = mask_from_array(g, (ax[:, None] < 0.4) & (ax[None, :] < 0.4))
        state = make_state(m, config)
        state.tone = replace(state.tone, eigenfield=make_field(m, np.ones(g.shape)))
        cands = candidate_masks(state, config.omega0)
        ring = np.flatnonzero(dilate(m).inside & ~m.inside)
        edge = np.flatnonzero(boundary_nodes(m))
        rows, cols = np.unravel_index(edge, g.shape)
        corner = np.isin(rows, [rows.min(), rows.max()]) & np.isin(cols, [cols.min(), cols.max()])
        sides = edge[~corner].tolist()
        assert (ring.size, len(sides), np.count_nonzero(corner)) == (52, 44, 4)
        room = math.floor(OMEGA0 / g.spacing ** 2) - m.member_count
        assert room == 32
        assert added(cands[0], m) == set(ring[:room].tolist())
        for k, swapped in zip((12, 2), cands[1:3]):
            assert added(swapped, m) == set(ring[:k].tolist())
            assert dropped(swapped, m) == set(sides[:k])


class TestRanked:
    def test_descending_scores_ties_by_ascending_index(self):
        idx = np.array([7, 3, 5, 1, 9, 4])
        score = np.array([1.0, 2.0, 1.0, 2.0, 0.0, 1.0])
        assert _ranked(idx, score).tolist() == [1, 3, 4, 5, 7, 9]
        assert _ranked(idx, -score).tolist() == [9, 4, 5, 7, 1, 3]

    def test_later_scores_break_ties_of_earlier_ones(self):
        idx = np.array([7, 3, 5, 1, 9, 4])
        first = np.array([1.0, 1.0, 1.0, 0.0, 1.0, 1.0])
        second = np.array([0.5, 0.5, 2.0, 9.0, 0.5, 0.5])
        assert _ranked(idx, first, second).tolist() == [5, 3, 4, 7, 9, 1]

    def test_equals_a_sort_by_hand_on_random_ties(self):
        rng = np.random.default_rng(11)
        idx = rng.permutation(400)
        score = rng.integers(0, 7, idx.size).astype(float)
        by_node = dict(zip(idx.tolist(), score))
        assert _ranked(idx, score).tolist() == ranked_by_hand(idx, by_node)


class TestDerivedOncePerIncumbent:
    # candidate_masks derives an incumbent's dilation, score, rankings,
    # components, growths and filled mask on its first call for that
    # incumbent, and every later step against it reads them
    @pytest.mark.parametrize("config, move", [
        (RunConfig(nodes_per_side=33, init_shape="annulus"), "fill"),
        (RunConfig(dim=3, nodes_per_side=17, init_shape="two_disks"), "components"),
        (RunConfig(nodes_per_side=33, eps=4e-4, eps_override=True), "dilation"),
    ])
    def test_each_step_builds_the_fresh_list_and_labels_once(self, monkeypatch, config, move):
        real, label = search.candidate_masks, search.connected_components
        labelled, incumbents, steps, moves = [], [], [], set()

        def counting(mask):
            labelled.append(mask)
            return label(mask)

        def checking(state, omega0):
            before = len(labelled)
            cands = real(state, omega0)
            new = not any(tone is state.tone for tone in incumbents)
            assert len(labelled) - before == new
            incumbents.extend([state.tone] * new)
            fresh = SearchState(mask=state.mask, tone=state.tone, J=state.J, step=state.step,
                                aggressiveness=state.aggressiveness, grow_past=state.grow_past)
            assert cands == real(fresh, omega0)
            if fill_holes(state.mask) is not None:
                moves.add("fill")
            if label(state.mask)[0] > 1:
                moves.add("components")
            if state.grow_past and dilate(state.mask) in cands:
                moves.add("dilation")
            steps.append(state.step)
            return cands

        monkeypatch.setattr(search, "connected_components", counting)
        monkeypatch.setattr(search, "candidate_masks", checking)
        optimize(config)
        assert move in moves
        # steps after a rejection read what an earlier step derived
        assert len(incumbents) < len(steps)


class TestDescentStep:
    def test_rejection_halves_aggressiveness(self, monkeypatch):
        # a disk at the target volume with plain penalty is already locally
        # optimal at coarse aggressiveness 1e-2-ish; force rejection by
        # shrinking DELTA_REL's complement: use a state where no candidate
        # improves by making DELTA_REL huge
        monkeypatch.setattr(search, "DELTA_REL", 0.5)
        config = small_config()
        g = make_grid(2, 49, 1.5)
        m = initial_mask(g, "disk", OMEGA0)
        state = make_state(m, config)
        kind = penalty_kind(resolve_eps(config)[0])
        before = state.aggressiveness
        state = descent_step(state, kind)
        assert state.aggressiveness == 0.5 * before
        assert state.mask == m
        assert all(not row.accepted for row in state.history)

    def test_rejected_step_that_tries_no_solve_ends_the_descent(self, monkeypatch):
        # the step offers the incumbent, solved already, and a ball whose
        # excess volume alone costs more than the incumbent's J: nothing is
        # left to solve
        config = small_config()
        g = make_grid(2, 49, 1.5)
        m = initial_mask(g, "disk", OMEGA0)
        state = make_state(m, config)
        kind = penalty_kind(resolve_eps(config)[0])
        big = ball_mask(g, (0.0, 0.0), 0.9)
        assert penalty_value(kind, mask_volume(big)) > state.J

        def no_solve(*args, **kwargs):
            raise AssertionError("a candidate was solved")

        monkeypatch.setattr(search, "candidate_masks", lambda *args: [m, big])
        monkeypatch.setattr(search, "objective", no_solve)
        state = descent_step(state, kind)
        assert state.terminated == search.TERMINATED_CONVERGED
        assert state.aggressiveness == 0.5 and state.history == [] and state.mask == m

    @pytest.mark.parametrize("fail", [False, True], ids=["solved", "failed"])
    def test_rejected_step_that_tries_a_solve_goes_on(self, monkeypatch, fail):
        # one candidate, its penalty below the bar, is tried and rejected; a
        # failed solve counts as tried
        config = small_config()
        g = make_grid(2, 49, 1.5)
        m = initial_mask(g, "disk", OMEGA0)
        state = make_state(m, config)
        kind = penalty_kind(resolve_eps(config)[0])
        shifted = ball_mask(g, (0.6, 0.0), 0.3)
        assert penalty_value(kind, mask_volume(shifted)) == 0.0
        real = search.objective

        def rejected(grid, mask, *args, **kwargs):
            if fail:
                raise ConvergenceFailure("eigensolver did not converge")
            _, tone, vol = real(grid, mask, *args, **kwargs)
            return state.J, tone, vol

        monkeypatch.setattr(search, "candidate_masks", lambda *args: [m, shifted])
        monkeypatch.setattr(search, "objective", rejected)
        state = descent_step(state, kind)
        assert state.terminated is None
        assert state.aggressiveness == 0.5 and state.mask == m
        assert packed(shifted) in state.solved
        assert len(state.history) == (0 if fail else 1)

    @staticmethod
    def scripted_steps(monkeypatch, n, radius, accepts):
        """Steps on the 2D N=n disk of the given radius, each offering one
        mask new to the lattice, solved and accepted or rejected as
        ``accepts`` says; the state's termination after each step."""
        config = small_config(nodes_per_side=n)
        g = make_grid(2, n, 1.5)
        state = make_state(ball_mask(g, (0.0, 0.0), radius), config)
        kind = penalty_kind(resolve_eps(config)[0])
        news = [ball_mask(g, (k * g.spacing, 0.0), 0.3) for k in range(1, len(accepts) + 1)]
        script = iter(accepts)

        def scripted(grid, mask, *args, **kwargs):
            J = state.J - (1.0 if next(script) else 0.0)
            return J, state.tone, mask_volume(mask)

        monkeypatch.setattr(search, "objective", scripted)
        ends = []
        for new in news:
            monkeypatch.setattr(search, "candidate_masks", lambda *args, new=new: [new])
            state = descent_step(state, kind)
            assert packed(new) in state.solved
            ends.append(state.terminated)
        return state, ends

    # a lattice of 800 budget nodes or more (2D N=129: 1,429) offers no coarse
    # exchange, so once the incumbent is within the budget (no cut) the
    # halving changes only the fine exchange's size
    def test_second_rejection_in_a_row_ends_a_large_lattice(self, monkeypatch):
        state, ends = self.scripted_steps(monkeypatch, 129, 0.45, [False, False])
        assert search.COARSE_EXCHANGE_MAX_NODES <= search._budget(state.mask.grid, OMEGA0)
        assert state.mask.member_count <= search._budget(state.mask.grid, OMEGA0)
        assert ends == [None, search.TERMINATED_CONVERGED]
        assert state.aggressiveness == 0.25

    def test_an_accepted_step_resets_the_retry(self, monkeypatch):
        _, ends = self.scripted_steps(monkeypatch, 129, 0.45, [False, True, False, False])
        assert ends == [None, None, None, search.TERMINATED_CONVERGED]

    # 2D N=65 has 357 budget nodes, below COARSE_EXCHANGE_MAX_NODES; a disk of
    # radius 0.6 on N=129 holds more members than the budget, so a cut is built
    @pytest.mark.parametrize("n, radius", [(65, 0.45), (129, 0.6)],
                             ids=["below-800-budget-nodes", "above-the-budget"])
    def test_two_rejections_go_on_where_the_halving_changes_more(self, monkeypatch,
                                                                 n, radius):
        state, ends = self.scripted_steps(monkeypatch, n, radius, [False] * 3)
        budget = search._budget(state.mask.grid, OMEGA0)
        assert (budget < search.COARSE_EXCHANGE_MAX_NODES
                or state.mask.member_count > budget)
        assert ends == [None, None, None]

    def test_acceptance_decreases_J(self):
        config = small_config(init_shape="square")
        g = make_grid(2, 49, 1.5)
        m = initial_mask(g, "square", OMEGA0)
        state = make_state(m, config)
        kind = penalty_kind(resolve_eps(config)[0])
        j0 = state.J
        state = descent_step(state, kind)
        assert state.J < j0
        assert any(row.accepted for row in state.history)

    def test_candidates_grow_toward_the_penalty_target(self, monkeypatch):
        # the step has one omega0, the penalty's: the budgeted growths fill
        # toward the volume the penalty charges against
        config = small_config(init_shape="square")
        g = make_grid(2, 49, 1.5)
        state = make_state(initial_mask(g, "square", OMEGA0), config)
        kind = replace(penalty_kind(resolve_eps(config)[0]), omega0=1.1 * OMEGA0)
        targets = []
        real = search.candidate_masks

        def recording(state, omega0):
            targets.append(omega0)
            return real(state, omega0)

        monkeypatch.setattr(search, "candidate_masks", recording)
        descent_step(state, kind)
        assert targets == [kind.omega0]

    def test_rejected_candidates_not_solved_again(self, monkeypatch):
        # a rejected step leaves the incumbent and its warm start as they
        # were, so the next step solves only candidates new to the lattice;
        # each step solves exactly the candidates that pass the bound against
        # the masks solved before them.  At DELTA_REL = 0.5 the two disks'
        # first step is rejected, and its second, at half the aggressiveness,
        # still has new masks to solve
        monkeypatch.setattr(search, "DELTA_REL", 0.5)
        config = small_config(init_shape="two_disks")
        g = make_grid(2, 49, 1.5)
        m = initial_mask(g, "two_disks", OMEGA0)
        state = make_state(m, config)
        kind = penalty_kind(resolve_eps(config)[0])

        first = predicted_solves(state, candidate_masks(state, config.omega0), kind)
        state = descent_step(state, kind)
        assert state.mask == m
        assert [r.volume for r in state.history] == [mask_volume(c) for c in first]
        cands = candidate_masks(state, config.omega0)
        second = predicted_solves(state, cands, kind)
        state = descent_step(state, kind)
        assert any(c == f for c in cands for f in first)
        assert second and not any(c == f for c in second for f in first)
        assert [r.volume for r in state.history[len(first):]] == \
            [mask_volume(c) for c in second]

    def test_every_evaluation_recorded(self):
        config = small_config(init_shape="square")
        g = make_grid(2, 49, 1.5)
        m = initial_mask(g, "square", OMEGA0)
        state = make_state(m, config)
        kind = penalty_kind(resolve_eps(config)[0])
        bar = state.J - search.DELTA_REL * abs(state.J)
        cands = candidate_masks(state, config.omega0)
        distinct = [c for c in cands if c != state.mask and not bounded_out(c, kind, bar)]
        state = descent_step(state, kind)
        assert len(state.history) == len(distinct)

    def test_bounded_out_candidates_not_solved(self, monkeypatch):
        # at an eps just above the threshold (0.15 eps1 here) the lattice
        # disk, under the budget and so offered no cut, is offered dilate
        # first, and its excess volume alone costs more than the bar; the
        # step solves exactly the candidates whose penalty passes the bar
        # and that no earlier candidate repeats
        config = past_the_threshold(small_config(), factor=0.15)
        g = make_grid(2, 49, 1.5)
        m = initial_mask(g, "disk", OMEGA0)
        state = make_state(m, config)
        kind = penalty_kind(resolve_eps(config)[0])
        bar = state.J - search.DELTA_REL * abs(state.J)
        cands = candidate_masks(state, config.omega0)
        assert m.member_count < search._budget(g, OMEGA0)
        assert state.grow_past and cands[0] == dilate(m)
        out = [c for c in cands if bounded_out(c, kind, bar)]
        assert out == [dilate(m)]
        expected = predicted_solves(state, cands, kind)
        assert 0 < len(expected) <= len(cands) - len(out)

        solved = []
        real = search.objective

        def recording(grid, mask, *args, **kwargs):
            solved.append(mask)
            return real(grid, mask, *args, **kwargs)

        monkeypatch.setattr(search, "objective", recording)
        descent_step(state, kind)
        assert len(solved) == len(expected)
        assert all(a == b for a, b in zip(solved, expected))

    def test_failed_solve_is_skipped(self, monkeypatch, caplog):
        # the winner's solve fails: it is logged and leaves no history row,
        # and the best of the other candidates is accepted instead
        config = small_config(init_shape="square")
        g = make_grid(2, 49, 1.5)
        m = initial_mask(g, "square", OMEGA0)
        kind = penalty_kind(resolve_eps(config)[0])
        clean = descent_step(make_state(m, config), kind)
        winner = clean.mask
        real = search.objective

        def failing(grid, mask, *args, **kwargs):
            if mask == winner:
                raise ConvergenceFailure("eigensolver did not converge")
            return real(grid, mask, *args, **kwargs)

        monkeypatch.setattr(search, "objective", failing)
        caplog.set_level(logging.WARNING, logger="platetone.search")
        state = descent_step(make_state(m, config), kind)
        skipped = [r for r in caplog.records if "skipped" in r.getMessage()]
        assert len(skipped) == 1 and skipped[0].levelno == logging.WARNING
        won = next(row for row in clean.history if row.accepted)
        rest = [row for row in clean.history if row is not won]
        assert [(r.gamma, r.volume, r.J) for r in state.history] == \
            [(r.gamma, r.volume, r.J) for r in rest]
        best = min(rest, key=lambda r: r.J)
        assert state.mask != m and state.mask != winner
        assert state.J == best.J
        assert [r.accepted for r in state.history] == [r is best for r in rest]

    def test_failed_factor_is_skipped(self, monkeypatch, caplog):
        # the winner's operator is not positive definite: its factor fails,
        # the candidate is logged and skipped as a failed solve is, and the
        # best of the other candidates is accepted instead
        from platetone import biharmonic

        config = small_config(init_shape="square")
        g = make_grid(2, 49, 1.5)
        m = initial_mask(g, "square", OMEGA0)
        kind = penalty_kind(resolve_eps(config)[0])
        clean = descent_step(make_state(m, config), kind)
        winner = clean.mask
        real = biharmonic._masked_bilap

        def negated(mask):
            A, flat = real(mask)
            return (-A if mask == winner else A), flat

        monkeypatch.setattr(biharmonic, "_masked_bilap", negated)
        caplog.set_level(logging.WARNING, logger="platetone.search")
        state = descent_step(make_state(m, config), kind)
        skipped = [r.getMessage() for r in caplog.records if "skipped" in r.getMessage()]
        assert len(skipped) == 1 and "banded Cholesky" in skipped[0]
        won = next(row for row in clean.history if row.accepted)
        rest = [row for row in clean.history if row is not won]
        best = min(rest, key=lambda r: r.J)
        assert state.mask != winner and state.J == best.J

    def test_lowest_index_wins_on_exact_tie(self, monkeypatch):
        # two candidates with exactly equal J: the first in list order wins
        config = small_config()
        g = make_grid(2, 49, 1.5)
        m = ball_mask(g, (0.0, 0.0), 0.3)
        state = make_state(m, config)
        kind = penalty_kind(resolve_eps(config)[0])
        h = g.spacing
        cands = [ball_mask(g, (h, 0.0), 0.3), ball_mask(g, (-h, 0.0), 0.3)]
        tie = state.J - 1.0
        real = search.objective

        def tied(grid, mask, *args, **kwargs):
            _, tone, vol = real(grid, mask, *args, **kwargs)
            return tie, tone, vol

        monkeypatch.setattr(search, "candidate_masks", lambda *args: cands)
        monkeypatch.setattr(search, "objective", tied)
        state = descent_step(state, kind)
        assert [row.J for row in state.history] == [tie, tie]
        assert [row.accepted for row in state.history] == [True, False]
        assert state.mask == cands[0] and state.J == tie


    def _two_ball_steps(self, monkeypatch, fail_x):
        # two steps from a small ball, each offering a shifted ball x first
        # and then a larger ball that wins; x stays below omega0, so its
        # penalty is 0 in both steps and only its key in ``solved`` keeps it
        # from a second attempt
        config = small_config()
        g = make_grid(2, 49, 1.5)
        state = make_state(ball_mask(g, (0.0, 0.0), 0.3), config)
        kind = penalty_kind(resolve_eps(config)[0])
        x = ball_mask(g, (g.spacing, 0.0), 0.3)
        rounds = iter([[x, ball_mask(g, (0.0, 0.0), 0.32)],
                       [x, ball_mask(g, (0.0, 0.0), 0.34)]])
        attempts = []
        real = search.objective

        def recording(grid, mask, *args, **kwargs):
            attempts.append(mask)
            if fail_x and mask == x:
                raise ConvergenceFailure("eigensolver did not converge")
            return real(grid, mask, *args, **kwargs)

        monkeypatch.setattr(search, "candidate_masks", lambda *args: next(rounds))
        monkeypatch.setattr(search, "objective", recording)
        for _ in range(2):
            incumbent = state.mask
            assert penalty_value(kind, mask_volume(x)) == 0.0
            state = descent_step(state, kind)
            assert state.mask != incumbent
        return x, attempts

    def test_mask_solved_before_an_acceptance_not_solved_again(self, monkeypatch):
        x, attempts = self._two_ball_steps(monkeypatch, fail_x=False)
        assert len(attempts) == 3
        assert sum(m == x for m in attempts) == 1

    def test_failed_mask_attempted_once_per_lattice(self, monkeypatch):
        # not once per incumbent: the failure is not retried after the
        # acceptance either
        x, attempts = self._two_ball_steps(monkeypatch, fail_x=True)
        assert len(attempts) == 3
        assert sum(m == x for m in attempts) == 1

    def test_incumbent_is_never_solved_again(self, monkeypatch):
        # the incumbent's penalty alone lies below its J (its tone is
        # positive), so the bound does not rule it out: its key in
        # ``solved``, there from its own solve, keeps a step that offers it
        # from solving it again
        g = make_grid(2, 49, 1.5)
        real = search.candidate_masks
        for shape in ("disk", "square", "annulus", "two_disks"):
            for variant in ("plain", "rewarding"):
                config = small_config(init_shape=shape, penalty_variant=variant)
                kind = penalty_kind(resolve_eps(config)[0])
                state = make_state(initial_mask(g, shape, OMEGA0), config)
                for _ in range(2):
                    bar = state.J - search.DELTA_REL * abs(state.J)
                    assert penalty_value(kind, mask_volume(state.mask)) < bar
                    assert packed(state.mask) in state.solved
                    rows = len(state.history)
                    monkeypatch.setattr(search, "candidate_masks",
                                        lambda state, omega0: [state.mask])
                    incumbent = state.mask
                    state = descent_step(state, kind)
                    assert len(state.history) == rows and state.mask == incumbent
                    assert state.terminated == search.TERMINATED_CONVERGED
                    monkeypatch.setattr(search, "candidate_masks", real)
                    state.terminated = None
                    state = descent_step(state, kind)

    def test_only_the_penalty_bounds_a_candidate(self, monkeypatch):
        # neither the incumbent nor a solved mask bounds a candidate: a
        # subset of the incumbent and a subset of a solved mask, both under
        # omega0 (penalty 0), are solved
        config = small_config()
        kind = penalty_kind(resolve_eps(config)[0])
        g = make_grid(2, 49, 1.5)
        state = make_state(ball_mask(g, (0.0, 0.0), 0.3), config)
        big = ball_mask(g, (0.7, 0.0), 0.4)
        beside = ball_mask(g, (0.7, 0.0), 0.2)
        inner = ball_mask(g, (0.0, 0.0), 0.25)
        assert not np.any(inner.inside & ~state.mask.inside)
        state.solved.add(packed(big))
        for c in (beside, inner):
            assert penalty_value(kind, mask_volume(c)) == 0.0
        solved = []
        real = search.objective

        def recording(grid, mask, *args, **kwargs):
            solved.append(mask)
            return real(grid, mask, *args, **kwargs)

        monkeypatch.setattr(search, "candidate_masks", lambda *args: [beside, inner])
        monkeypatch.setattr(search, "objective", recording)
        descent_step(state, kind)
        assert solved == [beside, inner]

    def test_failed_solve_bounds_nothing(self, monkeypatch):
        # a step offers a ball s beside the incumbent and then a ball inside
        # s; both lie under omega0, so both penalties are 0 and the inner
        # ball is solved whether or not the solve of s fails, and s is
        # attempted once either way
        config = small_config()
        kind = penalty_kind(resolve_eps(config)[0])
        g = make_grid(2, 49, 1.5)
        s = ball_mask(g, (0.7, 0.0), 0.28)
        inner = ball_mask(g, (0.7, 0.0), 0.26)
        real = search.objective
        for fail_s in (False, True):
            state = make_state(ball_mask(g, (0.0, 0.0), 0.3), config)
            attempts = []

            def recording(grid, mask, *args, **kwargs):
                attempts.append(mask)
                if fail_s and mask == s:
                    raise ConvergenceFailure("eigensolver did not converge")
                return real(grid, mask, *args, **kwargs)

            monkeypatch.setattr(search, "candidate_masks", lambda *args: [s, inner])
            monkeypatch.setattr(search, "objective", recording)
            state = descent_step(state, kind)
            assert packed(s) in state.solved and packed(inner) in state.solved
            assert len(attempts) == 2 and attempts[0] == s and attempts[1] == inner


class TestOptimize:
    def test_disk_init_is_near_stationary(self):
        # starting at the optimal shape the search must not drift: tone within
        # 1 percent of the lattice disk's, volume within 2 percent of the
        # target.  This needs production resolution: at coarse N the lattice
        # disk sits far enough from the discrete optimum that boundary
        # rearrangements still buy several percent.  At N=129 the run starts
        # from the prolonged N=65 optimum, so the reference is the N=129
        # lattice disk rather than the first history row.
        config = small_config(nodes_per_side=129, init_shape="disk", max_steps=60)
        res = optimize(config)
        g = make_grid(2, 129, 1.5)
        disk_tone = fundamental_tone(initial_mask(g, "disk", OMEGA0), tol=1e-9).gamma
        assert abs(res.gamma - disk_tone) <= 0.01 * disk_tone
        assert abs(res.volume - OMEGA0) <= 0.02 * OMEGA0

    def test_default_disk_on_33_steps_past_its_start(self):
        # the fine exchange moves one or two nodes here, and the run
        # stalls at its start row (J 1935.46) without the coarse one
        res = optimize(RunConfig(nodes_per_side=33))
        assert res.history[0].J == pytest.approx(1935.46, rel=1e-5)
        assert res.J <= 0.97 * res.history[0].J

    def test_square_init_reaches_disk_tone(self):
        config = small_config(init_shape="square", max_steps=80)
        res = optimize(config)
        g = make_grid(2, 49, 1.5)
        disk_tone = fundamental_tone(initial_mask(g, "disk", OMEGA0), tol=1e-9).gamma
        assert res.gamma <= disk_tone * 1.05
        assert abs(res.volume - OMEGA0) <= 0.02 * OMEGA0

    def test_two_disks_rewarding_becomes_connected(self):
        config = small_config(init_shape="two_disks", penalty_variant="rewarding",
                              max_steps=80)
        res = optimize(config)
        assert res.diagnostics.component_count == 1

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

    # Disks on three small lattices: at the default eps each ends within the
    # budget, and at twice the eps / eps1 at which its run was measured to
    # first end above omega0 (0.4, 0.6 and 0.9) it ends above.  Only
    # whole-mask dilation grows past the budget, so the second test shows
    # that the moves offered still do when the penalty pays for it.
    @pytest.mark.parametrize("dim, n", [(2, 33), (2, 65), (3, 17)])
    def test_default_eps_ends_within_budget(self, dim, n):
        res = optimize(RunConfig(dim=dim, nodes_per_side=n))
        assert res.volume <= res.config.omega0

    @pytest.mark.parametrize("dim, n, factor", [(2, 33, 0.8), (2, 65, 1.2), (3, 17, 1.8)])
    def test_eps_past_the_threshold_ends_overfull(self, dim, n, factor):
        config = RunConfig(dim=dim, nodes_per_side=n)
        eps = factor * eps1(dim, config.omega0)
        res = optimize(replace(config, eps=eps, eps_override=True))
        assert res.volume > res.config.omega0

    @classmethod
    def offered(cls, monkeypatch, config):
        """(incumbent, candidates) of every step of ``optimize(config)``."""
        steps = [(state.mask, cands) for state, cands in cls.recorded_states(monkeypatch, config)[1]]
        assert steps
        return steps

    @staticmethod
    def recorded_states(monkeypatch, config):
        """(state, candidates) of every step of ``optimize(config)``, each
        state a copy taken before its step."""
        steps = []
        real = search.candidate_masks

        def recording(state, omega0):
            steps.append((replace(state), real(state, omega0)))
            return steps[-1][1]

        monkeypatch.setattr(search, "candidate_masks", recording)
        return optimize(config), steps

    @staticmethod
    def coarse_exchange(state, cands):
        """(eligible, built) of one step: whether its fine exchange, k =
        max(1, round(0.05 * span)) nodes swapped, moves at most two nodes
        and differs from the coarse one, k = max(1, round(0.25 * span)), and
        whether the coarse one's mask is among ``cands``."""
        ring, boundary = TestMoves.rankings(state)
        span = state.aggressiveness * min(len(ring), len(boundary))
        fine, k = max(1, round(0.05 * span)), max(1, round(0.25 * span))
        inside = state.mask.inside.copy()
        inside.ravel()[ring[:k]] = True
        inside.ravel()[boundary[:k]] = False
        return fine <= 2 and k != fine, mask_from_array(state.mask.grid, inside) in cands

    @classmethod
    def at_the_gate(cls, state):
        """``coarse_exchange`` of the incumbent of ``state`` at an
        aggressiveness where the fine exchange moves at most two nodes and
        the coarse one more, as ``TestMoves`` sets it."""
        ring, boundary = TestMoves.rankings(state)
        state = replace(state, aggressiveness=30.0 / min(len(ring), len(boundary)))
        return cls.coarse_exchange(state, candidate_masks(state, OMEGA0))

    def test_coarse_exchange_is_built_on_the_first_of_two_lattices_only(self, monkeypatch):
        # the default 2D N=129 disk descends on N=65, then on N=129.  N=129's
        # descent ends at its second rejection in a row, before its fine
        # exchange shrinks to two nodes, so each of its incumbents is also
        # asked at an aggressiveness where it does
        res, steps = self.recorded_states(monkeypatch, RunConfig())
        assert res.levels == (65, 129)
        built = {65: 0, 129: 0}
        for state, cands in steps:
            eligible, made = self.coarse_exchange(state, cands)
            built[state.mask.grid.nodes_per_side] += eligible and made
        assert built[65] >= 1 and built[129] == 0
        forced = [self.at_the_gate(state) for state, _ in steps
                  if state.mask.grid.nodes_per_side == 129]
        assert forced and all(eligible and not made for eligible, made in forced)

    def test_coarse_exchange_is_never_built_on_3d_33(self, monkeypatch):
        # the 3D N=33 square start descends on one lattice of 953 budget
        # nodes, above COARSE_EXCHANGE_MAX_NODES: over seeds 0-22 of
        # square-3d-33 the coarse exchange was solved 75 times and won 1 step.
        # The descent ends before the fine exchange shrinks to two nodes, so
        # each incumbent is also asked at an aggressiveness where it does
        res, steps = self.recorded_states(
            monkeypatch, RunConfig(dim=3, nodes_per_side=33, init_shape="square"))
        assert res.levels == (33,)
        assert not any(eligible and made for eligible, made in
                       (self.coarse_exchange(state, cands) for state, cands in steps))
        forced = [self.at_the_gate(state) for state, _ in steps]
        assert forced and all(eligible and not made for eligible, made in forced)

    def test_default_3d_random_blob_ends_within_the_budget(self):
        # its start holds more members than the budget: the retry does not
        # end the descent while the cut still shrinks it
        res = optimize(RunConfig(dim=3, nodes_per_side=33, init_shape="random_blob"))
        assert res.history[0].volume > res.config.omega0
        assert res.volume <= res.config.omega0

    def test_3d_33_square_is_rejected_twice_in_a_row_only_at_its_end(self):
        res = optimize(RunConfig(dim=3, nodes_per_side=33, init_shape="square"))
        accepted = {row.step for row in res.history if row.accepted}
        rejected = [step not in accepted for step in range(1, res.steps + 1)]
        assert res.termination == search.TERMINATED_CONVERGED
        assert rejected[-2:] == [True, True]
        assert not any(a and b for a, b in zip(rejected[:-2], rejected[1:-1]))

    @pytest.mark.parametrize("shape", ["disk", "square", "annulus", "two_disks"])
    def test_default_eps_offers_no_growth_past_the_budget(self, monkeypatch, shape):
        # at the default eps, the threshold, excess volume never pays: no
        # step offers a candidate larger than both omega0 and its incumbent
        for incumbent, cands in self.offered(monkeypatch, small_config(init_shape=shape)):
            bound = max(OMEGA0, mask_volume(incumbent))
            assert all(mask_volume(c) <= bound for c in cands)

    @pytest.mark.parametrize("shape", ["disk", "two_disks"])
    def test_eps_past_the_threshold_offers_the_dilation(self, monkeypatch, shape):
        # above the threshold every step offers the whole-ring dilation, of
        # a disconnected incumbent too
        config = past_the_threshold(small_config(init_shape=shape))
        for incumbent, cands in self.offered(monkeypatch, config):
            assert dilate(incumbent) in cands

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

    def test_mask_solved_at_most_once_per_lattice(self, monkeypatch):
        # two_disks at N=49 offers masks after an acceptance that an earlier
        # step already solved; each (lattice, mask) is solved once, and every
        # solve lands in the history
        keys = []
        real = search.objective

        def recording(grid, mask, *args, **kwargs):
            keys.append((grid.nodes_per_side, mask.inside.tobytes()))
            return real(grid, mask, *args, **kwargs)

        monkeypatch.setattr(search, "objective", recording)
        res = optimize(small_config(init_shape="two_disks"))
        assert len(set(keys)) == len(keys) == len(res.history)

    def test_floor_only_saves_solves(self, monkeypatch):
        # above the threshold (1.5 eps_threshold here) the dilation is
        # offered and the penalty alone rules candidates out; with that
        # bound switched off (search's penalty_value reads -inf, which only
        # the bound and the rows' penalty column read) every candidate new
        # to the lattice is solved: the runs write more rows, but accept the
        # same ones and end on the same J: the bound ruled out nothing that
        # could have passed
        def run(shape, variant):
            res = optimize(above_the_threshold(small_config(init_shape=shape,
                                                            penalty_variant=variant)))
            accepted = [(r.step, r.J, r.volume, r.nodes_per_side)
                        for r in res.history if r.accepted]
            return accepted, res.J, len(res.history)

        cases = [(shape, variant) for shape in ("square", "annulus", "two_disks")
                 for variant in ("plain", "rewarding")]
        floored = [run(*case) for case in cases]
        monkeypatch.setattr(search, "penalty_value", lambda *args: -math.inf)
        for (accepted, J, rows), case in zip(floored, cases):
            accepted_all, J_all, rows_all = run(*case)
            assert accepted_all == accepted, case
            assert J_all == J, case
            assert rows_all > rows, case

    def test_snapshot_hook_called(self):
        seen = []
        config = small_config(init_shape="square", max_steps=40)
        optimize(config, on_accept=lambda s: seen.append(s.step))
        assert seen


class TestCutAndBound:
    """Over runs whose incumbents go over the node budget and back: the cut
    is offered exactly while the incumbent has more members than the budget,
    and the exact penalty alone bounds each candidate."""

    # 2D N=33 at eps = 4e-4 (the overfull CI run), 2D N=49 and 3D N=17
    # square starts at 1.5 eps_threshold; each run has steps on both sides
    # of the budget, and the last two rule candidates out by their penalty
    RUNS = {
        "2d33-4e-4": dict(nodes_per_side=33, eps=4e-4, eps_override=True),
        "2d49-square": dict(nodes_per_side=49, init_shape="square"),
        "3d17-square": dict(dim=3, nodes_per_side=17, init_shape="square"),
    }

    @classmethod
    def steps(cls, monkeypatch, run, variant):
        """The result of the run and, per step, (state before it, its
        candidates, the masks it solved)."""
        config = RunConfig(**cls.RUNS[run], penalty_variant=variant)
        if config.eps is None:
            config = above_the_threshold(config)
        steps = []
        real_cands, real_objective = search.candidate_masks, search.objective

        def recording(state, omega0):
            cands = real_cands(state, omega0)
            steps.append((replace(state, solved=set(state.solved)), cands, []))
            return cands

        def solving(grid, mask, *args, **kwargs):
            if steps:
                steps[-1][2].append(mask)
            return real_objective(grid, mask, *args, **kwargs)

        monkeypatch.setattr(search, "candidate_masks", recording)
        monkeypatch.setattr(search, "objective", solving)
        res = optimize(config)
        assert res.levels == (config.nodes_per_side,)
        return res, steps

    @pytest.mark.parametrize("variant", ["plain", "rewarding"])
    @pytest.mark.parametrize("run", list(RUNS))
    def test_cut_offered_exactly_above_the_node_budget(self, monkeypatch, run, variant):
        res, steps = self.steps(monkeypatch, run, variant)
        over = []
        for state, cands, _ in steps:
            m = state.mask
            k = math.ceil(0.02 * state.aggressiveness * (m.member_count - 1))
            cut = _peel(m, np.abs(state.tone.eigenfield.values).ravel(), k)
            over.append(m.member_count > search._budget(m.grid, res.config.omega0))
            assert (cut in cands) == over[-1]
            assert (cands[0] == cut) == over[-1]
        assert any(over) and not all(over)

    @pytest.mark.parametrize("variant", ["plain", "rewarding"])
    @pytest.mark.parametrize("run", ["2d49-square", "3d17-square"])
    def test_no_candidate_whose_penalty_exceeds_the_bar_is_solved(self, monkeypatch,
                                                                   run, variant):
        res, steps = self.steps(monkeypatch, run, variant)
        kind = penalty_kind(res.config)
        out = 0
        for state, cands, solved in steps:
            bar = state.J - search.DELTA_REL * abs(state.J)
            assert not any(bounded_out(c, kind, bar) for c in solved)
            assert solved == predicted_solves(state, cands, kind)
            out += sum(bounded_out(c, kind, bar) for c in cands)
        assert out > 0
        # the bound holds on every solved row: J is at least its penalty
        assert all(row.J >= row.penalty for row in res.history)


class TestContinuation:
    # each run's lattices, coarsest first; an id names the lattice a run
    # descends on before its own (None: it starts on its own)
    @pytest.mark.parametrize("dim, n, levels", [
        (2, 129, (65, 129)),        # 21.3 nodes across the target ball at N=65
        (2, 257, (65, 129, 257)),   # 42.7 across at N=129, 21.3 at N=65
        (2, 65, (65,)),             # 10.7 across at N=33
        (3, 33, (33,)),             # 6.1 across at N=17
        (3, 65, (65,)),             # 12.2 across at N=33
        (2, 131, (131,)),           # N = 3 (mod 4): (N + 1) / 2 is even
    ], ids=["2-129-65", "2-257-129", "2-65-None", "3-33-None", "3-65-None", "2-131-None"])
    def test_selection(self, dim, n, levels):
        assert lattice_levels(small_config(dim=dim, nodes_per_side=n)) == levels

    def test_selection_recurses_down_to_the_threshold(self):
        # each lattice of a run descends on exactly the lattices below it in
        # the run's own table; N=65 stops, as N=33 has 10.7 nodes across
        levels = lattice_levels(small_config(nodes_per_side=257))
        assert levels == (65, 129, 257)
        for k, n in enumerate(levels):
            assert lattice_levels(small_config(nodes_per_side=n)) == levels[:k + 1]

    # the coarse lattice is used at MIN_COARSE_NODES_ACROSS = 16 nodes across
    # the target ball and above: on N=33 (h = 0.09375) that is omega0 =
    # pi 0.75^2 = 1.7671
    @pytest.mark.parametrize("omega0, levels", [(1.77, (33, 65)), (1.76, (65,))])
    def test_selection_at_the_threshold(self, omega0, levels):
        assert search.MIN_COARSE_NODES_ACROSS == 16
        assert lattice_levels(small_config(nodes_per_side=65, omega0=omega0)) == levels

    @pytest.mark.parametrize("shape", [(5,), (4, 6), (3, 5, 4)])
    def test_prolong_is_node_by_node_multilinear(self, shape):
        # fine node k along an axis sits at k / 2 in coarse units: the mean
        # of the coarse nodes floor(k / 2) and ceil(k / 2); the fine value is
        # the mean over every corner of that box
        coarse = np.random.default_rng(5).standard_normal(shape)
        fine = _prolong(coarse)
        assert fine.shape == tuple(2 * m - 1 for m in shape)
        for node in itertools.product(*(range(m) for m in fine.shape)):
            corners = itertools.product(*({k // 2, (k + 1) // 2} for k in node))
            values = [coarse[c] for c in corners]
            assert fine[node] == pytest.approx(sum(values) / len(values), rel=1e-14, abs=1e-14)
        # coarse node i is fine node 2i exactly
        assert np.array_equal(fine[(slice(None, None, 2),) * len(shape)], coarse)

    @pytest.mark.parametrize("dim, n", [(2, 33), (3, 17)])
    def test_prolongation_keeps_exact_volume_inside_B(self, dim, n):
        # an off-centre ball clipped by the wall of B: interpolated membership
        # reaches fine nodes outside B, which must not be kept
        coarse = make_grid(dim, n, 1.5)
        center = (1.2,) + (0.0,) * (dim - 1)
        mask = ball_mask(coarse, center, 0.6)
        rng = np.random.default_rng(3)
        field = make_field(mask, rng.standard_normal(coarse.shape))
        fine = make_grid(dim, 2 * n - 1, 1.5)
        out = prolong_mask(field)
        assert out.grid == fine
        assert out.member_count == 2 ** dim * mask.member_count
        assert mask_volume(out) == pytest.approx(mask_volume(mask), rel=1e-12)
        assert not np.any(out.inside & ~inside_ball(fine))
        even = (slice(None, None, 2),) * dim
        assert np.all(out.inside[even][mask.inside])
        assert out == prolong_mask(field)

    def test_prolongation_ranks_ties_by_field_magnitude(self):
        # two coarse members keep 8 fine nodes: the 3 that interpolate to 1,
        # then 5 of the 8 that interpolate to 1/2, picked by the
        # interpolated |u| (1.0 next to the member with |u| = 2, 0.75
        # between the two, 0.5 next to the other)
        coarse = make_grid(2, 17, 1.5)
        inside = np.zeros(coarse.shape, dtype=bool)
        inside[8, 8] = inside[8, 9] = True
        mask = mask_from_array(coarse, inside)
        values = np.zeros(coarse.shape)
        values[8, 8], values[8, 9] = 1.0, 2.0
        out = prolong_mask(make_field(mask, values))
        kept = {tuple(int(k) for k in i) for i in np.argwhere(out.inside)}
        assert kept == {(16, 16), (16, 17), (16, 18),
                        (16, 19), (15, 18), (17, 18), (15, 17), (17, 17)}

    def test_prolongation_breaks_remaining_ties_by_flat_index(self):
        # one coarse member keeps 4 fine nodes: the one that interpolates to
        # 1, then 3 of its 4 face neighbours, which tie on membership (1/2)
        # and on |u| (1/2): the three of lowest flat index
        coarse = make_grid(2, 17, 1.5)
        inside = np.zeros(coarse.shape, dtype=bool)
        inside[8, 8] = True
        out = prolong_mask(make_field(mask_from_array(coarse, inside), np.ones(coarse.shape)))
        kept = {tuple(int(k) for k in i) for i in np.argwhere(out.inside)}
        assert kept == {(16, 16), (15, 16), (16, 15), (16, 17)}

    def test_prolongation_builds_the_half_spacing_lattice(self):
        for dim, n, radius_B in [(2, 17, 1.5), (3, 9, 1.2)]:
            coarse = make_grid(dim, n, radius_B)
            mask = ball_mask(coarse, (0.0,) * dim, 0.5)
            out = prolong_mask(make_field(mask, np.ones(coarse.shape)))
            assert out.grid == make_grid(dim, 2 * n - 1, radius_B)
            assert out.grid.spacing == pytest.approx(coarse.spacing / 2.0, rel=1e-15)

    def test_descend_from_the_initial_mask_is_a_single_level_run(self):
        config = small_config(init_shape="square", max_steps=30)
        g = make_grid(2, 49, 1.5)
        resolved, _ = resolve_eps(config)
        state = descend(resolved, initial_mask(g, "square", OMEGA0))
        res = optimize(config)
        assert state.history == list(res.history)
        assert state.mask == res.mask and res.levels == (49,)

    def test_descend_reads_its_penalty_from_a_resolved_config(self):
        g = make_grid(2, 49, 1.5)
        with pytest.raises(ValueError, match="^eps is unresolved; call resolve_eps first$"):
            descend(small_config(), initial_mask(g, "square", OMEGA0))


@pytest.fixture(scope="module")
def two_level_run():
    return optimize(small_config(nodes_per_side=129, init_shape="square", max_steps=300))


class TestMultiLevelHistory:
    def test_rows_from_both_lattices(self, two_level_run):
        res = two_level_run
        assert res.levels == (65, 129)
        sizes = [row.nodes_per_side for row in res.history]
        assert sizes == sorted(sizes) and set(sizes) == {65, 129}
        assert res.mask.grid.nodes_per_side == 129

    def test_steps_numbered_continuously(self, two_level_run):
        rows = two_level_run.history
        steps = [row.step for row in rows]
        assert steps[0] == 0 and steps == sorted(steps)
        start = next(i for i, row in enumerate(rows) if row.nodes_per_side == 129)
        # the coarse level is the N=65 run itself; the fine start row carries
        # its step count, and the next fine step follows it
        coarse = optimize(small_config(nodes_per_side=65, init_shape="square",
                                       max_steps=300))
        assert list(rows[:start]) == list(coarse.history)
        assert rows[start].accepted and rows[start].step == coarse.steps
        assert steps[start + 1] == coarse.steps + 1
        assert steps[-1] <= two_level_run.steps <= 300

    def test_accepted_J_strictly_decreasing_per_lattice(self, two_level_run):
        for n in (65, 129):
            accepted = [row.J for row in two_level_run.history
                        if row.accepted and row.nodes_per_side == n]
            assert len(accepted) > 1
            assert all(a > b for a, b in zip(accepted, accepted[1:]))

    def test_on_accept_called_once_per_accepted_step(self, two_level_run):
        # in step order across both lattices; a lattice's start row (its
        # first row) is not a step
        calls = []
        res = optimize(small_config(nodes_per_side=129, init_shape="square", max_steps=300),
                       on_accept=lambda s: calls.append((s.step, s.mask.grid.nodes_per_side, s.J)))
        rows = res.history
        expected = [(row.step, row.nodes_per_side, row.J)
                    for prev, row in zip(rows, rows[1:])
                    if row.accepted and row.nodes_per_side == prev.nodes_per_side]
        assert rows == two_level_run.history
        assert calls == expected
        assert {n for _, n, _ in calls} == {65, 129}

    def test_each_lattice_ends_at_its_only_step_that_tries_nothing(self, monkeypatch,
                                                                   two_level_run):
        # every step tries a solve (a key joins ``solved``) but the last one
        # on each lattice, which ends that lattice's descent.  N=129 (1,429
        # budget nodes, at or above COARSE_EXCHANGE_MAX_NODES) may end instead
        # at its second rejected step in a row, which tried a solve
        tries = []
        real = search.descent_step

        def recording(state, kind):
            known, rejected = len(state.solved), state.rejected
            state = real(state, kind)
            tries.append((state.mask.grid.nodes_per_side, len(state.solved) > known,
                          rejected and state.rejected))
            return state

        monkeypatch.setattr(search, "descent_step", recording)
        res = optimize(small_config(nodes_per_side=129, init_shape="square", max_steps=300))
        assert res.history == two_level_run.history
        assert res.termination == search.TERMINATED_CONVERGED and res.steps < 300
        for n in (65, 129):
            on_lattice = [tried for size, tried, _ in tries if size == n]
            assert len(on_lattice) > 1 and all(on_lattice[:-1])
            retried = [twice for size, _, twice in tries if size == n]
            if n == 65:
                assert on_lattice[-1] is False
            else:
                assert on_lattice[-1] is False or retried[-1]
                assert not any(retried[:-1])

    def test_max_steps_bounds_the_total(self, two_level_run):
        coarse_steps = next(row.step for row in two_level_run.history
                            if row.nodes_per_side == 129)
        for budget in (coarse_steps - 3, coarse_steps + 2):
            res = optimize(small_config(nodes_per_side=129, init_shape="square",
                                        max_steps=budget))
            assert res.steps == budget
            assert res.termination == search.TERMINATED_MAX_STEPS
            assert max(row.step for row in res.history) <= budget
            # a coarse level that spends the budget still hands its optimum
            # to the fine lattice, which only solves its start
            assert res.levels == (65, 129)
            assert res.mask.grid.nodes_per_side == 129
