import math

import numpy as np
import pytest

from platetone.biharmonic import fundamental_tone
from platetone.field_grid import ball_mask, make_grid
from platetone.penalty import PenaltyKind, objective, penalty_value


OMEGA0 = 2.0
EPS = 0.125


@pytest.fixture
def plain():
    return PenaltyKind("plain", EPS, OMEGA0)


@pytest.fixture
def rewarding():
    return PenaltyKind("rewarding", EPS, OMEGA0)


class TestPenaltyValue:
    def test_plain_zero_at_target(self, plain):
        assert penalty_value(plain, OMEGA0) == 0.0

    def test_plain_unit_slope_point(self, plain):
        assert penalty_value(plain, OMEGA0 + EPS) == 1.0

    def test_rewarding_reward_below(self, rewarding):
        assert penalty_value(rewarding, OMEGA0 - 1.0) == -EPS

    def test_both_vanish_and_join_at_target(self, plain, rewarding):
        assert penalty_value(plain, OMEGA0) == penalty_value(rewarding, OMEGA0) == 0.0
        # continuity from both sides
        for kind in (plain, rewarding):
            below = penalty_value(kind, OMEGA0 - 1e-12)
            above = penalty_value(kind, OMEGA0 + 1e-12)
            assert abs(below) < 1e-10 and abs(above) < 1e-10

    def test_plain_nondecreasing_and_flat_below(self, plain):
        s = np.linspace(0.0, 2.0 * OMEGA0, 1000)
        v = np.array([penalty_value(plain, x) for x in s])
        assert np.all(np.diff(v) >= 0.0)
        assert np.all(v[s <= OMEGA0] == 0.0)

    def test_rewarding_strictly_increasing_with_expected_slopes(self, rewarding):
        s = np.linspace(0.0, 2.0 * OMEGA0, 1000)
        v = np.array([penalty_value(rewarding, x) for x in s])
        assert np.all(np.diff(v) > 0.0)
        ds = s[1] - s[0]
        below = np.diff(v)[s[:-1] + ds < OMEGA0] / ds
        above = np.diff(v)[s[:-1] > OMEGA0] / ds
        assert np.allclose(below, EPS, rtol=1e-9)
        assert np.allclose(above, 1.0 / EPS, rtol=1e-9)

    def test_rewarding_below_plain_equal_iff_above_target(self, plain, rewarding):
        s = np.linspace(0.0, 2.0 * OMEGA0, 1000)
        for x in s:
            v0 = penalty_value(plain, x)
            v1 = penalty_value(rewarding, x)
            assert v1 <= v0
            if x >= OMEGA0:
                assert v1 == v0
            else:
                assert v1 < v0

    def test_rejects_negative_volume(self, plain):
        with pytest.raises(ValueError):
            penalty_value(plain, -0.1)


class TestPenaltyKindValidation:
    def test_rejects_bad_variant(self):
        with pytest.raises(ValueError):
            PenaltyKind("quadratic", 0.1, 1.0)

    def test_rejects_nonpositive_eps_or_omega0(self):
        with pytest.raises(ValueError):
            PenaltyKind("plain", 0.0, 1.0)
        with pytest.raises(ValueError):
            PenaltyKind("plain", 0.1, -1.0)

    @pytest.mark.parametrize("eps", [math.inf, math.nan])
    def test_rejects_eps_that_is_not_finite(self, eps):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            PenaltyKind("rewarding", eps, 1.0)


class TestObjective:
    def test_penalty_vanishes_at_target_volume(self):
        g = make_grid(2, 49, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.5)
        from platetone.field_grid import mask_volume

        vol = mask_volume(m)
        for variant in ("plain", "rewarding"):
            kind = PenaltyKind(variant, 1e-3, vol)
            J, tone, volume = objective(g, m, kind, tone_tol=1e-9)
            assert volume == vol
            assert J == tone.gamma

    def test_rewarding_half_volume_formula(self):
        g = make_grid(2, 49, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.5)
        from platetone.field_grid import mask_volume

        vol = mask_volume(m)
        kind = PenaltyKind("rewarding", 1e-3, 2.0 * vol)
        J, tone, volume = objective(g, m, kind, tone_tol=1e-9)
        expected = fundamental_tone(m, tol=1e-9).gamma - 1e-3 * vol
        assert J == pytest.approx(expected, rel=1e-10)

    def test_exact_decomposition(self):
        g = make_grid(2, 49, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.6)
        kind = PenaltyKind("rewarding", 0.05, 0.5)
        J, tone, volume = objective(g, m, kind, tone_tol=1e-9)
        assert J - tone.gamma == penalty_value(kind, volume)
