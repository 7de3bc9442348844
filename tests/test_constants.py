import dataclasses
import decimal
import math
import re

import numpy as np
import pytest

from platetone import constants
from platetone.constants import (
    MAX_DIM,
    OracleError,
    TheoryConstants,
    alpha0,
    ball_radius,
    ball_tone_for_volume,
    ball_volume,
    compute_constants,
    eps0,
    eps1,
    eps1_effective,
    gamma_ball,
    gamma_ball_bessel,
    gamma_ball_radial,
    oracle_gap,
    unit_ball_volume,
)


class TestUnitBallVolume:
    def test_known_dimensions(self):
        assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)
        assert unit_ball_volume(4) == pytest.approx(math.pi ** 2 / 2.0, rel=1e-14)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            unit_ball_volume(0)


class TestBallRadius:
    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_inverts_ball_volume(self, n):
        for radius in (0.3, 1.0, 1.7):
            assert ball_radius(n, ball_volume(n, radius)) == pytest.approx(radius, rel=1e-14)

    def test_unit_disk(self):
        assert ball_radius(2, unit_ball_volume(2)) == 1.0


class TestToneOracles:
    def test_dual_oracle_agreement_low_dims(self):
        # the full n = 2..8 sweep lives in the acceptance suite
        for n in (2, 3, 4):
            fd = gamma_ball_radial(n)
            bs = gamma_ball_bessel(n)
            assert abs(fd - bs) / bs <= 1e-6

    def test_2d_value(self):
        # k for the clamped disk is 3.1962...; gamma = k^4 = 104.36...
        g = gamma_ball_bessel(2)
        assert g ** 0.25 == pytest.approx(3.1962, abs=2e-4)
        assert g == pytest.approx(104.36, abs=0.01)

    def test_3d_value_against_tan_identity(self):
        # for n = 3 the cross product reduces to tan k = tanh k
        k = gamma_ball_bessel(3) ** 0.25
        assert math.tan(k) == pytest.approx(math.tanh(k), abs=1e-9)

    def test_scipy_cross_check(self):
        # independent library check on top of the dual in-house oracles
        from scipy.special import iv, jv

        for n in (2, 3, 5):
            k = gamma_ball_bessel(n) ** 0.25
            nu = 0.5 * n - 1.0
            f = jv(nu, k) * iv(nu + 1, k) + iv(nu, k) * jv(nu + 1, k)
            scale = abs(jv(nu, k) * iv(nu + 1, k)) + abs(iv(nu, k) * jv(nu + 1, k))
            assert abs(f) / scale < 1e-10

    def test_rejects_dimension_one(self):
        with pytest.raises(ValueError):
            gamma_ball_radial(1)
        with pytest.raises(ValueError):
            gamma_ball_bessel(1)

    def test_oracles_agree_up_to_max_dim(self):
        assert abs(gamma_ball_radial(MAX_DIM) / gamma_ball_bessel(MAX_DIM) - 1.0) <= 1e-6

    @pytest.mark.parametrize("n", [MAX_DIM + 1, 80, 150])
    def test_rejects_dimension_above_max_dim(self, n):
        # above MAX_DIM the radial oracle misses RADIAL_TOL, the Bessel series
        # returns a spurious root from n = 80, and at n = 150 the radial cells
        # underflow (numpy warnings, then a LinAlgError naming no input)
        for oracle in (gamma_ball_radial, gamma_ball_bessel):
            with pytest.raises(ValueError, match=f"dimension must lie in 2..{MAX_DIM}, .*got {n}"):
                oracle(n)


# every entry point that takes a dimension, with inputs that pass their rules
DIM_ENTRY_POINTS = {
    "compute_constants": lambda n: compute_constants(n, 0.5, 1e-4, radius_B=1.5),
    "gamma_ball_radial": gamma_ball_radial,
    "gamma_ball_bessel": gamma_ball_bessel,
    "gamma_ball": gamma_ball,
    "oracle_gap": oracle_gap,
    "eps1": lambda n: eps1(n, 0.5),
    "eps0": lambda n: eps0(n, 0.5),
    "alpha0": lambda n: alpha0(n, 1e-4, 0.5),
    "eps1_effective": lambda n: eps1_effective(n, 0.5, 1.5),
    "ball_tone_for_volume": lambda n: ball_tone_for_volume(0.5, n),
}


# the dimension must be an integer: 2.5 gave a record for a "2.5-ball", and
# 2.0 (with n = 2 cached) and True (== 1) are no integers of the range either
@pytest.mark.parametrize("entry", DIM_ENTRY_POINTS)
@pytest.mark.parametrize("n", [2.5, 2.0, True])
def test_rejects_a_dimension_that_is_no_integer(n, entry):
    gamma_ball_radial(2)
    gamma_ball_bessel(2)
    with pytest.raises(ValueError, match=f"^dimension must lie in 2..{MAX_DIM}, .*got {n}$"):
        DIM_ENTRY_POINTS[entry](n)


@pytest.fixture
def cold_oracles():
    """Clear the oracle caches around a test that patches their internals,
    so later tests see the real values."""
    gamma_ball_radial.cache_clear()
    gamma_ball_bessel.cache_clear()
    yield
    gamma_ball_radial.cache_clear()
    gamma_ball_bessel.cache_clear()


@pytest.mark.usefixtures("cold_oracles")
class TestOracleLoops:
    def test_first_order_levels_fail_the_self_check(self, monkeypatch):
        # levels 100 + 50/K converge at order 1, so order-2 extrapolation of
        # the two pairs disagrees by about 8e-5 relative
        monkeypatch.setattr(constants, "_radial_tone_level", lambda n, K: 100.0 + 50.0 / K)
        with pytest.raises(OracleError, match="extrapolation"):
            gamma_ball_radial(2)

    def test_levels_stop_by_their_own_test(self, monkeypatch):
        solves = []
        real_solve, real_level = constants.cho_solve_banded, constants._radial_tone_level

        def counting_solve(*args):
            solves[-1] += 1
            return real_solve(*args)

        def level(n, K):
            solves.append(0)
            return real_level(n, K)

        monkeypatch.setattr(constants, "cho_solve_banded", counting_solve)
        monkeypatch.setattr(constants, "_radial_tone_level", level)
        for n in (2, 3, 8):
            gamma_ball_radial(n)
        assert len(solves) == 9
        assert max(solves) <= 20

    def test_unsettled_iteration_raises(self, monkeypatch):
        # the "solve" alternates two fixed vectors, so the quotient never settles
        flips = []

        def alternating_solve(factor, y):
            flips.append(len(flips) % 2)
            return np.linspace(1.0, 1.0 + flips[-1], len(y))

        monkeypatch.setattr(constants, "cho_solve_banded", alternating_solve)
        with pytest.raises(OracleError, match="did not settle"):
            gamma_ball_radial(2)

    def test_gamma_ball_rechecks_the_oracles(self, monkeypatch):
        # a tone cached past its oracles' cache would hide this disagreement
        gamma_ball(2)
        gamma_ball_radial.cache_clear()
        gamma_ball_bessel.cache_clear()
        monkeypatch.setattr(constants, "_radial_tone_level", lambda n, K: 100.0)
        with pytest.raises(OracleError, match=r"^tone oracles disagree for n=2: radial=100\.0 "):
            gamma_ball(2)

    def test_no_sign_change_raises(self, monkeypatch):
        # the uncached function, so no cached tone hides the bracket search
        monkeypatch.setattr(constants, "_cross_product", lambda n, k: 1.0)
        with pytest.raises(OracleError, match="^no cross-product sign change found for n=2$"):
            gamma_ball_bessel.__wrapped__(2)

    def test_bisection_stops_when_the_bracket_stops_moving(self, monkeypatch):
        ks = []
        real = constants._cross_product

        def recording(n, k):
            ks.append(k)
            return real(n, k)

        monkeypatch.setattr(constants, "_cross_product", recording)
        gamma_ball_bessel(2)
        # the bracket search walks up in k; the first smaller k is the first midpoint
        first_mid = next(i for i in range(1, len(ks)) if ks[i] < ks[i - 1])
        assert len(ks) - first_mid <= 60


class TestEps1:
    def test_collapses_at_unit_ball_volume(self):
        for n in (2, 3, 4):
            wn = unit_ball_volume(n)
            assert eps1(n, wn) == pytest.approx(wn / gamma_ball(n), rel=1e-12)

    def test_2d_quarter_disk(self):
        expected = 0.25 ** 2 * (math.pi / 4.0) / gamma_ball(2)
        assert eps1(2, math.pi / 4.0) == pytest.approx(expected, rel=1e-12)

    def test_strictly_increasing_in_omega0(self):
        values = [eps1(3, w) for w in np.linspace(0.1, 5.0, 50)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive_volume(self):
        with pytest.raises(ValueError):
            eps1(2, 0.0)


class TestEps1Effective:
    def test_unchanged_for_n_ge_4(self):
        assert eps1_effective(4, 1.0, 3.0) == eps1(4, 1.0)
        assert eps1_effective(5, 2.0, 3.0) == eps1(5, 2.0)

    def test_2d_alpha_max_4(self):
        # (a-1)/(a^2-1) = 1/(a+1) = 1/5 at a_max = 4
        om0 = math.pi / 4.0
        radius = 2.0 * math.sqrt(om0 / math.pi)
        factor = eps1_effective(2, om0, radius) / eps1(2, om0)
        assert factor == pytest.approx(0.2, rel=1e-10)

    def test_alpha_max_to_one_limit(self):
        # numerical l'Hopital: the correction factor tends to n/4
        for n in (2, 3):
            om0 = 1.0
            wn = unit_ball_volume(n)
            for delta in (1e-5, 1e-7):
                radius = ((om0 * (1.0 + delta)) / wn) ** (1.0 / n)
                factor = eps1_effective(n, om0, radius) / eps1(n, om0)
                assert factor == pytest.approx(n / 4.0, rel=1e-3)

    def test_rejects_omega0_not_fitting(self):
        with pytest.raises(ValueError):
            eps1_effective(2, 10.0, 1.0)

    # |B| = 4.93 in 4D and 5.26 in 5D at radius 1: the ball fit holds in
    # every dimension (for n >= 4 eps1 was returned before the check)
    @pytest.mark.parametrize("n", [4, 5])
    def test_rejects_omega0_not_fitting_for_n_ge_4(self, n):
        with pytest.raises(ValueError, match=r"^omega0: target volume does not fit "):
            eps1_effective(n, 100.0, 1.0)

    # (|B|/omega0)^(4/n) overflows (1e100), or |B| itself does (1e154: pi *
    # 1e308 is inf; 1e200: radius_B ** n raises), and the ball-fit rule
    # names it; this was an OverflowError or a nan
    @pytest.mark.parametrize("n, radius_B, message", [
        (2, 1e100, "^radius_B=1e\\+100 is too large: "),
        (2, 1e154, "^radius_B: the reference ball's volume overflows, got 1e\\+154$"),
        (3, 1e200, "^radius_B: the reference ball's volume overflows, got 1e\\+200$"),
    ], ids=["2-1e+100", "2-1e+154", "3-1e+200"])
    def test_overflow_names_radius_B(self, n, radius_B, message):
        with pytest.raises(ValueError, match=message):
            eps1_effective(n, 1.0, radius_B)

    def test_overflow_names_omega0_and_radius_B(self):
        # eps1 ~ 1e297 times a_max - 1 ~ 3e20 overflows by multiplication,
        # which raises nothing: this returned inf
        with pytest.raises(ValueError, match=r"overflows at omega0=1e\+100, radius_B=1e\+60"):
            eps1_effective(2, 1e100, 1e60)

    @pytest.mark.parametrize("n, radius_B", [(2, 1.5), (2, 1e50), (3, 1.5), (3, 1e30)])
    def test_in_range_formula(self, n, radius_B):
        a_max = unit_ball_volume(n) * radius_B ** n / 1.0
        expected = eps1(n, 1.0) * (a_max - 1.0) / (a_max ** (4.0 / n) - 1.0)
        assert eps1_effective(n, 1.0, radius_B) == expected


class TestEps0:
    def test_min_branches(self, monkeypatch):
        # synthetic gamma so that eps1 = 1 exactly: min(1, d_n 4/n)
        from platetone import constants

        om0 = 1.0
        gb = (om0 / unit_ball_volume(4)) ** 1.0 * om0
        monkeypatch.setattr(constants, "gamma_ball", lambda n: gb)
        assert eps1(4, om0) == pytest.approx(1.0)
        assert eps0(4, om0, 0.5) == pytest.approx(0.5)
        assert eps0(4, om0, 0.999) == pytest.approx(0.999)

    def test_never_exceeds_eps1(self):
        for n in (2, 3, 4, 6):
            for om0 in (0.2, 1.0, 4.0):
                assert eps0(n, om0) <= eps1(n, om0) + 1e-15


class TestAlpha0:
    def test_closed_form_case(self):
        # d_n = 1/2 and eps*eps1 = 1 gives (2 - sqrt 2)/2
        om0 = math.pi / 4.0
        e1 = eps1(2, om0)
        a0, res = alpha0(2, 1.0 / e1, om0, 0.5)
        assert a0 == pytest.approx((2.0 - math.sqrt(2.0)) / 2.0, rel=1e-12)
        assert res <= 1e-12

    def test_defining_equation_residual_random(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            om0 = float(10.0 ** rng.uniform(-1.0, 1.0))
            d_n = float(rng.uniform(0.5, 0.99))
            eps = float(rng.uniform(1e-6, 1.0)) * eps1(n, om0)
            a0, res = alpha0(n, eps, om0, d_n)
            assert res <= 1e-10
            assert 0.0 < a0 < 1.0

    def test_small_eps_limit_is_dn(self):
        for d_n in (0.5, 0.7, 0.9):
            a0, _ = alpha0(4, 1e-9, 1.0, d_n)
            assert abs(a0 - d_n) <= 1e-6

    def test_bracketed_by_dn(self):
        # 2 d_n / (1 + x + sqrt(...)) lies in [d_n/(1+x), d_n]
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            om0 = float(10.0 ** rng.uniform(-1.0, 1.0))
            d_n = float(rng.uniform(0.4, 0.99))
            eps = float(rng.uniform(1e-9, 1.0)) * eps1(n, om0)
            x = eps * eps1(n, om0)
            a0, _ = alpha0(n, eps, om0, d_n)
            assert d_n / (1.0 + x) - 1e-12 <= a0 <= d_n + 1e-12

    def test_monotone_decreasing_in_eps(self):
        om0 = 1.0
        values = [alpha0(3, e, om0, 0.6)[0] for e in np.geomspace(1e-8, eps1(3, om0), 40)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            alpha0(2, 0.0, 1.0)

    @pytest.mark.parametrize("eps, omega0", [(1e-4, 1e100), (1e300, 1.0), (1e300, 1e100)])
    def test_overflow_names_eps_and_omega0(self, eps, omega0):
        # (1 + x)^2 raised OverflowError for x = eps * eps1 past 1e154, and
        # x itself is inf at (1e300, 1e100)
        with pytest.raises(ValueError, match=re.escape(f"eps={eps!r}, omega0={omega0!r}")):
            alpha0(2, eps, omega0)

    def test_rejects_negative_discriminant(self):
        # d_n > 1 can push the discriminant negative; the d_n rule rejects it
        om0 = 1.0
        e1 = eps1(2, om0)
        with pytest.raises(ValueError, match=r"^d_n: must lie in \(0, 1\), got 1.5$"):
            alpha0(2, 1.0 / e1, om0, d_n=1.5)


    @staticmethod
    def eps_giving(x):
        """The eps with eps * eps1(2, 1.0) == x exactly."""
        e1 = eps1(2, 1.0)
        return float(next(e for e in (x / e1, np.nextafter(x / e1, 0.0),
                                      np.nextafter(x / e1, 2.0 * x / e1)) if e * e1 == x))

    @pytest.mark.parametrize("x", [0.5, 1.0, 1.0 + 2.0 ** -52])
    def test_d_n_one_ulp_under_one(self, x):
        # the largest d_n the rule admits; alpha0 lies within an ulp or so of
        # 1 there, where f is steep, so the residual is not bounded
        a0, _ = alpha0(2, self.eps_giving(x), 1.0, d_n=1.0 - 2.0 ** -53)
        assert math.isfinite(a0) and 0.0 < a0 < 1.0

    def test_no_cancellation_as_d_n_and_x_near_one(self):
        # the textbook discriminant (1 + x)^2 - 4 d_n x rounds to 0.0 here
        # against an exact 4.4e-16 and gives 1 - 2^-53 for a root 1 - 1.05e-8
        x, d_n = 1.0 + 2.0 ** -52, 1.0 - 2.0 ** -53
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            dx, dd = decimal.Decimal(x), decimal.Decimal(d_n)
            root = 2 * dd / (1 + dx + ((1 + dx) ** 2 - 4 * dd * dx).sqrt())
        a0, _ = alpha0(2, self.eps_giving(x), 1.0, d_n=d_n)
        assert a0 == pytest.approx(float(root), rel=1e-12)


class TestScaling:
    def test_ball_tone_for_volume(self):
        for n in (2, 3):
            wn = unit_ball_volume(n)
            assert ball_tone_for_volume(wn, n) == pytest.approx(gamma_ball(n), rel=1e-12)
        # quarter volume in 4D doubles ... exponent 4/n = 1: factor 16
        gb4 = gamma_ball(4)
        wn4 = unit_ball_volume(4)
        assert ball_tone_for_volume(wn4 / 16.0, 4) == pytest.approx(16.0 * gb4, rel=1e-12)


class TestBundle:
    def test_compute_constants_record(self):
        c = compute_constants(2, math.pi / 4.0, 1e-4, d_n=0.5, radius_B=1.5)
        rec = c.as_record()
        assert rec["oracle_rel_diff"] <= 1e-6
        assert rec["alpha0_residual"] <= 1e-10
        assert c.eps0 <= c.eps1
        assert c.eps1_effective is not None and c.eps1_effective <= c.eps1

    def test_record_keys_are_fields_in_order(self):
        names = [f.name for f in dataclasses.fields(TheoryConstants)]
        with_radius = compute_constants(2, math.pi / 4.0, 1e-4, radius_B=1.5)
        assert list(with_radius.as_record()) == names
        without = compute_constants(2, math.pi / 4.0, 1e-4)
        assert list(without.as_record()) == [n for n in names if n != "eps1_effective"]

    def test_rejects_dim_one(self):
        with pytest.raises(ValueError):
            compute_constants(1, 1.0, 1e-4)

    def test_numpy_integer_dimension(self):
        record = compute_constants(np.int64(3), 0.5, 1e-4, radius_B=1.5)
        assert record == compute_constants(3, 0.5, 1e-4, radius_B=1.5)
        assert record.oracle_rel_diff == oracle_gap(3)
