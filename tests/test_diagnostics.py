import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from platetone.biharmonic import fundamental_tone
from platetone.constants import unit_ball_volume
from platetone.diagnostics import (
    GATHER_ENTRIES,
    DiagnosticsReport,
    Dichotomy,
    _balls,
    _probes,
    default_probe_radius,
    density_quotient,
    dichotomy_check,
    dyadic_radii,
    estimate_doubling_sigma,
    run_diagnostics,
)
from platetone.field_grid import (
    ball_mask,
    boundary_nodes,
    dilate,
    gradient_field,
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


def brute_force_statistics(field, omega0):
    """run_diagnostics' doubling ratio, c1 and density profile, with the
    boundary, |grad u| and every ball counted over all lattice nodes for
    each probe: no windows, no shared tables."""
    grid, inside = field.grid, field.mask.inside
    h, n, N = grid.spacing, grid.dim, grid.nodes_per_side
    boundary = np.zeros_like(inside)
    for node in map(tuple, np.argwhere(inside)):
        for ax in range(n):
            for step in (-1, 1):
                nb = list(node)
                nb[ax] += step
                if not 0 <= nb[ax] < N or not inside[tuple(nb)]:
                    boundary[node] = True
    padded = np.pad(field.values, 1)
    grad2 = 0.0
    for ax in range(n):
        ahead, behind = [slice(1, -1)] * n, [slice(1, -1)] * n
        ahead[ax], behind[ax] = slice(2, None), slice(None, -2)
        g = (padded[tuple(ahead)] - padded[tuple(behind)]) / (2.0 * h)
        grad2 = grad2 + g * g
    mag = np.sqrt(grad2)
    radii = dyadic_radii(default_probe_radius(grid, omega0), 4.0 * h)
    nodes = np.indices(grid.shape)

    def probes(cap):
        idx = np.argwhere(boundary)
        return idx[::math.ceil(len(idx) / cap)]

    def dist2(p):
        return sum(((nodes[ax] - p[ax]) * h) ** 2 for ax in range(n))

    def count(a):
        return int(np.count_nonzero(a))

    sigma, c1 = 1.0, math.inf
    for p in probes(512):
        d2 = dist2(p)
        for r in radii:
            inner = count(inside & (d2 < r * r)) - 1
            outer = count(inside & (d2 < 4.0 * r * r)) - 1
            sigma = max(sigma, outer / inner if inner > 0 else math.inf)
            c1 = min(c1, float(mag[d2 <= r * r].max()) / r)
    quotients = [[count(inside & (d2 < r * r)) / count(d2 < r * r) for r in radii]
                 for d2 in map(dist2, probes(128))]
    profile = tuple((r, min(q[k] for q in quotients)) for k, r in enumerate(radii))
    return sigma, c1, profile


class TestCheckConnected:
    # run_diagnostics counts the face-adjacency components of the mask
    def test_disk(self):
        g = make_grid(2, 49, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.5)
        rep = run_diagnostics(make_field(m, np.ones(g.shape)), mask_volume(m))
        assert rep.component_count == 1

    def test_two_disks(self):
        g = make_grid(2, 65, 1.0)
        m = two_disks_mask(g)
        rep = run_diagnostics(make_field(m, np.ones(g.shape)), mask_volume(m))
        assert rep.component_count == 2

    def test_empty(self):
        g = make_grid(2, 49, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.0)
        with pytest.raises(ValueError, match="empty mask"):
            run_diagnostics(make_field(m, np.zeros(g.shape)), 1.0)


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

    def test_large_radius_gathers_within_the_entry_budget(self):
        # at R0 = 6 every probe reads the whole capped table, (2N - 1)^3 =
        # 274,625 offsets, one probe a block: 32 probes a block peaked at
        # 155 MB.  Radii past the ball's diameter read a ratio of 1, so the
        # worst ratio is the one of R0 = 0.75
        g = make_grid(3, 33, 1.5)
        m = ball_mask(g, (0.0, 0.0, 0.0), 0.6)
        tracemalloc.start()
        try:
            sigma = estimate_doubling_sigma(m, R0=6.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sigma == estimate_doubling_sigma(m, R0=0.75)
        assert peak < 40e6

    def test_blocks_hold_at_most_the_entry_budget(self):
        g = make_grid(3, 33, 1.5)
        m = ball_mask(g, (0.0, 0.0, 0.0), 0.6)
        probes = _probes(boundary_nodes(m), 512)
        # 274,625 offsets within R = 6 and 2,109 within R = 0.75, the most
        # that run_diagnostics reads on square-3d-33
        for R, block in ((6.0, 1), (0.75, GATHER_ENTRIES // 2109)):
            shapes = [near.shape for _, near in _balls(g, probes, R, m.inside)]
            assert sum(rows for rows, _ in shapes) == len(probes)
            assert {rows for rows, _ in shapes[:-1]} == {block}
            assert {cols for _, cols in shapes} == {shapes[0][1]}
            assert block == 1 or block * shapes[0][1] <= GATHER_ENTRIES

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

    @pytest.mark.parametrize("R0, r_min", [(8.0, 16.0), (math.inf, 4.0)])
    def test_rejects_radii_that_probe_nothing_or_never_stop(self, R0, r_min):
        # with r_min above R0 no radius would be probed and sigma would read
        # 1.0; with R0 = inf the halving would never stop
        g = make_grid(2, 33, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.5)
        h = g.spacing
        with pytest.raises(ValueError, match="r_min"):
            estimate_doubling_sigma(m, R0=R0 * h, r_min=r_min * h)


class TestDyadicRadii:
    def test_halves_down_to_r_min(self):
        assert dyadic_radii(1.0, 0.25) == (1.0, 0.5, 0.25)
        assert dyadic_radii(1.0, 0.3) == (1.0, 0.5)
        assert dyadic_radii(0.5, 0.5) == (0.5,)

    @pytest.mark.parametrize("R0, r_min", [
        (1.0, 0.0), (1.0, -0.25), (1.0, math.nan), (math.inf, 0.25),
        (math.nan, 0.25), (0.25, 1.0),
    ])
    def test_rejects_bad_radii(self, R0, r_min):
        with pytest.raises(ValueError, match=f"r_min={r_min}, R0={R0}"):
            dyadic_radii(R0, r_min)

    # a radius that is not a real number (a bool is not one) is one
    # ValueError with field_grid.real_errors' text, both named when both miss
    @pytest.mark.parametrize("R0, r_min, text", [
        (True, 0.25, "R0: must be a real number, got True"),
        ("1", 0.25, "R0: must be a real number, got '1'"),
        (1.0, False, "r_min: must be a real number, got False"),
        (1.0, "0.25", "r_min: must be a real number, got '0.25'"),
        (1.0, None, "r_min: must be a real number, got None"),
        ("1", True, "R0: must be a real number, got '1'; "
                    "r_min: must be a real number, got True"),
    ])
    def test_rejects_radii_that_are_not_real_numbers(self, R0, r_min, text):
        with pytest.raises(ValueError) as info:
            dyadic_radii(R0, r_min)
        assert str(info.value) == text


class TestNondegeneracy:
    # run_diagnostics' c1: the smallest sup |grad u| / R over boundary probes
    # and the dyadic radii from default_probe_radius down to 4h
    def test_linear_ramp_returns_slope(self):
        g = make_grid(2, 65, 1.0)
        m = half_plane_mask(g)
        x = g.axis_coords()[:, None] * np.ones(g.shape)
        slope = 2.5
        h = g.spacing
        rep = run_diagnostics(make_field(m, slope * x), math.pi)
        assert rep.density_c2_profile[0][0] == 8.0 * h
        # a ball around a probe on the straight cut, away from the rim of B,
        # sees |grad u| = slope on the members and slope / 2 one node beyond
        # the cut, so the smallest sup / R is the slope over R0 = 8h
        assert rep.nondegeneracy_c1 == pytest.approx(slope / (8.0 * h), rel=1e-12)

    def test_zero_field_detected_degenerate(self):
        g = make_grid(2, 49, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.5)
        rep = run_diagnostics(make_field(m, np.zeros(g.shape)), math.pi / 4.0)
        assert rep.nondegeneracy_c1 == 0.0

    def test_eigenfield_strictly_positive(self):
        g = make_grid(2, 65, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.7)
        tone = fundamental_tone(m, tol=1e-9)
        assert run_diagnostics(tone.eigenfield, math.pi).nondegeneracy_c1 > 0.0

    def test_refinement_stability_within_factor_two(self):
        # omega0 pi/4 puts the largest probe radius at 0.125 on both lattices
        values = []
        for n in (65, 129):
            g = make_grid(2, n, 1.0)
            m = ball_mask(g, (0.0, 0.0), 0.7)
            tone = fundamental_tone(m, tol=1e-9)
            rep = run_diagnostics(tone.eigenfield, math.pi / 4.0)
            assert rep.density_c2_profile[0][0] == 0.125
            values.append(rep.nondegeneracy_c1)
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

    @pytest.mark.parametrize("R", [math.nan, math.inf])
    def test_rejects_radius_that_is_not_finite(self, R):
        g = make_grid(2, 49, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.5)
        probe = tuple(np.argwhere(boundary_nodes(m))[0])
        with pytest.raises(ValueError,
                           match=rf"^R must be finite and at least 2h = 0\.08333\d*, got {R}$"):
            density_quotient(m, probe, R)


class TestStandaloneInputs:
    # on a 2D N=33 disk whose boundary holds node (8, 14), each bad input of
    # the standalone probes is one ValueError that names it
    @staticmethod
    def disk():
        return ball_mask(make_grid(2, 33, 1.0), (0.0, 0.0), 0.55)

    @pytest.mark.parametrize("probe, args, text", [
        (density_quotient, ((8,), 0.3), "x0: must be 2 integers in [0, 33), got (8,)"),
        (density_quotient, ((True, 16), 0.3), "x0: must be 2 integers in [0, 33), got (True, 16)"),
        (density_quotient, ((40, 5), 0.3), "x0: must be 2 integers in [0, 33), got (40, 5)"),
        (density_quotient, ((8.0, 14), 0.3), "x0: must be 2 integers in [0, 33), got (8.0, 14)"),
        (density_quotient, ((-25, 14), 0.3), "x0: must be 2 integers in [0, 33), got (-25, 14)"),
        (density_quotient, (8, 0.3), "x0: must be 2 integers in [0, 33), got 8"),
        (density_quotient, ((8, 14), True), "R: must be a real number, got True"),
        (density_quotient, ((8, 14), "0.3"), "R: must be a real number, got '0.3'"),
        (density_quotient, ((8,), True),
         "x0: must be 2 integers in [0, 33), got (8,); R: must be a real number, got True"),
        (estimate_doubling_sigma, (True,), "R0: must be a real number, got True"),
        (estimate_doubling_sigma, ("0.5",), "R0: must be a real number, got '0.5'"),
        (estimate_doubling_sigma, (0.5, True), "r_min: must be a real number, got True"),
        (estimate_doubling_sigma, (0.5, "0.25"), "r_min: must be a real number, got '0.25'"),
    ])
    def test_names_the_bad_input(self, probe, args, text):
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            probe(self.disk(), *args)

    @pytest.mark.parametrize("x0", [(8, 14), [8, 14], np.array([8, 14]), (np.int64(8), 14)])
    def test_takes_node_indices_as_any_sequence(self, x0):
        assert density_quotient(self.disk(), x0, 0.3) == density_quotient(self.disk(), (8, 14), 0.3)


class TestHugeRadius:
    # members lie in the reference ball of radius 1, so a ball of radius 4
    # around any probe holds all of them; one of radius ~1e6 must give the
    # same values, from an offset table no larger than the lattice's
    @pytest.mark.parametrize("dim, n", [(2, 33), (3, 17)])
    def test_equals_the_whole_ball_value(self, dim, n):
        g = make_grid(dim, n, 1.0)
        m = ball_mask(g, (0.1,) + (0.0,) * (dim - 1), 0.55)
        probe = tuple(np.argwhere(boundary_nodes(m))[0])
        assert density_quotient(m, probe, 1e6) == density_quotient(m, probe, 4.0)
        # 4 * 2**18 ~ 1e6 halves down onto the dyadic radii of R0 = 4; the
        # radii above 4 add ratios of one
        assert estimate_doubling_sigma(m, 4.0 * 2 ** 18) == estimate_doubling_sigma(m, 4.0)


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
        assert [f.name for f in dataclasses.fields(DiagnosticsReport)] == [
            "component_count", "doubling_sigma", "nondegeneracy_c1", "density_c2_profile"]
        g = make_grid(2, 65, 1.5)
        m = ball_mask(g, (0.0, 0.0), 0.5)
        tone = fundamental_tone(m, tol=1e-9)
        rep = run_diagnostics(tone.eigenfield, math.pi / 4.0)
        assert rep.component_count == 1
        assert rep.doubling_sigma >= 1.0
        assert rep.nondegeneracy_c1 > 0.0
        assert len(rep.density_c2_profile) >= 1
        assert all(0.0 < q <= 1.0 for _, q in rep.density_c2_profile)

    @pytest.mark.parametrize("case", ["2d", "3d", "window-clipped"])
    def test_matches_brute_force_reference(self, case):
        if case == "2d":
            # two overlapping disks; omega0 pi/4 probes at 8h and 4h
            g = make_grid(2, 129, 1.0)
            inside = (ball_mask(g, (0.0, 0.0), 0.45).inside
                      | ball_mask(g, (0.3, 0.2), 0.3).inside)
            m, omega0 = mask_from_array(g, inside), math.pi / 4.0
        elif case == "3d":
            g = make_grid(3, 21, 1.0)
            m, omega0 = ball_mask(g, (0.1, 0.0, 0.0), 0.55), 0.5
        else:
            # a disk cut by the rim of B, next to the face x = R_B of the box
            g = make_grid(2, 65, 1.0)
            m, omega0 = ball_mask(g, (0.55, 0.0), 0.45), 0.6
            R0 = default_probe_radius(g, omega0)
            faces = np.argwhere(boundary_nodes(m))
            assert (g.nodes_per_side - 1 - faces.max()) * g.spacing < R0
        field = fundamental_tone(m).eigenfield
        rep = run_diagnostics(field, omega0)
        assert ((rep.doubling_sigma, rep.nondegeneracy_c1, rep.density_c2_profile)
                == brute_force_statistics(field, omega0))


def _window(grid, idx, R):
    """Index box around node idx that holds the ball of radius R, clipped to
    the lattice, and the squared distances of its nodes to idx."""
    span = int(math.ceil(R / grid.spacing)) + 1
    box = tuple(slice(max(c - span, 0), min(c + span + 1, grid.nodes_per_side)) for c in idx)
    cut = tuple(slice(b.start - c + span, b.stop - c + span) for b, c in zip(box, idx))
    d2 = sum((k * grid.spacing) ** 2 for k in np.ogrid[(slice(-span, span + 1),) * grid.dim])
    return box, d2[cut]


def per_probe_statistics(field, omega0):
    """run_diagnostics' doubling ratio, c1 and density profile as the
    per-probe ``_window`` loops computed them before the probes were
    gathered in blocks: one clipped window and its distance table per probe,
    the doubling ratio returning inf at its first probe whose inner ball
    holds no other member."""
    mask, grid = field.mask, field.grid
    R0 = default_probe_radius(grid, omega0)
    radii = dyadic_radii(R0, 4.0 * grid.spacing)
    boundary = boundary_nodes(mask)
    mag = np.linalg.norm(gradient_field(field), axis=0)

    def sigma():
        worst = 1.0
        for idx in _probes(boundary, 512):
            box, d2 = _window(grid, idx, 2.0 * R0)
            near = d2[mask.inside[box]]
            for r in radii:
                inner = int(np.count_nonzero(near < r * r)) - 1
                outer = int(np.count_nonzero(near < 4.0 * r * r)) - 1
                if inner <= 0:
                    return math.inf
                worst = max(worst, outer / inner)
        return worst

    c1 = math.inf
    for idx in _probes(boundary, 512):
        box, d2 = _window(grid, idx, R0)
        for r in radii:
            c1 = min(c1, float(mag[box][d2 <= r * r].max(initial=0.0)) / r)
    quotients = []
    for idx in _probes(boundary, 128):
        box, d2 = _window(grid, idx, R0)
        local = mask.inside[box]
        quotients.append([int(np.count_nonzero(local & (d2 < r * r)))
                          / int(np.count_nonzero(d2 < r * r)) for r in radii])
    return sigma(), c1, tuple(zip(radii, map(min, zip(*quotients))))


# (dim, nodes per side, default_probe_radius in h, lone member)
GATHERED_CASES = [
    (2, 33, 8, False), (2, 65, 16, True), (2, 129, 24, False), (2, 129, 16, True),
    (3, 17, 8, True), (3, 25, 8, False), (3, 33, 8, False),
]


def gathered_case(dim, n, probe_h, lone):
    """A field on a mask whose boundary reaches within R0 of the box's face
    x = R_B, and the omega0 that puts default_probe_radius at probe_h * h."""
    rng = np.random.default_rng(n + dim)
    g = make_grid(dim, n, 1.0)
    h = g.spacing
    # a ball cut by the rim of B next to the face x = R_B of the box, and
    # random balls centred in -0.2 < x < 0.8
    inside = ball_mask(g, (0.7,) + (0.0,) * (dim - 1), 0.35).inside.copy()
    for _ in range(4):
        center = rng.uniform(-0.5, 0.5, dim) + 0.3 * np.eye(dim)[0]
        inside |= ball_mask(g, center, rng.uniform(2.0 * h, 0.3)).inside
    if lone:
        # a member more than 4h from every other: first in C order, so
        # it is the first probe, and no other member is in its inner ball
        inside[:n // 4] = False
        inside[(n // 8,) + (n // 2,) * (dim - 1)] = True
    omega0 = unit_ball_volume(dim) * (4.0 * probe_h * h) ** dim
    field = make_field(mask_from_array(g, inside), rng.standard_normal(g.shape))
    R0 = default_probe_radius(g, omega0)
    assert R0 == pytest.approx(probe_h * h, rel=1e-12)
    clipped = np.argwhere(boundary_nodes(field.mask))[:, 0].max()
    assert (n - 1 - clipped) * h < R0
    return field, omega0


class TestGatheredProbes:
    # run_diagnostics reads every probe's balls from blocks of probes
    # gathered at offsets sorted by distance; the per-probe loops above are
    # the oracle, equal to the last bit
    @pytest.mark.parametrize("dim, n, probe_h, lone", GATHERED_CASES)
    def test_matches_the_per_probe_loops(self, dim, n, probe_h, lone):
        field, omega0 = gathered_case(dim, n, probe_h, lone)
        rep = run_diagnostics(field, omega0)
        expected = per_probe_statistics(field, omega0)
        assert (rep.doubling_sigma, rep.nondegeneracy_c1, rep.density_c2_profile) == expected
        assert (rep.doubling_sigma == math.inf) == lone
        assert len(rep.density_c2_profile) == int(math.log2(probe_h / 4.0)) + 1

    @pytest.mark.parametrize("dim, n, probe_h, lone", GATHERED_CASES)
    def test_standalone_probes_equal_the_report(self, dim, n, probe_h, lone):
        # density_quotient at each of the report's 128 probes, and
        # estimate_doubling_sigma over the report's radii, to the last bit
        field, omega0 = gathered_case(dim, n, probe_h, lone)
        mask, h = field.mask, field.grid.spacing
        rep = run_diagnostics(field, omega0)
        probes = _probes(boundary_nodes(mask), 128)
        for r, lowest in rep.density_c2_profile:
            assert min(density_quotient(mask, tuple(p), r) for p in probes) == lowest
        R0 = rep.density_c2_profile[0][0]
        assert estimate_doubling_sigma(mask, R0, 4.0 * h) == rep.doubling_sigma
