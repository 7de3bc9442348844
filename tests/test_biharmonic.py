import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from platetone import biharmonic
from platetone.biharmonic import (
    CLAMP_WEIGHT,
    MIN_SEMI_BANDWIDTH,
    ConvergenceFailure,
    EmptyMaskError,
    VanishingFieldError,
    eigen_residual,
    fundamental_tone,
    rayleigh_quotient,
    _clamped_rows,
    _masked_bilap,
)
from platetone.constants import gamma_ball
from platetone.field_grid import (
    ball_mask,
    dilate,
    erode,
    gradient_field,
    load_field_fld,
    make_field,
    make_grid,
    mask_from_array,
    save_field_csv,
    save_field_fld,
)
from platetone.penalty import PenaltyKind, objective


def single_node_setup(n=33, dim=2):
    g = make_grid(dim, n, 1.0)
    arr = np.zeros(g.shape, dtype=bool)
    center = (n // 2,) * dim
    arr[center] = True
    m = mask_from_array(g, arr)
    vals = np.zeros(g.shape)
    vals[center] = 1.0
    return g, m, make_field(m, vals), center


def random_field(mask, rng):
    vals = rng.standard_normal(mask.grid.shape)
    return make_field(mask, vals)


class TestApplyClampedBilap:
    """The masked operator A = K^T K that ``fundamental_tone`` solves."""

    def test_zero_field_maps_to_zero(self):
        g = make_grid(2, 33, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.5)
        f = make_field(m, np.zeros(g.shape))
        A, flat = _masked_bilap(m)
        assert np.all(A @ f.values.ravel()[flat] == 0.0)

    def test_single_node_2d(self):
        # composing the 5-point stencil with itself on a delta gives
        # (4^2 + 4)/h^4 at the center
        g, m, f, center = single_node_setup()
        A, flat = _masked_bilap(m)
        assert (A @ f.values.ravel()[flat])[0] == pytest.approx(20.0 / g.spacing ** 4, rel=1e-13)

    def test_single_node_3d(self):
        g, m, f, center = single_node_setup(n=17, dim=3)
        A, flat = _masked_bilap(m)
        assert (A @ f.values.ravel()[flat])[0] == pytest.approx(42.0 / g.spacing ** 4, rel=1e-13)

    def test_symmetry_random_pairs(self):
        # relative symmetry: the raw bilinear forms carry the 1/h^4 operator
        # scale, so the comparison normalizes by their magnitude
        rng = np.random.default_rng(0)
        g = make_grid(2, 33, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.7)
        A, flat = _masked_bilap(m)
        for _ in range(100):
            u = random_field(m, rng).values.ravel()[flat]
            w = random_field(m, rng).values.ravel()[flat]
            au_w = float((A @ u) @ w)
            u_aw = float(u @ (A @ w))
            scale = abs(au_w) + abs(u_aw)
            assert abs(au_w - u_aw) <= 1e-12 * scale

    def test_matches_sparse_operator(self):
        # the assembled A against the energy rows K that rayleigh_quotient and
        # eigen_residual apply as K^T (K u)
        rng = np.random.default_rng(5)
        g = make_grid(2, 33, 1.0)
        m = ball_mask(g, (0.1, 0.0), 0.6)
        A, flat = _masked_bilap(m)
        K, rows_flat = _clamped_rows(m)
        assert np.array_equal(rows_flat, flat)
        u = random_field(m, rng).values.ravel()[flat]
        assert np.allclose(A @ u, K.T @ (K @ u), rtol=1e-12, atol=1e-9)

    @pytest.mark.parametrize("dim, n, seed", [(2, 13, 0), (2, 13, 1), (3, 9, 2)])
    def test_matches_loop_reference(self, dim, n, seed):
        # the rows of the energy written out one member and one edge at a
        # time, on ragged masks that mix clamped, thin and isolated parts;
        # the reference numbers the members in flat order, A along the
        # lattice diagonal, so A is compared with the reference permuted
        g = make_grid(dim, n, 1.0)
        h = g.spacing
        m = mask_from_array(g, np.random.default_rng(seed).random(g.shape) < 0.6)
        members = [tuple(i) for i in np.argwhere(m.inside)]
        col = {node: k for k, node in enumerate(members)}
        inside = lambda node: node in col
        rows = []
        exterior = {}
        for i in members:
            row = np.zeros(len(members))
            row[col[i]] = -2.0 * dim
            for ax in range(dim):
                for sign in (1, -1):
                    step = np.eye(dim, dtype=int)[ax] * sign
                    j, p, p2 = (tuple(np.add(i, k * step)) for k in (1, -1, -2))
                    if inside(j):
                        row[col[j]] += 1.0
                    elif inside(p) and inside(p2):
                        row[col[i]] += 2.0
                        row[col[p]] -= 1.0 / 9.0
                        fit = np.zeros(len(members))
                        fit[[col[i], col[p], col[p2]]] = (1.0, -2.0 / 9.0, 1.0 / 25.0)
                        rows.append(CLAMP_WEIGHT / h * fit)
                    else:
                        exterior.setdefault(j, np.zeros(len(members)))[col[i]] += 1.0
            rows.append(row)
        K = np.array(rows + list(exterior.values())) / h ** 2
        A, flat = _masked_bilap(m)
        order = [tuple(np.unravel_index(f, g.shape)) for f in flat]
        assert order == sorted(members, key=lambda node: (sum(node), node))
        perm = [col[node] for node in order]
        ref = (K.T @ K)[np.ix_(perm, perm)]
        assert np.allclose(A.toarray(), ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def half_band(A):
    """Largest |i - j| over A's stored entries."""
    coo = A.tocoo()
    return int(np.abs(coo.col - coo.row).max())


class TestMemberOrder:
    """The members are numbered along the lattice diagonal, which narrows the
    band of A that ``fundamental_tone`` factors."""

    @pytest.mark.parametrize("dim, n, seed", [(2, 17, 0), (2, 33, 1), (3, 9, 2), (3, 17, 3)])
    def test_flat_is_sorted_by_coordinate_sum_then_flat_index(self, dim, n, seed):
        g = make_grid(dim, n, 1.0)
        m = mask_from_array(g, np.random.default_rng(seed).random(g.shape) < 0.5)
        _, flat = _clamped_rows(m)
        assert sorted(flat.tolist()) == np.flatnonzero(m.inside).tolist()
        keys = list(zip(sum(np.unravel_index(flat, g.shape)).tolist(), flat.tolist()))
        assert keys == sorted(keys)

    def test_3d_ball_band_is_narrower_than_in_flat_order(self):
        # 1045 members: half-band 154, against 250 in flat order
        g = make_grid(3, 33, 1.5)
        A, flat = _masked_bilap(ball_mask(g, (0.0, 0.0, 0.0), 0.6))
        in_flat = np.argsort(flat)
        assert half_band(A) <= 0.65 * half_band(A[in_flat][:, in_flat])

    @pytest.mark.parametrize("shape", [(1, 7), (3, 3), (4, 5), (8, 8), (2, 2, 2), (4, 4, 4)])
    def test_narrow_bands_are_padded_and_still_solve(self, shape):
        # masks of 7-64 members: the factor packs at least
        # MIN_SEMI_BANDWIDTH + 1 rows, and the tone is the dense one
        g = make_grid(len(shape), 17, 1.0)
        inside = np.zeros(g.shape, dtype=bool)
        inside[tuple(slice(8 - k // 2, 8 - k // 2 + k) for k in shape)] = True
        m = mask_from_array(g, inside)
        A, _ = _masked_bilap(m)
        factor = biharmonic.spla.splu(A)
        n = A.shape[0]
        assert 7 <= n <= 64 and half_band(A) < MIN_SEMI_BANDWIDTH
        assert factor.nnz == (MIN_SEMI_BANDWIDTH + 1) * n
        rhs = np.random.default_rng(n).standard_normal(n)
        assert np.allclose(A @ factor.solve(rhs), rhs, rtol=1e-9, atol=1e-9 * np.abs(rhs).max())
        tone = fundamental_tone(m, tol=1e-12)
        assert tone.iterations > 0
        assert tone.gamma == pytest.approx(float(np.linalg.eigvalsh(A.toarray())[0]), rel=1e-10)

    def test_wide_band_keeps_its_width(self):
        g = make_grid(3, 33, 1.5)
        A, _ = _masked_bilap(ball_mask(g, (0.0, 0.0, 0.0), 0.6))
        assert biharmonic.spla.splu(A).nnz == (half_band(A) + 1) * A.shape[0]
        assert half_band(A) > MIN_SEMI_BANDWIDTH


class TestFactor:
    """The banded Cholesky factor is the one object the Lanczos loop reads,
    and it counts its solves."""

    def test_counts_its_solves(self):
        A, _ = _masked_bilap(ball_mask(make_grid(2, 33, 1.0), (0.0, 0.0), 0.5))
        factor = biharmonic.spla.splu(A)
        assert factor.solves == 0
        for _ in range(3):
            factor.solve(np.ones(A.shape[0]))
        assert factor.solves == 3

    def test_tone_iterations_are_the_solves_of_its_factor(self, monkeypatch):
        factors = []
        real = biharmonic.spla.splu

        def recording(A):
            factors.append(real(A))
            return factors[-1]

        monkeypatch.setattr(biharmonic.spla, "splu", recording)
        tone = fundamental_tone(ball_mask(make_grid(2, 33, 1.0), (0.0, 0.0), 0.5))
        assert len(factors) == 1
        assert tone.iterations == factors[0].solves > 0


class TestRayleighQuotient:
    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        g = make_grid(2, 33, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.6)
        f = random_field(m, rng)
        scaled = make_field(m, 7.3 * f.values)
        r1 = rayleigh_quotient(g, m, f)
        r2 = rayleigh_quotient(g, m, scaled)
        assert r2 == pytest.approx(r1, rel=1e-12)

    def test_single_node_value(self):
        g, m, f, _ = single_node_setup()
        assert rayleigh_quotient(g, m, f) == pytest.approx(20.0 / g.spacing ** 4, rel=1e-13)

    def test_equals_quadratic_form(self):
        rng = np.random.default_rng(2)
        g = make_grid(2, 33, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.6)
        f = random_field(m, rng)
        A, flat = _masked_bilap(m)
        u = f.values.ravel()[flat]
        quad = float(u @ (A @ u)) / float(np.sum(f.values ** 2))
        assert rayleigh_quotient(g, m, f) == pytest.approx(quad, rel=1e-12)

    def test_vanishing_field_rejected(self):
        g = make_grid(2, 33, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.5)
        f = make_field(m, np.zeros(g.shape))
        with pytest.raises(VanishingFieldError):
            rayleigh_quotient(g, m, f)

    def test_mask_mismatch_rejected(self):
        g = make_grid(2, 33, 1.0)
        m1 = ball_mask(g, (0.0, 0.0), 0.5)
        m2 = ball_mask(g, (0.0, 0.0), 0.4)
        f = make_field(m2, np.ones(g.shape))
        with pytest.raises(ValueError):
            rayleigh_quotient(g, m1, f)


class TestGridArgument:
    # objective, rayleigh_quotient and eigen_residual keep a grid argument
    # that the mask already carries; a grid other than the mask's is an
    # error, not a second lattice (the 2D N=33 disk of radius 0.5 built at
    # radius_B 1.5 scored 9890.93 on the radius_B 1.0 lattice, 5.11 times
    # its tone 1935.46 on its own)
    @pytest.mark.parametrize("call", [
        lambda g, f: objective(g, f.mask, PenaltyKind("plain", 0.1, 0.5), 1e-8),
        lambda g, f: rayleigh_quotient(g, f.mask, f),
        lambda g, f: eigen_residual(g, f.mask, f, 1.0),
    ], ids=["objective", "rayleigh_quotient", "eigen_residual"])
    def test_mismatched_grid_rejected(self, call):
        m = ball_mask(make_grid(2, 33, 1.5), (0.0, 0.0), 0.5)
        f = make_field(m, np.ones(m.grid.shape))
        with pytest.raises(ValueError, match="lattice"):
            call(make_grid(2, 33, 1.0), f)

    def test_tone_reads_the_lattice_from_the_mask(self):
        m = ball_mask(make_grid(2, 33, 1.5), (0.0, 0.0), 0.5)
        tone = fundamental_tone(m, tol=1e-9)
        assert tone.gamma == pytest.approx(1935.46, rel=1e-5)
        assert tone.eigenfield.grid is m.grid


class TestFundamentalTone:
    def test_disk_matches_oracle_coarse(self):
        # the tight grid-versus-oracle comparison lives in the acceptance
        # suite; this guards against gross regressions at small N
        g = make_grid(2, 65, 1.0)
        m = ball_mask(g, (0.0, 0.0), 1.0)
        tone = fundamental_tone(m, tol=1e-9)
        assert tone.gamma == pytest.approx(gamma_ball(2), rel=0.10)

    def test_matches_dense_eigenvalue(self):
        g = make_grid(2, 33, 1.0)
        m = ball_mask(g, (0.0, 0.0), 1.0)
        A, _ = _masked_bilap(m)
        dense = float(np.linalg.eigvalsh(A.toarray())[0])
        tone = fundamental_tone(m, tol=1e-12)
        assert tone.gamma == pytest.approx(dense, rel=1e-10)

    def test_tiny_mask_solved_densely(self):
        g = make_grid(2, 33, 1.0)
        inside = np.zeros(g.shape, dtype=bool)
        inside[16, 15:18] = True
        m = mask_from_array(g, inside)
        A, _ = _masked_bilap(m)
        tone = fundamental_tone(m)
        assert tone.iterations == 0
        assert tone.gamma == pytest.approx(float(np.linalg.eigvalsh(A.toarray())[0]), rel=1e-12)

    def test_gamma_is_rayleigh_quotient_of_eigenfield(self):
        g = make_grid(2, 49, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.8)
        tone = fundamental_tone(m, tol=1e-10)
        rq = rayleigh_quotient(g, m, tone.eigenfield)
        assert rq == pytest.approx(tone.gamma, rel=1e-9)

    def test_normalization(self):
        g = make_grid(2, 49, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.8)
        tone = fundamental_tone(m)
        assert float(np.sum(tone.eigenfield.values ** 2)) * g.spacing ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_empty_mask_rejected(self):
        g = make_grid(2, 33, 1.0)
        with pytest.raises(EmptyMaskError):
            fundamental_tone(ball_mask(g, (0.0, 0.0), 0.0))

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tol_rejected(self, tol):
        # a NaN tol used to run out all 200 restarts and end in a
        # ConvergenceFailure; an infinite one was accepted silently
        m = ball_mask(make_grid(2, 33, 1.0), (0.0, 0.0), 0.5)
        with pytest.raises(ValueError, match="tol"):
            fundamental_tone(m, tol=tol)

    def test_accuracy_exhaustion_chains_arpack_error(self, monkeypatch):
        # no Ritz value meets a relative accuracy of 1e-30 in two restarts
        monkeypatch.setattr(biharmonic, "MAX_RESTARTS", 2)
        g = make_grid(2, 33, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.8)
        with pytest.raises(ConvergenceFailure, match="ARPACK did not converge in 2 restarts") as info:
            fundamental_tone(m, tol=1e-30)
        assert isinstance(info.value.__cause__, spla.ArpackNoConvergence)

    def test_degenerate_pair_exhaustion_chains_arpack_error(self, monkeypatch):
        # an exactly degenerate pair of mirrored disks needs more than one
        # Lanczos restart at this tolerance
        monkeypatch.setattr(biharmonic, "MAX_RESTARTS", 1)
        g = make_grid(2, 49, 1.0)
        left = ball_mask(g, (-0.5, 0.0), 0.4).inside
        m = mask_from_array(g, left | left[::-1, :])
        with pytest.raises(ConvergenceFailure, match="ARPACK did not converge in 1 restarts") as info:
            fundamental_tone(m, tol=1e-14)
        assert isinstance(info.value.__cause__, spla.ArpackNoConvergence)
        assert info.value.args == (str(info.value),)

    def test_indefinite_operator_fails_the_factor(self, monkeypatch):
        # A shifted past its lowest eigenvalue is not positive definite: the
        # banded Cholesky stops, and the failure reaches the caller as a
        # ConvergenceFailure chained from LAPACK's LinAlgError
        g = make_grid(2, 33, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.5)
        gamma = fundamental_tone(m).gamma
        real = biharmonic._masked_bilap

        def indefinite(mask):
            A, flat = real(mask)
            return (A - 2.0 * gamma * sp.identity(A.shape[0], format="csr")).tocsr(), flat

        monkeypatch.setattr(biharmonic, "_masked_bilap", indefinite)
        with pytest.raises(ConvergenceFailure, match="banded Cholesky") as info:
            fundamental_tone(m)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
        assert str(info.value) == f"banded Cholesky of A failed: {info.value.__cause__}"

    def test_residual_gate_names_gamma_and_residual(self, monkeypatch):
        # Lanczos stood in for by a solver that returns the constant vector on
        # the mask, which is far from an eigenvector: the residual gate fires
        def constant_pair(A, **kwargs):
            return np.ones(1), np.ones((A.shape[0], 1))

        monkeypatch.setattr(biharmonic, "eigsh", constant_pair)
        g = make_grid(2, 33, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.5)
        with pytest.raises(ConvergenceFailure, match=r"residual above 0\.0001 \* gamma") as info:
            fundamental_tone(m, tol=1e-8)
        ones = make_field(m, np.ones(g.shape))
        gamma = rayleigh_quotient(g, m, ones)
        residual = eigen_residual(g, m, ones, gamma)
        pair = re.search(r"\(gamma (\S+), residual (\S+)\)$", str(info.value))
        assert float(pair[1]) == pytest.approx(gamma, rel=1e-12)
        assert float(pair[2]) == pytest.approx(residual, rel=1e-9)
        assert info.value.__cause__ is None

    def test_domain_monotonicity_nested(self):
        g = make_grid(2, 49, 1.0)
        outer = ball_mask(g, (0.0, 0.0), 0.8)
        inner = erode(outer)
        g_out = fundamental_tone(outer, tol=1e-10).gamma
        g_in = fundamental_tone(inner, tol=1e-10).gamma
        assert g_in >= g_out - 1e-8

    def test_scale_covariance_at_fixed_grid(self):
        # gamma(r) r^4 should be near-constant; each value is compared to the
        # common mean because the staircase of a lattice disk, resolved by
        # r / h nodes, drifts the individual products by a few percent in
        # the same direction
        g = make_grid(2, 129, 1.0)
        products = []
        for r in (0.5, 0.75, 1.0):
            m = ball_mask(g, (0.0, 0.0), r)
            products.append(fundamental_tone(m, tol=1e-9).gamma * r ** 4)
        mean = sum(products) / len(products)
        for p in products:
            assert abs(p / mean - 1.0) <= 0.03

    def test_warm_start_converges_faster(self):
        g = make_grid(2, 65, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.8)
        cold = fundamental_tone(m, tol=1e-10)
        m2 = dilate(m)
        warm = fundamental_tone(m2, tol=1e-10, initial=cold.eigenfield)
        cold2 = fundamental_tone(m2, tol=1e-10)
        assert warm.gamma == pytest.approx(cold2.gamma, rel=1e-9)
        assert warm.iterations <= cold2.iterations

    @pytest.mark.parametrize("warm_n", [33, 129], ids=["coarser", "finer"])
    def test_warm_start_on_another_lattice_rejected(self, warm_n):
        # the warm start is read at the mask's flat indices: on a coarser
        # lattice they run past its nodes, on a finer one they land elsewhere
        m = ball_mask(make_grid(2, 65, 1.0), (0.0, 0.0), 0.8)
        other = ball_mask(make_grid(2, warm_n, 1.0), (0.0, 0.0), 0.8)
        warm = make_field(other, other.inside.astype(float))
        with pytest.raises(ValueError, match="another lattice"):
            fundamental_tone(m, initial=warm)

    def test_near_degenerate_two_disks_match_dense(self):
        # mirrored disks, one grown by two boundary nodes: the two lowest
        # eigenvalues sit about 2% apart, which stalls plain inverse iteration
        g = make_grid(2, 33, 1.0)
        left = ball_mask(g, (-0.5, 0.0), 0.35).inside
        right = left[::-1, :].copy()
        right[18, 15:17] = True
        m = mask_from_array(g, left | right)
        A, _ = _masked_bilap(m)
        dense = np.linalg.eigvalsh(A.toarray())
        assert 0.015 < dense[1] / dense[0] - 1.0 < 0.03
        tone = fundamental_tone(m, tol=1e-10)
        assert tone.gamma == pytest.approx(float(dense[0]), rel=1e-10)

    def test_square_wall_converges_second_order(self):
        # the cells of an axis-aligned square mask are the square itself, so
        # with the wall at the half-cell the error of gamma * side^4 falls
        # like h^2; 1294.934 is the clamped unit square (Bjorstad &
        # Tjostheim, Computing 63, 1999)
        products = []
        for n in (65, 129, 257):
            g = make_grid(2, n, 1.0)
            x = g.axis_coords()
            inside = (np.abs(x)[:, None] < 0.5) & (np.abs(x)[None, :] < 0.5)
            side = np.count_nonzero(np.abs(x) < 0.5) * g.spacing
            tone = fundamental_tone(mask_from_array(g, inside), tol=1e-10)
            products.append(tone.gamma * side ** 4)
        first, second = products[1] - products[0], products[2] - products[1]
        assert abs(first) >= 3.0 * abs(second)
        assert products[2] == pytest.approx(1294.934, rel=1e-3)

    def test_two_node_thick_block_keeps_zero_extension_stencil(self):
        # no cut edge of a 2 x 2 block has the two inward members a clamped
        # fit needs, so the block keeps the zero-extension energy; clamped
        # ghosts there would leave A singular
        g = make_grid(2, 9, 1.0)
        inside = np.zeros(g.shape, dtype=bool)
        inside[3:5, 3:5] = True
        m = mask_from_array(g, inside)
        A, flat = _masked_bilap(m)
        # rows of the zero-extension energy: the 5-point Laplacian at every
        # lattice node, restricted to the member columns
        lap = np.zeros(g.shape + g.shape)
        for i, j in np.ndindex(g.shape):
            lap[i, j, i, j] = -4.0
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                if 0 <= i + di < 9 and 0 <= j + dj < 9:
                    lap[i, j, i + di, j + dj] = 1.0
        rows = lap.reshape(81, 81)[:, flat] / g.spacing ** 2
        assert np.allclose(A.toarray(), rows.T @ rows, rtol=1e-13, atol=0.0)
        assert np.linalg.eigvalsh(A.toarray())[0] > 0.0

    def test_disconnected_mask_takes_component_minimum(self):
        g = make_grid(2, 65, 1.0)
        big = ball_mask(g, (-0.45, 0.0), 0.35)
        small = ball_mask(g, (0.5, 0.0), 0.2)
        union = mask_from_array(g, big.inside | small.inside)
        gu = fundamental_tone(union, tol=1e-10).gamma
        gb = fundamental_tone(big, tol=1e-10).gamma
        assert gu == pytest.approx(gb, rel=1e-8)


class TestEigenResidual:
    def test_exact_pair_is_small(self):
        g = make_grid(2, 49, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.8)
        tone = fundamental_tone(m, tol=1e-11)
        assert eigen_residual(g, m, tone.eigenfield, tone.gamma) <= 1e-4 * tone.gamma

    def test_shifted_gamma_raises_residual(self):
        g = make_grid(2, 49, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.8)
        tone = fundamental_tone(m, tol=1e-11)
        r = eigen_residual(g, m, tone.eigenfield, tone.gamma + 1.0)
        assert r >= 1.0 - 1e-3

    def test_random_field_positive(self):
        rng = np.random.default_rng(9)
        g = make_grid(2, 33, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.6)
        f = random_field(m, rng)
        assert eigen_residual(g, m, f, 100.0) > 0.0

    def test_vanishing_field_rejected(self):
        g = make_grid(2, 33, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.5)
        with pytest.raises(VanishingFieldError, match="^residual of a vanishing field$"):
            eigen_residual(g, m, make_field(m, np.zeros(g.shape)), 1.0)


class TestSPD:
    def test_positive_definite_on_random_fields(self):
        rng = np.random.default_rng(4)
        g = make_grid(2, 33, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.7)
        A, flat = _masked_bilap(m)
        for _ in range(50):
            u = random_field(m, rng).values.ravel()[flat]
            assert float(u @ (A @ u)) > 0.0


class TestGradientField:
    def test_constant_field_interior_zero(self):
        g = make_grid(2, 49, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.7)
        f = make_field(m, np.ones(g.shape))
        grad = gradient_field(f)
        interior = erode(erode(m)).inside
        assert np.allclose(grad[:, interior], 0.0)

    def test_linear_ramp_exact(self):
        g = make_grid(2, 49, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.7)
        x = g.axis_coords()[:, None] * np.ones(g.shape)
        a = 1.7
        f = make_field(m, a * x)
        grad = gradient_field(f)
        interior = erode(erode(m)).inside
        assert np.allclose(grad[0][interior], a, atol=1e-12)
        assert np.allclose(grad[1][interior], 0.0, atol=1e-12)

    @pytest.mark.parametrize("dim, n", [(2, 65), (3, 17)])
    def test_central_differences_of_the_zero_extension(self, dim, n):
        # bit for bit the interior central differences of the field padded
        # by one layer of zeros
        rng = np.random.default_rng(dim)
        g = make_grid(dim, n, 1.0)
        m = mask_from_array(g, rng.random(g.shape) < 0.7)
        f = make_field(m, rng.standard_normal(g.shape))
        padded = np.gradient(np.pad(f.values, 1), g.spacing)
        expected = np.stack([d[(slice(1, -1),) * dim] for d in padded])
        assert np.array_equal(gradient_field(f), expected)

    def test_eigenfield_gradient_decays_at_boundary(self):
        # |grad u| on the free-boundary ring shrinks roughly like h under
        # refinement, the discrete footprint of the clamped condition
        ratios = []
        for n in (65, 129):
            g = make_grid(2, n, 1.0)
            m = ball_mask(g, (0.0, 0.0), 0.8)
            tone = fundamental_tone(m, tol=1e-9)
            grad = gradient_field(tone.eigenfield)
            mag = np.sqrt(np.sum(grad * grad, axis=0))
            from platetone.field_grid import boundary_nodes

            ring = boundary_nodes(m)
            ratios.append(float(mag[ring].max()) / float(mag.max()))
        assert ratios[1] <= 0.75 * ratios[0]


class TestFieldSerialization:
    def test_fld_round_trip(self, tmp_path):
        g = make_grid(2, 33, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.6)
        tone = fundamental_tone(m, tol=1e-8)
        path = tmp_path / "f.fld"
        save_field_fld(tone.eigenfield, path)
        again = load_field_fld(path)
        assert again.grid == g
        assert np.array_equal(again.values, tone.eigenfield.values)

    def test_fld_loads_the_support_of_the_values(self, tmp_path):
        # FLD1 has no membership bytes: a member holding exactly 0.0 loads
        # as a non-member
        g = make_grid(2, 33, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.6)
        values = np.where(m.inside, 1.0, 0.0)
        values[16, 16] = 0.0
        path = tmp_path / "f.fld"
        save_field_fld(make_field(m, values), path)
        again = load_field_fld(path)
        assert np.count_nonzero(m.inside) == 293
        assert np.count_nonzero(again.mask.inside) == 292
        assert np.array_equal(again.mask.inside, values != 0.0)
        assert np.array_equal(again.values, values)

    def test_fld_header(self, tmp_path):
        g = make_grid(2, 33, 2.0)
        m = ball_mask(g, (0.0, 0.0), 0.6)
        f = make_field(m, np.where(m.inside, 1.5, 0.0))
        path = tmp_path / "f.fld"
        save_field_fld(f, path)
        blob = path.read_bytes()
        assert blob[:4] == b"FLD1"
        assert len(blob) == 32 + 8 * 33 * 33

    def test_csv_dump(self, tmp_path):
        g = make_grid(2, 9, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.6)
        f = make_field(m, np.where(m.inside, 2.0, 0.0))
        path = tmp_path / "f.csv"
        save_field_csv(f, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "index,x,y,value"
        assert len(lines) == 1 + 81
        row = lines[1].split(",")
        assert int(row[0]) == 0
        assert float(row[1]) == -1.0 and float(row[2]) == -1.0
