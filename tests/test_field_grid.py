import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import platetone
from platetone.field_grid import (
    Mask,
    ball_mask,
    boundary_nodes,
    connected_components,
    dilate,
    erode,
    face_neighbours,
    fill_holes,
    inside_ball,
    load_field_fld,
    load_mask_msk,
    load_mask_pgm,
    make_field,
    make_grid,
    mask_from_array,
    mask_volume,
    member_positions,
    save_field_fld,
    save_mask_msk,
    save_mask_pgm,
)


class TestMakeGrid:
    def test_spacing_2d(self):
        g = make_grid(2, 65, 1.0)
        assert g.spacing == pytest.approx(0.03125)
        assert g.shape == (65, 65)

    def test_spacing_3d(self):
        g = make_grid(3, 33, 2.0)
        assert g.spacing == pytest.approx(0.125)
        assert g.node_count == 33 ** 3

    def test_rejects_even_nodes(self):
        with pytest.raises(ValueError):
            make_grid(2, 8, 1.0)

    def test_rejects_small_or_bad_dims(self):
        with pytest.raises(ValueError):
            make_grid(2, 7, 1.0)
        with pytest.raises(ValueError):
            make_grid(4, 33, 1.0)
        with pytest.raises(ValueError):
            make_grid(1, 33, 1.0)
        with pytest.raises(ValueError):
            make_grid(2, 33, -1.0)

    def test_center_is_node(self):
        g = make_grid(2, 9, 1.0)
        assert 0.0 in g.axis_coords()

    def test_box_contains_all_nodes(self):
        g = make_grid(2, 9, 2.5)
        c = g.axis_coords()
        assert c[0] == -2.5 and c[-1] == 2.5


class TestBallMask:
    def test_zero_radius_is_empty(self):
        g = make_grid(2, 33, 1.0)
        assert ball_mask(g, (0.0, 0.0), 0.0).is_empty

    def test_disk_volume_against_area(self):
        # node count vs analytic area, boundary-layer bound ~ 2 h perimeter
        g = make_grid(2, 129, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.5)
        analytic = math.pi * 0.25
        assert abs(mask_volume(m) - analytic) <= 2.0 * g.spacing * math.pi

    def test_volume_converges(self):
        g = make_grid(2, 257, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.5)
        assert mask_volume(m) == pytest.approx(math.pi / 4.0, rel=0.01)

    def test_huge_radius_clips_to_reference_ball(self):
        g = make_grid(2, 33, 1.0)
        m = ball_mask(g, (0.0, 0.0), 2.0 * g.radius_B)
        assert np.array_equal(m.inside, inside_ball(g))

    def test_members_strictly_inside_ball(self):
        g = make_grid(2, 33, 1.0)
        m = ball_mask(g, (0.5, 0.0), 0.9)
        pts = member_positions(m)
        assert np.all(np.linalg.norm(pts, axis=1) < g.radius_B)

    def test_rejects_center_outside_box(self):
        g = make_grid(2, 33, 1.0)
        with pytest.raises(ValueError):
            ball_mask(g, (2.0, 0.0), 0.1)
        with pytest.raises(ValueError):
            ball_mask(g, (0.0, 0.0), -0.5)

    @pytest.mark.parametrize("center, radius, message", [
        ((math.nan, 0.0), 0.5, r"^center \[nan, 0.0\] lies outside the bounding box$"),
        ((0.0, math.nan), 0.5, r"^center \[0.0, nan\] lies outside the bounding box$"),
        ((0.0, 0.0), math.nan, "^radius must be nonnegative, got nan$"),
    ], ids=["center_x", "center_y", "radius"])
    def test_rejects_nan(self, center, radius, message):
        with pytest.raises(ValueError, match=message):
            ball_mask(make_grid(2, 33, 1.0), center, radius)

    def test_infinite_radius_is_the_whole_ball(self):
        g = make_grid(2, 33, 1.0)
        assert np.array_equal(ball_mask(g, (0.0, 0.0), math.inf).inside, inside_ball(g))

    @pytest.mark.parametrize("center", [(0.0,), (0.0, 0.0, 0.0)], ids=["short", "long"])
    def test_rejects_a_center_of_another_dimension(self, center):
        with pytest.raises(ValueError, match="^center must have 2 components$"):
            ball_mask(make_grid(2, 33, 1.0), center, 0.5)


class TestMaskVolume:
    def test_empty_is_zero(self):
        g = make_grid(2, 33, 1.0)
        assert mask_volume(ball_mask(g, (0.0, 0.0), 0.0)) == 0.0

    def test_single_node(self):
        g = make_grid(2, 21, 1.0)     # h = 0.1
        arr = np.zeros(g.shape, dtype=bool)
        arr[10, 10] = True
        assert mask_volume(mask_from_array(g, arr)) == pytest.approx(0.01)


class TestConnectedComponents:
    def test_empty(self):
        g = make_grid(2, 33, 1.0)
        count, _ = connected_components(ball_mask(g, (0.0, 0.0), 0.0))
        assert count == 0

    def test_two_disks(self):
        g = make_grid(2, 65, 1.0)
        m1 = ball_mask(g, (-0.5, 0.0), 0.2)
        m2 = ball_mask(g, (0.5, 0.0), 0.2)
        both = mask_from_array(g, m1.inside | m2.inside)
        count, labels = connected_components(both)
        assert count == 2
        assert labels.max() == 2

    def test_annulus_connected_in_2d(self):
        g = make_grid(2, 65, 1.0)
        outer = ball_mask(g, (0.0, 0.0), 0.8)
        inner = ball_mask(g, (0.0, 0.0), 0.4)
        ann = mask_from_array(g, outer.inside & ~inner.inside)
        count, _ = connected_components(ann)
        assert count == 1

    def test_diagonal_neighbors_are_separate(self):
        # face adjacency only: a diagonal pair is two components
        g = make_grid(2, 33, 1.0)
        arr = np.zeros(g.shape, dtype=bool)
        arr[10, 10] = True
        arr[11, 11] = True
        count, _ = connected_components(mask_from_array(g, arr))
        assert count == 2

    def test_disjoint_union_count(self):
        g = make_grid(2, 65, 1.0)
        a = ball_mask(g, (-0.5, -0.5), 0.15)
        b = ball_mask(g, (0.5, 0.5), 0.15)
        ca, _ = connected_components(a)
        cb, _ = connected_components(b)
        cu, _ = connected_components(mask_from_array(g, a.inside | b.inside))
        assert cu <= ca + cb


class TestMorphology:
    def test_erode_single_node_empty(self):
        g = make_grid(2, 33, 1.0)
        arr = np.zeros(g.shape, dtype=bool)
        arr[16, 16] = True
        assert erode(mask_from_array(g, arr)).is_empty

    def test_dilate_empty_is_empty(self):
        g = make_grid(2, 33, 1.0)
        assert dilate(ball_mask(g, (0.0, 0.0), 0.0)).is_empty

    def test_closing_contains_original(self):
        g = make_grid(2, 65, 1.0)
        m = ball_mask(g, (0.1, -0.2), 0.3)
        closed = erode(dilate(m))
        assert np.all(closed.inside[m.inside])

    def test_volume_ordering_random_masks(self):
        rng = np.random.default_rng(11)
        g = make_grid(2, 49, 1.0)
        for _ in range(20):
            arr = rng.random(g.shape) < 0.35
            m = mask_from_array(g, arr)
            assert mask_volume(dilate(m)) >= mask_volume(m) >= mask_volume(erode(m))

    def test_all_results_stay_inside_ball(self):
        g = make_grid(2, 49, 1.0)
        m = ball_mask(g, (0.0, 0.0), 2.0 * g.radius_B)    # hugs the rim
        for candidate in (dilate(m), erode(m)):
            pts = member_positions(candidate)
            if pts.size:
                assert np.all(np.linalg.norm(pts, axis=1) < g.radius_B)


class TestFillHoles:
    @pytest.mark.parametrize("dim, n", [(2, 65), (3, 25)])
    def test_annulus_fills_to_its_outer_ball(self, dim, n):
        g = make_grid(dim, n, 1.0)
        outer = ball_mask(g, (0.0,) * dim, 0.8)
        inner = ball_mask(g, (0.0,) * dim, 0.4)
        ring = mask_from_array(g, outer.inside & ~inner.inside)
        assert fill_holes(ring) == outer

    def test_disk_and_open_c_shape_have_no_hole(self):
        g = make_grid(2, 65, 1.0)
        disk = ball_mask(g, (0.0, 0.0), 0.8)
        assert fill_holes(disk) is None
        x, y = np.meshgrid(g.axis_coords(), g.axis_coords(), indexing="ij")
        gap = (x > 0.0) & (np.abs(y) < 0.1)
        inner = ball_mask(g, (0.0, 0.0), 0.4)
        c_shape = mask_from_array(g, disk.inside & ~inner.inside & ~gap)
        assert fill_holes(c_shape) is None
        assert fill_holes(ball_mask(g, (0.0, 0.0), 0.0)) is None

    def test_ring_inside_the_hole_of_a_ring(self):
        g = make_grid(2, 65, 1.0)
        disks = [ball_mask(g, (0.0, 0.0), r).inside for r in (0.9, 0.6, 0.4, 0.2)]
        rings = mask_from_array(g, (disks[0] & ~disks[1]) | (disks[2] & ~disks[3]))
        assert connected_components(rings)[0] == 2
        assert fill_holes(rings) == ball_mask(g, (0.0, 0.0), 0.9)

    @pytest.mark.parametrize("dim, n", [(2, 17), (3, 11)])
    def test_matches_the_reference_ball_definition(self, dim, n):
        # a hole is a component of (B minus the mask) that does not meet the
        # reference ball's outermost ring of nodes
        g = make_grid(dim, n, 1.0)
        ball = inside_ball(g)
        rim = boundary_nodes(mask_from_array(g, ball))
        rng = np.random.default_rng(n)
        outcomes = set()
        for _ in range(200):
            m = mask_from_array(g, rng.random(g.shape) < rng.uniform(0.3, 0.95))
            _, labels = connected_components(mask_from_array(g, ball & ~m.inside))
            outside = np.unique(labels[rim & ~m.inside])
            holes = (labels > 0) & ~np.isin(labels, outside)
            got = fill_holes(m)
            if holes.any():
                assert got == mask_from_array(g, m.inside | holes)
            else:
                assert got is None
            outcomes.add(got is None)
        assert outcomes == {True, False}


class TestMatchesNdimage:
    """The shift and graph versions reproduce scipy.ndimage's face-structure
    dilation, erosion (border_value=0) and labelling, which the package
    no longer imports."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_masks(self, dim):
        ndimage = pytest.importorskip("scipy.ndimage")
        structure = ndimage.generate_binary_structure(dim, 1)
        rng = np.random.default_rng(dim)
        for _ in range(150):
            g = make_grid(dim, int(rng.choice([9, 11, 17])), 1.0)
            arr = rng.random(g.shape) < rng.uniform(0.05, 0.95)
            # a raw Mask reaches the lattice's border, where erosion must
            # treat the nodes beyond as non-members
            for m in (mask_from_array(g, arr), Mask(g, arr)):
                grown = ndimage.binary_dilation(m.inside, structure=structure)
                assert np.array_equal(dilate(m).inside, grown & inside_ball(g))
                kept = ndimage.binary_erosion(m.inside, structure=structure,
                                              border_value=0)
                assert np.array_equal(erode(m).inside, kept & inside_ball(g))
                labels, count = ndimage.label(m.inside, structure=structure)
                got_count, got_labels = connected_components(m)
                assert got_count == count
                assert np.array_equal(got_labels, labels)

    def test_import_leaves_ndimage_out(self):
        src = str(Path(platetone.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys, platetone, platetone.cli; "
                "print('scipy.ndimage' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"


class TestFaceNeighbours:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("dtype, fill", [(bool, 0), (np.int64, -1), (float, 0), (float, 2.5)])
    def test_matches_np_pad(self, dim, dtype, fill):
        # the views of one preallocated padded copy equal the shifted slices
        # of np.pad's copy, bool (dilate, erode), int with fill -1 (_label)
        # and float (the gradient, the Laplacian)
        rng = np.random.default_rng(dim)
        values = (rng.standard_normal((7, 9, 5)[:dim]) * 10).astype(dtype)
        padded = np.pad(values, 1, constant_values=fill)
        expected = []
        for ax in range(dim):
            for start in (2, 0):
                shift = [slice(1, -1)] * dim
                shift[ax] = slice(start, start + values.shape[ax])
                expected.append(padded[tuple(shift)])
        views = list(face_neighbours(values, fill))
        assert len(views) == 2 * dim
        for view, want in zip(views, expected):
            assert view.dtype == values.dtype and np.array_equal(view, want)


class TestBoundaryNodes:
    def test_single_node_is_its_own_boundary(self):
        g = make_grid(2, 33, 1.0)
        arr = np.zeros(g.shape, dtype=bool)
        arr[16, 16] = True
        m = mask_from_array(g, arr)
        assert np.array_equal(boundary_nodes(m), m.inside)

    def test_disk_boundary_is_one_ring(self):
        g = make_grid(2, 33, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.5)
        b = boundary_nodes(m)
        # direct enumeration: members with a non-member face neighbor
        expect = np.zeros(g.shape, dtype=bool)
        ins = m.inside
        for i in range(33):
            for j in range(33):
                if not ins[i, j]:
                    continue
                nbrs = []
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    a, b2 = i + di, j + dj
                    nbrs.append(ins[a, b2] if 0 <= a < 33 and 0 <= b2 < 33 else False)
                expect[i, j] = not all(nbrs)
        assert np.array_equal(b, expect)

    def test_full_ball_mask_boundary_near_rim(self):
        g = make_grid(2, 65, 1.0)
        m = ball_mask(g, (0.0, 0.0), 2.0 * g.radius_B)
        b = boundary_nodes(m)
        pts = np.argwhere(b) * g.spacing - g.radius_B
        radii = np.linalg.norm(pts, axis=1)
        assert radii.min() > g.radius_B - 3.0 * g.spacing


class TestScalarField:
    def test_zero_outside_mask_enforced(self):
        g = make_grid(2, 33, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.3)
        f = make_field(m, np.ones(g.shape))
        assert np.all(f.values[~m.inside] == 0.0)
        assert np.all(f.values[m.inside] == 1.0)

    def test_rejects_nonfinite(self):
        g = make_grid(2, 33, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.3)
        vals = np.ones(g.shape)
        vals[16, 16] = np.nan
        with pytest.raises(ValueError):
            make_field(m, vals)

    def test_rejects_values_of_another_shape(self):
        g = make_grid(2, 33, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.3)
        with pytest.raises(ValueError,
                           match=r"^value shape \(33, 17\) does not match grid \(33, 33\)$"):
            make_field(m, np.ones((33, 17)))

    def test_mask_from_array_rejects_another_shape(self):
        g = make_grid(2, 33, 1.0)
        with pytest.raises(ValueError, match=r"^array shape \(33, 33, 1\) does not match grid"):
            mask_from_array(g, np.ones((33, 33, 1), dtype=bool))


class TestSerialization:
    def test_pgm_round_trip(self, tmp_path):
        g = make_grid(2, 33, 1.0)
        m = ball_mask(g, (0.1, 0.2), 0.4)
        path = tmp_path / "m.pgm"
        save_mask_pgm(m, path)
        again = load_mask_pgm(path, g)
        assert again == m

    def test_pgm_header_bytes(self, tmp_path):
        g = make_grid(2, 33, 1.0)
        m = ball_mask(g, (0.0, 0.0), 0.4)
        path = tmp_path / "m.pgm"
        save_mask_pgm(m, path)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n33 33\n255\n")
        body = blob.split(b"\n", 3)[3]
        assert set(body) <= {0, 255}

    def test_pgm_rejects_3d(self, tmp_path):
        g = make_grid(3, 17, 1.0)
        m = ball_mask(g, (0.0, 0.0, 0.0), 0.4)
        with pytest.raises(ValueError):
            save_mask_pgm(m, tmp_path / "m.pgm")

    # one byte more or fewer than w * h; a trailing byte used to be ignored
    # and a short payload to fail in numpy's reshape
    @pytest.mark.parametrize("edit", [lambda blob: blob + b"\xff", lambda blob: blob[:-1]],
                             ids=["long", "short"])
    def test_pgm_rejects_a_payload_of_the_wrong_size(self, tmp_path, edit):
        g = make_grid(2, 17, 1.0)
        path = tmp_path / "m.pgm"
        save_mask_pgm(ball_mask(g, (0.0, 0.0), 0.4), path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ValueError, match="^payload size does not match the header geometry$"):
            load_mask_pgm(path, g)

    @pytest.mark.parametrize("edit, message", [
        (lambda blob: b"P2" + blob[2:], "^not a binary PGM produced by save_mask_pgm$"),
        (lambda blob: blob.replace(b"\n255\n", b"\n1\n", 1), "^unexpected maxval$"),
    ], ids=["not-P5", "maxval"])
    def test_pgm_rejects_another_header(self, tmp_path, edit, message):
        g = make_grid(2, 17, 1.0)
        path = tmp_path / "m.pgm"
        save_mask_pgm(ball_mask(g, (0.0, 0.0), 0.4), path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ValueError, match=message):
            load_mask_pgm(path, g)

    def test_pgm_rejects_another_grid(self, tmp_path):
        path = tmp_path / "m.pgm"
        save_mask_pgm(ball_mask(make_grid(2, 17, 1.0), (0.0, 0.0), 0.4), path)
        for other in (make_grid(2, 33, 1.0), make_grid(3, 17, 1.0)):
            with pytest.raises(ValueError, match="^PGM dimensions do not match the grid$"):
                load_mask_pgm(path, other)

    def test_msk_round_trip_3d(self, tmp_path):
        g = make_grid(3, 17, 1.5)
        m = ball_mask(g, (0.0, 0.1, 0.0), 0.7)
        path = tmp_path / "m.msk"
        save_mask_msk(m, path)
        again = load_mask_msk(path)
        assert again.grid == g
        assert again == m

    def test_msk_header_layout(self, tmp_path):
        g = make_grid(2, 33, 1.25)
        m = ball_mask(g, (0.0, 0.0), 0.5)
        path = tmp_path / "m.msk"
        save_mask_msk(m, path)
        blob = path.read_bytes()
        assert blob[:4] == b"MSK1"
        assert int.from_bytes(blob[4:8], "little") == 2
        assert int.from_bytes(blob[8:12], "little") == 33
        assert np.frombuffer(blob[12:20], dtype="<f8")[0] == 1.25
        assert len(blob) == 32 + 33 * 33

    @pytest.mark.parametrize("edit", ["other_magic", "short_header", "short_payload",
                                      "long_payload"])
    @pytest.mark.parametrize("fmt", ["msk", "fld"])
    def test_lattice_file_rejections(self, tmp_path, fmt, edit):
        g = make_grid(3, 9, 1.0)
        mask = ball_mask(g, (0.0, 0.0, 0.0), 0.6)
        path = tmp_path / f"lattice.{fmt}"
        if fmt == "msk":
            save_mask_msk(mask, path)
            load, magic, other = load_mask_msk, b"MSK1", b"FLD1"
        else:
            save_field_fld(make_field(mask, np.where(mask.inside, 1.5, 0.0)), path)
            load, magic, other = load_field_fld, b"FLD1", b"MSK1"
        blob = path.read_bytes()
        size = "^payload size does not match the header geometry$"
        edited, message = {
            "other_magic": (other + blob[4:],
                            "^" + re.escape(f"bad magic {other!r}, expected {magic!r}") + "$"),
            "short_header": (blob[:31], "^truncated header$"),
            "short_payload": (blob[:-1], size),
            "long_payload": (blob + b"\x00", size),
        }[edit]
        path.write_bytes(edited)
        with pytest.raises(ValueError, match=message):
            load(path)
