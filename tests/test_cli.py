import dataclasses
import math
import re
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from platetone.cli import (
    _CONFIG_PARSERS,
    ConfigError,
    build_parser,
    load_config,
    main,
    summary_lines,
)
from platetone.constants import MAX_DIM, compute_constants, eps1, oracle_gap
from platetone.diagnostics import run_diagnostics
from platetone.field_grid import (
    ball_mask,
    load_field_fld,
    load_mask_pgm,
    make_field,
    make_grid,
    mask_from_array,
)
from platetone.search import RunConfig, optimize


MINIMAL = "# minimal run\n"
OMEGA0 = math.pi / 4

QUICK = """
# quick profile for tests
dim = 2
nodes_per_side = 49
radius_B = 1.5
omega0 = 0.78539816339744828
penalty_variant = plain
init_shape = square
max_steps = 20
seed = 3
"""


def accepted_steps(out):
    """Step numbers of the accepted trace rows, each lattice's start row
    (its first row) excluded."""
    rows = [row.split(",") for row in (out / "trace.csv").read_text().splitlines()[1:]]
    return [int(parts[0]) for prev, parts in zip(rows, rows[1:])
            if parts[5] == "1" and parts[6] == prev[6]]


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadConfig:
    def test_minimal_file_gives_defaults(self, tmp_path):
        config = load_config(write(tmp_path, MINIMAL))
        assert config == RunConfig()

    def test_round_trip_from_echo(self, tmp_path):
        from platetone.cli import config_echo_lines

        config = load_config(write(tmp_path, QUICK))
        # numpy scalars echo at 17 digits too: np.float32(0.7) was echoed as
        # 0.7, which reloads as another omega0 (though it compares equal to
        # the np.float32), and np.True_ as True
        numpy_scalars = dataclasses.replace(
            config, omega0=np.float32(0.7), eps=np.float32(1e-5),
            eps_override=np.True_, seed=np.int64(3))
        for config in (config, numpy_scalars):
            echo = config_echo_lines(config)
            echoed = load_config(write(tmp_path, "\n".join(echo), "echo.cfg"))
            assert echoed == config
            assert config_echo_lines(echoed) == echo

    def test_parsers_cover_every_field_in_order(self):
        names = [f.name for f in dataclasses.fields(RunConfig)]
        assert list(_CONFIG_PARSERS) == names

    def test_unknown_key_rejected_with_line(self, tmp_path):
        path = write(tmp_path, "dim = 2\nshape = disk\n")
        with pytest.raises(ConfigError, match=r":2"):
            load_config(path)
        # the solve tolerance is a RunConfig class constant, not a key
        path = write(tmp_path, "dim = 2\ntone_tol = 1e-8\n")
        with pytest.raises(ConfigError, match=r":2: unknown key 'tone_tol'"):
            load_config(path)

    def test_negative_omega0_rejected(self, tmp_path):
        path = write(tmp_path, "omega0 = -1.0\n")
        with pytest.raises(ConfigError, match="omega0"):
            load_config(path)

    def test_eps_above_threshold_rejected(self, tmp_path):
        path = write(tmp_path, "eps = 0.5\n")
        with pytest.raises(ConfigError, match="threshold"):
            load_config(path)

    def test_eps_override_accepted(self, tmp_path):
        path = write(tmp_path, "eps = 0.5\neps_override = true\n")
        config = load_config(path)
        assert config.eps == 0.5

    @pytest.mark.parametrize("word", ["TRUE", "Yes", "1", "false", "No", "0"])
    def test_eps_override_words(self, tmp_path, word):
        config = load_config(write(tmp_path, f"eps_override = {word}\n"))
        assert config.eps_override is (word.lower() in ("true", "yes", "1"))

    def test_eps_override_typo_rejected_with_line(self, tmp_path):
        path = write(tmp_path, "eps = 1.0\neps_override = ture\n")
        with pytest.raises(ConfigError, match=r":2: bad value for eps_override"):
            load_config(path)

    def test_readme_config_block_is_the_defaults(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Config format", 1)[1]
        block = section.split("```\n", 2)[1]
        config = load_config(write(tmp_path, block))
        assert config == RunConfig()
        keys = [ln.split("=", 1)[0].strip() for ln in block.splitlines()]
        assert keys == [f.name for f in dataclasses.fields(RunConfig)]

    def test_malformed_line_rejected(self, tmp_path):
        path = write(tmp_path, "dim 2\n")
        with pytest.raises(ConfigError, match=r":1"):
            load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write(tmp_path, "dim = 2\ndim = 3\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(path)

    def test_unparsable_value_rejected_with_line(self, tmp_path):
        path = write(tmp_path, "nodes_per_side = 33\ndim = two\n")
        with pytest.raises(ConfigError, match=r":2: bad value for dim"):
            load_config(path)


class TestRunCommand:
    def test_quick_profile_budget(self, tmp_path):
        import time

        cfg = write(tmp_path, "nodes_per_side = 65\ninit_shape = disk\nmax_steps = 5\n",
                    name="quick65.cfg")
        out = tmp_path / "quick65"
        t0 = time.perf_counter()
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        elapsed = time.perf_counter() - t0
        assert code in (0, 2)
        assert elapsed < 30.0

    def test_3d_run_writes_msk(self, tmp_path):
        cfg = write(tmp_path, "dim = 3\nnodes_per_side = 17\nradius_B = 1.2\n"
                              "omega0 = 0.5\nmax_steps = 8\n",
                    name="run3d.cfg")
        out = tmp_path / "out3d"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code in (0, 2)
        assert (out / "mask_final.msk").exists()
        from platetone.field_grid import load_mask_msk

        mask = load_mask_msk(out / "mask_final.msk")
        assert mask.grid.dim == 3 and not mask.is_empty

    def test_quick_run_artifacts_and_exit_code(self, tmp_path):
        cfg = write(tmp_path, QUICK)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        for name in ("config_echo.txt", "trace.csv", "summary.txt",
                     "mask_final.pgm", "field_final.fld", "field_final.csv"):
            assert (out / name).exists(), name
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == "step,gamma,volume,penalty,J,accepted,nodes_per_side"

    def test_trace_schema_and_flags(self, tmp_path):
        cfg = write(tmp_path, QUICK)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        assert rows
        for row in rows:
            parts = row.split(",")
            assert len(parts) == 7
            int(parts[0])
            for tok in parts[1:5]:
                float(tok)
            assert parts[5] in ("0", "1")
            assert parts[6] == "49"

    def test_rerun_with_same_seed_is_byte_identical(self, tmp_path):
        cfg = write(tmp_path, QUICK)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        main(["run", "--config", str(cfg), "--out", str(out1)])
        main(["run", "--config", str(cfg), "--out", str(out2)])
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "summary.txt").read_text().splitlines() != []
        assert (out1 / "mask_final.pgm").read_bytes() == (out2 / "mask_final.pgm").read_bytes()

    def test_snapshot_every_step_writes_masks(self, tmp_path):
        cfg = write(tmp_path, QUICK + "snapshot_every = 1\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        steps = accepted_steps(out)
        names = sorted(p.name for p in out.glob("mask_step*.pgm"))
        assert steps and names == [f"mask_step{s:06d}.pgm" for s in steps]

    def test_existing_dir_without_force_fails(self, tmp_path):
        cfg = write(tmp_path, QUICK)
        out = tmp_path / "out"
        out.mkdir()
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 1

    def test_force_overwrites(self, tmp_path):
        cfg = write(tmp_path, QUICK)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out), "--force"]) == 0

    def test_force_removes_stale_snapshots(self, tmp_path):
        cfg = write(tmp_path, QUICK + "snapshot_every = 1\n")
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        (out / "notes.txt").write_text("kept\n")
        short = write(tmp_path, QUICK.replace("max_steps = 20", "max_steps = 3")
                      + "snapshot_every = 1\n", name="short.cfg")
        main(["run", "--config", str(short), "--out", str(out), "--force"])
        steps = accepted_steps(out)
        names = sorted(p.name for p in out.glob("mask_step*.pgm"))
        assert names == [f"mask_step{s:06d}.pgm" for s in steps]
        assert (out / "notes.txt").read_text() == "kept\n"

    def test_summary_lists_the_single_level(self, tmp_path):
        cfg = write(tmp_path, QUICK)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        assert "result.levels = 49" in (out / "summary.txt").read_text().splitlines()

    def test_two_level_run_artifacts(self, tmp_path):
        # N=129 descends on N=65 first: the trace names both lattices, the
        # summary lists them, and snapshots carry their own lattice's size
        cfg = write(tmp_path, QUICK.replace("nodes_per_side = 49", "nodes_per_side = 129")
                    .replace("max_steps = 20", "max_steps = 300") + "snapshot_every = 1\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [row.split(",") for row in (out / "trace.csv").read_text().splitlines()[1:]]
        assert [parts[6] for parts in rows] == sorted((parts[6] for parts in rows), key=int)
        assert {parts[6] for parts in rows} == {"65", "129"}
        assert "result.levels = 65,129" in (out / "summary.txt").read_text().splitlines()
        first = int(next(parts[0] for parts in rows[1:] if parts[5] == "1"))
        assert (out / f"mask_step{first:06d}.pgm").read_bytes().startswith(b"P5\n65 65\n")
        assert (out / "mask_final.pgm").read_bytes().startswith(b"P5\n129 129\n")

    def test_two_level_snapshots_count_across_lattices(self, tmp_path):
        # every seventh accepted step, counted on both lattices together: the
        # coarse lattice's count (12 of 14) is not a multiple of 7, so a count
        # restarted on the fine lattice would pick other steps
        cfg = write(tmp_path, QUICK.replace("nodes_per_side = 49", "nodes_per_side = 129")
                    .replace("max_steps = 20", "max_steps = 300") + "snapshot_every = 7\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        steps = accepted_steps(out)
        rows = [row.split(",") for row in (out / "trace.csv").read_text().splitlines()[1:]]
        fine_start = int(next(parts[0] for parts in rows if parts[6] == "129"))
        assert sum(s <= fine_start for s in steps) % 7 != 0
        names = sorted(p.name for p in out.glob("mask_step*.pgm"))
        assert names == [f"mask_step{s:06d}.pgm" for s in steps[6::7]]
        sizes = {(out / name).read_bytes().split(b"\n")[1] for name in names}
        assert sizes == {b"65 65", b"129 129"}

    def test_max_steps_exit_code(self, tmp_path):
        cfg = write(tmp_path, QUICK.replace("max_steps = 20", "max_steps = 2"),
                    name="short.cfg")
        out = tmp_path / "short_out"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 2

    def test_bad_config_exit_code(self, tmp_path):
        cfg = write(tmp_path, "omega0 = -3\n")
        assert main(["run", "--config", str(cfg)]) == 1

    def test_solver_failure_is_clean_error(self, tmp_path, monkeypatch, capsys):
        # a real restart exhaustion: the mirrored disks of the biharmonic
        # tests, solved with a budget of one Lanczos restart
        from platetone import biharmonic, cli

        def fail(config, on_accept=None):
            g = make_grid(2, 49, 1.0)
            left = ball_mask(g, (-0.5, 0.0), 0.4).inside
            biharmonic.fundamental_tone(mask_from_array(g, left | left[::-1, :]), tol=1e-14)

        monkeypatch.setattr(biharmonic, "MAX_RESTARTS", 1)
        monkeypatch.setattr(cli, "optimize", fail)
        cfg = write(tmp_path, QUICK)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: ARPACK did not converge in 1 restarts\n"

    # numpy's message for the 2D lattice of a config holding only
    # nodes_per_side = 1000003; a MemoryError raised by Python itself has none
    @pytest.mark.parametrize("message", [
        "Unable to allocate 7.28 TiB for an array with shape (1000003, 1000003) "
        "and data type float64",
        "",
    ], ids=["numpy", "bare"])
    def test_out_of_memory_is_clean_error(self, tmp_path, monkeypatch, capsys, message):
        from platetone import cli

        def fail(config, on_accept=None):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "optimize", fail)
        cfg = write(tmp_path, "nodes_per_side = 1000003\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message or 'MemoryError'}\n"
        assert not out.exists()

    def test_start_past_the_ball_names_its_fields(self, tmp_path, capsys):
        # the square of volume 5 reaches 1.58 from the center, past radius_B
        # = 1.5, though 5 < |B| = 7.07
        cfg = write(tmp_path, "nodes_per_side = 33\ninit_shape = square\nomega0 = 5\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: init_shape square: the start of volume omega0=5.0 does not fit in the "
            "reference ball of radius_B=1.5; lower omega0 or raise radius_B\n")
        assert not out.exists()

    def test_summary_contains_constants_and_diagnostics(self, tmp_path):
        cfg = write(tmp_path, QUICK)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        text = (out / "summary.txt").read_text()
        for token in ("constants.gamma_b1", "constants.eps1", "constants.alpha0",
                      "diagnostics.component_count", "diagnostics.doubling_sigma",
                      "result.gamma", "result.termination"):
            assert token in text, token

    def test_summary_diagnostics_equal_run_diagnostics(self, tmp_path):
        # the run's final mask and eigenfield, read back from its artifacts
        # (the mask from its PGM: FLD1 keeps only the support of the values)
        cfg = write(tmp_path, QUICK)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        config = load_config(cfg)
        grid = make_grid(config.dim, config.nodes_per_side, config.radius_B)
        mask = load_mask_pgm(out / "mask_final.pgm", grid)
        field = make_field(mask, load_field_fld(out / "field_final.fld").values)
        rep = run_diagnostics(field, config.omega0)
        lines = (out / "summary.txt").read_text().splitlines()
        summary = dict(line.split(" = ", 1) for line in lines)
        assert summary["diagnostics.nondegeneracy_c1"] == format(rep.nondegeneracy_c1, ".17g")
        assert summary["diagnostics.component_count"] == str(rep.component_count)

    def test_summary_diagnostics_are_the_four_statistics(self, tmp_path):
        # the component count, the doubling ratio, c1 and one density line
        # per probe radius; no statistic that reads the same on every run
        cfg = write(tmp_path, QUICK)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        keys = [line.split(" = ", 1)[0]
                for line in (out / "summary.txt").read_text().splitlines()
                if line.startswith("diagnostics.")]
        assert keys[:3] == ["diagnostics.component_count", "diagnostics.doubling_sigma",
                            "diagnostics.nondegeneracy_c1"]
        assert len(keys) > 3
        assert all(re.fullmatch(r"diagnostics\.density_min\[[0-9.e+-]+\]", k) for k in keys[3:])

    # the final volume against omega0: at or under it at the default eps,
    # above it at 0.8 eps1 (TestOptimize measures both on this disk)
    @pytest.mark.parametrize("eps_line, exact", [
        ("", "true"),
        (f"eps = {0.8 * eps1(2, OMEGA0)!r}\neps_override = true\n", "false"),
    ], ids=["default-eps", "eps-0.8-eps1"])
    def test_summary_states_whether_the_volume_is_exact(self, tmp_path, eps_line, exact):
        cfg = write(tmp_path, f"nodes_per_side = 33\nomega0 = {OMEGA0!r}\n" + eps_line)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        summary = dict(line.split(" = ", 1)
                       for line in (out / "summary.txt").read_text().splitlines())
        assert summary["result.volume_exact"] == exact
        assert (float(summary["result.volume"]) <= OMEGA0) == (exact == "true")

    # a numpy omega0 makes volume <= omega0 an np.bool_, which read "True",
    # and an np.float32 was echoed at its 8 digits
    def test_summary_formats_numpy_scalars(self):
        omega0 = np.float32(OMEGA0)
        result = optimize(RunConfig(nodes_per_side=17, omega0=omega0, max_steps=2))
        summary = dict(line.split(" = ", 1) for line in summary_lines(result))
        assert summary["config.omega0"] == format(float(omega0), ".17g")
        assert summary["result.volume_exact"] == str(bool(result.volume <= omega0)).lower()

    # an annulus between the lattice nodes: one error line naming the start
    def test_empty_start_is_one_error_line(self, tmp_path, capsys):
        cfg = write(tmp_path, "nodes_per_side = 17\ninit_shape = annulus\nomega0 = 0.02\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == ("error: init_shape annulus: the start of volume omega0=0.02 "
                                "covers no node of the lattice with nodes_per_side=17; "
                                "raise omega0 or nodes_per_side\n")

    # the failed run removes the directory it created, so a rerun of the
    # same command fails the same way instead of on the existing directory
    def test_failed_run_leaves_no_directory(self, tmp_path, capsys):
        cfg = write(tmp_path, "nodes_per_side = 17\ninit_shape = annulus\nomega0 = 0.02\n")
        out = tmp_path / "out"
        errors = []
        for _ in range(2):
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
            errors.append(capsys.readouterr().err)
            assert not out.exists()
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: init_shape annulus: ")

    def test_failed_forced_run_keeps_the_existing_directory(self, tmp_path):
        cfg = write(tmp_path, "nodes_per_side = 17\ninit_shape = annulus\nomega0 = 0.02\n")
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        assert main(["run", "--config", str(cfg), "--out", str(out), "--force"]) == 1
        assert (out / "notes.txt").read_text() == "kept\n"

    # a failed forced rerun used to leave the previous run's config echo,
    # trace and summary next to nothing of its masks and fields
    def test_failed_forced_run_leaves_no_run_files(self, tmp_path):
        out = tmp_path / "out"
        done = write(tmp_path, "nodes_per_side = 33\nmax_steps = 5\n", name="done.cfg")
        assert main(["run", "--config", str(done), "--out", str(out)]) in (0, 2)
        assert (out / "trace.csv").exists()
        (out / "notes.txt").write_text("kept\n")
        empty = write(tmp_path, "nodes_per_side = 17\ninit_shape = annulus\nomega0 = 0.02\n",
                      name="empty.cfg")
        assert main(["run", "--config", str(empty), "--out", str(out), "--force"]) == 1
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]

    # an interrupted forced run used to leave the snapshots it had written
    def test_interrupted_forced_run_leaves_no_snapshots(self, tmp_path, monkeypatch):
        def interrupted(config, on_accept):
            grid = make_grid(config.dim, config.nodes_per_side, config.radius_B)
            on_accept(SimpleNamespace(mask=ball_mask(grid, (0.0, 0.0), 0.5), step=1))
            assert list(out.glob("mask_step*"))
            raise KeyboardInterrupt

        monkeypatch.setattr("platetone.cli.optimize", interrupted)
        cfg = write(tmp_path, QUICK + "snapshot_every = 1\n")
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(KeyboardInterrupt):
            main(["run", "--config", str(cfg), "--out", str(out), "--force"])
        assert list(out.iterdir()) == []

    # an --out that is a file fails before the run, with or without --force;
    # a forced run used to optimize first and then fail on "Not a directory"
    @pytest.mark.parametrize("force", [[], ["--force"]], ids=["plain", "force"])
    def test_out_that_is_a_file_fails_before_the_run(self, tmp_path, capsys, monkeypatch,
                                                     force):
        def no_run(*args, **kwargs):
            raise AssertionError("optimize was called")

        monkeypatch.setattr("platetone.cli.optimize", no_run)
        cfg = write(tmp_path, QUICK)
        out = write(tmp_path, "kept\n", name="out")
        assert main(["run", "--config", str(cfg), "--out", str(out), *force]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: output path {out} exists and is not a directory\n"
        assert out.read_text() == "kept\n"


class TestInvalidRunConfig:
    @pytest.mark.parametrize("text, field", [
        ("radius_B = inf\n", "radius_B"),
        ("radius_B = nan\n", "radius_B"),
        ("eps = nan\n", "eps"),
        ("penalty_variant = rewarding\neps = inf\neps_override = true\n", "eps"),
        ("init_shape = random_blob\nseed = -1\n", "seed"),
    ], ids=["radius_B-inf", "radius_B-nan", "eps-nan", "eps-inf-rewarding", "seed-negative"])
    def test_error_names_the_field(self, tmp_path, capsys, text, field):
        cfg = write(tmp_path, text)
        with pytest.raises(ConfigError, match=f": {field}: must be"):
            load_config(cfg)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f": {field}: must be" in err
        assert not out.exists()


class TestConstantsCommand:
    def test_record_fields(self):
        record = compute_constants(2, math.pi / 4.0, 1e-4, 0.5).as_record()
        for key in ("omega_n", "gamma_b1", "gamma_b1_radial", "gamma_b1_bessel",
                    "oracle_rel_diff", "eps1", "eps0", "alpha0", "alpha0_residual"):
            assert key in record
        assert record["oracle_rel_diff"] <= 1e-6
        assert record["alpha0_residual"] <= 1e-10

    def test_rejects_dim_one(self):
        with pytest.raises(ValueError):
            compute_constants(1, 1.0, 1e-4).as_record()

    def test_cli_prints_record(self, capsys):
        code = main(["constants", "--dim", "2", "--omega0", "0.785", "--eps", "1e-4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "gamma_b1" in out and "eps1" in out

    def test_cli_dim_one_fails(self, capsys):
        code = main(["constants", "--dim", "1", "--omega0", "1.0", "--eps", "1e-4"])
        assert code == 1

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("option, value, field", [
        ("--omega0", "nan", "omega0"),
        ("--omega0", "inf", "omega0"),
        ("--eps", "nan", "eps"),
        ("--eps", "inf", "eps"),
        ("--radius-b", "nan", "radius_B"),
        ("--radius-b", "inf", "radius_B"),
        ("--radius-b", "-1.5", "radius_B"),
    ])
    def test_cli_invalid_input_names_the_field(self, capsys, dim, option, value, field):
        # the later option overrides the valid one before it
        code = main(["constants", "--dim", str(dim), "--omega0", "0.785", "--eps", "1e-4",
                     "--radius-b", "1.5", option, value])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(f"error: {field}: must be positive and finite, got ")

    # omega0 = 100 misses |B| = 4.93 of the unit ball in 4D; the record was
    # printed, because eps1_effective returned eps1 for n >= 4 before the
    # ball-fit rule
    def test_4d_omega0_past_the_ball_is_one_error_line(self, capsys):
        code = main(["constants", "--dim", "4", "--omega0", "100", "--eps", "1e-4",
                     "--radius-b", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: omega0: target volume does not fit ")
        assert captured.err.count("\n") == 1

    # eps1 underflows to zero (2D, omega0 1e-300) or overflows (3D, 1e308);
    # these ended in a ZeroDivisionError or OverflowError traceback.  Past
    # eps * eps1 = 1e154, alpha0's (1 + x)^2 overflowed and printed "error:
    # (34, 'Numerical result out of range')", naming no input
    @pytest.mark.parametrize("argv, config, names", [
        (["constants", "--dim", "2", "--omega0", "1e-300", "--eps", "1e-4"],
         "", ["eps1"]),
        (["constants", "--dim", "3", "--omega0", "1e308", "--eps", "1e-4"],
         "", ["eps1"]),
        (["run", "--config", "{cfg}", "--out", "{out}"],
         "omega0 = 1e-300\n", ["eps1"]),
        (["constants", "--dim", "2", "--omega0", "1e100", "--eps", "1e-4"],
         "", ["eps=0.0001", "omega0=1e+100"]),
        (["constants", "--dim", "2", "--omega0", "1", "--eps", "1e300"],
         "", ["eps=1e+300", "omega0=1.0"]),
        (["run", "--config", "{cfg}", "--out", "{out}"],
         "eps = 1e300\neps_override = true\n", ["eps=1e+300", "omega0="]),
    ], ids=["constants-2d-1e-300", "constants-3d-1e308", "run-2d-1e-300",
            "constants-2d-1e100", "constants-2d-eps-1e300", "run-2d-eps-1e300"])
    def test_extreme_omega0_is_one_error_line(self, tmp_path, capsys, argv, config, names):
        cfg = write(tmp_path, config)
        out = tmp_path / "out"
        code = main([arg.format(cfg=cfg, out=out) for arg in argv])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert all(name in captured.err for name in names)
        assert ": eps: " not in captured.err    # the config file may not set eps
        assert not out.exists()

    # |B| or (|B|/omega0)^(4/n) overflows; these ended in "error: (34,
    # 'Numerical result out of range')", naming no field.  At omega0 1e100
    # and radius_B 1e60, eps1 * (a_max - 1) overflowed silently: constants
    # printed eps1_effective = inf, and run blamed an eps the config never set
    @pytest.mark.parametrize("argv, config, names", [
        (["constants", "--dim", "2", "--omega0", "1", "--eps", "1e-4", "--radius-b", "1e100"],
         "", ["radius_B"]),
        (["constants", "--dim", "2", "--omega0", "1", "--eps", "1e-4", "--radius-b", "1e154"],
         "", ["radius_B"]),
        (["constants", "--dim", "3", "--omega0", "1", "--eps", "1e-4", "--radius-b", "1e200"],
         "", ["radius_B"]),
        (["run", "--config", "{cfg}", "--out", "{out}"], "radius_B = 1e200\n", ["radius_B"]),
        (["run", "--config", "{cfg}", "--out", "{out}"], "radius_B = 1e154\n", ["radius_B"]),
        (["run", "--config", "{cfg}", "--out", "{out}"], "radius_B = 1e100\n", ["radius_B"]),
        (["constants", "--dim", "2", "--omega0", "1e100", "--eps", "1e-200", "--radius-b", "1e60"],
         "", ["omega0=1e+100", "radius_B=1e+60"]),
        (["run", "--config", "{cfg}", "--out", "{out}"], "omega0 = 1e100\nradius_B = 1e60\n",
         ["omega0=1e+100", "radius_B=1e+60"]),
    ], ids=["constants-2d-1e100", "constants-2d-1e154", "constants-3d-1e200",
            "run-2d-1e200", "run-2d-1e154", "run-2d-1e100",
            "constants-2d-omega0-1e100-1e60", "run-2d-omega0-1e100-1e60"])
    def test_huge_radius_B_is_one_error_line(self, tmp_path, capsys, argv, config, names):
        cfg = write(tmp_path, config)
        out = tmp_path / "out"
        code = main([arg.format(cfg=cfg, out=out) for arg in argv])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert all(name in captured.err for name in names)
        assert ": eps: " not in captured.err    # the config file may not set eps
        assert not out.exists()

    # above MAX_DIM the oracles fail: from n = 15 with an OracleError, at
    # n = 150 after numpy RuntimeWarnings with "error: 1-th leading minor
    # not positive definite", naming no input
    @pytest.mark.parametrize("dim", [15, 150])
    def test_dimension_above_the_oracles_is_one_error_line(self, capsys, dim):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["constants", "--dim", str(dim), "--omega0", "1", "--eps", "1e-6"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (f"error: dimension must lie in 2..{MAX_DIM}, the range of "
                                f"the ball-tone oracles, got {dim}\n")


class TestVerifyCommand:
    @pytest.mark.parametrize("case", ["penalty", "alpha0", "oracle", "scaling",
                                      "monotonicity"])
    def test_fast_cases_pass(self, case, capsys):
        code = main(["verify", "--case", case])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_monotonicity_failure_names_the_trial(self, capsys, monkeypatch):
        # a stand-in tone that grows with the member count, so the eroded
        # inner mask of the first trial lies below its outer one
        monkeypatch.setattr("platetone.cli.fundamental_tone",
                            lambda mask, tol: SimpleNamespace(gamma=float(mask.inside.sum())))
        assert main(["verify", "--case", "monotonicity"]) == 1
        out = capsys.readouterr().out
        assert re.fullmatch(r"FAIL  nested-domain monotonicity  \(trial 0: inner (\d+\.0) "
                            r"< outer (\d+\.0)\)\n", out)

    def test_oracle_gap_is_the_one_gap(self, capsys):
        # verify --case oracle and the constant record read the one gap
        assert main(["verify", "--case", "oracle"]) == 0
        out = capsys.readouterr().out
        for n in range(2, 9):
            assert f"PASS  dual oracle n={n}  (rel={oracle_gap(n):.3e})\n" in out
        assert compute_constants(4, 0.5, 1e-4).oracle_rel_diff == oracle_gap(4)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
