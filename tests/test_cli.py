import dataclasses
import math
from pathlib import Path

import pytest

from platetone.cli import (
    _CONFIG_PARSERS,
    ConfigError,
    build_parser,
    load_config,
    main,
)
from platetone.constants import compute_constants
from platetone.search import RunConfig


MINIMAL = "# minimal run\n"

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
        echoed = load_config(write(tmp_path, "\n".join(config_echo_lines(config)), "echo.cfg"))
        assert echoed == config

    def test_parsers_cover_every_field_in_order(self):
        names = [f.name for f in dataclasses.fields(RunConfig)]
        assert list(_CONFIG_PARSERS) == names

    def test_unknown_key_rejected_with_line(self, tmp_path):
        path = write(tmp_path, "dim = 2\nshape = disk\n")
        with pytest.raises(ConfigError, match=r":2"):
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
                              "omega0 = 0.5\nmax_steps = 8\ntone_tol = 1e-7\n",
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
        # every third accepted step, counted on both lattices together: the
        # coarse lattice's count is not a multiple of 3, so a count restarted
        # on the fine lattice would pick other steps
        cfg = write(tmp_path, QUICK.replace("nodes_per_side = 49", "nodes_per_side = 129")
                    .replace("max_steps = 20", "max_steps = 300") + "snapshot_every = 3\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        steps = accepted_steps(out)
        rows = [row.split(",") for row in (out / "trace.csv").read_text().splitlines()[1:]]
        fine_start = int(next(parts[0] for parts in rows if parts[6] == "129"))
        assert sum(s <= fine_start for s in steps) % 3 != 0
        names = sorted(p.name for p in out.glob("mask_step*.pgm"))
        assert names == [f"mask_step{s:06d}.pgm" for s in steps[2::3]]
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
        from platetone import cli
        from platetone.biharmonic import ConvergenceFailure

        def fail(config, on_accept=None):
            raise ConvergenceFailure("eigensolver did not converge", None)

        monkeypatch.setattr(cli, "optimize", fail)
        cfg = write(tmp_path, QUICK)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: eigensolver did not converge")
        assert "Traceback" not in err

    def test_summary_contains_constants_and_diagnostics(self, tmp_path):
        cfg = write(tmp_path, QUICK)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        text = (out / "summary.txt").read_text()
        for token in ("constants.gamma_b1", "constants.eps1", "constants.alpha0",
                      "diagnostics.dichotomy", "diagnostics.doubling_sigma",
                      "result.gamma", "result.termination"):
            assert token in text, token


class TestInvalidRunConfig:
    @pytest.mark.parametrize("text, field", [
        ("radius_B = inf\n", "radius_B"),
        ("radius_B = nan\n", "radius_B"),
        ("eps = nan\n", "eps"),
        ("penalty_variant = rewarding\neps = inf\neps_override = true\n", "eps"),
        ("init_shape = random_blob\nseed = -1\n", "seed"),
        ("tone_tol = inf\n", "tone_tol"),
    ], ids=["radius_B-inf", "radius_B-nan", "eps-nan", "eps-inf-rewarding", "seed-negative",
            "tone_tol-inf"])
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
        assert captured.err.startswith(f"error: {field} must be positive and finite, got ")


class TestVerifyCommand:
    @pytest.mark.parametrize("case", ["penalty", "alpha0", "oracle", "scaling",
                                      "monotonicity"])
    def test_fast_cases_pass(self, case, capsys):
        code = main(["verify", "--case", case])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "FAIL" not in out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
