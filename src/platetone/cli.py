"""Command-line front end: config parsing, run orchestration, output formats.

Subcommands:

* ``run --config <path> [--force] [--out <dir>]``: one optimization run,
  writing trace.csv, mask snapshots, the final field dump and a flat summary
  into the output directory.  Exit code 0 on convergence, 2 when the step
  budget ran out, 1 on any error (bad config, I/O, an oracle or eigensolver
  failure), reported as one ``error: ...`` line.
* ``constants --dim N --omega0 V --eps V [--dn V] [--radius-b V]``: print the
  full constant record including both tone oracles and their residual.
* ``verify --case {scaling|monotonicity|penalty|alpha0|oracle}``: built-in
  property suites; exits nonzero on failure.

Config files are flat ``key = value`` text with ``#`` comments; unknown keys
are rejected with their line number.  All numbers are printed with 17
significant digits so a rerun from the echoed config is bit-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from platetone import constants as tc
from platetone.biharmonic import fundamental_tone, save_field_csv, save_field_fld
from platetone.field_grid import (
    ball_mask,
    erode,
    make_grid,
    save_mask_msk,
    save_mask_pgm,
)
from platetone.penalty import PenaltyKind, penalty_value
from platetone.search import (
    RunConfig,
    RunResult,
    TERMINATED_MAX_STEPS,
    optimize,
    resolve_eps,
    validate_config,
)


class ConfigError(ValueError):
    pass


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _parse_bool(s: str) -> bool:
    if s.lower() not in ("true", "false", "1", "0", "yes", "no"):
        raise ValueError(f"expected true/false/1/0/yes/no, got {s!r}")
    return s.lower() in ("true", "1", "yes")


# keyed by the RunConfig annotations, which are strings (postponed evaluation)
_BY_TYPE = {
    "int": int,
    "float": float,
    "str": str,
    "bool": _parse_bool,
    "float | None": lambda s: None if s.lower() == "auto" else float(s),
}
_CONFIG_PARSERS = {f.name: _BY_TYPE[f.type] for f in dataclasses.fields(RunConfig)}


def load_config(path) -> RunConfig:
    """Parse and validate a flat key=value config file.

    Missing keys take the documented defaults; unknown keys and malformed
    lines are rejected with their line number; field validation errors name
    the offending field.
    """
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in _CONFIG_PARSERS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                values[key] = _CONFIG_PARSERS[key](val)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    config = RunConfig(**values)
    errors = validate_config(config)
    if errors:
        raise ConfigError(f"{path}: " + "; ".join(errors))
    # the eps threshold check needs the oracle constants; resolve_eps raises
    # with a message citing the threshold when eps is too large
    try:
        resolve_eps(config)
    except ValueError as exc:
        raise ConfigError(f"{path}: eps: {exc}") from exc
    return config


def config_echo_lines(config: RunConfig) -> list[str]:
    """One ``key = value`` line per RunConfig field, in declaration order;
    an unresolved eps (None) is echoed as ``auto``, which load_config reads
    back as None."""
    lines = []
    for f in dataclasses.fields(RunConfig):
        value = getattr(config, f.name)
        lines.append(f"{f.name} = {'auto' if value is None else _fmt(value)}")
    return lines


def trace_lines(result: RunResult) -> list[str]:
    lines = ["step,gamma,volume,penalty,J,accepted,nodes_per_side"]
    for row in result.history:
        lines.append(
            f"{row.step},{_fmt(row.gamma)},{_fmt(row.volume)},"
            f"{_fmt(row.penalty)},{_fmt(row.J)},{1 if row.accepted else 0},"
            f"{row.nodes_per_side}"
        )
    return lines


def summary_lines(result: RunResult) -> list[str]:
    lines = []
    for ln in config_echo_lines(result.config):
        lines.append("config." + ln)
    for key, val in result.constants.as_record().items():
        lines.append(f"constants.{key} = {_fmt(val)}")
    d = result.diagnostics
    lines += [
        f"result.gamma = {_fmt(result.gamma)}",
        f"result.volume = {_fmt(result.volume)}",
        f"result.penalty = {_fmt(result.penalty)}",
        f"result.J = {_fmt(result.J)}",
        f"result.steps = {result.steps}",
        f"result.levels = {_fmt(result.levels)}",
        f"result.termination = {result.termination}",
        f"result.wall_time_s = {_fmt(result.wall_time)}",
        f"result.tone_iterations = {result.tone.iterations}",
        f"result.tone_residual = {_fmt(result.tone.residual)}",
        f"diagnostics.connected = {_fmt(d.connected)}",
        f"diagnostics.component_count = {d.component_count}",
        f"diagnostics.doubling_sigma = {_fmt(d.doubling_sigma)}",
        f"diagnostics.nondegeneracy_c1 = {_fmt(d.nondegeneracy_c1)}",
        f"diagnostics.sigma0_count = {d.sigma0_count}",
        f"diagnostics.sigma1_count = {d.sigma1_count}",
        f"diagnostics.dichotomy = {d.dichotomy.value}",
        f"diagnostics.probe_radii = {_fmt(d.probe_radii)}",
    ]
    for r, q in d.density_c2_profile:
        lines.append(f"diagnostics.density_min[{_fmt(r)}] = {_fmt(q)}")
    return lines


def cmd_run(args) -> int:
    config = load_config(args.config)
    out = Path(args.out) if args.out else Path(args.config).with_suffix(".out")
    if out.exists():
        if not args.force:
            print(f"error: output directory {out} exists (use --force)", file=sys.stderr)
            return 1
        # a forced rerun replaces the files whose set varies from run to run;
        # every other file in the directory is left alone
        for pattern in ("mask_step*.pgm", "mask_step*.msk", "mask_final.*", "field_final.*"):
            for stale in out.glob(pattern):
                stale.unlink()
    else:
        out.mkdir(parents=True)

    accepted = 0

    def snapshot(state):
        nonlocal accepted
        accepted += 1
        if accepted % config.snapshot_every == 0:
            _write_mask(state.mask, out / f"mask_step{state.step:06d}")

    result = optimize(config, on_accept=snapshot)

    (out / "config_echo.txt").write_text(
        "\n".join(config_echo_lines(result.config)) + "\n"
    )
    (out / "trace.csv").write_text("\n".join(trace_lines(result)) + "\n")
    (out / "summary.txt").write_text("\n".join(summary_lines(result)) + "\n")
    _write_mask(result.mask, out / "mask_final")
    save_field_fld(result.tone.eigenfield, out / "field_final.fld")
    if result.config.nodes_per_side <= 65 and result.config.dim == 2:
        save_field_csv(result.tone.eigenfield, out / "field_final.csv")

    print(f"final gamma  = {_fmt(result.gamma)}")
    print(f"final volume = {_fmt(result.volume)}")
    print(f"final J      = {_fmt(result.J)}")
    print(f"termination  = {result.termination} after {result.steps} steps")
    print(f"artifacts in {out}")
    return 2 if result.termination == TERMINATED_MAX_STEPS else 0


def _write_mask(mask, stem: Path):
    if mask.grid.dim == 2:
        save_mask_pgm(mask, stem.with_suffix(".pgm"))
    else:
        save_mask_msk(mask, stem.with_suffix(".msk"))


def cmd_constants(args) -> int:
    consts = tc.compute_constants(args.dim, args.omega0, args.eps, d_n=args.dn,
                                  radius_B=args.radius_b)
    for key, val in consts.as_record().items():
        print(f"{key} = {_fmt(val)}")
    return 0


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _verify_oracle() -> list[tuple[str, bool, str]]:
    checks = []
    for n in range(2, 9):
        fd = tc.gamma_ball_radial(n)
        bs = tc.gamma_ball_bessel(n)
        rel = abs(fd - bs) / bs
        checks.append((f"dual oracle n={n}", rel <= tc.ORACLE_RTOL, f"rel={rel:.3e}"))
    return checks


def _verify_penalty() -> list[tuple[str, bool, str]]:
    kind0 = PenaltyKind("plain", 0.125, 2.0)
    kind1 = PenaltyKind("rewarding", 0.125, 2.0)
    checks = [
        ("plain at target", penalty_value(kind0, 2.0) == 0.0, ""),
        ("plain one eps above", penalty_value(kind0, 2.125) == 1.0, ""),
        ("rewarding one below", penalty_value(kind1, 1.0) == -0.125, ""),
    ]
    s = np.linspace(0.0, 4.0, 1000)
    v0 = np.array([penalty_value(kind0, x) for x in s])
    v1 = np.array([penalty_value(kind1, x) for x in s])
    checks.append(("plain nondecreasing", bool(np.all(np.diff(v0) >= 0)), ""))
    checks.append(("rewarding strictly increasing", bool(np.all(np.diff(v1) > 0)), ""))
    checks.append(("rewarding below plain", bool(np.all(v1 <= v0)), ""))
    return checks


def _verify_alpha0() -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng(20240901)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        omega0 = float(10.0 ** rng.uniform(-1, 1))
        d_n = float(rng.uniform(0.5, 0.99))
        e1 = tc.eps1(n, omega0)
        eps = float(rng.uniform(0.0, 1.0)) * e1 + 1e-12
        _, res = tc.alpha0(n, eps, omega0, d_n)
        worst = max(worst, res)
    a0, _ = tc.alpha0(4, 1e-9, 1.0, 0.5)
    checks = [
        ("defining-equation residual", worst <= 1e-10, f"worst={worst:.3e}"),
        ("eps->0 limit", abs(a0 - 0.5) <= 1e-6, f"|alpha0-d_n|={abs(a0 - 0.5):.3e}"),
    ]
    return checks


def _verify_scaling() -> list[tuple[str, bool, str]]:
    grid = make_grid(2, 129, 1.0)
    g1 = fundamental_tone(ball_mask(grid, (0.0, 0.0), 1.0), tol=1e-9).gamma
    g2 = fundamental_tone(ball_mask(grid, (0.0, 0.0), 0.5), tol=1e-9).gamma
    ratio = g2 / g1
    return [("disk tone ratio r=0.5 vs 1.0", abs(ratio / 16.0 - 1.0) <= 0.05,
             f"ratio={ratio:.4f}")]


def _verify_monotonicity() -> list[tuple[str, bool, str]]:
    grid = make_grid(2, 49, 1.0)
    rng = np.random.default_rng(7)
    ok = True
    detail = ""
    for trial in range(5):
        center = rng.uniform(-0.2, 0.2, size=2)
        outer = ball_mask(grid, center, float(rng.uniform(0.55, 0.8)))
        inner = erode(outer)
        g_out = fundamental_tone(outer, tol=1e-10).gamma
        g_in = fundamental_tone(inner, tol=1e-10).gamma
        if g_in < g_out - 1e-8:
            ok = False
            detail = f"trial {trial}: inner {g_in} < outer {g_out}"
            break
    return [("nested-domain monotonicity", ok, detail)]


_VERIFY_CASES = {
    "oracle": _verify_oracle,
    "penalty": _verify_penalty,
    "alpha0": _verify_alpha0,
    "scaling": _verify_scaling,
    "monotonicity": _verify_monotonicity,
}


def cmd_verify(args) -> int:
    checks = _VERIFY_CASES[args.case]()
    failed = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"{status}  {name}{suffix}")
        failed += 0 if ok else 1
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platetone",
        description="Clamped-plate tone minimization under a volume constraint",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one optimization run")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--force", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_const = sub.add_parser("constants", help="print the constant record")
    p_const.add_argument("--dim", type=int, required=True)
    p_const.add_argument("--omega0", type=float, required=True)
    p_const.add_argument("--eps", type=float, required=True)
    p_const.add_argument("--dn", type=float, default=0.5)
    p_const.add_argument("--radius-b", type=float, default=None)
    p_const.set_defaults(func=cmd_constants)

    p_verify = sub.add_parser("verify", help="run a built-in property suite")
    p_verify.add_argument("--case", choices=sorted(_VERIFY_CASES), required=True)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
