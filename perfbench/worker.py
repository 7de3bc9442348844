"""One benchmark repetition in a fresh interpreter.

Usage: ``python3 perfbench/worker.py '<job json>'`` with ``src`` on
``PYTHONPATH``.  ``run.py`` starts it; the last line of its standard output
is one JSON object.

The job's ``mode`` is ``setup`` (time set-up only) or ``run`` (set-up, one
``search.optimize`` call, the correctness checks and, when ``traced``, the
per-layer spans and the CLI artifact writers).  Set-up is everything a fresh
process does before the descent can start: ``import platetone``,
``search.resolve_eps`` with both ball-tone oracles cold, ``make_grid`` and
``initial_mask``.  Nothing heavier than the standard library is imported
before the set-up clock starts.
"""

from __future__ import annotations

import hashlib
import json
import logging
import resource
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from layers import Tracer, instrumented, summarize

# Final pair checks.  The eigensolver stops at residual <= sqrt(tone_tol) *
# gamma = 1e-4 gamma, or after three stable quotients on a near-degenerate
# spectrum; gamma is the Rayleigh quotient of the returned field up to
# round-off.
RESIDUAL_RTOL = 1e-3
RAYLEIGH_RTOL = 1e-9


class _SkipCounter(logging.Handler):
    """Counts the candidates ``descent_step`` logs as skipped."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "skipped" in record.msg:
            self.count += 1


def check_pair(grid, mask, field, gamma: float) -> dict[str, dict]:
    """Independent check of a final (field, gamma) pair, by check name."""
    from platetone.biharmonic import eigen_residual, rayleigh_quotient

    res = eigen_residual(grid, mask, field, gamma) / gamma
    rq = abs(rayleigh_quotient(grid, mask, field) - gamma) / gamma
    return {
        "eigen_residual": {"ok": res <= RESIDUAL_RTOL, "value": res},
        "rayleigh_quotient": {"ok": rq <= RAYLEIGH_RTOL, "value": rq},
    }


def history_hash(history) -> str:
    """sha256 of the (step, gamma, volume, J, accepted) rows."""
    h = hashlib.sha256()
    for row in history:
        h.update(f"{row.step},{row.gamma!r},{row.volume!r},{row.J!r},"
                 f"{int(row.accepted)}\n".encode())
    return h.hexdigest()


def ball_reference_J(grid, config) -> float:
    """J of the lattice ball of volume omega0 with the run's penalty.

    The lattice ball of radius (omega0 / omega_n)^(1/n) can hold more than
    omega0, and then its J carries a penalty of slope 1/eps that swings the
    ratio by several percent from one omega0 to the next on coarse grids.
    So the reference is the largest centered lattice ball whose volume does
    not exceed omega0, its J (penalty zero) rescaled to volume omega0 by the
    tone's scaling law gamma ~ |domain|^(-4/n).
    """
    import numpy as np

    from platetone import penalty, search
    from platetone.field_grid import ball_mask

    axes = np.meshgrid(*[grid.axis_coords()] * grid.dim, indexing="ij", sparse=True)
    levels, counts = np.unique(sum(a * a for a in axes), return_counts=True)
    volumes = np.cumsum(counts) * grid.spacing ** grid.dim
    k = int(np.searchsorted(volumes, config.omega0, side="right")) - 1
    if k < 0 or k + 1 >= levels.size:
        raise ValueError("no lattice ball of volume at most omega0 fits the grid")
    ball = ball_mask(grid, (0.0,) * grid.dim, float(np.sqrt(0.5 * (levels[k] + levels[k + 1]))))
    J, _, volume = penalty.objective(grid, ball, search.penalty_kind(config),
                                     tone_tol=config.tone_tol)
    if volume > config.omega0:
        raise ValueError("reference ball exceeds omega0")
    return J * (volume / config.omega0) ** (4.0 / grid.dim)


def write_artifacts(result, grid, out: Path) -> int:
    """Write what ``platetone run`` writes for a finished run; returns bytes."""
    from platetone import cli
    from platetone.biharmonic import save_field_csv, save_field_fld

    out.mkdir(parents=True)
    (out / "config_echo.txt").write_text(
        "\n".join(cli.config_echo_lines(result.config)) + "\n")
    (out / "trace.csv").write_text("\n".join(cli.trace_lines(result)) + "\n")
    (out / "summary.txt").write_text("\n".join(cli.summary_lines(result)) + "\n")
    cli._write_mask(result.mask, out / "mask_final")
    save_field_fld(result.tone.eigenfield, out / "field_final.fld")
    if grid.nodes_per_side <= 65 and grid.dim == 2:
        save_field_csv(result.tone.eigenfield, out / "field_final.csv")
    return sum(p.stat().st_size for p in out.iterdir())


def run(job: dict) -> dict:
    tracer = Tracer() if job.get("traced") else None
    t0 = time.perf_counter()
    import platetone
    from platetone import field_grid, search

    with instrumented(tracer) if tracer else nullcontext():
        with tracer.span("setup") if tracer else nullcontext():
            config = search.RunConfig(**job["config"])
            resolved, _ = search.resolve_eps(config)
            grid = field_grid.make_grid(config.dim, config.nodes_per_side,
                                        config.radius_B)
            search.initial_mask(grid, config.init_shape, config.omega0, config.seed)
        setup_s = time.perf_counter() - t0
        out = {"setup_s": setup_s, "platetone_file": platetone.__file__}
        if job["mode"] == "setup":
            return out

        skips = _SkipCounter()
        logging.getLogger("platetone.search").addHandler(skips)
        t1 = time.perf_counter()
        with tracer.span("optimize") if tracer else nullcontext():
            result = search.optimize(config)
        wall_s = time.perf_counter() - t1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    J_ball = ball_reference_J(grid, resolved)
    evals = len(result.history)
    out.update({
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "gamma": result.gamma,
        "J": result.J,
        "J_ball": J_ball,
        "J_vs_ball": result.J / J_ball,
        "evals": evals,
        "accepted": sum(row.accepted for row in result.history[1:]),
        "skipped": skips.count,
        "steps": result.steps,
        "termination": result.termination,
        "history_sha256": history_hash(result.history),
        "checks": check_pair(grid, result.mask, result.tone.eigenfield, result.gamma),
    })
    out["checks"]["max_steps"] = {
        "ok": result.termination != search.TERMINATED_MAX_STEPS,
        "value": result.steps,
    }

    if tracer:
        work = Path(job["work_dir"])
        art_dir = work / f"artifacts-{job['workload']}-{job['seed']}"
        shutil.rmtree(art_dir, ignore_errors=True)
        with tracer.span("cli.artifacts") as art:
            art_bytes = write_artifacts(result, grid, art_dir)
        shutil.rmtree(art_dir)
        with open(work / f"spans-{job['workload']}-seed{job['seed']}.jsonl", "w") as fh:
            for rec in tracer.spans:
                fh.write(json.dumps(rec) + "\n")
        out["layers"] = summarize(tracer.spans)
        out["layers"]["cli.artifacts.s"] = art["end"] - art["start"]
        out["layers"]["cli.artifacts.bytes"] = art_bytes
    return out


def environment() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main() -> int:
    job = json.loads(sys.argv[1])
    try:
        out = run(job)
    except Exception as exc:
        out = {"error": f"{type(exc).__name__}: {exc}"}
    out["env"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
