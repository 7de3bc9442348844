"""platetone benchmark: one workload per call, each repetition in a fresh process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload annulus-2d-129 --seed 0 --seconds 30 --trace 0

The command starts ``worker.py`` once per repetition with ``src`` on
``PYTHONPATH`` and BLAS/OpenMP threads capped at the usable core count.  It
repeats ``search.optimize`` on the seeded config until ``--seconds`` have
passed (at least twice, so repeats can be compared), and times set-up in at
least five fresh processes.  With ``--trace 1`` it adds one traced
repetition that gives the per-layer numbers, and skips the extra set-up
samples, which only ``setup_s`` uses.

Every repetition must pass a correctness gate: the final (field, gamma) pair
passes an eigen-residual and a Rayleigh-quotient check, the run converged
rather than hitting ``max_steps``, all repeats produce the same history, and
the traced run reproduces the untraced history exactly.  A failed check is
printed by name and counts as a failed operation.

A human-readable report comes first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 when every check passed, 1 when one failed and 2 when the
checkout holds no ``src/platetone`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import SHARE_LAYERS
from workloads import WORKLOADS, make_config, omega0_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = HERE / "out"

MIN_REPS = 2
MIN_SETUPS = 5
# The whole command has to end within 180 s.
TIME_LIMIT_S = 170.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "J_vs_ball": "ratio",
    "eval_ok_frac": "ratio",
}

PER_LAYER = {
    "constants.s": "s",
    "constants.calls": "count",
    "biharmonic.factor.s": "s",
    "biharmonic.factor.calls": "count",
    "biharmonic.factor.ms_per_call": "ms",
    "biharmonic.factor.n_mean": "count",
    "biharmonic.factor.fill_nnz_mean": "count",
    "biharmonic.solve.s": "s",
    "biharmonic.solve.calls": "count",
    "biharmonic.solve.us_per_call": "us",
    "biharmonic.tone.s": "s",
    "biharmonic.tone.calls": "count",
    "biharmonic.tone.self_s": "s",
    "biharmonic.tone.iters_mean": "solve/tone",
    "biharmonic.tone.failures": "count",
    "biharmonic.assemble.s": "s",
    "biharmonic.assemble.calls": "count",
    "search.candidates.s": "s",
    "search.candidates.count": "count",
    "search.steps": "count",
    "search.evals": "count",
    "search.accepted": "count",
    "search.accept_ratio": "ratio",
    "search.step.self_s": "s",
    "diagnostics.s": "s",
    "cli.artifacts.s": "s",
    "cli.artifacts.bytes": "bytes",
    **{f"{name}.self_share": "%" for name in SHARE_LAYERS},
    "unaccounted.s": "s",
    "unaccounted.self_share": "%",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "%",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict[str, str]:
    """Environment of every worker: threads capped at nproc, ``src`` first."""
    env = dict(os.environ)
    cap = nproc()
    for var in THREAD_VARS:
        try:
            threads = min(max(int(env.get(var, "")), 1), cap)
        except ValueError:
            threads = cap
        env[var] = str(threads)
    env["PYTHONPATH"] = str(ROOT / "src")
    # every set-up compiles the package from source alike, and nothing is
    # written under src/
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_worker(job: dict, env: dict, timeout: float) -> dict:
    """One fresh worker process; its last stdout line is its JSON result."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"worker killed after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    return json.loads(lines[-1])


def gate(runs: list[dict], setups: list[dict],
         traced: dict | None) -> tuple[int, int, list[str]]:
    """Correctness gate: (operations attempted, operations failed, names of
    failed checks).

    Each worker process is one operation, and so is each comparison of
    histories across repetitions.  An operation fails when any of its
    checks fails.
    """
    src = str(ROOT / "src")
    failures: list[str] = []
    failed_ops = 0
    labeled = [(f"rep{i}", r) for i, r in enumerate(runs)]
    labeled += [(f"setup{i}", r) for i, r in enumerate(setups)]
    if traced is not None:
        labeled.append(("traced", traced))
    for label, rep in labeled:
        names = []
        if "error" in rep:
            names.append("raised")
        elif not rep["platetone_file"].startswith(src):
            names.append("package_source")
        else:
            names += [name for name, c in rep.get("checks", {}).items() if not c["ok"]]
        failures += [f"{label}:{n}" for n in names]
        failed_ops += bool(names)
    attempted = len(labeled)
    hashes = [r.get("history_sha256") for r in runs]
    if len(runs) > 1:
        attempted += 1
        if len(set(hashes)) != 1:
            failures.append("history_repeat")
            failed_ops += 1
    if traced is not None:
        attempted += 1
        if traced.get("history_sha256") != hashes[0]:
            failures.append("trace_reproduces")
            failed_ops += 1
    return attempted, failed_ops, failures


def end_to_end_metrics(runs: list[dict], setups: list[float]) -> dict[str, float]:
    def med(key):
        return statistics.median(r[key] for r in runs)

    return {
        "wall_s": med("wall_s"),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": med("peak_rss_mb"),
        "J_vs_ball": med("J_vs_ball"),
        "eval_ok_frac": statistics.median(
            r["evals"] / (r["evals"] + r["skipped"]) for r in runs),
    }


def layer_metrics(traced: dict, untraced_wall: float) -> dict[str, float]:
    L = traced["layers"]

    def per(num, den, scale=1.0):
        return scale * L.get(num, 0) / max(L.get(den, 0), 1)

    wall = L["root.s"]
    out = {name: L[name] for name in PER_LAYER if name in L}
    out.update({
        "biharmonic.factor.ms_per_call": per("biharmonic.factor.s", "biharmonic.factor.calls", 1e3),
        "biharmonic.factor.n_mean": per("biharmonic.factor.n", "biharmonic.factor.calls"),
        "biharmonic.factor.fill_nnz_mean": per("biharmonic.factor.fill_nnz",
                                               "biharmonic.factor.calls"),
        "biharmonic.solve.us_per_call": per("biharmonic.solve.s", "biharmonic.solve.calls", 1e6),
        "biharmonic.tone.iters_mean": per("biharmonic.solve.calls", "biharmonic.tone.calls"),
        "biharmonic.tone.failures": L.get("biharmonic.tone.errors", 0),
        "search.steps": L.get("search.step.calls", 0),
        "search.evals": traced["evals"],
        "search.accepted": traced["accepted"],
        "search.accept_ratio": traced["accepted"] / traced["evals"],
        "unaccounted.self_share": 100.0 * L["unaccounted.s"] / wall,
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": wall - untraced_wall,
        "trace.overhead_share": 100.0 * (wall - untraced_wall) / untraced_wall,
    })
    for name in SHARE_LAYERS:
        out[f"{name}.self_share"] = 100.0 * L.get(f"{name}.root_self_s", 0.0) / wall
    return out


def bench(name: str, base: dict, seed: int, seconds: int,
          trace: bool) -> tuple[dict, list[str]]:
    """Run one workload; returns (result object, report lines)."""
    env = worker_env()
    WORK_DIR.mkdir(exist_ok=True)
    job = {"workload": name, "seed": seed, "config": make_config(base, seed),
           "work_dir": str(WORK_DIR), "mode": "run", "traced": False}
    start = time.perf_counter()

    def remaining():
        return TIME_LIMIT_S - (time.perf_counter() - start)

    runs: list[dict] = []
    longest = 0.0
    while len(runs) < MIN_REPS or time.perf_counter() - start < seconds:
        # keep room for the traced repetition and the set-up samples
        if runs and remaining() < longest * (2.2 if trace else 1.2) + 10:
            break
        t = time.perf_counter()
        runs.append(run_worker(job, env, max(remaining(), 1.0)))
        longest = max(longest, time.perf_counter() - t)
        if "error" in runs[-1]:
            break
    extra: list[dict] = []
    while not trace and len(runs) + len(extra) < MIN_SETUPS and remaining() > 10:
        extra.append(run_worker(dict(job, mode="setup"), env, remaining()))
    traced = None
    if trace and "error" not in runs[-1]:
        traced = run_worker(dict(job, traced=True), env, max(remaining(), 1.0))

    attempted, failed, failures = gate(runs, extra, traced)
    ok_runs = [r for r in runs if "error" not in r]
    setup_values = [r["setup_s"] for r in runs + extra if "setup_s" in r]
    metrics: dict[str, float] = {}
    if ok_runs and (not trace or (traced and "error" not in traced)):
        untraced = end_to_end_metrics(ok_runs, setup_values)
        metrics = layer_metrics(traced, untraced["wall_s"]) if trace else untraced
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": not failures and bool(metrics),
        "attempted": attempted,
        "failed": failed if metrics else max(failed, 1),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()
                    if k in metrics},
    }
    report = report_lines(name, seed, job["config"], env, runs, setup_values,
                          traced, failures, result["metrics"])
    return result, report


def report_lines(name, seed, config, env, runs, setup_values, traced,
                 failures, metrics) -> list[str]:
    ok_runs = [r for r in runs if "error" not in r]
    first = next((r for r in runs + [traced or {}] if "env" in r), {"env": {}})
    lines = [
        f"workload {name}  seed {seed}  omega0 {config['omega0']!r} "
        f"(factor {omega0_factor(seed)!r})  trace {int(traced is not None)}",
        f"env: nproc {nproc()}  cpu {cpu_model()!r}  "
        + "  ".join(f"{k} {v}" for k, v in first["env"].items()) + "  "
        + "  ".join(f"{v}={env[v]}" for v in THREAD_VARS),
        f"repetitions: {len(runs)} untraced (wall s: "
        + ", ".join(f"{r['wall_s']:.3f}" for r in ok_runs)
        + f"), {len(setup_values)} set-up samples (s: "
        + ", ".join(f"{s:.3f}" for s in setup_values) + ")",
    ]
    for r in runs + ([traced] if traced else []):
        if "error" in r:
            lines.append(f"error: {r['error']}")
    if ok_runs:
        r = ok_runs[0]
        attempts = r["evals"] + r["skipped"]
        lines += [
            f"final gamma {r['gamma']!r}  J {r['J']!r}  ball reference J {r['J_ball']!r}  "
            f"steps {r['steps']}  termination {r['termination']}",
            f"eval_fail_frac {r['skipped'] / attempts:.6f} ratio "
            f"({r['skipped']} of {attempts} evaluations raised)",
            "checks: " + "  ".join(f"{k} {'ok' if c['ok'] else 'FAIL'} ({c['value']:.3g})"
                                   for k, c in r["checks"].items()),
        ]
    lines.append("gate: " + ("PASS" if not failures else "FAIL " + " ".join(failures)))
    if traced and "layers" in traced:
        L = traced["layers"]
        lines.append(f"{'layer':24} {'total s':>9} {'calls':>7} {'self s':>9} {'self %':>7}")
        for layer in SHARE_LAYERS:
            lines.append(
                f"{layer:24} {L.get(layer + '.s', 0):9.3f} {L.get(layer + '.calls', 0):7d} "
                f"{L.get(layer + '.root_self_s', 0):9.3f} "
                f"{metrics[layer + '.self_share']['value']:7.2f}")
        lines.append(f"{'unaccounted':24} {'':9} {'':7} {L['unaccounted.s']:9.3f} "
                     f"{metrics['unaccounted.self_share']['value']:7.2f}")
        m = {k: v["value"] for k, v in metrics.items()}
        lines += [
            f"traced wall {m['trace.wall_s']:.3f} s, untraced median "
            f"{m['trace.untraced_wall_s']:.3f} s, overhead {m['trace.overhead_s']:.3f} s "
            f"({m['trace.overhead_share']:.2f}%)",
            f"search.accept_ratio {m['search.accept_ratio']:.4f} = accepted "
            f"{m['search.accepted']} / evals {m['search.evals']}",
            f"biharmonic.tone.iters_mean {m['biharmonic.tone.iters_mean']:.3f} = solves "
            f"{m['biharmonic.solve.calls']} / tones {m['biharmonic.tone.calls']}",
            f"biharmonic.factor.ms_per_call {m['biharmonic.factor.ms_per_call']:.3f} = "
            f"{m['biharmonic.factor.s']:.3f} s / {m['biharmonic.factor.calls']} calls",
            f"biharmonic.factor.n_mean {m['biharmonic.factor.n_mean']:.1f} = "
            f"{L['biharmonic.factor.n']} unknowns / {m['biharmonic.factor.calls']} calls",
            f"biharmonic.factor.fill_nnz_mean {m['biharmonic.factor.fill_nnz_mean']:.1f} = "
            f"{L['biharmonic.factor.fill_nnz']} L+U entries / {m['biharmonic.factor.calls']} calls",
            f"biharmonic.solve.us_per_call {m['biharmonic.solve.us_per_call']:.1f} = "
            f"{m['biharmonic.solve.s']:.3f} s / {m['biharmonic.solve.calls']} calls",
            f"shares (self_share) are of the traced wall {m['trace.wall_s']:.3f} s",
        ]
    for k, v in metrics.items():
        lines.append(f"{k:34} {v['value']!r} {v['unit']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "platetone" / "__init__.py").is_file():
        print(f"error: no src/platetone under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    result, report = bench(args.workload, WORKLOADS[args.workload], args.seed,
                           args.seconds, bool(args.trace))
    print("\n".join(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
