"""Benchmark workloads and the seeded inputs built from them.

Each workload is one ``RunConfig`` of the plain penalty at the default target
volume.  Seed 0 gives the canonical configs; any other seed scales ``omega0``
by one seeded factor in [0.98, 1.02], the same factor for every workload, so
that a claim can be rechecked on inputs nobody tuned against.  The package
only ever sees the generated config.

The range is narrow on purpose: the factorization size and the number of
evaluations both grow with ``omega0``: on square-3d-33 (2-vCPU Xeon VM) a
7% larger ``omega0`` made a run 30% slower, so a 5% range would let the
input alone spread ``wall_s`` across seeds by more than a bound can absorb.

This module imports nothing from the package or from numpy, so the worker
can time ``import platetone`` from a cold interpreter.
"""

from __future__ import annotations

import math
import random

OMEGA0 = math.pi / 4
OMEGA0_SPREAD = 0.02

# Why each workload is here.  annulus-2d-129 is the only one whose
# near-degenerate spectra make the eigen iteration and skipped candidates
# weigh; square-3d-33 has 3D sparsity and fill, 3D morphology and diagnostics
# and the n=3 oracles.  square-2d-257 is the long factorization-bound run;
# it can be run by name but is left out of BENCHMARK.json, because its
# evaluation count jumps between 200 and 272 when omega0 moves by as little
# as 0.1%, so its wall_s spread across seeds exceeds any allowed bound.
WORKLOADS = {
    "square-2d-257": {"dim": 2, "nodes_per_side": 257, "init_shape": "square"},
    "annulus-2d-129": {"dim": 2, "nodes_per_side": 129, "init_shape": "annulus"},
    "square-3d-33": {"dim": 3, "nodes_per_side": 33, "init_shape": "square"},
}

# Tiny input for the benchmark's self-test; not a benchmark workload.
SELFTEST = {"dim": 2, "nodes_per_side": 33, "init_shape": "square"}


def omega0_factor(seed: int) -> float:
    """Scale applied to omega0: 1 for seed 0, else seeded in [0.98, 1.02]."""
    if seed == 0:
        return 1.0
    return random.Random(seed).uniform(1.0 - OMEGA0_SPREAD, 1.0 + OMEGA0_SPREAD)


def make_config(base: dict, seed: int) -> dict:
    """Keyword arguments of the ``RunConfig`` for one workload and seed."""
    return dict(base, penalty_variant="plain",
                omega0=OMEGA0 * omega0_factor(seed))
