"""Volume penalties and the penalized objective.

Two piecewise-linear penalties on the domain volume s with target omega0:

* plain: free below the target, slope 1/eps above it.  Excess volume is
  charged, deficit is not.
* rewarding: slope eps below the target (a deficit earns a negative
  contribution), slope 1/eps above.  Strictly increasing everywhere.

Both vanish at s = omega0 and are continuous there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from platetone.biharmonic import ToneResult, fundamental_tone
from platetone.field_grid import Grid, Mask, ScalarField, mask_volume

PLAIN = "plain"
REWARDING = "rewarding"
_VARIANTS = (PLAIN, REWARDING)


@dataclass(frozen=True)
class PenaltyKind:
    variant: str
    eps: float
    omega0: float

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}, got {self.variant!r}")
        if not 0 < self.eps < math.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if not self.omega0 > 0:
            raise ValueError(f"omega0 must be positive, got {self.omega0}")


def penalty_value(kind: PenaltyKind, s: float) -> float:
    """Exact piecewise-linear penalty of a volume s >= 0."""
    if s < 0:
        raise ValueError(f"volume must be nonnegative, got {s}")
    excess = s - kind.omega0
    if excess >= 0.0:
        return excess / kind.eps
    if kind.variant == REWARDING:
        return kind.eps * excess
    return 0.0


def objective(grid: Grid, mask: Mask, kind: PenaltyKind,
              tone_tol: float = 1e-8,
              initial: ScalarField | None = None
              ) -> tuple[float, ToneResult, float]:
    """Penalized objective J = gamma + penalty(volume) on a masked domain.

    Returns (J, tone, volume); the full tone result lets callers reuse the
    eigenfield to warm start nearby solves.  Eigensolver failures propagate.
    """
    # the mask carries its grid; the argument stays for the benchmark worker
    if grid != mask.grid:
        raise ValueError("grid does not match the mask's lattice")
    tone = fundamental_tone(mask, tol=tone_tol, initial=initial)
    volume = mask_volume(mask)
    return tone.gamma + penalty_value(kind, volume), tone, volume
