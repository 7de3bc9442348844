"""Dimension-generic constants and thresholds for the volume-penalized
clamped-plate problem.

Everything that has a closed form lives here: unit-ball volumes, the
fundamental tone of the unit ball (computed by two independent oracles that
must agree before any downstream constant is trusted), the penalty thresholds
``eps1``/``eps0``, the rewarding-penalty volume floor ``alpha0``, and the
t^-4 rescaling rule for tones.

The two unit-ball oracles:

* a radial finite-difference eigensolve of the clamped bilaplacian on [0, 1]
  at three grid levels, Richardson-extrapolated at the scheme's order 2 from
  the two finest; the third level gives the error estimate, and
* bisection on the cross product J_nu(k) I_{nu+1}(k) + I_nu(k) J_{nu+1}(k)
  with nu = n/2 - 1, where J and I are evaluated from their power series.

Neither path shares code, tables or special-function libraries with the
other, so agreement to 1e-6 relative is a genuine cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.sparse import diags


class OracleError(RuntimeError):
    """A tone oracle failed to converge or the two oracles disagree."""


RADIAL_TOL = 1e-8       # relative extrapolation error the radial oracle must reach
ORACLE_RTOL = 1e-6      # relative agreement the two oracles must reach


# ---------------------------------------------------------------------------
# unit ball volume
# ---------------------------------------------------------------------------

def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n: pi^(n/2) / Gamma(n/2 + 1)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return math.exp(0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0))


# ---------------------------------------------------------------------------
# oracle 1: radial finite differences + Richardson extrapolation
# ---------------------------------------------------------------------------

def _radial_tone_level(n: int, cells: int) -> float:
    """Smallest eigenvalue of the radial clamped bilaplacian at one grid level.

    Unknowns are u_0 .. u_{K-1} on r_j = j/K; the wall conditions u(1) = 0 and
    u'(1) = 0 enter through u_K = 0 and the reflected ghost u_{K+1} = u_{K-1}.
    Interior nodes carry the conservative flux form of the radial Laplacian;
    the wall node uses the point form (the ghost cancels the drift term).
    The eigenproblem is the minimizer of the weighted Rayleigh quotient
    sum cell_j (lap u)_j^2 / sum cell_j u_j^2, solved by inverse iteration on
    the diagonally symmetrized energy matrix.  The quotient itself is always
    evaluated in factored form, which avoids the 1/h^4 rounding amplification
    of the assembled quadratic form.
    """
    K = cells
    h = 1.0 / K
    j = np.arange(K + 1, dtype=float)
    r_face = (j + 0.5) * h                       # faces j+1/2, j = 0..K
    flux = r_face ** (n - 1) / h                 # conductance through face j+1/2

    # cell integrals of r^(n-1); the last cell is the half cell ending at r=1
    r_lo = np.concatenate(([0.0], r_face[:-1]))
    cell = (r_face ** n - r_lo ** n) / n
    cell[K] = (1.0 - r_face[K - 1] ** n) / n

    # D maps u (K unknowns) to w = lap u on nodes 0..K: the neighbor u_K = 0
    # drops out of row K-1, and row K is the point form with u_{K+1} = u_{K-1}
    inflow = np.concatenate(([0.0], flux[:K - 1]))     # node 0 has no inner face
    main = -(flux[:K] + inflow) / cell[:K]
    upper = flux[:K - 1] / cell[:K - 1]
    lower = np.append(flux[:K - 1] / cell[1:K], 2.0 / (h * h))
    D = diags([lower, main, upper], [-1, 0, 1], shape=(K + 1, K), format="csr")

    Cw = diags(cell)                             # quadrature for w nodes 0..K
    cu = cell[:K]                                # quadrature for u nodes 0..K-1
    s = np.sqrt(cu)
    M = (D.T @ Cw @ D).tocsr()
    Msym = (diags(1.0 / s) @ M @ diags(1.0 / s)).tocsc()

    # banded storage (upper form) for the symmetric positive definite solve
    ab = np.zeros((3, K))
    for band in range(0, 3):
        ab[2 - band, band:] = Msym.diagonal(band)
    cb = cholesky_banded(ab)

    def quotient(u):
        w = D @ u
        return float(np.sum(cell * w * w) / np.sum(cu * u * u))

    # generalized inverse iteration M z = Cu u reduces to Msym y' = y; the
    # factored quotient's rounding floor is about 1e-12 at K = 4096, so the
    # stop sits above it at 1e-10 relative
    y = s.copy()                                 # start from u = 1
    y /= np.linalg.norm(y)
    lam = quotient(y / s)
    for _ in range(200):
        y = cho_solve_banded((cb, False), y)
        y /= np.linalg.norm(y)
        lam_new = quotient(y / s)
        done = abs(lam_new - lam) <= 1e-10 * abs(lam_new)
        lam = lam_new
        if done:
            break
    else:
        raise OracleError(
            f"radial inverse iteration did not settle in 200 steps (n={n}, K={K})"
        )
    return lam


@lru_cache(maxsize=32)
def gamma_ball_radial(n: int) -> float:
    """Fundamental tone of the unit n-ball from the radial finite-difference
    oracle, Richardson-extrapolated at order 2 from grid levels 2048/4096.

    The levels 1024/2048, extrapolated the same way, give the error estimate:
    raises OracleError if the two extrapolations differ by more than
    ``RADIAL_TOL`` (relative), reporting the gap actually achieved.
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    v0, v1, v2 = (_radial_tone_level(n, K) for K in (1024, 2048, 4096))
    # the scheme is second order, so halving h divides the error by 4
    ext_fine = v2 + (v2 - v1) / 3.0
    ext_coarse = v1 + (v1 - v0) / 3.0
    achieved = abs(ext_fine - ext_coarse) / abs(ext_fine)
    if achieved > RADIAL_TOL:
        raise OracleError(
            f"radial oracle extrapolation reached {achieved:.3e} relative, "
            f"requested {RADIAL_TOL:.3e} (n={n})"
        )
    return ext_fine


# ---------------------------------------------------------------------------
# oracle 2: series-evaluated Bessel cross product + bisection
# ---------------------------------------------------------------------------

def _bessel_series(nu: float, x: float, signed: bool) -> float:
    """Power series for J_nu (signed=True) or I_nu (signed=False) at x > 0."""
    lx = math.log(0.5 * x)
    total = 0.0
    peak = 0.0
    for m in range(0, 400):
        lt = (nu + 2 * m) * lx - math.lgamma(m + 1.0) - math.lgamma(nu + m + 1.0)
        term = math.exp(lt)
        peak = max(peak, term)
        total += -term if (signed and m % 2 == 1) else term
        if m > 0.5 * x + 4 and term <= 1e-20 * peak:
            break
    return total


def _cross_product(n: int, k: float) -> float:
    nu = 0.5 * n - 1.0
    return (_bessel_series(nu, k, True) * _bessel_series(nu + 1.0, k, False)
            + _bessel_series(nu, k, False) * _bessel_series(nu + 1.0, k, True))


@lru_cache(maxsize=32)
def gamma_ball_bessel(n: int) -> float:
    """Fundamental tone of the unit n-ball as k^4, where k is the first root
    of J_nu(k) I_{nu+1}(k) + I_nu(k) J_{nu+1}(k) with nu = n/2 - 1."""
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    step = 0.05
    k_lo = 0.2
    f_lo = _cross_product(n, k_lo)
    k_hi = k_lo
    for _ in range(2000):
        k_hi = k_hi + step
        f_hi = _cross_product(n, k_hi)
        if f_lo * f_hi <= 0.0:
            break
        k_lo, f_lo = k_hi, f_hi
    else:
        raise OracleError(f"no cross-product sign change found for n={n}")
    for _ in range(100):
        k_mid = 0.5 * (k_lo + k_hi)
        if k_mid in (k_lo, k_hi):                # the bracket cannot shrink further
            break
        f_mid = _cross_product(n, k_mid)
        if f_lo * f_mid <= 0.0:
            k_hi = k_mid
        else:
            k_lo, f_lo = k_mid, f_mid
    return (0.5 * (k_lo + k_hi)) ** 4


@lru_cache(maxsize=32)
def gamma_ball(n: int) -> float:
    """Dual-oracle fundamental tone of the unit n-ball.

    Both oracles are evaluated and must agree to ``ORACLE_RTOL`` relative;
    the bisection value is returned (it carries no discretization error).
    """
    fd = gamma_ball_radial(n)
    bs = gamma_ball_bessel(n)
    rel = abs(fd - bs) / bs
    if rel > ORACLE_RTOL:
        raise OracleError(
            f"tone oracles disagree for n={n}: radial={fd!r} bessel={bs!r} "
            f"relative difference {rel:.3e}"
        )
    return bs


# ---------------------------------------------------------------------------
# thresholds and bounds
# ---------------------------------------------------------------------------

def eps1(n: int, omega0: float) -> float:
    """Penalty threshold below which excess volume never pays:
    (omega0/omega_n)^(4/n) * omega0 / gamma_ball(n)."""
    if omega0 <= 0:
        raise ValueError("omega0 must be positive")
    return (omega0 / unit_ball_volume(n)) ** (4.0 / n) * omega0 / gamma_ball(n)


def eps1_effective(n: int, omega0: float, radius_B: float) -> float:
    """Dimension-corrected excess-volume threshold.

    The plain threshold argument needs (a-1)/(a^(4/n)-1) >= 1, which holds for
    n >= 4 only.  For n in {2, 3} the volume ratio a is a priori capped by
    a_max = |B|/omega0, and the correction factor (a_max-1)/(a_max^(4/n)-1)
    restores the bound because the ratio is decreasing in a.
    """
    e1 = eps1(n, omega0)
    if n >= 4:
        return e1
    vol_B = unit_ball_volume(n) * radius_B ** n
    a_max = vol_B / omega0
    if a_max <= 1.0:
        raise ValueError(
            f"omega0={omega0} does not fit in the reference ball (|B|={vol_B})"
        )
    return e1 * (a_max - 1.0) / (a_max ** (4.0 / n) - 1.0)


def eps0(n: int, omega0: float, d_n: float = 0.5) -> float:
    """Threshold for the volume dichotomy: min(eps1, d_n * (4/n) / eps1)."""
    e1 = eps1(n, omega0)
    return min(e1, d_n * (4.0 / n) / e1)


def alpha0(n: int, eps: float, omega0: float, d_n: float = 0.5) -> tuple[float, float]:
    """Volume floor for the rewarding penalty and its defining-equation residual.

    alpha0 is the root in (0, 1) of f(a) = eps*eps1 with
    f(a) = (d_n/a - 1)/(1 - a), equivalently the smaller quadratic root

        alpha0 = (1 + x - sqrt((1+x)^2 - 4 d_n x)) / (2x),   x = eps * eps1.

    Evaluated in rationalized form 2 d_n / (1 + x + sqrt(...)) so the limit
    x -> 0 (alpha0 -> d_n) is computed without cancellation.  Returns
    (alpha0, |f(alpha0) - x|).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = eps * eps1(n, omega0)
    disc = (1.0 + x) ** 2 - 4.0 * d_n * x
    if disc < 0.0:
        raise ValueError(
            f"invalid combination d_n={d_n}, eps*eps1={x}: negative discriminant"
        )
    a0 = 2.0 * d_n / (1.0 + x + math.sqrt(disc))
    residual = abs((d_n / a0 - 1.0) / (1.0 - a0) - x)
    return a0, residual


def predicted_tone(gamma: float, t: float) -> float:
    """Tone of a domain rescaled by the spatial factor t: gamma * t^-4.

    The rule holds in every dimension n; a volume factor ``a`` corresponds to
    the spatial factor t = a^(1/n).
    """
    if t <= 0:
        raise ValueError("scale factor must be positive")
    return gamma * t ** -4.0


def ball_tone_for_volume(omega: float, n: int) -> float:
    """Fundamental tone of the n-ball of volume omega:
    (omega_n/omega)^(4/n) * gamma_ball(n)."""
    if omega <= 0:
        raise ValueError("volume must be positive")
    return (unit_ball_volume(n) / omega) ** (4.0 / n) * gamma_ball(n)


# ---------------------------------------------------------------------------
# bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoryConstants:
    """Every closed-form constant for one (n, omega0, eps, d_n) choice."""

    dim: int
    omega0: float
    eps: float
    d_n: float
    omega_n: float
    gamma_b1: float
    gamma_b1_radial: float
    gamma_b1_bessel: float
    oracle_rel_diff: float
    eps1: float
    eps0: float
    alpha0: float
    alpha0_residual: float
    eps1_effective: float | None = None   # set when a reference radius is known

    def as_record(self) -> dict[str, float]:
        """Every field in declaration order; eps1_effective only when set."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if getattr(self, f.name) is not None}


def compute_constants(n: int, omega0: float, eps: float, d_n: float = 0.5,
                      radius_B: float | None = None) -> TheoryConstants:
    """Evaluate the full constant bundle, running the dual-oracle protocol."""
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    if omega0 <= 0:
        raise ValueError("omega0 must be positive")
    if not 0.0 < d_n < 1.0:
        raise ValueError(f"d_n must lie in (0, 1), got {d_n}")
    fd = gamma_ball_radial(n)
    bs = gamma_ball_bessel(n)
    a0, res = alpha0(n, eps, omega0, d_n)
    e1_eff = None
    if radius_B is not None:
        e1_eff = eps1_effective(n, omega0, radius_B)
    return TheoryConstants(
        dim=n,
        omega0=omega0,
        eps=eps,
        d_n=d_n,
        omega_n=unit_ball_volume(n),
        gamma_b1=gamma_ball(n),
        gamma_b1_radial=fd,
        gamma_b1_bessel=bs,
        oracle_rel_diff=abs(fd - bs) / bs,
        eps1=eps1(n, omega0),
        eps0=eps0(n, omega0, d_n),
        alpha0=a0,
        alpha0_residual=res,
        eps1_effective=e1_eff,
    )
