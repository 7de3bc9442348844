"""Dimension-generic constants and thresholds for the volume-penalized
clamped-plate problem.

Everything that has a closed form lives here: unit-ball volumes, the
fundamental tone of the unit ball (computed by two independent oracles that
must agree before any downstream constant is trusted), the penalty thresholds
``eps1``/``eps0``, and the rewarding-penalty volume floor ``alpha0``.

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

from platetone.field_grid import is_integer, raise_errors, real_errors


class OracleError(RuntimeError):
    """A tone oracle failed to converge or the two oracles disagree."""


RADIAL_TOL = 1e-8       # relative extrapolation error the radial oracle must reach
ORACLE_RTOL = 1e-6      # relative agreement the two oracles must reach

# Largest dimension the oracles serve: the radial extrapolation gap grows with
# n, 9.8e-9 at n = 14 and 1.1e-8 (above RADIAL_TOL) at 15; the Bessel series
# underflows into a spurious root from n = 80, the radial cells from n = 100.
MAX_DIM = 14


def _or_inf(value) -> float:
    """The float ``value()``, or inf where computing it overflows."""
    try:
        return value()
    except OverflowError:
        return math.inf


# The oracle caches are typed, so a cached n = 2 never answers for 2.0 or
# True, which this check rejects.
def _check_dim(n: int) -> None:
    if not (is_integer(n) and 2 <= n <= MAX_DIM):
        raise ValueError(f"dimension must lie in 2..{MAX_DIM}, the range of the "
                         f"ball-tone oracles, got {n}")


# ---------------------------------------------------------------------------
# unit ball volume
# ---------------------------------------------------------------------------

def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n: pi^(n/2) / Gamma(n/2 + 1)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return math.exp(0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0))


def ball_volume(n: int, radius: float) -> float:
    """Volume of the n-ball of the given radius; inf where it overflows."""
    return _or_inf(lambda: unit_ball_volume(n) * radius ** n)


def ball_radius(n: int, volume: float) -> float:
    """Radius of the n-ball of the given volume, the inverse of ``ball_volume``."""
    return (volume / unit_ball_volume(n)) ** (1.0 / n)


def ball_fit_errors(n: int, omega0: float, radius_B: float) -> list[str]:
    """The ball-fit rule for an omega0 and a radius_B that pass their own
    rules: no message when the reference ball B has a finite volume |B| and
    omega0 < |B|, else one naming the field at fault."""
    vol_B = ball_volume(n, radius_B)
    if vol_B == math.inf:
        return [f"radius_B: the reference ball's volume overflows, got {radius_B}"]
    if omega0 >= vol_B:
        return [f"omega0: target volume does not fit inside the reference ball "
                f"(|B|={vol_B}), got {omega0}"]
    return []


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


@lru_cache(maxsize=32, typed=True)
def gamma_ball_radial(n: int) -> float:
    """Fundamental tone of the unit n-ball from the radial finite-difference
    oracle, Richardson-extrapolated at order 2 from grid levels 2048/4096.

    The levels 1024/2048, extrapolated the same way, give the error estimate:
    raises OracleError if the two extrapolations differ by more than
    ``RADIAL_TOL`` (relative), reporting the gap actually achieved.
    """
    _check_dim(n)
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


@lru_cache(maxsize=32, typed=True)
def gamma_ball_bessel(n: int) -> float:
    """Fundamental tone of the unit n-ball as k^4, where k is the first root
    of J_nu(k) I_{nu+1}(k) + I_nu(k) J_{nu+1}(k) with nu = n/2 - 1."""
    _check_dim(n)
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


def oracle_gap(n: int) -> float:
    """Relative gap |radial - bessel| / bessel between the two oracles."""
    fd, bs = gamma_ball_radial(n), gamma_ball_bessel(n)
    return abs(fd - bs) / bs


def gamma_ball(n: int) -> float:
    """Dual-oracle fundamental tone of the unit n-ball.

    The oracles are cached, their agreement is not: every call checks that
    ``oracle_gap(n)`` is within ``ORACLE_RTOL`` and returns the bisection
    value (it carries no discretization error).
    """
    rel = oracle_gap(n)
    if rel > ORACLE_RTOL:
        raise OracleError(
            f"tone oracles disagree for n={n}: radial={gamma_ball_radial(n)!r} "
            f"bessel={gamma_ball_bessel(n)!r} relative difference {rel:.3e}"
        )
    return gamma_ball_bessel(n)


# ---------------------------------------------------------------------------
# thresholds and bounds
# ---------------------------------------------------------------------------

def eps1(n: int, omega0: float) -> float:
    """Penalty threshold below which excess volume never pays:
    (omega0/omega_n)^(4/n) * omega0 / gamma_ball(n)."""
    raise_errors(real_errors("omega0", omega0))
    e1 = _or_inf(lambda: (omega0 / unit_ball_volume(n)) ** (4.0 / n) * omega0 / gamma_ball(n))
    if not 0.0 < e1 < math.inf:
        raise ValueError(f"eps1 = {e1!r} at omega0={omega0!r}: outside the positive finite floats")
    return e1


def eps1_effective(n: int, omega0: float, radius_B: float) -> float:
    """Dimension-corrected excess-volume threshold.

    The plain threshold argument needs (a-1)/(a^(4/n)-1) >= 1, which holds for
    n >= 4 only.  For n in {2, 3} the volume ratio a is a priori capped by
    a_max = |B|/omega0, and the correction factor (a_max-1)/(a_max^(4/n)-1)
    restores the bound because the ratio is decreasing in a.  In every
    dimension omega0 must fit in B: ``ball_fit_errors`` is raised first.
    """
    raise_errors(real_errors("radius_B", radius_B))
    e1 = eps1(n, omega0)
    raise_errors(ball_fit_errors(n, omega0, radius_B))
    if n >= 4:
        return e1
    a_max = ball_volume(n, radius_B) / omega0
    growth = _or_inf(lambda: a_max ** (4.0 / n))
    if growth == math.inf:
        raise ValueError(f"radius_B={radius_B!r} is too large: (|B|/omega0)^(4/n) "
                         f"overflows at omega0={omega0!r}")
    e1_eff = e1 * (a_max - 1.0) / (growth - 1.0)
    if not math.isfinite(e1_eff):   # e1 * (a_max - 1) overflows silently
        raise ValueError(f"eps1_effective overflows at omega0={omega0!r}, radius_B={radius_B!r}")
    return e1_eff


def eps0(n: int, omega0: float, d_n: float = 0.5) -> float:
    """Threshold for the volume dichotomy: min(eps1, d_n * (4/n) / eps1)."""
    raise_errors(real_errors("d_n", d_n, 1.0))
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
    raise_errors(real_errors("eps", eps) + real_errors("d_n", d_n, 1.0))
    x = eps * eps1(n, omega0)
    # (1 + x)^2 - 4 d_n x rewritten without its cancellation as d_n and x
    # near 1; d_n < 1 keeps it above (1 - x)^2 >= 0
    disc = _or_inf(lambda: (1.0 - x) ** 2 + 4.0 * (1.0 - d_n) * x)
    if not math.isfinite(disc):     # eps * eps1 near or past sqrt(max float)
        raise ValueError(f"alpha0 is out of the float range at eps={eps!r}, "
                         f"omega0={omega0!r} (eps * eps1 = {x!r})")
    a0 = 2.0 * d_n / (1.0 + x + math.sqrt(disc))
    residual = abs((d_n / a0 - 1.0) / (1.0 - a0) - x)
    return a0, residual


def ball_tone_for_volume(omega: float, n: int) -> float:
    """Fundamental tone of the n-ball of volume omega:
    (omega_n/omega)^(4/n) * gamma_ball(n)."""
    raise_errors(real_errors("omega", omega))
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
    _check_dim(n)
    raise_errors(real_errors("omega0", omega0) + real_errors("eps", eps)
                 + real_errors("d_n", d_n, 1.0))
    a0, res = alpha0(n, eps, omega0, d_n)
    return TheoryConstants(
        dim=n,
        omega0=omega0,
        eps=eps,
        d_n=d_n,
        omega_n=unit_ball_volume(n),
        gamma_b1=gamma_ball(n),
        gamma_b1_radial=gamma_ball_radial(n),
        gamma_b1_bessel=gamma_ball_bessel(n),
        oracle_rel_diff=oracle_gap(n),
        eps1=eps1(n, omega0),
        eps0=eps0(n, omega0, d_n),
        alpha0=a0,
        alpha0_residual=res,
        eps1_effective=None if radius_B is None else eps1_effective(n, omega0, radius_B),
    )
