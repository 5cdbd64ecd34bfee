"""L-norms, boundary-condition solution pairs, and subordinacy exponents.

Every solution comes from core.propagate. The detection scheme scores a
grid of boundary angles at once from the Gram matrix of the canonical
solution pair, refines the angle minimizing the terminal L-norm ratio by
golden section on the interpolated L-norms, and reports finite-scale
proxies for the liminf quantities: the minimum over the last decade of a
geometric L-grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import LN2, OperatorSpec, ldexp, propagate, solve_forward
from .errors import InsufficientDataError, InvalidArgumentError

TAU_SUB = 1e-3
ANGLE_GRID = 720          # boundary angles scanned before golden section
GOLDEN_ITERS = 40
POINTS_PER_DECADE = 64


def default_l_grid(l_max: float, decades: int) -> np.ndarray:
    return np.geomspace(max(l_max / 10 ** decades, 1.0), l_max,
                        decades * POINTS_PER_DECADE + 1)


def l_norms(f: np.ndarray, L_grid: Sequence[float]) -> np.ndarray:
    """Interpolated L-norms of the solution f(0..) at every L of the grid.

    ||f||_L^2 = sum_{1<=n<=floor(L)} f(n)^2 + frac(L) f(floor(L)+1)^2,
    from one running square sum over the sites the largest L needs.
    """
    Ls = np.asarray(L_grid, dtype=float)
    if np.any(Ls < 1.0):
        raise InvalidArgumentError("L must be >= 1")
    fl = np.floor(Ls).astype(int)
    need = int(fl.max()) + 1
    if len(f) <= need:
        raise InsufficientDataError(
            f"solution has {len(f) - 1} sites, L = {Ls.max()} needs {need}"
        )
    sums = np.zeros(need)
    np.cumsum(f[1:need] ** 2, out=sums[1:])
    return np.sqrt(sums[fl] + (Ls - fl) * f[fl + 1] ** 2)


def solve_pair(a: np.ndarray, b: np.ndarray, E: float, theta: float,
               n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Solutions phi(0..n_max) for boundary angle theta and its companion.

    a and b are coefficient arrays holding at least sites 0..n_max-1.
    phi1 has (phi(0), phi(1)) = (-sin theta, cos theta); phi2 uses
    theta - pi/2, i.e. (cos theta, sin theta).
    """
    if not (-math.pi / 2 <= theta < math.pi / 2):
        raise InvalidArgumentError("theta must lie in [-pi/2, pi/2)")
    return (solve_forward(a, b, E, -math.sin(theta), math.cos(theta), n_max),
            solve_forward(a, b, E, math.cos(theta), math.sin(theta), n_max))


def pair_log_lnorms(a: np.ndarray, b: np.ndarray, E: float, theta: float,
                    L_grid: Sequence[float]):
    """log ||phi1||_L and log ||phi2||_L on a grid of L values.

    a and b are coefficient arrays holding at least sites
    0..floor(max L_grid). Works in the log domain on the exactly rescaled
    solutions of propagate, so exponentially growing orbits never overflow.
    Returns (L_grid, logn1, logn2) as arrays.
    """
    Ls = np.sort(np.asarray(L_grid, dtype=float))
    n_stop = int(math.floor(Ls[-1])) + 1
    fl = np.floor(Ls).astype(int)
    logn = []
    with np.errstate(divide="ignore"):
        log_frac = np.log(Ls - fl)
        for phi0, phi1 in ((-math.sin(theta), math.cos(theta)),
                           (math.cos(theta), math.sin(theta))):
            m, k = propagate(a, b, E, phi0, phi1, n_stop)
            log_sq = 2.0 * (np.log(np.abs(m)) + LN2 * k)
            log_sq[0] = -math.inf  # L-norms sum from n = 1
            log_sums = np.logaddexp.accumulate(log_sq)
            logn.append(0.5 * np.logaddexp(log_sums[fl],
                                           log_frac + log_sq[fl + 1]))
    return Ls, logn[0], logn[1]


def _terminal_log_ratio(a: np.ndarray, b: np.ndarray, E: float,
                        theta: float, L_max: float) -> float:
    _, n1, n2 = pair_log_lnorms(a, b, E, theta, [L_max])
    return float(n1[0] - n2[0])


def _grid_log_ratio(a: np.ndarray, b: np.ndarray, E: float,
                    thetas: np.ndarray, L_max: float) -> np.ndarray:
    """Terminal log-ratio ln(||phi1|| / ||phi2||) over a theta grid.

    a and b are coefficient arrays holding at least sites 0..floor(L_max).

    With alpha = (0, 1) and gamma = (1, 0) at sites (0, 1),
    phi1 = cos(theta) alpha - sin(theta) gamma and phi2 = sin(theta) alpha
    + cos(theta) gamma, so both square norms are quadratic forms in the
    2x2 Gram matrix of (alpha, gamma).

    The sums give site floor(L_max)+1 full weight, while the golden-section
    refinement scores the interpolated L_max-norm: the grid only brackets
    the minimum, and the interpolated weight would move its argmin by one
    step at free E = 0.3, L_max = 1e3, and the refined angle with it.
    """
    n_stop = int(math.floor(L_max)) + 1
    (m_a, k_a), (m_g, k_g) = (propagate(a, b, E, phi0, phi1, n_stop)
                              for phi0, phi1 in ((0.0, 1.0), (1.0, 0.0)))
    # k is nondecreasing: the last site carries the largest exponent
    top = max(k_a[-1], k_g[-1])
    alpha = ldexp(m_a[1:], k_a[1:] - top)
    gamma = ldexp(m_g[1:], k_g[1:] - top)
    g_aa, g_ag, g_gg = alpha @ alpha, alpha @ gamma, gamma @ gamma
    c, s = np.cos(thetas), np.sin(thetas)
    sq1 = c * c * g_aa - 2.0 * c * s * g_ag + s * s * g_gg
    sq2 = s * s * g_aa + 2.0 * c * s * g_ag + c * c * g_gg
    with np.errstate(divide="ignore"):
        # rounding can take sq1 below 0 at the subordinate angle
        return 0.5 * (np.log(np.maximum(sq1, 0.0)) - np.log(sq2))


def minimize_boundary_angle(grid_eval: Callable[[np.ndarray], np.ndarray],
                            scalar_eval: Callable[[float], float],
                            iters: int) -> float:
    """Boundary angle in [-pi/2, pi/2) minimizing an objective.

    grid_eval scores ANGLE_GRID equispaced angles at once; the grid
    minimum is refined by iters golden-section steps on scalar_eval within
    one grid step on either side.
    """
    thetas = np.linspace(-math.pi / 2, math.pi / 2, ANGLE_GRID,
                         endpoint=False)
    i0 = int(np.argmin(grid_eval(thetas)))
    step = math.pi / ANGLE_GRID
    lo, hi = thetas[i0] - step, thetas[i0] + step
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1 = scalar_eval(x1)
    f2 = scalar_eval(x2)
    for _ in range(iters):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = scalar_eval(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = scalar_eval(x2)
    best = x1 if f1 <= f2 else x2
    return float(min(max(best, -math.pi / 2), math.pi / 2 - 1e-15))


@dataclass
class SubordinacyResult:
    theta_star: Optional[float]
    beta: float
    eta: Optional[float]
    ratio_trace: list
    classification: str  # pp-like | sc-like | no-subordinate
    theta_best: float = math.nan  # minimizing angle even when not subordinate
    growth_exponent: float = math.nan
    regular: bool = False


def beta_eta_from_traces(L_grid, logn1, logn2) -> tuple[float, Optional[float]]:
    """Finite-L liminf proxy: min over the last decade of ln||phi1|| / ln||phi2||."""
    L_grid = np.asarray(L_grid, dtype=float)
    last = L_grid >= L_grid[-1] / 10.0
    n1 = np.asarray(logn1)[last]
    n2 = np.asarray(logn2)[last]
    ok = n2 > 0.0
    if not np.any(ok):
        return 0.0, None
    beta = float(np.min(n1[ok] / n2[ok]))
    beta = max(beta, 0.0)
    eta = (1.0 - beta) / beta if beta > 0.0 else None
    return beta, eta


def fitted_growth_exponent(L_grid, logn) -> float:
    """Least-squares slope of log ||phi||_L against log L (last two decades)."""
    L_grid = np.asarray(L_grid, dtype=float)
    sel = L_grid >= L_grid[-1] / 100.0
    x = np.log(L_grid[sel])
    y = np.asarray(logn)[sel]
    return float(np.polyfit(x, y, 1)[0])


def detect_subordinate(spec: OperatorSpec, E: float,
                       L_grid: Sequence[float]) -> SubordinacyResult:
    """Scan boundary angles for a subordinate solution at energy E.

    The angle minimizing the terminal L-norm ratio is refined by golden
    section; the result reports theta(E) when the minimal ratio trace is
    below TAU_SUB and non-increasing over the last decade.
    """
    Ls = np.sort(np.asarray(L_grid, dtype=float))
    if len(Ls) < 3 or Ls[-1] / Ls[0] < 100.0:
        raise InvalidArgumentError(
            "L_grid needs >= 3 points spanning >= 2 decades"
        )
    L_max = float(Ls[-1])
    a, b = spec.coefficients(int(math.floor(L_max)))

    theta_best = minimize_boundary_angle(
        lambda thetas: _grid_log_ratio(a, b, E, thetas, L_max),
        lambda theta: _terminal_log_ratio(a, b, E, theta, L_max),
        GOLDEN_ITERS)

    Ls_out, logn1, logn2 = pair_log_lnorms(a, b, E, theta_best, Ls)
    log_ratio = logn1 - logn2
    terminal = log_ratio[-1]

    last = Ls_out >= L_max / 10.0
    lr_last = log_ratio[last]
    non_increasing = bool(
        np.all(np.diff(lr_last) <= math.log(1.05))
    )
    found = terminal <= math.log(TAU_SUB) and non_increasing

    beta, eta = beta_eta_from_traces(Ls_out, logn1, logn2)
    growth = fitted_growth_exponent(Ls_out, logn1)
    regular = growth <= 0.5 + 0.05

    if found:
        # tail test on the square sum of phi1: pp-like when convergent.
        # Restricted to the window where the ratio is still actively
        # decreasing; past it the shooting floor (angle resolution) feeds a
        # spurious growing component into phi1.
        clean = log_ratio > terminal + math.log(3.0)
        if np.sum(clean) >= 3:
            slope1 = float(np.polyfit(np.log(Ls_out[clean]),
                                      logn1[clean], 1)[0])
        else:
            slope1 = 0.0  # ratio at floor almost immediately: phi1 is flat
        classification = "pp-like" if slope1 <= 0.05 else "sc-like"
        theta_star = theta_best
    else:
        classification = "no-subordinate"
        theta_star = None

    with np.errstate(over="ignore"):
        ratio_vals = np.exp(log_ratio)
    trace = list(zip(Ls_out.tolist(), ratio_vals.tolist()))
    return SubordinacyResult(
        theta_star=theta_star,
        theta_best=theta_best,
        beta=beta,
        eta=eta,
        ratio_trace=trace,
        classification=classification,
        growth_exponent=growth,
        regular=regular,
    )
