"""L-norms, boundary-condition solution pairs, and subordinacy exponents.

The detection scheme shoots the three-term recursion for a grid of boundary
angles, refines the angle minimizing the terminal L-norm ratio by golden
section, and reports finite-scale proxies for the liminf quantities: the
minimum over the last decade of a geometric L-grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import OperatorSpec, Trajectory, solve_forward
from .errors import InsufficientDataError, InvalidArgumentError

TAU_SUB = 1e-3
ANGLE_GRID = 720          # boundary angles scanned before golden section
GOLDEN_ITERS = 40
POINTS_PER_DECADE = 64


def default_l_grid(l_max: float = 1e4, decades: int = 4) -> np.ndarray:
    return np.geomspace(max(l_max / 10 ** decades, 1.0), l_max,
                        decades * POINTS_PER_DECADE + 1)


def l_norm(f: Trajectory, L: float) -> float:
    """Interpolated L'th norm: sum_{n<=floor(L)} f(n)^2 + frac * f(floor(L)+1)^2."""
    if L < 1.0:
        raise InvalidArgumentError("L must be >= 1")
    fl = int(math.floor(L))
    if f.n_max < fl + 1:
        raise InsufficientDataError(
            f"trajectory has {f.n_max} sites, L = {L} needs {fl + 1}"
        )
    frac = L - fl
    return math.sqrt(f.cumulative_sq[fl] + frac * f.values[fl + 1] ** 2)


def solve_pair(spec: OperatorSpec, E: float, theta: float,
               n_max: int) -> tuple[Trajectory, Trajectory]:
    """Solutions for boundary angle theta and its orthogonal companion.

    phi1 has (phi(0), phi(1)) = (-sin theta, cos theta); phi2 uses
    theta - pi/2, i.e. (cos theta, sin theta).
    """
    if not (-math.pi / 2 <= theta < math.pi / 2):
        raise InvalidArgumentError("theta must lie in [-pi/2, pi/2)")
    phi1 = solve_forward(spec, E, -math.sin(theta), math.cos(theta),
                         n_max, theta=theta)
    phi2 = solve_forward(spec, E, math.cos(theta), math.sin(theta),
                         n_max, theta=theta - math.pi / 2)
    return phi1, phi2


def wronskian(phi1: Trajectory, phi2: Trajectory, n: int) -> float:
    """phi1(n) phi2(n-1) - phi1(n-1) phi2(n); constant 1 when a == 1."""
    return (phi1.values[n] * phi2.values[n - 1]
            - phi1.values[n - 1] * phi2.values[n])


def _log_sq(x: float) -> float:
    return 2.0 * math.log(abs(x)) if x != 0.0 else -math.inf


def pair_log_lnorms(spec: OperatorSpec, E: float, theta: float,
                    L_grid: Sequence[float]):
    """log ||phi1||_L and log ||phi2||_L on a grid, with running rescaling.

    Safe for exponentially growing orbits (norms up to e^1e6).
    Returns (L_grid, logn1, logn2) as arrays.
    """
    Ls = np.sort(np.asarray(L_grid, dtype=float))
    n_stop = int(math.floor(Ls[-1])) + 1
    p1, c1 = -math.sin(theta), math.cos(theta)
    p2, c2 = math.cos(theta), math.sin(theta)
    ls1 = ls2 = -math.inf  # log of cumulative square sums, absolute scale
    log_scale = 0.0
    logn1 = np.empty(len(Ls))
    logn2 = np.empty(len(Ls))
    a, b = map(memoryview, spec.coefficients(n_stop - 1))
    gi = 0
    for n in range(1, n_stop + 1):
        # values known through site n; cumulative sums through n-1
        while gi < len(Ls) and int(math.floor(Ls[gi])) == n - 1:
            frac = Ls[gi] - (n - 1)
            for idx, (ls, c) in enumerate(((ls1, c1), (ls2, c2))):
                tail = (math.log(frac) + _log_sq(c) + 2.0 * log_scale
                        if frac > 0.0 and c != 0.0 else -math.inf)
                val = np.logaddexp(ls, tail)
                (logn1 if idx == 0 else logn2)[gi] = 0.5 * val
            gi += 1
        ls1 = np.logaddexp(ls1, _log_sq(c1) + 2.0 * log_scale)
        ls2 = np.logaddexp(ls2, _log_sq(c2) + 2.0 * log_scale)
        if n == n_stop:
            break
        coef = E - b[n]
        p1, c1 = c1, (coef * c1 - a[n - 1] * p1) / a[n]
        p2, c2 = c2, (coef * c2 - a[n - 1] * p2) / a[n]
        m = max(abs(p1), abs(c1), abs(p2), abs(c2))
        if m > 1e100 or (0.0 < m < 1e-100):
            inv = 1.0 / m
            p1 *= inv
            c1 *= inv
            p2 *= inv
            c2 *= inv
            log_scale += math.log(m)
    return Ls, logn1, logn2


def _terminal_log_ratio(spec: OperatorSpec, E: float, theta: float,
                        L_max: float) -> float:
    _, n1, n2 = pair_log_lnorms(spec, E, theta, [L_max])
    return float(n1[0] - n2[0])


def _scan_terminal_log_ratio(spec: OperatorSpec, E: float,
                             thetas: np.ndarray, L_max: float) -> np.ndarray:
    """Vectorized terminal log-ratio over a theta grid."""
    n_stop = int(math.floor(L_max)) + 1
    p1 = -np.sin(thetas)
    c1 = np.cos(thetas)
    p2 = np.cos(thetas)
    c2 = np.sin(thetas)
    ls1 = np.full_like(p1, -np.inf)
    ls2 = np.full_like(p1, -np.inf)
    log_scale = np.zeros_like(p1)
    a, b = map(memoryview, spec.coefficients(n_stop - 1))
    with np.errstate(divide="ignore"):
        for n in range(1, n_stop + 1):
            ls1 = np.logaddexp(ls1, 2.0 * (np.log(np.abs(c1)) + log_scale))
            ls2 = np.logaddexp(ls2, 2.0 * (np.log(np.abs(c2)) + log_scale))
            if n == n_stop:
                break
            coef = E - b[n]
            p1, c1 = c1, (coef * c1 - a[n - 1] * p1) / a[n]
            p2, c2 = c2, (coef * c2 - a[n - 1] * p2) / a[n]
            if n % 64 == 0:
                m = np.maximum.reduce(
                    [np.abs(p1), np.abs(c1), np.abs(p2), np.abs(c2)]
                )
                m = np.maximum(m, 1e-300)
                inv = 1.0 / m
                p1 *= inv
                c1 *= inv
                p2 *= inv
                c2 *= inv
                log_scale += np.log(m)
    return 0.5 * (ls1 - ls2)


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
    log_ratio_trace: np.ndarray = field(default=None, repr=False)
    L_grid: np.ndarray = field(default=None, repr=False)


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
                       L_grid: Optional[Sequence[float]] = None
                       ) -> SubordinacyResult:
    """Scan boundary angles for a subordinate solution at energy E.

    The angle minimizing the terminal L-norm ratio is refined by golden
    section; the result reports theta(E) when the minimal ratio trace is
    below TAU_SUB and non-increasing over the last decade.
    """
    if L_grid is None:
        L_grid = default_l_grid()
    Ls = np.sort(np.asarray(L_grid, dtype=float))
    if len(Ls) < 3 or Ls[-1] / Ls[0] < 100.0:
        raise InvalidArgumentError(
            "L_grid needs >= 3 points spanning >= 2 decades"
        )
    L_max = float(Ls[-1])

    theta_best = minimize_boundary_angle(
        lambda thetas: _scan_terminal_log_ratio(spec, E, thetas, L_max),
        lambda theta: _terminal_log_ratio(spec, E, theta, L_max),
        GOLDEN_ITERS)

    Ls_out, logn1, logn2 = pair_log_lnorms(spec, E, theta_best, Ls)
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
        log_ratio_trace=log_ratio,
        L_grid=Ls_out,
    )


def beta_tilde(alpha: float) -> float:
    """The Hausdorff-exponent map alpha -> alpha / (2 - alpha)."""
    if not 0.0 < alpha <= 1.0:
        raise InvalidArgumentError("alpha must lie in (0, 1]")
    return alpha / (2.0 - alpha)


def alpha_of_beta_tilde(bt: float) -> float:
    """Inverse map: alpha = 2 beta~ / (1 + beta~)."""
    if bt <= 0.0:
        raise InvalidArgumentError("beta~ must be positive")
    return 2.0 * bt / (1.0 + bt)
