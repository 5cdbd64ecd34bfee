"""Cesaro-average transfer-norm test and moment-weighted membership sums.

The absolutely-continuous-support diagnostic is the liminf of
(1/N) sum_{n<=N} t^E(n)^2 over a geometric N-grid, with t^E(n) the
spectral norm of the n-step transfer matrix. Membership in the
admissible-perturbation set is a convergence verdict for

    sum_n (<~a(n)^4>^{1/2} + <~b(n)^2>) * ((a(n)+1) * t^E(n))^4

by the shared decade-ratio test (randpert.decade_log_sums and
randpert.decade_ratios_pass, last three ratios <= 0.9). Everything runs
in the log domain so exponentially growing orbits never overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .core import LN2, OperatorSpec, growth_check, propagate
from .errors import InvalidArgumentError, UnsupportedModelError
from .randpert import (
    LOG_SAT,
    PerturbationModel,
    decade_log_sums,
    decade_ratios_pass,
)

TAU_BOUND = 1e3          # boundedness proxy: max_n t^E(n) <= tau_bound
DECADE_RATIO = 0.9       # convergence verdict threshold on decade sums


def default_n_grid(j_max: int = 40) -> List[int]:
    """N_j = ceil(2^(j/2)), j = 2..j_max, deduplicated."""
    grid = sorted({math.ceil(2.0 ** (j / 2.0)) for j in range(2, j_max + 1)})
    return grid


def log_t2_stream(a: np.ndarray, b: np.ndarray, E: float) -> np.ndarray:
    """ln t^E(n)^2 for n = 1..len(a)-1 (entry n-1 holds site n).

    a, b hold sites 0..n_max. With alpha = (0, 1) and gamma = (1, 0) at
    sites (0, 1), T(n) = [[alpha(n+1), gamma(n+1)], [alpha(n), gamma(n)]];
    ||T||^2 = (g + sqrt(g^2 - 4 det^2)) / 2 from the entry-square sum g and
    det T(n) = 1/a(n), all on the exponent of site n+1 (the larger one).
    """
    n_max = len(a) - 1
    (m_a, k_a), (m_g, k_g) = (propagate(a, b, E, phi0, phi1, n_max + 1)
                              for phi0, phi1 in ((0.0, 1.0), (1.0, 0.0)))
    top = np.maximum(k_a[2:], k_g[2:])
    g = np.zeros(n_max)
    for m, k in ((m_a, k_a), (m_g, k_g)):
        for site in (slice(2, None), slice(1, -1)):
            g += np.ldexp(m[site], k[site] - top) ** 2
    det = np.ldexp(1.0 / a[1:], -2 * top)
    t2 = 0.5 * (g + np.sqrt(np.maximum(g * g - 4.0 * det * det, 0.0)))
    return np.log(t2) + 2.0 * LN2 * top


@dataclass
class CesaroReport:
    """One-energy record of running Cesaro averages of t^E(n)^2."""

    E: float
    N_grid: List[int]
    averages: List[float]
    liminf_proxy: float
    bounded_flag: bool
    log_averages: List[float] = field(default_factory=list)
    saturated: bool = False
    max_log_t: float = 0.0


def cesaro_scan(spec: OperatorSpec, E: float,
                N_grid: Optional[List[int]] = None) -> CesaroReport:
    """Running averages (1/N) sum_{n<=N} t^E(n)^2 at the grid points."""
    if N_grid is None:
        N_grid = default_n_grid()
    if any(b <= a for a, b in zip(N_grid, N_grid[1:])):
        raise InvalidArgumentError("N_grid must be strictly increasing")
    a, b = spec.coefficients(N_grid[-1])
    if not growth_check(a):
        raise InvalidArgumentError("spec fails the finite-truncation growth check")

    lt2 = log_t2_stream(a, b, E)
    log_sums = np.logaddexp.accumulate(lt2)
    max_log_t = float(np.max(0.5 * lt2))
    log_avgs = [float(log_sums[N - 1]) - math.log(N) for N in N_grid]

    saturated = max(log_avgs) > LOG_SAT
    averages = [math.exp(v) if v <= LOG_SAT else math.inf for v in log_avgs]
    last_decade = [a for N, a in zip(N_grid, averages) if N >= N_grid[-1] / 10.0]
    liminf_proxy = min(last_decade)
    bounded = max_log_t <= math.log(TAU_BOUND)
    return CesaroReport(
        E=E, N_grid=list(N_grid), averages=averages,
        liminf_proxy=liminf_proxy, bounded_flag=bounded,
        log_averages=log_avgs, saturated=saturated, max_log_t=max_log_t,
    )


def gamma_membership(spec: OperatorSpec, model: PerturbationModel, E: float,
                     N_max: int = 10 ** 5) -> Tuple[bool, float]:
    """Decade-ratio convergence verdict and the partial sum up to N_max.

    Member when each of the last three decade ratios is <= DECADE_RATIO.
    Requires closed-form per-site moments <~a^4> and <~b^2> from the model.
    """
    if N_max < 100:
        raise InvalidArgumentError("N_max too small for a decade verdict")
    b2 = model.b_dist.moments_array(2, N_max)
    if model.a_dist is not None and model.a_dist.kind != "zero":
        a4 = model.a_dist.moments_array(4, N_max)
        coeff = np.sqrt(a4) + b2
    else:
        coeff = b2
    if not np.all(np.isfinite(coeff)):
        raise UnsupportedModelError("per-site moments not available in closed form")

    a, b = spec.coefficients(N_max)
    lt2 = log_t2_stream(a, b, E)
    log_terms = np.full(N_max + 1, -math.inf)
    pos = np.flatnonzero(coeff[1:] > 0.0) + 1
    log_terms[pos] = (np.log(coeff[pos]) + 4.0 * np.log(a[pos] + 1.0)
                      + 2.0 * lt2[pos - 1])

    decades = decade_log_sums(log_terms)
    total = float(np.logaddexp.reduce(decades))
    if total == -math.inf:
        return True, 0.0
    partial_sum = math.exp(total) if total <= LOG_SAT else math.inf
    return decade_ratios_pass(decades, DECADE_RATIO, 3), partial_sum
