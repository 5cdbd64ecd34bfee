"""Stability diagnostics for singular (Hausdorff-dimensional) spectral data.

For an energy with a subordinate solution of exponent beta > 0, the
admissibility weight r(n) = |phi1(n)|^4 n^{2 eta~} + |phi2(n)|^4 decides
whether a decaying random diagonal perturbation preserves the L-norm
asymptotics of the boundary pair: membership holds when
sum r(n) <~b(n)^2> converges for some eta~ > eta = (1 - beta) / beta.
The stability experiment then builds perturbed solutions per seed and
tracks the L-norm ratio traces toward 1, plus the power-law sandwich on
the unperturbed pair. Membership uses the shared decade-ratio test
(randpert.decade_log_sums and randpert.decade_ratios_pass, last two
ratios <= 0.9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .core import OperatorSpec
from .errors import InvalidArgumentError
from .randpert import (
    PerturbationModel,
    decade_log_sums,
    decade_ratios_pass,
    sample,
)
from .subordinacy import (
    detect_subordinate,
    fitted_growth_exponent,
    l_norms,
    solve_pair,
)
from .variation import perturbed_solutions, subordinate_generator_array

ETA_GRID_POINTS = 16
ETA_GRID_SPAN = 2.0
RATIO_BAND = (0.8, 1.25)
DECADE_RATIO = 0.9
SANDWICH_EPS = 0.1


@dataclass
class SingularEnergyReport:
    E: float
    beta: float
    eta: float
    eta_tilde: float
    lambda_member: bool
    ratio_psi1: List[Tuple[float, float]]
    ratio_psi2: List[Tuple[float, float]]
    exp1: float = math.nan
    exp2: float = math.nan
    sandwich_ok: bool = False


def r_sequence(phi1: np.ndarray, phi2: np.ndarray, eta_tilde: float,
               n_max: int) -> np.ndarray:
    """ln r(n), r(n) = |phi1(n)|^4 n^{2 eta~} + |phi2(n)|^4, for n = 0..n_max.

    Formed in the log domain, where n^{2 eta~} cannot overflow against a
    decaying phi1; r(0) = 0, so entry 0 is -inf.
    """
    if eta_tilde <= 0.0:
        raise InvalidArgumentError("eta~ must be positive")
    if len(phi1) <= n_max or len(phi2) <= n_max:
        raise InvalidArgumentError("solutions shorter than n_max")
    n = np.arange(n_max + 1, dtype=float)
    n[0] = 1.0
    with np.errstate(divide="ignore"):
        log1, log2 = (4.0 * np.log(np.abs(phi[:n_max + 1]))
                      for phi in (phi1, phi2))
    log_r = np.logaddexp(log1 + 2.0 * eta_tilde * np.log(n), log2)
    log_r[0] = -math.inf
    return log_r


def default_eta_grid(eta: float) -> np.ndarray:
    return np.geomspace(eta + 0.01, eta + ETA_GRID_SPAN, ETA_GRID_POINTS)


def lambda_membership(phi1: np.ndarray, phi2: np.ndarray, eta: float,
                      model: PerturbationModel) -> Tuple[bool, float]:
    """Scan eta~ > eta for a convergent sum r_eta~(n) <~b(n)^2>.

    Convergent means the last two decade ratios are each <= DECADE_RATIO.
    Returns (member, chosen eta~). With no admissible grid point, the
    reported eta~ is the smallest grid value (the least divergent sum by
    monotonicity of r in eta~).
    """
    eta_grid = default_eta_grid(eta)
    n_max = min(len(phi1), len(phi2)) - 1
    with np.errstate(divide="ignore"):
        log_b2 = np.log(model.b_dist.moments_array(2, n_max))
    for et in eta_grid:
        if et <= eta:  # eta + 0.01 rounds to eta only for huge eta
            continue
        log_sums = decade_log_sums(r_sequence(phi1, phi2, et, n_max) + log_b2)
        if decade_ratios_pass(log_sums, DECADE_RATIO, 2):
            return True, float(et)
    return False, float(eta_grid[0])


def sandwich_holds(beta: float, exp1: float, exp2: float) -> bool:
    """The power-law sandwich on fitted L-norm exponents, slack SANDWICH_EPS.

    1 - 1/(2 beta) - eps <= exp1 <= 1/2 + eps and
    1/2 - eps <= exp2 <= 1/(2 beta) + eps, for beta > 0.
    """
    eps = SANDWICH_EPS
    return (1.0 - 1.0 / (2.0 * beta) - eps <= exp1 <= 0.5 + eps
            and 0.5 - eps <= exp2 <= 1.0 / (2.0 * beta) + eps)


def stability_experiment(spec: OperatorSpec, model: PerturbationModel, E: float,
                         seeds: Sequence[int], L_grid: Sequence[float]
                         ) -> SingularEnergyReport:
    """Per-seed perturbed-pair L-norm ratios plus the exponent sandwich.

    The unperturbed boundary pair is found by the subordinacy scan;
    requires a subordinate solution with beta > 0. One build of the
    coefficient arrays serves the pair and every seed. The pair's L-norms
    serve both the sandwich fits and the denominators of every seed's
    ratios ||psi_i||_L / ||phi_i||_L; they and the generator rows are
    built once for all seeds.
    """
    L_grid = np.sort(np.asarray(L_grid, dtype=float))
    subordinacy = detect_subordinate(spec, E, L_grid=L_grid)
    if subordinacy.beta <= 0.0 or subordinacy.eta is None:
        raise InvalidArgumentError(
            f"no candidate solution with beta > 0 at E = {E}"
        )
    beta = subordinacy.beta
    eta = subordinacy.eta
    theta = subordinacy.theta_best
    n_max = int(math.floor(L_grid[-1])) + 2

    coefficients = spec.coefficients(n_max)
    phi1, phi2 = solve_pair(*coefficients, E, theta, n_max)
    member, eta_tilde = lambda_membership(phi1, phi2, eta, model)

    norm1, norm2 = l_norms(phi1, L_grid), l_norms(phi2, L_grid)
    # math.log, not np.log: the two differ in the last bit on some values
    exp1, exp2 = (fitted_growth_exponent(L_grid, [math.log(x) for x in n])
                  for n in (norm1, norm2))

    rows = subordinate_generator_array(phi1, phi2, 0, n_max)
    r1 = np.empty((len(seeds), len(L_grid)))
    r2 = np.empty((len(seeds), len(L_grid)))
    for i, s in enumerate(seeds):
        psi1, psi2 = perturbed_solutions(coefficients, rows,
                                         sample(model, s, n_max), E,
                                         phi1, phi2)
        r1[i] = l_norms(psi1, L_grid) / norm1
        r2[i] = l_norms(psi2, L_grid) / norm2
    med1 = np.median(r1, axis=0)
    med2 = np.median(r2, axis=0)

    return SingularEnergyReport(
        E=E, beta=beta, eta=eta, eta_tilde=eta_tilde,
        lambda_member=member,
        ratio_psi1=list(zip(L_grid.tolist(), med1.tolist())),
        ratio_psi2=list(zip(L_grid.tolist(), med2.tolist())),
        exp1=exp1, exp2=exp2,
        sandwich_ok=sandwich_holds(beta, exp1, exp2),
    )


def terminal_ratio_verdict(report: SingularEnergyReport) -> bool:
    """Terminal median ratios inside the acceptance band."""
    lo, hi = RATIO_BAND
    t1 = report.ratio_psi1[-1][1]
    t2 = report.ratio_psi2[-1][1]
    return lo <= t1 <= hi and lo <= t2 <= hi
