"""Sparse bump potentials: fast propagation, envelope exponents, thresholds.

The potential equals v exactly at the geometric bump sites n_j = gamma^j
and vanishes elsewhere, so solution amplitudes change only at bumps. The
kernel propagates the solution pair bump-to-bump with exact constant-step
matrix powers (extended-precision angle reduction handles block lengths up
to 2^127), fits power-law envelopes to the amplitudes at bump sites, and
runs the decaying-random-perturbation stability experiment against the
decay threshold s > 4 b2/(1-2 b2) - 2 b1 + 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import Mat2, OperatorSpec, fast_const_power, single_step
from .errors import (
    DivergentSeriesError,
    InsufficientDataError,
    InvalidArgumentError,
    UnsupportedModelError,
)
from .randpert import PerturbationModel, SiteDistribution, sample
from .singular import sandwich_holds
from .subordinacy import minimize_boundary_angle, solve_pair
from .variation import (
    _reversed_rows,
    neumann_layers,
    subordinate_generator_array,
)

ENVELOPE_DISCARD = 5      # transient bumps excluded from every fit window
SITE_LIMIT = 2 ** 127


@dataclass
class SparseSpec:
    """Bump height v at sites gamma^j, zero elsewhere; a == 1 throughout."""

    v: float = 0.2
    gamma: int = 8
    j_max: int = 30
    bump_sites: List[int] = field(init=False)

    def __post_init__(self):
        if not isinstance(self.gamma, int) or self.gamma < 2:
            raise InvalidArgumentError("gamma must be an integer >= 2")
        if self.gamma ** self.j_max >= SITE_LIMIT:
            raise InvalidArgumentError("gamma^j_max exceeds the site limit")
        self.bump_sites = [self.gamma ** j for j in range(1, self.j_max + 1)]
        self._bumps = frozenset(self.bump_sites)

    def b(self, n: int) -> float:
        return self.v if n in self._bumps else 0.0

    def to_operator_spec(self) -> OperatorSpec:
        return OperatorSpec(a=lambda n: 1.0, b=self.b)


@dataclass
class EnvelopeFit:
    beta1_hat: float
    beta2_hat: float
    residual: float


def _free_block(E: float) -> Mat2:
    if not -2.0 < E < 2.0:
        raise UnsupportedModelError(
            "fast sparse propagation requires |E| < 2 (elliptic free blocks)"
        )
    return single_step(E, 0.0, 1.0, 1.0)


def block_matrices(sspec: SparseSpec, E: float) -> List[Tuple[Mat2, Mat2]]:
    """(free-gap power, bump step) per bump, in propagation order.

    The free factor carries the state from just after bump j-1 to just
    before applying bump j's step, i.e. to the state (phi(n_j), phi(n_j-1)).
    """
    S_free = _free_block(E)
    S_bump = single_step(E, sspec.v, 1.0, 1.0)
    out = []
    prev = 0
    for nj in sspec.bump_sites:
        gap = nj - prev - 1
        out.append((fast_const_power(S_free, gap), S_bump))
        prev = nj
    return out


@dataclass
class SparsePropagation:
    bump_sites: List[int]
    amp1: np.ndarray
    amp2: np.ndarray
    states1: np.ndarray      # pre-bump states (phi(n_j), phi(n_j - 1))
    states2: np.ndarray
    wronskian: np.ndarray


def sparse_propagate(sspec: SparseSpec, E: float, theta: float,
                     blocks: Optional[List[Tuple[Mat2, Mat2]]] = None
                     ) -> SparsePropagation:
    """Amplitudes (|phi(n_j - 1)|^2 + |phi(n_j)|^2)^{1/2} at every bump.

    phi1 starts from (phi(0), phi(1)) = (-sin t, cos t); phi2 from the
    orthogonal angle. States are evaluated just before each bump step.
    """
    if blocks is None:
        blocks = block_matrices(sspec, E)
    s1 = np.array([math.cos(theta), -math.sin(theta)])
    s2 = np.array([math.sin(theta), math.cos(theta)])
    J = len(blocks)
    st1 = np.empty((J, 2))
    st2 = np.empty((J, 2))
    for j, (F, B) in enumerate(blocks):
        for s, st in ((s1, st1), (s2, st2)):
            x, y = F.apply(s[0], s[1])
            st[j, 0], st[j, 1] = x, y
        s1 = np.array(B.apply(st1[j, 0], st1[j, 1]))
        s2 = np.array(B.apply(st2[j, 0], st2[j, 1]))
    amp1 = np.sqrt(st1[:, 0] ** 2 + st1[:, 1] ** 2)
    amp2 = np.sqrt(st2[:, 0] ** 2 + st2[:, 1] ** 2)
    wron = st1[:, 0] * st2[:, 1] - st1[:, 1] * st2[:, 0]
    return SparsePropagation(
        bump_sites=list(sspec.bump_sites), amp1=amp1, amp2=amp2,
        states1=st1, states2=st2, wronskian=wron)


def find_subordinate_angle(sspec: SparseSpec, E: float,
                           blocks: Optional[List[Tuple[Mat2, Mat2]]] = None
                           ) -> float:
    """Boundary angle minimizing the terminal bump amplitude of phi1."""
    if blocks is None:
        blocks = block_matrices(sspec, E)

    def terminal_amp(theta_arr: np.ndarray) -> np.ndarray:
        x = np.cos(theta_arr)
        y = -np.sin(theta_arr)
        for F, B in blocks:
            x, y = F.m11 * x + F.m12 * y, F.m21 * x + F.m22 * y
            amp = np.hypot(x, y)
            x, y = B.m11 * x + B.m12 * y, B.m21 * x + B.m22 * y
        return amp  # amplitude at the last bump, pre-step

    return minimize_boundary_angle(
        terminal_amp,
        lambda theta: float(terminal_amp(np.array([theta]))[0]), 60)


def envelope_exponents(bump_sites: Sequence[int],
                       amplitudes: np.ndarray) -> EnvelopeFit:
    """Power-law envelope fit of bump amplitudes (scale-invariant slopes).

    beta2_hat is the slope through running-maximum points (upper
    envelope), beta1_hat through running-minimum points; the central
    least-squares residual is reported. Needs >= 8 points past the
    transient window.
    """
    amps = np.asarray(amplitudes, dtype=float)
    sites = np.array([float(n) for n in bump_sites])
    if len(amps) - ENVELOPE_DISCARD < 8:
        raise InsufficientDataError("need >= 8 bump amplitudes past transient")
    x = np.log(sites[ENVELOPE_DISCARD:])
    y = np.log(np.maximum(amps[ENVELOPE_DISCARD:], 1e-300))
    slope, icept = np.polyfit(x, y, 1)
    residual = float(np.sqrt(np.mean((y - slope * x - icept) ** 2)))

    def env_slope(yv: np.ndarray, upper: bool) -> float:
        run = np.maximum.accumulate(yv) if upper else np.minimum.accumulate(yv)
        pick = yv >= run - 1e-12 if upper else yv <= run + 1e-12
        if np.sum(pick) < 2:
            return float(slope)
        return float(np.polyfit(x[pick], yv[pick], 1)[0])

    b2 = env_slope(y, upper=True)
    b1 = env_slope(y, upper=False)
    lo, hi = min(b1, b2), max(b1, b2)
    return EnvelopeFit(beta1_hat=lo, beta2_hat=hi, residual=residual)


def s_threshold(beta1: float, beta2: float) -> float:
    """Random-decay threshold 4 b2/(1-2 b2) - 2 b1 + 1/2."""
    if not 0.0 <= beta1 <= beta2:
        raise InvalidArgumentError("need 0 <= beta1 <= beta2")
    if beta2 >= 0.5:
        raise InvalidArgumentError("beta2 must be < 1/2 (formula pole)")
    return 4.0 * beta2 / (1.0 - 2.0 * beta2) - 2.0 * beta1 + 0.5


# ---------------------------------------------------------------------------
# block-approximated L-norms and the perturbed stability experiment
# ---------------------------------------------------------------------------

def block_log_lnorms(bump_sites: Sequence[int],
                     amplitudes: np.ndarray) -> np.ndarray:
    """log ||phi||_{L = n_j} under the constant-amplitude block approximation.

    Between bumps the free evolution conserves the amplitude, so the
    squared values average to amp^2 / 2 over a block; constants drop out
    of any slope fit.
    """
    sites = np.array([float(n) for n in bump_sites])
    lengths = np.diff(np.concatenate([[0.0], sites]))
    log_terms = np.log(lengths) + 2.0 * np.log(
        np.maximum(np.asarray(amplitudes, dtype=float), 1e-300)
    ) - math.log(2.0)
    return 0.5 * np.logaddexp.accumulate(log_terms)


@dataclass
class SparseStabilityReport:
    E: float
    s: float
    s_thr: float
    theta_star: float
    fit_unpert: EnvelopeFit
    beta1_pert_median: float
    beta2_pert_median: float
    max_median_diff: float
    exp1: float
    exp2: float
    sandwich_ok: bool
    tail_bound: float
    n_seeds: int


def _tail_certificate(amp_max: float, s: float, n_cut: int) -> float:
    """An upper bound on amp_max^4 / 3 * sum_{n > n_cut} n^(-2s).

    The truncation certificate: sum_{n > n_cut} <~b^2> ||u||_HS^2-style
    weight with <~b(n)^2> = n^(-2s) / 3, summed in closed form (Hurwitz
    zeta) and rounded up to a double once. mpmath's zeta stops its
    Euler-Maclaurin terms at an absolute tolerance of 2^-prec, so the
    working precision adds the ~(2s - 1) log2(n_cut) bits by which the
    tail lies below 1: at 113 bits alone, zeta(20, 3001) is 2e-12 off.
    """
    import mpmath  # only here and in long block powers
    tail_bits = math.ceil((2.0 * s - 1.0) * math.log2(n_cut + 1))
    with mpmath.workprec(113 + max(tail_bits, 0)):
        tail = mpmath.mpf(amp_max) ** 4 / 3 * mpmath.zeta(2.0 * s, n_cut + 1)
    # one ulp up covers the rounding to nearest and the working-precision
    # error of tail alike
    return math.nextafter(float(tail), math.inf)


def perturbed_sparse_experiment(sspec: SparseSpec, s: float,
                                seeds: Sequence[int], E: float,
                                n_cut: int = 10 ** 5) -> SparseStabilityReport:
    """Envelope stability of the growing solution under X(n)/n^s noise.

    The amplitude column d^+ of the growing solution is summed densely
    up to n_cut (d^- is not needed) and frozen beyond it. The generator
    rows are reversed once for the whole ensemble, and each seed's sums
    are kept only at the bump sites min(n_j, n_cut). The discarded
    tail is certified by the closed-form weighted variance sum over all
    n > n_cut, reported as ``tail_bound``; it diverges, and the call
    raises, for s <= 1/2. The perturbed growing solution's envelope
    exponents are compared with the unperturbed fit, and the unperturbed
    pair's fitted L-norm exponents are tested against the beta-sandwich
    (singular.sandwich_holds).
    """
    if s <= 0.0:
        raise InvalidArgumentError("s must be positive")
    if s <= 0.5:
        raise DivergentSeriesError(
            f"tail certificate sum n^(-2s) diverges for s = {s} <= 1/2")
    blocks = block_matrices(sspec, E)
    theta = find_subordinate_angle(sspec, E, blocks=blocks)
    prop = sparse_propagate(sspec, E, theta, blocks=blocks)
    fit_unpert = envelope_exponents(prop.bump_sites, prop.amp2)

    # sandwich on the unperturbed pair via block-approximated L-norms
    logn1 = block_log_lnorms(prop.bump_sites, prop.amp1)
    logn2 = block_log_lnorms(prop.bump_sites, prop.amp2)
    lx = np.log([float(n) for n in prop.bump_sites])
    win = slice(ENVELOPE_DISCARD, None)
    exp1 = float(np.polyfit(lx[win], logn1[win], 1)[0])
    exp2 = float(np.polyfit(lx[win], logn2[win], 1)[0])
    beta_proxy = exp1 / exp2 if exp2 > 0.0 else 0.0
    sandwich = beta_proxy > 0.0 and sandwich_holds(beta_proxy, exp1, exp2)

    # dense window: the boundary pair and its nilpotent generator array
    phi1, phi2 = solve_pair(
        *sspec.to_operator_spec().coefficients(n_cut + 1), E, theta, n_cut + 1)
    u_arr = subordinate_generator_array(phi1, phi2)
    model = PerturbationModel(
        b_dist=SiteDistribution(kind="uniform", amplitude=1.0, decay=s),
        exp_id=f"sparse-s{s}",
    )
    tail_bound = _tail_certificate(float(np.max(prop.amp2)), s, n_cut)

    # d+ at each bump, frozen at its n_cut value beyond the dense window
    at_bump = [min(nj, n_cut) for nj in prop.bump_sites]
    rows = _reversed_rows(u_arr, 0, n_cut + 1)
    beta1s, beta2s = [], []
    for seed in seeds:
        real = sample(model, seed, n_cut + 1)
        d, _ = neumann_layers(real.b_tilde, rows, 0, at_bump, columns=(1,))
        d_plus = d[:, :, 0]
        v2 = d_plus[:, :1] * prop.states1 + d_plus[:, 1:] * prop.states2
        fit = envelope_exponents(prop.bump_sites, np.array(
            [math.hypot(x, y) for x, y in v2.tolist()]))
        beta1s.append(fit.beta1_hat)
        beta2s.append(fit.beta2_hat)

    b1_med = float(np.median(beta1s))
    b2_med = float(np.median(beta2s))
    diff = max(abs(b1_med - fit_unpert.beta1_hat),
               abs(b2_med - fit_unpert.beta2_hat))
    return SparseStabilityReport(
        E=E, s=s, s_thr=s_threshold(max(fit_unpert.beta1_hat, 0.0),
                                    min(fit_unpert.beta2_hat, 0.499)),
        theta_star=theta, fit_unpert=fit_unpert,
        beta1_pert_median=b1_med, beta2_pert_median=b2_med,
        max_median_diff=diff, exp1=exp1, exp2=exp2,
        sandwich_ok=sandwich, tail_bound=tail_bound, n_seeds=len(seeds),
    )
