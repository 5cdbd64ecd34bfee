"""Sparse bump potentials: fast propagation, envelope exponents, thresholds.

The potential equals v exactly at the geometric bump sites n_j = gamma^j
and vanishes elsewhere, so solution amplitudes change only at bumps. The
kernel propagates the solution pair bump-to-bump with closed-form powers
of the free step (extended-precision angle reduction handles gaps up to
2^127 sites), fits power-law envelopes to the amplitudes at bump sites, and
runs the decaying-random-perturbation stability experiment against the
decay threshold s > 4 b2/(1-2 b2) - 2 b1 + 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .errors import (
    DivergentSeriesError,
    InsufficientDataError,
    InvalidArgumentError,
    OverflowSiteError,
    UnsupportedModelError,
)
from .randpert import PerturbationModel, SiteDistribution, sample
from .singular import sandwich_holds
from .subordinacy import minimize_boundary_angle, solve_pair
from .variation import neumann_layers, subordinate_generator_array

ENVELOPE_DISCARD = 5      # transient bumps excluded from every fit window
SITE_LIMIT = 2 ** 127


@dataclass
class SparseSpec:
    """Bump height v at sites gamma^j, zero elsewhere; a == 1 throughout."""

    v: float
    gamma: int
    j_max: int
    bump_sites: List[int] = field(init=False)

    def __post_init__(self):
        if not isinstance(self.gamma, int) or self.gamma < 2:
            raise InvalidArgumentError("gamma must be an integer >= 2")
        if self.gamma ** self.j_max >= SITE_LIMIT:
            raise InvalidArgumentError("gamma^j_max exceeds the site limit")
        self.bump_sites = [self.gamma ** j for j in range(1, self.j_max + 1)]

    def coefficients(self, n_max: int) -> Tuple[np.ndarray, np.ndarray]:
        """Arrays a(n) = 1 and b(n), v at the bumps, for n = 0..n_max."""
        b = np.zeros(n_max + 1)
        b[[n for n in self.bump_sites if n <= n_max]] = self.v
        return np.ones(n_max + 1), b


@dataclass
class EnvelopeFit:
    beta1_hat: float
    beta2_hat: float


def _cheb_u_pair(t: float, m: int) -> Tuple[float, float]:
    """(U_{m-1}(t/2), U_{m-2}(t/2)) for an elliptic or parabolic trace t.

    The phase m*theta of the angle form is reduced with extended
    precision once m is large enough for double precision to lose it.
    """
    x = 0.5 * t
    if abs(abs(x) - 1.0) <= 1e-12:
        s = 1.0 if x > 0 else -1.0  # parabolic: U_k(+-1) = (+-1)^k (k+1)
        return s ** (m - 1) * m, s ** m * (m - 1)
    if m <= 10 ** 6:
        th = math.acos(x)
        s = math.sin(th)
        return math.sin(m * th) / s, math.sin((m - 1) * th) / s
    import mpmath  # loaded only for gaps this long
    with mpmath.workprec(int(m).bit_length() + 96):
        th = mpmath.acos(mpmath.mpf(x))
        s = mpmath.sin(th)
        return (float(mpmath.sin(m * th) / s),
                float(mpmath.sin((m - 1) * th) / s))


def block_matrices(sspec: SparseSpec, E: float) -> List[List[float]]:
    """(free-gap power, bump step) entries per bump, in propagation order.

    Each bump gives f11, f12, f21, f22, b11, b12, b21, b22 as Python
    floats. The free factor carries the state from just after bump j-1 to
    just before applying bump j's step, i.e. to (phi(n_j), phi(n_j-1)).
    A gap of m free steps S = [[E, -1], [1, 0]] is S^m = p S - q I with
    (p, q) = (U_{m-1}, U_{m-2}) at E/2 (Cayley-Hamilton).
    """
    if not -2.0 < E < 2.0:
        raise UnsupportedModelError(
            "fast sparse propagation requires |E| < 2 (elliptic free blocks)"
        )
    bump = [E - sspec.v, -1.0, 1.0, 0.0]
    out = []
    for prev, nj in zip([0, *sspec.bump_sites], sspec.bump_sites):
        p, q = _cheb_u_pair(E, nj - prev - 1)
        out.append([p * E - q, -p, p, -q] + bump)
    return out


def _bump_states(blocks: List[List[float]], x: np.ndarray,
                 y: np.ndarray) -> np.ndarray:
    """Pre-bump states (phi(n_j), phi(n_j - 1)), shape (bumps, 2, lanes),
    from lanes of initial data (phi(1), phi(0)) = (x, y). A state that
    overflows is left inf or nan for _amplitudes to name."""
    states = np.empty((len(blocks), 2, len(x)))
    with np.errstate(over="ignore", invalid="ignore"):
        for j, (f11, f12, f21, f22, b11, b12, b21, b22) in enumerate(blocks):
            x, y = f11 * x + f12 * y, f21 * x + f22 * y
            states[j] = x, y
            x, y = b11 * x + b12 * y, b21 * x + b22 * y
    return states


def _amplitudes(sspec: SparseSpec, states: np.ndarray) -> np.ndarray:
    """(|phi(n_j - 1)|^2 + |phi(n_j)|^2)^{1/2}, shape (bumps, lanes).

    states is _bump_states over sspec's blocks. Raises OverflowSiteError
    naming the first bump where the amplitude of a lane is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        amp = np.sqrt(states[:, 0] ** 2 + states[:, 1] ** 2)
    bad = np.flatnonzero(~np.isfinite(amp).all(axis=1))
    if len(bad):
        raise OverflowSiteError(sspec.bump_sites[bad[0]])
    return amp


@dataclass
class SparsePropagation:
    bump_sites: List[int]
    amp1: np.ndarray
    amp2: np.ndarray
    states1: np.ndarray      # pre-bump states (phi(n_j), phi(n_j - 1))
    states2: np.ndarray


def sparse_propagate(sspec: SparseSpec, theta: float,
                     blocks: List[List[float]]) -> SparsePropagation:
    """Amplitudes (|phi(n_j - 1)|^2 + |phi(n_j)|^2)^{1/2} at every bump.

    phi1 starts from (phi(0), phi(1)) = (-sin t, cos t); phi2 from the
    orthogonal angle. States are evaluated just before each bump step;
    blocks is block_matrices(sspec, E). Raises OverflowSiteError naming
    the first bump whose amplitude is not finite.
    """
    c, s = math.cos(theta), math.sin(theta)
    states = _bump_states(blocks, np.array([c, s]), np.array([-s, c]))
    amp1, amp2 = _amplitudes(sspec, states).T
    return SparsePropagation(
        bump_sites=list(sspec.bump_sites), amp1=amp1, amp2=amp2,
        states1=states[:, :, 0], states2=states[:, :, 1])


def find_subordinate_angle(sspec: SparseSpec,
                           blocks: List[List[float]]) -> float:
    """Boundary angle minimizing the terminal bump amplitude of phi1.

    blocks is block_matrices(sspec, E). A terminal amplitude that is not
    finite raises OverflowSiteError, before any score is compared, naming
    the first bump where an amplitude of its walk is not finite.
    """
    def terminal_amp(theta_arr: np.ndarray) -> np.ndarray:
        states = _bump_states(blocks, np.cos(theta_arr), -np.sin(theta_arr))
        with np.errstate(over="ignore", invalid="ignore"):
            amp = np.hypot(*states[-1])
        if not np.isfinite(amp).all():
            _amplitudes(sspec, states)  # raises: the last bump at the latest
        return amp

    return minimize_boundary_angle(
        terminal_amp,
        lambda theta: float(terminal_amp(np.array([theta]))[0]), 60)


def envelope_exponents(bump_sites: Sequence[int],
                       amplitudes: np.ndarray) -> EnvelopeFit:
    """Power-law envelope fit of bump amplitudes (scale-invariant slopes).

    beta2_hat is the slope through running-maximum points (upper
    envelope), beta1_hat through running-minimum points; either falls
    back to the central least-squares slope. Needs >= 8 points past the
    transient window.
    """
    amps = np.asarray(amplitudes, dtype=float)
    sites = np.array([float(n) for n in bump_sites])
    if len(amps) - ENVELOPE_DISCARD < 8:
        raise InsufficientDataError("need >= 8 bump amplitudes past transient")
    x = np.log(sites[ENVELOPE_DISCARD:])
    y = np.log(np.maximum(amps[ENVELOPE_DISCARD:], 1e-300))
    slope = np.polyfit(x, y, 1)[0]

    def env_slope(yv: np.ndarray, upper: bool) -> float:
        run = np.maximum.accumulate(yv) if upper else np.minimum.accumulate(yv)
        pick = yv >= run - 1e-12 if upper else yv <= run + 1e-12
        if np.sum(pick) < 2:
            return float(slope)
        return float(np.polyfit(x[pick], yv[pick], 1)[0])

    b2 = env_slope(y, upper=True)
    b1 = env_slope(y, upper=False)
    lo, hi = min(b1, b2), max(b1, b2)
    return EnvelopeFit(beta1_hat=lo, beta2_hat=hi)


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
    sandwich_ok: bool
    tail_bound: float


def _tail_certificate(amp_max: float, s: float, n_cut: int) -> float:
    """An upper bound on amp_max^4 / 3 * sum_{n > n_cut} n^(-2s).

    The truncation certificate: sum_{n > n_cut} <~b^2> ||u||_HS^2-style
    weight with <~b(n)^2> = n^(-2s) / 3, summed in closed form (Hurwitz
    zeta) and rounded up to a double once. mpmath's zeta stops its
    Euler-Maclaurin terms at an absolute tolerance of 2^-prec, so the
    working precision adds the ~(2s - 1) log2(n_cut) bits by which the
    tail lies below 1: at 113 bits alone, zeta(20, 3001) is 2e-12 off.
    """
    import mpmath  # only here and in long gap blocks
    tail_bits = math.ceil((2.0 * s - 1.0) * math.log2(n_cut + 1))
    with mpmath.workprec(113 + max(tail_bits, 0)):
        tail = mpmath.mpf(amp_max) ** 4 / 3 * mpmath.zeta(2.0 * s, n_cut + 1)
    # one ulp up covers the rounding to nearest and the working-precision
    # error of tail alike
    return math.nextafter(float(tail), math.inf)


def perturbed_sparse_experiment(sspec: SparseSpec, s: float,
                                seeds: Sequence[int], E: float,
                                n_cut: int) -> SparseStabilityReport:
    """Envelope stability of the growing solution under X(n)/n^s noise.

    The amplitude column d^+ of the growing solution is summed densely
    up to n_cut (d^- is not needed) and frozen beyond it. The generator
    rows are built once for the whole ensemble, and each seed's sums
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
    theta = find_subordinate_angle(sspec, blocks)
    prop = sparse_propagate(sspec, theta, blocks)
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

    # dense window: the boundary pair and its generator rows
    phi1, phi2 = solve_pair(*sspec.coefficients(n_cut + 1), E, theta,
                            n_cut + 1)
    rows = subordinate_generator_array(phi1, phi2, 0, n_cut + 1)
    model = PerturbationModel(
        b_dist=SiteDistribution(kind="uniform", amplitude=1.0, decay=s),
        exp_id=f"sparse-s{s}",
    )
    tail_bound = _tail_certificate(float(np.max(prop.amp2)), s, n_cut)

    # d+ at each bump, frozen at its n_cut value beyond the dense window
    at_bump = [min(nj, n_cut) for nj in prop.bump_sites]
    beta1s, beta2s = [], []
    for seed in seeds:
        b_tilde = sample(model, seed, n_cut + 1)
        d, _ = neumann_layers(b_tilde, rows, 0, at_bump, columns=(1,))
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
        max_median_diff=diff, sandwich_ok=sandwich, tail_bound=tail_bound,
    )
