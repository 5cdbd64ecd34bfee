"""Random perturbation models, reproducible sampling, and the probabilistic checks.

Per-site values are c * X(n) / n^s with X drawn from a small catalog of
zero-mean distributions whose moments up to order 4 are available in closed
form. Streams are counter-based (Philox) keyed by (experiment id, stream
tag, seed), with exactly one uniform consumed per site, so the value at a
given (seed, site) is reproducible bit-for-bit regardless of n_max.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .core import OperatorSpec
from .errors import (
    DivergentSeriesError,
    InvalidArgumentError,
    UnsupportedModelError,
)

_SQRT2PI = math.sqrt(2.0 * math.pi)
LOG_SAT = 700.0          # beyond this, exp() overflows a double
DELTA_CHECK_SITES = 1000  # sites checked by PerturbationModel.validate_against


def _phi(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT2PI


@dataclass(frozen=True)
class SiteDistribution:
    """Distribution of one perturbation sequence: value(n) = c * X(n) / n^s.

    kind: zero | uniform | rademacher | tgauss. X is supported in
    [-1, 1] for uniform/rademacher and in [-trunc, trunc] for the
    truncated Gaussian.
    """

    kind: str
    amplitude: float = 1.0
    decay: float = 0.0
    trunc: float = 2.0

    def __post_init__(self):
        if self.kind not in ("zero", "uniform", "rademacher", "tgauss"):
            raise UnsupportedModelError(f"unknown distribution kind {self.kind}")

    def _base_moment(self, k: int) -> float:
        """E[X^k] for the unit-scale base variate."""
        if self.kind == "zero":
            return 0.0
        if k % 2 == 1:
            return 0.0
        if self.kind == "uniform":
            return 1.0 / (k + 1)
        if self.kind == "rademacher":
            return 1.0
        # truncated standard normal on [-T, T], by parts:
        # E[X^k] = (k-1) E[X^{k-2}] - 2 T^{k-1} phi(T) / Z
        from scipy.special import ndtr  # tgauss alone needs scipy
        T = self.trunc
        Z = 2.0 * ndtr(T) - 1.0
        m = 1.0
        for j in range(2, k + 1, 2):
            m = (j - 1) * m - 2.0 * T ** (j - 1) * _phi(T) / Z
        return m

    def moment(self, k: int, n: int) -> float:
        """Closed-form E[value(n)^k]."""
        return self._base_moment(k) * (self.amplitude / n ** self.decay) ** k

    def moments_array(self, k: int, n_max: int) -> np.ndarray:
        """E[value(n)^k] for n = 1..n_max, entry [0] unused (zero)."""
        out = np.zeros(n_max + 1)
        n = np.arange(1, n_max + 1, dtype=float)
        out[1:] = self._base_moment(k) * (self.amplitude / n ** self.decay) ** k
        return out

    def support_bound(self, n: int) -> float:
        b = self.amplitude if self.kind != "tgauss" else self.amplitude * self.trunc
        return b / n ** self.decay

    def transform(self, u: np.ndarray, n: np.ndarray) -> np.ndarray:
        """Map uniforms in [0, 1) to per-site values (one draw per site)."""
        if self.kind == "zero":
            x = np.zeros_like(u)
        elif self.kind == "uniform":
            x = 2.0 * u - 1.0
        elif self.kind == "rademacher":
            x = np.where(u < 0.5, -1.0, 1.0)
        else:
            from scipy.special import ndtr, ndtri  # tgauss alone needs scipy
            lo = ndtr(-self.trunc)
            hi = ndtr(self.trunc)
            x = ndtri(lo + u * (hi - lo))
        return self.amplitude * x / np.asarray(n, dtype=float) ** self.decay


def zero_distribution() -> SiteDistribution:
    return SiteDistribution(kind="zero", amplitude=0.0)


def uniform_over_n(amplitude: float = 1.0, decay: float = 1.0) -> SiteDistribution:
    return SiteDistribution(kind="uniform", amplitude=amplitude, decay=decay)


@dataclass(frozen=True)
class PerturbationModel:
    """Independent zero-mean per-site perturbations of b (and optionally a)."""

    b_dist: SiteDistribution
    a_dist: Optional[SiteDistribution] = None
    delta: float = 0.5
    exp_id: str = "default"

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise InvalidArgumentError("delta must lie in (0, 1)")

    def validate_against(self, spec: OperatorSpec) -> None:
        """Pointwise delta-constraint delta < a/(a+~a) < 1/delta on the support.

        Checked at sites 1..DELTA_CHECK_SITES.
        """
        if self.a_dist is None or self.a_dist.kind == "zero":
            return
        a_arr, _ = spec.coefficients(DELTA_CHECK_SITES)
        for n, a in enumerate(memoryview(a_arr)[1:], start=1):
            bound = self.a_dist.support_bound(n)
            for at in (-bound, bound):
                if a + at <= 0.0:
                    raise InvalidArgumentError(
                        f"a({n}) + ~a can vanish (support bound {bound})"
                    )
                ratio = a / (a + at)
                if not (self.delta < ratio < 1.0 / self.delta):
                    raise InvalidArgumentError(
                        f"delta constraint fails at site {n}: a/(a+~a) = {ratio}"
                    )


@dataclass
class Realization:
    """One drawn perturbation sequence (the omega of the ensemble)."""

    n_max: int
    b_tilde: np.ndarray
    a_tilde: Optional[np.ndarray] = None

    def a_tilde_or_zeros(self) -> np.ndarray:
        if self.a_tilde is None:
            return np.zeros(self.n_max + 1)
        return self.a_tilde


def _philox_key(exp_id: str, tag: str, seed: int) -> np.ndarray:
    h = hashlib.sha256(f"{exp_id}:{tag}".encode()).digest()
    w0 = int.from_bytes(h[:8], "little")
    w1 = int.from_bytes(h[8:16], "little")
    return np.array([w0 ^ (seed & 0xFFFFFFFFFFFFFFFF), w1], dtype=np.uint64)


def stream_uniforms(exp_id: str, tag: str, seed: int, n_max: int) -> np.ndarray:
    """u[n] for sites n = 1..n_max; u[0] is unused (zero)."""
    gen = np.random.Generator(np.random.Philox(key=_philox_key(exp_id, tag, seed)))
    u = np.zeros(n_max + 1)
    u[1:] = gen.random(n_max)
    return u


def sample(model: PerturbationModel, seed: int, n_max: int) -> Realization:
    """Draw one realization; identical (model, seed, site) reproduce bit-for-bit."""
    sites = np.arange(n_max + 1, dtype=float)
    sites[0] = 1.0  # avoid 0^(-s); entry 0 is zeroed below
    u_b = stream_uniforms(model.exp_id, "b", seed, n_max)
    b_tilde = model.b_dist.transform(u_b, sites)
    b_tilde[0] = 0.0
    a_tilde = None
    if model.a_dist is not None and model.a_dist.kind != "zero":
        u_a = stream_uniforms(model.exp_id, "a", seed, n_max)
        a_tilde = model.a_dist.transform(u_a, sites)
        a_tilde[0] = 0.0
    return Realization(n_max=n_max, b_tilde=b_tilde, a_tilde=a_tilde)


# ---------------------------------------------------------------------------
# maximal inequality (weighted Kolmogorov-type bound)
# ---------------------------------------------------------------------------

@dataclass
class InequalityReport:
    empirical_prob: float
    bound: float
    exact: bool
    trials: int


def _max_suffix_abs(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """max_n |z(n) + ... + z(last)| over suffixes, along an axis."""
    rev = np.flip(np.cumsum(np.flip(z, axis=axis), axis=axis), axis=axis)
    return np.max(np.abs(rev), axis=axis)


def maximal_inequality_check(model: PerturbationModel, N1: int, N2: int,
                             r: float, trials: int = 10 ** 4,
                             seed: int = 0) -> InequalityReport:
    """Empirical exceedance probability against the variance bound sum<z^2>/r^2.

    Rademacher windows of width <= 16 are enumerated exhaustively (exact
    probability, exact variances); otherwise the probability is Monte Carlo
    and the bound uses closed-form variances.
    """
    if N1 >= N2:
        raise InvalidArgumentError("need N1 < N2")
    if r < 0.0:
        raise InvalidArgumentError("r must be >= 0")
    dist = model.b_dist
    width = N2 - N1 + 1
    sites = np.arange(N2 + 1, dtype=float)
    sites[0] = 1.0

    if dist.kind == "rademacher" and width <= 16:
        # exhaustive enumeration over sign patterns in the window
        patterns = np.array(
            np.meshgrid(*([[-1.0, 1.0]] * width), indexing="ij")
        ).reshape(width, -1).T  # (2^width, width)
        scale = dist.amplitude / sites[N1:N2 + 1] ** dist.decay
        zs = patterns * scale
        exceed = _max_suffix_abs(zs) > r
        prob = float(np.mean(exceed))
        var_sum = float(np.mean(zs ** 2, axis=0).sum())
        bound = var_sum / r ** 2 if r > 0 else math.inf
        return InequalityReport(prob, bound, True, zs.shape[0])

    # Monte Carlo path
    exceed_count = 0
    chunk = 2000
    done = 0
    while done < trials:
        c = min(chunk, trials - done)
        xfull = np.zeros((c, N2 + 1))
        for t in range(c):
            u = stream_uniforms(model.exp_id, "ineq", seed + done + t, N2)
            xfull[t] = dist.transform(u, sites)
            xfull[t, 0] = 0.0
        zs = xfull[:, N1:N2 + 1]
        exceed_count += int(np.sum(_max_suffix_abs(zs, axis=1) > r))
        done += c
    prob = exceed_count / trials
    var_sum = sum(dist.moment(2, n) for n in range(N1, N2 + 1))
    bound = var_sum / r ** 2 if r > 0 else math.inf
    return InequalityReport(prob, bound, False, trials)


# ---------------------------------------------------------------------------
# decade-ratio convergence test
# ---------------------------------------------------------------------------

def decade_ends(n_max: int) -> List[int]:
    """The last site of each decade of sites up to n_max.

    Decade k = 1, 2, ... holds the sites (10^(k-1), 10^k] ∩ [1, n_max],
    the first one [1, 10]; the ends are 10, 100, ... and n_max.
    """
    ends = []
    lo, hi = 1, 10
    while lo <= n_max:
        ends.append(min(hi, n_max))
        lo, hi = hi + 1, hi * 10
    return ends


def decade_log_sums(log_terms: np.ndarray) -> List[float]:
    """Log of the sum over each decade of sites up to n_max (decade_ends).

    log_terms[n] is the log of the term at site n for n = 0..n_max
    (entry 0 unused, -inf for a zero term); a decade of zero terms only
    is empty and has log sum -inf.
    """
    log_terms = np.asarray(log_terms, dtype=float)
    sums = []
    lo = 1
    for hi in decade_ends(len(log_terms) - 1):
        sums.append(float(np.logaddexp.reduce(log_terms[lo:hi + 1])))
        lo = hi + 1
    return sums


def decade_ratios_pass(log_sums: Sequence[float], threshold: float,
                       window: int) -> bool:
    """True when there are >= window decade ratios and the last window are
    each <= threshold.

    A ratio is 0 when its later decade is empty and inf when only its
    earlier decade is empty. A NaN sum fails the test.
    """
    if len(log_sums) <= window:
        return False
    tail = log_sums[len(log_sums) - window - 1:]
    if any(math.isnan(s) for s in tail):
        return False
    for a, b in zip(tail[:-1], tail[1:]):
        if b == -math.inf:
            continue
        if a == -math.inf or b - a > LOG_SAT or math.exp(b - a) > threshold:
            return False
    return True


# ---------------------------------------------------------------------------
# almost-sure convergence of weighted random series (tail statistics)
# ---------------------------------------------------------------------------

@dataclass
class SeriesReport:
    checkpoints: np.ndarray
    tail_sup_median: np.ndarray
    tail_sup_p95: np.ndarray
    tail_second_moment: float
    tail_second_moment_se: float
    variance_bound: float
    trials: int


def series_convergence_check(model: PerturbationModel, n_tail: int,
                             trials: int = 10 ** 4, n_max: int = 10 ** 4,
                             seed: int = 0) -> SeriesReport:
    """Monte Carlo tail statistics for S = sum b~(n).

    Requires the closed-form variance series to pass the decade-ratio test
    (last ratio <= 0.95 over full decades); reports per-checkpoint sup-tail
    quantiles and the second moment of the tail sum from n_tail, against
    the closed-form variance bound.
    """
    dist = model.b_dist
    var = dist.moments_array(2, n_max)
    full = var[:10 ** int(math.log10(n_max)) + 1]  # full decades only
    with np.errstate(divide="ignore"):
        log_sums = decade_log_sums(np.log(full))
    if len(log_sums) >= 2 and not decade_ratios_pass(log_sums, 0.95, 1):
        raise DivergentSeriesError(
            "variance series fails the decade-ratio test: "
            f"decade sums {np.exp(log_sums).tolist()}"
        )
    variance_bound = float(var.sum())

    checkpoints = np.unique(np.geomspace(10, n_max, 12).astype(int))
    sups = np.empty((trials, len(checkpoints)))
    tail_sq = np.empty(trials)
    sites = np.arange(n_max + 1, dtype=float)
    sites[0] = 1.0
    for t in range(trials):
        u = stream_uniforms(model.exp_id, "series", seed + t, n_max)
        b = dist.transform(u, sites)
        b[0] = 0.0
        S = np.cumsum(b)  # S[k] = sum_{n<=k}
        final = S[-1]
        dev = np.abs(S - final)
        # running sup over m >= index
        sup_from = np.flip(np.maximum.accumulate(np.flip(dev)))
        sups[t] = sup_from[checkpoints]
        tail_sq[t] = (final - S[n_tail - 1]) ** 2
    t2 = float(np.mean(tail_sq))
    t2_se = float(np.std(tail_sq, ddof=1) / math.sqrt(trials))
    return SeriesReport(
        checkpoints=checkpoints,
        tail_sup_median=np.median(sups, axis=0),
        tail_sup_p95=np.percentile(sups, 95, axis=0),
        tail_second_moment=t2,
        tail_second_moment_se=t2_se,
        variance_bound=variance_bound,
        trials=trials,
    )
