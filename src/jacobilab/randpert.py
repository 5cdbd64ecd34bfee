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
from scipy.special import ndtr, ndtri

from .core import Mat2, OperatorSpec
from .errors import (
    DivergentSeriesError,
    InvalidArgumentError,
    UnsupportedModelError,
)

_SQRT2PI = math.sqrt(2.0 * math.pi)
LOG_SAT = 700.0          # beyond this, exp() overflows a double


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
        T = self.trunc
        Z = 2.0 * ndtr(T) - 1.0
        m = 1.0
        for j in range(2, k + 1, 2):
            m = (j - 1) * m - 2.0 * T ** (j - 1) * _phi(T) / Z
        return m

    def _base_abs_moment(self) -> float:
        """E|X| for the unit-scale base variate."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "uniform":
            return 0.5
        if self.kind == "rademacher":
            return 1.0
        T = self.trunc
        Z = 2.0 * ndtr(T) - 1.0
        return 2.0 * (_phi(0.0) - _phi(T)) / Z

    def moment(self, k: int, n: int) -> float:
        """Closed-form E[value(n)^k]."""
        return self._base_moment(k) * (self.amplitude / n ** self.decay) ** k

    def abs_moment(self, n: int) -> float:
        return self._base_abs_moment() * self.amplitude / n ** self.decay

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

    def validate_against(self, spec: OperatorSpec, n_check: int = 1000) -> None:
        """Pointwise delta-constraint delta < a/(a+~a) < 1/delta on the support."""
        if self.a_dist is None or self.a_dist.kind == "zero":
            return
        a_arr, _ = spec.coefficients(n_check)
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

    seed: int
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
    return Realization(seed=seed, n_max=n_max, b_tilde=b_tilde, a_tilde=a_tilde)


# ---------------------------------------------------------------------------
# maximal inequality (weighted Kolmogorov-type bound)
# ---------------------------------------------------------------------------

@dataclass
class InequalityReport:
    empirical_prob: float
    bound: float
    exact: bool
    trials: int
    variance_std_error: float = 0.0


def _z_values(x: np.ndarray, f_defs, N1: int, N2: int) -> np.ndarray:
    """z(n) = x(n) * f_n(x(n+1), ..., x(N2)) for n = N1..N2.

    x is indexed by site; f_defs is None (f == 1) or a callable
    f(n, tail) receiving only the strictly later window.
    """
    if f_defs is None:
        return x[N1:N2 + 1].copy()
    z = np.empty(N2 - N1 + 1)
    for i, n in enumerate(range(N1, N2 + 1)):
        tail = x[n + 1:N2 + 1]
        z[i] = x[n] * float(f_defs(n, tail))
    return z


def _max_suffix_abs(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """max_n |z(n) + ... + z(last)| over suffixes, along an axis."""
    rev = np.flip(np.cumsum(np.flip(z, axis=axis), axis=axis), axis=axis)
    return np.max(np.abs(rev), axis=axis)


def maximal_inequality_check(model: PerturbationModel, f_defs, N1: int, N2: int,
                             r: float, trials: int = 10 ** 4,
                             seed: int = 0) -> InequalityReport:
    """Empirical exceedance probability against the variance bound sum<z^2>/r^2.

    Rademacher windows of width <= 16 are enumerated exhaustively (exact
    probability, exact variances); otherwise the probability is Monte Carlo
    and the bound uses closed-form variances when f == 1 or a separate
    Monte Carlo variance estimate with its standard error.
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
        xs = patterns * scale
        if f_defs is None:
            zs = xs
        else:
            zs = np.empty_like(xs)
            for p in range(xs.shape[0]):
                xfull = np.zeros(N2 + 1)
                xfull[N1:N2 + 1] = xs[p]
                zs[p] = _z_values(xfull, f_defs, N1, N2)
        exceed = _max_suffix_abs(zs) > r
        prob = float(np.mean(exceed))
        var_sum = float(np.mean(zs ** 2, axis=0).sum())
        bound = var_sum / r ** 2 if r > 0 else math.inf
        return InequalityReport(prob, bound, True, xs.shape[0])

    # Monte Carlo path
    exceed_count = 0
    var_acc = np.zeros(width)
    var_sq_acc = np.zeros(width)
    chunk = 2000
    done = 0
    while done < trials:
        c = min(chunk, trials - done)
        xfull = np.zeros((c, N2 + 1))
        for t in range(c):
            u = stream_uniforms(model.exp_id, "ineq", seed + done + t, N2)
            xfull[t] = dist.transform(u, sites)
            xfull[t, 0] = 0.0
        if f_defs is None:
            zs = xfull[:, N1:N2 + 1]
        else:
            zs = np.empty((c, width))
            for t in range(c):
                zs[t] = _z_values(xfull[t], f_defs, N1, N2)
        exceed_count += int(np.sum(_max_suffix_abs(zs, axis=1) > r))
        var_acc += np.sum(zs ** 2, axis=0)
        var_sq_acc += np.sum(zs ** 4, axis=0)
        done += c
    prob = exceed_count / trials
    if f_defs is None:
        var_sum = sum(dist.moment(2, n) for n in range(N1, N2 + 1))
        var_se = 0.0
    else:
        mean_sq = var_acc / trials
        var_sum = float(mean_sq.sum())
        per_site_var = var_sq_acc / trials - mean_sq ** 2
        var_se = float(np.sqrt(np.sum(np.maximum(per_site_var, 0.0)) / trials))
    bound = var_sum / r ** 2 if r > 0 else math.inf
    return InequalityReport(prob, bound, False, trials, var_se)


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
    earlier decade is empty.
    """
    if len(log_sums) <= window:
        return False
    tail = log_sums[len(log_sums) - window - 1:]
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
    n_tail: int
    trials: int


def _weight_array(weights, n_max: int) -> np.ndarray:
    """Scalar weights w(n) for n = 1..n_max (index 0 zero)."""
    w = np.zeros(n_max + 1)
    for n in range(1, n_max + 1):
        wn = weights(n)
        if isinstance(wn, Mat2):
            wn = wn.hs_norm()
        w[n] = float(wn)
    return w


def series_convergence_check(model: PerturbationModel, weights, n_tail: int,
                             trials: int = 10 ** 4, n_max: int = 10 ** 4,
                             seed: int = 0) -> SeriesReport:
    """Monte Carlo tail statistics for S = sum b~(n) w(n).

    Requires the closed-form variance series to pass the decade-ratio test
    (last ratio <= 0.95 over full decades); reports per-checkpoint sup-tail
    quantiles and the second moment of the tail sum from n_tail, against
    the closed-form variance bound.
    """
    dist = model.b_dist
    w = _weight_array(weights, n_max)
    var = dist.moments_array(2, n_max) * w ** 2
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
        z = b * w
        S = np.cumsum(z)  # S[k] = sum_{n<=k}
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
        n_tail=n_tail,
        trials=trials,
    )
