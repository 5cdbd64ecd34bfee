"""Random perturbation models, reproducible sampling, and the probabilistic checks.

Per-site values are c * X(n) / n^s with X drawn from a small catalog of
zero-mean distributions whose moments up to order 4 are available in closed
form. Streams are counter-based (Philox) keyed by (experiment id, stream
tag, seed), with exactly one uniform consumed per site, so the value at a
given (seed, site) is reproducible bit-for-bit regardless of n_max.
"""

from __future__ import annotations

import functools
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
    amplitude: float
    decay: float
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

    def transform(self, u: np.ndarray, profile: np.ndarray) -> np.ndarray:
        """Map uniforms in [0, 1) to per-site values, in place of u.

        profile[n] is the divisor n^decay of site n (decay_profile).
        """
        if self.kind == "zero":
            u.fill(0.0)
        elif self.kind == "uniform":
            u *= 2.0
            u -= 1.0
        elif self.kind == "rademacher":
            u[:] = np.where(u < 0.5, -1.0, 1.0)
        else:
            from scipy.special import ndtr, ndtri  # tgauss alone needs scipy
            lo, hi = ndtr(-self.trunc), ndtr(self.trunc)
            u *= hi - lo
            ndtri(np.add(u, lo, out=u), out=u)
        u *= self.amplitude
        u /= profile
        return u


@dataclass(frozen=True)
class PerturbationModel:
    """Independent zero-mean per-site perturbations of b (and optionally a).

    Only b~ is drawn (sample); a~ feeds moments and the delta-constraint.
    """

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


def _philox_key(exp_id: str, tag: str, seed: int) -> np.ndarray:
    h = hashlib.sha256(f"{exp_id}:{tag}".encode()).digest()
    w0 = int.from_bytes(h[:8], "little")
    w1 = int.from_bytes(h[8:16], "little")
    return np.array([w0 ^ (seed & 0xFFFFFFFFFFFFFFFF), w1], dtype=np.uint64)


def stream_uniforms(exp_id: str, tag: str, seed: int, n_max: int,
                    out: Optional[np.ndarray] = None,
                    first: int = 1) -> np.ndarray:
    """u[n] for sites n = first..n_max, bit for bit those of the full
    draw; u[0] is unused (zero), and so are u[1..first-1] unless ``out``,
    a float (n_max + 1)-array that u is written into, holds them. Philox
    yields 4 doubles per counter block: the stream skips (first-1)//4
    blocks and (first-1)%4 doubles.
    """
    if not 1 <= first <= n_max + 1:
        raise InvalidArgumentError(f"first {first} outside 1..{n_max + 1}")
    bits = np.random.Philox(key=_philox_key(exp_id, tag, seed))
    gen = np.random.Generator(bits.advance((first - 1) // 4))
    gen.random((first - 1) % 4)
    u = np.zeros(n_max + 1) if out is None else out
    u[0] = 0.0
    gen.random(out=u[first:])
    return u


@functools.lru_cache(maxsize=4, typed=True)
def decay_profile(decay: float, n_max: int) -> np.ndarray:
    """The divisors n^decay for sites n = 0..n_max, with 0 taken as 1.

    Every draw of a (decay, n_max) divides by the same profile, so it is
    computed once and shared, read-only. ``typed``: an int decay keeps its
    own profile, computed as before by numpy's power on that int.
    """
    sites = np.arange(n_max + 1, dtype=float)
    sites[0] = 1.0  # avoid 0^(-s); sample zeroes entry 0
    profile = sites ** decay
    profile.flags.writeable = False
    return profile


def sample(model: PerturbationModel, seed: int, n_max: int,
           tag: str = "b", out: Optional[np.ndarray] = None,
           first: int = 1) -> np.ndarray:
    """b~(n) for sites n = first..n_max from the stream ``tag``, b~(0) = 0.

    Identical (model, tag, seed, site) reproduce bit-for-bit, whatever
    first is. Every experiment draws b~ alone, so a model with a nonzero
    a~ is refused. With ``out``, a float (n_max + 1)-array, the draw
    overwrites its sites from first on (stream_uniforms) and is returned:
    a seed loop that passes one buffer to every draw makes no span-sized
    allocation per seed, whose fresh pages the allocator would otherwise
    fault in again on each draw.
    """
    if model.a_dist is not None and model.a_dist.kind != "zero":
        raise UnsupportedModelError("only b~ is drawn: a~ is not supported")
    dist = model.b_dist
    b_tilde = stream_uniforms(model.exp_id, tag, seed, n_max, out, first)
    dist.transform(b_tilde[first:], decay_profile(dist.decay, n_max)[first:])
    b_tilde[0] = 0.0
    return b_tilde


# ---------------------------------------------------------------------------
# maximal inequality (weighted Kolmogorov-type bound)
# ---------------------------------------------------------------------------

@dataclass
class InequalityReport:
    empirical_prob: float
    bound: float
    exact: bool
    trials: int


def _max_suffix_abs(z: np.ndarray) -> np.ndarray:
    """max_n |z(n) + ... + z(last)| over suffixes, along the last axis."""
    return np.max(np.abs(np.cumsum(z[..., ::-1], axis=-1)), axis=-1)


def maximal_inequality_check(model: PerturbationModel, N1: int, N2: int,
                             r: float, trials: int,
                             seed: int) -> InequalityReport:
    """Empirical exceedance probability against the variance bound sum<z^2>/r^2.

    Rademacher windows of width <= 16 are enumerated exhaustively (exact
    probability, exact variances); otherwise the probability is Monte Carlo
    and the bound uses closed-form variances.
    """
    if not 1 <= N1 < N2:
        raise InvalidArgumentError("need 1 <= N1 < N2")
    if r < 0.0:
        raise InvalidArgumentError("r must be >= 0")
    dist = model.b_dist
    width = N2 - N1 + 1
    exact = dist.kind == "rademacher" and width <= 16
    if exact:
        # exhaustive enumeration over sign patterns in the window
        patterns = np.array(
            np.meshgrid(*([[-1.0, 1.0]] * width), indexing="ij")
        ).reshape(width, -1).T  # (2^width, width)
        n = np.arange(N1, N2 + 1, dtype=float)
        zs = patterns * (dist.amplitude / n ** dist.decay)
        prob = float(np.mean(_max_suffix_abs(zs) > r))
        var_sum = float(np.mean(zs ** 2, axis=0).sum())
        trials = zs.shape[0]  # each pattern once
    else:  # Monte Carlo, one draw per trial
        draws = (sample(model, seed + t, N2, "ineq")[N1:]
                 for t in range(trials))
        prob = sum(int(_max_suffix_abs(z) > r) for z in draws) / trials
        var_sum = sum(dist.moment(2, n) for n in range(N1, N2 + 1))
    bound = var_sum / r ** 2 if r > 0 else math.inf
    return InequalityReport(prob, bound, exact, trials)


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
    tail_variance: float  # sum of var(n) over n = n_tail..n_max
    trials: int


def series_convergence_check(model: PerturbationModel, n_tail: int,
                             trials: int, n_max: int,
                             seed: int) -> SeriesReport:
    """Monte Carlo tail statistics for S = sum b~(n).

    Requires the closed-form variance series to pass the decade-ratio test
    (last ratio <= 0.95 over full decades); reports per-checkpoint sup-tail
    quantiles and the second moment of the tail sum from n_tail, against
    the closed-form variance bound and the exact variance of that sum.
    """
    var = model.b_dist.moments_array(2, n_max)
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
    for t in range(trials):
        b = sample(model, seed + t, n_max, "series")
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
        tail_variance=float(var[n_tail:].sum()),
        trials=trials,
    )
