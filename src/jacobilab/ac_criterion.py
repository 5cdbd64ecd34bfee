"""Cesaro-average transfer-norm test and moment-weighted membership sums.

The absolutely-continuous-support diagnostic is the liminf of
(1/N) sum_{n<=N} t^E(n)^2 over a geometric N-grid, with t^E(n) the
spectral norm of the n-step transfer matrix. Membership in the
admissible-perturbation set is a convergence verdict for

    sum_n (<~a(n)^4>^{1/2} + <~b(n)^2>) * ((a(n)+1) * t^E(n))^4

by the shared decade-ratio test (randpert.decade_ratios_pass, last three
ratios <= 0.9, on the decades of randpert.decade_ends). Everything
runs in the log domain so exponentially growing orbits never overflow.
Both sums take an array of energies, and one walk over the sites serves
every energy and both sums: cesaro_scan, given the perturbation model,
also sums the decades that gamma_membership turns into verdicts, from
one coefficient build and two propagate lanes per energy, in blocks of
BLOCK sites.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .core import (LN2, OperatorSpec, growth_check, ldexp, propagate,
                   resume_state)
from .errors import InvalidArgumentError, UnsupportedModelError
from .randpert import (LOG_SAT, PerturbationModel, decade_ends,
                       decade_ratios_pass)

TAU_BOUND = 1e3          # boundedness proxy: max_n t^E(n) <= tau_bound
DECADE_RATIO = 0.9       # convergence verdict threshold on decade sums
BLOCK = 256              # sites per lane call of the t^E(n)^2 pass
CANONICAL = ((0.0, 1.0), (1.0, 0.0))  # (phi(0), phi(1)) of alpha and gamma


def default_n_grid(j_max: int) -> List[int]:
    """N_j = ceil(2^(j/2)), j = 2..j_max, deduplicated."""
    grid = sorted({math.ceil(2.0 ** (j / 2.0)) for j in range(2, j_max + 1)})
    return grid


def _log_t2(alpha, gamma, inv_a) -> np.ndarray:
    """ln t^E(n)^2 from the canonical pair at consecutive sites.

    alpha and gamma are (m, k) of propagate over sites n0..n1+1 (rows);
    inv_a holds 1/a(n) for n = n0..n1, the sites of the result. With
    alpha = (0, 1) and gamma = (1, 0) at sites (0, 1),
    T(n) = [[alpha(n+1), gamma(n+1)], [alpha(n), gamma(n)]];
    ||T||^2 = (g + sqrt(g^2 - 4 det^2)) / 2 from the entry-square sum g and
    det T(n) = 1/a(n), all on the exponent of site n+1 (the larger one).
    Each row is shifted and squared once, on the exponent of the site it
    is row n+1 of (row n0 on that of site n0), and again as row n only
    where the exponent of its own site differs (moved).
    """
    top = np.maximum(alpha[1][1:], gamma[1][1:])
    row_top = np.concatenate([top[:1], top])
    moved = np.unravel_index(np.flatnonzero(top != row_top[:-1]), top.shape)
    g = np.zeros(top.shape)
    for m, k in (alpha, gamma):  # g adds rows n+1 and n of alpha, then gamma
        sq = ldexp(m, k - row_top) ** 2
        g += sq[1:]
        low = sq[:-1]
        low[moved] = ldexp(m[:-1][moved], k[:-1][moved] - top[moved]) ** 2
        g += low
    # ln((g + sqrt(max(g^2 - 4 det^2, 0))) / 2) + 2 ln 2 top, in place
    det = ldexp(inv_a, -2 * top)
    det *= 4.0 * det
    t2 = g * g
    t2 -= det
    np.sqrt(np.maximum(t2, 0.0, out=t2), out=t2)
    t2 += g
    t2 *= 0.5
    np.log(t2, out=t2)
    t2 += 2.0 * LN2 * top
    return t2


def _log_t2_blocks(a: np.ndarray, b: np.ndarray, energies,
                   stops: Iterable[int] = ()) -> Iterator:
    """ln t^E(n)^2 for n = 1..len(a)-1 at every energy, block by block.

    Yields (last, lt2): lt2[i, j] holds site last - len(lt2) + 1 + i at
    energies[j]. A block holds at most BLOCK sites and ends at every site
    in stops. One lane call of propagate per block carries the canonical
    pair of every energy on from the state of the block before
    (resume_state), so each column is bit for bit one scalar pass of its
    energy over all sites (log_t2_stream in tests/oracles.py), in
    O(BLOCK x energies) memory.
    """
    E = np.asarray(energies, dtype=float)
    n_E, n_max = len(E), len(a) - 1
    lanes = np.concatenate([E, E])  # alpha of every energy, then gamma
    prev, cur = (np.repeat(phi, n_E) for phi in zip(*CANONICAL))
    base = np.zeros(2 * n_E, dtype=np.int64)  # exponent of site `first`
    first = 1  # the state (prev, cur) sits at sites (first - 1, first)
    for last in sorted({*range(BLOCK, n_max, BLOCK), n_max,
                        *(s for s in stops if 0 < s < n_max)}):
        m, k = propagate(a[first - 1:], b[first - 1:], lanes, prev, cur,
                         last - first + 2)
        k += base
        yield last, _log_t2((m[1:, :n_E], k[1:, :n_E]),
                            (m[1:, n_E:], k[1:, n_E:]),
                            1.0 / a[first:last + 1, None])
        prev, cur, base = resume_state(m, k)
        first = last + 1


@dataclass
class CesaroReport:
    """One-energy record of running Cesaro averages of t^E(n)^2."""

    E: float
    averages: List[float]
    liminf_proxy: float
    bounded_flag: bool


@dataclass
class CesaroScan:
    """Cesaro records of several energies on one N-grid.

    With a perturbation model, decades[d, j] is the log of the weighted
    sum over decade d of sites up to N_max (decade_ends) at energies[j].
    """

    N_grid: List[int]
    reports: List[CesaroReport]
    N_max: Optional[int] = None
    decades: Optional[np.ndarray] = None


def _cesaro_report(E: float, N_grid: List[int], log_avgs: List[float],
                   max_log_t: float) -> CesaroReport:
    averages = [math.exp(v) if v <= LOG_SAT else math.inf for v in log_avgs]
    last_decade = [a for N, a in zip(N_grid, averages) if N >= N_grid[-1] / 10.0]
    return CesaroReport(
        E=E, averages=averages, liminf_proxy=min(last_decade),
        bounded_flag=max_log_t <= math.log(TAU_BOUND))


def _log_weights(model: PerturbationModel, a: np.ndarray, N_max: int
                 ) -> np.ndarray:
    """log (<~a(n)^4>^{1/2} + <~b(n)^2>) (a(n)+1)^4 for n = 0..N_max.

    -inf where the moment term is 0 (and at n = 0). Requires closed-form
    per-site moments from the model.
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
    log_w = np.full(N_max + 1, -math.inf)
    pos = np.flatnonzero(coeff[1:] > 0.0) + 1
    log_w[pos] = np.log(coeff[pos]) + 4.0 * np.log(a[pos] + 1.0)
    return log_w


def cesaro_scan(spec: OperatorSpec, energies: Sequence[float],
                N_grid: List[int],
                model: Optional[PerturbationModel] = None,
                N_max: Optional[int] = None) -> CesaroScan:
    """Running averages (1/N) sum_{n<=N} t^E(n)^2 at the grid points.

    One pass over the sites serves every energy; reports[j] is energies[j].
    Given a model and N_max, the same pass also sums the decades
    gamma_membership reads, to N_max: one coefficient build and one
    _log_t2_blocks pass over max(N_grid[-1], N_max) sites.
    """
    if any(b <= a for a, b in zip(N_grid, N_grid[1:])):
        raise InvalidArgumentError("N_grid must be strictly increasing")
    if (model is None) != (N_max is None):
        raise InvalidArgumentError("a model and N_max go together")
    n_cut = N_grid[-1]
    a, b = spec.coefficients(max(n_cut, N_max or 0))
    if not growth_check(a[:n_cut + 1]):
        raise InvalidArgumentError("spec fails the finite-truncation growth check")
    ends = []  # blocks end at decade ends
    if model is not None:
        log_w, ends = _log_weights(model, a, N_max), decade_ends(N_max)
    decades = np.full((len(ends), len(energies)), -math.inf)

    log_sum = max_lt2 = np.full(len(energies), -math.inf)
    log_sums = {}  # N -> log sum_{n<=N} t^E(n)^2 per energy
    for last, lt2 in _log_t2_blocks(a, b, energies, [*N_grid, *ends]):
        if last <= n_cut:
            log_sum = np.logaddexp.reduce(np.vstack([log_sum, lt2]))
            max_lt2 = np.maximum(max_lt2, np.max(0.5 * lt2, axis=0))
            log_sums[last] = log_sum
        if ends and last <= N_max:
            d = bisect.bisect_left(ends, last)  # the decade of the block
            w = log_w[last - len(lt2) + 1:last + 1, None]
            with np.errstate(invalid="ignore"):
                terms = np.where(w > -math.inf, w + 2.0 * lt2, -math.inf)
            decades[d] = np.logaddexp.reduce(np.vstack([decades[d], terms]))
    return CesaroScan(N_grid=list(N_grid), reports=[
        _cesaro_report(E, N_grid,
                       [float(log_sums[N][j]) - math.log(N) for N in N_grid],
                       float(max_lt2[j]))
        for j, E in enumerate(energies)],
        N_max=N_max, decades=None if model is None else decades)


def gamma_membership(N_max: int,
                     scan: CesaroScan) -> List[Tuple[bool, float]]:
    """Decade-ratio convergence verdict and the partial sum up to N_max.

    One (member, partial sum) per energy of scan, from its decade sums:
    scan is cesaro_scan(spec, energies, N_grid, model, N_max). Member when
    each of the last three decade ratios is <= DECADE_RATIO.
    """
    if scan.N_max != N_max:
        raise InvalidArgumentError(
            f"scan holds decade sums to N_max = {scan.N_max}, not {N_max}")
    verdicts = []
    for sums in scan.decades.T.tolist():
        total = float(np.logaddexp.reduce(sums))
        if total == -math.inf:
            verdicts.append((True, 0.0))
            continue
        partial_sum = math.exp(total) if total <= LOG_SAT else math.inf
        verdicts.append((decade_ratios_pass(sums, DECADE_RATIO, 3), partial_sum))
    return verdicts
