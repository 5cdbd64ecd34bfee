"""Variation-of-parameters machinery for randomly perturbed transfer cocycles.

The perturbed n-step transfer matrix factors as T_w(n) = T_0(n) D(n); D
satisfies the backward recursion D(n-1) = (I + U_w(n)) D(n) where, for a
diagonal (Schrodinger-type) perturbation, U_w(n) = ~b(n) u(n) with a
nilpotent generator u(n) conjugated through the unperturbed cocycle.
For general off-diagonal perturbations the cocycle is first conjugated by
K(n) = diag(1, a(n)+~a(n)) to restore per-site independence, and the
one-site correction decomposes into V/U/W generator terms.

The amplitude matrix D(n) of neumann_layers solves the same backward
recursion in the basis of a boundary solution pair, but tends to I at
infinity: its columns d^-(n) and d^+(n) are sums of Neumann layers of
tail sums from the terminal vectors (1, 0) and (0, 1), and the perturbed
solutions are (psi1, psi2)(n) = (phi1, phi2)(n) D(n). One pass sums the
columns a caller asks for: both for the perturbed pair, d^+ alone for
the sparse envelope. It keeps the sums at the sites asked for: every
site for the perturbed pair, the bumps for the sparse envelope. The
reversed generator rows it reads depend on u alone, so a seed ensemble
builds them once. One layer step serves this single-realization
sum and the seed ensemble of neumann_series; the decay condition uses
the shared decade-ratio test (randpert.decade_log_sums and
randpert.decade_ratios_pass, last ratio <= 0.95).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Sequence, Tuple

import numpy as np

from .core import Mat2, OperatorSpec, residual, single_step, solve_forward
from .errors import (
    DivergentSeriesError,
    InsufficientDataError,
    InternalConsistencyError,
    InvalidArgumentError,
)
from .randpert import (
    PerturbationModel,
    Realization,
    decade_log_sums,
    decade_ratios_pass,
    sample,
)

K_MAX_DEFAULT = 12
LAYER_STOP = 1e-12      # early stop when a sampled layer norm falls below this
CORRECTION_TOL = 1e-10  # relative disagreement allowed between D(n) paths
RESIDUAL_TOL = 1e-9     # relative recursion residual of perturbed solutions
SEED_CHUNK = 50         # realizations propagated together
E12 = Mat2(0.0, 1.0, 0.0, 0.0)
DIAG_PM = Mat2(1.0, 0.0, 0.0, -1.0)
DIAG_01 = Mat2(0.0, 0.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# conjugated generators and the K-conjugation
# ---------------------------------------------------------------------------

def conjugated_generators(T: Mat2) -> Tuple[Mat2, Mat2, Mat2]:
    """(U, V, W) = T^{-1} (E12, diag(1,-1), diag(0,1)) T for unimodular T."""
    if abs(T.det() - 1.0) > 1e-10 * max(1.0, T.max_abs() ** 2):
        raise InvalidArgumentError(f"T must be unimodular, det = {T.det()}")
    Ti = T.inv_unimodular()
    return (Ti @ E12 @ T, Ti @ DIAG_PM @ T, Ti @ DIAG_01 @ T)


def perturbed_spec(spec: OperatorSpec, realization: Realization) -> OperatorSpec:
    """The operator with coefficients a+~a, b+~b."""
    at = realization.a_tilde_or_zeros()
    bt = realization.b_tilde
    n_max = realization.n_max

    def a(n, _base=spec.a, _at=at, _m=n_max):
        return _base(n) + (_at[n] if 0 < n <= _m else 0.0)

    def b(n, _base=spec.b, _bt=bt, _m=n_max):
        return _base(n) + (_bt[n] if 0 < n <= _m else 0.0)

    return OperatorSpec(a=a, b=b, a_min=spec.a_min)


def k_conjugate(spec: OperatorSpec, realization: Realization, E: float,
                n: int) -> Mat2:
    """The conjugated one-step matrix S~(n) = K(n) S_w(n) K(n-1)^{-1}.

    Unimodular and dependent only on site-n perturbation values.
    """
    at = realization.a_tilde_or_zeros()
    bt = realization.b_tilde
    alpha = spec.a_at(n) + at[n]
    if alpha <= 0.0:
        raise InvalidArgumentError(f"a+~a not positive at site {n}")
    return Mat2((E - spec.b(n) - bt[n]) / alpha, -1.0 / alpha, alpha, 0.0)


# ---------------------------------------------------------------------------
# generator arrays (vectorized nilpotent conjugates along an orbit)
# ---------------------------------------------------------------------------

def nilpotent_generator_array(s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """u(n) = T(n)^{-1} E12 T(n) from a unimodular solution pair.

    s1, s2 are value arrays (site-indexed from 0) of the two solutions
    whose columns form T(n); entry n of the result is
    [[s2 s1, s2^2], [-s1^2, -s1 s2]](n). Nilpotent with zero trace.
    """
    u = np.empty((len(s1), 2, 2))
    u[:, 0, 0] = s2 * s1
    u[:, 0, 1] = s2 * s2
    u[:, 1, 0] = -s1 * s1
    u[:, 1, 1] = -s2 * s1
    return u


def diagonal_generator_array(spec: OperatorSpec, E: float,
                             n_max: int) -> np.ndarray:
    """Generator array for diagonal perturbations of a Schrodinger operator.

    Uses the canonical unimodular solution pair with (f(0), f(1)) = (0, 1)
    and (1, 0); requires a == 1 so the unperturbed cocycle is unimodular.
    """
    a, b = spec.coefficients(n_max)
    if np.any(np.abs(a - 1.0) > 1e-12):
        raise InvalidArgumentError(
            "diagonal mode requires off-diagonal coefficients == 1"
        )
    return nilpotent_generator_array(solve_forward(a, b, E, 0.0, 1.0, n_max),
                                     solve_forward(a, b, E, 1.0, 0.0, n_max))


def subordinate_generator_array(phi1: np.ndarray,
                                phi2: np.ndarray) -> np.ndarray:
    """Generator array in the basis of a boundary-condition solution pair."""
    return nilpotent_generator_array(phi1, phi2)


# ---------------------------------------------------------------------------
# correction recursion (dual-path, per-realization)
# ---------------------------------------------------------------------------

@dataclass
class CorrectionState:
    """D(n) at site n."""

    D: Mat2
    n: int


def _transfer_sequence(spec: OperatorSpec, E: float, n_max: int) -> List[Mat2]:
    a, b = map(memoryview, spec.coefficients(n_max))
    out = [Mat2.identity()]
    for n in range(1, n_max + 1):
        out.append(single_step(E, b[n], a[n], a[n - 1]) @ out[-1])
    return out


def correction_recursion(spec: OperatorSpec, realization: Realization, E: float,
                         n_max: int, mode: str = "schrodinger-diagonal"
                         ) -> List[CorrectionState]:
    """D(n) for n = 0..n_max, computed two independent ways.

    Path (i) is definitional: D(n) = T_0(n)^{-1} T_w(n) (conjugated
    variants in general mode). Path (ii) applies the one-site recursion
    factors. Disagreement beyond ``CORRECTION_TOL`` (relative, scaled by
    the factor conditioning) raises with the offending site.
    """
    if mode not in ("schrodinger-diagonal", "general-jacobi-conjugated"):
        raise InvalidArgumentError(f"unknown mode {mode}")
    if n_max > realization.n_max:
        raise InsufficientDataError("realization shorter than n_max")
    pspec = perturbed_spec(spec, realization)
    bt = realization.b_tilde
    at = realization.a_tilde_or_zeros()

    if mode == "schrodinger-diagonal":
        if np.any(at[1:n_max + 1] != 0.0):
            raise InvalidArgumentError("diagonal mode forbids ~a perturbations")
        u_arr = diagonal_generator_array(spec, E, n_max)
        T0 = _transfer_sequence(spec, E, n_max)
        Tw = _transfer_sequence(pspec, E, n_max)
        states = [CorrectionState(Mat2.identity(), 0)]
        D = Mat2.identity()
        for n in range(1, n_max + 1):
            u = Mat2.from_array(u_arr[n])
            # (I + ~b u)^{-1} = I - ~b u exactly (u is nilpotent)
            D = D.sub(u.scaled(bt[n]) @ D)
            D_def = T0[n].inv_unimodular() @ Tw[n]
            scale = max(1.0, D.max_abs()) * max(1.0, T0[n].max_abs() ** 2)
            if (D.sub(D_def)).max_abs() > CORRECTION_TOL * scale:
                raise InternalConsistencyError(
                    f"correction paths disagree at site {n}", site=n)
            states.append(CorrectionState(D, n))
        return states

    # general-jacobi-conjugated
    Tt0 = [Mat2.identity()]
    Ttw = [Mat2.identity()]
    a = memoryview(spec.coefficients(n_max)[0])
    zero_real = Realization(n_max=n_max, b_tilde=np.zeros(n_max + 1))
    states = [CorrectionState(Mat2.identity(), 0)]
    D = Mat2.identity()
    for n in range(1, n_max + 1):
        Tt0.append(k_conjugate(spec, zero_real, E, n) @ Tt0[-1])
        Ttw.append(k_conjugate(spec, realization, E, n) @ Ttw[-1])
        a_n = a[n]
        U, V, W = conjugated_generators(Tt0[n])
        c_u = bt[n] / (a_n * (a_n + at[n]))
        c_v = at[n] / a_n
        c_w = at[n] ** 2 / (a_n * (a_n + at[n]))
        Ut = Mat2.from_array(
            c_v * V.to_array() + c_u * U.to_array() + c_w * W.to_array())
        factor = Mat2(1.0 + Ut.m11, Ut.m12, Ut.m21, 1.0 + Ut.m22)
        D = factor.inv_unimodular() @ D
        D_def = Tt0[n].inv_unimodular() @ Ttw[n]
        scale = max(1.0, D.max_abs()) * max(1.0, Tt0[n].max_abs() ** 2)
        if (D.sub(D_def)).max_abs() > CORRECTION_TOL * scale:
            raise InternalConsistencyError(
                f"correction paths disagree at site {n}", site=n)
        states.append(CorrectionState(D, n))
    return states


def correction_ensemble(spec: OperatorSpec, model: PerturbationModel, E: float,
                        seeds: Sequence[int], checkpoints: Sequence[int]
                        ) -> np.ndarray:
    """D snapshots, shape (len(seeds), len(checkpoints), 2, 2).

    Vectorized over realizations; diagonal (Schrodinger) mode only, using
    the exact nilpotent-inverse forward factors.
    """
    checkpoints = sorted(checkpoints)
    n_max = checkpoints[-1]
    u_arr = diagonal_generator_array(spec, E, n_max)
    out = np.empty((len(seeds), len(checkpoints), 2, 2))
    for lo in range(0, len(seeds), SEED_CHUNK):
        batch = seeds[lo:lo + SEED_CHUNK]
        bt = np.stack([sample(model, s, n_max).b_tilde for s in batch])
        D = np.broadcast_to(np.eye(2), (len(batch), 2, 2)).copy()
        ci = 0
        # count how many checkpoints already filled for this batch
        for n in range(1, n_max + 1):
            uD = np.matmul(u_arr[n], D)
            D = D - bt[:, n, None, None] * uD
            while ci < len(checkpoints) and checkpoints[ci] == n:
                out[lo:lo + len(batch), ci] = D
                ci += 1
    return out


# ---------------------------------------------------------------------------
# Neumann layers and amplitude pairs
# ---------------------------------------------------------------------------

def decay_condition_check(var_b2: np.ndarray, u_arr: np.ndarray,
                          f_plus: np.ndarray) -> List[float]:
    """Decade sums of <~b^2> (u11^2 + u12^2 + u22^2 + u21^2 f+^2).

    Raises naming the divergent decade if the last decade ratio exceeds
    0.95 (the shared decade-ratio test).
    """
    terms = var_b2 * (u_arr[:, 0, 0] ** 2 + u_arr[:, 0, 1] ** 2
                      + u_arr[:, 1, 1] ** 2
                      + u_arr[:, 1, 0] ** 2 * f_plus ** 2)
    with np.errstate(divide="ignore"):
        log_sums = decade_log_sums(np.log(terms))
    sums = np.exp(log_sums).tolist()
    if len(sums) >= 2 and not decade_ratios_pass(log_sums, 0.95, 1):
        raise DivergentSeriesError(
            f"decay condition fails: decade {len(sums)} sum {sums[-1]:.3e} "
            f"vs previous {sums[-2]:.3e}"
        )
    return sums


def n_quarter_site(var_b2: np.ndarray, u_arr: np.ndarray) -> int:
    """Smallest N with sum_{j>N} <~b^2> ||u(j)||_HS^2 <= 1/4.

    Uses the exact closed-form per-site variances; the operator norm of a
    2x2 matrix is bounded by its Hilbert-Schmidt norm, so the contraction
    constant is 1.
    """
    hs2 = np.einsum("nij,nij->n", u_arr, u_arr)
    tail = np.concatenate([np.cumsum((var_b2 * hs2)[::-1])[::-1], [0.0]])
    # tail[n] = sum over j >= n; want sum over j > N i.e. tail[N+1]
    ok = np.nonzero(tail[1:] <= 0.25)[0]
    if len(ok) == 0:
        raise DivergentSeriesError("no contraction site within the horizon")
    return int(ok[0])


def _advance_layer(bt: np.ndarray,
                   u: Sequence[Tuple[np.ndarray, np.ndarray]],
                   layer: np.ndarray) -> None:
    """Overwrite Neumann layer k with layer k+1, in reversed site order.

    Index j is site n_max - j, so the tail sum over j' > n of ~b(j') u(j')
    d^k(j') is a plain cumsum. layer has shape (columns, 2, sites): one
    2-vector per amplitude column and site; bt and the u rows are
    reversed alike.
    """
    for col in layer:
        x, y = col
        w = []
        for ux, uy in u:
            wi = ux * x
            wi += uy * y
            wi *= bt  # ~b (u d^k), rounded as bt * (ux x + uy y)
            w.append(wi)
        for row, wi in zip(col, w):
            row[0] = 0.0  # no site beyond n_max
            np.cumsum(wi[:-1], out=row[1:])


class _Rows(NamedTuple):
    """The reversed rows of u and the sites n_start..n_max they cover."""

    n_start: int
    n_max: int
    u: Tuple[Tuple[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]


def _reversed_rows(u_arr: np.ndarray, n_start: int, n_max: int) -> _Rows:
    """Rows (u_i0, u_i1) of u for sites n_max down to n_start.

    Each entry is a contiguous copy: a strided view of u_arr would skip
    the other three entries of every 2x2 block in each layer pass. The
    rows depend on u alone, so a seed ensemble builds them once and
    passes them to every neumann_layers call; the span they cover goes
    with them, so a call can check it.
    """
    u = u_arr[n_start:n_max + 1][::-1]
    return _Rows(n_start, n_max, tuple(
        tuple(np.ascontiguousarray(u[:, i, j]) for j in (0, 1))
        for i in (0, 1)))


def neumann_layers(b_tilde: np.ndarray, rows: _Rows, n_start: int,
                   sites: Sequence[int], K_max: int = K_MAX_DEFAULT,
                   columns: Sequence[int] = (0, 1)
                   ) -> Tuple[np.ndarray, List[float]]:
    """Amplitude columns D(n) of one realization at the given sites.

    Column 0 of the amplitude matrix is d^-(n), the Neumann sum from the
    terminal vector (1, 0); column 1 is d^+(n), from (0, 1); so
    (psi1, psi2)(n) = (phi1, phi2)(n) D(n). Column c of the result is
    column ``columns[c]``: the default (0, 1) gives the whole matrix, (1,)
    gives d^+ alone. ``rows`` is _reversed_rows(u_arr, n_start, n_max),
    n_max = len(b_tilde) - 1, built by the caller once per u. One pass of
    the layer iteration serves every requested column; each column stops
    after K_max layers or after its first layer whose sup-norm is below
    LAYER_STOP, so it does not depend on which others are summed with it.
    Layers span every site n_start..n_max; the sums are kept at the sites
    asked for, which may repeat. Returns (D, sups): D[i] is D(sites[i]),
    shape (len(sites), 2, len(columns)), and sups[k] is the largest
    sup-norm of layer k over the columns that take it.
    """
    n_max = len(b_tilde) - 1
    if (rows.n_start, rows.n_max) != (n_start, n_max):
        raise InvalidArgumentError(
            f"rows span sites {rows.n_start}..{rows.n_max}, "
            f"not {n_start}..{n_max}")
    sites = np.asarray(sites, dtype=np.intp)
    outside = sites[(sites < n_start) | (sites > n_max)]
    if len(outside):
        raise InvalidArgumentError(
            f"site {outside[0]} outside {n_start}..{n_max}")
    pick = n_max - sites  # the sites' positions in reversed order
    bt = np.ascontiguousarray(b_tilde[n_start:][::-1])
    unit = np.eye(2)[list(columns), :, None]
    # total[column, component, i] and layer[column, component, j]: sums at
    # site sites[i] and layer k at site n_max - j
    total = np.broadcast_to(unit, (len(columns), 2, len(sites))).copy()
    layer = np.broadcast_to(unit, (len(columns), 2, len(bt))).copy()
    active = list(range(len(columns)))
    sups = [1.0]  # the terminal vectors are unit vectors
    for _ in range(K_max):
        _advance_layer(bt, rows.u, layer)
        col_sups = [float(max(col.max(), -col.min())) for col in layer]
        for c, col in zip(active, layer):
            total[c] += col[:, pick]
        sups.append(max(col_sups))
        going = [k for k, sup in enumerate(col_sups) if not sup < LAYER_STOP]
        if not going:
            break
        if len(going) < len(active):
            active, layer = [active[k] for k in going], layer[going]
    return total.transpose(2, 1, 0), sups


@dataclass
class NeumannReport:
    probe_site: int
    layer_moments: np.ndarray        # sampled E||d^k(probe)||^2 per layer
    layer_moment_se: np.ndarray
    checkpoints: np.ndarray
    d_median: np.ndarray             # (len(checkpoints), 2) medians over seeds
    tail_variance: float             # truncation certificate at n_max
    contraction_ok: bool


def neumann_series(model: PerturbationModel, u_arr: np.ndarray,
                   f_plus: Callable[[int], float], n_start: int,
                   seeds: Sequence[int] = range(100)) -> NeumannReport:
    """Ensemble Neumann construction (plus branch) with contraction diagnostics.

    Per seed, layers are summed from the probe site up until K_MAX_DEFAULT
    layers or the first layer whose norm at the probe site is below
    LAYER_STOP.
    """
    n_max = len(u_arr) - 1
    var_b2 = model.b_dist.moments_array(2, n_max)
    fp = np.array([f_plus(max(n, 1)) for n in range(n_max + 1)])
    if np.any(np.diff(fp[1:]) < -1e-12) or np.any(fp[1:] <= 0.0):
        raise InvalidArgumentError("f_plus must be positive nondecreasing")
    decay_condition_check(var_b2, u_arr, fp)
    nq = n_quarter_site(var_b2, u_arr)
    probe = max(n_start, nq)
    checkpoints = np.unique(
        np.geomspace(max(probe, 10), n_max, 8).astype(int))

    K_max = K_MAX_DEFAULT
    layer_sq = np.full((len(seeds), K_max + 1), np.nan)
    d_vals = np.empty((len(seeds), len(checkpoints), 2))
    u = _reversed_rows(u_arr, probe, n_max).u
    for i, s in enumerate(seeds):
        bt = sample(model, s, n_max).b_tilde[probe:][::-1]
        layer = np.zeros((1, 2, len(bt)))
        layer[0, 1] = 1.0
        total = layer.copy()
        layer_sq[i, 0] = 1.0  # the terminal vector is a unit vector
        for k in range(1, K_max + 1):
            _advance_layer(bt, u, layer)
            total += layer
            at_probe = layer[0, :, -1]
            layer_sq[i, k] = float(at_probe @ at_probe)
            if math.sqrt(layer_sq[i, k]) < LAYER_STOP:
                break
        d_vals[i] = total[0][:, n_max - checkpoints].T

    counts = np.sum(~np.isnan(layer_sq), axis=0)
    moments = np.full(K_max + 1, np.nan)
    se = np.zeros(K_max + 1)
    valid = counts > 0
    moments[valid] = np.nanmean(layer_sq[:, valid], axis=0)
    se[valid] = (np.nanstd(layer_sq[:, valid], axis=0)
                 / np.sqrt(counts[valid]))
    # contraction verdict: each sampled layer moment <= (1/4)^k + 3 se
    ok = True
    for k in range(1, len(moments)):
        if counts[k] == 0:
            break
        if moments[k] > 0.25 ** k + 3.0 * se[k]:
            ok = False
    hs2 = np.einsum("nij,nij->n", u_arr, u_arr)
    tail_var = float((var_b2 * hs2)[checkpoints[-1]:].sum())
    return NeumannReport(
        probe_site=probe,
        layer_moments=moments, layer_moment_se=se,
        checkpoints=checkpoints, d_median=np.median(d_vals, axis=0),
        tail_variance=tail_var, contraction_ok=ok,
    )


# ---------------------------------------------------------------------------
# perturbed solutions
# ---------------------------------------------------------------------------

def perturbed_solutions(coefficients: Tuple[np.ndarray, np.ndarray],
                        rows: _Rows, realization: Realization, E: float,
                        phi1: np.ndarray, phi2: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """(psi1, psi2) built from the amplitude matrices D(n).

    (psi1, psi2)(n) = (phi1, phi2)(n) D(n) for the unperturbed boundary
    pair phi1, phi2 at energy E (from solve_pair), which fixes n_max.
    ``coefficients`` is spec.coefficients(n_max) and ``rows`` is
    _reversed_rows(subordinate_generator_array(phi1, phi2), 0, n_max),
    both built once by the caller for every realization and left
    unmodified. D(n) carries b~ alone, so a nonzero a~ is refused.
    Verifies the perturbed difference-equation residual at every
    interior site.
    """
    n_max = len(phi1) - 1
    if n_max > realization.n_max:
        raise InsufficientDataError("realization shorter than the pair")
    if np.any(realization.a_tilde_or_zeros()[1:n_max + 1] != 0.0):
        raise InvalidArgumentError("D(n) carries no a~ perturbation")
    d, _ = neumann_layers(realization.b_tilde[:n_max + 1], rows, 0,
                          range(n_max + 1))
    psi1, psi2 = phi1 * d[:, 0].T + phi2 * d[:, 1].T
    a, b = coefficients[0], coefficients[1].copy()
    b[1:] += realization.b_tilde[1:n_max + 1]
    sites = np.arange(1, n_max)
    for psi in (psi1, psi2):
        scale = float(np.max(np.abs(psi))) or 1.0
        res = residual(psi, a, b, E, sites)
        bad = np.flatnonzero(np.abs(res) > RESIDUAL_TOL * scale)
        if len(bad):
            n = int(sites[bad[0]])
            raise InternalConsistencyError(
                f"perturbed residual {res[bad[0]]} at site {n}", site=n)
    return psi1, psi2
