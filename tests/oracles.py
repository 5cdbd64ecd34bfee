"""Scalar reference oracles: the plain forms the array code is tested against.

No experiment runs these. Each computes, one site or one product at a
time, what src/ computes by array code, and a test compares the two:

- single_step, transfer_product and naive_power: one-step transfer
  matrices and their products (core.solve_forward, the gap blocks of
  sparse.block_matrices);
- log_t2_stream: ln t^E(n)^2 of one energy at a time (the lane pass of
  ac_criterion);
- wronskian: the Wronskian of a solution pair at one site;
- nilpotent_generator_array and diagonal_generator_array: the generator
  u(n) as a full (n, 2, 2) array (variation, which applies it in
  factored form);
- a_tilde_draw: a draw of ~a, which no experiment makes (sample draws ~b);
- correction_recursion: D(n) two ways, by definition and by the one-site
  recursion (variation.correction_ensemble);
- advance_layer: one Neumann layer step through the full 2x2 generator
  u(n) (variation.neumann_layers, which applies u in factored form);
- neumann_series: the plus-branch Neumann layers of a seed ensemble with
  contraction diagnostics, by advance_layer;
- tail_product: the amplitude matrix D(n) as the ordered product of the
  one-site factors, with no layers (variation.neumann_layers, which sums
  it as Neumann series, segment by segment).

2x2 matrices are (2, 2) float arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from jacobilab.ac_criterion import CANONICAL, _log_t2, _log_t2_blocks
from jacobilab.core import (
    ENTRY_LIMIT,
    OperatorSpec,
    propagate,
    solve_forward,
)
from jacobilab.errors import (
    DivergentSeriesError,
    InsufficientDataError,
    InternalConsistencyError,
    InvalidArgumentError,
    OverflowSiteError,
)
from jacobilab.randpert import (
    PerturbationModel,
    SiteDistribution,
    decade_log_sums,
    decade_ratios_pass,
    sample,
)
from jacobilab.variation import LAYER_STOP

CORRECTION_TOL = 1e-10  # relative disagreement allowed between D(n) paths
SERIES_LAYERS = 12      # layers neumann_series sums at most per seed
E12 = np.array([[0.0, 1.0], [0.0, 0.0]])
DIAG_PM = np.array([[1.0, 0.0], [0.0, -1.0]])
DIAG_01 = np.array([[0.0, 0.0], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# 2x2 matrices
# ---------------------------------------------------------------------------

def adjugate(T: np.ndarray) -> np.ndarray:
    """Inverse of a det-1 matrix: the exact adjugate, no division."""
    return np.array([[T[1, 1], -T[0, 1]], [-T[1, 0], T[0, 0]]])


def spectral_norm(T: np.ndarray) -> float:
    """Spectral norm: the larger singular value, in closed form.

    (|(m11 + m22, m12 - m21)| + |(m11 - m22, m12 + m21)|) / 2 adds two
    nonnegative terms, so it keeps full relative precision where the
    singular values nearly coincide (there g^2 - 4 det^2 cancels).
    """
    m = float(np.abs(T).max())
    if m > 1e300:  # keep the entry sums finite
        return m * spectral_norm((1.0 / m) * T)
    (m11, m12), (m21, m22) = T.tolist()
    return 0.5 * (math.hypot(m11 + m22, m12 - m21)
                  + math.hypot(m11 - m22, m12 + m21))


# ---------------------------------------------------------------------------
# transfer products
# ---------------------------------------------------------------------------

def single_step(E: float, b_n: float, a_n: float,
                a_prev: float) -> np.ndarray:
    """One-step transfer matrix [[(E-b)/a_n, -a_prev/a_n], [1, 0]]."""
    if a_n <= 0.0 or a_prev <= 0.0:
        raise InvalidArgumentError("off-diagonal entries must be positive")
    return np.array([[(E - b_n) / a_n, -a_prev / a_n], [1.0, 0.0]])


def transfer_product(spec: OperatorSpec, E: float, n: int,
                     return_norms: bool = False):
    """Product S(n) ... S(1) of single-step matrices.

    With return_norms, also returns the list [t(1), ..., t(n)] of spectral
    norms of the partial products. Raises OverflowSiteError when entries
    leave the representable range.
    """
    if n < 1:
        raise InvalidArgumentError("n must be >= 1")
    a, b = map(memoryview, spec.coefficients(n))
    T = np.eye(2)
    norms = [] if return_norms else None
    for k in range(1, n + 1):
        T = single_step(E, b[k], a[k], a[k - 1]) @ T
        if np.abs(T).max() > ENTRY_LIMIT or not np.isfinite(T).all():
            raise OverflowSiteError(k)
        if return_norms:
            norms.append(spectral_norm(T))
    if return_norms:
        return T, norms
    return T


def naive_power(S: np.ndarray, m: int) -> np.ndarray:
    """S^m by repeated multiplication (the gap blocks of block_matrices)."""
    T = np.eye(2)
    for _ in range(m):
        T = S @ T
    return T


def log_t2_stream(a: np.ndarray, b: np.ndarray, E) -> np.ndarray:
    """ln t^E(n)^2 for n = 1..len(a)-1 (entry n-1 holds site n).

    a, b hold sites 0..n_max. For a 1-D array of energies, column j holds
    energies[j], from one lane pass (_log_t2_blocks).
    """
    if np.ndim(E):
        return np.concatenate([lt2 for _, lt2 in _log_t2_blocks(a, b, E)])
    alpha, gamma = ((m[1:], k[1:]) for m, k in (
        propagate(a, b, E, phi0, phi1, len(a)) for phi0, phi1 in CANONICAL))
    return _log_t2(alpha, gamma, 1.0 / a[1:])


def wronskian(phi1: np.ndarray, phi2: np.ndarray, n: int) -> float:
    """phi1(n) phi2(n-1) - phi1(n-1) phi2(n); constant 1 when a == 1."""
    return phi1[n] * phi2[n - 1] - phi1[n - 1] * phi2[n]


# ---------------------------------------------------------------------------
# conjugated generators and the generator arrays
# ---------------------------------------------------------------------------

def conjugated_generators(T: np.ndarray
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U, V, W) = T^{-1} (E12, diag(1,-1), diag(0,1)) T for unimodular T."""
    det = np.linalg.det(T)
    if abs(det - 1.0) > 1e-10 * max(1.0, np.abs(T).max() ** 2):
        raise InvalidArgumentError(f"T must be unimodular, det = {det}")
    Ti = adjugate(T)
    return (Ti @ E12 @ T, Ti @ DIAG_PM @ T, Ti @ DIAG_01 @ T)


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


# ---------------------------------------------------------------------------
# perturbations of a: the ~a draw, the perturbed operator, the K-conjugation
# ---------------------------------------------------------------------------

def a_tilde_draw(dist: SiteDistribution, exp_id: str, seed: int,
                 n_max: int) -> np.ndarray:
    """~a(n) for sites 0..n_max, ~a(0) = 0: dist drawn by sample from the
    "a" stream (sample's model has no a~; dist stands in its b slot)."""
    return sample(PerturbationModel(b_dist=dist, exp_id=exp_id), seed, n_max,
                  "a")


def perturbed_spec(spec: OperatorSpec, b_tilde: np.ndarray,
                   a_tilde: Optional[np.ndarray] = None) -> OperatorSpec:
    """The operator with coefficients a+~a, b+~b; the draws hold sites
    0..n_max and leave the coefficients beyond n_max unperturbed."""
    n_max = len(b_tilde) - 1
    at = np.zeros(n_max + 1) if a_tilde is None else a_tilde

    def a(n, _base=spec.a, _at=at, _m=n_max):
        return _base(n) + (_at[n] if 0 < n <= _m else 0.0)

    def b(n, _base=spec.b, _bt=b_tilde, _m=n_max):
        return _base(n) + (_bt[n] if 0 < n <= _m else 0.0)

    return OperatorSpec(a=a, b=b)


def k_conjugate(spec: OperatorSpec, b_tilde: np.ndarray, E: float, n: int,
                a_tilde: Optional[np.ndarray] = None) -> np.ndarray:
    """The conjugated one-step matrix S~(n) = K(n) S_w(n) K(n-1)^{-1}.

    Unimodular and dependent only on site-n perturbation values.
    """
    alpha = spec.a_at(n) + (0.0 if a_tilde is None else a_tilde[n])
    if alpha <= 0.0:
        raise InvalidArgumentError(f"a+~a not positive at site {n}")
    return np.array([[(E - spec.b(n) - b_tilde[n]) / alpha, -1.0 / alpha],
                     [alpha, 0.0]])


# ---------------------------------------------------------------------------
# correction recursion (dual-path, per-realization)
# ---------------------------------------------------------------------------

@dataclass
class CorrectionState:
    """D(n) at site n."""

    D: np.ndarray
    n: int


def correction_recursion(spec: OperatorSpec, b_tilde: np.ndarray, E: float,
                         n_max: int, mode: str = "schrodinger-diagonal",
                         a_tilde: Optional[np.ndarray] = None
                         ) -> List[CorrectionState]:
    """D(n) for n = 0..n_max, computed two independent ways.

    Path (i) is definitional: D(n) = T_0(n)^{-1} T_w(n) (conjugated
    variants in general mode). Path (ii) applies the one-site recursion
    factors. Disagreement beyond ``CORRECTION_TOL`` (relative, scaled by
    the factor conditioning) raises with the offending site. The draws
    b_tilde and a_tilde (None for no ~a) cover sites 0..n_max at least.
    """
    if mode not in ("schrodinger-diagonal", "general-jacobi-conjugated"):
        raise InvalidArgumentError(f"unknown mode {mode}")
    if n_max >= len(b_tilde):
        raise InsufficientDataError("draw shorter than n_max")
    pspec = perturbed_spec(spec, b_tilde, a_tilde)
    bt = b_tilde
    at = np.zeros(len(b_tilde)) if a_tilde is None else a_tilde

    def transfer_sequence(s: OperatorSpec) -> List[np.ndarray]:
        a, b = map(memoryview, s.coefficients(n_max))
        out = [np.eye(2)]
        for n in range(1, n_max + 1):
            out.append(single_step(E, b[n], a[n], a[n - 1]) @ out[-1])
        return out

    if mode == "schrodinger-diagonal":
        if np.any(at[1:n_max + 1] != 0.0):
            raise InvalidArgumentError("diagonal mode forbids ~a perturbations")
        u_arr = diagonal_generator_array(spec, E, n_max)
        T0 = transfer_sequence(spec)
        Tw = transfer_sequence(pspec)
        states = [CorrectionState(np.eye(2), 0)]
        D = np.eye(2)
        for n in range(1, n_max + 1):
            # (I + ~b u)^{-1} = I - ~b u exactly (u is nilpotent)
            D = D - (bt[n] * u_arr[n]) @ D
            D_def = adjugate(T0[n]) @ Tw[n]
            scale = max(1.0, np.abs(D).max()) * max(1.0,
                                                    np.abs(T0[n]).max() ** 2)
            if np.abs(D - D_def).max() > CORRECTION_TOL * scale:
                raise InternalConsistencyError(
                    f"correction paths disagree at site {n}", site=n)
            states.append(CorrectionState(D, n))
        return states

    # general-jacobi-conjugated
    Tt0 = [np.eye(2)]
    Ttw = [np.eye(2)]
    a = memoryview(spec.coefficients(n_max)[0])
    zero = np.zeros(n_max + 1)
    states = [CorrectionState(np.eye(2), 0)]
    D = np.eye(2)
    for n in range(1, n_max + 1):
        Tt0.append(k_conjugate(spec, zero, E, n) @ Tt0[-1])
        Ttw.append(k_conjugate(spec, bt, E, n, at) @ Ttw[-1])
        a_n = a[n]
        U, V, W = conjugated_generators(Tt0[n])
        c_u = bt[n] / (a_n * (a_n + at[n]))
        c_v = at[n] / a_n
        c_w = at[n] ** 2 / (a_n * (a_n + at[n]))
        factor = np.eye(2) + (c_v * V + c_u * U + c_w * W)
        D = adjugate(factor) @ D
        D_def = adjugate(Tt0[n]) @ Ttw[n]
        scale = max(1.0, np.abs(D).max()) * max(1.0, np.abs(Tt0[n]).max() ** 2)
        if np.abs(D - D_def).max() > CORRECTION_TOL * scale:
            raise InternalConsistencyError(
                f"correction paths disagree at site {n}", site=n)
        states.append(CorrectionState(D, n))
    return states


# ---------------------------------------------------------------------------
# decay condition, N_{1/4} and the Neumann ensemble
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


def reversed_rows(u_arr: np.ndarray, n_start: int, n_max: int
                  ) -> Tuple[Tuple[np.ndarray, np.ndarray],
                             Tuple[np.ndarray, np.ndarray]]:
    """Rows (u_i0, u_i1) of the 2x2 array u for sites n_max down to n_start.

    Each entry is a contiguous copy, as advance_layer reads them.
    """
    u = u_arr[n_start:n_max + 1][::-1]
    return tuple(tuple(np.ascontiguousarray(u[:, i, j]) for j in (0, 1))
                 for i in (0, 1))


def advance_layer(bt: np.ndarray,
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


def tail_product(b_tilde: np.ndarray, phi1: np.ndarray, phi2: np.ndarray,
                 n_start: int) -> np.ndarray:
    """D(n) for sites n_start..n_max = len(b_tilde) - 1, shape (sites, 2, 2).

    D(n_max) = I and D(n) = (I + ~b(n+1) u(n+1)) D(n+1), one site at a
    time, for u = (phi2, -phi1)^T (phi1, phi2) of the boundary pair.
    """
    u_arr = nilpotent_generator_array(phi1, phi2)
    n_max = len(b_tilde) - 1
    D = [np.eye(2)]
    for n in range(n_max, n_start, -1):
        D.append((np.eye(2) + b_tilde[n] * u_arr[n]) @ D[-1])
    return np.array(D[::-1])


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

    Per seed, layers are summed from the probe site up until SERIES_LAYERS
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

    layer_sq = np.full((len(seeds), SERIES_LAYERS + 1), np.nan)
    d_vals = np.empty((len(seeds), len(checkpoints), 2))
    u = reversed_rows(u_arr, probe, n_max)
    for i, s in enumerate(seeds):
        bt = sample(model, s, n_max)[probe:][::-1]
        layer = np.zeros((1, 2, len(bt)))
        layer[0, 1] = 1.0
        total = layer.copy()
        layer_sq[i, 0] = 1.0  # the terminal vector is a unit vector
        for k in range(1, SERIES_LAYERS + 1):
            advance_layer(bt, u, layer)
            total += layer
            at_probe = layer[0, :, -1]
            layer_sq[i, k] = float(at_probe @ at_probe)
            if math.sqrt(layer_sq[i, k]) < LAYER_STOP:
                break
        d_vals[i] = total[0][:, n_max - checkpoints].T

    counts = np.sum(~np.isnan(layer_sq), axis=0)
    moments = np.full(SERIES_LAYERS + 1, np.nan)
    se = np.zeros(SERIES_LAYERS + 1)
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
