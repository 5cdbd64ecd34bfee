"""Variation-of-parameters machinery for randomly perturbed transfer cocycles.

The perturbed n-step transfer matrix factors as T_w(n) = T_0(n) D(n); D
satisfies the backward recursion D(n-1) = (I + U_w(n)) D(n) where, for a
diagonal (Schrodinger-type) perturbation, U_w(n) = ~b(n) u(n) with a
rank-one nilpotent generator u(n) conjugated through the unperturbed
cocycle; correction_ensemble runs it for a seed ensemble.

The amplitude matrix D(n) of neumann_layers solves the same backward
recursion in the basis of a boundary solution pair, but tends to I at
infinity: its columns d^-(n) and d^+(n) are sums of Neumann layers of
tail sums from the terminal vectors (1, 0) and (0, 1), and the perturbed
solutions are (psi1, psi2)(n) = (phi1, phi2)(n) D(n). One pass sums the
columns a caller asks for: both for the perturbed pair, d^+ alone for
the sparse envelope. It keeps the sums at the sites asked for: every
site for the perturbed pair, the bumps for the sparse envelope. It
reads u in factored form, from two rows that a seed ensemble builds once.
D factors as D(lo) = M(lo, hi) D(hi) over the sites lo < m <= hi, so the
sums run segment by segment from the top, cut where SEGMENT_MIN sites or
more lie below: a far segment stops after a layer or two, and a layer's
sup is its largest over the segments walked. As D(n) reads ~b above n
alone, the walk ends with the segment of the lowest site asked for, and
reads ~b only above that segment's bottom (lowest_site_read). A
segment's layers carry only its own share of sum |~b| |u|, so a sum that
diverged over the span may converge.
The rows also own the span-sized scratch of neumann_layers (v, the
layers, a layer step's block temporaries), which each call overwrites:
a seed loop then allocates no span-sized array per seed, whose fresh
pages would be faulted in again on every seed, and a rows object serves
one caller at a time.
"""

from __future__ import annotations

import itertools
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .core import OperatorSpec, residual, solve_forward
from .errors import (
    DivergentSeriesError,
    InsufficientDataError,
    InternalConsistencyError,
    InvalidArgumentError,
)
from .randpert import PerturbationModel, sample

LAYER_STOP = 1e-12      # early stop when a sampled layer norm falls below this
LAYER_CAP = 100         # 2.5x the deepest sum seen (38 layers at s = 1/2)
RESIDUAL_TOL = 1e-9     # relative recursion residual of perturbed solutions
SEED_CHUNK = 50         # realizations propagated together
BLOCK = 2 ** 14         # sites per block of a layer step: ~1 MiB, in cache
SEGMENT_MIN = 2 ** 10   # fewest sites below a segment cut: a layer step has
                        # ~15 us of fixed cost, the work of ~2,000 sites


# ---------------------------------------------------------------------------
# correction matrices D(n) of a seed ensemble
# ---------------------------------------------------------------------------

def correction_ensemble(spec: OperatorSpec, model: PerturbationModel, E: float,
                        seeds: Sequence[int], checkpoints: Sequence[int]
                        ) -> np.ndarray:
    """D snapshots, shape (len(seeds), len(checkpoints), 2, 2).

    Vectorized over realizations; diagonal (Schrodinger) mode only, on
    the canonical unimodular pair s1, s2 of (f(0), f(1)) = (0, 1), (1, 0)
    (so a == 1), whose generator is u = w r with r = (s1, s2) and w =
    (s2, -s1)^T. u is nilpotent, so (I + ~b u)^{-1} = I - ~b u exactly:
    D -= w(n) (~b(n) r(n) D).
    """
    checkpoints = sorted(checkpoints)
    n_max = checkpoints[-1]
    a, b = spec.coefficients(n_max)
    if np.any(np.abs(a - 1.0) > 1e-12):
        raise InvalidArgumentError(
            "diagonal mode requires off-diagonal coefficients == 1"
        )
    s1, s2 = (solve_forward(a, b, E, f0, f1, n_max)
              for f0, f1 in ((0.0, 1.0), (1.0, 0.0)))
    r, w = np.stack((s1, s2), axis=1), np.stack((s2, -s1), axis=1)[:, :, None]
    out = np.empty((len(seeds), len(checkpoints), 2, 2))
    for lo in range(0, len(seeds), SEED_CHUNK):
        batch = seeds[lo:lo + SEED_CHUNK]
        # the columns of every D side by side, seed k's as columns 2k and
        # 2k + 1 of X, each with its seed's ~b: one product r(n) X a step
        bt = np.repeat(np.stack([sample(model, s, n_max) for s in batch],
                                axis=1), 2, axis=1)
        X = np.tile(np.eye(2), len(batch))
        D = X.reshape(2, -1, 2).swapaxes(0, 1)  # a view: D[k] is seed k's
        for ci, (prev, c) in enumerate(zip([0] + checkpoints, checkpoints)):
            for n in range(prev + 1, c + 1):
                X -= w[n] * (bt[n] * (r[n] @ X))
            out[lo:lo + len(batch), ci] = D
    return out


# ---------------------------------------------------------------------------
# Neumann layers and amplitude pairs
# ---------------------------------------------------------------------------

class _Rows(NamedTuple):
    """Reversed rows of phi1, phi2 and the sites n_start..n_max they cover,
    with the scratch that neumann_layers overwrites on every call."""

    n_start: int
    n_max: int
    phi: Tuple[np.ndarray, np.ndarray]
    v: np.ndarray        # (2, span): (~b phi2, -~b phi1), reversed
    layer: np.ndarray    # (2, span, 2): a layer per column
    scratch: np.ndarray  # (2, span): _advance_layer's block temporaries


def subordinate_generator_array(phi1: np.ndarray, phi2: np.ndarray,
                                n_start: int, n_max: int) -> _Rows:
    """The generator of a boundary pair in factored form: contiguous
    copies of phi1, phi2 for sites n_max down to n_start, as u(n) =
    T(n)^{-1} E12 T(n) = (phi2, -phi1)^T (phi1, phi2)(n) for the matrix
    T(n) of the pair. A seed ensemble builds them once; neumann_layers
    checks their span. They also own the scratch of neumann_layers, so a
    rows object serves one caller at a time.
    """
    span = n_max - n_start + 1
    return _Rows(n_start, n_max, tuple(
        np.ascontiguousarray(phi[n_start:n_max + 1][::-1])
        for phi in (phi1, phi2)),
        np.empty((2, span)), np.empty((2, span, 2)), np.empty((2, span)))


def _advance_layer(v: Tuple[np.ndarray, np.ndarray],
                   phi: Tuple[np.ndarray, np.ndarray],
                   layer: Sequence[np.ndarray], scratch: np.ndarray) -> None:
    """Overwrite Neumann layer k with layer k+1, in reversed site order.

    Index j is site n_max - j, so the tail sum over j' > n of ~b(j') u(j')
    d^k(j') is a plain cumsum. layer holds a 2-vector (x, y) per column and
    site; ~b u d^k = v q for v = (~b phi2, -~b phi1), folded once per
    realization, and q = phi1 x + phi2 y. v and phi are reversed alike;
    v is not read at phi's last position and may stop short of it.
    scratch holds two rows of at least min(BLOCK, sites - 1) entries, for
    q and the product phi2 y of a block.
    """
    p1, p2 = phi
    last = len(p1) - 1
    for col in layer:
        # BLOCK sites at a time, so that the rows stay in cache; the last
        # block first, as each one writes the first site of the next
        for a in reversed(range(0, last, BLOCK)):
            s = slice(a, min(a + BLOCK, last))
            q, py = scratch[:, :s.stop - a]
            np.multiply(p1[s], col[s, 0], out=q)
            q += np.multiply(p2[s], col[s, 1], out=py)
            for i, vi in enumerate(v):
                np.multiply(vi[s], q, out=col[s.start + 1:s.stop + 1, i])
        col[0] = 0.0  # no site beyond n_max
        # as x + iy: one complex cumsum sums x and y apart, at the cost of one
        z = col.view(np.complex128)[:, 0]
        np.cumsum(z[1:], out=z[1:])


def _walk(n_start: int, n_max: int, lowest: int) -> List[int]:
    """The bottoms of the segments neumann_layers walks, top first, down
    to the one that holds site ``lowest``: cut at n_max//2, n_max//4, ...
    while SEGMENT_MIN sites or more lie below, the last one n_start."""
    bottoms = [n_max >> k for k in range(1, n_max.bit_length())
               if (n_max >> k) - n_start >= SEGMENT_MIN] + [n_start]
    return bottoms[:next(i for i, x in enumerate(bottoms) if x <= lowest) + 1]


def lowest_site_read(n_start: int, n_max: int, lowest: int) -> int:
    """The lowest site whose ~b neumann_layers reads (rows of sites
    n_start..n_max, lowest site asked for ``lowest``): one above the
    bottom of the segment that holds it, as D(n) reads ~b above n alone."""
    return _walk(n_start, n_max, lowest)[-1] + 1


def neumann_layers(b_tilde: np.ndarray, rows: _Rows, n_start: int,
                   sites: Sequence[int], columns: Sequence[int] = (0, 1)
                   ) -> Tuple[np.ndarray, List[float]]:
    """Amplitude columns D(n) of one realization at the given sites.

    Column 0 of the amplitude matrix is d^-(n), the Neumann sum from the
    terminal vector (1, 0); column 1 is d^+(n), from (0, 1); so
    (psi1, psi2)(n) = (phi1, phi2)(n) D(n). Column c of the result is
    column ``columns[c]``: the default (0, 1) gives the whole matrix, (1,)
    gives d^+ alone. ``rows`` is subordinate_generator_array(phi1, phi2,
    n_start, n_max), n_max = len(b_tilde) - 1, built by the caller once
    per pair. The span is summed one segment [lo, hi] at a time, top
    first, cut at n_max//2, n_max//4, ... while SEGMENT_MIN sites or more
    lie below: there D = M(., hi) D(hi), so a segment's layers run over
    its sites only, from the sums D(hi) of the segment above. Per
    segment, each column stops after its first layer whose sup-norm is
    below LAYER_STOP, whichever others are summed with it, and raises
    DivergentSeriesError if it has not stopped after LAYER_CAP layers.
    The walk ends with the segment that holds the lowest site asked for,
    and reads ~b only from lowest_site_read on, one above its bottom; the
    cuts depend on the span alone, so each D(site) is bit for bit that
    of the all-sites call. The sums are kept at the sites asked for,
    which may repeat. Returns (D, sups): D[i] is D(sites[i]), shape
    (len(sites), 2, len(columns)), and sups[k] is the largest sup-norm of
    layer k over the columns and the segments walked that take it, which
    are those of the call at every site from the lowest one asked for up.
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
    walk = _walk(n_start, n_max, n_max - pick.max(initial=0))
    bt = b_tilde[walk[-1] + 1:][::-1]
    v = rows.v[:, :len(bt)]
    np.multiply(bt, rows.phi[1][:len(bt)], out=v[0])
    np.negative(np.multiply(bt, rows.phi[0][:len(bt)], out=v[1]), out=v[1])
    # layer[c] as x + iy, so that one assignment writes a terminal vector
    layer_z = rows.layer.view(np.complex128)[:, :, 0]
    total = np.empty((len(columns), len(sites), 2))
    carry = np.eye(2)[list(columns)]  # terminal vectors of a segment
    sups: List[float] = []
    start = 0  # first reversed position that no segment above has kept
    for bottom in walk:
        end = n_max - bottom + 1
        seg = slice(max(start - 1, 0), end)
        here = np.flatnonzero((pick >= start) & (pick < end))
        # sums[column, i] and layer[column, j]: the sum at the i-th site
        # kept, the segment's bottom last, and layer k at position j
        at = np.append(pick[here], end - 1) - seg.start
        sums = np.repeat(carry[:, None], len(at), axis=1)
        layer_z[:len(columns), :end - seg.start] = carry.view(np.complex128)
        layer = list(rows.layer[:len(columns), :end - seg.start])
        active = list(range(len(columns)))
        seg_sups = [float(np.abs(carry).max())]
        seg_v, seg_phi = (tuple(x[seg] for x in xs) for xs in (v, rows.phi))
        for _ in range(LAYER_CAP):
            _advance_layer(seg_v, seg_phi, layer, rows.scratch)
            col_sups = [float(max(col.max(), -col.min())) for col in layer]
            for c, col in zip(active, layer):
                sums[c] += col[at]
            seg_sups.append(max(col_sups))
            going = [k for k, s in enumerate(col_sups) if not s < LAYER_STOP]
            if not going:
                break
            if len(going) < len(active):
                active, layer = ([xs[k] for k in going]
                                 for xs in (active, layer))
        else:
            raise DivergentSeriesError(
                f"Neumann sum of column {[columns[c] for c in active]} did "
                f"not converge in {LAYER_CAP} layers: last sups "
                f"{seg_sups[-3:]}")
        total[:, here], carry = sums[:, :-1], sums[:, -1]
        sups = [max(pair) for pair in
                itertools.zip_longest(sups, seg_sups, fillvalue=0.0)]
        start = end
    return total.transpose(1, 2, 0), sups


# ---------------------------------------------------------------------------
# perturbed solutions
# ---------------------------------------------------------------------------

def perturbed_solutions(coefficients: Tuple[np.ndarray, np.ndarray],
                        rows: _Rows, b_tilde: np.ndarray, E: float,
                        phi1: np.ndarray, phi2: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """(psi1, psi2) built from the amplitude matrices D(n).

    (psi1, psi2)(n) = (phi1, phi2)(n) D(n) for the unperturbed boundary
    pair phi1, phi2 at energy E (from solve_pair), which fixes n_max, and
    the b~ draw b_tilde (from sample), which covers sites 0..n_max at
    least. ``coefficients`` is spec.coefficients(n_max) and ``rows`` is
    subordinate_generator_array(phi1, phi2, 0, n_max), both built once
    by the caller for every realization and left unmodified. Verifies
    the perturbed difference-equation residual at every interior site.
    """
    n_max = len(phi1) - 1
    if n_max >= len(b_tilde):
        raise InsufficientDataError("b~ shorter than the pair")
    b_tilde = b_tilde[:n_max + 1]
    d, _ = neumann_layers(b_tilde, rows, 0, range(n_max + 1))
    psi1, psi2 = phi1 * d[:, 0].T + phi2 * d[:, 1].T
    a, b = coefficients[0], coefficients[1].copy()
    b[1:] += b_tilde[1:]
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
