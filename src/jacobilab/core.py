"""Jacobi difference-equation kernel.

The coefficient arrays of a Jacobi operator with off-diagonal a(n) > 0
and diagonal b(n), and the one forward propagation of its three-term
recursion, exactly rescaled by powers of two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError, OverflowSiteError

# Entries beyond this are treated as overflow.
ENTRY_LIMIT = 1e150

# propagate rescales past 2^199 (~8e59): squares of squares stay finite.
RESCALE_LIMIT = 2.0 ** 199
LN2 = math.log(2.0)

# propagate runs a numpy loop from this many lanes on. Scans of 3-15
# energies (32,768 sites, b = 0.1) put the crossover at about 7 lanes
# where a = 1 (one lane per energy, one shift row) and 14 where a = 0.6
# (2 lanes per energy, each step * and / by a); 16 lies at or above both
MIN_LANES = 16

# The lane loop tests for rescales once per group of sites (_group_length).
# Dividing a lane by 2^e is exact through a step while its values are 0 or
# >= EXACT_MIN, a is in [COEF_MIN, 1/COEF_MIN] and |E - b| is 0 or
# >= COEF_MIN: nonzero products are then >= 2^-860, differences >= 2^-912
# and quotients >= 2^-972, all normal.
EXACT_MIN = 2.0 ** -800
COEF_MIN = 2.0 ** -60

# A group's raw steps may multiply a state at RESCALE_LIMIT by 2^823: the
# result stays below 2^1022, a bit under the largest finite double, which
# covers the rounding of the steps and of the growth bound.
GROUP_BITS = 823

# For finite nonzero x, x * 2^e is +-inf at e >= 2098 and +-0 at e <= -2099,
# so ldexp clips e to +-SHIFT_CLIP without changing any result.
SHIFT_CLIP = 2099

# Floor every a(n) must reach (OperatorSpec.a_at).
DEFAULT_A_MIN = 1e-6

# Floor on the growth proxy (1/L) sum 1/a(n) of a finite truncation.
GAMMA_GROWTH = 1e-3


@dataclass
class OperatorSpec:
    """Generator of the sequences a(n) > 0, b(n) defining the operator.

    a is consulted for n >= 1 only; a(0) is fixed to 1.
    """

    a: Callable[[int], float]
    b: Callable[[int], float]

    def a_at(self, n: int) -> float:
        if n == 0:
            return 1.0
        an = self.a(n)
        if an < DEFAULT_A_MIN:
            raise InvalidArgumentError(
                f"a({n}) = {an} below declared floor a_min = {DEFAULT_A_MIN}"
            )
        return an

    def coefficients(self, n_max: int) -> tuple[np.ndarray, np.ndarray]:
        """Arrays a(n) and b(n) for n = 0..n_max.

        a[0] = 1 and every a(n) passes the a_min check of a_at; b[0] is
        unused by the recursion and set to 0 without consulting b. Scalar
        loops read the arrays through memoryview, which yields Python
        floats without copying; a Constant fills its array from site 1.
        """
        return tuple(
            np.concatenate([[head], np.full(n_max, at(1), dtype=float)])
            if isinstance(f, Constant) and n_max
            else np.array([head, *map(at, range(1, n_max + 1))])
            for f, at, head in ((self.a, self.a_at, 1.0),
                                (self.b, self.b, 0.0)))


@dataclass(frozen=True)
class Constant:
    """n -> value: constant_spec's a and b, built from site 1 alone."""

    value: float

    def __call__(self, n: int) -> float:
        return self.value


def growth_check(a: np.ndarray) -> bool:
    """(1/L) sum_{n<=L} 1/a(n) >= GAMMA_GROWTH for a holding a(0..L)."""
    return float(np.mean(1.0 / a[1:])) >= GAMMA_GROWTH


def ldexp(x, e):
    """np.ldexp(x, e) for int64 exponents e, bit for bit, at int32 speed.

    numpy runs ldexp on int32 exponents about 10x faster per element than
    on int64 ones. Clipping e to +-SHIFT_CLIP first changes no result;
    minimum of maximum clips as np.clip does, without its Python wrapper.
    """
    clipped = np.minimum(np.maximum(e, -SHIFT_CLIP), SHIFT_CLIP)
    return np.ldexp(x, clipped.astype(np.int32))


def free_laplacian() -> OperatorSpec:
    return constant_spec(1.0, 0.0)


def constant_spec(a_const: float, b_const: float) -> OperatorSpec:
    return OperatorSpec(a=Constant(a_const), b=Constant(b_const))


def uniform_steps(a: np.ndarray, b: np.ndarray) -> bool:
    """a all 1.0 and b one value, zero signs included: one step for all."""
    return bool((a == 1.0).all() and (b == b[:1]).all()
                and (np.signbit(b) == np.signbit(b[:1])).all())


def propagate(a: np.ndarray, b: np.ndarray, E, phi0, phi1,
              n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Solve a(n)phi(n+1) + a(n-1)phi(n-1) + b(n)phi(n) = E phi(n) forward.

    a and b are coefficient arrays holding at least sites 0..n_max-1.
    Returns (m, k) for sites 0..n_max with phi(n) = ldexp(m[n], k[n]).
    Whenever |phi| passes RESCALE_LIMIT, the state is divided by the power
    of two that brings |phi| into [1/2, 1). That is exact, so ldexp(m, k)
    is the plain recursion's value bit for bit wherever that stays finite
    (and normal). k is nondecreasing. Where every a(0..n_max-1) is 1.0,
    the loop skips its multiply by a(n-1) and divide by a(n), both exact.

    When E, phi0 or phi1 is a 1-D array, they are broadcast to lanes: each
    lane runs the same recursion, in lockstep with the others, and is
    rescaled on its own, so lane j of the (n_max + 1, lanes) arrays m and
    k is bit for bit the scalar call on (E[j], phi0[j], phi1[j]). Below
    MIN_LANES lanes, the scalar calls themselves are faster and are made;
    from there on a numpy loop tests for rescales once per group of sites
    (_group_length) and redoes with the scalar call a lane whose group
    leaves the range where that is exact (_propagate_lanes).
    """
    if min(len(a), len(b)) < n_max:
        raise InvalidArgumentError(
            f"propagating to site {n_max} needs coefficients of sites "
            f"0..{n_max - 1}, got {min(len(a), len(b))} sites")
    if np.ndim(E) or np.ndim(phi0) or np.ndim(phi1):
        return _propagate_lanes(a, b, E, phi0, phi1, n_max)
    a_free = (a[:n_max] == 1.0).all()
    a, b = memoryview(a), memoryview(b)
    m = np.empty(n_max + 1, dtype=float)
    m[:2] = (phi0, phi1)[:n_max + 1]
    k = np.zeros(n_max + 1, dtype=np.int64)
    # cur > hi or cur < lo is abs(cur) > RESCALE_LIMIT, inf and nan alike
    out, hi, lo = memoryview(m), RESCALE_LIMIT, -RESCALE_LIMIT
    prev, cur = phi0, phi1
    if a_free:
        for n, b_n in enumerate(b[1:n_max], start=2):
            prev, cur = cur, (E - b_n) * cur - prev
            if cur > hi or cur < lo:
                e = math.frexp(cur)[1]
                prev, cur = math.ldexp(prev, -e), math.ldexp(cur, -e)
                k[n] = e
            out[n] = cur
        return m, np.cumsum(k, out=k)
    for n, (a_prev, a_n, b_n) in enumerate(
            zip(a, a[1:n_max], b[1:n_max]), start=2):
        prev, cur = cur, ((E - b_n) * cur - a_prev * prev) / a_n
        if cur > hi or cur < lo:
            e = math.frexp(cur)[1]
            prev, cur = math.ldexp(prev, -e), math.ldexp(cur, -e)
            k[n] = e
        out[n] = cur
    return m, np.cumsum(k, out=k)


def _propagate_lanes(a, b, E, phi0, phi1, n_max):
    """propagate over lanes: the scalar loop's arithmetic, one row per site.

    Rows are computed one group of sites at a time (_group_length) with
    no rescale test; a step skips its multiply or divide by a(n) = 1.0,
    which is exact, and where every a of the call is 1.0 and b one value
    (uniform_steps), the row E - b(1) serves every step. A lane that
    stays within RESCALE_LIMIT through the group has made the scalar
    loop's steps. For the others, _rescale_group finds the first row past
    the limit, gives it the scalar loop's exponent e and divides the rest
    of the group by 2^e, again while the lane passes the limit. That is
    the scalar loop bit for bit, since dividing by 2^e commutes exactly
    with the step's *, - and / while no operand or result overflows or
    turns subnormal. The range check makes sure of that: the lane's group
    is finite, each of its scaled values (and the prev of each step after
    a rescale) is 0 or at least EXACT_MIN, every a in the group lies in
    [COEF_MIN, 1/COEF_MIN] and every nonzero |E - b| is at least
    COEF_MIN. A lane that fails the check is recomputed from the group's
    start state by the scalar call, which tests every site.
    """
    E, prev, cur = (np.array(x, dtype=float)
                    for x in np.broadcast_arrays(E, phi0, phi1))
    m = np.empty((n_max + 1, len(E)))
    k = np.zeros(m.shape, dtype=np.int64)
    if len(E) < MIN_LANES:
        for j, x in enumerate(zip(E, prev, cur)):
            m[:, j], k[:, j] = propagate(a, b, *map(float, x), n_max)
        return m, k
    m[:2] = (prev, cur)[:n_max + 1]
    a_free, run = (a[:n_max] == 1.0).all(), b[1:n_max]
    uniform = uniform_steps(a[:n_max], run)  # then one row serves all
    shift = np.broadcast_to(E - run[:1 if uniform else None, None],
                            (len(run), len(E)))  # row n-2: E - b(n-1)
    # its rows as a list, which slices per group with no view per step
    shift_rows = list(shift[:1]) * len(run) if uniform else list(shift)
    if not a_free:  # row n-2 holds (a(n-2), a(n-1)), the step to n
        steps = list(zip(a[:n_max - 1].tolist(), a[1:n_max].tolist()))
    mul, sub = np.multiply, np.subtract
    group = _group_length(a[:n_max], b[1:n_max], E)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(2, n_max + 1, group):
            stop = min(start + group, n_max + 1)
            rows, sites = m[start:stop], slice(start - 2, stop - 2)
            p, c = prev, cur
            if a_free:
                for row, s in zip(rows, shift_rows[sites]):
                    mul(s, c, row)
                    sub(row, p, row)
                    p, c = c, row
            else:
                for row, s, (a_prev, a_n) in zip(rows, shift_rows[sites],
                                                  steps[sites]):
                    np.multiply(s, c, out=row)
                    row -= p if a_prev == 1.0 else a_prev * p
                    if a_n != 1.0:
                        row /= a_n
                    p, c = c, row
            for j in _rescale_group(rows, k[start:stop], cur, shift[sites],
                                    a[start - 2:stop - 1]):
                m_j, k_j = propagate(
                    a[start - 2:stop - 1], b[start - 2:stop - 1],
                    *map(float, (E[j], prev[j], cur[j])), stop - start + 1)
                rows[:, j], k[start:stop, j] = m_j[2:], np.diff(k_j)[1:]
            # the state goes onto the exponent of the group's last row
            prev, cur = ldexp(m[stop - 2], -k[stop - 1]), m[stop - 1]
    return m, np.cumsum(k, axis=0, out=k)


def _group_length(a, b, E):
    """Raw steps per lane group: as many as a bound on growth allows.

    a holds a(n-2) and b holds b(n-1) for the steps to every site n of
    the call, E the lanes' energies. A step takes max(|phi(n-1)|,
    |phi(n-2)|) to at most (max |E - b| + max a) / min(min a, 1) times
    it, and so does each of its products, so GROUP_BITS / log2 of that
    many steps keep a state at RESCALE_LIMIT finite. A lane that starts
    a group within the limit, keeps its coefficients in the exact range
    and stays finite under the scalar call is then never redone. Energies
    that are nan are skipped. The length is at least 1 and at most the
    call's steps.
    """
    steps = len(b)
    if not steps:
        return 1
    reach = max(abs(np.fmax.reduce(E) - b.min()),
                abs(np.fmin.reduce(E) - b.max()))
    growth = (reach + a.max()) / min(a.min(), 1.0)
    if not growth > 1.0:  # no growth, or no energy but nan
        return steps
    return max(1, min(steps, int(GROUP_BITS / math.log2(growth))))


def _rescale_group(rows, k, cur, shift, a):
    """Give one group of lane rows the scalar loop's rescales, in place.

    rows were computed with no rescale from the state whose cur is given;
    k receives the rows' exponents, shift and a hold the group's E - b
    and a. Returns the lanes past the limit that fail the range check of
    _propagate_lanes; their rows are left as they were.
    """
    hot = np.flatnonzero(np.fmax.reduce(np.abs(rows), axis=0)
                         > RESCALE_LIMIT)  # fmax skips nan lanes
    if not len(hot):
        return hot
    sub = rows[:, hot]
    sub_k = np.zeros(sub.shape, dtype=np.int64)
    exact = np.isfinite(sub).all(axis=0)
    if not COEF_MIN <= a.min() <= a.max() <= 1.0 / COEF_MIN:
        exact[:] = False
    row = np.arange(len(sub))[:, None]
    while True:
        over = (np.abs(sub) > RESCALE_LIMIT) & exact
        lanes = np.flatnonzero(over.any(axis=0))
        if not len(lanes):
            break
        r = over[:, lanes].argmax(axis=0)  # the first row past the limit
        e = np.frexp(sub[r, lanes])[1]
        sub_k[r, lanes] = e
        before = ldexp(np.where(r > 0, sub[r - 1, lanes], cur[hot[lanes]]),
                       -e)
        exact[lanes] &= _exact_range(before)
        sub[:, lanes] = ldexp(sub[:, lanes], np.where(row >= r, -e, 0))
    exact &= _exact_range(sub).all(axis=0)
    s = np.abs(shift[:, hot])
    exact &= ((s >= COEF_MIN) | (s == 0.0)).all(axis=0)
    rows[:, hot[exact]], k[:, hot[exact]] = sub[:, exact], sub_k[:, exact]
    return hot[~exact]


def _exact_range(x):
    """Entries that are 0 or of magnitude at least EXACT_MIN."""
    mag = np.abs(x)
    return (mag >= EXACT_MIN) | (mag == 0.0)


def resume_state(m: np.ndarray, k: np.ndarray):
    """(prev, cur, k_cur) that continue a propagate run ending in (m, k).

    The loop rescales its state at the last site and leaves m[-2] as it
    was stored, so prev goes onto the exponent k_cur of the last site.
    For a run whose last site is s, propagate(a[s-1:], b[s-1:], E, prev,
    cur, n) then gives rows 1..n of the uninterrupted run, sites s..s+n-1,
    bit for bit, with exponents k_cur + k. Rows are lanes or scalars.
    """
    return ldexp(m[-2], k[-2] - k[-1]), m[-1], k[-1]


def solve_forward(a: np.ndarray, b: np.ndarray, E: float, phi0: float,
                  phi1: float, n_max: int) -> np.ndarray:
    """Solve the three-term recursion forward from (phi(0), phi(1)).

    a and b are coefficient arrays (OperatorSpec.coefficients) holding
    at least sites 0..n_max-1. Returns the values phi(0..n_max).
    """
    if phi0 == 0.0 and phi1 == 0.0:
        raise InvalidArgumentError("initial data must be nonzero")
    m, k = propagate(a, b, E, phi0, phi1, n_max)
    with np.errstate(over="ignore"):
        values = ldexp(m, k)
    # first computed site outside the representable range (nan included)
    bad = np.flatnonzero(~(np.abs(values[2:]) <= ENTRY_LIMIT))
    if len(bad):
        raise OverflowSiteError(int(bad[0]) + 2)
    return values


def residual(phi: np.ndarray, a: np.ndarray, b: np.ndarray, E: float, n):
    """Three-term recursion residual of the solution phi at site n.

    1 <= n <= len(phi) - 2; a and b are coefficient arrays
    (OperatorSpec.coefficients) holding sites 0..n; n may be an int or an
    integer index array.
    """
    return a[n] * phi[n + 1] + a[n - 1] * phi[n - 1] + (b[n] - E) * phi[n]
