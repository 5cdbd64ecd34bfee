"""Transfer-matrix kernel: 2x2 algebra, products, free-step powers."""

import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jacobilab import core
from jacobilab.core import (
    COEF_MIN,
    MIN_LANES,
    RESCALE_LIMIT,
    Constant,
    OperatorSpec,
    _group_length,
    constant_spec,
    free_laplacian,
    growth_check,
    ldexp,
    propagate,
    residual,
    resume_state,
    solve_forward,
    uniform_steps,
)
from jacobilab.errors import InvalidArgumentError, OverflowSiteError
from jacobilab.sparse import SparseSpec, _cheb_u_pair, block_matrices
from jacobilab.subordinacy import l_norms
from oracles import (
    adjugate,
    naive_power,
    single_step,
    spectral_norm,
    transfer_product,
)

finite_floats = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def rand_spec(rng, a_min=0.5, b_scale=0.5):
    """Random bounded spec with a >= a_min (frozen per-site tables)."""
    n_tab = 2048
    a_tab = a_min + rng.random(n_tab + 1)
    b_tab = b_scale * rng.standard_normal(n_tab + 1)
    return OperatorSpec(a=lambda n: float(a_tab[n]),
                        b=lambda n: float(b_tab[n]))


def max_abs(X):
    return float(np.abs(X).max())


# ---------------------------------------------------------------------------
# 2x2 oracle helpers
# ---------------------------------------------------------------------------

@given(st.lists(finite_floats, min_size=4, max_size=4))
@example([0.0, 4.0, 4.0, 5.960464477539063e-08])  # near-equal singular values
def test_spectral_norm_matches_numpy(vals):
    A = np.reshape(vals, (2, 2))
    assert abs(spectral_norm(A) - np.linalg.norm(A, 2)) <= 1e-9 * max(
        1.0, spectral_norm(A))


def test_inv_unimodular_is_exact_adjugate():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, b, c = rng.standard_normal(3)
        a = a if abs(a) > 0.1 else 1.0
        d = (1.0 + b * c) / a
        T = np.array([[a, b], [c, d]])
        P = T @ adjugate(T)
        assert max_abs(P - np.eye(2)) < 1e-12


# ---------------------------------------------------------------------------
# single_step / transfer_product
# ---------------------------------------------------------------------------

def test_single_step_examples():
    # free Laplacian at E = 0 is a quarter rotation
    assert np.array_equal(single_step(0.0, 0.0, 1.0, 1.0),
                          [[0.0, -1.0], [1.0, 0.0]])
    assert np.array_equal(single_step(2.0, 0.0, 1.0, 1.0),
                          [[2.0, -1.0], [1.0, 0.0]])
    assert np.array_equal(single_step(0.0, 1.0, 2.0, 1.0),
                          [[-0.5, -0.5], [1.0, 0.0]])


def test_single_step_rejects_nonpositive_a():
    with pytest.raises(InvalidArgumentError):
        single_step(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        single_step(0.0, 0.0, 1.0, -1.0)


def test_single_step_det_is_a_ratio():
    rng = np.random.default_rng(2)
    for _ in range(10 ** 4):
        E, b = rng.standard_normal(2)
        a_n, a_prev = 0.1 + rng.random(2) * 3.0
        S = single_step(E, b, a_n, a_prev)
        expect = a_prev / a_n
        assert abs(np.linalg.det(S) - expect) <= 1e-12 * abs(expect)


def test_transfer_free_E0_quarter_rotation():
    T = transfer_product(free_laplacian(), 0.0, 4)
    assert max_abs(T - np.eye(2)) < 1e-14


def test_transfer_free_E2_band_edge():
    T = transfer_product(free_laplacian(), 2.0, 3)
    # oracle: explicit 3-fold multiplication of [[2,-1],[1,0]]
    assert np.array_equal(T, [[4.0, -3.0], [3.0, -2.0]])


def test_transfer_det_telescopes():
    rng = np.random.default_rng(3)
    for trial in range(20):
        spec = rand_spec(rng)
        n = int(rng.integers(5, 120))
        T = transfer_product(spec, float(rng.uniform(-2.0, 2.0)), n)
        # det T(n) * a(n) = a(0) = 1
        assert abs(np.linalg.det(T) * spec.a_at(n) - 1.0) <= 1e-10 * max(
            1.0, max_abs(T) ** 2)


def test_transfer_running_norms_match_partials():
    spec = free_laplacian()
    T, norms = transfer_product(spec, 1.3, 50, return_norms=True)
    for k in (1, 10, 50):
        assert norms[k - 1] == pytest.approx(
            spectral_norm(transfer_product(spec, 1.3, k)), rel=1e-12)


def test_transfer_overflow_names_site():
    with pytest.raises(OverflowSiteError) as exc:
        transfer_product(free_laplacian(), 4.0, 10 ** 4)
    assert exc.value.site is not None and exc.value.site < 10 ** 4


def test_rational_rotation_finite_order():
    # E = 2 cos(pi p / q) on the free Laplacian: T(q) = +- I
    for p, q in ((1, 3), (1, 4), (2, 5), (3, 7), (1, 6)):
        E = 2.0 * math.cos(math.pi * p / q)
        T = transfer_product(free_laplacian(), E, q)
        dev = min(max_abs(T - np.eye(2)), max_abs(T + np.eye(2)))
        assert dev < 1e-10


# ---------------------------------------------------------------------------
# free-step powers: the gap blocks of sparse.block_matrices
# ---------------------------------------------------------------------------

def gap_block(E, m):
    """S^m for the free step S at E, as block_matrices gives it: the
    first gap of a sparse spec with gamma = m + 1 is m steps long."""
    spec = SparseSpec(v=0.0, gamma=m + 1, j_max=1)
    return np.reshape(block_matrices(spec, E)[0][:4], (2, 2))


def test_fast_power_quarter_rotation():
    assert max_abs(gap_block(0.0, 4) - np.eye(2)) < 1e-12


def test_fast_power_band_edge_closed_form():
    # S = [[+-2,-1],[1,0]]: S^m = p S - q I with U_k(+-1) = (+-1)^k (k+1);
    # at +2 that is [[m+1,-m],[m,-(m-1)]]
    assert _cheb_u_pair(2.0, 10) == (10.0, 9.0)
    for t in (2.0, -2.0):
        S = single_step(t, 0.0, 1.0, 1.0)
        p, q = _cheb_u_pair(t, 11)
        assert max_abs(p * S - q * np.eye(2) - naive_power(S, 11)) < 1e-9
    p, q = _cheb_u_pair(2.0, 10 ** 6)
    assert 2.0 * p - q == pytest.approx(10 ** 6 + 1, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.floats(-1.9, 1.9), st.integers(1, 3000))
def test_fast_power_matches_naive(E, m):
    P = gap_block(E, m)
    Q = naive_power(single_step(E, 0.0, 1.0, 1.0), m)
    scale = max(1.0, max_abs(Q))
    assert max_abs(P - Q) <= 1e-10 * scale


def test_fast_power_huge_elliptic_exponent():
    # elliptic orbits stay bounded even at m near the 128-bit site limit:
    # the last gap of gamma = 2, j_max = 126 is 2^125 - 1 steps long
    E = 0.6
    spec = SparseSpec(v=0.2, gamma=2, j_max=126)
    P = np.reshape(block_matrices(spec, E)[-1][:4], (2, 2))
    assert np.isfinite(P).all()
    assert abs(np.linalg.det(P) - 1.0) < 1e-6
    k = math.acos(E / 2.0)
    assert spectral_norm(P) <= (
        1.0 + abs(math.cos(k))) / abs(math.sin(k)) + 1e-6


# ---------------------------------------------------------------------------
# solve_forward
# ---------------------------------------------------------------------------

def test_solve_forward_free_E0_period4():
    t = solve_forward(*free_laplacian().coefficients(6), 0.0, 0.0, 1.0, 6)
    assert np.allclose(t, [0, 1, 0, -1, 0, 1, 0])


def test_solve_forward_free_E2_linear():
    t = solve_forward(*free_laplacian().coefficients(20), 2.0, 0.0, 1.0, 20)
    assert np.allclose(t, np.arange(21))


def test_solve_forward_rejects_zero_data():
    with pytest.raises(InvalidArgumentError):
        solve_forward(*free_laplacian().coefficients(5), 0.0, 0.0, 0.0, 5)


def test_solve_forward_matches_transfer_columns():
    rng = np.random.default_rng(4)
    for _ in range(10):
        spec = rand_spec(rng)
        E = float(rng.uniform(-2, 2))
        n = 200
        T = transfer_product(spec, E, n)
        a, b = spec.coefficients(n)
        col1 = solve_forward(a, b, E, 1.0, 0.0, n)   # second column start
        col0 = solve_forward(a, b, E, 0.0, 1.0, n)   # first column start
        # T(n) maps (phi(1), phi(0)) -> (phi(n+1), phi(n)); check phi(n)
        scale = max(1.0, max_abs(T))
        assert abs(col0[n] - T[1, 0]) <= 1e-10 * scale
        assert abs(col1[n] - T[1, 1]) <= 1e-10 * scale


def test_solve_forward_residual_zero():
    rng = np.random.default_rng(5)
    spec = rand_spec(rng)
    a, b = spec.coefficients(300)
    t = solve_forward(a, b, 0.7, 1.0, 0.3, 300)
    scale = float(np.max(np.abs(t)))
    for n in range(1, 300):
        assert abs(residual(t, a, b, 0.7, n)) <= 1e-10 * scale


def plain_recursion(a, b, E, phi0, phi1, n_max):
    """The three-term recursion without any rescaling, as Python floats."""
    values = [phi0, phi1][:n_max + 1]
    for n in range(1, n_max):
        values.append(((E - b[n]) * values[n] - a[n - 1] * values[n - 1])
                      / a[n])
    return values


# a in [0.8, 1.25], |b| <= 0.5, |E| <= 4: with |E - b| >= 3 a solution with
# |phi(1)| >= |phi(0)| grows by >= 1.4 per site, past the 2^199 rescale
# threshold within 500 sites
propagate_tables = st.integers(0, 2000).flatmap(lambda n: st.tuples(
    st.lists(st.floats(0.8, 1.25), min_size=n + 1, max_size=n + 1),
    st.lists(st.floats(-0.5, 0.5), min_size=n + 1, max_size=n + 1)))


def assert_plain_bits(m, k, plain):
    """ldexp(m, k) is plain bit for bit, signs of zero included: at every
    site before the first rescale, inf and nan included, and after it
    where plain stays finite."""
    same = np.isfinite(plain) | (k == 0)
    with np.errstate(over="ignore"):
        values = np.ldexp(m, k)
    assert np.array_equal(values[same].view(np.int64),
                          plain[same].view(np.int64))


@settings(max_examples=60, deadline=None)
@given(propagate_tables, st.floats(-4.0, 4.0), st.floats(-1.0, 1.0),
       st.floats(-1.0, 1.0))
# from phi(1) = 1e308 with |E - b| >= 3 the state turns inf at site 2 and
# nan at site 4, with no rescale before
@example(([1.0, 0.9, 1.1, 1.2, 0.8, 1.0], [0.0] * 6), 3.9, 0.5, 1e308)
@example(([1.0, 0.9, 1.1, 1.2], [0.0, 0.2, -0.3, 0.1]), 1.0, 0.0, -0.0)
def test_propagate_is_the_plain_recursion_bit_for_bit(table, E, phi0, phi1):
    a_tab, b_tab = table
    n = len(a_tab) - 1
    a_tab[0] = 1.0
    m, k = propagate(np.array(a_tab), np.array(b_tab), E, phi0, phi1, n)
    plain = np.array(plain_recursion(a_tab, b_tab, E, phi0, phi1, n))
    assert m.shape == k.shape == plain.shape
    assert np.all(np.diff(k) >= 0)
    assert_plain_bits(m, k, plain)
    if abs(E) >= 3.5 and n >= 500 and abs(phi1) >= abs(phi0) > 0.0:
        assert k[-1] > 0  # the state was rescaled


@st.composite
def unit_a_tables(draw):
    """a and b for sites 0..n where propagate's a = 1 step may run: every a
    1.0 and b zero but at a few bumps of height |v| <= 3, or b drawn and a
    1.0 but at one site, n - 1 (the last a read) in about half the draws."""
    n = draw(st.integers(0, 2000))
    a, b = np.ones(n + 1), np.zeros(n + 1)
    if draw(st.booleans()):
        bumps = st.tuples(st.integers(1, n), st.floats(-3.0, 3.0))
        for site, v in draw(st.lists(bumps, max_size=5)) if n else ():
            b[site] = v
    elif n:
        site = draw(st.one_of(st.just(n - 1), st.integers(0, n - 1)))
        a[site] = draw(st.floats(0.8, 1.25).filter(lambda x: x != 1.0))
        b[:] = draw(st.lists(st.floats(-0.5, 0.5), min_size=n + 1,
                             max_size=n + 1))
    return a, b


@settings(max_examples=120, deadline=None)
@given(unit_a_tables(), st.floats(-4.0, 4.0), st.floats(-1.0, 1.0),
       st.floats(-1.0, 1.0))
@example((np.ones(801), np.zeros(801)), 3.9, 0.0, 1.0)
@example((np.ones(6), np.zeros(6)), -3.5, 0.0, 1e308)  # -inf, inf, nan
def test_propagate_where_a_is_one_is_the_plain_recursion_bit_for_bit(
        table, E, phi0, phi1):
    # the a = 1 step drops * a(n-1) and / a(n), which are exact; one a
    # other than 1.0, the last one read included, needs the general step
    a_tab, b_tab = table
    n = len(a_tab) - 1
    m, k = propagate(a_tab, b_tab, E, phi0, phi1, n)
    plain = np.array(plain_recursion(a_tab.tolist(), b_tab.tolist(), E,
                                     phi0, phi1, n))
    assert m.shape == k.shape == plain.shape
    assert_plain_bits(m, k, plain)
    finite = np.isfinite(plain[2:])  # computed sites, not phi(0), phi(1)
    assert np.all(np.abs(m[2:][finite]) <= RESCALE_LIMIT)
    if abs(E) >= 3.5 and n >= 500 and abs(phi1) >= abs(phi0) > 0.0:
        assert k[-1] > 0  # the state was rescaled


def random_coefficients(rng, n, wide):
    """a, b for sites 0..n: a(0) = 1 and a random share of a exactly 1.0.

    The other a are uniform on [0.3, 3] or, when wide, log-uniform on
    [1e-6, 1e8]; b is uniform on [-1, 1].
    """
    a = (np.exp(rng.uniform(math.log(1e-6), math.log(1e8), n + 1)) if wide
         else rng.uniform(0.3, 3.0, n + 1))
    a[rng.random(n + 1) < rng.uniform()] = 1.0
    a[0] = 1.0
    return a, rng.uniform(-1.0, 1.0, n + 1)


def random_lanes(rng, n_lanes, a, b):
    """(E, phi0, phi1) and a kind per lane; lanes 0-4 and the last are set.

    For a in [0.3, 3], where kind 4 sets the group length to 14-17 sites:
    0. elliptic-range E, mixed initial vectors;
    1. |E| in [30, 50], phi1 = 1: grows by >= 8 per site, so passes the
       rescale threshold within 70 sites (lane 0);
    2. starts at 1e308, turns to inf (|E - b| >= 3), then nan (last lane):
       its first group is redone by the scalar call;
    3. |E| in [1e3, 1e4]: passes the threshold every 17 to 24 sites
       (lane 1);
    4. |E| in [1e14, 1e16]: passes the threshold every 4 to 5 sites, two
       to four times in each group (lane 2);
    5. kind 1 with phi0 = 0 and phi1 the power of two that puts the first
       rescale on the last row of the first group (lane 3);
    6. kind 3 from phi1 = 2^1000, past the threshold: the scalar call
       rescales it at site 2, while its first group overflows unscaled
       and is redone (lane 4).
    Returns the lanes, their kinds and the last row of the first group.
    """
    kind = rng.integers(0, 2, n_lanes)
    kind[:5], kind[-1] = (1, 3, 4, 5, 6), 2
    size = np.select([kind == 0, kind == 2, np.isin(kind, (3, 6)), kind == 4],
                     [rng.uniform(0.0, 4.0, n_lanes), 4.0,
                      10.0 ** rng.uniform(3.0, 4.0, n_lanes),
                      10.0 ** rng.uniform(14.0, 16.0, n_lanes)],
                     rng.uniform(30.0, 50.0, n_lanes))
    E = rng.choice([-1.0, 1.0], n_lanes) * size
    E[kind == 2] = 4.0
    phi0 = np.where(np.isin(kind, (2, 5)), 0.0,
                    rng.uniform(-1.0, 1.0, n_lanes))
    phi1 = np.select([kind == 0, kind == 2, kind == 6],
                     [rng.uniform(-1.0, 1.0, n_lanes), 1e308, 2.0 ** 1000],
                     1.0)
    n = len(a) - 1
    last_row = _group_length(a[:n], b[1:n], E) + 1  # rows 2..last_row
    if n > last_row:
        # the plain solution scales exactly with phi1 = 2^j
        u = np.abs(np.ldexp(*propagate(a, b, E[3], 0.0, 1.0, last_row)))
        if np.isfinite(u[-1]) and u[-1] > 0.0:
            j = 200 - math.frexp(u[-1])[1]  # u[-1] * 2^j in [2^199, 2^200)
            if abs(j) < 900 and u[-1] * 2.0 ** j > RESCALE_LIMIT >= np.max(
                    u[2:-1]) * 2.0 ** j:
                phi1[3] = 2.0 ** j
    return E, phi0, phi1, kind, last_row


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 600),
       st.integers(max(MIN_LANES, 6), 2 * MIN_LANES), st.booleans(),
       st.data())
def test_lane_propagate_is_the_scalar_call_bit_for_bit(seed, n, n_lanes,
                                                       wide, data):
    rng = np.random.default_rng(seed)
    a, b = random_coefficients(rng, n, wide)
    if data.draw(st.booleans()):  # a = 1 and b one value: one shift row
        a[:], b[:] = 1.0, b[1]
    E, phi0, phi1, kind, last_row = random_lanes(rng, n_lanes, a, b)
    redo_energies = []  # E of each scalar call the lane loop makes

    def spy(a, b, E, *state):
        redo_energies.append(E)
        return propagate(a, b, E, *state)

    with patch.object(core, "propagate", spy):
        m, k = propagate(a, b, E, phi0, phi1, n)
    assert m.shape == k.shape == (n + 1, n_lanes)
    scalar_m, scalar_k = [], []
    for j in range(n_lanes):
        m_j, k_j = propagate(a, b, float(E[j]), float(phi0[j]),
                             float(phi1[j]), n)
        assert np.array_equal(m[:, j], m_j, equal_nan=True)
        assert np.array_equal(k[:, j], k_j)
        scalar_m.append(m_j)
        scalar_k.append(k_j)
        if not wide and kind[j] == 1 and n >= 100:
            assert k_j[-1] > 0  # the lane was rescaled
    if not wide and n > last_row:
        first_group = np.diff(scalar_k[2][:last_row + 1]) > 0
        assert np.count_nonzero(first_group) >= 2
        assert scalar_k[3][last_row] > scalar_k[3][last_row - 1] == 0

    # the scalar call redoes the inf lane, and no lane that starts within
    # the limit, has its coefficients in the exact range and stays finite
    redone = np.isin(E, redo_energies)
    assert redone[-1]
    shift = np.abs(E - b[1:n, None])
    exact_coefficients = (((shift == 0.0) | (shift >= COEF_MIN)).all(axis=0)
                          & (COEF_MIN <= a[:n].min())
                          & (a[:n].max() <= 1.0 / COEF_MIN))
    kept = (np.isfinite(scalar_m).all(axis=1)
            & (np.maximum(np.abs(phi0), np.abs(phi1)) <= RESCALE_LIMIT)
            & exact_coefficients)
    assert not (redone & kept).any()

    # a run resumed from resume_state at site s is the unbroken run
    s = data.draw(st.integers(2, n))
    m1, k1 = propagate(a, b, E, phi0, phi1, s)
    prev, cur, k_s = resume_state(m1, k1)
    m2, k2 = propagate(a[s - 1:], b[s - 1:], E, prev, cur, n - s + 1)
    assert np.array_equal(m1, m[:s + 1], equal_nan=True)
    assert np.array_equal(m2[1:], m[s:], equal_nan=True)
    assert np.array_equal(k_s + k2[1:], k[s:])


def test_one_shift_row_keeps_the_sign_of_a_zero_b():
    # b is 0.0 but -0.0 at site 5: there E - b at E = -0.0 is +0.0, not
    # -0.0, and alpha's step to site 6 from phi(4) = +0.0 keeps that sign,
    # so the lane loop must not take one shift row
    a, b = np.ones(41), np.zeros(41)
    b[5] = -0.0
    assert uniform_steps(a, b[1:5]) and not uniform_steps(a, b[1:])
    E = np.array([-0.0, 0.0] * (MIN_LANES // 2))
    phi0, phi1 = np.resize([0.0, 1.0, -0.0], MIN_LANES), np.resize(
        [1.0, -0.0, 0.0, -1.0], MIN_LANES)
    m, k = propagate(a, b, E, phi0, phi1, 40)
    for j in range(MIN_LANES):
        m_j, k_j = propagate(a, b, E[j], phi0[j], phi1[j], 40)
        assert m[:, j].tobytes() == m_j.tobytes()
        assert k[:, j].tobytes() == k_j.tobytes()


# values and exponents where np.ldexp changes behaviour: signed zeros,
# subnormals, the rescale limit, the largest double, inf and nan
shift_values = st.floats() | st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1060, 2.0 ** 199, -(2.0 ** 199),
    1.7976931348623157e308, math.inf, -math.inf, math.nan])
shift_exponents = (st.integers(-(2 ** 40), 2 ** 40) | st.integers(-2200, 2200)
                   | st.sampled_from([-2099, -2098, 2098, 2099, -(2 ** 31),
                                      2 ** 31 - 1, 2 ** 31]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(shift_values, shift_exponents), min_size=1,
                max_size=40))
def test_ldexp_is_numpy_ldexp_of_int64_exponents_bit_for_bit(pairs):
    x, e = np.array(pairs, dtype=object).T
    x, e = x.astype(float), e.astype(np.int64)
    with np.errstate(over="ignore", under="ignore"):
        assert ldexp(x, e).tobytes() == np.ldexp(x, e).tobytes()
        assert ldexp(x[0], e[0]).tobytes() == np.ldexp(x[0], e[0]).tobytes()


def test_ldexp_edge_exponents_and_broadcasts_bit_for_bit():
    # every exponent where the clip or the int32 cast could show, against
    # every kind of mantissa, and ldexp's broadcasting of x against e
    e = np.array([0, 1, -1, 2098, -2098, 2099, -2099, 2100, -2100,
                  2 ** 31, -(2 ** 31), 2 ** 31 - 1, -(2 ** 40), 2 ** 40],
                 dtype=np.int64)
    x = np.array([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1030, 1.5,
                  -(2.0 ** 1000), 1.7976931348623157e308, math.inf,
                  -math.inf, math.nan])
    with np.errstate(over="ignore", under="ignore"):
        for xs, es in ((x[:, None], e[None, :]), (x[None, :], e[:, None]),
                       (x[:, None], e), (x[3], e), (x, e[9]),
                       (x[:, None, None], e.reshape(2, 7))):
            got, want = ldexp(xs, es), np.ldexp(xs, es)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_propagate_over_no_lanes_returns_empty_arrays():
    a, b = free_laplacian().coefficients(10)
    m, k = propagate(a, b, np.array([]), 0.0, 1.0, 10)
    assert m.shape == k.shape == (11, 0) and k.dtype == np.int64


def test_propagate_rejects_short_coefficient_arrays():
    a, b = free_laplacian().coefficients(10)
    propagate(a, b, 0.5, 0.0, 1.0, 11)  # reads sites 0..10
    with pytest.raises(InvalidArgumentError):
        propagate(a, b, 0.5, 0.0, 1.0, 12)


def test_trajectory_l_norms_nondecreasing():
    a, b = free_laplacian().coefficients(100)
    t = solve_forward(a, b, 0.9, 1.0, 0.5, 100)
    norms = l_norms(t, np.arange(1.0, 100.0))
    assert np.all(np.diff(norms) >= 0.0)
    assert norms[2] ** 2 == pytest.approx(np.sum(t[1:4] ** 2))


def test_a_min_floor_enforced():
    spec = OperatorSpec(a=lambda n: 1e-9, b=lambda n: 0.0)
    with pytest.raises(InvalidArgumentError):
        spec.a_at(1)


def test_coefficients_stop_at_first_site_below_floor():
    spec = OperatorSpec(a=lambda n: 1.0 if n < 5 else 1e-9,
                        b=lambda n: 0.5)
    a, b = spec.coefficients(4)
    assert a.tolist() == [1.0] * 5
    assert b.tolist() == [0.0] + [0.5] * 4
    with pytest.raises(InvalidArgumentError, match=r"^a\(5\) = 1e-09 below"):
        spec.coefficients(10)


@pytest.mark.parametrize("n_max", [0, 1, 1000])
@pytest.mark.parametrize("b_const", [0.0, -0.0, 0.1])
@pytest.mark.parametrize("a_const", [1.0, 0.6, 1e-6])
def test_constant_coefficients_are_the_per_site_build(a_const, b_const,
                                                      n_max):
    # the filled arrays of a constant spec against the per-site callables
    per_site = OperatorSpec(a=lambda n: a_const, b=lambda n: b_const)
    for got, want in zip(constant_spec(a_const, b_const).coefficients(n_max),
                         per_site.coefficients(n_max)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    free = OperatorSpec(a=lambda n: 1.0, b=lambda n: 0.0)
    for got, want in zip(free_laplacian().coefficients(n_max),
                         free.coefficients(n_max)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_constant_coefficients_below_the_floor_raise():
    with pytest.raises(InvalidArgumentError,
                       match=r"^a\(1\) = 1e-07 below declared floor"):
        constant_spec(1e-7, 0.0).coefficients(10)


def test_one_constant_coefficient_is_the_per_site_build():
    # a Constant beside a per-site callable fills its own array alone
    b_site = lambda n: 0.1 * n - 0.3  # noqa: E731
    for spec, per_site in (
            (OperatorSpec(a=Constant(0.6), b=b_site),
             OperatorSpec(a=lambda n: 0.6, b=b_site)),
            (OperatorSpec(a=lambda n: 1.0 + 0.5 ** n, b=Constant(-0.0)),
             OperatorSpec(a=lambda n: 1.0 + 0.5 ** n, b=lambda n: -0.0))):
        for got, want in zip(spec.coefficients(300),
                             per_site.coefficients(300)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert constant_spec(0.6, 0.1).a(7) == 0.6  # still a callable of n


def test_growth_check_free():
    assert growth_check(free_laplacian().coefficients(1000)[0])
    assert growth_check(constant_spec(2.0, 0.0).coefficients(1000)[0])

