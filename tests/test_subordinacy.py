"""L-norms, boundary pairs, and subordinate-solution detection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobilab.core import constant_spec, free_laplacian
from jacobilab.errors import InsufficientDataError, InvalidArgumentError
from jacobilab.sparse import SparseSpec
from jacobilab.subordinacy import (
    ANGLE_GRID,
    _grid_log_ratio,
    beta_eta_from_traces,
    default_l_grid,
    detect_subordinate,
    fitted_growth_exponent,
    l_norms,
    pair_log_lnorms,
    solve_pair,
)
from oracles import wronskian


def const_solution(value, n_max):
    return np.full(n_max + 1, float(value))


# ---------------------------------------------------------------------------
# l_norms
# ---------------------------------------------------------------------------

def test_l_norm_fractional():
    f = const_solution(1.0, 10)
    assert l_norms(f, [2.5])[0] == pytest.approx(math.sqrt(2.5))


def test_l_norm_integer_continuous():
    f = const_solution(1.0, 10)
    at, below = l_norms(f, [3.0, 3.0 - 1e-9])
    assert at == pytest.approx(math.sqrt(3.0))
    assert below == pytest.approx(math.sqrt(3.0), abs=1e-8)


def test_l_norm_linear_values():
    f = np.arange(6, dtype=float)
    assert l_norms(f, [2.0])[0] == pytest.approx(math.sqrt(5.0))  # 1 + 4


def test_l_norm_too_short_raises():
    f = const_solution(1.0, 3)
    with pytest.raises(InsufficientDataError):
        l_norms(f, [2.0, 3.5])
    with pytest.raises(InvalidArgumentError):
        l_norms(f, [0.5, 2.0])


def test_l_norm_nondecreasing_in_L():
    f = np.sin(np.arange(200) * 0.7)
    Ls = np.linspace(1.0, 150.0, 400)
    assert np.all(np.diff(l_norms(f, Ls)) >= -1e-12)


def _direct_l_norm(values, L):
    """sqrt(sum_{n<=floor(L)} f(n)^2 + frac(L) f(floor(L)+1)^2), site by site."""
    fl = math.floor(L)
    total = 0.0
    for n in range(1, fl + 1):
        total += values[n] * values[n]
    return math.sqrt(total + (L - fl) * (values[fl + 1] * values[fl + 1]))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_l_norms_match_a_direct_sum(data):
    n_max = data.draw(st.integers(3, 60))
    values = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n_max + 1,
                                max_size=n_max + 1))
    f = np.array(values)
    Ls = data.draw(st.lists(st.one_of(
        st.integers(1, n_max - 1).map(float),
        st.floats(1.0, n_max, exclude_max=True),
        # just below an integer: floor(L) is one less, frac(L) near 1
        st.integers(2, n_max - 1).map(lambda k: math.nextafter(k, 0.0)),
    ), min_size=1, max_size=8))
    # the same additions in the same order: equal, not merely close
    assert l_norms(f, Ls).tolist() == [_direct_l_norm(values, L) for L in Ls]
    with pytest.raises(InvalidArgumentError):
        l_norms(f, Ls + [data.draw(st.floats(0.0, 1.0, exclude_max=True))])
    # L >= n_max needs site floor(L) + 1 > n_max
    with pytest.raises(InsufficientDataError):
        l_norms(f, Ls + [data.draw(st.floats(n_max, 2.0 * n_max))])


# ---------------------------------------------------------------------------
# solve_pair / wronskian
# ---------------------------------------------------------------------------

def test_solve_pair_initial_conditions():
    th = 0.4
    phi1, phi2 = solve_pair(*free_laplacian().coefficients(10), 0.5, th, 10)
    assert phi1[0] == pytest.approx(-math.sin(th))
    assert phi1[1] == pytest.approx(math.cos(th))
    assert phi2[0] == pytest.approx(math.cos(th))
    assert phi2[1] == pytest.approx(math.sin(th))


def test_solve_pair_theta_zero_free_E0():
    phi1, _ = solve_pair(*free_laplacian().coefficients(6), 0.0, 0.0, 6)
    assert np.allclose(phi1, [0, 1, 0, -1, 0, 1, 0])


def test_solve_pair_rejects_theta_outside_range():
    with pytest.raises(InvalidArgumentError):
        solve_pair(*free_laplacian().coefficients(5), 0.0, math.pi / 2, 5)


@settings(max_examples=50, deadline=None)
@given(st.floats(-1.9, 1.9), st.floats(-math.pi / 2, math.pi / 2 - 1e-6))
def test_wronskian_constant_one(E, theta):
    phi1, phi2 = solve_pair(*free_laplacian().coefficients(40), E, theta, 40)
    for n in (1, 5, 17, 40):
        assert wronskian(phi1, phi2, n) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# log L-norm streaming vs direct evaluation
# ---------------------------------------------------------------------------

def test_pair_log_lnorms_match_direct():
    spec = free_laplacian()
    E, th = 0.5, 0.3
    Ls = [10.0, 33.7, 100.0, 450.0]
    _, logn1, logn2 = pair_log_lnorms(*spec.coefficients(450), E, th, Ls)
    phi1, phi2 = solve_pair(*spec.coefficients(500), E, th, 500)
    assert logn1 == pytest.approx(np.log(l_norms(phi1, Ls)), abs=1e-9)
    assert logn2 == pytest.approx(np.log(l_norms(phi2, Ls)), abs=1e-9)


def test_pair_log_lnorms_exponential_orbit_no_overflow():
    _, logn1, _ = pair_log_lnorms(
        *free_laplacian().coefficients(5000), 3.0, 0.0, [5000.0])
    lam = (3.0 + math.sqrt(5.0)) / 2.0
    assert logn1[0] == pytest.approx(5000.0 * math.log(lam), rel=1e-2)


def scan_terminal_log_ratio(spec, E, thetas, L_max):
    """Reference: shoot every angle of the grid through the recursion.

    Square sums over sites 1..floor(L_max)+1, the last at full weight as
    in the Gram grid, with the state rescaled every 64 sites.
    """
    n_stop = int(math.floor(L_max)) + 1
    p1, c1 = -np.sin(thetas), np.cos(thetas)
    p2, c2 = np.cos(thetas), np.sin(thetas)
    ls1 = np.full_like(p1, -np.inf)
    ls2 = np.full_like(p1, -np.inf)
    log_scale = np.zeros_like(p1)
    a, b = map(memoryview, spec.coefficients(n_stop - 1))
    with np.errstate(divide="ignore"):
        for n in range(1, n_stop + 1):
            ls1 = np.logaddexp(ls1, 2.0 * (np.log(np.abs(c1)) + log_scale))
            ls2 = np.logaddexp(ls2, 2.0 * (np.log(np.abs(c2)) + log_scale))
            if n == n_stop:
                break
            coef = E - b[n]
            p1, c1 = c1, (coef * c1 - a[n - 1] * p1) / a[n]
            p2, c2 = c2, (coef * c2 - a[n - 1] * p2) / a[n]
            if n % 64 == 0:
                m = np.maximum.reduce(
                    [np.abs(p1), np.abs(c1), np.abs(p2), np.abs(c2)])
                m = np.maximum(m, 1e-300)
                inv = 1.0 / m
                p1 *= inv
                c1 *= inv
                p2 *= inv
                c2 *= inv
                log_scale += np.log(m)
    return 0.5 * (ls1 - ls2)


GRID_SPECS = {
    "free": free_laplacian(),
    "constant(1.3, 0)": constant_spec(1.3, 0.0),
    "constant(0.6, 0.1)": constant_spec(0.6, 0.1),
    "sparse(8, 0.2)": SparseSpec(v=0.2, gamma=8, j_max=10),
}


@pytest.mark.parametrize("L_max", [300.0, 1000.0])
@pytest.mark.parametrize("label", sorted(GRID_SPECS))
def test_gram_grid_matches_shooting_scan(label, L_max):
    spec = GRID_SPECS[label]
    thetas = np.linspace(-math.pi / 2, math.pi / 2, ANGLE_GRID,
                         endpoint=False)
    for E in (0.3, 0.5, 1.0, 1.9, 2.5, 3.0, -2.2, 0.6, 0.0, 2.0):
        grid = _grid_log_ratio(
            *spec.coefficients(int(L_max)), E, thetas, L_max)
        scan = scan_terminal_log_ratio(spec, E, thetas, L_max)
        assert np.argmin(grid) == np.argmin(scan), E
        clear = scan > math.log(1e-6)
        assert np.max(np.abs(grid[clear] - scan[clear])) <= 1e-9, E


def test_gram_grid_subordinate_angle_on_the_grid():
    # free E = lam + 1/lam with lam = sqrt(3): theta* = -atan(lam) = -pi/3
    # is grid point 120, where the quadratic form cancels to rounding level
    lam = math.sqrt(3.0)
    thetas = np.linspace(-math.pi / 2, math.pi / 2, ANGLE_GRID,
                         endpoint=False)
    grid = _grid_log_ratio(*free_laplacian().coefficients(1000),
                           lam + 1.0 / lam, thetas, 1000.0)
    assert not np.any(np.isnan(grid))
    assert np.argmin(grid) == 120


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------

def test_beta_from_synthetic_power_laws():
    rng = np.random.default_rng(7)
    Ls = default_l_grid(1e4, 4)
    for _ in range(20):
        p, q = rng.uniform(0.1, 1.0, 2)
        beta, eta = beta_eta_from_traces(Ls, p * np.log(Ls), q * np.log(Ls))
        assert beta == pytest.approx(p / q, rel=0.02)
        assert eta == pytest.approx((1.0 - beta) / beta, abs=1e-12)


def test_beta_equal_trajectories_is_one():
    Ls = default_l_grid(1e4, 4)
    logs = 0.5 * np.log(Ls)
    beta, eta = beta_eta_from_traces(Ls, logs, logs)
    assert beta == pytest.approx(1.0)
    assert eta == pytest.approx(0.0, abs=1e-12)


def test_fitted_growth_exponent_recovers_slope():
    Ls = default_l_grid(1e4, 4)
    assert fitted_growth_exponent(Ls, 0.37 * np.log(Ls) + 2.0) == pytest.approx(
        0.37, abs=1e-9)


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------

def test_detect_no_subordinate_inside_band():
    res = detect_subordinate(free_laplacian(), 0.0,
                             L_grid=default_l_grid(1e3, 3))
    assert res.classification == "no-subordinate"
    assert res.theta_star is None
    # both norms grow like sqrt(L): ratio bounded below
    terminal = res.ratio_trace[-1][1]
    assert terminal > 1e-2


def test_detect_subordinate_outside_band():
    res = detect_subordinate(free_laplacian(), 3.0,
                             L_grid=default_l_grid(1e3, 3))
    assert res.classification == "pp-like"
    assert res.theta_star is not None
    # the decaying branch is the contracting eigenvector of [[3,-1],[1,0]]:
    # phi(1)/phi(0) = 1/lambda with (phi(0),phi(1)) = (-sin t, cos t) gives
    # tan(theta*) = -lambda
    lam = (3.0 + math.sqrt(5.0)) / 2.0
    assert abs(abs(res.theta_star) - math.atan(lam)) < 1e-6
    # exponential ratio decay over the clean window (before the shooting
    # floor): terminal ratio far below the subordinacy threshold
    assert res.ratio_trace[-1][1] <= 1e-3


def test_beta_proxy_small_outside_band():
    # mildly hyperbolic energy: the decaying solution is representable over
    # the whole grid, so the log-norm ratio proxy for beta collapses
    Ls = np.geomspace(1.0, 100.0, 129)
    res = detect_subordinate(free_laplacian(), 2.03, L_grid=Ls)
    # beta = min over last decade of ln||phi1||_L / ln||phi2||_L
    assert res.beta <= 0.05


def test_detect_rejects_short_grid():
    with pytest.raises(InvalidArgumentError):
        detect_subordinate(free_laplacian(), 3.0, L_grid=[10.0, 20.0, 30.0])


def test_detect_interior_energies_scan():
    # a few generic interior energies: no subordinate solution for the free
    # Laplacian (purely a.c. band)
    for E in (-1.3, 0.7, 1.5):
        res = detect_subordinate(free_laplacian(), E,
                                 L_grid=default_l_grid(1e3, 3))
        assert res.classification == "no-subordinate"
        assert res.regular  # growth exponent ~ 1/2
