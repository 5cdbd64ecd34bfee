"""Singular-spectrum stability: r-weights, membership scan, ratio traces."""

import math

import numpy as np
import pytest

from jacobilab import harness, singular, variation
from jacobilab.core import OperatorSpec
from jacobilab.errors import InvalidArgumentError
from jacobilab.randpert import (
    PerturbationModel,
    SiteDistribution,
    sample,
    uniform_over_n,
    zero_distribution,
)
from jacobilab.singular import (
    RATIO_BAND,
    default_eta_grid,
    lambda_membership,
    r_sequence,
    stability_experiment,
    terminal_ratio_verdict,
)
from jacobilab.sparse import SparseSpec
from jacobilab.subordinacy import detect_subordinate, l_norms, solve_pair
from jacobilab.variation import (
    _reversed_rows,
    neumann_layers,
    subordinate_generator_array,
)

SPARSE = SparseSpec(v=0.2, gamma=8, j_max=10)
E_TEST = 0.6


def synthetic_pair(n_max, vals1, vals2):
    return (np.asarray(vals1, dtype=float), np.asarray(vals2, dtype=float))


# ---------------------------------------------------------------------------
# r_sequence
# ---------------------------------------------------------------------------

def test_r_sequence_trivial():
    n_max = 20
    phi1, phi2 = synthetic_pair(n_max, np.zeros(n_max + 1),
                                np.ones(n_max + 1))
    r = np.exp(r_sequence(phi1, phi2, 1.0, n_max))
    assert r[0] == 0.0
    assert np.allclose(r[1:], 1.0)


def test_r_sequence_synthetic_powers():
    n_max = 100
    n = np.arange(n_max + 1, dtype=float)
    n[0] = 1.0
    p, q, et = 0.3, 0.4, 1.2
    phi1, phi2 = synthetic_pair(n_max, n ** (-p), n ** q)
    r = np.exp(r_sequence(phi1, phi2, et, n_max))
    expect = n ** (2 * et - 4 * p) + n ** (4 * q)
    assert np.allclose(r[1:], expect[1:], rtol=1e-12)


def test_r_sequence_monotone_in_eta_tilde():
    n_max = 50
    rng = np.random.default_rng(13)
    phi1, phi2 = synthetic_pair(n_max, rng.standard_normal(n_max + 1),
                                rng.standard_normal(n_max + 1))
    r_lo = r_sequence(phi1, phi2, 0.5, n_max)
    r_hi = r_sequence(phi1, phi2, 1.5, n_max)
    assert np.all(r_hi[2:] >= r_lo[2:])  # n^{2 eta~} grows with eta~ for n>1


def test_r_sequence_bit_stable():
    n_max = 30
    rng = np.random.default_rng(14)
    v1, v2 = rng.standard_normal(n_max + 1), rng.standard_normal(n_max + 1)
    a = r_sequence(*synthetic_pair(n_max, v1, v2), 0.7, n_max)
    b = r_sequence(*synthetic_pair(n_max, v1, v2), 0.7, n_max)
    assert np.array_equal(a, b)


def test_r_sequence_validation():
    n_max = 10
    phi1, phi2 = synthetic_pair(n_max, np.ones(n_max + 1),
                                np.ones(n_max + 1))
    with pytest.raises(InvalidArgumentError):
        r_sequence(phi1, phi2, 0.0, n_max)
    with pytest.raises(InvalidArgumentError):
        r_sequence(phi1, phi2, 1.0, n_max + 1)


# ---------------------------------------------------------------------------
# lambda membership
# ---------------------------------------------------------------------------

def test_default_eta_grid_range():
    g = default_eta_grid(1.0)
    assert len(g) == 16
    assert g[0] == pytest.approx(1.01)
    assert g[-1] == pytest.approx(3.0)
    assert np.all(np.diff(g) > 0)


def test_lambda_membership_zero_model():
    n_max = 500
    phi1, phi2 = solve_pair(*SPARSE.to_operator_spec().coefficients(n_max),
                            E_TEST, 0.2, n_max)
    model = PerturbationModel(b_dist=zero_distribution())
    member, et = lambda_membership(phi1, phi2, 1.0, model)
    assert member and et > 1.0


def test_lambda_membership_convergent_vs_divergent():
    n_max = 2000
    spec = SPARSE.to_operator_spec()
    res = detect_subordinate(spec, E_TEST,
                             L_grid=np.geomspace(10.0, float(n_max - 2), 100))
    theta = res.theta_best
    phi1, phi2 = solve_pair(*spec.coefficients(n_max), E_TEST, theta, n_max)
    eta = res.eta if res.eta is not None else 1.0
    fast = PerturbationModel(b_dist=SiteDistribution(
        kind="uniform", amplitude=1.0, decay=4.0))
    member, et = lambda_membership(phi1, phi2, eta, fast)
    assert member and et > eta
    slow = PerturbationModel(b_dist=SiteDistribution(
        kind="uniform", amplitude=1.0, decay=0.1))
    member2, _ = lambda_membership(phi1, phi2, eta, slow)
    assert not member2


# phi1 = n^-p1, phi2 = n^q at 3,000 sites, eta = 150, b~ ~ X/n: n^(2 eta~)
# overflows a double from n = 11 on, and with p1 = 80 phi1^4 underflows to
# 0, so linear-scale weights read inf or 0 * inf = nan
@pytest.mark.parametrize("p1, q, member", [
    (20.0, 0.0, False),  # sum grows like n^218
    (80.0, 1.0, False),  # sum grows like n^2
    (80.0, 0.0, True),   # terms n^-22 + n^-2
])
def test_lambda_membership_large_eta_tilde(p1, q, member):
    n_max = 3000
    n = np.arange(n_max + 1, dtype=float)
    n[0] = 1.0
    model = PerturbationModel(b_dist=uniform_over_n(1.0, 1.0))
    got = lambda_membership(n ** -p1, n ** q, 150.0, model)
    assert got == (member, pytest.approx(150.01))


def test_lambda_sum_monotone_in_eta_tilde():
    n_max = 1000
    spec = SPARSE.to_operator_spec()
    phi1, phi2 = solve_pair(*spec.coefficients(n_max), E_TEST, 0.3, n_max)
    model = PerturbationModel(b_dist=uniform_over_n())
    b2 = model.b_dist.moments_array(2, n_max)
    lo = float((np.exp(r_sequence(phi1, phi2, 1.1, n_max)) * b2).sum())
    hi = float((np.exp(r_sequence(phi1, phi2, 1.9, n_max)) * b2).sum())
    assert lo <= hi


# ---------------------------------------------------------------------------
# stability experiment
# ---------------------------------------------------------------------------

def test_stability_zero_model_ratios_exactly_one():
    model = PerturbationModel(b_dist=zero_distribution())
    rep = stability_experiment(SPARSE.to_operator_spec(), model, E_TEST,
                               seeds=range(3))
    assert all(r == 1.0 for _, r in rep.ratio_psi1)
    assert all(r == 1.0 for _, r in rep.ratio_psi2)
    assert rep.lambda_member
    assert terminal_ratio_verdict(rep)


def test_stability_sparse_configuration():
    model = PerturbationModel(b_dist=SiteDistribution(
        kind="uniform", amplitude=1.0, decay=2.0), exp_id="stab")
    rep = stability_experiment(SPARSE.to_operator_spec(), model, E_TEST,
                               seeds=range(8))
    assert rep.beta > 0.0
    assert rep.eta == pytest.approx((1.0 - rep.beta) / rep.beta, abs=1e-12)
    assert rep.lambda_member and rep.eta_tilde > rep.eta
    assert terminal_ratio_verdict(rep)
    lo, hi = RATIO_BAND
    assert lo <= rep.ratio_psi1[-1][1] <= hi
    assert rep.sandwich_ok
    assert rep.n_seeds == 8


@pytest.mark.parametrize("n_seeds", [2, 5])
def test_stability_builds_the_coefficients_twice(monkeypatch, n_seeds):
    # one build for detect_subordinate and one that serves solve_pair and
    # the seed loop, whatever the number of seeds
    builds = []
    coefficients = OperatorSpec.coefficients

    def counted(self, n_max):
        builds.append(n_max)
        return coefficients(self, n_max)

    monkeypatch.setattr(OperatorSpec, "coefficients", counted)
    model = PerturbationModel(b_dist=SiteDistribution(
        kind="uniform", amplitude=1.0, decay=2.0), exp_id="stab")
    stability_experiment(SPARSE.to_operator_spec(), model, E_TEST,
                         seeds=range(n_seeds))
    assert len(builds) == 2


# a 4-seed singular-stability cell on a sparse spec with 14 bumps
SINGULAR_CELL = {
    "experiment": "singular-stability",
    "spec": {"type": "sparse", "v": 0.2, "gamma": 8, "j_max": 14},
    "E_grid": [0.6], "seeds": {"base": 0, "count": 4},
    "grids": {"L_max": 1e3}, "workers": 1}


def test_stability_builds_generator_rows_once_per_cell(monkeypatch):
    # u and its reversed rows depend on the unperturbed pair alone, so
    # every seed of the cell reads the same rows
    calls = {"subordinate_generator_array": 0, "_reversed_rows": 0}
    for name in calls:
        def spy(*args, _real=getattr(variation, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        # both bindings, so a build inside perturbed_solutions counts too
        for module in (singular, variation):
            monkeypatch.setattr(module, name, spy)
    rows_seen = []
    perturbed = singular.perturbed_solutions

    def perturbed_spy(coefficients, rows, *args):
        rows_seen.append(rows)
        return perturbed(coefficients, rows, *args)

    monkeypatch.setattr(singular, "perturbed_solutions", perturbed_spy)
    report = harness.run(SINGULAR_CELL)
    assert report.failures == [] and len(report.rows) == 1
    assert calls == {"subordinate_generator_array": 1, "_reversed_rows": 1}
    assert len(rows_seen) == 4
    assert all(rows is rows_seen[0] for rows in rows_seen)


def test_stability_refuses_without_candidate():
    # strongly hyperbolic energy on the free Laplacian: beta proxy -> ~1
    # here, but inside the band there is no decaying branch at all
    from jacobilab.core import free_laplacian
    model = PerturbationModel(b_dist=uniform_over_n())
    rep = stability_experiment(free_laplacian(), model, 0.5, seeds=range(2))
    # free Laplacian: beta = 1 (no subordinate solution, both norms equal
    # order); experiment still runs with the minimizing angle
    assert rep.beta > 0.0


# ---------------------------------------------------------------------------
# summation-by-parts bound chain
# ---------------------------------------------------------------------------

def test_summation_by_parts_bound_chain():
    """||d2 phi2||_L / ||phi1||_L <= first-term + D eps + D eps sqrt(sum).

    D is the fitted constant of ||phi2||_L <= D L^eta ||phi1||_L over the
    grid; eps is the global sup of |d2(n)| n^{eta~}. With those choices the
    chain is a finite-scale theorem (summation by parts plus the two
    envelope bounds), so it must hold at every grid point.
    """
    n_max = 2000
    spec = SPARSE.to_operator_spec()
    res = detect_subordinate(spec, E_TEST,
                             L_grid=np.geomspace(10.0, float(n_max - 2), 100))
    theta = res.theta_best
    beta = max(res.beta, 1e-3)
    eta = (1.0 - beta) / beta
    eta_tilde = eta + 0.75
    phi1, phi2 = solve_pair(*spec.coefficients(n_max), E_TEST, theta, n_max)
    u_arr = subordinate_generator_array(phi1, phi2)
    model = PerturbationModel(b_dist=SiteDistribution(
        kind="uniform", amplitude=1.0, decay=2.0), exp_id="sbp")
    real = sample(model, 17, n_max)
    d, _ = neumann_layers(real.b_tilde, _reversed_rows(u_arr, 0, n_max), 0,
                          range(n_max + 1))
    d_minus = d[:, :, 0]
    d2 = d_minus[:, 1]

    prod = d2 * phi2
    L_grid = np.geomspace(10.0, float(n_max - 2), 60)
    n = np.arange(1, n_max + 1, dtype=float)
    eps = float(np.max(np.abs(d2[1:]) * n ** eta_tilde))
    norm1, norm2, norm_prod = (l_norms(f, L_grid) for f in (phi1, phi2, prod))
    D = float(np.max(norm2 / (norm1 * L_grid ** eta)))
    first = norm_prod[0]  # at the smallest L
    for L, n1, n_prod in zip(L_grid, norm1, norm_prod):
        lhs = n_prod / n1
        tail_sum = float(np.sum(n[n <= L] ** (-1.0 - 2.0 *
                                              (eta_tilde - eta))))
        rhs = (first / n1 + D * eps + D * eps * math.sqrt(tail_sum))
        assert lhs <= rhs * (1.0 + 1e-9)
