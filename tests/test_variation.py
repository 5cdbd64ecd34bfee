"""Correction-matrix factorization, conjugated generators, Neumann layers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobilab.core import Mat2, free_laplacian, residual, single_step
from jacobilab.errors import (
    DivergentSeriesError,
    InsufficientDataError,
    InternalConsistencyError,
    InvalidArgumentError,
)
from jacobilab.randpert import (
    PerturbationModel,
    Realization,
    SiteDistribution,
    sample,
    uniform_over_n,
    zero_distribution,
)
from jacobilab.subordinacy import l_norms, solve_pair
from jacobilab.variation import (
    _reversed_rows,
    conjugated_generators,
    correction_ensemble,
    correction_recursion,
    decay_condition_check,
    diagonal_generator_array,
    k_conjugate,
    n_quarter_site,
    neumann_layers,
    neumann_series,
    nilpotent_generator_array,
    perturbed_solutions,
    perturbed_spec,
    subordinate_generator_array,
)


def random_unimodular(rng):
    a = rng.standard_normal()
    a = a if abs(a) > 0.2 else 1.0
    b, c = rng.standard_normal(2)
    d = (1.0 + b * c) / a
    return Mat2(a, b, c, d)


def zero_realization(n_max):
    return Realization(n_max=n_max, b_tilde=np.zeros(n_max + 1))


# ---------------------------------------------------------------------------
# conjugated generators
# ---------------------------------------------------------------------------

def test_generators_at_identity():
    U, V, W = conjugated_generators(Mat2.identity())
    assert U == Mat2(0.0, 1.0, 0.0, 0.0)
    assert V == Mat2(1.0, 0.0, 0.0, -1.0)
    assert W == Mat2(0.0, 0.0, 0.0, 1.0)


def test_generators_reject_non_unimodular():
    with pytest.raises(InvalidArgumentError):
        conjugated_generators(Mat2(2.0, 0.0, 0.0, 1.0))


def test_generator_identities_random():
    rng = np.random.default_rng(10)
    for _ in range(300):
        T = random_unimodular(rng)
        U, V, W = conjugated_generators(T)
        tol = 1e-12 * max(1.0, T.norm() ** 4)
        assert (U @ U).max_abs() <= tol
        assert (V @ V).sub(Mat2.identity()).max_abs() <= tol
        assert (W @ W).sub(W).max_abs() <= tol
        assert abs(U.trace()) <= tol
        assert abs(V.trace()) <= tol
        assert abs(W.trace() - 1.0) <= tol


def test_generator_norm_bound():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        T = random_unimodular(rng)
        U, _, _ = conjugated_generators(T)
        assert U.norm() <= T.norm() ** 2 * (1.0 + 1e-9)


def test_nilpotent_generator_array_structure():
    s1 = np.array([0.0, 1.0, 0.5])
    s2 = np.array([1.0, 0.0, -0.2])
    u = nilpotent_generator_array(s1, s2)
    assert u.shape == (3, 2, 2)
    for n in range(3):
        m = u[n]
        assert np.allclose(m @ m, 0.0, atol=1e-14)  # nilpotent
        assert abs(np.trace(m)) < 1e-14
    # matches the conjugation through the transfer matrix whose columns are
    # the canonical pair
    spec = free_laplacian()
    E = 0.7
    u_arr = diagonal_generator_array(spec, E, 30)
    from jacobilab.core import transfer_product
    for n in (1, 7, 30):
        T = transfer_product(spec, E, n)
        U, _, _ = conjugated_generators(T)
        assert np.allclose(u_arr[n], U.to_array(), atol=1e-10)


def test_diagonal_generator_requires_unit_a():
    from jacobilab.core import constant_spec
    with pytest.raises(InvalidArgumentError):
        diagonal_generator_array(constant_spec(2.0), 0.5, 10)


# ---------------------------------------------------------------------------
# K-conjugation
# ---------------------------------------------------------------------------

def test_k_conjugate_reduces_to_single_step():
    spec = free_laplacian()
    real = zero_realization(10)
    for n in (1, 5):
        S = k_conjugate(spec, real, 0.5, n)
        assert S.sub(single_step(0.5, 0.0, 1.0, 1.0)).max_abs() < 1e-14


def test_k_conjugate_unimodular_with_a_noise():
    spec = free_laplacian()
    model = PerturbationModel(
        b_dist=uniform_over_n(0.5),
        a_dist=SiteDistribution(kind="uniform", amplitude=0.3, decay=1.0),
        exp_id="kc")
    real = sample(model, 2, 50)
    for n in (1, 9, 50):
        S = k_conjugate(spec, real, 0.5, n)
        assert abs(S.det() - 1.0) < 1e-12


def test_k_transfer_equals_k_times_plain_product():
    spec = free_laplacian()
    model = PerturbationModel(
        b_dist=uniform_over_n(0.5),
        a_dist=SiteDistribution(kind="uniform", amplitude=0.3, decay=1.0),
        exp_id="kt")
    real = sample(model, 5, 40)
    E = 0.8
    pspec = perturbed_spec(spec, real)
    for n in (3, 17, 40):
        # oracle: K(n) (product of perturbed single steps)
        from jacobilab.core import transfer_product
        Tw = transfer_product(pspec, E, n)
        lhs = Mat2.identity()
        for m in range(1, n + 1):
            lhs = k_conjugate(spec, real, E, m) @ lhs
        K = Mat2(1.0, 0.0, 0.0, spec.a_at(n) + real.a_tilde[n])
        rhs = K @ Tw
        assert lhs.sub(rhs).max_abs() <= 1e-10 * max(1.0, rhs.max_abs())


# ---------------------------------------------------------------------------
# correction recursion
# ---------------------------------------------------------------------------

def test_zero_realization_gives_identity():
    states = correction_recursion(free_laplacian(), zero_realization(50),
                                  0.5, 50)
    for st_ in states:
        assert st_.D.sub(Mat2.identity()).max_abs() < 1e-14


def test_single_site_perturbation():
    n_max, m, eps = 40, 7, 0.01
    bt = np.zeros(n_max + 1)
    bt[m] = eps
    real = Realization(n_max=n_max, b_tilde=bt)
    spec = free_laplacian()
    E = 0.5
    states = correction_recursion(spec, real, E, n_max)
    u = Mat2.from_array(diagonal_generator_array(spec, E, n_max)[m])
    expect = Mat2.identity().sub(u.scaled(eps))
    assert states[m].D.sub(expect).max_abs() < 1e-12
    for n in range(m, n_max + 1):  # constant past the single site
        assert states[n].D.sub(expect).max_abs() < 1e-12
    for n in range(0, m):
        assert states[n].D.sub(Mat2.identity()).max_abs() < 1e-14


def test_correction_unimodular_and_dual_path():
    spec = free_laplacian()
    model = PerturbationModel(b_dist=uniform_over_n(), exp_id="cr")
    real = sample(model, 3, 200)
    # internal dual-path check runs at every site; no exception == agreement
    states = correction_recursion(spec, real, 0.5, 200)
    for st_ in states[::20]:
        assert abs(st_.D.det() - 1.0) < 1e-10


def test_correction_factorization_explicit():
    from jacobilab.core import transfer_product
    spec = free_laplacian()
    model = PerturbationModel(b_dist=uniform_over_n(), exp_id="cf")
    real = sample(model, 9, 100)
    E = 1.1
    states = correction_recursion(spec, real, E, 100)
    pspec = perturbed_spec(spec, real)
    for n in (10, 55, 100):
        Tw = transfer_product(pspec, E, n)
        T0 = transfer_product(spec, E, n)
        recon = T0 @ states[n].D
        assert recon.sub(Tw).max_abs() <= 1e-10 * max(1.0, Tw.max_abs())


def test_general_mode_with_a_perturbation():
    spec = free_laplacian()
    model = PerturbationModel(
        b_dist=uniform_over_n(0.5),
        a_dist=SiteDistribution(kind="uniform", amplitude=0.3, decay=1.0),
        exp_id="gm")
    real = sample(model, 1, 100)
    states = correction_recursion(spec, real, 0.5, 100,
                                  mode="general-jacobi-conjugated")
    assert len(states) == 101
    assert abs(states[-1].D.det() - 1.0) < 1e-8


def test_general_mode_agrees_with_diagonal_mode():
    # pure-b perturbation: both modes compute the same D (K = I throughout)
    spec = free_laplacian()
    model = PerturbationModel(b_dist=uniform_over_n(), exp_id="gmd")
    real = sample(model, 4, 80)
    d1 = correction_recursion(spec, real, 0.5, 80)[-1].D
    d2 = correction_recursion(spec, real, 0.5, 80,
                              mode="general-jacobi-conjugated")[-1].D
    assert d1.sub(d2).max_abs() < 1e-9


def test_diagonal_mode_rejects_a_noise():
    spec = free_laplacian()
    model = PerturbationModel(
        b_dist=zero_distribution(),
        a_dist=SiteDistribution(kind="uniform", amplitude=0.2, decay=1.0),
        exp_id="rej")
    real = sample(model, 0, 20)
    with pytest.raises(InvalidArgumentError):
        correction_recursion(spec, real, 0.5, 20)


def test_correction_ensemble_matches_recursion():
    spec = free_laplacian()
    model = PerturbationModel(b_dist=uniform_over_n(), exp_id="ce")
    snaps = correction_ensemble(spec, model, 0.5, [0, 1, 2], [50, 100])
    assert snaps.shape == (3, 2, 2, 2)
    for i, seed in enumerate([0, 1, 2]):
        real = sample(model, seed, 100)
        states = correction_recursion(spec, real, 0.5, 100)
        assert np.allclose(snaps[i, 0], states[50].D.to_array(), atol=1e-10)
        assert np.allclose(snaps[i, 1], states[100].D.to_array(), atol=1e-10)


# ---------------------------------------------------------------------------
# decay condition, N_{1/4}, Neumann layers
# ---------------------------------------------------------------------------

def test_weighted_bound_nondecreasing_f():
    rng = np.random.default_rng(12)
    for _ in range(100):
        f = np.cumsum(rng.random(20)) + 0.5  # positive nondecreasing
        n, m = sorted(rng.choice(20, size=2, replace=False))
        X_n = Mat2(1.0, 0.0, 0.0, float(f[n]))
        X_m_inv = Mat2(1.0, 0.0, 0.0, 1.0 / float(f[m]))
        assert (X_n @ X_m_inv).norm() <= 1.0 + 1e-12


def test_decay_condition_pass_and_fail():
    n_max = 10 ** 4
    u_arr = np.broadcast_to(np.eye(2), (n_max + 1, 2, 2)).copy()
    f_plus = np.ones(n_max + 1)
    good = uniform_over_n().moments_array(2, n_max)        # ~ n^-2
    sums = decay_condition_check(good, u_arr, f_plus)
    assert sums[-1] < sums[-2]
    bad = SiteDistribution(kind="uniform", amplitude=1.0,
                           decay=0.5).moments_array(2, n_max)  # ~ 1/n
    with pytest.raises(DivergentSeriesError):
        decay_condition_check(bad, u_arr, f_plus)


def test_n_quarter_closed_form():
    # var(n) * ||u||_HS^2 = 1/n^2 exactly: tail beyond N is sum_{j>N} j^-2
    n_max = 10 ** 4
    u_arr = np.zeros((n_max + 1, 2, 2))
    u_arr[:, 0, 1] = 1.0  # HS norm 1 per site
    var = np.zeros(n_max + 1)
    var[1:] = 1.0 / np.arange(1, n_max + 1, dtype=float) ** 2
    nq = n_quarter_site(var, u_arr)
    tail = lambda N: float(var[N + 1:].sum())
    assert tail(nq) <= 0.25
    assert nq == 0 or tail(nq - 1) > 0.25  # minimality


def test_neumann_layers_zero_model():
    n_max = 50
    u_arr = np.zeros((n_max + 1, 2, 2))
    u_arr[:, 0, 1] = 1.0
    d, sups = neumann_layers(np.zeros(n_max + 1),
                             _reversed_rows(u_arr, 0, n_max), 0,
                             range(n_max + 1))
    d_minus, d_plus = d[:, :, 0], d[:, :, 1]
    assert np.allclose(d_plus[:, 0], 0.0)
    assert np.allclose(d_plus[:, 1], 1.0)
    assert all(s == 0.0 for s in sups[1:])
    assert np.allclose(d_minus, np.broadcast_to([1.0, 0.0], (n_max + 1, 2)))


def single_branch_layers(b_tilde, u_arr, n_start, K_max, terminal):
    """One amplitude column by the per-branch loop that neumann_layers
    replaced: layers in site order, suffix sums as reversed cumsums, stop
    after K_max layers or the first layer with sup-norm below 1e-12."""
    n_max = len(b_tilde) - 1
    bt = b_tilde[n_start:]
    u = u_arr[n_start:n_max + 1]
    layer = np.zeros((n_max + 1, 2))
    layer[n_start:] = terminal
    total = layer.copy()
    sups = [1.0]
    for _ in range(K_max):
        x, y = layer[n_start:, 0], layer[n_start:, 1]
        layer = np.zeros((n_max + 1, 2))
        for i in range(2):
            w = bt * (u[:, i, 0] * x + u[:, i, 1] * y)
            layer[n_start:n_max, i] = np.cumsum(w[::-1])[::-1][1:]
        total += layer
        sups.append(float(np.max(np.abs(layer))))
        if sups[-1] < 1e-12:
            break
    return total, sups


def assert_columns_match_single_branch(b_tilde, u_arr, n_start, K_max):
    """Both columns bit for bit at every site n_start..n_max, from the
    two-column call and from a one-column call each; returns the layer
    counts of (d-, d+)."""
    sites = range(n_start, len(b_tilde))
    rows = _reversed_rows(u_arr, n_start, len(b_tilde) - 1)
    d, sups = neumann_layers(b_tilde, rows, n_start, sites, K_max)
    ref = [single_branch_layers(b_tilde, u_arr, n_start, K_max, e)
           for e in ((1.0, 0.0), (0.0, 1.0))]
    for col, (total, ref_sups) in enumerate(ref):
        assert np.array_equal(d[:, :, col], total[n_start:])
        # a one-column call is that column alone: same values, same
        # layer count and the column's own per-layer sups
        d_col, sups_col = neumann_layers(b_tilde, rows, n_start, sites,
                                         K_max, columns=(col,))
        assert d_col.shape == (len(sites), 2, 1)
        assert np.array_equal(d_col[:, :, 0], d[:, :, col])
        assert np.array_equal(d_col[:, :, 0], total[n_start:])
        assert sups_col == ref_sups
    assert sups == [max(s[k] for _, s in ref if k < len(s))
                    for k in range(max(len(s) for _, s in ref))]
    return tuple(len(s) - 1 for _, s in ref)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_neumann_layers_columns_match_single_branch_loop(data):
    n_max = data.draw(st.integers(1, 150))
    n_start = data.draw(st.integers(0, n_max))
    K_max = data.draw(st.integers(0, 12))
    scale = data.draw(st.sampled_from([1e-9, 1e-5, 1e-3, 0.05, 0.3]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    b_tilde = scale * rng.uniform(-1.0, 1.0, n_max + 1)
    if data.draw(st.booleans()):
        # a small s1 makes d- contract faster than d+, so the columns tend
        # to stop at different layers
        s1, s2 = rng.standard_normal((2, n_max + 1))
        tilt = data.draw(st.sampled_from([1.0, 1e-2, 1e-4]))
        u_arr = nilpotent_generator_array(tilt * s1, s2)
    else:
        # u = c(n) E12 sends d- to zero at layer 1 and d+ at layer 2
        u_arr = np.zeros((n_max + 1, 2, 2))
        u_arr[:, 0, 1] = rng.standard_normal(n_max + 1)
    assert_columns_match_single_branch(b_tilde, u_arr, n_start, K_max)


def test_neumann_layers_columns_stop_separately():
    n_max = 40
    u_arr = np.zeros((n_max + 1, 2, 2))
    u_arr[:, 0, 1] = 1.0
    b_tilde = np.full(n_max + 1, 0.01)
    assert assert_columns_match_single_branch(b_tilde, u_arr, 0, 12) == (1, 2)
    rng = np.random.default_rng(6)
    u_arr = nilpotent_generator_array(*rng.standard_normal((2, n_max + 1)))
    assert assert_columns_match_single_branch(
        0.1 * b_tilde, u_arr, 0, 12) == (6, 7)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_neumann_layers_at_sites_are_rows_of_the_all_sites_call(data):
    n_max = data.draw(st.integers(1, 150))
    n_start = data.draw(st.integers(1, n_max))
    K_max = data.draw(st.integers(0, 12))
    columns = data.draw(st.sampled_from([(0,), (1,), (0, 1)]))
    scale = data.draw(st.sampled_from([1e-9, 1e-3, 0.05, 0.3]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    b_tilde = scale * rng.uniform(-1.0, 1.0, n_max + 1)
    # u(n) = T(n)^{-1} E12 T(n) for a random unimodular T(n), of which
    # only the row (s1, s2)(n) enters
    s1, s2 = rng.standard_normal((2, n_max + 1))
    u_arr = nilpotent_generator_array(s1, s2)
    inner = st.integers(n_start, n_max)
    sites = data.draw(st.lists(inner, max_size=8)) + [n_start, n_max]
    sites += data.draw(st.lists(st.sampled_from(sites), min_size=1,
                                max_size=3))  # repeated sites
    sites = data.draw(st.permutations(sites))
    rows = _reversed_rows(u_arr, n_start, n_max)
    d_all, sups_all = neumann_layers(b_tilde, rows, n_start,
                                     range(n_start, n_max + 1), K_max,
                                     columns)
    d, sups = neumann_layers(b_tilde, rows, n_start, sites, K_max, columns)
    assert d.shape == (len(sites), 2, len(columns))
    assert np.array_equal(d, d_all[np.array(sites) - n_start])
    assert sups == sups_all


def test_neumann_layers_rejects_rows_of_another_span():
    n_max = 20
    u_arr = nilpotent_generator_array(
        *np.random.default_rng(3).standard_normal((2, n_max + 1)))
    b_tilde = np.full(n_max + 1, 0.01)
    for rows_start, rows_max in ((0, n_max), (2, n_max), (1, n_max - 1)):
        with pytest.raises(InvalidArgumentError, match="rows span"):
            neumann_layers(b_tilde, _reversed_rows(u_arr, rows_start,
                                                   rows_max), 1, [n_max])


def test_neumann_layers_rejects_sites_outside_the_window():
    n_max = 20
    u_arr = nilpotent_generator_array(
        *np.random.default_rng(4).standard_normal((2, n_max + 1)))
    b_tilde = np.full(n_max + 1, 0.01)
    rows = _reversed_rows(u_arr, 5, n_max)
    for site in (4, n_max + 1, -1):
        with pytest.raises(InvalidArgumentError, match=f"site {site} "):
            neumann_layers(b_tilde, rows, 5, [5, site, n_max])


def test_layer_one_is_plain_tail_sum():
    spec = free_laplacian()
    E = 0.5
    n_max = 200
    u_arr = diagonal_generator_array(spec, E, n_max)
    model = PerturbationModel(b_dist=uniform_over_n(), exp_id="l1")
    real = sample(model, 7, n_max)
    # manual layer 1 at a few sites: sum_{j>n} b~(j) u(j) (0,1)^T
    d0 = np.array([0.0, 1.0])
    d, _ = neumann_layers(real.b_tilde, _reversed_rows(u_arr, 0, n_max), 0,
                          range(n_max + 1), K_max=1)
    d_tot = d[:, :, 1]
    for n in (0, 13, 150):
        manual = d0.copy()
        for j in range(n + 1, n_max + 1):
            manual = manual + real.b_tilde[j] * (u_arr[j] @ d0)
        assert np.allclose(d_tot[n], manual, atol=1e-12)


def test_neumann_series_matches_direct_loop():
    spec = free_laplacian()
    E, n_max = 0.5, 5000
    u_arr = diagonal_generator_array(spec, E, n_max)
    model = PerturbationModel(b_dist=uniform_over_n(), exp_id="ns")
    seeds = range(20)
    rep = neumann_series(model, u_arr, lambda n: 1.0, 0, seeds=seeds)
    probe = rep.probe_site
    # per seed: up to 12 plus-branch layers from the probe site, each the
    # suffix sum of ~b u d^k, stopping once |d^k(probe)| < 1e-12
    layer_sq = np.full((len(seeds), 13), np.nan)
    d_vals = []
    for i, s in enumerate(seeds):
        bt = sample(model, s, n_max).b_tilde
        layer = np.zeros((n_max + 1, 2))
        layer[probe:, 1] = 1.0
        total = layer.copy()
        layer_sq[i, 0] = layer[probe] @ layer[probe]
        for k in range(1, 13):
            w = bt[:, None] * np.einsum("nij,nj->ni", u_arr, layer)
            w[:probe] = 0.0
            layer = np.zeros_like(layer)
            layer[:-1] = np.cumsum(w[::-1], axis=0)[::-1][1:]
            layer[:probe] = 0.0
            total += layer
            layer_sq[i, k] = layer[probe] @ layer[probe]
            if math.sqrt(layer_sq[i, k]) < 1e-12:
                break
        d_vals.append(total[rep.checkpoints])
    np.testing.assert_allclose(rep.layer_moments,
                               np.nanmean(layer_sq, axis=0), rtol=1e-12)
    np.testing.assert_allclose(rep.d_median, np.median(d_vals, axis=0),
                               rtol=0.0, atol=1e-12)


def test_neumann_series_contraction():
    spec = free_laplacian()
    E = 0.5
    n_max = 5000
    u_arr = diagonal_generator_array(spec, E, n_max)
    model = PerturbationModel(b_dist=uniform_over_n(), exp_id="ns")
    rep = neumann_series(model, u_arr, lambda n: 1.0, 0, seeds=range(60))
    assert rep.contraction_ok
    assert rep.layer_moments[0] == pytest.approx(1.0)
    # terminal d+ near (0, 1)
    assert abs(rep.d_median[-1, 0]) < 0.1
    assert abs(rep.d_median[-1, 1] - 1.0) < 0.1
    assert rep.tail_variance < 0.25


# ---------------------------------------------------------------------------
# perturbed solutions
# ---------------------------------------------------------------------------

def pair_and_rows(spec, E, theta, n_max):
    """solve_pair's boundary pair and the reversed rows of its generator."""
    phi1, phi2 = solve_pair(*spec.coefficients(n_max), E, theta, n_max)
    u_arr = subordinate_generator_array(phi1, phi2)
    return _reversed_rows(u_arr, 0, n_max), phi1, phi2


def test_perturbed_solutions_zero_model_exact():
    spec = free_laplacian()
    rows, phi1, phi2 = pair_and_rows(spec, 0.5, 0.3, 300)
    psi1, psi2 = perturbed_solutions(spec.coefficients(300), rows,
                                     zero_realization(300), 0.5, phi1, phi2)
    assert np.array_equal(psi1, phi1)
    assert np.array_equal(psi2, phi2)


def test_perturbed_solutions_satisfy_perturbed_recursion():
    spec = free_laplacian()
    model = PerturbationModel(b_dist=uniform_over_n(0.5), exp_id="ps")
    real = sample(model, 11, 400)
    # the constructor verifies the residual at every interior site and
    # raises on failure; reaching here is the assertion
    coefficients = spec.coefficients(400)
    kept = [c.copy() for c in coefficients]
    rows, phi1, phi2 = pair_and_rows(spec, 0.5, 0.1, 400)
    psi1, psi2 = perturbed_solutions(coefficients, rows, real, 0.5,
                                     phi1, phi2)
    # the unperturbed arrays serve every realization, so stay unmodified
    assert all(np.array_equal(c, k) for c, k in zip(coefficients, kept))
    a, b = perturbed_spec(spec, real).coefficients(400)
    scale = float(np.max(np.abs(psi2)))
    for n in (1, 200, 399):
        assert abs(residual(psi2, a, b, 0.5, n)) <= 1e-9 * scale


def test_perturbed_solutions_refuse_a_tilde_and_short_realization():
    # D(n) carries b~ alone: a nonzero a~ is refused up front, before it
    # could fail the residual check; an all-zero a~ changes nothing
    spec = free_laplacian()
    n_max = 50
    rows, phi1, phi2 = pair_and_rows(spec, 0.5, 0.1, n_max)
    a_tilde = np.zeros(n_max + 1)
    zero_a = Realization(n_max=n_max, b_tilde=np.zeros(n_max + 1),
                         a_tilde=a_tilde.copy())
    psi1, psi2 = perturbed_solutions(spec.coefficients(n_max), rows, zero_a,
                                     0.5, phi1, phi2)
    assert np.array_equal(psi1, phi1) and np.array_equal(psi2, phi2)
    a_tilde[5] = 0.01
    real = Realization(n_max=n_max, b_tilde=np.zeros(n_max + 1),
                       a_tilde=a_tilde)
    with pytest.raises(InvalidArgumentError, match="no a~"):
        perturbed_solutions(spec.coefficients(n_max), rows, real, 0.5,
                            phi1, phi2)
    with pytest.raises(InsufficientDataError):
        perturbed_solutions(spec.coefficients(n_max), rows,
                            zero_realization(n_max - 1), 0.5, phi1, phi2)


def test_perturbed_solutions_ratio_near_one_small_noise():
    spec = free_laplacian()
    model = PerturbationModel(
        b_dist=SiteDistribution(kind="uniform", amplitude=0.1, decay=1.5),
        exp_id="psr")
    coefficients = spec.coefficients(500)
    rows, phi1, phi2 = pair_and_rows(spec, 0.5, 0.0, 500)
    terminal = []
    for seed in range(20):
        real = sample(model, seed, 500)
        _, psi2 = perturbed_solutions(coefficients, rows, real, 0.5,
                                      phi1, phi2)
        terminal.append(l_norms(psi2, [400.0])[0] / l_norms(phi2, [400.0])[0])
    med = float(np.median(terminal))
    assert 0.9 <= med <= 1.1
