"""Correction-matrix factorization, conjugated generators, Neumann layers."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jacobilab import variation
from jacobilab.core import (
    constant_spec,
    free_laplacian,
    residual,
    solve_forward,
)
from jacobilab.errors import (
    DivergentSeriesError,
    InsufficientDataError,
    InvalidArgumentError,
    UnsupportedModelError,
)
from jacobilab.randpert import PerturbationModel, SiteDistribution, sample
from jacobilab.singular import stability_experiment
from jacobilab.subordinacy import default_l_grid, l_norms, solve_pair
from jacobilab.variation import (
    BLOCK,
    LAYER_CAP,
    LAYER_STOP,
    _advance_layer,
    correction_ensemble,
    lowest_site_read,
    neumann_layers,
    perturbed_solutions,
    subordinate_generator_array,
)
from oracles import (
    a_tilde_draw,
    advance_layer,
    conjugated_generators,
    correction_recursion,
    decay_condition_check,
    diagonal_generator_array,
    k_conjugate,
    n_quarter_site,
    neumann_series,
    nilpotent_generator_array,
    perturbed_spec,
    reversed_rows,
    single_step,
    spectral_norm,
    tail_product,
    transfer_product,
)

ZERO = SiteDistribution(kind="zero", amplitude=0.0, decay=0.0)
UNIFORM = SiteDistribution(kind="uniform", amplitude=1.0, decay=1.0)
HALF_UNIFORM = SiteDistribution(kind="uniform", amplitude=0.5, decay=1.0)
A_NOISE = SiteDistribution(kind="uniform", amplitude=0.3, decay=1.0)


def random_unimodular(rng):
    a = rng.standard_normal()
    a = a if abs(a) > 0.2 else 1.0
    b, c = rng.standard_normal(2)
    d = (1.0 + b * c) / a
    return np.array([[a, b], [c, d]])


def max_abs(X):
    return float(np.abs(X).max())


# ---------------------------------------------------------------------------
# conjugated generators
# ---------------------------------------------------------------------------

def test_generators_at_identity():
    U, V, W = conjugated_generators(np.eye(2))
    assert np.array_equal(U, [[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(V, [[1.0, 0.0], [0.0, -1.0]])
    assert np.array_equal(W, [[0.0, 0.0], [0.0, 1.0]])


def test_generators_reject_non_unimodular():
    with pytest.raises(InvalidArgumentError):
        conjugated_generators(np.diag([2.0, 1.0]))


def test_generator_identities_random():
    rng = np.random.default_rng(10)
    for _ in range(300):
        T = random_unimodular(rng)
        U, V, W = conjugated_generators(T)
        tol = 1e-12 * max(1.0, spectral_norm(T) ** 4)
        assert max_abs(U @ U) <= tol
        assert max_abs(V @ V - np.eye(2)) <= tol
        assert max_abs(W @ W - W) <= tol
        assert abs(np.trace(U)) <= tol
        assert abs(np.trace(V)) <= tol
        assert abs(np.trace(W) - 1.0) <= tol


def test_generator_norm_bound():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        T = random_unimodular(rng)
        U, _, _ = conjugated_generators(T)
        assert spectral_norm(U) <= spectral_norm(T) ** 2 * (1.0 + 1e-9)


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
    for n in (1, 7, 30):
        T = transfer_product(spec, E, n)
        U, _, _ = conjugated_generators(T)
        assert np.allclose(u_arr[n], U, atol=1e-10)


def test_diagonal_generator_requires_unit_a():
    with pytest.raises(InvalidArgumentError):
        diagonal_generator_array(constant_spec(2.0, 0.0), 0.5, 10)
    with pytest.raises(InvalidArgumentError, match="coefficients == 1"):
        correction_ensemble(constant_spec(2.0, 0.0), PerturbationModel(
            b_dist=UNIFORM), 0.5, [0], [10])


# ---------------------------------------------------------------------------
# K-conjugation
# ---------------------------------------------------------------------------

def test_k_conjugate_reduces_to_single_step():
    spec = free_laplacian()
    for n in (1, 5):
        S = k_conjugate(spec, np.zeros(11), 0.5, n)
        assert max_abs(S - single_step(0.5, 0.0, 1.0, 1.0)) < 1e-14


def test_k_conjugate_unimodular_with_a_noise():
    spec = free_laplacian()
    model = PerturbationModel(b_dist=HALF_UNIFORM, exp_id="kc")
    bt, at = sample(model, 2, 50), a_tilde_draw(A_NOISE, "kc", 2, 50)
    for n in (1, 9, 50):
        S = k_conjugate(spec, bt, 0.5, n, at)
        assert abs(np.linalg.det(S) - 1.0) < 1e-12


def test_k_transfer_equals_k_times_plain_product():
    spec = free_laplacian()
    model = PerturbationModel(b_dist=HALF_UNIFORM, exp_id="kt")
    bt, at = sample(model, 5, 40), a_tilde_draw(A_NOISE, "kt", 5, 40)
    E = 0.8
    pspec = perturbed_spec(spec, bt, at)
    for n in (3, 17, 40):
        # oracle: K(n) (product of perturbed single steps)
        Tw = transfer_product(pspec, E, n)
        lhs = np.eye(2)
        for m in range(1, n + 1):
            lhs = k_conjugate(spec, bt, E, m, at) @ lhs
        K = np.diag([1.0, spec.a_at(n) + at[n]])
        rhs = K @ Tw
        assert max_abs(lhs - rhs) <= 1e-10 * max(1.0, max_abs(rhs))


# ---------------------------------------------------------------------------
# correction recursion
# ---------------------------------------------------------------------------

def test_zero_realization_gives_identity():
    states = correction_recursion(free_laplacian(), np.zeros(51), 0.5, 50)
    for st_ in states:
        assert max_abs(st_.D - np.eye(2)) < 1e-14


def test_single_site_perturbation():
    n_max, m, eps = 40, 7, 0.01
    bt = np.zeros(n_max + 1)
    bt[m] = eps
    spec = free_laplacian()
    E = 0.5
    states = correction_recursion(spec, bt, E, n_max)
    u = diagonal_generator_array(spec, E, n_max)[m]
    expect = np.eye(2) - eps * u
    assert max_abs(states[m].D - expect) < 1e-12
    for n in range(m, n_max + 1):  # constant past the single site
        assert max_abs(states[n].D - expect) < 1e-12
    for n in range(0, m):
        assert max_abs(states[n].D - np.eye(2)) < 1e-14


def test_correction_unimodular_and_dual_path():
    spec = free_laplacian()
    model = PerturbationModel(b_dist=UNIFORM, exp_id="cr")
    bt = sample(model, 3, 200)
    # internal dual-path check runs at every site; no exception == agreement
    states = correction_recursion(spec, bt, 0.5, 200)
    for st_ in states[::20]:
        assert abs(np.linalg.det(st_.D) - 1.0) < 1e-10


def test_correction_factorization_explicit():
    spec = free_laplacian()
    model = PerturbationModel(b_dist=UNIFORM, exp_id="cf")
    bt = sample(model, 9, 100)
    E = 1.1
    states = correction_recursion(spec, bt, E, 100)
    pspec = perturbed_spec(spec, bt)
    for n in (10, 55, 100):
        Tw = transfer_product(pspec, E, n)
        T0 = transfer_product(spec, E, n)
        recon = T0 @ states[n].D
        assert max_abs(recon - Tw) <= 1e-10 * max(1.0, max_abs(Tw))


def test_general_mode_with_a_perturbation():
    spec = free_laplacian()
    model = PerturbationModel(b_dist=HALF_UNIFORM, exp_id="gm")
    states = correction_recursion(spec, sample(model, 1, 100), 0.5, 100,
                                  mode="general-jacobi-conjugated",
                                  a_tilde=a_tilde_draw(A_NOISE, "gm", 1, 100))
    assert len(states) == 101
    assert abs(np.linalg.det(states[-1].D) - 1.0) < 1e-8


def test_general_mode_agrees_with_diagonal_mode():
    # pure-b perturbation: both modes compute the same D (K = I throughout)
    spec = free_laplacian()
    model = PerturbationModel(b_dist=UNIFORM, exp_id="gmd")
    bt = sample(model, 4, 80)
    d1 = correction_recursion(spec, bt, 0.5, 80)[-1].D
    d2 = correction_recursion(spec, bt, 0.5, 80,
                              mode="general-jacobi-conjugated")[-1].D
    assert max_abs(d1 - d2) < 1e-9


def test_diagonal_mode_rejects_a_noise():
    spec = free_laplacian()
    at = a_tilde_draw(SiteDistribution(kind="uniform", amplitude=0.2,
                                       decay=1.0), "rej", 0, 20)
    with pytest.raises(InvalidArgumentError):
        correction_recursion(spec, np.zeros(21), 0.5, 20, a_tilde=at)


def test_correction_ensemble_matches_recursion():
    spec = free_laplacian()
    model = PerturbationModel(b_dist=UNIFORM, exp_id="ce")
    snaps = correction_ensemble(spec, model, 0.5, [0, 1, 2], [50, 100])
    assert snaps.shape == (3, 2, 2, 2)
    for i, seed in enumerate([0, 1, 2]):
        bt = sample(model, seed, 100)
        states = correction_recursion(spec, bt, 0.5, 100)
        assert np.allclose(snaps[i, 0], states[50].D, atol=1e-10)
        assert np.allclose(snaps[i, 1], states[100].D, atol=1e-10)
    # checkpoints are sorted; site 0 holds D = I, a repeated site repeats D
    again = correction_ensemble(spec, model, 0.5, [1], [100, 0, 50, 50])
    assert np.array_equal(again[0, 0], np.eye(2))
    assert np.array_equal(again[0, 1], again[0, 2])
    assert np.allclose(again[0, 3], snaps[1, 1], atol=1e-10)


# ---------------------------------------------------------------------------
# decay condition, N_{1/4}, Neumann layers
# ---------------------------------------------------------------------------

def test_weighted_bound_nondecreasing_f():
    rng = np.random.default_rng(12)
    for _ in range(100):
        f = np.cumsum(rng.random(20)) + 0.5  # positive nondecreasing
        n, m = sorted(rng.choice(20, size=2, replace=False))
        X_n = np.diag([1.0, float(f[n])])
        X_m_inv = np.diag([1.0, 1.0 / float(f[m])])
        assert spectral_norm(X_n @ X_m_inv) <= 1.0 + 1e-12


def test_decay_condition_pass_and_fail():
    n_max = 10 ** 4
    u_arr = np.broadcast_to(np.eye(2), (n_max + 1, 2, 2)).copy()
    f_plus = np.ones(n_max + 1)
    good = UNIFORM.moments_array(2, n_max)        # ~ n^-2
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
    # phi1 = 0, phi2 = 1: u = E12 at every site
    rows = subordinate_generator_array(np.zeros(n_max + 1),
                                       np.ones(n_max + 1), 0, n_max)
    d, sups = neumann_layers(np.zeros(n_max + 1), rows, 0, range(n_max + 1))
    d_minus, d_plus = d[:, :, 0], d[:, :, 1]
    assert np.allclose(d_plus[:, 0], 0.0)
    assert np.allclose(d_plus[:, 1], 1.0)
    assert all(s == 0.0 for s in sups[1:])
    assert np.allclose(d_minus, np.broadcast_to([1.0, 0.0], (n_max + 1, 2)))


def single_branch_layers(b_tilde, phi1, phi2, n_start, terminal):
    """One amplitude column by a per-branch loop with the factored step of
    neumann_layers: u = (phi2, -phi1)^T (phi1, phi2), so ~b u d^k is
    (~b phi2, -~b phi1) q with q = phi1 x + phi2 y. Layers in site order,
    suffix sums as reversed cumsums, stop after the first layer with
    sup-norm below LAYER_STOP or after LAYER_CAP layers; the column
    diverged if its last sup is not below LAYER_STOP."""
    n_max = len(b_tilde) - 1
    bt = b_tilde[n_start:]
    p1, p2 = phi1[n_start:n_max + 1], phi2[n_start:n_max + 1]
    layer = np.zeros((n_max + 1, 2))
    layer[n_start:] = terminal
    total = layer.copy()
    sups = [1.0]
    for _ in range(LAYER_CAP):
        x, y = layer[n_start:, 0], layer[n_start:, 1]
        q = p1 * x + p2 * y
        layer = np.zeros((n_max + 1, 2))
        for i, v in enumerate((bt * p2, -(bt * p1))):
            layer[n_start:n_max, i] = np.cumsum((v * q)[::-1])[::-1][1:]
        total += layer
        sups.append(float(np.max(np.abs(layer))))
        if sups[-1] < LAYER_STOP:
            break
    return total, sups


def assert_columns_match_single_branch(b_tilde, phi1, phi2, n_start):
    """Both columns bit for bit at every site n_start..n_max, from the
    two-column call and from a one-column call each, or
    DivergentSeriesError from every call that sums a column the loop
    leaves at or above LAYER_STOP; returns the layer counts of (d-, d+),
    or None if a column diverged."""
    sites = range(n_start, len(b_tilde))
    rows = subordinate_generator_array(phi1, phi2, n_start, len(b_tilde) - 1)
    ref = [single_branch_layers(b_tilde, phi1, phi2, n_start, e)
           for e in ((1.0, 0.0), (0.0, 1.0))]
    for col, (total, ref_sups) in enumerate(ref):
        # a one-column call is that column alone: same values, same
        # layer count and the column's own per-layer sups
        if not ref_sups[-1] < LAYER_STOP:
            with pytest.raises(DivergentSeriesError, match="did not converge"):
                neumann_layers(b_tilde, rows, n_start, sites, columns=(col,))
            continue
        d_col, sups_col = neumann_layers(b_tilde, rows, n_start, sites,
                                         columns=(col,))
        assert d_col.shape == (len(sites), 2, 1)
        assert np.array_equal(d_col[:, :, 0], total[n_start:])
        assert sups_col == ref_sups
    if any(not s[-1] < LAYER_STOP for _, s in ref):
        with pytest.raises(DivergentSeriesError, match="did not converge"):
            neumann_layers(b_tilde, rows, n_start, sites)
        return None
    d, sups = neumann_layers(b_tilde, rows, n_start, sites)
    for col, (total, _) in enumerate(ref):
        assert np.array_equal(d[:, :, col], total[n_start:])
    assert sups == [max(s[k] for _, s in ref if k < len(s))
                    for k in range(max(len(s) for _, s in ref))]
    return tuple(len(s) - 1 for _, s in ref)


def draw_block(data):
    """A block length for the layer step's products: short ones put block
    edges inside the 1..150 sites the tests draw."""
    return mock.patch.object(variation, "BLOCK",
                             data.draw(st.sampled_from([1, 2, 7, 64, BLOCK])))


def draw_pair(data, rng, n_max):
    """A boundary pair (phi1, phi2) on sites 0..n_max: a random one,
    possibly tilted, or phi1 = 0, for which u = phi2^2 E12."""
    if data.draw(st.booleans()):
        # a small phi1 makes d- contract faster than d+, so the columns
        # tend to stop at different layers
        phi1, phi2 = rng.standard_normal((2, n_max + 1))
        return data.draw(st.sampled_from([1.0, 1e-2, 1e-4])) * phi1, phi2
    # u = phi2^2 E12 sends d- to zero at layer 1 and d+ at layer 2
    return np.zeros(n_max + 1), rng.standard_normal(n_max + 1)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_neumann_layers_columns_match_single_branch_loop(data):
    n_max = data.draw(st.integers(1, 150))
    n_start = data.draw(st.integers(0, n_max))
    scale = data.draw(st.sampled_from([1e-9, 1e-5, 1e-3, 0.05, 0.3]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    b_tilde = scale * rng.uniform(-1.0, 1.0, n_max + 1)
    phi1, phi2 = draw_pair(data, rng, n_max)
    with draw_block(data):
        assert_columns_match_single_branch(b_tilde, phi1, phi2, n_start)


def test_neumann_layers_columns_stop_separately():
    n_max = 40
    b_tilde = np.full(n_max + 1, 0.01)
    # phi1 = 0, phi2 = 1: u = E12
    assert assert_columns_match_single_branch(
        b_tilde, np.zeros(n_max + 1), np.ones(n_max + 1), 0) == (1, 2)
    rng = np.random.default_rng(6)
    assert assert_columns_match_single_branch(
        0.1 * b_tilde, *rng.standard_normal((2, n_max + 1)), 0) == (6, 7)
    # on 121 sites with b~ up to 2, d- is still at 2.2e-11 at the cap of
    # 100 layers while d+ is at 5.5e-13: d+ alone is summed, d- and the
    # pair raise
    n_max = 120
    rng = np.random.default_rng(12)
    phi1, phi2 = rng.standard_normal((2, n_max + 1))
    b_tilde = 2.0 * rng.uniform(-1.0, 1.0, n_max + 1)
    last = [single_branch_layers(b_tilde, phi1, phi2, 0, e)[1][-1]
            for e in ((1.0, 0.0), (0.0, 1.0))]
    assert last[0] >= LAYER_STOP > last[1]
    assert assert_columns_match_single_branch(b_tilde, phi1, phi2, 0) is None


def unfactored_layers(b_tilde, u_arr, n_start, terminal):
    """One amplitude column through the full 2x2 generator array, by the
    oracle's layer step, with the stop rule of neumann_layers; returns
    the sums at sites n_start..n_max and the per-layer sups."""
    bt = b_tilde[n_start:][::-1].copy()
    u = reversed_rows(u_arr, n_start, len(b_tilde) - 1)
    layer = np.zeros((1, 2, len(bt)))
    layer[0] = np.asarray(terminal)[:, None]
    total = layer[0].copy()
    sups = [1.0]
    for _ in range(LAYER_CAP):
        advance_layer(bt, u, layer)
        total += layer[0]
        sups.append(float(np.max(np.abs(layer))))
        if sups[-1] < LAYER_STOP:
            break
    return total[:, ::-1].T, sups


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_neumann_layers_match_the_unfactored_generator(data):
    # the factored step rounds differently from the 2x2 one, so the sums
    # agree to roundoff, and a stop decision may flip only for a sup
    # within roundoff of LAYER_STOP
    n_max = data.draw(st.integers(1, 150))
    n_start = data.draw(st.integers(0, n_max))
    columns = data.draw(st.sampled_from([(0,), (1,), (0, 1)]))
    scale = data.draw(st.sampled_from([1e-9, 1e-5, 1e-3, 0.05, 0.3]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    b_tilde = scale * rng.uniform(-1.0, 1.0, n_max + 1)
    phi1, phi2 = draw_pair(data, rng, n_max)
    u_arr = nilpotent_generator_array(phi1, phi2)
    ref = [unfactored_layers(b_tilde, u_arr, n_start, np.eye(2)[c])
           for c in columns]
    assume(all(abs(sup / LAYER_STOP - 1.0) > 1e-6
               for _, sups in ref for sup in sups))
    rows = subordinate_generator_array(phi1, phi2, n_start, n_max)
    sites = range(n_start, n_max + 1)
    with draw_block(data):
        if any(not sups[-1] < LAYER_STOP for _, sups in ref):
            with pytest.raises(DivergentSeriesError, match="did not converge"):
                neumann_layers(b_tilde, rows, n_start, sites, columns)
            return
        d, sups = neumann_layers(b_tilde, rows, n_start, sites, columns)
        one = [neumann_layers(b_tilde, rows, n_start, sites, (c,))
               for c in columns]
    assert len(sups) == max(len(s) for _, s in ref)
    for c, ((total, ref_sups), (d_col, sups_col)) in enumerate(zip(ref, one)):
        assert len(sups_col) == len(ref_sups)
        tol = 1e-12 * max(1.0, float(np.max(np.abs(total))))
        assert float(np.max(np.abs(d[:, :, c] - total))) <= tol
        assert np.array_equal(d_col[:, :, 0], d[:, :, c])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_neumann_layers_at_sites_are_rows_of_the_all_sites_call(data):
    n_max = data.draw(st.integers(1, 150))
    n_start = data.draw(st.integers(1, n_max))
    columns = data.draw(st.sampled_from([(0,), (1,), (0, 1)]))
    scale = data.draw(st.sampled_from([1e-9, 1e-3, 0.05, 0.3]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    b_tilde = scale * rng.uniform(-1.0, 1.0, n_max + 1)
    # u(n) = T(n)^{-1} E12 T(n) for a random unimodular T(n), of which
    # only the row (phi1, phi2)(n) enters
    phi1, phi2 = rng.standard_normal((2, n_max + 1))
    inner = st.integers(n_start, n_max)
    sites = data.draw(st.lists(inner, max_size=8)) + [n_start, n_max]
    sites += data.draw(st.lists(st.sampled_from(sites), min_size=1,
                                max_size=3))  # repeated sites
    sites = data.draw(st.permutations(sites))
    rows = subordinate_generator_array(phi1, phi2, n_start, n_max)
    terminals = ((1.0, 0.0), (0.0, 1.0))
    if any(not single_branch_layers(b_tilde, phi1, phi2, n_start,
                                    terminals[c])[1][-1] < LAYER_STOP
           for c in columns):
        for at in (range(n_start, n_max + 1), sites):
            with pytest.raises(DivergentSeriesError, match="did not converge"):
                neumann_layers(b_tilde, rows, n_start, at, columns)
        return
    d_all, sups_all = neumann_layers(b_tilde, rows, n_start,
                                     range(n_start, n_max + 1), columns)
    with draw_block(data):
        d, sups = neumann_layers(b_tilde, rows, n_start, sites, columns)
    assert d.shape == (len(sites), 2, len(columns))
    assert np.array_equal(d, d_all[np.array(sites) - n_start])
    assert sups == sups_all


def draw_segments(data):
    """A floor for the segment breaks of neumann_layers: low ones cut the
    1..150 sites the tests draw into segments of a few sites."""
    return mock.patch.object(variation, "SEGMENT_MIN",
                             data.draw(st.sampled_from([1, 2, 7, 64])))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_segmented_sums_are_the_tail_product(data):
    # D(lo) = M(lo, hi) D(hi): wherever the full-span loop stops, the
    # segments stop too, and both are the one-site product to roundoff
    n_max = data.draw(st.integers(1, 150))
    n_start = data.draw(st.integers(0, n_max))
    scale = data.draw(st.sampled_from([1e-9, 1e-5, 1e-3, 0.05, 0.3]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    b_tilde = scale * rng.uniform(-1.0, 1.0, n_max + 1)
    phi1, phi2 = draw_pair(data, rng, n_max)
    product = tail_product(b_tilde, phi1, phi2, n_start)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(product))))
    rows = subordinate_generator_array(phi1, phi2, n_start, n_max)
    for col, terminal in enumerate(((1.0, 0.0), (0.0, 1.0))):
        total, sups = single_branch_layers(b_tilde, phi1, phi2, n_start,
                                           terminal)
        if not sups[-1] < LAYER_STOP:
            continue
        assert np.max(np.abs(total[n_start:] - product[:, :, col])) <= tol
        with draw_segments(data), draw_block(data):
            d, _ = neumann_layers(b_tilde, rows, n_start,
                                  range(n_start, n_max + 1), (col,))
        assert np.max(np.abs(d[:, :, 0] - product[:, :, col])) <= tol


def layers_or_error(b_tilde, rows, n_start, sites, columns):
    """neumann_layers' (D, sups), or the message of its divergence."""
    try:
        return neumann_layers(b_tilde, rows, n_start, sites, columns)
    except DivergentSeriesError as exc:
        return str(exc)


def segment_bottoms(n_start, n_max):
    """The lowest site of each segment of neumann_layers, top first: the
    cuts n_max >> k, k = 1, 2, ..., while SEGMENT_MIN sites or more lie
    below the cut, and then n_start."""
    cuts = itertools.takewhile(
        lambda cut: cut - n_start >= variation.SEGMENT_MIN,
        (n_max >> k for k in itertools.count(1)))
    return [*cuts, n_start]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_segmented_sums_keep_rows_and_columns_bit_for_bit(data):
    # the breaks depend on the span alone: sums at some sites are rows of
    # the all-sites call, and a one-column call is that column. The walk
    # ends with the segment of the lowest site asked for, so the sups and
    # any divergence are those of the call at every site from that one up
    n_max = data.draw(st.integers(1, 150))
    n_start = data.draw(st.integers(0, n_max))
    scale = data.draw(st.sampled_from([1e-9, 1e-3, 0.05, 0.3]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    b_tilde = scale * rng.uniform(-1.0, 1.0, n_max + 1)
    phi1, phi2 = draw_pair(data, rng, n_max)
    sites = np.array(data.draw(st.lists(st.integers(n_start, n_max),
                                        min_size=1, max_size=8)))
    rows = subordinate_generator_array(phi1, phi2, n_start, n_max)
    every = range(n_start, n_max + 1)
    with draw_segments(data):
        cuts = segment_bottoms(n_start, n_max)[:-1]
        in_bottom = not cuts or sites.min() < cuts[-1]
        from_lowest = layers_or_error(b_tilde, rows, n_start,
                                      range(sites.min(), n_max + 1), (0, 1))
        got = layers_or_error(b_tilde, rows, n_start, sites, (0, 1))
        one = [layers_or_error(b_tilde, rows, n_start, every, (col,))
               for col in (0, 1)]
        all_sites = layers_or_error(b_tilde, rows, n_start, every, (0, 1))
    if isinstance(from_lowest, str):
        assert got == from_lowest
    else:
        d, sups = got
        assert np.array_equal(d, from_lowest[0][sites - sites.min()])
        assert sups == from_lowest[1]
    if any(isinstance(x, str) for x in one):
        assert isinstance(all_sites, str)
        if in_bottom:
            assert got == all_sites
        return
    d_all, sups_all = all_sites
    d, sups = got
    assert np.array_equal(d, d_all[sites - n_start])
    if in_bottom:
        assert sups == sups_all
    for col, (d_col, _) in enumerate(one):
        assert np.array_equal(d_col[:, :, 0], d_all[:, :, col])
    assert sups_all == [max(k_sups) for k_sups in itertools.zip_longest(
        one[0][1], one[1][1], fillvalue=0.0)]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_segment_walk_ends_at_the_segment_of_the_lowest_site(data):
    # every segment from the top down to the one that holds the lowest
    # site asked for is walked, in that order, and none below it
    n_max = data.draw(st.integers(1, 150))
    n_start = data.draw(st.integers(0, n_max))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    b_tilde = 0.05 * rng.uniform(-1.0, 1.0, n_max + 1)
    phi1, phi2 = draw_pair(data, rng, n_max)
    sites = data.draw(st.lists(st.integers(n_start, n_max), min_size=1,
                               max_size=8))
    rows = subordinate_generator_array(phi1, phi2, n_start, n_max)
    base = rows.phi[0].ctypes.data
    walked = []
    advance_layer = variation._advance_layer

    def spy(v, phi, layer, scratch):
        # a segment's rows are a slice of the reversed rows that ends at
        # the position of its lowest site
        end = (phi[0].ctypes.data - base) // phi[0].itemsize + len(phi[0])
        if n_max + 1 - end not in walked:
            walked.append(n_max + 1 - end)
        advance_layer(v, phi, layer, scratch)

    with draw_segments(data), mock.patch.object(variation, "_advance_layer",
                                                spy):
        bottoms = segment_bottoms(n_start, n_max)
        neumann_layers(b_tilde, rows, n_start, sites, columns=(1,))
    holding = next(i for i, lo in enumerate(bottoms) if lo <= min(sites))
    assert walked == bottoms[:holding + 1]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_sums_read_no_site_below_the_one_reported(data):
    # lowest_site_read is one above the bottom of the segment that holds
    # the lowest site asked for: ~b = nan below it leaves D and the sups
    # bit for bit, and nan at it reaches the sum at that bottom in every
    # layer, whose sup is then nan, so the sums cannot stop
    n_max = data.draw(st.integers(1, 150))
    n_start = data.draw(st.integers(0, n_max))
    scale = data.draw(st.sampled_from([1e-9, 1e-3, 0.05, 0.3]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    b_tilde = scale * rng.uniform(-1.0, 1.0, n_max + 1)
    phi1, phi2 = draw_pair(data, rng, n_max)
    rows = subordinate_generator_array(phi1, phi2, n_start, n_max)
    columns = data.draw(st.sampled_from([(0, 1), (1,), (0,)]))
    with draw_segments(data), draw_block(data):
        bottoms = segment_bottoms(n_start, n_max)
        seg = data.draw(st.integers(0, len(bottoms) - 1))
        lowest = data.draw(st.integers(
            bottoms[seg], bottoms[seg - 1] - 1 if seg else n_max))
        sites = [lowest, *data.draw(st.lists(st.integers(lowest, n_max),
                                             max_size=6))]
        first = lowest_site_read(n_start, n_max, lowest)
        assert first == bottoms[seg] + 1
        clean = layers_or_error(b_tilde, rows, n_start, sites, columns)
        below = b_tilde.copy()
        below[:first] = np.nan
        got = layers_or_error(below, rows, n_start, sites, columns)
        if first <= n_max:
            at = b_tilde.copy()
            at[first] = np.nan
            with pytest.raises(DivergentSeriesError) as exc:
                neumann_layers(at, rows, n_start, sites, columns)
    if isinstance(clean, str):
        assert got == clean
        return
    assert np.array_equal(got[0], clean[0]) and got[1] == clean[1]
    if first <= n_max:
        assert "nan" in str(exc.value)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_reused_rows_give_the_sums_of_fresh_rows_bit_for_bit(data):
    # rows own the scratch of neumann_layers, so one rows object serves
    # every call of a sequence: of other draws, columns and sites, and
    # after a call that raised midway, each call must be that on fresh
    # rows, and, where it converged, the one-site product to roundoff
    n_max = data.draw(st.integers(1, 150))
    n_start = data.draw(st.integers(0, n_max))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    phi1, phi2 = draw_pair(data, rng, n_max)
    rows = subordinate_generator_array(phi1, phi2, n_start, n_max)
    with draw_segments(data), draw_block(data):
        for _ in range(data.draw(st.integers(2, 5))):
            scale = data.draw(st.sampled_from([1e-9, 1e-3, 0.05, 0.3, 2.0]))
            b_tilde = scale * rng.uniform(-1.0, 1.0, n_max + 1)
            columns = data.draw(st.sampled_from([(0, 1), (1,), (0,)]))
            sites = data.draw(st.lists(st.integers(n_start, n_max),
                                       min_size=1, max_size=8))
            got = layers_or_error(b_tilde, rows, n_start, sites, columns)
            fresh = layers_or_error(
                b_tilde, subordinate_generator_array(phi1, phi2, n_start,
                                                     n_max),
                n_start, sites, columns)
            if isinstance(fresh, str):
                assert got == fresh
                continue
            assert got[0].tobytes() == fresh[0].tobytes()
            assert got[1] == fresh[1]
            product = tail_product(b_tilde, phi1, phi2, n_start)
            want = product[np.array(sites) - n_start][:, :, list(columns)]
            tol = 1e-10 * max(1.0, float(np.max(np.abs(product))))
            assert float(np.max(np.abs(got[0] - want))) <= tol


def test_neumann_layers_rejects_rows_of_another_span():
    n_max = 20
    phi1, phi2 = np.random.default_rng(3).standard_normal((2, n_max + 1))
    b_tilde = np.full(n_max + 1, 0.01)
    for rows_start, rows_max in ((0, n_max), (2, n_max), (1, n_max - 1)):
        with pytest.raises(InvalidArgumentError, match="rows span"):
            neumann_layers(b_tilde, subordinate_generator_array(
                phi1, phi2, rows_start, rows_max), 1, [n_max])


def test_neumann_layers_rejects_sites_outside_the_window():
    n_max = 20
    phi1, phi2 = np.random.default_rng(4).standard_normal((2, n_max + 1))
    b_tilde = np.full(n_max + 1, 0.01)
    rows = subordinate_generator_array(phi1, phi2, 5, n_max)
    for site in (4, n_max + 1, -1):
        with pytest.raises(InvalidArgumentError, match=f"site {site} "):
            neumann_layers(b_tilde, rows, 5, [5, site, n_max])


def test_layer_one_is_plain_tail_sum():
    spec = free_laplacian()
    E = 0.5
    n_max = 200
    # the canonical pair of diagonal_generator_array, in factored form
    a, b = spec.coefficients(n_max)
    s1, s2 = (solve_forward(a, b, E, f0, f1, n_max)
              for f0, f1 in ((0.0, 1.0), (1.0, 0.0)))
    u_arr = diagonal_generator_array(spec, E, n_max)
    model = PerturbationModel(b_dist=UNIFORM, exp_id="l1")
    bt = sample(model, 7, n_max)
    # manual layer 1 at a few sites: sum_{j>n} b~(j) u(j) (0,1)^T
    d0 = np.array([0.0, 1.0])
    layer = np.zeros((1, n_max + 1, 2))
    layer[0, :, 1] = 1.0  # the terminal vector d0, in reversed site order
    phi = subordinate_generator_array(s1, s2, 0, n_max).phi
    rev = bt[::-1]
    _advance_layer((rev * phi[1], -(rev * phi[0])), phi, layer,
                   np.empty((2, n_max + 1)))
    d_tot = d0 + layer[0, ::-1]
    for n in (0, 13, 150):
        manual = d0.copy()
        for j in range(n + 1, n_max + 1):
            manual = manual + bt[j] * (u_arr[j] @ d0)
        assert np.allclose(d_tot[n], manual, atol=1e-12)


def test_neumann_series_matches_direct_loop():
    spec = free_laplacian()
    E, n_max = 0.5, 5000
    u_arr = diagonal_generator_array(spec, E, n_max)
    model = PerturbationModel(b_dist=UNIFORM, exp_id="ns")
    seeds = range(20)
    rep = neumann_series(model, u_arr, lambda n: 1.0, 0, seeds=seeds)
    probe = rep.probe_site
    # per seed: up to 12 plus-branch layers from the probe site, each the
    # suffix sum of ~b u d^k, stopping once |d^k(probe)| < 1e-12
    layer_sq = np.full((len(seeds), 13), np.nan)
    d_vals = []
    for i, s in enumerate(seeds):
        bt = sample(model, s, n_max)
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
    model = PerturbationModel(b_dist=UNIFORM, exp_id="ns")
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
    """solve_pair's boundary pair and its generator rows."""
    phi1, phi2 = solve_pair(*spec.coefficients(n_max), E, theta, n_max)
    return subordinate_generator_array(phi1, phi2, 0, n_max), phi1, phi2


def test_perturbed_solutions_zero_model_exact():
    spec = free_laplacian()
    rows, phi1, phi2 = pair_and_rows(spec, 0.5, 0.3, 300)
    psi1, psi2 = perturbed_solutions(spec.coefficients(300), rows,
                                     np.zeros(301), 0.5, phi1, phi2)
    assert np.array_equal(psi1, phi1)
    assert np.array_equal(psi2, phi2)


def test_perturbed_solutions_satisfy_perturbed_recursion():
    spec = free_laplacian()
    model = PerturbationModel(b_dist=HALF_UNIFORM, exp_id="ps")
    bt = sample(model, 11, 400)
    # the constructor verifies the residual at every interior site and
    # raises on failure; reaching here is the assertion
    coefficients = spec.coefficients(400)
    kept = [c.copy() for c in coefficients]
    rows, phi1, phi2 = pair_and_rows(spec, 0.5, 0.1, 400)
    psi1, psi2 = perturbed_solutions(coefficients, rows, bt, 0.5,
                                     phi1, phi2)
    # the unperturbed arrays serve every realization, so stay unmodified
    assert all(np.array_equal(c, k) for c, k in zip(coefficients, kept))
    a, b = perturbed_spec(spec, bt).coefficients(400)
    scale = float(np.max(np.abs(psi2)))
    for n in (1, 200, 399):
        assert abs(residual(psi2, a, b, 0.5, n)) <= 1e-9 * scale


def test_perturbed_solutions_refuse_a_short_draw():
    spec = free_laplacian()
    n_max = 50
    rows, phi1, phi2 = pair_and_rows(spec, 0.5, 0.1, n_max)
    with pytest.raises(InsufficientDataError, match="shorter"):
        perturbed_solutions(spec.coefficients(n_max), rows, np.zeros(n_max),
                            0.5, phi1, phi2)
    # a longer draw is cut to the pair's sites
    model = PerturbationModel(b_dist=HALF_UNIFORM, exp_id="ps")
    kept = perturbed_solutions(spec.coefficients(n_max), rows,
                               sample(model, 3, n_max), 0.5, phi1, phi2)
    cut = perturbed_solutions(spec.coefficients(n_max), rows,
                              sample(model, 3, 2 * n_max), 0.5, phi1, phi2)
    assert all(np.array_equal(k, c) for k, c in zip(kept, cut))


def test_nonzero_a_tilde_is_refused():
    # every experiment draws b~ alone: sample refuses a nonzero a~, and
    # with it each routine that draws, before a~ could be dropped; an
    # all-zero a~ draws b~ as no a~ does
    spec = free_laplacian()
    b_only = PerturbationModel(b_dist=UNIFORM, exp_id="ra")
    zero_a = PerturbationModel(b_dist=UNIFORM, a_dist=ZERO, exp_id="ra")
    assert np.array_equal(sample(zero_a, 4, 30), sample(b_only, 4, 30))
    with_a = PerturbationModel(b_dist=UNIFORM, a_dist=A_NOISE, exp_id="ra")
    with pytest.raises(UnsupportedModelError, match="a~"):
        sample(with_a, 4, 30)
    with pytest.raises(UnsupportedModelError, match="a~"):
        correction_ensemble(spec, with_a, 0.5, [0, 1], [50])
    with pytest.raises(UnsupportedModelError, match="a~"):
        stability_experiment(spec, with_a, 0.5, [0],
                             default_l_grid(1e3, 3))


def test_perturbed_solutions_ratio_near_one_small_noise():
    spec = free_laplacian()
    model = PerturbationModel(
        b_dist=SiteDistribution(kind="uniform", amplitude=0.1, decay=1.5),
        exp_id="psr")
    coefficients = spec.coefficients(500)
    rows, phi1, phi2 = pair_and_rows(spec, 0.5, 0.0, 500)
    terminal = []
    for seed in range(20):
        bt = sample(model, seed, 500)
        _, psi2 = perturbed_solutions(coefficients, rows, bt, 0.5,
                                      phi1, phi2)
        terminal.append(l_norms(psi2, [400.0])[0] / l_norms(phi2, [400.0])[0])
    med = float(np.median(terminal))
    assert 0.9 <= med <= 1.1
