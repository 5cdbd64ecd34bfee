"""Sparse bump potentials: propagation, envelopes, thresholds, stability."""

import functools
import inspect
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobilab import harness, sparse, variation
from jacobilab.core import OperatorSpec, solve_forward
from jacobilab.errors import (
    DivergentSeriesError,
    InsufficientDataError,
    InternalConsistencyError,
    InvalidArgumentError,
    OverflowSiteError,
    UnsupportedModelError,
)
from jacobilab.sparse import (
    SparseSpec,
    _tail_certificate,
    block_log_lnorms,
    block_matrices,
    envelope_exponents,
    find_subordinate_angle,
    perturbed_sparse_experiment,
    s_threshold,
    sparse_propagate,
)
from jacobilab.subordinacy import l_norms, solve_pair
from oracles import single_step, spectral_norm


# ---------------------------------------------------------------------------
# SparseSpec
# ---------------------------------------------------------------------------

def test_bump_sites_exact_integers():
    s = SparseSpec(v=0.2, gamma=8, j_max=42)
    assert s.bump_sites[0] == 8
    assert s.bump_sites[-1] == 8 ** 42  # exact, no rounding
    for a, b in zip(s.bump_sites, s.bump_sites[1:]):
        assert b == 8 * a


def division_loop_b(spec, n):
    """b(n) by a per-site division loop: v at n = gamma^j, j <= j_max."""
    if n < spec.gamma or n > spec.bump_sites[-1]:
        return 0.0
    m = n
    while m > 1 and m % spec.gamma == 0:
        m //= spec.gamma
    return spec.v if m == 1 else 0.0


def oracle_coefficients(spec, n_max):
    """The arrays of the per-site spec built from division_loop_b."""
    return OperatorSpec(a=lambda n: 1.0,
                        b=lambda n: division_loop_b(spec, n)
                        ).coefficients(n_max)


def assert_same_bits(got, want):
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


def test_potential_exact_membership():
    s = SparseSpec(v=0.5, gamma=8, j_max=5)
    a, b = s.coefficients(8 ** 6)  # past the last bump
    assert len(a) == len(b) == 8 ** 6 + 1 and np.all(a == 1.0)
    for j in range(1, 6):
        assert b[8 ** j] == 0.5
        assert b[8 ** j - 1] == 0.0
        assert b[8 ** j + 1] == 0.0
    assert b[16] == 0.0       # multiple of gamma but not a pure power
    assert b[8 ** 6] == 0.0   # beyond the last bump
    assert np.count_nonzero(b) == 5
    assert_same_bits((a, b), oracle_coefficients(s, 8 ** 6))


@pytest.mark.parametrize("gamma,j_max", [(2, 16), (3, 10), (8, 6)])
def test_potential_matches_division_loop_on_every_site(gamma, j_max):
    s = SparseSpec(v=0.3, gamma=gamma, j_max=j_max)
    want = oracle_coefficients(s, gamma ** j_max + 2)
    # below the first bump, on each bump and past the last one
    for n_max in (0, 1, gamma - 1, *s.bump_sites, gamma ** j_max + 2):
        assert_same_bits(s.coefficients(n_max),
                         (x[:n_max + 1] for x in want))


def test_potential_matches_division_loop_near_large_powers():
    # a window ending next to a site k gamma^j of a 30-bump spec
    s = SparseSpec(v=0.2, gamma=8, j_max=30)
    ends = sorted({k * 8 ** j + d for j in range(6) for k in (1, 2, 3, 7)
                   for d in (-1, 0, 1)})
    assert 2 * 8 ** 5 in ends
    want = oracle_coefficients(s, ends[-1])
    for n_max in ends:
        assert_same_bits(s.coefficients(n_max),
                         (x[:n_max + 1] for x in want))


def test_sparse_spec_validation():
    with pytest.raises(InvalidArgumentError):
        SparseSpec(v=0.2, gamma=1, j_max=30)
    with pytest.raises(InvalidArgumentError):
        SparseSpec(v=0.2, gamma=8, j_max=50)  # 8^50 >= 2^127


def test_bump_sites_not_a_constructor_argument():
    # the sites follow from gamma and j_max; a given list would be discarded
    with pytest.raises(TypeError):
        SparseSpec(v=0.2, gamma=8, j_max=30, bump_sites=[3])


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def test_free_block_rejects_hyperbolic():
    s = SparseSpec(v=0.2, gamma=4, j_max=4)
    with pytest.raises(UnsupportedModelError):
        block_matrices(s, 2.5)


def test_propagation_matches_naive():
    s = SparseSpec(v=0.2, gamma=4, j_max=6)
    E, theta = 0.6, 0.4
    prop = sparse_propagate(s, theta, block_matrices(s, E))
    # naive oracle over 4^6 = 4096 sites: pre-bump state (phi(n_j), phi(n_j-1))
    n = s.bump_sites[-1] + 1
    phi = solve_forward(*s.coefficients(n), E, -math.sin(theta),
                        math.cos(theta), n)
    for j, nj in enumerate(s.bump_sites):
        naive_amp = math.hypot(phi[nj], phi[nj - 1])
        assert prop.amp1[j] == pytest.approx(naive_amp, rel=1e-9)


def test_wronskian_preserved_across_fast_blocks():
    s = SparseSpec(v=0.2, gamma=8, j_max=20)
    prop = sparse_propagate(s, 0.3, block_matrices(s, 0.6))
    (x1, y1), (x2, y2) = prop.states1.T, prop.states2.T
    assert np.all(np.abs(x1 * y2 - y1 * x2 - 1.0) < 1e-8)


def test_pair_states_match_a_scalar_walk():
    # the pair runs as two lanes of the walk the angle search runs; each
    # lane makes the steps of a Python-float walk, bit for bit
    s, theta = SparseSpec(v=0.2, gamma=8, j_max=20), 0.3
    blocks = block_matrices(s, 0.6)
    prop = sparse_propagate(s, theta, blocks)
    c, sn = math.cos(theta), math.sin(theta)
    for states, (x, y) in ((prop.states1, (c, -sn)), (prop.states2, (sn, c))):
        walk = []
        for f11, f12, f21, f22, b11, b12, b21, b22 in blocks:
            x, y = f11 * x + f12 * y, f21 * x + f22 * y
            walk.append([x, y])
            x, y = b11 * x + b12 * y, b21 * x + b22 * y
        assert states.tolist() == walk


def test_free_case_amplitude_bound():
    # v = 0: free rotation conserves the Pruefer radius; the amplitude in
    # (phi(n), phi(n-1)) coordinates oscillates within the ellipse bound
    # max/min <= (1 + |cos k|) / |sin k| with E = 2 cos k
    s = SparseSpec(v=0.0, gamma=8, j_max=15)
    for E in (0.3, 0.6, 1.2):
        k = math.acos(E / 2.0)
        bound = (1.0 + abs(math.cos(k))) / abs(math.sin(k))
        prop = sparse_propagate(s, 0.25, block_matrices(s, E))
        ratio = float(np.max(prop.amp1) / np.min(prop.amp1))
        assert ratio <= bound + 1e-9


def test_single_bump_jump_bounded():
    s = SparseSpec(v=0.7, gamma=8, j_max=10)
    E = 0.6
    bump = single_step(E, s.v, 1.0, 1.0)
    prop = sparse_propagate(s, 0.1, block_matrices(s, E))
    k = math.acos(E / 2.0)
    free_swing = (1.0 + abs(math.cos(k))) / abs(math.sin(k))
    for j in range(1, len(prop.amp1)):
        jump = prop.amp1[j] / prop.amp1[j - 1]
        assert jump <= spectral_norm(bump) * free_swing + 1e-9


# the bump amplitudes of this pair leave the double range at bump 25
OVERFLOW_SPEC = {"type": "sparse", "v": 3, "gamma": 3, "j_max": 60}
OVERFLOW_E = 1.9999999999995


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_propagation_overflow_names_the_bump():
    # the angle search raises before it compares scores of an overflowed
    # walk, at the bump sparse_propagate names for any angle
    s = harness.build_spec({"spec": OVERFLOW_SPEC})
    blocks = block_matrices(s, OVERFLOW_E)
    with pytest.raises(OverflowSiteError) as exc:
        sparse_propagate(s, find_subordinate_angle(s, blocks), blocks)
    assert exc.value.site == 3 ** 25
    assert str(exc.value) == f"overflow at site {3 ** 25}"
    with pytest.raises(OverflowSiteError) as exc:
        sparse_propagate(s, 0.3, blocks)
    assert exc.value.site == 3 ** 25


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_overflowing_cell_exits_4(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "spec": OVERFLOW_SPEC, "E_grid": [OVERFLOW_E],
        "seeds": {"base": 0, "count": 2}, "grids": {"s": 1.0, "n_cut": 5000}}))
    rc = harness.main(["sparse", "--config", str(cfg),
                       "--out", str(tmp_path / "o")])
    assert rc == 4
    assert (f"failed cell: E={OVERFLOW_E}: OverflowSiteError('overflow at "
            f"site {3 ** 25}')" in capsys.readouterr().err)


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------

# the bumps the experiment fits: those past the transient ones
FIT = slice(sparse.ENVELOPE_DISCARD, None)


def test_envelope_exact_power_law():
    sites = [8 ** j for j in range(1, 20)]
    amps = np.array([float(n) ** 0.3 for n in sites])
    fit = envelope_exponents(sites, amps)
    assert fit.beta1_hat == pytest.approx(0.3, abs=1e-6)
    assert fit.beta2_hat == pytest.approx(0.3, abs=1e-6)


def test_envelope_free_case_flat():
    s = SparseSpec(v=0.0, gamma=8, j_max=20)
    prop = sparse_propagate(s, 0.25, block_matrices(s, 0.6))
    fit = envelope_exponents(prop.bump_sites[FIT], prop.amp1[FIT])
    assert abs(fit.beta1_hat) <= 0.02
    assert abs(fit.beta2_hat) <= 0.02


def test_envelope_scale_invariance():
    s = SparseSpec(v=0.2, gamma=8, j_max=20)
    prop = sparse_propagate(s, 0.25, block_matrices(s, 0.6))
    fit = envelope_exponents(prop.bump_sites, prop.amp2)
    fit_scaled = envelope_exponents(prop.bump_sites, 37.5 * prop.amp2)
    assert fit_scaled.beta1_hat == pytest.approx(fit.beta1_hat, abs=1e-12)
    assert fit_scaled.beta2_hat == pytest.approx(fit.beta2_hat, abs=1e-12)


def test_envelope_needs_enough_points():
    # it fits every point it is given, and needs 8 of them
    sites = [8 ** j for j in range(1, 9)]
    for n in (3, 7):
        with pytest.raises(InsufficientDataError):
            envelope_exponents(sites[:n], np.ones(n))
    fit = envelope_exponents(sites, np.array(sites, dtype=float) ** 0.25)
    assert fit.beta1_hat == pytest.approx(0.25, abs=1e-12)
    assert fit.beta2_hat == pytest.approx(0.25, abs=1e-12)


def test_envelope_ordering_invariant():
    rng = np.random.default_rng(15)
    sites = [8 ** j for j in range(1, 18)]
    for _ in range(20):
        amps = np.exp(rng.standard_normal(len(sites)))
        fit = envelope_exponents(sites, amps)
        assert fit.beta1_hat <= fit.beta2_hat


def test_envelope_stable_under_doubling_window():
    E = 0.6
    f10, f20 = (envelope_exponents(p.bump_sites[FIT], p.amp2[FIT]) for p in (
        sparse_propagate(s, 0.25, block_matrices(s, E)) for s in (
            SparseSpec(v=0.2, gamma=8, j_max=15),
            SparseSpec(v=0.2, gamma=8, j_max=30))))
    assert abs(f20.beta2_hat - f10.beta2_hat) <= 0.05
    assert f20.beta2_hat < 0.5


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

def test_s_threshold_examples():
    assert s_threshold(0.0, 0.0) == pytest.approx(0.5)
    assert s_threshold(0.1, 0.25) == pytest.approx(2.3)
    with pytest.raises(InvalidArgumentError):
        s_threshold(0.1, 0.5)
    with pytest.raises(InvalidArgumentError):
        s_threshold(0.3, 0.2)


@given(st.floats(0.0, 0.45), st.floats(0.0, 0.45))
def test_threshold_identity_vs_eta_bound(b1, b2):
    b1, b2 = min(b1, b2), max(b1, b2)
    # s_threshold = the eta bound 4 b2 / (1 - 2 b2) + 1/2 - 2 beta1, exactly
    assert s_threshold(b1, b2) == pytest.approx(
        4.0 * b2 / (1.0 - 2.0 * b2) + 0.5 - 2.0 * b1, abs=1e-12)


# ---------------------------------------------------------------------------
# block L-norms
# ---------------------------------------------------------------------------

def test_block_lnorms_match_dense():
    s = SparseSpec(v=0.2, gamma=4, j_max=5)  # 1024 sites, dense feasible
    E, theta = 0.6, 0.3
    prop = sparse_propagate(s, theta, block_matrices(s, E))
    blk = block_log_lnorms(prop.bump_sites, prop.amp1)
    n = s.bump_sites[-1] + 1
    phi1, _ = solve_pair(*s.coefficients(n), E, theta, n)
    dense = np.log(l_norms(phi1, prop.bump_sites))
    assert np.all(np.abs(blk - dense) <= 0.25)  # block approximation


def test_block_lnorms_shift_under_scaling():
    sites = [8 ** j for j in range(1, 10)]
    amps = np.linspace(1.0, 2.0, 9)
    a = block_log_lnorms(sites, amps)
    b = block_log_lnorms(sites, 10.0 * amps)
    assert np.allclose(b - a, math.log(10.0))


# ---------------------------------------------------------------------------
# subordinate angle and the stability experiment
# ---------------------------------------------------------------------------

def test_find_subordinate_angle_minimizes_terminal_amp():
    s = SparseSpec(v=0.2, gamma=8, j_max=12)
    E = 0.6
    blocks = block_matrices(s, E)
    theta = find_subordinate_angle(s, blocks)
    amp_star = sparse_propagate(s, theta, blocks).amp1[-1]
    for dt in (-0.4, 0.2, 0.7):
        other = sparse_propagate(s, theta + dt, blocks).amp1[-1]
        assert amp_star <= other + 1e-9


def test_perturbed_experiment_far_above_threshold():
    s = SparseSpec(v=0.2, gamma=8, j_max=14)
    rep = perturbed_sparse_experiment(s, 10.0, range(5), 0.6, n_cut=3000)
    # s = 10 decay: the noise is numerically negligible
    assert rep.max_median_diff <= 0.05
    assert rep.fit_unpert.beta1_hat <= rep.fit_unpert.beta2_hat
    assert rep.tail_bound < 1e-10


def test_sparse_verdict_sees_its_perturbation():
    # gamma 2 puts the fitted bumps 2^6..2^13 inside the dense window, one
    # or more in each of its four Neumann segments, so the perturbed fit
    # reads perturbed amplitudes: at s = 0.6 it moves ~1,400x as far as at
    # s = 2 (2.4e-2 against 1.8e-5). With gamma 8 and n_cut 1e5 every
    # fitted bump lies beyond n_cut, and only d+(n_cut) is ever read.
    sspec = SparseSpec(v=0.2, gamma=2, j_max=30)
    diff = {s: perturbed_sparse_experiment(sspec, s, range(16), 0.6,
                                           n_cut=10 ** 4).max_median_diff
            for s in (0.6, 2.0)}
    assert diff[2.0] > 0.0
    assert diff[0.6] >= 100.0 * diff[2.0]


def test_perturbed_experiment_validation():
    s = SparseSpec(v=0.2, gamma=8, j_max=12)
    with pytest.raises(InvalidArgumentError):
        perturbed_sparse_experiment(s, -1.0, range(2), 0.6, n_cut=3000)


def test_tail_bound_covers_the_whole_tail():
    sspec = SparseSpec(v=0.2, gamma=8, j_max=14)
    E, n_cut = 0.6, 1000
    # <~b(n)^2> = n^(-2s) / 3: the tail diverges for s <= 1/2
    with pytest.raises(DivergentSeriesError):
        perturbed_sparse_experiment(sspec, 0.4, [0], E, n_cut=n_cut)
    rep = perturbed_sparse_experiment(sspec, 1.0, [0], E, n_cut=n_cut)
    amp2 = sparse_propagate(sspec, rep.theta_star,
                            block_matrices(sspec, E)).amp2
    tail = math.pi ** 2 / 6.0 - math.fsum(
        n ** -2.0 for n in range(1, n_cut + 1))  # sum over n > n_cut
    assert rep.tail_bound == pytest.approx(
        float(np.max(amp2)) ** 4 / 3.0 * tail, rel=1e-9)


@pytest.mark.parametrize("s, n_first", [(1.0, 100001), (10.0, 3001)])
def test_tail_certificate_is_an_upper_bound(s, n_first):
    # against the tail to 60 significant digits; mpmath needs the working
    # precision for that (at mp.dps = 60, zeta(20, 3001) is 1.75e-12 high)
    amp_max = 1.7
    bound = _tail_certificate(amp_max, s, n_first - 1)
    with mpmath.workprec(2000):
        tail = mpmath.mpf(amp_max) ** 4 / 3 * mpmath.zeta(2 * s, n_first)
        assert mpmath.mpf(bound) >= tail
        assert mpmath.mpf(bound) <= tail * (1 + mpmath.mpf(2) ** -51)


def test_perturbed_experiment_is_the_same_with_seeds_reversed(monkeypatch):
    # the seeds share one b~ buffer and the scratch of one rows object; a
    # seed's fit must not depend on which seed ran before it. Two seeds,
    # so that each median is the mean of both fits. At gamma 2 and
    # SEGMENT_MIN 256 the bumps 2^1..2^11 lie in the dense window, which
    # is summed in four segments
    monkeypatch.setattr(variation, "SEGMENT_MIN", 256)
    sspec = SparseSpec(v=0.2, gamma=2, j_max=14)
    seeds = [3, 0]
    forward, backward = (perturbed_sparse_experiment(
        sspec, 0.75, order, 0.6, n_cut=3000) for order in (seeds, seeds[::-1]))
    assert forward == backward
    assert forward.max_median_diff > 0.0


# the tiny sparse benchmark config: 4 seeds, n_cut 3000, 14 bumps
TINY_SPARSE = {
    "experiment": "sparse",
    "spec": {"type": "sparse", "v": 0.2, "gamma": 8, "j_max": 14},
    "E_grid": [0.6], "seeds": {"base": 0, "count": 4},
    "grids": {"s": 2.0, "n_cut": 3000}, "workers": 1}
GAMMA2_SPEC = {"type": "sparse", "v": 0.2, "gamma": 2, "j_max": 14}


def test_seed_ensemble_sums_only_the_plus_column(monkeypatch):
    # the envelope reads d+ alone; summing d- as well doubles the layer work
    calls = []
    neumann_layers = sparse.neumann_layers
    signature = inspect.signature(neumann_layers)

    def spy(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(tuple(bound.arguments["columns"]))
        return neumann_layers(*args, **kwargs)

    monkeypatch.setattr(sparse, "neumann_layers", spy)
    report = harness.run(TINY_SPARSE)
    assert report.failures == [] and len(report.rows) == 1
    assert calls == [(1,)] * 4


def test_seed_ensemble_sums_reach_layer_stop_at_s_three_quarters(monkeypatch):
    # at gamma 2 the fitted bumps reach down to 2^6, into the bottom one of
    # the window's two segments, where each seed's d+ sum at s = 0.75 takes
    # 15 or 16 layers to fall below LAYER_STOP; a sum cut at 12 layers
    # still has a last layer near 1e-8
    last = []
    neumann_layers = sparse.neumann_layers

    def spy(*args, **kwargs):
        d, sups = neumann_layers(*args, **kwargs)
        last.append((len(sups) - 1, sups[-1]))
        return d, sups

    monkeypatch.setattr(sparse, "neumann_layers", spy)
    report = harness.run({**TINY_SPARSE, "spec": GAMMA2_SPEC,
                          "grids": {"s": 0.75, "n_cut": 3000}})
    assert report.failures == [] and len(report.rows) == 1
    assert len(last) == 4
    assert all(k > 12 and sup < variation.LAYER_STOP for k, sup in last)


def test_seed_ensemble_reverses_rows_once_and_keeps_bump_sites(monkeypatch):
    # the reversed generator rows depend on the pair alone, and the
    # envelope reads d+ at the fitted bump sites alone, each with the site
    # after it for the one-site check
    built, calls = [], []
    generator_rows = variation.subordinate_generator_array
    neumann_layers = sparse.neumann_layers
    signature = inspect.signature(neumann_layers)

    def rows_spy(*args):
        built.append(generator_rows(*args))
        return built[-1]

    def layers_spy(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        calls.append((bound.arguments["rows"], bound.arguments["sites"]))
        return neumann_layers(*args, **kwargs)

    # both bindings, so rows built inside neumann_layers would count too
    for module in (sparse, variation):
        monkeypatch.setattr(module, "subordinate_generator_array", rows_spy)
    monkeypatch.setattr(sparse, "neumann_layers", layers_spy)
    n_cut = TINY_SPARSE["grids"]["n_cut"]
    report = harness.run(TINY_SPARSE)
    assert report.failures == [] and len(report.rows) == 1
    assert len(built) == 1
    assert (built[0].n_start, built[0].n_max) == (0, n_cut + 1)
    fitted = [min(8 ** j, n_cut)
              for j in range(sparse.ENVELOPE_DISCARD + 1, 15)]
    assert len(fitted) == 9
    assert len(calls) == 4
    assert all(rows is built[0]
               and list(sites) == fitted + [n + 1 for n in fitted]
               for rows, sites in calls)


def test_seed_ensemble_checks_the_one_site_step(monkeypatch):
    # d+(n) = (I + ~b(n+1) u(n+1)) d+(n+1) at each fitted bump: layers
    # summed for -~b (the sign of v flipped in every layer step) miss it
    # by 2 |~b(n+1) u(n+1) d+(n+1)|, at the first fitted bump already
    sspec = SparseSpec(v=0.2, gamma=2, j_max=14)
    advance_layer = variation._advance_layer

    def flipped(v, phi, layer, scratch):
        advance_layer(tuple(-x for x in v), phi, layer, scratch)

    perturbed_sparse_experiment(sspec, 0.75, range(2), 0.6, n_cut=3000)
    monkeypatch.setattr(variation, "_advance_layer", flipped)
    with pytest.raises(InternalConsistencyError,
                       match="d\\+ one-site step off by") as exc:
        perturbed_sparse_experiment(sspec, 0.75, range(2), 0.6, n_cut=3000)
    assert exc.value.site == 2 ** 6


def test_seed_ensemble_draws_from_the_lowest_site_read(monkeypatch):
    # the b~ buffer starts as nan and each seed draws from the lowest site
    # its sums read: a draw from one site lower gives the same report,
    # and one from a site higher leaves a site read as nan, so the sums
    # raise instead of reading what another seed drew
    sspec = SparseSpec(v=0.2, gamma=8, j_max=14)
    report = perturbed_sparse_experiment(sspec, 2.0, range(3), 0.6, 3000)
    assert variation.lowest_site_read(0, 3001, 3000) == 1501
    draw_from = variation.lowest_site_read
    monkeypatch.setattr(sparse, "lowest_site_read",
                        lambda *args: draw_from(*args) - 1)
    assert perturbed_sparse_experiment(
        sspec, 2.0, range(3), 0.6, 3000) == report
    monkeypatch.setattr(sparse, "lowest_site_read",
                        lambda *args: draw_from(*args) + 1)
    with pytest.raises(DivergentSeriesError, match="nan"):
        perturbed_sparse_experiment(sspec, 2.0, range(3), 0.6, 3000)


# ---------------------------------------------------------------------------
# the sparse exponents against a closed form
# ---------------------------------------------------------------------------

# (v, gamma, j_max, E window): every gap is at most 10^6 steps but the
# last few, so that no row spends its time in extended-precision phases
ORACLE_ROWS = [(1.0, 2, 22, (0.5, 0.7)), (0.5, 2, 22, (0.5, 0.7)),
               (3.0, 2, 22, (1.1, 1.3)), (1.0, 4, 15, (0.5, 0.7))]
ORACLE_ENERGIES = 200


@functools.lru_cache(maxsize=None)
def energy_exponents(v, gamma, j_max, window):
    """Per energy of a grid of ORACLE_ENERGIES over the window: the mean
    growth exponent beta_bar = log(1 + v^2 / (4 sin^2 k)) / (2 ln gamma)
    at E = 2 cos k, and, from the amplitudes of one lane (angle 0.3) at
    the fitted bumps, the least-squares slope of log amplitude against
    log n_j and the envelope fit's beta1 and beta2. Each a row of an
    array of shape (4, ORACLE_ENERGIES).

    A bump step has singular values mu, 1/mu in the frame of the free
    rotation, with mu - 1/mu = |v| / sin k, and the mean of log |M e| over
    a uniform direction e is log((mu + 1/mu) / 2); the phases at gamma^j
    equidistribute for almost every E, so the slope averages to beta_bar
    over an energy window, though one energy alone strays far from it.
    """
    sspec = SparseSpec(v=v, gamma=gamma, j_max=j_max)
    sites = sspec.bump_sites[FIT]
    x = np.log([float(n) for n in sites])
    out = []
    for E in np.linspace(*window, ORACLE_ENERGIES):
        sin_k = math.sin(math.acos(E / 2.0))
        amp = sparse_propagate(sspec, 0.3, block_matrices(sspec, E)).amp1[FIT]
        fit = envelope_exponents(sites, amp)
        out.append((math.log1p(v * v / (4.0 * sin_k ** 2))
                    / (2.0 * math.log(gamma)),
                    np.polyfit(x, np.log(amp), 1)[0],
                    fit.beta1_hat, fit.beta2_hat))
    return np.array(out).T


@pytest.mark.parametrize("v, gamma, j_max, window", ORACLE_ROWS)
def test_envelope_slope_averages_to_the_closed_form_exponent(
        v, gamma, j_max, window):
    # the energy mean of slope - beta_bar is within 3 of its standard
    # errors of 0. beta_bar runs from 0.048 to
    # 1.09 over the rows, and their gamma 2 and 4 tell ln gamma apart.
    # A wrong gap length moves only the phases at the bumps, which the
    # mean does not see; the propagation tests cover it
    beta_bar, slope, _, _ = energy_exponents(v, gamma, j_max, window)
    miss = slope - beta_bar
    se = float(np.std(miss, ddof=1)) / math.sqrt(len(miss))
    assert abs(float(np.mean(miss))) <= 3.0 * se


@pytest.mark.parametrize("v, gamma, j_max, window", ORACLE_ROWS)
def test_envelope_exponents_bracket_the_closed_form_exponent(
        v, gamma, j_max, window):
    # the running-minimum slope lies below the mean growth and the
    # running-maximum slope above it, in the energy mean
    beta_bar, _, beta1, beta2 = energy_exponents(v, gamma, j_max, window)
    assert np.mean(beta1) <= np.mean(beta_bar) <= np.mean(beta2)
