"""Perturbation models, reproducible streams, and the probabilistic checks."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ndtr, ndtri

from jacobilab.core import constant_spec, free_laplacian
from jacobilab.errors import (
    DivergentSeriesError,
    InvalidArgumentError,
    UnsupportedModelError,
)
from jacobilab.randpert import (
    PerturbationModel,
    SiteDistribution,
    decade_log_sums,
    decade_ratios_pass,
    decay_profile,
    maximal_inequality_check,
    sample,
    series_convergence_check,
    _philox_key,
    stream_uniforms,
)

ZERO = SiteDistribution(kind="zero", amplitude=0.0, decay=0.0)
UNIFORM = SiteDistribution(kind="uniform", amplitude=1.0, decay=1.0)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_unknown_kind_rejected():
    with pytest.raises(UnsupportedModelError):
        SiteDistribution(kind="cauchy", amplitude=1.0, decay=0.0)


def test_uniform_moments_closed_form():
    d = SiteDistribution(kind="uniform", amplitude=3.0, decay=0.5)
    # E[(3 X / n^0.5)^k] with X uniform on [-1,1]
    for n in (1, 7, 100):
        c = 3.0 / n ** 0.5
        assert d.moment(1, n) == 0.0
        assert d.moment(2, n) == pytest.approx(c ** 2 / 3.0)
        assert d.moment(3, n) == 0.0
        assert d.moment(4, n) == pytest.approx(c ** 4 / 5.0)


def test_rademacher_moments():
    d = SiteDistribution(kind="rademacher", amplitude=2.0, decay=1.0)
    assert d.moment(2, 4) == pytest.approx(0.25)
    assert d.moment(4, 4) == pytest.approx(0.0625)


def test_tgauss_moments_against_quadrature():
    for T in (0.7, 2.0, 3.5):
        d = SiteDistribution(kind="tgauss", amplitude=1.0, decay=0.0,
                             trunc=T)
        Z = (integrate.quad(lambda x: math.exp(-x * x / 2), -T, T)[0]
             / math.sqrt(2 * math.pi))

        def density(x):
            return math.exp(-x * x / 2) / (math.sqrt(2 * math.pi) * Z)

        for k in (2, 4, 6):
            num = integrate.quad(lambda x: x ** k * density(x), -T, T)[0]
            assert d.moment(k, 1) == pytest.approx(num, rel=1e-9)


@given(st.floats(0.1, 5.0), st.floats(0.0, 2.0), st.integers(1, 1000))
def test_moment_scaling(amplitude, decay, n):
    base = SiteDistribution(kind="uniform", amplitude=1.0, decay=0.0)
    d = SiteDistribution(kind="uniform", amplitude=amplitude, decay=decay)
    c = amplitude / n ** decay
    assert d.moment(2, n) == pytest.approx(c ** 2 * base.moment(2, 1),
                                           rel=1e-12)
    assert d.moment(4, n) == pytest.approx(c ** 4 * base.moment(4, 1),
                                           rel=1e-12)


def test_moments_array_matches_scalar():
    d = SiteDistribution(kind="tgauss", amplitude=1.5, decay=0.8, trunc=2.0)
    arr = d.moments_array(2, 50)
    assert arr[0] == 0.0
    for n in (1, 13, 50):
        assert arr[n] == pytest.approx(d.moment(2, n), rel=1e-13)


def test_support_bound_contains_samples():
    d = SiteDistribution(kind="tgauss", amplitude=1.0, decay=0.5, trunc=1.5)
    model = PerturbationModel(b_dist=d)
    b_tilde = sample(model, 3, 5000)
    n = np.arange(1, 5001)
    bounds = np.array([d.support_bound(int(k)) for k in n])
    assert np.all(np.abs(b_tilde[1:]) <= bounds + 1e-12)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_zero_model_all_zeros():
    model = PerturbationModel(b_dist=ZERO)
    b_tilde = sample(model, 0, 100)
    assert b_tilde.shape == (101,)
    assert np.all(b_tilde == 0.0)


def test_sampling_bit_determinism_and_prefix():
    model = PerturbationModel(b_dist=UNIFORM, exp_id="t")
    r1 = sample(model, 11, 1000)
    r2 = sample(model, 11, 1000)
    assert np.array_equal(r1, r2)
    # value at a site is independent of n_max (counter-based streams)
    r3 = sample(model, 11, 250)
    assert np.array_equal(r3, r1[:251])


def test_distinct_seeds_and_streams_differ():
    model = PerturbationModel(b_dist=UNIFORM, exp_id="t")
    assert not np.array_equal(sample(model, 0, 200), sample(model, 1, 200))
    # each tag is its own stream: the draw is stream_uniforms of the tag
    # through the transform, and the draws of one seed differ
    sites = np.arange(201, dtype=float)
    sites[0] = 1.0
    draws = []
    for tag in ("b", "ineq", "series"):
        draw = sample(model, 0, 200, tag)
        direct = UNIFORM.transform(stream_uniforms("t", tag, 0, 200),
                                   sites ** UNIFORM.decay)
        direct[0] = 0.0
        assert np.array_equal(draw, direct)
        assert all(not np.allclose(draw[1:], d[1:]) for d in draws)
        draws.append(draw)
    assert np.array_equal(draws[0], sample(model, 0, 200))  # tag "b"


def out_of_place_draw(model, seed, n_max, tag="b"):
    """The draw written out with fresh arrays: uniforms from the Philox
    stream, the variate X, then amplitude * X / n^decay, b~(0) = 0."""
    gen = np.random.Generator(np.random.Philox(
        key=_philox_key(model.exp_id, tag, seed)))
    u = np.zeros(n_max + 1)
    u[1:] = gen.random(n_max)
    dist = model.b_dist
    if dist.kind == "zero":
        x = np.zeros_like(u)
    elif dist.kind == "uniform":
        x = 2.0 * u - 1.0
    elif dist.kind == "rademacher":
        x = np.where(u < 0.5, -1.0, 1.0)
    else:
        lo, hi = ndtr(-dist.trunc), ndtr(dist.trunc)
        x = ndtri(lo + u * (hi - lo))
    sites = np.arange(n_max + 1, dtype=float)
    sites[0] = 1.0
    b_tilde = dist.amplitude * x / sites ** dist.decay
    b_tilde[0] = 0.0
    return b_tilde


@pytest.mark.parametrize("kind", ["zero", "uniform", "rademacher", "tgauss"])
def test_sample_is_the_out_of_place_draw_bit_for_bit(kind):
    # sample fills the stream and transforms it in place, in the same
    # order of operations, so every bit (and the sign of zero) is kept
    for amplitude, decay, trunc in ((1.0, 0.0, 2.0), (0.3, 0.75, 1.5),
                                    (-2.5, 2.0, 3.0), (0.0, 0.6, 2.0)):
        model = PerturbationModel(exp_id="oop", b_dist=SiteDistribution(
            kind=kind, amplitude=amplitude, decay=decay, trunc=trunc))
        for seed, tag in ((0, "b"), (7, "series")):
            draw = sample(model, seed, 3000, tag)
            expected = out_of_place_draw(model, seed, 3000, tag)
            assert np.array_equal(draw, expected)
            assert np.array_equal(np.signbit(draw), np.signbit(expected))


@pytest.mark.parametrize("kind", ["zero", "uniform", "rademacher", "tgauss"])
def test_sample_into_a_buffer_is_the_fresh_draw_bit_for_bit(kind):
    # a buffer of NaN, overwritten entry 0 included, and returned
    model = PerturbationModel(exp_id="out", b_dist=SiteDistribution(
        kind=kind, amplitude=0.7, decay=0.75))
    for n_max in (1, 10, 1000, 4097):
        buf = np.full(n_max + 1, np.nan)
        for seed, tag in ((0, "b"), (9, "series"), (2, "b")):
            draw = sample(model, seed, n_max, tag, out=buf)
            assert draw is buf
            assert buf.tobytes() == sample(model, seed, n_max, tag).tobytes()


@pytest.mark.parametrize("kind", ["zero", "uniform", "rademacher", "tgauss"])
@settings(max_examples=20, deadline=None)
@given(n_max=st.integers(0, 3000), data=st.data())
def test_sample_from_a_first_site_is_the_full_draw_bit_for_bit(kind, n_max,
                                                                data):
    # the stream skips (first - 1) // 4 Philox blocks and (first - 1) % 4
    # doubles, so sites first..n_max are the full draw's; with a buffer,
    # the sites below first keep what the caller wrote
    model = PerturbationModel(exp_id="first", b_dist=SiteDistribution(
        kind=kind, amplitude=0.7, decay=0.75))
    seed = data.draw(st.integers(0, 2 ** 16))
    full = sample(model, seed, n_max)
    firsts = {*range(1, min(9, n_max + 1) + 1),
              data.draw(st.integers(1, n_max + 1))}
    for first in sorted(firsts):
        part = sample(model, seed, n_max, first=first)
        assert part[first:].tobytes() == full[first:].tobytes()
        assert not part[:first].any()
        buf = np.full(n_max + 1, np.nan)
        buf[1:first] = np.arange(1, first)
        assert sample(model, seed, n_max, out=buf, first=first) is buf
        assert buf[first:].tobytes() == full[first:].tobytes()
        assert buf[0] == 0.0 and np.array_equal(buf[1:first],
                                                np.arange(1, first))
    for first in (-1, 0, n_max + 2):
        with pytest.raises(InvalidArgumentError):
            sample(model, seed, n_max, first=first)


def test_decay_profile_is_shared_and_read_only():
    profile = decay_profile(0.75, 100)
    assert decay_profile(0.75, 100) is profile
    sites = np.arange(101, dtype=float)
    sites[0] = 1.0
    assert profile.tobytes() == (sites ** 0.75).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        profile[5] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        profile /= 2.0
    # an int decay keeps a profile of its own, as numpy's power on an int
    assert decay_profile(2, 100) is not decay_profile(2.0, 100)


def test_sample_mean_near_zero():
    model = PerturbationModel(b_dist=UNIFORM, exp_id="mean")
    vals = np.array([sample(model, s, 7)[7] for s in range(10 ** 4)])
    sigma = math.sqrt(1.0 / (3.0 * 49.0))
    assert abs(vals.mean()) <= 4.0 * sigma / math.sqrt(len(vals))


def test_stream_uniforms_in_unit_interval():
    u = stream_uniforms("x", "b", 0, 1000)
    assert u[0] == 0.0
    assert np.all((u[1:] >= 0.0) & (u[1:] < 1.0))


def test_delta_constraint_validation():
    spec = free_laplacian()
    ok = PerturbationModel(
        b_dist=ZERO,
        a_dist=SiteDistribution(kind="uniform", amplitude=0.2, decay=1.0),
        delta=0.5)
    ok.validate_against(spec)  # 0.5 < 1/(1 +- 0.2) < 2
    bad = PerturbationModel(
        b_dist=ZERO,
        a_dist=SiteDistribution(kind="uniform", amplitude=0.9, decay=0.0),
        delta=0.6)
    with pytest.raises(InvalidArgumentError):
        bad.validate_against(spec)
    with pytest.raises(InvalidArgumentError):
        PerturbationModel(b_dist=ZERO, delta=1.5)


# ---------------------------------------------------------------------------
# maximal inequality
# ---------------------------------------------------------------------------

def rademacher_model(decay=0.0, amplitude=1.0):
    return PerturbationModel(b_dist=SiteDistribution(
        kind="rademacher", amplitude=amplitude, decay=decay))


def test_exact_mode_canonical_case():
    # Rademacher, f == 1, N1=1, N2=10, r=3: bound = 10/9, enumeration exact
    rep = maximal_inequality_check(rademacher_model(), 1, 10, 3.0,
                                   trials=10 ** 4, seed=0)
    assert rep.exact and rep.trials == 2 ** 10
    assert rep.bound == pytest.approx(10.0 / 9.0)
    assert rep.empirical_prob <= rep.bound  # zero slack


def test_exact_mode_zero_slack_random_cases():
    rng = np.random.default_rng(8)
    for _ in range(10):
        N1 = int(rng.integers(1, 5))
        N2 = N1 + int(rng.integers(2, 10))
        r = float(rng.uniform(0.5, 4.0))
        rep = maximal_inequality_check(rademacher_model(decay=0.3), N1, N2,
                                       r, trials=10 ** 4, seed=0)
        assert rep.exact
        assert rep.empirical_prob <= rep.bound


def test_exact_mode_variance_additivity():
    # <(sum z)^2> = sum <z^2> by independence, exactly under enumeration
    dist = SiteDistribution(kind="rademacher", amplitude=1.0, decay=0.5)
    N1, N2 = 2, 9
    width = N2 - N1 + 1
    patterns = np.array(
        np.meshgrid(*([[-1.0, 1.0]] * width), indexing="ij")
    ).reshape(width, -1).T
    scale = np.array([dist.amplitude / n ** dist.decay
                      for n in range(N1, N2 + 1)])
    zs = patterns * scale
    total_var = float(np.mean(zs.sum(axis=1) ** 2))
    site_var = float(np.mean(zs ** 2, axis=0).sum())
    assert total_var == pytest.approx(site_var, abs=1e-12)


def exact_exceedances(N1, N2, r):
    """Sign patterns of z(n) = +-1/n, n = N1..N2, with a suffix sum
    |z(n) + ... + z(N2)| above r, counted with exact Fraction sums, and
    the least distance from r of any suffix sum's magnitude."""
    r = Fraction(r)
    count, gap = 0, math.inf
    for signs in itertools.product((-1, 1), repeat=N2 - N1 + 1):
        suffix, peak = Fraction(0), Fraction(0)
        for n, sign in zip(range(N2, N1 - 1, -1), reversed(signs)):
            suffix += Fraction(sign, n)
            peak = max(peak, abs(suffix))
            gap = min(gap, abs(abs(suffix) - r))
        count += peak > r
    return count, gap


@pytest.mark.parametrize("r, count", [(1.0, 628), (1.75, 176)])
def test_exact_mode_matches_an_exact_count(r, count):
    # the enumeration of maximal_inequality_check against a count over
    # itertools.product with exact suffix sums, on the CI config (N1 1,
    # N2 10, decay 1, r 1.0: 628 of 1024 patterns) and at r 1.75; no
    # suffix sum ties r, so no rounding can move a pattern across it
    exact, gap = exact_exceedances(1, 10, r)
    assert exact == count and gap > 1e-6
    rep = maximal_inequality_check(rademacher_model(decay=1.0), 1, 10, r,
                                   trials=10 ** 4, seed=0)
    assert rep.exact and rep.trials == 2 ** 10
    assert rep.empirical_prob == exact / 2 ** 10


def test_huge_r_gives_zero_probability():
    rep = maximal_inequality_check(rademacher_model(), 1, 10, 1e6,
                                   trials=10 ** 4, seed=0)
    assert rep.empirical_prob == 0.0


def test_uniform_closed_form_bound():
    # f == 1, uniform[-1,1], 100 sites with no decay: bound = (100/3)/r^2
    model = PerturbationModel(b_dist=SiteDistribution(
        kind="uniform", amplitude=1.0, decay=0.0))
    r = 7.0
    rep = maximal_inequality_check(model, 1, 100, r, trials=500, seed=0)
    assert not rep.exact
    assert rep.bound == pytest.approx((100.0 / 3.0) / r ** 2, rel=1e-12)


def test_monte_carlo_respects_bound_with_slack():
    model = PerturbationModel(b_dist=UNIFORM, exp_id="mi")
    rep = maximal_inequality_check(model, 1, 50, 1.0, trials=4000, seed=0)
    slack = 3.0 * math.sqrt(
        max(rep.empirical_prob * (1 - rep.empirical_prob), 1e-12) / rep.trials)
    assert rep.empirical_prob <= rep.bound + slack


def test_inequality_argument_validation():
    with pytest.raises(InvalidArgumentError):
        maximal_inequality_check(rademacher_model(), 5, 5, 1.0, 10 ** 4, 0)
    with pytest.raises(InvalidArgumentError):  # site 0 carries no value
        maximal_inequality_check(rademacher_model(), 0, 5, 1.0, 10 ** 4, 0)
    with pytest.raises(InvalidArgumentError):
        maximal_inequality_check(rademacher_model(), 1, 5, -1.0, 10 ** 4, 0)


# ---------------------------------------------------------------------------
# series convergence
# ---------------------------------------------------------------------------

def test_series_zero_model_all_tails_zero():
    model = PerturbationModel(b_dist=ZERO)
    rep = series_convergence_check(model, 100, trials=50, n_max=1000, seed=0)
    assert np.all(rep.tail_sup_median == 0.0)
    assert np.all(rep.tail_sup_p95 == 0.0)
    assert rep.tail_second_moment == 0.0
    assert rep.variance_bound == 0.0


def test_series_tail_moment_within_bound():
    # z = X(n)/n: full-series variance sum is pi^2/18; the tail beyond any
    # n_tail is below it
    model = PerturbationModel(b_dist=UNIFORM, exp_id="ser")
    rep = series_convergence_check(model, 100, trials=2000, n_max=10 ** 4,
                                   seed=0)
    assert rep.variance_bound <= math.pi ** 2 / 18.0 + 1e-9
    assert rep.tail_second_moment <= math.pi ** 2 / 18.0 \
        + 3.0 * rep.tail_second_moment_se
    # oracle: tail variance = sum_{n>100} 1/(3 n^2)
    tail_var = sum(1.0 / (3.0 * n * n) for n in range(101, 10 ** 4 + 1))
    assert rep.tail_second_moment == pytest.approx(
        tail_var, rel=0.2)


def test_series_slow_decay_checkpoint_slope():
    model = PerturbationModel(
        b_dist=SiteDistribution(kind="uniform", amplitude=1.0, decay=0.75),
        exp_id="ser75")
    rep = series_convergence_check(model, 100, trials=400, n_max=10 ** 4,
                                   seed=0)
    # exclude checkpoints near n_max where the sup-tail degenerates to 0
    sel = (rep.checkpoints >= 100) & (rep.checkpoints <= 10 ** 4 // 4)
    slope = np.polyfit(np.log(rep.checkpoints[sel]),
                       np.log(rep.tail_sup_median[sel]), 1)[0]
    assert slope <= -0.2


def test_series_divergent_variances_refused():
    model = PerturbationModel(
        b_dist=SiteDistribution(kind="uniform", amplitude=1.0, decay=0.5))
    with pytest.raises(DivergentSeriesError):
        series_convergence_check(model, 100, trials=10, n_max=10 ** 4, seed=0)


def test_series_determinism():
    model = PerturbationModel(b_dist=UNIFORM, exp_id="det")
    r1 = series_convergence_check(model, 50, trials=200, n_max=2000, seed=0)
    r2 = series_convergence_check(model, 50, trials=200, n_max=2000, seed=0)
    assert np.array_equal(r1.tail_sup_median, r2.tail_sup_median)
    assert r1.tail_second_moment == r2.tail_second_moment


# ---------------------------------------------------------------------------
# decade-ratio test
# ---------------------------------------------------------------------------

def _direct_decade_sums(terms):
    """Decade sums by placing each site n >= 1 in its decade one at a time."""
    sums = []
    for n in range(1, len(terms)):
        k = 1
        while 10 ** k < n:
            k += 1
        if len(sums) < k:
            sums.append(0.0)
        sums[k - 1] += float(terms[n])
    return sums


@settings(max_examples=80, deadline=None)
@given(n_max=st.one_of(st.sampled_from([1, 10, 100, 1000, 10 ** 4]),
                       st.integers(1, 5000)),
       seed=st.integers(0, 2 ** 32 - 1),
       zero_share=st.sampled_from([0.0, 0.3, 0.99, 1.0]),
       zero_upto=st.integers(0, 2000),
       threshold=st.sampled_from([0.5, 0.9, 0.95, 2.0, 20.0]),
       window=st.integers(1, 4))
def test_decade_helpers_match_direct_loop(n_max, seed, zero_share, zero_upto,
                                          threshold, window):
    rng = np.random.default_rng(seed)
    terms = rng.lognormal(0.0, 3.0, n_max + 1)
    terms[rng.random(n_max + 1) < zero_share] = 0.0
    terms[1:zero_upto + 1] = 0.0  # leading empty decades
    terms[0] = 7.0  # entry 0 is not a site
    with np.errstate(divide="ignore"):
        log_sums = decade_log_sums(np.log(terms))
    direct = _direct_decade_sums(terms)
    assert len(log_sums) == len(direct)
    for ls, d in zip(log_sums, direct):
        if d == 0.0:
            assert ls == -math.inf
        else:
            assert math.exp(ls) == pytest.approx(d, rel=1e-9)
    ratios = [0.0 if b == 0.0 else math.inf if a == 0.0 else b / a
              for a, b in zip(direct[:-1], direct[1:])]
    assume(all(abs(r - threshold) > 1e-9 * threshold for r in ratios))
    expect = (len(ratios) >= window
              and all(r <= threshold for r in ratios[-window:]))
    assert decade_ratios_pass(log_sums, threshold, window) == expect


def test_decade_ratios_fail_on_nan():
    # every comparison with NaN is false, so a NaN sum must not read as a
    # ratio within the threshold
    nan = math.nan
    assert not decade_ratios_pass([0.0, nan, nan], 0.9, 2)
    assert not decade_ratios_pass([0.0, -1.0, nan], 0.9, 2)
    assert not decade_ratios_pass([nan, -1.0, -2.0], 0.9, 2)
    assert decade_ratios_pass([0.0, -1.0, -2.0], 0.9, 2)
