"""Cesaro-average boundedness test and moment-weighted membership sums."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobilab import ac_criterion, harness
from jacobilab.ac_criterion import (
    BLOCK,
    TAU_BOUND,
    CesaroReport,
    _log_t2,
    _log_t2_blocks,
    cesaro_scan,
    default_n_grid,
    gamma_membership,
)
from jacobilab.core import (
    LN2,
    OperatorSpec,
    free_laplacian,
    propagate,
    residual,
    solve_forward,
)
from jacobilab.errors import InvalidArgumentError
from jacobilab.randpert import (
    LOG_SAT,
    PerturbationModel,
    SiteDistribution,
    decade_ends,
    decade_log_sums,
    decade_ratios_pass,
)
from oracles import log_t2_stream, spectral_norm, transfer_product

ZERO = SiteDistribution(kind="zero", amplitude=0.0, decay=0.0)
UNIFORM = SiteDistribution(kind="uniform", amplitude=1.0, decay=1.0)


def test_default_n_grid_shape():
    grid = default_n_grid(40)
    assert grid[0] == 2 and grid[-1] == 2 ** 20
    assert all(b > a for a, b in zip(grid, grid[1:]))


def test_log_t2_stream_matches_norms():
    spec = free_laplacian()
    for E in (0.5, 1.7, 2.0):
        logs = list(log_t2_stream(*spec.coefficients(40), E))
        for n in (1, 7, 40):
            t = spectral_norm(transfer_product(spec, E, n))
            assert logs[n - 1] == pytest.approx(2.0 * math.log(t), abs=1e-9)


def test_log_t2_stream_exponential_orbit_matches_mpmath():
    # free E = 3: t grows like lambda^n, far past the float range by n = 5000
    n, E = 5000, 3.0
    lt2 = log_t2_stream(*free_laplacian().coefficients(n), E)
    with mpmath.workdps(40):
        t11, t12, t21, t22 = (mpmath.mpf(1), mpmath.mpf(0),
                              mpmath.mpf(0), mpmath.mpf(1))
        exact = []
        for _ in range(n):
            t11, t12, t21, t22 = E * t11 - t21, E * t12 - t22, t11, t12
            g = t11 ** 2 + t12 ** 2 + t21 ** 2 + t22 ** 2
            det = t11 * t22 - t12 * t21
            exact.append(float(mpmath.log(
                (g + mpmath.sqrt(g * g - 4 * det * det)) / 2)))
    assert lt2.tolist() == pytest.approx(exact, abs=1e-9)


# a in [0.8, 1.25], |E - b| <= 2: every step has norm <= 3.2, so products
# over n <= 200 sites stay far below ENTRY_LIMIT
jacobi_tables = st.integers(2, 200).flatmap(lambda n: st.tuples(
    st.lists(st.floats(0.8, 1.25), min_size=n + 1, max_size=n + 1),
    st.lists(st.floats(-0.5, 0.5), min_size=n + 1, max_size=n + 1)))


@settings(max_examples=40, deadline=None)
@given(jacobi_tables, st.floats(-1.5, 1.5), st.data())
def test_array_paths_match_scalar_oracle(table, E, data):
    a_tab, b_tab = table
    n = len(a_tab) - 1
    spec = OperatorSpec(a=lambda k: a_tab[k], b=lambda k: b_tab[k])
    _, norms = transfer_product(spec, E, n, return_norms=True)

    lt2 = log_t2_stream(*spec.coefficients(n), E)
    assert lt2.tolist() == pytest.approx(
        [2.0 * math.log(t) for t in norms], abs=1e-9)

    inner = data.draw(st.sets(st.integers(1, n - 1), max_size=6))
    N_grid = sorted(inner | {n})
    t2 = np.asarray(norms) ** 2
    [rep] = cesaro_scan(spec, [E], N_grid).reports
    assert rep.averages == pytest.approx(
        [float(np.mean(t2[:N])) for N in N_grid], rel=1e-10)

    coef = spec.coefficients(n)
    v = solve_forward(*coef, E, 1.0, 0.3, n)
    sites = np.arange(1, n)
    res = residual(v, *coef, E, sites)
    assert res.tolist() == [residual(v, *coef, E, int(k)) for k in sites]
    a0 = [1.0] + a_tab[1:]  # a(0) = 1 by convention
    assert res.tolist() == [a0[k] * v[k + 1] + a0[k - 1] * v[k - 1]
                            + (b_tab[k] - E) * v[k] for k in sites]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 700), st.integers(1, 20),
       st.data())
def test_energy_lanes_match_scalar_stream_bit_for_bit(seed, n, n_E, data):
    # up to 700 sites span three BLOCKs; 8 energies and more run the numpy
    # lane loop; |E| > 2.5 is hyperbolic and rescales within 300 sites
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.5, 2.0, n + 1), rng.uniform(-0.5, 0.5, n + 1)
    a[0] = 1.0
    energies = rng.uniform(-4.5, 4.5, n_E).tolist()
    lt2 = log_t2_stream(a, b, energies)
    assert lt2.shape == (n, n_E)
    for j, E in enumerate(energies):
        assert np.array_equal(lt2[:, j], log_t2_stream(a, b, E))

    # blocks ending at arbitrary sites resume to the same stream
    stops = data.draw(st.lists(st.integers(1, n), max_size=8))
    blocks = list(_log_t2_blocks(a, b, energies, stops))
    assert all(len(block) <= BLOCK for _, block in blocks)
    assert {last for last, _ in blocks} >= set(stops)
    assert np.array_equal(np.concatenate([block for _, block in blocks]), lt2)


def log_t2_four_terms(alpha, gamma, inv_a):
    """_log_t2 with each row shifted and squared on both of its sites."""
    top = np.maximum(alpha[1][1:], gamma[1][1:])
    g = np.zeros(top.shape)
    for m, k in (alpha, gamma):
        for rows in (slice(1, None), slice(None, -1)):
            g += np.ldexp(m[rows], k[rows] - top) ** 2
    det = np.ldexp(inv_a, -2 * top)
    t2 = 0.5 * (g + np.sqrt(np.maximum(g * g - 4.0 * det * det, 0.0)))
    return np.log(t2) + 2.0 * LN2 * top


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30), st.sampled_from([(), (1,), (4,)]), st.data())
def test_log_t2_is_the_four_term_sum_bit_for_bit(n, lanes, data):
    # rows 0..n of alpha and gamma, with rescales (exponent steps) drawn on
    # rows apart for each and per lane; rows 1, 2 and n (the first and the
    # last rows whose step moves the exponent between two sites) are drawn
    # more often
    shape, width = (n + 1, *lanes), int(np.prod(lanes))
    edges = st.sampled_from(sorted({1, min(2, n), n}))
    base = data.draw(st.integers(0, 10 ** 6))
    pair = []
    for _ in range(2):
        m = np.array(data.draw(st.lists(
            st.floats(-(2.0 ** 199), 2.0 ** 199) | st.just(0.0),
            min_size=(n + 1) * width, max_size=(n + 1) * width)))
        steps = np.zeros((n + 1, width), dtype=np.int64)
        for row in data.draw(st.sets(st.integers(1, n)) | st.sets(edges)):
            steps[row] = data.draw(st.lists(st.integers(0, 400),
                                            min_size=width, max_size=width))
        k = base + data.draw(st.integers(0, 400)) + np.cumsum(steps, axis=0)
        pair.append((m.reshape(shape), k.reshape(shape)))
    inv_a = 1.0 / np.array(data.draw(st.lists(
        st.floats(1e-6, 1e6), min_size=n, max_size=n)))
    if lanes:
        inv_a = inv_a[:, None]
    with np.errstate(divide="ignore"):
        assert (_log_t2(*pair, inv_a).tobytes()
                == log_t2_four_terms(*pair, inv_a).tobytes())


def test_log_t2_clipped_det_shift_keeps_the_bits():
    # tops on both sides of 270, where det = 2^-2top / a passes 2^-540
    # for a near 1, and past 511, where the unclipped det is subnormal; a
    # from 1e-6 to 1e6 moves that border by about 20 sites either way.
    # Entries as small as 2^-560 make g^2 as small as 4 det^2 can be
    rng = np.random.default_rng(7)
    tops = np.array([0, 200, 250, 255, 259, 260, 261, 268, 269, 270, 271,
                     272, 280, 290, 300, 400, 511, 512, 513, 537, 600, 1000,
                     10 ** 6])
    a = np.concatenate([[1.0, 1e-6, 1e6, 0.5, 2.0, 1.0 - 2.0 ** -52],
                        np.exp(rng.uniform(-13.8, 13.8, 40))])
    inv_a = 1.0 / a[:, None]
    shape = (len(a) + 1, len(tops))
    pair = []
    for shift in (0, 3):  # gamma's exponents trail alpha's by 3 bits
        m = np.ldexp(rng.uniform(0.5, 1.0, shape) * rng.choice([-1, 1], shape),
                     -rng.integers(0, 560, shape))
        m[rng.random(shape) < 0.05] = 0.0
        k = np.broadcast_to(tops - shift, shape).copy()
        k[1::7] += 1  # exponent steps between sites
        pair.append((m, np.maximum.accumulate(k, axis=0)))
    assert np.maximum(pair[0][1], pair[1][1])[1:].max() > 511
    with np.errstate(divide="ignore"):
        assert (_log_t2(*pair, inv_a).tobytes()
                == log_t2_four_terms(*pair, inv_a).tobytes())


def test_cesaro_free_E0_all_ones():
    [rep] = cesaro_scan(free_laplacian(), [0.0], default_n_grid(30)).reports
    # naive oracle: every t = 1, averages identically 1
    assert np.allclose(rep.averages, 1.0, atol=1e-12)
    assert rep.liminf_proxy == pytest.approx(1.0)
    assert rep.bounded_flag


def test_cesaro_matches_naive_oracle():
    spec = free_laplacian()
    for E in (0.5, 1.2):
        grid = [10, 50, 200, 1000]
        [rep] = cesaro_scan(spec, [E], grid).reports
        _, norms = transfer_product(spec, E, 1000, return_norms=True)
        t2 = np.asarray(norms) ** 2
        for N, avg in zip(grid, rep.averages):
            oracle = float(np.mean(t2[:N]))
            assert avg == pytest.approx(oracle, rel=1e-10)


def test_cesaro_band_edge_quadratic_growth():
    scan = cesaro_scan(free_laplacian(), [2.0], default_n_grid(30))
    [rep] = scan.reports
    # t ~ 2n so averages grow like N^2: slope ~ 2 in log-log
    x = np.log(scan.N_grid[-8:])
    y = np.log(rep.averages[-8:])
    slope = np.polyfit(x, y, 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)
    assert not rep.bounded_flag


def test_cesaro_exponential_energy_saturates():
    scan = cesaro_scan(free_laplacian(), [3.0], default_n_grid(40))
    [rep] = scan.reports
    assert not rep.bounded_flag
    assert rep.averages[-1] == math.inf
    # the last two finite averages grow like lambda^(2N)
    lam = (3.0 + math.sqrt(5.0)) / 2.0
    finite = [(N, a) for N, a in zip(scan.N_grid, rep.averages)
              if a < math.inf]
    (N1, a1), (N2, a2) = finite[-2:]
    assert math.log(a2 / a1) / (N2 - N1) == pytest.approx(
        2.0 * math.log(lam), rel=1e-2)


def test_cesaro_rejects_bad_grid():
    with pytest.raises(InvalidArgumentError):
        cesaro_scan(free_laplacian(), [0.0], [10, 10, 20])


def gamma(spec, model, energies, N_max=10 ** 5):
    """gamma_membership fed by the cesaro_scan that sums its decades."""
    scan = cesaro_scan(spec, energies, default_n_grid(30), model, N_max)
    return gamma_membership(N_max, scan)


def test_gamma_zero_model_member():
    model = PerturbationModel(b_dist=ZERO)
    [(member, psum)] = gamma(free_laplacian(), model, [0.5])
    assert member and psum == 0.0


def test_gamma_member_interior_energy():
    # b~ = X/n uniform: <b~^2> = 1/(3n^2), t bounded -> convergent
    model = PerturbationModel(b_dist=UNIFORM)
    [(member, psum)] = gamma(free_laplacian(), model, [0.5],
                             N_max=10 ** 4)
    assert member
    # direct oracle on a short window agrees with the accumulated partial sum
    spec = free_laplacian()
    _, norms = transfer_product(spec, 0.5, 2000, return_norms=True)
    n = np.arange(1, 2001, dtype=float)
    direct = np.sum((1.0 / (3.0 * n ** 2)) * (2.0 * np.asarray(norms)) ** 4)
    assert psum == pytest.approx(direct, rel=0.05)  # tail beyond 2000 is tiny
    assert psum > direct  # partial sums are nondecreasing in N_max


def test_gamma_nonmember_band_edge():
    # E = 2: t ~ 2n, terms ~ n^2 / n^2 -> decade sums grow
    model = PerturbationModel(b_dist=UNIFORM)
    [(member, psum)] = gamma(free_laplacian(), model, [2.0],
                             N_max=10 ** 4)
    assert not member
    assert psum > 1.0


def test_gamma_monotone_in_moments():
    # scaling the amplitude by 2 scales every moment by >= 4; a non-member
    # must stay non-member, and membership of the scaled model implies
    # membership of the base model
    for E in (0.5, 2.0):
        base = PerturbationModel(b_dist=UNIFORM)
        big = PerturbationModel(b_dist=SiteDistribution(
            kind="uniform", amplitude=2.0, decay=1.0))
        [(m_base, s_base)] = gamma(free_laplacian(), base, [E], 10 ** 4)
        [(m_big, s_big)] = gamma(free_laplacian(), big, [E], 10 ** 4)
        assert m_base == m_big  # scalar scaling never flips the ratio verdict
        assert s_big == pytest.approx(4.0 * s_base, rel=1e-9)


def test_gamma0_subset_gamma():
    # bounded orbit + summable variances + no off-diagonal noise => member
    for E in (-1.5, 0.0, 0.5, 1.5):
        [rep] = cesaro_scan(free_laplacian(), [E], default_n_grid(30)).reports
        assert rep.bounded_flag
        model = PerturbationModel(b_dist=UNIFORM)
        [(member, _)] = gamma(free_laplacian(), model, [E], 10 ** 4)
        assert member


def test_gamma_includes_fourth_moment_of_a():
    # with an off-diagonal distribution the coefficient gains <a~^4>^(1/2)
    b = SiteDistribution(kind="uniform", amplitude=0.5, decay=1.0)
    a = SiteDistribution(kind="uniform", amplitude=0.2, decay=1.0)
    only_b = PerturbationModel(b_dist=b)
    both = PerturbationModel(b_dist=b, a_dist=a)
    [(_, s1)] = gamma(free_laplacian(), only_b, [0.5], 10 ** 3)
    [(_, s2)] = gamma(free_laplacian(), both, [0.5], 10 ** 3)
    assert s2 > s1


@pytest.mark.parametrize("N_max, n_decades", [(1000, 3), (12345, 5)])
def test_gamma_decades_match_whole_stream_oracle(N_max, n_decades,
                                                 monkeypatch):
    # the block walk sums the decades of randpert.decade_log_sums; N_max =
    # 12345 ends the last decade off a power of ten
    seen = []

    def spy(log_sums, threshold, window):
        seen.append(list(log_sums))
        return decade_ratios_pass(log_sums, threshold, window)

    monkeypatch.setattr(ac_criterion, "decade_ratios_pass", spy)
    spec, model = free_laplacian(), PerturbationModel(b_dist=UNIFORM)
    energies = [0.5, -1.0, 2.0, 2.6]
    a, b = spec.coefficients(N_max)
    b2 = model.b_dist.moments_array(2, N_max)
    verdicts = gamma(spec, model, energies, N_max)
    assert len(seen) == len(energies)
    for E, (member, psum), got in zip(energies, verdicts, seen):
        log_terms = np.concatenate([[-math.inf], np.log(b2[1:])
                                    + 4.0 * np.log(a[1:] + 1.0)
                                    + 2.0 * log_t2_stream(a, b, E)])
        sums = decade_log_sums(log_terms)
        assert len(sums) == n_decades
        assert got == pytest.approx(sums, rel=1e-12, abs=1e-12)
        assert member == decade_ratios_pass(sums, 0.9, 3)
        total = float(np.logaddexp.reduce(sums))
        assert psum == (math.inf if total > LOG_SAT
                        else pytest.approx(math.exp(total), rel=1e-12))


@pytest.mark.parametrize("N_max", [1000, 12345, 50000])
def test_scan_decades_do_not_depend_on_the_n_grid(N_max):
    # the pass runs over max(N_grid[-1], N_max) sites: an N-grid ending
    # before or after N_max leaves the decade sums and the Cesaro records
    # as they are without a model
    spec, model = free_laplacian(), PerturbationModel(b_dist=UNIFORM)
    energies = [float(E) for E in np.linspace(-2.6, 2.6, 12)]
    short, long = default_n_grid(12), default_n_grid(30)  # 64, 32768 sites
    scans = [cesaro_scan(spec, energies, grid, model, N_max)
             for grid in (short, long)]
    assert np.array_equal(scans[0].decades, scans[1].decades)
    for grid, scan in zip((short, long), scans):
        assert scan.reports == cesaro_scan(spec, energies, grid).reports
    assert gamma_membership(N_max, scans[0]) \
        == gamma_membership(N_max, scans[1])
    with pytest.raises(InvalidArgumentError):
        gamma_membership(N_max + 1, scans[0])
    with pytest.raises(InvalidArgumentError):  # a scan with no decade sums
        gamma_membership(N_max, cesaro_scan(spec, energies, short))


def test_scan_takes_a_model_with_its_N_max_only():
    spec, model = free_laplacian(), PerturbationModel(b_dist=UNIFORM)
    with pytest.raises(InvalidArgumentError, match="go together"):
        cesaro_scan(spec, [0.5], default_n_grid(12), model)
    with pytest.raises(InvalidArgumentError, match="go together"):
        cesaro_scan(spec, [0.5], default_n_grid(12), N_max=1000)


def test_ac_scan_chunk_builds_and_walks_its_sites_once(monkeypatch):
    # one coefficient build and one t^2 pass serve the Cesaro and the
    # decade sums of a chunk, over max(N_grid[-1], N_max) sites
    builds, passes = [], []
    coefficients = OperatorSpec.coefficients
    log_t2_blocks = ac_criterion._log_t2_blocks

    def build_spy(spec, n_max):
        builds.append(n_max)
        return coefficients(spec, n_max)

    def pass_spy(a, b, energies, stops=()):
        passes.append(len(a) - 1)
        return log_t2_blocks(a, b, energies, stops)

    monkeypatch.setattr(OperatorSpec, "coefficients", build_spy)
    monkeypatch.setattr(ac_criterion, "_log_t2_blocks", pass_spy)
    # the tiny ac-scan benchmark config: N_grid[-1] = 64, N_max = 1000
    report = harness.run({
        "experiment": "ac-scan", "spec": {"type": "free"},
        "E_grid": {"start": -2.5, "stop": 2.5, "step": 1.0},
        "grids": {"N_j_max": 12, "n_max": 1000}, "workers": 1})
    assert report.failures == [] and len(report.rows) == 6
    assert builds == [1000] and passes == [1000]


def test_gamma_requires_small_N_max_guard():
    model = PerturbationModel(b_dist=UNIFORM)
    with pytest.raises(InvalidArgumentError):
        gamma(free_laplacian(), model, [0.5], N_max=50)


# ---------------------------------------------------------------------------
# retirement: energies leave the pass once every output they owe is fixed
# ---------------------------------------------------------------------------

def scan_oracle(a, b, energies, N_grid, log_w=None, N_max=None):
    """Reports, decade sums and retirement test of cesaro_scan, per energy
    from the scalar stream and sequential log sums.

    retired(j, last) says whether energy j leaves the pass after a block
    ending at site last: its decades are summed, it reads unbounded, and
    its log sum less log N_grid[-1] is past LOG_SAT.
    """
    n_cut = N_grid[-1]
    reports, decades, lt2s = [], [], []
    for E in energies:
        lt2 = log_t2_stream(a, b, E)
        cum = np.logaddexp.accumulate(lt2[:n_cut])
        logs = [float(cum[N - 1]) - math.log(N) for N in N_grid]
        averages = [math.exp(v) if v <= LOG_SAT else math.inf for v in logs]
        reports.append(CesaroReport(
            E=E, averages=averages,
            liminf_proxy=min(x for N, x in zip(N_grid, averages)
                             if N >= n_cut / 10.0),
            bounded_flag=float(np.max(0.5 * lt2[:n_cut]))
            <= math.log(TAU_BOUND)))
        lt2s.append((lt2, cum))
        if log_w is not None:
            w = log_w[1:N_max + 1]
            with np.errstate(invalid="ignore"):
                terms = np.where(w > -math.inf, w + 2.0 * lt2[:N_max],
                                 -math.inf)
            lo = 0
            decades.append([])
            for hi in decade_ends(N_max):
                decades[-1].append(np.logaddexp.accumulate(terms[lo:hi])[-1])
                lo = hi

    def retired(j, last):
        lt2, cum = lt2s[j]
        upto = min(last, n_cut)
        return ((N_max is None or last >= N_max)
                and not float(np.max(0.5 * lt2[:upto])) <= math.log(TAU_BOUND)
                and float(cum[upto - 1]) - math.log(n_cut) > LOG_SAT)

    return reports, np.array(decades).T if decades else None, retired


def spied_scan(spec, energies, N_grid, model=None, N_max=None):
    """cesaro_scan, and (last site, lanes) of each lane call of its pass."""
    calls = []
    n_all = max(N_grid[-1], N_max or 0)

    def spy(a, b, E, prev, cur, n):
        first = n_all + 2 - len(a)  # a is a[first - 1:]
        calls.append((first + n - 2, len(E)))
        return propagate(a, b, E, prev, cur, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ac_criterion, "propagate", spy)
        scan = cesaro_scan(spec, energies, N_grid, model, N_max)
    return scan, calls


def assert_lanes_retire(calls, retired, energies, b, n_all):
    """Each lane call carries two lanes per distinct stream not yet retired.

    A stream is an energy, or |E| where b holds 0 at every site: equal
    energies share their lanes, and so do E and -E where b is 0.
    """
    stream = float if np.any(b) else abs
    live = list(range(len(energies)))
    for last, lanes in calls:
        assert lanes == 2 * len({stream(energies[j]) for j in live})
        live = [j for j in live if not retired(j, last)]
    # the pass runs to its last site unless no energy is left
    assert calls[-1][0] == n_all or not live


def random_spec(seed, n):
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.5, 2.0, n + 1), rng.uniform(-0.5, 0.5, n + 1)
    return OperatorSpec(a=lambda k: a[k], b=lambda k: b[k])


def log_weights_oracle(model, a, N_max):
    b2 = model.b_dist.moments_array(2, N_max)
    with np.errstate(divide="ignore"):
        log_w = np.log(b2) + 4.0 * np.log(a[:N_max + 1] + 1.0)
    log_w[0] = -math.inf
    return log_w


elliptic = st.floats(-1.9, 1.9)
hyperbolic = st.floats(2.1, 5.0) | st.floats(-5.0, -2.1)


@settings(max_examples=30, deadline=None)
@given(st.lists(elliptic, min_size=1, max_size=5),
       st.lists(hyperbolic, min_size=1, max_size=5),
       st.none() | st.integers(0, 2 ** 32 - 1), st.integers(16, 22),
       st.none() | st.integers(100, 3000), st.randoms())
def test_scan_with_retirement_matches_the_stream_oracle(
        ell, hyp, seed, j_max, N_max, rnd):
    # energies inside and outside the free band, on the free spec (seed
    # None) or on random coefficients; N_grid[-1] is 256 to 2048 sites
    energies = ell + hyp
    rnd.shuffle(energies)
    N_grid = default_n_grid(j_max)
    n_all = max(N_grid[-1], N_max or 0)
    spec = free_laplacian() if seed is None else random_spec(seed, n_all)
    a, b = spec.coefficients(n_all)
    model = None if N_max is None else PerturbationModel(b_dist=UNIFORM)
    log_w = None if N_max is None else log_weights_oracle(model, a, N_max)

    reports, decades, retired = scan_oracle(a, b, energies, N_grid, log_w,
                                            N_max)
    scan, calls = spied_scan(spec, energies, N_grid, model, N_max)
    assert scan.reports == reports
    if N_max is None:
        assert scan.decades is None
    else:
        assert scan.decades.tobytes() == decades.tobytes()
    assert_lanes_retire(calls, retired, energies, b, n_all)


@settings(max_examples=40, deadline=None)
@given(st.lists(elliptic | hyperbolic | st.just(0.0), min_size=1,
                max_size=5),
       st.data(), st.none() | st.integers(0, 2 ** 32 - 1),
       st.integers(14, 20), st.none() | st.integers(100, 1500))
def test_mirrored_energies_share_lanes_where_b_is_zero(
        base, data, seed, j_max, N_max):
    # E and -E (the first energy's mirror always, the others' when drawn)
    # and repeated energies, on the free spec (seed None) or on random a
    # with b = 0, or with b != 0 at one site: every report and decade
    # column is its energy's own, and the lanes are two per distinct
    # stream, |E| where b = 0 and E where it is not
    energies = [*base, -base[0]]
    for E in base[1:]:
        energies += data.draw(st.sampled_from([[], [-E], [E], [-E, E]]))
    energies = data.draw(st.permutations(energies))
    N_grid = default_n_grid(j_max)
    n_all = max(N_grid[-1], N_max or 0)
    a_tab = (np.ones(n_all + 1) if seed is None
             else np.random.default_rng(seed).uniform(0.5, 2.0, n_all + 1))
    b_tab = np.zeros(n_all + 1)
    site = data.draw(st.none() | st.sampled_from([1, n_all])
                     | st.integers(1, n_all))
    if site is not None:
        b_tab[site] = data.draw(st.sampled_from([0.3, -1e-3, 2.0 ** -40]))
    spec = OperatorSpec(a=lambda k: a_tab[k], b=lambda k: b_tab[k])
    a, b = spec.coefficients(n_all)
    model = None if N_max is None else PerturbationModel(b_dist=UNIFORM)
    log_w = None if N_max is None else log_weights_oracle(model, a, N_max)

    reports, decades, retired = scan_oracle(a, b, energies, N_grid, log_w,
                                            N_max)
    scan, calls = spied_scan(spec, energies, N_grid, model, N_max)
    alone = [cesaro_scan(spec, [E], N_grid, model, N_max) for E in energies]
    assert scan.reports == reports == [s.reports[0] for s in alone]
    if N_max is not None:
        assert scan.decades.tobytes() == decades.tobytes() == np.hstack(
            [s.decades for s in alone]).tobytes()
    assert_lanes_retire(calls, retired, energies, b, n_all)
    if site is not None:  # no two energies but equal ones share lanes
        assert calls[0][1] == 2 * len(set(energies))


def test_lanes_leave_at_the_first_block_past_N_max():
    # E = +-3 and 2.5 saturate within 512 sites, far before N_max = 1500;
    # with a model they leave after the block ending at N_max; without
    # one, after the first block past saturation, and the pass then ends
    # early, since no energy is left. On the free spec E and -E share
    # their lanes: 0.5, 3, 2.5 and 1.2 are four streams, 8 lanes
    spec, model = free_laplacian(), PerturbationModel(b_dist=UNIFORM)
    energies, N_grid = [0.5, -3.0, 3.0, 2.5, -1.2], default_n_grid(22)
    scan, calls = spied_scan(spec, energies, N_grid, model, 1500)
    assert all(n == (8 if last <= 1500 else 4) for last, n in calls)
    assert calls[-1][0] == N_grid[-1]
    assert scan.reports == cesaro_scan(spec, energies, N_grid).reports

    scan, calls = spied_scan(spec, [3.0, -3.0, 2.5], N_grid)
    # all three (two streams) leave after the block ending at 512: no
    # call follows
    assert {n for _, n in calls} == {4} and calls[-1][0] == 512
    assert [rep.averages[-1] for rep in scan.reports] == [math.inf] * 3
    assert not any(rep.bounded_flag for rep in scan.reports)


def test_lanes_never_leave_an_elliptic_grid():
    # inside the band t stays bounded: every lane runs to N_grid[-1].
    # linspace's mirror points are exact negatives in 3 of its 10 pairs
    # only: 17 distinct |E|, 34 lanes
    energies = [float(E) for E in np.linspace(-1.95, 1.95, 20)]
    N_grid = default_n_grid(30)
    _, calls = spied_scan(free_laplacian(), energies, N_grid)
    assert {lanes for _, lanes in calls} == {34}
    assert calls[-1][0] == N_grid[-1]
