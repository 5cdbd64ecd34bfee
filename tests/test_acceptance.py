"""Acceptance gate: one test per criterion, one pass/fail line each.

Every test times itself against its stated budget and prints a single
summary line; the assertion fires after the line is printed so the
verdicts are visible even on failure (run with ``pytest -s``).
"""

import math
import time

import numpy as np

from jacobilab.core import OperatorSpec, free_laplacian, solve_forward
from jacobilab.harness import emit, run
from jacobilab.randpert import (
    PerturbationModel,
    SiteDistribution,
    maximal_inequality_check,
    sample,
    series_convergence_check,
)
from jacobilab.sparse import (
    SparseSpec,
    block_matrices,
    perturbed_sparse_experiment,
    s_threshold,
    sparse_propagate,
)
from jacobilab.subordinacy import default_l_grid, detect_subordinate, solve_pair
from jacobilab.variation import (
    correction_ensemble,
    neumann_layers,
    subordinate_generator_array,
)
from oracles import (
    a_tilde_draw,
    conjugated_generators,
    correction_recursion,
    diagonal_generator_array,
    k_conjugate,
    naive_power,
    neumann_series,
    perturbed_spec,
    single_step,
    spectral_norm,
    transfer_product,
    wronskian,
)

GOLDEN_RATE = (3.0 + math.sqrt(5.0)) / 2.0
UNIFORM = SiteDistribution(kind="uniform", amplitude=1.0, decay=1.0)


def verdict(num: int, name: str, ok: bool, t0: float, budget: float) -> None:
    dt = time.monotonic() - t0
    in_budget = dt <= budget
    status = "PASS" if (ok and in_budget) else "FAIL"
    print(f"criterion {num:2d} [{status}] {name} ({dt:.1f}s / {budget:.0f}s)")
    assert ok and in_budget


def tame_spec(rng):
    n_cache = 256
    a = 0.5 + rng.random(n_cache)
    b = 0.5 * rng.standard_normal(n_cache)
    return OperatorSpec(a=lambda n: float(a[n % n_cache]) if n > 0 else 1.0,
                        b=lambda n: float(b[n % n_cache]))


def random_unimodular(rng):
    a = rng.standard_normal()
    a = a if abs(a) > 0.2 else 1.0
    b, c = rng.standard_normal(2)
    return np.array([[a, b], [c, (1.0 + b * c) / a]])


def max_abs(X):
    return float(np.abs(X).max())


def test_criterion_01_algebraic_identities():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    ok = True
    # det telescoping: det T(n) = 1 / a(n), 1000 random tame specs
    for _ in range(1000):
        spec = tame_spec(rng)
        E = rng.uniform(-2.0, 2.0)
        n = int(rng.integers(5, 30))
        T = transfer_product(spec, E, n)
        ok &= abs(np.linalg.det(T) - 1.0 / spec.a_at(n)) <= 1e-9 * max(
            1.0, max_abs(T) ** 2)
    # factorization T_w = T_0 D, 1000 random realizations (free base)
    spec = free_laplacian()
    model = PerturbationModel(b_dist=UNIFORM, exp_id="acc1")
    for i in range(1000):
        E = rng.uniform(-1.5, 1.5)
        bt = sample(model, i, 20)
        D = correction_recursion(spec, bt, E, 20)[-1].D
        T0 = transfer_product(spec, E, 20)
        Tw = transfer_product(perturbed_spec(spec, bt), E, 20)
        ok &= max_abs(T0 @ D - Tw) <= 1e-9 * max(1.0, max_abs(Tw))
    # generator identities, 1000 random unimodular T
    for _ in range(1000):
        T = random_unimodular(rng)
        U, V, W = conjugated_generators(T)
        tol = 1e-12 * max(1.0, spectral_norm(T) ** 4)
        ok &= max_abs(U @ U) <= tol
        ok &= max_abs(V @ V - np.eye(2)) <= tol
        ok &= max_abs(W @ W - W) <= tol
    # conjugated one-step unimodularity with a- and b-noise, 1000 sites
    bt = sample(PerturbationModel(b_dist=UNIFORM, exp_id="acc1ab"), 7, 1000)
    at = a_tilde_draw(SiteDistribution(kind="uniform", amplitude=0.3,
                                       decay=1.0), "acc1ab", 7, 1000)
    for n in range(1, 1001):
        E = rng.uniform(-1.5, 1.5)
        S = k_conjugate(spec, bt, E, n, at)
        ok &= abs(np.linalg.det(S) - 1.0) <= 1e-10
    # Wronskian of the canonical pair, 1000 random (theta, E)
    coefficients = spec.coefficients(25)
    for _ in range(1000):
        E = rng.uniform(-2.0, 2.0)
        theta = rng.uniform(-math.pi / 2, math.pi / 2 - 1e-9)
        phi1, phi2 = solve_pair(*coefficients, E, theta, 25)
        ok &= all(abs(wronskian(phi1, phi2, n) - 1.0) <= 1e-9
                  for n in (1, 12, 25))
    verdict(1, "algebraic identity suite", ok, t0, 30.0)


def test_criterion_02_fast_power_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(100):
        E = rng.uniform(-1.999, 1.999)
        m = int(rng.integers(1, 10 ** 4 + 1))
        # the first gap of gamma = m + 1 is m free steps long
        gap = SparseSpec(v=0.0, gamma=m + 1, j_max=1)
        fast = np.reshape(block_matrices(gap, E)[0][:4], (2, 2))
        naive = naive_power(single_step(E, 0.0, 1.0, 1.0), m)
        ok &= max_abs(fast - naive) <= 1e-10 * max(1.0, max_abs(naive))
    # sparse block propagation vs dense site-by-site recursion
    s = SparseSpec(v=0.2, gamma=4, j_max=6)
    for E, theta in ((0.3, 0.1), (0.6, 0.4), (1.2, -0.7)):
        prop = sparse_propagate(s, theta, block_matrices(s, E))
        n = s.bump_sites[-1] + 1
        phi = solve_forward(*s.coefficients(n), E,
                            -math.sin(theta), math.cos(theta), n)
        for j, nj in enumerate(s.bump_sites):
            naive_amp = math.hypot(phi[nj], phi[nj - 1])
            ok &= abs(prop.amp1[j] - naive_amp) <= 1e-9 * naive_amp
    verdict(2, "fast-power oracle equivalence", ok, t0, 20.0)


def test_criterion_03_exact_maximal_inequality():
    t0 = time.monotonic()
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(20):
        N2 = int(rng.integers(3, 17))
        N1 = int(rng.integers(1, N2))
        r = float(rng.uniform(0.8, 4.0))
        decay = float(rng.choice([0.0, 0.5, 1.0]))
        model = PerturbationModel(b_dist=SiteDistribution(
            kind="rademacher", amplitude=1.0, decay=decay), exp_id="acc3")
        rep = maximal_inequality_check(model, N1, N2, r, trials=10 ** 4,
                                       seed=0)
        ok &= rep.exact
        ok &= rep.empirical_prob <= rep.bound + 1e-12  # zero slack
    verdict(3, "exact-mode maximal inequality", ok, t0, 10.0)


def test_criterion_04_tail_second_moment():
    t0 = time.monotonic()
    rep = series_convergence_check(uniform_model(), 100,
                                   trials=10 ** 4, n_max=10 ** 4, seed=0)
    bound = math.pi ** 2 / 18.0 + 3.0 * rep.tail_second_moment_se
    ok = rep.tail_second_moment <= bound
    verdict(4, "random-series tail second moment", ok, t0, 10.0)


def uniform_model():
    return PerturbationModel(b_dist=UNIFORM, exp_id="acc4")


def test_criterion_05_correction_cauchy_and_martingale():
    t0 = time.monotonic()
    spec = free_laplacian()
    model = PerturbationModel(b_dist=UNIFORM, exp_id="acc5")
    base = [1000, 2500, 6300, 16000, 40000]
    cps = sorted(set(base) | {2 * c for c in base} | {10 ** 4})
    ok = True
    for E in (0.3, 0.5, 1.1):
        snaps = correction_ensemble(spec, model, E, range(200), cps)
        med = []
        for c in base:
            i, j = cps.index(c), cps.index(2 * c)
            dev = np.linalg.norm(snaps[:, j] - snaps[:, i], axis=(1, 2))
            med.append(float(np.median(dev)))
        slope = float(np.polyfit(np.log(base), np.log(med), 1)[0])
        ok &= slope <= -0.3
        # martingale mean: E D(10^4) = I entrywise within 4 standard errors
        k = cps.index(10 ** 4)
        mean = snaps[:, k].mean(axis=0)
        se = snaps[:, k].std(axis=0) / math.sqrt(snaps.shape[0])
        ok &= bool(np.all(np.abs(mean - np.eye(2)) <= 4.0 * se + 1e-12))
    verdict(5, "correction-matrix convergence", ok, t0, 180.0)


def test_criterion_06_neumann_construction():
    t0 = time.monotonic()
    spec = free_laplacian()
    E, n_max = 0.5, 4000
    u_arr = diagonal_generator_array(spec, E, n_max)
    model = PerturbationModel(b_dist=UNIFORM, exp_id="acc6")
    rep = neumann_series(model, u_arr, lambda n: 1.0, 0, seeds=range(60))
    ok = rep.contraction_ok
    m, se = rep.layer_moments, rep.layer_moment_se
    for k in range(len(m) - 1):
        if math.isnan(m[k + 1]) or m[k + 1] == 0.0:
            break
        ok &= m[k + 1] <= 0.5 * m[k] + 3.0 * se[k + 1]
    # d+ reconstruction against the definitional correction path:
    # both satisfy the same one-site recursion, so d+(n) = D(n) d+(0);
    # the rows are those of u_arr's canonical pair
    a, b = spec.coefficients(400)
    rows = subordinate_generator_array(solve_forward(a, b, E, 0.0, 1.0, 400),
                                       solve_forward(a, b, E, 1.0, 0.0, 400),
                                       0, 400)
    errs = []
    for seed in range(20):
        bt = sample(model, seed, 400)
        d_plus = neumann_layers(bt, rows, 0, range(401))[0][:, :, 1]
        D = correction_recursion(spec, bt, E, 400)[-1].D
        recon = D @ d_plus[0]
        errs.append(np.linalg.norm(d_plus[400] - recon)
                    / max(np.linalg.norm(d_plus[400]), 1e-300))
    ok &= float(np.median(errs)) <= 0.05
    verdict(6, "iterated tail-sum construction", ok, t0, 120.0)


def test_criterion_07_sparse_envelope_stability():
    t0 = time.monotonic()
    sspec = SparseSpec(v=0.2, gamma=8, j_max=30)
    E = 0.6
    pilot = perturbed_sparse_experiment(sspec, 1.0, [0], E, n_cut=10 ** 5)
    # clamp the fitted exponents into the admissible domain: tiny negative
    # values are finite-sample wiggle around a nonnegative true exponent
    b1 = max(0.0, pilot.fit_unpert.beta1_hat)
    b2 = max(b1, pilot.fit_unpert.beta2_hat)
    s = s_threshold(b1, b2) + 1.0
    rep = perturbed_sparse_experiment(sspec, s, range(50), E,
                                      n_cut=10 ** 5)
    ok = rep.max_median_diff <= 0.05
    ok &= rep.sandwich_ok
    verdict(7, "sparse envelope stability", ok, t0, 240.0)


def test_criterion_08_threshold_arithmetic():
    t0 = time.monotonic()
    ok = True
    for b1 in np.linspace(0.0, 0.45, 10):
        for b2 in np.linspace(0.0, 0.45, 10):
            lo, hi = min(b1, b2), max(b1, b2)
            expect = 4.0 * hi / (1.0 - 2.0 * hi) - 2.0 * lo + 0.5
            ok &= abs(s_threshold(lo, hi) - expect) <= 1e-12
    verdict(8, "threshold arithmetic", ok, t0, 5.0)


def test_criterion_09_subordinacy_sanity():
    t0 = time.monotonic()
    spec = free_laplacian()
    res = detect_subordinate(spec, 3.0, default_l_grid(1e4, 4))
    ok = res.classification != "no-subordinate"
    # fitted decay rate of the L-norm ratio over the clean window (before
    # the double-precision shooting floor), slope of log-ratio in L
    Ls, ratio = np.array(res.ratio_trace).T
    logr = np.log(ratio)
    mask = (logr > logr[-1] + math.log(3.0)) & (Ls > 5.0)
    rate = math.exp(-float(np.polyfit(Ls[mask], logr[mask], 1)[0]))
    ok &= abs(rate - GOLDEN_RATE) <= 0.02 * GOLDEN_RATE
    res0 = detect_subordinate(spec, 0.0, default_l_grid(1e4, 4))
    ok &= res0.classification == "no-subordinate"
    verdict(9, "subordinacy sanity", ok, t0, 20.0)


def test_criterion_10_byte_determinism(tmp_path):
    t0 = time.monotonic()
    cfg = {"experiment": "ac-scan", "E_grid": [0.4, 1.3, 2.5],
           "grids": {"N_j_max": 20, "n_max": 1000}}
    emit(run(dict(cfg)), str(tmp_path / "a"))
    emit(run(dict(cfg)), str(tmp_path / "b"))
    ok = (tmp_path / "a" / "ac-scan.csv").read_bytes() == \
        (tmp_path / "b" / "ac-scan.csv").read_bytes()
    cfg2 = {"experiment": "subordinacy", "E_grid": [0.6],
            "grids": {"L_max": 1000.0, "L_decades": 3}}
    emit(run(dict(cfg2)), str(tmp_path / "c"))
    emit(run(dict(cfg2)), str(tmp_path / "d"))
    ok &= (tmp_path / "c" / "subordinacy.csv").read_bytes() == \
        (tmp_path / "d" / "subordinacy.csv").read_bytes()
    verdict(10, "byte-identical re-runs", ok, t0, 60.0)
