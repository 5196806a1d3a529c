"""Acceptance suite: nine numbered criteria, one printed pass/fail line each.

Every test prints `criterion N (label): PASS|FAIL detail` before asserting,
so a full run shows one status line per criterion (use pytest -s to see the
lines for passing tests too). Tolerances and runtime budgets are stated
inline next to each check.
"""

import math
import time

import numpy as np
import pytest

from helpers import (
    growth_floor_margin,
    near_superadditivity_margin,
    random_mixing_subshift,
    random_stationary_markov,
    symbol_independence_check,
)
from thermoshift.dimension import (
    bowen_dimension,
    ledrappier_young_check,
    product_construction,
)
from thermoshift.gibbs import (
    bernoulli_measure,
    finite_gibbs_nu,
    markov_measure,
    rpf_equilibrium,
    uniform_bernoulli,
    variational_defect,
    verify_gibbs,
)
from thermoshift.matrix_cocycle import MatrixFamily, max_lyapunov
from thermoshift.potentials import (
    birkhoff_potential,
    cocycle_potential,
    fiber_count_potential,
    geometric_tail,
    weighted_fullshift_potential,
    zero_potential,
)
from thermoshift.pressure import (
    curve_second_differences,
    gurevich_pressure,
    pressure_curve,
)
from thermoshift.shift_core import (
    star_cover_shift,
    star_shift,
    full_shift,
    golden_mean_shift,
    model_from_arcs,
    renewal_shift,
    truncate,
)

LOG_PHI = 0.4812118250596035
LOG2_OVER_LOG3 = math.log(2.0) / math.log(3.0)


def report(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({label}): {status} {detail}", flush=True)
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def weighted_example_potential():
    return weighted_fullshift_potential(
        lambda j: 3.0 ** (-j), lam_tail_power=geometric_tail(3.0)
    )


def test_criterion_1_rpf_oracle_equivalence():
    # 200 random mixing subshifts on <= 6 symbols with arc weights in
    # [-2, 2]; instances are conditioned on a subdominant eigenvalue ratio
    # <= 0.62 so the geometric slope error at n_max = 60 sits far below the
    # 1e-8 comparison tolerance (mixing alone does not bound the gap).
    start = time.perf_counter()
    rng = np.random.default_rng(20260813)
    worst = 0.0
    accepted = 0
    while accepted < 200:
        size = int(rng.integers(2, 7))
        mat = (rng.random((size, size)) < 0.6).astype(int)
        mat[0, :] = 1
        mat[:, 0] = 1
        weights = rng.uniform(-2.0, 2.0, (size, size))
        mags = np.sort(np.abs(np.linalg.eigvals(mat * np.exp(weights))))[::-1]
        if mags[1] / mags[0] > 0.62:
            continue
        accepted += 1
        arcs = [
            (i + 1, j + 1) for i in range(size) for j in range(size) if mat[i, j]
        ]
        model = model_from_arcs(arcs)
        p = birkhoff_potential(
            lambda i, j, w=weights: float(w[i - 1, j - 1]), model
        )
        est = gurevich_pressure(model, p, m_list=[size], n_max=60, slope_window=8)
        assert est.series.strategy == "pair"
        worst = max(worst, abs(est.value - math.log(mags[0])))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 60.0
    report(1, "rpf oracle equivalence", ok,
           f"max_err={worst:.3e} runtime={elapsed:.1f}s")


def test_criterion_2_weighted_fullshift_closed_form():
    start = time.perf_counter()
    p = weighted_example_potential()
    est = gurevich_pressure(full_shift(), p, m_list=[20], n_max=12)
    err_value = abs(est.value - math.log(0.5))
    curve = pressure_curve(
        full_shift(), p, [LOG2_OVER_LOG3], m_list=[20], n_max=12
    )
    err_root = abs(curve[0][1].value)
    elapsed = time.perf_counter() - start
    ok = err_value < 1e-3 and err_root < 1e-3 and elapsed < 10.0
    report(2, "weighted full shift closed form", ok,
           f"|P(1)+log2|={err_value:.3e} |P(t*)|={err_root:.3e} "
           f"runtime={elapsed:.1f}s")


def scalar_equation_root(rhos) -> float:
    """Bisection on sum(rho^t) = 1, independent of the package machinery."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sum(r ** mid for r in rhos) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def full_two():
    return model_from_arcs([(1, 1), (1, 2), (2, 1), (2, 2)])


def solve_both_constructions():
    gc_countable = product_construction(
        lambda a: 3.0 ** (-a), tail=geometric_tail(3.0)
    )
    res_countable = bowen_dimension(
        gc_countable, full_shift(), m_list=[20], n_max=12
    )
    gc_pair = product_construction([0.5, 0.25])
    res_pair = bowen_dimension(gc_pair, full_two(), n_max=30)
    return gc_countable, res_countable, gc_pair, res_pair


def test_criterion_3_bowen_dimension():
    start = time.perf_counter()
    _, res_countable, _, res_pair = solve_both_constructions()
    err_countable = abs(res_countable.dim_hat - LOG2_OVER_LOG3)
    t_ref = scalar_equation_root([0.5, 0.25])
    err_pair = abs(res_pair.dim_hat - t_ref)
    elapsed = time.perf_counter() - start
    ok = (
        err_countable < 1e-3
        and err_pair < 1e-6
        and res_countable.root_found
        and res_pair.root_found
        and elapsed < 30.0
    )
    report(3, "bowen dimension", ok,
           f"err_countable={err_countable:.3e} err_pair={err_pair:.3e} "
           f"runtime={elapsed:.1f}s")


def test_criterion_4_entropy_contraction_identity():
    gc_countable, res_countable, gc_pair, res_pair = solve_both_constructions()
    rep_countable = ledrappier_young_check(
        gc_countable, full_shift(), res_countable, 20
    )
    rep_pair = ledrappier_young_check(gc_pair, full_two(), res_pair, 2)
    ok = rep_countable.deviation < 1e-3 and rep_pair.deviation < 1e-3
    report(4, "entropy over contraction identity", ok,
           f"dev_countable={rep_countable.deviation:.3e} "
           f"dev_pair={rep_pair.deviation:.3e}")


def test_criterion_5_lyapunov_exponents():
    single = model_from_arcs([(1, 1)])
    sub = truncate(single, 1)
    mu = markov_measure((1,), [1.0], [[1.0]], sub)
    family = MatrixFamily(2, {1: [[2.0, 1.0], [1.0, 2.0]]})
    est = max_lyapunov(family, mu, n=500, samples=3, seed=11)
    err_single = abs(est.lambda_hat - math.log(3.0))

    scalars = {1: [[0.5]], 2: [[3.0]], 3: [[1.25]]}
    probs = {1: 0.2, 2: 0.5, 3: 0.3}
    scalar_family = MatrixFamily(1, scalars)
    mu_bernoulli = bernoulli_measure(probs)
    exact = math.fsum(q * math.log(scalars[a][0][0]) for a, q in probs.items())
    err_scalar = 0.0
    for n in (1, 7, 123, 5000):
        e = max_lyapunov(scalar_family, mu_bernoulli, n=n, samples=4, seed=2)
        err_scalar = max(err_scalar, abs(e.lambda_hat - exact))
        assert e.standard_error == 0.0
    ok = err_single < 1e-2 and err_scalar < 1e-12
    report(5, "lyapunov exponents", ok,
           f"err_single={err_single:.3e} err_scalar={err_scalar:.3e}")


def test_criterion_6_gibbs_certification():
    # exact part: uniform Bernoulli against the zero potential, with the
    # exact pressure log m, must certify with ratios identically one
    exact_ok = True
    for m in (2, 3, 5):
        sub = truncate(full_shift(), m)
        cert = verify_gibbs(
            uniform_bernoulli(m), zero_potential(full_shift()),
            math.log(m), 4, sub=sub,
        )
        exact_ok = exact_ok and cert.ratio_min == 1.0 and cert.ratio_max == 1.0

    # finite transfer-operator measures on the golden mean shift stay within
    # a spread of 3 across construction levels 4..12
    gm = golden_mean_shift()
    sub_gm = truncate(gm, 2)
    zero = zero_potential(gm)
    spreads = []
    for level in range(4, 13):
        nu = finite_gibbs_nu(sub_gm, zero, level)
        cert = verify_gibbs(nu, zero, LOG_PHI, 4, sub=sub_gm)
        spreads.append(cert.ratio_max / cert.ratio_min)
    spread_ok = all(s <= 3.0 for s in spreads)

    # equilibrium measures self-certify with depth-independent ratio bounds
    rpf_ok = True
    worst_drift = 0.0
    for sub, model, f in (
        (sub_gm, gm, lambda i, j: 0.3 * i - 0.2 * j),
        (truncate(full_shift(), 3), full_shift(),
         lambda i, j: 0.1 * i * j - 0.2 * j),
    ):
        p = birkhoff_potential(f, model)
        P, mu = rpf_equilibrium(sub, p)
        certs = [verify_gibbs(mu, p, P, d, sub=sub) for d in (3, 6)]
        rpf_ok = rpf_ok and all(c.passed for c in certs)
        worst_drift = max(
            worst_drift,
            abs(certs[0].ratio_min - certs[1].ratio_min) / certs[0].ratio_min,
            abs(certs[0].ratio_max - certs[1].ratio_max) / certs[0].ratio_max,
        )
    rpf_ok = rpf_ok and worst_drift < 1e-9

    ok = exact_ok and spread_ok and rpf_ok
    report(6, "gibbs certification", ok,
           f"exact={exact_ok} max_spread={max(spreads):.3f} "
           f"rpf_depth_drift={worst_drift:.2e}")


def test_criterion_7_variational_principle():
    rng = np.random.default_rng(424242)
    min_defect = math.inf
    worst_rpf = 0.0
    for _ in range(50):
        model, sub = random_mixing_subshift(rng)
        weights = rng.uniform(-1.5, 1.5, (sub.size, sub.size))
        f = lambda i, j, w=weights: float(w[i - 1, j - 1])
        p = birkhoff_potential(f, model)
        P, mu_rpf = rpf_equilibrium(sub, p)
        worst_rpf = max(worst_rpf, abs(variational_defect(mu_rpf, p, P, 4)))
        for _ in range(100):
            mu = random_stationary_markov(sub, rng)
            min_defect = min(min_defect, variational_defect(mu, p, P, 4))
    ok = min_defect >= -1e-9 and worst_rpf < 1e-8
    report(7, "variational principle", ok,
           f"min_defect={min_defect:.3e} rpf_defect={worst_rpf:.3e}")


def builtin_fixtures():
    gm = golden_mean_shift()
    single = model_from_arcs([(1, 1)])
    A = [[2.0, 1.0], [1.0, 2.0]]
    return [
        ("full/weighted", full_shift(), weighted_example_potential(),
         dict(m_list=[12], n_max=12)),
        ("golden_mean/zero", gm, zero_potential(gm),
         dict(m_list=[2], n_max=40)),
        ("golden_mean/birkhoff", gm,
         birkhoff_potential(lambda i, j: 0.2 * i - 0.3 * j, gm),
         dict(m_list=[2], n_max=40)),
        ("star_cover/zero", star_cover_shift(), zero_potential(star_cover_shift()),
         dict(m_list=[8], n_max=20)),
        ("renewal/zero", renewal_shift(), zero_potential(renewal_shift()),
         dict(m_list=[8], n_max=20)),
        ("single/cocycle", single,
         cocycle_potential(lambda a: np.array(A), single),
         dict(m_list=[1], n_max=30)),
    ]


def test_criterion_8_structural_lemmas():
    worst_superadd = math.inf
    worst_floor = math.inf
    bracket_ok = True
    for name, model, p, params in builtin_fixtures():
        est = gurevich_pressure(model, p, **params)
        sub = truncate(model, params["m_list"][-1])
        k = p.declared_C
        worst_superadd = min(
            worst_superadd, near_superadditivity_margin(est.series, k)
        )
        worst_floor = min(worst_floor, growth_floor_margin(est.series, sub, p))
        bracket_ok = bracket_ok and est.lower <= est.value + 1e-9
        bracket_ok = bracket_ok and est.value <= est.upper + 1e-9

    # pressure estimates from different base symbols agree
    gm = golden_mean_shift()
    deviation = symbol_independence_check(
        gm, zero_potential(gm), [1, 2], m_list=[2], n_max=40
    )

    # truncation refinement only raises the estimate
    monotone_ok = True
    for model, p, m_list, n_max in (
        (full_shift(), weighted_example_potential(), [5, 10, 20], 12),
        (star_cover_shift(), zero_potential(star_cover_shift()), [4, 8, 16], 14),
        (renewal_shift(), zero_potential(renewal_shift()), [4, 8, 16], 14),
    ):
        est = gurevich_pressure(model, p, m_list=m_list, n_max=n_max)
        values = [v for _, v in est.truncation_values]
        monotone_ok = monotone_ok and all(
            b >= a - 1e-12 for a, b in zip(values, values[1:])
        )

    # t -> P(tF) is convex on both a weighted and a cocycle fixture
    grid = [0.4 + 0.1 * k for k in range(9)]
    curve = pressure_curve(
        full_shift(), weighted_example_potential(), grid, m_list=[12], n_max=12
    )
    single = model_from_arcs([(1, 1)])
    cocycle_curve = pressure_curve(
        single,
        cocycle_potential(lambda a: np.array([[2.0, 1.0], [1.0, 2.0]]), single),
        [0.5, 1.0, 1.5, 2.0],
        m_list=[1],
        n_max=30,
    )
    convex_min = min(
        min(curve_second_differences(curve)),
        min(curve_second_differences(cocycle_curve)),
    )

    ok = (
        worst_superadd >= -1e-9
        and worst_floor >= -1e-9
        and bracket_ok
        and deviation < 1e-6
        and monotone_ok
        and convex_min >= -1e-9
    )
    report(8, "structural lemmas", ok,
           f"superadd={worst_superadd:.3e} floor={worst_floor:.3e} "
           f"brackets={bracket_ok} symbol_dev={deviation:.3e} "
           f"monotone={monotone_ok} convexity={convex_min:.3e}")


def random_star_word(rng):
    """Word 1^{n_1} i_1 ... 1^{n_l} i_l with n_k >= 1, i_k >= 2, length <= 20."""
    word = []
    ones_per_block = []
    while len(word) <= 18:
        n = int(rng.integers(1, min(4, 19 - len(word)) + 1))
        word.extend([1] * n)
        word.append(int(rng.integers(2, 7)))
        ones_per_block.append(n)
        if rng.random() < 0.3:
            break
    return tuple(word), ones_per_block


def test_criterion_9_infinite_pressure_detection():
    fiber = fiber_count_potential()
    est = gurevich_pressure(
        star_shift(), fiber,
        m_list=[8, 16, 32, 64], n_max=6, slope_window=4,
        divergence_threshold=0.25,
    )
    flag_ok = est.diverged and est.value == math.inf

    # fiber counts against the 2^l a^{sum n_k} growth law with a the golden
    # ratio; the fitted bracket constants come from sample extremes, and two
    # disjoint half-samples must agree on them within a factor 2
    a = (1.0 + math.sqrt(5.0)) / 2.0
    rng = np.random.default_rng(2024)
    residuals = []
    for _ in range(500):
        word, blocks = random_star_word(rng)
        count = fiber.preimage_word_count(word)
        predicted = len(blocks) * math.log(2.0) + sum(blocks) * math.log(a)
        residuals.append(math.log(count) - predicted)
    res = np.asarray(residuals)
    half_a, half_b = res[0::2], res[1::2]
    drift_upper = abs(float(half_a.max()) - float(half_b.max()))
    drift_lower = abs(float(half_a.min()) - float(half_b.min()))
    band = float(res.max() - res.min())
    bracket_ok = (
        drift_upper <= math.log(2.0)
        and drift_lower <= math.log(2.0)
        and band < 6.0
    )

    ok = flag_ok and bracket_ok
    report(9, "infinite pressure detection", ok,
           f"diverged={flag_ok} drift_upper={drift_upper:.3f} "
           f"drift_lower={drift_lower:.3f} band={band:.2f}")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-s", "-q"]))
