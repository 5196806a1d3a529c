"""Tests for geometric constructions and the pressure-zero dimension solver.

The scalar equation sum(rho_i^t) = 1 solved by plain interval bisection is
the oracle for every product construction; the countable case is checked
against the geometric-series closed form log2/log3.
"""

import math

import pytest

from thermoshift.dimension import (
    DimensionResult,
    bowen_dimension,
    general_construction,
    ledrappier_young_check,
    product_construction,
)
from thermoshift.potentials import estimate_regularity, geometric_tail
from thermoshift.pressure import PressureEstimate
from thermoshift.shift_core import full_shift, golden_mean_shift, model_from_arcs

LOG2_OVER_LOG3 = math.log(2.0) / math.log(3.0)
PHI = (1.0 + math.sqrt(5.0)) / 2.0


def full_two() -> object:
    return model_from_arcs([(1, 1), (1, 2), (2, 1), (2, 2)])


def scalar_root(rhos) -> float:
    """Bisection on sum(rho^t) = 1, independent of the package machinery."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sum(r ** mid for r in rhos) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- construction validation ------------------------------------------------------

def test_construction_validates_ratios():
    p = product_construction([0.5, 0.25]).potential(full_two())
    assert math.exp(p.eval((1, 2))) == pytest.approx(0.125, abs=1e-15)
    assert p.eval((2, 2)) == pytest.approx(math.log(1.0 / 16.0), abs=1e-12)
    with pytest.raises(ValueError, match="ratio for symbol 1 is 1.5, not in"):
        product_construction({1: 1.5}).potential(full_two()).eval((1,))
    general = general_construction(lambda w: 0.5 ** len(w), declared_C=0.0)
    with pytest.raises(ValueError, match="nonempty"):
        general.potential(full_two()).eval(())
    bad = general_construction(lambda w: 2.0, declared_C=0.0)
    with pytest.raises(ValueError, match="not in"):
        bad.potential(full_two()).sup_f1(1)


def test_general_construction_matches_product_when_multiplicative():
    gc = general_construction(
        lambda w: math.prod(0.5 if a == 1 else 0.25 for a in w), declared_C=0.0
    )
    p = gc.potential(full_two())
    assert math.exp(p.eval((1, 2, 1))) == pytest.approx(0.5 * 0.25 * 0.5, abs=1e-15)
    report = estimate_regularity(p, full_two(), depth=8, samples=60, truncation=2)
    assert report.C_hat <= 1e-12


# -- dimension solver ----------------------------------------------------------------

def test_middle_third_cantor_dimension():
    res = bowen_dimension(product_construction([1 / 3, 1 / 3]), full_two(), n_max=30)
    assert abs(res.dim_hat - LOG2_OVER_LOG3) < 1e-4
    assert res.root_found
    assert not res.uncertain
    assert abs(res.pressure_at_dim) <= 1e-8
    assert res.bracket[0] <= res.dim_hat <= res.bracket[1]


def test_countable_geometric_ratios_and_monotone_truncation():
    gc = product_construction(lambda a: 3.0 ** (-a), tail=geometric_tail(3.0))
    dims = []
    for m in (5, 10, 20):
        res = bowen_dimension(gc, full_shift(), m_list=[m], n_max=12)
        assert res.root_found
        dims.append(res.dim_hat)
    assert abs(dims[-1] - LOG2_OVER_LOG3) < 1e-3
    assert dims == sorted(dims)


def test_single_ratio_half_degenerates_to_zero():
    res = bowen_dimension(
        product_construction({1: 0.5}), model_from_arcs([(1, 1)]), n_max=20
    )
    assert res.dim_hat == 0.0
    assert res.root_found
    assert res.pressure_at_dim == 0.0
    assert res.bracket == (0.0, 0.0)


def test_two_ratio_root_matches_scalar_oracle():
    t_star = scalar_root([0.5, 0.25])
    res = bowen_dimension(product_construction([0.5, 0.25]), full_two(), n_max=30)
    assert abs(res.dim_hat - t_star) < 1e-6
    assert res.root_found


def test_natural_cover_sums_vanish_above_dimension():
    gc = product_construction(lambda a: 3.0 ** (-a), tail=geometric_tail(3.0))
    res = bowen_dimension(gc, full_shift(), m_list=[20], n_max=12)
    t_plus = res.dim_hat + 0.05
    p = gc.potential(full_shift())
    per_level = math.fsum(p.sup_f1(a) ** t_plus for a in range(1, 21))
    assert per_level < 1.0
    covers = [per_level ** n for n in (8, 32, 96)]
    assert covers == sorted(covers, reverse=True)
    assert covers[-1] < 1e-3


def test_markov_constrained_construction_root_is_log_phi_over_log_3():
    res = bowen_dimension(
        product_construction([1 / 3, 1 / 3]),
        golden_mean_shift(),
        m_list=[2],
        n_max=40,
    )
    assert res.root_found
    # The weighted golden-mean matrix [[x, x], [x, 0]] has spectral radius
    # x * phi, so the pressure zero sits at 3^-t = 1/phi.
    assert abs(res.dim_hat - math.log(PHI) / math.log(3.0)) < 1e-6


def test_bracket_errors_report_measured_pressures():
    with pytest.raises(ValueError, match="already negative"):
        bowen_dimension(
            product_construction({1: 0.5}),
            model_from_arcs([(1, 1)]),
            t_bracket=(0.5, 1.0),
            n_max=10,
        )
    with pytest.raises(ValueError, match="still positive"):
        bowen_dimension(
            product_construction([0.9, 0.9]),
            full_two(),
            t_bracket=(0.0, 0.3),
            n_max=10,
        )
    with pytest.raises(ValueError, match="increasing pair"):
        bowen_dimension(product_construction([0.5]), full_two(), t_bracket=(1.0, 0.0))


def test_jump_without_root_reports_infimum_boundary():
    def fake(t: float) -> PressureEstimate:
        if t < 0.6:
            return PressureEstimate(
                math.inf, math.inf, math.inf, 8, 6, 1, (),
                False, True, True, ((8, math.inf),), None,
            )
        v = -0.5 - (t - 0.6)
        return PressureEstimate(
            v, v - 0.01, v + 0.01, 8, 6, 1, (),
            True, True, False, ((8, v),), None,
        )

    res = bowen_dimension(
        product_construction([1 / 3, 1 / 3]), full_two(), evaluator=fake
    )
    assert not res.root_found
    assert res.dim_hat == pytest.approx(0.6, abs=1e-9)
    assert res.pressure_at_dim <= -0.5
    assert res.bracket[0] <= res.dim_hat <= res.bracket[1]
    assert res.trace[-1][0] == res.bracket[1] or res.trace[-1][0] == res.bracket[0]


def test_evaluator_takes_no_pressure_keywords():
    probes = []

    def ev(t: float) -> PressureEstimate:
        probes.append(t)
        raise AssertionError("probed")

    with pytest.raises(TypeError, match=r"^bowen_dimension\(\).*'m_list', 'n_max'"):
        bowen_dimension(product_construction([1 / 3, 1 / 3]), full_shift(), evaluator=ev,
                        m_list=[64], n_max=3)
    assert probes == []


def test_trace_records_every_probe():
    res = bowen_dimension(product_construction([1 / 3, 1 / 3]), full_two(), n_max=20)
    assert len(res.trace) >= 3
    assert res.trace[0][0] == 1.0
    assert res.trace[1][0] == 0.0
    for t, value, lower, upper, diverged in res.trace:
        if not diverged:
            assert lower <= value + 1e-12
            assert value <= upper + 1e-12


# -- solver cost and bracket ----------------------------------------------------------

GEOMETRIC = product_construction(lambda a: 3.0 ** (-a), tail=geometric_tail(3.0))

SOLVER_CASES = {
    "cantor": (product_construction([1 / 3, 1 / 3]), full_two(), {"n_max": 30}),
    "two_ratio": (product_construction([0.5, 0.25]), full_two(), {"n_max": 30}),
    "golden_mean": (product_construction([1 / 3, 1 / 3]), golden_mean_shift(),
                    {"m_list": [2], "n_max": 40}),
    "geometric_m5": (GEOMETRIC, full_shift(), {"m_list": [5], "n_max": 12}),
    "geometric_m20": (GEOMETRIC, full_shift(), {"m_list": [20], "n_max": 12}),
    "geometric_m16_32": (GEOMETRIC, full_shift(), {"m_list": [16, 32], "n_max": 30}),
}


def fake_estimate(v: float) -> PressureEstimate:
    return PressureEstimate(
        v, v - 1e-3, v + 1e-3, 8, 6, 1, (),
        True, True, False, ((8, v),), None,
    )


def bisection_probes(pressure, lo: float, hi: float, tol: float = 1e-8) -> int:
    """Probes plain bisection spends on the same stopping rule: two ends, then midpoints."""
    probes = 2
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return probes
        probes += 1
        value = pressure(mid)
        if abs(value) <= tol:
            return probes
        if value > 0.0:
            lo = mid
        else:
            hi = mid


def assert_bracket_invariant(res: DimensionResult, tol: float = 1e-8) -> None:
    values = {t: value for t, value, *_ in res.trace}
    lo, hi = res.bracket
    assert lo in values and hi in values
    assert values[lo] > tol
    assert values[hi] < -tol
    assert lo <= res.dim_hat <= hi


@pytest.mark.parametrize("case, budget", [
    ("cantor", 6), ("golden_mean", 8), ("geometric_m20", 14),
])
def test_probe_budget(case, budget):
    gc, model, params = SOLVER_CASES[case]
    res = bowen_dimension(gc, model, **params)
    assert res.root_found
    assert len(res.trace) <= budget


@pytest.mark.parametrize("case", sorted(SOLVER_CASES))
def test_bracket_ends_are_probes_beyond_the_tolerance(case):
    gc, model, params = SOLVER_CASES[case]
    res = bowen_dimension(gc, model, **params)
    assert res.root_found
    assert_bracket_invariant(res)


def test_cantor_root_and_bracket_at_tight_tolerance():
    res = bowen_dimension(
        product_construction([1 / 3, 1 / 3]), full_two(), tol=1e-9, n_max=30
    )
    assert abs(res.dim_hat - LOG2_OVER_LOG3) < 1e-14
    assert res.bracket[0] <= LOG2_OVER_LOG3 <= res.bracket[1]
    assert_bracket_invariant(res, tol=1e-9)


@pytest.mark.parametrize("name, pressure", [
    # Flat at its root: the secant creeps along the tangent.
    ("cubic", lambda t: (0.4 - t) ** 3 + 1e-12),
    # Slopes -100 and -1 meet at the root: chords across the kink undershoot.
    ("kink", lambda t: (0.3 - t) * (100.0 if t < 0.3 else 1.0)),
])
def test_stalling_secant_costs_at_most_ten_probes_over_bisection(name, pressure):
    res = bowen_dimension(
        product_construction([1 / 3, 1 / 3]), full_two(),
        evaluator=lambda t: fake_estimate(pressure(t)),
    )
    assert res.root_found
    assert abs(res.pressure_at_dim) <= 1e-8
    assert_bracket_invariant(res)
    assert len(res.trace) <= bisection_probes(pressure, 0.0, 1.0) + 10


# -- entropy over contraction identity ------------------------------------------------

def test_identity_for_countable_geometric():
    gc = product_construction(lambda a: 3.0 ** (-a), tail=geometric_tail(3.0))
    res = bowen_dimension(gc, full_shift(), m_list=[20], n_max=12)
    rep = ledrappier_young_check(gc, full_shift(), res, 20)
    assert rep.deviation < 1e-3
    # The equilibrium weights are a truncated Bernoulli(2^-i), so entropy and
    # contraction approach 2 log 2 and -2 log 3.
    assert rep.entropy == pytest.approx(2.0 * math.log(2.0), abs=1e-3)
    assert rep.exponent == pytest.approx(-2.0 * math.log(3.0), abs=1e-3)


def test_identity_exact_for_symmetric_pair():
    gc = product_construction([1 / 3, 1 / 3])
    res = bowen_dimension(gc, full_two(), n_max=30)
    rep = ledrappier_young_check(gc, full_two(), res, 2)
    assert rep.entropy == pytest.approx(math.log(2.0), abs=1e-12)
    assert rep.exponent == pytest.approx(-math.log(3.0), abs=1e-12)
    assert rep.rhs == pytest.approx(LOG2_OVER_LOG3, abs=1e-9)
    assert rep.deviation < 1e-6


def test_identity_for_asymmetric_pair():
    gc = product_construction([0.5, 0.25])
    res = bowen_dimension(gc, full_two(), n_max=30)
    rep = ledrappier_young_check(gc, full_two(), res, 2)
    assert rep.deviation < 1e-6


def test_identity_check_requires_root_and_product_kind():
    gc = product_construction([1 / 3, 1 / 3])
    res = bowen_dimension(gc, full_two(), n_max=30)
    general = general_construction(lambda w: 0.5 ** len(w), declared_C=0.0)
    with pytest.raises(ValueError, match="product"):
        ledrappier_young_check(general, full_two(), res, 2)
    no_root = DimensionResult(
        dim_hat=res.dim_hat,
        bracket=res.bracket,
        root_found=False,
        pressure_at_dim=res.pressure_at_dim,
        uncertain=False,
        trace=(),
    )
    with pytest.raises(ValueError, match="root"):
        ledrappier_young_check(gc, full_two(), no_root, 2)
