"""Hausdorff dimension of coded limit sets via the zero of the pressure curve.

A geometric construction assigns to every admissible word the length ratio of
its interval. The dimension of the limit set is the infimum of t with
P(t log r) <= 0; for contracting ratios the pressure is convex and strictly
decreasing in t, so the infimum is located by a safeguarded secant (Illinois)
on the pressure estimate, which falls back to the midpoint where the secant
stalls.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from .gibbs import entropy_markov, lyapunov_functional, rpf_equilibrium
from .potentials import PotentialSequence, SymbolWeightPotential
from .pressure import PressureEstimate, check_estimate_params, gurevich_pressure
from .shift_core import TransitionModel, Word, symbol_lookup, truncate


@dataclass(frozen=True)
class GeometricConstruction:
    """Interval-length ratios r_w of admissible words, held as their log-ratio potential.

    potential(model) is the sequence log r_w on model, whose pressure zero is
    the dimension. Product constructions give a SymbolWeightPotential, so
    their log ratios are arc sums on the fast matrix path; general ones
    evaluate a ratio callback word by word and carry a declared
    almost-multiplicativity constant.
    """

    potential: Callable[[TransitionModel], PotentialSequence]


def product_construction(
    rho: Union[Callable[[int], float], dict, Sequence[float]],
    tail: Optional[Callable[[int, float], float]] = None,
) -> GeometricConstruction:
    """Construction with r_w equal to the product of per-symbol ratios.

    rho is a callable, or a dict or sequence read by shift_core.symbol_lookup.
    """
    lookup, _ = symbol_lookup(rho, "rho")

    def ratio(a: int) -> float:
        r = float(lookup(a))
        if not 0.0 < r < 1.0:
            raise ValueError(f"ratio for symbol {a} is {r}, not in (0, 1)")
        return r

    return GeometricConstruction(lambda model: SymbolWeightPotential(
        ratio, model, lam_tail_power=tail, name="ratio-product"
    ))


def general_construction(
    ratio_fn: Callable[[Word], float], declared_C: float
) -> GeometricConstruction:
    """Construction with an arbitrary ratio callback.

    declared_C bounds |log r_uv - log r_u - log r_v| over splits; it feeds
    the pressure brackets exactly like a potential's additivity constant.
    """
    return GeometricConstruction(
        lambda model: _GeneralRatioPotential(ratio_fn, declared_C)
    )


class _GeneralRatioPotential(PotentialSequence):
    """log r_w as a word potential for a ratio callback."""

    name = "ratio-general"

    def __init__(self, ratio_fn: Callable[[Word], float], declared_C: float):
        self.ratio_fn = ratio_fn
        self.declared_C = float(declared_C)

    def _ratio(self, word: Word) -> float:
        if not word:
            raise ValueError("ratios are defined for nonempty words")
        r = float(self.ratio_fn(word))
        if not 0.0 < r < 1.0:
            raise ValueError(f"ratio of word {word} is {r}, not in (0, 1)")
        return r

    def eval(self, word):
        return math.log(self._ratio(tuple(word)))

    def sup_f1(self, a):
        return self._ratio((a,))


@dataclass(frozen=True)
class DimensionResult:
    """Outcome of the root search on t with the final bracket and diagnostics.

    dim_hat is the first probed t whose pressure is within the solver
    tolerance of zero, and root_found says such a t was found; when none is
    (the curve jumps past zero), dim_hat is the upper bracket end, the
    infimum boundary. The bracket ends are probes with P above tol and below
    -tol (t_hi only needs P <= tol, and a root at t_lo is its own bracket).
    uncertain is set when an endpoint was classified while the pressure
    estimate's own error bracket straddled zero; probes near a genuine root
    straddle by nature and do not trip it.
    """

    dim_hat: float
    bracket: tuple[float, float]
    root_found: bool
    pressure_at_dim: float
    uncertain: bool
    trace: tuple[tuple[float, float, float, float, bool], ...]


_MAX_PROBES = 80
_SECANT_SLACK = 5


class NoStraddleError(ValueError):
    """The pressure does not change sign between the ends of t_bracket."""


def bowen_dimension(
    gc: GeometricConstruction,
    model: TransitionModel,
    t_bracket: tuple[float, float] = (0.0, 1.0),
    tol: float = 1e-8,
    evaluator: Optional[Callable[[float], PressureEstimate]] = None,
    **pressure_params,
) -> DimensionResult:
    """Locate inf{t : P(t log r) <= 0} by a safeguarded secant on the pressure value.

    tol is the pressure tolerance: a root is declared when |P| <= tol at the
    probed t. The endpoints must straddle (pressure positive at t_lo, at or
    below zero at t_hi) or a NoStraddleError reports the measured values.
    Between them the bracket (lo, hi) keeps P(lo) > tol and P(hi) < -tol
    (t_hi itself only needs P <= tol). Each probe is the regula-falsi point
    of the bracket, where an end kept by two steps in a row has its value
    halved (Illinois). The midpoint is probed instead when an end value is
    not finite, when the secant point leaves (lo, hi), or when the bracket
    is more than 2^_SECANT_SLACK = 32 times as wide as bisection alone would
    have left it, so the secant costs at most _SECANT_SLACK probes more than
    bisection to reach any width. At most _MAX_PROBES = 80 probes follow the
    two ends. The first probe with |P| <= tol gives dim_hat but is no
    bracket end: each end farther than 2h from it, h = 2 tol / |s| for the
    slope s of the chord between the ends, is closed by one probe at
    distance h, which replaces the end on its side of zero only where
    |P| > tol. `evaluator` overrides the pressure computation per t and
    takes no pressure keyword (TypeError); by default each probe runs the
    truncation estimator on the scaled ratio potential.
    """
    check_estimate_params("bowen_dimension", pressure_params)
    if evaluator is not None and pressure_params:
        names = ", ".join(map(repr, pressure_params))
        raise TypeError(f"bowen_dimension() got pressure keywords {names} beside an evaluator")
    t_lo, t_hi = float(t_bracket[0]), float(t_bracket[1])
    if not t_lo < t_hi:
        raise ValueError("t_bracket must be an increasing pair")
    if evaluator is None:
        pot = gc.potential(model)

        def evaluator(t: float) -> PressureEstimate:
            return gurevich_pressure(model, pot.scaled(t), **pressure_params)

    trace: list[tuple[float, float, float, float, bool]] = []

    def probe(t: float) -> PressureEstimate:
        est = evaluator(t)
        trace.append((t, est.value, est.lower, est.upper, est.diverged))
        return est

    def straddles(est: PressureEstimate) -> bool:
        return (
            not est.diverged
            and math.isfinite(est.lower)
            and math.isfinite(est.upper)
            and est.lower <= 0.0 <= est.upper
        )

    est_hi = probe(t_hi)
    if est_hi.value > tol:
        raise NoStraddleError(
            "bracket does not straddle: pressure at "
            f"t_hi={t_hi} is {est_hi.value}, still positive"
        )
    est_lo = probe(t_lo)
    if abs(est_lo.value) <= tol:
        return DimensionResult(
            dim_hat=t_lo,
            bracket=(t_lo, t_lo),
            root_found=True,
            pressure_at_dim=est_lo.value,
            uncertain=straddles(est_lo),
            trace=tuple(trace),
        )
    if est_lo.value < 0.0:
        raise NoStraddleError(
            "bracket does not straddle: pressure at "
            f"t_lo={t_lo} is {est_lo.value}, already negative "
            f"(t_hi gives {est_hi.value})"
        )
    uncertain = straddles(est_lo) or straddles(est_hi)

    lo, hi = t_lo, t_hi
    lo_value, hi_est = est_lo.value, est_hi
    # The secant weights: the end values, an end's halved each time it is
    # kept twice in a row. The probe at t_lo kept hi.
    w_lo, w_hi = est_lo.value, est_hi.value
    kept_lo, root = False, None
    # After k probes, bisection alone leaves budget / 2^_SECANT_SLACK.
    budget = (hi - lo) * 2.0 ** _SECANT_SLACK
    for _ in range(_MAX_PROBES):
        t = 0.5 * (lo + hi)
        if t == lo or t == hi:
            break
        budget *= 0.5
        # 0 < w_lo - w_hi < inf holds for finite weights only.
        if hi - lo <= budget and 0.0 < w_lo - w_hi < math.inf:
            secant = lo + w_lo * (hi - lo) / (w_lo - w_hi)
            if lo < secant < hi:
                t = secant
        est = probe(t)
        if abs(est.value) <= tol:
            root = (t, est)
            break
        if est.value > 0.0:
            lo, lo_value, w_lo = t, est.value, est.value
            if not kept_lo:
                w_hi *= 0.5
        else:
            hi, hi_est, w_hi = t, est, est.value
            if kept_lo:
                w_lo *= 0.5
        kept_lo = est.value < 0.0
    if root is None:
        return DimensionResult(
            dim_hat=hi,
            bracket=(lo, hi),
            root_found=False,
            pressure_at_dim=hi_est.value,
            uncertain=uncertain,
            trace=tuple(trace),
        )
    # A probe within tol of zero is no end: it may sit on either side of the
    # root. Probes h away, where the chord drops by 2 tol, close in instead.
    t_root, est_root = root
    h = 2.0 * tol * (hi - lo) / (lo_value - hi_est.value)
    for side in (-1.0, 1.0):
        end = lo if side < 0.0 else hi
        if h > 0.0 and abs(end - t_root) > 2.0 * h:
            t = t_root + side * h
            est = probe(t)
            if est.value > tol:
                lo = t
            elif est.value < -tol:
                hi = t
    return DimensionResult(
        dim_hat=t_root,
        bracket=(lo, hi),
        root_found=True,
        pressure_at_dim=est_root.value,
        uncertain=uncertain,
        trace=tuple(trace),
    )


@dataclass(frozen=True)
class LedrappierYoungReport:
    """Dimension against entropy over contraction at the pressure zero."""

    lhs: float
    rhs: float
    deviation: float
    entropy: float
    exponent: float


def ledrappier_young_check(
    gc: GeometricConstruction,
    model: TransitionModel,
    dim_result: DimensionResult,
    truncation: int,
) -> LedrappierYoungReport:
    """Compare dim_hat with -h(mu)/Lambda(mu) at the equilibrium measure.

    mu is the transfer-matrix equilibrium of dim_hat * log rho on the given
    truncation (product constructions only, whose potential has pair
    structure); Lambda is its mean log contraction, which must be negative.
    """
    p = gc.potential(model)
    if p.pair_structure() is None:
        raise ValueError("the identity check supports product constructions only")
    if not dim_result.root_found:
        raise ValueError("the identity check needs a located pressure root")
    sub = truncate(model, truncation)
    t_star = dim_result.dim_hat
    _, mu = rpf_equilibrium(sub, p.scaled(t_star))
    h = entropy_markov(mu)
    lam = lyapunov_functional(mu, p, 8, sub)
    if lam >= 0.0:
        raise ValueError(f"mean log contraction is {lam}, ratios must contract")
    rhs = -h / lam
    return LedrappierYoungReport(
        lhs=t_star,
        rhs=rhs,
        deviation=abs(t_star - rhs),
        entropy=h,
        exponent=lam,
    )
