"""Thermodynamic formalism for almost-additive potentials on countable Markov shifts.

The package is organized bottom-up:

- ``shift_core``: transition models, finite truncations, mixing and
  big-images-preimages checks.
- ``potentials``: almost-additive potential sequences (Birkhoff sums,
  weighted full shifts, matrix cocycles, fiber counts) and their
  regularity/summability validators.
- ``pressure``: Gurevich pressure via truncated partition functions, with
  certified lower/upper brackets and divergence detection.
- ``gibbs``: cylinder measures, transfer-operator equilibrium states on
  finite truncations, Gibbs-inequality certification, entropy and the
  variational defect.
- ``matrix_cocycle``: norm potentials of matrix products, Lyapunov
  exponents by Monte Carlo over Markov measures, cocycle pressure curves.
- ``dimension``: Bowen-type dimension of geometric constructions by a
  safeguarded secant on the pressure equation, with a Ledrappier-Young
  cross-check.
- ``modelfile`` / ``cli``: JSON model files and the batch front-end.

Fixed limits are module constants: ``dimension._MAX_PROBES`` = 80 and
``_SECANT_SLACK`` = 5, ``numerics._PERRON_MAX_ITER`` = 500 000,
``gibbs._MEASURE_TOL`` = 1e-9, and the
probes ``potentials._CONE_PROBE`` = 16
(a callable matrix family's cone) and ``_SUMMABILITY_PROBE`` = 64 symbols.
The tests' closed-form oracles live in tests/helpers.py.
"""

from thermoshift.dimension import (
    DimensionResult,
    GeometricConstruction,
    LedrappierYoungReport,
    bowen_dimension,
    general_construction,
    ledrappier_young_check,
    product_construction,
)
from thermoshift.gibbs import (
    GibbsCertificate,
    MarkovCylinderMeasure,
    MeasureKindError,
    bernoulli_measure,
    entropy_markov,
    finite_gibbs_nu,
    lyapunov_functional,
    markov_measure,
    rpf_equilibrium,
    uniform_bernoulli,
    variational_defect,
    verify_gibbs,
)
from thermoshift.matrix_cocycle import (
    LyapunovEstimate,
    MatrixFamily,
    cocycle_pressure,
    entry_sum_norm,
    log_norm_of_path,
    max_lyapunov,
)
from thermoshift.modelfile import ModelFileError, load_model_file
from thermoshift.potentials import (
    BirkhoffPotential,
    PotentialSequence,
    SymbolWeightPotential,
    check_cone_condition,
    cocycle_potential,
    estimate_regularity,
    fiber_count_potential,
    geometric_tail,
    summability_report,
    weighted_fullshift_potential,
    zero_potential,
)
from thermoshift.pressure import (
    PressureEstimate,
    gurevich_pressure,
    pressure_curve,
)
from thermoshift.shift_core import (
    MODEL_REGISTRY,
    FiniteSubshift,
    TransitionModel,
    check_bip,
    check_mixing,
    full_shift,
    golden_mean_shift,
    is_admissible,
    model_from_arcs,
    renewal_shift,
    star_cover_shift,
    star_shift,
    truncate,
)

__version__ = "0.1.0"

__all__ = [
    "BirkhoffPotential",
    "DimensionResult",
    "FiniteSubshift",
    "GeometricConstruction",
    "GibbsCertificate",
    "LedrappierYoungReport",
    "LyapunovEstimate",
    "MODEL_REGISTRY",
    "MarkovCylinderMeasure",
    "MatrixFamily",
    "MeasureKindError",
    "ModelFileError",
    "PotentialSequence",
    "PressureEstimate",
    "SymbolWeightPotential",
    "TransitionModel",
    "bernoulli_measure",
    "bowen_dimension",
    "check_bip",
    "check_cone_condition",
    "check_mixing",
    "cocycle_potential",
    "cocycle_pressure",
    "entropy_markov",
    "entry_sum_norm",
    "estimate_regularity",
    "fiber_count_potential",
    "finite_gibbs_nu",
    "full_shift",
    "general_construction",
    "geometric_tail",
    "golden_mean_shift",
    "gurevich_pressure",
    "is_admissible",
    "ledrappier_young_check",
    "load_model_file",
    "log_norm_of_path",
    "lyapunov_functional",
    "markov_measure",
    "max_lyapunov",
    "model_from_arcs",
    "pressure_curve",
    "product_construction",
    "renewal_shift",
    "rpf_equilibrium",
    "star_cover_shift",
    "star_shift",
    "summability_report",
    "truncate",
    "uniform_bernoulli",
    "variational_defect",
    "verify_gibbs",
    "weighted_fullshift_potential",
    "zero_potential",
]
