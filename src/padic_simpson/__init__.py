"""Precision-tracked p-adic laboratory for the local Simpson correspondence.

Five layers:

  context/scalar   exact Q_p arithmetic with explicit precision, the p-adic
                   exponential/logarithm/Teichmuller lift, and the restricted
                   global exponential
  algebra          finite-dimensional commutative algebras via structure
                   constants: nilradical, idempotents, unit decompositions,
                   root classes, the unit-group pullback/pushout square
  higgs            small Higgs modules <-> small Z_p^d-representations,
                   spectral algebras, rank-1 twists, functoriality
  koszul           Dolbeault and continuous group cohomology via Koszul
                   complexes, and their comparison
  cli/verify       JSON instances, seeded generators, acceptance suites
"""

from .context import DEFAULT_SLACK, PrimeContext
from .errors import (
    AlgebraMismatch,
    CommutationFailure,
    ComparisonFailure,
    ContextMismatch,
    DimensionMismatch,
    DivisionByZeroToPrecision,
    IntegralStructureFailure,
    NotAUnit,
    NotConnected,
    NotSurjective,
    OutsideExpDomain,
    OutsideLogDomain,
    OutsideRepresentableDomain,
    PadicError,
    ParseError,
    PrecisionExhausted,
    ValidationError,
    ZeroResidue,
)
from .scalar import PadicScalar, big_exp, exp_scalar, log_scalar, teichmuller, val
from .matrix import PadicMatrix, expm1_quotient, mat_exp, mat_log
from .algebra import (
    AlgElement,
    FinAlgebra,
    Morphism,
    alg_exp,
    alg_log,
    exp_G,
    nilradical,
    quotient_by_ideal,
)
from .components import (
    Component,
    component_quotient,
    connected_components,
    idempotents,
)
from .unitgroup import (
    CartSquareReport,
    NilUnitDecomposition,
    RootClass,
    cart_square_check,
    decompose_unit,
    root_class_equal,
    root_class_mul,
    scalar_pk_root,
    unipotent_root,
    unit_battery,
)
from .higgs import (
    BTwist,
    HiggsModule,
    SmallRep,
    SpectralAlgebra,
    ValidationReport,
    direct_sum,
    dual,
    evaluate_rep,
    higgs_to_rep,
    make_twist,
    rep_to_higgs,
    spectral_algebra,
    tensor,
    twist_higgs,
    validate_higgs,
    validate_rep,
)
from .koszul import (
    CohomologyReport,
    ComparisonOutcome,
    KoszulComplex,
    compare_cohomology,
    group_cohomology,
    higgs_cohomology,
    koszul_unit_scaling_check,
)
from .generate import gen_commuting_units, gen_higgs, gen_rep
from .verify import SUITE_NAMES, VerifyConfig, run_verify

__version__ = "0.1.0"
