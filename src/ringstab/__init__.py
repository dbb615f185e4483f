"""Exact stabilizability analysis and controller synthesis for SISO plants
over commutative rings that lack coprime factorizations."""

from .closedloop import (
    FeedbackMatrix,
    ParamMatrixQ,
    classical_loop_family,
    controller_at,
    feedback_matrix,
    is_stable,
)
from .coprime import (
    CFKind,
    CFVerdict,
    CertKind,
    CoprimeCertificate,
    DelayBezout,
    FamilyParams,
    NonexistenceInstance,
    NonexistenceReport,
    QuadIdeal,
    Verdict,
    are_coprime,
    cf_exists,
    delay_bezout,
    generate_family_instance,
    ideal_from_gens,
    ideal_is_principal,
    principal_ideal,
    verify_nonexistence_instance,
)
from .elemfactor import (
    DelayFactorIdeals,
    DelayTrace,
    IdealTrace,
    QuadraticFactorIdeals,
    QuadraticTrace,
    Which,
    WitnessPair,
    construct_witnesses_delay,
    construct_witnesses_quadratic,
    factor_ideals,
    lambda_member,
    search_witnesses_quadratic,
)
from .exact import (
    Poly,
    QuadElem,
    ext_gcd_int,
    ext_gcd_poly,
    poly_divmod,
    poly_gcd,
    quad_norm,
)
from .rings import (
    DelayRing,
    QuadraticRing,
    RingDescriptor,
    RingElement,
    TransferFunction,
    causal_representation,
    contains,
    delay,
    divides,
    in_causality_set,
    is_causal,
    is_unit,
    parse_ring_element,
    parse_transfer_function,
    quadratic,
)
from .synthesis import (
    CoprimePairLocal,
    SynthesisConfig,
    SynthesisError,
    SynthesisResult,
    check_condition_ii,
    condition_i_solutions,
    synthesize,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
