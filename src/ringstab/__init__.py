"""Exact stabilizability analysis and controller synthesis for SISO plants
over commutative rings that lack coprime factorizations."""

from .closedloop import (
    FeedbackMatrix,
    ParamMatrixQ,
    classical_loop_family,
    extract_controller,
    feedback_matrix,
    is_stable,
)
from .coprime import (
    CFKind,
    CFVerdict,
    CertKind,
    CoprimeCertificate,
    DelayBezout,
    FactorIdeals,
    FamilyParams,
    NonexistenceInstance,
    NonexistenceReport,
    QuadIdeal,
    Verdict,
    are_coprime,
    cf_exists,
    delay_bezout,
    factor_ideals,
    generate_family_instance,
    ideal_from_gens,
    ideal_is_principal,
    principal_ideal,
    verify_nonexistence_instance,
)
from .elemfactor import (
    DelayTrace,
    IdealTrace,
    LambdaSet,
    QuadraticTrace,
    ReciprocalTrace,
    Which,
    WitnessPair,
    construct_witnesses_delay,
    construct_witnesses_quadratic,
    lambda_member,
    reciprocal_witness,
    search_witnesses_quadratic,
    witness_candidates,
)
from .exact import (
    BigRat,
    Poly,
    QuadElem,
    ext_gcd_int,
    ext_gcd_poly,
    poly_divmod,
    poly_gcd,
    quad_norm,
)
from .rings import (
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
    solve_condition_i,
    synthesize,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
