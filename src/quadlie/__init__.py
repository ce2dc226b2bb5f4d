"""Exact-arithmetic toolkit for braided vector spaces, quadratic Lie
algebras, and their quadratic enveloping algebras.

Everything is computed over Q or GF(p) with no floating point: axiom
verification, the two-dimensional classification with explicit changes
of basis, truncated enveloping-algebra ideals with PBW certificates,
Nichols-algebra probes through quantum symmetrizer ranks, and the
exhaustive small-field eliminations.
"""

from .appendix import case_families, random_survey, udu_check
from .braided import (
    BraidedSpace,
    MinpolySplit,
    MinusOneNotSimple,
    NotYangBaxter,
    is_categorical,
    lift_to_slot,
    split_minpoly,
)
from .brackets import (
    BasisMismatch,
    Inconsistent,
    LiftedReport,
    QBracketReport,
    QuadraticLieAlgebra,
    RestrictedBracket,
    check_dim1_rigidity,
    derived_antisym_plus,
    image_subalgebra,
    lift_bracket,
    restrict_bracket,
    verify_lifted,
    verify_qbracket,
)
from .classify import (
    CanonicalFormResult,
    InternalContradiction,
    PreconditionViolated,
    UnsupportedField,
    canonical_form,
    conjugate,
    iso_bruteforce,
)
from .envelope import (
    IdealTruncation,
    Presentation,
    Unstabilized,
    bg_conditions,
    filtration_dims,
    ideal_truncation,
    pbw_check,
    sq_graded_dims,
    sq_presentation,
    uq_relations,
)
from .fields import GF, QQ, CharTwo, CheckFailed, DivisionByZero, Field, FieldMismatch, Scalar
from .linalg import (
    HypothesisViolated,
    Mat,
    Poly,
    Subspace,
    complement_split,
    eval_poly_at,
    kernel,
    minimal_polynomial,
    poly_gcd_bezout,
)
from .nichols import (
    PrimitiveReport,
    nichols_quadratic_at,
    nichols_ranks,
    primitives_of_quotient,
    q_binomial,
    quantum_symmetrizer,
    symmetrizer_rank,
    verify_cx2_and_alpha,
    verify_qpower_coproduct,
)
from .table import row_instance, table_emit
from .tensoralg import (
    DegreeMismatch,
    SplitTensorElem,
    TensorElem,
    block_braiding,
    braided_mul_split,
    coproduct,
    delta_component,
    en_space,
)

__version__ = "0.1.0"
