"""Exact Lie algebra cohomology with a dense-quotient pipeline and CLI.

The package computes the cohomology of a finite-dimensional Lie algebra
over Q or Q(a) from its structure constants, entirely in exact arithmetic,
and packages the standard reduction for quotients of a Lie group by a
dense subgroup: the de Rham cohomology of G/H is the cohomology of g/h.
A small floating-point module independently checks the sign conventions
against the Maurer-Cartan identity on GL_n.
"""

from .ce_complex import (
    CohomologyReport,
    ExteriorForm,
    basis_form,
    ce_differential,
    cohomology,
    d_apply,
    evaluate,
    horizontal_basis,
    index_tuples,
    leibniz_check,
    shuffle_eval,
    wedge,
)
from .errors import (
    ArityMismatch,
    DegreeOutOfRange,
    DependentBasis,
    DimensionCapExceeded,
    DimensionMismatch,
    DivisionByZero,
    Error,
    InvalidParameter,
    JacobiViolation,
    MixedFields,
    NotAnIdeal,
    ParseError,
    SingularMatrix,
)
from .field_arith import (
    Field,
    Matrix,
    QQ,
    RationalFunction,
    format_scalar,
    parse_scalar,
    rank,
    rank_and_kernel,
    scalar_arith,
    solve_in_span,
)
from .lie_core import (
    LieAlgebra,
    QuotientData,
    Subspace,
    bracket,
    ideal_check,
    jacobi_check,
    quotient_algebra,
    torus_ideal_from_directions,
)
from .mc_numeric import (
    MatrixGroupPoint,
    NumericCheckResult,
    maurer_cartan_check,
    one_form_sign_check,
    theta,
)
from .quotient_pipeline import (
    DenseQuotientInput,
    DenseQuotientReport,
    chain_iso_check,
    dense_quotient_cohomology,
    pullback_form,
)

__version__ = "0.1.0"
