"""Exact solver for left linear recurrences over fields, quaternion
algebras and octonion division algebras."""

from .errors import (
    ContextMismatch,
    DegenerateFrame,
    DimensionMismatch,
    DivisionByZero,
    InternalError,
    LamViolation,
    NoRootsFound,
    NoSolution,
    ParseError,
    SingularU,
    Singular,
    SkewrecError,
    UnsupportedDegree,
    UnsupportedOrder,
    ValidationError,
    ZeroDivisor,
)
from .scalar import FieldContext, ScalarValue
from .algebra import (
    OctValue,
    OctonionAlgebra,
    QuatValue,
    QuaternionAlgebra,
    build_frame,
)
from .poly import (
    ConjClass,
    LeftPoly,
    companion_poly,
    conj_class,
    divide_by_linear,
    factor_central_quartic,
    quadratic_roots,
)
from .matlin import (
    DMatrix,
    companion_matrix,
    eig_check,
    jordan_from_roots,
    jordan_matrix,
    mat_inverse,
    vandermonde,
)
from .forms import AssocForm, CompanionForm, OctSplitForm, RecurrenceSpec, Term
from .solver import (
    eval_closed_form,
    iterate_oracle,
    primitive_char_poly,
    solve,
    verify_closed_form,
)

__version__ = "0.1.0"
