"""Exception types shared across the package.

Everything raised on purpose derives from Error, so callers (the CLI in
particular) can distinguish expected failures from bugs.
"""


class Error(Exception):
    """Base class for all package errors."""


class ParseError(Error, ValueError):
    """Malformed scalar text or input document."""


class MixedFields(Error, TypeError):
    """Two operands carry different field tags (Q vs Q(a), or Q(a) vs Q(b))."""


class DivisionByZero(Error, ZeroDivisionError):
    """Exact division by the zero scalar."""


class DimensionMismatch(Error, ValueError):
    """Vector or matrix shapes do not line up."""


class ArityMismatch(Error, ValueError):
    """A form was evaluated on the wrong number of arguments."""


class DegreeOutOfRange(Error, ValueError):
    """Requested form degree is not an integer, is negative, or exceeds the
    ambient dimension."""


class DimensionCapExceeded(Error, ValueError):
    """Algebra dimension exceeds the configured cap (the complex has 2^n basis forms)."""


class InvalidParameter(Error, ValueError):
    """A numeric parameter is out of range: a sample count that is not an
    integer of at least 1, or a step or tolerance that is not positive and
    finite."""


class SingularMatrix(Error, ValueError):
    """A group point drifted too close to the singular locus."""


class InternalCheckFailed(Error):
    """An invariant the computation guarantees did not hold: a bug, not bad input."""


class JacobiViolation(Error):
    """Structure constants fail the Jacobi identity.

    violations is a list of (i, j, k, residual) with 1-based basis indices
    and the exact Jacobiator residual vector.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        i, j, k, _ = self.violations[0]
        super().__init__(
            "Jacobi identity fails at %d triple(s), first at (%d, %d, %d)"
            % (len(self.violations), i, j, k)
        )


class NotAnIdeal(Error):
    """The proposed subspace is not an ideal.

    witness is (i, w, bracket_result): basis index i, subspace basis vector w,
    and the bracket [e_i, w] that escapes the subspace.
    """

    def __init__(self, witness):
        self.witness = witness
        super().__init__(
            "subspace is not an ideal: [e_%d, w] leaves the subspace" % witness[0]
        )
