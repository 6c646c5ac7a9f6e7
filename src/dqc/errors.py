"""Exception types shared across the package."""


class DqcError(Exception):
    """Base class for all package errors."""


class NotPrime(DqcError):
    """Candidate modulus is not a prime number."""


class NotComplexifiable(DqcError):
    """Prime modulus p does not satisfy p % 4 == 3, so -1 is a square
    and F_p[i] fails to be a field."""


class DivisionByZero(DqcError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class DimensionMismatch(DqcError):
    """Operands live over different moduli or different qubit counts."""


class NotUnitNorm(DqcError):
    """Operation requires a state vector of field norm 1."""


class NonRealExpectation(DqcError):
    """A Pauli expectation value came out with a nonzero imaginary part.
    This cannot happen for a correctly computed expectation; it signals
    an internal inconsistency."""


class ZeroVector(DqcError):
    """Operation is undefined on the all-zero state vector."""


class BudgetExceeded(DqcError):
    """Requested enumeration is larger than the configured work budget.

    Attributes:
        required: number of enumeration prefixes the run would touch.
        budget: configured prefix budget.
        closed_form: exact count the enumeration would have produced,
            computed from the closed form, or None when not applicable.
    """

    def __init__(self, required: int, budget: int, closed_form=None):
        self.required = required
        self.budget = budget
        self.closed_form = closed_form
        msg = f"enumeration needs {required} prefixes, budget is {budget}"
        if closed_form is not None:
            msg += f" (closed form gives {closed_form})"
        super().__init__(msg)


class VerificationFailed(DqcError):
    """An enumerated count disagreed with its closed form.

    Attributes:
        field_name: which report field mismatched.
        report: the CountReport carrying all values seen so far.
        expected, found: the closed-form and the counted value, when the
            check compares two values, else None.
    """

    def __init__(self, field_name: str, report=None, expected=None, found=None):
        self.field_name = field_name
        self.report = report
        self.expected = expected
        self.found = found
        msg = f"verification mismatch in field {field_name!r}"
        if expected is not None or found is not None:
            msg += f": expected {expected}, found {found}"
        super().__init__(msg)
