"""Exception types shared across the package, and the text of the
counts they carry."""


def exact_str(x) -> str:
    """str(x), with the same digits when x is an int, or a tuple of two
    or more ints such as a check's (k, count) pair, longer than Python's
    int-to-str limit (4,300 digits by default, reached by counts such as
    3**16384), which stays as set.  Past the limit an int is converted
    by halves in subquadratic time (_decimal_digits)."""
    try:
        return str(x)
    except ValueError:
        pass
    if isinstance(x, int):
        return "-" + _decimal_digits(-x) if x < 0 else _decimal_digits(x)
    return f"({', '.join(map(exact_str, x))})"


def _decimal_digits(x: int) -> str:
    """The digits of x >= 0 by divide and conquer: x of b bits splits at
    2**w, w = b // 2, into hi and lo, each converted the same way down
    to 2,048 bits, and lo + hi * 2**w is formed in a decimal context of
    precision MAX_PREC with Inexact trapped, so every step is exact.
    Each power 2**w is built once, from two smaller ones.  libmpdec
    multiplies large operands in subquadratic time, so the conversion
    is subquadratic too; str(Decimal(x)) alone takes quadratic time."""
    import decimal  # only past the limit, so import dqc stays lean

    ctx = decimal.Context(
        prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact]
    )
    powers: dict = {}

    def power(w):
        if w not in powers:
            half = w >> 1
            powers[w] = (
                decimal.Decimal(1 << w)
                if w <= 2048
                else ctx.multiply(power(half), power(w - half))
            )
        return powers[w]

    def convert(v, bits):
        if bits <= 2048:
            return decimal.Decimal(v)
        w = bits >> 1
        hi = v >> w
        return ctx.add(
            ctx.multiply(convert(hi, bits - w), power(w)), convert(v - (hi << w), w)
        )

    return str(convert(x, x.bit_length()))


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
    """Moduli or qubit counts differ, or a state has the wrong qubit count."""


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
        msg = (
            f"enumeration needs {exact_str(required)} prefixes, "
            f"budget is {exact_str(budget)}"
        )
        if closed_form is not None:
            msg += f" (closed form gives {exact_str(closed_form)})"
        super().__init__(msg)


class VerificationFailed(DqcError):
    """A check's two values disagreed.

    Attributes:
        field_name: the name of the check.
        expected, found: the check's two values, as a closed form and
            the count it was compared with.
        report: the cell's finished CountReport, which records the check.
    """

    def __init__(self, field_name: str, expected, found, report):
        self.field_name = field_name
        self.expected = expected
        self.found = found
        self.report = report
        super().__init__(
            f"verification mismatch in field {field_name!r}: "
            f"expected {exact_str(expected)}, found {exact_str(found)}"
        )
