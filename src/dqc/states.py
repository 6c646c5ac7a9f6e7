"""State vectors over the complexified field.

An n-qubit state is a tuple of 2**n amplitude pairs.  Basis labels are
read with qubit 0 as the most significant bit: amplitude index i
corresponds to the bit string of i padded to n bits, leftmost bit =
qubit 0.  States need not be unit norm; operations that require norm 1
check it themselves.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .basefield import ComplexifiablePrime
from .complexfield import GFc, cdot, cmul, fnorm
from .errors import DimensionMismatch, DqcError

# Hard cap on vector length; enumeration budgets bite far earlier.
MAX_QUBITS = 16

_AMP_RE = re.compile(r"^(\d+)\+(\d+)i$")


def format_amp(x: GFc) -> str:
    """Render an amplitude as 'a+bi' with canonical residues."""
    return f"{x[0]}+{x[1]}i"


def parse_amp(p: int, text: str) -> GFc:
    m = _AMP_RE.match(text.strip())
    if not m:
        raise ValueError(f"amplitude {text!r} does not match 'a+bi'")
    a, b = int(m.group(1)), int(m.group(2))
    if a >= p or b >= p:
        raise ValueError(f"amplitude {text!r} out of range for p={p}")
    return (a, b)


class StateVector(namedtuple("StateVector", "field n amps")):
    """Amplitude vector of an n-qubit register over F_p**2."""

    __slots__ = ()

    def __new__(cls, field: ComplexifiablePrime, n: int, amps: tuple):
        if not 1 <= n <= MAX_QUBITS:
            raise DqcError(f"qubit count {n} outside 1..{MAX_QUBITS}")
        if len(amps) != 1 << n:
            raise DimensionMismatch(
                f"{n} qubits need {1 << n} amplitudes, got {len(amps)}"
            )
        p = field.p
        for x in amps:
            if x[0] >= p or x[1] >= p or x[0] < 0 or x[1] < 0:
                raise DqcError(f"amplitude {x} not in canonical range for p={p}")
        return super().__new__(cls, field, n, amps)

    @property
    def dim(self) -> int:
        return 1 << self.n

    @classmethod
    def basis(cls, field: ComplexifiablePrime, n: int, index: int) -> "StateVector":
        amps = [(0, 0)] * (1 << n)
        amps[index] = (1, 0)
        return cls(field, n, tuple(amps))

    @classmethod
    def from_text(cls, field: ComplexifiablePrime, n: int, text: str) -> "StateVector":
        amps = tuple(parse_amp(field.p, part) for part in text.split(";"))
        return cls(field, n, amps)

    def to_text(self) -> str:
        return ";".join(format_amp(x) for x in self.amps)

    def _check_compatible(self, other: "StateVector"):
        if self.field.p != other.field.p:
            raise DimensionMismatch(f"moduli differ: {self.field.p} vs {other.field.p}")
        if self.n != other.n:
            raise DimensionMismatch(f"qubit counts differ: {self.n} vs {other.n}")

    def hdot(self, other: "StateVector") -> GFc:
        """Hermitian dot product; self is the conjugated (bra) side.

        Conjugate symmetric and sesquilinear, but not definite: nonzero
        vectors of norm 0 are orthogonal to themselves.
        """
        self._check_compatible(other)
        return cdot(self.field.p, self.amps, other.amps)

    def vnorm(self) -> int:
        """Field norm of the vector: sum of amplitude norms, in F_p."""
        p = self.field.p
        return sum(fnorm(p, x) for x in self.amps) % p

    def is_unit(self) -> bool:
        return self.vnorm() == 1

    def scale(self, u: GFc) -> "StateVector":
        """Componentwise multiplication by a scalar."""
        p = self.field.p
        return StateVector(self.field, self.n, tuple(cmul(p, x, u) for x in self.amps))

    def tensor(self, other: "StateVector") -> "StateVector":
        """Kronecker product; self supplies the high-order qubits."""
        if self.field.p != other.field.p:
            raise DimensionMismatch(f"moduli differ: {self.field.p} vs {other.field.p}")
        if self.n + other.n > MAX_QUBITS:
            raise DqcError("tensor product exceeds the qubit cap")
        p = self.field.p
        amps = tuple(
            cmul(p, x, y) for x in self.amps for y in other.amps
        )
        return StateVector(self.field, self.n + other.n, amps)
