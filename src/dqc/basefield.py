"""Base field F_p for primes p with p % 4 == 3.

Field elements are plain Python integers in canonical form 0..p-1.  The
modulus travels in a ComplexifiablePrime instance rather than with each
element, which keeps the enumeration loops free of per-element object
overhead.

Only p % 4 == 3 is accepted: for those primes -1 is a quadratic
non-residue, so x**2 + 1 is irreducible and the degree-2 extension
behaves like the complex numbers (see complexfield).  A convenient
consequence used throughout: square roots of a residue c are
+-c**((p+1)/4), and a**2 + b**2 == 0 forces a == b == 0.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import NotComplexifiable, NotPrime

# Miller-Rabin to the first 13 prime bases is exact below psi_13 (see
# validate_prime); the first 12 pass psi_12 = 318665857834031151167461.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic for n < psi_13."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class ComplexifiablePrime(namedtuple("ComplexifiablePrime", "p")):
    """A validated prime modulus p with p % 4 == 3."""

    __slots__ = ()

    def centered(self, x: int) -> int:
        """Representative of x in -(p-1)/2 .. (p-1)/2."""
        x %= self.p
        return x if x <= (self.p - 1) // 2 else x - self.p

    def sqrt(self, c: int) -> tuple[int, ...]:
        """All square roots of c in F_p, in increasing order.

        Returns a pair {r, p-r} for a nonzero residue, (0,) for c == 0,
        and () when c is a non-residue.
        """
        c %= self.p
        if c == 0:
            return (0,)
        # p % 4 == 3 makes (p+1)/4 an integer exponent; the candidate
        # squares back to c exactly for residues.
        r = pow(c, (self.p + 1) // 4, self.p)
        if r * r % self.p != c:
            return ()
        return (r, self.p - r) if r <= self.p - r else (self.p - r, r)


def validate_prime(candidate: int) -> ComplexifiablePrime:
    """Validate a modulus and construct its ComplexifiablePrime.

    Raises NotPrime for composites and for moduli at or above psi_13,
    where is_prime is no longer exact, and NotComplexifiable for primes
    with p % 4 != 3 (for those -1 is a square mod p, or p == 2).
    """
    if not isinstance(candidate, int) or isinstance(candidate, bool):
        raise NotPrime(f"modulus must be an integer, got {candidate!r}")
    psi_13 = 3317044064679887385961981  # the least composite is_prime accepts
    if candidate >= psi_13:
        raise NotPrime(f"{candidate} is not below psi_13 = {psi_13}: no exact test")
    if not is_prime(candidate):
        raise NotPrime(f"{candidate} is not prime")
    if candidate % 4 != 3:
        raise NotComplexifiable(
            f"{candidate} % 4 == {candidate % 4}, need 3; "
            "x**2 + 1 is reducible so F_p[i] is not a field"
        )
    return ComplexifiablePrime(p=candidate)
