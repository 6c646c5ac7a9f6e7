"""Arithmetic in the complexified field F_p**2 = F_p[i], i**2 == -1.

Elements are plain (re, im) tuples of canonical residues.  Tuples keep
the census loops allocation-light and give lexicographic comparison of
(re, im) pairs for free, which is the order used for canonical phase
representatives.

Conjugation is implemented as negation of the imaginary part.  It must
agree with the field-theoretic definition x**p (the Frobenius map); the
test suite cross-asserts the two on every element for small p.
"""

from __future__ import annotations

from functools import lru_cache

from .basefield import ComplexifiablePrime
from .errors import DivisionByZero

GFc = tuple  # (re, im) residue pair

ZERO = (0, 0)
ONE = (1, 0)


def cadd(p: int, x: GFc, y: GFc) -> GFc:
    return ((x[0] + y[0]) % p, (x[1] + y[1]) % p)


def cneg(p: int, x: GFc) -> GFc:
    return (-x[0] % p, -x[1] % p)


def cmul(p: int, x: GFc, y: GFc) -> GFc:
    a, b = x
    c, d = y
    return ((a * c - b * d) % p, (a * d + b * c) % p)


def conj(p: int, x: GFc) -> GFc:
    """Complex conjugate a + bi -> a - bi."""
    return (x[0], -x[1] % p)


def fnorm(p: int, x: GFc) -> int:
    """Field norm a**2 + b**2, an element of F_p.

    Equals x * conj(x).  Multiplicative, and zero only for x == (0, 0)
    because -1 is a non-residue mod p.
    """
    a, b = x
    return (a * a + b * b) % p


def cdot(p: int, xs, ys) -> GFc:
    """Hermitian product sum(conj(x) * y) of two amplitude sequences, its
    parts summed as integers and reduced once."""
    re = im = 0
    for (a, b), (c, d) in zip(xs, ys):
        re += a * c + b * d
        im += a * d - b * c
    return (re % p, im % p)


def cinv(p: int, x: GFc) -> GFc:
    """Multiplicative inverse conj(x) / fnorm(x); defined for any x != 0."""
    n = fnorm(p, x)
    if n == 0:
        # fnorm vanishes only on (0, 0) when p % 4 == 3
        raise DivisionByZero(f"inverse of (0, 0) in F_{p}[i]")
    ninv = pow(n, p - 2, p)
    return (x[0] * ninv % p, -x[1] * ninv % p)


def cpow(p: int, x: GFc, e: int) -> GFc:
    """Square-and-multiply power for e >= 0."""
    out = ONE
    base = x
    while e:
        if e & 1:
            out = cmul(p, out, base)
        base = cmul(p, base, base)
        e >>= 1
    return out


def frobenius(p: int, x: GFc) -> GFc:
    """The automorphism x -> x**p.  Agrees with conj; kept as an
    independent path for cross-checking."""
    return cpow(p, x, p)


def norm_fiber(prime: ComplexifiablePrime, c: int) -> list:
    """All elements of F_p**2 with field norm c, sorted as (re, im) pairs.

    The fiber over 0 is {(0, 0)}; every nonzero c has exactly p + 1
    preimages.  Cost is O(p) square roots, each one modular
    exponentiation, so O(p log p) in all.
    """
    if c % prime.p == 0:
        return [ZERO]
    return sorted((a, b) for a in range(prime.p) for b in prime.sqrt(c - a * a))


@lru_cache(maxsize=32)
def phase_group(prime: ComplexifiablePrime) -> tuple:
    """The p + 1 field-norm-1 elements of F_p**2, sorted.

    They form the cyclic phase group: multiplying a state vector by a
    member changes no observable quantity, and the quotient by this
    action is what the canonical representative machinery computes.
    """
    return tuple(norm_fiber(prime, 1))
