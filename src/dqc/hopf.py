"""Discrete Hopf map and phase-class geometry.

A unit-norm 1-qubit state (a0, a1) maps to the point

    X = 2 Re(a0 conj(a1)),  Y = 2 Im(a0 conj(a1)),  Z = fnorm(a0) - fnorm(a1)

on the discrete unit sphere X**2 + Y**2 + Z**2 == 1 over F_p.  The map
is constant exactly on phase classes {u psi : fnorm(u) == 1}, so the
p + 1 members of a class collapse to one of p(p - 1) sphere points.

For any qubit count the same quotient is realized by two constructions
kept deliberately separate: the canonical representative (the
lexicographically smallest class member) and the fingerprint (the
upper triangle of the density matrix, which is phase invariant).
"""

from __future__ import annotations

from collections import namedtuple

from .basefield import ComplexifiablePrime
from .census import DEFAULT_BUDGET, check_budget
from .complexfield import cmul, conj, fnorm, phase_group
from .errors import DimensionMismatch, NotUnitNorm
from .states import StateVector


class BlochPoint(namedtuple("BlochPoint", "x y z ex ey ez degenerate")):
    """A point of the discrete sphere plus a schematic real embedding.

    x, y, z are canonical residues satisfying x**2 + y**2 + z**2 == 1
    mod p.  ex, ey, ez rescale the centered representatives (range
    -(p-1)/2 .. (p-1)/2) to a real unit vector for plotting; they carry
    no arithmetic meaning.  degenerate marks the one case where the
    centered triple is (0, 0, 0) and no rescaling exists (impossible
    for unit-norm input, but kept so the export format is total).
    """

    __slots__ = ()


def _embed(prime: ComplexifiablePrime, x: int, y: int, z: int) -> BlochPoint:
    cx, cy, cz = prime.centered(x), prime.centered(y), prime.centered(z)
    r = (cx * cx + cy * cy + cz * cz) ** 0.5
    if r == 0:
        return BlochPoint(x, y, z, 0.0, 0.0, 0.0, True)
    return BlochPoint(x, y, z, cx / r, cy / r, cz / r, False)


def hopf_map_1q(psi: StateVector) -> BlochPoint:
    """Map a unit-norm 1-qubit state to its discrete sphere point."""
    if psi.n != 1:
        raise DimensionMismatch(f"Hopf map defined for 1 qubit, got n={psi.n}")
    if not psi.is_unit():
        raise NotUnitNorm(f"state has norm {psi.vnorm()}, need 1")
    p = psi.field.p
    a0, a1 = psi.amps
    w = cmul(p, a0, conj(p, a1))
    x = 2 * w[0] % p
    y = 2 * w[1] % p
    z = (fnorm(p, a0) - fnorm(p, a1)) % p
    return _embed(psi.field, x, y, z)


def phase_class(psi: StateVector) -> list:
    """All p + 1 phase multiples of a unit-norm state."""
    if not psi.is_unit():
        raise NotUnitNorm(f"state has norm {psi.vnorm()}, need 1")
    return [psi.scale(u) for u in phase_group(psi.field)]


def canonical_rep(psi: StateVector) -> StateVector:
    """Lexicographically smallest member of the phase class.

    Amplitude tuples are compared as sequences of (re, im) residue
    pairs.  Idempotent and constant on each class.
    """
    members = phase_class(psi)
    return min(members, key=lambda s: s.amps)


def is_canonical(psi: StateVector) -> bool:
    return canonical_rep(psi).amps == psi.amps


def fingerprint(psi: StateVector) -> tuple:
    """Phase-invariant signature: diagonal and strict upper triangle of
    the density matrix, flattened row-major.

    Diagonal entries are field norms (elements of F_p); off-diagonal
    entries are (re, im) pairs.  Two unit-norm states share a
    fingerprint exactly when they lie in the same phase class.
    """
    p = psi.field.p
    amps = psi.amps
    d = len(amps)
    out = []
    for i in range(d):
        out.append(fnorm(p, amps[i]))
        for j in range(i + 1, d):
            out.append(cmul(p, amps[i], conj(p, amps[j])))
    return tuple(out)


def bloch_export(prime: ComplexifiablePrime, budget: int = DEFAULT_BUDGET):
    """Bloch points of every irreducible (canonical unit-norm) 1-qubit
    state, sorted by (x, y, z), as a generator.

    The Hopf map takes the p(p - 1) canonical states one to one onto the
    sphere X**2 + Y**2 + Z**2 == 1, so the points are read off it: the
    roots z of 1 - x**2 - y**2 for each x and y.  The budget is checked
    on the call and charged the canonical walk's p**2 prefixes, so under
    the default budget of 10**8 p above 10**4 raises BudgetExceeded.
    """
    p = prime.p
    check_budget(p, p * p, budget, p * (p - 1))
    return (
        _embed(prime, x, y, z)
        for x in range(p)
        for y in range(p)
        for z in prime.sqrt(1 - x * x - y * y)
    )
