"""Exact counts and exhaustive enumeration of state vectors.

Closed forms
------------
Over F_p**2 in dimension D there are p**(2D) vectors.  Writing
s = (-1)**D, the zero-norm vectors number

    zeta(D, p) = p**(D-1) * (p**D + s*(p - 1))

and each nonzero norm value is taken equally often, giving

    omega(D, p) = p**(D-1) * (p**D - s)

unit-norm vectors.  Phase classes partition the unit sphere into
omega / (p + 1) irreducible states.  All of this is big-int exact.

Counting
--------
The zero-norm, unit-norm and irreducible counts depend only on how
many elements each norm fiber holds, so they are read from norm_counts:
the D-fold cyclic convolution of the fiber sizes [1, p+1, ..., p+1],
whose nonzero bins stay equal, so two numbers per dimension carry it,
in O(D) steps with no table.  They take no budget.  The naive full
scan, which walks every vector, is the independent oracle for them.

Enumeration
-----------
States themselves are walked by fiber completion: fix the first D-1
amplitudes (a "prefix"), compute the residual norm the last amplitude
must carry, and append each member of that norm fiber.  One walker,
walk_prefixes, serves every state stream and the entanglement census.
It walks one segment of states in lexicographic order: the (re, im)
pairs each head position may hold and the last position's completions
by norm, from enum_tables, built once per p, or sized where they are
only counted.  A walk of several segments takes them one after
another.  A full walk is one segment of free choices: every vector
once, from p**(2(D-1)) prefixes.

The budget limits prefixes.  check_budget is the one budget decision:
a walk is charged its prefixes, and never less than the p**2 entries
of enum_tables, read or not.  Each stream calls it when it is
created, before the caller has consumed or written anything, and is
charged the prefixes of its walk: p**(2(D-1)), or the canonical walk's
count below.  The census is charged the prefixes of its weighted walk
(see entangle), and verify reads its skip note from the census's
refusal.

Canonical filtering uses a fact about the phase action: the orbit of a
nonzero amplitude under the norm-1 group is the entire norm fiber it
lies in (both have p + 1 elements), so a unit state is canonical
exactly when its first nonzero amplitude is the smallest element of its
fiber.  The literal lex-min-of-class definition lives in hopf and the
test suite cross-asserts the two on full spheres.  The canonical walk
(canonical_segments) therefore has D segments, in lexicographic order:
for k = D-1 down to 0, k leading zeros, a fiber-minimum lead and free
amplitudes after it.  The first is the zero prefix, whose completion
leads, so its last entry holds each fiber's minimum alone.  That is
1 + (p-1) * sum_{t<D-1} p**(2t) prefixes instead of p**(2(D-1)), about
one in p + 1.

The walk yields prefixes in groups that share a parent, their first D-2
amplitudes, so that a consumer can do the parent's work once (census
forms, row text), and the row streams keep the groups; walk_prefixes'
start and stop count a segment's parents, not prefixes.  Parallelism is
the census tally's alone: it splits each segment's parents into
contiguous blocks that carry the segment, with one pool per tally (on
one worker, no pool and one inline block per segment), and block
results merge by addition, so counts are identical for any split.
Every parent of a census segment has the same number of children, so
blocks of equal parent count carry about equal work.

Loading
-------
Loading this module loads basefield and errors alone: the counts and
enum_tables need nothing more.  complexfield is loaded by
spot_invariants, verify's sampled checks, on its first call, and
entangle by verify, since entangle imports this module.
"""

from __future__ import annotations

import gc
import os
import random
from collections import deque
from functools import lru_cache
from itertools import chain, islice, product

from .basefield import ComplexifiablePrime, validate_prime
from .errors import BudgetExceeded, DqcError, VerificationFailed, exact_str

DEFAULT_BUDGET = 10**8
DEFAULT_SCAN_LIMIT = 10**6


# -- closed forms ----------------------------------------------------------

def total_count(p: int, d: int) -> int:
    """All vectors of dimension d over F_p**2."""
    return p ** (2 * d)


def zero_norm_count(p: int, d: int) -> int:
    """Vectors of field norm 0, the zero vector included."""
    sign = -1 if d % 2 else 1
    return p ** (d - 1) * (p**d + sign * (p - 1))


def unit_norm_count(p: int, d: int) -> int:
    """Vectors of field norm 1; the same count holds for any nonzero norm."""
    sign = -1 if d % 2 else 1
    return p ** (d - 1) * (p**d - sign)


def irreducible_count(p: int, d: int) -> int:
    """Phase classes of unit-norm vectors: unit_norm_count / (p + 1)."""
    q, r = divmod(unit_norm_count(p, d), p + 1)
    if r:
        raise DqcError(f"unit sphere size not divisible by p+1 for p={p}, d={d}")
    return q


def irreducible_product_form(p: int, n: int) -> int:
    """Irreducible n-qubit states as the explicit product
    p**(2**n - 1) * (p - 1) * prod_{k=1..n-1} (p**(2**k) + 1)."""
    out = p ** (2**n - 1) * (p - 1)
    for k in range(1, n):
        out *= p ** (2**k) + 1
    return out


def unentangled_irreducible_count(p: int, n: int) -> int:
    """Irreducible n-qubit product states: p**n * (p-1)**n."""
    return p**n * (p - 1) ** n


def maxent_irreducible_count(p: int, n: int) -> int:
    """Irreducible maximally entangled n-qubit states, for n <= 2.

    p**(n+1) * (p-1) * (p+1)**(n-1), the abstract's formula, which
    enumeration confirms only at n == 2, so it raises DqcError for
    n >= 3.  At p=3 n=3 the census finds 257,904 Maximal irreducible
    states against the formula's 2,592.  A single qubit admits none:
    its Bloch point satisfies X**2+Y**2+Z**2 == 1, so the three
    expectations cannot all vanish.
    """
    if n >= 3:
        raise DqcError(f"no Maximal closed form for n={n}; enumerate instead")
    if n < 2:
        return 0
    return p ** (n + 1) * (p - 1) * (p + 1) ** (n - 1)


def maxent_to_unentangled_ratio(p: int, n: int):
    """Exact ratio p * ((p+1)/(p-1))**(n-1) of the two closed forms, at
    n == 2 only: no Maximal state has n == 1, and from n == 3 on there
    is no Maximal closed form (at p=3 n=3 the census ratio is
    257,904 / 216 = 1,194, the formula's 12)."""
    if n != 2:
        raise DqcError(f"the Maximal/Unentangled ratio holds only at n=2, got n={n}")
    from fractions import Fraction

    return Fraction(p) * Fraction(p + 1, p - 1) ** (n - 1)


def zero_norm_by_recurrence(prime: ComplexifiablePrime, d_max: int) -> list:
    """Zero-norm counts for d = 1..d_max, the zero column of norm_counts:
    zeta(d+1) = (p + 1) * p**(2d) - p * zeta(d)."""
    return [zero for zero, _ in islice(norm_counts(prime.p, d_max), 1, None)]


# -- count report -----------------------------------------------------------

class CountReport:
    """Closed-form and (when run) enumerated counts for one (p, D) cell.

    checks maps each cross-check's name to its (expected, found) pair,
    in the order the checks ran; match_flags ({name: expected == found})
    and verified (all of them hold) are read-only views of it.
    enumerated holds raw enumeration results.  notes collects skip
    reasons (budget) in human-readable form.
    """

    def __init__(self, p: int, d: int, n: int | None = None, total: int = 0,
                 zero_norm: int = 0, unit_norm: int = 0, irreducible: int = 0):
        self.p, self.d, self.n = p, d, n
        self.total, self.zero_norm, self.unit_norm = total, zero_norm, unit_norm
        self.irreducible = irreducible
        self.unentangled_irreducible = self.maxent_irreducible = None
        self.unentangled_unit = self.maxent_unit = None
        self.enumerated, self.checks, self.notes = {}, {}, []

    @property
    def match_flags(self) -> dict:
        return {name: e == f for name, (e, f) in self.checks.items()}

    @property
    def verified(self) -> bool:
        return all(self.match_flags.values())

    def to_json_dict(self) -> dict:
        def s(v):
            return None if v is None else exact_str(v)

        return {
            "p": self.p,
            "n": self.n,
            "D": self.d,
            "total": s(self.total),
            "zero_norm": s(self.zero_norm),
            "unit_norm": s(self.unit_norm),
            "irreducible": s(self.irreducible),
            "unentangled_irreducible": s(self.unentangled_irreducible),
            "maxent_irreducible": s(self.maxent_irreducible),
            "unentangled_unit": s(self.unentangled_unit),
            "maxent_unit": s(self.maxent_unit),
            "enumerated": {
                k: exact_str(v) for k, v in sorted(self.enumerated.items())
            },
            "verified": self.verified,
        }


def closed_form_counts(prime: ComplexifiablePrime, d: int) -> CountReport:
    """Closed-form report for dimension d, with the two identities that
    compare independently derived forms recorded as checks: the norm
    partition (zero-norm vectors plus p - 1 shells of unit_norm make up
    the total) and, for D = 2**n, the product form of the irreducible
    count.  irreducible_count raises if p + 1 does not divide the unit
    sphere.
    """
    if d < 1:
        raise DqcError(f"dimension must be >= 1, got {d}")
    p = prime.p
    n = d.bit_length() - 1 if d & (d - 1) == 0 and d > 1 else None
    rep = CountReport(
        p=p,
        d=d,
        n=n,
        total=total_count(p, d),
        zero_norm=zero_norm_count(p, d),
        unit_norm=unit_norm_count(p, d),
        irreducible=irreducible_count(p, d),
    )
    rep.checks["partition_identity"] = (
        rep.total, rep.zero_norm + (p - 1) * rep.unit_norm
    )
    if n is not None:
        rep.checks["irreducible_product_form"] = (
            rep.irreducible, irreducible_product_form(p, n)
        )
        rep.unentangled_irreducible = unentangled_irreducible_count(p, n)
        rep.unentangled_unit = (p + 1) * rep.unentangled_irreducible
        if n <= 2:  # the only range with a Maximal closed form
            rep.maxent_irreducible = maxent_irreducible_count(p, n)
            rep.maxent_unit = (p + 1) * rep.maxent_irreducible
    return rep


# -- enumeration tables ------------------------------------------------------

@lru_cache(maxsize=None)
def fiber_minima(p: int) -> tuple:
    """fiber_minima(p)[c] is the smallest (re, im) pair of norm c: the
    first a with c - a**2 a square (0 counts) and its smaller root."""
    root = {b * b % p: b for b in range(p // 2 + 1)}
    return tuple(
        next((a, root[(c - a * a) % p]) for a in range(p) if (c - a * a) % p in root)
        for c in range(p)
    )


@lru_cache(maxsize=None)
def enum_tables(p: int):
    """The elements of F_p**2 as (re, im) pairs, built once per p.

    Returns (elements, fibers): elements holds all p**2 pairs in
    lexicographic order and fibers[c] the sorted tuple of those of norm
    c.  The cyclic garbage collector is paused while they are built: the
    p**2 new tuples would set off collections that find nothing to free.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        elements = tuple(product(range(p), repeat=2))
        fibers = [[] for _ in range(p)]
        for x in elements:
            fibers[(x[0] * x[0] + x[1] * x[1]) % p].append(x)
    finally:
        if collecting:
            gc.enable()
    return elements, tuple(map(tuple, fibers))


def prefix_blocks(total: int, workers: int) -> list:
    """Static contiguous split of range(total): one block for one worker,
    which runs it inline, else at most 4*workers blocks."""
    chunks = min(total, 1 if workers <= 1 else workers * 4)
    bounds = [total * i // chunks for i in range(chunks + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(chunks)]


def usable_cpus() -> int:
    """CPUs this process may run on, by its affinity where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def Pool(processes: int):
    """A multiprocessing.Pool of the given size.

    multiprocessing is imported here, on the first pool start: most runs
    start no pool, and the import (pickle, socket, selectors) takes
    about 6 ms.  run_blocks starts its pools through this name.
    """
    import multiprocessing

    return multiprocessing.Pool(processes)


def run_blocks(worker, args_list: list, threads: int) -> list:
    """Run a top-level worker over per-block argument tuples.

    threads <= 1 executes inline; otherwise census.Pool starts a process
    pool of at most one worker per block.  Results come back in block
    order either way.
    """
    if threads <= 1 or len(args_list) <= 1:
        return [worker(a) for a in args_list]
    with Pool(processes=min(threads, len(args_list))) as pool:
        return pool.map(worker, args_list)


# -- counting by convolution ----------------------------------------------------

def norm_counts(p: int, d: int):
    """Yield (zero, other) for m = 0..d: how many m-vectors have norm 0
    and how many have each nonzero norm.

    Norms add, and the fiber of norm 0 has 1 element and every other
    p + 1, so the histogram h of the p**(2m) m-vectors by norm steps to
    h'[c] = (p + 1) p**(2m) - p h[c], each bin from itself and the total
    alone: the nonzero bins, equal at m = 0, stay equal, and two numbers
    and a running power carry it, O(d) in all.
    """
    zero, other, power = 1, 0, 1
    yield zero, other
    for _ in range(d):
        spread = (p + 1) * power
        zero, other, power = spread - p * zero, spread - p * other, power * p * p
        yield zero, other


def count_norm_class(prime: ComplexifiablePrime, d: int, target: int) -> int:
    """Count vectors of the given norm from norm_counts' last pair."""
    zero, other = deque(norm_counts(prime.p, d), maxlen=1).pop()
    return other if target % prime.p else zero


def count_irreducible(prime: ComplexifiablePrime, n: int) -> int:
    """Count canonical unit-norm states by the fiber-min filter.

    A canonical state is k leading zeros, the fiber minimum of some
    nonzero norm t, then a tail of norm 1 - t, any norm but 1 (0 or p - 2
    nonzero norms), of dimension D - 1 - k, for k = 0..D-1.
    """
    tails = norm_counts(prime.p, (1 << n) - 1)
    return sum(zero + (prime.p - 2) * other for zero, other in tails)


# -- enumeration ---------------------------------------------------------------

def check_budget(p: int, prefixes: int, budget: int, closed_form: int | None = None):
    """Raise BudgetExceeded (carrying closed_form) when a walk's charge
    exceeds the budget: its prefixes, and never less than the p**2
    entries of enum_tables, read or not.

    The floor also bounds the O(p) work no prefix count shows, such as
    fiber_minima, which every census reads: a 1-qubit census walks one
    prefix, so at p = 2**61 - 1 only the floor keeps verify from a loop
    over 2**60 squares."""
    charge = max(prefixes, p * p)
    if charge > budget:
        raise BudgetExceeded(charge, budget, closed_form)


def canonical_segments(p: int, d: int) -> list:
    """The canonical walk of dimension d >= 2 as walk_prefixes' segments,
    for k = d - 1 down to 0 (module docstring); at k = d - 1, the zero
    prefix, the last entry holds each norm's fiber minimum alone."""
    elements, fibers = enum_tables(p)
    zero = ((0, 0),)
    leads = tuple(sorted(fiber_minima(p)[1:]))
    minima = [()] + [(m,) for m in fiber_minima(p)[1:]]
    return [[zero] * (d - 1) + [minima]] + [
        [zero] * k + [leads] + [elements] * (d - 2 - k) + [fibers]
        for k in range(d - 2, -1, -1)
    ]


def walk_prefixes(
    p: int,
    target: int,
    segment: list,
    start: int = 0,
    stop: int | None = None,
):
    """Yield (parent, children) for parents start..stop-1 of one segment.

    A segment of dimension d >= 2 is a list of d entries: d - 1 sorted
    lists of (re, im) pairs, the choices of amplitudes 0..d-2, and last
    the completions of amplitude d - 1 by norm, completions[c] the sorted
    choices of norm c (the fibers when it is free; sized where only
    counted).  Its states are those of norm target whose amplitude i is
    one of choices i.  A prefix is a state's first d - 1 amplitudes, its
    parent the first d - 2; parents come in lexicographic order, and
    start and stop count them.  children holds one (y, c, completions[c])
    per choice y of amplitude d - 2, in order, c the norm the last
    amplitude must carry to bring the total to target.  Children depend
    only on the parent's norm, so parents share one children tuple per
    norm, built when first needed.
    """
    target %= p
    completions = segment[-1]
    tails = [(y, y[0] * y[0] + y[1] * y[1]) for y in segment[-2]]
    by_norm = [None] * p
    for parent in islice(product(*segment[:-2]), start, stop):
        # the norm left for the last two amplitudes
        r = (target - sum([a * a + b * b for a, b in parent])) % p
        if by_norm[r] is None:
            kids = []
            for y, t in tails:
                c = (r - t) % p
                kids.append((y, c, completions[c]))
            by_norm[r] = tuple(kids)
        yield parent, by_norm[r]


def iter_norm_prefixes(
    prime: ComplexifiablePrime,
    d: int,
    target: int,
    budget: int = DEFAULT_BUDGET,
    canonical_only: bool = False,
):
    """(parent, children) per parent of the vectors of the given norm,
    d >= 2, in lexicographic order: children holds walk_prefixes'
    (y, c, completions) per prefix parent + (y,), whose vectors are
    parent + (y, x), x in completions, the walked elements of norm c.
    canonical_only keeps the phase-class minima of the nonzero vectors.
    The budget is checked on the call, before any yield, and charged the
    prefixes of the walk; its closed form counts the vectors the walk
    would yield."""
    if d < 2:
        raise DqcError(f"dimension must be >= 2, got {d}")
    p = prime.p
    target %= p
    expected = zero_norm_count(p, d) if target == 0 else unit_norm_count(p, d)
    prefixes = p ** (2 * (d - 1))
    if canonical_only:  # p + 1 phases of each vector but zero
        expected = (expected - (target == 0)) // (p + 1)
        # canonical_segments' 1 + (p-1) sum_{t<d-1} p**(2t) prefixes,
        # the sum being (p**(2(d-1)) - 1) / (p**2 - 1)
        prefixes = 1 + (prefixes - 1) // (p + 1)
    check_budget(p, prefixes, budget, expected)
    elements, fibers = enum_tables(p)
    full = [[elements] * (d - 1) + [fibers]]
    segments = canonical_segments(p, d) if canonical_only else full
    return chain.from_iterable(
        walk_prefixes(p, target, segment) for segment in segments
    )


def iter_norm_class(
    prime: ComplexifiablePrime,
    d: int,
    target: int,
    budget: int = DEFAULT_BUDGET,
    canonical_only: bool = False,
):
    """Amplitude tuples of every vector of the given norm, d >= 2, in
    lexicographic order: iter_norm_prefixes, state by state.  The budget
    is checked on the call."""
    return (
        parent + (y, last)
        for parent, children in iter_norm_prefixes(
            prime, d, target, budget, canonical_only
        )
        for y, _, completions in children
        for last in completions
    )


def iter_irreducible(
    prime: ComplexifiablePrime, n: int, budget: int = DEFAULT_BUDGET
):
    """Canonical unit-norm n-qubit states in lexicographic order."""
    return iter_norm_class(prime, 1 << n, 1, budget=budget, canonical_only=True)


def full_scan_norm_counts(prime: ComplexifiablePrime, d: int) -> dict:
    """Naive oracle: walk all p**(2d) vectors and tally norms.

    Independent of the fiber machinery; used to cross-check it at tiny
    sizes.  Raises BudgetExceeded above DEFAULT_SCAN_LIMIT vectors.
    """
    p = prime.p
    vectors = p ** (2 * d)
    if vectors > DEFAULT_SCAN_LIMIT:
        raise BudgetExceeded(vectors, DEFAULT_SCAN_LIMIT)
    norms = [(a * a + b * b) % p for a in range(p) for b in range(p)]
    counts = [0] * p
    for amps in product(norms, repeat=d):
        counts[sum(amps) % p] += 1
    return {c: counts[c] for c in range(p)}


# -- sampled invariant checks -------------------------------------------------

def sample_unit_amps(prime: ComplexifiablePrime, d: int, rng: random.Random) -> tuple:
    """One unit-norm amplitude tuple, uniform on the unit sphere, in O(d) steps.

    The first d - 1 amplitudes are uniform, k = max(1, 64 // bits(p**2))
    of them the base-p**2 digits of one randrange(p**(2k)), and leave
    the last one the norm c.  For c != 0 it is (s / N(z)) z, z from one
    randrange(1, p**2) until c N(z) has a smaller root s (prime.sqrt):
    z = x / r gives x when c / r is that root and -x otherwise, so each
    point x of the circle N(x) = c comes from (p - 1) / 2 values of z.
    The circle N(x) = 0 is the one point 0, so that completion is kept
    with probability 1 / (p + 1) and the whole draw is repeated otherwise.
    """
    p = prime.p
    pp = p * p
    per = max(1, 64 // pp.bit_length())
    while True:
        head, c = [], 1
        for left in range(d - 1, 0, -per):
            r = rng.randrange(pp ** min(per, left))
            for _ in range(min(per, left)):
                r, x = divmod(r, pp)
                a, b = divmod(x, p)
                c -= a * a + b * b
                head.append((a, b))
        if not c % p:
            if not rng.randrange(p + 1):
                return (*head, (0, 0))
            continue
        while True:
            a, b = divmod(rng.randrange(1, pp), p)
            norm = (a * a + b * b) % p
            roots = prime.sqrt(c * norm)
            if roots:
                s = roots[0] * pow(norm, p - 2, p) % p
                return (*head, (s * a % p, s * b % p))


def random_phase(prime: ComplexifiablePrime, rng: random.Random):
    """A random norm-1 scalar z / conj(z), from one draw of z = a + bi != 0.

    Built inline as z**2 / N(z) = (a**2 - b**2 + 2abi) N(z)**(p-2), not
    through complexfield, whose cmul, conj and fnorm spot_invariants
    checks against it.
    """
    p = prime.p
    a, b = divmod(rng.randrange(1, p * p), p)
    inv = pow(a * a + b * b, p - 2, p)
    return ((a * a - b * b) * inv % p, 2 * a * b * inv % p)


def spot_invariants(prime: ComplexifiablePrime, d: int, seed: int) -> bool:
    """Randomized sanity checks that need no enumeration budget.

    Verifies in 32 rounds of an x, y pair, a phase and one new unit
    sample, calling each function it checks: conjugation agrees with the
    Frobenius power, field-norm multiplicativity, phase invariance of
    the vector norm, and conjugate symmetry of cdot, the Hermitian
    product of StateVector.hdot.  The unit samples form a chain: one is
    drawn before the rounds, and each round pairs its new sample with
    the previous one for cdot, so the two of every pair are independent
    and uniform, and all 33 samples are norm-checked, the first alone
    and every other one scaled by its round's phase.  O(d) steps per
    round, so cheap even at the largest supported p.

    complexfield is imported here, once per call, not with this module:
    the set-up every run pays never uses it, and the samplers compute
    their norms and phases inline so as to import nothing per draw.
    """
    from .complexfield import cdot, cmul, conj, fnorm, frobenius

    p = prime.p
    pp = p * p
    rng = random.Random(seed)
    b = sample_unit_amps(prime, d, rng)
    if sum(fnorm(p, x) for x in b) % p != 1:
        return False
    for _ in range(32):
        x, y = divmod(rng.randrange(pp * pp), pp)
        x, y = divmod(x, p), divmod(y, p)
        if conj(p, x) != frobenius(p, x):
            return False
        if fnorm(p, cmul(p, x, y)) != fnorm(p, x) * fnorm(p, y) % p:
            return False
        u = random_phase(prime, rng)
        if fnorm(p, u) != 1:
            return False
        a = sample_unit_amps(prime, d, rng)
        if cdot(p, a, b) != conj(p, cdot(p, b, a)):
            return False
        scaled_norm = sum(fnorm(p, cmul(p, x, u)) for x in a) % p
        if scaled_norm != 1:
            return False
        b = a
    return True


# -- verification entry point --------------------------------------------------

def verify(
    prime: ComplexifiablePrime,
    n: int,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
    seed: int = 0,
) -> CountReport:
    """Cross-check closed forms against independent counts for n qubits.

    Every check is recorded in the report as (expected, found): the
    closed-form identities of closed_form_counts, the zero-norm counts
    for dimensions 1..D against their recurrence and the sampled
    invariants always, and, when the census fits the budget, the unit
    and zero spheres and the canonical states counted by convolution,
    the entanglement census (the only step that uses threads) against
    the Unentangled and Maximal closed forms and the irreducible total.
    The census's own budget check decides: census_tally runs first and
    refuses before it walks.  The Maximal count has a closed form only
    for n <= 2; for n >= 3 it is reported in enumerated alone.  Below the
    scan limit the naive full scan's norm histogram is checked too.  The
    zero-norm check records (k, closed form), (k, recurrence) at the
    first dimension k where they differ, else k = D.  The first check
    whose two values differ raises VerificationFailed carrying both and
    the finished report; a budget skip is recorded as a note instead.
    """
    from .entangle import census_tally  # deferred: entangle imports this module

    if n < 1:
        raise DqcError(f"qubit count must be >= 1, got {n}")
    p = prime.p
    d = 1 << n
    rep = closed_form_counts(prime, d)
    # zero_norm_count(p, k) = p**(2k-1) +- (p-1) p**(k-1), + for even k
    low, high = p - 1, p
    for k, (zero, _) in enumerate(islice(norm_counts(p, d), 1, None), 1):
        closed = high - low if k % 2 else high + low
        if closed != zero:
            break
        low, high = low * p, high * p * p
    rep.checks["zero_norm_recurrence"] = (k, closed), (k, zero)
    rep.checks["spot_invariants"] = True, spot_invariants(prime, d, seed)

    try:
        counts = census_tally(prime, n, budget=budget, threads=threads).class_counts
    except BudgetExceeded as exc:
        rep.notes.append(
            f"enumeration skipped: {exact_str(exc.required)} prefixes "
            f"exceed budget {exact_str(budget)}"
        )
    else:
        rep.enumerated["unit_norm"] = count_norm_class(prime, d, 1)
        rep.enumerated["zero_norm"] = count_norm_class(prime, d, 0)
        rep.enumerated["irreducible"] = count_irreducible(prime, n)
        for key in ("unit_norm", "zero_norm", "irreducible"):
            rep.checks[f"{key}_enumerated"] = getattr(rep, key), rep.enumerated[key]
        rep.enumerated["unentangled_irreducible"] = counts["Unentangled"]
        rep.enumerated["maxent_irreducible"] = counts["Maximal"]
        rep.checks["unentangled_enumerated"] = (
            rep.unentangled_irreducible, counts["Unentangled"]
        )
        if rep.maxent_irreducible is not None:
            rep.checks["maxent_enumerated"] = rep.maxent_irreducible, counts["Maximal"]
        rep.checks["census_total"] = rep.irreducible, sum(counts.values())

    if total_count(p, d) <= DEFAULT_SCAN_LIMIT:
        scan = full_scan_norm_counts(prime, d)
        rep.enumerated["full_scan_zero_norm"] = scan[0]
        rep.enumerated["full_scan_unit_norm"] = scan[1]
        rep.checks["full_scan_histogram"] = (
            [rep.zero_norm] + [rep.unit_norm] * (p - 1),
            [scan[c] for c in range(p)],
        )
    else:
        rep.notes.append(f"full scan skipped: {exact_str(total_count(p, d))} vectors")

    for name, (expected, found) in rep.checks.items():
        if expected != found:
            raise VerificationFailed(name, expected, found, rep)
    return rep
