"""Pauli expectations, purity and the entanglement census.

Expectations of the single-qubit Pauli operators are elements of F_p
(imaginary parts cancel exactly).  The y-operator is taken with
weights chosen so that for one qubit the triple of expectations equals
the discrete Hopf point (X, Y, Z); the sign convention drops out of
every squared or zero-tested quantity.

Classification of a unit-norm state:

    Unentangled  every qubit splits off as a tensor factor
    Maximal      every qubit's expectation triple (x, y, z) has zero
                 squared length x**2 + y**2 + z**2 mod p
    Partial      everything else

Over F_p a triple can square to zero without its components vanishing,
and it is the squared-length criterion that the closed-form count
p**(n+1) (p-1) (p+1)**(n-1) enumerates; demanding all components zero
selects a strictly smaller set (24 versus 216 classes at p=3, n=2).
Unentangled and Maximal cannot overlap: a tensor factor of a unit-norm
state has nonzero field norm t, and its qubit's squared length works
out to t**2 times the cofactor norm squared, which is nonzero.

The census kernel never forms the expectations.  Split
the amplitudes along qubit j into the halves a (bit j clear) and b
(bit j set).  Then x = 2 Re<a|b>, y = -2 Im<a|b> and z = N_a - N_b, so
the qubit's squared length is

    x**2 + y**2 + z**2 = (N_a + N_b)**2 - 4 det G_j,
    det G_j = N_a N_b - |<a|b>|**2,

which is 1 - 4 det G_j on a unit state.  Qubit j factors out exactly
when a and b are linearly dependent over F_p[i].  The kernel tests
this against a pivot, the first nonzero column (a_k, b_k): every later
column must give a_k b_i - a_i b_k == 0.  Testing det G_j == 0 instead
would be wrong.  det G_j is the sum of the field norms of all 2x2
minors (Lagrange identity), and over F_p a sum of nonzero norms can
vanish.  At n = 2 there is one minor and the tests agree; from n = 3
on they part, and the tests pin an entangled state with det G_j == 0.
pauli_expectations is the independent path the kernel is checked
against.

The census walks each prefix (the first D - 1 amplitudes) with all of
its roughly p + 1 completions x, and the kernel is split to match.  The
last index D - 1 has every bit set, so for each qubit x is the b-entry
of one pair only, (D - 1 - m, D - 1) with m the qubit's bit.  Given the
head and c = N(x), N_a, N_b = N_b' + c and the head part h of <a|b>
are constants, and <a|b> = h + conj(a) x with a = amps[D - 1 - m].
Since

    |h + conj(a) x|**2 = N(h) + N(a) c + 2 Re(conj(h a) x),

the squared length is Q + U x0 + V x1 mod p, with

    Q = 1 - 4 (N_a (N_b' + c) - N(h) - N(a) c),   U + i V = 8 h a.

The dependence test of the head columns runs once per prefix.  If they
hold a pivot (c_k, e_k) and pass, the last column passes exactly when
c_k x == a e_k, again affine in x; if none is nonzero the last column
is the pivot or zero and the qubit factors out whatever x is.
gram_forms builds these forms once per prefix and classify_last
completes them in O(n) per state; classify_raw is their composition.

Purity is the averaged sum of squared expectations sum_sq / n, an
element of F_p defined whenever p does not divide n.  Product states
have purity 1.  The census also counts non-product states whose
purity residue equals 1 (the division-free test sum_sq == n mod p),
rather than assuming there are none.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .basefield import ComplexifiablePrime
from .census import (
    DEFAULT_BUDGET,
    canonical_prefix_count,
    check_budget,
    irreducible_count,
    prefix_blocks,
    run_blocks,
    walk_prefixes,
)
from .complexfield import cadd, cmul, cneg, conj
from .errors import NonRealExpectation, NotUnitNorm, ZeroVector
from .states import StateVector


class EntanglementClass(str, Enum):
    UNENTANGLED = "Unentangled"
    PARTIAL = "Partial"
    MAXIMAL = "Maximal"

    def __str__(self) -> str:  # csv/json friendliness
        return self.value


@dataclass(frozen=True)
class PauliExpectations:
    """Per-qubit triples (x, y, z) of Pauli expectations, all in F_p."""

    field: ComplexifiablePrime
    n: int
    grid: tuple

    def flat(self) -> tuple:
        return tuple(v for triple in self.grid for v in triple)


@dataclass(frozen=True)
class PurityValue:
    """sum_sq = sum of squared expectations; reduced = sum_sq / n when
    p does not divide n, else None."""

    sum_sq: int
    n: int
    reduced: int | None


@dataclass(frozen=True)
class Classification:
    kind: EntanglementClass
    n: int
    separable_mask: frozenset

    def __post_init__(self):
        full = len(self.separable_mask) == self.n
        if (self.kind == EntanglementClass.UNENTANGLED) != full:
            raise ValueError("Unentangled must coincide with a full separable mask")
        if self.kind == EntanglementClass.MAXIMAL and self.separable_mask:
            raise ValueError("Maximal states admit no separable qubit")


# -- census kernel over amplitude tuples --------------------------------------

def gram_forms(p: int, n: int, head: tuple, c: int) -> tuple:
    """Per-prefix forms of the kernel, which classify_last completes.

    head is the first 2**n - 1 amplitudes and c the field norm of the
    last one, x (the module docstring derives the forms).  Returns
    (qs, us, vs, lengths, tests, fixed): lengths holds each qubit's
    squared length as (q, u, v), read as q + u x0 + v x1 mod p, and
    (qs, us, vs) their sums; tests holds (bit, c0, c1, k0, k1) for a
    qubit that factors out exactly when (c0 + i c1) x == k0 + i k1;
    fixed has the bits of the qubits that factor out whatever x is.
    """
    d = 1 << n
    lengths = []
    tests = []
    fixed = qs = us = vs = 0
    for j in range(n):
        m = 1 << (n - 1 - j)
        last = d - 1 - m
        na = nb = re = im = 0
        pivoted = False
        dependent = True
        for i in range(last):
            if i & m:
                continue
            a0, a1 = head[i]
            b0, b1 = head[i | m]
            na += a0 * a0 + a1 * a1
            nb += b0 * b0 + b1 * b1
            re += a0 * b0 + a1 * b1
            im += a0 * b1 - a1 * b0
            if not pivoted:
                c0, c1, e0, e1 = a0, a1, b0, b1
                pivoted = bool(a0 or a1 or b0 or b1)
            elif dependent and (
                (c0 * b0 - c1 * b1 - a0 * e0 + a1 * e1) % p
                or (c0 * b1 + c1 * b0 - a0 * e1 - a1 * e0) % p
            ):
                dependent = False
        a0, a1 = head[last]
        nl = a0 * a0 + a1 * a1
        na += nl
        # |h + conj(a) x|**2 = N(h) + N(a) c + 2 Re(conj(h a) x)
        q = (1 - 4 * (na * (nb + c) - re * re - im * im - nl * c)) % p
        u = 8 * (re * a0 - im * a1) % p
        v = 8 * (re * a1 + im * a0) % p
        lengths.append((q, u, v))
        qs += q
        us += u
        vs += v
        if not dependent:
            continue
        if pivoted:
            tests.append(
                (1 << j, c0, c1, (a0 * e0 - a1 * e1) % p, (a0 * e1 + a1 * e0) % p)
            )
        else:
            # the last column is the first nonzero one, if any, and is
            # tested against nothing
            fixed |= 1 << j
    return qs % p, us % p, vs % p, lengths, tests, fixed


def classify_last(p: int, n: int, forms: tuple, x: tuple) -> tuple:
    """(kind, sum_sq, mask) of the state gram_forms' head followed by x.

    O(n): each qubit's squared length and last-column dependence test is
    read from its affine form.  sum_sq is the total of the n squared
    lengths mod p, the numerator of the purity.  Bit j of mask is set
    when qubit j factors out.
    """
    qs, us, vs, lengths, tests, mask = forms
    x0, x1 = x
    for bit, c0, c1, k0, k1 in tests:
        if not ((c0 * x0 - c1 * x1 - k0) % p or (c1 * x0 + c0 * x1 - k1) % p):
            mask |= bit
    sum_sq = (qs + us * x0 + vs * x1) % p
    if mask == (1 << n) - 1:
        kind = EntanglementClass.UNENTANGLED
    elif sum_sq or any((q + u * x0 + v * x1) % p for q, u, v in lengths):
        kind = EntanglementClass.PARTIAL
    else:
        kind = EntanglementClass.MAXIMAL
    return kind, sum_sq, mask


def classify_raw(p: int, n: int, amps: tuple) -> tuple:
    """(kind, sum_sq, mask) for a unit-norm amplitude tuple.

    gram_forms of the first 2**n - 1 amplitudes, completed by
    classify_last with the last one.  The mask does not depend on the
    norm, so any nonzero vector may be passed.
    """
    x0, x1 = amps[-1]
    forms = gram_forms(p, n, amps[:-1], (x0 * x0 + x1 * x1) % p)
    return classify_last(p, n, forms, amps[-1])


# -- public operations on StateVector ----------------------------------------

def pauli_expectations(psi: StateVector) -> PauliExpectations:
    """Expectations by direct Hermitian accumulation.

    Keeps the full complexified sums and checks that each imaginary
    part is zero, raising NonRealExpectation otherwise (which would
    signal an internal inconsistency, not a property of the input).
    An independent path from the Gram-determinant kernel classify_raw;
    the tests check one against the other.
    """
    if not psi.is_unit():
        raise NotUnitNorm(f"state has norm {psi.vnorm()}, need 1")
    p = psi.field.p
    n, d, amps = psi.n, psi.dim, psi.amps
    plus_i, minus_i = (0, 1), (0, p - 1)
    grid = []
    for j in range(n):
        m = 1 << (n - 1 - j)
        accx = accy = accz = (0, 0)
        for i in range(d):
            ci = conj(p, amps[i])
            partner = amps[i ^ m]
            accx = cadd(p, accx, cmul(p, ci, partner))
            w = cmul(p, plus_i if not (i & m) else minus_i, partner)
            accy = cadd(p, accy, cmul(p, ci, w))
            dz = cmul(p, ci, amps[i])
            accz = cadd(p, accz, dz if not (i & m) else cneg(p, dz))
        for name, acc in (("x", accx), ("y", accy), ("z", accz)):
            if acc[1]:
                raise NonRealExpectation(
                    f"sigma_{name} on qubit {j} gave imaginary part {acc[1]}"
                )
        grid.append((accx[0], accy[0], accz[0]))
    return PauliExpectations(field=psi.field, n=n, grid=tuple(grid))


def purity(psi: StateVector) -> PurityValue:
    """Averaged squared expectations; reduced form only when p does not
    divide the qubit count."""
    exps = pauli_expectations(psi)
    p = psi.field.p
    sum_sq = sum(v * v for v in exps.flat()) % p
    reduced = None
    if psi.n % p:
        reduced = sum_sq * pow(psi.n % p, p - 2, p) % p
    return PurityValue(sum_sq=sum_sq, n=psi.n, reduced=reduced)


def separable_qubits(psi: StateVector) -> frozenset:
    """Indices of qubits that split off as tensor factors."""
    if all(x == (0, 0) for x in psi.amps):
        raise ZeroVector("separability is undefined for the zero vector")
    mask = classify_raw(psi.field.p, psi.n, psi.amps)[2]
    return frozenset(j for j in range(psi.n) if mask >> j & 1)


def classify(psi: StateVector) -> Classification:
    """Entanglement class of a unit-norm state."""
    if not psi.is_unit():
        raise NotUnitNorm(f"state has norm {psi.vnorm()}, need 1")
    kind, _, mask = classify_raw(psi.field.p, psi.n, psi.amps)
    return Classification(
        kind=kind,
        n=psi.n,
        separable_mask=frozenset(j for j in range(psi.n) if mask >> j & 1),
    )


# -- census -------------------------------------------------------------------

@dataclass
class CensusTally:
    """Counts over all irreducible (canonical unit-norm) n-qubit states.

    class_counts are per entanglement class; purity_hist keys are
    sum_sq residues.  purity_one_not_product counts entangled states
    passing the division-free purity-1 test sum_sq == n mod p, kept
    visible instead of being assumed empty.  Unit-sphere counts are the
    irreducible ones scaled by the p + 1 phases.
    """

    p: int
    n: int
    class_counts: dict
    purity_hist: dict
    purity_one_not_product: int

    @property
    def irreducible_total(self) -> int:
        return sum(self.class_counts.values())

    def unit_class_counts(self) -> dict:
        return {k: (self.p + 1) * v for k, v in self.class_counts.items()}


def _tally_block(args) -> dict:
    """Count the states of one block of canonical prefixes by (kind, sum_sq)."""
    p, n, start, stop = args
    counts: dict = {}
    for head, c, completions in walk_prefixes(p, 1 << n, 1, True, start, stop):
        forms = gram_forms(p, n, head, c)
        for x in completions:
            key = classify_last(p, n, forms, x)[:2]
            counts[key] = counts.get(key, 0) + 1
    return counts


def census_tally(
    prime: ComplexifiablePrime,
    n: int,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> CensusTally:
    """Classify every irreducible n-qubit state by block enumeration.

    Block results merge by addition, so the tally is independent of the
    thread count and block layout.
    """
    p = prime.p
    d = 1 << n
    check_budget(p, d, budget, irreducible_count(p, d))
    blocks = prefix_blocks(canonical_prefix_count(p, d), threads)
    args = [(p, n, start, stop) for start, stop in blocks]
    classes: dict = {k.value: 0 for k in EntanglementClass}
    purities: dict = {}
    p1np = 0
    for counts in run_blocks(_tally_block, args, threads):
        for (kind, sum_sq), k in counts.items():
            classes[kind.value] += k
            purities[sum_sq] = purities.get(sum_sq, 0) + k
            if sum_sq == n % p and kind is not EntanglementClass.UNENTANGLED:
                p1np += k
    return CensusTally(
        p=p,
        n=n,
        class_counts=classes,
        purity_hist=dict(sorted(purities.items())),
        purity_one_not_product=p1np,
    )


def iter_classified(
    prime: ComplexifiablePrime, n: int, budget: int = DEFAULT_BUDGET
):
    """(amps, kind, sum_sq, reduced, mask) for every irreducible state, in
    lexicographic amplitude order.

    The budget is checked on the call, as for census_tally.  The stream
    walks the canonical prefixes like _tally_block, building each
    prefix's forms once and completing them per state.
    """
    p = prime.p
    d = 1 << n
    check_budget(p, d, budget, irreducible_count(p, d))
    n_res = n % p
    inv_n = pow(n_res, p - 2, p) if n_res else None

    def rows():
        for head, c, completions in walk_prefixes(p, d, 1, True):
            forms = gram_forms(p, n, head, c)
            for x in completions:
                kind, sum_sq, mask = classify_last(p, n, forms, x)
                reduced = sum_sq * inv_n % p if inv_n is not None else None
                yield head + (x,), kind, sum_sq, reduced, mask

    return rows()
