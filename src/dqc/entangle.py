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
The squared-length meaning is kept for every n, but enumeration
confirms the formula only at n = 2, so census.verify compares the
Maximal count with a closed form only for n <= 2.  At p=3, n=3 there
are 257,904 Maximal irreducible states, against the formula's 2,592
and the 2,160 whose Pauli expectations all vanish.  p=7, n=3 is the
first cell where the purity sum_sq / n is defined at n = 3; there
2,485,438,368 states are Maximal and 84,418,468,512 have purity 0,
neither near the formula's 921,984.
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
column must give a_k b_i - a_i b_k == 0, which _dependent alone tests.
Testing det G_j == 0 would be wrong: det G_j is the sum of the field
norms of all 2x2 minors (Lagrange identity), and over F_p a sum of
nonzero norms can vanish.  The two agree at n = 2, with one minor, and
part from n = 3 on; the tests pin an entangled state with det G_j == 0.
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
is the pivot or zero, and the test 0 x == 0 passes whatever x is; once
a head column fails, 0 x == 1 passes for none.  So each qubit has one
test.  These forms are built once per prefix, and classify_completions
completes them over the prefix's circle in O(n) per state.

The forms are built one level up as well: the prefixes sharing a
parent, their first D - 2 amplitudes, differ only in amplitude D - 2,
so parent_forms runs every pass up to it once per parent and
finish_forms completes it per prefix in O(n) (parent_forms says where
it enters); classify_raw composes the three.

The census counts the completions instead of classifying them.  The
last amplitude runs over the circle N(x) = c, which has p + 1 points
for c != 0 and the single point 0 for c == 0, and a line
u x0 + v x1 = t with (u, v) != 0 meets it in

    1 + chi(c (u**2 + v**2) - t**2)

points, chi the Legendre symbol: the line is the points
t (u, v) / w + s (-v, u) with w = u**2 + v**2, which is nonzero since
p = 3 mod 4, and their norm is t**2 / w + s**2 w, so s**2 must equal
(c w - t**2) / w**2.  At c == 0 that is 1 + chi(-t**2), 1 exactly when
t == 0 (-1 is a non-residue mod p).  So one rule counts every prefix
(size is its number of completions, a range in the census's walk):

    Maximal      the common points of the n lines q + u x0 + v x1 = 0:
                 none, all completions, one line's count, or the one
                 crossing point of two lines when it lies on the circle
                 and on every other line (parallel lines meet only when
                 equal);
    Unentangled  the common point x = k / (c0 + i c1) of the tests, when
                 N(k) = c N(c0 + i c1) and every test agrees (all
                 completions when each is 0 x == 0, none if one is 0 x == 1);
    sum_sq       qs + us x0 + vs x1: all completions at qs when
                 w = c (us**2 + vs**2) is 0, else the key (qs, w) of a
                 histogram of lines, expanded when the block's walk ends.

Maximal states have sum_sq 0 and Unentangled ones sum_sq n mod p
(every separable qubit has squared length 1), so Partial and the
purity-one non-products follow by subtraction.

The census walks weighted slices of the unit sphere, not one state per
phase class.  Kind, sum_sq and mask do not change under a local unitary
on any qubit.  A group G of them moves every unit state onto a slice,
and a slice state s stands for |G| / #{g in G : g s in the slice} unit
states: over an orbit these weights add up to its size.  The census
divides every total by p + 1, the size of a phase class; a remainder
raises DqcError.  The walk splits the sphere into three sets by the top
qubit's first pair (x_0, x_{D/2}), r = N(x_0) + N(x_{D/2}), and gives
each set a slice and a weight rule; gamma_r is the fiber minimum of
norm r.

    Generic pair, r != 0.  The unitary group U(2) over F_p[i], of order
    p (p**2 - 1)(p + 1), is transitive on each sphere N(x) + N(y) = r of
    p**3 - p pairs, and the stabilizer of (gamma_r, 0) is diag(1, u):
    Witt's theorem for Hermitian forms (D. E. Taylor, The Geometry of
    the Classical Groups, 1992), the counterpart over F_p[i] of the
    generalized Schmidt form over C (Acin et al., PRL 85, 1560, 2000).
    G is U(2) on the top qubit, which holds the global phase, and a
    phase gate diag(1, u) on each other qubit, p (p-1) (p+1)**(n+1)
    elements.  The slice has (x_0, x_{D/2}) = (gamma_r, 0) and holds
    each position 1 << k, k < n - 1, at 0 or a fiber minimum, and
    D/2 + 1 too unless it is the last position: its phase is the
    stabilizer's u times the gate phase of the qubit of bit 0, so the
    held phases range independently over the (p+1)**n elements that
    the stabilizer and the gates make.  A slice state with k nonzero
    held amplitudes weighs p (p-1) (p+1)**(k+1).  At n = 1 the set is
    the one state (gamma_1, 0).

    Isotropic pair, r == 0 with a nonzero pair, so that both amplitudes
    are nonzero (only 0 has norm 0).  G is the torus: the global phase
    g and diag(1, u_j) on every qubit j, (p+1)**(n+1) elements.
    Amplitude 0 takes the phase g and amplitude 1 << k the phase g u_j,
    j the qubit that owns bit k, so the phases of these n + 1
    amplitudes range independently, and a nonzero amplitude's orbit is
    its whole fiber.  Holding each at 0 or a fiber minimum puts
    (x_0, x_{D/2}) at some (gamma_r, gamma_{-r}); the slice takes r = 1
    only, so a slice state weighs (p-1) (p+1)**(k+2), k its nonzero
    amplitudes at 1 << j, j < n - 1.  The factor p - 1 stands for the
    other norms r.  U(2) on the top qubit is transitive on the nonzero
    isotropic pairs v (Witt's theorem again) and maps the unit states
    A_v whose top pair is v onto A_{gv}, keeping kind, sum_sq and mask,
    so every A_v has the same tally.  The torus slice of
    (gamma_r, gamma_{-r}) stands for the (p+1)**2 sets A_v with
    N(x_0) = r and N(x_{D/2}) = -r, so the p - 1 norms r give equal
    totals.  The stabilizer of an isotropic pair, of order p, is not
    used, so no weight depends on the state.

    Zero pair, x_0 = x_{D/2} = 0: the torus slice, weighing (p+1)**k.

A slice state weighs its set's scale times (p+1)**k, k its nonzero held
amplitudes; held are the positions that range over 0 and the fiber
minima, all below D - 2.  The last position, never held, has its
completions counted on the whole circle (at n = 1 it is x_{D/2}, at 0).
census_prefixes counts the walk: 56 at p=7 n=2, 17,496 at p=3 n=3.

Purity is the averaged sum of squared expectations sum_sq / n, an
element of F_p defined whenever p does not divide n.  Product states
have purity 1.  The census also counts non-product states whose
purity residue equals 1 (the division-free test sum_sq == n mod p),
rather than assuming there are none.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from math import prod

from .basefield import ComplexifiablePrime
from .census import (
    DEFAULT_BUDGET,
    check_budget,
    enum_tables,
    fiber_minima,
    irreducible_count,
    iter_norm_prefixes,
    prefix_blocks,
    run_blocks,
    usable_cpus,
    walk_prefixes,
)
from .complexfield import cadd, cmul, cneg, conj
from .errors import DqcError, NonRealExpectation, NotUnitNorm, ZeroVector
from .states import StateVector

# A pool starts and joins in 9-15 ms on a 2-vCPU host, so two workers
# first beat one at about 4,000 prefixes (p=59 n=2, 3,540 prefixes: 31.9
# ms inline, 40.4 ms on two; p=67 n=2, 4,556: 52.9 and 49.3 ms); a
# smaller census runs its blocks inline whatever the thread count
POOL_MIN_PREFIXES = 4000


class EntanglementClass(str, Enum):
    UNENTANGLED = "Unentangled"
    PARTIAL = "Partial"
    MAXIMAL = "Maximal"

    def __str__(self) -> str:  # csv/json friendliness
        return self.value


# (Unentangled, Partial, Maximal) for the kernel's locals: an enum lookup costs 0.2 us
_KINDS = tuple(EntanglementClass)


class PauliExpectations(namedtuple("PauliExpectations", "field n grid")):
    """Per-qubit triples (x, y, z) of Pauli expectations, all in F_p."""

    __slots__ = ()


class PurityValue(namedtuple("PurityValue", "sum_sq n reduced")):
    """sum_sq = sum of squared expectations; reduced = sum_sq / n when
    p does not divide n, else None."""

    __slots__ = ()


class Classification(namedtuple("Classification", "kind n separable_mask")):
    __slots__ = ()

    def __new__(cls, kind: EntanglementClass, n: int, separable_mask: frozenset):
        full = len(separable_mask) == n
        if (kind == EntanglementClass.UNENTANGLED) != full:
            raise ValueError("Unentangled must coincide with a full separable mask")
        if kind == EntanglementClass.MAXIMAL and separable_mask:
            raise ValueError("Maximal states admit no separable qubit")
        return super().__new__(cls, kind, n, separable_mask)


# -- census kernel over amplitude tuples --------------------------------------

_ALWAYS = (0, 0, 0, 0)  # 0 x == 0: the qubit has no nonzero head column
_NEVER = (0, 0, 1, 0)  # 0 x == 1: its head columns are independent


def _dependent(p: int, pivot: tuple, a0: int, a1: int, b0: int, b1: int) -> bool:
    """Whether the column (a, b) is an F_p[i] multiple of the nonzero column
    pivot = (c0, c1, e0, e1): whether the minor c b - a e vanishes.  The
    kernel's one separability test (the module docstring derives it)."""
    c0, c1, e0, e1 = pivot
    return not (
        (c0 * b0 - c1 * b1 - a0 * e0 + a1 * e1) % p
        or (c0 * b1 + c1 * b0 - a0 * e1 - a1 * e0) % p
    )


def parent_forms(p: int, n: int, parent: tuple) -> tuple:
    """The part of every qubit's pass that the first 2**n - 2 amplitudes fix.

    Amplitude 2**n - 2 has every bit but the lowest set, so it enters
    each pass only at its end: as the b-entry of the final head pair
    (2**n - 2 - m, 2**n - 2) for a qubit of bit m > 1, and as the a-entry
    of the last column for m == 1.  Returns, per qubit j, (na, nb, re,
    im, pivot, g, a): the sums over the head pairs before that, and the
    pivot, which is None while no column is nonzero, the first nonzero
    column (c0, c1, e0, e1) while _dependent passes every later one, and
    False once it fails one.  For m > 1, g is the a-entry of the final
    head pair and a = (a0, a1, N(a)) that of the last column, both
    counted in na; for m == 1 both are None.  finish_forms completes
    the passes for one amplitude 2**n - 2.
    """
    d = 1 << n
    passes = []
    for j in range(n):
        m = 1 << (n - 1 - j)
        last = d - 1 - m
        na = nb = re = im = 0
        # None: no nonzero column yet; a column: the later ones depend on
        # it so far; False: one does not
        pivot = None
        # index last - 1 is left out: g, added below, for m > 1, and odd,
        # so no a-entry, for m == 1
        for i in range(last - 1):
            if i & m:
                continue
            a0, a1 = parent[i]
            b0, b1 = parent[i | m]
            na += a0 * a0 + a1 * a1
            nb += b0 * b0 + b1 * b1
            re += a0 * b0 + a1 * b1
            im += a0 * b1 - a1 * b0
            if pivot is None:
                if a0 or a1 or b0 or b1:
                    pivot = (a0, a1, b0, b1)
            elif pivot and not _dependent(p, pivot, a0, a1, b0, b1):
                pivot = False
        g = a = None
        if m > 1:
            g = parent[last - 1]
            a0, a1 = parent[last]
            a = a0, a1, a0 * a0 + a1 * a1
            na += g[0] * g[0] + g[1] * g[1] + a[2]
        passes.append((na, nb, re, im, pivot, g, a))
    return tuple(passes)


def finish_forms(p: int, passes: tuple, y: tuple, c: int) -> tuple:
    """Per-prefix forms of the kernel, which classify_completions
    completes and the census counts.

    The prefix is the parent of parent_forms' passes followed by y, and
    c is the field norm of the last amplitude, x (the module docstring
    derives the forms).  O(n): each pass takes y into its last column or
    last head pair, which _dependent tests.  Returns (qs, us, vs,
    lengths, tests), which hashes, so that a writer can cache the
    prefix's rows under it: lengths holds each qubit's squared length as
    (q, u, v), read as q + u x0 + v x1 mod p, and (qs, us, vs) their
    sums; tests[j] is qubit j's (c0, c1, k0, k1): it factors out exactly
    when (c0 + i c1) x == k0 + i k1, for every x (_ALWAYS) when no head
    column is nonzero and for none (_NEVER) when they are independent.
    """
    y0, y1 = y
    ny = y0 * y0 + y1 * y1
    lengths = []
    tests = []
    qs = us = vs = 0
    for na, nb, re, im, pivot, g, a in passes:
        if g is None:
            a0, a1 = y
            nl = ny
            na += ny
        else:
            g0, g1 = g
            nb += ny
            re += g0 * y0 + g1 * y1
            im += g0 * y1 - g1 * y0
            if pivot is None:
                if g0 or g1 or y0 or y1:
                    pivot = (g0, g1, y0, y1)
            elif pivot and not _dependent(p, pivot, g0, g1, y0, y1):
                pivot = False
            a0, a1, nl = a
        # |h + conj(a) x|**2 = N(h) + N(a) c + 2 Re(conj(h a) x)
        q = (1 - 4 * (na * (nb + c) - re * re - im * im - nl * c)) % p
        u = 8 * (re * a0 - im * a1) % p
        v = 8 * (re * a1 + im * a0) % p
        lengths.append((q, u, v))
        qs += q
        us += u
        vs += v
        if pivot:
            c0, c1, e0, e1 = pivot
            tests.append((c0, c1, (a0 * e0 - a1 * e1) % p, (a0 * e1 + a1 * e0) % p))
        else:  # None: no head column is nonzero; False: one is independent
            tests.append(_ALWAYS if pivot is None else _NEVER)
    return qs % p, us % p, vs % p, tuple(lengths), tuple(tests)


def classify_completions(p: int, forms: tuple, completions) -> list:
    """[(kind, sum_sq, mask)] of finish_forms' prefix followed by each x
    of completions, in order.  O(n) per state, read off the affine forms:
    sum_sq is the total of the n squared lengths mod p, the purity's
    numerator, and bit j of mask is set when tests[j] passes."""
    qs, us, vs, lengths, tests = forms
    full = (1 << len(lengths)) - 1
    unentangled, partial, maximal = _KINDS
    classified = []
    for x0, x1 in completions:
        mask, bit = 0, 1
        for test in tests:
            if test is not _NEVER:  # no x passes it; most qubits' test at n = 3
                c0, c1, k0, k1 = test
                if not ((c0 * x0 - c1 * x1 - k0) % p or (c1 * x0 + c0 * x1 - k1) % p):
                    mask |= bit
            bit <<= 1
        sum_sq = (qs + us * x0 + vs * x1) % p
        kind = unentangled if mask == full else partial
        if not sum_sq and kind is partial:
            for q, u, v in lengths:
                if (q + u * x0 + v * x1) % p:
                    break
            else:
                kind = maximal
        classified.append((kind, sum_sq, mask))
    return classified


def classify_raw(p: int, n: int, amps: tuple) -> tuple:
    """(kind, sum_sq, mask) for a unit-norm amplitude tuple.

    parent_forms and finish_forms of the first 2**n - 1 amplitudes,
    completed by classify_completions with the last one.  The mask does
    not depend on the norm, so any nonzero vector may be passed.
    """
    x0, x1 = amps[-1]
    passes = parent_forms(p, n, amps[:-2])
    forms = finish_forms(p, passes, amps[-2], (x0 * x0 + x1 * x1) % p)
    return classify_completions(p, forms, amps[-1:])[0]


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
    sum_sq = sum(v * v for triple in exps.grid for v in triple) % p
    return PurityValue(sum_sq=sum_sq, n=psi.n, reduced=reduced_purity(p, psi.n, sum_sq))


def reduced_purity(p: int, n: int, sum_sq: int) -> int | None:
    """The purity sum_sq / n in F_p, or None when p divides n."""
    return sum_sq * pow(n % p, p - 2, p) % p if n % p else None


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

class CensusTally(namedtuple(
    "CensusTally", "p n class_counts purity_hist purity_one_not_product"
)):
    """Counts over all irreducible (canonical unit-norm) n-qubit states.

    class_counts are per entanglement class; purity_hist keys are
    sum_sq residues.  purity_one_not_product counts entangled states
    passing the division-free purity-1 test sum_sq == n mod p, kept
    visible instead of being assumed empty.  Unit-sphere counts are the
    irreducible ones scaled by the p + 1 phases.
    """

    __slots__ = ()

    @property
    def irreducible_total(self) -> int:
        return sum(self.class_counts.values())

    def unit_class_counts(self) -> dict:
        return {k: (self.p + 1) * v for k, v in self.class_counts.items()}


def _line_points(p: int) -> list:
    """_line_points(p)[r] = 1 + chi(r), chi the Legendre symbol mod p.

    For (u, v) != 0 the line u x0 + v x1 = t meets the circle
    x0**2 + x1**2 = c in _line_points(p)[(c (u**2 + v**2) - t**2) % p]
    points (the module docstring derives it).
    """
    points = [0] * p
    for x in range(p):
        points[x * x % p] = 2
    points[0] = 1
    return points


def _count_maximal(p: int, c: int, size: int, lengths: list, points: list) -> int:
    """Completions x, size of them on N(x) = c, on which every (q, u, v)
    of lengths, read as q + u x0 + v x1, vanishes."""
    line = None
    for q, u, v in lengths:
        if not (u or v):
            if q:
                return 0
        elif line is None:
            line = q, u, v
        else:
            q1, u1, v1 = line
            det = (u1 * v - v1 * u) % p
            if det:
                # the two lines cross at (x0, x1) / det; check it on the
                # circle and on every line
                x0 = v1 * q - v * q1
                x1 = u * q1 - u1 * q
                if (x0 * x0 + x1 * x1 - c * det * det) % p:
                    return 0
                for q, u, v in lengths:
                    if (u * x0 + v * x1 + q * det) % p:
                        return 0
                return 1
            if (q * u1 - q1 * u) % p or (q * v1 - q1 * v) % p:
                return 0  # parallel and distinct
    if line is None:
        return size
    q1, u1, v1 = line
    return points[(c * (u1 * u1 + v1 * v1) - q1 * q1) % p]


def _count_unentangled(p: int, c: int, size: int, tests: tuple) -> int:
    """Completions x, size of them on N(x) = c, at which every qubit
    factors out: each (c0, c1, k0, k1) of tests asks (c0 + i c1) x ==
    k0 + i k1, so one with c == 0 passes for every x or none (_NEVER),
    and those that involve x agree when _dependent says so."""
    lead = None
    for c0, c1, k0, k1 in tests:
        if not (c0 or c1):
            if k0 or k1:
                return 0
        elif lead is None:
            # x = k / (c0 + i c1) lies on the circle when N(k) == c N(c0 + i c1)
            if (k0 * k0 + k1 * k1 - c * (c0 * c0 + c1 * c1)) % p:
                return 0
            lead = c0, c1, k0, k1
        elif not _dependent(p, lead, c0, c1, k0, k1):
            return 0  # this test asks for a different x
    return size if lead is None else 1


def census_prefixes(p: int, n: int) -> int:
    """Prefixes of census_segments' walk, from the shape of its slices,
    so that the budget is checked before the walk.  Below D - 1 the torus
    sets, over the zero and the isotropic pair, hold 1 << k, k < n - 1
    (p choices each), and leave free = D - n - 2 positions (p**2 each);
    the generic set takes p - 1 pairs and holds D/2 + 1 from n = 3 on."""
    if n == 1:
        return 1
    free = (1 << n) - n - 2
    extra = n > 2
    return 2 * p ** (n - 1 + 2 * free) + (p - 1) * p ** (n - 1 + 2 * free - extra)


def census_segments(p: int, n: int) -> list:
    """The census's walk as (segment, held, scale) triples, one
    walk_prefixes segment each, split by the top qubit's first pair
    (x_0, x_{D/2}): the generic pairs (gamma_r, 0), then the isotropic
    pair (gamma_1, gamma_{-1}), which stands for all p - 1 isotropic
    norms, then the zero pair.  A prefix of the segment stands for
    scale * (p + 1)**k unit states, k its nonzero amplitudes at the
    positions in held, those below D - 2 that range over 0 and the
    fiber minima.  Below n = 3 no position is free, so no p**2 table is
    read.  census_tally builds it once per tally and sends each triple
    to its blocks."""
    minima = fiber_minima(p)
    zero = ((0, 0),)
    generic_scale = p * (p - 1) * (p + 1)
    circles = [range(1)] + [range(p + 1)] * (p - 1)
    if n == 1:
        # the last position is x_{D/2}, at 0: the one state (gamma_1, 0)
        return [([minima[1:2], circles], set(), generic_scale)]
    d = 1 << n
    half = d >> 1
    shared = {1 << k for k in range(n - 1)}
    leads = tuple(sorted(minima[1:]))
    elements = enum_tables(p)[0] if n > 2 else None

    def segment(first, top, held):
        choices = [zero + leads if i in held else elements for i in range(d - 1)]
        choices[0], choices[half] = first, top
        return choices + [circles]

    # diag(1, u), the stabilizer of (gamma_r, 0), holds D/2 + 1 as well
    generic = shared | ({half + 1} - {d - 1})
    return [
        (segment(leads, zero, generic), generic, generic_scale),
        (segment(minima[1:2], minima[p - 1:], shared), shared, (p - 1) * (p + 1) ** 2),
        (segment(zero, zero, shared), shared, 1),
    ]


def _tally_block(args) -> list:
    """Count the weighted states of one block of the census's parents,
    args (p, n, (segment, held, scale), start, stop): parents
    start..stop-1 of one census_segments(p, n) triple, which the block
    carries.

    Returns [maximal, unentangled, purities[0], ..., purities[p - 1]],
    purities[s] the states of sum_sq s.  A prefix whose sum_sq is
    qs + us x0 + vs x1 with w = c (us**2 + vs**2) != 0 is kept under the
    key (qs, w) while the block walks; at its end each key puts
    1 + chi(w - (s - qs)**2) completions at every sum_sq s.  A parent's
    children count its weight, scale * (p + 1)**k (census_segments).
    """
    p, n, (segment, held, scale), start, stop = args
    points = _line_points(p)
    maximal = unentangled = 0
    purities = [0] * p
    lines: dict = {}
    for parent, children in walk_prefixes(p, 1, segment, start, stop):
        passes = parent_forms(p, n, parent)
        weight = scale * (p + 1) ** sum(parent[i] != (0, 0) for i in held)
        for y, c, completions in children:
            qs, us, vs, lengths, tests = finish_forms(p, passes, y, c)
            size = len(completions)
            w = c * (us * us + vs * vs) % p
            if w:
                lines[qs, w] = lines.get((qs, w), 0) + weight
            else:
                purities[qs] += weight * size
            maximal += weight * _count_maximal(p, c, size, lengths, points)
            unentangled += weight * _count_unentangled(p, c, size, tests)
    for (qs, w), k in lines.items():
        for s in range(p):
            purities[s] += k * points[(w - (s - qs) ** 2) % p]
    return [maximal, unentangled, *purities]


def census_tally(
    prime: ComplexifiablePrime,
    n: int,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> CensusTally:
    """Classify every irreducible n-qubit state by weighted block enumeration.

    Each segment of census_segments is sized here and split into blocks
    of its parents, so no block crosses a segment and one worker runs
    one block per segment.  The blocks' lists add column by column, so
    the tally is independent of the thread count and block layout; a
    walk of fewer than POOL_MIN_PREFIXES prefixes starts no pool, a
    larger one no more workers than usable CPUs.  Every column sum is
    p + 1 times a count of irreducible states; a remainder raises
    DqcError, as do n < 1 and threads < 1.  Partial and purity-one
    non-products follow by subtraction (module docstring).
    """
    if n < 1:
        raise DqcError(f"qubit count must be >= 1, got {n}")
    if threads < 1:
        raise DqcError(f"thread count must be >= 1, got {threads}")
    p = prime.p
    prefixes = census_prefixes(p, n)
    check_budget(p, prefixes, budget, irreducible_count(p, 1 << n))
    workers = 1 if prefixes < POOL_MIN_PREFIXES else min(threads, usable_cpus())
    args = [
        (p, n, walk, start, stop)
        for walk in census_segments(p, n)
        for start, stop in prefix_blocks(prod(map(len, walk[0][:-2])), workers)
    ]
    totals = [sum(column) for column in zip(*run_blocks(_tally_block, args, workers))]
    if any(total % (p + 1) for total in totals):
        raise DqcError(f"weighted counts {totals} not divisible by p+1={p + 1}")
    maximal, unentangled, *purities = (total // (p + 1) for total in totals)
    partial = sum(purities) - maximal - unentangled
    return CensusTally(
        p=p,
        n=n,
        class_counts={
            EntanglementClass.UNENTANGLED.value: unentangled,
            EntanglementClass.PARTIAL.value: partial,
            EntanglementClass.MAXIMAL.value: maximal,
        },
        purity_hist={s: k for s, k in enumerate(purities) if k},
        purity_one_not_product=purities[n % p] - unentangled,
    )


def iter_classified_prefixes(
    prime: ComplexifiablePrime, n: int, budget: int = DEFAULT_BUDGET
):
    """The canonical unit-norm iter_norm_prefixes of n qubits, each
    child's norm c replaced by its prefix's finish_forms, which
    classify_completions completes over the circle: children holds
    (y, forms, completions) per prefix parent + (y,).  A parent's passes
    are built once, its children's forms in one list.  The budget is
    checked on the call and charged the canonical walk's prefixes."""
    p = prime.p
    return (
        (parent, [
            (y, finish_forms(p, passes, y, c), completions)
            for y, c, completions in children
        ])
        for parent, children in iter_norm_prefixes(
            prime, 1 << n, 1, budget, canonical_only=True
        )
        for passes in [parent_forms(p, n, parent)]  # once per parent
    )


def iter_classified(
    prime: ComplexifiablePrime, n: int, budget: int = DEFAULT_BUDGET
):
    """(amps, kind, sum_sq, reduced, mask) for every irreducible state, in
    lexicographic amplitude order: iter_classified_prefixes, completed
    one circle at a time.  The budget is checked on the call."""
    p = prime.p
    reduced = [reduced_purity(p, n, s) for s in range(p)]
    return (
        (parent + (y, x), kind, sum_sq, reduced[sum_sq], mask)
        for parent, children in iter_classified_prefixes(prime, n, budget)
        for y, forms, completions in children
        for x, (kind, sum_sq, mask) in zip(
            completions, classify_completions(p, forms, completions)
        )
    )
