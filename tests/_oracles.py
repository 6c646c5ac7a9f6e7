"""Independent brute-force oracles used by the tests.

Everything here is deliberately written from first principles against
plain (re, im) tuples: explicit loops over all field elements, literal
Kronecker-product Pauli matrices, literal phase-orbit minimization.
Only canonical_tally, which reuses the package's per-prefix forms and
counters, and the row oracles, which reuse its per-state streams, share
code with the package, so agreement is meaningful.
"""

import csv
import io
import json
from collections import Counter
from itertools import combinations, product


def celems(p):
    return [(a, b) for a in range(p) for b in range(p)]


def cmul(p, x, y):
    return ((x[0] * y[0] - x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p)


def cadd(p, x, y):
    return ((x[0] + y[0]) % p, (x[1] + y[1]) % p)


def cconj(p, x):
    return (x[0], -x[1] % p)


def cnorm(p, x):
    return (x[0] * x[0] + x[1] * x[1]) % p


def brute_fiber(p, c):
    """Norm fiber by scanning all p**2 elements."""
    return sorted(x for x in celems(p) if cnorm(p, x) == c % p)


def brute_phases(p):
    return brute_fiber(p, 1)


def convolved_histograms(sizes, d):
    """hists[m][c], m = 0..d: the m-fold cyclic convolution of the fiber
    sizes, sizes[t] the elements of norm t, by the literal double sum
    over both norms, O(d * p**2)."""
    p = len(sizes)
    hists = [[1] + [0] * (p - 1)]
    for _ in range(d):
        prev = hists[-1]
        hists.append([
            sum(prev[(c - t) % p] * sizes[t] for t in range(p)) for c in range(p)
        ])
    return hists


def brute_vectors(p, d, norm=None):
    """All amplitude tuples of dimension d, optionally norm-filtered."""
    out = []
    for amps in product(celems(p), repeat=d):
        if norm is None or sum(cnorm(p, x) for x in amps) % p == norm:
            out.append(amps)
    return out


def orbit_min(p, amps, phases):
    """Lexicographically smallest phase multiple of an amplitude tuple."""
    return min(tuple(cmul(p, x, u) for x in amps) for u in phases)


def brute_canonical(p, d, norm=1):
    """Canonical representatives by literal orbit minimization."""
    phases = brute_phases(p)
    return [s for s in brute_vectors(p, d, norm) if orbit_min(p, s, phases) == s]


def canonical_prefix_digits(p, d):
    """Every (d-1)-digit prefix over element indices re*p + im whose first
    nonzero digit is the smallest index of its norm fiber, in
    lexicographic order: all prefixes, filtered."""
    def fiber_min(e):
        return brute_fiber(p, cnorm(p, divmod(e, p)))[0] == divmod(e, p)

    first_allowed = {0} | {e for e in range(1, p * p) if fiber_min(e)}
    return [
        digits
        for digits in product(range(p * p), repeat=d - 1)
        if next((e for e in digits if e), 0) in first_allowed
    ]


# -- explicit Pauli matrices ---------------------------------------------------

def _kron(p, A, B):
    na, nb = len(A), len(B)
    return [
        [cmul(p, A[i // nb][j // nb], B[i % nb][j % nb]) for j in range(na * nb)]
        for i in range(na * nb)
    ]


def pauli_operator(p, n, j, mu):
    """sigma_mu acting on qubit j (most significant bit first) as a full
    2**n x 2**n matrix over (re, im) pairs.

    The y matrix is [[0, i], [-i, 0]], matching the package's sign
    convention; every squared or zero-tested quantity is independent of
    that choice.
    """
    I2 = [[(1, 0), (0, 0)], [(0, 0), (1, 0)]]
    mats = {
        "x": [[(0, 0), (1, 0)], [(1, 0), (0, 0)]],
        "y": [[(0, 0), (0, 1)], [(0, p - 1), (0, 0)]],
        "z": [[(1, 0), (0, 0)], [(0, 0), (p - 1, 0)]],
    }
    out = [[(1, 0)]]
    for k in range(n):
        out = _kron(p, out, mats[mu] if k == j else I2)
    return out


def matrix_expectation(p, M, amps):
    """<psi| M |psi> with the left argument conjugated."""
    acc = (0, 0)
    for i, xi in enumerate(amps):
        ci = cconj(p, xi)
        for j, xj in enumerate(amps):
            acc = cadd(p, acc, cmul(p, ci, cmul(p, M[i][j], xj)))
    return acc


def matrix_expectation_grid(p, n, amps):
    """Per-qubit (x, y, z) expectation triples via explicit matrices.
    Asserts every imaginary part cancels."""
    grid = []
    for j in range(n):
        triple = []
        for mu in ("x", "y", "z"):
            val = matrix_expectation(p, pauli_operator(p, n, j, mu), amps)
            assert val[1] == 0, f"imaginary expectation {val} for qubit {j} sigma_{mu}"
            triple.append(val[0])
        grid.append(tuple(triple))
    return tuple(grid)


def brute_separable(p, n, amps, j):
    """Does qubit j factor out?  Literal search over all tensor splits
    v (x) w with v on qubit j.  For a fixed v, each column's condition
    involves only its own entry of w, so w is searched one column at a
    time.  Exponential; use only at p=3, n=2."""
    d = 1 << n
    m = 1 << (n - 1 - j)
    cols = [i for i in range(d) if not (i & m)]
    elems = celems(p)
    for v in product(elems, repeat=2):
        if v == ((0, 0), (0, 0)):
            continue
        if all(
            any(
                amps[col] == cmul(p, v[0], w) and amps[col | m] == cmul(p, v[1], w)
                for w in elems
            )
            for col in cols
        ):
            return True
    return False


def minors_separable_mask(p, n, amps):
    """Bit j set when every 2x2 minor a_k b_l - a_l b_k of the grid that
    splits the amplitudes along qubit j into halves a, b vanishes.
    Quadratic in the dimension, but fast enough at n=3, where
    brute_separable is not."""
    d = 1 << n
    mask = 0
    for j in range(n):
        m = 1 << (n - 1 - j)
        cols = [(amps[i], amps[i | m]) for i in range(d) if not i & m]
        if all(
            cmul(p, a, f) == cmul(p, c, b)
            for (a, b), (c, f) in combinations(cols, 2)
        ):
            mask |= 1 << j
    return mask


# -- local unitaries -------------------------------------------------------------

def unitary_group(p):
    """Every 2x2 unitary over F_p[i], as rows ((a, b), (c, d)) whose two
    columns have norm 1 and Hermitian product 0: a scan of all p**8
    matrices.  Use only at p=3."""
    return [
        ((a, b), (c, d))
        for a, b, c, d in product(celems(p), repeat=4)
        if (cnorm(p, a) + cnorm(p, c)) % p == 1
        and (cnorm(p, b) + cnorm(p, d)) % p == 1
        and cadd(p, cmul(p, cconj(p, a), b), cmul(p, cconj(p, c), d)) == (0, 0)
    ]


def apply_pair(p, g, x, y):
    """g (x, y) for a 2x2 matrix g given by its rows."""
    (a, b), (c, d) = g
    return (
        cadd(p, cmul(p, a, x), cmul(p, b, y)),
        cadd(p, cmul(p, c, x), cmul(p, d, y)),
    )


def local_gauge(p, n, g, phases, amps):
    """amps after g on the top qubit, whose bit is n - 1, and the phase
    gate diag(1, u) for each u of phases on qubits 1..n-1 in turn (qubit
    j owns bit n - 1 - j)."""
    d = 1 << n
    half = d >> 1
    out = list(amps)
    for i in range(half):
        out[i], out[i + half] = apply_pair(p, g, amps[i], amps[i + half])
    for j, u in enumerate(phases, 1):
        m = 1 << (n - 1 - j)
        out = [cmul(p, x, u) if i & m else x for i, x in enumerate(out)]
    return tuple(out)


# -- the census's canonical walk -------------------------------------------------

def canonical_tally(p, n):
    """(maximal, unentangled, purities) over the irreducible n-qubit
    states, counted on the canonical walk: one state per phase class,
    no weights.  Unlike the rest of this module it reuses the package's
    per-prefix forms and Maximal and Unentangled counters; what it
    checks is the census's weighted walk, which it does not share.
    purities maps each sum_sq that some state has to its number of
    states, read off every completion of the prefix's sum_sq form
    (qs, us, vs) rather than from the census's count of line points."""
    from dqc.basefield import validate_prime
    from dqc.census import iter_norm_prefixes
    from dqc.entangle import (
        _count_maximal,
        _count_unentangled,
        _line_points,
        finish_forms,
        parent_forms,
    )

    d = 1 << n
    points = _line_points(p)
    maximal = unentangled = 0
    sums = Counter()
    walk = iter_norm_prefixes(validate_prime(p), d, 1, canonical_only=True)
    for parent, children in walk:
        passes = parent_forms(p, n, parent)
        for y, c, completions in children:
            qs, us, vs, lengths, tests = finish_forms(p, passes, y, c)
            size = len(completions)
            sums[qs, us, vs, completions] += 1
            maximal += _count_maximal(p, c, size, lengths, points)
            unentangled += _count_unentangled(p, c, size, tests)
    purities = Counter()
    for (qs, us, vs, completions), k in sums.items():
        for x0, x1 in completions:
            purities[(qs + us * x0 + vs * x1) % p] += k
    return maximal, unentangled, dict(sorted(purities.items()))


# -- the rows dqc writes -------------------------------------------------------

CLASSIFY_HEADER = [
    "p", "n", "state", "class", "sum_sq", "reduced_purity", "separable_mask",
]
ENUMERATE_HEADER = ["p", "n", "norm_class", "amplitudes"]


def state_text(amps):
    return ";".join(f"{a}+{b}i" for a, b in amps)


def classify_rows(cells, limit=None):
    """The rows of `dqc classify --out` for cells [(p, n)], one per state
    of the package's per-state stream iter_classified, at most limit per
    cell.  What they check is the row writer, which they do not share."""
    from itertools import islice

    from dqc.basefield import validate_prime
    from dqc.entangle import iter_classified

    return [
        [
            p, n, state_text(amps), kind.value, sum_sq,
            "NA" if reduced is None else reduced,
            "".join("1" if mask >> j & 1 else "0" for j in range(n)),
        ]
        for p, n in cells
        for amps, kind, sum_sq, reduced, mask in islice(
            iter_classified(validate_prime(p), n), limit
        )
    ]


def enumerate_rows(cells, norm_class):
    """The rows of `dqc enumerate --class norm_class` for cells [(p, n)],
    one per state of the package's per-state streams."""
    from dqc.basefield import validate_prime
    from dqc.census import iter_irreducible, iter_norm_class

    def states(p, n):
        if norm_class == "irreducible":
            return iter_irreducible(validate_prime(p), n)
        return iter_norm_class(
            validate_prime(p), 1 << n, 1 if norm_class == "unit" else 0
        )

    return [
        [p, n, norm_class, state_text(amps)]
        for p, n in cells
        for amps in states(p, n)
    ]


def stdlib_written(fmt, header, rows):
    """What csv.writer writes, header first, or json.dumps(indent=2) of
    the rows as objects, and a newline."""
    if fmt == "json":
        return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue()
