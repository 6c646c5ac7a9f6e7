import itertools
import multiprocessing
import random
import time
from collections import Counter

import pytest

from dqc import (
    CensusTally,
    Classification,
    DqcError,
    EntanglementClass,
    NotUnitNorm,
    StateVector,
    ZeroVector,
    census_tally,
    classify,
    hopf_map_1q,
    pauli_expectations,
    phase_class,
    purity,
    separable_qubits,
    validate_prime,
)
import dqc.census as census
import dqc.entangle as entangle
from dqc.census import (
    enum_tables,
    iter_irreducible,
    iter_norm_prefixes,
    sample_unit_amps,
    walk_prefixes,
)
from dqc.entangle import (
    _ALWAYS,
    _NEVER,
    _count_maximal,
    _count_unentangled,
    _dependent,
    _line_points,
    _tally_block,
    census_segments,
    classify_completions,
    classify_raw,
    finish_forms,
    iter_classified,
    parent_forms,
)

from _oracles import (
    apply_pair,
    brute_canonical,
    brute_fiber,
    brute_phases,
    brute_separable,
    brute_vectors,
    canonical_tally,
    celems,
    cmul,
    cnorm,
    local_gauge,
    matrix_expectation_grid,
    minors_separable_mask,
    unitary_group,
)


def vec(fld, *amps):
    return StateVector(fld, (len(amps) - 1).bit_length(), tuple(amps))


def unit_vectors(p, n):
    fld = validate_prime(p)
    for amps in brute_vectors(p, 1 << n, norm=1):
        yield StateVector(fld, n, amps)


def bell(fld):
    # c(|00> + |11>) with 2 N(c) == 1 mod p; c = 1+i at p=3
    p = fld.p
    c = next(
        (a, b) for a in range(p) for b in range(p) if 2 * (a * a + b * b) % p == 1
    )
    return vec(fld, c, (0, 0), (0, 0), c)


def test_expectations_frozen_basis_states(f3):
    assert pauli_expectations(vec(f3, (1, 0), (0, 0))).grid == ((0, 0, 1),)
    assert pauli_expectations(vec(f3, (0, 0), (1, 0))).grid == ((0, 0, 2),)
    assert pauli_expectations(vec(f3, (1, 1), (1, 1))).grid == ((1, 0, 0),)


def test_expectations_match_hopf_point_1q():
    for p in (3, 7):
        for psi in unit_vectors(p, 1):
            b = hopf_map_1q(psi)
            assert pauli_expectations(psi).grid == ((b.x, b.y, b.z),)


def test_expectations_match_matrix_oracle_exhaustive(f3):
    for n in (1, 2):
        for psi in unit_vectors(3, n):
            grid = matrix_expectation_grid(3, n, psi.amps)
            assert pauli_expectations(psi).grid == grid


def test_expectations_match_matrix_oracle_sampled(f7):
    rng = random.Random(7)
    for _ in range(200):
        amps = sample_unit_amps(f7, 4, rng)
        psi = StateVector(f7, 2, amps)
        assert pauli_expectations(psi).grid == matrix_expectation_grid(7, 2, amps)


def kernel_cases(f3, f7):
    """Exhaustive at p=3 n=2 and p=7 n=1, seeded samples at p=7 n=2 and
    p=3 n=3, and constructed n=3 product and product (x) Bell states,
    which random samples almost never hit."""
    for fld, n in ((f3, 2), (f7, 1)):
        yield from unit_vectors(fld.p, n)
    rng = random.Random(11)
    for fld, n in ((f7, 2), (f3, 3)):
        for _ in range(400):
            yield StateVector(fld, n, sample_unit_amps(fld, 1 << n, rng))
    for fld in (f3, f7):
        singles = list(itertools.islice(unit_vectors(fld.p, 1), 6))
        for a, b, c in itertools.product(singles, repeat=3):
            yield a.tensor(b).tensor(c)
        for a in singles:
            yield a.tensor(bell(fld))
            yield bell(fld).tensor(a)


def independent_invariants(fld, n, amps):
    """(kind, sum_sq, mask) from the Pauli expectations and the 2x2
    minors, without the census kernel."""
    p = fld.p
    psi = StateVector(fld, n, amps)
    lengths = [sum(v * v for v in t) % p for t in pauli_expectations(psi).grid]
    mask = minors_separable_mask(p, n, amps)
    unentangled = mask == (1 << n) - 1
    maximal = not any(lengths)
    assert not (unentangled and maximal)
    if unentangled:
        kind = EntanglementClass.UNENTANGLED
    else:
        kind = EntanglementClass.MAXIMAL if maximal else EntanglementClass.PARTIAL
    return kind, sum(lengths) % p, mask


def check_against_independent_paths(fld, n, amps, kind, sum_sq, mask):
    assert (kind, sum_sq, mask) == independent_invariants(fld, n, amps)


def test_kernel_agrees_with_independent_paths(f3, f7):
    masks_n3 = set()
    for psi in kernel_cases(f3, f7):
        kind, sum_sq, mask = classify_raw(psi.field.p, psi.n, psi.amps)
        check_against_independent_paths(psi.field, psi.n, psi.amps, kind, sum_sq, mask)
        if psi.n == 3:
            masks_n3.add(mask)
    assert {0b000, 0b001, 0b100, 0b111} <= masks_n3


def test_hoisted_forms_agree_with_independent_paths(f3):
    # iter_classified and the census build one prefix's forms and complete
    # them per state: exhaustively at p=3 n=2; at p=3 n=3 on the first
    # 20000 states, whose leading zeros leave qubits with no nonzero head
    # column, and on 2000 states completing seeded prefixes
    stream = list(iter_classified(f3, 2))
    assert [s[0] for s in stream] == list(iter_irreducible(f3, 2))
    stream += itertools.islice(iter_classified(f3, 3), 20000)
    for amps, kind, sum_sq, _, mask in stream:
        check_against_independent_paths(f3, (len(amps) - 1).bit_length(),
                                        amps, kind, sum_sq, mask)
    rng = random.Random(13)
    checked = 0
    while checked < 2000:
        head = tuple((rng.randrange(3), rng.randrange(3)) for _ in range(7))
        c = (1 - sum(cnorm(3, x) for x in head)) % 3
        forms = finish_forms(3, parent_forms(3, 3, head[:-1]), head[-1], c)
        fiber = brute_fiber(3, c)
        got = classify_completions(3, forms, fiber)
        assert len(got) == len(fiber)
        for x, r in zip(fiber, got):
            check_against_independent_paths(f3, 3, head + (x,), *r)
            checked += 1


def test_classify_completions_agrees_with_independent_paths(f3, f7):
    # the kernel classifies a prefix's whole circle in one call: on every
    # prefix of the canonical walks at p in {3, 7} with n <= 2, and on a
    # seeded 2.5% of the 1,195,743 at p=3 n=3, each state agrees with the
    # Pauli expectations and the minors, and the list follows the order
    # of completions (reversed completions give it reversed)
    rng = random.Random(29)
    states = Counter()
    for fld, n, share in (
        (f3, 1, 1), (f3, 2, 1), (f7, 1, 1), (f7, 2, 1), (f3, 3, 0.025)
    ):
        p, d = fld.p, 1 << n
        for parent, children in iter_norm_prefixes(fld, d, 1, canonical_only=True):
            passes = None
            for y, c, completions in children:
                if share < 1 and rng.random() >= share:
                    continue
                if passes is None:
                    passes = parent_forms(p, n, parent)
                forms = finish_forms(p, passes, y, c)
                got = classify_completions(p, forms, completions)
                assert len(got) == len(completions)
                for x, r in zip(completions, got):
                    check_against_independent_paths(fld, n, parent + (y, x), *r)
                assert classify_completions(p, forms, completions[::-1]) == got[::-1]
                states[p, n] += len(got)
    assert states[3, 1] == 6 and states[3, 2] == 540
    assert states[7, 1] == 42 and states[7, 2] == 102900
    assert 50_000 < states[3, 3] < 150_000


def gauge_positions(n):
    """(generic, torus): the positions the census holds at 0 or a fiber
    minimum in the generic set, 1 << k for k < n - 1 and D/2 + 1 unless it
    is the last, and in the isotropic and zero sets, 0 and every 1 << k but
    the last position."""
    d = 1 << n
    shared = {1 << k for k in range(n - 1)}
    below_last = set(range(d - 1))
    generic = shared | ({d // 2 + 1} & below_last)
    return generic, shared | ({0, d // 2} & below_last)


def gauged_slices(p, n):
    """The census's slices, a literal filter of every unit vector each:
    the generic pairs (gamma_r, 0), the isotropic pair (gamma_1, gamma_-1)
    and the zero pair (x_0, x_{D/2}), gamma_r the smallest element of
    norm r, with each held position 0 or a fiber minimum.  Empty slices
    (all but the generic one at n = 1) are left out."""
    d = 1 << n
    half = d // 2
    gamma = [None] + [brute_fiber(p, r)[0] for r in range(1, p)]
    minima = {(0, 0), *gamma[1:]}
    generic, torus = gauge_positions(n)
    units = brute_vectors(p, d, norm=1)

    def literal(pair, held):
        return [
            a for a in units
            if pair(a[0], a[half]) and all(a[i] in minima for i in held)
        ]

    slices = [
        literal(lambda x, y: x in gamma[1:] and y == (0, 0), generic),
        literal(lambda x, y: (x, y) == (gamma[1], gamma[-1]), torus),
        literal(lambda x, y: x == y == (0, 0), torus),
    ]
    return [s for s in slices if s]


def pair_set(p, n, amps):
    """The set of the top qubit's first pair (x_0, x_{D/2}): generic when
    its norm is nonzero, isotropic when it is zero but the pair is not."""
    x, y = amps[0], amps[(1 << n) // 2]
    if (cnorm(p, x) + cnorm(p, y)) % p:
        return "generic"
    return "zero" if x == y == (0, 0) else "isotropic"


def slice_weight(p, n, amps):
    """The unit states a slice state stands for, by the rule of its set:
    p (p-1) (p+1)**(k+1) for a generic pair, (p-1) (p+1)**k for the
    isotropic pair, which stands for the p - 1 isotropic norms, and
    (p+1)**k for the zero pair, k its nonzero held amplitudes."""
    generic, torus = gauge_positions(n)
    kind = pair_set(p, n, amps)
    if kind == "generic":
        k = sum(amps[i] != (0, 0) for i in generic)
        return p * (p - 1) * (p + 1) ** (k + 1)
    scale = p - 1 if kind == "isotropic" else 1
    return scale * (p + 1) ** sum(amps[i] != (0, 0) for i in torus)


def assert_held_positions_vary(p, n, segments):
    """Every held position of the census's segments lies below D - 2 and
    offers 0 and the p - 1 fiber minima, found by a scan of each fiber,
    so a position with one choice is never held."""
    d = 1 << n
    minima = sorted([(0, 0)] + [brute_fiber(p, r)[0] for r in range(1, p)])
    for segment, held, _ in segments:
        assert all(i < d - 2 for i in held), (p, n, held)
        assert all(sorted(segment[i]) == minima for i in held), (p, n, held)


def test_census_walk_is_the_held_slice(f3, f7):
    # each census segment walks exactly its slice, a literal filter of
    # every unit vector at p=3 n <= 2 and p=7 n=1; the census only counts
    # its last position's completions, so they are sized, and are expanded
    # here to the members of their norm fiber.  Its weights add up to
    # the unit vectors of its set, and at p=3 each slice state's weight is
    # |G| / #{g in G : g s in the slices}, found by applying every g: G is
    # the top qubit's U(2) for a generic pair and its diagonal unitaries
    # (the torus of the other two sets) otherwise, with a phase gate on
    # each other qubit.  The isotropic slice holds one of the p - 1
    # isotropic norms, so its weight is p - 1 times its torus weight
    # (test_isotropic_pairs_have_equal_tallies).  Held positions are only
    # those that vary, here and in the n = 3 segments at p in {3, 7}
    for p in (3, 7):
        assert_held_positions_vary(p, 3, census_segments(p, 3))
    unitaries = unitary_group(3)
    diagonal = [g for g in unitaries if g[0][1] == g[1][0] == (0, 0)]
    phases = brute_phases(3)
    for p, n in ((3, 1), (7, 1), (3, 2)):
        d = 1 << n
        segments = census_segments(p, n)
        assert_held_positions_vary(p, n, segments)
        fibers = enum_tables(p)[1]
        walked = []
        for segment, _, _ in segments:
            states = []
            for parent, children in walk_prefixes(p, 1, segment):
                for y, c, completions in children:
                    assert len(completions) == len(fibers[c])
                    states += [parent + (y, x) for x in fibers[c]]
            walked.append(states)
        assert walked == gauged_slices(p, n)
        units = brute_vectors(p, d, norm=1)
        for states, (_, held, scale) in zip(walked, segments):
            rule = [
                scale * (p + 1) ** sum(a[i] != (0, 0) for i in held)
                for a in states
            ]
            assert rule == [slice_weight(p, n, a) for a in states]
            kind = pair_set(p, n, states[0])
            assert {pair_set(p, n, a) for a in states} == {kind}
            assert sum(rule) == sum(pair_set(p, n, a) == kind for a in units)
        if p == 3:
            slices = {a for states in walked for a in states}
            for states in walked:
                for a in states:
                    kind = pair_set(p, n, a)
                    group = unitaries if kind == "generic" else diagonal
                    size = len(group) * len(phases) ** (n - 1)
                    hits = sum(
                        local_gauge(3, n, g, us, a) in slices
                        for g in group
                        for us in itertools.product(phases, repeat=n - 1)
                    )
                    assert size % hits == 0
                    scale = p - 1 if kind == "isotropic" else 1
                    assert scale * size // hits == slice_weight(3, n, a)


def test_isotropic_pairs_have_equal_tallies(f3, f7):
    # the fact the isotropic factor p - 1 rests on: U(2) on the top qubit
    # is transitive on the nonzero isotropic pairs v = (x_0, x_{D/2}) and
    # keeps kind, sum_sq and mask, so the unit states A_v whose top pair is
    # v have one Counter of (kind, sum_sq, mask) for every v.  At p=3 n=2
    # over all 32 pairs, the invariants from the Pauli expectations and
    # the minors, not the census kernel; at p=7 n=2 over all 384 pairs,
    # by classify_raw
    for fld, invariants in (
        (f3, independent_invariants),
        (f7, lambda fld, n, amps: classify_raw(fld.p, n, amps)),
    ):
        p = fld.p
        pairs = [(x, y) for x in celems(p) for y in celems(p)]
        isotropic = [
            (x, y) for x, y in pairs
            if (x, y) != ((0, 0), (0, 0)) and (cnorm(p, x) + cnorm(p, y)) % p == 0
        ]
        assert len(isotropic) == (p * p - 1) * (p + 1)
        rest = [(a, b) for a, b in pairs if (cnorm(p, a) + cnorm(p, b)) % p == 1]
        tallies = {
            frozenset(Counter(invariants(fld, 2, (x, a, y, b)) for a, b in rest).items())
            for x, y in isotropic
        }
        assert len(tallies) == 1


def test_u2_orbits_on_pairs_at_p3():
    # the group fact the generic gauge rests on, by enumeration: U(2) over
    # F_3[i] has p (p**2 - 1) (p + 1) = 96 elements; each sphere
    # N(x) + N(y) = r != 0 is one orbit of p**3 - p pairs, and the pair
    # (gamma_r, 0) has stabilizer diag(1, u); the nonzero isotropic pairs
    # are one orbit of (p**2 - 1)(p + 1)
    p = 3
    group = unitary_group(p)
    assert len(group) == p * (p * p - 1) * (p + 1) == 96
    zero = (0, 0)
    pairs = [(x, y) for x in celems(p) for y in celems(p)]
    for r in range(1, p):
        gamma = brute_fiber(p, r)[0]
        sphere = {(x, y) for x, y in pairs if (cnorm(p, x) + cnorm(p, y)) % p == r}
        assert len(sphere) == p**3 - p
        assert {apply_pair(p, g, gamma, zero) for g in group} == sphere
        stabilizer = [
            g for g in group if apply_pair(p, g, gamma, zero) == (gamma, zero)
        ]
        assert sorted(stabilizer) == sorted(
            (((1, 0), zero), (zero, u)) for u in brute_phases(p)
        )
    isotropic = [
        pair for pair in pairs
        if pair != (zero, zero) and (cnorm(p, pair[0]) + cnorm(p, pair[1])) % p == 0
    ]
    assert len(isotropic) == (p * p - 1) * (p + 1)
    assert {apply_pair(p, g, *isotropic[0]) for g in group} == set(isotropic)


def census_blocks(monkeypatch, prime, n, threads):
    """The (p, n, walk, start, stop) args of census_tally's blocks."""
    calls = []

    def capture(worker, args_list, threads):
        calls.append(args_list)
        return [[0] * (args[0] + 2) for args in args_list]

    monkeypatch.setattr(entangle, "run_blocks", capture)
    census_tally(prime, n, threads=threads)
    return calls.pop()


def test_census_blocks_cover_weighted_slice(monkeypatch, f3, f7):
    # concatenated, census_tally's blocks walk every parent of the
    # weighted slices once, in order, for any thread count, and each
    # block stays in one segment; one worker runs one block per segment
    for fld, n in ((f3, 2), (f7, 2), (f3, 3)):
        walks = census_segments(fld.p, n)
        whole = [
            prefix
            for segment, _, _ in walks
            for prefix in walk_prefixes(fld.p, 1, segment)
        ]
        for threads in range(1, 6):
            blocks = census_blocks(monkeypatch, fld, n, threads)
            assert all((p, m) == (fld.p, n) for p, m, _, _, _ in blocks)
            walked = [
                prefix
                for _, _, (segment, _, _), start, stop in blocks
                for prefix in walk_prefixes(fld.p, 1, segment, start, stop)
            ]
            assert walked == whole
            if threads == 1:
                assert [walk for _, _, walk, _, _ in blocks] == walks


def is_multiple(p, pivot, a, b):
    """Whether some lam in F_p[i] gives (a, b) = lam (c, e), by a scan."""
    c, e = pivot[:2], pivot[2:]
    return any(cmul(p, lam, c) == a and cmul(p, lam, e) == b for lam in celems(p))


def test_dependent_is_a_scan_for_the_multiplier():
    # every nonzero pivot (c, e) with every column (a, b) at p = 3
    columns = [(a, b) for a in celems(3) for b in celems(3)]
    pivots = [c + e for c, e in columns if c + e != (0, 0, 0, 0)]
    assert (len(pivots), len(columns)) == (80, 81)
    verdicts = Counter()
    for pivot in pivots:
        for a, b in columns:
            found = _dependent(3, pivot, *a, *b)
            assert found == is_multiple(3, pivot, a, b), (pivot, a, b)
            verdicts[found] += 1
    # a column is a multiple of a nonzero pivot for each of the 9 lam
    assert verdicts[True] == 80 * 9
    # at p = 7, half the columns are drawn as a multiple of the pivot
    rng = random.Random(5)
    elems = celems(7)
    pivots = [c + e for c in elems for e in elems if c + e != (0, 0, 0, 0)]
    verdicts.clear()
    for _ in range(2000):
        pivot = rng.choice(pivots)
        if rng.random() < 0.5:
            lam = rng.choice(elems)
            a, b = cmul(7, lam, pivot[:2]), cmul(7, lam, pivot[2:])
        else:
            a, b = rng.choice(elems), rng.choice(elems)
        found = _dependent(7, pivot, *a, *b)
        assert found == is_multiple(7, pivot, a, b), (pivot, a, b)
        verdicts[found] += 1
    assert min(verdicts.values()) > 900, verdicts


def test_finish_forms_gives_one_test_per_qubit(f3, f7):
    # tests[j] and lengths[j] are qubit j's, one each: its test is
    # _ALWAYS exactly when none of its head columns (all but the last,
    # which holds x) is nonzero, and _NEVER exactly when one is not a
    # multiple of the first nonzero one, found by a scan for the
    # multiplier.  On every prefix of the canonical walks at p in {3, 7}
    # n = 2 and of the p=3 n=3 census's slices
    walks = [
        (fld.p, 2, iter_norm_prefixes(fld, 4, 1, canonical_only=True))
        for fld in (f3, f7)
    ]
    walks += [
        (3, 3, walk_prefixes(3, 1, segment)) for segment, _, _ in census_segments(3, 3)
    ]
    prefixes = Counter()
    verdicts = Counter()
    for p, n, walk in walks:
        d = 1 << n
        for parent, children in walk:
            passes = parent_forms(p, n, parent)
            for y, c, _ in children:
                prefix = parent + (y,)
                _, _, _, lengths, tests = finish_forms(p, passes, y, c)
                assert len(tests) == len(lengths) == n
                for j, test in enumerate(tests):
                    m = 1 << (n - 1 - j)
                    columns = [
                        prefix[i] + prefix[i | m] for i in range(d - 1 - m) if not i & m
                    ]
                    columns = [column for column in columns if any(column)]
                    independent = any(
                        not is_multiple(p, columns[0], column[:2], column[2:])
                        for column in columns[1:]
                    )
                    assert (test is _ALWAYS) == (not columns), (prefix, j)
                    assert (test is _NEVER) == independent, (prefix, j)
                    verdicts[n, test is _ALWAYS, test is _NEVER] += 1
                prefixes[p, n] += 1
    assert prefixes == {(3, 2): 183, (7, 2): 14707, (3, 3): 17496}
    # each kind of test is met at n = 3; at n = 2, with one head column
    # per qubit, _NEVER is not
    kinds = ((False, False), (True, False), (False, True))
    assert all(verdicts[(3, *kind)] for kind in kinds)
    assert not verdicts[2, False, True]


def test_isotropic_gram_determinant_is_entangled(f3):
    # det G_j == 0 (squared length 1) on an entangled qubit: a sum of
    # nonzero minor norms vanishes mod 3, so det G_j == 0 must not be
    # read as separability
    psi = StateVector.from_text(
        f3, 3, "0+0i;0+0i;0+0i;0+1i;0+0i;0+1i;1+1i;0+0i"
    )
    assert psi.is_unit()
    lengths = [sum(v * v for v in t) % 3 for t in pauli_expectations(psi).grid]
    assert 1 in lengths
    assert minors_separable_mask(3, 3, psi.amps) == 0
    assert classify_raw(3, 3, psi.amps) == (EntanglementClass.PARTIAL, 2, 0)
    assert separable_qubits(psi) == frozenset()


def test_expectations_require_unit_norm(f3):
    with pytest.raises(NotUnitNorm):
        pauli_expectations(vec(f3, (1, 1), (1, 0)))
    with pytest.raises(NotUnitNorm):
        classify(vec(f3, (1, 1), (1, 0)))
    with pytest.raises(NotUnitNorm):
        purity(vec(f3, (1, 1), (1, 0)))


def test_purity_of_product_states(f3, f7):
    # tensor products of unit 1-qubit states have purity residue 1
    import itertools

    for fld in (f3, f7):
        singles = list(itertools.islice(unit_vectors(fld.p, 1), 12))
        for a in singles[:4]:
            for b in singles:
                psi = a.tensor(b)
                val = purity(psi)
                assert val.reduced == 1
                assert val.sum_sq == 2 % fld.p


def test_purity_reduced_none_when_p_divides_n(f3):
    # n == p == 3: no division-free reduction exists
    a = vec(f3, (1, 0), (0, 0))
    psi = a.tensor(a).tensor(a)
    val = purity(psi)
    assert val.n == 3
    assert val.reduced is None
    assert val.sum_sq == 0  # 3 * 1 == 0 mod 3


def test_bell_state_is_maximal(f3):
    psi = bell(f3)
    assert purity(psi).sum_sq == 0
    cls = classify(psi)
    assert cls.kind is EntanglementClass.MAXIMAL
    assert cls.separable_mask == frozenset()


def test_product_state_classification(f3):
    a = vec(f3, (1, 0), (0, 0))
    b = vec(f3, (1, 1), (1, 1))
    cls = classify(a.tensor(b))
    assert cls.kind is EntanglementClass.UNENTANGLED
    assert cls.separable_mask == frozenset({0, 1})


def test_partial_state_mask_n3(f3):
    # qubit 0 factors off a Bell pair: only qubit 0 is separable
    psi = vec(f3, (1, 0), (0, 0)).tensor(bell(f3))
    assert psi.is_unit()
    cls = classify(psi)
    assert cls.kind is EntanglementClass.PARTIAL
    assert cls.separable_mask == frozenset({0})
    assert separable_qubits(psi) == frozenset({0})


def test_separable_qubits_matches_brute_force(f3):
    # separable_qubits takes its mask from classify_raw, which must hold
    # for any nonzero vector: unit ones, seeded zero-norm and non-unit
    # ones, and zero-norm products, against the tensor-split search;
    # every nonzero vector against the all-minors oracle
    rng = random.Random(5)
    nonzero = [StateVector(f3, 2, amps) for amps in brute_vectors(3, 4)[1:]]
    singles = [StateVector(f3, 1, amps) for amps in brute_vectors(3, 2)[1:]]
    zero_singles = [a for a in singles if a.vnorm() == 0]
    cases = list(unit_vectors(3, 2))
    cases += rng.sample([psi for psi in nonzero if psi.vnorm() == 0], 8)
    cases += rng.sample([psi for psi in nonzero if psi.vnorm() == 2], 8)
    cases += [rng.choice(zero_singles).tensor(rng.choice(singles)) for _ in range(8)]
    for psi in cases:
        mask = separable_qubits(psi)
        for j in (0, 1):
            assert (j in mask) == brute_separable(3, 2, psi.amps, j)
    for psi in nonzero:
        mask = sum(1 << j for j in separable_qubits(psi))
        assert mask == minors_separable_mask(3, 2, psi.amps)


def test_separable_qubits_zero_vector(f3):
    with pytest.raises(ZeroVector):
        separable_qubits(vec(f3, (0, 0), (0, 0)))


def test_classification_is_phase_invariant(f3):
    for psi in unit_vectors(3, 2):
        cls = classify(psi)
        val = purity(psi)
        for member in phase_class(psi):
            assert classify(member) == cls
            assert purity(member) == val


def test_classification_invariants_enforced():
    with pytest.raises(ValueError):
        Classification(
            kind=EntanglementClass.UNENTANGLED, n=2, separable_mask=frozenset({0})
        )
    with pytest.raises(ValueError):
        Classification(
            kind=EntanglementClass.MAXIMAL, n=2, separable_mask=frozenset({1})
        )
    with pytest.raises(ValueError):
        Classification(
            kind=EntanglementClass.PARTIAL, n=1, separable_mask=frozenset({0})
        )


def test_census_tally_frozen_p3(f3):
    tally = census_tally(f3, 2)
    assert tally.class_counts == {
        "Unentangled": 36,
        "Partial": 288,
        "Maximal": 216,
    }
    assert tally.purity_hist == {0: 216, 1: 288, 2: 36}
    assert tally.purity_one_not_product == 0
    assert tally.irreducible_total == 540
    assert tally.unit_class_counts() == {
        "Unentangled": 144,
        "Partial": 1152,
        "Maximal": 864,
    }


def test_census_tally_frozen_p7(f7):
    tally = census_tally(f7, 2)
    assert tally.class_counts == {
        "Unentangled": 1764,
        "Partial": 84672,
        "Maximal": 16464,
    }
    assert tally.purity_one_not_product == 0
    assert tally.irreducible_total == 102900
    assert sum(tally.purity_hist.values()) == 102900
    # product states land on purity residue 1 (sum_sq == n mod p)
    assert tally.purity_hist[2] == 1764


def test_census_tally_frozen_p3_n3(f3):
    # the first n = 3 census: 17,496 weighted prefixes, in well under a
    # second on one worker; that worker is this process, so its CPU time
    # covers all the work and other tenants of the host do not move it
    t0 = time.process_time()
    tally = census_tally(f3, 3)
    elapsed = time.process_time() - t0
    assert tally.class_counts == {
        "Unentangled": 216,
        "Partial": 3328560,
        "Maximal": 257904,
    }
    assert tally.purity_hist == {0: 1312200, 1: 1154736, 2: 1119744}
    assert tally.purity_one_not_product == 1311984
    assert elapsed < 0.5


def test_small_census_starts_no_pool(f3, f7, monkeypatch):
    # the gauged walk holds 56 prefixes at p=7 n=2, 132 at p=11 n=2, 380
    # at p=19 n=2 and 3,540 at p=59 n=2, below POOL_MIN_PREFIXES; 4,556 at
    # p=67 n=2 and 17,496 at p=3 n=3 are above it
    workers = []

    def capture(worker, args_list, threads):
        workers.append(threads)
        return [[0] * (args[0] + 2) for args in args_list]

    monkeypatch.setattr(entangle, "run_blocks", capture)
    for p, n in ((7, 2), (11, 2), (19, 2), (59, 2), (67, 2), (3, 3)):
        census_tally(validate_prime(p), n, threads=2)
    pool = min(2, entangle.usable_cpus())
    assert workers == [1, 1, 1, 1, pool, pool]


def test_census_tally_thread_invariant(f3):
    one = census_tally(f3, 2, threads=1)
    for threads in range(2, 6):
        assert census_tally(f3, 2, threads=threads) == one


def test_census_is_the_same_under_every_start_method(f3, monkeypatch):
    # spawn (the default on macOS) and forkserver (on Linux from Python
    # 3.14) start workers that inherit no module state from the parent,
    # so each block must carry all that it reads.  17,496 prefixes at
    # p=3 n=3 start a pool of two workers
    one = census_tally(f3, 3, threads=1)
    monkeypatch.setattr(entangle, "usable_cpus", lambda: 2)
    for method in ("spawn", "forkserver"):
        starts = []

        def pool(processes, method=method):
            starts.append(processes)
            return multiprocessing.get_context(method).Pool(processes)

        monkeypatch.setattr(census, "Pool", pool)
        assert census_tally(f3, 3, threads=2) == one
        assert starts == [2]


def test_census_tally_matches_canonical_oracle(f3, f7, f11):
    # the weighted walk against the canonical one, which counts one
    # state per phase class with no weights, in every class and bin
    for fld in (f3, f7, f11):
        tally = census_tally(fld, 2)
        maximal, unentangled, purities = canonical_tally(fld.p, 2)
        assert tally.class_counts["Maximal"] == maximal
        assert tally.class_counts["Unentangled"] == unentangled
        assert tally.purity_hist == purities


def test_census_tally_refuses_a_weighted_remainder(f3, monkeypatch):
    # every column of the summed block lists must divide by p + 1: a
    # remainder in any one of them is an error, never floored
    for column in range(5):
        block = [4, 4, 8, 0, 4]
        block[column] += 1
        monkeypatch.setattr(
            entangle, "run_blocks", lambda worker, args, threads: [block, [0] * 5]
        )
        with pytest.raises(DqcError, match="not divisible by p\\+1=4"):
            census_tally(f3, 2)


def test_census_tally_matches_per_state_classification(f3):
    counts = {k.value: 0 for k in EntanglementClass}
    for amps in brute_canonical(3, 4):
        kind, _, _ = classify_raw(3, 2, amps)
        counts[kind.value] += 1
    assert counts == census_tally(f3, 2).class_counts


def per_state_tally(p, n, counts):
    """(class_counts, purity_hist, purity_one_not_product) of a Counter of
    (kind, sum_sq) over single states."""
    classes = {k.value: 0 for k in EntanglementClass}
    purities = Counter()
    p1np = 0
    for (kind, sum_sq), k in counts.items():
        classes[kind.value] += k
        purities[sum_sq] += k
        if sum_sq == n % p and kind is not EntanglementClass.UNENTANGLED:
            p1np += k
    return classes, dict(sorted(purities.items())), p1np


def test_counted_tally_matches_per_state_tally(f3, f7, f11):
    # census_tally counts each prefix's completions on its norm circle;
    # the oracle classifies every state one by one
    for fld, n in ((f3, 1), (f7, 1), (f11, 1), (f3, 2), (f7, 2)):
        p = fld.p
        counts = Counter(classify_raw(p, n, amps)[:2] for amps in iter_irreducible(fld, n))
        tally = census_tally(fld, n)
        got = tally.class_counts, tally.purity_hist, tally.purity_one_not_product
        assert got == per_state_tally(p, n, counts)


def seeded_lengths(p, point, rng):
    """Up to four squared-length forms (q, u, v): random lines, lines
    through point, multiples of an earlier line (parallel and equal) and
    constants, zero or not."""
    lengths = []
    for _ in range(rng.randrange(5)):
        u, v = rng.randrange(p), rng.randrange(p)
        shape = rng.randrange(4)
        if shape == 0:
            q = rng.randrange(p)
        elif shape == 1:
            q = -(u * point[0] + v * point[1]) % p
        elif shape == 2 and lengths:
            s = rng.randrange(1, p)
            q, u, v = (s * t % p for t in rng.choice(lengths))
            q = (q + rng.choice((0, 0, 1))) % p
        else:
            u = v = 0
            q = rng.choice((0, rng.randrange(p)))
        lengths.append((q, u, v))
    return lengths


def seeded_tests(p, n, point, rng):
    """One dependence test (c0, c1, k0, k1) per qubit, for n qubits:
    _NEVER or _ALWAYS, which finish_forms gives a qubit whose head
    columns are independent or all zero, a test that point passes, a
    random one, or one with c == 0."""
    tests = []
    for _ in range(n):
        shape = rng.randrange(8)
        if shape < 2:
            tests.append((_NEVER, _ALWAYS)[shape])
            continue
        c0, c1 = rng.randrange(p), rng.randrange(p)
        if shape == 2:
            c0 = c1 = 0
        if shape in (2, 3):
            k0, k1 = rng.choice(((0, 0), (rng.randrange(p), rng.randrange(p))))
        else:
            k0 = (c0 * point[0] - c1 * point[1]) % p
            k1 = (c1 * point[0] + c0 * point[1]) % p
        tests.append((c0, c1, k0, k1))
    return tuple(tests)


def test_circle_counters_match_brute_force_at_every_norm():
    # the census counts every prefix's completions with _count_maximal
    # and _count_unentangled, c == 0 (one completion, x = 0) included;
    # each count is checked against a scan of the circle N(x) = c
    rng = random.Random(23)
    cases = 0
    for p in (3, 7, 11):
        points = _line_points(p)
        for c in range(p):
            circle = brute_fiber(p, c)
            for _ in range(1800 // p):
                point = rng.choice(circle)
                lengths = seeded_lengths(p, point, rng)
                want = sum(
                    not any((q + u * x0 + v * x1) % p for q, u, v in lengths)
                    for x0, x1 in circle
                )
                assert _count_maximal(p, c, len(circle), lengths, points) == want
                tests = seeded_tests(p, rng.randrange(1, 4), point, rng)
                want = sum(
                    all(
                        (c0 * x0 - c1 * x1 - k0) % p == 0
                        and (c1 * x0 + c0 * x1 - k1) % p == 0
                        for c0, c1, k0, k1 in tests
                    )
                    for x0, x1 in circle
                )
                got = _count_unentangled(p, c, len(circle), tests)
                assert got == want
                cases += 1
    assert cases > 5000


def test_counted_blocks_match_per_state_on_p3_n3_slice(f3, monkeypatch):
    # block by block, as census_tally splits them for two workers, over
    # the census's weighted p=3 n=3 slices, 1,944 parents in three
    # segments (the generic pairs, the isotropic pair, the zero pair):
    # held zeros leave qubits with no pivot or with tests that do not
    # involve x, and n = 3 gives three length lines, parallel and
    # crossing.  The oracle
    # completes each prefix's forms state by state, as iter_classified
    # does, and weights each state by slice_weight; on a seeded 2.5% of
    # the prefixes the states are also checked against the Pauli
    # expectations and the minors, independent of the forms.  The
    # blocks count Maximal and Unentangled and a purity histogram; the
    # census reads Partial off them, since every Maximal state has
    # sum_sq 0 and every Unentangled one sum_sq n mod p = 0.  The census's
    # completions are sized, so the states take the members of the fiber
    rng = random.Random(17)
    sampled = 0
    fibers = enum_tables(3)[1]
    monkeypatch.setattr(entangle, "usable_cpus", lambda: 2)
    blocks = census_blocks(monkeypatch, f3, 3, threads=2)
    assert len(blocks) == 24
    for block in blocks:
        _, _, (segment, _, _), start, stop = block
        want = Counter()
        for parent, children in walk_prefixes(3, 1, segment, start, stop):
            passes = parent_forms(3, 3, parent)
            for y, c, completions in children:
                assert len(completions) == len(fibers[c])
                completions = fibers[c]
                forms = finish_forms(3, passes, y, c)
                raw = classify_completions(3, forms, completions)
                weight = slice_weight(3, 3, parent + (y,))
                for r in raw:
                    want[r[:2]] += weight
                if rng.random() < 0.025:
                    for x, r in zip(completions, raw):
                        check_against_independent_paths(f3, 3, parent + (y, x), *r)
                        sampled += 1
        kinds = Counter()
        purities = Counter()
        for (kind, sum_sq), k in want.items():
            kinds[kind] += k
            purities[sum_sq] += k
            if kind is EntanglementClass.MAXIMAL:
                assert sum_sq == 0
            if kind is EntanglementClass.UNENTANGLED:
                assert sum_sq == 3 % 3
        assert _tally_block(block) == [
            kinds[EntanglementClass.MAXIMAL],
            kinds[EntanglementClass.UNENTANGLED],
            *(purities[s] for s in range(3)),
        ]
    assert sampled > 1000


def test_all_zero_expectations_is_strictly_smaller(f3):
    # vanishing of every expectation is sufficient for Maximal but far
    # from necessary: 24 of the 216 maximal classes at p=3, n=2
    zero_exp = 0
    maximal = 0
    for amps in brute_canonical(3, 4):
        grid = matrix_expectation_grid(3, 2, amps)
        kind, _, _ = classify_raw(3, 2, amps)
        if all(v == 0 for t in grid for v in t):
            zero_exp += 1
            assert kind is EntanglementClass.MAXIMAL
        if kind is EntanglementClass.MAXIMAL:
            maximal += 1
    assert zero_exp == 24
    assert maximal == 216


def test_iter_classified_stream(f3):
    rows = list(iter_classified(f3, 2))
    assert len(rows) == 540
    amps_seen = [r[0] for r in rows]
    assert amps_seen == sorted(amps_seen)
    for amps, kind, sum_sq, reduced, mask in rows[:50]:
        psi = StateVector(f3, 2, amps)
        cls = classify(psi)
        assert kind == cls.kind
        val = purity(psi)
        assert sum_sq == val.sum_sq
        assert reduced == val.reduced
        assert frozenset(j for j in range(2) if mask >> j & 1) == cls.separable_mask
