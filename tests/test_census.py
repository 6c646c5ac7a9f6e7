import gc
import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import chain, islice
from math import prod
from types import SimpleNamespace

import pytest

import dqc.census as census
import dqc.complexfield as complexfield
import dqc.entangle as entangle
from dqc.census import prefix_blocks, sample_unit_amps
from dqc.complexfield import cdot, cinv, cmul, conj, fnorm
from dqc.entangle import iter_classified
from dqc.errors import exact_str
from dqc.hopf import bloch_export
from dqc import (
    BudgetExceeded,
    DqcError,
    VerificationFailed,
    closed_form_counts,
    count_irreducible,
    count_norm_class,
    full_scan_norm_counts,
    irreducible_count,
    irreducible_product_form,
    is_prime,
    iter_irreducible,
    iter_norm_class,
    maxent_irreducible_count,
    maxent_to_unentangled_ratio,
    total_count,
    unentangled_irreducible_count,
    unit_norm_count,
    validate_prime,
    verify,
    zero_norm_by_recurrence,
    zero_norm_count,
)

from _oracles import (
    brute_canonical,
    brute_fiber,
    brute_vectors,
    canonical_prefix_digits,
    cnorm,
    convolved_histograms,
)


FROZEN_COUNTS = {
    # (p, d): (total, zero_norm, unit_norm)
    (3, 1): (9, 1, 4),
    (3, 2): (81, 33, 24),
    (3, 3): (729, 225, 252),
    (3, 4): (6561, 2241, 2160),
    (7, 2): (2401, 385, 336),
    (7, 4): (7**8, 343 * 2407, 343 * 2400),
    (11, 2): (14641, 1441, 1320),
    (19, 4): (19**8, 6859 * (19**4 + 18), 6859 * (19**4 - 1)),
}


def test_closed_forms_frozen():
    for (p, d), (tot, zero, unit) in FROZEN_COUNTS.items():
        assert total_count(p, d) == tot
        assert zero_norm_count(p, d) == zero
        assert unit_norm_count(p, d) == unit
        assert zero + (p - 1) * unit == tot


def test_irreducible_frozen():
    assert irreducible_count(3, 2) == 6
    assert irreducible_count(7, 2) == 42
    assert irreducible_count(11, 2) == 110
    assert irreducible_count(3, 4) == 540
    assert irreducible_count(7, 4) == 102900


def test_irreducible_product_form_matches_quotient():
    for p in (3, 7, 11, 19):
        for n in (1, 2, 3, 4):
            assert irreducible_product_form(p, n) == irreducible_count(p, 1 << n)


def test_entanglement_class_sizes_frozen():
    assert unentangled_irreducible_count(3, 2) == 36
    assert maxent_irreducible_count(3, 2) == 216
    assert unentangled_irreducible_count(7, 2) == 1764
    assert maxent_irreducible_count(7, 2) == 16464
    assert maxent_irreducible_count(3, 1) == 0
    assert unentangled_irreducible_count(3, 1) == 6


def test_maxent_ratio_exact():
    assert maxent_to_unentangled_ratio(3, 2) == Fraction(6)
    assert maxent_to_unentangled_ratio(7, 2) == Fraction(28, 3)


def test_maxent_closed_form_only_up_to_two_qubits(f3, monkeypatch):
    for n in (3, 4):
        with pytest.raises(DqcError):
            maxent_irreducible_count(3, n)
        with pytest.raises(DqcError):
            maxent_to_unentangled_ratio(3, n)
    with pytest.raises(DqcError):  # the formula gives p; no 1-qubit state is Maximal
        maxent_to_unentangled_ratio(3, 1)
    rep = closed_form_counts(f3, 8)
    assert rep.n == 3
    assert rep.maxent_irreducible is None and rep.maxent_unit is None
    assert rep.unentangled_irreducible == 216

    # the p=3 n=3 census (257,904 Maximal), without walking it
    counts = {"Unentangled": 216, "Partial": 3328560, "Maximal": 257904}
    monkeypatch.setattr(
        entangle, "census_tally", lambda *a, **k: SimpleNamespace(class_counts=counts)
    )
    rep = verify(f3, 3)
    assert rep.verified
    assert "maxent_enumerated" not in rep.match_flags
    for flag in ("unentangled_enumerated", "census_total", "irreducible_enumerated"):
        assert rep.match_flags[flag]
    assert rep.enumerated["maxent_irreducible"] == 257904
    doc = rep.to_json_dict()
    assert doc["maxent_irreducible"] is None and doc["maxent_unit"] is None
    assert doc["enumerated"]["maxent_irreducible"] == "257904"
    # only the Maximal comparison is skipped: the others still fail
    counts["Unentangled"], counts["Partial"] = 217, 3328559
    with pytest.raises(VerificationFailed) as exc:
        verify(f3, 3)
    assert exc.value.field_name == "unentangled_enumerated"
    # and at n = 2 the Maximal count is still compared
    counts.update(Unentangled=36, Partial=289, Maximal=215)
    with pytest.raises(VerificationFailed) as exc:
        verify(f3, 2)
    assert exc.value.field_name == "maxent_enumerated"


def test_zero_norm_recurrence_long_run(f3, f7):
    for fld in (f3, f7):
        seq = zero_norm_by_recurrence(fld, 64)
        assert len(seq) == 64
        assert seq[0] == 1
        assert seq[-1] == zero_norm_count(fld.p, 64)


def test_verify_zero_norm_closed_forms_match_the_single_term_form(monkeypatch):
    # verify makes its closed forms from running powers; with the
    # recurrence's zero column replaced by zero_norm_count's own terms,
    # the check must still agree up to k = D = 64, so every running-power
    # term equals the single-term form
    def single_term_counts(p, d):
        return ((zero_norm_count(p, m), None) for m in range(d + 1))

    monkeypatch.setattr(census, "norm_counts", single_term_counts)
    for p in (3, 7, 11, 19):
        record = verify(validate_prime(p), 6).checks["zero_norm_recurrence"]
        assert record == ((64, zero_norm_count(p, 64)),) * 2


def test_verify_records_the_zero_norm_recurrence(f3, monkeypatch):
    # verify compares every term of the recurrence with the closed form,
    # as one check of the report that holds the last term compared
    assert verify(f3, 2).checks["zero_norm_recurrence"] == ((4, 2241), (4, 2241))
    # a wrong term, one zero-norm 3-vector too many, fails the cell at its
    # dimension, with the finished report
    counts = census.norm_counts
    monkeypatch.setattr(
        census,
        "norm_counts",
        lambda p, d: ((z + (m == 3), o) for m, (z, o) in enumerate(counts(p, d))),
    )
    with pytest.raises(VerificationFailed) as exc:
        verify(f3, 2)
    assert exc.value.field_name == "zero_norm_recurrence"
    assert (exc.value.expected, exc.value.found) == ((3, 225), (3, 226))
    assert exc.value.report.verified is False
    # whose irreducible count reads the same recurrence, tails of m = 3
    assert exc.value.report.enumerated["irreducible"] == 541


def test_count_norm_class_matches_closed_forms(f3, f7):
    assert count_norm_class(f3, 2, 0) == 33
    assert count_norm_class(f3, 2, 1) == 24
    assert count_norm_class(f3, 4, 0) == 2241
    assert count_norm_class(f3, 4, 1) == 2160
    assert count_norm_class(f7, 2, 1) == 336
    # any nonzero target gives the unit count
    assert count_norm_class(f7, 2, 5) == 336


def test_count_irreducible_matches_closed_forms(f3, f7):
    assert count_irreducible(f3, 1) == 6
    assert count_irreducible(f3, 2) == 540
    assert count_irreducible(f7, 1) == 42


def test_norm_histogram_matches_full_scan():
    for p in (3, 7, 11):
        d = 1
        while total_count(p, d) <= census.DEFAULT_SCAN_LIMIT:
            scan = full_scan_norm_counts(validate_prime(p), d)
            zero, other = list(census.norm_counts(p, d))[d]
            assert [zero] + [other] * (p - 1) == [scan[c] for c in range(p)]
            d += 1


def test_norm_histograms_match_the_literal_convolution():
    # the two-number step h' = (p + 1) p**(2m) - p h against the O(p**2)
    # convolution over the sizes of enum_tables' fibers, whose nonzero
    # bins must all equal the one nonzero count
    for p in (3, 7, 11, 19):
        sizes = [len(f) for f in census.enum_tables(p)[1]]
        assert [
            [zero] + [other] * (p - 1) for zero, other in census.norm_counts(p, 8)
        ] == convolved_histograms(sizes, 8)


def test_fiber_sizes_and_minima_against_the_tables():
    # the fact counting rests on: the fiber of norm 0 is {0} and every
    # other has p + 1 elements; fiber_minima, built from square roots, is
    # each fiber's first element.  Built unmemoized, so the session's
    # table cache keeps no large p
    primes = [p for p in range(3, 200, 4) if is_prime(p)]
    assert len(primes) == 24
    for p in primes:
        _, fibers = census.enum_tables.__wrapped__(p)
        assert [len(f) for f in fibers] == [1] + [p + 1] * (p - 1)
        assert fibers[0] == ((0, 0),)
        minima = census.fiber_minima(p)
        assert minima == tuple(f[0] for f in fibers)


def test_counters_match_closed_forms_on_grid():
    for p in (3, 7, 11, 19, 23, 31):
        prime = validate_prime(p)
        for n in (1, 2, 3, 4):
            d = 1 << n
            assert count_norm_class(prime, d, 0) == zero_norm_count(p, d)
            for target in range(1, p):
                assert count_norm_class(prime, d, target) == unit_norm_count(p, d)
            assert count_irreducible(prime, n) == irreducible_count(p, d)


def test_full_scan_oracle(f3, f7):
    assert full_scan_norm_counts(f3, 2) == {0: 33, 1: 24, 2: 24}
    scan = full_scan_norm_counts(f7, 2)
    assert scan[0] == 385
    assert all(scan[c] == 336 for c in range(1, 7))
    assert sum(scan.values()) == 7**4


def test_iter_norm_class_matches_brute_force(f3):
    for target in (0, 1, 2):
        got = list(iter_norm_class(f3, 2, target))
        want = brute_vectors(3, 2, norm=target)
        assert got == want  # same set, same lexicographic order


def stream_digest(rows):
    """(count, sha256) of rows whose first item is a state: its
    amplitudes' residues as bytes, the other items by repr."""
    h = hashlib.sha256()
    count = 0
    while chunk := list(islice(rows, 4096)):
        count += len(chunk)
        amps = chain.from_iterable(row[0] for row in chunk)
        h.update(bytes(chain.from_iterable(amps)))
        h.update(repr([row[1:] for row in chunk]).encode())
    return count, h.hexdigest()


# stream_digest of each per-state stream, its states or rows in order:
# (p, d, target) for iter_norm_class, (p, n) for iter_irreducible and
# iter_classified
PINNED_STREAMS = {
    "norm": {
        (3, 2, 0): (33, "a5e56a6c1c4772c30a86f8b55f76d6855283234943c25ee863960eaea70a554c"),
        (3, 2, 1): (24, "4104ac20660d74ec54c93c244386d6970783876c3e24715fd647ab2e732a5cd0"),
        (3, 4, 0): (2241, "af4e00d00acd206b429dac1cf8ff479d8106b635aaafc902f0f18ae4af34e9b8"),
        (3, 4, 1): (2160, "6dc0311c4b75d0ef265b4eb3de412233893ec3a1e98364b27ea93d6b1dc6ae9b"),
        (7, 2, 0): (385, "df4e64c4758c05c8402d7cf68bd14c066be672f5d39891d448cd42de1854bc01"),
        (7, 2, 1): (336, "0591d69250f65f4c26e90236445058501483c78c48cfa486cfd44eff40beca0b"),
        (7, 4, 0): (825601, "deeba5c1b8f15e0da04d791a6143ad12bdde108ccbe13af37e8951af9a2201a1"),
        (7, 4, 1): (823200, "6755c1012a618f9056ad918f9b16bd305b34e9ca1ad030e18fb5f8f1bb087588"),
    },
    "irreducible": {
        (3, 1): (6, "5290e3fafa14edaf45f833541ad221a0d951627056bcf002906f6b1fa441e8db"),
        (3, 2): (540, "cce0717ddc69381854e74f8e101bc4d898f31fcf4de0b58c1316d860c1426176"),
        (7, 1): (42, "03acfd751f66514a2d16907cdf2c97b32fdd7e31d55405ea6db397ca9fc559a9"),
        (7, 2): (102900, "5dbde7b02270a6949e7dc00feeaf9f0088db6dc59f3aea2e756f3c4b107884aa"),
    },
    "classified": {
        (3, 1): (6, "6f37521863ff8b26ba2bfa282d4a35518b4cb065a3f9d5a0fb7d9a301173373c"),
        (3, 2): (540, "b56d5bb83c37aafeb2dc2e7665a6fde087b4e9f790d1077a708117f5eaa1c767"),
        (7, 1): (42, "71dd2bad771e9fd4877ddfe13fc7b0710e7e5ba7e0bdea9b7d4340a707e061f8"),
        (7, 2): (102900, "644d48ff3f3dd17ba653b06a959e308d5e52859985b7f577faf8cc42f0fe4ba7"),
    },
}


def test_per_state_streams_keep_their_items_and_order():
    # the row streams yield one group per parent; the per-state streams
    # built on them must still give every state, in the same order
    got = {"norm": {}, "irreducible": {}, "classified": {}}
    for p in (3, 7):
        fld = validate_prime(p)
        for d in (2, 4):
            for target in (0, 1):
                got["norm"][p, d, target] = stream_digest(
                    (amps,) for amps in iter_norm_class(fld, d, target)
                )
        for n in (1, 2):
            got["irreducible"][p, n] = stream_digest(
                (amps,) for amps in iter_irreducible(fld, n)
            )
            got["classified"][p, n] = stream_digest(
                (amps, kind.value, *rest)
                for amps, kind, *rest in iter_classified(fld, n)
            )
    assert got == PINNED_STREAMS


def test_iter_canonical_matches_literal_filter(f3, f7):
    for fld, n in ((f3, 1), (f3, 2), (f7, 1)):
        got = list(iter_irreducible(fld, n))
        want = brute_canonical(fld.p, 1 << n)
        assert got == want


def test_canonical_walk_matches_literal_filter():
    # the walk builds only canonical prefixes, segment by segment; the
    # oracle filters all p**(2(d-1)) of them
    for p, d_max in ((3, 5), (7, 4), (11, 3)):
        fibers = {c: tuple(brute_fiber(p, c)) for c in range(p)}
        for d in range(2, d_max + 1):
            want = []
            for digits in canonical_prefix_digits(p, d):
                head = tuple(divmod(e, p) for e in digits)
                c = (1 - sum(cnorm(p, x) for x in head)) % p
                # the zero prefix keeps only the leading fiber minimum
                want.append((head, c, fibers[c] if any(digits) else fibers[c][:1]))
            groups = [
                group
                for segment in census.canonical_segments(p, d)
                for group in census.walk_prefixes(p, 1, segment)
            ]
            walked = [
                (parent + (y,), c, completions)
                for parent, children in groups
                for y, c, completions in children
            ]
            assert walked == want
            # each group is one parent, the first d - 2 amplitudes
            assert all(len(parent) == d - 2 for parent, _ in groups)
            # a canonical stream is charged these prefixes, or the floor
            with pytest.raises(BudgetExceeded) as exc:
                census.iter_norm_prefixes(validate_prime(p), d, 1, 1, True)
            assert exc.value.required == max(len(walked), p * p)


def traced_peak(fn):
    """(fn(), the peak of the memory it allocated, in bytes)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_qubit_walks_stay_quadratic():
    # a 1-qubit walk visits p**2 prefixes at most, so it must not build
    # the children of every parent norm (p**3 entries, about 125 MB at
    # p = 101); the canonical one needs none of them, the full one one
    p = 101
    elements, fibers = census.enum_tables(p)
    for segments, prefixes in (
        (census.canonical_segments(p, 2), p),
        ([[elements, fibers]], p * p),
    ):
        walked, peak = traced_peak(lambda: sum(
            len(children)
            for segment in segments
            for _, children in census.walk_prefixes(p, 1, segment)
        ))
        assert walked == prefixes
        assert peak < 20_000_000
    assert len(list(bloch_export(validate_prime(211)))) == 211 * 210


def test_enum_tables_restores_the_collector():
    # the build pauses the cyclic collector and leaves it as it found it
    build = census.enum_tables.__wrapped__
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert build(11) == census.enum_tables(11)
            assert gc.isenabled() == enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_walks_build_no_tables_of_their_own():
    # the p = 503 n = 1 census walks 503 prefixes from the cached tables,
    # so it must not rebuild p**2 entries of them (28 MB once) per walk
    f503 = validate_prime(503)
    census.enum_tables(503)
    tally, peak = traced_peak(lambda: entangle.census_tally(f503, 1))
    assert tally.irreducible_total == irreducible_count(503, 2)
    assert peak < 1_000_000


def test_two_qubit_counts_build_no_tables():
    # below n = 3 the census walks fiber minima and sized completions and
    # the counters convolve fiber sizes, so neither builds enum_tables'
    # p**2 pairs (0.46-0.54 MB traced when they did)
    f83 = validate_prime(83)
    for run in (
        lambda: entangle.census_tally(f83, 2).irreducible_total,
        lambda: verify(f83, 2).enumerated["irreducible"],
    ):
        census.enum_tables.cache_clear()
        total, peak = traced_peak(run)
        assert total == irreducible_count(83, 4)
        assert census.enum_tables.cache_info().currsize == 0
        assert peak < 100_000


def test_bloch_export_streams():
    # the export yields its points one by one: a list of all p(p - 1)
    # would hold about 100 MB at p = 503.  Its first 25,000 points, one
    # tenth, show any growth per point; a traced full drain takes 10 s
    count, peak = traced_peak(
        lambda: sum(1 for _ in islice(bloch_export(validate_prime(503)), 25_000))
    )
    assert count == 25_000
    assert peak < 1_000_000


def test_iter_counts_agree_with_counters(f3):
    assert len(list(iter_norm_class(f3, 4, 0))) == count_norm_class(f3, 4, 0)
    assert len(list(iter_irreducible(f3, 2))) == count_irreducible(f3, 2)


def test_budget_exceeded_attributes(f7):
    with pytest.raises(BudgetExceeded) as exc:
        next(iter_norm_class(f7, 4, 1, budget=10))
    err = exc.value
    assert err.required == 7**6
    assert err.budget == 10
    assert err.closed_form == unit_norm_count(7, 4)
    with pytest.raises(BudgetExceeded):
        list(iter_irreducible(f7, 2, budget=10))
    with pytest.raises(BudgetExceeded):
        full_scan_norm_counts(f7, 4)  # 7**8 vectors exceed the scan limit


def test_census_is_charged_the_prefixes_it_walks(f3, f7):
    # the gauged walk: 1 prefix at n = 1, (p-1) p + 2p at n = 2 and
    # 2 p**(n - 1 + 2f) + (p-1) p**(n + 2f - 2), f = D - n - 2, from n = 3
    # on; at n = 1 it is charged the p**2 entries of the tables every walk
    # reads.  The charge is the segments' prefix count.  verify's census
    # gate is the same charge
    cells = ((f7, 1, 7**2), (f7, 2, 56), (f7, 3, 16_470_860), (f3, 3, 17_496))
    for fld, n, charge in cells:
        with pytest.raises(BudgetExceeded) as exc:
            entangle.census_tally(fld, n, budget=charge - 1)
        assert exc.value.required == charge
        assert exc.value.closed_form == irreducible_count(fld.p, 1 << n)
    for p in (3, 7, 11, 19):
        for n in (1, 2, 3):
            walked = sum(
                prod(map(len, segment[:-1]))
                for segment, _, _ in entangle.census_segments(p, n)
            )
            assert walked == entangle.census_prefixes(p, n)
    assert entangle.census_tally(f7, 2, budget=56).irreducible_total == 102900
    assert verify(f7, 2, budget=56).enumerated["maxent_irreducible"] == 16464
    rep = verify(f7, 2, budget=55)
    assert rep.enumerated == {}
    assert rep.notes[0] == "enumeration skipped: 56 prefixes exceed budget 55"


def test_streams_refuse_when_created(f7):
    # the budget is checked on the call, before any next(), by the one
    # check of iter_norm_prefixes, which carries the stream's closed form
    # and charges the prefixes of its walk: all 7**6, or the 14,707 of
    # the canonical walk
    irreducible = irreducible_count(7, 4)
    for make, closed_form, prefixes in (
        (lambda: iter_norm_class(f7, 4, 1, budget=10), unit_norm_count(7, 4), 7**6),
        (lambda: census.iter_norm_prefixes(f7, 4, 1, 10, canonical_only=True),
         irreducible, 14707),
        (lambda: iter_irreducible(f7, 2, budget=10), irreducible, 14707),
        (lambda: entangle.iter_classified_prefixes(f7, 2, budget=10),
         irreducible, 14707),
        (lambda: iter_classified(f7, 2, budget=10), irreducible, 14707),
    ):
        with pytest.raises(BudgetExceeded) as exc:
            make()
        assert exc.value.required == prefixes
        assert exc.value.budget == 10
        assert exc.value.closed_form == closed_form


def test_stream_closed_forms_count_what_the_streams_yield():
    # a refused stream's closed form is the number of vectors it would
    # yield; a canonical stream of norm 0 yields the phase-class minima
    # of the nonzero vectors, so the zero vector is not among them
    for p, dims in ((3, (2, 3, 4)), (7, (2, 3))):
        prime = validate_prime(p)
        for d in dims:
            for target in (0, 1, 2):
                for canonical_only in (False, True):
                    with pytest.raises(BudgetExceeded) as exc:
                        iter_norm_class(prime, d, target, 1, canonical_only)
                    stream = iter_norm_class(
                        prime, d, target, canonical_only=canonical_only
                    )
                    assert exc.value.closed_form == sum(1 for _ in stream), (
                        p, d, target, canonical_only,
                    )


def test_budget_floor_refuses_a_census_at_a_huge_prime(monkeypatch):
    # a 1-qubit census walks one prefix, so only the charge's p**2 floor
    # refuses it at p = 2**61 - 1 (a 2-qubit one walks p**2 + p), before
    # fiber_minima's loop over the squares or verify's counts by norms
    # could run; they raise here, so losing the floor fails the test
    # instead of hanging it
    def unreachable(*args):
        raise AssertionError("a census at p = 2**61 - 1 got past its budget")

    monkeypatch.setattr(entangle, "fiber_minima", unreachable)
    monkeypatch.setattr(census, "count_norm_class", unreachable)
    monkeypatch.setattr(census, "count_irreducible", unreachable)
    prime = validate_prime(2**61 - 1)
    for n, charge in ((1, prime.p**2), (2, prime.p**2 + prime.p)):
        rep = verify(prime, n)
        assert rep.enumerated == {}
        assert rep.notes[0] == (
            f"enumeration skipped: {charge} prefixes exceed budget "
            f"{census.DEFAULT_BUDGET}"
        )


@pytest.mark.parametrize("n", [0, -1])
def test_verify_and_census_refuse_fewer_than_one_qubit(f3, n):
    # refused by name before 1 << n or the census's prefix count is made
    for call in (verify, entangle.census_tally):
        with pytest.raises(DqcError) as exc:
            call(f3, n)
        assert str(exc.value) == f"qubit count must be >= 1, got {n}"


@pytest.mark.parametrize("threads", [0, -1, -3])
def test_verify_and_census_refuse_fewer_than_one_thread(f3, threads):
    # the CLI reads --threads 0 as the usable CPUs; the library takes
    # the count as given and refuses one below 1 by name
    for call in (verify, entangle.census_tally):
        with pytest.raises(DqcError) as exc:
            call(f3, 2, threads=threads)
        assert str(exc.value) == f"thread count must be >= 1, got {threads}"


def test_verify_fixed_checks_hold_o_of_d_bits(f3):
    # at n = 12 the census is over budget, so the fixed checks are all
    # verify runs: two D-long lists of zero-norm counts, O(D**2) bits,
    # would peak near 8 MB; the streamed check stays under 1 MB
    rep, peak = traced_peak(lambda: verify(f3, 12))
    assert rep.verified and rep.notes[0].startswith("enumeration skipped")
    assert peak < 2 * 2**20


def test_norm_streams_refuse_dimensions_below_two(f3):
    # a prefix needs a last amplitude and one before it: d = 0 and d = 1
    # raise a DqcError naming the dimension on the call, before the budget
    # check, which budget=1 would fail
    for d in (0, 1):
        for canonical_only in (False, True):
            for stream in (census.iter_norm_prefixes, iter_norm_class):
                for budget in (1, census.DEFAULT_BUDGET):
                    with pytest.raises(DqcError) as exc:
                        stream(f3, d, 1, budget, canonical_only)
                    assert not isinstance(exc.value, BudgetExceeded)
                    assert str(exc.value) == f"dimension must be >= 2, got {d}"


def test_prefix_blocks_partition():
    for total in (1, 5, 81, 100, 6561):
        for workers in (1, 2, 3, 7, 16):
            blocks = prefix_blocks(total, workers)
            assert blocks[0][0] == 0
            assert blocks[-1][1] == total
            for (a, b), (c, _) in zip(blocks, blocks[1:]):
                assert b == c
                assert a < b
            assert len(blocks) <= 4 * workers
            # one worker runs inline, as one block
            assert workers > 1 or blocks == [(0, total)]


def test_closed_form_counts_flags(f3):
    rep = closed_form_counts(f3, 4)
    assert rep.n == 2
    assert rep.verified
    # only the identities between independently derived forms
    assert list(rep.match_flags) == ["partition_identity", "irreducible_product_form"]
    assert rep.checks["irreducible_product_form"] == (540, 540)
    # every identity holds in every dimension, odd ones included
    for p in (3, 7, 11):
        for d in range(1, 10):
            rep_d = closed_form_counts(validate_prime(p), d)
            assert rep_d.verified, (p, d)
            names = ["partition_identity"]
            if rep_d.n is not None:
                names.append("irreducible_product_form")
            assert list(rep_d.checks) == names
            for expected, found in rep_d.checks.values():
                assert expected == found, (p, d)
    assert rep.unentangled_unit == 36 * 4
    assert rep.maxent_unit == 216 * 4
    # non-power-of-two dimension: no qubit structure
    rep3 = closed_form_counts(f3, 3)
    assert rep3.n is None
    assert rep3.unentangled_irreducible is None


def test_closed_form_counts_refuses_dimension_zero(f3):
    with pytest.raises(DqcError) as exc:
        closed_form_counts(f3, 0)
    assert str(exc.value) == "dimension must be >= 1, got 0"


def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch):
    # a platform without sched_getaffinity: the CPU count, or 1 when
    # the OS cannot say
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert census.usable_cpus() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert census.usable_cpus() == 1


def test_verify_full_enumeration(f3):
    rep = verify(f3, 2)
    assert rep.verified
    assert list(rep.match_flags) == [
        "partition_identity", "irreducible_product_form", "zero_norm_recurrence",
        "spot_invariants", "unit_norm_enumerated", "zero_norm_enumerated", "irreducible_enumerated",
        "unentangled_enumerated", "maxent_enumerated", "census_total",
        "full_scan_histogram",
    ]
    assert rep.checks["full_scan_histogram"] == ([2241, 2160, 2160],) * 2
    assert rep.enumerated["unit_norm"] == 2160
    assert rep.enumerated["zero_norm"] == 2241
    assert rep.enumerated["irreducible"] == 540
    assert rep.enumerated["unentangled_irreducible"] == 36
    assert rep.enumerated["maxent_irreducible"] == 216
    assert rep.enumerated["full_scan_unit_norm"] == 2160
    assert rep.notes == []


def test_verify_starts_one_pool(f3, monkeypatch):
    starts = []
    pool = census.Pool

    def counted_pool(*args, **kwargs):
        starts.append(kwargs)
        return pool(*args, **kwargs)

    monkeypatch.setattr(census, "Pool", counted_pool)
    # the p=3 n=2 census walks 15 prefixes, too few to start a pool
    assert verify(f3, 2, threads=2).verified
    assert starts == []
    # with no inline threshold it starts one pool, for the census alone,
    # where two CPUs are usable
    monkeypatch.setattr(entangle, "POOL_MIN_PREFIXES", 0)
    assert verify(f3, 2, threads=2).verified
    assert len(starts) == (census.usable_cpus() > 1)


def test_pool_has_at_most_one_worker_per_block(f3, monkeypatch):
    # a pool that records its size and maps inline, so no process starts
    sizes = []

    class InlinePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(census, "Pool", InlinePool)
    assert census.run_blocks(abs, [-1, 2, -3], threads=64) == [1, 2, 3]
    assert census.run_blocks(abs, [-1, 2, -3], threads=2) == [1, 2, 3]
    assert sizes == [3, 2]
    # the census runs on no more workers than there are usable CPUs; one
    # worker runs inline and starts no pool
    usable = census.usable_cpus()

    def pools(workers):
        return [workers] if workers > 1 else []

    # `dqc classify --p 3 --n 3 --threads 64` walks 17,496 prefixes
    entangle.census_tally(f3, 3, threads=64)
    assert sizes[2:] == pools(min(64, usable))
    del sizes[2:]
    # `dqc classify --p 3 --n 2 --threads 64` runs its 15 prefixes inline;
    # with no inline threshold the census walks 15 parents, so at most 15
    # blocks and 15 workers, not 64
    tally = entangle.census_tally(f3, 2, threads=64)
    assert sizes[2:] == []
    monkeypatch.setattr(entangle, "POOL_MIN_PREFIXES", 0)
    assert entangle.census_tally(f3, 2, threads=64) == tally
    assert tally.class_counts == {"Maximal": 216, "Partial": 288, "Unentangled": 36}
    assert sizes[2:] == pools(min(15, usable))


def test_verify_budget_skip_keeps_closed_forms(f19):
    rep = verify(f19, 4, budget=10**6)
    assert rep.verified
    assert "unit_norm" not in rep.enumerated
    assert any("budget" in note for note in rep.notes)
    # the closed-form identities, the zero-norm recurrence and the
    # sampled invariants, nothing else
    assert rep.match_flags == {
        "partition_identity": True,
        "irreducible_product_form": True,
        "zero_norm_recurrence": True,
        "spot_invariants": True,
    }


class CountingRandom(random.Random):
    calls = 0

    def randrange(self, *args):
        self.calls += 1
        return super().randrange(*args)


def test_sample_unit_amps_is_uniform_in_few_draws(f3):
    # seeded: at p=3 d=2 each of the 24 unit states is drawn about equally
    # often (chi-square with 23 degrees of freedom below its 0.999
    # quantile); at p=10007 every sample is unit-norm and takes O(d)
    # draws, not the about p of rejection sampling
    rng = random.Random(29)
    draws = Counter(sample_unit_amps(f3, 2, rng) for _ in range(24 * 500))
    assert sorted(draws) == brute_vectors(3, 2, norm=1)
    assert sum((k - 500) ** 2 / 500 for k in draws.values()) < 49.7

    big = validate_prime(10007)
    rng = CountingRandom(31)
    for d in (1, 2, 4, 8):
        rng.calls = 0
        for _ in range(100):
            amps = sample_unit_amps(big, d, rng)
            assert len(amps) == d
            assert sum(a * a + b * b for a, b in amps) % 10007 == 1
        assert rng.calls < 100 * (d + 8)


def test_sample_unit_amps_draws_several_amplitudes_at_once(f3):
    # one draw is decoded into several amplitudes: at p=3 d=3 both head
    # amplitudes come from one randrange, and each of the 252 unit
    # vectors is still drawn about equally often (chi-square with 251
    # degrees of freedom below its 0.999 quantile, about 326)
    rng = random.Random(41)
    draws = Counter(sample_unit_amps(f3, 3, rng) for _ in range(252 * 200))
    assert sorted(draws) == brute_vectors(3, 3, norm=1)
    assert sum((k - 200) ** 2 / 200 for k in draws.values()) < 326
    # and a long head takes far fewer draws than amplitudes
    d, samples = 4096, 20
    rng = CountingRandom(43)
    for _ in range(samples):
        amps = sample_unit_amps(f3, d, rng)
        assert len(amps) == d
        assert sum(a * a + b * b for a, b in amps) % 3 == 1
    assert rng.calls < samples * d / 8


def test_spot_invariants_catches_every_fault_it_checks(f7, monkeypatch):
    # each fault breaks one function that spot_invariants calls; the
    # complexfield ones are patched on their module, from which
    # spot_invariants imports them on each call; the non-unit sample on
    # call 2, the first round's new sample, went unchecked when every
    # round drew a second sample for cdot alone
    assert census.spot_invariants(f7, 4, 0)
    # cdot without its conjugate: a symmetric, not a Hermitian, product
    bilinear = lambda p, xs, ys: cdot(p, [conj(p, x) for x in xs], ys)
    # cmul and fnorm as if i**2 == +1, the split algebra F_p x F_p
    split_mul = lambda p, x, y: (
        (x[0] * y[0] + x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p
    )
    split_norm = lambda p, x: (x[0] * x[0] - x[1] * x[1]) % p
    faults = [
        (complexfield, "cdot", bilinear),
        (complexfield, "frobenius", lambda p, x: x),
        (complexfield, "conj", lambda p, x: x),
        (complexfield, "cmul", split_mul),
        (complexfield, "fnorm", split_norm),
        (census, "random_phase", lambda prime, rng: (2, 0)),
    ]
    for k in (1, 2, 33):
        calls = iter(range(1, 100))

        def non_unit_on_call_k(prime, d, rng, k=k, calls=calls):
            # twice a unit vector has norm 4 at p=7
            amps = sample_unit_amps(prime, d, rng)
            if next(calls) == k:
                amps = [(2 * a % 7, 2 * b % 7) for a, b in amps]
            return amps

        faults.append((census, "sample_unit_amps", non_unit_on_call_k))
    for module, name, fault in faults:
        with monkeypatch.context() as m:
            m.setattr(module, name, fault)
            assert not census.spot_invariants(f7, 4, 0), name


def test_random_phase_is_z_over_its_conjugate():
    # the inline z**2 / N(z) against complexfield's z * (1 / conj(z)),
    # each from its own generator on the same seed, so the same draws
    for p in (3, 7, 11):
        prime = validate_prime(p)
        rng, ref = random.Random(p), random.Random(p)
        for _ in range(200):
            z = divmod(ref.randrange(1, p * p), p)
            u = census.random_phase(prime, rng)
            assert u == cmul(p, z, cinv(p, conj(p, z)))
            assert fnorm(p, u) == 1


# sample_unit_amps(prime, d, random.Random(seed)) for seeds 0-9, drawn
# while the sampler took its norms from complexfield.fnorm: its inline
# norms must give the same draws, and so the same verify reports
UNIT_SAMPLES = {
    (7, 4): [
        ((5, 3), (0, 4), (6, 4), (4, 3)), ((2, 6), (2, 2), (1, 0), (5, 2)),
        ((5, 2), (0, 5), (6, 5), (5, 6)), ((3, 5), (6, 6), (1, 5), (3, 0)),
        ((2, 6), (6, 1), (1, 5), (6, 4)), ((1, 3), (0, 0), (4, 6), (6, 6)),
        ((3, 0), (3, 2), (3, 5), (0, 1)), ((0, 6), (3, 6), (3, 0), (4, 0)),
        ((2, 6), (2, 4), (1, 5), (2, 4)), ((3, 4), (1, 6), (3, 4), (1, 2)),
    ],
    (3, 8): [
        ((0, 1), (2, 0), (2, 1), (2, 0), (2, 0), (1, 2), (0, 0), (2, 1)),
        ((1, 1), (0, 1), (0, 1), (2, 1), (0, 0), (0, 1), (0, 2), (2, 1)),
        ((2, 0), (1, 2), (2, 0), (0, 2), (0, 0), (2, 2), (0, 0), (0, 0)),
        ((0, 1), (2, 0), (0, 0), (0, 0), (1, 2), (2, 1), (1, 2), (1, 1)),
        ((0, 0), (0, 1), (1, 1), (0, 2), (0, 0), (1, 2), (2, 1), (1, 2)),
        ((2, 2), (1, 1), (0, 1), (2, 0), (0, 2), (1, 0), (2, 2), (0, 0)),
        ((0, 2), (0, 0), (0, 1), (0, 0), (1, 1), (0, 2), (0, 1), (0, 1)),
        ((0, 0), (0, 1), (1, 0), (0, 0), (0, 0), (0, 1), (1, 2), (1, 2)),
        ((0, 1), (1, 0), (2, 0), (2, 1), (0, 1), (1, 2), (1, 0), (2, 0)),
        ((0, 1), (1, 1), (2, 1), (2, 2), (2, 0), (0, 2), (2, 1), (2, 1)),
    ],
}


def test_sample_unit_amps_draws_the_pinned_samples():
    for (p, d), pinned in UNIT_SAMPLES.items():
        prime = validate_prime(p)
        drawn = [sample_unit_amps(prime, d, random.Random(s)) for s in range(10)]
        assert drawn == pinned, (p, d)


def test_spot_invariants_draws_33_unit_samples(f7, monkeypatch):
    # one sample before the 32 rounds and one new sample in each
    calls = []

    def counted(*args):
        calls.append(args)
        return sample_unit_amps(*args)

    monkeypatch.setattr(census, "sample_unit_amps", counted)
    assert census.spot_invariants(f7, 4, 0)
    assert len(calls) == 33


def test_library_verify_past_the_int_to_str_limit():
    # a fresh interpreter has Python's default limit on int-to-str
    # digits, whatever this one's is set to: at p=3 n=13 the skip notes
    # and the report carry counts of more than 4,300 digits, and the
    # report is written with the bytes of `dqc verify --p 3 --n 13`
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    script = (
        "import hashlib, json, sys\n"
        "from dqc import census, validate_prime\n"
        "assert sys.get_int_max_str_digits() == 4300\n"
        "rep = census.verify(validate_prime(3), 13)\n"
        "assert rep.verified\n"
        "print(*(note.split()[:2] for note in rep.notes))\n"
        "text = json.dumps(rep.to_json_dict(), indent=2) + '\\n'\n"
        "print(hashlib.sha256(text.encode()).hexdigest())\n"
    )
    src = os.path.dirname(os.path.dirname(census.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().split("\n") == [
        "['enumeration', 'skipped:'] ['full', 'scan']",
        "55999388c343b9f471132568b255209cf08f8e1032b4fc7a0ccfb0764ff5aa59",
        "",
    ]


def test_exact_str_gives_the_digits_of_str_past_the_limit():
    # and so do the error messages that carry such counts
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    x = 3**16384
    values = [x, -x, (13, x)]
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        with pytest.raises(ValueError):
            str(x)
        with_limit = [exact_str(v) for v in values]
        messages = [
            str(BudgetExceeded(x, 10**8, x + 1)),
            str(VerificationFailed("zero_norm_recurrence", (13, x), (13, -x), None)),
        ]
        sys.set_int_max_str_digits(0)
        assert with_limit == [str(v) for v in values]
        assert messages == [
            f"enumeration needs {x} prefixes, budget is {10**8}"
            f" (closed form gives {x + 1})",
            f"verification mismatch in field 'zero_norm_recurrence': "
            f"expected {(13, x)}, found {(13, -x)}",
        ]
    finally:
        sys.set_int_max_str_digits(old)


def test_exact_str_converts_250k_digits_by_halves():
    # 3**(2**19), 250,149 digits: exact_str splits it down to 2,048-bit
    # halves and joins them in an exact decimal context, and gives the
    # digits str gives under a lifted limit (about 1 s in str alone)
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    x = 3 ** (1 << 19)
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        digits = exact_str(x)
        sys.set_int_max_str_digits(0)
        assert digits == str(x)
        assert len(digits) == 250_149
    finally:
        sys.set_int_max_str_digits(old)


def test_verify_seed_changes_samples_not_outcome(f7):
    assert verify(f7, 1, seed=0).verified
    assert verify(f7, 1, seed=12345).verified


def test_verify_detects_mismatch(f3, monkeypatch):
    monkeypatch.setattr(census, "count_irreducible", lambda *a, **k: 999)
    with pytest.raises(VerificationFailed) as exc:
        verify(f3, 1)
    assert exc.value.field_name == "irreducible_enumerated"
    assert (exc.value.expected, exc.value.found) == (6, 999)
    assert exc.value.report is not None
    assert exc.value.report.enumerated["irreducible"] == 999
    assert exc.value.report.verified is False
    monkeypatch.undo()

    # failed sampled invariants, and a census whose classes overcount
    monkeypatch.setattr(census, "spot_invariants", lambda *a, **k: False)
    with pytest.raises(VerificationFailed) as exc:
        verify(f3, 1)
    assert exc.value.field_name == "spot_invariants"
    assert (exc.value.expected, exc.value.found) == (True, False)
    monkeypatch.undo()
    counts = {"Unentangled": 6, "Partial": 1, "Maximal": 0}
    monkeypatch.setattr(
        entangle, "census_tally", lambda *a, **k: SimpleNamespace(class_counts=counts)
    )
    with pytest.raises(VerificationFailed) as exc:
        verify(f3, 1)
    assert exc.value.field_name == "census_total"
    assert (exc.value.expected, exc.value.found) == (6, 7)
    assert exc.value.report.enumerated["unentangled_irreducible"] == 6


def test_report_json_schema(f3):
    rep = verify(f3, 2)
    d = rep.to_json_dict()
    assert set(d) == {
        "p",
        "n",
        "D",
        "total",
        "zero_norm",
        "unit_norm",
        "irreducible",
        "unentangled_irreducible",
        "maxent_irreducible",
        "unentangled_unit",
        "maxent_unit",
        "enumerated",
        "verified",
    }
    assert d["p"] == 3 and d["n"] == 2 and d["D"] == 4
    assert d["total"] == "6561"
    assert d["unit_norm"] == "2160"
    assert d["verified"] is True
    assert d["enumerated"]["irreducible"] == "540"
    assert list(d["enumerated"]) == sorted(d["enumerated"])
