"""Acceptance suite: one test per criterion, each emitting a visible
PASS or FAIL line with its runtime.  All arithmetic checks are exact;
the only tolerances are the stated wall-clock bounds."""

import json
import os
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import dqc.census as census
from dqc import (
    StateVector,
    census_tally,
    classify,
    closed_form_counts,
    conj,
    fingerprint,
    fnorm,
    frobenius,
    hopf_map_1q,
    irreducible_count,
    maxent_to_unentangled_ratio,
    norm_fiber,
    phase_class,
    purity,
    total_count,
    unit_norm_count,
    validate_prime,
    verify,
    zero_norm_count,
)
from dqc.census import random_phase, sample_unit_amps
from dqc.cli import main
from dqc.entangle import EntanglementClass

from _oracles import (
    brute_canonical,
    brute_vectors,
    cmul as oracle_cmul,
    matrix_expectation_grid,
)

GRID_PRIMES = (3, 7, 11, 19, 23, 31)


@pytest.fixture
def report(capfd):
    @contextmanager
    def criterion(num, label, bound=None):
        t0 = time.perf_counter()
        ok = False
        extra = {}
        try:
            yield extra
            dt = time.perf_counter() - t0
            if bound is not None and dt >= bound:
                raise AssertionError(f"runtime {dt:.2f}s exceeds bound {bound}s")
            ok = True
        finally:
            dt = time.perf_counter() - t0
            tail = extra.get("tail", "")
            line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}{tail} ({dt:.2f}s)"
            with capfd.disabled():
                print(line)

    return criterion


@pytest.fixture(scope="module")
def tally32():
    return census_tally(validate_prime(3), 2, threads=1)


@pytest.fixture(scope="module")
def tally72():
    t0 = time.perf_counter()
    tally = census_tally(validate_prime(7), 2, threads=1)
    return tally, time.perf_counter() - t0


def test_criterion_1_fiber_sizes(report):
    with report(1, "norm fibers have p+1 elements (nonzero) and 1 (zero) "
                   "for p in {3,7,11,19}", bound=1.0):
        for p in (3, 7, 11, 19):
            fld = validate_prime(p)
            assert norm_fiber(fld, 0) == [(0, 0)]
            seen = 1
            for c in range(1, p):
                fiber = norm_fiber(fld, c)
                assert len(fiber) == p + 1
                assert all(fnorm(p, x) == c for x in fiber)
                seen += len(fiber)
            assert seen == p * p


def test_criterion_2_one_qubit_counts(report, capfd):
    expected = {3: (24, 6), 7: (336, 42), 11: (1320, 110)}
    with report(2, "1-qubit verification reproduces unit/irreducible counts "
                   "24/6, 336/42, 1320/110"):
        code = main(["verify", "--p", "3", "--n", "1"])
        out = capfd.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["unit_norm"] == "24" and doc["irreducible"] == "6"
        assert doc["enumerated"]["unit_norm"] == "24"
        assert doc["enumerated"]["irreducible"] == "6"
        for p, (unit, irr) in expected.items():
            t0 = time.perf_counter()
            rep = verify(validate_prime(p), 1)
            assert time.perf_counter() - t0 < 1.0
            assert rep.enumerated["unit_norm"] == unit == unit_norm_count(p, 2)
            assert rep.enumerated["irreducible"] == irr == irreducible_count(p, 2)
            assert irr == p * (p - 1)


def test_criterion_3_two_qubit_census_p3(report, tally32):
    with report(3, "p=3 n=2 full census: 2241/2160/540 and classes "
                   "{36, 288, 216}, unit classes 144/864", bound=10.0):
        rep = verify(validate_prime(3), 2)
        assert rep.verified
        assert total_count(3, 4) == 6561
        assert rep.enumerated["zero_norm"] == 2241
        assert rep.enumerated["unit_norm"] == 2160
        assert rep.enumerated["irreducible"] == 540
        assert tally32.class_counts == {
            "Unentangled": 36, "Partial": 288, "Maximal": 216,
        }
        units = tally32.unit_class_counts()
        assert units["Unentangled"] == 144
        assert units["Maximal"] == 864


def test_criterion_4_two_qubit_census_p7(report, tally72):
    tally, elapsed = tally72
    with report(4, "p=7 n=2 census by fiber enumeration: unentangled 1764, "
                   "maximal 16464; two workers speed up the p=227 n=2 census") as extra:
        assert tally.class_counts["Unentangled"] == 1764
        assert tally.class_counts["Maximal"] == 16464
        assert tally.irreducible_total == irreducible_count(7, 4) == 102900
        assert elapsed < 300.0  # single-threaded bound
        threaded = census_tally(validate_prime(7), 2, threads=2)
        assert threaded == tally  # thread count never changes results
        # the speed-up is timed on the p=227 n=2 census, 51,756 prefixes,
        # 0.4-0.6 s on one worker, so that starting and joining the pool
        # (9-15 ms) is a small share of the two-worker run; the p=3 n=3
        # census (17,496 prefixes, 0.07-0.1 s) left too thin a margin over
        # the gate on a contended 2-vCPU host
        f227 = validate_prime(227)

        def timed(threads):
            t0 = time.perf_counter()
            result = census_tally(f227, 2, threads=threads)
            return result, time.perf_counter() - t0

        # untimed 2-worker runs for 1.5 s: the first pool start in a process
        # imports multiprocessing, and on a shared 2-vCPU host the second
        # CPU reaches full speed a second or more after an idle spell, such
        # as the one-process tests before this one
        warm_until = time.perf_counter() + 1.5
        parallel, _ = timed(2)
        while time.perf_counter() < warm_until:
            timed(2)
        # best of 3, serial and 2-worker runs alternating, so that neither
        # one slow run nor a change in host speed decides the gate
        runs = [timed(threads) for _ in range(3) for threads in (1, 2)]
        assert all(result == parallel for result, _ in runs)
        assert parallel.irreducible_total == irreducible_count(227, 4)
        serial_dt = min(dt for _, dt in runs[0::2])
        parallel_dt = min(dt for _, dt in runs[1::2])
        speedup = serial_dt / parallel_dt if parallel_dt else float("inf")
        extra["tail"] = (
            f"; p=7 single-thread {elapsed:.2f}s; p=227 n=2 census 1 worker "
            f"{serial_dt:.2f}s, 2 workers {parallel_dt:.2f}s "
            f"(speedup {speedup:.2f}x on {os.cpu_count()} cpu)"
        )
        if (os.cpu_count() or 1) >= 2:
            assert speedup > 1.2


def test_criterion_5_induction_identity(report):
    with report(5, "zero-norm induction zeta(D+1) = zeta(D) + (p^2-1) omega(D) "
                   "exact for the prime grid, D <= 64", bound=1.0):
        for p in GRID_PRIMES:
            assert zero_norm_count(p, 1) == 1
            for d in range(1, 65):
                lhs = zero_norm_count(p, d + 1)
                assert lhs == zero_norm_count(p, d) + (p * p - 1) * unit_norm_count(p, d)
                # equivalent completion form over the full space
                assert lhs == zero_norm_count(p, d) + (p + 1) * (
                    total_count(p, d) - zero_norm_count(p, d)
                )


def test_criterion_6_table_grid(report):
    with report(6, "closed-form count grid over {3,7,11,19,23,31} x n=1..4: "
                   "partition and divisibility hold in every cell", bound=1.0):
        for p in GRID_PRIMES:
            prime = validate_prime(p)
            for n in (1, 2, 3, 4):
                d = 1 << n
                rep = closed_form_counts(prime, d)
                assert rep.verified
                assert rep.zero_norm + (p - 1) * rep.unit_norm == rep.total
                assert rep.unit_norm % (p + 1) == 0
                assert rep.total > rep.unit_norm > rep.irreducible
        assert closed_form_counts(validate_prime(3), 2).unit_norm == 24
        big = closed_form_counts(validate_prime(3), 16)
        assert big.total == 3 ** 32
        assert big.unit_norm == 3 ** 15 * (3 ** 16 - 1)
        assert closed_form_counts(validate_prime(31), 16).total == 31 ** 32


def _exhaustive_property_block():
    f3 = validate_prime(3)
    # pair properties, exhaustive over F_9 x F_9
    elems = [(a, b) for a in range(3) for b in range(3)]
    for x in elems:
        assert conj(3, x) == frobenius(3, x)
        for y in elems:
            assert fnorm(3, oracle_cmul(3, x, y)) == fnorm(3, x) * fnorm(3, y) % 3
    # Hermitian symmetry, exhaustive over all 1-qubit vector pairs
    vecs1 = [StateVector(f3, 1, amps) for amps in brute_vectors(3, 2)]
    for a in vecs1:
        for b in vecs1:
            assert a.hdot(b) == conj(3, b.hdot(a))
    # unit 1-qubit states: sphere equation and Bloch phase invariance
    for amps in brute_vectors(3, 2, norm=1):
        psi = StateVector(f3, 1, amps)
        b = hopf_map_1q(psi)
        assert (b.x ** 2 + b.y ** 2 + b.z ** 2) % 3 == 1
        for member in phase_class(psi):
            assert hopf_map_1q(member) == b
    # unit 2-qubit states: invariance of fingerprint, purity, classification
    for amps in brute_vectors(3, 4, norm=1):
        psi = StateVector(f3, 2, amps)
        fp, val, cls = fingerprint(psi), purity(psi), classify(psi)
        for member in phase_class(psi):
            assert fingerprint(member) == fp
            assert purity(member) == val
            assert classify(member) == cls
    # maximality against oracle expectations over every canonical state
    zero_exp = maximal = 0
    for amps in brute_canonical(3, 4):
        grid = matrix_expectation_grid(3, 2, amps)
        lengths = [sum(v * v for v in t) % 3 for t in grid]
        kind = classify(StateVector(f3, 2, amps)).kind
        assert (kind is EntanglementClass.MAXIMAL) == (not any(lengths))
        if all(v == 0 for t in grid for v in t):
            zero_exp += 1
            assert kind is EntanglementClass.MAXIMAL
        if kind is EntanglementClass.MAXIMAL:
            maximal += 1
    assert zero_exp == 24   # componentwise vanishing: sufficient, strictly
    assert maximal == 216   # smaller than the zero-squared-length class


def _randomized_property_block(p, cases, seed):
    prime = validate_prime(p)
    rng = random.Random(seed)
    for k in range(cases):
        x = (rng.randrange(p), rng.randrange(p))
        y = (rng.randrange(p), rng.randrange(p))
        assert conj(p, x) == frobenius(p, x)
        assert fnorm(p, oracle_cmul(p, x, y)) == fnorm(p, x) * fnorm(p, y) % p
        u = random_phase(prime, rng)
        if k % 2:
            psi = StateVector(prime, 1, sample_unit_amps(prime, 2, rng))
            phi = StateVector(prime, 1, sample_unit_amps(prime, 2, rng))
            b = hopf_map_1q(psi)
            assert (b.x ** 2 + b.y ** 2 + b.z ** 2) % p == 1
            assert hopf_map_1q(psi.scale(u)) == b
        else:
            psi = StateVector(prime, 2, sample_unit_amps(prime, 4, rng))
            phi = StateVector(prime, 2, sample_unit_amps(prime, 4, rng))
            grid = matrix_expectation_grid(p, 2, psi.amps)
            lengths = [sum(v * v for v in t) % p for t in grid]
            kind = classify(psi).kind
            assert (kind is EntanglementClass.MAXIMAL) == (not any(lengths))
            product = StateVector(
                prime, 1, sample_unit_amps(prime, 2, rng)
            ).tensor(StateVector(prime, 1, sample_unit_amps(prime, 2, rng)))
            assert purity(product).reduced == 1
            assert classify(product).kind is EntanglementClass.UNENTANGLED
        assert psi.hdot(phi) == conj(p, phi.hdot(psi))
        scaled = psi.scale(u)
        assert fingerprint(scaled) == fingerprint(psi)
        assert purity(scaled) == purity(psi)
        assert classify(scaled) == classify(psi)


def test_criterion_7_property_suites(report):
    with report(7, "algebraic/geometric property suites, exhaustive at p=3 "
                   "and 10^4 randomized cases at p in {7,11}", bound=30.0):
        _exhaustive_property_block()
        _randomized_property_block(7, 5000, seed=7)
        _randomized_property_block(11, 5000, seed=11)


def test_criterion_8_ratio_formula(report, tally32, tally72, f11):
    with report(8, "maximal/unentangled ratio equals p((p+1)/(p-1))^(n-1) "
                   "exactly for the enumerated n=2 censuses at p = 3, 7, 11"):
        assert Fraction(
            tally32.class_counts["Maximal"], tally32.class_counts["Unentangled"]
        ) == maxent_to_unentangled_ratio(3, 2) == Fraction(6)
        tally7 = tally72[0]
        assert Fraction(
            tally7.class_counts["Maximal"], tally7.class_counts["Unentangled"]
        ) == maxent_to_unentangled_ratio(7, 2) == Fraction(28, 3)
        counts = census_tally(f11, 2).class_counts
        assert (counts["Maximal"], counts["Unentangled"]) == (159720, 12100)
        assert Fraction(
            counts["Maximal"], counts["Unentangled"]
        ) == maxent_to_unentangled_ratio(11, 2) == Fraction(66, 5)
