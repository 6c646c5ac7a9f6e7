import itertools

import pytest

from dqc import (
    BudgetExceeded,
    DimensionMismatch,
    NotUnitNorm,
    StateVector,
    bloch_export,
    canonical_rep,
    fingerprint,
    hopf_map_1q,
    is_canonical,
    phase_class,
    validate_prime,
)

from _oracles import brute_canonical, brute_phases, brute_vectors, cnorm, orbit_min


def vec(fld, *amps):
    return StateVector(fld, (len(amps) - 1).bit_length(), tuple(amps))


def unit_vectors(p, n):
    fld = validate_prime(p)
    for amps in brute_vectors(p, 1 << n):
        if sum(cnorm(p, x) for x in amps) % p == 1:
            yield StateVector(fld, n, amps)


def test_hopf_frozen_examples(f3):
    b = hopf_map_1q(vec(f3, (1, 0), (0, 0)))
    assert (b.x, b.y, b.z) == (0, 0, 1)
    b = hopf_map_1q(vec(f3, (0, 0), (1, 0)))
    assert (b.x, b.y, b.z) == (0, 0, 2)  # -1 mod 3
    # (1+i)|0> + (1+i)|1> has norm 2+2 = 1 mod 3 and maps to (1, 0, 0)
    b = hopf_map_1q(vec(f3, (1, 1), (1, 1)))
    assert (b.x, b.y, b.z) == (1, 0, 0)


def test_hopf_requires_unit_single_qubit(f3):
    with pytest.raises(NotUnitNorm):
        hopf_map_1q(vec(f3, (1, 1), (1, 0)))  # norm 0
    with pytest.raises(DimensionMismatch):
        hopf_map_1q(vec(f3, (1, 0), (0, 0), (0, 0), (0, 0)))  # 2 qubits


def test_hopf_lands_on_unit_sphere_exhaustive():
    for p in (3, 7, 11, 19):
        for psi in unit_vectors(p, 1):
            b = hopf_map_1q(psi)
            assert (b.x * b.x + b.y * b.y + b.z * b.z) % p == 1
            assert not b.degenerate


def test_hopf_constant_on_phase_classes(f7):
    for psi in itertools.islice(unit_vectors(7, 1), 40):
        target = hopf_map_1q(psi)
        for member in phase_class(psi):
            assert hopf_map_1q(member) == target


def test_hopf_image_size_is_p_times_p_minus_1():
    for p in (3, 7, 11):
        points = {
            (b.x, b.y, b.z)
            for b in (hopf_map_1q(psi) for psi in unit_vectors(p, 1))
        }
        assert len(points) == p * (p - 1)


def test_phase_class_size_and_membership(f7):
    psi = vec(f7, (1, 0), (0, 0))
    members = phase_class(psi)
    assert len(members) == 8
    assert len({m.amps for m in members}) == 8
    assert all(m.is_unit() for m in members)


def test_phase_class_requires_unit_norm(f3):
    with pytest.raises(NotUnitNorm):
        phase_class(vec(f3, (1, 1), (1, 0)))  # norm 0


def test_canonical_rep_frozen_example(f3):
    # class of 2|0>: scaling by the phase i gives (0,1),(0,0), the lex min
    psi = vec(f3, (2, 0), (0, 0))
    assert canonical_rep(psi).amps == ((0, 1), (0, 0))


def test_canonical_rep_idempotent_and_constant(f3):
    for psi in unit_vectors(3, 2):
        rep = canonical_rep(psi)
        assert canonical_rep(rep) == rep
        for member in phase_class(psi):
            assert canonical_rep(member) == rep


def test_canonical_rep_matches_brute_orbit_min():
    for p, n in ((3, 1), (3, 2), (7, 1)):
        phases = brute_phases(p)
        for psi in unit_vectors(p, n):
            assert canonical_rep(psi).amps == orbit_min(p, psi.amps, phases)


def test_is_canonical_counts():
    # exactly one canonical member per class: unit count / (p+1)
    for p, n in ((3, 1), (3, 2), (7, 1)):
        states = list(unit_vectors(p, n))
        canon = [psi for psi in states if is_canonical(psi)]
        assert len(canon) * (p + 1) == len(states)
        assert {psi.amps for psi in canon} == set(brute_canonical(p, 1 << n))


def test_fingerprint_phase_invariant_and_injective(f3):
    seen = {}
    for psi in unit_vectors(3, 2):
        fp = fingerprint(psi)
        for member in phase_class(psi):
            assert fingerprint(member) == fp
        seen.setdefault(fp, set()).add(canonical_rep(psi).amps)
    # 2160 unit states collapse to 540 classes, one fingerprint each
    assert len(seen) == 540
    assert all(len(reps) == 1 for reps in seen.values())


def test_fingerprint_shape(f3):
    fp = fingerprint(vec(f3, (1, 0), (0, 1)))
    # diagonal norms interleaved with the strict upper triangle
    assert fp == (1, (0, 2), 1)


def test_bloch_export_sizes_and_order():
    for p in (3, 7, 11):
        points = list(bloch_export(validate_prime(p)))
        assert len(points) == p * (p - 1)
        # the export walks canonical states by the fiber-min filter; the
        # literal lex-min-of-class test must select the same states
        literal = [hopf_map_1q(psi) for psi in unit_vectors(p, 1) if is_canonical(psi)]
        assert sorted(literal, key=lambda b: (b.x, b.y, b.z)) == points
        coords = [(b.x, b.y, b.z) for b in points]
        assert coords == sorted(coords)
        assert len(set(coords)) == len(coords)
        for b in points:
            assert (b.x ** 2 + b.y ** 2 + b.z ** 2) % p == 1
            assert not b.degenerate
            length = (b.ex ** 2 + b.ey ** 2 + b.ez ** 2) ** 0.5
            assert abs(length - 1.0) < 1e-9


def test_bloch_export_is_budgeted():
    # p**2 prefixes exceed the default budget of 10**8 above p = 10**4
    with pytest.raises(BudgetExceeded) as exc:
        bloch_export(validate_prime(10007))
    assert exc.value.required == 10007**2
    with pytest.raises(BudgetExceeded):
        bloch_export(validate_prime(7), budget=48)
    assert len(list(bloch_export(validate_prime(7), budget=49))) == 42
