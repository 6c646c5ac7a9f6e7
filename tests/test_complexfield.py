import pytest

from dqc import (
    DivisionByZero,
    cadd,
    cinv,
    cmul,
    cneg,
    conj,
    cpow,
    fnorm,
    frobenius,
    norm_fiber,
    phase_group,
    validate_prime,
)

from _oracles import brute_fiber, celems, cnorm


def test_imaginary_unit_squares_to_minus_one():
    for p in (3, 7, 11):
        assert cmul(p, (0, 1), (0, 1)) == (p - 1, 0)


def test_ring_operations():
    p = 7
    x, y = (3, 5), (2, 6)
    assert cadd(p, x, y) == (5, 4)
    assert cneg(p, x) == (4, 2)
    # (3+5i)(2+6i) = 6 + 18i + 10i + 30i^2 = -24 + 28i = 4 + 0i mod 7
    assert cmul(p, x, y) == (4, 0)


def test_conjugation_is_frobenius_exhaustive():
    for p in (3, 7, 11):
        for x in celems(p):
            assert conj(p, x) == frobenius(p, x)


def test_conjugation_cube_example(f3):
    # (2+i)**3 == 2-i in F_9
    assert cpow(3, (2, 1), 3) == (2, 2)
    assert conj(3, (2, 1)) == (2, 2)


def test_norm_multiplicative_exhaustive():
    for p in (3, 7):
        for x in celems(p):
            for y in celems(p):
                assert fnorm(p, cmul(p, x, y)) == fnorm(p, x) * fnorm(p, y) % p


def test_norm_vanishes_only_at_zero():
    for p in (3, 7, 11, 19):
        zeros = [x for x in celems(p) if fnorm(p, x) == 0]
        assert zeros == [(0, 0)]


def test_inverse_exists_for_every_nonzero():
    for p in (3, 7, 11):
        for x in celems(p):
            if x == (0, 0):
                continue
            assert cmul(p, x, cinv(p, x)) == (1, 0)


def test_inverse_frozen_example(f3):
    assert cinv(3, (1, 1)) == (2, 1)


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        cinv(7, (0, 0))


def test_fiber_sizes(f3, f7, f11, f19):
    for fld in (f3, f7, f11, f19):
        p = fld.p
        assert norm_fiber(fld, 0) == [(0, 0)]
        total = 1
        for c in range(1, p):
            fiber = norm_fiber(fld, c)
            assert len(fiber) == p + 1
            assert fiber == brute_fiber(p, c)
            total += len(fiber)
        assert total == p * p


def test_fiber_frozen_example(f3):
    assert norm_fiber(f3, 2) == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_phase_group_p3(f3):
    pg = phase_group(f3)
    assert pg == ((0, 1), (0, 2), (1, 0), (2, 0))
    assert len(pg) == 4


def test_phase_group_structure(f3, f7, f11, f19):
    for fld in (f3, f7, f11, f19):
        p = fld.p
        pg = phase_group(fld)
        members = set(pg)
        assert len(members) == p + 1
        assert all(cnorm(p, u) == 1 for u in members)
        # closed under multiplication and conjugation
        for u in members:
            assert conj(p, u) in members
            for v in members:
                assert cmul(p, u, v) in members

        # cyclic: some element's powers run through the whole group
        def powers(g):
            out = set()
            acc = (1, 0)
            for _ in range(p + 1):
                out.add(acc)
                acc = cmul(p, acc, g)
            return out

        assert any(powers(g) == members for g in pg)
