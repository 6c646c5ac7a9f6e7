import pytest

from dqc import NotComplexifiable, NotPrime, validate_prime
from dqc.basefield import is_prime


def test_accepts_complexifiable_primes():
    for p in (3, 7, 11, 19, 23, 31, 43, 2**31 - 1, 2**61 - 1):
        fld = validate_prime(p)
        assert fld.p == p


def test_rejects_composites():
    # psi_12 = 399165290221 * 798330580441 is the least strong
    # pseudoprime to the bases 2..37; base 41 exposes it
    for bad in (0, 1, 4, 9, 15, 21, 1023, 318665857834031151167461):
        with pytest.raises(NotPrime, match="not prime"):
            validate_prime(bad)
    # psi_13 passes every base, so no modulus from it up is accepted
    for big in (3317044064679887385961981, 2**89 - 1):
        with pytest.raises(NotPrime, match="psi_13 = 3317044064679887385961981"):
            validate_prime(big)
    with pytest.raises(NotPrime):
        validate_prime(-7)
    with pytest.raises(NotPrime):
        validate_prime("7")


def test_rejects_one_mod_four_primes():
    for bad in (2, 5, 13, 17, 29, 37, 41):
        with pytest.raises(NotComplexifiable):
            validate_prime(bad)


def test_is_prime_small():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    assert {n for n in range(2, 48) if is_prime(n)} == known


def test_sqrt_matches_brute_force():
    for p in (3, 7, 11, 19):
        fld = validate_prime(p)
        assert fld.sqrt(0) == (0,)
        for c in range(1, p):
            roots = tuple(sorted(r for r in range(p) if r * r % p == c))
            assert fld.sqrt(c) == roots


def test_sqrt_known_values(f7):
    assert f7.sqrt(2) == (3, 4)
    assert f7.sqrt(4) == (2, 5)
    assert f7.sqrt(3) == ()  # non-residue mod 7


def test_table_free_path_agrees_with_brute_force():
    p = 65539
    fld = validate_prime(p)
    squares = set()
    for r in range(1, (p + 1) // 2):
        squares.add(r * r % p)
    for c in (1, 2, 3, 12345, 65538, 40000):
        roots = fld.sqrt(c)
        if c in squares:
            assert len(roots) == 2 and all(r * r % p == c for r in roots)
        else:
            assert roots == ()


def test_centered_representatives(f7):
    assert [f7.centered(x) for x in range(7)] == [0, 1, 2, 3, -3, -2, -1]
