import pytest

from dqc import (
    DimensionMismatch,
    DqcError,
    StateVector,
    cadd,
    cmul,
    conj,
    validate_prime,
)

from _oracles import brute_vectors, celems


def vec(fld, *amps):
    return StateVector(fld, (len(amps) - 1).bit_length(), tuple(amps))


def test_construction_validates_length(f3):
    with pytest.raises(DimensionMismatch):
        StateVector(f3, 1, ((1, 0),))
    with pytest.raises(DimensionMismatch):
        StateVector(f3, 2, ((1, 0), (0, 0)))


def test_construction_validates_residues(f3):
    with pytest.raises(DqcError):
        StateVector(f3, 1, ((3, 0), (0, 0)))
    with pytest.raises(DqcError):
        StateVector(f3, 1, ((0, -1), (0, 0)))


def test_qubit_count_bounds(f3):
    with pytest.raises(DqcError):
        StateVector(f3, 0, ())
    with pytest.raises(DqcError):
        StateVector(f3, 17, tuple(((0, 0),) * (1 << 17)))


def test_basis_states(f3):
    e0 = StateVector.basis(f3, 2, 0)
    assert e0.amps == ((1, 0), (0, 0), (0, 0), (0, 0))
    e3 = StateVector.basis(f3, 2, 3)
    assert e3.amps == ((0, 0), (0, 0), (0, 0), (1, 0))
    assert e0.dim == 4


def test_text_round_trip(f7):
    s = vec(f7, (1, 2), (3, 0), (0, 6), (5, 5))
    text = s.to_text()
    assert text == "1+2i;3+0i;0+6i;5+5i"
    back = StateVector.from_text(f7, 2, text)
    assert back == s


def test_from_text_rejects_bad_tokens(f7):
    with pytest.raises(ValueError):
        StateVector.from_text(f7, 1, "1+2i;3-0i")
    with pytest.raises(ValueError):
        StateVector.from_text(f7, 1, "7+0i;0+0i")
    with pytest.raises(DimensionMismatch):
        StateVector.from_text(f7, 1, "1+0i;0+0i;0+0i")


def test_hdot_frozen_example(f3):
    # <a|b> with a = (1+i)|0> + |1>, b = |0> + 2i|1>
    a = vec(f3, (1, 1), (1, 0))
    b = vec(f3, (1, 0), (0, 2))
    # conj(1+i)*1 + conj(1)*2i = (1-i) + 2i = 1+i
    assert a.hdot(b) == (1, 1)
    assert b.hdot(a) == conj(3, a.hdot(b))


def test_hdot_conjugate_symmetry_exhaustive(f3):
    vecs = [vec(f3, x, y) for x, y in brute_vectors(3, 2)]
    for a in vecs[:20]:
        for b in vecs:
            assert a.hdot(b) == conj(3, b.hdot(a))


def test_hdot_sesquilinear(f7):
    a = vec(f7, (1, 2), (3, 4))
    b = vec(f7, (0, 5), (6, 1))
    c = vec(f7, (2, 2), (1, 6))
    lam = (3, 5)
    scaled = b.scale(lam)
    assert a.hdot(scaled) == cmul(7, lam, a.hdot(b))
    assert scaled.hdot(a) == cmul(7, conj(7, lam), b.hdot(a))
    summed = vec(f7, *(cadd(7, x, y) for x, y in zip(b.amps, c.amps)))
    assert a.hdot(summed) == cadd(7, a.hdot(b), a.hdot(c))


def test_vnorm_and_is_unit(f3):
    s = vec(f3, (1, 1), (1, 0))
    assert s.vnorm() == 0
    assert not s.is_unit()
    t = vec(f3, (1, 0), (0, 0))
    assert t.vnorm() == 1
    assert t.is_unit()
    u = vec(f3, (1, 1), (1, 1))
    assert u.vnorm() == 1  # 2 + 2 = 4 = 1 mod 3
    assert u.is_unit()


def test_vnorm_matches_hdot_self(f7):
    for x in celems(7):
        for y in celems(7):
            s = vec(f7, x, y)
            assert s.hdot(s) == (s.vnorm(), 0)


def test_tensor_frozen_example(f3):
    a = vec(f3, (1, 0), (0, 1))  # |0> + i|1>
    b = vec(f3, (1, 0), (1, 0))  # |0> + |1>
    t = a.tensor(b)
    assert t.n == 2
    assert t.amps == ((1, 0), (1, 0), (0, 1), (0, 1))


def test_tensor_norm_multiplicative(f7):
    a = vec(f7, (1, 2), (3, 4))
    b = vec(f7, (0, 5), (6, 1))
    assert a.tensor(b).vnorm() == a.vnorm() * b.vnorm() % 7


def test_tensor_refuses_mixed_moduli_and_the_qubit_cap(f3, f7):
    a = vec(f3, (1, 0), (0, 0))
    with pytest.raises(DimensionMismatch):
        a.tensor(vec(f7, (1, 0), (0, 0)))
    big = StateVector.basis(f3, 9, 0)
    assert big.tensor(StateVector.basis(f3, 7, 0)).n == 16
    with pytest.raises(DqcError, match="exceeds the qubit cap"):
        big.tensor(StateVector.basis(f3, 8, 0))


def test_dimension_mismatch(f3, f7):
    a = vec(f3, (1, 0), (0, 0))
    b = vec(f3, (1, 0), (0, 0), (0, 0), (0, 0))
    with pytest.raises(DimensionMismatch):
        a.hdot(b)
    c = vec(f7, (1, 0), (0, 0))
    with pytest.raises(DimensionMismatch):
        a.hdot(c)
