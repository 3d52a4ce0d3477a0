"""Local base rings and nilpotent-coefficient vectors."""

import random
from fractions import Fraction

import pytest

from defcalc.artin import (
    ArtinAlgebra,
    ArtinVector,
    artin_multiply,
    make_artin,
    monomial_degree,
    monomial_key,
    validate_artin_vector,
)
from defcalc.graded import GradedMap, GradedSpace, GradedVector


# Per-monomial reads for the oracles and loops of the tests, which scan x's
# terms once per monomial; the library groups a vector by monomial in one
# pass instead (dgla._lift_by_monomial).


def coefficient_vector(x, mono):
    """The graded vector multiplying a given monomial of x."""
    mono = tuple(mono)
    return GradedVector({name: c for (m, name), c in x.coeffs.items() if m == mono})


def monomials_present(x):
    """The monomials of x's terms, in monomial_key order."""
    return sorted({m for m, _ in x.coeffs}, key=monomial_key)


def test_make_artin_truncation():
    a = make_artin(("t",), 3)
    assert a.monomials == {(0,), (1,), (2,)}
    assert a.unit == (0,)
    assert a.nilpotency_order == 3
    assert a.multiply_monomials((1,), (1,)) == (2,)
    assert a.multiply_monomials((1,), (2,)) is None


def test_make_artin_two_variables():
    a = make_artin(("s", "t"), 3)
    # all exponent pairs of total degree < 3
    assert len(a.monomials) == 6
    assert (1, 1) in a.monomials
    assert (2, 1) not in a.monomials


def test_make_artin_rejects_bad_input():
    with pytest.raises(ValueError):
        make_artin(("t",), 0)
    # monomial set must be closed under divisors and contain the unit
    with pytest.raises(ValueError):
        ArtinAlgebra(("t",), {(0,), (2,)})
    with pytest.raises(ValueError):
        ArtinAlgebra(("t",), {(1,), (2,)})
    with pytest.raises(ValueError, match="wrong arity, expected 2"):
        ArtinAlgebra(("s", "t"), [(0, 0), (1,)])


def test_make_artin_monomial_ceiling(monkeypatch):
    from defcalc import artin

    # Q[s,t]/(s,t)^4 keeps 10 monomials, Q[s,t]/(s,t)^5 keeps 15
    monkeypatch.setattr(artin, "MAX_MONOMIALS", 10)
    assert len(make_artin(("s", "t"), 4).monomials) == 10
    with pytest.raises(ValueError, match="more than 10 monomials"):
        make_artin(("s", "t"), 5)
    # many variables, nothing but the unit: no recursion limit to hit
    assert make_artin([f"v{i}" for i in range(3000)], 1).monomials == {(0,) * 3000}


def test_explicit_monomial_set():
    # the "fat point" Q[s,t]/(s^2, t^2) given explicitly
    monos = {(0, 0), (1, 0), (0, 1), (1, 1)}
    a = ArtinAlgebra(("s", "t"), monos)
    assert a.multiply_monomials((1, 0), (0, 1)) == (1, 1)
    assert a.multiply_monomials((1, 0), (1, 0)) is None
    assert a.nilpotency_order == 3


def test_artin_multiply_random_ring_axioms():
    a = make_artin(("s", "t"), 4)
    rng = random.Random(9)
    monos = sorted(a.monomials)

    def random_element():
        out = {}
        for _ in range(rng.randint(1, 4)):
            m = monos[rng.randrange(len(monos))]
            out[m] = out.get(m, 0) + Fraction(rng.randint(-3, 3))
        return {m: c for m, c in out.items() if c}

    for _ in range(60):
        x, y, z = random_element(), random_element(), random_element()
        assert artin_multiply(a, x, y) == artin_multiply(a, y, x)
        lhs = artin_multiply(a, artin_multiply(a, x, y), z)
        rhs = artin_multiply(a, x, artin_multiply(a, y, z))
        assert lhs == rhs


def test_artin_vector_parts():
    x = ArtinVector(
        {
            ((1,), "a"): Fraction(2),
            ((2,), "a"): Fraction(-1),
            ((2,), "b"): Fraction(1, 3),
        }
    )
    assert x.min_order() == 1
    assert x.order_part(2).terms == {
        ((2,), "a"): Fraction(-1),
        ((2,), "b"): Fraction(1, 3),
    }
    assert coefficient_vector(x, (2,)).coeffs == {
        "a": Fraction(-1),
        "b": Fraction(1, 3),
    }
    assert monomials_present(x) == [(1,), (2,)]
    assert (x - x).is_zero()
    assert x.scale(3).terms[((1,), "a")] == Fraction(6)
    assert x.scale(0).is_zero()
    terms = {((1,), "a"): Fraction(2)}
    assert ArtinVector.from_nonzero(terms).terms is terms
    # sibling classes over one arithmetic: results keep their class
    assert type(x + x) is type(-x) is type(x.scale(0)) is ArtinVector
    assert ArtinVector() != GradedVector() and not isinstance(ArtinVector(), GradedVector)


def test_artin_vector_reads_only_exact_rationals():
    with pytest.raises(TypeError):
        ArtinVector({((1,), "a"): True})
    with pytest.raises(ValueError, match="exponent notation"):
        ArtinVector({((1,), "a"): "1e5"})


def test_artin_vector_apply_map():
    space = GradedSpace([("a", 0), ("b", 1)])
    d = GradedMap(space, space, 1, {"a": {"b": 2}})
    x = ArtinVector({((1,), "a"): Fraction(1, 2)})
    y = x.apply_map(d)
    assert y.terms == {((1,), "b"): Fraction(1)}


def test_validate_artin_vector():
    a = make_artin(("t",), 3)
    space = GradedSpace([("x", 1), ("y", 2)])
    good = ArtinVector({((1,), "x"): 1, ((2,), "x"): -2})
    validate_artin_vector(good, a, space, degree=1)

    with pytest.raises(ValueError):
        # unit monomial is not allowed
        validate_artin_vector(
            ArtinVector.single((0,), "x"), a, space, degree=1
        )
    with pytest.raises(ValueError):
        # monomial outside the algebra
        validate_artin_vector(
            ArtinVector.single((5,), "x"), a, space, degree=1
        )
    with pytest.raises(ValueError):
        # wrong degree
        validate_artin_vector(
            ArtinVector.single((1,), "y"), a, space, degree=1
        )
    with pytest.raises(ValueError):
        # unknown basis name
        validate_artin_vector(
            ArtinVector.single((1,), "zz"), a, space, degree=1
        )


def test_monomial_degree_and_truncation_consistency():
    rng = random.Random(31)
    for _ in range(10):
        nvars = rng.randint(1, 3)
        bound = rng.randint(1, 4)
        a = make_artin(tuple(f"x{i}" for i in range(nvars)), bound)
        for m in a.monomials:
            assert monomial_degree(m) < bound
        # products respect truncation: surviving products keep degree sums
        monos = sorted(a.monomials)
        for m1 in monos:
            for m2 in monos:
                p = a.multiply_monomials(m1, m2)
                s = monomial_degree(m1) + monomial_degree(m2)
                if p is not None:
                    assert monomial_degree(p) == s
                else:
                    assert s >= bound


def test_library_never_rounds_exponents_or_takes_bools():
    # (1.7,) is no monomial: it must not be read as t
    for monos in ([(0,), (1.7,)], [(0,), (1.0,)], [(False,), (True,)], [(0,), ("1",)]):
        with pytest.raises(TypeError):
            ArtinAlgebra(("t",), monos)
    with pytest.raises(ValueError):
        ArtinAlgebra(("t",), [(0,), (-1,)])
    for truncation in (True, False, 2.0):
        with pytest.raises(TypeError):
            make_artin(("t",), truncation)
    assert make_artin(("t",), 2) == ArtinAlgebra(("t",), [(0,), (1,)])


@pytest.mark.parametrize("exponent", [1.7, True, "1"])
def test_exponent_error_names_the_field(exponent):
    with pytest.raises(TypeError, match="monomial exponent must be an int"):
        ArtinAlgebra(("s", "t"), [(0, 0), (0, exponent)])
