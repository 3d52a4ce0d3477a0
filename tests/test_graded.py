"""Signed multilinear layer: Koszul signs, wedge words, cohomology."""

import random
from fractions import Fraction

import pytest

from defcalc.graded import (
    CohomologySummary,
    GradedMap,
    GradedSpace,
    GradedVector,
    NotAComplexError,
    complex_cohomology,
    koszul_sign,
    signed_sort,
    wedge_word,
)


def compose_perm(p, q):
    # (p after q) in one-based position notation
    return tuple(p[q[i] - 1] for i in range(len(q)))


def test_koszul_sign_frozen():
    assert koszul_sign((1, 2, 3), (1, 1, 1)) == 1
    # swapping two odd factors
    assert koszul_sign((2, 1), (1, 1)) == -1
    assert koszul_sign((2, 1), (1, 2)) == 1
    assert koszul_sign((2, 1), (2, 2)) == 1
    # rotating three odd factors costs two transpositions
    assert koszul_sign((2, 3, 1), (1, 1, 1)) == 1
    assert koszul_sign((3, 2, 1), (1, 1, 1)) == -1
    # a degree 0 factor moves for free, odd crossings still count
    assert koszul_sign((2, 1, 3), (0, 1, 1)) == 1
    assert koszul_sign((3, 1, 2), (0, 1, 1)) == -1


def test_koszul_sign_rejects_non_permutations():
    with pytest.raises(ValueError):
        koszul_sign((1, 1), (1, 1))
    with pytest.raises(ValueError):
        koszul_sign((1, 3), (1, 1))
    with pytest.raises(ValueError):
        koszul_sign((1, 2), (1, 1, 1))


def test_koszul_sign_multiplicative():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 6)
        degrees = tuple(rng.randint(0, 3) for _ in range(n))
        p = list(range(1, n + 1))
        q = list(range(1, n + 1))
        rng.shuffle(p)
        rng.shuffle(q)
        p, q = tuple(p), tuple(q)
        # degrees seen by p are the original ones permuted by q
        permuted = tuple(degrees[q[i] - 1] for i in range(n))
        lhs = koszul_sign(compose_perm(q, p), degrees)
        rhs = koszul_sign(p, permuted) * koszul_sign(q, degrees)
        assert lhs == rhs


def test_graded_vector_arithmetic():
    x = GradedVector({"a": 1, "b": Fraction(1, 2)})
    y = GradedVector({"b": Fraction(-1, 2), "c": 3})
    s = x + y
    assert s.coeffs == {"a": Fraction(1), "c": Fraction(3)}
    assert (x - x).is_zero()
    assert x.scale(0).is_zero()
    assert x.scale(Fraction(2)).coeffs == {"a": Fraction(2), "b": Fraction(1)}
    assert GradedVector.basis("a")["a"] == 1
    assert GradedVector.basis("a")["z"] == 0


def test_graded_vector_reads_only_exact_rationals():
    assert GradedVector({"a": "-3/4", "b": "0.25", "c": 2}).coeffs == {
        "a": Fraction(-3, 4), "b": Fraction(1, 4), "c": Fraction(2)
    }
    for value in (True, 0.5):
        with pytest.raises(TypeError):
            GradedVector({"a": value})
    with pytest.raises(ValueError, match="exponent notation"):
        GradedVector({"a": "1e5"})
    with pytest.raises(ValueError, match="zero denominator"):
        GradedVector({"a": "1/0"})


def test_graded_map_degree_discipline():
    space = GradedSpace([("u", 0), ("v", 1), ("w", 2)])
    d = GradedMap(space, space, 1, {"u": {"v": 1}})
    assert d.apply(GradedVector({"u": 3})).coeffs == {"v": Fraction(3)}
    with pytest.raises(ValueError):
        GradedMap(space, space, 1, {"u": {"w": 1}})
    two = d.compose(d)
    assert two.degree == 2
    assert two.is_zero()


def test_graded_map_linearity_random():
    space = GradedSpace([("u", 0), ("v", 1), ("w", 1)])
    f = GradedMap(space, space, 1, {"u": {"v": 2, "w": -1}})
    rng = random.Random(5)
    for _ in range(50):
        x = GradedVector({"u": Fraction(rng.randint(-4, 4), rng.randint(1, 3))})
        y = GradedVector({"u": Fraction(rng.randint(-4, 4), rng.randint(1, 3))})
        assert f.apply(x + y) == f.apply(x) + f.apply(y)


def test_wedge_word_frozen():
    order = {"a": 0, "b": 1, "c": 2}
    assert wedge_word(("a", "b"), order) == (("a", "b"), 1)
    assert wedge_word(("b", "a"), order) == (("a", "b"), -1)
    assert wedge_word(("c", "a", "b"), order) == (("a", "b", "c"), 1)
    assert wedge_word(("a", "a"), order) == (None, 0)


def test_signed_sort_counts_odd_inversions():
    rng = random.Random(29)
    for _ in range(300):
        items = [(rng.randint(0, 4), rng.randint(0, 3)) for _ in range(rng.randint(0, 7))]
        odd = lambda item: item[1] % 2
        seq, sign = signed_sort(items, lambda item: item[0], odd)
        assert list(seq) == sorted(items, key=lambda item: item[0])
        inversions = sum(
            1
            for i, a in enumerate(items)
            for b in items[i + 1:]
            if a[0] > b[0] and odd(a) and odd(b)
        )
        assert sign == (-1) ** inversions


def make_complex(basis, columns):
    space = GradedSpace(basis)
    return space, GradedMap(space, space, 1, columns)


def test_cohomology_contractible():
    space, d = make_complex([("u", 0), ("v", 1)], {"u": {"v": 1}})
    summary = complex_cohomology(space, d)
    assert summary.dimensions() == {0: 0, 1: 0}


def test_cohomology_frozen_three_term():
    # 0 -> <u0, u1> -> <v0, v1> -> <w> -> 0 with d u0 = v0, d v1 = w
    space, d = make_complex(
        [("u0", 0), ("u1", 0), ("v0", 1), ("v1", 1), ("w", 2)],
        {"u0": {"v0": 1}, "v1": {"w": 1}},
    )
    summary = complex_cohomology(space, d)
    assert summary.dimensions() == {0: 1, 1: 0, 2: 0}
    (rep,) = summary.representatives(0)
    assert rep.coeffs == {"u1": Fraction(1)}


def test_cohomology_projection():
    space, d = make_complex(
        [("u", 0), ("v", 1), ("z", 1)], {"u": {"v": 1}}
    )
    summary = complex_cohomology(space, d)
    assert summary.dimension(1) == 1
    (rep,) = summary.representatives(1)
    assert rep.coeffs == {"z": Fraction(1)}
    # coboundaries project to zero, representatives to unit coordinates
    assert summary.project(1, GradedVector({"v": 7})) == [Fraction(0)]
    assert summary.project(1, GradedVector({"z": 2, "v": 5})) == [Fraction(2)]


def test_cohomology_rejects_non_complex():
    space = GradedSpace([("u", 0), ("v", 1), ("w", 2)])
    d = GradedMap(space, space, 1, {"u": {"v": 1}, "v": {"w": 1}})
    with pytest.raises(NotAComplexError):
        complex_cohomology(space, d)


def test_projection_rejects_degree_mix():
    space, d = make_complex([("u", 0), ("v", 1)], {"u": {"v": 1}})
    summary = complex_cohomology(space, d)
    with pytest.raises(ValueError):
        summary.project(1, GradedVector({"u": 1}))


def test_random_two_step_complexes_have_consistent_euler_characteristic():
    rng = random.Random(77)
    for _ in range(20):
        n0, n1 = rng.randint(1, 3), rng.randint(1, 3)
        basis = [(f"u{i}", 0) for i in range(n0)] + [
            (f"v{i}", 1) for i in range(n1)
        ]
        columns = {}
        for i in range(n0):
            col = {
                f"v{j}": Fraction(rng.randint(-2, 2)) for j in range(n1)
            }
            col = {k: c for k, c in col.items() if c}
            if col:
                columns[f"u{i}"] = col
        space = GradedSpace(basis)
        d = GradedMap(space, space, 1, columns)
        summary = complex_cohomology(space, d)
        # rank-nullity: h0 - h1 = n0 - n1 for a two-term complex
        assert summary.dimension(0) - summary.dimension(1) == n0 - n1
        for degree in summary.degrees():
            for rep in summary.representatives(degree):
                assert d.apply(rep).is_zero()
