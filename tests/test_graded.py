"""Signed multilinear layer: Koszul signs, wedge words, cohomology."""

import os
import random
import re
import sys
from fractions import Fraction

import pytest

from defcalc import graded, linalg
from defcalc.cli import parse_document
from defcalc.dgla import trivial_cdga
from defcalc.graded import (
    CohomologySummary,
    GradedMap,
    GradedSpace,
    GradedVector,
    NotAComplexError,
    as_fraction,
    as_int,
    complex_cohomology,
    koszul_sign,
    normalize_word,
    wedge_word,
)
from defcalc.hitchin import build_hitchin_dgla
from test_linalg import augmented_solve, incremental_extend_independent


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


def test_koszul_sign_reads_each_degree_as_an_int():
    # a float or a bool is not read by its parity, and a str is not
    # formatted by %: each raises the TypeError of graded.as_int
    for bad in (0.5, 1.0, True, False, "1", "a"):
        for degrees in ((bad, bad), (1, bad), (bad, 2)):
            with pytest.raises(TypeError) as err:
                koszul_sign((2, 1), degrees)
            assert str(err.value) == f"degree must be an int, got {type(bad).__name__}"
    assert koszul_sign((2, 1), (-1, 3)) == -1


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


def oracle_as_fraction(value):
    """as_fraction without its integer-string fast path: every string goes
    to Fraction, after the exponent check and after the rule, written here
    as a regex, that rejects the strings whose reading depends on the
    Python version (underscores, 3.11's "1.d" and whitespace next to "/")."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ValueError("exponent notation")
        if re.search(r"[_dD]|\s/|/\s", value):
            raise ValueError(f"Invalid literal for Fraction: {value!r}")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError("zero denominator") from None
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def outcome(fn, value):
    """(type of the result, the result) or (type of the exception, its message)."""
    try:
        result = fn(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return type(result), result


@pytest.fixture
def int_digit_limit():
    """Python's 4300-digit limit on int(str), set where the interpreter has it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def test_as_fraction_matches_the_oracle(int_digit_limit):
    long = "7" * 5000
    sweep = [
        "0", "-0", "007", "3/4", "-3/4", "3/0", "-3/0", "-12/8", "-0/0",
        "", "-", "/3", "3/", "3/-4", "+3", " 3/4 ", "--3", "3/4/5",
        "١٢", "0.25", ".5", "1.", "1e3", "1_0", "1_000", "3/ 4", "3 /4", "1.d",
        long, "-" + long, long + "/3", "3/" + long, f"{long}/{long}",
        0, -5, Fraction(-2, 6), True, 0.5, None,
    ]
    for value in sweep:
        assert outcome(as_fraction, value) == outcome(oracle_as_fraction, value), value


@pytest.mark.parametrize("text", ["1_000", "1/2_0", "3/ 4", "3 /4", "3\t/4", "1.d"])
def test_version_dependent_rational_strings_are_rejected(text):
    with pytest.raises(ValueError) as info:
        as_fraction(text)
    assert str(info.value) == f"Invalid literal for Fraction: {text!r}"


def test_graded_map_degree_discipline():
    space = GradedSpace([("u", 0), ("v", 1), ("w", 2)])
    d = GradedMap(space, space, 1, {"u": {"v": 1}})
    assert d.apply(GradedVector({"u": 3})).coeffs == {"v": Fraction(3)}
    with pytest.raises(ValueError):
        GradedMap(space, space, 1, {"u": {"w": 1}})


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


def test_normalize_word_counts_odd_inversions():
    rng = random.Random(29)
    for _ in range(300):
        sdeg = {name: rng.randint(-1, 3) for name in "abcde"}
        names = [rng.choice("abcde") for _ in range(rng.randint(0, 7))]
        word, sign = normalize_word(names, sdeg)
        key = lambda name: (sdeg[name], name)
        if any(sdeg[name] % 2 and names.count(name) > 1 for name in names):
            assert (word, sign) == (None, 0)
            continue
        assert list(word) == sorted(names, key=key)
        inversions = sum(
            1
            for i, a in enumerate(names)
            for b in names[i + 1:]
            if key(a) > key(b) and sdeg[a] % 2 and sdeg[b] % 2
        )
        assert sign == (-1) ** inversions


# ---------------------------------------------------------------------------
# The insertion sort that gave every sign before the word merge, as oracle.


def signed_sort_keyed(seq):
    """Sort a list of (key, odd, item) triples in place by key with adjacent
    swaps: (tuple of the sorted items, sign).  Each swap of two odd items
    flips the sign; equal keys are never swapped."""
    sign = 1
    for i in range(1, len(seq)):
        cur = seq[i]
        j = i
        while j and seq[j - 1][0] > cur[0]:
            if cur[1] and seq[j - 1][1]:
                sign = -sign
            seq[j] = seq[j - 1]
            j -= 1
        seq[j] = cur
    return tuple([x for _, _, x in seq]), sign


def sorted_word(names, sdeg):
    """normalize_word by the insertion sort, then the odd-repeat scan."""
    seq, sign = signed_sort_keyed([((sdeg[n], n), sdeg[n] % 2, n) for n in names])
    if any(a == b and sdeg[a] % 2 for a, b in zip(seq, seq[1:])):
        return None, 0
    return seq, sign


def test_normalize_word_matches_the_insertion_sort():
    rng = random.Random(33)
    seen = set()
    for _ in range(2000):
        letters = [f"v{i}" for i in range(rng.randint(1, 6))]
        sdeg = {name: rng.randint(-2, 3) for name in letters}
        names = [rng.choice(letters) for _ in range(rng.randint(0, 8))]
        want = sorted_word(names, sdeg)
        assert normalize_word(names, sdeg) == want, (names, sdeg)
        seen.add("empty" if not names else want[1])
    assert seen == {"empty", 0, 1, -1}


def test_wedge_word_matches_the_insertion_sort():
    rng = random.Random(34)
    seen = set()
    for _ in range(2000):
        letters = [f"l{i}" for i in range(rng.randint(1, 6))]
        order = dict(zip(letters, rng.sample(range(10), len(letters))))
        names = [rng.choice(letters) for _ in range(rng.randint(0, 6))]
        if len(set(names)) != len(names):
            want = (None, 0)
        else:
            want = signed_sort_keyed([(order[n], True, n) for n in names])
        assert wedge_word(names, order) == want, (names, order)
        seen.add("empty" if not names else want[1])
    assert seen == {"empty", 0, 1, -1}


def test_koszul_sign_matches_the_insertion_sort():
    rng = random.Random(35)
    seen = set()
    for _ in range(2000):
        n = rng.randint(0, 7)
        perm = rng.sample(range(1, n + 1), n)
        degrees = [rng.randint(-3, 4) for _ in range(n)]
        want = signed_sort_keyed([(p, degrees[p - 1] % 2, p) for p in perm])[1]
        assert koszul_sign(perm, degrees) == want, (perm, degrees)
        seen.add(want)
    assert seen == {1, -1}


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


@pytest.mark.parametrize("lift_first", [True, False])
def test_lift_skips_zero_and_dependent_columns_below(lift_first):
    # a0 has no column and c0's column is twice b0's: the preimage uses b0
    # alone, and both are read whichever of lift and representatives is first
    space, d = make_complex(
        [("a0", 0), ("b0", 0), ("c0", 0), ("v1", 1), ("w1", 1)],
        {"b0": {"v1": 1}, "c0": {"v1": 2}},
    )
    summary = complex_cohomology(space, d)

    def check_lift():
        assert summary.lift(1, GradedVector({"w1": 3, "v1": 4})) == (
            [Fraction(3)], GradedVector({"b0": 4})
        )

    if lift_first:
        check_lift()
    assert summary.representatives(0) == [
        GradedVector({"a0": 1}), GradedVector({"b0": -2, "c0": 1})
    ]
    assert summary.representatives(1) == [GradedVector({"w1": 1})]
    check_lift()


def test_cohomology_rejects_non_complex():
    # d d is checked on every basis vector when the summary is made, not
    # when a degree is first read
    space = GradedSpace([("a", 0), ("b", 1), ("u", 2), ("v", 3), ("w", 4)])
    d = GradedMap(space, space, 1, {"a": {"b": 1}, "u": {"v": 1}, "v": {"w": 1}})
    with pytest.raises(NotAComplexError) as caught:
        complex_cohomology(space, d)
    assert caught.value.witness == "u"
    assert caught.value.value == GradedVector({"w": 1})


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


# ---------------------------------------------------------------------------
# Oracles for the one-reduction cohomology: the former two-pass
# complex_cohomology (nullspace for the kernel, one extend_independent for
# the image, another for the representatives), built on the former
# incremental extend_independent, and the former per-degree preimage solver.


def d_rows(d, source_names, target_names):
    return [[d.column(src)[tgt] for src in source_names] for tgt in target_names]


def two_pass_cohomology(space, d):
    """degree -> (representatives, projector matrix columns, dimension)."""
    out = {}
    for deg in space.degrees_present():
        here = space.names_of_degree(deg)
        n = len(here)
        kernel_cols = linalg.nullspace(d_rows(d, here, space.names_of_degree(deg + 1)), n)
        image_cols = [
            d.column(src).to_dense(here)
            for src in space.names_of_degree(deg - 1)
            if not d.column(src).is_zero()
        ]
        image_basis = [image_cols[i] for i in incremental_extend_independent([], image_cols, n)]
        rep_cols = [
            kernel_cols[i]
            for i in incremental_extend_independent(image_basis, kernel_cols, n)
        ]
        reps = [GradedVector.from_dense(here, col) for col in rep_cols]
        out[deg] = (reps, rep_cols + image_basis, len(rep_cols))
    return out


def per_degree_preimage(space, d, degree, vector):
    """The former dgla._DifferentialSolver(dgla, degree).preimage."""
    source, target = space.names_of_degree(degree), space.names_of_degree(degree + 1)
    sol = linalg.PreparedSolve(d_rows(d, source, target), len(source)).solve(
        vector.to_dense(target)
    )
    return None if sol is None else GradedVector.from_dense(source, sol)


def random_rational(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.6 else Fraction(0)


def random_complex(rng, max_dim=3):
    """A seeded cochain complex over a few consecutive degrees, its basis
    shuffled across degrees.  Each d_k is a random combination of the rows
    that kill the image of d_(k-1), so d d = 0; dimensions may be 0 (an
    empty degree), d may be zero, and columns of d are often dependent."""
    low = rng.randint(-2, 1)
    dims = [rng.randint(0, max_dim) for _ in range(rng.randint(1, 5))]
    names = {low + k: [f"b{low + k}_{i}" for i in range(n)] for k, n in enumerate(dims)}
    zero = rng.random() < 0.1
    columns = {}
    prev = []  # d_(k-1) as rows over the names of degree k
    for k in sorted(names):
        here, above = names[k], names.get(k + 1, [])
        # the vectors q with q . d_(k-1) = 0 span the allowed rows of d_k
        allowed = linalg.nullspace(
            [[row[j] for row in prev] for j in range(len(prev[0]))] if prev and prev[0] else [],
            len(here),
        )
        rows = []
        for _ in above:
            row = [Fraction(0)] * len(here)
            for q in allowed:
                c = Fraction(0) if zero else random_rational(rng)
                row = [a + c * b for a, b in zip(row, q)]
            rows.append(row)
        for j, src in enumerate(here):
            col = {tgt: rows[i][j] for i, tgt in enumerate(above) if rows[i][j]}
            if col:
                columns[src] = col
        prev = rows
    basis = [(name, k) for k in names for name in names[k]]
    rng.shuffle(basis)
    space = GradedSpace(basis)
    return space, GradedMap(space, space, 1, columns)


def combination(vectors, coords):
    out = GradedVector()
    for v, c in zip(vectors, coords):
        out = out + v.scale(c)
    return out


def random_combination(rng, vectors):
    return combination(vectors, [random_rational(rng) for _ in vectors])


def test_one_reduction_cohomology_matches_two_pass_oracle():
    rng = random.Random(1212)
    seen = {"zero class": 0, "nonzero class": 0, "dependent image": 0, "empty": 0}
    for _ in range(250):
        space, d = random_complex(rng)
        if not len(space):
            seen["empty"] += 1
        summary = complex_cohomology(space, d)
        oracle = two_pass_cohomology(space, d)
        assert summary.degrees() == sorted(oracle)
        for deg, (reps, span_cols, dim) in oracle.items():
            here = space.names_of_degree(deg)
            below = space.names_of_degree(deg - 1)
            assert summary.dimension(deg) == dim
            assert [list(r.coeffs.items()) for r in summary.representatives(deg)] == [
                list(r.coeffs.items()) for r in reps
            ]
            images = [d.column(src) for src in below]
            if sum(1 for v in images if v) > len(span_cols) - dim:
                seen["dependent image"] += 1
            cocycles = [GradedVector.from_dense(here, col) for col in span_cols]
            for _ in range(3):
                u = random_combination(rng, [GradedVector.basis(src) for src in below])
                z = random_combination(rng, cocycles[:dim]) + d.apply(u)
                coords, pre = summary.lift(deg, z)
                expected = []
                if span_cols:
                    expected = linalg.PreparedSolve(
                        linalg.matrix_from_columns(span_cols, len(here)), len(span_cols)
                    ).solve(z.to_dense(here))[:dim]
                assert coords == expected == summary.project(deg, z)
                boundary = z - combination(reps, coords)
                assert d.apply(pre) == boundary
                assert pre == per_degree_preimage(space, d, deg - 1, boundary)
                solved = augmented_solve(d_rows(d, below, here), boundary.to_dense(here), len(below))
                assert pre == GradedVector.from_dense(below, solved)
                if all(c == 0 for c in coords):
                    seen["zero class"] += 1
                    assert d.apply(pre) == z
                else:
                    seen["nonzero class"] += 1
    assert min(seen.values()) > 0, seen


def test_lift_on_the_frozen_projection_complex():
    space, d = make_complex([("u", 0), ("v", 1), ("z", 1)], {"u": {"v": 2}})
    summary = complex_cohomology(space, d)
    assert summary.lift(1, GradedVector({"z": 2, "v": 5})) == (
        [Fraction(2)], GradedVector({"u": Fraction(5, 2)})
    )
    assert summary.lift(0, GradedVector()) == ([], GradedVector())
    assert summary.lift(7, GradedVector()) == ([], GradedVector())


# ---------------------------------------------------------------------------
# Oracle for the lazy summary: the former complex_cohomology, which built
# the block of every degree up front in two steps (extend_independent picks
# the representatives, then a PreparedSolve on [representatives | image]
# projects), and the former lift on those blocks.


def eager_cohomology(space, d):
    """degree -> (names, representatives, [representatives | image] matrix
    or None when both are empty, preimage names) for every degree present,
    in degree order."""
    blocks = {}
    pivot_names = {}  # degree k + 1 -> names of degree k at the pivots of d
    for deg in space.degrees_present():
        here = space.names_of_degree(deg)
        n = len(here)
        red, pivots = linalg.rref(d_rows(d, here, space.names_of_degree(deg + 1)), n)
        pivot_names[deg + 1] = [here[p] for p in pivots]
        below = pivot_names.get(deg, [])
        image_basis = [d.column(src).to_dense(here) for src in below]
        kernel_cols = linalg.kernel_basis(red, pivots, n)
        rep_cols = [
            kernel_cols[i] for i in linalg.extend_independent(image_basis, kernel_cols, n)
        ]
        representatives = [GradedVector.from_dense(here, col) for col in rep_cols]
        span_cols = rep_cols + image_basis
        proj_matrix = linalg.matrix_from_columns(span_cols, n) if span_cols else None
        blocks[deg] = (here, representatives, proj_matrix, below)
    return blocks


def eager_lift(blocks, degree, vector):
    if degree not in blocks:
        assert vector.is_zero()
        return [], GradedVector()
    here, reps, proj_matrix, below = blocks[degree]
    dense = vector.to_dense(here)
    if proj_matrix is None:
        assert not any(dense)
        return [], GradedVector()
    coords = linalg.PreparedSolve(proj_matrix, len(proj_matrix[0])).solve(dense)
    dim = len(reps)
    preimage = {n: c for n, c in zip(below, coords[dim:]) if c}
    return coords[:dim], GradedVector.from_nonzero(preimage)


def shipped_complexes():
    """(label, space, d) of every shipped dgla, cdga and Hitchin pair, the
    pairs over the trivial and the interval CDGA."""
    here = os.path.dirname(__file__)
    paths = [
        os.path.join(folder, name)
        for folder in (os.path.join(here, "..", "sample_inputs"), os.path.join(here, "golden", "inputs"))
        for name in sorted(os.listdir(folder))
    ]
    docs = {os.path.basename(p): parse_document(p) for p in paths}
    interval = docs["cdga_interval.json"].kernel
    for name, doc in docs.items():
        if doc.kind in ("dgla", "cdga"):
            yield name, doc.kernel.space, doc.kernel.d
        elif doc.kind == "hitchin-pair":
            for label, cdga in (("trivial", trivial_cdga()), ("interval", interval)):
                dgla = build_hitchin_dgla(doc.kernel, cdga)
                yield f"{name} over {label}", dgla.space, dgla.d


def test_lazy_cohomology_matches_the_eager_oracle_on_the_shipped_samples():
    rng = random.Random(4711)
    labels = []
    for label, space, d in shipped_complexes():
        labels.append(label)
        blocks = eager_cohomology(space, d)
        present = sorted(blocks)
        asked = present + [present[0] - 1, present[-1] + 1]
        for trial in range(4):
            summary = complex_cohomology(space, d)
            order = list(reversed(asked)) if trial == 0 else rng.sample(asked, len(asked))
            for deg in order:
                reps = blocks[deg][1] if deg in blocks else []
                below = space.names_of_degree(deg - 1)
                z = random_combination(rng, reps) + d.apply(
                    random_combination(rng, [GradedVector.basis(n) for n in below])
                )
                reads = ["lift", "representatives", "dimension"]
                rng.shuffle(reads)
                for read in reads:
                    if read == "lift":
                        assert summary.lift(deg, z) == eager_lift(blocks, deg, z), label
                        assert summary.project(deg, z) == eager_lift(blocks, deg, z)[0]
                    elif read == "representatives":
                        assert [list(r.coeffs.items()) for r in summary.representatives(deg)] == [
                            list(r.coeffs.items()) for r in reps
                        ], label
                    else:
                        assert summary.dimension(deg) == len(reps)
            assert summary.degrees() == present
            assert summary.dimensions() == {k: len(b[1]) for k, b in blocks.items()}
    assert len(labels) == 17 and sum("over interval" in x for x in labels) == 5, labels


def test_cohomology_reduces_each_differential_once_when_first_read(monkeypatch):
    # every elimination is told apart by the constructor it runs in: a
    # PreparedSolve's is a block's solve, one in a DegreeBlock alone reads
    # the block's pivots, and one outside both is a reduction of d_k, whose
    # matrix names k.  Reading degree k reduces d_k and no other d.
    space, d = make_complex(
        [("a0", 0), ("b0", 1), ("b1", 1), ("c0", 2), ("c1", 2), ("c2", 2)]
        + [(f"e{i}", 3) for i in range(4)],
        {"a0": {"b0": 1}, "b1": {"c0": 2}, "c1": {"e0": -1}},
    )
    matrices = {
        k: d_rows(d, space.names_of_degree(k), space.names_of_degree(k + 1))
        for k in range(-1, 4)
    }
    reduced, counts, where = [], {"pivots": 0, "prepare": 0}, []
    rref = linalg.rref

    def spy(rows, ncols=None):
        if where:
            counts[where[-1]] += 1
        else:
            ks = [k for k, m in matrices.items() if rows == m and ncols == len(space.names_of_degree(k))]
            assert len(ks) == 1
            reduced.extend(ks)
        return rref(rows, ncols)

    def inside(label, init):
        def spy_init(self, *args):
            where.append(label)
            try:
                init(self, *args)
            finally:
                where.pop()
        return spy_init

    monkeypatch.setattr(linalg, "rref", spy)
    monkeypatch.setattr(graded.DegreeBlock, "__init__", inside("pivots", graded.DegreeBlock.__init__))
    monkeypatch.setattr(linalg.PreparedSolve, "__init__", inside("prepare", linalg.PreparedSolve.__init__))
    summary = complex_cohomology(space, d)
    assert reduced == [] and counts == {"pivots": 0, "prepare": 0}
    assert len(summary.representatives(2)) == 1
    assert reduced == [2] and counts == {"pivots": 1, "prepare": 0}
    assert summary.dimension(1) == 0
    assert sorted(reduced) == [1, 2] and counts == {"pivots": 2, "prepare": 0}
    assert summary.representatives(2) and summary.dimension(0) == 0
    assert sorted(reduced) == [0, 1, 2] and counts == {"pivots": 3, "prepare": 0}
    # the first lift of a degree read for its pivots builds its transform
    for _ in range(2):
        assert summary.lift(2, GradedVector({"c0": 1, "c2": 3})) == (
            [Fraction(3)], GradedVector({"b1": Fraction(1, 2)})
        )
        assert sorted(reduced) == [0, 1, 2] and counts == {"pivots": 3, "prepare": 1}
    assert summary.dimensions() == {0: 0, 1: 0, 2: 1, 3: 3}
    assert sorted(reduced) == [0, 1, 2, 3] and counts == {"pivots": 4, "prepare": 1}
    # a degree first read by a lift gets one augmented elimination only
    reduced.clear()
    counts.update(pivots=0, prepare=0)
    summary = complex_cohomology(space, d)
    assert summary.project(2, GradedVector({"c2": 1})) == [Fraction(1)]
    assert reduced == [2] and counts == {"pivots": 0, "prepare": 1}
    assert summary.representatives(2) and summary.dimension(2) == 1
    assert reduced == [2] and counts == {"pivots": 0, "prepare": 1}


@pytest.mark.parametrize("value", [1.5, True, "x", None])
def test_graded_space_degrees_are_ints(value):
    with pytest.raises(TypeError, match="basis degree must be an int"):
        GradedSpace([("a", value)])


@pytest.mark.parametrize("value", [1.0, True, "1"])
def test_graded_map_degree_is_an_int(value):
    space = GradedSpace([("a", 0)])
    with pytest.raises(TypeError, match="map degree must be an int"):
        GradedMap(space, space, value)


def test_as_int_passes_ints_through():
    assert as_int(-3, "x") == -3
    with pytest.raises(TypeError, match=r"^field must be an int, got bool$"):
        as_int(False, "field")
