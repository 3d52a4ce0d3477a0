"""Differential graded Lie and commutative algebras, MC calculus, gauge."""

import math
import os
import random
from fractions import Fraction

import pytest

import defcalc.dgla as dgla_module
from defcalc import linalg
from defcalc.artin import ArtinVector, make_artin
from defcalc.cli import parse_document
from defcalc.dgla import (
    Cdga,
    Dgla,
    GaugeResult,
    ObstructionEvent,
    bch_product,
    bracket_artin,
    check_cdga,
    check_dgla,
    gauge_act,
    gauge_equivalent,
    hom_dgla,
    hom_name,
    is_mc,
    mc_residual,
    mc_solve,
    tensor_cdga_dgla,
    trivial_cdga,
)
from defcalc.graded import (
    GradedMap,
    GradedSpace,
    GradedVector,
    NotAComplexError,
    accumulate,
    complex_cohomology,
)
from defcalc.hitchin import HitchinPair, build_hitchin_dgla, matrix_wedge_dgla
from test_artin import coefficient_vector, monomials_present
from test_graded import d_rows, random_complex


# ---------------------------------------------------------------------------
# Model builders.


def two_line():
    """<e1, e2> in degrees 1, 2 with [e1, e1] = e2; the obstructed model."""
    space = GradedSpace([("e1", 1), ("e2", 2)])
    d = GradedMap(space, space, 1, {})
    return Dgla(space, d, {("e1", "e1"): {"e2": 1}})


def contractible():
    space = GradedSpace([("u", 0), ("v", 1)])
    d = GradedMap(space, space, 1, {"u": {"v": 1}})
    return Dgla(space, d, {})


def semidirect():
    """a in degree 0 acting on <x, y> in degree 1 by [a, x] = y."""
    space = GradedSpace([("a", 0), ("x", 1), ("y", 1)])
    d = GradedMap(space, space, 1, {})
    return Dgla(space, d, {("a", "x"): {"y": 1}})


def heisenberg():
    space = GradedSpace([("a", 0), ("b", 0), ("c", 0)])
    d = GradedMap(space, space, 1, {})
    return Dgla(space, d, {("a", "b"): {"c": 1}, ("b", "a"): {"c": -1}})


MATRIX_UNITS = ["E11", "E12", "E21", "E22"]


def matrix_unit_product(p, q):
    # E_ij E_kl = [j == k] E_il
    i, j = int(p[1]), int(p[2])
    k, l = int(q[1]), int(q[2])
    return f"E{i}{l}" if j == k else None


def gl2_brackets():
    table = {}
    for p in MATRIX_UNITS:
        for q in MATRIX_UNITS:
            out = {}
            left = matrix_unit_product(p, q)
            right = matrix_unit_product(q, p)
            if left:
                out[left] = out.get(left, 0) + 1
            if right:
                out[right] = out.get(right, 0) - 1
            out = {k: c for k, c in out.items() if c}
            if out:
                table[(p, q)] = out
    return table


def gl2():
    space = GradedSpace([(n, 0) for n in MATRIX_UNITS])
    d = GradedMap(space, space, 1, {})
    return Dgla(space, d, gl2_brackets())


def h0_zero_model():
    """d a = 3 x1, d b = -2 x2, [a, y] = 5 x1, [b, y] = 7 x2: d is injective
    in degree 0, so H^0 = 0."""
    space = GradedSpace([("a", 0), ("b", 0), ("x1", 1), ("x2", 1), ("y", 1)])
    d = GradedMap(space, space, 1, {"a": {"x1": 3}, "b": {"x2": -2}})
    return Dgla(space, d, {("a", "y"): {"x1": 5}, ("b", "y"): {"x2": 7}})


def interval_cdga():
    space = GradedSpace([("1", 0), ("w", 1)])
    d = GradedMap(space, space, 1, {})
    return Cdga(space, d, {}, "1")


def derham_fat_point():
    """Kaehler forms of Q[x]/(x^3): basis 1, x, x2, dx, xdx."""
    space = GradedSpace([("1", 0), ("x", 0), ("x2", 0), ("dx", 1), ("xdx", 1)])
    d = GradedMap(space, space, 1, {"x": {"dx": 1}, "x2": {"xdx": 2}})
    products = {
        ("x", "x"): {"x2": 1},
        ("x", "dx"): {"xdx": 1},
    }
    return Cdga(space, d, products, "1")


# ---------------------------------------------------------------------------
# Axiom checks.


def test_check_dgla_accepts_valid_models():
    for model in (two_line(), contractible(), semidirect(), heisenberg(), gl2()):
        report = check_dgla(model)
        assert report.ok, (report.axiom, report.witness)


def test_check_dgla_catches_broken_complex():
    space = GradedSpace([("u", 0), ("v", 1), ("w", 2)])
    d = GradedMap(space, space, 1, {"u": {"v": 1}, "v": {"w": 1}})
    report = check_dgla(Dgla(space, d, {}))
    assert not report.ok
    assert report.axiom == "complex"


def test_check_dgla_catches_antisymmetry():
    space = GradedSpace([("a", 0), ("b", 0), ("c", 0)])
    d = GradedMap(space, space, 1, {})
    model = Dgla(space, d, {("a", "b"): {"c": 1}, ("b", "a"): {"c": 1}})
    report = check_dgla(model)
    assert not report.ok
    assert report.axiom == "antisymmetry"


def test_check_dgla_catches_jacobi():
    table = gl2_brackets()
    table[("E11", "E12")] = {"E12": -1}
    table[("E12", "E11")] = {"E12": 1}
    space = GradedSpace([(n, 0) for n in MATRIX_UNITS])
    model = Dgla(space, GradedMap(space, space, 1, {}), table)
    report = check_dgla(model)
    assert not report.ok
    assert report.axiom == "jacobi"


def test_check_dgla_catches_leibniz():
    space = GradedSpace([("a", 0), ("b", 0), ("c", 0), ("v", 1)])
    d = GradedMap(space, space, 1, {"c": {"v": 1}})
    model = Dgla(space, d, {("a", "b"): {"c": 1}, ("b", "a"): {"c": -1}})
    report = check_dgla(model)
    assert not report.ok
    assert report.axiom == "leibniz"
    assert set(report.witness) == {"a", "b"}


def test_check_cdga_accepts_valid_models():
    for model in (trivial_cdga(), interval_cdga(), derham_fat_point()):
        report = check_cdga(model)
        assert report.ok, (report.axiom, report.witness)


def test_check_cdga_catches_commutativity():
    space = GradedSpace([("1", 0), ("p", 1), ("q", 1), ("z", 2)])
    d = GradedMap(space, space, 1, {})
    products = {("p", "q"): {"z": 1}, ("q", "p"): {"z": 1}}
    report = check_cdga(Cdga(space, d, products, "1"))
    assert not report.ok
    assert report.axiom == "commutativity"


def test_check_cdga_catches_unit():
    # an explicit 1.w = 2w overrides the unit products the constructor fills in
    space = GradedSpace([("1", 0), ("w", 1)])
    report = check_cdga(Cdga(space, None, {("1", "w"): {"w": 2}}, "1"))
    assert (report.ok, report.axiom, report.witness) == (False, "unit", ("1", "w"))


def test_check_dgla_catches_wrong_degree():
    space = GradedSpace([("a", 0), ("b", 0), ("c", 1)])
    report = check_dgla(Dgla(space, None, {("a", "b"): {"c": 1}}))
    assert not report.ok
    assert (report.axiom, report.witness) == ("degree", ("a", "b"))
    assert report.value == GradedVector({"c": 1})


def test_wrong_degree_bracket_keeps_the_unsorted_jacobi_witness():
    # [u, v] = u + v leaves degree 1, so the Jacobiator is not graded
    # antisymmetric: J(v, v, u) fails while every sorted triple passes, and a
    # scan of sorted triples alone would report degree at (u, v)
    space = GradedSpace([("u", 0), ("v", 1)])
    report = check_dgla(Dgla(space, None, {("u", "v"): {"u": 1, "v": 1}}))
    expected = (False, "jacobi", ("v", "v", "u"), GradedVector({"u": 2, "v": 2}))
    assert _report(report) == expected


def test_check_cdga_catches_wrong_degree():
    space = GradedSpace([("1", 0), ("x", 0), ("y", 1)])
    report = check_cdga(Cdga(space, None, {("x", "x"): {"y": 1}}, "1"))
    assert not report.ok
    assert (report.axiom, report.witness) == ("degree", ("x", "x"))
    assert report.value == GradedVector({"y": 1})


def test_degree_is_the_last_axiom_checked():
    # w.w = 1 with w odd is in the wrong degree, but commutativity comes first
    space = GradedSpace([("1", 0), ("w", 1)])
    report = check_cdga(Cdga(space, None, {("w", "w"): {"1": 1}}, "1"))
    assert (report.axiom, report.witness) == ("commutativity", ("w", "w"))


def test_unknown_name_in_a_one_sided_entry_is_a_value_error():
    # the mirror of ("a", "zz") would need the degree of "zz"
    space = GradedSpace([("a", 0)])
    table = {("a", "zz"): {"a": 1}}
    with pytest.raises(ValueError, match="bracket entry .* unknown basis names"):
        Dgla(space, None, table)
    with pytest.raises(ValueError, match="product entry .* unknown basis names"):
        Cdga(space, None, table, "a")


def test_derham_fat_point_leibniz_exactness():
    model = derham_fat_point()
    # d(x * x) = 2 x dx comes out of the product rule, not by fiat
    x = GradedVector.basis("x")
    prod = model.multiply(x, x)
    assert prod.coeffs == {"x2": Fraction(1)}
    assert model.d.apply(prod).coeffs == {"xdx": Fraction(2)}


# ---------------------------------------------------------------------------
# Oracle: the exhaustive scans that the support-indexed checkers replaced.
# They visit every triple or pair touching a nonzero entry and evaluate it
# with Dgla.bracket / Cdga.multiply; the checkers must give the same report.


def _sign(k):
    return -1 if k % 2 else 1


def _report(report):
    return (report.ok, report.axiom, report.witness, report.value)


def bracket_basis(dgla, a, b):
    """[a, b] of two basis names, read off the completed table."""
    return dgla.brackets.get((a, b), GradedVector())


def full_scan_check_dgla(dgla):
    names, deg, d = dgla.space.names, dgla.space.degree, dgla.d
    basis = GradedVector.basis
    for a in names:
        dd = d.apply(d.column(a))
        if dd:
            return (False, "complex", (a,), dd)
    nonzero = sorted(dgla.brackets)
    for a, b in nonzero:
        lhs = bracket_basis(dgla, a, b)
        rhs = bracket_basis(dgla, b, a).scale(-_sign(deg(a) * deg(b)))
        if lhs != rhs:
            return (False, "antisymmetry", (a, b), lhs - rhs)
    index = {n: i for i, n in enumerate(names)}
    triples = set()
    for p, q in nonzero:
        for r in names:
            for t in ((r, p, q), (p, q, r), (p, r, q)):
                triples.add(tuple(index[n] for n in t))
    for ia, ib, ic in sorted(triples):
        a, b, c = names[ia], names[ib], names[ic]
        lhs = dgla.bracket(basis(a), bracket_basis(dgla, b, c))
        t1 = dgla.bracket(bracket_basis(dgla, a, b), basis(c))
        t2 = dgla.bracket(basis(b), bracket_basis(dgla, a, c)).scale(
            _sign(deg(a) * deg(b))
        )
        defect = lhs - (t1 + t2)
        if defect:
            return (False, "jacobi", (a, b, c), defect)
    pairs = set(nonzero)
    for a in names:
        if d.column(a):
            pairs.update((a, b) for b in names)
            pairs.update((b, a) for b in names)
    for a, b in sorted(pairs):
        lhs = d.apply(bracket_basis(dgla, a, b))
        rhs = dgla.bracket(d.column(a), basis(b)) + dgla.bracket(
            basis(a), d.column(b)
        ).scale(_sign(deg(a)))
        if lhs != rhs:
            return (False, "leibniz", (a, b), lhs - rhs)
    return full_scan_degree(dgla.space, dgla.brackets)


def full_scan_check_cdga(cdga):
    names, deg, d = cdga.space.names, cdga.space.degree, cdga.d
    basis = GradedVector.basis
    for a in names:
        dd = d.apply(d.column(a))
        if dd:
            return (False, "complex", (a,), dd)
    for name in names:
        if cdga.product_basis(cdga.unit, name) != basis(name):
            return (False, "unit", (cdga.unit, name), None)
    nonzero = sorted(cdga.products)
    for a, b in nonzero:
        lhs = cdga.product_basis(a, b)
        rhs = cdga.product_basis(b, a).scale(_sign(deg(a) * deg(b)))
        if lhs != rhs:
            return (False, "commutativity", (a, b), lhs - rhs)
    seen = set()
    for a, b in nonzero:
        for c in names:
            for x, y, z in ((a, b, c), (c, a, b)):
                if (x, y, z) in seen:
                    continue
                seen.add((x, y, z))
                lhs = cdga.multiply(cdga.product_basis(x, y), basis(z))
                rhs = cdga.multiply(basis(x), cdga.product_basis(y, z))
                if lhs != rhs:
                    return (False, "associativity", (x, y, z), lhs - rhs)
    pairs = set(nonzero)
    for a in names:
        if d.column(a):
            pairs.update((a, b) for b in names)
            pairs.update((b, a) for b in names)
    for a, b in sorted(pairs):
        lhs = d.apply(cdga.product_basis(a, b))
        rhs = cdga.multiply(d.column(a), basis(b)) + cdga.multiply(
            basis(a), d.column(b)
        ).scale(_sign(deg(a)))
        if lhs != rhs:
            return (False, "leibniz", (a, b), lhs - rhs)
    return full_scan_degree(cdga.space, cdga.products)


def full_scan_degree(space, table):
    deg = space.degree
    for a, b in sorted(table):
        wrong = {n: c for n, c in table[(a, b)].coeffs.items() if deg(n) != deg(a) + deg(b)}
        if wrong:
            return (False, "degree", (a, b), GradedVector(wrong))
    return (True, None, None, None)


def mutate_one_entry(space, table, rng, keep=None):
    """Perturb one entry of a completed table and drop its mirror, so the
    constructor re-completes the mirror and (anti)symmetry still holds.
    Entries involving the name keep are left alone."""
    table = dict(table)
    a, b = rng.choice(sorted(k for k in table if keep not in k))
    vec = table.pop((a, b))
    table.pop((b, a), None)
    same_degree = space.names_of_degree(space.degree(a) + space.degree(b))
    if rng.random() < 0.5 or not same_degree:
        vec = vec.scale(rng.choice([2, -1, 3, Fraction(1, 2)]))
    else:
        vec = vec + GradedVector({rng.choice(same_degree): rng.choice([1, -1, 2])})
    if vec:
        table[(a, b)] = vec
    return table


# Seeded random models of the kinds mutate_one_entry never makes: entries
# outside degree |a| + |b|, self-products, explicit mirrors that disagree with
# their entry, and nonzero differentials (d d may be nonzero too).  Names are
# drawn in a shuffled order, so basis order and name order differ.


def random_space(rng, unit=None):
    basis = [(n, rng.choice((0, 1, 1, 2))) for n in rng.sample("pqrstu", rng.randint(3, 5))]
    if unit is not None:
        basis.insert(rng.randrange(len(basis) + 1), (unit, 0))
    return GradedSpace(basis)


def random_differential(rng, space):
    columns = {}
    for a in space.names:
        up = space.names_of_degree(space.degree(a) + 1)
        if up and rng.random() < 0.4:
            columns[a] = {rng.choice(up): rng.choice((1, -1, 2))}
    return GradedMap(space, space, 1, columns)


def random_table(rng, space, mirror_sign, keep=None):
    """About one ordered pair in five gets an entry of one or two terms, a
    quarter of them in any degree; a self-product only where mirror_sign
    allows one (odd names in a dgla, even ones in a cdga)."""
    deg = space.degree
    names = [n for n in space.names if n != keep]
    table = {}
    for a in names:
        for b in names:
            if (b, a) in table or rng.random() < 0.8:
                continue
            if a == b and mirror_sign(deg(a), deg(a)) < 0:
                continue
            right = space.names_of_degree(deg(a) + deg(b))
            pool = right if right and rng.random() < 0.75 else space.names
            table[(a, b)] = {rng.choice(pool): rng.choice((1, -1, 2)) for _ in range(rng.randint(1, 2))}
            if a != b and rng.random() < 0.05:
                table[(b, a)] = {n: 3 * c for n, c in table[(a, b)].items()}
    return table


def hitchin_models():
    letter = GradedSpace([("l", 1)])
    rank2 = HitchinPair(2, letter, [[{"l": 1}, {"l": 2}], [{}, {"l": -1}]])
    rank3 = HitchinPair(
        3, letter, [[{}, {"l": 1}, {"l": 3}], [{}, {}, {"l": -2}], [{}, {}, {}]]
    )
    return [
        (build_hitchin_dgla(rank2, trivial_cdga()), 12),
        (build_hitchin_dgla(rank2, interval_cdga()), 8),
        (build_hitchin_dgla(rank3, trivial_cdga()), 6),
        (build_hitchin_dgla(rank3, interval_cdga()), 2),
    ]


def test_check_dgla_matches_full_scan_oracle():
    rng = random.Random(2024)
    # d u = v and [p, v] = w: Leibniz fails at (p, u) and (u, p), neither a
    # bracket pair; the name of u decides which comes first
    broken = []
    for u in ("a", "u"):
        space = GradedSpace([("p", 0), (u, 0), ("v", 1), ("w", 1)])
        d = GradedMap(space, space, 1, {u: {"v": 1}})
        broken.append((Dgla(space, d, {("p", "v"): {"w": 1}}), 0))
    assert full_scan_check_dgla(broken[0][0])[2] == ("a", "p")
    assert full_scan_check_dgla(broken[1][0])[2] == ("p", "u")
    models = broken + [
        (gl2(), 25),
        (heisenberg(), 15),
        (tensor_cdga_dgla(derham_fat_point(), semidirect()), 15),
    ] + hitchin_models()
    axioms = set()
    for model, mutants in models:
        assert _report(check_dgla(model)) == full_scan_check_dgla(model)
        for _ in range(mutants):
            table = mutate_one_entry(model.space, model.brackets, rng)
            mutant = Dgla(model.space, model.d, table)
            expected = full_scan_check_dgla(mutant)
            assert _report(check_dgla(mutant)) == expected
            axioms.add(expected[1])
    assert {"jacobi", "leibniz"} <= axioms
    # with an entry in a wrong degree the Jacobiator is no longer graded
    # antisymmetric, and the first failing triple need not be sorted
    rng = random.Random(2026)
    axioms, unsorted = set(), 0
    for _ in range(300):
        space = random_space(rng)
        table = random_table(rng, space, lambda da, db: -_sign(da * db))
        model = Dgla(space, random_differential(rng, space), table)
        expected = full_scan_check_dgla(model)
        assert _report(check_dgla(model)) == expected
        axioms.add(expected[1])
        if expected[1] == "jacobi":
            order = [space.names.index(n) for n in expected[2]]
            unsorted += order != sorted(order)
    assert {"jacobi", "leibniz", "degree"} <= axioms
    assert unsorted


def test_mirror_scan_matches_full_scan_on_one_sided_entries():
    # a table edited after construction may hold (b, a) with b > a by name
    # and no (a, b); the scan of each unordered pair once must still see it
    rng = random.Random(23)
    one_sided = 0
    for _ in range(200):
        space = random_space(rng)
        model = Dgla(space, None, random_table(rng, space, lambda da, db: -_sign(da * db)))
        for key in list(model.brackets):
            if key[0] < key[1] and rng.random() < 0.3:
                del model.brackets[key]
        expected = full_scan_check_dgla(model)
        assert _report(check_dgla(model)) == expected
        one_sided += expected[1] == "antisymmetry" and expected[2][0] > expected[2][1]
    assert one_sided >= 10


def truncated_plane_cdga():
    """Q[x, y] / (x, y)^3 in degree 0, with no differential."""
    monos = ["1", "x", "y", "xx", "xy", "yy"]
    space = GradedSpace([(m, 0) for m in monos])

    def name(word):
        word = "".join(sorted(word.replace("1", "")))
        return word or "1"

    products = {}
    for p in monos[1:]:
        for q in monos[1:]:
            if name(p + q) in monos:
                products[(p, q)] = {name(p + q): 1}
    return Cdga(space, GradedMap(space, space, 1, {}), products, "1")


def test_check_cdga_matches_full_scan_oracle():
    rng = random.Random(2025)
    axioms = set()
    exterior = GradedSpace([("1", 0), ("p", 1), ("q", 1), ("pq", 2)])
    exterior_cdga = Cdga(
        exterior, GradedMap(exterior, exterior, 1, {}), {("p", "q"): {"pq": 1}}, "1"
    )
    for model in (exterior_cdga, derham_fat_point(), truncated_plane_cdga()):
        assert _report(check_cdga(model)) == full_scan_check_cdga(model)
        for _ in range(20):
            table = mutate_one_entry(model.space, model.products, rng, model.unit)
            mutant = Cdga(model.space, model.d, table, model.unit)
            expected = full_scan_check_cdga(mutant)
            assert _report(check_cdga(mutant)) == expected
            axioms.add(expected[1])
    assert {"associativity", "leibniz"} <= axioms
    rng = random.Random(2027)
    axioms = set()
    for _ in range(300):
        space = random_space(rng, "1")
        table = random_table(rng, space, lambda da, db: _sign(da * db), "1")
        model = Cdga(space, random_differential(rng, space), table, "1")
        expected = full_scan_check_cdga(model)
        assert _report(check_cdga(model)) == expected
        axioms.add(expected[1])
    assert {"associativity", "leibniz", "degree"} <= axioms


# ---------------------------------------------------------------------------
# Tensor and Hom constructions.


def test_tensor_frozen_values():
    t = tensor_cdga_dgla(interval_cdga(), two_line())
    assert t.space.names == ("1*e1", "1*e2", "w*e1", "w*e2")
    assert t.space.degree("w*e1") == 2
    assert t.space.degree("w*e2") == 3
    # [a @ x, b @ y] = (-1)^(|b||x|) ab @ [x, y]
    assert bracket_basis(t, "1*e1", "1*e1").coeffs == {"1*e2": Fraction(1)}
    assert bracket_basis(t, "w*e1", "1*e1").coeffs == {"w*e2": Fraction(1)}
    assert bracket_basis(t, "1*e1", "w*e1").coeffs == {"w*e2": Fraction(-1)}
    assert bracket_basis(t, "w*e1", "w*e1").is_zero()
    assert check_dgla(t).ok


def test_tensor_differential_sign():
    t = tensor_cdga_dgla(derham_fat_point(), contractible())
    # d(a @ x) = da @ x + (-1)^|a| a @ dx
    assert t.d.column("x*u").coeffs == {"dx*u": Fraction(1), "x*v": Fraction(1)}
    assert t.d.column("dx*u").coeffs == {"dx*v": Fraction(-1)}
    assert check_dgla(t).ok


def test_tensor_rejects_a_name_collision():
    # "1" (x) "x*y" and "1*x" (x) "y" would both be named "1*x*y"
    cdga = Cdga(GradedSpace([("1", 0), ("1*x", 0)]), None, {}, "1")
    dgla = Dgla(GradedSpace([("x*y", 0), ("y", 0)]), None, {})
    with pytest.raises(ValueError, match=r"tensor basis name collision at '1\*x\*y'"):
        tensor_cdga_dgla(cdga, dgla)


def test_tensor_with_gl2_satisfies_axioms():
    t = tensor_cdga_dgla(derham_fat_point(), gl2())
    assert check_dgla(t).ok


def test_hom_dgla_frozen():
    v = contractible()
    h = hom_dgla(v.space, v.d)
    deg = h.space.degree
    assert deg("E[u,v]") == -1 and deg("E[v,u]") == 1
    assert h.d.column("E[u,v]").coeffs == {
        "E[u,u]": Fraction(1),
        "E[v,v]": Fraction(1),
    }
    assert h.d.column("E[u,u]").coeffs == {"E[v,u]": Fraction(1)}
    assert h.d.column("E[v,v]").coeffs == {"E[v,u]": Fraction(-1)}
    assert h.d.column("E[v,u]").is_zero()
    assert bracket_basis(h, "E[u,v]", "E[v,u]").coeffs == {
        "E[u,u]": Fraction(1),
        "E[v,v]": Fraction(1),
    }
    assert check_dgla(h).ok


def test_hom_dgla_random_complexes():
    rng = random.Random(41)
    for _ in range(10):
        n0, n1 = rng.randint(1, 2), rng.randint(1, 2)
        basis = [(f"u{i}", 0) for i in range(n0)] + [
            (f"v{i}", 1) for i in range(n1)
        ]
        space = GradedSpace(basis)
        columns = {}
        for i in range(n0):
            col = {f"v{j}": rng.randint(-2, 2) for j in range(n1)}
            col = {k: c for k, c in col.items() if c}
            if col:
                columns[f"u{i}"] = col
        h = hom_dgla(space, GradedMap(space, space, 1, columns))
        assert check_dgla(h).ok


def dense_hom_dgla(space, d):
    """The former hom_dgla: every pair of basis maps through the composition
    of basis maps, and [d, f] from d o f and f o d as whole maps."""

    def compose_basis(f, g):
        (w, v), (y, x) = factors[f], factors[g]
        return GradedVector.basis(hom_name(w, x)) if v == y else GradedVector()

    def map_to_vector(cols):
        out = {}
        for v, image in cols.items():
            for w, c in image.coeffs.items():
                accumulate(out, hom_name(w, v), c)
        return GradedVector(out)

    basis, factors = [], {}
    for w in space.names:
        for v in space.names:
            basis.append((hom_name(w, v), space.degree(w) - space.degree(v)))
            factors[hom_name(w, v)] = (w, v)
    hom_space = GradedSpace(basis)
    sign = lambda e: -1 if e % 2 else 1
    brackets = {}
    for f in hom_space.names:
        for g in hom_space.names:
            s = sign(hom_space.degree(f) * hom_space.degree(g))
            val = compose_basis(f, g) - compose_basis(g, f).scale(s)
            if not val.is_zero():
                brackets[(f, g)] = val
    columns = {}
    for f in hom_space.names:
        w, v = factors[f]
        left = map_to_vector({v: d.column(w)})
        right_cols = {}
        for src in space.names:
            img = d.column(src)
            if img[v] != 0:
                right_cols[src] = GradedVector({w: img[v]})
        img = left - map_to_vector(right_cols).scale(sign(hom_space.degree(f)))
        if not img.is_zero():
            columns[f] = img
    return Dgla(hom_space, GradedMap(hom_space, hom_space, 1, columns), brackets)


def table_items(table):
    return [(key, list(vec.coeffs.items())) for key, vec in table.items()]


def shuffled_columns(rng, space, d):
    """d with the entries of each column of two or more listed in a random
    order other than their own."""
    columns = {}
    for name, column in d.columns.items():
        items = list(column.coeffs.items())
        rng.shuffle(items)
        if items == list(column.coeffs.items()):
            items.reverse()
        columns[name] = dict(items)
    return GradedMap(space, space, 1, columns)


def dense_two_term_complex(rng):
    """V^0 -> V^1 with every entry of d nonzero, the basis shuffled."""
    sources = [f"a{i}" for i in range(rng.randint(2, 3))]
    targets = [f"b{i}" for i in range(rng.randint(2, 3))]
    basis = [(name, 0) for name in sources] + [(name, 1) for name in targets]
    rng.shuffle(basis)
    space = GradedSpace(basis)
    columns = {a: {b: rng.choice([-2, -1, 1, 3]) for b in targets} for a in sources}
    return space, GradedMap(space, space, 1, columns)


def test_hom_dgla_matches_dense_oracle():
    # random_complex lists every column of d in basis order, and [d, f] lists
    # d f in the order of d's column; so each complex is also given with its
    # columns shuffled, and dense two-term complexes are added
    rng, shuffle = random.Random(4040), random.Random(4041)
    complexes = [random_complex(rng, max_dim=2) for _ in range(300)]
    complexes += [dense_two_term_complex(shuffle) for _ in range(30)]
    sizes, out_of_order = set(), 0
    for space, d in complexes:
        shuffled = shuffled_columns(shuffle, space, d)
        out_of_order += sum(
            list(column.coeffs) != list(d.columns[name].coeffs)
            for name, column in shuffled.columns.items()
        )
        for d in (d, shuffled):
            h, oracle = hom_dgla(space, d), dense_hom_dgla(space, d)
            assert h.space == oracle.space
            assert table_items(h.brackets) == table_items(oracle.brackets)
            assert table_items(h.d.columns) == table_items(oracle.d.columns)
        sizes.add(len(space))
    assert {0, 1, 6} <= sizes
    assert out_of_order >= 100


def test_hom_dgla_rejects_a_differential_that_leaves_the_space():
    space = GradedSpace([("u", 0), ("v", 1)])
    larger = GradedSpace([("u", 0), ("v", 1), ("w", 1)])
    with pytest.raises(ValueError):  # d u = w, outside V
        hom_dgla(space, GradedMap(space, larger, 1, {"u": {"w": 1}}))
    shifted = GradedSpace([("u", 0), ("v", 2)])
    with pytest.raises(ValueError):  # d u = v, but v has degree 2 in V
        hom_dgla(shifted, GradedMap(shifted, space, 1, {"u": {"v": 1}}))
    # into the larger space with its image inside V, d gives End(V, d)
    h = hom_dgla(space, GradedMap(space, larger, 1, {"u": {"v": 1}}))
    assert table_items(h.d.columns) == table_items(
        hom_dgla(space, GradedMap(space, space, 1, {"u": {"v": 1}})).d.columns
    )


# ---------------------------------------------------------------------------
# Maurer-Cartan calculus.


def test_mc_residual_frozen():
    model = two_line()
    algebra = make_artin(("t",), 3)
    x = ArtinVector.single((1,), "e1")
    r = mc_residual(x, model, algebra)
    assert r.terms == {((2,), "e2"): Fraction(1, 2)}
    assert not is_mc(x, model, algebra)
    # over t^2 = 0 the quadratic term dies
    small = make_artin(("t",), 2)
    assert is_mc(x, model, small)


def test_bracket_artin_bilinear_random():
    model = gl2()
    algebra = make_artin(("t",), 4)
    rng = random.Random(13)
    names = model.space.names

    def rand_vec():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            key = ((rng.randint(1, 3),), names[rng.randrange(len(names))])
            terms[key] = terms.get(key, 0) + rng.randint(-2, 2)
        return ArtinVector(terms)

    for _ in range(30):
        x, y, z = rand_vec(), rand_vec(), rand_vec()
        lhs = bracket_artin(model, algebra, x + y, z)
        rhs = bracket_artin(model, algebra, x, z) + bracket_artin(
            model, algebra, y, z
        )
        assert lhs == rhs
        # graded antisymmetry in degree 0: [x, y] = -[y, x]
        assert bracket_artin(model, algebra, x, y) == bracket_artin(
            model, algebra, y, x
        ).scale(-1)


def test_bracket_artin_rejects_a_plain_dict():
    model, algebra = two_line(), make_artin(("t",), 3)
    x = ArtinVector.single((1,), "e1")
    for args in (({((1,), "e1"): 1}, x), (x, {((1,), "e1"): 1})):
        with pytest.raises(TypeError, match="^expected an ArtinVector, got dict$"):
            bracket_artin(model, algebra, *args)


def test_bch_frozen():
    model = heisenberg()
    algebra = make_artin(("t",), 3)
    a = ArtinVector.single((1,), "a")
    b = ArtinVector.single((1,), "b")
    z = bch_product(a, b, model, algebra)
    assert z.terms == {
        ((1,), "a"): Fraction(1),
        ((1,), "b"): Fraction(1),
        ((2,), "c"): Fraction(1, 2),
    }
    # abelian: bch degenerates to the sum
    z2 = bch_product(a, a.scale(3), model, algebra)
    assert z2.terms == {((1,), "a"): Fraction(4)}


def _dynkin_bch(a, b, dgla, algebra):
    """Test oracle: Dynkin's commutator series for log(e^a e^b), summed over
    every sequence of (p, q) blocks with at most nilpotency order - 1 letters.
    """
    budget = algebra.nilpotency_order - 1
    sequences = []

    def extend(seq, used):
        if seq:
            sequences.append(tuple(seq))
        for p in range(budget - used + 1):
            for q in range(budget - used - p + 1):
                if p + q:
                    extend(seq + [(p, q)], used + p + q)

    extend([], 0)
    total = ArtinVector()
    for seq in sequences:
        letters = [x for p, q in seq for x in [a] * p + [b] * q]
        nested = letters[-1]
        for letter in reversed(letters[:-1]):
            nested = bracket_artin(dgla, algebra, letter, nested)
        denom = len(seq) * len(letters)
        for p, q in seq:
            denom *= math.factorial(p) * math.factorial(q)
        total = total + nested.scale(Fraction((-1) ** (len(seq) - 1), denom))
    return total


def _random_degree0(rng, model, algebra, count=6):
    """Seeded degree-0 element, biased towards low-order monomials so that
    long brackets survive the truncation."""
    names = model.space.names_of_degree(0)
    monomials = algebra.maximal_ideal  # sorted by total degree
    terms = {}
    for _ in range(count):
        pick = min(rng.randrange(len(monomials)), rng.randrange(len(monomials)))
        key = (monomials[pick], rng.choice(names))
        terms[key] = terms.get(key, 0) + Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return ArtinVector(terms)


def gl3():
    return matrix_wedge_dgla(3, GradedSpace([]), [[{}] * 3 for _ in range(3)])


@pytest.mark.parametrize(
    "make_model, variables, truncations, pairs",
    [
        (heisenberg, ("t",), range(2, 7), 3),
        (gl3, ("t",), range(2, 8), 1),
        (gl3, ("s", "t"), [5], 3),  # monomials of total degree <= 4
    ],
)
def test_bch_matches_dynkin_oracle(make_model, variables, truncations, pairs):
    model = make_model()
    rng = random.Random(7)
    for n in truncations:
        algebra = make_artin(variables, n)
        for _ in range(pairs):
            a = _random_degree0(rng, model, algebra)
            b = _random_degree0(rng, model, algebra)
            for x, y in ((a, b), (b, a)):
                expected = _dynkin_bch(x, y, model, algebra)
                assert bch_product(x, y, model, algebra) == expected


def test_gauge_act_frozen():
    model = semidirect()
    algebra = make_artin(("t",), 3)
    a = ArtinVector.single((1,), "a")
    x = ArtinVector.single((1,), "x")
    moved = gauge_act(a, x, model, algebra)
    assert moved.terms == {((1,), "x"): Fraction(1), ((2,), "y"): Fraction(1)}
    assert is_mc(moved, model, algebra)


def test_gauge_act_preserves_mc_random():
    model = semidirect()
    algebra = make_artin(("t",), 4)
    rng = random.Random(3)
    for _ in range(40):
        x = ArtinVector(
            {
                ((rng.randint(1, 3),), n): rng.randint(-2, 2)
                for n in ("x", "y")
            }
        )
        a = ArtinVector(
            {((rng.randint(1, 3),), "a"): rng.randint(-2, 2)}
        )
        assert is_mc(x, model, algebra)
        assert is_mc(gauge_act(a, x, model, algebra), model, algebra)


def test_mc_solve_reads_a_generator_of_directions_once():
    l_space = GradedSpace([("l", 1)])
    model = matrix_wedge_dgla(2, l_space, [[{"l": 1}, {}], [{}, {}]])
    algebra = make_artin(("t",), 3)
    directions = mc_solve(model, algebra).directions
    assert len(directions) == 2
    from_list = mc_solve(model, algebra, list(directions))
    from_generator = mc_solve(model, algebra, (x for x in directions))
    assert from_generator.directions == from_list.directions == directions
    assert from_generator.solutions == from_list.solutions
    assert len(from_generator.solutions) == 2 and all(from_generator.solutions)


def test_mc_solve_obstructed_model():
    model = two_line()
    algebra = make_artin(("t",), 3)
    result = mc_solve(model, algebra)
    assert result.tangent_dimension() == 1
    assert result.obstructed_directions() == [0]
    assert result.solutions == [None]
    (event,) = result.primary_obstructions()
    assert event.order == 2
    assert event.monomial == (2,)
    assert event.coords == (Fraction(1, 2),)
    assert event.cocycle.coeffs == {"e2": Fraction(1, 2)}


def test_mc_solve_unobstructed_model():
    model = semidirect()
    algebra = make_artin(("t",), 4)
    result = mc_solve(model, algebra)
    assert result.tangent_dimension() == 2
    assert result.events == []
    assert len(result.solutions) == 2
    for x in result.solutions:
        assert x is not None
        assert is_mc(x, model, algebra)


def test_mc_solve_rejects_non_cocycle_direction():
    # a direction with nonzero first order residual is no tangent vector
    algebra = make_artin(("t",), 3)
    space = GradedSpace([("p", 1), ("q", 2)])
    d = GradedMap(space, space, 1, {"p": {"q": 1}})
    model = Dgla(space, d, {})
    with pytest.raises(ValueError):
        mc_solve(model, algebra, directions=[ArtinVector.single((1,), "p")])


def test_mc_solve_custom_directions():
    model = semidirect()
    algebra = make_artin(("t",), 3)
    x = ArtinVector.single((1,), "x", 2)
    result = mc_solve(model, algebra, directions=[x])
    assert result.solutions == [x]


# ---------------------------------------------------------------------------
# Oracle for the order-split mc_solve: the former loop, which recomputed the
# whole residual dx + [x, x] / 2 at every order and read its order-k part.


def full_residual_mc_solve(dgla, algebra, directions):
    """(events, solutions) of the former mc_solve on the given directions."""
    summary = complex_cohomology(dgla.space, dgla.d)
    events, solutions = [], []
    for idx, seed in enumerate(directions):
        x = seed
        blocked = False
        for order in range(2, algebra.nilpotency_order):
            part = mc_residual(x, dgla, algebra).order_part(order)
            if part.is_zero():
                continue
            correction = ArtinVector()
            for mono in monomials_present(part):
                vec = coefficient_vector(part, mono)
                coords, pre = summary.lift(2, vec)
                event = ObstructionEvent(idx, order, mono, coords, vec)
                events.append(event)
                if not event.vanishes():
                    blocked = True
                    break
                correction = correction + ArtinVector(
                    {(mono, name): -c for name, c in pre.coeffs.items()}
                )
            if blocked:
                break
            x = x + correction
        solutions.append(None if blocked else x)
    return events, solutions


def test_mc_solve_certifies_each_order(monkeypatch):
    # x t + y t^3 is corrected at order 2 ([x, x] = 3 z) and at order 3
    # (d y = 5 z); a lift that drops the order-3 correction but reports a
    # vanishing class must fail that order's certificate
    model, algebra = correction_model(), make_artin(("t",), 4)
    direction = ArtinVector({((1,), "x"): 1, ((3,), "y"): 1})
    lift = dgla_module._lift_by_monomial

    def wrong(summary, degree, part):
        for mono, vec, coords, correction in lift(summary, degree, part):
            assert not any(coords)
            yield mono, vec, coords, correction if sum(mono) < 3 else ArtinVector()

    result = mc_solve(model, algebra, [direction])
    assert [e.order for e in result.events] == [2, 3]
    assert is_mc(result.solutions[0], model, algebra)
    monkeypatch.setattr(dgla_module, "_lift_by_monomial", wrong)
    with pytest.raises(AssertionError, match="^order 3 residual is nonzero"):
        mc_solve(model, algebra, [direction])


def test_mc_solve_checks_a_number_of_pairs_linear_in_the_order(monkeypatch):
    """Each order pairs only the lower orders that hold a term, so the
    nonzero tests of ArtinVector grow by the same count per added order:
    the Hitchin dgla of the zero pair, whose every order past 2 is empty,
    and x t, corrected at order 2, whose orders past 4 are empty."""
    calls = [0]
    nonzero = ArtinVector.__bool__

    def counting(self):
        calls[0] += 1
        return nonzero(self)

    monkeypatch.setattr(ArtinVector, "__bool__", counting)
    zero = build_hitchin_dgla(sample_kernel("hitchin_r2_zero.json"), trivial_cdga())
    cases = [(zero, None), (correction_model(), [ArtinVector({((1,), "x"): 1})])]
    for model, directions in cases:
        counts = []
        for order in (200, 400, 600):
            calls[0] = 0
            mc_solve(model, make_artin(("t",), order), directions)
            counts.append(calls[0])
        assert counts[2] - counts[1] == counts[1] - counts[0]


def correction_model(c=3, c_blocked=-2, c_d=5):
    """x, u, y in degree 1, z, h in degree 2, d y = c_d z: [x, x] = c z is
    exact, so x needs a correction at order 2; [u, u] = c_blocked h is a
    nonzero class, so u is blocked; [x, u] = 0."""
    space = GradedSpace([("x", 1), ("u", 1), ("y", 1), ("z", 2), ("h", 2)])
    d = GradedMap(space, space, 1, {"y": {"z": c_d}})
    return Dgla(space, d, {("x", "x"): {"z": c}, ("u", "u"): {"h": c_blocked}})


def sample_kernel(name):
    return parse_document(os.path.join(os.path.dirname(__file__), "..", "sample_inputs", name)).kernel


def random_direction(rng, model, algebra, reps):
    """A seeded tangent vector: H^1 representatives along the variables,
    plus degree-1 terms of order 2 and above, which need not be closed."""
    linear = [m for m in algebra.maximal_ideal if sum(m) == 1]
    higher = [m for m in algebra.maximal_ideal if sum(m) > 1]
    ones = model.space.names_of_degree(1)
    terms = {}
    for rep in rng.sample(reps, rng.randint(1, min(2, len(reps)))):
        mono, f = rng.choice(linear), Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 2))
        for name, c in rep.coeffs.items():
            terms[(mono, name)] = terms.get((mono, name), 0) + f * c
    if higher and rng.random() < 0.6:
        terms[(rng.choice(higher), rng.choice(ones))] = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    return ArtinVector(terms)


def test_mc_solve_matches_the_full_residual_oracle():
    nilpotent = build_hitchin_dgla(
        sample_kernel("hitchin_r2_nilpotent.json"), sample_kernel("cdga_interval.json")
    )
    zero = build_hitchin_dgla(
        sample_kernel("hitchin_r2_zero.json"), sample_kernel("cdga_interval.json")
    )
    rings = [
        make_artin(("t",), 6),
        make_artin(("t",), 9),
        make_artin(("s", "t"), 4),
        make_artin(("s", "t", "u"), 3),
        make_artin(("s", "t"), [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (0, 3), (1, 2)]),
    ]
    rng = random.Random(2718)
    seen = {"blocked": 0, "corrected": 0, "lifted": 0, "order-2 seed": 0, "multivariable": 0}
    cases = []
    for model in (correction_model(), correction_model(-1, 7, Fraction(2, 3)), nilpotent, zero):
        reps = complex_cohomology(model.space, model.d).representatives(1)
        for algebra in rings:
            cases.append((model, algebra, None))
            cases.append((model, algebra, [random_direction(rng, model, algebra, reps) for _ in range(3)]))
    # x t + y t^2 has a nonzero order-2 term; u t is blocked at order 2
    t3 = make_artin(("t",), 4)
    cases.append((correction_model(), t3, [
        ArtinVector({((1,), "x"): 1, ((2,), "y"): 2}),
        ArtinVector({((1,), "u"): 1, ((2,), "x"): 1}),
    ]))
    for model, algebra, directions in cases:
        result = mc_solve(model, algebra, directions)
        events, solutions = full_residual_mc_solve(model, algebra, result.directions)
        assert [
            (e.direction, e.order, e.monomial, e.coords, e.cocycle) for e in result.events
        ] == [(e.direction, e.order, e.monomial, e.coords, e.cocycle) for e in events]
        assert result.solutions == solutions
        for got, want in zip(result.solutions, solutions):
            if want is not None:
                assert list(got.coeffs.items()) == list(want.coeffs.items())
                assert is_mc(got, model, algebra)
                seen["lifted"] += 1
        seen["blocked"] += solutions.count(None)
        seen["corrected"] += sum(1 for e in events if e.vanishes())
        seen["multivariable"] += len(algebra.variables) > 1 and any(solutions)
        seen["order-2 seed"] += sum(
            1 for x in result.directions if any(sum(m) == 2 for m, _ in x.coeffs)
        )
    assert min(seen.values()) >= 5, seen


def test_gauge_equivalent_positive():
    model = contractible()
    algebra = make_artin(("t",), 3)
    x = ArtinVector.single((1,), "v")
    y = ArtinVector()
    result = gauge_equivalent(x, y, model, algebra)
    assert result.equivalent
    assert gauge_act(result.witness, x, model, algebra) == y


def test_gauge_equivalent_negative_certificate():
    model = two_line()
    algebra = make_artin(("t",), 2)
    x = ArtinVector.single((1,), "e1")
    y = x.scale(-1)
    result = gauge_equivalent(x, y, model, algebra)
    assert not result.equivalent
    assert result.order == 1
    assert result.monomial == (1,)
    assert result.residual.coeffs == {"e1": Fraction(-2)}


def test_gauge_equivalent_skips_settled_orders_without_acting_again(monkeypatch):
    # H^0 = 0, so a gauge element is fixed by its action; y - x starts at
    # order 3, then order 4 is left: one action before each solved order,
    # one to confirm
    model = h0_zero_model()
    algebra = make_artin(("t",), 7)
    x = ArtinVector.single((1,), "y")
    a = ArtinVector({((3,), "a"): Fraction(1, 2), ((4,), "b"): 3})
    y = gauge_act(a, x, model, algebra)
    calls = []
    act = dgla_module.gauge_act

    def spy(*args):
        calls.append(args[0])
        return act(*args)

    monkeypatch.setattr(dgla_module, "gauge_act", spy)
    result = gauge_equivalent(x, y, model, algebra)
    assert result.equivalent and result.witness == a
    assert calls == [ArtinVector(), ArtinVector({((3,), "a"): Fraction(1, 2)}), a]


def test_gauge_equivalent_rejects_non_mc():
    model = two_line()
    algebra = make_artin(("t",), 3)
    x = ArtinVector.single((1,), "e1")
    with pytest.raises(ValueError):
        gauge_equivalent(x, ArtinVector(), model, algebra)


def test_gauge_equivalent_rejects_a_differential_that_does_not_square_to_zero():
    # d a = b, d b = c; the zero elements are Maurer-Cartan, and the search
    # used to call them equivalent without looking at d
    space = GradedSpace([("a", 0), ("b", 1), ("c", 2)])
    model = Dgla(space, GradedMap(space, space, 1, {"a": {"b": 1}, "b": {"c": 1}}), {})
    with pytest.raises(NotAComplexError, match="d\\*d is nonzero on basis vector 'a'"):
        gauge_equivalent(ArtinVector(), ArtinVector(), model, make_artin(("t",), 3))


def test_gauge_equivalent_rejects_a_difference_that_is_not_closed():
    # d a = m, d w = z and [a, p] = w break Leibniz; the order-1 step gives
    # a = t a, then (t p - t m) - exp(t a) . t p is -w t^2, and d w != 0, so
    # it has no class in H^1
    space = GradedSpace([("a", 0), ("p", 1), ("m", 1), ("w", 1), ("z", 2)])
    d = GradedMap(space, space, 1, {"a": {"m": 1}, "w": {"z": 1}})
    model = Dgla(space, d, {("a", "p"): {"w": 1}})
    assert check_dgla(model).axiom == "leibniz"
    algebra = make_artin(("t",), 3)
    x = ArtinVector.single((1,), "p")
    y = ArtinVector({((1,), "p"): 1, ((1,), "m"): -1})
    with pytest.raises(ValueError, match="not a cocycle"):
        gauge_equivalent(x, y, model, algebra)
    old = preimage_gauge_equivalent(x, y, model, algebra)
    assert (old.equivalent, old.order, old.residual) == (False, 2, GradedVector({"w": -1}))


# ---------------------------------------------------------------------------
# Oracle for gauge_equivalent: the former loop, which reduced d: L^0 -> L^1
# with its own PreparedSolve and took each a_k as the preimage of the order-k
# difference with free variables zero.


def preimage_gauge_equivalent(x, y, dgla, algebra):
    source, target = dgla.space.names_of_degree(0), dgla.space.names_of_degree(1)
    prepared = linalg.PreparedSolve(d_rows(dgla.d, source, target), len(source))
    a = ArtinVector()
    while True:
        diff = y - gauge_act(a, x, dgla, algebra)
        if diff.is_zero():
            return GaugeResult(True, witness=a)
        order = diff.min_order()
        part = diff.order_part(order)
        for mono in monomials_present(part):
            vec = coefficient_vector(part, mono)
            sol = prepared.solve((-vec).to_dense(target))
            if sol is None:
                return GaugeResult(False, order=order, monomial=mono, residual=vec)
            a = a + ArtinVector({(mono, name): c for name, c in zip(source, sol)})


def seeded_h0_zero_model(rng):
    """d a = p x1, d b = q x2, [a, y] = c x1, [b, y] = c' x2 with seeded
    nonzero p, q, c, c': d is injective in degree 0, so H^0 = 0, and with
    nothing in degree 2 every degree 1 element is Maurer-Cartan."""
    p, q, c, c2 = (random_fraction(rng) for _ in range(4))
    space = GradedSpace([("a", 0), ("b", 0), ("x1", 1), ("x2", 1), ("y", 1)])
    d = GradedMap(space, space, 1, {"a": {"x1": p}, "b": {"x2": q}})
    return Dgla(space, d, {("a", "y"): {"x1": c}, ("b", "y"): {"x2": c2}})


def gauge_oracle_cases():
    """(model, algebra, x, y): seeded pairs on H^0 = 0 models, equivalent by
    construction or moved off that by one term, the three pairs on
    gl2 (x) Lambda(l) with theta = 0 that the search wrongly calls
    inequivalent, and the shipped mc_flow pair."""
    rng = random.Random(25)
    rings = [make_artin(("t",), 4), make_artin(("t",), 6), make_artin(("s", "t"), 4)]
    for _ in range(30):
        model = seeded_h0_zero_model(rng)
        algebra = rng.choice(rings)
        x = random_artin_vector(rng, GradedSpace([("x1", 1), ("x2", 1), ("y", 1)]), algebra, 3)
        a = random_artin_vector(rng, GradedSpace([("a", 0), ("b", 0)]), algebra, 3)
        y = gauge_act(a, x, model, algebra)
        yield model, algebra, x, y
        shift = ArtinVector.single(rng.choice(algebra.maximal_ideal), rng.choice(("x1", "y")))
        yield model, algebra, x, y + shift
    faults = matrix_wedge_dgla(2, GradedSpace([("l", 1)]), [[{}, {}], [{}, {}]])
    for a_name, x_name, n in (("E12", "E21^l", 3), ("E21", "E12^l", 3), ("E11", "E12^l", 4)):
        algebra = make_artin(("t",), n)
        x = ArtinVector.single((1,), x_name)
        yield faults, algebra, x, gauge_act(ArtinVector.single((1,), a_name), x, faults, algebra)
    (algebra, x), (_, y) = sample_kernel("mc_flow_x.json"), sample_kernel("mc_flow_y.json")
    yield sample_kernel("dgla_contractible.json"), algebra, x, y


def test_gauge_equivalent_matches_the_preimage_oracle():
    seen = {"equivalent": 0, "not equivalent": 0}
    for model, algebra, x, y in gauge_oracle_cases():
        got = gauge_equivalent(x, y, model, algebra)
        want = preimage_gauge_equivalent(x, y, model, algebra)
        fields = ("equivalent", "witness", "order", "monomial", "residual")
        assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
        for f in ("witness", "residual"):
            if getattr(want, f) is not None:
                assert list(getattr(got, f).coeffs.items()) == list(getattr(want, f).coeffs.items())
        if got.equivalent:
            assert gauge_act(got.witness, x, model, algebra) == y
        seen["equivalent" if got.equivalent else "not equivalent"] += 1
    assert min(seen.values()) >= 10, seen


# ---------------------------------------------------------------------------
# The per-dgla cohomology summary: built once, shared by every call, and the
# same answers whichever call reads a degree first.


def test_one_summary_is_shared_by_every_call_on_a_dgla(monkeypatch):
    built, prepared = [], []
    build, prepare = dgla_module.complex_cohomology, linalg.PreparedSolve

    def spy_build(space, d):
        built.append(build(space, d))
        return built[-1]

    class SpyPrepare(prepare):
        def __init__(self, *args):
            prepared.append(args)
            super().__init__(*args)

    monkeypatch.setattr(dgla_module, "complex_cohomology", spy_build)
    monkeypatch.setattr(linalg, "PreparedSolve", SpyPrepare)
    model, algebra = correction_model(), make_artin(("t",), 4)
    first = mc_solve(model, algebra)  # x t lifts, u t is blocked
    second = mc_solve(model, algebra, [ArtinVector.single((1,), "x", 2)])
    assert not gauge_equivalent(first.solutions[0], second.solutions[0], model, algebra)
    assert len(built) == 1
    assert first.cohomology is second.cohomology is built[0] is model.cohomology()
    # one transform per degree lifted, 2 by mc_solve and 1 by gauge_equivalent,
    # across the three calls; degree 1 was first read for its representatives
    assert len(prepared) == 2


def test_a_differential_that_does_not_square_to_zero_raises_on_every_call(monkeypatch):
    calls = []
    build = dgla_module.complex_cohomology

    def spy(space, d):
        calls.append(space)
        return build(space, d)

    monkeypatch.setattr(dgla_module, "complex_cohomology", spy)
    space = GradedSpace([("a", 0), ("b", 1), ("c", 2)])
    model = Dgla(space, GradedMap(space, space, 1, {"a": {"b": 1}, "b": {"c": 1}}), {})
    algebra, zero = make_artin(("t",), 3), ArtinVector()
    for call in (
        model.cohomology,
        model.cohomology,
        lambda: mc_solve(model, algebra),
        lambda: mc_solve(model, algebra),
        lambda: gauge_equivalent(zero, zero, model, algebra),
        lambda: gauge_equivalent(zero, zero, model, algebra),
    ):
        with pytest.raises(NotAComplexError, match="d\\*d is nonzero on basis vector 'a'"):
            call()
    assert len(calls) == 6


def fresh(model):
    """A new Dgla on model's data, its cohomology not read yet."""
    return Dgla(model.space, model.d, model.brackets)


def items(vector):
    return None if vector is None else list(vector.coeffs.items())


def mc_key(result):
    """Everything mc_solve returns, key order included."""
    return (
        [items(x) for x in result.directions],
        [(e.direction, e.order, e.monomial, e.coords, items(e.cocycle)) for e in result.events],
        [items(x) for x in result.solutions],
    )


def gauge_key(result):
    return (result.equivalent, result.order, result.monomial, items(result.witness), items(result.residual))


def summary_key(summary):
    return [
        (k, summary.dimension(k), [items(r) for r in summary.representatives(k)])
        for k in summary.degrees()
    ]


def read_order_cases():
    """(model, mc_solve calls, gauge_equivalent calls), each call a function
    of the dgla, on the shipped sample dglas, the Hitchin dglas of the two
    shipped pairs over the interval CDGA, seeded H^0 = 0 models and two
    models whose lifts need corrections or are blocked.  The
    gauge pairs are lifts of mc_solve, each against itself moved by a seeded
    degree 0 element and against the next lift."""
    rng = random.Random(27)
    interval = sample_kernel("cdga_interval.json")
    models = [sample_kernel("dgla_obstructed.json"), sample_kernel("dgla_contractible.json")]
    models += [
        build_hitchin_dgla(sample_kernel(name), interval)
        for name in ("hitchin_r2_zero.json", "hitchin_r2_nilpotent.json")
    ]
    models += [seeded_h0_zero_model(rng) for _ in range(4)]
    models += [correction_model(), correction_model(-1, 7, Fraction(2, 3))]
    rings = [make_artin(("t",), 5), make_artin(("s", "t"), 3)]
    for model in models:
        reps = fresh(model).cohomology().representatives(1)
        solves = [(algebra, None) for algebra in rings]
        solves += [
            (algebra, [random_direction(rng, model, algebra, reps) for _ in range(2)])
            for algebra in rings if reps
        ]
        zeros = GradedSpace([(n, 0) for n in model.space.names_of_degree(0)])
        gauges = []
        for algebra, directions in solves:
            lifts = [x for x in mc_solve(fresh(model), algebra, directions).solutions if x]
            for x, nxt in zip(lifts, lifts[1:] + lifts[:1]):
                a = random_artin_vector(rng, zeros, algebra, 2) if len(zeros) else ArtinVector()
                gauges += [(algebra, x, gauge_act(a, x, model, algebra)), (algebra, x, nxt)]
        if model.space.names == ("u", "v"):
            (algebra, x), (_, y) = sample_kernel("mc_flow_x.json"), sample_kernel("mc_flow_y.json")
            gauges.append((algebra, x, y))
        yield (
            model,
            [lambda g, a=a, ds=ds: mc_key(mc_solve(g, a, ds)) for a, ds in solves],
            [lambda g, a=a, x=x, y=y: gauge_key(gauge_equivalent(x, y, g, a)) for a, x, y in gauges],
        )


def test_the_shared_summary_answers_alike_in_every_read_order():
    seen = {"events": 0, "obstructed": 0, "equivalent": 0, "not equivalent": 0}
    for model, solves, gauges in read_order_cases():
        want_solves = [call(fresh(model)) for call in solves]
        want_gauges = [call(fresh(model)) for call in gauges]
        want_summary = summary_key(fresh(model).cohomology())
        for first in ("dimensions", "representatives", "gauge_equivalent", "mc_solve"):
            warm = fresh(model)
            summary = warm.cohomology()
            if first == "dimensions":
                summary.dimensions()
            elif first == "representatives":
                for k in summary.degrees():
                    summary.representatives(k)
            for _ in range(2):  # twice, the second time on a summary every call read
                if first == "mc_solve":
                    got_solves = [call(warm) for call in solves]
                got_gauges = [call(warm) for call in gauges]
                if first != "mc_solve":
                    got_solves = [call(warm) for call in solves]
                assert got_solves == want_solves, (first, model.space.names)
                assert got_gauges == want_gauges, (first, model.space.names)
            assert warm.cohomology() is summary
            assert summary_key(summary) == want_summary
        for _, events, _ in want_solves:
            seen["events"] += len(events)
            seen["obstructed"] += sum(1 for e in events if any(e[3]))
        for equivalent, *_ in want_gauges:
            seen["equivalent" if equivalent else "not equivalent"] += 1
    assert min(seen.values()) >= 10, seen


# ---------------------------------------------------------------------------
# Oracle for bracket_artin: the former kernel, which multiplied the monomials
# of every pair of terms before it looked the pair of names up.


def term_by_term_bracket_artin(dgla, algebra, x, y):
    terms = {}
    for (mx, ax), cx in x.coeffs.items():
        for (my, ay), cy in y.coeffs.items():
            mono = algebra.multiply_monomials(mx, my)
            if mono is None:
                continue
            vec = dgla.brackets.get((ax, ay))
            if vec is None:
                continue
            factor = cx * cy
            for name, c in vec.coeffs.items():
                accumulate(terms, (mono, name), factor * c)
    return ArtinVector.from_nonzero(terms)


def random_fraction(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 5)), rng.choice((1, 1, 2, 3)))


def random_bracket_dgla(rng):
    """A seeded table on random_space with fractional entries in any degree;
    about one entry in three has an explicit mirror that disagrees with it."""
    space = random_space(rng)
    names = space.names
    table = {}
    for a in names:
        for b in names:
            if (b, a) in table or rng.random() < 0.5:
                continue
            table[(a, b)] = {rng.choice(names): random_fraction(rng) for _ in range(rng.randint(1, 3))}
            if a != b and rng.random() < 0.35:
                table[(b, a)] = {n: c * random_fraction(rng) for n, c in table[(a, b)].items()}
    return Dgla(space, None, table)


def random_artin_vector(rng, space, algebra, terms):
    return ArtinVector({
        (rng.choice(algebra.maximal_ideal), rng.choice(space.names)): random_fraction(rng)
        for _ in range(terms)
    })


def test_bracket_artin_matches_the_term_by_term_oracle():
    rng = random.Random(24)
    rings = [make_artin(("t",), 5), make_artin(("s", "t"), 5), make_artin(("s", "t", "u"), 4)]
    seen = {"x is y": 0, "x != y": 0, "zero": 0, "nonzero": 0, "inconsistent mirror": 0}
    for _ in range(40):
        model = random_bracket_dgla(rng)
        table = model.brackets
        seen["inconsistent mirror"] += any(
            table[(b, a)] != vec.scale(-_sign(model.space.degree(a) * model.space.degree(b)))
            for (a, b), vec in table.items()
        )
        for algebra in rings:
            x = random_artin_vector(rng, model.space, algebra, rng.randint(1, 8))
            y = random_artin_vector(rng, model.space, algebra, rng.randint(1, 8))
            zero = ArtinVector()
            for label, u, v in (("x is y", x, x), ("x != y", x, y), ("x != y", y, x),
                                ("zero", zero, y), ("zero", x, zero), ("zero", zero, zero)):
                got = bracket_artin(model, algebra, u, v)
                assert got == term_by_term_bracket_artin(model, algebra, u, v)
                assert all(c != 0 and type(c) is Fraction for c in got.coeffs.values())
                seen[label] += 1
                seen["nonzero"] += bool(got)
    assert seen["nonzero"] >= 150 and seen["inconsistent mirror"] >= 20, seen


def test_mc_routines_match_with_the_term_by_term_bracket(monkeypatch):
    rng = random.Random(2024)
    rings = [make_artin(("t",), 6), make_artin(("s", "t"), 4), make_artin(("s", "t", "u"), 3)]
    outputs = []
    for model in (correction_model(), correction_model(-1, 7, Fraction(2, 3)), h0_zero_model()):
        reps = complex_cohomology(model.space, model.d).representatives(1)
        for algebra in rings:
            directions = [random_direction(rng, model, algebra, reps) for _ in range(3)]
            outputs.append((mc_solve, (model, algebra, None)))
            outputs.append((mc_solve, (model, algebra, directions)))
    for model in (h0_zero_model(), semidirect(), gl2()):
        for algebra in rings:
            a, b = (_random_degree0(rng, model, algebra) for _ in range(2))
            outputs.append((bch_product, (a, b, model, algebra)))
            if model.space.names_of_degree(1):
                for x in mc_solve(model, algebra).solutions:
                    outputs.append((gauge_act, (a, x, model, algebra)))

    def key(result):
        if isinstance(result, ArtinVector):
            return result
        events = [(e.direction, e.order, e.monomial, e.coords, e.cocycle) for e in result.events]
        return events, result.solutions

    grouped = [key(function(*args)) for function, args in outputs]
    calls = []

    def oracle(*args):
        calls.append(args)
        return term_by_term_bracket_artin(*args)

    monkeypatch.setattr(dgla_module, "bracket_artin", oracle)
    assert [key(function(*args)) for function, args in outputs] == grouped
    assert len(calls) >= 100
    events = [e for g in grouped if not isinstance(g, ArtinVector) for e in g[0]]
    lifts = [x for g in grouped if not isinstance(g, ArtinVector) for x in g[1] if x is not None]
    vectors = [g for g in grouped if isinstance(g, ArtinVector) and g]
    blocked = sum(any(coords) for _, _, _, coords, _ in events)
    assert blocked >= 5 and len(events) - blocked >= 5  # and corrected
    assert len(lifts) >= 10 and len(vectors) >= 10
