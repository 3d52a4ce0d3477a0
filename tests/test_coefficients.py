"""Whole coefficients run as ints inside the kernel loops; every value that
leaves the kernel is a Fraction.

The first test runs every public routine that divides, and the four
checkers on broken inputs, on integer-only data, where the loops see ints
only: each coefficient of each returned GradedVector and ArtinVector must
be exactly a Fraction.  The next give the checkers non-whole structure
constants (1/2, -3/2, 2/3), so that ints and Fractions meet in one loop,
and require the reports of the full-scan oracles.  The last spies on
Fraction arithmetic inside the series over m_A, which run on int pairs.
"""

import random
from fractions import Fraction

import defcalc.dgla as dgla_module
from defcalc import linfty
from defcalc.artin import ArtinVector, _pairs, make_artin
from defcalc.dgla import (
    Cdga,
    Dgla,
    bch_product,
    check_cdga,
    check_dgla,
    gauge_act,
    mc_solve,
    tensor_cdga_dgla,
    trivial_cdga,
)
from defcalc.graded import GradedMap, GradedSpace, GradedVector, complex_cohomology
from defcalc.hitchin import (
    HitchinPair,
    build_hitchin_dgla,
    build_hitchin_morphism,
    hitchin_map,
    matrix_wedge_dgla,
)
from defcalc.linfty import (
    check_codifferential,
    check_linfty_morphism,
    linfty_from_dgla,
    pushforward_mc,
)

from test_dgla import (
    _report,
    full_scan_check_cdga,
    full_scan_check_dgla,
    gl2,
    interval_cdga,
    mutate_one_entry,
    semidirect,
    two_line,
)
from test_linfty import (
    _full,
    _full_report,
    _regenerated,
    corrupt_morphism,
    full_scan_check_codifferential,
    full_scan_check_linfty_morphism,
)

LETTER = GradedSpace([("l", 1)])


def coefficients(obj, seen=None):
    """Every coefficient of every GradedVector and ArtinVector reachable
    from obj."""
    seen = set() if seen is None else seen
    if isinstance(obj, GradedVector):
        yield from obj.coeffs.values()
        return
    if isinstance(obj, ArtinVector):
        yield from obj.terms.values()
        return
    if isinstance(obj, (str, int, Fraction)) or obj is None or id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, dict):
        items = list(obj.values())
    elif isinstance(obj, (list, tuple, set, frozenset)):
        items = list(obj)
    elif hasattr(obj, "__dict__"):
        items = list(vars(obj).values())
    else:
        items = []
    for item in items:
        yield from coefficients(item, seen)


def artin(*terms):
    """An ArtinVector from (exponent of t, name, integer coefficient)."""
    return ArtinVector({((e,), name): c for e, name, c in terms})


def scaled_arity(morphism, arity, factor):
    return _regenerated(
        morphism,
        lambda k, w: morphism.component(w).scale(factor if k == arity else 1),
    )


def integer_outputs():
    """(label, output) of each dividing routine and each failing checker,
    on inputs whose every coefficient is an integer."""
    t4 = make_artin(("t",), 4)
    nilpotent = HitchinPair(2, LETTER, [[{}, {"l": 1}], [{}, {}]])
    hitchin = build_hitchin_dgla(nilpotent, interval_cdga())
    yield "mc_solve", mc_solve(two_line(), t4)
    yield "mc_solve hitchin", mc_solve(hitchin, make_artin(("t",), 3))
    yield "complex_cohomology", complex_cohomology(hitchin.space, hitchin.d)

    # gl2 (x) Lambda(l) with theta = 0: every degree 1 element is Maurer-Cartan
    flat = matrix_wedge_dgla(2, LETTER, [[{}, {}], [{}, {}]])
    a = artin((1, "E11", 1), (1, "E12", 2), (2, "E21", -1))
    x = artin((1, "E12^l", 1), (1, "E21^l", 3), (2, "E11^l", -2))
    yield "gauge_act", gauge_act(a, x, flat, t4)
    b = artin((1, "E21", 1), (2, "E22", 3))
    yield "bch_product", bch_product(a, b, gl2(), t4)

    morphism = build_hitchin_morphism(nilpotent, trivial_cdga())
    y = artin((1, "1*E12^l", 1), (1, "1*E21^l", 2), (2, "1*E11^l", -1))
    yield "pushforward_mc", pushforward_mc(morphism, y, t4)
    yield "hitchin_map", hitchin_map(y, morphism, t4)

    # failing witnesses: one bracket, product or arity doubled
    brackets = dict(gl2().brackets)
    brackets[("E11", "E12")] = brackets[("E11", "E12")].scale(2)
    del brackets[("E12", "E11")]
    broken = Dgla(gl2().space, gl2().d, brackets)
    yield "check_dgla", check_dgla(broken)
    yield "check_codifferential", check_codifferential(linfty_from_dgla(broken), 3)
    yield "check_linfty_morphism", check_linfty_morphism(scaled_arity(morphism, 2, 2), 3)
    # x y = xy + x in Q[x, y] / (x, y)^3 breaks (x y) y = x (y y)
    plane = GradedSpace([("1", 0), ("x", 0), ("y", 0), ("xx", 0), ("xy", 0), ("yy", 0)])
    products = {("x", "x"): {"xx": 1}, ("x", "y"): {"xy": 1, "x": 1}, ("y", "y"): {"yy": 1}}
    yield "check_cdga", check_cdga(Cdga(plane, None, products, "1"))


def test_public_values_are_fractions_on_integer_inputs():
    labels = []
    for label, output in integer_outputs():
        if label.startswith("check_"):
            assert not output.ok and output.value, label
        values = list(coefficients(output))
        assert values, label
        assert all(type(c) is Fraction for c in values), (label, values)
        labels.append(label)
    assert len(labels) == 11


# ---------------------------------------------------------------------------
# Ints and Fractions in one loop: the checkers against the full scans.


def rescaled_fat_point():
    """The Kaehler forms of Q[x]/(x^3) on the basis 1, x, X2 = 2 x^2, dx,
    XDX = 3/2 x dx: x x = 1/2 X2, x dx = 2/3 XDX, d X2 = 8/3 XDX."""
    space = GradedSpace([("1", 0), ("x", 0), ("X2", 0), ("dx", 1), ("XDX", 1)])
    d = GradedMap(space, space, 1, {"x": {"dx": 1}, "X2": {"XDX": Fraction(8, 3)}})
    products = {("x", "x"): {"X2": Fraction(1, 2)}, ("x", "dx"): {"XDX": Fraction(2, 3)}}
    return Cdga(space, d, products, "1")


def rational_pair():
    return HitchinPair(
        2, LETTER, [[{"l": Fraction(1, 2)}, {"l": Fraction(-3, 2)}], [{}, {"l": Fraction(2, 3)}]]
    )


def rescale_one(table, rng, factors=(Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3))):
    """Scale one entry of a completed table by a non-whole factor and drop
    its mirror, which the constructor completes again."""
    table = dict(table)
    a, b = rng.choice(sorted(table))
    vec = table.pop((a, b)).scale(rng.choice(factors))
    table.pop((b, a), None)
    table[(a, b)] = vec
    return table


def test_checkers_on_mixed_coefficients_match_full_scans():
    rng = random.Random(1032)
    cdga = rescaled_fat_point()
    assert _report(check_cdga(cdga)) == full_scan_check_cdga(cdga) == (True, None, None, None)
    dgla = build_hitchin_dgla(rational_pair(), cdga)
    assert _report(check_dgla(dgla)) == full_scan_check_dgla(dgla) == (True, None, None, None)
    axioms = set()
    for _ in range(12):
        for table in (
            rescale_one({k: v for k, v in cdga.products.items() if cdga.unit not in k}, rng),
            mutate_one_entry(cdga.space, cdga.products, rng, cdga.unit),
        ):
            mutant = Cdga(cdga.space, cdga.d, table, cdga.unit)
            expected = full_scan_check_cdga(mutant)
            assert _report(check_cdga(mutant)) == expected
            axioms.add(expected[1])
    for _ in range(6):
        mutant = Dgla(dgla.space, dgla.d, rescale_one(dgla.brackets, rng))
        expected = full_scan_check_dgla(mutant)
        assert _report(check_dgla(mutant)) == expected
        axioms.add(expected[1])
    assert {"associativity", "jacobi", "leibniz"} <= axioms


def test_coalgebra_checkers_on_mixed_coefficients_match_full_scans():
    rng = random.Random(1033)
    outcomes = set()
    semi = semidirect()
    inner = Dgla(semi.space, semi.d, {("a", "x"): {"y": Fraction(-3, 2)}})
    model = tensor_cdga_dgla(rescaled_fat_point(), inner)
    mutants = [Dgla(model.space, model.d, rescale_one(model.brackets, rng)) for _ in range(5)]
    for dgla in [model] + mutants:
        structure = linfty_from_dgla(dgla)
        expected = full_scan_check_codifferential(structure, 3)
        assert _full_report(check_codifferential(structure, 3)) == expected
        outcomes.add(("codifferential", expected[0]))
    morphism = build_hitchin_morphism(rational_pair(), rescaled_fat_point())
    assert _full_report(check_linfty_morphism(morphism, 3)) == _full(True)
    outcomes.add(("morphism", True))
    mutants = [scaled_arity(morphism, 2, Fraction(2, 3))]
    mutants += [corrupt_morphism(morphism, rng) for _ in range(4)]
    for mutant in mutants:
        expected = full_scan_check_linfty_morphism(mutant, 3)
        assert _full_report(check_linfty_morphism(mutant, 3)) == expected
        outcomes.add(("morphism", expected[0]))
    assert outcomes == {(check, ok) for check in ("codifferential", "morphism") for ok in (True, False)}


# ---------------------------------------------------------------------------
# Every value of a Maurer-Cartan series is an int pair.

FRACTION_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__",
)


def test_maurer_cartan_series_do_no_fraction_arithmetic(monkeypatch):
    """On pair inputs and non-whole structure constants, with the tables
    built and the component cache warm, linfty's series (bracket values,
    pushforward values, and bracket values after a head), dgla's gauge
    series and BCH call no Fraction arithmetic.  Building Fraction(n, d)
    in artin._vector, where a value leaves, is not arithmetic."""
    t5 = make_artin(("t",), 5)
    morphism = build_hitchin_morphism(rational_pair(), rescaled_fat_point())
    model, source = morphism.source_dgla, morphism.source
    degree = model.space.degree
    ones = [n for n in model.space.names if degree(n) == 1]
    zeros = [n for n in model.space.names if degree(n) == 0]
    rng = random.Random(3704)

    def element(names, count):
        return ArtinVector({
            ((rng.randint(1, 2),), rng.choice(names)):
                Fraction(rng.choice((-3, 1, 2)), rng.choice((1, 3, 7)))
            for _ in range(count)
        })

    x, a, b = element(ones, 4), element(zeros, 3), element(zeros, 3)
    xp, ap = _pairs(x.coeffs), _pairs(a.coeffs)
    head = {(mono, (name,)): c for (mono, name), c in _pairs(element(zeros, 2).coeffs).items()}
    runs = {
        "bracket values": lambda: linfty._power_series(
            xp, t5, source.sdeg, lambda word: source.bracket_value(len(word), word)),
        "pushforward values": lambda: linfty._power_series(
            xp, t5, source.sdeg, morphism.component, limit=morphism.max_weight),
        "headed bracket series": lambda: linfty._bracket_series(xp, source, t5, head),
        "gauge series": lambda: dgla_module._gauge_pairs(ap, xp, model, t5),
        "bch_product": lambda: bch_product(a, b, model, t5),
    }
    want = {label: run() for label, run in runs.items()}  # builds tables, warms the cache
    assert all(want.values()), want
    calls = []
    for name in FRACTION_ARITHMETIC:
        def spy(*args, _name=name, _method=getattr(Fraction, name)):
            calls.append(_name)
            return _method(*args)

        monkeypatch.setattr(Fraction, name, spy)
    assert Fraction(1, 3) - Fraction(1, 2) == Fraction(-1, 6) and calls == ["__sub__"]
    calls.clear()
    got = {}
    for label, run in runs.items():
        got[label] = run()
        assert not calls, (label, calls)
    monkeypatch.undo()
    assert got == want
