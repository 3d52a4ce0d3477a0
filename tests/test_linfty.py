"""Coderivation picture: codifferentials, morphisms, homotopies."""

import random
from fractions import Fraction

import pytest

from defcalc.artin import ArtinVector, make_artin
from defcalc.dgla import Dgla, check_dgla, gauge_act, mc_residual, mc_solve
from defcalc.graded import GradedMap, GradedSpace, GradedVector
from defcalc.linfty import (
    LInftyMorphism,
    LInftyStructure,
    PolyPath,
    abelian_homotopy_witness,
    basis_words,
    check_codifferential,
    check_linfty_morphism,
    coderivation_extend,
    linfty_from_dgla,
    linfty_mc_residual,
    normalize_word,
    pushforward_mc,
    shifted_degrees,
    verify_homotopy_witness,
)

from test_dgla import (
    MATRIX_UNITS,
    contractible,
    gl2,
    gl2_brackets,
    semidirect,
    two_line,
)

ONE = Fraction(1)


def test_shifted_degrees():
    model = two_line()
    sdeg = shifted_degrees(model.space)
    assert sdeg == {"e1": 0, "e2": 1}


def test_normalize_word():
    sdeg = {"a": 0, "p": 1, "q": 1}
    assert normalize_word(("a", "a"), sdeg) == (("a", "a"), 1)
    # repeated letter of odd shifted degree kills the word
    assert normalize_word(("p", "p"), sdeg) == (None, 0)
    # swapping two odd letters costs a sign
    assert normalize_word(("q", "p"), sdeg) == (("p", "q"), -1)
    # even letters sort before odd ones for free
    assert normalize_word(("p", "a"), sdeg) == (("a", "p"), 1)


def test_basis_words_frozen_count():
    model = two_line()
    words = basis_words(model.space, 3)
    assert words == [
        ("e1",),
        ("e2",),
        ("e1", "e1"),
        ("e1", "e2"),
        ("e1", "e1", "e1"),
        ("e1", "e1", "e2"),
    ]


def test_structure_construction_validation():
    model = two_line()
    with pytest.raises(ValueError):
        # q1 must raise shifted degree by one
        LInftyStructure(model.space, {1: {("e1",): {"e1": 1}}})
    with pytest.raises(ValueError):
        # symmetric keys carrying inconsistent values
        LInftyStructure(
            model.space,
            {2: {("e1", "e2"): {"e2": 1}, ("e2", "e1"): {"e2": -1}}},
        )


def test_linfty_from_dgla_signs():
    # q1 = -d
    structure = linfty_from_dgla(contractible())
    assert structure.bracket_value(1, ("u",)).coeffs == {"v": Fraction(-1)}
    # q2(x . y) = (-1)^deg(x) [x, y]
    structure2 = linfty_from_dgla(two_line())
    assert structure2.bracket_value(2, ("e1", "e1")).coeffs == {
        "e2": Fraction(-1)
    }


def test_codifferential_passes_for_dgla_structures():
    for model in (two_line(), contractible(), semidirect(), gl2()):
        structure = linfty_from_dgla(model)
        report = check_codifferential(structure, 4)
        assert report.ok, (report.axiom, report.witness)


def test_codifferential_fails_for_jacobi_mutant():
    table = gl2_brackets()
    table[("E11", "E12")] = {"E12": -1}
    table[("E12", "E11")] = {"E12": 1}
    space = GradedSpace([(n, 0) for n in MATRIX_UNITS])
    mutant = Dgla(space, GradedMap(space, space, 1, {}), table)
    structure = linfty_from_dgla(mutant)
    assert check_codifferential(structure, 2).ok
    report = check_codifferential(structure, 3)
    assert not report.ok
    assert len(report.witness) == 3


def test_codifferential_matches_dgla_check_random():
    # consistent mirror mutations keep antisymmetry, may break Jacobi
    rng = random.Random(19)
    space = GradedSpace([(n, 0) for n in MATRIX_UNITS])
    for _ in range(12):
        table = gl2_brackets()
        for _ in range(rng.randint(1, 2)):
            a = MATRIX_UNITS[rng.randrange(4)]
            b = MATRIX_UNITS[rng.randrange(4)]
            if (a, b) not in table or a == b:
                continue
            factor = rng.choice([-1, 2])
            table[(a, b)] = {
                k: factor * c for k, c in table[(a, b)].items()
            }
            table[(b, a)] = {
                k: factor * c for k, c in table[(b, a)].items()
            }
        model = Dgla(space, GradedMap(space, space, 1, {}), table)
        dgla_ok = check_dgla(model).ok
        structure = linfty_from_dgla(model)
        linfty_ok = check_codifferential(structure, 3).ok
        assert dgla_ok == linfty_ok


def test_coderivation_extension_degree_and_weight():
    structure = linfty_from_dgla(semidirect())
    sdeg = structure.sdeg
    for word in basis_words(structure.space, 4):
        total = sum(sdeg[n] for n in word)
        for out_word, coeff in coderivation_extend(
            structure, {word: ONE}
        ).items():
            assert coeff != 0
            assert sum(sdeg[n] for n in out_word) == total + 1
            # arity <= 2 brackets shrink the weight by at most one
            assert len(word) - 1 <= len(out_word) <= len(word)


def test_coderivation_extension_respects_permutation_signs():
    structure = linfty_from_dgla(gl2())
    sdeg = structure.sdeg
    rng = random.Random(29)
    words = [w for w in basis_words(structure.space, 3) if len(w) > 1]
    for _ in range(20):
        word = words[rng.randrange(len(words))]
        shuffled = list(word)
        rng.shuffle(shuffled)
        canonical, sign = normalize_word(tuple(shuffled), sdeg)
        assert canonical == word
        left = coderivation_extend(structure, {tuple(shuffled): ONE})
        right = {
            w: sign * c
            for w, c in coderivation_extend(structure, {word: ONE}).items()
        }
        assert left == right


def test_identity_morphism_passes():
    for model in (two_line(), semidirect()):
        structure = linfty_from_dgla(model)
        identity = LInftyMorphism(
            structure,
            structure,
            {1: {(n,): {n: 1} for n in model.space.names}},
        )
        report = check_linfty_morphism(identity, 4)
        assert report.ok, (report.axiom, report.witness)


def test_broken_morphism_fails():
    model = two_line()
    structure = linfty_from_dgla(model)
    skew = LInftyMorphism(
        structure,
        structure,
        {1: {("e1",): {"e1": 1}, ("e2",): {"e2": 2}}},
    )
    report = check_linfty_morphism(skew, 4)
    assert not report.ok


def test_linfty_residual_is_minus_dgla_residual():
    rng = random.Random(7)
    for model in (two_line(), semidirect(), gl2()):
        structure = linfty_from_dgla(model)
        algebra = make_artin(("t",), 4)
        names1 = model.space.names_of_degree(1)
        if not names1:
            continue
        for _ in range(10):
            x = ArtinVector(
                {
                    ((rng.randint(1, 3),), n): rng.randint(-2, 2)
                    for n in names1
                }
            )
            lhs = linfty_mc_residual(x, structure, algebra)
            rhs = mc_residual(x, model, algebra).scale(-1)
            assert lhs == rhs


def test_pushforward_identity():
    model = semidirect()
    structure = linfty_from_dgla(model)
    identity = LInftyMorphism(
        structure,
        structure,
        {1: {(n,): {n: 1} for n in model.space.names}},
    )
    algebra = make_artin(("t",), 3)
    x = ArtinVector.single((1,), "x", 3)
    assert pushforward_mc(identity, x, algebra) == x
    with pytest.raises(ValueError):
        # a degree 0 element is not a Maurer-Cartan input
        pushforward_mc(identity, ArtinVector.single((1,), "a"), algebra)


def test_abelian_homotopy_witness_roundtrip():
    space = GradedSpace([("m", 0), ("p", 1), ("q", 1)])
    d = GradedMap(space, space, 1, {"m": {"p": 1, "q": -1}})
    model = Dgla(space, d, {})
    structure = linfty_from_dgla(model)
    algebra = make_artin(("t",), 3)
    x = ArtinVector.single((1,), "p")
    y = ArtinVector.single((1,), "q")
    # x - y = t (p - q) = t d m, so the classes agree
    path = abelian_homotopy_witness(x, y, structure, algebra)
    assert path is not None
    report = verify_homotopy_witness(path, x, y, structure, algebra)
    assert report.ok, (report.axiom, report.witness)


def test_abelian_homotopy_witness_distinct_classes():
    space = GradedSpace([("m", 0), ("p", 1), ("q", 1)])
    d = GradedMap(space, space, 1, {"m": {"p": 1}})
    model = Dgla(space, d, {})
    structure = linfty_from_dgla(model)
    algebra = make_artin(("t",), 3)
    x = ArtinVector.single((1,), "p")
    y = ArtinVector.single((1,), "q")
    assert abelian_homotopy_witness(x, y, structure, algebra) is None


def test_abelian_homotopy_witness_rejects_brackets():
    structure = linfty_from_dgla(semidirect())
    algebra = make_artin(("t",), 3)
    x = ArtinVector.single((1,), "x")
    with pytest.raises(ValueError):
        abelian_homotopy_witness(x, x, structure, algebra)


def test_constant_path_verifies():
    structure = linfty_from_dgla(semidirect())
    algebra = make_artin(("t",), 3)
    x = ArtinVector.single((1,), "x")
    path = PolyPath({0: x}, {})
    report = verify_homotopy_witness(path, x, x, structure, algebra)
    assert report.ok


def test_endpoint_mismatch_reported():
    structure = linfty_from_dgla(semidirect())
    algebra = make_artin(("t",), 3)
    x = ArtinVector.single((1,), "x")
    path = PolyPath({0: x}, {})
    report = verify_homotopy_witness(
        path, x, x.scale(2), structure, algebra
    )
    assert not report.ok
    assert report.axiom == "endpoint-1"


def test_gauge_flow_homotopy_witness():
    model = semidirect()
    structure = linfty_from_dgla(model)
    algebra = make_artin(("t",), 3)
    a = ArtinVector.single((1,), "a")
    x = ArtinVector.single((1,), "x")
    y = gauge_act(a, x, model, algebra)
    # flow path s -> exp(s a) . x with dt component -a
    step = ArtinVector.single((2,), "y")
    path = PolyPath({0: x, 1: step}, {0: a.scale(-1)})
    report = verify_homotopy_witness(path, x, y, structure, algebra)
    assert report.ok, (report.axiom, report.witness)


def test_homotopy_path_mc_failure_detected():
    structure = linfty_from_dgla(two_line())
    algebra = make_artin(("t",), 3)
    x = ArtinVector.single((1,), "e1")
    # a straight line from x to 2x is not a Maurer-Cartan path here
    path = PolyPath({0: x, 1: x}, {})
    report = verify_homotopy_witness(
        path, x, x.scale(2), structure, algebra
    )
    assert not report.ok
    assert report.axiom in ("path-mc", "path-dt", "endpoint-0", "endpoint-1")


def test_pushforward_of_solver_output():
    model = semidirect()
    structure = linfty_from_dgla(model)
    identity = LInftyMorphism(
        structure,
        structure,
        {1: {(n,): {n: 1} for n in model.space.names}},
    )
    algebra = make_artin(("t",), 4)
    result = mc_solve(model, algebra)
    for x in result.solutions:
        assert pushforward_mc(identity, x, algebra) == x
