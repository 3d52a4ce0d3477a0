"""No float reaches a kernel output: every coefficient is a Fraction.

The library is run on the shipped samples (and the pushforward element of
the golden CLI cases), and each result is walked down to its leaves: no
leaf may be a float, and every coefficient of a GradedVector or an
ArtinVector must be exactly a Fraction.
"""

import os
import types
from fractions import Fraction

from defcalc.artin import ArtinVector, make_artin
from defcalc.cli import parse_document
from defcalc.dgla import (
    bch_product,
    check_cdga,
    check_dgla,
    gauge_act,
    gauge_equivalent,
    mc_solve,
    trivial_cdga,
)
from defcalc.graded import GradedVector, complex_cohomology
from defcalc.hitchin import (
    build_hitchin_morphism,
    complex_C_cohomology,
    hitchin_map,
    obstruction_kernel_map,
)
from defcalc.linfty import (
    basis_words,
    check_codifferential,
    check_linfty_morphism,
    linfty_from_dgla,
    linfty_mc_residual,
    pushforward_mc,
)

ROOT = os.path.join(os.path.dirname(__file__), "..")


def load(path):
    return parse_document(os.path.join(ROOT, path)).kernel


def leaves(obj, seen=None):
    """Every number and string reachable from obj, plus each coefficient."""
    seen = set() if seen is None else seen
    if isinstance(obj, (bool, int, float, Fraction, str)) or obj is None:
        yield obj
        return
    if id(obj) in seen or isinstance(obj, (types.FunctionType, type)):
        return
    seen.add(id(obj))
    if isinstance(obj, GradedVector):
        for c in obj.coeffs.values():
            assert type(c) is Fraction, (obj, c)
        items = [obj.coeffs]
    elif isinstance(obj, ArtinVector):
        for c in obj.terms.values():
            assert type(c) is Fraction, (obj, c)
        items = [obj.terms]
    elif isinstance(obj, dict):
        items = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple, set, frozenset)):
        items = list(obj)
    elif hasattr(obj, "__dict__"):
        items = list(vars(obj).values())
    else:
        items = []
    for item in items:
        yield from leaves(item, seen)


def assert_exact(*outputs):
    found = list(leaves(outputs))
    assert found
    assert not any(isinstance(v, float) for v in found)


def sample_outputs():
    algebra = make_artin(("t",), 4)
    for name in ("dgla_obstructed", "dgla_contractible"):
        dgla = load(f"sample_inputs/{name}.json")
        yield (
            check_dgla(dgla),
            complex_cohomology(dgla.space, dgla.d),
            mc_solve(dgla, algebra),
            check_codifferential(linfty_from_dgla(dgla), 3),
        )
    cdga = load("sample_inputs/cdga_interval.json")
    yield check_cdga(cdga), complex_cohomology(cdga.space, cdga.d)
    structure = load("sample_inputs/linfty_obstructed.json")
    yield structure.brackets, check_codifferential(structure, 4)

    dgla = load("sample_inputs/dgla_contractible.json")
    x_algebra, x = load("sample_inputs/mc_flow_x.json")
    _, y = load("sample_inputs/mc_flow_y.json")
    result = gauge_equivalent(x, y, dgla, x_algebra)
    a = ArtinVector.single((1,), "u", Fraction(2, 3))
    yield result, gauge_act(a, x, dgla, x_algebra), bch_product(a, a, dgla, x_algebra)

    element_algebra, element = load("tests/golden/inputs/mc_r2_t4.json")
    for pair_name in ("hitchin_r2_zero", "hitchin_r2_nilpotent"):
        pair = load(f"sample_inputs/{pair_name}.json")
        for cdga_model in (trivial_cdga(), cdga):
            morphism = build_hitchin_morphism(pair, cdga_model)
            source, target = morphism.source_dgla, morphism.target_dgla
            solved = mc_solve(source, make_artin(("t",), 3))
            yield (
                source,
                complex_C_cohomology(pair, cdga_model),
                solved,
                target.cohomology(),
                [
                    obstruction_kernel_map(e.cocycle, morphism)
                    for e in solved.primary_obstructions()
                ],
                [morphism.component(w) for w in basis_words(morphism.source.space, 2)],
                check_linfty_morphism(morphism, 2),
            )
            if pair_name == "hitchin_r2_zero" or cdga_model is not cdga:
                yield (
                    hitchin_map(element, morphism, element_algebra),
                    pushforward_mc(morphism, element, element_algebra),
                    linfty_mc_residual(element, morphism.source, element_algebra),
                )


def test_no_float_reaches_a_kernel_output():
    count = 0
    for outputs in sample_outputs():
        assert_exact(*outputs)
        count += 1
    assert count == 12
