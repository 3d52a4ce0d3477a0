"""Seeded fuzzing of the library's public constructors and entry points.

Each run takes one valid call, applies one mutation (drop, duplicate, rekey
or a replacement by a float, bool, string, negative, null, empty list, huge
int or a plain int) somewhere in its plain-data arguments, and makes the
call.  The library may accept the input or reject it, but only with a
ValueError or a TypeError; any other exception is a fault.  Library objects
that a call needs besides its data (a fixed pair, morphism or algebra) are
built once and never mutated.
"""

import copy
import random

import pytest

from defcalc import (
    ArtinAlgebra,
    ArtinVector,
    Cdga,
    Dgla,
    GradedMap,
    GradedSpace,
    GaugeResult,
    GradedVector,
    HitchinPair,
    LInftyMorphism,
    LInftyStructure,
    PolyPath,
    artin_multiply,
    bch_product,
    bracket_artin,
    build_hitchin_morphism,
    check_cdga,
    check_codifferential,
    check_dgla,
    check_linfty_morphism,
    coderivation_extend,
    complex_cohomology,
    g_coefficient,
    gauge_act,
    gauge_equivalent,
    hitchin_map,
    hom_dgla,
    homotopy_from_gauge,
    koszul_sign,
    make_artin,
    matrix_wedge_dgla,
    mc_residual,
    mc_solve,
    morphism_extend,
    obstruction_kernel_map,
    pushforward_mc,
    tensor_cdga_dgla,
    trivial_cdga,
    validate_artin_vector,
)
from defcalc.linfty import pushforward_series

SEED = 20261019
RUNS = 3000

L_BASIS = [("l1", 1), ("l2", 1)]
PAIR = HitchinPair(2, GradedSpace(L_BASIS), [[{}, {}], [{}, {}]])
CDGA = trivial_cdga()
MORPHISM = build_hitchin_morphism(PAIR, CDGA)
T3 = make_artin(("t",), 3)
# a Maurer-Cartan element of the pair's dgla: y t with dy = 0, [y, y] = 0
MC_TERMS = {((1,), "1*E12^l1"): 1}

# an L-infinity structure with q_1(x) = y and q_2(x x) = y
LINFTY_BASIS = [("x", 1), ("y", 2)]
LINFTY_BRACKETS = {1: {("x",): {"y": 1}}, 2: {("x", "x"): {"y": 1}}}
LINFTY_STRUCTURE = LInftyStructure(GradedSpace(LINFTY_BASIS), LINFTY_BRACKETS)
LINFTY_IDENTITY_COMPONENTS = {1: {("x",): {"x": 1}, ("y",): {"y": 1}}}
LINFTY_IDENTITY = LInftyMorphism(LINFTY_STRUCTURE, LINFTY_STRUCTURE, LINFTY_IDENTITY_COMPONENTS)

# a small dgla: d a = b, [a, c] = b, one degree-0 name for the gauge action
BASIS = [("z", 0), ("a", 1), ("c", 1), ("b", 2)]
D_COLS = {"a": {"b": 1}}
BRACKETS = {("a", "c"): {"b": 1}, ("z", "c"): {"c": 1}}


def space_map(basis, columns, degree=1):
    space = GradedSpace(basis)
    return space, GradedMap(space, space, degree, columns)


def make_dgla(basis, columns, brackets):
    space, d = space_map(basis, columns)
    return Dgla(space, d, brackets)


def call_dgla(basis, columns, brackets):
    check_dgla(make_dgla(basis, columns, brackets))


def call_cdga(basis, columns, products, unit):
    space, d = space_map(basis, columns)
    cdga = Cdga(space, d, products, unit)
    check_cdga(cdga)
    tensor_cdga_dgla(cdga, make_dgla(BASIS, D_COLS, BRACKETS))


def call_lift(basis, columns, degree, vector):
    summary = complex_cohomology(*space_map(basis, columns))
    summary.lift(degree, GradedVector(vector))


def call_mc_solve(basis, columns, brackets, variables, truncation):
    mc_solve(make_dgla(basis, columns, brackets), make_artin(variables, truncation))


def call_gauge(basis, columns, brackets, x_terms, y_terms):
    dgla = make_dgla(basis, columns, brackets)
    gauge_equivalent(ArtinVector(x_terms), ArtinVector(y_terms), dgla, T3)


# an abelian dgla with d m = p - q: t p and t q are gauge equivalent
LINE_BASIS = [("m", 0), ("p", 1), ("q", 1)]
LINE_D = {"m": {"p": 1, "q": -1}}


def call_homotopy(basis, columns, x_terms, y_terms):
    dgla = make_dgla(basis, columns, {})
    x = ArtinVector(x_terms)
    result = gauge_equivalent(x, ArtinVector(y_terms), dgla, T3)
    homotopy_from_gauge(result, x, dgla, T3)


def call_gauge_act(a_terms, b_terms, x_terms):
    dgla = make_dgla(BASIS, D_COLS, BRACKETS)
    a, b = ArtinVector(a_terms), ArtinVector(b_terms)
    gauge_act(bch_product(a, b, dgla, T3), ArtinVector(x_terms), dgla, T3)


def call_linfty(basis, brackets, weight):
    check_codifferential(LInftyStructure(GradedSpace(basis), brackets), weight)


def call_linfty_morphism(components, weight):
    source = LInftyStructure(GradedSpace(LINFTY_BASIS), LINFTY_BRACKETS)
    check_linfty_morphism(LInftyMorphism(source, source, components), weight)


def call_hitchin_pair(rank, l_basis, theta):
    HitchinPair(rank, GradedSpace(l_basis), theta)
    matrix_wedge_dgla(rank, GradedSpace(l_basis), theta)


def call_artin_vector(terms):
    x = ArtinVector(terms)
    hitchin_map(x, MORPHISM, T3)
    pushforward_mc(MORPHISM, x, T3)


# (name, function, valid positional arguments as plain data)
CALLS = [
    ("GradedSpace", GradedSpace, [BASIS]),
    ("GradedVector", GradedVector, [{"a": 1, "b": "1/2"}]),
    ("GradedMap", space_map, [BASIS, D_COLS, 1]),
    ("Dgla", call_dgla, [BASIS, D_COLS, BRACKETS]),
    ("Cdga", call_cdga, [[("1", 0), ("w", 1)], {}, {("w", "w"): {}}, "1"]),
    ("hom_dgla", lambda basis, columns: hom_dgla(*space_map(basis, columns)),
     [[("u", 0), ("v", 1)], {"u": {"v": 1}}]),
    ("lift", call_lift, [BASIS, D_COLS, 1, {"c": 1}]),
    ("koszul_sign", koszul_sign, [[2, 1, 3], [1, 1, 0]]),
    ("ArtinAlgebra", ArtinAlgebra, [("s", "t"), [(0, 0), (1, 0), (0, 1)]]),
    ("make_artin", make_artin, [("s", "t"), 3]),
    ("mc_solve", call_mc_solve, [BASIS, D_COLS, BRACKETS, ["t"], 4]),
    ("gauge_equivalent", call_gauge,
     [BASIS, D_COLS, BRACKETS, {((1,), "c"): 1}, {((1,), "c"): 1, ((2,), "c"): 1}]),
    ("homotopy_from_gauge", call_homotopy,
     [LINE_BASIS, LINE_D, {((1,), "p"): 1}, {((1,), "q"): 1}]),
    ("gauge_act", call_gauge_act, [{((1,), "z"): 1}, {((2,), "z"): 2}, {((1,), "c"): 1}]),
    ("LInftyStructure", call_linfty, [LINFTY_BASIS, LINFTY_BRACKETS, 3]),
    ("LInftyMorphism", call_linfty_morphism,
     [{1: {("x",): {"x": 1}, ("y",): {"y": 1}}}, 3]),
    ("HitchinPair", call_hitchin_pair,
     [2, L_BASIS, [[{}, {"l1": 1, "l2": "1/2"}], [{}, {}]]]),
    ("g_coefficient",
     lambda k, args: g_coefficient(k, args, PAIR, CDGA),
     [2, [({"1": 1}, [[{"l1": 1}, {}], [{}, {"l2": 1}]]), ({"1": 1}, [[{}, {}], [{"l1": 1}, {}]])]]),
    ("obstruction_kernel_map",
     lambda vector: obstruction_kernel_map(GradedVector(vector), MORPHISM),
     [{"1*E11^l1^l2": 1, "1*E21^l1^l2": "2/3"}]),
    ("ArtinVector", call_artin_vector, [MC_TERMS]),
    ("validate_artin_vector",
     lambda terms, degree: validate_artin_vector(ArtinVector(terms), T3, GradedSpace(BASIS), degree),
     [{((1,), "a"): 1, ((2,), "c"): 3}, 1]),
    ("PolyPath", PolyPath,
     [{0: ArtinVector({((1,), "c"): 1}), 1: ArtinVector()}, {0: ArtinVector()}]),
]

REPLACEMENTS = [0.5, True, "x", -1, None, [], 10**12, 5]
NEW_KEYS = ["zz", "ab", ("zz", "a"), ("a",), 0, None, ((9,), "c")]
MUTATIONS = ["drop", "duplicate", "rekey", "replace"]


def nodes(value, path=()):
    """Every (path, value) in a tree of dicts, lists and tuples."""
    yield path, value
    if isinstance(value, dict):
        for key, child in value.items():
            yield from nodes(child, path + (key,))
    elif isinstance(value, (list, tuple)):
        for pos, child in enumerate(value):
            yield from nodes(child, path + (pos,))


def rebuild(value, path, change):
    """A copy of value with the node at path replaced by change(node)."""
    if not path:
        return change(value)
    head, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {**value, head: rebuild(value[head], rest, change)}
    items = list(value)
    items[head] = rebuild(items[head], rest, change)
    return type(value)(items)


def mutate(args, rng):
    """A copy of the argument list with one mutation, and its name."""
    name = rng.choice(MUTATIONS)
    every = list(nodes(args))
    if name == "replace":
        path, _ = rng.choice(every[1:])
        new = copy.deepcopy(rng.choice(REPLACEMENTS))
        return rebuild(args, path, lambda _: new), name
    kind = dict if name == "rekey" else (dict, list, tuple)
    if name == "duplicate":
        kind = (list, tuple)
    paths = [p for p, n in every if isinstance(n, kind) and n]
    if not paths:
        return mutate(args, rng)
    path = rng.choice(paths)
    pick = rng.random()

    def change(node):
        if isinstance(node, dict):
            key = list(node)[int(pick * len(node))]
            rest = {k: v for k, v in node.items() if k != key}
            if name == "rekey":
                rest[NEW_KEYS[int(pick * 7919) % len(NEW_KEYS)]] = node[key]
            return rest
        items = list(node)
        pos = int(pick * len(items))
        if name == "drop":
            del items[pos]
        else:
            items.insert(pos, copy.deepcopy(items[pos]))
        return type(node)(items)

    return rebuild(args, path, change), name


def fuzz_cases(seed, runs):
    rng = random.Random(seed)
    for _ in range(runs):
        label, function, args = rng.choice(CALLS)
        mutated, name = mutate(args, rng)
        yield label, function, mutated, name


def two_names():
    return GradedSpace([("a", 0), ("b", 1)])


# Calls that once raised KeyError, IndexError or AttributeError, or, for the
# unknown form name, the string keys and word, the falsy non-mappings, the
# bool weights and power, the support outside the source, the unknown
# letter of a morphism_extend word, the string coalgebra words, the bool
# coalgebra coefficient, the bool and negative max_weight, the table entry
# above max_weight, the letter of L outside degree 1 and the monomials of the
# wrong arity, which zip truncated, returned as if valid; a float or string
# max_weight failed only once the morphism was used.
FINDINGS = {
    "unknown name in a kernel-map cocycle": (
        lambda: obstruction_kernel_map(GradedVector({"nope": 1}), MORPHISM), ValueError),
    "unknown name in a lifted cocycle": (
        lambda: complex_cohomology(*space_map(BASIS, D_COLS)).lift(1, GradedVector({"zz": 1})),
        ValueError),
    "1 x 1 matrix for a rank-2 pair": (
        lambda: g_coefficient(1, [({"1": 1}, [[{}]])], PAIR, CDGA), ValueError),
    "1 x 1 theta for a rank-2 matrix_wedge_dgla": (
        lambda: matrix_wedge_dgla(2, GradedSpace(L_BASIS), [[{}]]), ValueError),
    "form over an unknown CDGA name": (
        lambda: g_coefficient(1, [({"zz": 1}, [[{"l1": 1}, {}], [{}, {}]])], PAIR, CDGA),
        ValueError),
    "int as a theta entry": (
        lambda: HitchinPair(2, GradedSpace([("l", 1)]), [[{"l": 1}, 5], [{}, {}]]), TypeError),
    "int as a product value": (
        lambda: Cdga(two_names(), None, {("a", "b"): 3}, "a"), TypeError),
    "string as a bracket key": (
        lambda: Dgla(two_names(), None, {"ab": {"b": 1}}), ValueError),
    "int as a path coefficient": (lambda: PolyPath({0: 5}, {}), TypeError),
    "string as a bracket word": (
        lambda: LInftyStructure(GradedSpace(LINFTY_BASIS), {2: {"xx": {"y": 1}}}), TypeError),
    "string as a term key": (lambda: ArtinVector({"ab": 1}), TypeError),
    "string as make_artin variables": (lambda: make_artin("ts", 3), TypeError),
    "string as ArtinAlgebra variables": (
        lambda: ArtinAlgebra("t", [(0,), (1,)]), TypeError),
    "zero as a vector": (lambda: GradedVector(0), TypeError),
    "empty string as a vector": (lambda: GradedVector(""), TypeError),
    "empty list as an Artin vector": (lambda: ArtinVector([]), TypeError),
    "zero as map columns": (lambda: GradedMap(two_names(), two_names(), 1, 0), TypeError),
    "zero as a product table": (lambda: Cdga(two_names(), None, 0, "a"), TypeError),
    "zero as a theta entry": (
        lambda: HitchinPair(1, GradedSpace([("l", 1)]), [[0]]), TypeError),
    "bool as a codifferential weight": (
        lambda: check_codifferential(LInftyStructure(GradedSpace(LINFTY_BASIS), LINFTY_BRACKETS), True),
        TypeError),
    "bool as a morphism weight": (lambda: check_linfty_morphism(MORPHISM, True), TypeError),
    "bool as a trace power": (
        lambda: g_coefficient(True, [({"1": 1}, [[{"l1": 1}, {}], [{}, {}]])], PAIR, CDGA),
        TypeError),
    "plain dict into mc_residual": (
        lambda: mc_residual({((1,), "c"): 1}, make_dgla(BASIS, D_COLS, BRACKETS), T3), TypeError),
    "plain dict as the gauge element": (
        lambda: gauge_act({((1,), "z"): 1}, ArtinVector(), make_dgla(BASIS, D_COLS, BRACKETS), T3),
        TypeError),
    "plain dict acted on by gauge_act": (
        lambda: gauge_act(ArtinVector(), {((1,), "c"): 1}, make_dgla(BASIS, D_COLS, BRACKETS), T3),
        TypeError),
    "plain dict into bch_product": (
        lambda: bch_product(
            {((1,), "z"): 1}, ArtinVector(), make_dgla(BASIS, D_COLS, BRACKETS), T3),
        TypeError),
    "plain dict as the first bracket_artin argument": (
        lambda: bracket_artin(make_dgla(BASIS, D_COLS, BRACKETS), T3, {((1,), "c"): 1}, ArtinVector()),
        TypeError),
    "plain dict as the second bracket_artin argument": (
        lambda: bracket_artin(make_dgla(BASIS, D_COLS, BRACKETS), T3, ArtinVector(), {((1,), "c"): 1}),
        TypeError),
    "plain dict into gauge_equivalent": (
        lambda: gauge_equivalent(
            {((1,), "c"): 1}, ArtinVector(), make_dgla(BASIS, D_COLS, BRACKETS), T3),
        TypeError),
    "plain dict as an mc_solve direction": (
        lambda: mc_solve(make_dgla(BASIS, D_COLS, BRACKETS), T3, [{((1,), "c"): 1}]), TypeError),
    "name outside the source in a support": (
        lambda: LInftyMorphism(
            MORPHISM.source, MORPHISM.target, {}, 1, support=[*MORPHISM.support, "zz"]),
        ValueError),
    "string of source letters as a support": (
        lambda: check_linfty_morphism(
            LInftyMorphism(
                LINFTY_STRUCTURE, LINFTY_STRUCTURE, LINFTY_IDENTITY_COMPONENTS, support="xy"),
            2),
        TypeError),
    "string with a non-letter as a support": (
        lambda: LInftyMorphism(
            LINFTY_STRUCTURE, LINFTY_STRUCTURE, LINFTY_IDENTITY_COMPONENTS, support="xz"),
        TypeError),
    "unknown name in a coderivation_extend word": (
        lambda: coderivation_extend(MORPHISM.source, {("zz",): 1}), ValueError),
    "unknown name in a morphism_extend word": (
        lambda: morphism_extend(MORPHISM, {("zz",): 1}), ValueError),
    "string as a coderivation_extend word": (
        lambda: coderivation_extend(LINFTY_STRUCTURE, {"x": 1}), TypeError),
    "string as a morphism_extend word": (
        lambda: morphism_extend(LINFTY_IDENTITY, {"xy": 1}), TypeError),
    "bool as a coalgebra coefficient": (
        lambda: coderivation_extend(LINFTY_STRUCTURE, {("x",): True}), TypeError),
    "table entry above max_weight": (
        lambda: LInftyMorphism(
            LINFTY_STRUCTURE, LINFTY_STRUCTURE,
            {**LINFTY_IDENTITY_COMPONENTS, 2: {("x", "x"): {"x": 1}}}, 1),
        ValueError),
    "letter of L outside degree 1": (
        lambda: HitchinPair(2, GradedSpace([("l", 2)]), [[{}, {}], [{}, {}]]), ValueError),
    "bool as a morphism max_weight": (
        lambda: LInftyMorphism(LINFTY_STRUCTURE, LINFTY_STRUCTURE, {}, True),
        TypeError),
    "negative morphism max_weight": (
        lambda: LInftyMorphism(LINFTY_STRUCTURE, LINFTY_STRUCTURE, {}, -1),
        ValueError),
    "float as a morphism max_weight": (
        lambda: LInftyMorphism(LINFTY_STRUCTURE, LINFTY_STRUCTURE, {}, 1.5),
        TypeError),
    "string as a morphism max_weight": (
        lambda: LInftyMorphism(LINFTY_STRUCTURE, LINFTY_STRUCTURE, {}, "2"),
        TypeError),
    "plain dict lifted": (
        lambda: complex_cohomology(*space_map(BASIS, D_COLS)).lift(1, {"c": 1}), TypeError),
    "plain dict projected": (
        lambda: complex_cohomology(*space_map(BASIS, D_COLS)).project(1, {"c": 1}), TypeError),
    "plain dict into obstruction_kernel_map": (
        lambda: obstruction_kernel_map({"1*E11^l1": 1}, MORPHISM), TypeError),
    "monomial of the wrong arity in bracket_artin": (
        lambda: bracket_artin(
            make_dgla(BASIS, D_COLS, BRACKETS), T3,
            ArtinVector.single((1,), "a"), ArtinVector.single((1, 5), "c")),
        ValueError),
    "monomial of the wrong arity multiplied": (
        lambda: T3.multiply_monomials((1,), (1, 5)), ValueError),
    "monomial of the wrong arity in artin_multiply": (
        lambda: artin_multiply(T3, {(1,): 1}, {(1, 5): 1}), ValueError),
    "monomial of the wrong arity pushed forward": (
        lambda: pushforward_series(LINFTY_IDENTITY, ArtinVector({((1, 5), "x"): 1}), T3),
        ValueError),
    "plain dict as the start of a homotopy": (
        lambda: homotopy_from_gauge(
            GaugeResult(True, witness=ArtinVector()), {((1,), "p"): 1},
            make_dgla(LINE_BASIS, LINE_D, {}), T3),
        TypeError),
}


def test_none_is_the_zero_vector_where_documented():
    assert GradedVector(None) == GradedVector() and ArtinVector(None) == ArtinVector()
    assert GradedMap(two_names(), two_names(), 1, None).is_zero()
    l_space = GradedSpace([("l", 1)])
    pair = HitchinPair(2, l_space, [[None, {"l": 1}], [None, None]])
    assert pair.theta == HitchinPair(2, l_space, [[{}, {"l": 1}], [{}, {}]]).theta


@pytest.mark.parametrize("call, error", FINDINGS.values(), ids=list(FINDINGS))
def test_fuzzer_findings_are_rejected(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("result, error", [
    (GaugeResult(False), ValueError),
    (None, TypeError),
    (True, TypeError),
    (GaugeResult(True), TypeError),
    (GaugeResult(True, witness={((1,), "m"): 1}), TypeError),
], ids=["inequivalent", "None", "bool", "no witness", "dict witness"])
def test_homotopy_from_gauge_takes_an_equivalent_gauge_result(result, error):
    x = ArtinVector({((1,), "p"): 1})
    with pytest.raises(error):
        homotopy_from_gauge(result, x, make_dgla(LINE_BASIS, LINE_D, {}), T3)


def test_valid_calls_succeed():
    for label, function, args in CALLS:
        function(*args)


def test_mutated_calls_raise_only_value_or_type_errors():
    seen = set()
    for label, function, args, name in fuzz_cases(SEED, RUNS):
        seen.add(label)
        try:
            function(*args)
        except (ValueError, TypeError):
            pass
        except Exception as exc:
            raise AssertionError(
                f"{label} ({name}) on {args!r}: {type(exc).__name__}: {exc}"
            ) from exc
    assert seen == {label for label, _, _ in CALLS}
