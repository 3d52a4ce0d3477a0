"""Coderivation picture: codifferentials, morphisms, homotopies."""

import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from defcalc.artin import ArtinVector, _pairs, _vector, make_artin
from defcalc.dgla import (
    CheckReport,
    Dgla,
    GaugeResult,
    check_dgla,
    gauge_act,
    gauge_equivalent,
    mc_residual,
    mc_solve,
    tensor_cdga_dgla,
    trivial_cdga,
)
from defcalc.graded import GradedMap, GradedSpace, GradedVector, accumulate, koszul_sign
from defcalc.hitchin import (
    HitchinPair, build_hitchin_dgla, build_hitchin_morphism, hitchin_map, matrix_wedge_dgla
)
from defcalc import linfty
from defcalc.linfty import (
    LInftyMorphism,
    LInftyStructure,
    PolyPath,
    _merge_words,
    basis_words,
    check_codifferential,
    check_linfty_morphism,
    coderivation_extend,
    homotopy_from_gauge,
    linfty_from_dgla,
    linfty_mc_residual,
    morphism_extend,
    normalize_word,
    pushforward_mc,
    pushforward_series,
    shifted_degrees,
    verify_homotopy_witness,
)

from test_construction import exterior_cdga, shipped_documents
from test_graded import sorted_word
from test_hitchin import random_element
from test_dgla import (
    MATRIX_UNITS,
    SCALES,
    assert_same_vector,
    cancel_and_return_model,
    contractible,
    correction_model,
    derham_fat_point,
    fraction_gauge_act,
    gl2,
    gl2_brackets,
    h0_zero_model,
    heisenberg,
    interval_cdga,
    mutate_one_entry,
    random_37_vector,
    random_direction,
    rescaled,
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


def random_canonical_word(rng, letters, sdeg, length):
    while True:
        word, sign = normalize_word([rng.choice(letters) for _ in range(length)], sdeg)
        if sign:
            return word


def test_merge_words_matches_normalize_word():
    rng = random.Random(2121)
    # shifted degrees -1..2, so both parities, with repeats made likely
    space = GradedSpace([(f"v{i}", i % 4) for i in range(7)])
    sdeg = shifted_degrees(space)
    letters = space.names
    seen = set()
    for _ in range(3000):
        word = random_canonical_word(rng, letters, sdeg, rng.randint(1, 3))
        tail = random_canonical_word(rng, letters, sdeg, rng.randint(0, 4))
        want, sign = sorted_word(word + tail, sdeg)
        got = _merge_words(word, tail, sdeg)
        if sign == 0:
            assert got is None, (word, tail)
            seen.add("vanishes")
        else:
            assert got == (want, sign), (word, tail)
            seen.add(sign)
            if set(word) & set(tail):
                seen.add("even repeat")
    assert seen == {"vanishes", "even repeat", 1, -1}


def test_unshuffle_sign_matches_koszul_sign():
    # the sign coderivation_extend gives the unshuffle of a canonical word
    # into the letters at a subset of positions and the rest
    rng = random.Random(2122)
    space = GradedSpace([(f"v{i}", i % 4) for i in range(7)])
    sdeg = shifted_degrees(space)
    seen = set()
    for _ in range(2000):
        word = random_canonical_word(rng, space.names, sdeg, rng.randint(1, 7))
        n = len(word)
        subset = sorted(rng.sample(range(n), rng.randint(0, n)))
        rest = [p for p in range(n) if p not in subset]
        block = tuple([word[p] for p in subset])
        tail = tuple([word[p] for p in rest])
        want = koszul_sign([p + 1 for p in subset + rest], [sdeg[name] for name in word])
        assert _merge_words(block, tail, sdeg) == (word, want), (word, subset)
        seen.add(want)
        if set(block) & set(tail):
            seen.add("even repeat")
    assert seen == {"even repeat", 1, -1}


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


def test_structure_stores_words_in_canonical_order_with_the_koszul_sign():
    # p, q have shifted degree 1 and a, b shifted degree 0; r has shifted
    # degree 3, the degree of q_2 on p . q
    space = GradedSpace([("a", 1), ("b", 1), ("p", 2), ("q", 2), ("r", 4)])
    structure = LInftyStructure(
        space, {2: {("q", "p"): {"r": 3}, ("b", "a"): {"p": 2}}}
    )
    assert structure.brackets == {
        2: {("p", "q"): GradedVector({"r": -3}), ("a", "b"): GradedVector({"p": 2})}
    }


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


def test_morphism_extension_respects_permutation_signs():
    # table components are stored on canonical words, so a word is made
    # canonical, with its Koszul sign, before its blocks are read; x and y
    # have even shifted degree, p and q odd
    space = GradedSpace([("x", 1), ("y", 1), ("u", 1), ("p", 2), ("q", 2), ("r", 3)])
    structure = LInftyStructure(space, {})
    morphism = LInftyMorphism(structure, structure, {
        1: {(n,): {n: 1} for n in space.names},
        2: {("x", "y"): {"u": 1}, ("p", "q"): {"r": 1}},
    })
    assert morphism_extend(morphism, {("y", "x"): ONE}) == {("x", "y"): 1, ("u",): 1}
    assert morphism_extend(morphism, {("q", "p"): ONE}) == {("p", "q"): -1, ("r",): -1}
    assert morphism_extend(morphism, {("p", "p"): ONE}) == {}


def test_coalgebra_coefficients_are_read_as_rationals():
    # a string coefficient is an exact rational, not a sequence to repeat
    space = GradedSpace([("x", 1), ("y", 2), ("u", 1)])
    structure = LInftyStructure(space, {1: {("x",): {"y": -1}}})
    assert coderivation_extend(structure, {("x",): "1/2"}) == {("y",): Fraction(-1, 2)}
    morphism = LInftyMorphism(structure, structure, {1: {("x",): {"u": -1}}})
    assert morphism_extend(morphism, {("x",): "3"}) == {("u",): Fraction(-3)}


def test_a_table_entry_above_max_weight_is_rejected():
    structure = LInftyStructure(GradedSpace([("x", 1), ("v", 1)]), {})
    components = {1: {("x",): {"x": 1}}, 2: {("x", "v"): {"v": 1}}}
    with pytest.raises(ValueError) as info:
        LInftyMorphism(structure, structure, components, max_weight=1)
    assert str(info.value) == "a component of arity 2 is above max_weight 1"
    # a zero entry above max_weight is no component
    LInftyMorphism(structure, structure, {1: components[1], 2: {("x", "v"): {}}}, 1)


def test_coderivation_extension_is_linear():
    structure = linfty_from_dgla(semidirect())
    words = basis_words(structure.space, 3)
    rng = random.Random(31)
    for _ in range(20):
        u, w = rng.sample(words, 2)
        a, b = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(1, 4))
        expected = {}
        for word, coeff in ((u, a), (w, b)):
            for v, c in coderivation_extend(structure, {word: ONE}).items():
                expected[v] = expected.get(v, 0) + coeff * c
        expected = {v: c for v, c in expected.items() if c}
        assert coderivation_extend(structure, {u: a, w: b}) == expected


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


def test_a_passing_check_leaves_no_cancelled_word(monkeypatch):
    """A word whose defect terms cancel is dropped as it cancels, so both
    checkers hand an empty table to the witness search when they pass."""
    tables = []
    search = linfty._first_nonzero

    def spy(totals, space, sdeg):
        tables.append(dict(totals))
        return search(totals, space, sdeg)

    monkeypatch.setattr(linfty, "_first_nonzero", spy)
    # Jacobi cancels the terms of gl2, trace identities those of the morphism
    assert check_codifferential(linfty_from_dgla(gl2()), 4).ok
    letter = GradedSpace([("l", 1)])
    pair = HitchinPair(2, letter, [[{"l": 1}, {"l": 2}], [{}, {"l": -1}]])
    assert check_linfty_morphism(build_hitchin_morphism(pair, interval_cdga()), 3).ok
    assert tables == [{}, {}]


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


# a and b have shifted degree 0, p shifted degree 1
LETTERS = GradedSpace([("a", 1), ("b", 1), ("p", 2)])


# the texts reach CLI stderr
@pytest.mark.parametrize("brackets, message", [
    ({0: {(): {"p": 1}}}, "bracket arity must be >= 1"),
    ({2: {("a",): {"p": 1}}}, "arity 2 entry has word of length 1"),
    ({1: {("zz",): {"p": 1}}}, "unknown basis name 'zz' in bracket word"),
    ({2: {("p", "p"): {"a": 1}}}, "bracket value on the vanishing word ('p', 'p') must be zero"),
    ({2: {("a", "b"): {"p": 1}, ("b", "a"): {"p": -1}}},
     "inconsistent symmetric values for word ('a', 'b')"),
    # a zero value on one ordering conflicts with a nonzero one on the other
    ({2: {("a", "b"): {}, ("b", "a"): {"p": 1}}},
     "inconsistent symmetric values for word ('a', 'b')"),
    ({1: {("a",): {"zz": 1}}}, "bracket output uses unknown name 'zz'"),
    ({1: {("a",): {"a": 1}}}, "q_1 is not homogeneous of shifted degree +1 on ('a',): output 'a'"),
])
def test_structure_rejection_texts(brackets, message):
    with pytest.raises(ValueError) as info:
        LInftyStructure(LETTERS, brackets)
    assert str(info.value) == message


# the target's q_1 makes the checker evaluate f_1 on every letter
@pytest.mark.parametrize("components, max_weight, message", [
    ({1: {("a",): {"p": 1}}}, None, "morphism component on ('a',) is not degree 0: output 'p'"),
    ({2: {("a", "b"): {"a": 1}, ("b", "a"): {"a": 5}}}, None,
     "inconsistent symmetric values for word ('a', 'b')"),
    ({1: {("zz",): {"a": 1}}}, None, "unknown basis name 'zz' in morphism word"),
    (lambda k, word: GradedVector({"zz": 1}), 1, "morphism output uses unknown name 'zz'"),
])
def test_morphism_components_are_checked_like_brackets(components, max_weight, message):
    source = LInftyStructure(LETTERS, {})
    target = LInftyStructure(LETTERS, {1: {("a",): {"p": 1}}})
    with pytest.raises(ValueError) as info:
        check_linfty_morphism(LInftyMorphism(source, target, components, max_weight), 2)
    assert str(info.value) == message


def test_malformed_generator_output_raises_before_an_earlier_failure():
    # q_1(a) = p and f_1(p) = p make the defect nonzero on the first word a;
    # the term p . b of Q(a . b), a later word, needs f_2(b . p), and every
    # component the defect needs is evaluated before the witness is picked
    source = LInftyStructure(LETTERS, {1: {("a",): {"p": 1}}})
    target = LInftyStructure(LETTERS, {})

    def generator(f2_output):
        values = {("p",): {"p": 1}, ("b", "p"): {f2_output: 1}}
        return lambda k, word: GradedVector(values.get(word))

    report = check_linfty_morphism(LInftyMorphism(source, target, generator("p"), 2), 2)
    assert (report.witness, report.value) == (("a",), GradedVector({"p": 1}))
    with pytest.raises(ValueError) as info:
        check_linfty_morphism(LInftyMorphism(source, target, generator("a"), 2), 2)
    assert str(info.value) == "morphism component on ('b', 'p') is not degree 0: output 'a'"


# ---------------------------------------------------------------------------
# The pruned checkers against the full scans they replaced.


def _full(ok, axiom=None, witness=None, value=None):
    """A report as a tuple, with the key order of its value."""
    return (ok, axiom, witness, value, None if value is None else list(value.coeffs))


def _full_report(report):
    return _full(report.ok, report.axiom, report.witness, report.value)


def _basis_ordered(vector, space):
    """vector with its names in the basis order of space, the key order the
    checkers give their witness values."""
    return GradedVector({name: vector[name] for name in space.names if name in vector.coeffs})


def apply_bracket(structure, word):
    """q_n on a single canonical word of weight n (zero vector if absent)."""
    vec = structure.bracket_value(len(word), word)
    return vec if vec is not None else GradedVector()


def full_scan_check_codifferential(structure, weight):
    """Q . Q on every basis word up to weight, every unshuffle evaluated;
    the value's names come in basis order."""
    for word in basis_words(structure.space, weight, structure.sdeg):
        total = GradedVector()
        for v, c in coderivation_extend(structure, {word: ONE}).items():
            total = total + apply_bracket(structure, v).scale(c)
        if not total.is_zero():
            return _full(False, "codifferential", word, _basis_ordered(total, structure.space))
    return _full(True)


def set_partitions(n, max_block):
    """Partitions of range(n) into blocks of at most max_block elements;
    blocks and block lists sorted."""
    if n and max_block < 1:
        return []
    out = []

    def grow(pos, blocks):
        if pos == n:
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            if len(b) < max_block:
                b.append(pos)
                grow(pos + 1, blocks)
                b.pop()
        blocks.append([pos])
        grow(pos + 1, blocks)
        blocks.pop()

    grow(0, [])
    return out


def partition_expansion(morphism, word, block_count=None):
    """F on one canonical word, or its part with block_count blocks: the sum
    over the set partitions of its positions into blocks of at most
    max_weight letters of  sign . f(block 1) . ... . f(block s), the sign
    the koszul_sign of the letters reordered into the concatenated blocks.
    The blocks are multiplied left to right, each product made canonical
    by normalize_word, stopping at the first zero factor or product; a word
    with a letter outside the support maps to zero unread."""
    out = {}
    if any(name not in morphism.support for name in word):
        return out
    degrees = [morphism.source.sdeg[name] for name in word]
    tdeg = morphism.target.sdeg
    for blocks in set_partitions(len(word), morphism.max_weight):
        if block_count is not None and len(blocks) != block_count:
            continue
        eps = koszul_sign([p + 1 for block in blocks for p in block], degrees)
        partial = {(): ONE}
        for block in blocks:
            vec = morphism.component(tuple(word[p] for p in block))
            product = {}
            for v, c in partial.items():
                for name, x in vec.coeffs.items():
                    merged, sign = normalize_word(v + (name,), tdeg)
                    if sign:
                        product[merged] = product.get(merged, 0) + c * x * sign
            partial = {v: c for v, c in product.items() if c}
            if not partial:
                break
        for v, c in partial.items():
            out[v] = out.get(v, 0) + eps * c
    return {v: c for v, c in out.items() if c}


def partition_morphism_extend(morphism, element):
    """The oracle of morphism_extend: each word made canonical by
    normalize_word, then partition_expansion."""
    out = {}
    for word, coeff in element.items():
        canonical, sign = normalize_word(word, morphism.source.sdeg)
        if sign:
            for v, c in partition_expansion(morphism, canonical).items():
                out[v] = out.get(v, 0) + Fraction(coeff) * sign * c
    return {v: c for v, c in out.items() if c}


def full_scan_check_linfty_morphism(morphism, weight):
    """F . Q - Q-hat . F on every basis word up to weight, every unshuffle
    and every set partition evaluated; the value's names come in the basis
    order of the target."""
    source, target = morphism.source, morphism.target
    for word in basis_words(source.space, weight, source.sdeg):
        lhs = GradedVector()
        for v, c in coderivation_extend(source, {word: ONE}).items():
            lhs = lhs + morphism.component(v).scale(c)
        image = partition_morphism_extend(morphism, {word: ONE})
        rhs = GradedVector()
        for j in target.brackets:
            for v, c in image.items():
                if len(v) == j:
                    rhs = rhs + apply_bracket(target, v).scale(c)
        if lhs != rhs:
            return _full(False, "morphism", word, _basis_ordered(lhs - rhs, target.space))
    return _full(True)


def _regenerated(morphism, component):
    return LInftyMorphism(
        morphism.source, morphism.target, component,
        max_weight=morphism.max_weight, support=morphism.support,
    )


def corrupt_morphism(morphism, rng):
    """Scale one arity, or add a target letter to one component entry."""
    if rng.random() < 0.4:
        arity = rng.randint(1, morphism.max_weight)
        factor = rng.choice([2, -1, Fraction(1, 2), 0])
        return _regenerated(
            morphism,
            lambda k, w: morphism.component(w).scale(factor if k == arity else 1),
        )
    sdeg, tdeg = morphism.source.sdeg, morphism.target.sdeg
    letters = sorted(morphism.support)
    while True:
        word, sign = normalize_word(
            [rng.choice(letters) for _ in range(rng.randint(1, morphism.max_weight))], sdeg
        )
        want = sum(sdeg[n] for n in word) if sign else None
        outputs = [n for n in morphism.target.space.names if tdeg[n] == want]
        if outputs:
            break
    delta = GradedVector({rng.choice(outputs): rng.choice([1, -1, 2])})
    return _regenerated(
        morphism,
        lambda k, w: morphism.component(w) + delta if w == word else morphism.component(w),
    )


# shifted degrees -1 (z), 0 (a, e), 1 (b, c) and 2 (d): every arity has words
# with outputs, and the even letters a and e may repeat
RANDOM_SPACE = GradedSpace([("z", 0), ("a", 1), ("e", 1), ("b", 2), ("c", 2), ("d", 3)])
# three names in each of shifted degrees 0 and 1, two in 2: a word can have
# three outputs
WIDE_SPACE = GradedSpace([
    ("z", 0), ("a", 1), ("e", 1), ("f", 1), ("b", 2), ("c", 2), ("g", 2), ("d", 3), ("h", 3),
])
RANDOM_COEFFS = [1, -1, 2, Fraction(1, 2)]
# q1(y) = v is listed before q1(x) = u: the table-built defect on x . y
# meets its two terms in table order (q, then p), the unshuffle scan of
# x . y in position order (p, then q); the witness value lists them in
# basis order, which here is the scan order
SCAN_ORDER_SPACE = GradedSpace([("x", 1), ("y", 1), ("u", 2), ("v", 2), ("p", 3), ("q", 3)])
SCAN_ORDER_Q1 = {("y",): {"v": 1}, ("x",): {"u": 1}}
SCAN_ORDER_Q2 = {("u", "y"): {"p": 1}, ("x", "v"): {"q": 1}}


def random_table(rng, names, sdeg, out_sdeg, k, shift, entries, width=1):
    """Up to entries random words of k letters from names, each sent to a
    random combination of up to width outputs of shifted degree
    |word| + shift."""
    table = {}
    for _ in range(entries):
        word, sign = normalize_word([rng.choice(names) for _ in range(k)], sdeg)
        want = sum(sdeg[n] for n in word) + shift if sign else None
        outputs = [n for n in out_sdeg if out_sdeg[n] == want]
        if outputs:
            table[word] = {rng.choice(outputs): rng.choice(RANDOM_COEFFS)}
            for _ in range(width - 1):
                table[word].setdefault(rng.choice(outputs), rng.choice(RANDOM_COEFFS))
    return table


def random_structure(rng, space, width=1):
    """Random q1, q2 and q3, not built from a dgla."""
    sdeg = shifted_degrees(space)
    return LInftyStructure(space, {
        k: random_table(rng, space.names, sdeg, sdeg, k, 1, rng.randint(1, 4), width)
        for k in (1, 2, 3)
    })


def random_morphism(rng, space, width=1, top_weight=None):
    """A morphism between random structures on space: random components up
    to top_weight, 1-3 by default, sometimes the identity in arity 1, and
    sometimes a partial support."""
    names = space.names
    sdeg = shifted_degrees(space)
    source = random_structure(rng, space, width)
    target = source if rng.random() < 0.5 else random_structure(rng, space, width)
    if top_weight is None:
        top_weight = rng.randint(1, 3)
    components = {
        k: random_table(rng, names, sdeg, sdeg, k, 0, rng.randint(0, 4), width)
        for k in range(1, top_weight + 1)
    }
    if target is source and top_weight and rng.random() < 0.5:
        components[1] = {(n,): {n: 1} for n in names}
    support = rng.sample(names, rng.randint(2, 5)) if rng.random() < 0.6 else None
    return LInftyMorphism(source, target, components, top_weight, support)


def test_check_linfty_morphism_matches_full_scan_oracle():
    rng = random.Random(6006)
    letter = GradedSpace([("l", 1)])
    two = GradedSpace([("l1", 1), ("l2", 1)])
    rank2 = HitchinPair(2, letter, [[{"l": 1}, {"l": 2}], [{}, {"l": -1}]])
    rank2_two = HitchinPair(2, two, [[{"l1": 1}, {}], [{}, {"l2": 1}]])
    rank3 = HitchinPair(
        3, letter, [[{}, {"l": 1}, {"l": 3}], [{}, {}, {"l": -2}], [{}, {}, {}]]
    )
    # (pair, cdga, weight, mutants); the weights reach past the scan bound
    # max(W + k_s - 1, k_t W) = 3 for rank 2 and 4 for rank 3 where cheap
    cases = [
        (rank2, trivial_cdga(), 4, 8),
        (rank2_two, trivial_cdga(), 4, 4),
        (rank2, interval_cdga(), 4, 6),
        (rank2, derham_fat_point(), 3, 6),
        (rank3, trivial_cdga(), 4, 3),
        (rank3, interval_cdga(), 3, 2),
        (rank3, derham_fat_point(), 2, 3),
    ]
    outcomes = set()
    for pair, cdga, weight, mutants in cases:
        morphism = build_hitchin_morphism(pair, cdga)
        assert _full_report(check_linfty_morphism(morphism, weight)) == _full(True)
        for _ in range(mutants):
            mutant = corrupt_morphism(morphism, rng)
            expected = full_scan_check_linfty_morphism(mutant, weight)
            assert _full_report(check_linfty_morphism(mutant, weight)) == expected
            outcomes.add(expected[0])
    # table morphisms without a support: the identity with f2 entries added
    for model in (semidirect(), gl2(), two_line()):
        structure = linfty_from_dgla(model)
        sdeg = structure.sdeg
        names = model.space.names
        for _ in range(4):
            f2 = {}
            for _ in range(rng.randint(1, 2)):
                word, sign = normalize_word((rng.choice(names), rng.choice(names)), sdeg)
                outputs = [n for n in names if sign and sdeg[n] == sdeg[word[0]] + sdeg[word[1]]]
                if outputs:
                    f2[word] = {rng.choice(outputs): rng.choice([1, -1])}
            morphism = LInftyMorphism(
                structure, structure, {1: {(n,): {n: 1} for n in names}, 2: f2}
            )
            assert morphism.support == frozenset(names)
            expected = full_scan_check_linfty_morphism(morphism, 4)
            assert _full_report(check_linfty_morphism(morphism, 4)) == expected
            outcomes.add(expected[0])
    # odd forms: the form product depends on the order of the CDGA parts;
    # the valid morphisms pass and the ones with f_2 doubled fail alike
    for pair, cdga in [
        (rank2, exterior_cdga(Fraction(-2))),
        (rank2, derham_fat_point()),
        (rank3, exterior_cdga(Fraction(3))),
    ]:
        morphism = build_hitchin_morphism(pair, cdga)
        doubled = _regenerated(
            morphism, lambda k, w, m=morphism: m.component(w).scale(2 if k == 2 else 1)
        )
        assert _full_report(check_linfty_morphism(morphism, 3)) == _full(True)
        expected = full_scan_check_linfty_morphism(doubled, 3)
        assert expected[0] is False
        assert _full_report(check_linfty_morphism(doubled, 3)) == expected
    # random structures on both sides, random components up to weight 1-3
    # and partial supports; an even letter of a block may repeat in its tail
    repeats = set()
    for _ in range(40):
        morphism = random_morphism(rng, RANDOM_SPACE)
        expected = full_scan_check_linfty_morphism(morphism, 4)
        assert _full_report(check_linfty_morphism(morphism, 4)) == expected
        outcomes.add(expected[0])
        if not expected[0]:
            repeats.add(len(set(expected[2])) < len(expected[2]))
    assert outcomes == {True, False}
    assert repeats == {True, False}
    # several outputs per word, so that witness values have several names
    # whose key order the comparison pins
    names_seen = set()
    rng = random.Random(6008)
    for space in (RANDOM_SPACE, WIDE_SPACE):
        for _ in range(40):
            morphism = random_morphism(rng, space, width=3)
            expected = full_scan_check_linfty_morphism(morphism, 4)
            assert _full_report(check_linfty_morphism(morphism, 4)) == expected
            if not expected[0]:
                names_seen.add(min(len(expected[4]), 3))
    assert names_seen == {1, 2, 3}
    source = LInftyStructure(SCAN_ORDER_SPACE, {1: SCAN_ORDER_Q1})
    target = LInftyStructure(GradedSpace([("p", 2), ("q", 2)]), {})
    morphism = LInftyMorphism(source, target, {2: SCAN_ORDER_Q2})
    expected = full_scan_check_linfty_morphism(morphism, 2)
    assert expected == _full(False, "morphism", ("x", "y"), GradedVector({"p": 1, "q": 1}))
    assert _full_report(check_linfty_morphism(morphism, 2)) == expected


def test_morphism_extend_matches_the_partition_oracle():
    # table and generator morphisms of max_weight 0-3 on elements whose
    # words come in any order, may repeat an even letter and may hold a
    # letter outside the support
    rng = random.Random(2201)
    seen = set()
    for space in (RANDOM_SPACE, WIDE_SPACE):
        sdeg = shifted_degrees(space)
        for width in (1, 3):
            for top_weight in range(4):
                for _ in range(8):
                    table = random_morphism(rng, space, width, top_weight)
                    generated = _regenerated(table, lambda k, w, m=table: m.component(w))
                    element = {
                        tuple(rng.choice(space.names) for _ in range(rng.randint(1, 5))):
                            rng.choice(RANDOM_COEFFS)
                        for _ in range(rng.randint(1, 3))
                    }
                    want = partition_morphism_extend(table, element)
                    assert morphism_extend(table, element) == want
                    assert morphism_extend(generated, element) == want
                    for word in element:
                        canonical, sign = normalize_word(word, sdeg)
                        if not sign:
                            continue
                        if not table.support.issuperset(word):
                            seen.add("outside the support")
                        elif partition_expansion(table, canonical):
                            seen.add(("width", width, "max_weight", top_weight))
                            if len(set(word)) < len(word):
                                seen.add("repeated even letter")
    assert {"outside the support", "repeated even letter"} <= seen
    assert {("width", w, "max_weight", m) for w in (1, 3) for m in (1, 2, 3)} <= seen


def test_check_linfty_morphism_asks_the_generator_what_the_partition_expansion_asks(
    monkeypatch,
):
    # the right side read from the block-filtered partition expansion
    # instead of _weight_part gives the same report, and the generator is
    # asked for the same set of words; the two could part only where
    # nonzero block values multiply to zero (two multiples of one odd
    # letter), where the recursion goes on into the tail and the scan stops
    def run(morphism):
        asked = set()

        def generator(k, word):
            asked.add(word)
            return morphism.component(word)

        report = check_linfty_morphism(_regenerated(morphism, generator), 4)
        return _full_report(report), asked

    rng = random.Random(2202)
    outcomes = set()
    for space in (RANDOM_SPACE, WIDE_SPACE):
        for width in (1, 3):
            for _ in range(12):
                morphism = random_morphism(rng, space, width)
                got = run(morphism)
                with monkeypatch.context() as patch:
                    patch.setattr(
                        linfty, "_weight_part",
                        lambda m, word, j, memo: partition_expansion(m, word, j),
                    )
                    want = run(morphism)
                assert got == want
                outcomes.add(got[0][0])
    assert outcomes == {True, False}


def test_check_codifferential_matches_full_scan_oracle():
    rng = random.Random(6007)
    axioms = set()
    for cdga, inner, weight, mutants in [
        (trivial_cdga(), gl2(), 4, 8),
        (interval_cdga(), gl2(), 4, 6),
        (interval_cdga(), heisenberg(), 4, 6),
        (derham_fat_point(), semidirect(), 4, 6),
        (derham_fat_point(), heisenberg(), 3, 6),
    ]:
        model = tensor_cdga_dgla(cdga, inner)
        structure = linfty_from_dgla(model)
        assert _full_report(check_codifferential(structure, weight)) == _full(True)
        for _ in range(mutants):
            mutant = Dgla(model.space, model.d, mutate_one_entry(model.space, model.brackets, rng))
            structure = linfty_from_dgla(mutant)
            expected = full_scan_check_codifferential(structure, weight)
            assert _full_report(check_codifferential(structure, weight)) == expected
            axioms.add(expected[1])
    repeats = set()
    for _ in range(40):
        structure = random_structure(rng, RANDOM_SPACE)
        expected = full_scan_check_codifferential(structure, 5)
        assert _full_report(check_codifferential(structure, 5)) == expected
        axioms.add(expected[1])
        if not expected[0]:
            repeats.add(len(set(expected[2])) < len(expected[2]))
    assert axioms == {None, "codifferential"}
    assert repeats == {True, False}
    # several outputs per word, so that witness values have several names
    # whose key order the comparison pins
    names_seen = set()
    rng = random.Random(6009)
    for space in (RANDOM_SPACE, WIDE_SPACE):
        for _ in range(40):
            structure = random_structure(rng, space, width=3)
            expected = full_scan_check_codifferential(structure, 5)
            assert _full_report(check_codifferential(structure, 5)) == expected
            if not expected[0]:
                names_seen.add(min(len(expected[4]), 3))
    assert names_seen == {1, 2, 3}
    structure = LInftyStructure(SCAN_ORDER_SPACE, {1: SCAN_ORDER_Q1, 2: SCAN_ORDER_Q2})
    expected = full_scan_check_codifferential(structure, 2)
    assert expected == _full(False, "codifferential", ("x", "y"), GradedVector({"p": 1, "q": 1}))
    assert _full_report(check_codifferential(structure, 2)) == expected
    # q2(a . e) = b, and b . a meets q2(a . b) twice: once for each a of a . a . e
    structure = LInftyStructure(RANDOM_SPACE, {2: {("a", "e"): {"b": 1}, ("a", "b"): {"d": 1}}})
    report = check_codifferential(structure, 3)
    assert _full_report(report) == full_scan_check_codifferential(structure, 3)
    assert (report.witness, report.value) == (("a", "a", "e"), GradedVector({"d": 2}))
    # q2(x . x) is reached from q1(z) = x and the one other x of z . x, and
    # cancels q1(q2(z . x)) = q1(u) = -y
    space = GradedSpace([("z", 0), ("x", 1), ("u", 1), ("y", 2)])
    structure = LInftyStructure(space, {
        1: {("z",): {"x": 1}, ("u",): {"y": -1}},
        2: {("x", "x"): {"y": 1}, ("z", "x"): {"u": 1}},
    })
    assert full_scan_check_codifferential(structure, 3) == _full(True)
    assert check_codifferential(structure, 3).ok


def test_witness_values_come_in_basis_order():
    # the SCAN_ORDER tables with p and q declared as (q, p): the value on
    # x . y follows the declaration, not the table order or the scan order
    space = GradedSpace([("x", 1), ("y", 1), ("u", 2), ("v", 2), ("q", 3), ("p", 3)])
    value = GradedVector({"q": 1, "p": 1})
    structure = LInftyStructure(space, {1: SCAN_ORDER_Q1, 2: SCAN_ORDER_Q2})
    expected = _full(False, "codifferential", ("x", "y"), value)
    assert full_scan_check_codifferential(structure, 2) == expected
    assert _full_report(check_codifferential(structure, 2)) == expected
    source = LInftyStructure(space, {1: SCAN_ORDER_Q1})
    target = LInftyStructure(GradedSpace([("q", 2), ("p", 2)]), {})
    morphism = LInftyMorphism(source, target, {2: SCAN_ORDER_Q2})
    expected = _full(False, "morphism", ("x", "y"), value)
    assert full_scan_check_linfty_morphism(morphism, 2) == expected
    assert _full_report(check_linfty_morphism(morphism, 2)) == expected


# ---------------------------------------------------------------------------
# Each scan bound is reached: the only defect sits exactly on it.


def test_codifferential_defect_at_twice_the_top_arity_minus_one():
    # only q3: q3(x1 x2 x3) = y and q3(y x4 x5) = z, so Q . Q first fails on
    # x1 ... x5, at weight 2 * 3 - 1
    xs = [f"x{i}" for i in range(1, 6)]
    space = GradedSpace([(x, 1) for x in xs] + [("y", 2), ("z", 3)])
    structure = LInftyStructure(
        space, {3: {("x1", "x2", "x3"): {"y": 1}, ("y", "x4", "x5"): {"z": 1}}}
    )
    assert check_codifferential(structure, 4).ok
    for weight in (5, 6):
        report = check_codifferential(structure, weight)
        assert report.witness == tuple(xs)
        assert _full_report(report) == full_scan_check_codifferential(structure, weight)


@pytest.mark.parametrize("source_arity, top_weight", [(2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("with_support", [False, True])
def test_morphism_defect_at_weight_plus_source_arity_minus_one(
    source_arity, top_weight, with_support
):
    # q_k(x1 ... xk) = y and f_W(y . x_{k+1} ... x_{k+W-1}) = t, with no
    # other bracket or component: the defect f_W(q_k(block) . tail) first
    # appears at weight W + k - 1
    n = source_arity + top_weight - 1
    xs = [f"x{i}" for i in range(1, n + 1)]
    source = LInftyStructure(
        GradedSpace([(x, 1) for x in xs] + [("y", 2)]),
        {source_arity: {tuple(xs[:source_arity]): {"y": 1}}},
    )
    target = LInftyStructure(GradedSpace([("t", 2)]), {})
    # with a support, x1 is outside it: only the block absorbs it
    support = xs[1:] + ["y"] if with_support else None
    morphism = LInftyMorphism(
        source, target, {top_weight: {("y",) + tuple(xs[source_arity:]): {"t": 1}}},
        support=support,
    )
    assert check_linfty_morphism(morphism, n - 1).ok
    for weight in (n, n + 1):
        report = check_linfty_morphism(morphism, weight)
        assert report.witness == tuple(xs)
        assert _full_report(report) == full_scan_check_linfty_morphism(morphism, weight)


@pytest.mark.parametrize("target_arity, top_weight", [(2, 2), (1, 3), (3, 1)])
@pytest.mark.parametrize("with_support", [False, True])
def test_morphism_defect_at_target_arity_times_weight(target_arity, top_weight, with_support):
    # f_W sends the i-th run of W letters to s_i and q-hat(s1 ... s_kt) = u,
    # with no source bracket: F(x1 ... x_n) meets the target bracket first
    # at n = k_t W
    n = target_arity * top_weight
    xs = [f"x{i}" for i in range(1, n + 1)]
    ss = [f"s{i}" for i in range(1, target_arity + 1)]
    source = LInftyStructure(GradedSpace([(x, 1) for x in xs]), {})
    target = LInftyStructure(
        GradedSpace([(s, 1) for s in ss] + [("u", 2)]),
        {target_arity: {tuple(ss): {"u": 1}}},
    )
    runs = {
        tuple(xs[i * top_weight:(i + 1) * top_weight]): {s: 1} for i, s in enumerate(ss)
    }
    morphism = LInftyMorphism(
        source, target, {top_weight: runs}, support=xs if with_support else None
    )
    if n > 1:
        assert check_linfty_morphism(morphism, n - 1).ok
    for weight in (n, n + 1):
        report = check_linfty_morphism(morphism, weight)
        assert report.witness == tuple(xs)
        assert _full_report(report) == full_scan_check_linfty_morphism(morphism, weight)


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


def unlimited_bracket_series(x, structure, algebra, head=None):
    """The oracle: the bracket series on pair dicts run until the powers of
    x vanish in the base ring, whatever the structure's largest arity."""
    return linfty._power_series(
        x, algebra, structure.sdeg,
        lambda word: structure.bracket_value(len(word), word), head,
    )


def series_structures():
    """(label, structure, top arity): the abelian Hitchin target with and
    without d, dglas, and a seeded structure with a q_3 table."""
    letter = GradedSpace([("l", 1)])
    pair = HitchinPair(2, letter, [[{}, {"l": 1}], [{}, {}]])
    fat = build_hitchin_morphism(pair, derham_fat_point())
    out = [
        ("target-trivial", build_hitchin_morphism(pair, trivial_cdga()).target, 0),
        ("target-fatpoint", fat.target, 1),
        ("hitchin-source", fat.source, 2),
        ("gl2-wedge", linfty_from_dgla(matrix_wedge_dgla(2, letter, [[{"l": 1}, {}], [{}, {}]])), 2),
        ("semidirect", linfty_from_dgla(semidirect()), 2),
    ]
    rng = random.Random(2828)
    while len(out) < 8:
        structure = random_structure(rng, RANDOM_SPACE, width=2)
        if 3 in structure.brackets:
            out.append((f"q3-{len(out) - 5}", structure, 3))
    return out


SERIES_ALGEBRAS = [make_artin(("t",), 7), make_artin(("s", "t"), 5)]


def coefficient_items(vector):
    return list(vector.coeffs.items())


@pytest.mark.parametrize("algebra", SERIES_ALGEBRAS, ids=["t^7", "s,t-deg4"])
def test_bracket_series_stops_at_the_top_arity(algebra, monkeypatch):
    """linfty_mc_residual and the headed series stop after top arity (top
    arity - 1 with a head) power steps, and give the unlimited series' value,
    key order included, which goes on to higher powers."""
    steps = []
    step = linfty._power_step

    def counted_step(*args):
        steps.append(args)
        return step(*args)

    monkeypatch.setattr(linfty, "_power_step", counted_step)
    rng = random.Random(2829)
    longer = 0
    for label, structure, top in series_structures():
        assert max(structure.brackets, default=0) == top, label
        ones = structure.space.names_of_degree(1)
        # the series reads any head; a path's z1 has degree 0
        heads = structure.space.names_of_degree(0) or ones
        for _ in range(4):
            x = random_element(rng, ones, algebra, count=5)
            xp = _pairs(x.coeffs)
            head = {(mono, (name,)): (c.numerator, c.denominator)
                    for (mono, name), c in random_element(rng, heads, algebra).coeffs.items()}
            for kwargs, bound in (({}, top), ({"head": head}, max(0, top - 1))):
                steps.clear()
                if kwargs:
                    got = _vector(linfty._bracket_series(xp, structure, algebra, **kwargs))
                else:
                    got = linfty_mc_residual(x, structure, algebra)
                assert len(steps) <= bound, (label, kwargs, len(steps))
                steps.clear()
                want = _vector(unlimited_bracket_series(xp, structure, algebra, **kwargs))
                longer += len(steps) > bound
                assert coefficient_items(got) == coefficient_items(want), label
    # the unlimited series does go past the cut
    assert longer >= 20, longer


def report_items(report):
    value = report.value
    items = coefficient_items(value) if value is not None else None
    return report.ok, report.axiom, report.witness, items


@pytest.mark.parametrize("algebra", SERIES_ALGEBRAS, ids=["t^7", "s,t-deg4"])
def test_homotopy_reports_match_the_unlimited_series(algebra, monkeypatch):
    """verify_homotopy_witness gives the same report, value key order
    included, as with the unlimited series: on gauge paths of dglas, which
    pass, on the same paths with the dt part flipped, and on random paths."""
    rng = random.Random(2830)
    cases = []
    for _, structure, _ in series_structures():
        ones = structure.space.names_of_degree(1)
        zeros = structure.space.names_of_degree(0)
        for _ in range(3):
            x = random_element(rng, ones, algebra, count=3)
            step = random_element(rng, ones, algebra, count=2)
            odd = {0: random_element(rng, zeros, algebra, 2)} if zeros else {}
            cases.append((structure, PolyPath({0: x, 1: step}, odd), x, x + step, algebra))
            # a constant path: path-dt, when reached, is the series headed by z1
            cases.append((structure, PolyPath({0: x}, odd), x, x, algebra))
    # gauge paths over the same variables truncated at 3, which keeps their
    # t-extended base small
    small = make_artin(algebra.variables, 3)
    for model in (semidirect(), matrix_wedge_dgla(2, GradedSpace([("l", 1)]), [[{"l": 1}, {}], [{}, {}]])):
        structure = linfty_from_dgla(model)
        for _ in range(3):
            x, a = (random_element(rng, model.space.names_of_degree(d), small) for d in (1, 0))
            if not mc_residual(x, model, small).is_zero():
                continue
            path = homotopy_from_gauge(GaugeResult(True, witness=a), x, model, small)
            y = gauge_act(a, x, model, small)
            cases.append((structure, path, x, y, small))
            cases.append((structure, PolyPath(path.even, {0: a}), x, y, small))
    reports = [report_items(verify_homotopy_witness(path, x, y, structure, base))
               for structure, path, x, y, base in cases]
    monkeypatch.setattr(linfty, "_bracket_series", unlimited_bracket_series)
    for (structure, path, x, y, base), got in zip(cases, reports):
        assert got == report_items(verify_homotopy_witness(path, x, y, structure, base))
    axioms = [r[1] for r in reports]
    assert axioms.count(None) >= 4 and "path-mc" in axioms and "path-dt" in axioms, axioms


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


def abelian_line(d_m):
    """m in degree 0, p and q in degree 1, d m = d_m, zero bracket."""
    space = GradedSpace([("m", 0), ("p", 1), ("q", 1)])
    return Dgla(space, GradedMap(space, space, 1, {"m": d_m}), {})


def test_homotopy_from_gauge_on_an_abelian_dgla():
    model = abelian_line({"p": 1, "q": -1})
    algebra = make_artin(("t",), 3)
    x = ArtinVector.single((1,), "p")
    y = ArtinVector.single((1,), "q")
    # x - y = t (p - q) = t d m, so the classes agree
    result = gauge_equivalent(x, y, model, algebra)
    path = homotopy_from_gauge(result, x, model, algebra)
    # with a zero bracket exp(t a) . x = x - t da: the straight line
    assert path.even == {0: x, 1: y - x}
    assert path.odd == {0: -result.witness}
    report = verify_homotopy_witness(path, x, y, linfty_from_dgla(model), algebra)
    assert report.ok, (report.axiom, report.witness)


def test_homotopy_from_gauge_needs_an_equivalence():
    model = abelian_line({"p": 1})
    algebra = make_artin(("t",), 3)
    x = ArtinVector.single((1,), "p")
    y = ArtinVector.single((1,), "q")
    result = gauge_equivalent(x, y, model, algebra)
    assert not result
    with pytest.raises(ValueError, match="not an equivalence"):
        homotopy_from_gauge(result, x, model, algebra)


@pytest.mark.parametrize("theta", [
    [[{}, {}], [{}, {}]],
    [[{"l": 1}, {}], [{}, {}]],
], ids=["zero", "diagonal"])
@pytest.mark.parametrize("truncation", [3, 4])
def test_homotopy_from_gauge_verifies_on_gl2_wedge(theta, truncation):
    """For seeded y = exp(a) . x on gl2 (x) Lambda(l), the path built from
    the gauge witness passes verify_homotopy_witness, and the same path
    with z1 = +a fails unless it stands still."""
    model = matrix_wedge_dgla(2, GradedSpace([("l", 1)]), theta)
    structure = linfty_from_dgla(model)
    algebra = make_artin(("t",), truncation)
    rng = random.Random(1600 + truncation)
    found = moving = 0
    for _ in range(20):
        # Lambda^2 of one letter is zero, so every degree-1 element is
        # Maurer-Cartan
        x, a = (random_element(rng, model.space.names_of_degree(d), algebra) for d in (1, 0))
        y = gauge_act(a, x, model, algebra)
        # with theta = 0 the search misses most of these pairs (it ignores
        # the stabilizer of x), so the seeded witness is used as well
        results = [GaugeResult(True, witness=a)]
        searched = gauge_equivalent(x, y, model, algebra)
        if searched:
            found += 1
            results.append(searched)
        for result in results:
            path = homotopy_from_gauge(result, x, model, algebra)
            report = verify_homotopy_witness(path, x, y, structure, algebra)
            assert report.ok, (report.axiom, report.witness)
            flipped = PolyPath(path.even, {0: result.witness})
            still = set(path.even) <= {0}
            assert bool(verify_homotopy_witness(flipped, x, y, structure, algebra)) == still
            moving += not still
    assert found and moving >= 15, (found, moving)


def test_homotopy_with_the_wrong_dt_sign_is_rejected():
    model = semidirect()
    algebra = make_artin(("t",), 3)
    a = ArtinVector.single((1,), "a")
    x = ArtinVector.single((1,), "x")
    y = gauge_act(a, x, model, algebra)
    path = homotopy_from_gauge(GaugeResult(True, witness=a), x, model, algebra)
    assert path.even == {0: x, 1: y - x} and path.odd == {0: -a}
    structure = linfty_from_dgla(model)
    assert verify_homotopy_witness(path, x, y, structure, algebra).ok
    report = verify_homotopy_witness(PolyPath(path.even, {0: a}), x, y, structure, algebra)
    assert not report.ok and report.axiom == "path-dt"


def chain_structure():
    """q1(a) = b, q1(b) = c: Q . Q (a) = c, so not a codifferential."""
    space = GradedSpace([("a", 1), ("b", 2), ("c", 3)])
    return LInftyStructure(space, {1: {("a",): {"b": 1}, ("b",): {"c": 1}}})


@pytest.mark.parametrize("weight", [0, -3])
def test_coalgebra_checkers_reject_weights_below_one(weight):
    structure = chain_structure()
    # identity components into the zero structure: F . Q (a) = b, Q-hat . F (a) = 0
    flat = LInftyStructure(structure.space, {})
    morphism = LInftyMorphism(structure, flat, {1: {(n,): {n: 1} for n in structure.space.names}})
    for check, target in ((check_codifferential, structure), (check_linfty_morphism, morphism)):
        report = check(target, 4)
        assert not report.ok and report.witness == ("a",)
        with pytest.raises(ValueError, match="weight must be at least 1"):
            check(target, weight)


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
    # the value is the endpoint minus the expected one, exactly
    y = ArtinVector.single((1,), "y")
    step = ArtinVector.single((2,), "y")
    start = PolyPath({0: x.scale(3), 1: step}, {})
    report = verify_homotopy_witness(start, x, y, structure, algebra)
    assert (report.ok, report.axiom, report.witness) == (False, "endpoint-0", ())
    assert report.value == start.endpoint(False) - x == x.scale(2)
    end = PolyPath({0: x, 1: step}, {})
    report = verify_homotopy_witness(end, x, y, structure, algebra)
    assert (report.ok, report.axiom, report.witness) == (False, "endpoint-1", ())
    assert report.value == end.endpoint(True) - y == x + step - y


def test_homotopy_from_gauge_over_two_variables():
    """Over Q[s, t]/(s, t)^3 the path's t-degree is the last exponent of
    the extended base, not the exponent of t."""
    model = matrix_wedge_dgla(2, GradedSpace([("l", 1)]), [[{"l": 1}, {}], [{}, {}]])
    structure = linfty_from_dgla(model)
    algebra = make_artin(("s", "t"), 3)
    rng = random.Random(2626)
    moving = 0
    for _ in range(6):
        x, a = (random_element(rng, model.space.names_of_degree(d), algebra) for d in (1, 0))
        path = homotopy_from_gauge(GaugeResult(True, witness=a), x, model, algebra)
        y = gauge_act(a, x, model, algebra)
        assert path.endpoint(True) == y
        report = verify_homotopy_witness(path, x, y, structure, algebra)
        assert report.ok, (report.axiom, report.witness)
        moving += set(path.even) > {0}
    assert moving >= 4, moving


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


@pytest.mark.parametrize("key", [1.0, True, "1"])
def test_bracket_arities_are_ints(key):
    space = GradedSpace([("a", 1), ("b", 2)])
    with pytest.raises(TypeError, match="bracket arity must be an int"):
        LInftyStructure(space, {key: {("a",): {"b": 1}}})


@pytest.mark.parametrize("key", [1.0, True, "1"])
def test_component_arities_are_ints(key):
    source = LInftyStructure(GradedSpace([("a", 1)]), {})
    with pytest.raises(TypeError, match="component arity must be an int"):
        LInftyMorphism(source, source, {key: {("a",): {"a": 1}}})


@pytest.mark.parametrize("tdeg", [0.0, False, "0"])
def test_path_t_degrees_are_ints(tdeg):
    x = ArtinVector.single((1,), "a")
    with pytest.raises(TypeError, match="t-degree must be an int"):
        PolyPath({tdeg: x}, {})
    with pytest.raises(TypeError, match="t-degree must be an int"):
        PolyPath({}, {tdeg: x})


def test_basis_words_match_the_sorted_combinations_on_shipped_structures():
    """basis_words against every combination normalized by the insertion
    sort, zero words dropped, in the same order: the spaces of the shipped
    cdgas, dglas and linfty structures, and the Hitchin dglas of the
    shipped pairs over the trivial CDGA, up to weight 4."""
    spaces = [
        doc.space for kind in ("cdga", "dgla", "linfty") for doc in shipped_documents(kind)
    ]
    spaces += [build_hitchin_dgla(pair, trivial_cdga()).space
               for pair in shipped_documents("hitchin-pair")]
    for space in spaces:
        sdeg = shifted_degrees(space)
        letters = sorted(space.names, key=lambda name: (sdeg[name], name))
        want = []
        for n in range(1, 5):
            for combo in combinations_with_replacement(letters, n):
                word, sign = sorted_word(combo, sdeg)
                if sign:
                    want.append(word)
        assert basis_words(space, 4) == want


# ---------------------------------------------------------------------------
# Oracles for the Maurer-Cartan section: the series that linfty ran in
# Fraction arithmetic on ArtinVectors before it moved onto artin's pair
# kernels.  The public routines must match them in value and key order,
# every coefficient a reduced Fraction (assert_same_vector).


def fraction_power_step(power, x, sdeg, algebra):
    """One more symmetric factor of x, power keyed by (word, monomial)."""
    out = {}
    for (word, mono), c in power.items():
        for (m2, name), c2 in x.coeffs.items():
            mono2 = algebra.multiply_monomials(mono, m2)
            if mono2 is None:
                continue
            merged = _merge_words(word, (name,), sdeg)
            if merged is not None:
                accumulate(out, (merged[0], mono2), c * c2 * merged[1])
    return out


def fraction_power_series(x, algebra, sdeg, value, head=None, limit=None):
    """sum over n >= 0 of value(head . x^n) / n!, term by term."""
    terms = {}
    power = {((), algebra.unit): ONE} if head is None else head
    n, inv = 0, ONE
    while power:
        for (word, mono), c in power.items():
            vec = value(word) if word else None
            if vec:
                for name, vc in vec.coeffs.items():
                    accumulate(terms, (mono, name), c * vc * inv)
        if n == limit:
            break
        n += 1
        inv /= n
        power = fraction_power_step(power, x, sdeg, algebra)
    return ArtinVector.from_nonzero(terms)


def fraction_bracket_series(x, structure, algebra, head=None):
    brackets = structure.brackets
    top = max(brackets, default=0)
    return fraction_power_series(
        x, algebra, structure.sdeg,
        lambda word: brackets.get(len(word), {}).get(word), head,
        limit=max(0, top - 1 if head is not None else top),
    )


def fraction_t_derivative(x):
    out = {}
    for (mono, name), c in x.coeffs.items():
        j = mono[-1]
        if j == 0:
            continue
        accumulate(out, (mono[:-1] + (j - 1,), name), j * c)
    return ArtinVector.from_nonzero(out)


def fraction_embed_path_part(part):
    out = {}
    for tdeg, vec in part.items():
        for (mono, name), c in vec.coeffs.items():
            out[(mono + (tdeg,), name)] = c
    return ArtinVector.from_nonzero(out)


def fraction_pushforward_series(morphism, x, algebra):
    return fraction_power_series(
        x, algebra, morphism.source.sdeg, morphism.component, limit=morphism.max_weight
    )


def fraction_pushforward_mc(morphism, x, algebra):
    if fraction_bracket_series(x, morphism.source, algebra):
        raise ValueError("input does not satisfy the source Maurer-Cartan equation")
    out = fraction_pushforward_series(morphism, x, algebra)
    if fraction_bracket_series(out, morphism.target, algebra):
        raise ValueError("pushforward failed the target Maurer-Cartan equation")
    return out


def fraction_hitchin_map(x, morphism, algebra):
    split = [{} for _ in range(morphism.max_weight)]
    for (mono, name), c in fraction_pushforward_series(morphism, x, algebra).coeffs.items():
        split[morphism.target_weights[name] - 1][(mono, name)] = c
    return tuple(ArtinVector.from_nonzero(part) for part in split)


def fraction_verify_homotopy_witness(path, x, y, structure, algebra):
    """verify_homotopy_witness on paths whose endpoints are x and y."""
    assert path.endpoint(False) == x and path.endpoint(True) == y
    bound = max(1, path.max_t_degree()) * max(1, algebra.nilpotency_order - 1) + 1
    ext = linfty._parameter_extension(algebra, bound)
    z0 = fraction_embed_path_part(path.even)
    z1 = fraction_embed_path_part(path.odd)
    residual = fraction_bracket_series(z0, structure, ext)
    if residual:
        return CheckReport.failed("path-mc", (), residual)
    head = {((name,), mono): c for (mono, name), c in z1.coeffs.items()}
    dt_part = fraction_t_derivative(z0) + fraction_bracket_series(z0, structure, ext, head)
    if dt_part:
        return CheckReport.failed("path-dt", (), dt_part)
    return CheckReport.passed()


def fraction_homotopy_from_gauge(result, x, dgla, algebra):
    a = result.witness
    ext = linfty._parameter_extension(algebra, algebra.nilpotency_order)
    flow = fraction_gauge_act(
        fraction_embed_path_part({1: a}), fraction_embed_path_part({0: x}), dgla, ext
    )
    even = {}
    for (mono, name), c in flow.coeffs.items():
        even.setdefault(mono[-1], {})[(mono[:-1], name)] = c
    return PolyPath({m: ArtinVector.from_nonzero(t) for m, t in even.items()}, {0: -a})


# Q[t]/(t^7), Q[s, t] truncated at total degree 4 and Q[s, t, u]/(deg 3)
ORACLE_RINGS = [make_artin(("t",), 7), make_artin(("s", "t"), 5), make_artin(("s", "t", "u"), 3)]


def rescaled_structure(structure, lam):
    """structure on the basis lam_n n: the same L-infinity algebra, with
    structure constants of denominators 3 and 7 for lam in SCALES."""
    return LInftyStructure(structure.space, {
        k: {
            word: {n: c * math.prod(lam[w] for w in word) / lam[n] for n, c in vec.coeffs.items()}
            for word, vec in table.items()
        }
        for k, table in structure.brackets.items()
    })


def rescaled_morphism(morphism, lam, mu):
    """morphism between the structures rescaled by lam (source) and mu
    (target), its components read through a generator."""
    def generator(k, word):
        scale = math.prod(lam[w] for w in word)
        vec = morphism.component(word)
        return GradedVector({n: c * scale / mu[n] for n, c in vec.coeffs.items()})

    return LInftyMorphism(
        rescaled_structure(morphism.source, lam), rescaled_structure(morphism.target, mu),
        generator, morphism.max_weight, morphism.support,
    )


def scales(rng, space):
    return {n: rng.choice(SCALES) for n in space.names}


def assert_same_report(got, want):
    assert (got.ok, got.axiom, got.witness) == (want.ok, want.axiom, want.witness)
    if want.value is None:
        assert got.value is None
    else:
        assert_same_vector(got.value, want.value)


def test_linfty_series_match_the_fraction_oracles():
    """linfty_mc_residual on rescaled structures, and pushforward_series on
    rescaled random morphisms, whatever the Maurer-Cartan equations say."""
    rng = random.Random(3701)
    seen = {"residual": 0, "pushforward": 0, "q3": 0}
    for algebra in ORACLE_RINGS:
        for label, structure, _ in series_structures():
            structure = rescaled_structure(structure, scales(rng, structure.space))
            ones = structure.space.names_of_degree(1)
            for _ in range(3):
                x = random_element(rng, ones, algebra, count=4)
                got = linfty_mc_residual(x, structure, algebra)
                assert_same_vector(got, fraction_bracket_series(x, structure, algebra))
                seen["residual"] += bool(got)
                seen["q3"] += bool(got) and 3 in structure.brackets
        for _ in range(6):
            base = random_morphism(rng, RANDOM_SPACE, width=2)
            space = base.source.space
            morphism = rescaled_morphism(base, scales(rng, space), scales(rng, space))
            x = random_element(rng, space.names_of_degree(1), algebra, count=4)
            got = pushforward_series(morphism, x, algebra)
            assert_same_vector(got, fraction_pushforward_series(morphism, x, algebra))
            seen["pushforward"] += bool(got)
    assert min(seen.values()) >= 5, seen


def hitchin_oracle_pairs(rng):
    """Rank-2 and rank-3 pairs on one letter with entries in SCALES."""
    letter = GradedSpace([("l", 1)])

    def entry():
        return {"l": rng.choice(SCALES)} if rng.random() < 0.6 else {}

    return [
        HitchinPair(r, letter, [[entry() for _ in range(r)] for _ in range(r)]) for r in (2, 2, 3)
    ]


def test_pushforward_and_hitchin_map_match_the_fraction_oracles():
    """pushforward_mc and hitchin_map on Maurer-Cartan elements from
    mc_solve: along Hitchin morphisms of pairs with non-whole entries, and
    along the rescaling isomorphism of a dgla's structure."""
    rng = random.Random(3702)
    seen = {"hitchin": 0, "rescaling": 0}
    cdgas = [trivial_cdga(), interval_cdga(), derham_fat_point()]
    for algebra in ORACLE_RINGS:
        for pair in hitchin_oracle_pairs(rng):
            morphism = build_hitchin_morphism(pair, rng.choice(cdgas))
            model = morphism.source_dgla
            reps = model.cohomology().representatives(1)
            directions = None
            if reps:
                directions = [random_direction(rng, model, algebra, reps) for _ in range(2)]
            for x in mc_solve(model, algebra, directions).solutions:
                if x is None:
                    continue
                got = pushforward_mc(morphism, x, algebra)
                assert_same_vector(got, fraction_pushforward_mc(morphism, x, algebra))
                parts = hitchin_map(x, morphism, algebra)
                want = fraction_hitchin_map(x, morphism, algebra)
                assert len(parts) == len(want)
                for part, oracle in zip(parts, want):
                    assert_same_vector(part, oracle)
                seen["hitchin"] += bool(got)
        for model in (semidirect(), h0_zero_model(), correction_model(Fraction(2, 3), -1, 7)):
            lam = scales(rng, model.space)
            structure = linfty_from_dgla(model)
            rescaling = LInftyMorphism(
                structure, rescaled_structure(structure, lam),
                {1: {(n,): {n: 1 / lam[n]} for n in model.space.names}},
            )
            reps = model.cohomology().representatives(1)
            directions = [random_direction(rng, model, algebra, reps)]
            for x in mc_solve(model, algebra, directions).solutions:
                if x is not None:
                    got = pushforward_mc(rescaling, x, algebra)
                    assert_same_vector(got, fraction_pushforward_mc(rescaling, x, algebra))
                    seen["rescaling"] += bool(got)
    assert min(seen.values()) >= 5, seen


def test_homotopy_routines_match_the_fraction_oracles():
    """homotopy_from_gauge on gauge pairs of rescaled dglas, and
    verify_homotopy_witness on its paths (a pass), on the same paths with
    the dt part flipped (path-dt) and on random paths (path-mc)."""
    rng = random.Random(3703)
    axioms = []
    nilpotent = HitchinPair(2, GradedSpace([("l", 1)]), [[{}, {"l": 1}], [{}, {}]])
    models = [rescaled(model, rng) for model in (
        semidirect(), h0_zero_model(), cancel_and_return_model(),
        correction_model(Fraction(2, 3), Fraction(-5, 7), Fraction(3, 7)),
        build_hitchin_dgla(nilpotent, interval_cdga()),
    )]
    for algebra in ORACLE_RINGS:
        # gauge paths over the same variables truncated at 3, which keeps
        # their t-extended base small
        small = make_artin(algebra.variables, 3)
        for model in models:
            structure = linfty_from_dgla(model)
            zeros, ones = (model.space.names_of_degree(d) for d in (0, 1))
            for _ in range(2 if zeros else 0):
                x = random_37_vector(rng, ones, small, 2, low=2)
                a = random_37_vector(rng, zeros, small, 2, low=2)
                if mc_residual(x, model, small):
                    continue
                result, y = GaugeResult(True, witness=a), gauge_act(a, x, model, small)
                path = homotopy_from_gauge(result, x, model, small)
                want = fraction_homotopy_from_gauge(result, x, model, small)
                for got_part, want_part in ((path.even, want.even), (path.odd, want.odd)):
                    assert list(got_part) == list(want_part)
                    for m in want_part:
                        assert_same_vector(got_part[m], want_part[m])
                for p in (path, PolyPath(path.even, {0: a})):
                    got = verify_homotopy_witness(p, x, y, structure, small)
                    want = fraction_verify_homotopy_witness(p, x, y, structure, small)
                    assert_same_report(got, want)
                    axioms.append(got.axiom)
            x = random_37_vector(rng, ones, algebra, 3, low=2)
            step = random_37_vector(rng, ones, algebra, 2, low=2)
            odd = {0: random_37_vector(rng, zeros, algebra, 2, low=2)} if zeros else {}
            path = PolyPath({0: x, 1: step}, odd)
            got = verify_homotopy_witness(path, x, x + step, structure, algebra)
            want = fraction_verify_homotopy_witness(path, x, x + step, structure, algebra)
            assert_same_report(got, want)
            axioms.append(got.axiom)
    assert all(axioms.count(a) >= 3 for a in (None, "path-mc", "path-dt")), axioms
