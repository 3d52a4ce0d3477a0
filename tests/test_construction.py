"""The sparse constructions against their full-scan oracles.

tensor_cdga_dgla, linfty_from_dgla and matrix_wedge_dgla build their tables
from nonzero entries only.  The oracles below visit every pair of basis
names instead, and every table must come out the same: the same keys in
the same order, with the same values.
"""

import contextlib
import io
import os
import random
import sys
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from defcalc import linfty
from defcalc.artin import ArtinVector, make_artin
from defcalc.cli import main, parse_document
from defcalc.dgla import (
    Cdga,
    Dgla,
    _complete_skew,
    _matrix_tables,
    check_dgla,
    hom_dgla,
    hom_name,
    mc_solve,
    tensor_cdga_dgla,
    tensor_name,
    trivial_cdga,
)
from defcalc.graded import (
    GradedMap,
    GradedSpace,
    GradedVector,
    accumulate,
    complex_cohomology,
    wedge_word,
)
from defcalc.hitchin import (
    HitchinPair,
    build_hitchin_dgla,
    build_hitchin_morphism,
    complex_C_cohomology,
    hitchin_map,
    matrix_name,
    matrix_wedge_dgla,
    obstruction_kernel_map,
    sym_space,
    wedge_suffix,
)
from defcalc.linfty import (
    LInftyStructure,
    linfty_from_dgla,
    normalize_word,
    shifted_degrees,
    word_key,
)

from test_dgla import (
    bracket_basis,
    contractible,
    derham_fat_point,
    heisenberg,
    interval_cdga,
    semidirect,
)


def _sign(exponent):
    return -1 if exponent % 2 else 1


# ---------------------------------------------------------------------------
# Full-scan oracles.


def oracle_tensor_cdga_dgla(cdga, dgla):
    """Every (a, x) column and every (a, b) product against every bracket."""
    A, L = cdga, dgla
    basis = []
    for a in A.space.names:
        for x in L.space.names:
            basis.append((tensor_name(a, x), A.space.degree(a) + L.space.degree(x)))
    space = GradedSpace(basis)

    def embed(avec, xvec):
        out = {}
        for a, ca in avec.coeffs.items():
            for x, cx in xvec.coeffs.items():
                accumulate(out, tensor_name(a, x), ca * cx)
        return GradedVector(out)

    columns = {}
    for a in A.space.names:
        for x in L.space.names:
            img = embed(A.d.column(a), GradedVector.basis(x)) + embed(
                GradedVector.basis(a), L.d.column(x)
            ).scale(_sign(A.space.degree(a)))
            if not img.is_zero():
                columns[tensor_name(a, x)] = img
    differential = GradedMap(space, space, 1, columns)

    brackets = {}
    for (x, y), vec in L.brackets.items():
        for a in A.space.names:
            for b in A.space.names:
                ab = A.product_basis(a, b)
                if ab.is_zero():
                    continue
                out = embed(ab, vec).scale(_sign(A.space.degree(b) * L.space.degree(x)))
                if not out.is_zero():
                    brackets[(tensor_name(a, x), tensor_name(b, y))] = out
    return Dgla(space, differential, brackets)


def oracle_linfty_from_dgla(dgla):
    """q_2 from every pair of letters in basis_words order."""
    space = dgla.space
    sdeg = shifted_degrees(space)
    q1 = {}
    for name in space.names:
        col = dgla.d.column(name)
        if not col.is_zero():
            q1[(name,)] = -col
    q2 = {}
    letters = sorted(space.names, key=word_key(sdeg))
    for a, b in combinations_with_replacement(letters, 2):
        word, sign = normalize_word((a, b), sdeg)
        if sign == 0:
            continue
        val = bracket_basis(dgla, a, b).scale(sign * _sign(space.degree(a)))
        if not val.is_zero():
            q2[word] = val
    brackets = {}
    if q1:
        brackets[1] = q1
    if q2:
        brackets[2] = q2
    return LInftyStructure(space, brackets)


def oracle_matrix_wedge_dgla(rank, l_space, theta):
    """Every pair of basis elements tried for a bracket."""
    l_names = l_space.names
    order = {name: p for p, name in enumerate(l_names)}
    basis = []
    parts = {}
    for q in range(len(l_names) + 1):
        for combo in combinations(l_names, q):
            for i in range(1, rank + 1):
                for j in range(1, rank + 1):
                    name = matrix_name(i, j) + wedge_suffix(combo)
                    basis.append((name, q))
                    parts[name] = (i, j, combo)
    space = GradedSpace(basis)
    entries = [
        [v if isinstance(v, GradedVector) else GradedVector(v or {}) for v in row]
        for row in theta
    ]
    theta_mats = {
        l: [[entries[p][q][l] for q in range(rank)] for p in range(rank)] for l in l_names
    }

    columns = {}
    for name, (i, j, combo) in parts.items():
        col = {}
        for l in l_names:
            word, sign = wedge_word((l,) + combo, order)
            if sign == 0:
                continue
            tmat = theta_mats[l]
            for p in range(1, rank + 1):
                c = tmat[p - 1][i - 1]
                if c:
                    accumulate(col, matrix_name(p, j) + wedge_suffix(word), c * sign)
            for q in range(1, rank + 1):
                c = tmat[j - 1][q - 1]
                if c:
                    accumulate(col, matrix_name(i, q) + wedge_suffix(word), -c * sign)
        if col:
            columns[name] = col
    differential = GradedMap(space, space, 1, columns)

    brackets = {}
    for na, (i, j, h) in parts.items():
        for nb, (k, l, w) in parts.items():
            entry = {}
            if j == k:
                word, sign = wedge_word(h + w, order)
                if sign:
                    accumulate(entry, matrix_name(i, l) + wedge_suffix(word), sign)
            if l == i:
                word, sign = wedge_word(w + h, order)
                if sign:
                    flip = _sign(len(h) * len(w))
                    accumulate(entry, matrix_name(k, j) + wedge_suffix(word), -flip * sign)
            if entry:
                brackets[(na, nb)] = entry
    return Dgla(space, differential, brackets)


# ---------------------------------------------------------------------------
# Comparison: keys in order, values and their types.


def table_items(table):
    return [
        (key, [(name, c, type(c)) for name, c in vec.coeffs.items()])
        for key, vec in table.items()
    ]


def assert_same_dgla(new, old):
    assert new.space == old.space
    assert table_items(new.d.columns) == table_items(old.d.columns)
    assert table_items(new.brackets) == table_items(old.brackets)


def assert_same_linfty(new, old):
    assert new.space == old.space
    assert list(new.brackets) == list(old.brackets)
    for k, table in old.brackets.items():
        assert table_items(new.brackets[k]) == table_items(table)


# ---------------------------------------------------------------------------
# Models.


def exterior_cdga(c):
    """1, w1, w2 in degree 1 and w12 = c w1 w2 in degree 2."""
    space = GradedSpace([("1", 0), ("w1", 1), ("w2", 1), ("w12", 2)])
    return Cdga(space, None, {("w1", "w2"): {"w12": c}}, "1")


def seeded_theta(rng, rank, letters):
    """Nilpotent or diagonal theta whose letter components commute."""
    theta = [[{} for _ in range(rank)] for _ in range(rank)]
    scale = Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 3]))
    if rng.random() < 0.5:
        for i in range(rank - 1):
            c = Fraction(rng.randint(1, 6))
            theta[i][i + 1] = {letters[0]: c}
            if len(letters) > 1:
                theta[i][i + 1][letters[1]] = scale * c
        if rank >= 3:
            theta[0][rank - 1] = {letters[0]: Fraction(rng.randint(-4, -1))}
    else:
        for i in range(rank):
            theta[i][i] = {name: Fraction(rng.randint(-5, 5)) for name in letters}
    return theta


def seeded_pairs():
    rng = random.Random(808)
    cdgas = [
        ("trivial", trivial_cdga()),
        ("interval", interval_cdga()),
        ("exterior", exterior_cdga(Fraction(rng.randint(2, 7), 3))),
        ("fatpoint", derham_fat_point()),
    ]
    cases = []
    for rank in (2, 3, 4):
        for n_letters in (1, 2):
            letters = [f"l{i + 1}" for i in range(n_letters)]
            l_space = GradedSpace([(name, 1) for name in letters])
            pair = HitchinPair(rank, l_space, seeded_theta(rng, rank, letters))
            for label, cdga in cdgas:
                cases.append(pytest.param(pair, cdga, id=f"r{rank}-l{n_letters}-{label}"))
    return cases


@pytest.mark.parametrize("pair, cdga", seeded_pairs())
def test_hitchin_construction_matches_full_scan(pair, cdga):
    morphism = build_hitchin_morphism(pair, cdga)
    inner = oracle_matrix_wedge_dgla(pair.rank, pair.l_space, pair.theta)
    assert_same_dgla(matrix_wedge_dgla(pair.rank, pair.l_space, pair.theta), inner)
    source = oracle_tensor_cdga_dgla(cdga, inner)
    assert_same_dgla(morphism.source_dgla, source)
    space = sym_space(pair)
    target = oracle_tensor_cdga_dgla(cdga, Dgla(space, None, {}))
    assert_same_dgla(morphism.target_dgla, target)
    assert_same_linfty(morphism.source, oracle_linfty_from_dgla(source))
    assert_same_linfty(morphism.target, oracle_linfty_from_dgla(target))


def test_matrix_wedge_with_raw_theta_entries():
    l_space = GradedSpace([("l1", 1), ("l2", 1)])
    theta = [[{"l1": 1}, None], [{"l2": Fraction(1, 2)}, {"l1": -2, "l2": 3}]]
    assert_same_dgla(
        matrix_wedge_dgla(2, l_space, theta), oracle_matrix_wedge_dgla(2, l_space, theta)
    )


def end_complex():
    """v0 -> v1 -> v2 with d v0 = 2 v1, and v3 in degree 1 off the chain."""
    space = GradedSpace([("v0", 0), ("v1", 1), ("v2", 2), ("v3", 1)])
    return Dgla(space, GradedMap(space, space, 1, {"v0": {"v1": 2}}), {})


def one_sided():
    """A table given without mirrors, its names listed out of basis order."""
    space = GradedSpace([("z", 0), ("p", 1), ("q", 1), ("r", 2)])
    d = GradedMap(space, space, 1, {"z": {"p": 1, "q": -1}})
    brackets = {
        ("q", "p"): {"r": 3},
        ("p", "p"): {"r": Fraction(1, 2)},
        ("z", "q"): {"q": 2},
        ("p", "z"): {"p": -1},
    }
    return Dgla(space, d, brackets)


def endomorphisms(model):
    return hom_dgla(model.space, model.d)


INNER_DGLAS = {
    "End(V) contractible": lambda: endomorphisms(contractible()),
    "End(V) chain": lambda: endomorphisms(end_complex()),
    "heisenberg": heisenberg,
    "semidirect": semidirect,
    "one-sided table": one_sided,
}


@pytest.mark.parametrize("make", INNER_DGLAS.values(), ids=list(INNER_DGLAS))
@pytest.mark.parametrize(
    "cdga",
    [trivial_cdga(), interval_cdga(), exterior_cdga(Fraction(-2)), derham_fat_point()],
    ids=["trivial", "interval", "exterior", "fatpoint"],
)
def test_tensor_and_linfty_match_full_scan(make, cdga):
    inner = make()
    new, old = tensor_cdga_dgla(cdga, inner), oracle_tensor_cdga_dgla(cdga, inner)
    assert_same_dgla(new, old)
    assert_same_linfty(linfty_from_dgla(inner), oracle_linfty_from_dgla(inner))
    assert_same_linfty(linfty_from_dgla(new), oracle_linfty_from_dgla(old))


def test_wrong_degree_dgla_raises_the_same_error():
    # both entries leave degree |a| + |b|; the first in basis_words order,
    # not in table order, is the one reported
    space = GradedSpace([("a", 1), ("b", 1)])
    wrong = Dgla(space, None, {("b", "b"): {"b": 1}, ("a", "a"): {"a": 1}})
    with pytest.raises(ValueError) as new:
        linfty_from_dgla(wrong)
    with pytest.raises(ValueError) as old:
        oracle_linfty_from_dgla(wrong)
    assert str(new.value) == str(old.value)
    assert "('a', 'a')" in str(new.value)
    # q_1 = -d is checked before q_2: a differential into a larger space
    # hits a name outside the dgla's, or a name of another degree there
    for target, message in (
        (GradedSpace([("a", 1), ("b", 1), ("c", 2)]), "unknown name 'c'"),
        (GradedSpace([("a", 1), ("b", 2)]), "q_1 is not homogeneous"),
    ):
        d = GradedMap(space, target, 1, {"a": {target.names[-1]: 1}})
        wrong = Dgla(space, d, {("a", "a"): {"a": 1}})
        with pytest.raises(ValueError) as new:
            linfty_from_dgla(wrong)
        with pytest.raises(ValueError) as old:
            oracle_linfty_from_dgla(wrong)
        assert str(new.value) == str(old.value)
        assert message in str(new.value)


def entries(table):
    return {key: dict(vec.coeffs) for key, vec in table.items()}


def test_matrices_over_an_exterior_algebra_on_a_graded_index():
    """Where odd letters meet odd matrix units, the signs of _matrix_tables
    are those of Lambda(w1, w2) (x) End(V) built by tensor_cdga_dgla; the
    central w1 (x) 1 adds nothing to d, and w1 (x) N twists to a dgla."""
    space = GradedSpace([("u0", 0), ("v", 1), ("u1", 0), ("z", 2)])
    d = {"u0": {"v": Fraction(1)}, "u1": {"v": Fraction(2)}}
    index = [(name, space.degree(name)) for name in space.names]
    words = {(): "1", ("w1",): "w1", ("w2",): "w2", ("w1", "w2"): "w12"}

    def name(a, w, v):
        return tensor_name(words[a], hom_name(w, v))

    end = hom_dgla(space, GradedMap(space, space, 1, d))
    tensor = tensor_cdga_dgla(exterior_cdga(Fraction(1)), end)
    identity = {v: {v: Fraction(1)} for v in space.names}
    for x in ({(): d}, {(): d, ("w1",): identity}):
        built, differential, build_brackets = _matrix_tables(index, ("w1", "w2"), x, name)
        assert built == tensor.space
        assert entries(differential.columns) == entries(tensor.d.columns)
        assert entries(build_brackets()) == entries(tensor.brackets)
    n = {"u1": {"u0": Fraction(3)}, "v": {"v": Fraction(-1)}}
    twisted = Dgla._from_canonical(*_matrix_tables(index, ("w1", "w2"), {("w1",): n}, name))
    assert twisted.d.columns and check_dgla(twisted).ok


# ---------------------------------------------------------------------------
# Dgla._from_canonical: the constructions' tables need no completion.

ROOT = os.path.join(os.path.dirname(__file__), "..")


def shipped_documents(kind):
    found = []
    for folder in ("sample_inputs", os.path.join("tests", "golden", "inputs")):
        for name in sorted(os.listdir(os.path.join(ROOT, folder))):
            doc = parse_document(os.path.join(ROOT, folder, name))
            if doc.kind == kind:
                found.append(doc.kernel)
    return found


def test_constructed_tables_are_complete_as_built(monkeypatch):
    """Every dgla the constructions hand to _from_canonical, over the shipped
    and seeded inputs, has a table _complete_skew leaves as it is: the same
    keys in the same order, with the same values."""
    built = []
    make = Dgla._from_canonical.__func__

    def recording(cls, space, differential, brackets):
        dgla = make(cls, space, differential, brackets)
        built.append((sys._getframe(1).f_code.co_name, dgla))
        return dgla

    monkeypatch.setattr(Dgla, "_from_canonical", classmethod(recording))
    cdgas = shipped_documents("cdga") + [
        trivial_cdga(), interval_cdga(), exterior_cdga(Fraction(-2)), derham_fat_point()
    ]
    for pair in shipped_documents("hitchin-pair"):
        for cdga in cdgas:
            build_hitchin_morphism(pair, cdga)
    for param in seeded_pairs():
        build_hitchin_morphism(*param.values)
    for inner in shipped_documents("dgla") + [make() for make in INNER_DGLAS.values()]:
        for cdga in cdgas:
            tensor_cdga_dgla(cdga, inner)
        hom_dgla(inner.space, inner.d)

    assert {site for site, _ in built} == {
        "tensor_cdga_dgla", "matrix_wedge_dgla", "hom_dgla", "hitchin_target"
    }
    for _, dgla in built:
        assert dgla.d.degree == 1
        completed = _complete_skew(
            dgla.space, dgla.brackets, lambda da, db: -_sign(da * db), "bracket"
        )
        assert table_items(completed) == table_items(dgla.brackets)


# ---------------------------------------------------------------------------
# Tables built the first time they are read.


def spy_tables(monkeypatch):
    """A list that records each bracket table a construction builds, by the
    name of the construction that handed its builder to _from_canonical,
    and each linfty_from_dgla call, as "linfty"."""
    calls = []
    make = Dgla._from_canonical.__func__
    from_dgla = linfty.linfty_from_dgla

    def recording(cls, space, differential, build_brackets):
        site = sys._getframe(1).f_code.co_name

        def build():
            calls.append(site)
            return build_brackets()

        return make(cls, space, differential, build)

    def counted(dgla):
        calls.append("linfty")
        return from_dgla(dgla)

    monkeypatch.setattr(Dgla, "_from_canonical", classmethod(recording))
    monkeypatch.setattr(linfty, "linfty_from_dgla", counted)
    return calls


def lazy_cases():
    """The shipped pairs over the trivial and shipped CDGAs, and the seeded
    rank-2 and rank-3 pairs over every seeded CDGA."""
    cdgas = [trivial_cdga()] + shipped_documents("cdga")
    cases = [(pair, cdga) for pair in shipped_documents("hitchin-pair") for cdga in cdgas]
    return cases + [p.values for p in seeded_pairs() if p.values[0].rank < 4]


def oracle_dglas(pair, cdga):
    inner = oracle_matrix_wedge_dgla(pair.rank, pair.l_space, pair.theta)
    target = oracle_tensor_cdga_dgla(cdga, Dgla(sym_space(pair), None, {}))
    return oracle_tensor_cdga_dgla(cdga, inner), target


def test_complex_C_cohomology_builds_no_bracket_table(monkeypatch):
    calls = spy_tables(monkeypatch)
    for pair, cdga in lazy_cases():
        summary = complex_C_cohomology(pair, cdga)
        source, _ = oracle_dglas(pair, cdga)
        want = complex_cohomology(source.space, source.d)
        assert summary.dimensions() == want.dimensions()
        for deg in want.degrees():
            assert summary.representatives(deg) == want.representatives(deg)
    assert calls == []


def test_hitchin_map_and_kernel_map_build_only_the_tables_they_read(monkeypatch):
    calls = spy_tables(monkeypatch)
    algebra = make_artin(("t",), 3)
    for pair, cdga in lazy_cases():
        solved = mc_solve(build_hitchin_dgla(pair, cdga), algebra)
        calls.clear()
        morphism = build_hitchin_morphism(pair, cdga)
        source_dgla = morphism.source_dgla
        # degree-2 cocycles: the representatives and every coboundary
        cocycles = source_dgla.cohomology().representatives(2) + [
            source_dgla.d(GradedVector.basis(name))
            for name in source_dgla.space.names_of_degree(1)
        ]
        for z in cocycles:
            obstruction_kernel_map(z, morphism)
        assert calls == []
        # the zero element reads the source brackets too: mc_residual does
        for x in [ArtinVector()] + [x for x in solved.solutions if x is not None]:
            hitchin_map(x, morphism, algebra)
        assert calls == ["tensor_cdga_dgla", "matrix_wedge_dgla"]
        # read afterwards, every table is the full scan's, and a second read
        # builds nothing
        source, target = oracle_dglas(pair, cdga)
        for _ in range(2):
            assert_same_dgla(morphism.source_dgla, source)
            assert_same_dgla(morphism.target_dgla, target)
            assert_same_linfty(morphism.source, oracle_linfty_from_dgla(source))
            assert_same_linfty(morphism.target, oracle_linfty_from_dgla(target))
        assert calls[2:] == ["tensor_cdga_dgla", "hitchin_target", "linfty", "linfty"]
        assert morphism.source.brackets is morphism.source.brackets


GOLDEN = os.path.join("tests", "golden")
S = "sample_inputs/"


@pytest.mark.parametrize("argv, report, built", [
    (["cohomology", S + "hitchin_r2_nilpotent.json", S + "cdga_interval.json"],
     "15-cohomology.json", []),
    (["hitchin-map", S + "hitchin_r2_zero.json", "tests/golden/inputs/mc_r2_t4.json",
      S + "cdga_interval.json"], "35-hitchin-map.json",
     ["matrix_wedge_dgla", "tensor_cdga_dgla"]),
    (["obstruction", S + "hitchin_r2_zero.json", S + "cdga_interval.json"],
     "39-obstruction.json", ["matrix_wedge_dgla", "tensor_cdga_dgla"]),
    (["pushforward", S + "hitchin_r2_zero.json", "tests/golden/inputs/mc_r2_t4.json",
      S + "cdga_interval.json"], "31-pushforward.json",
     ["hitchin_target", "linfty", "linfty", "matrix_wedge_dgla", "tensor_cdga_dgla",
      "tensor_cdga_dgla"]),
])
def test_cli_builds_only_the_tables_a_command_reads(monkeypatch, argv, report, built):
    calls = spy_tables(monkeypatch)
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    with open(os.path.join(GOLDEN, report), encoding="utf-8", newline="") as handle:
        assert out.getvalue() == handle.read()
    assert sorted(calls) == built
