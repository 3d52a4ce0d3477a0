"""Matrix-of-forms pairs, their dgla, trace maps, obstruction kernel."""

import gc
import os
import random
from fractions import Fraction
from itertools import permutations

import pytest

from defcalc.artin import ArtinVector, make_artin
from defcalc.cli import parse_document
from defcalc.dgla import Cdga, CheckReport, check_dgla, gauge_act, is_mc, mc_solve
from defcalc.dgla import tensor_name, trivial_cdga
from defcalc.graded import GradedMap, GradedSpace, GradedVector, accumulate, as_fraction
from defcalc.graded import complex_cohomology
from defcalc.hitchin import (
    HiggsFieldError,
    HitchinPair,
    _mat_mul,
    _sym_entry_mul,
    _theta_powers,
    _word_trace_sum,
    build_hitchin_dgla,
    build_hitchin_morphism,
    complex_C_cohomology,
    g_coefficient,
    hitchin_map,
    hitchin_target,
    matrix_name,
    matrix_wedge_dgla,
    obstruction_kernel_map,
    sym_name,
    wedge_suffix,
)
from defcalc.linfty import check_linfty_morphism, pushforward_mc
from test_artin import coefficient_vector, monomials_present
from test_construction import exterior_cdga, seeded_theta
from test_dgla import bracket_basis, derham_fat_point
from test_linalg import fraction_rref


def one_letter_space():
    return GradedSpace([("l", 1)])


def two_letter_space():
    return GradedSpace([("l1", 1), ("l2", 1)])


def diag_pair():
    """rank 2, one letter, theta = E11 l."""
    return HitchinPair(2, one_letter_space(), [[{"l": 1}, {}], [{}, {}]])


def zero_pair(rank=2):
    l_space = one_letter_space()
    return HitchinPair(rank, l_space, [[{} for _ in range(rank)] for _ in range(rank)])


def interval_cdga():
    space = GradedSpace([("1", 0), ("w", 1)])
    return Cdga(space, GradedMap(space, space, 1, {}), {}, "1")


def test_names_frozen():
    assert matrix_name(1, 2) == "E12"
    assert wedge_suffix(("l1", "l2")) == "^l1^l2"
    assert sym_name(("l", "l")) == "l.l"


def test_pair_validation():
    l_space = one_letter_space()
    with pytest.raises(ValueError):
        HitchinPair(0, l_space, [])
    with pytest.raises(ValueError):
        HitchinPair(10, l_space, [[{} for _ in range(10)] for _ in range(10)])
    # every letter sits in degree 1, as Lambda^q L sits in degree q
    with pytest.raises(ValueError, match="L must sit in degree 1, but 'l2' has degree 2"):
        HitchinPair(1, GradedSpace([("l1", 1), ("l2", 2)]), [[{}]])
    with pytest.raises(ValueError, match="'l' has degree 0"):
        HitchinPair(1, GradedSpace([("l", 0)]), [[{}]])
    with pytest.raises(ValueError):
        # wrong shape
        HitchinPair(2, l_space, [[{}]])
    with pytest.raises(ValueError, match="theta entry uses unknown name 'zz'"):
        HitchinPair(2, l_space, [[{}, {"zz": 1}], [{}, {}]])


def test_noncommuting_field_rejected_with_witness():
    l_space = two_letter_space()
    theta = [[{}, {"l1": 1}], [{"l2": 1}, {}]]
    with pytest.raises(HiggsFieldError) as info:
        HitchinPair(2, l_space, theta)
    i, j, terms = info.value.witness
    assert (i, j) == (0, 0)
    assert terms == {("l1", "l2"): Fraction(1)}


def test_commuting_field_accepted():
    # one letter squares to zero, so any theta works there
    l_space = one_letter_space()
    HitchinPair(2, l_space, [[{"l": 1}, {"l": 5}], [{"l": -2}, {"l": 1}]])
    # two letters: diagonal fields commute
    HitchinPair(
        2, two_letter_space(), [[{"l1": 1}, {}], [{}, {"l2": Fraction(1, 3)}]]
    )


def test_matrix_wedge_dgla_frozen():
    pair = diag_pair()
    inner = matrix_wedge_dgla(pair.rank, pair.l_space, pair.theta)
    assert inner.space.names == (
        "E11", "E12", "E21", "E22",
        "E11^l", "E12^l", "E21^l", "E22^l",
    )
    assert inner.space.degree("E12") == 0
    assert inner.space.degree("E12^l") == 1
    # d psi = [theta, psi] l-expansion
    assert inner.d.column("E12").coeffs == {"E12^l": Fraction(1)}
    assert inner.d.column("E21").coeffs == {"E21^l": Fraction(-1)}
    assert inner.d.column("E11").is_zero()
    assert inner.d.column("E12^l").is_zero()
    # matrix commutator against a wedge letter
    assert bracket_basis(inner, "E12", "E21^l").coeffs == {
        "E11^l": Fraction(1),
        "E22^l": Fraction(-1),
    }
    assert bracket_basis(inner, "E12^l", "E21^l").is_zero()
    assert check_dgla(inner).ok


def test_bad_field_shows_up_as_broken_complex():
    # bypassing pair validation: d squares to theta ^ theta
    l_space = two_letter_space()
    theta = [
        [GradedVector(), GradedVector({"l1": 1})],
        [GradedVector({"l2": 1}), GradedVector()],
    ]
    inner = matrix_wedge_dgla(2, l_space, theta)
    report = check_dgla(inner)
    assert not report.ok
    assert report.axiom == "complex"


def test_build_hitchin_dgla_degrees():
    total = build_hitchin_dgla(diag_pair(), interval_cdga())
    assert len(total.space) == 16
    counts = {
        d: len(total.space.names_of_degree(d))
        for d in total.space.degrees_present()
    }
    assert counts == {0: 4, 1: 8, 2: 4}
    assert check_dgla(total).ok


def test_complex_C_cohomology_frozen():
    summary = complex_C_cohomology(diag_pair(), trivial_cdga())
    # kernel of [E11 l, -]: the diagonal; cokernel in wedge degree one
    assert summary.dimensions() == {0: 2, 1: 2}


def test_hitchin_target_frozen():
    target = hitchin_target(diag_pair(), interval_cdga())
    assert target.space.names == ("1*l", "1*l.l", "w*l", "w*l.l")
    assert target.space.degree("1*l") == 1
    assert target.space.degree("w*l.l") == 2
    assert target.brackets == {}
    assert check_dgla(target).ok


def fmat(i, j, l_name="l", rank=2):
    out = [[{} for _ in range(rank)] for _ in range(rank)]
    out[i][j] = {l_name: 1}
    return out


def test_g_coefficient_frozen():
    pair = diag_pair()
    cdga = trivial_cdga()
    one = GradedVector({"1": 1})
    # k = 1: plain trace of the argument
    assert g_coefficient(1, [(one, fmat(0, 0))], pair, cdga).coeffs == {
        "1*l": Fraction(1)
    }
    assert g_coefficient(1, [(one, fmat(0, 1))], pair, cdga).is_zero()
    # k = 2, one argument: 2 tr(f theta)
    assert g_coefficient(2, [(one, fmat(0, 0))], pair, cdga).coeffs == {
        "1*l.l": Fraction(2)
    }
    assert g_coefficient(2, [(one, fmat(1, 1))], pair, cdga).is_zero()
    # k = 2, two arguments: tr(f1 f2) + tr(f2 f1)
    args = [(one, fmat(0, 1)), (one, fmat(1, 0))]
    assert g_coefficient(2, args, pair, cdga).coeffs == {"1*l.l": Fraction(2)}
    with pytest.raises(ValueError):
        g_coefficient(3, [(one, fmat(0, 0))], pair, cdga)
    with pytest.raises(ValueError):
        g_coefficient(0, [], pair, cdga)


def test_g_coefficient_vanishes_with_the_form_product():
    pair = diag_pair()
    cdga = interval_cdga()
    w = GradedVector({"w": 1})
    args = [(w, fmat(0, 0)), (w, fmat(0, 0))]
    assert g_coefficient(2, args, pair, cdga).is_zero()


def test_morphism_passes_identity_check():
    morphism = build_hitchin_morphism(diag_pair(), trivial_cdga())
    report = check_linfty_morphism(morphism, 4)
    assert report.ok, (report.axiom, report.witness)


def test_morphism_unsupported_letters_die():
    morphism = build_hitchin_morphism(diag_pair(), trivial_cdga())
    for name in ("1*E11", "1*E12", "1*E21", "1*E22"):
        assert morphism.component((name,)).is_zero()


def test_morphism_with_interval_cdga_passes():
    morphism = build_hitchin_morphism(diag_pair(), interval_cdga())
    report = check_linfty_morphism(morphism, 3)
    assert report.ok, (report.axiom, report.witness)


def test_a_dropped_morphism_leaves_no_reference_cycle():
    # the form cache is filled by a loop over cached prefixes, not by a
    # closure that calls itself, so a morphism is freed by reference counts
    gc.collect()
    gc.disable()
    try:
        morphism = build_hitchin_morphism(diag_pair(), interval_cdga())
        assert morphism.component(("1*E11^l", "w*E11^l")) == GradedVector({"w*l.l": 2})
        del morphism
        assert gc.collect() == 0
    finally:
        gc.enable()


def spy(monkeypatch, name):
    """Replace hitchin.<name> by a wrapper that records each call's
    arguments in the returned list."""
    from defcalc import hitchin

    calls, real = [], getattr(hitchin, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hitchin, name, wrapper)
    return calls


def test_a_word_whose_trace_vanishes_multiplies_no_form(monkeypatch):
    forms = spy(monkeypatch, "_form_product")
    morphism = build_hitchin_morphism(zero_pair(), interval_cdga())
    # tr(E12 E12 theta^g) = 0 for every g, while 1 w = w is not zero
    assert morphism.component(("1*E12^l", "w*E12^l")).is_zero()
    assert forms == []
    assert morphism.component(("1*E12^l", "w*E21^l")) == GradedVector({"w*l.l": 2})
    assert [a_parts for _, _, a_parts in forms] == [("1", "w")]


def test_words_with_the_same_units_run_one_walk(monkeypatch):
    walks = spy(monkeypatch, "_word_trace_sum")
    morphism = build_hitchin_morphism(diag_pair(), interval_cdga())
    # both words hold the units E11 l and E12 l once, over different forms
    assert morphism.component(("1*E11^l", "w*E12^l")).is_zero()
    assert morphism.component(("1*E12^l", "w*E11^l")).is_zero()
    assert morphism.component(("1*E11^l", "w*E11^l")) == GradedVector({"w*l.l": 2})
    assert morphism.component(("1*E11^l", "1*E11^l")) == GradedVector({"1*l.l": 2})
    assert [mats for _, mats, _, _ in walks] == [
        [{(0, 0): {("l",): 1}}, {(0, 1): {("l",): 1}}],
        [{(0, 0): {("l",): 1}}, {(0, 0): {("l",): 1}}],
    ]


def test_pushforward_and_hitchin_map_agree_frozen():
    pair = zero_pair()
    cdga = interval_cdga()
    morphism = build_hitchin_morphism(pair, cdga)
    algebra = make_artin(("t",), 4)
    x = ArtinVector(
        {((1,), "1*E12^l"): Fraction(1), ((1,), "1*E21^l"): Fraction(2)}
    )
    sections = hitchin_map(x, morphism, algebra)
    assert sections[0].is_zero()
    assert sections[1].terms == {((2,), "1*l.l"): Fraction(4)}
    assert sections == trace_power_oracle(x, pair, cdga, algebra)
    image = pushforward_mc(morphism, x, algebra)
    assert image.terms == {((2,), "1*l.l"): Fraction(4)}


# ---------------------------------------------------------------------------
# The Hitchin map is the pushforward split by Sym power; the direct
# matrix-power computation it replaced is the oracle.


def trace_power_oracle(x, pair, cdga, algebra):
    """tr((theta + y)^k) - tr(theta^k) for k = 1..rank, y the
    wedge-degree-one part of x, by matrix powers over A (x) Sym L with
    Artinian coefficients: entry keys are (monomial, CDGA basis name,
    Sym-monomial)."""
    order = pair._l_order
    r = pair.rank
    letter_parts = {
        tensor_name(a_name, matrix_name(i, j) + "^" + l): (a_name, i, j, l)
        for a_name in cdga.space.names
        for l in pair.l_space.names
        for i in range(1, r + 1)
        for j in range(1, r + 1)
    }

    def entry_mul(e1, e2, dest):
        for (mono1, a1, sym1), c1 in e1.items():
            for (mono2, a2, sym2), c2 in e2.items():
                mono = algebra.multiply_monomials(mono1, mono2)
                if mono is None:
                    continue
                sym = tuple(sorted(sym1 + sym2, key=order.get))
                for a_name, ca in cdga.product_basis(a1, a2).coeffs.items():
                    accumulate(dest, (mono, a_name, sym), c1 * c2 * ca)

    theta = {}
    for i in range(r):
        for j in range(r):
            for l, c in pair.theta[i][j].coeffs.items():
                theta.setdefault((i, j), {})[(algebra.unit, cdga.unit, (l,))] = c
    full = {key: dict(entry) for key, entry in theta.items()}
    for (mono, name), c in x.coeffs.items():
        part = letter_parts.get(name)
        if part is not None:
            a_name, i, j, l = part
            accumulate(full.setdefault((i - 1, j - 1), {}), (mono, a_name, (l,)), c)

    def trace_power(mat, k):
        prod = mat
        for _ in range(k - 1):
            prod = _mat_mul(prod, mat, entry_mul)
        return _mat_trace(prod)

    sections = []
    for k in range(1, r + 1):
        delta = trace_power(full, k)
        for key, c in trace_power(theta, k).items():
            accumulate(delta, key, -c)
        terms = {}
        for (mono, a_name, sym), c in delta.items():
            assert mono != algebra.unit, "constant term survived the subtraction"
            terms[(mono, tensor_name(a_name, sym_name(sym)))] = c
        sections.append(ArtinVector(terms))
    return tuple(sections)


def nilpotent_pair():
    return HitchinPair(2, one_letter_space(), [[{}, {"l": 1}], [{}, {}]])


def diagonal_two_letter_pair():
    return HitchinPair(2, two_letter_space(), [[{"l1": 1}, {}], [{}, {"l2": 1}]])


def random_element(rng, names, algebra, count=4):
    """Seeded element over the names, biased towards low-order monomials so
    that products survive the truncation."""
    monomials = algebra.maximal_ideal  # sorted by total degree
    terms = {}
    for _ in range(count):
        pick = min(rng.randrange(len(monomials)), rng.randrange(len(monomials)))
        terms[(monomials[pick], rng.choice(names))] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return ArtinVector(terms)



def test_hitchin_map_matches_the_matrix_power_oracle():
    rng = random.Random(1616)
    pairs = (diag_pair, zero_pair, lambda: zero_pair(3), nilpotent_pair,
             diagonal_two_letter_pair)
    cdgas = (trivial_cdga, interval_cdga, lambda: exterior_cdga(1), derham_fat_point)
    checked = nonzero = 0
    for make_pair in pairs:
        for make_cdga in cdgas:
            pair, cdga = make_pair(), make_cdga()
            morphism = build_hitchin_morphism(pair, cdga)
            source = morphism.source_dgla
            for truncation in (3, 4):
                algebra = make_artin(("t",), truncation)
                for x in mc_solve(source, algebra).solutions:
                    if x is None:
                        continue
                    # a gauge move keeps x Maurer-Cartan and fills in more entries
                    a = random_element(rng, source.space.names_of_degree(0), algebra)
                    for y in (x, gauge_act(a, x, source, algebra)):
                        sections = hitchin_map(y, morphism, algebra)
                        assert sections == trace_power_oracle(y, pair, cdga, algebra)
                        checked += 1
                        nonzero += any(sections)
    assert checked >= 100 and nonzero >= 50, (checked, nonzero)


def sample(name):
    root = os.path.join(os.path.dirname(__file__), "..", "sample_inputs")
    return parse_document(os.path.join(root, name)).kernel


def test_hitchin_map_is_gauge_invariant_on_the_sample():
    """For seeded Maurer-Cartan x and y = exp(a) . x, hitchin_map(y) -
    hitchin_map(x) has zero class in the target cohomology at every
    monomial."""
    pair = sample("hitchin_r2_zero.json")
    cdga = sample("cdga_interval.json")
    algebra = make_artin(("t",), 4)
    rng = random.Random(2020)
    morphism = build_hitchin_morphism(pair, cdga)
    source, target = morphism.source_dgla, morphism.target_dgla
    cohomology = complex_cohomology(target.space, target.d)
    degree0, degree1 = source.space.names_of_degree(0), source.space.names_of_degree(1)
    moved = nonzero = 0
    for _ in range(20):
        x = random_element(rng, degree1, algebra)
        while not (x and is_mc(x, source, algebra)):
            x = random_element(rng, degree1, algebra)
        y = gauge_act(random_element(rng, degree0, algebra), x, source, algebra)
        moved += y != x
        sections = hitchin_map(x, morphism, algebra)
        nonzero += any(sections)
        for before, after in zip(sections, hitchin_map(y, morphism, algebra)):
            diff = after - before
            for mono in monomials_present(diff):
                coords = cohomology.project(1, coefficient_vector(diff, mono))
                assert not any(coords), (mono, diff)
    assert moved >= 15 and nonzero >= 5, (moved, nonzero)


def test_hitchin_map_checks_maurer_cartan_once(monkeypatch):
    from defcalc import hitchin, linfty

    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(hitchin, "mc_residual", counted("dgla", hitchin.mc_residual))
    monkeypatch.setattr(
        linfty, "linfty_mc_residual", counted("linfty", linfty.linfty_mc_residual)
    )
    morphism = build_hitchin_morphism(zero_pair(), interval_cdga())
    x = ArtinVector({((1,), "1*E12^l"): Fraction(1), ((1,), "1*E21^l"): Fraction(2)})
    sections = hitchin_map(x, morphism, make_artin(("t",), 4))
    assert sections[1].terms == {((2,), "1*l.l"): Fraction(4)}
    assert calls == ["dgla"]


def test_hitchin_map_rejects_non_mc():
    pair = diag_pair()
    morphism = build_hitchin_morphism(pair, trivial_cdga())
    algebra = make_artin(("t",), 3)
    # E12 is not closed under [E11 l, -], so t E12 is not Maurer-Cartan
    bad = ArtinVector.single((1,), "1*E12")
    with pytest.raises(ValueError):
        hitchin_map(bad, morphism, algebra)


def test_obstruction_class_lands_in_kernel():
    # theta = 0 and a one-form letter in the coefficients: the bracket of
    # the mixed seed hits a genuinely nonzero class in H^2
    pair = zero_pair()
    cdga = interval_cdga()
    morphism = build_hitchin_morphism(pair, cdga)
    algebra = make_artin(("t",), 3)
    seed = ArtinVector(
        {((1,), "w*E12"): Fraction(1), ((1,), "1*E21^l"): Fraction(1)}
    )
    result = mc_solve(morphism.source_dgla, algebra, directions=[seed])
    (event,) = result.primary_obstructions()
    assert event.order == 2
    assert any(c != 0 for c in event.coords)
    coords = obstruction_kernel_map(event.cocycle, morphism)
    assert list(coords) == [Fraction(0), Fraction(0)]


def test_obstruction_kernel_map_nontrivial_elsewhere():
    pair = zero_pair()
    cdga = interval_cdga()
    morphism = build_hitchin_morphism(pair, cdga)
    z = GradedVector({"w*E11^l": 1})
    coords = obstruction_kernel_map(z, morphism)
    assert any(c != 0 for c in coords)


def test_obstruction_kernel_map_validation():
    cdga = interval_cdga()
    morphism = build_hitchin_morphism(diag_pair(), cdga)
    with pytest.raises(ValueError):
        # degree 1, not 2
        obstruction_kernel_map(GradedVector({"w*E12": 1}), morphism)
    # with two letters and theta = diag(l1, l2) the middle degree is not
    # all cocycles: d(w E12^l1) = -w E12^l1^l2
    pair2 = HitchinPair(
        2, two_letter_space(), [[{"l1": 1}, {}], [{}, {"l2": 1}]]
    )
    morphism2 = build_hitchin_morphism(pair2, cdga)
    with pytest.raises(ValueError):
        obstruction_kernel_map(GradedVector({"w*E12^l1": 1}), morphism2)


# ---------------------------------------------------------------------------
# The closed-form trace of matrix-unit words against the placement loop it
# replaced.


def _mat_trace(m):
    out = {}
    for (i, j), entry in m.items():
        if i == j:
            for key, c in entry.items():
                accumulate(out, key, c)
    return out


def placement_trace_oracle(k, fmats, theta_mat, order):
    """Sum of traces of all length-k matrix words using each f once.

    Words are built by choosing an ordered placement of the f's among the k
    slots and filling the rest with theta; this is the coefficient of
    t_1...t_n in tr((theta + sum t_i f_i)^k).
    """
    n = len(fmats)
    entry_mul = _sym_entry_mul(order)
    total = {}
    for positions in permutations(range(k), n):
        slots = [theta_mat] * k
        for t, p in enumerate(positions):
            slots[p] = fmats[t]
        prod = slots[0]
        for m in slots[1:]:
            prod = _mat_mul(prod, m, entry_mul)
            if not prod:
                break
        else:
            for mono, c in _mat_trace(prod).items():
                accumulate(total, mono, c)
    return total


THETA_KINDS = ("zero", "nilpotent", "diagonal", "mixed")


def random_theta_matrix(rng, rank, letters, kind):
    """A sparse matrix over Sym L of the given kind (or "dense", every entry
    set); theta ^ theta need not vanish, since the trace identity holds for
    any matrix."""
    out = {}
    for i in range(rank):
        for j in range(rank):
            if kind == "zero" or (kind == "nilpotent" and j <= i):
                continue
            if (kind == "diagonal" and i != j) or (kind == "mixed" and rng.random() < 0.4):
                continue
            chosen = rng.sample(letters, rng.randint(1, len(letters)))
            out[(i, j)] = {(l,): rng.choice([-2, -1, 1, 3, Fraction(1, 2)]) for l in chosen}
    return out


def test_word_trace_sum_matches_the_placement_loop():
    rng = random.Random(1515)
    seen = set()
    for rank in range(1, 6):
        for letters in (["l"], ["l1", "l2"], ["l1", "l2", "l3"]):
            order = {l: p for p, l in enumerate(letters)}
            pool = [(i, j, l) for i in range(rank) for j in range(rank) for l in letters]
            for kind in THETA_KINDS:
                theta = random_theta_matrix(rng, rank, letters, kind)
                powers = _theta_powers(theta, rank, order)
                for k in range(1, rank + 1):
                    for n in range(k + 2):
                        units = [rng.choice(pool) for _ in range(n)]
                        if n >= 2 and rng.random() < 0.5:
                            units[-1] = units[0]
                        fmats = [{(i, j): {(l,): 1}} for i, j, l in units]
                        want = placement_trace_oracle(k, fmats, theta, order)
                        # one walk gives every power; each is the oracle's
                        traces = _word_trace_sum(rank, fmats, powers, order)
                        assert traces.get(k, {}) == want
                        for other in range(1, rank + 1):
                            if other != k:
                                oracle = placement_trace_oracle(other, fmats, theta, order)
                                assert traces.get(other, {}) == oracle
                        assert all(traces.values())
                        ordered = [{(i, j): {(l,): 1}} for i, j, l in sorted(units)]
                        assert _word_trace_sum(rank, ordered, powers, order) == traces
                        seen.add((n == 0, n > k, len(set(units)) < n, bool(want)))
    assert (True, False, False, True) in seen  # tr(theta^k) != 0
    assert (False, True, False, False) in seen  # more units than slots
    assert (False, False, True, True) in seen  # a repeated unit
    assert (False, False, False, True) in seen


def test_g_coefficient_matches_the_placement_loop_on_general_matrices():
    rng = random.Random(1516)
    cdga = trivial_cdga()
    one = GradedVector({"1": 1})
    nonzero = 0
    for rank in range(1, 5):
        for letters in (["l"], ["l1", "l2"]):
            l_space = GradedSpace([(l, 1) for l in letters])
            order = {l: p for p, l in enumerate(letters)}
            for kind in THETA_KINDS:
                # one letter in theta, so that theta ^ theta = 0
                theta_mat = random_theta_matrix(rng, rank, letters[:1], kind)
                theta = [
                    [{l: c for (l,), c in theta_mat.get((i, j), {}).items()} for j in range(rank)]
                    for i in range(rank)
                ]
                pair = HitchinPair(rank, l_space, theta)
                for k in range(1, rank + 1):
                    # rank 4 with a nilpotent theta takes k dense arguments
                    dense = rank == 4 and kind == "nilpotent"
                    n = k if dense else rng.randint(1, min(k, 3))
                    fs = [random_theta_matrix(rng, rank, letters, "dense" if dense else "mixed")
                          for _ in range(n)]
                    args = [
                        (one, [[{l: c for (l,), c in f.get((i, j), {}).items()}
                                for j in range(rank)] for i in range(rank)])
                        for f in fs
                    ]
                    trace = placement_trace_oracle(k, fs, theta_mat, order)
                    want = GradedVector({f"1*{sym_name(mono)}": c for mono, c in trace.items()})
                    assert g_coefficient(k, args, pair, cdga) == want
                    nonzero += bool(want)
    assert nonzero >= 20


# ---------------------------------------------------------------------------
# Acceptance criterion 3's oracle: first-order trace invariance of
# conjugation directions, by plain polynomial matrix arithmetic.


def _fraction_matrix(rows):
    mat = tuple(tuple(as_fraction(v) for v in row) for row in rows)
    r = len(mat)
    if any(len(row) != r for row in mat):
        raise ValueError("expected a square matrix")
    return mat, r


def _poly_entry_mul(e1, e2, dest):
    """Entries in Q[t]: keys are t-degrees."""
    for d1, c1 in e1.items():
        for d2, c2 in e2.items():
            accumulate(dest, d1 + d2, c1 * c2)


def _poly_mat_mul(m1, m2):
    out = {}
    for (i, j), e1 in m1.items():
        for (k, l), e2 in m2.items():
            if j == k:
                _poly_entry_mul(e1, e2, out.setdefault((i, l), {}))
    return {key: entry for key, entry in out.items() if entry}


def _poly_matrix(mat, degree):
    """A square matrix of rationals times t^degree."""
    return {
        (i, j): {degree: c} for i, row in enumerate(mat) for j, c in enumerate(row) if c
    }


def _commutator(m1, m2):
    out = _poly_mat_mul(m1, m2)
    for key, entry in _poly_mat_mul(m2, m1).items():
        for d, c in entry.items():
            accumulate(out.setdefault(key, {}), d, -c)
    return out


def trace_commutator_oracle(a_rows, b_rows, k):
    """First-order trace invariance of conjugation directions.

    Expands (A + t[B, A])^k with polynomial entries, takes the coefficient
    of t, and checks the matrix identity  coefficient = [B, A^k]  together
    with the vanishing of its trace.  Both checks are exact; the report
    carries the failing positions if any.
    """
    a_mat, r = _fraction_matrix(a_rows)
    b_mat, r2 = _fraction_matrix(b_rows)
    if r != r2:
        raise ValueError("matrix sizes differ")
    if k < 1:
        raise ValueError("power must be >= 1")
    a_poly, tb = _poly_matrix(a_mat, 0), _poly_matrix(b_mat, 1)
    poly = _commutator(tb, a_poly)  # t [B, A]; adding A touches only t^0
    for key, entry in a_poly.items():
        poly.setdefault(key, {}).update(entry)
    power, a_power = poly, a_poly
    for _ in range(k - 1):
        power = _poly_mat_mul(power, poly)
        a_power = _poly_mat_mul(a_power, a_poly)
    expected = _commutator(tb, a_power)

    def t_part(m, i, j):
        return m.get((i, j), {}).get(1, Fraction(0))

    t_coeff = tuple(tuple(t_part(power, i, j) for j in range(r)) for i in range(r))
    mismatches = [
        (i, j)
        for i in range(r)
        for j in range(r)
        if t_coeff[i][j] != t_part(expected, i, j)
    ]
    if mismatches:
        return CheckReport.failed("t-coefficient", tuple(mismatches), t_coeff)
    trace = sum(t_coeff[i][i] for i in range(r))
    if trace != 0:
        return CheckReport.failed("trace", (k,), trace)
    return CheckReport.passed()


def test_trace_commutator_oracle_frozen():
    a = [[0, 1], [0, 0]]
    b = [[1, 0], [0, 0]]
    report = trace_commutator_oracle(a, b, 2)
    assert report.ok, (report.axiom, report.witness)


def test_trace_commutator_oracle_random():
    rng = random.Random(47)
    for _ in range(10):
        r = rng.randint(1, 3)
        k = rng.randint(1, 4)
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(r)] for _ in range(r)]
        b = [[Fraction(rng.randint(-3, 3)) for _ in range(r)] for _ in range(r)]
        report = trace_commutator_oracle(a, b, k)
        assert report.ok, (report.axiom, report.witness)


@pytest.mark.parametrize("rank", [2.0, True, "2"])
def test_rank_is_an_int(rank):
    with pytest.raises(TypeError, match="rank must be an int"):
        HitchinPair(rank, one_letter_space(), [[{}, {}], [{}, {}]])


def kunneth_pairs():
    """The shipped pairs and seeded ones of rank 2 to 4 over one or two
    letters, whose letter components commute."""
    golden = os.path.join(os.path.dirname(__file__), "golden", "inputs")
    pairs = [
        pytest.param(sample("hitchin_r2_zero.json"), id="r2-zero"),
        pytest.param(sample("hitchin_r2_nilpotent.json"), id="r2-nilpotent"),
        pytest.param(
            parse_document(os.path.join(golden, "hitchin_r4_nilpotent.json")).kernel,
            id="r4-nilpotent",
        ),
        pytest.param(
            parse_document(os.path.join(golden, "hitchin_r2_two_letters.json")).kernel,
            id="r2-two-letters",
        ),
    ]
    rng = random.Random(1313)
    for rank in (2, 3, 4):
        for n_letters in (1, 2):
            letters = [f"l{i + 1}" for i in range(n_letters)]
            l_space = GradedSpace([(name, 1) for name in letters])
            pair = HitchinPair(rank, l_space, seeded_theta(rng, rank, letters))
            pairs.append(pytest.param(pair, id=f"seeded-r{rank}-l{n_letters}"))
    return pairs


@pytest.mark.parametrize("pair", kunneth_pairs())
def test_hitchin_cohomology_is_the_kunneth_product(pair):
    """C = A (x) M_theta with M_theta = gl_r (x) Lambda L and d = [theta, -],
    so over Q, dim H^n(C) = sum over p + q = n of dim H^p(A) dim H^q(M_theta),
    both factors read from their own complexes."""
    inner = matrix_wedge_dgla(pair.rank, pair.l_space, pair.theta)
    m_theta = complex_cohomology(inner.space, inner.d)
    for cdga in (trivial_cdga(), interval_cdga(), exterior_cdga(Fraction(5, 3))):
        a = complex_cohomology(cdga.space, cdga.d)
        c = complex_C_cohomology(pair, cdga)
        top = max(a.degrees()) + max(m_theta.degrees())
        for n in range(-1, top + 2):
            expected = sum(a.dimension(p) * m_theta.dimension(n - p) for p in a.degrees())
            assert c.dimension(n) == expected, (cdga.space, n)


def letter_matrices(pair):
    """theta_l for each letter l, theta = sum over l of theta_l (x) l."""
    r = pair.rank
    return [
        [[pair.theta[i][j][l] for j in range(r)] for i in range(r)] for l in pair.l_space.names
    ]


def ad_rank(thetas, rank):
    """The rank of X -> (theta_l X - X theta_l) over the stacked theta_l on
    r x r matrices, by the tests' own Fraction elimination."""
    columns = [
        [
            (theta_l[i][a] if j == b else 0) - (theta_l[b][j] if i == a else 0)
            for theta_l in thetas
            for i in range(rank)
            for j in range(rank)
        ]
        for a in range(rank)
        for b in range(rank)
    ]
    return len(fraction_rref(columns, len(thetas) * rank * rank)[1])


@pytest.mark.parametrize(
    "pair", [p for p in kunneth_pairs() if len(p.values[0].l_space.names) == 1]
)
def test_first_order_deformations_match_biswas_ramanan(pair):
    """With dim L = 1 and the trivial CDGA, M_theta is the two-term complex
    ad(theta_l): gl_r -> gl_r (x) l, so dim H^0 = dim H^1 = r^2 - rank ad
    (4, 2 and 4 on the shipped zero, nilpotent and rank-4 pairs)."""
    expected = pair.rank ** 2 - ad_rank(letter_matrices(pair), pair.rank)
    summary = complex_C_cohomology(pair, trivial_cdga())
    assert summary.dimension(0) == summary.dimension(1) == expected


@pytest.mark.parametrize(
    "pair", [p for p in kunneth_pairs() if len(p.values[0].l_space.names) > 1]
)
def test_two_letter_cohomology_over_the_trivial_cdga(pair):
    """With m = dim L > 1 and the trivial CDGA, M_theta = gl_r (x) Lambda L
    with d = [theta, -].  H^0 is the common centralizer of the theta_l, so
    dim H^0 = r^2 - rank of the stacked ad(theta_l); the Euler characteristic
    is r^2 (1 - 1)^m = 0; and the pairing tr(XY) times the Lambda^m L part of
    a ^ b is perfect, with d skew for it, so dim H^q = dim H^(m - q)."""
    m = len(pair.l_space.names)
    summary = complex_C_cohomology(pair, trivial_cdga())
    dims = [summary.dimension(q) for q in range(m + 1)]
    assert dims[0] == pair.rank ** 2 - ad_rank(letter_matrices(pair), pair.rank)
    assert sum((-1) ** q * dim for q, dim in enumerate(dims)) == 0
    assert dims == dims[::-1]
    assert set(summary.degrees()) <= set(range(m + 1))
