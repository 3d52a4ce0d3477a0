"""Acceptance gate: nine criteria, exact arithmetic, hard time budgets.

Every test prints a single summary line; any tolerance is zero.  Random
data always comes from seeded generators, so failures reproduce exactly.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product as iproduct

from defcalc.artin import ArtinVector, make_artin
from defcalc.dgla import (
    Cdga,
    Dgla,
    bch_product,
    check_dgla,
    gauge_act,
    hom_dgla,
    is_mc,
    mc_solve,
    tensor_cdga_dgla,
    tensor_name,
    trivial_cdga,
)
from defcalc.graded import (
    GradedMap,
    GradedSpace,
    GradedVector,
    complex_cohomology,
)
from defcalc.hitchin import (
    HiggsFieldError,
    HitchinPair,
    build_hitchin_dgla,
    build_hitchin_morphism,
    g_coefficient,
    hitchin_map,
    matrix_wedge_dgla,
    obstruction_kernel_map,
    sym_name,
)
from defcalc.linfty import (
    check_codifferential,
    check_linfty_morphism,
    linfty_from_dgla,
)
from test_dgla import bracket_basis
from test_hitchin import trace_commutator_oracle, trace_power_oracle

ZERO = Fraction(0)
ONE = Fraction(1)


def conclude(number, label, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {number} exceeded {budget}s: {elapsed:.1f}s"
    print(f"[criterion {number}] PASS {label} ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# Shared model builders.


def interval_cdga(degree=1):
    space = GradedSpace([("1", 0), ("w", degree)])
    return Cdga(space, GradedMap(space, space, 1, {}), {}, "1")


def derham_fat_point():
    space = GradedSpace([("1", 0), ("x", 0), ("x2", 0), ("dx", 1), ("xdx", 1)])
    d = GradedMap(space, space, 1, {"x": {"dx": 1}, "x2": {"xdx": 2}})
    products = {("x", "x"): {"x2": 1}, ("x", "dx"): {"xdx": 1}}
    return Cdga(space, d, products, "1")


def exterior_two(rng=None):
    space = GradedSpace([("1", 0), ("w1", 1), ("w2", 1), ("w12", 2)])
    c = Fraction(rng.randint(1, 3)) if rng else ONE
    products = {("w1", "w2"): {"w12": c}, ("w2", "w1"): {"w12": -c}}
    return Cdga(space, GradedMap(space, space, 1, {}), products, "1")


MATRIX_UNITS = ["E11", "E12", "E21", "E22"]


def gl2_brackets(scale=ONE):
    table = {}
    for p in MATRIX_UNITS:
        for q in MATRIX_UNITS:
            i, j = int(p[1]), int(p[2])
            k, l = int(q[1]), int(q[2])
            out = {}
            if j == k:
                out[f"E{i}{l}"] = out.get(f"E{i}{l}", 0) + scale
            if l == i:
                out[f"E{k}{j}"] = out.get(f"E{k}{j}", 0) - scale
            out = {m: c for m, c in out.items() if c}
            if out:
                table[(p, q)] = out
    return table


def gl2(scale=ONE):
    space = GradedSpace([(n, 0) for n in MATRIX_UNITS])
    return Dgla(space, GradedMap(space, space, 1, {}), gl2_brackets(scale))


def two_line(scale=ONE, base=1):
    space = GradedSpace([("e1", base), ("e2", 2 * base)])
    d = GradedMap(space, space, 1, {})
    return Dgla(space, d, {("e1", "e1"): {"e2": scale}})


def semidirect_with_d(c=ONE):
    # d a = x is compatible with [a, x] = c y because [x, x] = 0
    space = GradedSpace([("a", 0), ("x", 1), ("y", 1)])
    d = GradedMap(space, space, 1, {"a": {"x": 1}})
    return Dgla(space, d, {("a", "x"): {"y": c}})


def random_dgla(rng):
    roll = rng.randrange(5)
    if roll == 0:
        return gl2(Fraction(rng.choice([1, -1, 2])))
    if roll == 1:
        return two_line(Fraction(rng.randint(1, 3)), base=rng.choice([1, 3]))
    if roll == 2:
        return semidirect_with_d(Fraction(rng.randint(-2, 2) or 1))
    if roll == 3:
        # abelian with a random two-step differential
        n0, n1 = rng.randint(1, 3), rng.randint(1, 3)
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
        return Dgla(space, GradedMap(space, space, 1, columns), {})
    return heisenberg(Fraction(rng.randint(1, 4)))


def heisenberg(c=ONE):
    space = GradedSpace([("a", 0), ("b", 0), ("c", 0)])
    d = GradedMap(space, space, 1, {})
    return Dgla(space, d, {("a", "b"): {"c": c}, ("b", "a"): {"c": -c}})


def random_cdga(rng):
    roll = rng.randrange(4)
    if roll == 0:
        return trivial_cdga()
    if roll == 1:
        return interval_cdga(degree=rng.choice([1, 3]))
    if roll == 2:
        return exterior_two(rng)
    return derham_fat_point()


def random_valid_pair(rng, max_rank=3, max_letters=2):
    """A random Hitchin pair; retries until the field self-commutes."""
    while True:
        rank = rng.randint(1, max_rank)
        nl = rng.randint(1, max_letters)
        l_space = GradedSpace([(f"l{i + 1}", 1) for i in range(nl)])
        names = l_space.names
        mode = rng.randrange(3)
        theta = [[{} for _ in range(rank)] for _ in range(rank)]
        if mode == 0:
            for i in range(rank):
                theta[i][i] = {names[rng.randrange(nl)]: rng.randint(-2, 2)}
        elif mode == 1:
            i, j = rng.randrange(rank), rng.randrange(rank)
            theta[i][j] = {names[rng.randrange(nl)]: rng.randint(1, 3)}
        else:
            letter = names[rng.randrange(nl)]
            for i in range(rank):
                for j in range(i + 1, rank):
                    if rng.random() < 0.7:
                        theta[i][j] = {letter: rng.randint(-2, 2)}
        try:
            return HitchinPair(rank, l_space, theta)
        except HiggsFieldError:
            continue


# ---------------------------------------------------------------------------
# Criterion 1: tensor and Hom constructions, plus sign mutations.


# Variants that flip a whole term's sign globally produce the opposite
# tensor convention, a genuine dgla, so no axiom can reject them; every
# mode below instead breaks d.d = 0, antisymmetry or Leibniz outright.
D_MODES = ("correct", "drop-form-sign", "minus-inner", "inner-sign", "first-term-sign")
B_MODES = ("correct", "drop-koszul", "exp-a-x", "exp-a-y", "exp-x-y")


def tensor_variant(cdga, dgla, d_mode="correct", b_mode="correct"):
    """Independent rebuild of the tensor dgla with switchable sign errors."""
    A, L = cdga, dgla
    basis = []
    for a in A.space.names:
        for x in L.space.names:
            basis.append(
                (tensor_name(a, x), A.space.degree(a) + L.space.degree(x))
            )
    space = GradedSpace(basis)

    def embed(avec, xvec):
        out = {}
        for a, ca in avec.coeffs.items():
            for x, cx in xvec.coeffs.items():
                name = tensor_name(a, x)
                out[name] = out.get(name, 0) + ca * cx
        return GradedVector(out)

    def d_form_sign(a_deg, x_deg):
        if d_mode == "drop-form-sign":
            return 1
        if d_mode == "minus-inner":
            return -1
        if d_mode == "inner-sign":
            return -1 if x_deg % 2 else 1
        return -1 if a_deg % 2 else 1

    columns = {}
    for a in A.space.names:
        for x in L.space.names:
            first = embed(A.d.column(a), GradedVector.basis(x))
            if d_mode == "first-term-sign" and L.space.degree(x) % 2:
                first = first.scale(-1)
            second = embed(GradedVector.basis(a), L.d.column(x)).scale(
                d_form_sign(A.space.degree(a), L.space.degree(x))
            )
            img = first + second
            if not img.is_zero():
                columns[tensor_name(a, x)] = img
    differential = GradedMap(space, space, 1, columns)

    def b_exponent(a_deg, b_deg, x_deg, y_deg):
        if b_mode == "drop-koszul":
            return 0
        if b_mode == "exp-a-x":
            return a_deg * x_deg
        if b_mode == "exp-a-y":
            return a_deg * y_deg
        if b_mode == "exp-x-y":
            return x_deg * y_deg
        return b_deg * x_deg

    brackets = {}
    for (x, y), vec in L.brackets.items():
        vvec = vec if isinstance(vec, GradedVector) else GradedVector(vec)
        for a in A.space.names:
            for b in A.space.names:
                ab = A.product_basis(a, b)
                if ab.is_zero():
                    continue
                e = b_exponent(
                    A.space.degree(a),
                    A.space.degree(b),
                    L.space.degree(x),
                    L.space.degree(y),
                )
                out = embed(ab, vvec).scale(-1 if e % 2 else 1)
                if not out.is_zero():
                    brackets[(tensor_name(a, x), tensor_name(b, y))] = out
    return Dgla(space, differential, brackets)


def test_criterion_1_tensor_and_hom_constructions():
    t0 = time.perf_counter()
    rng = __import__("random").Random(101)

    for trial in range(20):
        cdga = random_cdga(rng)
        dgla = random_dgla(rng)
        t = tensor_cdga_dgla(cdga, dgla)
        report = check_dgla(t)
        assert report.ok, (trial, report.axiom, report.witness)

    for trial in range(20):
        n0, n1 = rng.randint(1, 3), rng.randint(1, 3)
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
        report = check_dgla(h)
        assert report.ok, (trial, report.axiom, report.witness)

    # the reference rebuild agrees with the library construction
    cdga, dgla = derham_fat_point(), semidirect_with_d()
    library = tensor_cdga_dgla(cdga, dgla)
    rebuilt = tensor_variant(cdga, dgla)
    assert rebuilt.space == library.space
    for name in library.space.names:
        assert rebuilt.d.column(name) == library.d.column(name)
    for a in library.space.names:
        for b in library.space.names:
            assert bracket_basis(rebuilt, a, b) == bracket_basis(library, a, b)

    # each single sign mutation breaks an axiom on this instance
    mutations = [("d", m) for m in D_MODES[1:]] + [
        ("b", m) for m in B_MODES[1:]
    ]
    assert len(mutations) == 8
    for kind, mode in mutations:
        if kind == "d":
            mutant = tensor_variant(cdga, dgla, d_mode=mode)
        else:
            mutant = tensor_variant(cdga, dgla, b_mode=mode)
        report = check_dgla(mutant)
        assert not report.ok, f"mutation {mode} slipped through"

    conclude(1, "tensor and Hom dglas pass, 8 sign mutants fail", t0, 10.0)


# ---------------------------------------------------------------------------
# Criterion 2: codifferential checks and Jacobi mutants.


def jacobi_mutant(rng):
    """A mirror-consistent corruption of gl(2) that breaks Jacobi."""
    while True:
        table = gl2_brackets()
        for _ in range(rng.randint(1, 3)):
            a = MATRIX_UNITS[rng.randrange(4)]
            b = MATRIX_UNITS[rng.randrange(4)]
            if (a, b) not in table or a == b:
                continue
            factor = rng.choice([-1, 2, 3])
            table[(a, b)] = {k: factor * c for k, c in table[(a, b)].items()}
            table[(b, a)] = {k: factor * c for k, c in table[(b, a)].items()}
        space = GradedSpace([(n, 0) for n in MATRIX_UNITS])
        model = Dgla(space, GradedMap(space, space, 1, {}), table)
        report = check_dgla(model)
        if not report.ok:
            assert report.axiom == "jacobi"
            return model


def test_criterion_2_codifferential_weight_checks():
    t0 = time.perf_counter()
    rng = __import__("random").Random(202)

    for trial in range(10):
        model = random_dgla(rng)
        structure = linfty_from_dgla(model)
        report = check_codifferential(structure, 4)
        assert report.ok, (trial, report.witness)

    for trial in range(10):
        mutant = jacobi_mutant(rng)
        structure = linfty_from_dgla(mutant)
        assert check_codifferential(structure, 2).ok
        report = check_codifferential(structure, 3)
        assert not report.ok, trial
        assert len(report.witness) == 3
        assert not report.value.is_zero()

    conclude(2, "codifferentials pass; 10 Jacobi mutants fail at weight 3", t0, 30.0)


# ---------------------------------------------------------------------------
# Criterion 3: trace-commutator oracle.


def test_criterion_3_trace_commutator_oracle():
    t0 = time.perf_counter()
    rng = __import__("random").Random(303)
    for trial in range(50):
        r = rng.randint(1, 4)
        k = rng.randint(1, 5)
        a = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(r)]
            for _ in range(r)
        ]
        b = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(r)]
            for _ in range(r)
        ]
        report = trace_commutator_oracle(a, b, k)
        assert report.ok, (trial, report.axiom, report.witness)
    conclude(3, "50 random trace-commutator identities", t0, 20.0)


# ---------------------------------------------------------------------------
# Criterion 4: the trace morphism is an L-infinity morphism.


def test_criterion_4_morphism_identity():
    t0 = time.perf_counter()
    rng = __import__("random").Random(404)

    # one maximal instance, the rest small: the weight-4 scan on a rank-3
    # two-letter pair dominates the runtime
    big = random_valid_pair(rng, max_rank=3, max_letters=2)
    while big.rank != 3 or len(big.l_space.names) != 2:
        big = random_valid_pair(rng, max_rank=3, max_letters=2)
    pairs = [big]
    while len(pairs) < 10:
        pairs.append(random_valid_pair(rng, max_rank=2, max_letters=2))

    checked_chain = 0
    for trial, pair in enumerate(pairs):
        cdga = trivial_cdga()
        morphism = build_hitchin_morphism(pair, cdga)
        report = check_linfty_morphism(morphism, 4)
        assert report.ok, (trial, report.axiom, report.witness)

        # weight one: the chain identity holds on every single letter
        source = linfty_from_dgla(morphism.source_dgla)
        target = linfty_from_dgla(morphism.target_dgla)
        for name in morphism.source_dgla.space.names:
            q1 = source.bracket_value(1, (name,))
            lhs = GradedVector()
            if q1 is not None:
                for out_name, c in q1.coeffs.items():
                    lhs = lhs + morphism.component((out_name,)).scale(c)
            fv = morphism.component((name,))
            rhs = GradedVector()
            tq1 = target.brackets.get(1, {})
            for out_name, c in fv.coeffs.items():
                v = tq1.get((out_name,))
                if v is not None:
                    rhs = rhs + v.scale(c)
            assert lhs == rhs, (trial, name)
            checked_chain += 1
    assert checked_chain > 0

    conclude(4, "10 random pairs: morphism identity through weight 4", t0, 60.0)


# ---------------------------------------------------------------------------
# Criterion 5: polarization and the trace map on solver output.


def poly_trace_power(theta_entries, y_entries, rank, order, k):
    """tr((theta + y)^k) by dense multiplication over Sym(L)."""
    mat = [
        [
            dict(
                _merge_entry(
                    theta_entries.get((i, j), {}), y_entries.get((i, j), {})
                )
            )
            for j in range(rank)
        ]
        for i in range(rank)
    ]
    power = [[dict(e) for e in row] for row in mat]
    for _ in range(k - 1):
        power = _dense_mul(power, mat, rank, order)
    total = {}
    for i in range(rank):
        for mono, c in power[i][i].items():
            value = total.get(mono, ZERO) + c
            if value == 0:
                total.pop(mono, None)
            else:
                total[mono] = value
    return total


def _merge_entry(e1, e2):
    out = dict(e1)
    for mono, c in e2.items():
        value = out.get(mono, ZERO) + c
        if value == 0:
            out.pop(mono, None)
        else:
            out[mono] = value
    return out


def _dense_mul(m1, m2, rank, order):
    out = [[{} for _ in range(rank)] for _ in range(rank)]
    for i in range(rank):
        for j in range(rank):
            dest = out[i][j]
            for p in range(rank):
                for mono1, c1 in m1[i][p].items():
                    for mono2, c2 in m2[p][j].items():
                        mono = tuple(sorted(mono1 + mono2, key=order.get))
                        value = dest.get(mono, ZERO) + c1 * c2
                        if value == 0:
                            dest.pop(mono, None)
                        else:
                            dest[mono] = value
    return out


def test_criterion_5_polarization_and_trace_map():
    t0 = time.perf_counter()
    rng = __import__("random").Random(505)
    cdga = trivial_cdga()
    one = GradedVector({"1": 1})

    factorial = [1, 1, 2, 6]
    top_rank = 0
    for trial in range(20):
        pair = random_valid_pair(rng, max_rank=3, max_letters=2)
        rank = pair.rank
        top_rank = max(top_rank, rank)
        names = pair.l_space.names
        order = pair._l_order
        y = [
            [
                {
                    names[rng.randrange(len(names))]: rng.randint(-2, 2)
                }
                for _ in range(rank)
            ]
            for _ in range(rank)
        ]
        theta_entries = {
            (i, j): {(l,): c for l, c in pair.theta[i][j].coeffs.items()}
            for i in range(rank)
            for j in range(rank)
        }
        theta_entries = {k: v for k, v in theta_entries.items() if v}
        y_entries = {}
        for i in range(rank):
            for j in range(rank):
                entry = {(l,): Fraction(c) for l, c in y[i][j].items() if c}
                if entry:
                    y_entries[(i, j)] = entry
        for k in range(1, rank + 1):
            total = GradedVector()
            for n in range(1, k + 1):
                args = [(one, y)] * n
                total = total + g_coefficient(k, args, pair, cdga).scale(
                    Fraction(1, factorial[n])
                )
            deformed = poly_trace_power(theta_entries, y_entries, rank, order, k)
            plain = poly_trace_power(theta_entries, {}, rank, order, k)
            expected = GradedVector(
                {
                    tensor_name("1", sym_name(mono)): c
                    for mono, c in _merge_entry(
                        deformed, {m: -c for m, c in plain.items()}
                    ).items()
                }
            )
            assert total == expected, (trial, k)
    assert top_rank == 3

    # the trace map agrees with the matrix-power oracle on every completed
    # lift; single-letter pairs have no degree-2 part, so those always lift
    algebra = make_artin(("t",), 4)
    agreements = 0
    for trial in range(6):
        pair = random_valid_pair(rng, max_rank=3, max_letters=1 + trial % 2)
        morphism = build_hitchin_morphism(pair, cdga)
        result = mc_solve(morphism.source_dgla, algebra)
        for x in result.solutions:
            if x is None:
                continue
            sections = hitchin_map(x, morphism, algebra)
            assert sections == trace_power_oracle(x, pair, cdga, algebra)
            agreements += 1
    assert agreements > 0

    conclude(5, "polarization identity and trace map agreement", t0, 30.0)


# ---------------------------------------------------------------------------
# Criterion 6: gauge action and BCH composition.


def test_criterion_6_gauge_and_bch():
    t0 = time.perf_counter()
    rng = __import__("random").Random(606)

    l_space = GradedSpace([("l", 1)])
    theta = [[{} for _ in range(2)] for _ in range(2)]
    model = matrix_wedge_dgla(2, l_space, theta)
    zero_names = model.space.names_of_degree(0)
    one_names = model.space.names_of_degree(1)

    checked = 0
    for bound in (3, 4):
        algebra = make_artin(("t",), bound)
        for _ in range(25):
            a = ArtinVector(
                {
                    ((rng.randint(1, bound - 1),), n): rng.randint(-2, 2)
                    for n in rng.sample(zero_names, 2)
                }
            )
            b = ArtinVector(
                {
                    ((rng.randint(1, bound - 1),), n): rng.randint(-2, 2)
                    for n in rng.sample(zero_names, 2)
                }
            )
            x = ArtinVector(
                {
                    ((rng.randint(1, bound - 1),), n): rng.randint(-2, 2)
                    for n in rng.sample(one_names, 2)
                }
            )
            assert is_mc(x, model, algebra)
            moved = gauge_act(a, x, model, algebra)
            assert is_mc(moved, model, algebra)
            combined = gauge_act(
                bch_product(a, b, model, algebra), x, model, algebra
            )
            nested = gauge_act(
                a, gauge_act(b, x, model, algebra), model, algebra
            )
            assert combined == nested
            checked += 1
    assert checked == 50

    conclude(6, "gauge action preserves MC and composes through BCH", t0, 20.0)


# ---------------------------------------------------------------------------
# Criterion 7: obstruction classes land in the kernel of the trace map.


def test_criterion_7_obstruction_kernel():
    t0 = time.perf_counter()
    rng = __import__("random").Random(707)
    algebra = make_artin(("t",), 3)
    cdga = interval_cdga()

    l_space = GradedSpace([("l", 1)])
    instances = 0
    nonzero_events = 0
    nonzero_targets = 0
    while instances < 10:
        if instances % 2 == 0:
            # central theta: the inner differential vanishes, so every
            # nonexact quadratic self-bracket obstructs outright
            c = rng.randint(0, 2)
            theta = [
                [{"l": c} if i == j else {} for j in range(2)] for i in range(2)
            ]
            pair = HitchinPair(2, l_space, theta)
        else:
            pair = random_valid_pair(rng, max_rank=2, max_letters=1)
        dgla = build_hitchin_dgla(pair, cdga)
        summary = complex_cohomology(dgla.space, dgla.d)
        if summary.dimension(2) == 0:
            continue
        # closed degree-1 seeds mixing several basis lines; mixed seeds
        # are the ones whose quadratic self-bracket can fail to be exact
        one_names = dgla.space.names_of_degree(1)
        directions = []
        attempts = 0
        while len(directions) < 3 and attempts < 80:
            attempts += 1
            picked = rng.sample(one_names, min(3, len(one_names)))
            vec = GradedVector({n: rng.randint(-2, 2) for n in picked})
            if vec.is_zero() or not dgla.d(vec).is_zero():
                continue
            directions.append(
                ArtinVector({((1,), n): c for n, c in vec.coeffs.items()})
            )
        if not directions:
            continue
        instances += 1
        morphism = build_hitchin_morphism(pair, cdga)
        if morphism.target_dgla.cohomology().dimension(2) > 0:
            nonzero_targets += 1
        result = mc_solve(dgla, algebra, directions)
        for event in result.primary_obstructions():
            assert not event.vanishes()
            nonzero_events += 1
            coords = obstruction_kernel_map(event.cocycle, morphism)
            assert all(c == 0 for c in coords), (instances, event.direction)
    # the run must actually exercise the statement
    assert nonzero_events > 0
    assert nonzero_targets > 0

    conclude(
        7,
        f"{nonzero_events} obstruction classes over 10 dglas all map to zero",
        t0,
        60.0,
    )


# ---------------------------------------------------------------------------
# Criterion 8: trace coefficients against a symbolic expansion oracle.


def symbolic_g_oracle(k, args, pair, cdga):
    """Coefficient of t_1...t_n in tr((theta + sum t_i f_i)^k), times the
    product of the form parts; dense expansion over Q[t_1..t_n] x Sym(L)."""
    rank = pair.rank
    order = pair._l_order
    n = len(args)

    omega = GradedVector({cdga.unit: 1})
    mats = []
    for om, f in args:
        om = om if isinstance(om, GradedVector) else GradedVector(om)
        new = GradedVector()
        for a, ca in omega.coeffs.items():
            for b, cb in om.coeffs.items():
                new = new + cdga.product_basis(a, b).scale(ca * cb)
        omega = new
    if omega.is_zero():
        return GradedVector()

    zero_t = (0,) * n
    big = [[{} for _ in range(rank)] for _ in range(rank)]
    for i in range(rank):
        for j in range(rank):
            entry = {}
            for l, c in pair.theta[i][j].coeffs.items():
                entry[(zero_t, (l,))] = entry.get((zero_t, (l,)), ZERO) + c
            for t, (_, f) in enumerate(args):
                for l, c in f[i][j].items():
                    if not c:
                        continue
                    tm = tuple(1 if p == t else 0 for p in range(n))
                    key = (tm, (l,))
                    entry[key] = entry.get(key, ZERO) + Fraction(c)
            entry = {key: c for key, c in entry.items() if c}
            if entry:
                big[i][j] = entry

    power = [[dict(e) for e in row] for row in big]
    for _ in range(k - 1):
        out = [[{} for _ in range(rank)] for _ in range(rank)]
        for i in range(rank):
            for j in range(rank):
                dest = out[i][j]
                for p in range(rank):
                    for (t1, m1), c1 in power[i][p].items():
                        for (t2, m2), c2 in big[p][j].items():
                            tm = tuple(u + v for u, v in zip(t1, t2))
                            if any(u > 1 for u in tm):
                                continue
                            mono = tuple(sorted(m1 + m2, key=order.get))
                            key = (tm, mono)
                            value = dest.get(key, ZERO) + c1 * c2
                            if value == 0:
                                dest.pop(key, None)
                            else:
                                dest[key] = value
        power = out

    want = (1,) * n
    trace = {}
    for i in range(rank):
        for (tm, mono), c in power[i][i].items():
            if tm != want:
                continue
            value = trace.get(mono, ZERO) + c
            if value == 0:
                trace.pop(mono, None)
            else:
                trace[mono] = value

    out = GradedVector()
    for mono, c in trace.items():
        for a_name, ca in omega.coeffs.items():
            out = out + GradedVector(
                {tensor_name(a_name, sym_name(mono)): c * ca}
            )
    return out


def test_criterion_8_trace_coefficient_oracle():
    t0 = time.perf_counter()
    rng = __import__("random").Random(808)
    cdga = interval_cdga()
    forms = ["1", "1", "1", "w"]

    tuples = 0
    for rank, nl in iproduct((1, 2, 3), (1, 2)):
        l_space = GradedSpace([(f"l{i + 1}", 1) for i in range(nl)])
        names = l_space.names
        for k, n in iproduct(range(1, rank + 1), (1, 2, 3)):
            for _ in range(3):
                pair = random_valid_pair(rng, max_rank=rank, max_letters=nl)
                while pair.rank != rank or len(pair.l_space.names) != nl:
                    pair = random_valid_pair(
                        rng, max_rank=rank, max_letters=nl
                    )
                args = []
                for _ in range(n):
                    om = GradedVector({forms[rng.randrange(4)]: 1})
                    f = [
                        [
                            {
                                names[rng.randrange(nl)]: rng.randint(-2, 2)
                            }
                            for _ in range(rank)
                        ]
                        for _ in range(rank)
                    ]
                    args.append((om, f))
                got = g_coefficient(k, args, pair, cdga)
                want = symbolic_g_oracle(k, args, pair, cdga)
                assert got == want, (rank, nl, k, n)
                tuples += 1
    assert tuples >= 100

    conclude(8, f"{tuples} coefficient tuples match the symbolic oracle", t0, 60.0)


# ---------------------------------------------------------------------------
# Criterion 9: deterministic reports and round-trips.


SAMPLES = os.path.join(os.path.dirname(__file__), "..", "sample_inputs")


def test_criterion_9_cli_determinism(tmp_path):
    t0 = time.perf_counter()

    commands = [
        ["hitchin-verify", os.path.join(SAMPLES, "hitchin_r2_nilpotent.json")],
        ["mc-solve", os.path.join(SAMPLES, "dgla_obstructed.json"), "--order", "3"],
    ]
    for argv in commands:
        outputs = []
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "defcalc.cli", *argv],
                capture_output=True,
                env=env,
                cwd=os.path.dirname(SAMPLES),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] == outputs[2]

    from defcalc.cli import emit_document, parse_document

    for name in sorted(os.listdir(SAMPLES)):
        doc = parse_document(os.path.join(SAMPLES, name))
        text = emit_document(doc)
        echo = tmp_path / name
        echo.write_text(text, encoding="utf-8")
        again = parse_document(str(echo))
        assert emit_document(again) == text, name

    conclude(9, "byte-identical reports and round-trip identity", t0, 10.0)
