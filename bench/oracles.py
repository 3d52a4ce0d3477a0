"""Independent checks of defcalc outputs, written apart from the program.

Only plain dictionaries and fractions.Fraction are used here.  The inputs
are structure constants: a differential {source: {target: c}}, a pairwise
table {(a, b): {out: c}} and, over an Artin ring, the set of surviving
monomials as exponent tuples.  Every function either returns a value to
compare with the program's, or raises Mismatch with the reason.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

ZERO = Fraction(0)


class Mismatch(AssertionError):
    """An output disagrees with its independent check."""


def expect(condition, message):
    if not condition:
        raise Mismatch(message)


def accumulate(acc, key, value):
    total = acc.get(key, ZERO) + value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


def sign(exponent):
    return -1 if exponent % 2 else 1


# ---------------------------------------------------------------------------
# Elimination and cohomology.


def reduce(rows, ncols):
    """Reduced row echelon form by plain Gauss-Jordan elimination:
    (rows, pivot columns)."""
    mat = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
    return mat, pivots


def rank(rows):
    return len(reduce(rows, len(rows[0]) if rows else 0)[1])


def kernel_basis(basis, d, degree):
    """A basis of the cocycles of one degree, one vector per free column."""
    names = [n for n, deg in basis if deg == degree]
    targets = [n for n, deg in basis if deg == degree + 1]
    mat, pivots = reduce([[d.get(s, {}).get(t, ZERO) for s in names] for t in targets], len(names))
    out = []
    for free in (c for c in range(len(names)) if c not in pivots):
        vec = {names[free]: Fraction(1)}
        for row, pc in enumerate(pivots):
            if mat[row][free]:
                vec[names[pc]] = -mat[row][free]
        out.append(vec)
    return out


def apply_linear(table, vec):
    """Image of {name: c} under a map given by columns {name: {out: c}}."""
    out = {}
    for name, c in vec.items():
        for tgt, v in table.get(name, {}).items():
            accumulate(out, tgt, c * v)
    return out


def check_cohomology(basis, d, dims, reps=None):
    """Rank-nullity and Euler characteristic of a reported cohomology.

    basis is [(name, degree)], d the differential's columns, dims the
    reported {degree: dimension} and reps, when given, the reported
    representatives {degree: [{name: c}]}.  Each dimension must equal
    n_k - rank d_k - rank d_(k-1), the alternating sums must agree, and the
    representatives must be independent cocycles modulo the image.
    """
    by_degree = {}
    for name, deg in basis:
        by_degree.setdefault(deg, []).append(name)
    degrees = sorted(by_degree)

    def d_rows(k):
        src, tgt = by_degree.get(k, []), by_degree.get(k + 1, [])
        return [[d.get(s, {}).get(t, ZERO) for s in src] for t in tgt]

    ranks = {k: rank(d_rows(k)) for k in set(degrees) | {k - 1 for k in degrees}}
    euler_chain = euler_cohomology = 0
    for k in degrees:
        n_k = len(by_degree[k])
        h_k = n_k - ranks[k] - ranks[k - 1]
        got = dims.get(k, 0)
        expect(got == h_k, f"H^{k}: reported {got}, rank-nullity gives {h_k}")
        euler_chain += sign(k) * n_k
        euler_cohomology += sign(k) * got
        if reps is not None:
            here = reps.get(k, [])
            expect(len(here) == got, f"H^{k}: {len(here)} representatives for {got}")
            names = by_degree[k]
            for rep in here:
                expect(not apply_linear(d, rep), f"H^{k}: a representative is no cocycle")
            image = [
                [d.get(s, {}).get(t, ZERO) for t in names] for s in by_degree.get(k - 1, [])
            ]
            cols = [[rep.get(t, ZERO) for t in names] for rep in here] + image
            expect(
                rank(cols) == got + ranks[k - 1],
                f"H^{k}: representatives are dependent modulo coboundaries",
            )
    for k in dims:
        expect(k in by_degree or dims[k] == 0, f"H^{k} reported in an empty degree")
    expect(euler_chain == euler_cohomology, "Euler characteristics differ")


# ---------------------------------------------------------------------------
# Maurer-Cartan calculus over an Artin ring.


def monomial_product(a, b, monomials):
    prod = tuple(x + y for x, y in zip(a, b))
    return prod if prod in monomials else None


def artin_bracket(x, y, brackets, monomials):
    """[x, y] for x, y given as {(monomial, name): c}."""
    out = {}
    for (mx, ax), cx in x.items():
        for (my, ay), cy in y.items():
            table = brackets.get((ax, ay))
            if not table:
                continue
            mono = monomial_product(mx, my, monomials)
            if mono is None:
                continue
            for name, c in table.items():
                accumulate(out, (mono, name), cx * cy * c)
    return out


def artin_d(x, d):
    out = {}
    for (mono, name), c in x.items():
        for tgt, v in d.get(name, {}).items():
            accumulate(out, (mono, tgt), c * v)
    return out


def add(x, y, scale=1):
    out = dict(x)
    for key, c in y.items():
        accumulate(out, key, scale * c)
    return out


def mc_residual(x, d, brackets, monomials):
    """dx + [x, x] / 2."""
    return add(artin_d(x, d), artin_bracket(x, x, brackets, monomials), Fraction(1, 2))


def check_mc(x, d, brackets, monomials, what):
    residual = mc_residual(x, d, brackets, monomials)
    expect(not residual, f"{what} is not Maurer-Cartan: residual {sorted(residual.items())[:3]}")


def gauge_act(a, x, d, brackets, monomials):
    """exp(a) . x = x + sum_n ad_a^n([a, x] - da) / (n + 1)!."""
    term = add(artin_bracket(a, x, brackets, monomials), artin_d(a, d), -1)
    result = dict(x)
    n, factorial = 0, 1
    while term:
        n += 1
        factorial *= n
        result = add(result, term, Fraction(1, factorial))
        term = artin_bracket(a, term, brackets, monomials)
    return result


# ---------------------------------------------------------------------------
# Hitchin trace powers.


def trace_powers(theta, deformation, rank_, products, unit_a, unit_mono, monomials, letters):
    """tr((theta + y)^k) - tr(theta^k) for k = 1..rank, densely.

    theta is rank x rank of {letter: c}; deformation maps
    (monomial, cdga name, row, col, letter) with 0-based row and col to a
    coefficient.  Entries are sums of (monomial, cdga name, sorted letter
    tuple) terms; matrix order is kept, the CDGA part multiplies in order
    through its product table, the letters commute.  The result for power
    k is {(monomial, "a*l.l..."): c}.
    """
    position = {l: p for p, l in enumerate(letters)}

    def zero_matrix():
        return [[{} for _ in range(rank_)] for _ in range(rank_)]

    base = zero_matrix()
    for i in range(rank_):
        for j in range(rank_):
            for l, c in theta[i][j].items():
                accumulate(base[i][j], (unit_mono, unit_a, (l,)), c)
    full = [[dict(e) for e in row] for row in base]
    for (mono, a_name, i, j, l), c in deformation.items():
        accumulate(full[i][j], (mono, a_name, (l,)), c)

    def entry_product(e1, e2, dest):
        for (m1, a1, s1), c1 in e1.items():
            for (m2, a2, s2), c2 in e2.items():
                mono = monomial_product(m1, m2, monomials)
                if mono is None:
                    continue
                sym = tuple(sorted(s1 + s2, key=position.get))
                for a_name, ca in products.get((a1, a2), {}).items():
                    accumulate(dest, (mono, a_name, sym), c1 * c2 * ca)

    def matmul(m1, m2):
        out = zero_matrix()
        for i in range(rank_):
            for j in range(rank_):
                for p in range(rank_):
                    if m1[i][p] and m2[p][j]:
                        entry_product(m1[i][p], m2[p][j], out[i][j])
        return out

    def trace(m):
        out = {}
        for i in range(rank_):
            for key, c in m[i][i].items():
                accumulate(out, key, c)
        return out

    sections = []
    power_full, power_base = full, base
    for k in range(1, rank_ + 1):
        if k > 1:
            power_full = matmul(power_full, full)
            power_base = matmul(power_base, base)
        delta = add(trace(power_full), trace(power_base), -1)
        section = {}
        for (mono, a_name, sym), c in delta.items():
            expect(mono != unit_mono, "a constant term survived in a trace power")
            accumulate(section, (mono, f"{a_name}*{'.'.join(sym)}"), c)
        sections.append(section)
    return sections


# ---------------------------------------------------------------------------
# Axiom defects at a reported witness.


def _graded_bilinear(table, x, y):
    out = {}
    for a, ca in x.items():
        for b, cb in y.items():
            for name, c in table.get((a, b), {}).items():
                accumulate(out, name, ca * cb * c)
    return out


def _combine(*parts):
    out = {}
    for scale, vec in parts:
        for name, c in vec.items():
            accumulate(out, name, scale * c)
    return out


def dgla_defect(axiom, witness, degrees, d, brackets):
    """The violated dgla identity evaluated at the witness letters."""
    br = lambda x, y: _graded_bilinear(brackets, x, y)
    e = lambda name: {name: Fraction(1)}
    dv = lambda vec: apply_linear(d, vec)
    if axiom == "complex":
        (a,) = witness
        return dv(dv(e(a)))
    if axiom == "antisymmetry":
        a, b = witness
        return _combine((1, br(e(a), e(b))), (sign(degrees[a] * degrees[b]), br(e(b), e(a))))
    if axiom == "jacobi":
        a, b, c = witness
        return _combine(
            (1, br(e(a), br(e(b), e(c)))),
            (-1, br(br(e(a), e(b)), e(c))),
            (-sign(degrees[a] * degrees[b]), br(e(b), br(e(a), e(c)))),
        )
    if axiom == "leibniz":
        a, b = witness
        return _combine(
            (1, dv(br(e(a), e(b)))),
            (-1, br(dv(e(a)), e(b))),
            (-sign(degrees[a]), br(e(a), dv(e(b)))),
        )
    raise Mismatch(f"unknown dgla axiom {axiom!r}")


def cdga_defect(axiom, witness, degrees, d, products, unit):
    """The violated CDGA identity evaluated at the witness letters."""
    mul = lambda x, y: _graded_bilinear(products, x, y)
    e = lambda name: {name: Fraction(1)}
    dv = lambda vec: apply_linear(d, vec)
    if axiom == "complex":
        (a,) = witness
        return dv(dv(e(a)))
    if axiom == "unit":
        _, b = witness
        return _combine((1, mul(e(unit), e(b))), (-1, e(b)))
    if axiom == "commutativity":
        a, b = witness
        return _combine((1, mul(e(a), e(b))), (-sign(degrees[a] * degrees[b]), mul(e(b), e(a))))
    if axiom == "associativity":
        a, b, c = witness
        return _combine((1, mul(mul(e(a), e(b)), e(c))), (-1, mul(e(a), mul(e(b), e(c)))))
    if axiom == "leibniz":
        a, b = witness
        return _combine(
            (1, dv(mul(e(a), e(b)))),
            (-1, mul(dv(e(a)), e(b))),
            (-sign(degrees[a]), mul(e(a), dv(e(b)))),
        )
    raise Mismatch(f"unknown cdga axiom {axiom!r}")


def codifferential_witness_defect(word, degrees, d, brackets):
    """A nonzero dgla defect among the orderings of a codifferential witness.

    Q . Q restricted to a word of weight n is a combination of the dgla
    identities on its letters: d * d for one letter, Leibniz and
    antisymmetry for two, Jacobi for three.
    """
    axioms = {1: ("complex",), 2: ("antisymmetry", "leibniz"), 3: ("jacobi",)}
    for axiom in axioms.get(len(word), ()):
        for letters in permutations(word):
            defect = dgla_defect(axiom, letters, degrees, d, brackets)
            if defect:
                return defect
    return {}
