"""Differential graded Lie algebras and the Maurer-Cartan calculus.

Brackets and products are stored as structure constants on ordered pairs of
basis names.  A presentation may give only one of [a, b], [b, a]; the mirror
value is filled in from graded antisymmetry.  check_dgla / check_cdga verify
the axioms exactly and report the first violation in basis order, so a
failing input always produces the same witness.

Over an Artinian coefficient algebra the gauge exponential and the
Campbell-Hausdorff product are finite sums; both are computed exactly with
no truncation beyond the one built into the coefficient ring, and on
artin's int-pair kernels, which return reduced Fractions in ArtinVector order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, reduce
from itertools import combinations

from .artin import ArtinVector, monomial_degree, monomial_key, validate_artin_vector
from .artin import _pair_add, _pair_bracket, _pair_map, _pair_sum, _pairs, _vector
from .graded import GradedMap, GradedSpace, GradedVector, accumulate, bilinear
from .graded import _square_violations, complex_cohomology, int_view, mapping_items, wedge_word

ONE = Fraction(1)


class CheckReport:
    """Outcome of an axiom check: pass, or the first violation found."""

    def __init__(self, ok, axiom=None, witness=None, value=None):
        self.ok = ok
        self.axiom = axiom
        self.witness = witness
        self.value = value

    def __bool__(self):
        return self.ok

    @classmethod
    def passed(cls):
        return cls(True)

    @classmethod
    def failed(cls, axiom, witness, value=None):
        return cls(False, axiom, witness, value)

    def __repr__(self):
        if self.ok:
            return "CheckReport(pass)"
        return f"CheckReport(fail: {self.axiom} at {self.witness}, value={self.value!r})"


def _sign(exponent):
    return -1 if exponent % 2 else 1


def _complete_skew(space, table, sign_rule, label):
    """Drop zero entries, check keys and names, then fill in missing mirror
    entries.

    Keys must be pairs of existing names; both are checked before any
    mirror is formed, so a bad key is a ValueError.  Degrees are not checked
    here, so that broken presentations can be constructed and then reported
    on: check_dgla and check_cdga report an entry outside degree |a| + |b|
    as the degree axiom.  sign_rule(da, db) gives the sign, +1 or -1,
    relating the (b, a) entry to the (a, b) entry; a mirror with sign +1 is
    the (a, b) vector itself.  Explicitly given mirrors are kept as is;
    consistency is the checker's job, not the constructor's.
    """
    out = {}
    for key, vec in mapping_items(table):
        if type(key) is not tuple or len(key) != 2:
            raise ValueError(f"{label} key {key!r} is not a pair of basis names")
        if not isinstance(vec, GradedVector):
            vec = GradedVector(vec)
        if vec.is_zero():
            continue
        out[key] = vec
    degrees = space.degrees
    for (a, b), vec in out.items():
        if a not in degrees or b not in degrees:
            raise ValueError(f"{label} entry ({a!r}, {b!r}) uses unknown basis names")
        for name in vec.coeffs:
            if name not in degrees:
                raise ValueError(f"{label} [{a!r},{b!r}] hits unknown name {name!r}")
    for (a, b), vec in list(out.items()):
        if (b, a) not in out:
            out[(b, a)] = vec if sign_rule(degrees[a], degrees[b]) > 0 else -vec
    return out


class Dgla:
    """Graded space, degree +1 differential and bracket structure constants.

    The constructor enforces a differential of degree +1 and completes the
    bracket table by graded antisymmetry; the axioms, the additivity of
    degrees included, are verified by check_dgla, which construction does
    not run so that deliberately broken instances can be built and
    inspected.
    """

    def __init__(self, space, differential, brackets):
        self.space = space
        if differential is None:
            differential = GradedMap(space, space, 1)
        if differential.degree != 1:
            raise ValueError("differential must have degree +1")
        self.d = differential
        self.brackets = _complete_skew(
            space, brackets, lambda da, db: -_sign(da * db), "bracket"
        )
        self._cohomology = None

    @classmethod
    def _from_canonical(cls, space, differential, build_brackets):
        """A dgla on tables already in the form the constructor leaves them:
        a degree +1 differential, and a function of no arguments that
        returns a bracket table of pairs of known names, nonzero
        GradedVectors on known names, every mirror present.  The
        constructions build theirs so, and skip _complete_skew.  space and
        d are set here; the table is built the first time brackets is read,
        so a reader of the complex alone never builds it."""
        dgla = cls.__new__(cls)
        dgla.space, dgla.d, dgla._build_brackets = space, differential, build_brackets
        dgla._cohomology = None
        return dgla

    @cached_property
    def brackets(self):
        """The bracket table of _from_canonical's builder, built on the first
        read and kept; the constructor sets its completed table instead.
        The builder is dropped once it has run, and what it holds with it."""
        table = self._build_brackets()
        del self._build_brackets
        return table

    def cohomology(self):
        """The CohomologySummary of (space, d), kept here from the first call;
        complex_cohomology raises NotAComplexError if d*d != 0, on every call."""
        if self._cohomology is None:
            self._cohomology = complex_cohomology(self.space, self.d)
        return self._cohomology

    def bracket(self, x, y):
        return bilinear(self.brackets, x, y)


class Cdga:
    """Graded commutative algebra with differential and designated unit.

    Missing mirror products are filled from graded commutativity and the
    unit's products are filled in automatically, so presentations only need
    the interesting part of the multiplication table.
    """

    def __init__(self, space, differential, products, unit):
        self.space = space
        if differential is None:
            differential = GradedMap(space, space, 1)
        if differential.degree != 1:
            raise ValueError("differential must have degree +1")
        self.d = differential
        if unit not in space:
            raise ValueError(f"unit {unit!r} is not a basis name")
        if space.degree(unit) != 0:
            raise ValueError("unit must have degree 0")
        self.unit = unit
        table = dict(mapping_items(products))
        for name in space.names:
            table.setdefault((unit, name), GradedVector.basis(name))
            table.setdefault((name, unit), GradedVector.basis(name))
        self.products = _complete_skew(
            space, table, lambda da, db: _sign(da * db), "product"
        )

    def product_basis(self, a, b):
        return self.products.get((a, b), GradedVector())

    def multiply(self, x, y):
        return bilinear(self.products, x, y)


def trivial_cdga():
    """The ground field as a one-element algebra in degree 0, unit "1"."""
    return Cdga(GradedSpace([("1", 0)]), None, {}, "1")


# ---------------------------------------------------------------------------
# Axiom checks.
#
# A table is indexed once into the maps m(a, -) and m(-, c), each value the
# int view of a table entry, and every defect is accumulated straight from
# them into one sparse dict, which GradedVector turns back into Fractions.
# Only the triples or pairs with a term that can be nonzero are visited:
# m(p, m(q, r)) needs m(q, r) != 0 and m(p, e) != 0 for some e in its
# support.  Every violation has a nonzero term, so it stays in
# the visited set and the first one in the fixed order is a full scan's.
# Symmetry prunes further: once the mirror scan has passed, a degree +1 d
# makes L(b, a) = +-(-1)^(|a||b|) L(a, b), so Leibniz visits pairs a <= b by
# name; if every entry also lies in degree |a| + |b|, the Jacobiator is
# graded antisymmetric and Jacobi visits sorted triples only, else every
# candidate.  The failing sets are closed under these swaps, so the first
# violation is still a full scan's.


def _index(table):
    """left[a][e] = m(a, e) and right[c][e] = m(e, c) as int views, nonzero
    entries only."""
    left, right = {}, {}
    for (a, b), vec in table.items():
        view = int_view(vec.coeffs)
        left.setdefault(a, {})[b] = view
        right.setdefault(b, {})[a] = view
    return left, right


def _add_image(out, vec, columns, sign):
    """out += sign * f(vec) on a sparse name -> coefficient dict, dropping
    zeros; vec is a coefficient dict or None, and f is given by its columns
    (name -> coefficient dict)."""
    if vec is None:
        return
    for e, ce in vec.items():
        col = columns.get(e)
        if col is None:
            continue
        if sign < 0:
            ce = -ce
        for name, c in col.items():
            accumulate(out, name, ce * c)


def _complex_violations(space, d):
    for a, dd in _square_violations(space, d):
        yield CheckReport.failed("complex", (a,), dd)


def _mirror_violations(space, table, left, axiom, sign):
    """Pairs with m(a, b) != sign (-1)^(|a||b|) m(b, a), compared on the int
    views of _index.  Each unordered pair is visited once, at its first key
    in name order: a pair fails from both sides, so no first failure is
    missed."""
    deg = space.degree
    empty = {}
    for a, b in sorted(k for k in table if k[0] <= k[1] or k[::-1] not in table):
        lhs, mirror = left[a][b], left.get(b, empty).get(a, empty)
        s = sign * _sign(deg(a) * deg(b))
        if (lhs != mirror) if s > 0 else (
            lhs.keys() != mirror.keys() or any(c + mirror[n] for n, c in lhs.items())
        ):
            value = table[(a, b)] - table.get((b, a), GradedVector()).scale(s)
            yield CheckReport.failed(axiom, (a, b), value)


def _degree_violations(space, table):
    """Pairs (a, b) in name order whose entry leaves degree |a| + |b|; the
    value is the part of the entry in the wrong degree."""
    deg = space.degree
    for a, b in sorted(table):
        want = deg(a) + deg(b)
        wrong = {n: c for n, c in table[(a, b)].coeffs.items() if deg(n) != want}
        if wrong:
            yield CheckReport.failed("degree", (a, b), GradedVector(wrong))


def _leibniz_violations(space, d, table, left, right):
    """Pairs a <= b in name order with d m(a, b) != m(da, b) + (-1)^|a| m(a, db),
    for a table that passed the mirror scan."""
    pairs = {min(p, p[::-1]) for p in table}
    d_cols = {a: int_view(da.coeffs) for a, da in d.columns.items()}
    for a, da in d_cols.items():
        for e in da:
            pairs.update(min((a, c), (c, a)) for c in left.get(e, ()))
    for a, b in sorted(pairs):
        out = {}
        _add_image(out, left.get(a, {}).get(b), d_cols, 1)
        _add_image(out, d_cols.get(a), right.get(b, {}), -1)
        _add_image(out, d_cols.get(b), left.get(a, {}), -_sign(space.degree(a)))
        if out:
            yield CheckReport.failed("leibniz", (a, b), GradedVector(out))


def check_dgla(dgla):
    """Verify d*d = 0, graded antisymmetry, Jacobi, Leibniz and degrees,
    exactly.

    Returns a passing report or the first violation in deterministic order;
    Jacobi triples are taken in basis order.  Jacobi is only evaluated on
    the triples where one of [a, [b, c]], [[a, b], c], [b, [a, c]] can be
    nonzero, found from the support of each bracket; only on the sorted ones
    (a <= b <= c) if every bracket lies in degree |a| + |b|, since then the
    Jacobiator is graded antisymmetric.  Leibniz takes pairs a <= b by name.
    The witness is still the first violation in basis order.
    """
    return next(_dgla_violations(dgla), CheckReport.passed())


def _dgla_violations(dgla):
    space, table = dgla.space, dgla.brackets
    names, deg = space.names, space.degrees
    left, right = _index(table)
    yield from _complex_violations(space, dgla.d)
    yield from _mirror_violations(space, table, left, "antisymmetry", -1)
    index = {n: i for i, n in enumerate(names)}
    degree = list(_degree_violations(space, table))  # reported last, read first
    candidates = set()
    for (x, y), vec in table.items():
        ix, iy = index[x], index[y]
        if degree:
            for e in vec.coeffs:
                for a in right.get(e, ()):
                    candidates.update(((index[a], ix, iy), (ix, index[a], iy)))
                candidates.update((ix, iy, index[c]) for c in left.get(e, ()))
        elif ix <= iy:  # one sorted triple per term; left[e], right[e] share names
            for ia in {index[a] for e in vec.coeffs for a in left.get(e, ())}:
                t = (ia, ix, iy) if ia <= ix else (ix, ia, iy) if ia <= iy else (ix, iy, ia)
                candidates.add(t)
    for ia, ib, ic in sorted(candidates):
        a, b, c = names[ia], names[ib], names[ic]
        left_a, left_b = left.get(a, {}), left.get(b, {})
        out = {}
        _add_image(out, left_b.get(c), left_a, 1)
        _add_image(out, left_a.get(b), right.get(c, {}), -1)
        _add_image(out, left_a.get(c), left_b, -_sign(deg[a] * deg[b]))
        if out:
            yield CheckReport.failed("jacobi", (a, b, c), GradedVector(out))
    yield from _leibniz_violations(space, dgla.d, table, left, right)
    yield from degree


def check_cdga(cdga):
    """Verify d*d = 0, unit, graded commutativity, associativity, Leibniz
    and degrees.

    Associativity triples are taken pair by pair over the nonzero products
    (p, q) in name order, then by the third name r in basis order, (p, q, r)
    before (r, p, q); only those where (xy)z or x(yz) can be nonzero are
    evaluated.
    """
    return next(_cdga_violations(cdga), CheckReport.passed())


def _cdga_violations(cdga):
    space, table = cdga.space, cdga.products
    yield from _complex_violations(space, cdga.d)
    for name in space.names:
        if cdga.product_basis(cdga.unit, name) != GradedVector.basis(name):
            yield CheckReport.failed("unit", (cdga.unit, name))
    left, right = _index(table)
    yield from _mirror_violations(space, table, left, "commutativity", 1)
    index = {n: i for i, n in enumerate(space.names)}
    candidates = set()
    for (x, y), vec in table.items():
        for e in vec.coeffs:
            candidates.update((x, y, c) for c in left.get(e, ()))
            candidates.update((a, x, y) for a in right.get(e, ()))

    def visit_order(t):  # the nonzero pair first met, then the third name
        x, y, z = t
        keys = ((x, y, index[z], 0), (y, z, index[x], 1))
        return min(k for k in keys if k[:2] in table)

    for x, y, z in sorted(candidates, key=visit_order):
        left_x = left.get(x, {})
        out = {}
        _add_image(out, left_x.get(y), right.get(z, {}), 1)
        _add_image(out, left.get(y, {}).get(z), left_x, -1)
        if out:
            yield CheckReport.failed("associativity", (x, y, z), GradedVector(out))
    yield from _leibniz_violations(space, cdga.d, table, left, right)
    yield from _degree_violations(space, table)


# ---------------------------------------------------------------------------
# Constructions.


def tensor_name(a, x):
    return f"{a}*{x}"


def tensor_cdga_dgla(cdga, dgla):
    """Tensor of a commutative differential graded algebra with a dgla.

    On decomposables: d(a @ x) = da @ x + (-1)^|a| a @ dx and
    [a @ x, b @ y] = (-1)^(|b| |x|) ab @ [x, y].  Both tables are built from
    nonzero entries only: each differential column from the columns of d_A
    and d_L, each bracket from a nonzero product ab (taken in A's name
    order) and a nonzero bracket [x, y]; signs are parity tests.  The
    differential is built here, the bracket table (and so L's) the first
    time it is read.
    """
    A, L = cdga, dgla
    a_deg, x_deg = A.space.degrees, L.space.degrees
    basis = []
    names = {}  # names[a][x] = tensor_name(a, x)
    seen = set()
    for a in A.space.names:
        row = names[a] = {}
        for x in L.space.names:
            name = row[x] = tensor_name(a, x)
            if name in seen:
                raise ValueError(f"tensor basis name collision at {name!r}")
            basis.append((name, a_deg[a] + x_deg[x]))
            seen.add(name)
    space = GradedSpace(basis)

    # tensor names are injective, so every term lands on its own key
    columns = {}
    dx_names = [x for x in L.space.names if L.d.columns.get(x)]
    for a in A.space.names:
        da = A.d.columns.get(a)
        odd = a_deg[a] % 2
        row = names[a]
        for x in L.space.names if da else dx_names:
            col = {}
            if da:
                for a2, c in da.coeffs.items():
                    col[names[a2][x]] = c
            dx = L.d.columns.get(x)
            if dx:
                for x2, c in dx.coeffs.items():
                    col[row[x2]] = -c if odd else c
            columns[row[x]] = GradedVector.from_nonzero(col)
    differential = GradedMap(space, space, 1)  # homogeneous as d_A and d_L are
    differential.columns = columns

    def build_brackets():
        # the nonzero products ab in A's name order, each term of ab given as
        # (names[a2], c, c == 1) so that a unit coefficient costs no product
        index = {n: i for i, n in enumerate(A.space.names)}
        products = sorted(
            (index[a], index[b], a, b, [(names[e], c, c == 1) for e, c in ab.coeffs.items()])
            for (a, b), ab in A.products.items()
            if ab
        )
        brackets = {}
        for (x, y), vec in L.brackets.items():
            x_odd = x_deg[x] % 2
            for _, _, a, b, terms in products:
                flip = x_odd and a_deg[b] % 2
                out = {}
                for row, ca, unit in terms:
                    for x2, cx in vec.coeffs.items():
                        c = cx if unit else ca * cx
                        out[row[x2]] = -c if flip else c
                if out:
                    brackets[(names[a][x], names[b][y])] = GradedVector.from_nonzero(out)
        return brackets

    return Dgla._from_canonical(space, differential, build_brackets)


def _matrix_tables(index, letters, x, name):
    """(space, d, build_brackets) of the matrices over the exterior algebra
    on letters (Q without letters), twisted by x; build_brackets() returns
    the complete bracket table, for Dgla._from_canonical.

    index lists the (label, degree) of rows and columns.  a (x) E_ij, for a
    word a and labels i, j, is named name(a, i, j) and has degree |a| + |i|
    - |j|, letters in degree 1; the basis runs over words by length, then
    rows, then columns.  (a (x) M)(b (x) N) = (-1)^(|M||b|) ab (x) MN, the
    bracket is the graded commutator and d f = x f - (-1)^|f| f x for the
    degree-1 x = sum_a a (x) X_a, given as x[a][j] = {i: (X_a)_ij}.  Only
    nonzero entries are formed, in a fixed order: f = a (x) E_ij meets the
    g = b (x) E_kl with k = j or l = i in basis order, fg term first; a
    column of d takes x's components in order, each with its left products
    in the order of its column, then its right products in index order.
    """
    order = {letter: p for p, letter in enumerate(letters)}
    words = [w for q in range(len(letters) + 1) for w in combinations(letters, q)]
    products = {}  # products[(a, b)] = (word, c, -c) when ab = c word != 0
    for a in words:
        for b in words:
            word, sign = wedge_word(a + b, order)
            if sign:
                products[(a, b)] = (word, ONE, -ONE) if sign > 0 else (word, -ONE, ONE)
    labels = [i for i, _ in index]
    odd = {i: deg % 2 for i, deg in index}
    names, basis = {}, []  # names[a][i][j] = name(a, i, j)
    for a in words:
        names[a] = {i: {j: name(a, i, j) for j in labels} for i in labels}
        basis += [(names[a][i][j], len(a) + di - dj) for i, di in index for j, dj in index]
    space = GradedSpace(basis)

    parts = [  # (a, columns of X_a, rows of X_a in index order, |X_a| odd)
        (a, cols, {i: [(j, cols[j][i]) for j in labels if i in cols.get(j, ())] for i in labels},
         1 - len(a) % 2)
        for a, cols in x.items()
    ]
    columns = {}
    for b in words:
        b_odd = len(b) % 2
        for i in labels:
            for j in labels:
                e_odd = odd[i] ^ odd[j]
                col = {}
                for a, cols, rows, m_odd in parts:
                    hit = products.get((a, b))
                    if hit is None:  # then ba = 0 too
                        continue
                    word, c, minus = hit
                    at = names[word]
                    s = minus if m_odd and b_odd else c  # x f
                    for p, cx in cols.get(i, {}).items():
                        accumulate(col, at[p][j], s * cx)
                    _, c, minus = products[(b, a)]  # - (-1)^|f| f x
                    s = c if b_odd ^ e_odd ^ (e_odd and len(a) % 2) else minus
                    row = at[i]
                    for q, cx in rows.get(j, ()):
                        accumulate(col, row[q], s * cx)
                if col:
                    columns[names[b][i][j]] = GradedVector.from_nonzero(col)
    differential = GradedMap(space, space, 1)  # homogeneous as x has degree 1
    differential.columns = columns

    def build_brackets():
        brackets = {}
        for a in words:
            for i in labels:
                for j in labels:
                    f, e_odd = names[a][i][j], odd[i] ^ odd[j]
                    for b in words:
                        hit = products.get((a, b))
                        if hit is None:
                            continue
                        # [f, g] = fg - (-1)^(|f||g|) gf, where gf = +-ab (x) E_kj
                        word, c, minus = hit
                        if e_odd and len(b) % 2:
                            c, minus = minus, c
                        at, g_names = names[word], names[b]
                        for k in labels:
                            for l in labels if k == j else (i,):
                                out = {at[i][l]: c} if k == j else {}
                                if l == i:
                                    gf = c if e_odd and odd[k] ^ odd[l] else minus
                                    accumulate(out, at[k][j], gf)
                                if out:
                                    brackets[(f, g_names[k][l])] = GradedVector.from_nonzero(out)
        return brackets

    return space, differential, build_brackets


def hom_name(target, source):
    return f"E[{target},{source}]"


def hom_dgla(space, differential):
    """Endomorphism dgla of a complex (V, d): the matrices over Q on V,
    twisted by d (see _matrix_tables).  E[w, v] sends v to w and has degree
    |w| - |v|; the bracket is the graded commutator, the differential [d, -].
    """
    d = differential
    if d.degree != 1:
        raise ValueError("differential must have degree +1")
    deg = space.degrees
    columns = {v: d.column(v).coeffs for v in space.names}
    for v, col in columns.items():
        if any(deg.get(w) != deg[v] + 1 for w in col):
            raise ValueError(f"d({v}) is not in degree {deg[v] + 1} of the space")
    index = [(v, deg[v]) for v in space.names]
    return Dgla._from_canonical(
        *_matrix_tables(index, (), {(): columns}, lambda _, w, v: hom_name(w, v))
    )


# ---------------------------------------------------------------------------
# Maurer-Cartan calculus over an Artinian base.


def bracket_artin(dgla, algebra, x, y):
    """Coefficient-bilinear extension of the bracket to L (x) m_A.

    artin._pair_bracket on the pairs of x and y: y's terms are grouped by
    name, and monomials are multiplied only under a name with a bracket
    entry.  x and y must be ArtinVectors (TypeError otherwise); their
    monomials and names are validated by the callers, not here.
    """
    for v in (x, y):
        if not isinstance(v, ArtinVector):
            raise TypeError(f"expected an ArtinVector, got {type(v).__name__}")
    x, y = _pairs(x.coeffs), _pairs(y.coeffs)
    return _vector(_pair_bracket(dgla.brackets, algebra.monomials, x, y))


def mc_residual(x, dgla, algebra):
    """dx + [x, x] / 2 for a degree 1 element of L (x) m_A, in pairs."""
    validate_artin_vector(x, algebra, dgla.space, degree=1)
    x = _pairs(x.coeffs)
    bracket = _pair_bracket(dgla.brackets, algebra.monomials, x, x)
    return _vector(_pair_sum(_pair_map(dgla.d.columns.get, x), bracket, 1, 2))


def is_mc(x, dgla, algebra):
    return mc_residual(x, dgla, algebra).is_zero()


def gauge_act(a, x, dgla, algebra):
    """Action of exp(a) on x:  x + sum_n ad_a^n ([a, x] - da) / (n + 1)!.

    a has degree 0 and x degree 1, both with nilpotent coefficients, so the
    series stops on its own; it runs on pairs (_gauge_pairs).
    """
    validate_artin_vector(a, algebra, dgla.space, degree=0)
    validate_artin_vector(x, algebra, dgla.space, degree=1)
    return _vector(_gauge_pairs(_pairs(a.coeffs), _pairs(x.coeffs), dgla, algebra))


def _gauge_pairs(a, x, dgla, algebra):
    """exp(a) . x on pair dicts, one new term per bracket with a; the loop
    bound is only a safety net."""
    table, monomials = dgla.brackets, algebra.monomials
    term = _pair_sum(_pair_bracket(table, monomials, a, x), _pair_map(dgla.d.columns.get, a), -1)
    result, n = x, 0
    while term:
        n += 1
        result = _pair_sum(result, term, 1, math.factorial(n))
        term = _pair_bracket(table, monomials, a, term)
        if n > algebra.nilpotency_order:
            raise AssertionError("gauge series failed to terminate")
    return result


def bch_product(a, b, dgla, algebra):
    """Campbell-Hausdorff product a * b with exp(a * b) acting as exp(a) exp(b).

    Varadarajan's recursion for the parts Z_n of log(e^a e^b) of length n:
    Z_1 = a + b and (n + 1) Z_{n+1} = [a - b, Z_n] / 2 + sum_{p >= 1, 2p <= n}
    B_2p / (2p)! W_{2p,n}, where W_{j,m} = sum_k [Z_k, W_{j-1,m-k}] is the sum
    of [Z_k1, [... [Z_kj, a + b]...]] over k_1 + ... + k_j = m: O(N^3)
    brackets on pairs.  Every letter lies in the maximal ideal, so words of
    length N = nilpotency order vanish and Z_1 + ... + Z_{N-1} is all of it.
    """
    validate_artin_vector(a, algebra, dgla.space, degree=0)
    validate_artin_vector(b, algebra, dgla.space, degree=0)
    table, monomials = dgla.brackets, algebra.monomials
    top = algebra.nilpotency_order - 1
    # c[j] = B_j / j!, the coefficients of x / (e^x - 1), in pairs, zeros dropped
    c = {0: (1, 1)}
    for m in range(1, top):
        for k, (n, d) in list(c.items()):
            _pair_add(c, m, -n, d * math.factorial(m + 1 - k))
    a, b = _pairs(a.coeffs), _pairs(b.coeffs)
    diff = _pair_sum(a, b, -1)
    z = [None, _pair_sum(a, b)]
    w = [[z[1]]]  # w[m][j] = W_{j,m}; W_{0,m} = 0 for m > 0
    for n in range(1, top):
        row = [{}]
        for j in range(1, n + 1):
            acc = {}
            for k in range(1, n - j + 2):
                inner = w[n - k][j - 1]
                if z[k] and inner:
                    acc = _pair_sum(acc, _pair_bracket(table, monomials, z[k], inner))
            row.append(acc)
        w.append(row)
        # Z_{n+1}, the 1 / (n + 1) taken into each term's factor
        nxt = _pair_sum({}, _pair_bracket(table, monomials, diff, z[n]), 1, 2 * (n + 1))
        for p in range(1, n // 2 + 1):
            nxt = _pair_sum(nxt, row[2 * p], c[2 * p][0], c[2 * p][1] * (n + 1))
        z.append(nxt)
    return _vector(reduce(_pair_sum, z[2:], z[1]))


# ---------------------------------------------------------------------------
# Order-by-order Maurer-Cartan solving and gauge equivalence.


class ObstructionEvent:
    """One projected obstruction class met during the order-by-order lift."""

    def __init__(self, direction, order, monomial, coords, cocycle):
        self.direction = direction
        self.order = order
        self.monomial = monomial
        self.coords = tuple(coords)
        self.cocycle = cocycle

    def vanishes(self):
        return all(c == 0 for c in self.coords)

    def __repr__(self):
        return (
            f"ObstructionEvent(direction={self.direction}, order={self.order}, "
            f"monomial={self.monomial}, coords={self.coords})"
        )


class McSolveResult:
    """Tangent block, obstruction history and completed lifts."""

    def __init__(self, cohomology, directions, events, solutions):
        self.cohomology = cohomology
        self.directions = directions
        self.events = events
        self.solutions = solutions

    def tangent_dimension(self):
        return self.cohomology.dimension(1)

    def obstructed_directions(self):
        return sorted({e.direction for e in self.events if not e.vanishes()})

    def primary_obstructions(self):
        """First nonvanishing obstruction event of each direction."""
        first = {}
        for e in self.events:
            if e.vanishes() or e.direction in first:
                continue
            first[e.direction] = e
        return [first[k] for k in sorted(first)]


def _lift_by_monomial(summary, degree, part):
    """(monomial, v, class coordinates, -u (x) monomial) for each monomial of
    the pair dict part in monomial_key order, where v is its coefficient
    vector, a cocycle of the given degree, and v = sum of coords times
    representatives + d u from one summary.lift; the correction is pairs.
    When the coordinates vanish, adding it to x cancels v in x's residual."""
    by_monomial = {}
    for (mono, name), c in _vector(part).coeffs.items():
        by_monomial.setdefault(mono, {})[name] = c
    for mono in sorted(by_monomial, key=monomial_key):
        vec = GradedVector.from_nonzero(by_monomial[mono])
        coords, pre = summary.lift(degree, vec)
        correction = {(mono, n): (-c.numerator, c.denominator) for n, c in pre.coeffs.items()}
        yield mono, vec, coords, correction


def mc_solve(dgla, algebra, directions=None):
    """Lift tangent directions to Maurer-Cartan solutions order by order.

    Default directions: each degree 1 cohomology representative seeded along
    the first variable of the algebra.  At every order the residual
    coefficient of each monomial is a cocycle; its class in H^2 either blocks
    the direction (recorded, lift abandoned) or the same solve's preimage
    under d, free variables zero, corrects it and the induction continues.

    Each seed x is split by monomial order once into pairs, x = x_1 + x_2 +
    ..., and d x_1 must vanish.  The order-k residual d(x_k) + 1/2 sum over
    i + j = k of [x_i, x_j] and its corrections are pairs too: a correction
    at order k changes no lower order of the residual, so only the parts
    below k, all settled, and x_k enter it.  An order with no such term is
    skipped.  Each order is certified as it is corrected: the residual plus
    d of the order's corrections must vanish (AssertionError naming the
    order otherwise), which over all orders is d x + [x, x] / 2 = 0.
    """
    summary = dgla.cohomology()
    if directions is None:
        if not algebra.variables:
            raise ValueError("algebra has no variables to seed directions with")
        t1 = tuple(1 if i == 0 else 0 for i in range(len(algebra.variables)))
        if t1 not in algebra.monomials:
            raise ValueError("first variable does not survive in the algebra")
        directions = [
            ArtinVector({(t1, name): c for name, c in rep.coeffs.items()})
            for rep in summary.representatives(1)
        ]
    else:
        directions = list(directions)  # read once: it may be an iterator
    max_order = algebra.nilpotency_order - 1
    column = dgla.d.columns.get
    split = []  # each seed's pair dicts by order, 0 .. max_order + 1
    for x in directions:
        validate_artin_vector(x, algebra, dgla.space, degree=1)
        parts = [{} for _ in range(max_order + 2)]
        for key, c in x.coeffs.items():
            parts[monomial_degree(key[0])][key] = (c.numerator, c.denominator)
        # a seed whose linear part is not closed is no tangent vector at all
        if _pair_map(column, parts[1]):
            raise ValueError("direction is not a cocycle at first order")
        split.append(parts)

    events = []
    solutions = []
    table, monomials = dgla.brackets, algebra.monomials
    for idx, (seed, parts) in enumerate(zip(directions, split)):
        below = [1] if parts[1] else []  # orders below k with a term, ascending
        corrections = {}  # no two corrections share a key, so update sums them
        blocked = False
        for order in range(2, max_order + 1):
            paired = [i for i in below if parts[order - i]]
            if not paired and not parts[order]:
                continue  # the order-k residual is zero
            quadratic = {}
            for i in paired:
                bracket = _pair_bracket(table, monomials, parts[i], parts[order - i])
                quadratic = _pair_sum(quadratic, bracket)
            part = _pair_sum(_pair_map(column, parts[order]), quadratic, 1, 2)
            fix = {}
            for mono, vec, coords, correction in _lift_by_monomial(summary, 2, part):
                event = ObstructionEvent(idx, order, mono, coords, vec)
                events.append(event)
                if not event.vanishes():
                    blocked = True
                    break
                fix.update(correction)
            if blocked:
                break
            if _pair_sum(part, _pair_map(column, fix)):
                raise AssertionError(f"order {order} residual is nonzero after its corrections")
            parts[order] = _pair_sum(parts[order], fix)
            corrections.update(fix)
            if parts[order]:
                below.append(order)
        solutions.append(None if blocked else seed + _vector(corrections))
    return McSolveResult(summary, directions, events, solutions)


class GaugeResult:
    """Witness of gauge equivalence, or the first unsolvable order."""

    def __init__(self, equivalent, witness=None, order=None, monomial=None, residual=None):
        self.equivalent = equivalent
        self.witness = witness
        self.order = order
        self.monomial = monomial
        self.residual = residual

    def __bool__(self):
        return self.equivalent

    def __repr__(self):
        if self.equivalent:
            return f"GaugeResult(equivalent, witness={self.witness!r})"
        return (
            f"GaugeResult(not equivalent at order {self.order}, "
            f"monomial {self.monomial}, residual {self.residual!r})"
        )


def gauge_equivalent(x, y, dgla, algebra):
    """Search order by order for a with exp(a) . x = y.

    Both inputs must satisfy Maurer-Cartan, and d must square to zero
    (NotAComplexError otherwise).  At order k the only effect a fresh
    degree k correction a_k has is -d a_k, so each step lifts the lowest
    part of y - exp(a) . x, a degree 1 cocycle per monomial, in H^1: a
    nonzero class stops the search and is reported as the failure
    certificate, a zero one gives a_k.  (On a table that breaks Leibniz
    or Jacobi the part need not be closed, and the lift raises ValueError.)
    Each step goes straight to the lowest order at which y - exp(a) . x is
    nonzero, which strictly rises.  a stays in pairs; only the lift's
    cocycles and the witness become Fractions.
    """
    for label, v in (("x", x), ("y", y)):
        if not is_mc(v, dgla, algebra):
            raise ValueError(f"{label} does not satisfy the Maurer-Cartan equation")
    summary = dgla.cohomology()
    x, y = _pairs(x.coeffs), _pairs(y.coeffs)
    a = {}  # pairs
    settled = 0
    while True:
        diff = _pair_sum(y, _gauge_pairs(a, x, dgla, algebra), -1)
        if not diff:
            return GaugeResult(True, witness=_vector(a))
        # below the nilpotency order and rising at every step, so the loop ends
        order = min(monomial_degree(k[0]) for k in diff)
        if order <= settled:
            raise AssertionError("gauge induction lost a settled order")
        settled = order
        part = {k: c for k, c in diff.items() if monomial_degree(k[0]) == order}
        for mono, vec, coords, correction in _lift_by_monomial(summary, 1, part):
            if any(coords):
                return GaugeResult(False, order=order, monomial=mono, residual=vec)
            a = _pair_sum(a, correction)
