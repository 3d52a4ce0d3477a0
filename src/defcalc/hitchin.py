"""Hitchin pairs on finite models.

A pair is an r x r matrix theta with entries in a one-degree space L and
theta ^ theta = 0.  Out of a finite CDGA model A the module builds:

  * the deformation dgla on A (x) (gl_r (x) Lambda L), differential
    d(w (x) f) = dw (x) f + (-1)^|w| w (x) [theta, f];
  * the abelian target on A (x) Sym^k L, k = 1..r, with Sym^k placed in
    degree 1 so that first-order section data sits in degree 1;
  * the trace coefficients g^k_n and the morphism h = (g^1, ..., g^r)
    between the induced L-infinity structures, supported on the
    wedge-degree-one letters;
  * the induced map on Maurer-Cartan elements (the trace-power map on the
    deformed Higgs field) and the degree-2 class map used for the
    obstruction-kernel statement.

Matrix entries multiply with commutative Sym-algebra coefficients while
matrix noncommutativity is kept; all arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, permutations

from .artin import ArtinVector
from .dgla import Dgla, _degree_violations, _matrix_tables, mc_residual, tensor_cdga_dgla
from .dgla import tensor_name
from .graded import GradedMap, GradedSpace, GradedVector, accumulate, as_int, int_view, wedge_word
from .linfty import LInftyMorphism, LInftyStructure, pushforward_series


class HiggsFieldError(ValueError):
    """theta ^ theta != 0; witness holds (row, col, nonzero wedge terms)."""

    def __init__(self, witness):
        self.witness = witness
        i, j, terms = witness
        super().__init__(
            f"theta ^ theta has a nonzero entry at ({i + 1}, {j + 1}): {terms}"
        )


def matrix_name(i, j):
    """Name of the elementary matrix with a 1 in row i, column j (1-based)."""
    return f"E{i}{j}"


def wedge_suffix(combo):
    return "".join("^" + name for name in combo)


def sym_name(multiset):
    return ".".join(multiset)


def _sym_matrix(rows, rank, l_space):
    """An r x r matrix of L-vectors (dicts or GradedVector; None means zero)
    as a sparse matrix over Sym L: {(i, j): {(l,): c}}, nonzero entries
    only, coefficients as int views."""
    if len(rows) != rank or any(len(row) != rank for row in rows):
        raise ValueError(f"expected a {rank} x {rank} matrix")
    out = {}
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            coeffs = int_view(_entry_vector(value, l_space).coeffs)
            if coeffs:
                out[(i, j)] = {(l,): c for l, c in coeffs.items()}
    return out


def _entry_vector(value, l_space):
    vec = value if isinstance(value, GradedVector) else GradedVector(value)
    for name in vec.coeffs:
        if name not in l_space:
            raise ValueError(f"theta entry uses unknown name {name!r}")
    return vec


class HitchinPair:
    """Rank, coefficient space L, and the matrix theta with theta^theta = 0.

    Every letter of L has degree 1, since the constructions put Lambda^q L
    in degree q; a letter of another degree raises ValueError.

    theta is given as an r x r nested sequence whose entries are vectors
    over the basis of l_space (dicts or GradedVector; None means zero).
    The wedge square is formed at construction by the module's one matrix
    product, and its first nonzero entry in row-major order is rejected
    with its (row, col, terms) witness.
    """

    def __init__(self, rank, l_space, theta):
        rank = as_int(rank, "rank")
        if rank < 1:
            raise ValueError("rank must be a positive integer")
        if rank > 9:
            raise ValueError("rank above 9 is not supported by the naming scheme")
        for name in l_space.names:
            if l_space.degree(name) != 1:
                raise ValueError(f"L must sit in degree 1, but {name!r} has degree "
                                 f"{l_space.degree(name)}")
        self.rank = rank
        self.l_space = l_space
        self._theta_matrix = _sym_matrix(theta, rank, l_space)
        self.theta = tuple(
            tuple(_entry_vector(v, l_space) for v in row) for row in theta
        )
        self._l_order = order = {name: p for p, name in enumerate(l_space.names)}

        def wedge_mul(e1, e2, dest):
            for a, ca in e1.items():
                for b, cb in e2.items():
                    word, sign = wedge_word(a + b, order)
                    if sign:
                        accumulate(dest, word, ca * cb * sign)

        square = _mat_mul(self._theta_matrix, self._theta_matrix, wedge_mul)
        if square:
            i, j = min(square)
            terms = {word: Fraction(c) for word, c in square[(i, j)].items()}
            raise HiggsFieldError((i, j, terms))


def matrix_wedge_dgla(rank, l_space, theta):
    """The dgla gl_r (x) Lambda L with differential [theta, -]: the matrices
    over Lambda L (Lambda^q in degree q) twisted by theta = sum_a theta_a (x)
    l_a, named Eij^l1^l2 (see dgla._matrix_tables).  theta must be r x r,
    or ValueError.  No theta^theta check happens here: a bad theta shows up
    as d^2 != 0 under check_dgla, which callers may rely on.
    """
    x = {(l,): {} for l in l_space.names}  # x[(l,)][j][i] = (theta_l)_ij
    for (i, j), entry in _sym_matrix(theta, rank, l_space).items():
        for word, c in entry.items():
            x[word].setdefault(j + 1, {})[i + 1] = c
    index = [(i, 0) for i in range(1, rank + 1)]
    return Dgla._from_canonical(*_matrix_tables(
        index, l_space.names, {a: cols for a, cols in x.items() if cols},
        lambda a, i, j: matrix_name(i, j) + wedge_suffix(a),
    ))


def build_hitchin_dgla(pair, cdga):
    """The deformation dgla A (x) (gl_r (x) Lambda L) of a validated pair;
    ValueError on a CDGA product outside degree |a| + |b|, the first in name
    order as check_cdga's degree axiom reports it."""
    wrong = next(_degree_violations(cdga.space, cdga.products), None)
    if wrong is not None:
        raise ValueError(f"CDGA product {wrong.witness} leaves degree |a| + |b|: "
                         f"{', '.join(wrong.value.coeffs)}")
    inner = matrix_wedge_dgla(pair.rank, pair.l_space, pair.theta)
    return tensor_cdga_dgla(cdga, inner)


def sym_space(pair):
    """Sym^k L for k = 1..rank, every monomial placed in degree 1."""
    basis = []
    for k in range(1, pair.rank + 1):
        for combo in combinations_with_replacement(pair.l_space.names, k):
            basis.append((sym_name(combo), 1))
    return GradedSpace(basis)


def hitchin_target(pair, cdga):
    """The abelian dgla A (x) Sym L with differential d_A (x) id."""
    space = sym_space(pair)
    inner = Dgla._from_canonical(space, GradedMap(space, space, 1, {}), dict)
    return tensor_cdga_dgla(cdga, inner)


def complex_C_cohomology(pair, cdga):
    """Cohomology of the deformation complex; degree 1 carries first-order
    deformations and degree 2 their obstructions.  It reads the space and d
    of the deformation dgla only, so no bracket table is built."""
    return build_hitchin_dgla(pair, cdga).cohomology()


# ---------------------------------------------------------------------------
# Matrices over a coefficient ring are sparse dicts (row, col) -> entry, each
# entry a dict from a ring basis key to a rational.  Products keep matrix
# order; how two entries multiply is the only thing that depends on the ring.


def _mat_mul(m1, m2, entry_mul):
    """m1 m2, where entry_mul(e1, e2, dest) accumulates e1 e2 into dest."""
    out = {}
    for (i, j), e1 in m1.items():
        for (k, l), e2 in m2.items():
            if j == k:
                entry_mul(e1, e2, out.setdefault((i, l), {}))
    return {key: entry for key, entry in out.items() if entry}


def _sym_entry_mul(order):
    """Entries over Sym L: keys are Sym-monomials (L-names in basis order)."""

    def entry_mul(e1, e2, dest):
        for mono1, c1 in e1.items():
            for mono2, c2 in e2.items():
                accumulate(dest, tuple(sorted(mono1 + mono2, key=order.get)), c1 * c2)

    return entry_mul


def _theta_powers(theta, rank, order):
    """theta^0 .. theta^rank over Sym L, theta a sparse matrix of _sym_matrix,
    by entry: {(b, c): [(g, theta^g[b, c]) for nonzero entries, g ascending]}."""
    entry_mul = _sym_entry_mul(order)
    power = {(a, a): {(): 1} for a in range(rank)}
    links = {key: [(0, entry)] for key, entry in power.items()}
    for g in range(1, rank + 1):
        power = _mat_mul(power, theta, entry_mul)
        for key, entry in power.items():
            links.setdefault(key, []).append((g, entry))
    return links


def _word_trace_sum(rank, mats, powers, order):
    """Sums of traces of all matrix words of each length k <= rank that use
    each matrix once: {k: trace}, nonzero traces only, k ascending.

    mats are sparse matrices over Sym L, a matrix unit E_ij (x) l being the
    one-entry matrix {(i, j): {(l,): 1}}, and the other slots hold theta,
    whose powers are the links of _theta_powers; trace k is the coefficient
    of t_1...t_n in tr((theta + sum t_m f_m)^k).  A word is fixed by the
    slot of the first matrix (k choices, one trace by cyclicity), the cyclic
    order sigma of the others and the composition g_1 + ... + g_n = k - n
    of theta powers between them, and
        tr(f_1 theta^{g_1} f_sigma(2) ... f_sigma(n) theta^{g_n})
    is a sum over index paths through the entries, so no matrix is
    multiplied.  One walk per cyclic order chains the links theta^g[b, c]
    between matrices, ends at its first missing link and closes each path
    in power k = n + (powers used).  With no matrices, paths start on the
    diagonal and trace k is tr(theta^k), k = 0 included, without the slot
    factor.
    """
    n = len(mats)
    free = rank - n
    if free < 0:
        return {}
    entry_mul = _sym_entry_mul(order)
    # (row the path started in, column it is in) -> {theta powers used: poly}
    first = mats[0] if mats else {(a, a): {(): 1} for a in range(rank)}
    start = {key: {0: entry} for key, entry in first.items()}
    totals = {}
    for rest in permutations(mats[1:]):
        partial = start
        for mat in rest:
            step = {}
            for (a, b), polys in partial.items():
                for (c, d), entry in mat.items():
                    for g, theta_entry in powers.get((b, c), ()):
                        for used, poly in polys.items():
                            if used + g <= free:
                                head = {}
                                entry_mul(poly, theta_entry, head)
                                dest = step.setdefault((a, d), {}).setdefault(used + g, {})
                                entry_mul(head, entry, dest)
            if not step:
                break
            partial = step
        else:  # the last gap closes the cycle
            for (a, b), polys in partial.items():
                for g, theta_entry in powers.get((b, a), ()):
                    for used, poly in polys.items():
                        if used + g <= free:
                            entry_mul(poly, theta_entry, totals.setdefault(n + used + g, {}))
    return {k: {mono: (k if n else 1) * c for mono, c in totals[k].items()}
            for k in sorted(totals) if totals[k]}


def g_coefficient(k, args, pair, cdga):
    """The multidegree-(1,...,1) trace coefficient on n arguments.

    Each argument is a pair (omega, f): omega a vector over the CDGA basis
    and f an r x r matrix of L-vectors.  The value is the product
    omega_1 ... omega_n tensored with the coefficient of t_1...t_n in
    tr((theta + sum t_i f_i)^k); with a single argument this is
    k tr(f theta^(k-1)).
    """
    k = as_int(k, "power")
    if k < 1 or k > pair.rank:
        raise ValueError(f"power {k} outside 1..{pair.rank}")
    order = pair._l_order
    omega = GradedVector({cdga.unit: 1})
    mats = []
    for om, f in args:
        om = om if isinstance(om, GradedVector) else GradedVector(om)
        for name in om.coeffs:
            if name not in cdga.space:
                raise ValueError(f"form uses unknown CDGA basis name {name!r}")
        omega = cdga.multiply(omega, om)
        mats.append(_sym_matrix(f, pair.rank, pair.l_space))
    out = {}
    if not omega.is_zero():
        powers = _theta_powers(pair._theta_matrix, pair.rank, order)
        trace = _word_trace_sum(pair.rank, mats, powers, order).get(k, {})
        _add_form_times_trace(out, omega.coeffs, trace)
    return GradedVector(out)


def _add_form_times_trace(out, omega, trace):
    """out += omega (x) trace: CDGA coefficients times Sym-monomial ones."""
    for mono, c in trace.items():
        for a_name, ca in omega.items():
            accumulate(out, tensor_name(a_name, sym_name(mono)), c * ca)


def _form_product(forms, products, a_parts):
    """The product of the CDGA names a_parts in order, from its longest prefix in forms."""
    start = len(a_parts)
    while a_parts[:start] not in forms:
        start -= 1
    omega = forms[a_parts[:start]]
    for end in range(start + 1, len(a_parts) + 1):
        prefix, omega = omega, {}
        for name, c in prefix.items():
            for out_name, p in products.get((name, a_parts[end - 1]), {}).items():
                accumulate(omega, out_name, c * p)
        forms[a_parts[:end]] = omega
    return omega


def build_hitchin_morphism(pair, cdga):
    """The morphism h = (g^1, ..., g^r) between the induced structures.

    Components vanish on every letter whose matrix part is not in wedge
    degree one, and h_n = 0 for n > rank; on supported letters h_n collects
    the trace coefficients for k = n..rank with the CDGA parts multiplied
    out in front in argument order.  The returned morphism carries the
    built source and target dglas and the Sym power of each target name
    (target_weights) as attributes.

    Both dglas' bracket tables, and the tables linfty_from_dgla builds
    for both structures, are built when first read.  Components and the
    complexes read none, so hitchin_map builds only the source dgla's
    brackets and obstruction_kernel_map builds no table.
    """
    source_dgla = build_hitchin_dgla(pair, cdga)
    target_dgla = hitchin_target(pair, cdga)
    source = LInftyStructure._lazy_from_dgla(source_dgla)
    target = LInftyStructure._lazy_from_dgla(target_dgla)
    order = pair._l_order
    powers = _theta_powers(pair._theta_matrix, pair.rank, order)
    products = {key: int_view(vec.coeffs) for key, vec in cdga.products.items()}

    letter_parts = {}
    for a_name in cdga.space.names:
        for l in pair.l_space.names:
            for i in range(1, pair.rank + 1):
                for j in range(1, pair.rank + 1):
                    key = tensor_name(a_name, matrix_name(i, j) + "^" + l)
                    letter_parts[key] = (a_name, (i - 1, j - 1, l))

    # per-morphism caches: the traces of every power depend on the multiset
    # of units only, the form product on the CDGA parts in argument order
    # (odd forms anticommute); the trace is read first, so a word whose
    # trace vanishes multiplies no form
    traces = {}
    forms = {(): {cdga.unit: 1}}

    def component(arity, word):
        parts = [letter_parts[name] for name in word]
        units = tuple(sorted([unit for _, unit in parts]))
        by_power = traces.get(units)
        if by_power is None:
            mats = [{(i, j): {(l,): 1}} for i, j, l in units]
            by_power = traces[units] = _word_trace_sum(pair.rank, mats, powers, order)
        if not by_power:
            return None
        omega = _form_product(forms, products, tuple([a_name for a_name, _ in parts]))
        if not omega:
            return None
        out = {}
        for trace in by_power.values():
            _add_form_times_trace(out, omega, trace)
        return GradedVector(out)

    morphism = LInftyMorphism(
        source, target, component,
        max_weight=pair.rank, support=frozenset(letter_parts),
    )
    morphism.source_dgla = source_dgla
    morphism.target_dgla = target_dgla
    morphism.target_weights = {
        tensor_name(a, sym_name(combo)): k
        for a in cdga.space.names
        for k in range(1, pair.rank + 1)
        for combo in combinations_with_replacement(pair.l_space.names, k)
    }
    return morphism


def hitchin_map(x, morphism, algebra):
    """Trace powers of the deformed field: component k is
    tr((theta + y)^k) - tr(theta^k), y the wedge-degree-one part of x.

    The element x must satisfy the Maurer-Cartan equation, which is
    checked once.  By polarization the morphism pushforward of x is the
    sum of the components, and component k is its part on the Sym^k L
    names, so the tuple is that pushforward split by target weight.
    """
    if not mc_residual(x, morphism.source_dgla, algebra).is_zero():
        raise ValueError("input is not a Maurer-Cartan element")
    weights = morphism.target_weights
    split = [{} for _ in range(morphism.max_weight)]  # max_weight is the rank
    for (mono, name), c in pushforward_series(morphism, x, algebra).coeffs.items():
        split[weights[name] - 1][(mono, name)] = c
    return tuple(ArtinVector.from_nonzero(part) for part in split)


def obstruction_kernel_map(cocycle, morphism):
    """Class of the weight-one image of a degree-2 cocycle in the target.

    On a letter w (x) f with f in wedge degree one the weight-one component
    is (k w (x) tr(f theta^(k-1)))_k; other letters map to zero.  The image
    is projected to the target dgla's degree-2 cohomology and the
    coordinate tuple in that model is returned.
    """
    if not isinstance(cocycle, GradedVector):
        raise TypeError(f"expected a GradedVector, got {type(cocycle).__name__}")
    source_dgla = morphism.source_dgla
    if not cocycle.is_zero():
        if cocycle.homogeneous_degree(source_dgla.space) != 2:
            raise ValueError("expected a homogeneous degree-2 element")
    if not source_dgla.d(cocycle).is_zero():
        raise ValueError("input is not a cocycle")
    image = GradedVector()
    for name, c in cocycle.coeffs.items():
        image = image + morphism.component((name,)).scale(c)
    return morphism.target_dgla.cohomology().project(2, image)
