"""Graded vector spaces with named bases, sign bookkeeping and cohomology.

Everything is exact: all elimination is rational with a fixed pivot order,
so repeated runs give identical output.  Coefficients follow one rule:
whole values may be Python ints inside a kernel loop (int_view), every
public vector, witness and report value is a fractions.Fraction, and every
division has a Fraction operand, so no float can arise.

Vectors are sparse dictionaries basis name -> coefficient.  Maps store one
column per basis name and carry a single integer degree; homogeneity is
enforced at construction time.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from . import linalg

ZERO = Fraction(0)
ONE = Fraction(1)


def accumulate(out, key, value):
    """out[key] += value on a sparse dict, dropping the key when it cancels.

    A new key starts from value itself, so int values stay ints.
    """
    old = out.get(key)
    if old is None:
        if value:
            out[key] = value
    else:
        total = old + value
        if total:
            out[key] = total
        else:
            del out[key]


def int_view(coeffs):
    """A copy of a coefficient dict with each whole value as an int.

    Products of ints cost a fraction of Fraction products, so kernel loops
    multiply views; what they return goes back through GradedVector or
    ArtinVector, which make every value a Fraction again.
    """
    return {k: c.numerator if c.denominator == 1 else c for k, c in coeffs.items()}


def as_fraction(value):
    """value as a Fraction: a Fraction, an int (not a bool), or a string
    "p", "p/q" or a plain decimal.

    A bool or a float raises TypeError.  A string in exponent notation
    raises ValueError before Fraction sees it, because "1e1000000" would
    build a million-digit integer; so does a zero denominator.  ASCII "p"
    and "p/q" are read by int(), numerator first.  Strings that only some
    Python versions read ("1_000", "3/ 4", "1.d") raise 3.10's ValueError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        if num.removeprefix("-").isdigit() and (not slash or den.isdigit()) and value.isascii():
            n, d = int(num), int(den or 1)
            if not d:
                raise ValueError("zero denominator")
            return Fraction(n, d) if slash else Fraction(n)
        if "e" in value or "E" in value:
            raise ValueError("exponent notation")
        if any(c in value for c in "_dD") or (
            slash and (num[-1:].isspace() or den[:1].isspace())
        ):
            raise ValueError(f"Invalid literal for Fraction: {value!r}")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError("zero denominator") from None
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def as_int(value, what):
    """value itself when it is an int and not a bool; anything else raises a
    TypeError that names the field, so 1.5 and True are never read as 1."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(f"{what} must be an int, got {type(value).__name__}")


def mapping_items(value):
    """value.items(); anything that is not a mapping raises TypeError."""
    try:
        return value.items()
    except AttributeError:
        raise TypeError(f"expected a mapping, got {type(value).__name__}") from None


class GradedSpace:
    """Finite graded vector space: an ordered basis of (name, degree) pairs.

    The declared basis order is the canonical order used by every
    deterministic choice downstream (pivoting, representatives, reports).
    """

    def __init__(self, basis):
        names = []
        degrees = {}
        for name, degree in basis:
            if not isinstance(name, str) or not name:
                raise ValueError(f"basis names must be nonempty strings, got {name!r}")
            if name in degrees:
                raise ValueError(f"duplicate basis name {name!r}")
            names.append(name)
            degrees[name] = as_int(degree, "basis degree")
        self.names = tuple(names)
        self.degrees = degrees

    def __len__(self):
        return len(self.names)

    def __contains__(self, name):
        return name in self.degrees

    def __eq__(self, other):
        return (
            isinstance(other, GradedSpace)
            and self.names == other.names
            and self.degrees == other.degrees
        )

    def degree(self, name):
        try:
            return self.degrees[name]
        except KeyError:
            raise ValueError(f"{name!r} is not a basis name of this space") from None

    def names_of_degree(self, degree):
        return [n for n in self.names if self.degrees[n] == degree]

    def degrees_present(self):
        return sorted(set(self.degrees.values()))

    def basis_pairs(self):
        return [(n, self.degrees[n]) for n in self.names]

    def __repr__(self):
        items = ", ".join(f"{n}:{self.degrees[n]}" for n in self.names)
        return f"GradedSpace({items})"


class _SparseVector:
    """Sparse vector: coeffs maps each key to a nonzero Fraction.

    The arithmetic of GradedVector and ArtinVector, which differ only in
    their keys.  None is the zero vector; any other non-mapping raises
    TypeError.  Vectors of different classes are never equal.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        data = {}
        if coeffs is not None:
            for key, value in mapping_items(coeffs):
                c = as_fraction(value)
                if c != 0:
                    data[key] = c
        self.coeffs = data

    @classmethod
    def from_nonzero(cls, coeffs):
        """The vector that takes coeffs as its own dict, uncopied and
        unchecked: every key must already be valid for the class and every
        value a nonzero Fraction."""
        result = cls.__new__(cls)
        result.coeffs = coeffs
        return result

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            accumulate(out, key, c)
        return self.from_nonzero(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.from_nonzero({k: -c for k, c in self.coeffs.items()})

    def scale(self, factor):
        factor = as_fraction(factor)
        if factor == 0:
            return self.from_nonzero({})
        return self.from_nonzero({k: factor * c for k, c in self.coeffs.items()})

    def __eq__(self, other):
        return type(other) is type(self) and self.coeffs == other.coeffs


class GradedVector(_SparseVector):
    """Sparse vector: mapping basis name -> nonzero rational coefficient."""

    __slots__ = ()

    @classmethod
    def basis(cls, name):
        return cls({name: ONE})

    def __getitem__(self, name):
        return self.coeffs.get(name, ZERO)

    def homogeneous_degree(self, space):
        """The common degree of the support, or None for 0 or mixed."""
        degs = {space.degree(n) for n in self.coeffs}
        if len(degs) == 1:
            return degs.pop()
        return None

    def to_dense(self, names):
        return [self.coeffs.get(n, ZERO) for n in names]

    @classmethod
    def from_dense(cls, names, values):
        return cls({n: v for n, v in zip(names, values)})

    def __repr__(self):
        if not self.coeffs:
            return "GradedVector(0)"
        parts = " + ".join(f"{c}*{n}" for n, c in sorted(self.coeffs.items()))
        return f"GradedVector({parts})"


class GradedMap:
    """Homogeneous linear map of graded spaces, stored column by column.

    degree d means a basis vector of degree i is sent into degree i + d;
    every stored column is checked against this at construction.
    """

    def __init__(self, source, target, degree, columns=None):
        self.source = source
        self.target = target
        self.degree = as_int(degree, "map degree")
        cols = {}
        if columns is not None:
            for name, vec in mapping_items(columns):
                if name not in source:
                    raise ValueError(f"column {name!r} is not in the source basis")
                if not isinstance(vec, GradedVector):
                    vec = GradedVector(vec)
                if vec.is_zero():
                    continue
                want = source.degree(name) + self.degree
                for out_name in vec.coeffs:
                    if out_name not in target:
                        raise ValueError(
                            f"image of {name!r} uses unknown basis name {out_name!r}"
                        )
                    if target.degree(out_name) != want:
                        raise ValueError(
                            f"map is not homogeneous of degree {self.degree}: "
                            f"{name!r} (degree {source.degree(name)}) hits "
                            f"{out_name!r} (degree {target.degree(out_name)})"
                        )
                cols[name] = vec
        self.columns = cols

    def column(self, name):
        return self.columns.get(name, GradedVector())

    def apply(self, vector):
        out = {}
        for name, c in vector.coeffs.items():
            col = self.columns.get(name)
            if col is not None:
                for out_name, v in col.coeffs.items():
                    accumulate(out, out_name, c * v)
        return GradedVector(out)

    def __call__(self, vector):
        return self.apply(vector)

    def is_zero(self):
        return not self.columns

    def __eq__(self, other):
        return (
            isinstance(other, GradedMap)
            and self.degree == other.degree
            and self.columns == other.columns
        )


def _merge_words(word, tail, sdeg):
    """word . tail for canonical words: (canonical word, Koszul sign), or
    None when a letter of odd sdeg is in both.

    The one signed reordering.  Canonical words are ordered by (sdeg,
    name), and a swap of two letters of odd sdeg costs a sign.  A merge
    that puts a tail letter first on a tie: each letter of word passes over
    the tail letters placed before it, a sign for every odd pair.
    """
    merged = []
    parity = placed = 0
    n = len(tail)
    for name in word:
        key = (sdeg[name], name)
        while placed < n and (sdeg[tail[placed]], tail[placed]) <= key:
            merged.append(tail[placed])
            placed += 1
        if sdeg[name] % 2:
            if placed and tail[placed - 1] == name:
                return None
            parity += sum([sdeg[t] % 2 for t in tail[:placed]])
        merged.append(name)
    merged.extend(tail[placed:])
    return tuple(merged), -1 if parity % 2 else 1


def normalize_word(names, sdeg):
    """Canonical form of a symmetric word: (sorted tuple, Koszul sign), from
    one _merge_words per letter.

    Returns (None, 0) when the word vanishes because a letter of odd sdeg
    repeats.
    """
    word, sign = (), 1
    for name in names:
        merged = _merge_words(word, (name,), sdeg)
        if merged is None:
            return None, 0
        word, sign = merged[0], sign * merged[1]
    return word, sign


def koszul_sign(perm, degrees):
    """Sign relating a reordered product of graded factors to the original.

    perm is a permutation of 1..n given as the reordered sequence of original
    positions; degrees[i] is the degree of the factor originally at position
    i + 1.  Sorting the permutation back by adjacent transpositions, each
    swap of factors of degrees p, q contributes (-1)^(p*q).  Composition of
    permutations multiplies the signs.  It is normalize_word's sign on the
    positions, p keyed 2p + its degree mod 2: position order, degree parity.
    Each degree is read by as_int, so a float, bool or str raises TypeError.
    """
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"{perm!r} is not a permutation of 1..{n}")
    if len(degrees) != n:
        raise ValueError("degrees must match the permutation length")
    keys = {p: 2 * p + as_int(degrees[p - 1], "degree") % 2 for p in perm}
    return normalize_word(perm, keys)[1]


def bilinear(table, x, y):
    """The bilinear extension of a table (a, b) -> GradedVector to x, y."""
    out = {}
    for a, ca in x.coeffs.items():
        for b, cb in y.coeffs.items():
            vec = table.get((a, b))
            if vec is not None:
                for name, c in vec.coeffs.items():
                    accumulate(out, name, ca * cb * c)
    return GradedVector(out)


def wedge_word(names, order_index):
    """Canonical form of an exterior word: (sorted tuple, sign), or (None, 0).

    Generators are ordered by order_index and all have exterior degree 1:
    the key 2i + 1 of generator i is odd and in that order, so reordering
    costs the permutation sign and a repeated generator kills the word.
    """
    return normalize_word(names, {name: 2 * order_index[name] + 1 for name in names})


# ---------------------------------------------------------------------------
# Cohomology of a complex.


class NotAComplexError(ValueError):
    """Raised when d(d(v)) != 0; carries the offending basis vector."""

    def __init__(self, witness, value):
        self.witness = witness
        self.value = value
        super().__init__(f"d*d is nonzero on basis vector {witness!r}: {value!r}")


def _square_violations(space, d):
    """(name, d(d(name))) for each basis name, in basis order, where that
    is nonzero."""
    for name in space.names:
        col = d.columns.get(name)
        if col is not None:
            dd = d.apply(col)
            if dd:
                yield name, dd


class DegreeBlock:
    """Cohomology data in a single degree, from the columns
    [d(preimage_names) | kernel basis], preimage_names basis vectors one
    degree down.  The image columns span the coboundaries, so the kernel
    columns at the pivots past them (rep_pivots) are the representatives,
    the greedy ones in kernel-basis order.

    The pivots come from one elimination.  With prepare it is the solver's,
    a PreparedSolve over the columns; without, it reads only the pivots, and
    the solver is built when a lift first asks for it.  The dense matrix is
    dropped once the solver holds the elimination."""

    def __init__(self, names, image_cols, kernel_cols, preimage_names, prepare):
        cols = image_cols + kernel_cols
        self.names = names
        self.preimage_names = preimage_names
        self.matrix, self.ncols = linalg.matrix_from_columns(cols, len(names)), len(cols)
        pivots = self.solver.pivots if prepare else linalg.rref(self.matrix, self.ncols)[1]
        self.rep_pivots = [p for p in pivots if p >= len(image_cols)]
        self.representatives = [GradedVector.from_dense(names, cols[p]) for p in self.rep_pivots]
        self.dimension = len(self.rep_pivots)

    @cached_property
    def solver(self):
        solver = linalg.PreparedSolve(self.matrix, self.ncols)
        self.matrix = None
        return solver


class CohomologySummary:
    """Per-degree dimensions, chosen representatives and class projection.

    Representatives are cocycles whose classes form a basis of cohomology in
    each degree; they are chosen greedily in basis order, so the summary is
    reproducible.  project(degree, z) returns the coordinates of the class of
    the cocycle z in the representative basis and is zero on coboundaries;
    lift(degree, z) returns them together with a preimage of the coboundary
    part.

    A degree's block is built the first time that degree is read, from
    that degree's own inputs: reading degree k reduces d_k once and no
    other d, and the summary keeps nothing between reads but the blocks.
    A dimension or representatives read eliminates the block for its pivots
    only; the transform a lift needs is built on that degree's first lift.
    """

    def __init__(self, space, differential):
        self.space = space
        self.differential = differential
        self._present = space.degrees_present()
        self._blocks = {}

    def _block(self, deg, prepare=False):
        """The DegreeBlock of a degree with basis vectors, else None;
        prepare builds a new block's solver with its pivots.

        The kernel of d out of deg spans the cocycles, and the nonzero
        columns of d on degree deg - 1, in basis order, span the
        coboundaries; the block's pivots among them are d_(deg-1)'s pivot
        columns, so no reduction of d_(deg-1) is needed."""
        block = self._blocks.get(deg)
        if block is not None or deg not in self._present:
            return block
        d, here = self.differential, self.space.names_of_degree(deg)
        rows = {m: [ZERO] * len(here) for m in self.space.names_of_degree(deg + 1)}
        for j, n in enumerate(here):  # d's sparse columns into the rows of deg + 1
            if n in d.columns:
                for m, c in d.columns[n].coeffs.items():
                    if m in rows:
                        rows[m][j] = c
        rows = list(rows.values())
        below = [n for n in self.space.names_of_degree(deg - 1) if n in d.columns]
        image_cols = [d.columns[n].to_dense(here) for n in below]
        kernel_cols = linalg.nullspace(rows, len(here))
        block = self._blocks[deg] = DegreeBlock(here, image_cols, kernel_cols, below, prepare)
        return block

    def degrees(self):
        return list(self._present)

    def dimension(self, degree):
        block = self._block(degree)
        return block.dimension if block else 0

    def dimensions(self):
        return {d: self._block(d).dimension for d in self._present}

    def representatives(self, degree):
        block = self._block(degree)
        return list(block.representatives) if block else []

    def project(self, degree, vector):
        """Coordinates of the class of a cocycle in the representative basis."""
        return self.lift(degree, vector)[0]

    def lift(self, degree, vector):
        """(class coordinates, preimage) of a cocycle z from one solve.

        z = sum of coords times representatives + d(preimage), where the
        preimage combines only the basis vectors at d's pivot columns (free
        variables zero).  So d(preimage) == z exactly when the class is zero.
        The block's solve gives the unique coordinates in image basis +
        representatives: coords at rep_pivots, the preimage on the image.
        """
        if not isinstance(vector, GradedVector):
            raise TypeError(f"expected a GradedVector, got {type(vector).__name__}")
        block = self._block(degree, prepare=True)
        if block is None:
            if vector.is_zero():
                return [], GradedVector()
            raise ValueError(f"no basis in degree {degree}")
        for name in vector.coeffs:
            if self.space.degree(name) != degree:
                raise ValueError(
                    f"vector is not homogeneous of degree {degree}: contains {name!r}"
                )
        coords = block.solver.solve(vector.to_dense(block.names))
        if coords is None:
            raise ValueError("vector is not a cocycle in this degree")
        preimage = {n: c for n, c in zip(block.preimage_names, coords) if c}
        return [coords[p] for p in block.rep_pivots], GradedVector.from_nonzero(preimage)


def complex_cohomology(space, differential):
    """Cohomology of (space, differential) with representatives and projection.

    The differential must have degree +1 and square to zero; otherwise
    NotAComplexError reports the first witness basis vector.  That check is
    made here, on every basis vector; the blocks of the summary are built
    as they are read.  All elimination is rational with pivots in declared
    basis order.  The block of degree k reduces d_k once, for the kernel
    basis that spans its cocycles, and eliminates the nonzero columns of
    d_(k-1) with that basis, so its greedy pivots among them pick the
    coboundary basis and the representatives after it.
    """
    if differential.degree != 1:
        raise ValueError(f"differential must have degree +1, got {differential.degree}")
    for name, dd in _square_violations(space, differential):
        raise NotAComplexError(name, dd)
    return CohomologySummary(space, differential)

