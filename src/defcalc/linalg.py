"""Exact linear algebra over the rationals.

Small dense routines backing cohomology, obstruction projection and the
order-by-order solvers.  Matrices are lists of rows of Fractions (ints are
read as well).  rref is the one elimination; every other routine reads its
output.  It works on integer rows and returns Fractions, the same ones an
elimination in Fractions gives.  Pivot selection is always the first
nonzero entry in scan order, so every routine is deterministic for a fixed
input.
"""

from __future__ import annotations

import math
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def matrix_from_columns(columns, nrows):
    """Assemble a matrix from a list of length-nrows column vectors."""
    return [[col[i] for col in columns] for i in range(nrows)]


def _integer_row(row):
    """(scale, ints) with row == scale * ints: ints is the row times the lcm
    of its denominators, divided by the gcd of its entries."""
    den = math.lcm(*[x.denominator for x in row])
    ints = [x.numerator * (den // x.denominator) for x in row]
    g = math.gcd(*ints)
    if g > 1:
        ints = [a // g for a in ints]
    return Fraction(g, den), ints


def rref(rows, ncols=None):
    """Reduced row echelon form, pivoting only in the first ncols columns
    (all of them by default).

    Returns (reduced rows, pivot column indices).  The input is not mutated.
    The elimination is fraction-free: a row is taken as a rational scale
    times a primitive integer row (_integer_row) when a step first touches
    it, each step is one integer cross multiplication and one gcd, and only
    the scales are Fractions.  The rows come back as the Fractions an
    elimination in Fractions gives, rows past the rank included; a row no
    step touched comes back as given.
    """
    mat = list(rows)
    nrows = len(mat)
    if ncols is None:
        ncols = len(mat[0]) if nrows else 0
    scales = [None] * nrows  # None while the row is the input row
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        scales[r], scales[pivot_row] = scales[pivot_row], scales[r]
        if scales[r] is None:
            mat[r] = _integer_row(mat[r])[1]
        prow = mat[r]
        p = prow[c]
        scales[r] = Fraction(1, p)
        for i in range(nrows):
            row = mat[i]
            if i == r or not row[c]:
                continue
            scale = scales[i]
            if scale is None:
                scale, row = _integer_row(row)
            # row - (b / p) prow, up to the scale: a row - b prow
            g = math.gcd(p, row[c])
            a, b = p // g, row[c] // g
            row = [a * x - b * y for x, y in zip(row, prow)]
            g = math.gcd(*row)
            if g > 1:
                row = [x // g for x in row]
            mat[i] = row
            scales[i] = scale * g / a
        pivots.append(c)
        r += 1
    out = []
    for row, scale in zip(mat, scales):
        if scale is None:
            out.append(list(row))
        else:
            num, den = scale.numerator, scale.denominator
            out.append([Fraction(num * x, den) if x else ZERO for x in row])
    return out, pivots


def rank(rows):
    return len(rref(rows)[1])


def kernel_basis(red, pivots, ncols):
    """Kernel basis read off a reduction (red, pivots) of a matrix with ncols
    columns: one vector per free column, free variable set to 1, in
    increasing column order."""
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def nullspace(rows, ncols):
    """Basis of the kernel of the matrix, as column vectors of length ncols."""
    return kernel_basis(*rref(rows, ncols), ncols)


def solve(rows, rhs, ncols):
    """One solution of A x = b in ncols unknowns, or None if the system is
    inconsistent: PreparedSolve(rows, ncols).solve(rhs)."""
    return PreparedSolve(rows, ncols).solve(rhs)


class PreparedSolve:
    """Row reduction of A done once, for repeated solves of A x = b.

    Reduces A with an identity block appended, which records the row
    operations; solving is then a single matrix-vector product plus a
    consistency scan of the zero rows.  Free variables are set to zero.
    """

    def __init__(self, rows, ncols):
        nrows = len(rows)
        red, self.pivots = rref(
            [
                list(row) + [ONE if j == i else ZERO for j in range(nrows)]
                for i, row in enumerate(rows)
            ],
            ncols,
        )
        self.nrows = nrows
        self.ncols = ncols
        self.transform = [row[ncols:] for row in red]

    def solve(self, rhs):
        sol = [ZERO] * self.ncols
        rank_ = len(self.pivots)
        support = [j for j, v in enumerate(rhs) if v != 0]
        for i in range(self.nrows):
            row = self.transform[i]
            c = sum((row[j] * rhs[j] for j in support), ZERO)
            if i < rank_:
                sol[self.pivots[i]] = c
            elif c != 0:
                return None
        return sol


def extend_independent(base_cols, candidate_cols, nrows):
    """Indices of candidates that extend base_cols to a larger independent set.

    These are the greedy ones in candidate order: the pivot columns of
    rref([base | candidates]) that lie past the base.
    """
    nbase = len(base_cols)
    cols = list(base_cols) + list(candidate_cols)
    pivots = rref(matrix_from_columns(cols, nrows))[1]
    return [p - nbase for p in pivots if p >= nbase]
