"""Exact linear algebra over the rationals.

Small dense routines backing cohomology, obstruction projection and the
order-by-order solvers.  Matrices are lists of rows of Fractions.  rref is
the one elimination; every other routine reads its output.  Pivot selection
is always the first nonzero entry in scan order, so every routine is
deterministic for a fixed input.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def matrix_from_columns(columns, nrows):
    """Assemble a matrix from a list of length-nrows column vectors."""
    return [[col[i] for col in columns] for i in range(nrows)]


def rref(rows, ncols=None):
    """Reduced row echelon form, pivoting only in the first ncols columns
    (all of them by default).

    Returns (reduced rows, pivot column indices).  The input is not mutated.
    """
    mat = [list(row) for row in rows]
    nrows = len(mat)
    if ncols is None:
        ncols = len(mat[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = None
        for i in range(r, nrows):
            if mat[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = ONE / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat, pivots


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
