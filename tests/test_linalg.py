"""Exact elimination: one row reduction behind every solver."""

import random
from fractions import Fraction

from defcalc import linalg


def fraction_rref(rows, ncols=None):
    """The former linalg.rref: Gauss-Jordan elimination in Fractions, each
    pivot row divided by its pivot before it clears its column."""
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
        inv = Fraction(1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat, pivots


def rank_per_candidate(base_cols, candidate_cols, nrows):
    """The former extend_independent: a full rank for every candidate."""
    kept = []
    current = list(base_cols)
    current_rank = (
        linalg.rank(linalg.matrix_from_columns(current, nrows)) if current else 0
    )
    for idx, cand in enumerate(candidate_cols):
        trial = linalg.matrix_from_columns(current + [cand], nrows)
        if linalg.rank(trial) > current_rank:
            kept.append(idx)
            current.append(cand)
            current_rank += 1
    return kept


def incremental_extend_independent(base_cols, candidate_cols, nrows):
    """The former extend_independent: each column is reduced against the
    echelon rows kept so far and is independent when something is left."""
    echelon = []

    def add_if_independent(col):
        vec = list(col)
        for pivot, row in echelon:
            factor = vec[pivot]
            if factor != 0:
                vec = [a - factor * b for a, b in zip(vec, row)]
        pivot = next((i for i in range(nrows) if vec[i] != 0), None)
        if pivot is None:
            return False
        echelon.append((pivot, [a / vec[pivot] for a in vec]))
        return True

    for col in base_cols:
        add_if_independent(col)
    return [idx for idx, cand in enumerate(candidate_cols) if add_if_independent(cand)]


def random_column(rng, nrows, earlier):
    """A sparse rational column, or a combination of earlier ones."""
    if earlier and rng.random() < 0.3:
        out = [Fraction(0)] * nrows
        for col in rng.sample(earlier, min(len(earlier), rng.randint(1, 3))):
            f = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            out = [a + f * b for a, b in zip(out, col)]
        return out
    return [
        Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.4 else Fraction(0)
        for _ in range(nrows)
    ]


def test_extend_independent_matches_rank_oracle():
    rng = random.Random(5150)
    cases = [([], [], 0), ([], [], 3), ([], [[Fraction(0)] * 3], 3), ([], [[], []], 0)]
    for _ in range(300):
        nrows = rng.randint(0, 6)
        cols = []
        for _ in range(rng.randint(0, 9)):
            cols.append(random_column(rng, nrows, cols))
        split = rng.randint(0, len(cols))
        cases.append((cols[:split], cols[split:], nrows))
    deficient = dependent_base = 0
    for base, candidates, nrows in cases:
        kept = linalg.extend_independent(base, candidates, nrows)
        assert kept == rank_per_candidate(base, candidates, nrows)
        assert kept == incremental_extend_independent(base, candidates, nrows)
        deficient += len(kept) < len(candidates)
        if base:
            dependent_base += linalg.rank(linalg.matrix_from_columns(base, nrows)) < len(base)
    assert deficient > 50 and dependent_base > 20


def random_system(rng):
    nrows, ncols = rng.randint(0, 5), rng.randint(1, 5)
    cols = []
    for _ in range(ncols):
        cols.append(random_column(rng, nrows, cols))
    rows = linalg.matrix_from_columns(cols, nrows)
    if rng.random() < 0.5 and nrows:
        # a right-hand side in the column span, so the system is consistent
        x = [Fraction(rng.randint(-2, 2)) for _ in range(ncols)]
        rhs = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows]
    else:
        rhs = random_column(rng, nrows, [])
    return rows, ncols, rhs


def augmented_solve(rows, rhs, ncols):
    """The former linalg.solve: reduce [A | b] once, free variables zero."""
    red, pivots = linalg.rref([list(row) + [rhs[i]] for i, row in enumerate(rows)], ncols)
    if any(row[ncols] != 0 for row in red[len(pivots):]):
        return None
    sol = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        sol[pc] = red[r][ncols]
    return sol


def test_prepared_solve_equals_solve():
    rng = random.Random(6021)
    outcomes = set()
    for _ in range(300):
        rows, ncols, rhs = random_system(rng)
        expected = augmented_solve(rows, rhs, ncols)
        assert linalg.solve(rows, rhs, ncols) == expected
        prepared = linalg.PreparedSolve(rows, ncols)
        assert prepared.solve(rhs) == expected
        # one reduction serves many right-hand sides
        for _ in range(2):
            other = random_column(rng, len(rows), [])
            assert prepared.solve(other) == augmented_solve(rows, other, ncols)
        outcomes.add(expected is None)
    assert outcomes == {True, False}


def random_matrix(rng):
    """Seeded rows with mixed denominators, large entries, zero rows,
    duplicate and proportional rows, ints and Fractions side by side."""
    nrows, width = rng.randint(0, 7), rng.randint(0, 7)
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if rows and kind < 0.15:
            rows.append(list(rng.choice(rows)))
        elif rows and kind < 0.3:
            f = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            rows.append([f * x for x in rng.choice(rows)])
        elif kind < 0.4:
            rows.append([Fraction(0)] * width)
        else:
            rows.append([
                Fraction(rng.randint(-10**rng.randint(1, 6), 10**6), rng.randint(1, 60))
                if rng.random() < 0.5 else rng.choice([0, Fraction(0), rng.randint(-3, 3)])
                for _ in range(width)
            ])
    return rows


def test_rref_matches_the_fraction_elimination_oracle():
    rng = random.Random(9090)
    seen = {"short ncols": 0, "rank deficient": 0, "row past the rank kept": 0}
    cases = [([], None), ([], 0), ([[]], None), ([[], []], 0), ([[Fraction(0)] * 3] * 2, None)]
    for _ in range(600):
        rows = random_matrix(rng)
        width = len(rows[0]) if rows else 0
        ncols = None if rng.random() < 0.5 else rng.randint(0, width)
        cases.append((rows, ncols))
    for rows, ncols in cases:
        snapshot = [list(row) for row in rows]
        red, pivots = linalg.rref(rows, ncols)
        expected_red, expected_pivots = fraction_rref(rows, ncols)
        assert pivots == expected_pivots
        assert red == expected_red
        # the same entries, of the same types: Fractions where a step wrote
        assert [[type(x) for x in row] for row in red] == [
            [type(x) for x in row] for row in expected_red
        ]
        assert rows == snapshot
        width = len(rows[0]) if rows else 0
        seen["short ncols"] += ncols is not None and ncols < width
        seen["rank deficient"] += len(pivots) < len(rows)
        seen["row past the rank kept"] += any(
            any(x != 0 for x in row) for row in red[len(pivots):]
        )
    assert min(seen.values()) > 20, seen


def test_rref_pivots_only_in_the_allowed_columns():
    rows = [[Fraction(0), Fraction(0), Fraction(1)], [Fraction(0), Fraction(2), Fraction(4)]]
    red, pivots = linalg.rref(rows, 2)
    assert pivots == [1]
    assert red == [[0, 1, 2], [0, 0, 1]]
    assert linalg.rref(rows)[1] == [1, 2]


def test_nullspace_is_the_kernel_read_off_rref():
    rng = random.Random(808)
    for _ in range(200):
        rows, ncols, _ = random_system(rng)
        basis = linalg.nullspace(rows, ncols)
        assert len(basis) == ncols - (linalg.rank(rows) if rows else 0)
        for vec in basis:
            assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)
        assert basis == linalg.kernel_basis(*linalg.rref(rows, ncols), ncols)
