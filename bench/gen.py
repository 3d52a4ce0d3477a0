"""Seeded input generation for the benchmark, independent of defcalc.

Everything here is plain Python data: graded bases as (name, degree) lists,
differentials as {source: {target: Fraction}}, pairwise tables as
{(a, b): {out: Fraction}} and Hitchin fields as rank x rank lists of
{letter: Fraction}.  The seed chooses coefficient values only.  The
sparsity pattern of every model is fixed by its job, so a job costs about
the same on every seed and the job mix keeps its shape.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Small nonzero rationals; the seed picks among them.
VALUES = tuple(Fraction(v) for v in (1, -1, 2, -2, 3, -3)) + (
    Fraction(1, 2),
    Fraction(-3, 2),
    Fraction(2, 3),
)


def rng_for(workload, seed):
    """Generator for one workload and seed; string seeding is stable."""
    return random.Random(f"defcalc-bench:{workload}:{seed}")


def nonzero(rng):
    return rng.choice(VALUES)


def distinct(rng, count):
    return rng.sample(VALUES, count)


# ---------------------------------------------------------------------------
# Commutative differential graded algebras.

CDGA_KINDS = ("trivial", "interval", "exterior", "fatpoint")


def cdga_spec(kind, rng, corrupt=False):
    """A small CDGA model; corrupt=True breaks one axiom on purpose.

    trivial   the ground field;
    interval  1, w in degree 1;
    exterior  1, w1, w2 in degree 1 and w12 = c w1 w2 in degree 2;
    fatpoint  de Rham forms on Q[x]/(x^3): 1, x, x2, dx, xdx with d x = dx.
    """
    if kind == "trivial":
        return {"basis": [("1", 0)], "d": {}, "products": {}, "unit": "1"}
    if kind == "interval":
        products = {("w", "w"): {"1": Fraction(1)}} if corrupt else {}
        return {"basis": [("1", 0), ("w", 1)], "d": {}, "products": products, "unit": "1"}
    if kind == "exterior":
        c = nonzero(rng)
        # the corrupt mirror has the wrong sign, breaking commutativity
        mirror = c if corrupt else -c
        return {
            "basis": [("1", 0), ("w1", 1), ("w2", 1), ("w12", 2)],
            "d": {},
            "products": {("w1", "w2"): {"w12": c}, ("w2", "w1"): {"w12": mirror}},
            "unit": "1",
        }
    if kind == "fatpoint":
        # d(x2) = 2 xdx is forced by Leibniz; the corrupt model uses 3
        two = Fraction(3 if corrupt else 2)
        return {
            "basis": [("1", 0), ("x", 0), ("x2", 0), ("dx", 1), ("xdx", 1)],
            "d": {"x": {"dx": Fraction(1)}, "x2": {"xdx": two}},
            "products": {("x", "x"): {"x2": Fraction(1)}, ("x", "dx"): {"xdx": Fraction(1)}},
            "unit": "1",
        }
    raise ValueError(f"unknown CDGA kind {kind!r}")


# ---------------------------------------------------------------------------
# Small dglas.

MATRIX_UNITS = ("E11", "E12", "E21", "E22")


def gl2_spec(rng):
    """gl(2) in degree 0 with bracket scaled by a seeded constant."""
    s = nonzero(rng)
    brackets = {}
    for p in MATRIX_UNITS:
        for q in MATRIX_UNITS:
            i, j, k, l = int(p[1]), int(p[2]), int(q[1]), int(q[2])
            out = {}
            if j == k:
                out[f"E{i}{l}"] = out.get(f"E{i}{l}", 0) + s
            if l == i:
                out[f"E{k}{j}"] = out.get(f"E{k}{j}", 0) - s
            out = {m: c for m, c in out.items() if c}
            if out:
                brackets[(p, q)] = out
    return {"basis": [(n, 0) for n in MATRIX_UNITS], "d": {}, "brackets": brackets}


def heisenberg_spec(rng):
    """[a, b] = c z in degree 0, plus d a = x with [a, x] = c' y."""
    c, c2 = nonzero(rng), nonzero(rng)
    return {
        "basis": [("a", 0), ("b", 0), ("z", 0), ("x", 1), ("y", 1)],
        "d": {"a": {"x": Fraction(1)}},
        "brackets": {("a", "b"): {"z": c}, ("a", "x"): {"y": c2}},
    }


def correction_spec(rng):
    """Degree-1 letters x, u and degree-2 letters z, h with d y = z.

    [x, x] = c z is exact, so a seed along x needs a correction at order 2;
    [u, u] = c' h is a nonzero class, so a seed along u is blocked;
    [x, u] = 0 keeps the two directions apart.
    """
    c, c2, c3 = nonzero(rng), nonzero(rng), nonzero(rng)
    return {
        "basis": [("x", 1), ("u", 1), ("y", 1), ("z", 2), ("h", 2)],
        "d": {"y": {"z": c3}},
        "brackets": {("x", "x"): {"z": c}, ("u", "u"): {"h": c2}},
    }


def corrupt_brackets(spec, pair, factor):
    """Scale one bracket entry and its mirror: antisymmetry still holds."""
    a, b = pair
    brackets = dict(spec["brackets"])
    for key in ((a, b), (b, a)):
        if key in brackets:
            brackets[key] = {n: factor * c for n, c in brackets[key].items()}
    return {**spec, "brackets": brackets}


def complex_spec(rng, degrees, with_d=True):
    """A complex with one letter per listed degree; consecutive letters
    joined by a seeded differential when with_d is set, at most every
    other step so that d * d = 0."""
    basis = [(f"v{i}", deg) for i, deg in enumerate(degrees)]
    d = {}
    if with_d:
        i = 0
        while i + 1 < len(basis):
            if basis[i + 1][1] == basis[i][1] + 1:
                d[basis[i][0]] = {basis[i + 1][0]: nonzero(rng)}
                i += 2
            else:
                i += 1
    return {"basis": basis, "d": d}


# ---------------------------------------------------------------------------
# Hitchin fields.


def theta_spec(rng, rank, n_letters, pattern):
    """theta with a fixed sparsity pattern and seeded values.

    nilpotent  N l1 + c N l2, N strictly upper triangular with a nonzero
               superdiagonal (and corner for rank >= 3);
    diagonal   distinct values on the diagonal for l1, seeded ones for l2;
    central    c I l1 (+ c' I l2): [theta, -] vanishes.
    In every case the l-components commute, so theta ^ theta = 0.
    """
    letters = [f"l{i + 1}" for i in range(n_letters)]
    theta = [[{} for _ in range(rank)] for _ in range(rank)]
    if pattern == "nilpotent":
        n = [[Fraction(0)] * rank for _ in range(rank)]
        for i in range(rank - 1):
            n[i][i + 1] = nonzero(rng)
        if rank >= 3:
            n[0][rank - 1] = nonzero(rng)
        scale = nonzero(rng)
        for i in range(rank):
            for j in range(rank):
                if n[i][j]:
                    theta[i][j] = {letters[0]: n[i][j]}
                    if n_letters > 1:
                        theta[i][j][letters[1]] = scale * n[i][j]
    elif pattern == "diagonal":
        first = distinct(rng, rank)
        second = distinct(rng, rank)
        for i in range(rank):
            theta[i][i] = {letters[0]: first[i]}
            if n_letters > 1:
                theta[i][i][letters[1]] = second[i]
    elif pattern == "central":
        values = [nonzero(rng) for _ in letters]
        for i in range(rank):
            theta[i][i] = dict(zip(letters, values))
    else:
        raise ValueError(f"unknown theta pattern {pattern!r}")
    return {"rank": rank, "letters": letters, "theta": theta}


def mixed_seed(rng, reps, variables, extra=True):
    """Linear combinations of cocycles along different variables.

    reps are degree-1 cocycles as {name: Fraction}; direction i uses
    variable i mod m with a seeded scale, so a two-variable seed couples
    two tangent classes through the bracket.  With extra set, one
    higher-order term along the first product monomial is added: that is
    allowed, since only the linear part must be closed.
    """
    m = len(variables)
    terms = {}
    for i, rep in enumerate(reps):
        mono = tuple(1 if v == i % m else 0 for v in range(m))
        s = nonzero(rng)
        for name, c in rep.items():
            key = (mono, name)
            terms[key] = terms.get(key, 0) + s * c
    if extra and m >= 2 and reps:
        mono = (1, 1) + (0,) * (m - 2)
        for name, c in reps[0].items():
            terms[(mono, name)] = terms.get((mono, name), 0) + nonzero(rng) * c
    return {k: v for k, v in terms.items() if v}


def degree0_element(rng, names, monos, count):
    """A degree-0 element with count terms on fixed names and monomials;
    only the values are seeded, so its cost does not depend on the seed."""
    terms = {}
    for i in range(count):
        key = (monos[i % len(monos)], names[(2 * i + 1) % len(names)])
        terms[key] = terms.get(key, 0) + nonzero(rng)
    return {k: v for k, v in terms.items() if v}
