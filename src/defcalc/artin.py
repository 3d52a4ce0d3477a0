"""Artinian coefficient rings Q[t1..tm] / monomial ideal.

An algebra is described by the set of surviving monomials (exponent tuples);
the set must contain 1 and be closed under divisors, which makes the
complement a monomial ideal and the maximal ideal nilpotent.  Ring elements
and coefficient vectors are sparse dictionaries with exact rational values.

Monomials are ordered graded lexicographically (total degree, then exponent
tuple); every routine that iterates over monomials uses that order.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .graded import _SparseVector, as_int, mapping_items

# Most monomials an integer truncation may keep.  Enumerating more would
# exhaust memory long before any computation over the algebra finished.
MAX_MONOMIALS = 10**5


def monomial_degree(monomial):
    return sum(monomial)


def monomial_key(monomial):
    return (sum(monomial), monomial)


def _variables(variables):
    """The variable names as a tuple; a string raises TypeError."""
    if isinstance(variables, str):
        raise TypeError(f"variables must be a collection of names, got {variables!r}")
    return tuple(variables)


def _exponent(e, mono):
    """e itself when it is a non-bool, non-negative int; never rounded."""
    if as_int(e, "monomial exponent") < 0:
        raise ValueError(f"negative exponent in {mono!r}")
    return e


class ArtinAlgebra:
    """Local Artinian algebra presented by variables and surviving monomials."""

    def __init__(self, variables, monomials):
        self.variables = _variables(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        m = len(self.variables)
        mono_set = set()
        for mono in monomials:
            mono = tuple(_exponent(e, mono) for e in mono)
            if len(mono) != m:
                raise ValueError(f"monomial {mono!r} has wrong arity, expected {m}")
            mono_set.add(mono)
        unit = (0,) * m
        if unit not in mono_set:
            raise ValueError("surviving monomials must contain 1")
        for mono in mono_set:
            for i in range(m):
                if mono[i] > 0:
                    lower = mono[:i] + (mono[i] - 1,) + mono[i + 1 :]
                    if lower not in mono_set:
                        raise ValueError(
                            f"monomial set is not division closed: {mono!r} survives "
                            f"but its divisor {lower!r} does not"
                        )
        self.monomials = frozenset(mono_set)
        self.unit = unit
        self.maximal_ideal = tuple(
            sorted((mo for mo in mono_set if mo != unit), key=monomial_key)
        )
        self.nilpotency_order = 1 + max(
            (monomial_degree(mo) for mo in mono_set), default=0
        )

    def __eq__(self, other):
        return (
            isinstance(other, ArtinAlgebra)
            and self.variables == other.variables
            and self.monomials == other.monomials
        )

    def multiply_monomials(self, a, b):
        """Product monomial, or None when it falls in the ideal."""
        prod = tuple(x + y for x, y in zip(a, b, strict=True))
        return prod if prod in self.monomials else None

    def monomial_name(self, mono):
        if mono == self.unit:
            return "1"
        parts = []
        for var, e in zip(self.variables, mono):
            if e == 1:
                parts.append(var)
            elif e > 1:
                parts.append(f"{var}^{e}")
        return "*".join(parts)

    def __repr__(self):
        monos = ", ".join(self.monomial_name(m) for m in self.maximal_ideal)
        return f"ArtinAlgebra(Q[{', '.join(self.variables)}]; ideal basis 1, {monos})"


def make_artin(variables, truncation):
    """Build an Artinian algebra.

    truncation may be an integer n, keeping all monomials of total degree
    < n (so every product of n maximal-ideal elements vanishes), or an
    explicit iterable of exponent tuples which is validated as a division
    closed set containing 1.  An integer truncation that would keep more
    than MAX_MONOMIALS monomials raises ValueError before any is built.
    """
    variables = _variables(variables)
    if isinstance(truncation, bool):
        raise TypeError("truncation must be an int or monomials, got bool")
    if isinstance(truncation, int):
        if truncation < 1:
            raise ValueError("integer truncation must be >= 1")
        if math.comb(truncation - 1 + len(variables), len(variables)) > MAX_MONOMIALS:
            raise ValueError(
                f"truncation {truncation} of Q[{', '.join(map(str, variables))}] keeps "
                f"more than {MAX_MONOMIALS} monomials"
            )
        monos = [()]
        for _ in variables:
            monos = [m + (e,) for m in monos for e in range(truncation - sum(m))]
        return ArtinAlgebra(variables, monos)
    return ArtinAlgebra(variables, truncation)


class ArtinVector(_SparseVector):
    """Element of (graded space) tensor (maximal ideal): coeffs keyed by
    (monomial, basis name) with nonzero rational coefficients.

    The unit monomial is deliberately excluded; these vectors always live in
    the nilpotent part, which is what makes every series in the calculus a
    finite sum.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        if terms is not None:
            keyed = {}
            for key, value in mapping_items(terms):
                if type(key) is not tuple:
                    raise TypeError(f"a term key must be a (monomial, name) pair, got {key!r}")
                mono, name = key
                keyed[(tuple(mono), name)] = value
            terms = keyed
        super().__init__(terms)

    @property
    def terms(self):
        """The coefficient dict, read-only: the same dict as coeffs."""
        return self.coeffs

    @classmethod
    def single(cls, mono, name, coeff=1):
        return cls({(tuple(mono), name): coeff})

    def __repr__(self):
        if not self.coeffs:
            return "ArtinVector(0)"
        keys = sorted(self.coeffs, key=lambda k: (monomial_key(k[0]), k[1]))
        parts = " + ".join(f"{self.coeffs[k]}*{k[0]}*{k[1]}" for k in keys)
        return f"ArtinVector({parts})"


def validate_artin_vector(x, algebra, space, degree):
    """Check that x is an ArtinVector whose monomials lie in the maximal
    ideal and whose names are in space, of degree degree."""
    if not isinstance(x, ArtinVector):
        raise TypeError(f"expected an ArtinVector, got {type(x).__name__}")
    for mono, name in x.coeffs:
        if mono not in algebra.monomials or mono == algebra.unit:
            raise ValueError(
                f"monomial {mono!r} is not in the maximal ideal of the algebra"
            )
        if name not in space:
            raise ValueError(f"{name!r} is not a basis name of the space")
        if space.degree(name) != degree:
            raise ValueError(
                f"expected a vector concentrated in degree {degree}, found {name!r} "
                f"of degree {space.degree(name)}"
            )


# ---------------------------------------------------------------------------
# The pair kernels of the Maurer-Cartan routines.  A series runs on pair dicts
# {(monomial, name): (n, d)}, n != 0 < d, n / d not always in lowest terms,
# and _vector builds one reduced Fraction per key where a value leaves it.
# Each kernel makes the dict steps of the ArtinVector operation it stands
# for, in the same order, so keys come out in that order: a cancelled key
# that returns moves to the end.


def _pairs(coeffs):
    """The pair dict of a coefficient dict of Fractions."""
    return {k: (c.numerator, c.denominator) for k, c in coeffs.items()}


def _vector(pairs):
    """The ArtinVector of a pair dict: one reduced Fraction per key."""
    return ArtinVector.from_nonzero({k: Fraction(n, d) for k, (n, d) in pairs.items()})


def _pair_add(out, key, n, d):
    """out[key] += n / d on a pair dict, n != 0, dropping the key when it
    cancels.  Equal denominators add numerators; others meet at their lcm,
    found with math.gcd."""
    old = out.get(key)
    if old is not None:
        m, e = old
        if e == d:
            n += m
        else:
            g = math.gcd(e, d)
            n, d = m * (d // g) + n * (e // g), e // g * d
        if not n:
            del out[key]
            return
    out[key] = (n, d)


def _pair_sum(x, y, n=1, d=1):
    """x + (n / d) y on pair dicts, n != 0, as a new dict: scale with x = {}."""
    out = dict(x)
    for key, (m, e) in y.items():
        _pair_add(out, key, n * m, d * e)
    return out


def _pair_map(column, x, out=None):
    """f(x) on a pair dict, monomial by monomial, added into out (a new dict
    by default) and returned.  f is given by its column function, name ->
    GradedVector or None: a map's columns.get, a bracket lookup on words or
    a morphism's component."""
    out = {} if out is None else out
    for (mono, name), (n, d) in x.items():
        col = column(name)
        if col is not None:
            for out_name, c in col.coeffs.items():
                _pair_add(out, (mono, out_name), n * c.numerator, d * c.denominator)
    return out


def _pair_bracket(table, monomials, x, y):
    """[x, y] on pair dicts, for a bracket table (a, b) -> GradedVector and a
    ring's surviving monomials.  y's terms are grouped by name, so each term
    of x makes one table lookup per name of y, and monomials are multiplied
    only under a name with an entry (ValueError if their arities differ)."""
    by_name = {}
    for (my, ay), c in y.items():
        by_name.setdefault(ay, []).append((my, c))
    out = {}
    for (mx, ax), (nx, dx) in x.items():
        for ay, ys in by_name.items():
            vec = table.get((ax, ay))
            if vec is None:
                continue
            for my, (ny, dy) in ys:
                mono = tuple([a + b for a, b in zip(mx, my, strict=True)])
                if mono in monomials:
                    n, d = nx * ny, dx * dy
                    for name, c in vec.coeffs.items():
                        _pair_add(out, (mono, name), n * c.numerator, d * c.denominator)
    return out
