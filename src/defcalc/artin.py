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

from .graded import _SparseVector, accumulate, as_fraction, as_int, mapping_items

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


def artin_multiply(a, x, y):
    """Product of two ring elements; elements are dicts monomial -> rational."""
    out = {}
    for mx, cx in x.items():
        if mx not in a.monomials:
            raise ValueError(f"monomial {mx!r} is not in the algebra")
        for my, cy in y.items():
            prod = a.multiply_monomials(mx, my)
            if prod is not None:
                accumulate(out, prod, as_fraction(cx) * as_fraction(cy))
    return out


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

    def order_part(self, order):
        """Terms whose monomial has the given total degree."""
        return ArtinVector.from_nonzero(
            {k: c for k, c in self.coeffs.items() if monomial_degree(k[0]) == order}
        )

    def min_order(self):
        """Smallest monomial degree present, or None for the zero vector."""
        if not self.coeffs:
            return None
        return min(monomial_degree(k[0]) for k in self.coeffs)

    def apply_map(self, gmap):
        """Apply a graded map to the space factor, monomial by monomial."""
        out = {}
        for (mono, name), c in self.coeffs.items():
            col = gmap.columns.get(name)
            if col is None:
                continue
            for out_name, oc in col.coeffs.items():
                accumulate(out, (mono, out_name), c * oc)
        return ArtinVector.from_nonzero(out)

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
