"""L-infinity structures as coderivations of the reduced symmetric coalgebra.

All bookkeeping happens on the shifted space: a basis vector of degree i in
the underlying space has shifted degree i - 1, words are multisets of basis
names ordered by (shifted degree, name), and reordering letters costs the
Koszul sign of the shifted degrees.  A word repeating a letter of odd
shifted degree is zero.

Brackets q_k are stored on canonical words only; the coderivation and
coalgebra-morphism extensions below spell out the unshuffle formulas, and
the Maurer-Cartan series over an Artinian base are finite sums for the same
nilpotency reason as in the dgla calculus, on the same int-pair kernels of
artin.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, combinations_with_replacement
from math import comb, factorial

from .artin import ArtinAlgebra, ArtinVector, validate_artin_vector
from .artin import _pair_add, _pair_map, _pair_sum, _pairs, _vector
from .dgla import CheckReport, GaugeResult, gauge_act
from .graded import GradedSpace, GradedVector, accumulate
from .graded import as_fraction, as_int, int_view, mapping_items
from .graded import _merge_words, normalize_word


def shifted_degrees(space):
    """Mapping basis name -> degree on the shifted space."""
    return {n: space.degree(n) - 1 for n in space.names}


def word_key(sdeg):
    return lambda name: (sdeg[name], name)


def basis_words(space, max_weight, sdeg=None):
    """All nonzero canonical words of weight 1..max_weight, in scan order.

    Combinations of the letters in canonical order are canonical words
    already; those that repeat a letter of odd shifted degree vanish.
    """
    if sdeg is None:
        sdeg = shifted_degrees(space)
    letters = sorted(space.names, key=word_key(sdeg))
    return [
        combo
        for n in range(1, max_weight + 1)
        for combo in combinations_with_replacement(letters, n)
        if not any(a == b and sdeg[a] % 2 for a, b in zip(combo, combo[1:]))
    ]


def _known_letters(names, sdeg, where):
    """Raise ValueError unless every name is a basis name."""
    for name in names:
        if name not in sdeg:
            raise ValueError(f"unknown basis name {name!r} in {where}")


def _check_outputs(k, word, vec, sdeg, out_sdeg, shift):
    """Raise ValueError unless every output of vec on the canonical word is a
    known name of shifted degree |word| + shift: 1 for a bracket q_k, 0 for a
    morphism component f_k."""
    want = sum([sdeg[name] for name in word]) + shift
    for out_name in vec.coeffs:
        if out_name not in out_sdeg:
            noun = "bracket" if shift else "morphism"
            raise ValueError(f"{noun} output uses unknown name {out_name!r}")
        if out_sdeg[out_name] != want:
            if shift:
                raise ValueError(
                    f"q_{k} is not homogeneous of shifted degree +1 on "
                    f"{word!r}: output {out_name!r}"
                )
            raise ValueError(
                f"morphism component on {word!r} is not degree 0: output {out_name!r}"
            )


def _word_table(k, entries, sdeg, out_sdeg, shift):
    """The arity-k table {word: vector} on canonical words, zeros dropped.

    Words may be in any order; they are canonicalized with the Koszul sign.
    A word must have k known letters, a vanishing word must carry zero, two
    orderings of one word must agree, and every output must be a known name
    of shifted degree |word| + shift (1 for brackets, 0 for morphism
    components).  Violations raise ValueError.
    """
    noun = "bracket" if shift else "morphism"
    if k < 1:
        raise ValueError(f"{noun} arity must be >= 1")
    canon = {}
    for word, vec in mapping_items(entries):
        if type(word) is not tuple:
            raise TypeError(f"a {noun} word must be a tuple of names, got {word!r}")
        if len(word) != k:
            raise ValueError(f"arity {k} entry has word of length {len(word)}")
        _known_letters(word, sdeg, f"{noun} word")
        if not isinstance(vec, GradedVector):
            vec = GradedVector(vec)
        cword, sign = normalize_word(word, sdeg)
        if sign == 0:
            if not vec.is_zero():
                raise ValueError(f"{noun} value on the vanishing word {word!r} must be zero")
            continue
        cvec = vec if sign == 1 else -vec
        if cword in canon and canon[cword] != cvec:
            raise ValueError(f"inconsistent symmetric values for word {cword!r}")
        _check_outputs(k, cword, cvec, sdeg, out_sdeg, shift)
        canon[cword] = cvec
    return {word: vec for word, vec in canon.items() if vec}


class LInftyStructure:
    """Finite graded space with brackets q_k, k >= 1, on canonical words.

    brackets maps arity k to a dict word -> GradedVector, read by
    _word_table: each q_k must raise the shifted degree by exactly 1.
    """

    def __init__(self, space, brackets):
        self.space = space
        self.sdeg = sdeg = shifted_degrees(space)
        tables = {as_int(k, "bracket arity"): _word_table(k, entries, sdeg, sdeg, 1)
                  for k, entries in mapping_items(brackets)}
        self.brackets = {k: table for k, table in tables.items() if table}

    @classmethod
    def _from_canonical(cls, space, sdeg, brackets):
        """A structure on tables already in the form _word_table returns:
        nonempty, on canonical nonvanishing words of k known letters, one
        nonzero GradedVector per word.  Only the outputs are checked
        (_check_outputs), table by table, so a wrong output raises the
        ValueError the public constructor would."""
        for k, table in brackets.items():
            for word, vec in table.items():
                _check_outputs(k, word, vec, sdeg, sdeg, 1)
        structure = cls.__new__(cls)
        structure.space, structure.sdeg, structure.brackets = space, sdeg, brackets
        return structure

    @classmethod
    def _lazy_from_dgla(cls, dgla):
        """linfty_from_dgla(dgla) with space and sdeg set now and the
        tables built by that call the first time brackets is read, so a
        wrong output raises there."""
        structure = cls.__new__(cls)
        structure.space, structure.sdeg = dgla.space, shifted_degrees(dgla.space)
        structure._dgla = dgla
        return structure

    @cached_property
    def brackets(self):
        """The tables of linfty_from_dgla on _lazy_from_dgla's dgla, built on
        the first read and kept; the other constructors set them instead."""
        return linfty_from_dgla(self._dgla).brackets

    def bracket_value(self, k, word):
        return self.brackets.get(k, {}).get(word)


def linfty_from_dgla(dgla):
    """The structure with q_1 = -d, q_2(x . y) = (-1)^|x| [x, y], q_k = 0.

    Degrees in the sign are unshifted; the two fixed conventions make the
    codifferential condition equivalent to the dgla axioms.  q_1 is read
    off the nonzero columns of d in basis order, q_2 off the nonzero
    bracket entries on canonical words, in basis_words order, one key per
    pair.  Canonical as built, the tables skip the public constructor's
    re-sort; only their outputs are checked (_from_canonical), q_1 first.
    """
    space = dgla.space
    sdeg = shifted_degrees(space)
    q1 = {}
    for name in space.names:
        col = dgla.d.columns.get(name)
        if col:
            q1[(name,)] = -col
    rank = {n: i for i, n in enumerate(sorted(space.names, key=word_key(sdeg)))}
    entries = sorted(
        (rank[a], rank[b], a, b, vec)
        for (a, b), vec in dgla.brackets.items()
        # only canonical words; a repeated letter of odd shifted degree vanishes
        if vec and (rank[a] < rank[b] or (a == b and sdeg[a] % 2 == 0))
    )
    q2 = {(a, b): -vec if space.degrees[a] % 2 else vec for _, _, a, b, vec in entries}
    brackets = {}
    if q1:
        brackets[1] = q1
    if q2:
        brackets[2] = q2
    return LInftyStructure._from_canonical(space, sdeg, brackets)


def _int_tables(structure):
    """The bracket tables of a structure with int-view values."""
    return {
        k: {word: int_view(vec.coeffs) for word, vec in table.items()}
        for k, table in structure.brackets.items()
    }


def _canonical_terms(element, sdeg):
    """(canonical word, coefficient . Koszul sign) for each term of a
    coalgebra element whose word does not vanish, the coefficient read by
    graded.as_fraction.  A word that is not a tuple raises TypeError, a
    letter that is not a basis name ValueError."""
    for word, coeff in mapping_items(element):
        if type(word) is not tuple:
            raise TypeError(f"a coalgebra word must be a tuple of names, got {word!r}")
        _known_letters(word, sdeg, "coalgebra word")
        coeff = as_fraction(coeff)
        cword, sign = normalize_word(word, sdeg)
        if sign:
            yield cword, coeff * sign


def coderivation_extend(structure, element):
    """Coderivation determined by the brackets, applied to a coalgebra element.

    On a word v1 . ... . vn the value is the sum over k and (k, n-k)
    unshuffles of  sign . q_k(chosen k letters) . (remaining letters).
    element is a dict word -> exact rational (read by graded.as_fraction);
    so is the result, with Fraction values.  A word that is not a tuple
    raises TypeError, a letter that is not a basis name ValueError.  Each
    word is made canonical first, so its blocks are looked up directly,
    the unshuffle sign is that of merging block and tail, and each output
    is merged into its tail.
    """
    sdeg, tables = structure.sdeg, _int_tables(structure)
    out = {}
    for word, coeff in _canonical_terms(element, sdeg):
        n = len(word)
        for k, table in tables.items():
            for subset in combinations(range(n), k):
                block = tuple([word[p] for p in subset])
                vec = table.get(block)
                if vec is None:
                    continue
                tail = tuple([word[p] for p in range(n) if p not in subset])
                eps = _merge_words(block, tail, sdeg)[1]
                for name, c in vec.items():
                    merged = _merge_words((name,), tail, sdeg)
                    if merged is not None:
                        accumulate(out, merged[0], coeff * c * eps * merged[1])
    return out


def _multiplicity(word, block):
    """Number of position subsets of the canonical word that spell the
    canonical block: prod over letters x of C(m_word(x), m_block(x))."""
    if len(set(word)) == len(word):
        return 1
    out = 1
    for name in set(block):
        out *= comb(word.count(name), block.count(name))
    return out


def _first_nonzero(totals, space, sdeg):
    """The first word of totals in basis order, (weight, letter ranks), or
    None when totals is empty; every word in totals has a nonzero defect."""
    if not totals:
        return None
    rank = {name: i for i, name in enumerate(sorted(space.names, key=word_key(sdeg)))}
    return min(totals, key=lambda word: (len(word), [rank[name] for name in word]))


def _in_basis_order(value, space):
    """A defect's coefficient dict as a GradedVector whose names come in
    the basis order of space, whatever order the sum met them in."""
    return GradedVector({name: value[name] for name in space.names if name in value})


def _add_defect(totals, word, value, coeff):
    """totals[word] += coeff . value, dropping the word when it cancels."""
    out = totals.setdefault(word, {})
    for name, x in value.items():
        accumulate(out, name, coeff * x)
    if not out:
        del totals[word]


def _block_terms(tables, images, top, sdeg):
    """{word: defect} from the table entries: each entry c e of q_k(B)
    meets every (T, s, value) of images[e] with |T| + k <= top at the word
    w = B . T, adding mult . eps . c . s . value, eps the Koszul sign of
    the merge and mult the number of position subsets of w that spell B
    (as many unshuffles of w give that term).  images[e] lists its
    entries by |T|.  A word whose terms cancel has no entry."""
    totals = {}
    for k, table in tables.items():
        for block, vec in table.items():
            for e, c in vec.items():
                for group in images.get(e, ())[: max(0, top - k + 1)]:
                    for tail, s, value in group:
                        merged = _merge_words(block, tail, sdeg)
                        if merged is None:
                            continue
                        word, eps = merged
                        coeff = c * s * eps * _multiplicity(word, block)
                        _add_defect(totals, word, value, coeff)
    return totals


def check_codifferential(structure, weight):
    """Q . Q = 0 on every nonzero basis word up to the given weight.

    Q . Q is itself a coderivation, so it vanishes on a word exactly when
    its weight-one corestrictions vanish on that word and on all words of
    lower weight.  On a word w of weight n that corestriction is
        sum over j + k - 1 = n of  q_j(q_k(block) . tail),
    so it is built from the tables, not from the words: each key K of q_j
    is indexed by its letters e as (T, s, q_j(K)), T = K less one e and s
    the sign of e . T = K, and every entry c e of q_k(B) meets the T of
    its e at w = B . T (_block_terms), for j + k - 1 <= weight; above
    weight 2 k_max - 1 (k_max the largest arity) nothing can be formed.
    Failure reports the first word in basis order with a nonzero defect,
    and as its value that word's table-built defect, with its names in the
    basis order of structure.space.  A weight below 1 would examine nothing
    and raises ValueError.
    """
    if as_int(weight, "weight") < 1:
        raise ValueError(f"weight must be at least 1, got {weight}")
    sdeg, tables = structure.sdeg, _int_tables(structure)
    images = {}  # e -> [[(T, s, q_j(K)) for the keys K of q_j holding e] for j >= 1]
    for j, table in tables.items():
        for key, value in table.items():
            for p, e in enumerate(key):
                if p and key[p - 1] == e:
                    continue
                tail = key[:p] + key[p + 1:]
                groups = images.setdefault(e, [[] for _ in range(max(tables))])
                groups[j - 1].append((tail, _merge_words((e,), tail, sdeg)[1], value))
    totals = _block_terms(tables, images, weight, sdeg)
    word = _first_nonzero(totals, structure.space, sdeg)
    if word is None:
        return CheckReport.passed()
    value = _in_basis_order(totals[word], structure.space)
    return CheckReport.failed("codifferential", word, value)


class LInftyMorphism:
    """Weighted components f_k of a morphism between two structures.

    components is either a dict arity -> (dict word -> target vector), read
    by _word_table, or a callable (arity, canonical word) -> vector or None;
    both are evaluated through component, lazily, cached and degree-checked.
    support is the set of source letters on which components may be
    nonzero, every source letter by default; a block containing another
    letter contributes nothing, which evaluation uses as an exact shortcut.
    A support name that is not a source letter raises ValueError, a string
    support TypeError: it is not read as the set of its characters.
    max_weight, the largest arity with a component, must be an int of at
    least 0 (0 is the zero morphism); a table's largest arity by default,
    and a nonzero table entry above it raises ValueError.
    """

    def __init__(self, source, target, components, max_weight=None, support=None):
        self.source = source
        self.target = target
        if isinstance(support, str):
            raise TypeError(f"support must be a collection of basis names, got {support!r}")
        self.support = frozenset(support if support is not None else source.space.names)
        outside = self.support.difference(source.sdeg)
        _known_letters(sorted(outside, key=repr), source.sdeg, "the support")
        self._cache = {}
        self._views = {}
        top = 0  # the largest arity with a nonzero table entry
        if callable(components):
            if max_weight is None:
                raise ValueError("generator components need an explicit max_weight")
            self._generator = components
        else:
            tables = {
                as_int(k, "component arity"): _word_table(k, entries, source.sdeg, target.sdeg, 0)
                for k, entries in mapping_items(components)
            }
            self._generator = lambda k, word: tables.get(k, {}).get(word)
            top = max([k for k, table in tables.items() if table], default=0)
            if max_weight is None:
                max_weight = max(tables, default=0)
        if as_int(max_weight, "max_weight") < 0:
            raise ValueError(f"max_weight must be at least 0, got {max_weight}")
        if top > max_weight:
            raise ValueError(f"a component of arity {top} is above max_weight {max_weight}")
        self.max_weight = max_weight

    def component(self, word):
        """f_k evaluated on a canonical word, k = len(word)."""
        cached = self._cache.get(word)
        if cached is not None:
            return cached
        k = len(word)
        if k > self.max_weight or not self.support.issuperset(word):
            return GradedVector()
        vec = self._generator(k, word)
        if vec is not None:
            _check_outputs(k, word, vec, self.source.sdeg, self.target.sdeg, 0)
        cached = self._cache[word] = vec if vec is not None else GradedVector()
        return cached

    def _view(self, word):
        """The int view of component(word), computed once per word."""
        view = self._views.get(word)
        if view is None:
            view = self._views[word] = int_view(self.component(word).coeffs)
        return view


def _weight_part(morphism, word, j, memo):
    """F_j(word), the weight-j part of F on a canonical source word with
    every letter in the support: {canonical target word: coefficient}.

    F_j(w) is the sum over the blocks B holding the first letter of w of
    eps . f(B) . F_{j-1}(T), T the rest of w and eps the Koszul sign of
    B . T = w; every sign is a word merge.  B has at most max_weight
    letters and leaves T between j - 1 and (j - 1) max_weight letters, so
    f is evaluated only on the blocks of partitions into j blocks, and
    only where the blocks before it have nonzero values (not where those
    values multiply to zero).  memo holds F_i(T) by (T, i) for one call.
    """
    key = (word, j)
    found = memo.get(key)
    if found is not None:
        return found
    if j == 0:
        return {} if word else {(): 1}
    sdeg, tdeg, top_weight = morphism.source.sdeg, morphism.target.sdeg, morphism.max_weight
    n = len(word)
    out = {}
    for size in range(max(1, n - (j - 1) * top_weight), min(top_weight, n - j + 1) + 1):
        for rest in combinations(range(1, n), size - 1):
            block = (word[0],) + tuple([word[p] for p in rest])
            vec = morphism._view(block)
            if not vec:
                continue
            tail = tuple([word[p] for p in range(1, n) if p not in rest])
            eps = _merge_words(block, tail, sdeg)[1]
            for v, c in _weight_part(morphism, tail, j - 1, memo).items():
                for e, x in vec.items():
                    merged = _merge_words((e,), v, tdeg)
                    if merged is not None:
                        accumulate(out, merged[0], eps * c * x * merged[1])
    memo[key] = out
    return out


def morphism_extend(morphism, element):
    """Coalgebra morphism determined by the components, on an element.

    On a word the value is the sum over unordered set partitions of the
    letters of  sign . f(block 1) . ... . f(block s), the sign being the
    Koszul reordering of the letters into the concatenated blocks; the
    weight 2 case reads f2(v1 . v2) + f1(v1) . f1(v2).  It is the sum of
    the weight-j parts (_weight_part), which share one memo of tails; a
    word with a letter outside the support maps to zero unread.
    Coefficients are read by graded.as_fraction, values are Fractions.
    Each word is made canonical first, with its Koszul sign; a word that
    is not a tuple raises TypeError, a letter that is not a source basis
    name ValueError.
    """
    out, memo = {}, {}
    for word, coeff in _canonical_terms(element, morphism.source.sdeg):
        if morphism.support.issuperset(word):
            for j in range(len(word) + 1):
                for v, c in _weight_part(morphism, word, j, memo).items():
                    accumulate(out, v, coeff * c)
    return out


def check_linfty_morphism(morphism, weight):
    """F . Q = Q-hat . F on every source basis word up to the given weight.

    The defect F . Q - Q-hat . F is a coderivation along F, so it vanishes
    exactly when its weight-one corestriction does; per word w that reads
        sum over terms v of Q(w) of  f_{|v|}(v)
          -  sum over arities j of  q-hat_j(weight-j part of F(w)),
    the per-arity identity the full coalgebra equation projects to.

    The defect is built from the tables, not from the words.  W is
    max_weight and k_s, k_t the largest source and target arities (0
    without brackets); the bound is max(W + k_s - 1, k_t W), above which
    both sides are exactly zero.  f vanishes on every word holding a
    letter outside the support (every source letter by default), so a term
    q_k(B) . T of Q(w) survives f only with T all inside, at most W - 1
    letters, and an output e of q_k(B) in the support.  f(e . T) is
    evaluated once for every such e and T and kept where nonzero, with s
    the sign of e . T; each entry c e of q_k(B) then meets those T with
    |T| + k within the bound at w = B . T (_block_terms).  The right side
    q-hat_j(F_j(w)) is subtracted on the all-inside words up to k_t W,
    F_j(w) read for each target arity j alone (_weight_part), with one
    memo of tails for the call.
    The failure is the first word in basis order with a nonzero defect,
    and its value is that word's table-built lhs - rhs, with its names in
    the basis order of target.space.

    Every component the defect needs is evaluated before the witness is
    picked, so a generator whose output has the wrong degree on any such
    word raises ValueError even when an earlier word fails.  A weight below
    1 raises ValueError.
    """
    if as_int(weight, "weight") < 1:
        raise ValueError(f"weight must be at least 1, got {weight}")
    source, target = morphism.source, morphism.target
    sdeg, support, top_weight = source.sdeg, morphism.support, morphism.max_weight
    source_tables, target_tables = _int_tables(source), _int_tables(target)
    k_s = max(source_tables, default=0)
    k_t = max(target_tables, default=0)
    top = min(weight, max(top_weight + k_s - 1, k_t * top_weight))
    tail_top = min(top_weight - 1, top - min(source_tables, default=top))
    inside_top = min(k_t * top_weight, top)
    inside = [(name, source.space.degree(name)) for name in source.space.names if name in support]
    inside_words = basis_words(GradedSpace(inside), max(tail_top, inside_top), sdeg)
    tails = [tail for tail in [()] + inside_words if len(tail) <= tail_top]
    # e -> [[(T, s, f(e . T)) with f(e . T) nonzero] for |T| = 0 .. tail_top]
    images = {}
    for table in source_tables.values():
        for vec in table.values():
            for e in vec:
                if e in support and e not in images:
                    images[e] = groups = [[] for _ in range(tail_top + 1)]
                    for tail in tails:
                        merged = _merge_words((e,), tail, sdeg)
                        if merged is not None:
                            value = morphism._view(merged[0])
                            if value:
                                groups[len(tail)].append((tail, merged[1], value))
    totals = _block_terms(source_tables, images, top, sdeg)
    memo = {}
    for word in inside_words:
        if len(word) > inside_top:
            break
        for j, table in target_tables.items():  # - q-hat_j(weight-j part of F(w))
            for v, c in _weight_part(morphism, word, j, memo).items():
                if v in table:
                    _add_defect(totals, word, table[v], -c)
    word = _first_nonzero(totals, source.space, sdeg)
    if word is None:
        return CheckReport.passed()
    return CheckReport.failed("morphism", word, _in_basis_order(totals[word], target.space))


# ---------------------------------------------------------------------------
# Maurer-Cartan theory over an Artinian base.


def _power_step(power, x, sdeg, algebra):
    """power . x on pair dicts: one more symmetric factor of x, power keyed
    by (monomial, canonical word) and x by (monomial, name)."""
    out = {}
    for (mono, word), (n, d) in power.items():
        for (m2, name), (n2, d2) in x.items():
            mono2 = algebra.multiply_monomials(mono, m2)
            if mono2 is None:
                continue
            merged = _merge_words(word, (name,), sdeg)
            if merged is not None:
                _pair_add(out, (mono2, merged[0]), merged[1] * n * n2, d * d2)
    return out


def _power_series(x, algebra, sdeg, value, head=None, limit=None):
    """sum over n >= 0 of value(head . x^n) / n! on pair dicts, x and the
    result keyed by (monomial, name).

    head is a coalgebra element {(monomial, canonical word): (n, d)}, the
    unit by default, whose empty word is not evaluated; value, the column
    function of artin._pair_map, maps a canonical word to a GradedVector or
    None.  x has nilpotent coefficients, so the powers vanish after finitely
    many steps; limit, when given, is the last n evaluated.
    """
    terms = {}
    power = {(algebra.unit, ()): (1, 1)} if head is None else head
    n = 0
    while power:
        if n or head is not None:
            _pair_map(value, _pair_sum({}, power, 1, factorial(n)), terms)
        if n == limit:
            break
        n += 1
        power = _power_step(power, x, sdeg, algebra)
    return terms


def _bracket_series(x, structure, algebra, head=None):
    """sum_n q_n(head . x^n) / n! on pairs, with _power_series' head convention.

    No bracket has an arity above the structure's largest, k, so the
    series stops at x^k, or at x^(k-1) after a head of weight one: the
    powers past it could only meet missing brackets.
    """
    brackets = structure.brackets
    top = max(brackets, default=0)
    return _power_series(
        x, algebra, structure.sdeg,
        lambda word: brackets.get(len(word), {}).get(word), head,
        limit=max(0, top - 1 if head is not None else top),
    )


def linfty_mc_residual(x, structure, algebra):
    """sum_n q_n(x^n) / n! for a shifted-degree-0 element with nilpotent
    coefficients; nilpotency makes the sum finite."""
    validate_artin_vector(x, algebra, structure.space, degree=1)
    return _vector(_bracket_series(_pairs(x.coeffs), structure, algebra))


def pushforward_series(morphism, x, algebra):
    """sum_n f_n(x^n) / n!, with neither Maurer-Cartan equation checked; x
    must lie in degree 1 of the source space over the maximal ideal."""
    validate_artin_vector(x, algebra, morphism.source.space, degree=1)
    return _vector(_power_series(
        _pairs(x.coeffs), algebra, morphism.source.sdeg, morphism.component,
        limit=morphism.max_weight,
    ))


def pushforward_mc(morphism, x, algebra):
    """sum_n f_n(x^n) / n! for a Maurer-Cartan x; the image is checked to
    satisfy the target equation exactly and returned."""
    if not linfty_mc_residual(x, morphism.source, algebra).is_zero():
        raise ValueError("input does not satisfy the source Maurer-Cartan equation")
    out = pushforward_series(morphism, x, algebra)
    if not linfty_mc_residual(out, morphism.target, algebra).is_zero():
        raise ValueError(
            "pushforward failed the target Maurer-Cartan equation; the supplied "
            "components do not form a morphism at the required weight"
        )
    return out


# ---------------------------------------------------------------------------
# Homotopy paths: elements of V[t, dt] with polynomial coefficients.


class PolyPath:
    """Path z(t) = z0(t) + dt z1(t) with Artinian-coefficient values.

    even maps t-degree -> coefficient of t^m in z0 (shifted degree 0);
    odd maps t-degree -> coefficient of t^m in z1 (shifted degree -1).
    """

    def __init__(self, even, odd):
        self.even = _path_part(even)
        self.odd = _path_part(odd)

    def max_t_degree(self):
        return max([*self.even, *self.odd], default=0)

    def endpoint(self, at_one):
        """z0(0) or z0(1)."""
        if not at_one:
            return self.even.get(0, ArtinVector())
        total = ArtinVector()
        for v in self.even.values():
            total = total + v
        return total


def _path_part(part):
    """{t-degree: ArtinVector} with the zero vectors dropped."""
    out = {}
    for m, v in mapping_items(part):
        m = as_int(m, "t-degree")
        if not isinstance(v, ArtinVector):
            raise TypeError(f"expected an ArtinVector, got {type(v).__name__}")
        if v:
            out[m] = v
    return out


def _parameter_extension(algebra, max_degree):
    """The algebra with one extra polynomial variable t, kept up to
    t^max_degree; callers choose max_degree so that none of their products
    overflows."""
    var = "t"
    while var in algebra.variables:
        var += "_"
    monos = [m + (j,) for m in algebra.monomials for j in range(max_degree + 1)]
    return ArtinAlgebra(algebra.variables + (var,), monos)


def _embed_path_part(part):
    """The pair dict of sum_m t^m part[m] over the base extended by t."""
    return {
        (mono + (tdeg,), name): (c.numerator, c.denominator)
        for tdeg, vec in part.items() for (mono, name), c in vec.coeffs.items()
    }


def _t_derivative(x):
    """d/dt of a pair dict over the base extended by t, its last variable."""
    out = {}
    for (mono, name), (n, d) in x.items():
        j = mono[-1]
        if j:
            _pair_add(out, (mono[:-1] + (j - 1,), name), j * n, d)
    return out


def verify_homotopy_witness(path, x, y, structure, algebra):
    """Check that a supplied path realizes a homotopy from x to y.

    Conditions, each exact: the endpoints are x and y; z0(t) satisfies the
    Maurer-Cartan equation identically in t; and the dt component
        dz0/dt + sum_{n >= 1} q_n(z1 . z0^(n-1)) / (n-1)!  =  0.
    The sign of the dt term is the one fixed by expanding the equation for
    two-bracket structures, where it reads dz0/dt = d z1 + [z0, z1].
    """
    validate_artin_vector(x, algebra, structure.space, degree=1)
    validate_artin_vector(y, algebra, structure.space, degree=1)
    for tdeg, vec in path.even.items():
        validate_artin_vector(vec, algebra, structure.space, degree=1)
    for tdeg, vec in path.odd.items():
        validate_artin_vector(vec, algebra, structure.space, degree=0)

    if path.endpoint(False) != x:
        return CheckReport.failed("endpoint-0", (), path.endpoint(False) - x)
    if path.endpoint(True) != y:
        return CheckReport.failed("endpoint-1", (), path.endpoint(True) - y)

    bound = max(1, path.max_t_degree()) * max(1, algebra.nilpotency_order - 1) + 1
    ext = _parameter_extension(algebra, bound)
    z0 = _embed_path_part(path.even)
    z1 = _embed_path_part(path.odd)

    residual = _bracket_series(z0, structure, ext)
    if residual:
        return CheckReport.failed("path-mc", (), _vector(residual))

    # sum_n q_n(z1 . z0^(n-1)) / (n-1)! is the series of z0 headed by z1
    head = {(mono, (name,)): c for (mono, name), c in z1.items()}
    dt_part = _pair_sum(_t_derivative(z0), _bracket_series(z0, structure, ext, head))
    if dt_part:
        return CheckReport.failed("path-dt", (), _vector(dt_part))
    return CheckReport.passed()


def homotopy_from_gauge(result, x, dgla, algebra):
    """The homotopy z0(t) = exp(t a) . x, z1 = -a from x to exp(a) . x,
    for the witness a of an equivalent GaugeResult.

    exp(t a) . x is the gauge action over the base extended by t, with a
    scaled by t; a is nilpotent, so the path is polynomial in t.  Check it
    with verify_homotopy_witness on linfty_from_dgla(dgla).
    """
    if not isinstance(result, GaugeResult):
        raise TypeError(f"expected a GaugeResult, got {type(result).__name__}")
    if not result:
        raise ValueError("the gauge result is not an equivalence, so it has no witness")
    a = result.witness
    if not isinstance(a, ArtinVector):
        raise TypeError(f"expected an ArtinVector witness, got {type(a).__name__}")
    validate_artin_vector(x, algebra, dgla.space, degree=1)
    ext = _parameter_extension(algebra, algebra.nilpotency_order)
    a_t, x_t = _vector(_embed_path_part({1: a})), _vector(_embed_path_part({0: x}))
    flow = gauge_act(a_t, x_t, dgla, ext)
    even = {}
    for (mono, name), c in flow.coeffs.items():
        even.setdefault(mono[-1], {})[(mono[:-1], name)] = c
    return PolyPath({m: ArtinVector.from_nonzero(t) for m, t in even.items()}, {0: -a})
