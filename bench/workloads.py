"""The three workloads: fixed job lists over seeded inputs.

A workload is built in three steps.  Its constructor makes plain specs
from the seed (gen.py, no defcalc).  setup(lib) turns them into the
program's objects: it is the part timed as setup_s.  jobs() lists the
timed jobs; a
job's run() makes one or a few library calls on the set-up inputs and
returns the output, and its check() verifies that output against an
independent computation (oracles.py) or a property the mathematics forces.

No job reuses an object a previous run of it filled lazily: morphisms, whose
components are cached on first use, are built inside the jobs that use them.
Every library function is looked up on its module at call time, so the
tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from fractions import Fraction
from itertools import combinations

import gen
import oracles
from oracles import Mismatch, expect

ZERO = Fraction(0)


class Job:
    """One timed operation.

    known_fault marks an operation that fails on a fault the program is
    known to have; its check is expected to raise Mismatch on every run.
    prepare, when set, runs untimed before each run.
    """

    __slots__ = ("name", "klass", "run", "check", "known_fault", "prepare")

    def __init__(self, name, klass, run, check, known_fault=False, prepare=None):
        self.name = name
        self.klass = klass
        self.run = run
        self.check = check
        self.known_fault = known_fault
        self.prepare = prepare


# ---------------------------------------------------------------------------
# Specs to program objects and back to structure constants.


def make_space(lib, basis):
    return lib.graded.GradedSpace(basis)


def make_cdga(lib, spec):
    space = make_space(lib, spec["basis"])
    d = lib.graded.GradedMap(space, space, 1, spec["d"])
    return lib.dgla.Cdga(space, d, spec["products"], spec["unit"])


def make_dgla(lib, spec):
    space = make_space(lib, spec["basis"])
    d = lib.graded.GradedMap(space, space, 1, spec["d"])
    return lib.dgla.Dgla(space, d, spec["brackets"])


def make_pair(lib, tspec):
    l_space = make_space(lib, [(l, 1) for l in tspec["letters"]])
    return lib.hitchin.HitchinPair(tspec["rank"], l_space, tspec["theta"])


def make_hom(lib, cspec):
    space = make_space(lib, cspec["basis"])
    return lib.dgla.hom_dgla(space, lib.graded.GradedMap(space, space, 1, cspec["d"]))


def scaled_pair(lib, dgla, pair, factor=2):
    """A copy of dgla with one bracket entry and its mirror scaled.

    Antisymmetry still holds; the pairs used here break Jacobi, because the
    bracket table does not depend on the seed.
    """
    table = dict(dgla.brackets)
    for key in (pair, pair[::-1]):
        table[key] = table[key].scale(factor)
    return lib.dgla.Dgla(dgla.space, dgla.d, table)


class Tables:
    """Structure constants of a dgla or cdga as plain dictionaries."""

    def __init__(self, model):
        self.basis = list(model.space.basis_pairs())
        self.degrees = dict(model.space.degrees)
        self.d = {n: dict(v.coeffs) for n, v in model.d.columns.items()}
        table = model.brackets if hasattr(model, "brackets") else model.products
        self.pairs = {k: dict(v.coeffs) for k, v in table.items()}
        self.unit = getattr(model, "unit", None)


def artin_terms(vector):
    return dict(vector.terms)


def check_report_passes(report, what):
    expect(report.ok, f"{what}: valid input failed at {report.axiom} {report.witness}")


def expect_same(got, want, what):
    if got != want:
        missing = sorted(set(want.items()) - set(got.items()))[:2]
        extra = sorted(set(got.items()) - set(want.items()))[:2]
        raise Mismatch(f"{what}: missing {missing}, unexpected {extra}")


# ---------------------------------------------------------------------------
# verify: axiom and identity checkers on a scaling grid.

# The grid below is laid out by cost so that job_p50_ms falls inside the
# rank-2 check_dgla jobs (about 15 ms, repeated over seeded instances) and
# job_p90_ms inside the 70-90 ms checks; the three largest jobs stay above
# it.  (rank, letters, cdga, pattern, instances) for check_dgla:
VERIFY_DGLA = (
    (2, 1, "trivial", "nilpotent", 6),
    (2, 1, "trivial", "diagonal", 6),
    (2, 2, "trivial", "nilpotent", 1),
    (2, 2, "trivial", "diagonal", 1),
    (3, 1, "trivial", "nilpotent", 1),
    (2, 1, "interval", "nilpotent", 3),
    (2, 1, "interval", "diagonal", 3),
)
# corrupted Hitchin dglas: (rank, letters, cdga, pattern, scaled bracket pair)
VERIFY_DGLA_BAD = (
    (2, 1, "trivial", "nilpotent", ("1*E11", "1*E12")),
    (2, 2, "trivial", "diagonal", ("1*E21^l1", "1*E12")),
    (3, 1, "trivial", "nilpotent", ("1*E22", "1*E21^l1")),
    (2, 1, "interval", "diagonal", ("1*E21^l1", "1*E12")),
)
# (rank, letters, cdga, pattern, weight) for check_linfty_morphism
VERIFY_MORPHISM = (
    (2, 1, "trivial", "nilpotent", 2),
    (2, 1, "trivial", "nilpotent", 3),
    (2, 1, "trivial", "diagonal", 4),
    (2, 2, "trivial", "diagonal", 3),
    (3, 1, "trivial", "nilpotent", 2),
    (2, 1, "interval", "nilpotent", 3),
    (2, 1, "exterior", "diagonal", 2),
    (2, 1, "fatpoint", "nilpotent", 2),
    (3, 1, "interval", "diagonal", 2),
    (4, 1, "trivial", "nilpotent", 2),
)
# morphisms with the arity-2 component scaled by 2: (rank, letters, cdga, pattern, weight)
VERIFY_MORPHISM_BAD = (
    (2, 1, "trivial", "nilpotent", 3),
    (3, 1, "trivial", "diagonal", 2),
    (2, 1, "interval", "nilpotent", 2),
)
# (cdga, inner dgla, weight, corrupt) for check_codifferential on tensor dglas
VERIFY_TENSOR = (
    ("trivial", "gl2", 4, False),
    ("interval", "gl2", 3, False),
    ("exterior", "heisenberg", 3, False),
    ("fatpoint", "heisenberg", 2, False),
    ("interval", "correction", 4, False),
    ("trivial", "gl2", 3, True),
    ("interval", "gl2", 3, True),
)
# (complex degrees, with differential, weight) for endomorphism dglas
VERIFY_HOM = (
    ((0, 1), True, 4),
    ((0, 1, 2), False, 3),
    ((0, 0, 1), True, 3),
)
INNER = {"gl2": gen.gl2_spec, "heisenberg": gen.heisenberg_spec, "correction": gen.correction_spec}


class Verify:
    name = "verify"

    def __init__(self, seed):
        rng = gen.rng_for(self.name, seed)
        self.cdga_specs = {k: gen.cdga_spec(k, rng) for k in gen.CDGA_KINDS}
        self.bad_cdga_specs = {
            k: gen.cdga_spec(k, rng, corrupt=True) for k in ("interval", "exterior", "fatpoint")
        }
        self.thetas = {}
        for key in VERIFY_DGLA_BAD + VERIFY_MORPHISM + VERIFY_MORPHISM_BAD:
            rank, letters, _, pattern = key[:4]
            if (rank, letters, pattern) not in self.thetas:
                self.thetas[(rank, letters, pattern)] = gen.theta_spec(rng, rank, letters, pattern)
        # check_dgla instances each get their own field
        self.dgla_thetas = [
            (key, gen.theta_spec(rng, key[0], key[1], key[3]))
            for key in VERIFY_DGLA
            for _ in range(key[4])
        ]
        self.inner_specs = {}
        for _, inner, _, _ in VERIFY_TENSOR:
            if inner not in self.inner_specs:
                self.inner_specs[inner] = INNER[inner](rng)
        self.complex_specs = [gen.complex_spec(rng, degs, with_d) for degs, with_d, _ in VERIFY_HOM]

    def setup(self, lib):
        self.lib = lib
        self.cdgas = {k: make_cdga(lib, s) for k, s in self.cdga_specs.items()}
        self.bad_cdgas = {k: make_cdga(lib, s) for k, s in self.bad_cdga_specs.items()}
        self.pairs = {k: make_pair(lib, t) for k, t in self.thetas.items()}
        self.hitchin = [
            (key, lib.hitchin.build_hitchin_dgla(make_pair(lib, theta), self.cdgas[key[2]]))
            for key, theta in self.dgla_thetas
        ]
        self.hitchin_bad = []
        for rank, letters, cdga, pattern, pair in VERIFY_DGLA_BAD:
            valid = lib.hitchin.build_hitchin_dgla(self.pairs[(rank, letters, pattern)], self.cdgas[cdga])
            self.hitchin_bad.append(scaled_pair(lib, valid, pair))
        self.tensors = []
        bad_gl2 = gen.corrupt_brackets(self.inner_specs["gl2"], ("E11", "E12"), factor=2)
        for cdga, inner, weight, corrupt in VERIFY_TENSOR:
            spec = bad_gl2 if corrupt else self.inner_specs[inner]
            self.tensors.append(lib.dgla.tensor_cdga_dgla(self.cdgas[cdga], make_dgla(lib, spec)))
        self.homs = [make_hom(lib, c) for c in self.complex_specs]

    # -- jobs ---------------------------------------------------------------

    def jobs(self):
        out = []
        for kind, cdga in self.cdgas.items():
            out.append(self._cdga_job(f"cdga/{kind}", cdga, valid=True))
        for kind, cdga in self.bad_cdgas.items():
            out.append(self._cdga_job(f"cdga-bad/{kind}", cdga, valid=False))
        for i, (key, dgla) in enumerate(self.hitchin):
            out.append(self._dgla_job("dgla/r%d-L%d-%s-%s" % key[:4] + f"-{i}", dgla, valid=True))
        for key, dgla in zip(VERIFY_DGLA_BAD, self.hitchin_bad):
            out.append(self._dgla_job("dgla-bad/r%d-L%d-%s-%s" % key[:4], dgla, valid=False))
        for key, model in zip(VERIFY_TENSOR, self.tensors):
            cdga, inner, weight, corrupt = key
            tag = "codiff-bad" if corrupt else "codiff"
            out.append(self._codiff_job(f"{tag}/{cdga}-{inner}-w{weight}", model, weight, not corrupt))
        for key, model in zip(VERIFY_HOM, self.homs):
            degs, _, weight = key
            name = "codiff/hom-" + "".join(map(str, degs)) + f"-w{weight}"
            out.append(self._codiff_job(name, model, weight, True))
        for rank, letters, cdga, pattern, weight in VERIFY_MORPHISM:
            out.append(
                self._morphism_job(
                    f"morphism/r{rank}-L{letters}-{cdga}-{pattern}-w{weight}",
                    self.pairs[(rank, letters, pattern)], self.cdgas[cdga], weight, valid=True,
                )
            )
        for rank, letters, cdga, pattern, weight in VERIFY_MORPHISM_BAD:
            out.append(
                self._morphism_job(
                    f"morphism-bad/r{rank}-L{letters}-{cdga}-{pattern}-w{weight}",
                    self.pairs[(rank, letters, pattern)], self.cdgas[cdga], weight, valid=False,
                )
            )
        return out

    def _cdga_job(self, name, cdga, valid):
        lib = self.lib

        def run():
            return lib.dgla.check_cdga(cdga)

        def check(report):
            if valid:
                return check_report_passes(report, name)
            expect(not report.ok, f"{name}: corrupted CDGA passed")
            t = Tables(cdga)
            defect = oracles.cdga_defect(report.axiom, report.witness, t.degrees, t.d, t.pairs, t.unit)
            expect(defect, f"{name}: witness {report.witness} has no defect")
            if report.value is not None:
                expect_same(dict(report.value.coeffs), defect, f"{name}: witness value")

        return Job(name, "cdga" if valid else "cdga-bad", run, check)

    def _dgla_job(self, name, dgla, valid):
        lib = self.lib

        def run():
            return lib.dgla.check_dgla(dgla)

        def check(report):
            if valid:
                return check_report_passes(report, name)
            expect(not report.ok, f"{name}: corrupted dgla passed")
            t = Tables(dgla)
            defect = oracles.dgla_defect(report.axiom, report.witness, t.degrees, t.d, t.pairs)
            expect(defect, f"{name}: witness {report.witness} has no defect")
            expect_same(dict(report.value.coeffs), defect, f"{name}: witness value")

        return Job(name, "dgla-bad" if not valid else "dgla", run, check)

    def _codiff_job(self, name, dgla, weight, valid):
        lib = self.lib

        def run():
            structure = lib.linfty.linfty_from_dgla(dgla)
            return lib.linfty.check_codifferential(structure, weight)

        def check(report):
            if valid:
                return check_report_passes(report, name)
            expect(not report.ok, f"{name}: Jacobi-violating dgla passed")
            t = Tables(dgla)
            defect = oracles.codifferential_witness_defect(report.witness, t.degrees, t.d, t.pairs)
            expect(defect, f"{name}: witness {report.witness} shows no dgla defect")

        return Job(name, "codiff" if valid else "codiff-bad", run, check)

    def _morphism_job(self, name, pair, cdga, weight, valid):
        lib = self.lib

        def run():
            morphism = lib.hitchin.build_hitchin_morphism(pair, cdga)
            if not valid:
                morphism = self._scale_arity_two(morphism)
            return lib.linfty.check_linfty_morphism(morphism, weight)

        def check(report):
            if valid:
                return check_report_passes(report, name)
            # f2 -> 2 f2 leaves a defect -f1(q2(a.b)) at weight 2 for a wedge-0
            # letter a and wedge-1 letter b, nonzero for a non-scalar theta
            expect(not report.ok and report.axiom == "morphism", f"{name}: scaled morphism passed")
            expect(len(report.witness) >= 2 and not report.value.is_zero(), f"{name}: empty witness")

        return Job(name, "morphism" if valid else "morphism-bad", run, check)

    def _scale_arity_two(self, morphism):
        def component(arity, word):
            value = morphism.component(word)
            return value.scale(2) if arity == 2 else value

        return self.lib.linfty.LInftyMorphism(
            morphism.source, morphism.target, component,
            max_weight=morphism.max_weight, support=morphism.support,
        )


# ---------------------------------------------------------------------------
# deform: Maurer-Cartan calculus over Artin rings.


def full_table(spec):
    """A bracket table with the mirrors graded antisymmetry implies."""
    degrees = dict(spec["basis"])
    table = {k: dict(v) for k, v in spec["brackets"].items()}
    for (a, b), vec in list(table.items()):
        if (b, a) not in table:
            s = -oracles.sign(degrees[a] * degrees[b])
            table[(b, a)] = {n: s * c for n, c in vec.items()}
    return table


def monomials_of(variables, truncation):
    """All exponent tuples of total degree below truncation."""
    out = [()]
    for _ in variables:
        out = [m + (e,) for m in out for e in range(truncation)]
    return frozenset(m for m in out if sum(m) < truncation)


def gauge_model_spec(rng):
    """H^0 = 0: d a = x1, d b = x2, [a, y] = c x1, [b, y] = c' x2.

    d is injective in degree 0, so gauge witnesses are unique and the
    order-by-order search must find them.
    """
    return {
        "basis": [("a", 0), ("b", 0), ("x1", 1), ("x2", 1), ("y", 1)],
        "d": {"a": {"x1": gen.nonzero(rng)}, "b": {"x2": gen.nonzero(rng)}},
        "brackets": {("a", "y"): {"x1": gen.nonzero(rng)}, ("b", "y"): {"x2": gen.nonzero(rng)}},
    }


# Hitchin models in deform: (rank, letters, cdga, pattern).  Rank-2,
# one-letter fields scale the whole differential by one nonzero number, so
# their cocycles, lifts and obstructions have a seed-independent shape.
DEFORM_HITCHIN = {
    "h2-int-central": (2, 1, "interval", "central"),
    "h2-int-nil": (2, 1, "interval", "nilpotent"),
    "h2-int-diag": (2, 1, "interval", "diagonal"),
    "h2-triv-nil": (2, 1, "trivial", "nilpotent"),
}
ALGEBRAS = {
    "t4": (("t",), 4),
    "t5": (("t",), 5),
    "t7": (("t",), 7),
    "t9": (("t",), 9),
    "st4": (("s", "t"), 4),
    "st5": (("s", "t"), 5),
    "stu3": (("s", "t", "u"), 3),
}
# mc_solve calls: (model, algebra, seed style).  "single" seeds one cocycle
# along t and feeds its lifts to the gauge, BCH and Hitchin calls; "deep" is
# the same up to order 8 and feeds nothing; "mixed" combines cocycles along
# several variables; and a tuple of
# index pairs seeds t (r_i + r_j) for cocycles r_i, r_j of the own basis.
# For the central field the differential vanishes, so t (r_i + r_j) is
# blocked at order 2 exactly when [r_i, r_j] != 0: three of these four are.
CENTRAL_PAIRS = ((1, 6), (2, 5), (0, 5), (0, 4))
DEFORM_SOLVE = (
    ("h2-int-central", "t4", CENTRAL_PAIRS),
    ("h2-int-nil", "st4", "mixed"),
    ("h2-int-diag", "st4", "mixed"),
    ("h2-int-nil", "t7", "single"),
    ("h2-int-diag", "t9", "deep"),
    ("h2-triv-nil", "stu3", "mixed"),
    ("hom-012", "st5", "mixed"),
    ("hom-012", "t7", "single"),
    ("hom-0112", "st4", "mixed"),
    ("correction", "t9", "single"),
    ("correction", "st5", "mixed"),
    ("correction", "stu3", "mixed"),
)
# the gauge_equivalent fault: gl2 (x) Lambda(l), theta = 0; (a, x, truncation)
KNOWN_GAUGE_FAULTS = (
    ("E12", "E21^l", 3),
    ("E21", "E12^l", 3),
    ("E11", "E12^l", 4),
)


def bundle(name, klass, parts):
    """One job made of several calls on one instance, run in order."""

    def run():
        return tuple(part.run() for part in parts)

    def check(outputs):
        for part, output in zip(parts, outputs):
            part.check(output)

    return Job(name, klass, run, check)


class DeformInstance:
    """One seeded instance of every deform model, with its jobs by class."""

    def __init__(self, rng):
        self.cdga_specs = {k: gen.cdga_spec(k, rng) for k in ("trivial", "interval")}
        self.thetas = {k: gen.theta_spec(rng, r, l, p) for k, (r, l, _, p) in DEFORM_HITCHIN.items()}
        self.complexes = {
            "hom-012": gen.complex_spec(rng, (0, 1, 2), with_d=False),
            "hom-0112": gen.complex_spec(rng, (0, 1, 1, 2), with_d=True),
        }
        self.specs = {"correction": gen.correction_spec(rng), "gauge": gauge_model_spec(rng)}
        own = {k: (s["basis"], s["d"]) for k, s in self.specs.items()}
        for key, cspec in self.complexes.items():
            hom = hom_spec(cspec)
            own[key] = (hom["basis"], hom["d"])
        for key, (_, _, cdga, _) in DEFORM_HITCHIN.items():
            own[key] = hitchin_tables(self.thetas[key], self.cdga_specs[cdga])

        # directions from the benchmark's own cocycle basis, seeded scales
        self.solves = []
        for model, alg, style in DEFORM_SOLVE:
            variables = ALGEBRAS[alg][0]
            reps = oracles.kernel_basis(*own[model], 1)
            if style in ("single", "deep"):
                seeds = [gen.mixed_seed(rng, [rep], ("t",), extra=False) for rep in reps]
            elif style == "mixed":
                seeds = [gen.mixed_seed(rng, reps, variables)]
                seeds += [gen.mixed_seed(rng, [rep], variables, extra=False) for rep in reps[:2]]
            else:
                seeds = [
                    gen.mixed_seed(rng, [oracles.add(reps[i], reps[j])], ("t",), extra=False)
                    for i, j in style
                ]
            self.solves.append((model, alg, style, seeds))

        # degree-0 parameters for gauge and BCH jobs, one pair per lift
        self.params = {}
        for model, alg, style in DEFORM_SOLVE:
            names = [n for n, deg in own[model][0] if deg == 0]
            if style not in ("mixed", "deep") and names:
                monos = sorted(m for m in monomials_of(*ALGEBRAS[alg]) if sum(m))[:4]
                self.params[(model, alg)] = (
                    gen.degree0_element(rng, names, monos, 3),
                    gen.degree0_element(rng, names, monos, 2),
                )

        # gauge-equivalence pairs on the H^0 = 0 model: y = exp(a) . x
        spec = self.specs["gauge"]
        table = full_table(spec)
        self.equiv = []
        for alg in ("t7", "st4", "t5"):
            monos = sorted((m for m in monomials_of(*ALGEBRAS[alg]) if sum(m)), key=lambda m: (sum(m), m))
            x = {(monos[0], "y"): gen.nonzero(rng), (monos[-1], "x1"): gen.nonzero(rng)}
            a = gen.degree0_element(rng, ["a", "b"], monos[:3], 3)
            y = oracles.gauge_act(a, x, spec["d"], table, monomials_of(*ALGEBRAS[alg]))
            self.equiv.append((alg, x, y))

    def setup(self, lib, algebras):
        self.lib = lib
        ArtinVector = lib.artin.ArtinVector
        self.cdgas = {k: make_cdga(lib, s) for k, s in self.cdga_specs.items()}
        self.pairs = {k: make_pair(lib, self.thetas[k]) for k in DEFORM_HITCHIN}
        models = {}
        for key, (_, _, cdga, _) in DEFORM_HITCHIN.items():
            models[key] = lib.hitchin.build_hitchin_dgla(self.pairs[key], self.cdgas[cdga])
        for key, spec in self.specs.items():
            models[key] = make_dgla(lib, spec)
        for key, cspec in self.complexes.items():
            models[key] = make_hom(lib, cspec)
        self.models = models
        self.algebras = algebras
        self.directions = [
            (model, alg, [ArtinVector(s) for s in seeds]) for model, alg, _, seeds in self.solves
        ]

        # lifts and primary obstructions of the single-variable seeds feed
        # the other jobs; a seed c t r lifts like t r with t -> c t, so
        # their number does not depend on the seed
        self.lifts, self.obstructions = [], []
        for (model, alg, style, _), (_, _, directions) in zip(self.solves, self.directions):
            if style in ("mixed", "deep"):
                continue
            result = lib.dgla.mc_solve(models[model], self.algebras[alg], directions)
            self.lifts += [(model, alg, x) for x in result.solutions if x is not None][:2]
            if model in DEFORM_HITCHIN:
                self.obstructions += [(model, e.cocycle) for e in result.primary_obstructions()]
        expect(len(self.obstructions) == 3, "the central field should block three seeds")

        self.equiv_inputs = [
            (self.algebras[alg], models["gauge"], ArtinVector(x), ArtinVector(y))
            for alg, x, y in self.equiv
        ]

    # -- calls by job class -----------------------------------------------------

    def calls(self):
        """The instance's calls, grouped into the deform job classes."""
        ArtinVector = self.lib.artin.ArtinVector
        out = {"solve": [], "gauge": [], "bch": [], "hitchin": []}
        for i, (model, alg, directions) in enumerate(self.directions):
            out["solve"].append(self._solve_job(f"{model}-{alg}-{i}", model, alg, directions))
        seen = set()
        for i, (model, alg, x) in enumerate(self.lifts):
            if (model, alg) in self.params:
                a, b = (ArtinVector(p) for p in self.params[(model, alg)])
                out["gauge"].append(self._gauge_job(f"{model}-{alg}-{i}", model, alg, x, a))
                if model not in seen:  # one BCH product per model
                    seen.add(model)
                    out["bch"].append(self._bch_job(f"{model}-{alg}-{i}", model, alg, x, a, b))
        for i, (algebra, dgla, x, y) in enumerate(self.equiv_inputs):
            out["gauge"].append(self._equiv_job(f"equiv-{i}", algebra, dgla, x, y, False))
        for i, (model, alg, x) in enumerate(self.lifts):
            if model in DEFORM_HITCHIN:
                out["hitchin"].append(self._push_job(f"push-{model}-{alg}-{i}", model, alg, x))
                out["hitchin"].append(self._map_job(f"map-{model}-{alg}-{i}", model, alg, x))
        for i, (model, cocycle) in enumerate(self.obstructions):
            out["hitchin"].append(self._kernel_job(f"kernel-{model}-{i}", model, cocycle))
        return out

    def _solve_job(self, name, model, alg, directions):
        lib = self.lib
        dgla, algebra = self.models[model], self.algebras[alg]

        def run():
            return lib.dgla.mc_solve(dgla, algebra, directions)

        def check(result):
            t, monos = Tables(self.models[model]), algebra.monomials
            image = [
                [t.d.get(s, {}).get(n, ZERO) for n, deg in t.basis if deg == 2]
                for s, deg in t.basis if deg == 1
            ]
            base_rank = oracles.rank(image)
            for event in result.events:
                cocycle = dict(event.cocycle.coeffs)
                expect(not oracles.apply_linear(t.d, cocycle), f"{name}: event is no cocycle")
                col = [cocycle.get(n, ZERO) for n, deg in t.basis if deg == 2]
                exact = oracles.rank(image + [col]) == base_rank
                expect(exact == event.vanishes(), f"{name}: class of event at order {event.order}")
            for idx, (seed, x) in enumerate(zip(directions, result.solutions)):
                blocked = any(not e.vanishes() for e in result.events if e.direction == idx)
                expect((x is None) == blocked, f"{name}: lift present iff not blocked")
                if x is None:
                    continue
                oracles.check_mc(artin_terms(x), t.d, t.pairs, monos, f"{name}: lift")
                linear = {k: c for k, c in x.terms.items() if sum(k[0]) == 1}
                seed_linear = {k: c for k, c in seed.terms.items() if sum(k[0]) == 1}
                expect(linear == seed_linear, f"{name}: lift changed the tangent direction")

        return Job(name, "solve", run, check)

    def _gauge_job(self, name, model, alg, x, a):
        lib = self.lib
        dgla, algebra = self.models[model], self.algebras[alg]

        def run():
            return lib.dgla.gauge_act(a, x, dgla, algebra)

        def check(image):
            t, monos = Tables(self.models[model]), algebra.monomials
            want = oracles.gauge_act(artin_terms(a), artin_terms(x), t.d, t.pairs, monos)
            expect_same(artin_terms(image), want, f"{name}: gauge image")
            oracles.check_mc(want, t.d, t.pairs, monos, f"{name}: gauge image")

        return Job(name, "gauge", run, check)

    def _bch_job(self, name, model, alg, x, a, b):
        lib = self.lib
        dgla, algebra = self.models[model], self.algebras[alg]

        def run():
            return lib.dgla.bch_product(a, b, dgla, algebra)

        def check(ab):
            t, monos = Tables(self.models[model]), algebra.monomials
            act = lambda g, v: oracles.gauge_act(g, v, t.d, t.pairs, monos)
            x_terms = artin_terms(x)
            composed = act(artin_terms(a), act(artin_terms(b), x_terms))
            expect_same(act(artin_terms(ab), x_terms), composed, f"{name}: exp(a*b) . x")

        return Job(name, "bch", run, check)

    def _equiv_job(self, name, algebra, dgla, x, y, fault):
        lib = self.lib

        def run():
            return lib.dgla.gauge_equivalent(x, y, dgla, algebra)

        def check(result):
            # y = exp(a) . x by construction, so the pair is equivalent
            t = Tables(dgla)
            expect(result.equivalent, f"{name}: gauge-equivalent pair reported inequivalent "
                   f"at order {result.order}")
            got = oracles.gauge_act(artin_terms(result.witness), artin_terms(x), t.d, t.pairs,
                                    algebra.monomials)
            expect_same(got, artin_terms(y), f"{name}: witness does not carry x to y")

        return Job(name, "fault" if fault else "equiv", run, check, known_fault=fault)

    def _hitchin_oracle(self, model, alg, x):
        rank_, letters, cdga_kind, _ = DEFORM_HITCHIN[model]
        cdga = self.cdgas[cdga_kind]
        algebra = self.algebras[alg]
        deformation = {}
        for (mono, name), c in x.terms.items():
            a_name, _, matrix = name.partition("*")
            if matrix.count("^") != 1:
                continue
            unit, letter = matrix.split("^")
            deformation[(mono, a_name, int(unit[1]) - 1, int(unit[2]) - 1, letter)] = c
        products = {k: dict(v.coeffs) for k, v in cdga.products.items()}
        return oracles.trace_powers(
            self.thetas[model]["theta"], deformation, rank_, products, cdga.unit,
            algebra.unit, algebra.monomials, self.thetas[model]["letters"],
        )

    def _push_job(self, name, model, alg, x):
        lib = self.lib
        pair, cdga = self.pairs[model], self.cdgas[DEFORM_HITCHIN[model][2]]
        algebra = self.algebras[alg]

        def run():
            morphism = lib.hitchin.build_hitchin_morphism(pair, cdga)
            return lib.linfty.pushforward_mc(morphism, x, algebra)

        def check(image):
            # by polarization the pushforward is the sum of the trace powers
            want = {}
            for section in self._hitchin_oracle(model, alg, x):
                want.update(section)
            expect_same(artin_terms(image), want, f"{name}: pushforward")

        return Job(name, "push", run, check)

    def _map_job(self, name, model, alg, x):
        lib = self.lib
        pair, cdga = self.pairs[model], self.cdgas[DEFORM_HITCHIN[model][2]]
        algebra = self.algebras[alg]

        def run():
            morphism = lib.hitchin.build_hitchin_morphism(pair, cdga)
            return lib.hitchin.hitchin_map(x, morphism, algebra)

        def check(sections):
            want = self._hitchin_oracle(model, alg, x)
            expect(len(sections) == len(want), f"{name}: {len(sections)} sections")
            for k, (got, exp_) in enumerate(zip(sections, want)):
                expect_same(artin_terms(got), exp_, f"{name}: trace power {k + 1}")

        return Job(name, "map", run, check)

    def _kernel_job(self, name, model, cocycle):
        lib = self.lib
        pair, cdga = self.pairs[model], self.cdgas[DEFORM_HITCHIN[model][2]]

        def run():
            morphism = lib.hitchin.build_hitchin_morphism(pair, cdga)
            return lib.hitchin.obstruction_kernel_map(cocycle, morphism)

        def check(coords):
            # the class is nonzero, so the statement is not checked vacuously
            t = Tables(self.models[model])
            names = [n for n, deg in t.basis if deg == 2]
            image = [[t.d.get(s, {}).get(n, ZERO) for n in names] for s, deg in t.basis if deg == 1]
            col = [cocycle[n] for n in names]
            expect(oracles.rank(image + [col]) > oracles.rank(image), f"{name}: obstruction is exact")
            expect(all(c == 0 for c in coords), f"{name}: obstruction class maps to {coords}")

        return Job(name, "kernel", run, check)


# Jobs of each class per pass.  A job is the class's calls on one instance;
# instances share shapes and differ in seeded values, so the jobs of a class
# cost about the same and job_p50_ms (solve) and job_p90_ms (bch) each fall
# inside one class rather than between two.
DEFORM_CLASSES = {"gauge": 12, "solve": 12, "hitchin": 6, "bch": 9}


class Deform:
    name = "deform"

    def __init__(self, seed):
        count = max(DEFORM_CLASSES.values())
        self.instances = [
            DeformInstance(gen.rng_for(f"{self.name}/{i}", seed)) for i in range(count)
        ]

    def setup(self, lib):
        self.lib = lib
        algebras = {k: lib.artin.make_artin(*v) for k, v in ALGEBRAS.items()}
        for instance in self.instances:
            instance.setup(lib, algebras)
        ArtinVector = lib.artin.ArtinVector
        l_space = make_space(lib, [("l", 1)])
        self.fault_model = lib.hitchin.matrix_wedge_dgla(2, l_space, [[{}, {}], [{}, {}]])
        self.faults = []
        for a_name, x_name, n in KNOWN_GAUGE_FAULTS:
            algebra = lib.artin.make_artin(("t",), n)
            x = ArtinVector.single((1,), x_name)
            y = lib.dgla.gauge_act(ArtinVector.single((1,), a_name), x, self.fault_model, algebra)
            self.faults.append((f"{a_name}.{x_name}", algebra, x, y))

    def jobs(self):
        out = []
        calls = [instance.calls() for instance in self.instances]
        for klass, count in DEFORM_CLASSES.items():
            for i in range(count):
                out.append(bundle(f"{klass}/{i}", klass, calls[i][klass]))
        host = self.instances[0]
        for name, algebra, x, y in self.faults:
            out.append(host._equiv_job(f"fault/{name}", algebra, self.fault_model, x, y, True))
        return out


# ---------------------------------------------------------------------------
# cli: every command through defcalc.cli.main(argv), with --report.


def frac(c):
    return str(Fraction(c))


def dgla_document(spec):
    return {
        "kind": "dgla",
        "basis": [{"name": n, "degree": d} for n, d in spec["basis"]],
        "differential": [
            {"from": s, "to": t, "coeff": frac(c)} for s, col in spec["d"].items() for t, c in col.items()
        ],
        "bracket": [
            {"a": a, "b": b, "out": o, "coeff": frac(c)}
            for (a, b), vec in spec["brackets"].items() for o, c in vec.items()
        ],
    }


def cdga_document(spec):
    return {
        "kind": "cdga",
        "basis": [{"name": n, "degree": d} for n, d in spec["basis"]],
        "differential": [
            {"from": s, "to": t, "coeff": frac(c)} for s, col in spec["d"].items() for t, c in col.items()
        ],
        "product": [
            {"a": a, "b": b, "out": o, "coeff": frac(c)}
            for (a, b), vec in spec["products"].items() for o, c in vec.items()
        ],
        "unit": spec["unit"],
    }


def pair_document(tspec):
    letters = tspec["letters"]
    return {
        "kind": "hitchin-pair",
        "rank": tspec["rank"],
        "l_basis": [{"name": l, "degree": 1} for l in letters],
        "theta": [[[frac(e.get(l, 0)) for l in letters] for e in row] for row in tspec["theta"]],
    }


def element_document(variables, truncation, terms):
    return {
        "kind": "mc-element",
        "algebra": {"variables": list(variables), "truncation": truncation},
        "terms": [
            {"monomial": list(m), "name": n, "coeff": frac(c)} for (m, n), c in sorted(terms.items())
        ],
    }


def hitchin_tables(tspec, cdga_spec_):
    """Basis and differential of A (x) gl_r (x) Lambda L, computed here.

    d(a (x) E_ij^h) = d_A a (x) E_ij^h + (-1)^|a| a (x) sum_l [theta_l, E_ij] ^ l ^ h
    """
    rank_, letters, theta = tspec["rank"], tspec["letters"], tspec["theta"]
    pos = {l: p for p, l in enumerate(letters)}
    inner = []
    for q in range(len(letters) + 1):
        for combo in combinations(letters, q):
            for i in range(rank_):
                for j in range(rank_):
                    inner.append((i, j, combo))
    suffix = lambda combo: "".join("^" + l for l in combo)
    mname = lambda i, j, combo: f"E{i + 1}{j + 1}{suffix(combo)}"
    cdeg = dict(cdga_spec_["basis"])
    basis = [(f"{a}*{mname(i, j, h)}", cdeg[a] + len(h)) for a, _ in cdga_spec_["basis"] for i, j, h in inner]
    d = {}
    for a, adeg in cdga_spec_["basis"]:
        for i, j, h in inner:
            col = {}
            for b, c in cdga_spec_["d"].get(a, {}).items():
                oracles.accumulate(col, f"{b}*{mname(i, j, h)}", c)
            for l in letters:
                if l in h:
                    continue
                word = sorted((l,) + h, key=pos.get)
                s = oracles.sign(word.index(l))  # move l from the front into place
                s *= oracles.sign(adeg)
                for p in range(rank_):
                    c = theta[p][i].get(l, 0)
                    if c:
                        oracles.accumulate(col, f"{a}*{mname(p, j, tuple(word))}", s * c)
                for q in range(rank_):
                    c = theta[j][q].get(l, 0)
                    if c:
                        oracles.accumulate(col, f"{a}*{mname(i, q, tuple(word))}", -s * c)
            if col:
                d[f"{a}*{mname(i, j, h)}"] = col
    return basis, d


def hom_spec(cspec):
    """End(V) of a complex, written out as a dgla spec by the benchmark.

    E[w, v] sends v to w; [f, g] = f g - (-1)^(|f||g|) g f and
    d f = d_V f - (-1)^|f| f d_V.
    """
    names = [n for n, _ in cspec["basis"]]
    deg = dict(cspec["basis"])
    e = lambda w, v: f"E[{w},{v}]"
    basis = [(e(w, v), deg[w] - deg[v]) for w in names for v in names]
    bdeg = dict(basis)
    brackets = {}
    for w, v in ((w, v) for w in names for v in names):
        for y, x in ((y, x) for y in names for x in names):
            out = {}
            if v == y:
                oracles.accumulate(out, e(w, x), Fraction(1))
            if x == w:
                s = oracles.sign(bdeg[e(w, v)] * bdeg[e(y, x)])
                oracles.accumulate(out, e(y, v), Fraction(-s))
            if out:
                brackets[(e(w, v), e(y, x))] = out
    d = {}
    for w, v in ((w, v) for w in names for v in names):
        col = {}
        for w2, c in cspec["d"].get(w, {}).items():
            oracles.accumulate(col, e(w2, v), c)
        s = oracles.sign(bdeg[e(w, v)])
        for src, image in cspec["d"].items():
            if v in image:
                oracles.accumulate(col, e(w, src), -s * image[v])
        if col:
            d[e(w, v)] = col
    return {"basis": basis, "d": d, "brackets": brackets}


class CliDocs:
    """One seeded instance of the generated CLI documents."""

    def __init__(self, rng, workdir, tag):
        self.workdir = workdir
        self.tag = tag
        self.files = {}
        self.cdga_specs = {k: gen.cdga_spec(k, rng) for k in gen.CDGA_KINDS}
        self.dgla_specs = {
            "hom-012": hom_spec(gen.complex_spec(rng, (0, 1, 2), with_d=False)),
            "hom-0112": hom_spec(gen.complex_spec(rng, (0, 1, 1, 2), with_d=True)),
            "correction": gen.correction_spec(rng),
            "heisenberg": gen.heisenberg_spec(rng),
            "gauge": gauge_model_spec(rng),
            "gl2-bad": gen.corrupt_brackets(gen.gl2_spec(rng), ("E11", "E12"), factor=2),
        }
        self.thetas = {
            "r2-nil": gen.theta_spec(rng, 2, 1, "nilpotent"),
            "r2-diag": gen.theta_spec(rng, 2, 1, "diagonal"),
            "r2L2-diag": gen.theta_spec(rng, 2, 2, "diagonal"),
            "r3-nil": gen.theta_spec(rng, 3, 1, "nilpotent"),
            # a central field gives d = 0: every letter is a class, so the
            # cohomology and obstruction reports run to several kilobytes
            "r2L2-central": gen.theta_spec(rng, 2, 2, "central"),
            "r3L2-central": gen.theta_spec(rng, 3, 2, "central"),
        }
        for key, spec in self.dgla_specs.items():
            self.write(f"dgla/{key}", dgla_document(spec))
        for key, spec in self.cdga_specs.items():
            self.write(f"cdga/{key}", cdga_document(spec))
        for key, tspec in self.thetas.items():
            self.write(f"pair/{key}", pair_document(tspec))
        # wedge-degree-one letters with the unit form are closed and square
        # to zero when L has one letter, so these are Maurer-Cartan
        self.elements = {}
        for key in ("r2-nil", "r2-diag", "r3-nil"):
            rank_ = self.thetas[key]["rank"]
            terms = {}
            for k, mono in enumerate(((1,), (2,), (1,), (3,))):
                i, j = k % rank_, (k + 1) % rank_
                oracles.accumulate(terms, (mono, f"1*E{i + 1}{j + 1}^l1"), gen.nonzero(rng))
            self.elements[key] = terms
            self.write(f"mc/{key}", element_document(("t",), 4, terms))
        # gauge pairs on the H^0 = 0 model: y = exp(a) . x, by the oracle
        g = self.dgla_specs["gauge"]
        x = {((1,), "y"): gen.nonzero(rng), ((2,), "x1"): gen.nonzero(rng)}
        a = {((1,), "a"): gen.nonzero(rng), ((2,), "b"): gen.nonzero(rng), ((1,), "b"): gen.nonzero(rng)}
        y = oracles.gauge_act(a, x, g["d"], full_table(g), monomials_of(("t",), 5))
        self.write("mc/gauge-x", element_document(("t",), 5, x))
        self.write("mc/gauge-y", element_document(("t",), 5, y))
        self.write("mc/gauge-2x", element_document(("t",), 5, {k: 2 * c for k, c in x.items()}))

    def write(self, key, document):
        path = os.path.join(self.workdir, f"{self.tag}-{key.replace('/', '-')}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
        self.files[key] = path


# (command, inputs, options, exit code, instances).  Keys "sample/..." are
# the shipped files; other keys name an instance's generated documents.
# Small documents, where parsing and emitting dominate, are repeated over
# six instances so that job_p50_ms falls among them.  The largest jobs run
# on three to five instances, so that job_p90_ms falls among the
# hitchin-verify reports, with five End(V) checks and two cohomologies
# above them.
CLI_JOBS = (
    ("check-dgla", ["sample/dgla_obstructed"], [], 0, 1),
    ("check-dgla", ["sample/dgla_contractible"], [], 0, 1),
    ("check-linfty", ["sample/linfty_obstructed"], ["--weight", "3"], 0, 1),
    ("cohomology", ["sample/dgla_obstructed"], [], 0, 1),
    ("mc-solve", ["sample/dgla_obstructed"], ["--order", "3"], 0, 1),
    ("mc-solve", ["sample/hitchin_r2_zero"], ["--order", "3"], 0, 1),
    ("gauge-equiv", ["sample/dgla_contractible", "sample/mc_flow_x", "sample/mc_flow_y"], [], 0, 1),
    ("check-dgla", ["dgla/heisenberg"], [], 0, 6),
    ("check-dgla", ["dgla/gl2-bad"], [], 1, 6),
    ("check-linfty", ["dgla/gl2-bad"], ["--weight", "3"], 1, 6),
    ("check-linfty", ["dgla/heisenberg"], ["--weight", "2"], 0, 6),
    ("cohomology", ["cdga/fatpoint"], [], 0, 6),
    ("cohomology", ["cdga/exterior"], [], 0, 6),
    ("cohomology", ["dgla/correction"], [], 0, 6),
    ("gauge-equiv", ["dgla/gauge", "mc/gauge-x", "mc/gauge-2x"], [], 1, 6),
    ("mc-solve", ["dgla/correction"], ["--order", "6"], 0, 3),
    ("gauge-equiv", ["dgla/gauge", "mc/gauge-x", "mc/gauge-y"], [], 0, 3),
    ("check-morphism", ["sample/hitchin_r2_nilpotent"], ["--weight", "3"], 0, 1),
    ("check-morphism", ["pair/r2-diag", "cdga/interval"], ["--weight", "2"], 0, 1),
    ("check-morphism", ["pair/r3-nil"], ["--weight", "2"], 0, 1),
    ("check-linfty", ["dgla/correction"], ["--weight", "4"], 0, 1),
    ("check-linfty", ["dgla/hom-012"], ["--weight", "3"], 0, 1),
    ("cohomology", ["dgla/hom-0112"], [], 0, 1),
    ("cohomology", ["pair/r2L2-diag", "cdga/interval"], [], 0, 1),
    ("mc-solve", ["pair/r2-nil", "cdga/interval"], ["--order", "4"], 0, 1),
    ("hitchin-build", ["pair/r2-nil"], [], 0, 1),
    ("hitchin-verify", ["pair/r2-nil"], ["--weight", "3"], 0, 1),
    ("pushforward", ["pair/r2-nil", "mc/r2-nil"], [], 0, 1),
    ("pushforward", ["pair/r3-nil", "mc/r3-nil"], [], 0, 1),
    ("hitchin-map", ["pair/r2-diag", "mc/r2-diag", "cdga/interval"], [], 0, 1),
    ("hitchin-map", ["pair/r3-nil", "mc/r3-nil"], [], 0, 1),
    ("obstruction", ["pair/r2-nil", "cdga/interval"], ["--order", "3"], 0, 1),
    ("obstruction", ["pair/r2-diag", "cdga/interval"], ["--order", "4"], 0, 1),
    ("obstruction", ["pair/r2L2-central", "cdga/interval"], ["--order", "3"], 0, 1),
    ("cohomology", ["pair/r3L2-central", "cdga/interval"], [], 0, 1),
    ("hitchin-verify", ["sample/hitchin_r2_nilpotent", "sample/cdga_interval"], ["--weight", "2"], 0, 1),
    ("hitchin-verify", ["pair/r2-nil", "cdga/interval"], ["--weight", "2"], 0, 3),
    ("check-dgla", ["dgla/hom-0112"], [], 0, 5),
    ("hitchin-build", ["pair/r2-diag", "cdga/interval"], [], 0, 3),
    ("check-morphism", ["pair/r2-nil", "cdga/interval"], ["--weight", "3"], 0, 3),
    ("cohomology", ["pair/r3-nil", "cdga/exterior"], [], 0, 2),
)
CLI_INSTANCES = max(job[4] for job in CLI_JOBS)
# the shipped cdga_interval.json is the interval model
SAMPLE_CDGA = {"sample/cdga_interval": "interval"}


class Cli:
    name = "cli"

    def __init__(self, seed, root, workdir):
        self.workdir = workdir
        samples = os.path.join(root, "sample_inputs")
        self.samples = {
            "sample/" + f[:-5]: os.path.join(samples, f)
            for f in sorted(os.listdir(samples)) if f.endswith(".json")
        }
        self.instances = [
            CliDocs(gen.rng_for(f"{self.name}/{i}", seed), workdir, f"i{i}")
            for i in range(CLI_INSTANCES)
        ]

    def path(self, docs, key):
        return self.samples[key] if key.startswith("sample/") else docs.files[key]

    def setup(self, lib):
        """The program's side of set-up: parse and validate every input."""
        self.lib = lib
        paths = list(self.samples.values())
        paths += [p for docs in self.instances for p in docs.files.values()]
        self.parsed = {path: lib.cli.parse_document(path) for path in paths}

    def jobs(self):
        out = []
        for command, inputs, options, code, count in CLI_JOBS:
            for i in range(count):
                docs = self.instances[i]
                n = len(out)
                label = "+".join(k.split("/")[-1] for k in inputs) + "".join(options[1:])
                report = os.path.join(self.workdir, f"report-{n}.json")
                argv = [command] + [self.path(docs, k) for k in inputs] + options + ["--report", report]
                out.append(self._job(f"{command}/{label}/{i}", command, argv, report, inputs,
                                     options, code, docs))
        return out

    def _job(self, name, command, argv, report_path, inputs, options, want_code, docs):
        lib = self.lib

        def run():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = lib.cli.main(list(argv))
            return code, stdout.getvalue(), stderr.getvalue()

        def check(output):
            code, text, err = output
            expect(code == want_code, f"{name}: exit {code}, expected {want_code}: {err.strip()}")
            with open(report_path, encoding="utf-8") as handle:
                expect(text == handle.read(), f"{name}: stdout differs from the --report file")
            report = json.loads(text)
            expect(report["command"] == command, f"{name}: wrong command echoed")
            expect(report["status"] == ("pass" if want_code == 0 else "fail"), f"{name}: status")
            Content(self, docs, name, inputs, options).check(command, report)

        def prepare():
            # ext4 flushes a file that is truncated and rewritten when it is
            # closed; every call writes a new file, as a user's first call does
            if os.path.exists(report_path):
                os.remove(report_path)

        return Job(name, command, run, check, prepare=prepare)

    def fixpoint_check(self):
        """emit(parse(x)) is a fixpoint on every input document."""
        cli = self.lib.cli
        path = os.path.join(self.workdir, "fixpoint.json")
        for source, doc in self.parsed.items():
            text = cli.emit_document(doc)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            again = cli.emit_document(cli.parse_document(path))
            expect(again == text, f"{source}: emit(parse(x)) is not a fixpoint")


class Content:
    """Checks of one CLI report's content against the benchmark's oracles."""

    def __init__(self, cli, docs, name, inputs, options):
        self.cli, self.docs, self.name = cli, docs, name
        self.inputs, self.options = inputs, options
        self.lib = cli.lib

    def parsed(self, index):
        return self.cli.parsed[self.cli.path(self.docs, self.inputs[index])]

    def check(self, command, report):
        name = self.name
        if "checks" in report:
            for entry in report["checks"]:
                if not entry["ok"]:
                    self.check_witness(command, entry)
        if command == "hitchin-build":
            dims = self.pair_dims()
            expect(report["dimension"] == sum(dims.values()), f"{name}: dimension")
            expect({int(k): v for k, v in report["degrees"].items()} == dims, f"{name}: degrees")
        if command == "cohomology":
            basis, d = self.complex_of()
            dims = {int(k): v for k, v in report["cohomology"]["dimensions"].items()}
            reps = {
                int(k): [{n: Fraction(c) for n, c in rep.items()} for rep in v]
                for k, v in report["cohomology"]["representatives"].items()
            }
            oracles.check_cohomology(basis, d, dims, reps)
        if command in ("mc-solve", "obstruction"):
            self.check_solver(command, report)
        if command == "gauge-equiv":
            if report["equivalent"]:
                t = Tables(self.parsed(0).kernel)
                algebra, x = self.parsed(1).kernel
                _, y = self.parsed(2).kernel
                w = element_terms(report["witness"])
                got = oracles.gauge_act(w, artin_terms(x), t.d, t.pairs, algebra.monomials)
                expect_same(got, artin_terms(y), f"{name}: witness does not carry x to y")
            else:
                # x and 2x differ at first order by a cocycle that is not exact
                expect(report["failure"]["order"] == 1, f"{name}: failure order")
        if command in ("pushforward", "hitchin-map"):
            sections = self.trace_oracle()
            if command == "hitchin-map":
                for k, want in enumerate(sections):
                    got = element_terms(report["sections"][str(k + 1)])
                    expect_same(got, want, f"{name}: trace power {k + 1}")
            else:
                want = {}
                for section in sections:
                    want.update(section)
                expect_same(element_terms(report["image"]), want, f"{name}: pushforward")

    def check_witness(self, command, entry):
        name = self.name
        t = Tables(self.parsed(0).kernel)
        witness = tuple(entry["witness"])
        if command == "check-dgla":
            defect = oracles.dgla_defect(entry["axiom"], witness, t.degrees, t.d, t.pairs)
            expect(defect, f"{name}: witness has no defect")
            expect_same(defect, {k: Fraction(v) for k, v in entry["value"].items()},
                        f"{name}: witness value")
        elif command == "check-linfty":
            defect = oracles.codifferential_witness_defect(witness, t.degrees, t.d, t.pairs)
            expect(defect, f"{name}: witness shows no dgla defect")
        else:
            raise Mismatch(f"{name}: a valid input failed {entry['axiom']}")

    def check_solver(self, command, report):
        name = self.name
        doc = self.parsed(0)
        if doc.kind == "dgla":
            dgla = doc.kernel
        else:
            cdga = self.parsed(1).kernel if len(self.inputs) > 1 else self.lib.dgla.trivial_cdga()
            dgla = self.lib.hitchin.build_hitchin_dgla(doc.kernel, cdga)
        t = Tables(dgla)
        monos = monomials_of(("t",), int(self.options[1]) if self.options else 3)
        solver = report["solver"]
        exact = oracles.rank([
            [t.d.get(s, {}).get(n, ZERO) for n, deg in t.basis if deg == 1]
            for s, deg in t.basis if deg == 0
        ])
        tangent = len(oracles.kernel_basis(t.basis, t.d, 1)) - exact
        expect(solver["tangent_dimension"] == tangent, f"{name}: tangent dimension")
        for sol in solver["solutions"]:
            if sol is not None:
                oracles.check_mc(element_terms(sol), t.d, t.pairs, monos, f"{name}: lift")
        if command == "obstruction":
            expect(report["all_in_kernel"], f"{name}: an obstruction left the kernel")
            for entry in report["obstruction_classes"]:
                expect(any(Fraction(c) for c in entry["class"]), f"{name}: zero primary class")

    def cdga_spec(self, index):
        if len(self.inputs) <= index:
            return self.docs.cdga_specs["trivial"]
        key = self.inputs[index]
        return self.docs.cdga_specs[SAMPLE_CDGA.get(key, key[5:])]

    def theta(self):
        key = self.inputs[0]
        if key.startswith("pair/"):
            return self.docs.thetas[key[5:]]
        with open(self.cli.samples[key], encoding="utf-8") as handle:
            doc = json.load(handle)
        letters = [e["name"] for e in doc["l_basis"]]
        theta = [
            [{l: Fraction(c) for l, c in zip(letters, entry) if Fraction(c)} for entry in row]
            for row in doc["theta"]
        ]
        return {"rank": doc["rank"], "letters": letters, "theta": theta}

    def pair_dims(self):
        tspec, cspec = self.theta(), self.cdga_spec(1)
        dims = {}
        for _, adeg in cspec["basis"]:
            for q in range(len(tspec["letters"]) + 1):
                count = tspec["rank"] ** 2 * len(list(combinations(tspec["letters"], q)))
                dims[adeg + q] = dims.get(adeg + q, 0) + count
        return dims

    def complex_of(self):
        key = self.inputs[0]
        if key.startswith("pair/") or key.startswith("sample/hitchin"):
            return hitchin_tables(self.theta(), self.cdga_spec(1))
        if key.startswith("cdga/"):
            spec = self.docs.cdga_specs[key[5:]]
            return spec["basis"], spec["d"]
        if key.startswith("dgla/"):
            spec = self.docs.dgla_specs[key[5:]]
            return spec["basis"], spec["d"]
        t = Tables(self.parsed(0).kernel)
        return t.basis, t.d

    def trace_oracle(self):
        tspec, cspec = self.theta(), self.cdga_spec(2)
        deformation = {}
        for (mono, name), c in self.docs.elements[self.inputs[1][3:]].items():
            a_name, _, matrix = name.partition("*")
            unit, letter = matrix.split("^")
            deformation[(mono, a_name, int(unit[1]) - 1, int(unit[2]) - 1, letter)] = c
        products = {k: dict(v.coeffs) for k, v in make_cdga(self.lib, cspec).products.items()}
        return oracles.trace_powers(
            tspec["theta"], deformation, tspec["rank"], products, cspec["unit"], (0,),
            monomials_of(("t",), 4), tspec["letters"],
        )


def element_terms(entries):
    return {(tuple(e["monomial"]), e["name"]): Fraction(e["coeff"]) for e in entries}


WORKLOADS = {"verify": Verify, "deform": Deform, "cli": Cli}
