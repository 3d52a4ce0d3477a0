"""Fast tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import importlib
import os
import sys
import tempfile
import types
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    ns = types.SimpleNamespace(MODULES=run.Library.MODULES)
    ns.package = importlib.import_module("defcalc")
    for name in run.Library.MODULES:
        setattr(ns, name, importlib.import_module(f"defcalc.{name}"))
    return ns


def run_and_check(jobs):
    """Run every job once; return the names whose check failed."""
    failed = []
    for job in jobs:
        try:
            job.check(job.run())
        except oracles.Mismatch:
            failed.append(job.name)
    return failed


# -- generators ----------------------------------------------------------------


def test_generators_are_deterministic_per_seed():
    a, b, c = workloads.Verify(5), workloads.Verify(5), workloads.Verify(6)
    assert a.dgla_thetas == b.dgla_thetas and a.cdga_specs == b.cdga_specs
    assert a.dgla_thetas != c.dgla_thetas
    d1, d2 = workloads.Deform(5), workloads.Deform(5)
    assert [i.solves for i in d1.instances] == [i.solves for i in d2.instances]
    assert [i.equiv for i in d1.instances] == [i.equiv for i in d2.instances]
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [os.path.join(tmp, "a"), os.path.join(tmp, "b")]
        for path in dirs:
            os.makedirs(path)
        first, second = (workloads.Cli(5, ROOT, path) for path in dirs)
        for docs1, docs2 in zip(first.instances, second.instances):
            for key, path in docs1.files.items():
                with open(path) as h1, open(docs2.files[key]) as h2:
                    assert h1.read() == h2.read(), key


def test_theta_patterns_square_to_zero(lib):
    rng = gen.rng_for("test", 0)
    for pattern in ("nilpotent", "diagonal", "central"):
        for rank, letters in ((2, 1), (3, 2), (4, 1)):
            workloads.make_pair(lib, gen.theta_spec(rng, rank, letters, pattern))


# -- every valid input passes, every corrupted one fails -------------------------


@pytest.mark.parametrize("seed", [0, 1])
def test_verify_outcomes(lib, seed):
    workload = workloads.Verify(seed)
    workload.setup(lib)
    jobs = workload.jobs()
    assert run_and_check(jobs) == []
    bad = [j for j in jobs if j.klass.endswith("-bad")]
    assert len(bad) == 3 + len(workloads.VERIFY_DGLA_BAD) + 2 + len(workloads.VERIFY_MORPHISM_BAD)
    for job in bad:
        assert not job.run().ok, job.name


@pytest.mark.parametrize("seed", [0, 1])
def test_deform_outcomes_and_known_fault(lib, seed):
    workload = workloads.Deform(seed)
    workload.setup(lib)
    jobs = workload.jobs()
    faults = [j.name for j in jobs if j.known_fault]
    assert len(faults) == len(workloads.KNOWN_GAUGE_FAULTS)
    # the gauge_equivalent reproducers still fail, and nothing else does
    assert run_and_check(jobs) == faults
    assert len(jobs) == sum(workloads.DEFORM_CLASSES.values()) + len(faults)


def test_cli_outcomes(lib):
    with tempfile.TemporaryDirectory() as tmp:
        workload = workloads.Cli(0, ROOT, tmp)
        workload.setup(lib)
        jobs = workload.jobs()
        assert len(jobs) == sum(job[4] for job in workloads.CLI_JOBS)
        assert {j.klass for j in jobs} == set(lib.cli._COMMANDS)
        assert run_and_check(jobs) == []
        workload.fixpoint_check()


# -- oracles against hand-worked values -----------------------------------------


def test_rank_and_cohomology_by_hand():
    assert oracles.rank([[1, 2], [2, 4]]) == 1
    assert oracles.rank([[0, 1], [1, 0], [1, 1]]) == 2
    basis = [("u", 0), ("v", 1), ("w", 1)]
    d = {"u": {"v": Fraction(2)}}
    # H^0 = 0, H^1 spanned by w
    oracles.check_cohomology(basis, d, {0: 0, 1: 1}, {0: [], 1: [{"w": Fraction(1)}]})
    with pytest.raises(oracles.Mismatch):
        oracles.check_cohomology(basis, d, {0: 1, 1: 2})
    with pytest.raises(oracles.Mismatch):  # v is exact, so it represents nothing
        oracles.check_cohomology(basis, d, {0: 0, 1: 1}, {1: [{"v": Fraction(1)}]})


def test_mc_residual_by_hand():
    # [e1, e1] = e2: the residual of t e1 is t^2 e2 / 2
    monos = workloads.monomials_of(("t",), 3)
    residual = oracles.mc_residual({((1,), "e1"): Fraction(1)}, {}, {("e1", "e1"): {"e2": 1}}, monos)
    assert residual == {((2,), "e2"): Fraction(1, 2)}


def test_gauge_action_by_hand():
    # gl2 (x) Lambda(l), theta = 0: exp(t E12) . t E21^l = t E21^l + t^2 (E11 - E22)^l
    brackets = {("E12", "E21^l"): {"E11^l": 1, "E22^l": -1}}
    monos = workloads.monomials_of(("t",), 3)
    image = oracles.gauge_act({((1,), "E12"): 1}, {((1,), "E21^l"): 1}, {}, brackets, monos)
    assert image == {((1,), "E21^l"): 1, ((2,), "E11^l"): 1, ((2,), "E22^l"): -1}
    # abelian with d a = x: exp(a) . 0 = -da
    assert oracles.gauge_act({((1,), "a"): 3}, {}, {"a": {"x": 1}}, {}, monos) == {((1,), "x"): -3}


def test_trace_powers_by_hand():
    # theta = l E12, y = t l E21: (theta + y)^2 = t l.l I, so tr = 2 t l.l
    theta = [[{}, {"l": 1}], [{}, {}]]
    sections = oracles.trace_powers(
        theta, {((1,), "1", 1, 0, "l"): Fraction(1)}, 2, {("1", "1"): {"1": 1}}, "1", (0,),
        workloads.monomials_of(("t",), 3), ["l"],
    )
    assert sections == [{}, {((1,), "1*l.l"): 2}]


def test_witness_defect_by_hand():
    # gl2 with [E11, E12] doubled: Jacobi at (E11, E12, E21) leaves E22 - E11
    spec = gen.corrupt_brackets(gen.gl2_spec(gen.rng_for("t", 0)), ("E11", "E12"), factor=2)
    s = spec["brackets"][("E12", "E21")]["E11"]  # the seeded scale of the bracket
    table = workloads.full_table(spec)
    degrees = dict(spec["basis"])
    defect = oracles.dgla_defect("jacobi", ("E11", "E12", "E21"), degrees, {}, table)
    assert defect == {"E11": -s * s, "E22": s * s}
    assert oracles.dgla_defect("jacobi", ("E11", "E12", "E21"), degrees, {},
                               workloads.full_table(gen.gl2_spec(gen.rng_for("t", 0)))) == {}


def test_own_tables_match_the_library(lib):
    """The benchmark's own Hitchin and End(V) differentials agree with the
    library's constructions, so checks built on them are independent."""
    rng = gen.rng_for("tables", 0)
    for kind in gen.CDGA_KINDS:
        cspec = gen.cdga_spec(kind, rng)
        for pattern in ("nilpotent", "diagonal"):
            tspec = gen.theta_spec(rng, 2, 2, pattern)
            basis, d = workloads.hitchin_tables(tspec, cspec)
            built = lib.hitchin.build_hitchin_dgla(workloads.make_pair(lib, tspec), workloads.make_cdga(lib, cspec))
            t = workloads.Tables(built)
            assert basis == t.basis and d == t.d
    cspec = gen.complex_spec(rng, (0, 1, 1, 2))
    spec = workloads.hom_spec(cspec)
    t = workloads.Tables(workloads.make_hom(lib, cspec))
    assert spec["basis"] == t.basis and spec["d"] == t.d
    assert workloads.full_table(spec) == t.pairs


# -- tracing ---------------------------------------------------------------------


def test_tracer_wraps_imported_names_and_restores(lib):
    original = lib.dgla.mc_residual
    tracer = tracing.Tracer()
    tracer.install(lib)
    try:
        assert lib.hitchin.mc_residual is lib.dgla.mc_residual is not original
        assert lib.linfty.koszul_sign is lib.graded.koszul_sign
        workload = workloads.Deform(0)
        workload.setup(lib)
        tracer.reset()
        job = workload.jobs()[0]
        job.run()
        snap = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert lib.dgla.mc_residual is original and lib.hitchin.mc_residual is original
    assert snap["mc.residual_calls"] > 0 or snap["mc.gauge_calls"] > 0
    assert all(v >= 0 for v in snap.values())
    assert len(snap) == 38
