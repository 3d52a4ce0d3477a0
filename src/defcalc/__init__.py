"""Exact deformation calculus on finite-dimensional graded models.

Everything is computed exactly over the rationals; there are no floats and
no tolerances anywhere.  Whole values may be Python ints inside a kernel
loop and every series over m_A, linfty's included, runs on int
(numerator, denominator) pairs, but every public vector, witness and
report value is a fractions.Fraction, and every division has a Fraction
operand or is an exact // of ints.  The layers, bottom up:

graded   signed multilinear algebra: graded spaces, the one sparse
         vector arithmetic (accumulate, and the base GradedVector and
         ArtinVector share), bilinear extension, the one signed merge
         behind Koszul signs, exterior and canonical words, cochain
         cohomology with class projection and lift from one solve per
         degree, built when first read (its transform on the first lift).
linalg   the one exact row reduction, rref, fraction-free on integer rows;
         the kernel and prepared-solve routines read its output.
artin    finite-dimensional local base rings (truncated polynomial style)
         and elements of m (x) V, keyed vectors on graded's arithmetic,
         and the int-pair kernels (add and drop zeros, sum, map by a column
         function, bracket) every series over m_A runs on.
dgla     differential graded Lie and commutative algebras, their axiom
         checkers (degrees included), the tensor construction and one
         construction of matrices over an exterior algebra twisted by a
         degree-1 element (End(V, d) over Q, gl_r (x) Lambda L with
         [theta, -]), whose bracket tables are built when first read,
         the bracket on L (x) m_A grouped by name, and on artin's pair
         kernels Maurer-Cartan residuals, gauge action, BCH, and one
         per-monomial cohomology lift behind order-by-order solving (obstruction
         classes in H^2 from order-k residuals) and gauge equivalence
         (order-k differences in H^1).
linfty   the same homotopical data as coderivations of the reduced
         symmetric coalgebra: codifferential and morphism checks through a
         chosen weight, which build the defect from the bracket tables and
         report the failing word's table-built value, its names in basis
         order; basis words read off the letter combinations in canonical
         order, not re-sorted; graded's merge behind every sign of a
         product of words, the morphism's weight-j parts included, which
         recurse on the block of the first letter; and one nilpotent power
         series on artin's pair kernels behind the Maurer-Cartan residual,
         the pushforward of Maurer-Cartan elements and homotopies over a
         polynomial-in-t extension of the base, where a gauge witness a
         gives the homotopy exp(t a) . x.
hitchin  the matrix-valued models: a square matrix of anticommuting
         one-letter forms with theta ^ theta = 0, its dgla from dgla's
         matrix construction, the family of trace maps into an abelian
         target (one sparse matrix product, behind the theta ^ theta check
         and the powers of theta; one closed-form trace of matrix-unit
         words), the Hitchin map as the pushforward along that morphism
         split by Sym power, and the obstruction-kernel consequence; the
         morphism's L-infinity tables are built when first read.
cli      batch front end over JSON documents with deterministic reports.
"""

from .artin import (
    ArtinAlgebra,
    ArtinVector,
    make_artin,
    validate_artin_vector,
)
from .dgla import (
    Cdga,
    CheckReport,
    Dgla,
    GaugeResult,
    McSolveResult,
    ObstructionEvent,
    bch_product,
    bracket_artin,
    check_cdga,
    check_dgla,
    gauge_act,
    gauge_equivalent,
    hom_dgla,
    is_mc,
    mc_residual,
    mc_solve,
    tensor_cdga_dgla,
    trivial_cdga,
)
from .graded import (
    GradedMap,
    GradedSpace,
    GradedVector,
    CohomologySummary,
    NotAComplexError,
    complex_cohomology,
    koszul_sign,
)
from .hitchin import (
    HiggsFieldError,
    HitchinPair,
    build_hitchin_dgla,
    build_hitchin_morphism,
    complex_C_cohomology,
    g_coefficient,
    hitchin_map,
    hitchin_target,
    matrix_wedge_dgla,
    obstruction_kernel_map,
)
from .linfty import (
    LInftyMorphism,
    LInftyStructure,
    PolyPath,
    check_codifferential,
    check_linfty_morphism,
    coderivation_extend,
    homotopy_from_gauge,
    linfty_from_dgla,
    linfty_mc_residual,
    morphism_extend,
    pushforward_mc,
    verify_homotopy_witness,
)

__version__ = "0.1.0"

__all__ = [
    "ArtinAlgebra",
    "ArtinVector",
    "Cdga",
    "CheckReport",
    "CohomologySummary",
    "Dgla",
    "GaugeResult",
    "GradedMap",
    "GradedSpace",
    "GradedVector",
    "HiggsFieldError",
    "HitchinPair",
    "LInftyMorphism",
    "LInftyStructure",
    "McSolveResult",
    "NotAComplexError",
    "ObstructionEvent",
    "PolyPath",
    "bch_product",
    "bracket_artin",
    "build_hitchin_dgla",
    "build_hitchin_morphism",
    "check_cdga",
    "check_codifferential",
    "check_dgla",
    "check_linfty_morphism",
    "coderivation_extend",
    "complex_C_cohomology",
    "complex_cohomology",
    "g_coefficient",
    "gauge_act",
    "gauge_equivalent",
    "hitchin_map",
    "hitchin_target",
    "hom_dgla",
    "homotopy_from_gauge",
    "is_mc",
    "koszul_sign",
    "linfty_from_dgla",
    "linfty_mc_residual",
    "make_artin",
    "matrix_wedge_dgla",
    "mc_residual",
    "mc_solve",
    "morphism_extend",
    "obstruction_kernel_map",
    "pushforward_mc",
    "tensor_cdga_dgla",
    "trivial_cdga",
    "validate_artin_vector",
    "verify_homotopy_witness",
]
