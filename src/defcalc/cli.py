"""Batch front end: parse model files, run checks and solvers, emit reports.

Documents are JSON with a "kind" tag (cdga, dgla, linfty, hitchin-pair,
artin, mc-element); every rational is a string like "3/4" so nothing is
ever read as a float.  Reports are JSON with sorted keys and fully
deterministic content: identical inputs and options give byte-identical
bytes.  Exit codes: 0 all checks passed, 1 some check failed (the report
carries the witnesses), 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .artin import (
    ArtinAlgebra,
    ArtinVector,
    make_artin,
    monomial_key,
    validate_artin_vector,
)
from .dgla import (
    Cdga,
    CheckReport,
    Dgla,
    check_cdga,
    check_dgla,
    gauge_equivalent,
    mc_solve,
    trivial_cdga,
)
from .graded import GradedMap, GradedSpace, GradedVector, complex_cohomology
from .hitchin import (
    HiggsFieldError,
    HitchinPair,
    build_hitchin_dgla,
    build_hitchin_morphism,
    complex_C_cohomology,
    hitchin_map,
    obstruction_kernel_map,
)
from .linfty import (
    LInftyStructure,
    check_codifferential,
    check_linfty_morphism,
    linfty_from_dgla,
    pushforward_mc,
)


class CliError(Exception):
    """User-facing input problem; maps to exit code 2."""


def _fraction(value, where):
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise CliError(f"{where}: rational values must be strings or integers")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"{where}: bad rational {value!r} ({exc})") from exc


def _frac_str(value):
    return str(Fraction(value))


def _require(data, key, where, kind=None):
    if key not in data:
        raise CliError(f"{where}: missing field {key!r}")
    value = data[key]
    if kind is not None and type(value) is not kind:  # exact: true is not an int
        raise CliError(f"{where}: field {key!r} has the wrong type")
    return value


def _monomial(value, variables, where):
    """Exponent tuple: one non-negative JSON integer per variable."""
    if not isinstance(value, list) or len(value) != len(variables):
        raise CliError(f"{where}: wrong exponent count")
    if any(type(e) is not int or e < 0 for e in value):
        raise CliError(f"{where}: exponents must be non-negative integers")
    return tuple(value)


def _parse_basis(data, where, key="basis"):
    entries = _require(data, key, where, list)
    pairs = []
    for pos, entry in enumerate(entries):
        name = _require(entry, "name", f"{where}.{key}[{pos}]", str)
        degree = _require(entry, "degree", f"{where}.{key}[{pos}]", int)
        pairs.append((name, degree))
    try:
        return GradedSpace(pairs)
    except ValueError as exc:
        raise CliError(f"{where}: {exc}") from exc


def _parse_differential(data, space, where):
    columns = {}
    for pos, entry in enumerate(data.get("differential", [])):
        label = f"{where}.differential[{pos}]"
        src = _require(entry, "from", label, str)
        dst = _require(entry, "to", label, str)
        coeff = _fraction(_require(entry, "coeff", label), label)
        if src not in space or dst not in space:
            raise CliError(f"{label}: unknown basis name")
        columns.setdefault(src, {})[dst] = columns.get(src, {}).get(dst, 0) + coeff
    try:
        return GradedMap(space, space, 1, columns)
    except ValueError as exc:
        raise CliError(f"{where}: differential: {exc}") from exc


def _emit_differential(gmap, space):
    out = []
    for src in space.names:
        for dst, coeff in gmap.column(src).coeffs.items():
            out.append({"from": src, "to": dst, "coeff": _frac_str(coeff)})
    out.sort(key=lambda e: (e["from"], e["to"]))
    return out


def _parse_pair_table(data, space, where, key):
    table = {}
    for pos, entry in enumerate(data.get(key, [])):
        label = f"{where}.{key}[{pos}]"
        a = _require(entry, "a", label, str)
        b = _require(entry, "b", label, str)
        out = _require(entry, "out", label, str)
        coeff = _fraction(_require(entry, "coeff", label), label)
        for name in (a, b, out):
            if name not in space:
                raise CliError(f"{label}: unknown basis name {name!r}")
        cell = table.setdefault((a, b), {})
        cell[out] = cell.get(out, 0) + coeff
    return table


def _emit_pair_table(table, key):
    out = []
    for (a, b), vec in table.items():
        coeffs = vec.coeffs if isinstance(vec, GradedVector) else vec
        for name, coeff in coeffs.items():
            out.append({"a": a, "b": b, "out": name, "coeff": _frac_str(coeff)})
    out.sort(key=lambda e: (e["a"], e["b"], e["out"]))
    return out


class Document:
    """A parsed input file: its kind, normalized payload, kernel object."""

    def __init__(self, kind, data, kernel):
        self.kind = kind
        self.data = data
        self.kernel = kernel


def _parse_dgla(data, where):
    space = _parse_basis(data, where)
    differential = _parse_differential(data, space, where)
    brackets = _parse_pair_table(data, space, where, "bracket")
    kernel = Dgla(space, differential, brackets)
    normalized = {
        "kind": "dgla",
        "basis": [{"name": n, "degree": d} for n, d in space.basis_pairs()],
        "differential": _emit_differential(kernel.d, space),
        "bracket": _emit_pair_table(kernel.brackets, "bracket"),
    }
    return Document("dgla", normalized, kernel)


def _parse_cdga(data, where):
    space = _parse_basis(data, where)
    differential = _parse_differential(data, space, where)
    products = _parse_pair_table(data, space, where, "product")
    unit = _require(data, "unit", where, str)
    try:
        kernel = Cdga(space, differential, products, unit)
    except ValueError as exc:
        raise CliError(f"{where}: {exc}") from exc
    normalized = {
        "kind": "cdga",
        "basis": [{"name": n, "degree": d} for n, d in space.basis_pairs()],
        "differential": _emit_differential(kernel.d, space),
        "product": _emit_pair_table(kernel.products, "product"),
        "unit": unit,
    }
    return Document("cdga", normalized, kernel)


def _parse_linfty(data, where):
    space = _parse_basis(data, where)
    brackets = {}
    for pos, entry in enumerate(data.get("brackets", [])):
        label = f"{where}.brackets[{pos}]"
        arity = _require(entry, "arity", label, int)
        word = tuple(_require(entry, "word", label, list))
        out = _require(entry, "out", label, str)
        coeff = _fraction(_require(entry, "coeff", label), label)
        for name in word + (out,):
            if name not in space:
                raise CliError(f"{label}: unknown basis name {name!r}")
        cell = brackets.setdefault(arity, {}).setdefault(word, {})
        cell[out] = cell.get(out, 0) + coeff
    try:
        kernel = LInftyStructure(space, brackets)
    except ValueError as exc:
        raise CliError(f"{where}: {exc}") from exc
    bracket_list = []
    for arity in sorted(kernel.brackets):
        for word in sorted(kernel.brackets[arity]):
            for out, coeff in kernel.brackets[arity][word].coeffs.items():
                bracket_list.append(
                    {
                        "arity": arity,
                        "word": list(word),
                        "out": out,
                        "coeff": _frac_str(coeff),
                    }
                )
    bracket_list.sort(key=lambda e: (e["arity"], e["word"], e["out"]))
    normalized = {
        "kind": "linfty",
        "basis": [{"name": n, "degree": d} for n, d in space.basis_pairs()],
        "brackets": bracket_list,
    }
    return Document("linfty", normalized, kernel)


def _parse_hitchin_pair(data, where):
    rank = _require(data, "rank", where, int)
    l_space = _parse_basis(data, where, key="l_basis")
    theta_rows = _require(data, "theta", where, list)
    if len(theta_rows) != rank:
        raise CliError(f"{where}: theta must have {rank} rows")
    theta = []
    for i, row in enumerate(theta_rows):
        if not isinstance(row, list) or len(row) != rank:
            raise CliError(f"{where}: theta row {i} must have {rank} entries")
        new_row = []
        for j, entry in enumerate(row):
            label = f"{where}.theta[{i}][{j}]"
            if not isinstance(entry, list) or len(entry) != len(l_space.names):
                raise CliError(
                    f"{label}: expected {len(l_space.names)} coefficients"
                )
            vec = {
                name: _fraction(c, label)
                for name, c in zip(l_space.names, entry)
            }
            new_row.append(vec)
        theta.append(new_row)
    try:
        kernel = HitchinPair(rank, l_space, theta)
    except HiggsFieldError as exc:
        raise CliError(f"{where}: invalid Higgs field: {exc}") from exc
    except ValueError as exc:
        raise CliError(f"{where}: {exc}") from exc
    normalized = {
        "kind": "hitchin-pair",
        "rank": rank,
        "l_basis": [{"name": n, "degree": d} for n, d in l_space.basis_pairs()],
        "theta": [
            [
                [_frac_str(kernel.theta[i][j][name]) for name in l_space.names]
                for j in range(rank)
            ]
            for i in range(rank)
        ],
    }
    return Document("hitchin-pair", normalized, kernel)


def _parse_artin_payload(data, where):
    variables = tuple(_require(data, "variables", where, list))
    for v in variables:
        if not isinstance(v, str):
            raise CliError(f"{where}: variable names must be strings")
    if "truncation" in data:
        truncation = _require(data, "truncation", where, int)
        try:
            kernel = make_artin(variables, truncation)
        except ValueError as exc:
            raise CliError(f"{where}: {exc}") from exc
        normalized = {"variables": list(variables), "truncation": truncation}
        return normalized, kernel
    monomials = _require(data, "monomials", where, list)
    monos = set()
    for pos, mono in enumerate(monomials):
        monos.add(_monomial(mono, variables, f"{where}.monomials[{pos}]"))
    try:
        kernel = ArtinAlgebra(variables, monos)
    except ValueError as exc:
        raise CliError(f"{where}: {exc}") from exc
    normalized = {
        "variables": list(variables),
        "monomials": [list(m) for m in sorted(kernel.monomials, key=monomial_key)],
    }
    return normalized, kernel


def _parse_artin(data, where):
    normalized, kernel = _parse_artin_payload(data, where)
    normalized = {"kind": "artin", **normalized}
    return Document("artin", normalized, kernel)


def _parse_mc_element(data, where):
    algebra_data = _require(data, "algebra", where, dict)
    algebra_norm, algebra = _parse_artin_payload(algebra_data, f"{where}.algebra")
    terms = {}
    for pos, entry in enumerate(data.get("terms", [])):
        label = f"{where}.terms[{pos}]"
        mono = _monomial(_require(entry, "monomial", label), algebra.variables, label)
        name = _require(entry, "name", label, str)
        coeff = _fraction(_require(entry, "coeff", label), label)
        if mono not in algebra.monomials or mono == algebra.unit:
            raise CliError(f"{label}: monomial outside the maximal ideal")
        terms[(mono, name)] = terms.get((mono, name), 0) + coeff
    kernel = ArtinVector({k: v for k, v in terms.items() if v != 0})
    normalized = {
        "kind": "mc-element",
        "algebra": algebra_norm,
        "terms": [
            {"monomial": list(mono), "name": name, "coeff": _frac_str(c)}
            for (mono, name), c in sorted(kernel.terms.items())
        ],
    }
    return Document("mc-element", normalized, (algebra, kernel))


_PARSERS = {
    "dgla": _parse_dgla,
    "cdga": _parse_cdga,
    "linfty": _parse_linfty,
    "hitchin-pair": _parse_hitchin_pair,
    "artin": _parse_artin,
    "mc-element": _parse_mc_element,
}


def parse_document(path):
    """Load and validate one document; construction invariants run here."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise CliError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(
            f"{path}: parse error at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise CliError(f"{path}: top level must be an object")
    kind = _require(raw, "kind", path, str)
    parser = _PARSERS.get(kind)
    if parser is None:
        raise CliError(f"{path}: unknown kind {kind!r}")
    try:
        return parser(raw, path)
    except CliError:
        raise
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def emit_document(document):
    """Canonical text form; parsing it again gives an equal kernel."""
    return json.dumps(document.data, indent=2, sort_keys=True) + "\n"


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, GradedVector):
        return {name: str(c) for name, c in sorted(value.coeffs.items())}
    if isinstance(value, ArtinVector):
        return [
            {"monomial": list(mono), "name": name, "coeff": str(c)}
            for (mono, name), c in sorted(value.terms.items())
        ]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _check_entry(name, report):
    entry = {"name": name, "ok": bool(report.ok)}
    if not report.ok:
        entry["axiom"] = report.axiom
        entry["witness"] = _jsonable(report.witness)
        entry["value"] = _jsonable(report.value)
    return entry


def _expect(document, kinds, role):
    if document.kind not in kinds:
        raise CliError(
            f"{role} must have kind {' or '.join(kinds)}, got {document.kind!r}"
        )
    return document


def _load_cdga(args, index):
    if len(args.files) > index:
        doc = _expect(parse_document(args.files[index]), ("cdga",), "the CDGA file")
        return doc.kernel
    return trivial_cdga()


def _base_report(args, command):
    options = {}
    for key in ("weight", "order", "seed"):
        if hasattr(args, key):
            options[key] = getattr(args, key)
    return {"command": command, "inputs": list(args.files), "options": options}


def _cohomology_payload(summary):
    dims = {str(d): summary.dimension(d) for d in summary.degrees()}
    reps = {
        str(d): [_jsonable(rep) for rep in summary.representatives(d)]
        for d in summary.degrees()
    }
    return {"dimensions": dims, "representatives": reps}


def _cmd_check_dgla(args):
    doc = _expect(parse_document(args.files[0]), ("dgla",), "the input")
    report = _base_report(args, "check-dgla")
    result = check_dgla(doc.kernel)
    report["checks"] = [_check_entry("dgla-axioms", result)]
    return report, 0 if result.ok else 1


def _cmd_check_linfty(args):
    doc = _expect(parse_document(args.files[0]), ("linfty", "dgla"), "the input")
    structure = (
        doc.kernel if doc.kind == "linfty" else linfty_from_dgla(doc.kernel)
    )
    result = check_codifferential(structure, args.weight)
    report = _base_report(args, "check-linfty")
    report["checks"] = [_check_entry("codifferential", result)]
    return report, 0 if result.ok else 1


def _build_morphism(args):
    doc = _expect(parse_document(args.files[0]), ("hitchin-pair",), "the input")
    cdga = _load_cdga(args, 1)
    return doc.kernel, cdga, build_hitchin_morphism(doc.kernel, cdga)


def _cmd_check_morphism(args):
    _, _, morphism = _build_morphism(args)
    result = check_linfty_morphism(morphism, args.weight)
    report = _base_report(args, "check-morphism")
    report["checks"] = [_check_entry("morphism-identity", result)]
    return report, 0 if result.ok else 1


def _cmd_cohomology(args):
    doc = parse_document(args.files[0])
    report = _base_report(args, "cohomology")
    if doc.kind == "hitchin-pair":
        summary = complex_C_cohomology(doc.kernel, _load_cdga(args, 1))
    elif doc.kind in ("dgla", "cdga"):
        summary = complex_cohomology(doc.kernel.space, doc.kernel.d)
    else:
        raise CliError("cohomology expects a dgla, cdga, or hitchin-pair file")
    report["cohomology"] = _cohomology_payload(summary)
    return report, 0


def _solver_payload(result):
    events = [
        {
            "direction": e.direction,
            "order": e.order,
            "monomial": list(e.monomial),
            "class": [str(c) for c in e.coords],
            "cocycle": _jsonable(e.cocycle),
        }
        for e in result.events
    ]
    solutions = [
        None if x is None else _jsonable(x) for x in result.solutions
    ]
    return {
        "tangent_dimension": result.tangent_dimension(),
        "directions": [_jsonable(x) for x in result.directions],
        "events": events,
        "solutions": solutions,
        "obstructed": result.obstructed_directions(),
    }


def _mc_solve_target(args):
    doc = parse_document(args.files[0])
    if doc.kind == "dgla":
        return doc.kernel
    if doc.kind == "hitchin-pair":
        return build_hitchin_dgla(doc.kernel, _load_cdga(args, 1))
    raise CliError("mc-solve expects a dgla or hitchin-pair file")


def _cmd_mc_solve(args):
    dgla = _mc_solve_target(args)
    algebra = make_artin(("t",), args.order)
    result = mc_solve(dgla, algebra)
    report = _base_report(args, "mc-solve")
    report["solver"] = _solver_payload(result)
    return report, 0


def _cmd_gauge_equiv(args):
    doc = _expect(parse_document(args.files[0]), ("dgla",), "the first input")
    xdoc = _expect(parse_document(args.files[1]), ("mc-element",), "the second input")
    ydoc = _expect(parse_document(args.files[2]), ("mc-element",), "the third input")
    algebra, x = xdoc.kernel
    algebra_y, y = ydoc.kernel
    if algebra != algebra_y:
        raise CliError("the two elements live over different algebras")
    for vec in (x, y):
        try:
            validate_artin_vector(vec, algebra, doc.kernel.space, degree=1)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    try:
        result = gauge_equivalent(x, y, doc.kernel, algebra)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    report = _base_report(args, "gauge-equiv")
    if result.equivalent:
        report["equivalent"] = True
        report["witness"] = _jsonable(result.witness)
        return report, 0
    report["equivalent"] = False
    report["failure"] = {
        "order": result.order,
        "monomial": list(result.monomial),
        "residual": _jsonable(result.residual),
    }
    return report, 1


def _cmd_hitchin_build(args):
    doc = _expect(parse_document(args.files[0]), ("hitchin-pair",), "the input")
    cdga = _load_cdga(args, 1)
    dgla = build_hitchin_dgla(doc.kernel, cdga)
    result = check_dgla(dgla)
    report = _base_report(args, "hitchin-build")
    report["dimension"] = len(dgla.space.names)
    report["degrees"] = {
        str(d): len(dgla.space.names_of_degree(d))
        for d in sorted(dgla.space.degrees_present())
    }
    report["checks"] = [_check_entry("dgla-axioms", result)]
    return report, 0 if result.ok else 1


def _cmd_hitchin_verify(args):
    pair, cdga, morphism = _build_morphism(args)
    checks = [
        _check_entry("cdga-axioms", check_cdga(cdga)),
        _check_entry("dgla-axioms", check_dgla(morphism.source_dgla)),
        _check_entry(
            "morphism-identity", check_linfty_morphism(morphism, args.weight)
        ),
    ]
    report = _base_report(args, "hitchin-verify")
    report["checks"] = checks
    return report, 0 if all(c["ok"] for c in checks) else 1


def _load_mc_input(args, morphism):
    doc = _expect(parse_document(args.files[1]), ("mc-element",), "the element file")
    algebra, x = doc.kernel
    try:
        validate_artin_vector(
            x, algebra, morphism.source_dgla.space, degree=1
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return algebra, x


def _cmd_pushforward(args):
    doc = _expect(parse_document(args.files[0]), ("hitchin-pair",), "the input")
    cdga = _load_cdga(args, 2)
    morphism = build_hitchin_morphism(doc.kernel, cdga)
    algebra, x = _load_mc_input(args, morphism)
    try:
        image = pushforward_mc(morphism, x, algebra)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    report = _base_report(args, "pushforward")
    report["image"] = _jsonable(image)
    return report, 0


def _cmd_hitchin_map(args):
    doc = _expect(parse_document(args.files[0]), ("hitchin-pair",), "the input")
    cdga = _load_cdga(args, 2)
    morphism = build_hitchin_morphism(doc.kernel, cdga)
    algebra, x = _load_mc_input(args, morphism)
    try:
        sections = hitchin_map(x, morphism, algebra)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    report = _base_report(args, "hitchin-map")
    report["sections"] = {
        str(k + 1): _jsonable(section) for k, section in enumerate(sections)
    }
    return report, 0


def _cmd_obstruction(args):
    doc = _expect(parse_document(args.files[0]), ("hitchin-pair",), "the input")
    cdga = _load_cdga(args, 1)
    morphism = build_hitchin_morphism(doc.kernel, cdga)
    target = morphism.target_dgla
    target_cohomology = complex_cohomology(target.space, target.d)
    algebra = make_artin(("t",), args.order)
    result = mc_solve(morphism.source_dgla, algebra)
    entries = []
    for event in result.primary_obstructions():
        coords = obstruction_kernel_map(
            event.cocycle, morphism, target_cohomology
        )
        entries.append(
            {
                "direction": event.direction,
                "order": event.order,
                "monomial": list(event.monomial),
                "class": [str(c) for c in event.coords],
                "kernel_image": [str(c) for c in coords],
            }
        )
    report = _base_report(args, "obstruction")
    report["solver"] = _solver_payload(result)
    report["obstruction_classes"] = entries
    report["all_in_kernel"] = all(
        all(c == "0" for c in e["kernel_image"]) for e in entries
    )
    return report, 0


_COMMANDS = {
    "check-dgla": (_cmd_check_dgla, 1, 1),
    "check-linfty": (_cmd_check_linfty, 1, 1),
    "check-morphism": (_cmd_check_morphism, 1, 2),
    "cohomology": (_cmd_cohomology, 1, 2),
    "mc-solve": (_cmd_mc_solve, 1, 2),
    "gauge-equiv": (_cmd_gauge_equiv, 3, 3),
    "hitchin-build": (_cmd_hitchin_build, 1, 2),
    "hitchin-verify": (_cmd_hitchin_verify, 1, 2),
    "pushforward": (_cmd_pushforward, 2, 3),
    "hitchin-map": (_cmd_hitchin_map, 2, 3),
    "obstruction": (_cmd_obstruction, 1, 2),
}


# Least value of each option (Q[t]/(t^1) has no maximal ideal; weight 0 checks
# nothing), and the commands that read it; other commands only echo it.
_OPTION_MINIMUM = {
    "order": (2, ("mc-solve", "obstruction")),
    "weight": (1, ("check-linfty", "check-morphism", "hitchin-verify")),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="defcalc",
        description="Exact deformation calculus on finite graded models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, min_files, max_files) in _COMMANDS.items():
        cmd = sub.add_parser(name)
        if min_files == max_files:
            cmd.add_argument("files", nargs=min_files)
        else:
            cmd.add_argument("files", nargs="+")
        cmd.add_argument(
            "--weight", type=int, default=4,
            help="weight bound for coalgebra checks (default 4)",
        )
        cmd.add_argument(
            "--order", type=int, default=3,
            help="truncation order of the solver base (default 3)",
        )
        cmd.add_argument(
            "--report", default=None, help="write the JSON report to this path"
        )
        cmd.add_argument(
            "--seed", type=int, default=0,
            help="echoed in the report; commands are deterministic",
        )
    return parser


def run_command(command, args):
    """Dispatch one parsed invocation; returns (report dict, exit code)."""
    handler, min_files, max_files = _COMMANDS[command]
    if not (min_files <= len(args.files) <= max_files):
        raise CliError(
            f"{command} takes between {min_files} and {max_files} files"
        )
    for option, (least, readers) in _OPTION_MINIMUM.items():
        if command in readers and getattr(args, option) < least:
            raise CliError(f"{command}: --{option} must be at least {least}")
    return handler(args)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = run_command(args.command, args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault in defcalc itself, not a failed check
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    report["status"] = "pass" if code == 0 else "fail"
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
