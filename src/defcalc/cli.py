"""Batch front end: parse model files, run checks and solvers, emit reports.

Documents are JSON with a "kind" tag (cdga, dgla, linfty, hitchin-pair,
artin, mc-element); every rational is a string like "3/4" so nothing is
ever read as a float.  Reports are JSON with sorted keys and fully
deterministic content: identical inputs and options give byte-identical
bytes.  Exit codes: 0 all checks passed, 1 some check failed (the report
carries the witnesses), 2 rejected input (a document's shape, an option's
range, or any ValueError the library raises on it), 3 a fault in defcalc
itself.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .artin import ArtinAlgebra, ArtinVector, make_artin, monomial_key
from .dgla import (
    Cdga,
    Dgla,
    check_cdga,
    check_dgla,
    gauge_equivalent,
    mc_solve,
    trivial_cdga,
)
from .graded import (
    GradedMap,
    GradedSpace,
    GradedVector,
    as_fraction,
    complex_cohomology,
)
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


class CliError(ValueError):
    """User-facing input problem; main maps every ValueError to exit code 2."""


# Leaf shapes: the exact JSON types a leaf may have (true is not an int, 1.0
# is not an int) and the message when it has another.
_RATIONAL, _EXPONENT = "rational", "exponent"
_LEAVES = {
    str: ((str,), "expected a string"),
    int: ((int,), "expected an integer"),
    _RATIONAL: ((str, int), "rational values must be strings or integers"),
    _EXPONENT: ((int,), "exponents must be non-negative integers"),
}

_BASIS = [{"name": str, "degree": int}]
_DIFFERENTIAL = [{"from": str, "to": str, "coeff": _RATIONAL}]
_PAIR_TABLE = [{"a": str, "b": str, "out": str, "coeff": _RATIONAL}]
_ALGEBRA = {"variables": [str], "truncation?": int, "monomials?": [[_EXPONENT]]}

# Shape of each document kind: field -> shape, where a shape is a leaf, [shape]
# for a list of it, or a dict for an object; "?" marks an optional field.
# Fields not listed are ignored.
_SHAPES = {
    "dgla": {"basis": _BASIS, "differential?": _DIFFERENTIAL, "bracket?": _PAIR_TABLE},
    "cdga": {
        "basis": _BASIS,
        "differential?": _DIFFERENTIAL,
        "product?": _PAIR_TABLE,
        "unit": str,
    },
    "linfty": {
        "basis": _BASIS,
        "brackets?": [{"arity": int, "word": [str], "out": str, "coeff": _RATIONAL}],
    },
    "hitchin-pair": {"rank": int, "l_basis": _BASIS, "theta": [[[_RATIONAL]]]},
    "artin": _ALGEBRA,
    "mc-element": {
        "algebra": _ALGEBRA,
        "terms?": [{"monomial": [_EXPONENT], "name": str, "coeff": _RATIONAL}],
    },
}


def _shape_error(value, shape):
    """(path below value, message) where value breaks the shape, or None."""
    if type(shape) is dict:
        if type(value) is not dict:
            return "", "expected an object"
        for key, sub in shape.items():
            field = key.rstrip("?")
            if field not in value:
                if field == key:
                    return "", f"missing field {field!r}"
            elif error := _shape_error(value[field], sub):
                return f".{field}{error[0]}", error[1]
    elif type(shape) is list:
        if type(value) is not list:
            return "", "expected a list"
        for pos, item in enumerate(value):
            if error := _shape_error(item, shape[0]):
                return f"[{pos}]{error[0]}", error[1]
    else:
        types, message = _LEAVES[shape]
        if type(value) not in types or (shape is _EXPONENT and value < 0):
            return "", message
    return None


def _check_shape(value, shape, where):
    """Raise CliError unless the JSON value has the shape (see _SHAPES)."""
    error = _shape_error(value, shape)
    if error:
        raise CliError(f"{where}{error[0]}: {error[1]}")


def _fraction(value, where, key, *positions):
    """A rational leaf read by graded.as_fraction.  A bad one raises with its
    JSON path, where.key[position]..., which is formatted only then."""
    try:
        return as_fraction(value)
    except ValueError as exc:
        label = f"{where}.{key}" + "".join(f"[{p}]" for p in positions)
        raise CliError(f"{label}: bad rational {value!r} ({exc})") from exc


def _frac_str(value):
    """The text of one coefficient, which must be a Fraction or an int.

    Anything else, a float or a bool above all, is a fault in defcalc and
    raises TypeError rather than being written as "4.0" or expanded.
    """
    if isinstance(value, (Fraction, int)) and not isinstance(value, bool):
        return str(value)
    raise TypeError(f"coefficient {value!r} is a {type(value).__name__}, not a rational")


def _read_sparse(data, key, where, fields, unknown):
    """Sum the "coeff" of each entry of data[key] under its other fields.

    Returns {tuple of the fields' values: coefficient} in first-seen order,
    zero sums kept; a list value (a word, a monomial) becomes a tuple.
    unknown(values) is a message for an entry naming something that does
    not exist, or None.  A key's first coefficient is stored as read.
    """
    table = {}
    for pos, entry in enumerate(data.get(key, ())):
        values = tuple(
            tuple(entry[f]) if type(entry[f]) is list else entry[f] for f in fields
        )
        message = unknown(values)
        if message:
            raise CliError(f"{where}.{key}[{pos}]: {message}")
        c = _fraction(entry["coeff"], where, key, pos)
        table[values] = table[values] + c if values in table else c
    return table


def _unknown_name(space, names):
    for name in names:
        if name not in space:
            return f"unknown basis name {name!r}"
    return None


def _parse_basis(entries):
    return GradedSpace([(e["name"], e["degree"]) for e in entries])


def _basis_list(space):
    return [{"name": n, "degree": d} for n, d in space.basis_pairs()]


def _emit_differential(gmap, space):
    out = []
    for src in space.names:
        for dst, coeff in gmap.column(src).coeffs.items():
            out.append({"from": src, "to": dst, "coeff": _frac_str(coeff)})
    out.sort(key=lambda e: (e["from"], e["to"]))
    return out


def _emit_pair_table(table):
    out = []
    for (a, b), vec in table.items():
        for name, coeff in vec.coeffs.items():
            out.append({"a": a, "b": b, "out": name, "coeff": _frac_str(coeff)})
    out.sort(key=lambda e: (e["a"], e["b"], e["out"]))
    return out


class Document:
    """A parsed input file: its kind, its kernel object and normal_form, a
    function of no arguments that builds the normalized payload from the
    kernel.  Only emit_document calls it, so a command never pays for it."""

    def __init__(self, kind, kernel, normal_form):
        self.kind = kind
        self.kernel = kernel
        self.normal_form = normal_form


def _parse_dgla_or_cdga(data, where):
    """A dgla (its "bracket" table) or a cdga (its "product" table and unit)."""
    kind = data["kind"]
    key = "bracket" if kind == "dgla" else "product"
    space = _parse_basis(data["basis"])

    def unknown(names):
        return _unknown_name(space, names)

    columns, table = {}, {}
    entries = _read_sparse(data, "differential", where, ("from", "to"), unknown)
    for (src, dst), c in entries.items():
        columns.setdefault(src, {})[dst] = c
    differential = GradedMap(space, space, 1, columns)
    for (a, b, out), c in _read_sparse(data, key, where, ("a", "b", "out"), unknown).items():
        table.setdefault((a, b), {})[out] = c
    if kind == "dgla":
        kernel = Dgla(space, differential, table)
    else:
        kernel = Cdga(space, differential, table, data["unit"])

    def normal_form():
        normalized = {
            "kind": kind,
            "basis": _basis_list(space),
            "differential": _emit_differential(differential, space),
        }
        if kind == "dgla":
            normalized["bracket"] = _emit_pair_table(kernel.brackets)
        else:
            normalized.update(product=_emit_pair_table(kernel.products), unit=kernel.unit)
        return normalized

    return Document(kind, kernel, normal_form)


def _parse_linfty(data, where):
    space = _parse_basis(data["basis"])
    entries = _read_sparse(
        data, "brackets", where, ("arity", "word", "out"),
        lambda values: _unknown_name(space, values[1] + (values[2],)),
    )
    brackets = {}
    for (arity, word, out), c in entries.items():
        brackets.setdefault(arity, {}).setdefault(word, {})[out] = c
    kernel = LInftyStructure(space, brackets)

    def normal_form():
        bracket_list = sorted(
            (
                {"arity": arity, "word": list(word), "out": out, "coeff": _frac_str(coeff)}
                for arity, values in kernel.brackets.items()
                for word, vec in values.items()
                for out, coeff in vec.coeffs.items()
            ),
            key=lambda e: (e["arity"], e["word"], e["out"]),
        )
        return {"kind": "linfty", "basis": _basis_list(space), "brackets": bracket_list}

    return Document("linfty", kernel, normal_form)


def _parse_hitchin_pair(data, where):
    rank = data["rank"]
    l_space = _parse_basis(data["l_basis"])
    rows = data["theta"]
    if len(rows) != rank:
        raise CliError(f"{where}: theta must have {rank} rows")
    theta = []
    for i, row in enumerate(rows):
        if len(row) != rank:
            raise CliError(f"{where}: theta row {i} must have {rank} entries")
        new_row = []
        for j, entry in enumerate(row):
            if len(entry) != len(l_space.names):
                raise CliError(
                    f"{where}.theta[{i}][{j}]: expected {len(l_space.names)} coefficients"
                )
            new_row.append(
                {n: _fraction(c, where, "theta", i, j) for n, c in zip(l_space.names, entry)}
            )
        theta.append(new_row)
    try:
        kernel = HitchinPair(rank, l_space, theta)
    except HiggsFieldError as exc:
        raise CliError(f"{where}: invalid Higgs field: {exc}") from exc

    def normal_form():
        return {
            "kind": "hitchin-pair",
            "rank": rank,
            "l_basis": _basis_list(l_space),
            "theta": [
                [
                    [_frac_str(kernel.theta[i][j][name]) for name in l_space.names]
                    for j in range(rank)
                ]
                for i in range(rank)
            ],
        }

    return Document("hitchin-pair", kernel, normal_form)


def _parse_artin_payload(data, where):
    """The algebra and a function building its normalized payload."""
    variables = data["variables"]
    if "truncation" in data:
        truncation = data["truncation"]
        kernel = make_artin(variables, truncation)
        return kernel, lambda: {"variables": variables, "truncation": truncation}
    if "monomials" not in data:
        raise CliError(f"{where}: missing field 'truncation' or 'monomials'")
    kernel = ArtinAlgebra(variables, map(tuple, data["monomials"]))
    return kernel, lambda: {
        "variables": variables,
        "monomials": [list(m) for m in sorted(kernel.monomials, key=monomial_key)],
    }


def _parse_artin(data, where):
    kernel, payload = _parse_artin_payload(data, where)
    return Document("artin", kernel, lambda: {"kind": "artin", **payload()})


def _parse_mc_element(data, where):
    algebra, algebra_payload = _parse_artin_payload(data["algebra"], f"{where}.algebra")

    def outside(values):
        mono = values[0]
        if mono not in algebra.monomials or mono == algebra.unit:
            return "monomial outside the maximal ideal"
        return None

    terms = _read_sparse(data, "terms", where, ("monomial", "name"), outside)
    kernel = ArtinVector({k: v for k, v in terms.items() if v != 0})

    def normal_form():
        return {"kind": "mc-element", "algebra": algebra_payload(), "terms": _jsonable(kernel)}

    return Document("mc-element", (algebra, kernel), normal_form)


_PARSERS = {
    "dgla": _parse_dgla_or_cdga,
    "cdga": _parse_dgla_or_cdga,
    "linfty": _parse_linfty,
    "hitchin-pair": _parse_hitchin_pair,
    "artin": _parse_artin,
    "mc-element": _parse_mc_element,
}


def parse_document(path):
    """Load and validate one document; construction invariants run here.

    The document's shape (see _SHAPES) is checked once, before its kind's
    parser runs, so the parsers read only well-typed fields.  The normal
    form is not built here but when emit_document asks for it.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise CliError(
            f"{path}: parse error at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except (OSError, ValueError, RecursionError) as exc:  # also bad UTF-8, deep nesting
        raise CliError(f"{path}: {exc}") from exc
    _check_shape(raw, {"kind": str}, path)
    kind = raw["kind"]
    if kind not in _SHAPES:
        raise CliError(f"{path}: unknown kind {kind!r}")
    _check_shape(raw, _SHAPES[kind], path)
    try:
        return _PARSERS[kind](raw, path)
    except CliError:
        raise
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def emit_document(document):
    """Canonical text form, built from the kernel now; parsing it again
    gives an equal kernel and the same text."""
    return _dumps(document.normal_form()) + "\n"


_encode_str = json.encoder.encode_basestring_ascii


def _dumps(value, newline="\n"):
    """json.dumps(value, indent=2, sort_keys=True), which with an indent runs
    json's pure-Python encoder, in one direct pass over strings, bools, None,
    ints and lists, tuples and str-keyed dicts of them.  Anything else, a
    Fraction or a float above all, raises json's TypeError."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        items = [f"{_encode_str(k)}: {_dumps(value[k], inner)}" for k in sorted(value)]
        ends = "{}"
    elif isinstance(value, (list, tuple)):
        items = [_dumps(v, inner) for v in value]
        ends = "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return ends
    return ends[0] + inner + ("," + inner).join(items) + newline + ends[1]


def _jsonable(value):
    """A report value: Fractions and every vector coefficient as text, and
    a float anywhere a TypeError."""
    if isinstance(value, (Fraction, float)):
        return _frac_str(value)
    if isinstance(value, GradedVector):
        return {name: _frac_str(c) for name, c in sorted(value.coeffs.items())}
    if isinstance(value, ArtinVector):
        return [
            {"monomial": list(mono), "name": name, "coeff": _frac_str(c)}
            for (mono, name), c in sorted(value.coeffs.items())
        ]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _checks(*named):
    """The "checks" field of (name, CheckReport) pairs, each failure with its
    axiom, witness and value, and whether every check passed."""
    entries = []
    for name, result in named:
        entry = {"name": name, "ok": bool(result.ok)}
        if not result.ok:
            entry["axiom"] = result.axiom
            entry["witness"] = _jsonable(result.witness)
            entry["value"] = _jsonable(result.value)
        entries.append(entry)
    return {"checks": entries}, all(entry["ok"] for entry in entries)


def _cmd_check_dgla(args, dgla):
    return _checks(("dgla-axioms", check_dgla(dgla)))


def _cmd_check_linfty(args, structure):
    if isinstance(structure, Dgla):
        structure = linfty_from_dgla(structure)
    return _checks(("codifferential", check_codifferential(structure, args.weight)))


def _cmd_check_morphism(args, pair, cdga):
    morphism = build_hitchin_morphism(pair, cdga)
    return _checks(("morphism-identity", check_linfty_morphism(morphism, args.weight)))


def _cmd_cohomology(args, source, cdga):
    if isinstance(source, HitchinPair):
        summary = complex_C_cohomology(source, cdga)
    elif isinstance(source, Dgla):
        summary = source.cohomology()
    else:
        summary = complex_cohomology(source.space, source.d)
    degrees = summary.degrees()
    dims = {str(d): summary.dimension(d) for d in degrees}
    reps = {str(d): _jsonable(summary.representatives(d)) for d in degrees}
    return {"cohomology": {"dimensions": dims, "representatives": reps}}, True


def _event(event, key, value):
    """The report entry of one obstruction event, plus the field key."""
    return {
        "direction": event.direction,
        "order": event.order,
        "monomial": list(event.monomial),
        "class": [_frac_str(c) for c in event.coords],
        key: value,
    }


def _solver_payload(result):
    return {
        "tangent_dimension": result.tangent_dimension(),
        "directions": _jsonable(result.directions),
        "events": [_event(e, "cocycle", _jsonable(e.cocycle)) for e in result.events],
        "solutions": _jsonable(result.solutions),
        "obstructed": result.obstructed_directions(),
    }


def _cmd_mc_solve(args, source, cdga):
    if isinstance(source, HitchinPair):
        source = build_hitchin_dgla(source, cdga)
    result = mc_solve(source, make_artin(("t",), args.order))
    return {"solver": _solver_payload(result)}, True


def _cmd_gauge_equiv(args, dgla, x_element, y_element):
    (algebra, x), (algebra_y, y) = x_element, y_element
    if algebra != algebra_y:
        raise CliError("the two elements live over different algebras")
    result = gauge_equivalent(x, y, dgla, algebra)
    if result.equivalent:
        return {"equivalent": True, "witness": _jsonable(result.witness)}, True
    failure = {
        "order": result.order,
        "monomial": list(result.monomial),
        "residual": _jsonable(result.residual),
    }
    return {"equivalent": False, "failure": failure}, False


def _cmd_hitchin_build(args, pair, cdga):
    dgla = build_hitchin_dgla(pair, cdga)
    fields, ok = _checks(("dgla-axioms", check_dgla(dgla)))
    fields["dimension"] = len(dgla.space.names)
    fields["degrees"] = {
        str(d): len(dgla.space.names_of_degree(d))
        for d in sorted(dgla.space.degrees_present())
    }
    return fields, ok


def _cmd_hitchin_verify(args, pair, cdga):
    morphism = build_hitchin_morphism(pair, cdga)
    return _checks(
        ("cdga-axioms", check_cdga(cdga)),
        ("dgla-axioms", check_dgla(morphism.source_dgla)),
        ("morphism-identity", check_linfty_morphism(morphism, args.weight)),
    )


def _cmd_pushforward(args, pair, element, cdga):
    morphism = build_hitchin_morphism(pair, cdga)
    algebra, x = element
    return {"image": _jsonable(pushforward_mc(morphism, x, algebra))}, True


def _cmd_hitchin_map(args, pair, element, cdga):
    morphism = build_hitchin_morphism(pair, cdga)
    algebra, x = element
    sections = hitchin_map(x, morphism, algebra)
    return {"sections": {str(k + 1): _jsonable(s) for k, s in enumerate(sections)}}, True


def _cmd_obstruction(args, pair, cdga):
    morphism = build_hitchin_morphism(pair, cdga)
    result = mc_solve(morphism.source_dgla, make_artin(("t",), args.order))
    entries = []
    for event in result.primary_obstructions():
        coords = obstruction_kernel_map(event.cocycle, morphism)
        entries.append(_event(event, "kernel_image", [_frac_str(c) for c in coords]))
    return {
        "solver": _solver_payload(result),
        "obstruction_classes": entries,
        "all_in_kernel": all(c == "0" for e in entries for c in e["kernel_image"]),
    }, True


# Each command's handler and one slot per input file: the kinds that file may
# have, "|"-separated.  A trailing "cdga?" is the optional CDGA file, the
# trivial CDGA when absent.  handler(args, *kernels) returns the report's own
# fields and whether every check passed.  The README's command table mirrors
# this one.
_COMMANDS = {
    "check-dgla": (_cmd_check_dgla, ("dgla",)),
    "check-linfty": (_cmd_check_linfty, ("linfty|dgla",)),
    "check-morphism": (_cmd_check_morphism, ("hitchin-pair", "cdga?")),
    "cohomology": (_cmd_cohomology, ("dgla|cdga|hitchin-pair", "cdga?")),
    "mc-solve": (_cmd_mc_solve, ("dgla|hitchin-pair", "cdga?")),
    "gauge-equiv": (_cmd_gauge_equiv, ("dgla", "mc-element", "mc-element")),
    "hitchin-build": (_cmd_hitchin_build, ("hitchin-pair", "cdga?")),
    "hitchin-verify": (_cmd_hitchin_verify, ("hitchin-pair", "cdga?")),
    "pushforward": (_cmd_pushforward, ("hitchin-pair", "mc-element", "cdga?")),
    "hitchin-map": (_cmd_hitchin_map, ("hitchin-pair", "mc-element", "cdga?")),
    "obstruction": (_cmd_obstruction, ("hitchin-pair", "cdga?")),
}


# Least value of each option (Q[t]/(t^1) has no maximal ideal; weight 0 checks
# nothing), and the commands that read it; other commands only echo it.
_OPTION_MINIMUM = {
    "order": (2, ("mc-solve", "obstruction")),
    "weight": (1, ("check-linfty", "check-morphism", "hitchin-verify")),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are CliErrors, so that an unknown
    command, missing files or a bad option value exit 2 with one line."""

    def error(self, message):
        raise CliError(message)


# One parser for every command, built once at import: a command name, its
# files and the options all commands share; run_command checks the file
# count.  It keeps nothing between calls: parse_args returns a fresh
# Namespace, _Parser.error raises CliError, prog is fixed, and argparse
# makes the help formatter, with the terminal width of the moment, each
# time it formats.
_PARSER = _Parser(
    prog="defcalc",
    description="Exact deformation calculus on finite graded models.",
)
_PARSER.add_argument("command", choices=list(_COMMANDS))
_PARSER.add_argument("files", nargs="+")
_PARSER.add_argument(
    "--weight", type=int, default=4,
    help="weight bound for coalgebra checks (default 4)",
)
_PARSER.add_argument(
    "--order", type=int, default=3,
    help="truncation order of the solver base (default 3)",
)
_PARSER.add_argument(
    "--report", default=None, help="write the JSON report to this path"
)
_PARSER.add_argument(
    "--seed", type=int, default=0,
    help="echoed in the report; commands are deterministic",
)


def run_command(command, args):
    """Run one parsed invocation; returns (report dict, exit code).

    The file count comes from the command's slots and the options from
    _OPTION_MINIMUM; each file is parsed and its kind checked against its
    slot before the handler runs, and the report head is built here.
    """
    handler, slots = _COMMANDS[command]
    least = sum(not slot.endswith("?") for slot in slots)
    if not (least <= len(args.files) <= len(slots)):
        raise CliError(f"{command} takes between {least} and {len(slots)} files")
    for option, (minimum, readers) in _OPTION_MINIMUM.items():
        if command in readers and getattr(args, option) < minimum:
            raise CliError(f"{command}: --{option} must be at least {minimum}")
    kernels = []
    for path, slot in zip(args.files, slots):
        doc = parse_document(path)
        kinds = slot.rstrip("?").split("|")
        if doc.kind not in kinds:
            raise CliError(
                f"{path}: {command} expects kind {' or '.join(kinds)}, got {doc.kind!r}"
            )
        kernels.append(doc.kernel)
    if len(kernels) < len(slots):
        kernels.append(trivial_cdga())
    fields, ok = handler(args, *kernels)
    options = {key: getattr(args, key) for key in ("weight", "order", "seed")}
    report = {"command": command, "inputs": list(args.files), "options": options}
    report.update(fields)
    return report, 0 if ok else 1


def main(argv=None):
    """Run one command; returns the exit code.  --help exits 0 through
    SystemExit, as argparse does.  The argument parser is the one built at
    import (_PARSER), so a call pays only for its own parse."""
    try:
        args = _PARSER.parse_args(argv)
        report, code = run_command(args.command, args)
        report["status"] = "pass" if code == 0 else "fail"
        text = _dumps(report) + "\n"
    except ValueError as exc:  # rejected input: CliError or a library check
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault in defcalc itself, not a failed check
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    if args.report is not None:
        try:
            with open(args.report, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
