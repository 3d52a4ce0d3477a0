"""Front end: parsing, reports, exit codes, determinism, round-trips."""

import json
import os

import pytest

from defcalc.cli import _COMMANDS, CliError, emit_document, main, parse_document
from defcalc.dgla import _cdga_violations, check_cdga

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "sample_inputs")
GOLDEN_INPUTS = os.path.join(os.path.dirname(__file__), "golden", "inputs")


def sample(name):
    return os.path.join(SAMPLES, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_all_samples_parse_and_round_trip(tmp_path):
    names = sorted(os.listdir(SAMPLES))
    assert len(names) >= 6
    kinds = set()
    for name in names:
        doc = parse_document(sample(name))
        kinds.add(doc.kind)
        text = emit_document(doc)
        echo = tmp_path / name
        echo.write_text(text, encoding="utf-8")
        again = parse_document(str(echo))
        assert emit_document(again) == text
        assert again.kind == doc.kind
    assert kinds == {
        "artin", "cdga", "dgla", "hitchin-pair", "linfty", "mc-element"
    }


def test_check_dgla_command(capsys):
    code, report = run(capsys, "check-dgla", sample("dgla_obstructed.json"))
    assert code == 0
    assert report["status"] == "pass"
    assert report["checks"][0]["name"] == "dgla-axioms"


def test_internal_fault_has_its_own_exit_code(capsys, monkeypatch, tmp_path):
    from defcalc import cli

    def broken(args, *kernels):
        raise RuntimeError("boom")

    _, slots = cli._COMMANDS["check-dgla"]
    monkeypatch.setitem(cli._COMMANDS, "check-dgla", (broken, slots))
    report = tmp_path / "report.json"
    code = main(["check-dgla", sample("dgla_obstructed.json"), "--report", str(report)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == "" and not report.exists()
    assert captured.err == "internal error: RuntimeError: boom\n"
    assert "Traceback" not in captured.err


def test_report_the_writer_refuses_is_an_internal_fault(capsys, monkeypatch, tmp_path):
    from fractions import Fraction

    from defcalc import cli

    _, slots = cli._COMMANDS["check-dgla"]
    monkeypatch.setitem(
        cli._COMMANDS, "check-dgla", (lambda args, *kernels: ({"x": Fraction(1, 2)}, True), slots)
    )
    report = tmp_path / "report.json"
    code = main(["check-dgla", sample("dgla_obstructed.json"), "--report", str(report)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == "" and not report.exists()
    assert captured.err == (
        "internal error: TypeError: Object of type Fraction is not JSON serializable\n"
    )


def test_check_dgla_failure_exit_code(capsys, tmp_path):
    path = write(
        tmp_path,
        "bad.json",
        {
            "kind": "dgla",
            "basis": [{"name": "a", "degree": 0}, {"name": "b", "degree": 0}],
            "differential": [],
            "bracket": [
                {"a": "a", "b": "b", "out": "a", "coeff": "1"},
                {"a": "b", "b": "a", "out": "a", "coeff": "1"},
            ],
        },
    )
    code, report = run(capsys, "check-dgla", path)
    assert code == 1
    assert report["status"] == "fail"
    assert report["checks"][0]["axiom"] == "antisymmetry"


def test_check_dgla_wrong_degree_exits_one(capsys, tmp_path):
    path = write(
        tmp_path,
        "degree.json",
        {
            "kind": "dgla",
            "basis": [
                {"name": "a", "degree": 0},
                {"name": "b", "degree": 0},
                {"name": "c", "degree": 1},
            ],
            "differential": [],
            "bracket": [{"a": "a", "b": "b", "out": "c", "coeff": "1"}],
        },
    )
    code, report = run(capsys, "check-dgla", path)
    assert code == 1
    check = report["checks"][0]
    assert (check["axiom"], check["witness"], check["value"]) == (
        "degree", ["a", "b"], {"c": "1"}
    )


def test_mc_solve_worked_example(capsys):
    code, report = run(
        capsys, "mc-solve", sample("dgla_obstructed.json"), "--order", "3"
    )
    assert code == 0
    solver = report["solver"]
    assert solver["tangent_dimension"] == 1
    (event,) = solver["events"]
    assert event["order"] == 2
    assert event["class"] == ["1/2"]
    assert event["cocycle"] == {"e2": "1/2"}
    assert solver["solutions"] == [None]


def test_gauge_equiv_command(capsys):
    code, report = run(
        capsys,
        "gauge-equiv",
        sample("dgla_contractible.json"),
        sample("mc_flow_x.json"),
        sample("mc_flow_y.json"),
    )
    assert code == 0
    assert report["equivalent"] is True


def test_gauge_equiv_failure(capsys, tmp_path):
    x = write(
        tmp_path,
        "x.json",
        {
            "kind": "mc-element",
            "algebra": {"variables": ["t"], "truncation": 2},
            "terms": [{"monomial": [1], "name": "e1", "coeff": "1"}],
        },
    )
    y = write(
        tmp_path,
        "y.json",
        {
            "kind": "mc-element",
            "algebra": {"variables": ["t"], "truncation": 2},
            "terms": [{"monomial": [1], "name": "e1", "coeff": "-1"}],
        },
    )
    code, report = run(
        capsys, "gauge-equiv", sample("dgla_obstructed.json"), x, y
    )
    assert code == 1
    assert report["equivalent"] is False
    assert report["failure"]["order"] == 1


def test_gauge_equiv_with_d_squared_nonzero_exits_two_with_one_line(capsys, tmp_path):
    # the zero elements are Maurer-Cartan; this exited 0 as "equivalent"
    # before gauge_equivalent checked d o d
    zero = sample("mc_flow_y.json")
    assert main(["gauge-equiv", write(tmp_path, "dd.json", NOT_A_COMPLEX), zero, zero]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: d*d is nonzero on basis vector 'a': GradedVector(1*c)\n"


def test_hitchin_verify_command(capsys):
    code, report = run(
        capsys,
        "hitchin-verify",
        sample("hitchin_r2_nilpotent.json"),
        "--weight",
        "4",
    )
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert names == ["cdga-axioms", "dgla-axioms", "morphism-identity"]
    assert all(c["ok"] for c in report["checks"])


def test_cohomology_command(capsys):
    code, report = run(
        capsys, "cohomology", sample("hitchin_r2_zero.json"),
        sample("cdga_interval.json"),
    )
    assert code == 0
    dims = report["cohomology"]["dimensions"]
    # zero differential everywhere: cohomology is the whole space
    assert dims == {"0": 4, "1": 8, "2": 4}


def test_obstruction_command(capsys):
    code, report = run(
        capsys,
        "obstruction",
        sample("hitchin_r2_zero.json"),
        sample("cdga_interval.json"),
        "--order",
        "3",
    )
    assert code == 0
    assert report["all_in_kernel"] is True


def test_a_cdga_product_of_the_wrong_degree_exits_two_in_every_hitchin_command(capsys, tmp_path):
    # w u = w leaves degree 2; the Hitchin dgla is never built on it, so
    # every command on a pair exits 2 with the first such product in name
    # order, (u, w) before (w, u), as check_cdga's degree axiom reports it
    # after the associativity failure u (u w) = w it meets first; the
    # cohomology of the CDGA alone is still answered
    payload = {
        "kind": "cdga",
        "basis": [{"name": "1", "degree": 0}, {"name": "w", "degree": 1},
                  {"name": "u", "degree": 1}],
        "differential": [],
        "product": [{"a": "w", "b": "u", "out": "w", "coeff": "1"}],
        "unit": "1",
    }
    cdga = write(tmp_path, "cdga.json", payload)
    pair, mc = sample("hitchin_r2_zero.json"), os.path.join(GOLDEN_INPUTS, "mc_r2_t4.json")
    message = "error: CDGA product ('u', 'w') leaves degree |a| + |b|: w\n"
    commands = {
        "check-morphism": [pair, cdga], "cohomology": [pair, cdga],
        "mc-solve": [pair, cdga], "hitchin-build": [pair, cdga],
        "hitchin-verify": [pair, cdga], "pushforward": [pair, mc, cdga],
        "hitchin-map": [pair, mc, cdga], "obstruction": [pair, cdga],
    }
    assert {c for c, (_, slots) in _COMMANDS.items() if "hitchin-pair" in slots[0]} == set(commands)
    for command, files in commands.items():
        assert main([command, *files]) == 2
        assert capsys.readouterr() == ("", message)
    kernel = parse_document(cdga).kernel
    assert check_cdga(kernel).axiom == "associativity"
    degree = next(r for r in _cdga_violations(kernel) if r.axiom == "degree")
    assert degree.witness == ("u", "w")
    assert main(["cohomology", cdga]) == 0
    assert capsys.readouterr().err == ""


def test_pushforward_and_hitchin_map_commands(capsys, tmp_path):
    mc = write(
        tmp_path,
        "mc.json",
        {
            "kind": "mc-element",
            "algebra": {"variables": ["t"], "truncation": 4},
            "terms": [
                {"monomial": [1], "name": "1*E12^l", "coeff": "1"},
                {"monomial": [1], "name": "1*E21^l", "coeff": "2"},
            ],
        },
    )
    code, push = run(
        capsys, "pushforward", sample("hitchin_r2_zero.json"), mc,
        sample("cdga_interval.json"),
    )
    assert code == 0
    code, trace = run(
        capsys, "hitchin-map", sample("hitchin_r2_zero.json"), mc,
        sample("cdga_interval.json"),
    )
    assert code == 0
    assert trace["sections"]["1"] == []
    assert trace["sections"]["2"] == push["image"]


def test_parse_errors_exit_two(capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    assert main(["check-dgla", missing]) == 2

    broken = tmp_path / "broken.json"
    broken.write_text('{"kind": "dgla",', encoding="utf-8")
    assert main(["check-dgla", str(broken)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err

    zero_div = write(
        tmp_path,
        "zdiv.json",
        {
            "kind": "dgla",
            "basis": [{"name": "a", "degree": 0}],
            "differential": [],
            "bracket": [{"a": "a", "b": "a", "out": "a", "coeff": "1/0"}],
        },
    )
    assert main(["check-dgla", zero_div]) == 2

    unknown = write(tmp_path, "unknown.json", {"kind": "spectra"})
    assert main(["check-dgla", unknown]) == 2

    bad_theta = write(
        tmp_path,
        "badtheta.json",
        {
            "kind": "hitchin-pair",
            "rank": 2,
            "l_basis": [
                {"name": "l1", "degree": 1},
                {"name": "l2", "degree": 1},
            ],
            "theta": [
                [["0", "0"], ["1", "0"]],
                [["0", "1"], ["0", "0"]],
            ],
        },
    )
    assert main(["hitchin-build", bad_theta]) == 2
    err = capsys.readouterr().err
    assert "Higgs" in err


# One shipped sample of each kind, in the order a wrong kind is picked.
KIND_SAMPLES = {
    "dgla": "dgla_contractible.json",
    "cdga": "cdga_interval.json",
    "linfty": "linfty_obstructed.json",
    "hitchin-pair": "hitchin_r2_zero.json",
    "mc-element": "mc_flow_x.json",
    "artin": "artin_t3.json",
}


def slot_kinds(slot):
    return slot.rstrip("?").split("|")


@pytest.mark.parametrize(
    "command, pos",
    [(command, pos) for command, (_, slots) in _COMMANDS.items() for pos in range(len(slots))],
)
def test_a_file_of_the_wrong_kind_exits_two_with_one_message(capsys, tmp_path, command, pos):
    _, slots = _COMMANDS[command]
    kinds = slot_kinds(slots[pos])
    wrong = next(kind for kind in KIND_SAMPLES if kind not in kinds)
    least = sum(not slot.endswith("?") for slot in slots)
    files = [
        sample(KIND_SAMPLES[wrong if i == pos else slot_kinds(slots[i])[0]])
        for i in range(max(pos + 1, least))
    ]
    report = tmp_path / "report.json"
    assert main([command, *files, "--report", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not report.exists()
    assert captured.err == (
        f"error: {files[pos]}: {command} expects kind {' or '.join(kinds)}, got {wrong!r}\n"
    )


@pytest.mark.parametrize("command", ["cohomology", "mc-solve"])
def test_the_optional_cdga_file_is_checked_after_a_dgla(capsys, command):
    linfty = sample("linfty_obstructed.json")
    assert main([command, sample("dgla_obstructed.json"), linfty]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {linfty}: {command} expects kind cdga, got 'linfty'\n"


def test_float_coefficients_rejected(capsys, tmp_path):
    path = write(
        tmp_path,
        "float.json",
        {
            "kind": "dgla",
            "basis": [{"name": "a", "degree": 0}],
            "differential": [],
            "bracket": [{"a": "a", "b": "a", "out": "a", "coeff": 0.5}],
        },
    )
    assert main(["check-dgla", path]) == 2


def test_reports_deterministic(tmp_path, capsys):
    reports = []
    for i in range(3):
        out = tmp_path / f"r{i}.json"
        code = main(
            [
                "hitchin-verify",
                sample("hitchin_r2_nilpotent.json"),
                "--report",
                str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]
    # stdout carries the same bytes as the report file
    code = main(["hitchin-verify", sample("hitchin_r2_nilpotent.json")])
    assert capsys.readouterr().out.encode() == reports[0]


def test_parse_document_raises_cli_error_directly():
    with pytest.raises(CliError):
        parse_document(os.path.join(SAMPLES, "no_such_file.json"))


def load_sample(name):
    with open(sample(name), encoding="utf-8") as handle:
        return json.load(handle)


def assert_rejected(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("order", ["0", "1", "-1"])
def test_order_below_two_exits_two(capsys, order):
    assert_rejected(
        capsys, ["mc-solve", sample("dgla_obstructed.json"), "--order", order]
    )
    assert_rejected(
        capsys,
        ["obstruction", sample("hitchin_r2_nilpotent.json"), "--order", order],
    )


@pytest.mark.parametrize("weight", ["0", "-1"])
def test_weight_below_one_exits_two(capsys, weight):
    assert_rejected(
        capsys,
        ["check-linfty", sample("linfty_obstructed.json"), "--weight", weight],
    )
    for command in ("check-morphism", "hitchin-verify"):
        assert_rejected(
            capsys,
            [command, sample("hitchin_r2_nilpotent.json"), "--weight", weight],
        )


@pytest.mark.parametrize("command, least, most", [("check-dgla", 1, 1), ("gauge-equiv", 3, 3)])
def test_wrong_file_count_exits_two_with_the_file_range(capsys, command, least, most):
    dgla = sample("dgla_obstructed.json")
    assert main([command, dgla, dgla]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {command} takes between {least} and {most} files\n"


def test_options_unread_by_a_command_are_not_checked(capsys):
    code, report = run(
        capsys, "check-dgla", sample("dgla_obstructed.json"),
        "--order", "0", "--weight", "0",
    )
    assert code == 0
    assert report["options"] == {"order": 0, "seed": 0, "weight": 0}


def test_bool_degree_rejected(capsys, tmp_path):
    payload = load_sample("dgla_obstructed.json")
    payload["basis"][0]["degree"] = True
    assert_rejected(capsys, ["check-dgla", write(tmp_path, "bool.json", payload)])


@pytest.mark.parametrize("exponent", [1.7, 1.0, True, -1])
def test_bad_mc_element_exponent_rejected(capsys, tmp_path, exponent):
    payload = load_sample("mc_flow_x.json")
    payload["terms"][0]["monomial"] = [exponent]
    bad = write(tmp_path, "bad_x.json", payload)
    assert_rejected(
        capsys,
        [
            "gauge-equiv",
            sample("dgla_contractible.json"),
            bad,
            sample("mc_flow_x.json"),
        ],
    )


def test_artin_document_by_monomials_or_neither(tmp_path):
    monomials = {"kind": "artin", "variables": ["s", "t"], "monomials": [[1, 0], [0, 0], [0, 1]]}
    doc = parse_document(write(tmp_path, "artin.json", monomials))
    assert doc.kernel.maximal_ideal == ((0, 1), (1, 0))
    assert json.loads(emit_document(doc))["monomials"] == [[0, 0], [0, 1], [1, 0]]
    neither = write(tmp_path, "neither.json", {"kind": "artin", "variables": ["t"]})
    with pytest.raises(CliError, match="neither.json: missing field 'truncation' or 'monomials'"):
        parse_document(neither)


def test_unwritable_report_exits_two_after_stdout(capsys, tmp_path):
    # a folder that does not exist, and the empty path, which names no file
    for report in (str(tmp_path / "missing" / "report.json"), ""):
        assert main(["check-dgla", sample("dgla_obstructed.json"), "--report", report]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out)["status"] == "pass"
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("exponent", [1.7, True])
def test_bad_artin_exponent_rejected(tmp_path, exponent):
    path = write(
        tmp_path,
        "artin.json",
        {"kind": "artin", "variables": ["t"], "monomials": [[0], [exponent]]},
    )
    with pytest.raises(CliError, match="exponents"):
        parse_document(path)


def mutated(name, path, value):
    payload = load_sample(name)
    node = payload
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return payload


def basis(*pairs):
    return [{"name": n, "degree": d} for n, d in pairs]


# d(a) = b, d(b) = c, so d o d != 0
NOT_A_COMPLEX = {
    "kind": "dgla",
    "basis": basis(("a", 0), ("b", 1), ("c", 2)),
    "differential": [
        {"from": "a", "to": "b", "coeff": "1"},
        {"from": "b", "to": "c", "coeff": "1"},
    ],
}
# [e1, e1] lands in degree 1, not 2
WRONG_DEGREE_BRACKET = {
    "kind": "dgla",
    "basis": basis(("e1", 1)),
    "bracket": [{"a": "e1", "b": "e1", "out": "e1", "coeff": "1"}],
}
HUGE = 10**12

# Each invocation once ended in "internal error" (exit 3), or, for exponent
# notation, in a parse whose cost grows with the exponent; a dict stands for
# a document written to a file.
REJECTED = {
    "basis entry int": ["check-dgla", mutated("dgla_obstructed.json", ("basis", 0), 5)],
    "basis entry bool": ["check-dgla", mutated("dgla_obstructed.json", ("basis", 0), True)],
    "basis entry null": ["check-dgla", mutated("dgla_obstructed.json", ("basis", 0), None)],
    "differential null": [
        "check-dgla", mutated("dgla_obstructed.json", ("differential",), None)
    ],
    "bracket entry not an object": [
        "check-dgla", mutated("dgla_obstructed.json", ("bracket", 0), 5)
    ],
    "terms not a list": [
        "gauge-equiv", sample("dgla_contractible.json"),
        mutated("mc_flow_x.json", ("terms",), 5), sample("mc_flow_y.json"),
    ],
    "list as a word letter": [
        "check-linfty",
        mutated("linfty_obstructed.json", ("brackets", 0, "word", 0), ["e1"]),
    ],
    "float in l_basis": [
        "hitchin-build", mutated("hitchin_r2_zero.json", ("l_basis", 0), 0.5)
    ],
    "letter of L in degree 2": [
        "hitchin-verify", mutated("hitchin_r2_zero.json", ("l_basis", 0, "degree"), 2)
    ],
    "cohomology of d o d != 0": ["cohomology", NOT_A_COMPLEX],
    "mc-solve with d o d != 0": ["mc-solve", NOT_A_COMPLEX],
    "mc-solve with a wrong-degree bracket": ["mc-solve", WRONG_DEGREE_BRACKET],
    "huge truncation": [
        "gauge-equiv", sample("dgla_contractible.json"),
        mutated("mc_flow_x.json", ("algebra", "truncation"), HUGE),
        sample("mc_flow_y.json"),
    ],
    "huge order": ["mc-solve", sample("dgla_obstructed.json"), "--order", str(HUGE)],
    "coefficient in exponent notation": [
        "check-dgla", mutated("dgla_obstructed.json", ("bracket", 0, "coeff"), "1e1000000")
    ],
}


@pytest.mark.parametrize("coeff", ["1e3", "2E-1", " 1.5e2"])
def test_exponent_notation_rejected_with_its_path(tmp_path, coeff):
    payload = mutated("dgla_obstructed.json", ("bracket", 0, "coeff"), coeff)
    path = write(tmp_path, "exp.json", payload)
    with pytest.raises(CliError, match=r"\.bracket\[0\]: bad rational .*exponent"):
        parse_document(path)


@pytest.mark.parametrize("coeff, value", [("3", "3"), ("-3/4", "-3/4"), ("0.25", "1/4")])
def test_plain_rationals_accepted(tmp_path, coeff, value):
    payload = mutated("dgla_obstructed.json", ("bracket", 0, "coeff"), coeff)
    doc = parse_document(write(tmp_path, "plain.json", payload))
    assert json.loads(emit_document(doc))["bracket"][0]["coeff"] == value


@pytest.mark.parametrize("argv", REJECTED.values(), ids=list(REJECTED))
def test_rejected_input_exits_two(capsys, tmp_path, argv):
    argv = [
        write(tmp_path, f"in{pos}.json", arg) if isinstance(arg, dict) else arg
        for pos, arg in enumerate(argv)
    ]
    assert_rejected(capsys, argv)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bogus", "x"], "error: argument command: invalid choice: 'bogus'"),
        (["check-dgla"], "error: the following arguments are required: files"),
        (
            ["check-dgla", sample("dgla_obstructed.json"), "--weight", "x"],
            "error: argument --weight: invalid int value: 'x'",
        ),
    ],
    ids=["unknown command", "missing files", "non-integer option"],
)
def test_command_line_errors_exit_two_with_one_line(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1 and "usage" not in captured.err


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: defcalc")


def test_no_argument_parser_is_built_per_call(capsys, monkeypatch):
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in (
        ["check-dgla", sample("dgla_obstructed.json")],
        ["mc-solve", sample("dgla_obstructed.json"), "--order", "4"],
        ["bogus", "x"],
        ["check-dgla"],
    ):
        main(argv)
    capsys.readouterr()
    assert built == []


def test_the_shared_parser_carries_nothing_between_calls(capsys, monkeypatch):
    root = os.path.join(os.path.dirname(__file__), "..")
    monkeypatch.chdir(root)
    argv = ["mc-solve", "sample_inputs/dgla_obstructed.json"]
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert main(["bogus", "x"]) == 2
    assert main(argv + ["--weight", "x"]) == 2
    assert main(argv + ["--order", "6"]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    out = capsys.readouterr().out
    with open(os.path.join("tests", "golden", "17-mc-solve.json"), encoding="utf-8") as handle:
        assert out == handle.read()
    assert json.loads(out)["options"] == {"order": 3, "seed": 0, "weight": 4}


def test_coefficient_text_accepts_only_rationals():
    from fractions import Fraction

    from defcalc.cli import _frac_str

    assert _frac_str(Fraction(-3, 4)) == "-3/4"
    assert _frac_str(Fraction(4)) == _frac_str(4) == "4"
    for leak in (4.0, True, "4", None):
        with pytest.raises(TypeError, match="not a rational"):
            _frac_str(leak)


@pytest.mark.parametrize("leak", ["witness vector", "bare value"])
def test_float_in_a_report_is_an_internal_fault(capsys, monkeypatch, tmp_path, leak):
    from defcalc import cli
    from defcalc.dgla import CheckReport
    from defcalc.graded import GradedVector

    value = GradedVector.from_nonzero({"e1": 4.0}) if leak == "witness vector" else 4.0
    monkeypatch.setattr(
        cli, "check_dgla", lambda dgla: CheckReport.failed("jacobi", ("e1",), value)
    )
    report = tmp_path / "report.json"
    code = main(["check-dgla", sample("dgla_obstructed.json"), "--report", str(report)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == "" and not report.exists()
    assert captured.err.startswith("internal error: TypeError: coefficient 4.0 is a float")


def test_commands_never_build_a_normal_form(capsys, monkeypatch, tmp_path):
    """One document of each kind through a command, with every normal-form
    builder raising: the exit code and every byte stay as they were."""
    from defcalc import cli

    monomials = write(tmp_path, "artin.json", {
        "kind": "artin", "variables": ["s", "t"], "monomials": [[0, 0], [1, 0], [0, 1]],
    })
    calls = [
        ["check-dgla", sample("dgla_contractible.json")],
        ["cohomology", sample("cdga_interval.json")],
        ["check-linfty", sample("linfty_obstructed.json")],
        ["hitchin-build", sample("hitchin_r2_zero.json")],
        ["gauge-equiv", sample("dgla_contractible.json"), sample("mc_flow_x.json"),
         sample("mc_flow_y.json")],
        ["check-dgla", sample("artin_t3.json")],
        ["check-dgla", monomials],
    ]

    def outcomes():
        results = []
        for argv in calls:
            code = main(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    before = outcomes()
    assert [code for code, _, _ in before] == [0, 0, 0, 0, 0, 2, 2]

    def refuse(*args, **kwargs):
        raise AssertionError("a normal form was built")

    for builder in ("_basis_list", "_emit_differential", "_emit_pair_table", "monomial_key"):
        monkeypatch.setattr(cli, builder, refuse)

    class Unbuilt(cli.Document):
        def __init__(self, kind, kernel, normal_form):
            super().__init__(kind, kernel, refuse)

    monkeypatch.setattr(cli, "Document", Unbuilt)
    assert outcomes() == before


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def writer_inputs():
    """Every golden report, the normal form of every shipped sample and
    golden input document, and edge values."""
    values = []
    for name in sorted(os.listdir(GOLDEN)):
        if name[0].isdigit():
            with open(os.path.join(GOLDEN, name), encoding="utf-8") as handle:
                values.append(json.load(handle))
    inputs = os.path.join(GOLDEN, "inputs")
    paths = [sample(n) for n in sorted(os.listdir(SAMPLES))]
    paths += [os.path.join(inputs, n) for n in sorted(os.listdir(inputs))]
    values += [parse_document(path).normal_form() for path in paths]
    values += [
        {}, [], {"a": {}, "b": [], "c": [[], {}, [{}]]}, [[[]]],
        "", "café ☃ \U0001f600", "tab\tnew\nline\x00\x1f\"quote\\",
        {"é": 1, "e": "\x7f", "a\nb": None},
        [True, 1, False, 0, None], {"t": True, "one": 1},
        10**200, -(10**200), ("tuple", 2),
    ]
    return values


def test_report_writer_matches_json_dumps():
    from defcalc.cli import _dumps

    values = writer_inputs()
    assert len(values) > 60
    for value in values:
        assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("leak", ["fraction", "float"])
def test_report_writer_refuses_fractions_and_floats(leak):
    from fractions import Fraction

    from defcalc.cli import _dumps

    value = Fraction(1, 2) if leak == "fraction" else 0.5
    name = type(value).__name__
    for report in (value, {"a": [1, value]}, [{"b": value}]):
        with pytest.raises(TypeError) as info:
            _dumps(report)
        assert str(info.value) == f"Object of type {name} is not JSON serializable"


@pytest.mark.parametrize("coeff", ["1_000", "3/ 4", "3 /4"])
def test_version_dependent_rationals_exit_two_with_their_path(capsys, tmp_path, coeff):
    dgla = write(
        tmp_path, "d.json",
        mutated("dgla_obstructed.json", ("bracket", 0, "coeff"), coeff),
    )
    pair = write(
        tmp_path, "p.json",
        mutated("hitchin_r2_zero.json", ("theta", 1, 0, 0), coeff),
    )
    literal = f"bad rational {coeff!r} (Invalid literal for Fraction: {coeff!r})"
    for argv, where in (
        (["check-dgla", dgla], f"{dgla}.bracket[0]"),
        (["hitchin-build", pair], f"{pair}.theta[1][0]"),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {where}: {literal}\n"
