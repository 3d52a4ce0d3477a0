"""Golden CLI reports: every command's exact bytes and exit code.

Each case runs ``defcalc.cli.main`` from the repository root with relative
input paths (reports echo them) and compares the exit code, stderr and the
``--report`` bytes with ``tests/golden/``.  The inputs are the shipped
samples plus a few documents under ``tests/golden/inputs/`` that reach the
failing and the pushforward paths.  Run this file as a script from the
repository root to capture the golden files again after an intended change
of a report.
"""

import contextlib
import io
import json
import os
import sys

import pytest

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
GOLDEN = os.path.join("tests", "golden")
MANIFEST = os.path.join(GOLDEN, "cases.json")

S = "sample_inputs/"
G = "tests/golden/inputs/"
CASES = [
    ["check-dgla", S + "dgla_obstructed.json"],
    ["check-dgla", S + "dgla_contractible.json"],
    ["check-dgla", G + "dgla_symmetric_bracket.json"],
    ["check-dgla", G + "dgla_not_jacobi.json"],
    ["check-dgla", S + "cdga_interval.json"],
    ["check-linfty", S + "linfty_obstructed.json"],
    ["check-linfty", S + "dgla_obstructed.json", "--weight", "3"],
    ["check-linfty", G + "dgla_not_jacobi.json", "--weight", "3"],
    ["check-linfty", S + "linfty_obstructed.json", "--weight", "0"],
    ["check-morphism", S + "hitchin_r2_nilpotent.json", "--weight", "3"],
    ["check-morphism", S + "hitchin_r2_zero.json", S + "cdga_interval.json",
     "--weight", "2"],
    ["cohomology", S + "dgla_obstructed.json"],
    ["cohomology", S + "dgla_contractible.json"],
    ["cohomology", S + "cdga_interval.json"],
    ["cohomology", S + "hitchin_r2_nilpotent.json"],
    ["cohomology", S + "hitchin_r2_nilpotent.json", S + "cdga_interval.json"],
    ["cohomology", S + "linfty_obstructed.json"],
    ["mc-solve", S + "dgla_obstructed.json"],
    ["mc-solve", S + "dgla_obstructed.json", "--order", "5"],
    ["mc-solve", S + "dgla_contractible.json", "--order", "4"],
    ["mc-solve", S + "hitchin_r2_nilpotent.json", S + "cdga_interval.json"],
    ["mc-solve", S + "hitchin_r2_zero.json", "--order", "4"],
    ["mc-solve", S + "dgla_obstructed.json", "--order", "1"],
    ["gauge-equiv", S + "dgla_contractible.json", S + "mc_flow_x.json",
     S + "mc_flow_y.json"],
    ["gauge-equiv", S + "dgla_contractible.json", S + "mc_flow_y.json",
     S + "mc_flow_x.json"],
    ["gauge-equiv", S + "dgla_obstructed.json", G + "mc_e1_plus.json",
     G + "mc_e1_minus.json"],
    ["gauge-equiv", S + "dgla_obstructed.json", S + "mc_flow_x.json",
     S + "mc_flow_y.json"],
    ["hitchin-build", S + "hitchin_r2_nilpotent.json"],
    ["hitchin-build", S + "hitchin_r2_zero.json", S + "cdga_interval.json"],
    ["hitchin-verify", S + "hitchin_r2_nilpotent.json", "--weight", "3"],
    ["hitchin-verify", S + "hitchin_r2_zero.json", S + "cdga_interval.json",
     "--weight", "2"],
    ["pushforward", S + "hitchin_r2_zero.json", G + "mc_r2_t4.json",
     S + "cdga_interval.json"],
    ["pushforward", S + "hitchin_r2_zero.json", G + "mc_r2_t4.json"],
    ["pushforward", S + "hitchin_r2_nilpotent.json", G + "mc_r2_t4.json"],
    ["pushforward", S + "hitchin_r2_zero.json", S + "mc_flow_x.json"],
    ["hitchin-map", S + "hitchin_r2_zero.json", G + "mc_r2_t4.json",
     S + "cdga_interval.json"],
    ["hitchin-map", S + "hitchin_r2_zero.json", G + "mc_r2_t4.json"],
    ["hitchin-map", S + "hitchin_r2_nilpotent.json", G + "mc_r2_t4.json"],
    ["hitchin-map", S + "hitchin_r2_zero.json", S + "mc_flow_x.json"],
    ["obstruction", S + "hitchin_r2_zero.json", S + "cdga_interval.json"],
    ["obstruction", S + "hitchin_r2_nilpotent.json", "--order", "4"],
    ["pushforward", S + "hitchin_r2_zero.json", G + "mc_r2_not_mc.json",
     S + "cdga_interval.json"],
    ["hitchin-map", S + "hitchin_r2_zero.json", G + "mc_r2_not_mc.json",
     S + "cdga_interval.json"],
    ["hitchin-verify", G + "hitchin_r4_nilpotent.json", S + "cdga_interval.json",
     "--weight", "3"],
    ["check-dgla", G + "dgla_wrong_degree_jacobi.json"],
    # every order past 1 is empty: the nilpotent pair's bracket vanishes
    ["mc-solve", S + "hitchin_r2_nilpotent.json", S + "cdga_interval.json",
     "--order", "8"],
    # two letters in L, so the wedge products of the construction are met
    ["cohomology", G + "hitchin_r2_two_letters.json", G + "cdga_exterior_two.json"],
    ["hitchin-build", G + "hitchin_r2_two_letters.json"],
    ["hitchin-verify", G + "hitchin_r2_two_letters.json", G + "cdga_exterior_two.json",
     "--weight", "2"],
    # rank 5: a superdiagonal theta with corner entries, so theta^4 != 0
    ["hitchin-verify", G + "hitchin_r5_nilpotent.json", S + "cdga_interval.json",
     "--weight", "3"],
]


def run_case(argv, report_path):
    """Exit code, stdout, stderr and report bytes (None if none written)."""
    from defcalc.cli import main

    if os.path.exists(report_path):
        os.remove(report_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv) + ["--report", report_path])
    report = None
    if os.path.exists(report_path):
        with open(report_path, "rb") as handle:
            report = handle.read()
    return code, out.getvalue(), err.getvalue(), report


def golden_name(index, argv):
    return f"{index:02d}-{argv[0]}.json"


def capture(scratch):
    """Write the manifest and one report file per case that writes one."""
    manifest = []
    for index, argv in enumerate(CASES):
        code, _, err, report = run_case(argv, os.path.join(scratch, "report.json"))
        entry = {"argv": argv, "code": code, "stderr": err, "report": None}
        if report is not None:
            entry["report"] = golden_name(index, argv)
            with open(os.path.join(GOLDEN, entry["report"]), "wb") as handle:
                handle.write(report)
        manifest.append(entry)
    with open(MANIFEST, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")


def load_manifest():
    with open(os.path.join(ROOT, MANIFEST), encoding="utf-8") as handle:
        return json.load(handle)


def test_manifest_covers_every_command_and_exit_code():
    from defcalc.cli import _COMMANDS

    manifest = load_manifest()
    assert [entry["argv"] for entry in manifest] == CASES
    assert {entry["argv"][0] for entry in manifest} == set(_COMMANDS)
    assert {entry["code"] for entry in manifest} == {0, 1, 2}


@pytest.mark.parametrize("index", range(len(CASES)))
def test_cli_report_matches_golden(index, monkeypatch, tmp_path):
    entry = load_manifest()[index]
    monkeypatch.chdir(ROOT)
    code, out, err, report = run_case(entry["argv"], str(tmp_path / "report.json"))
    assert (code, err) == (entry["code"], entry["stderr"])
    if entry["report"] is None:
        assert report is None and out == ""
        return
    with open(os.path.join(GOLDEN, entry["report"]), "rb") as handle:
        golden = handle.read()
    assert report == golden
    assert out.encode("utf-8") == golden


if __name__ == "__main__":
    import tempfile

    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory() as scratch:
        capture(scratch)
