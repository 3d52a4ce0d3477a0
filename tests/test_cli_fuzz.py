"""Seeded fuzzing of the CLI input boundary.

Each run takes a valid invocation over the shipped samples, applies one
mutation (drop, float, bool, string, negative, null, empty list, huge int
or duplicate) to one of its input documents, and runs the command.
Rejected input must exit 2 with an ``error:`` line, never exit 3; a check
may still pass or fail.  Every mutated document that parses must round-trip:
``emit_document(parse_document(x))`` is a fixpoint.
"""

import contextlib
import copy
import io
import json
import os
import random

from defcalc.cli import _COMMANDS, CliError, emit_document, main, parse_document

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
S = os.path.join(ROOT, "sample_inputs")
G = os.path.join(ROOT, "tests", "golden", "inputs")

SEED = 20261018
RUNS = 600
OPTIONS = ["--weight", "2", "--order", "3"]

# Valid invocations; every command appears.
INVOCATIONS = [
    ("check-dgla", [(S, "dgla_obstructed.json")]),
    ("check-dgla", [(S, "dgla_contractible.json")]),
    ("check-linfty", [(S, "linfty_obstructed.json")]),
    ("check-linfty", [(S, "dgla_obstructed.json")]),
    ("check-morphism", [(S, "hitchin_r2_nilpotent.json")]),
    ("check-morphism", [(S, "hitchin_r2_zero.json"), (S, "cdga_interval.json")]),
    ("cohomology", [(S, "dgla_contractible.json")]),
    ("cohomology", [(S, "cdga_interval.json")]),
    ("cohomology", [(S, "hitchin_r2_zero.json"), (S, "cdga_interval.json")]),
    ("mc-solve", [(S, "dgla_obstructed.json")]),
    ("mc-solve", [(S, "hitchin_r2_nilpotent.json"), (S, "cdga_interval.json")]),
    ("gauge-equiv", [(S, "dgla_contractible.json"), (S, "mc_flow_x.json"),
                     (S, "mc_flow_y.json")]),
    ("gauge-equiv", [(S, "dgla_obstructed.json"), (G, "mc_e1_plus.json"),
                     (G, "mc_e1_minus.json")]),
    ("hitchin-build", [(S, "hitchin_r2_nilpotent.json")]),
    ("hitchin-verify", [(S, "hitchin_r2_zero.json"), (S, "cdga_interval.json")]),
    ("pushforward", [(S, "hitchin_r2_zero.json"), (G, "mc_r2_t4.json"),
                     (S, "cdga_interval.json")]),
    ("hitchin-map", [(S, "hitchin_r2_zero.json"), (G, "mc_r2_t4.json")]),
    ("obstruction", [(S, "hitchin_r2_nilpotent.json")]),
    ("check-dgla", [(S, "artin_t3.json")]),
]

REPLACEMENTS = {
    "float": 0.5,
    "bool": True,
    "string": "x",
    "negative": -1,
    "null": None,
    "empty list": [],
    "huge int": 10**12,
}
MUTATIONS = ["drop", "duplicate"] + sorted(REPLACEMENTS)


def nodes(value, path=()):
    """Every (path, value) in a JSON tree, parents before children."""
    yield path, value
    if isinstance(value, dict):
        for key, child in value.items():
            yield from nodes(child, path + (key,))
    elif isinstance(value, list):
        for pos, child in enumerate(value):
            yield from nodes(child, path + (pos,))


def locate(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def mutate(doc, rng):
    """A copy of doc with one mutation applied, and the mutation's name."""
    doc = copy.deepcopy(doc)
    name = rng.choice(MUTATIONS)
    every = list(nodes(doc))
    if name == "drop":
        node = rng.choice([n for _, n in every if isinstance(n, (dict, list)) and n])
        del node[rng.choice(list(node) if isinstance(node, dict) else range(len(node)))]
    elif name == "duplicate":
        lists = [n for _, n in every if isinstance(n, list) and n]
        if not lists:
            return mutate(doc, rng)
        node = rng.choice(lists)
        node.insert(rng.randrange(len(node) + 1), copy.deepcopy(rng.choice(node)))
    else:
        path, _ = rng.choice(every[1:])
        locate(doc, path[:-1])[path[-1]] = copy.deepcopy(REPLACEMENTS[name])
    return doc, name


def load(directory, name):
    with open(os.path.join(directory, name), encoding="utf-8") as handle:
        return json.load(handle)


def fuzz_cases(seed, runs):
    """(command, argv files, mutated slot, mutation name, mutated document)."""
    rng = random.Random(seed)
    for _ in range(runs):
        command, files = rng.choice(INVOCATIONS)
        slot = rng.randrange(len(files))
        doc, name = mutate(load(*files[slot]), rng)
        yield command, files, slot, name, doc


def run_case(tmp_path, command, files, slot, doc):
    """Write the mutated document, run the command: (code, stderr, parsed doc)."""
    mutated = tmp_path / "mutated.json"
    mutated.write_text(json.dumps(doc), encoding="utf-8")
    try:
        parsed = parse_document(str(mutated))
    except CliError:
        parsed = None
    argv = [command] + [
        str(mutated) if pos == slot else os.path.join(*where)
        for pos, where in enumerate(files)
    ] + OPTIONS
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue(), parsed


def test_mutated_samples_never_reach_an_internal_error(tmp_path):
    seen = set()
    for command, files, slot, name, doc in fuzz_cases(SEED, RUNS):
        seen.add(command)
        code, err, parsed = run_case(tmp_path, command, files, slot, doc)
        label = f"{command} {files[slot][1]} ({name}): exit {code}: {err.strip()}"
        assert code in (0, 1, 2), label
        assert not err.startswith("internal error"), label
        assert code != 2 or err.startswith("error: "), label
        if parsed is not None:
            text = emit_document(parsed)
            echo = tmp_path / "echo.json"
            echo.write_text(text, encoding="utf-8")
            assert emit_document(parse_document(str(echo))) == text, label
    assert seen == set(_COMMANDS)
