"""Span tracing of defcalc's layers from outside the program.

install() replaces each traced function or method with a wrapper, on its
defining module or class and on every defcalc module that bound the same
object with `from .x import y`.  A wrapper records one span (name, start,
end, parent) and keeps per-name aggregates: calls, entries from another
layer, total time and self time (duration minus the time of child spans).
Spans are kept in memory, up to MAX_SPANS of them; the aggregates are exact
however many there are.  uninstall() puts the original objects back.
"""

from __future__ import annotations

import time
from array import array

MAX_SPANS = 200_000

# (module, attribute path, span name); the span name's prefix is its layer
TRACED = (
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "nullspace", "linalg.nullspace"),
    ("linalg", "solve", "linalg.solve"),
    ("linalg", "extend_independent", "linalg.extend_independent"),
    ("linalg", "PreparedSolve.__init__", "linalg.prepare"),
    ("linalg", "PreparedSolve.solve", "linalg.prepared_solve"),
    ("graded", "koszul_sign", "sign.koszul_sign"),
    ("graded", "wedge_word", "sign.wedge_word"),
    ("linfty", "normalize_word", "sign.normalize_word"),
    ("graded", "complex_cohomology", "cohomology.complex_cohomology"),
    ("graded", "CohomologySummary.project", "cohomology.project"),
    ("dgla", "bracket_artin", "artin.bracket_artin"),
    ("dgla", "check_dgla", "check.dgla"),
    ("dgla", "check_cdga", "check.cdga"),
    ("dgla", "mc_solve", "mc.solve"),
    ("dgla", "mc_residual", "mc.residual"),
    ("dgla", "gauge_act", "mc.gauge_act"),
    ("dgla", "gauge_equivalent", "mc.gauge_equivalent"),
    ("dgla", "bch_product", "mc.bch"),
    ("linfty", "basis_words", "coalg.basis_words"),
    ("linfty", "linfty_from_dgla", "coalg.from_dgla"),
    ("linfty", "coderivation_extend", "coalg.coderivation_extend"),
    ("linfty", "morphism_extend", "coalg.morphism_extend"),
    ("linfty", "check_codifferential", "coalg.check_codifferential"),
    ("linfty", "check_linfty_morphism", "coalg.check_morphism"),
    ("linfty", "LInftyMorphism.component", "coalg.component"),
    ("linfty", "pushforward_mc", "coalg.pushforward"),
    ("linfty", "linfty_mc_residual", "coalg.mc_residual"),
    ("hitchin", "build_hitchin_dgla", "hitchin.build_dgla"),
    ("hitchin", "build_hitchin_morphism", "hitchin.build_morphism"),
    ("hitchin", "hitchin_target", "hitchin.target"),
    ("hitchin", "matrix_wedge_dgla", "hitchin.matrix_wedge_dgla"),
    ("hitchin", "_word_trace_sum", "hitchin.word_trace_sum"),
    ("hitchin", "g_coefficient", "hitchin.g_coefficient"),
    ("hitchin", "hitchin_map", "hitchin.map"),
    ("hitchin", "obstruction_kernel_map", "hitchin.kernel"),
    ("cli", "parse_document", "cli.parse"),
    ("cli", "run_command", "cli.run"),
    ("cli", "main", "cli.main"),
)


def _matrix_cells(name, args):
    """Sum of rows x cols handed to a linalg entry point."""
    if name == "linalg.prepare":
        rows, ncols = args[1], args[2]
        return len(rows) * ncols
    if name == "linalg.prepared_solve":
        prepared = args[0]
        return prepared.nrows * prepared.ncols
    if name == "linalg.nullspace":
        return len(args[0]) * args[1]
    if name == "linalg.extend_independent":
        return args[2] * (len(args[0]) + len(args[1]))
    rows = args[0]
    return len(rows) * (len(rows[0]) if rows else 0)


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.dropped = 0
        self.stack = []  # [name, layer, span index, child time]
        self.agg = {}  # name -> [calls, entries, total, self]
        self.counters = {}
        self.patched = []

    # -- recording ------------------------------------------------------------

    def count(self, key, value=1):
        self.counters[key] = self.counters.get(key, 0) + value

    def reset(self):
        self.agg = {}
        self.counters = {}

    def wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self.name_ids[name]
        stack = self.stack
        clock = time.perf_counter
        hook = _HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            entry = parent is None or parent[1] != layer
            index = -1
            if len(tracer.span_start) < MAX_SPANS:
                index = len(tracer.span_start)
                tracer.span_name.append(name_id)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
                tracer.span_parent.append(parent[2] if parent else -1)
            else:
                tracer.dropped += 1
            frame = [name, layer, index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if index >= 0:
                    tracer.span_start[index] = start
                    tracer.span_end[index] = end
                if parent is not None:
                    parent[3] += duration
                agg = tracer.agg.get(name)
                if agg is None:
                    agg = tracer.agg[name] = [0, 0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += entry
                agg[2] += duration
                agg[3] += duration - frame[3]
            if hook is not None:
                hook(tracer, args, result, entry)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------------

    def install(self, lib):
        modules = [getattr(lib, m) for m in lib.MODULES] + [lib.package]
        for module_name, path, span in TRACED:
            owner = getattr(lib, module_name)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
            wrapper = self.wrap(span, original)
            self._set(owner, parts[-1], original, wrapper)
            if len(parts) == 1:
                for module in modules:
                    if module is not owner and getattr(module, parts[-1], None) is original:
                        self._set(module, parts[-1], original, wrapper)

    def _set(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self.patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched = []

    # -- reporting ------------------------------------------------------------

    def snapshot(self):
        """Per-layer metrics of the work recorded since the last reset."""
        agg, counters = self.agg, self.counters

        def calls(*names):
            return sum(agg.get(n, (0,))[0] for n in names)

        def entries(prefix):
            return sum(a[1] for n, a in agg.items() if n.startswith(prefix))

        def self_s(*prefixes):
            return sum(a[3] for n, a in agg.items() if n.startswith(prefixes))

        signs = ("sign.koszul_sign", "sign.wedge_word", "sign.normalize_word")
        return {
            "linalg.calls": entries("linalg."),
            "linalg.self_s": self_s("linalg."),
            "linalg.cells": counters.get("linalg.cells", 0),
            "graded.sign_calls": calls(*signs),
            "graded.sign_s": self_s("sign."),
            "graded.cohomology_calls": calls("cohomology.complex_cohomology"),
            "graded.cohomology_s": self_s("cohomology."),
            "artin.bracket_calls": calls("artin.bracket_artin"),
            "artin.bracket_s": self_s("artin."),
            "check.dgla_calls": calls("check.dgla"),
            "check.dgla_s": self_s("check.dgla"),
            "check.cdga_s": self_s("check.cdga"),
            "check.failed": counters.get("check.failed", 0),
            "mc.solve_calls": calls("mc.solve"),
            "mc.solve_s": self_s("mc.solve", "mc.residual"),
            "mc.residual_calls": calls("mc.residual"),
            "mc.events": counters.get("mc.events", 0),
            "mc.corrections": counters.get("mc.corrections", 0),
            "mc.blocked": counters.get("mc.blocked", 0),
            "mc.lifts": counters.get("mc.lifts", 0),
            "mc.gauge_calls": calls("mc.gauge_act", "mc.gauge_equivalent"),
            "mc.gauge_s": self_s("mc.gauge_"),
            "mc.bch_calls": calls("mc.bch"),
            "mc.bch_s": self_s("mc.bch"),
            "coalg.words": counters.get("coalg.words", 0),
            "coalg.extend_calls": calls("coalg.coderivation_extend", "coalg.morphism_extend"),
            "coalg.component_calls": calls("coalg.component"),
            "coalg.codiff_s": self_s(
                "coalg.check_codifferential", "coalg.coderivation_extend",
                "coalg.basis_words", "coalg.from_dgla",
            ),
            "coalg.morphism_s": self_s(
                "coalg.check_morphism", "coalg.morphism_extend", "coalg.component"
            ),
            "coalg.pushforward_s": self_s("coalg.pushforward", "coalg.mc_residual"),
            "hitchin.build_s": self_s(
                "hitchin.build_", "hitchin.target", "hitchin.matrix_wedge_dgla"
            ),
            "hitchin.component_s": self_s("hitchin.word_trace_sum", "hitchin.g_coefficient"),
            "hitchin.map_s": self_s("hitchin.map"),
            "hitchin.kernel_s": self_s("hitchin.kernel"),
            "cli.parse_s": self_s("cli.parse"),
            "cli.run_s": self_s("cli.run"),
            "cli.emit_s": self_s("cli.main"),
            "cli.report_bytes": counters.get("cli.report_bytes", 0),
        }

    def spans(self):
        """Recorded spans as (name, start, end, parent index) rows."""
        for i in range(len(self.span_start)):
            yield self.names[self.span_name[i]], self.span_start[i], self.span_end[i], self.span_parent[i]


# -- counters read from arguments and results ----------------------------------


def _make_linalg_hook(name):
    def hook(tracer, args, result, entry):
        if entry:
            tracer.count("linalg.cells", _matrix_cells(name, args))

    return hook


def _check_hook(tracer, args, result, entry):
    if not result.ok:
        tracer.count("check.failed")


def _solve_hook(tracer, args, result, entry):
    for event in result.events:
        tracer.count("mc.blocked" if not event.vanishes() else "mc.corrections")
    tracer.count("mc.events", len(result.events))
    tracer.count("mc.lifts", sum(x is not None for x in result.solutions))


def _words_hook(tracer, args, result, entry):
    tracer.count("coalg.words", len(result))


_HOOKS = {
    name: _make_linalg_hook(name)
    for _, _, name in TRACED
    if name.startswith("linalg.")
}
_HOOKS.update(
    {
        "check.dgla": _check_hook,
        "check.cdga": _check_hook,
        "mc.solve": _solve_hook,
        "coalg.basis_words": _words_hook,
    }
)
