"""Span recording for the traced run.

The traced child rebinds public semikit functions and methods to span
recorders: every module attribute (in semikit and in the benchmark's own
modules) that refers to a wrapped function is replaced, so calls made
through ``from .x import f`` names are seen too. Nothing under ``src/``
changes. Spans live in memory as ``[name, start, end, parent, op, tag,
raised]`` and are written out when the run ends.

A span's self time is its duration minus the time its direct child spans
cover; spans nest strictly because the run is single-threaded.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time

_NAME, _START, _END, _PARENT, _OP, _TAG, _RAISED = range(7)

# Layer span name -> (module, attribute) pairs it wraps.
FUNCTIONS = {
    "semimodule.axiom_audit": [("semikit.semimodule", "axiom_audit")],
    "semimodule.coords": [("semikit.semimodule", "coords")],
    "geometry.metric": [("semikit.geometry", "metric")],
    "geometry.norm": [("semikit.geometry", "norm")],
    "geometry.operator_norm": [("semikit.geometry", "operator_norm")],
    "eigen.perron": [("semikit.eigen", "perron_power_iteration")],
    "derived.closure": [("semikit.derived", "space_closure_audit")],
    "derived.category": [("semikit.derived", "category_laws_audit")],
    "signed.solve_nonneg": [("semikit._signed", "solve_nonneg")],
    "signed.nonneg_solution_kind": [("semikit._signed", "nonneg_solution_kind")],
    "semilinear.image_member": [("semikit.semilinear", "image_member")],
    "semialgebra.invert": [("semikit.semialgebra", "invert")],
    "semialgebra.embedding": [
        ("semikit.semialgebra", "left_regular_embedding_audit"),
        ("semikit.semialgebra", "left_regular_embed"),
    ],
    "fuzzy": [("semikit.fuzzy", "mcdm_rank"), ("semikit.fuzzy", "axiom_audit_ln")],
    "jsonio.parse": [
        ("semikit.jsonio", name)
        for name in (
            "load_payload", "load_matrix_file", "parse_scalar_text", "parse_vector",
            "parse_matrix", "parse_matrix_csv", "parse_basis", "parse_map",
            "parse_sequence", "parse_plfn", "parse_fuzzy", "parse_ln_vector",
            "parse_semimetric", "parse_signed",
        )
    ],
    "jsonio.render": [
        ("semikit.jsonio", "build_report"),
        ("semikit.jsonio", "render_json"),
        ("semikit.jsonio", "render_table"),
    ],
}


def _ncols(args, kwargs):
    return args[0].ncols


def _perron_iterations(result):
    return result.certificate["iterations"]


# Layer span name -> (class path, method, tag from arguments).
METHODS = {
    "semimodule.apply": ("semikit.semimodule", "SemiMatrix", "apply", _ncols),
    "semimodule.matmul": ("semikit.semimodule", "SemiMatrix", "__matmul__", _ncols),
}

RESULT_TAGS = {"eigen.perron": _perron_iterations}


class Tracer:
    """In-memory span recorder; one per traced child."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = -1
        self._restore = []

    def wrap(self, name, fn, arg_tag=None, result_tag=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op,
                   arg_tag(args, kwargs) if arg_tag else None, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[_RAISED] = True
                raise
            finally:
                stack.pop()
                rec[_END] = clock()
            if result_tag is not None:
                rec[_TAG] = result_tag(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, extra_modules=()):
        """Rebind every wrapped function and method; undo with uninstall()."""
        for mod_name, _ in (t for targets in FUNCTIONS.values() for t in targets):
            importlib.import_module(mod_name)
        importlib.import_module("semikit.cli")
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "semikit"]
        modules += list(extra_modules)
        for name, targets in FUNCTIONS.items():
            for mod_name, attr in targets:
                orig = getattr(importlib.import_module(mod_name), attr)
                traced = self.wrap(name, orig, result_tag=RESULT_TAGS.get(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, traced)
                            self._restore.append((mod, key, orig))
        for name, (mod_name, cls_name, attr, tag) in METHODS.items():
            cls = getattr(importlib.import_module(mod_name), cls_name)
            orig = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(name, orig, arg_tag=tag))
            self._restore.append((cls, attr, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans):
    """Total self seconds per span name."""
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec[_PARENT] >= 0:
            covered[rec[_PARENT]] += rec[_END] - rec[_START]
    out = {}
    for i, rec in enumerate(spans):
        out[rec[_NAME]] = out.get(rec[_NAME], 0.0) + (rec[_END] - rec[_START] - covered[i])
    return out


def _durations(spans, name, keep=lambda rec: True):
    return [rec[_END] - rec[_START] for rec in spans if rec[_NAME] == name and keep(rec)]


def _median(values, scale=1.0):
    return statistics.median(values) * scale if values else None


def _op_p50_ms(records, prefix):
    return _median([lat for cls, lat, _ in records if cls.startswith(prefix)], 1e3)


def layer_metrics(workload, spans, records, extra):
    """Per-layer metrics whose home is ``workload``: {name: (value, unit)}.

    ``records`` are the child's (class, latency, status) op records;
    ``extra`` holds values the child measured outside spans.
    """
    selfs = self_times(spans)
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    if workload == "kernels":
        put("scalar.chain.ops_per_s.small", extra["scalar_small"], "1/s")
        put("scalar.chain.ops_per_s.wide", extra["scalar_wide"], "1/s")
        put("semimodule.apply.us_per_call.n2",
            _median(_durations(spans, "semimodule.apply", lambda r: r[_TAG] <= 2), 1e6), "us")
        put("semimodule.apply.us_per_call.n8",
            _median(_durations(spans, "semimodule.apply", lambda r: r[_TAG] == 8), 1e6), "us")
        put("semimodule.matmul.ms_per_call.n8",
            _median(_durations(spans, "semimodule.matmul", lambda r: r[_TAG] == 8), 1e3), "ms")
        for name in ("semimodule.axiom_audit", "geometry.metric", "geometry.norm",
                     "geometry.operator_norm", "eigen.perron", "derived.closure",
                     "derived.category", "semialgebra.embedding"):
            put(f"{name}.self_s", selfs.get(name, 0.0), "s")
        put("eigen.perron.iterations",
            sum(rec[_TAG] for rec in spans if rec[_NAME] == "eigen.perron" and rec[_TAG]), "count")
    elif workload == "oracle":
        for verdict in ("unique", "multiple", "infeasible"):
            put(f"semimodule.coords.p50_ms.{verdict}", _op_p50_ms(records, f"coords.{verdict}."), "ms")
        for name in ("signed.solve_nonneg", "signed.nonneg_solution_kind",
                     "semilinear.image_member", "semialgebra.invert"):
            put(f"{name}.self_s", selfs.get(name, 0.0), "s")
        put("signed.timeouts", sum(1 for _, _, status in records if status == "timeout"), "count")
        outer = [rec for rec in spans if rec[_NAME].startswith("signed.")
                 and (rec[_PARENT] < 0 or not spans[rec[_PARENT]][_NAME].startswith("signed."))]
        answered = sum(1 for rec in outer if not rec[_RAISED])
        put("signed.answered_ratio", answered / len(outer) if outer else None, "ratio")
        for k in range(9):
            put(f"semilinear.image_member.p50_ms.k{k}", _op_p50_ms(records, f"image_member.k{k}."), "ms")
    elif workload == "cli":
        for name in ("fuzzy", "jsonio.parse", "jsonio.render"):
            put(f"{name}.self_s", selfs.get(name, 0.0), "s")
        put("cli.report_bytes", extra["report_bytes"], "bytes")
        for command in ("axioms", "audit", "eigen", "metric", "opnorm", "mcdm", "algebra"):
            put(f"cli.{command}.p50_ms", _op_p50_ms(records, f"cli.{command}"), "ms")
    return out
