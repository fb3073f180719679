"""File grammars and report serialization for the CLI.

Scalars travel as exact literals and always serialize as
numerator/denominator. Vectors are arrays of literals, matrices arrays of
row arrays (CSV accepted for matrices), sequences as prefix/tail objects,
piecewise-linear functions as breakpoint/value tables, fuzzy numbers as
level/interval tables. Reports are canonical JSON: sorted keys, no
timestamps, so identical inputs and seed give identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction

from ._backend import MAX_LITERAL_DIGITS, bounded_int, signed_rat
from .derived import FiniteSemiMetric, Functional
from .eigen import EigenPair
from .errors import ParseError, ResultTooLarge, SemikitError
from .fuzzy import FuzzyNumber, FuzzyOrder, LnVector, Ordering
from .geometry import EventuallyConstSeq, PiecewiseLinearFn, Radical
from .scalar import NonnegScalar, OrderedDiff
from .semilinear import ImageDecision, SemiLinearMap
from .semimodule import Coordinates, SemiBasis, SemiMatrix, SemiVector

SCHEMA_VERSION = 1


# Results are bounded like literals: a numerator or denominator past
# MAX_LITERAL_DIGITS digits is refused at the report boundary, whatever the
# interpreter's own int/str conversion limit.
_LITERAL_BOUND = 10**MAX_LITERAL_DIGITS


def _literal(q) -> str:
    """numerator/denominator of a rational, or ResultTooLarge."""
    n, d = q.numerator, q.denominator
    if abs(n) >= _LITERAL_BOUND or d >= _LITERAL_BOUND:
        raise ResultTooLarge(
            f"a result has more than {MAX_LITERAL_DIGITS} digits in its "
            "numerator or denominator; it is not rendered"
        )
    return f"{n}/{d}"


def to_jsonable(obj):
    """Recursively convert library objects into JSON-serializable data."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, NonnegScalar):
        return _literal(obj._q)
    if isinstance(obj, Fraction):
        return _literal(obj)
    if isinstance(obj, Radical):
        exact = obj.exact()
        return {
            "radicand": _literal(obj.radicand._q),
            "index": obj.index,
            "exact": _literal(exact._q) if exact is not None else None,
            "float": float(obj),
        }
    if isinstance(obj, OrderedDiff):
        return {"gap": _literal(obj.gap._q), "order": obj.order.value}
    if isinstance(obj, SemiVector):
        return [_literal(c._q) for c in obj]
    if isinstance(obj, SemiMatrix):
        return [[_literal(e._q) for e in obj.row(i)] for i in range(obj.nrows)]
    if isinstance(obj, SemiBasis):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, SemiLinearMap):
        return {"matrix": to_jsonable(obj.matrix)}
    if isinstance(obj, Coordinates):
        return {
            "support": [[i, _literal(c._q)] for i, c in obj.support],
            "certificate": to_jsonable(obj.certificate),
        }
    if isinstance(obj, ImageDecision):
        return {"member": obj.member, "witness": to_jsonable(obj.witness)}
    if isinstance(obj, EigenPair):
        return {
            "value": _literal(obj.value._q),
            "vector": to_jsonable(obj.vector),
            "certificate": to_jsonable(obj.certificate),
        }
    if isinstance(obj, EventuallyConstSeq):
        return {"prefix": [_literal(p._q) for p in obj.prefix], "tail": _literal(obj.tail._q)}
    if isinstance(obj, PiecewiseLinearFn):
        return {
            "a": _literal(obj.a._q),
            "b": _literal(obj.b._q),
            "breakpoints": [_literal(t._q) for t in obj.breakpoints],
            "values": [_literal(v._q) for v in obj.values],
        }
    if isinstance(obj, FiniteSemiMetric):
        return to_jsonable(obj.table)
    if isinstance(obj, Functional):
        return {"functional": obj.label, "dim": obj.dim}
    if isinstance(obj, FuzzyNumber):
        return {
            "levels": [_literal(a) for a in obj.levels],
            "intervals": [
                [_literal(lo), _literal(hi)] for lo, hi in obj.intervals
            ],
        }
    if isinstance(obj, LnVector):
        return [_literal(c) for c in obj]
    if isinstance(obj, (Ordering, FuzzyOrder)):
        return obj.value if isinstance(obj.value, str) else obj.name.lower()
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        items = sorted(obj, key=repr) if isinstance(obj, set) else obj
        return [to_jsonable(v) for v in items]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def build_report(command: str, seed, payload: dict, version: str) -> dict:
    report = {
        "artifact": "semikit",
        "version": version,
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "seed": seed,
    }
    report.update(payload)
    return to_jsonable(report)


def render_json(report: dict) -> str:
    """Canonical JSON text of a report; a non-finite float, which JSON
    cannot represent, is refused with ResultTooLarge."""
    try:
        return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ResultTooLarge(f"a result is not a finite number: {exc}") from None


def _table_lines(value, prefix, out):
    if isinstance(value, dict):
        for k in sorted(value):
            _table_lines(value[k], f"{prefix}{k}.", out)
    elif isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            out.append((prefix.rstrip("."), " ".join(str(v) for v in value)))
        else:
            for i, v in enumerate(value):
                _table_lines(v, f"{prefix}{i}.", out)
    else:
        out.append((prefix.rstrip("."), str(value)))


def render_table(report: dict) -> str:
    rows = []
    _table_lines(report, "", rows)
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows) + "\n"


# ---------------------------------------------------------------------------
# Parsing.

def _wrap_parse(fn, what, payload):
    """fn(payload), with any failure other than a SemikitError raised as a
    ParseError naming `what`: malformed input exits 2, never a traceback."""
    try:
        return fn(payload)
    except SemikitError:
        raise
    except KeyError as exc:
        raise ParseError(f"bad {what}: missing key {exc}") from exc
    except Exception as exc:
        raise ParseError(f"bad {what}: {exc}") from exc


def parse_scalar_text(text) -> NonnegScalar:
    return _wrap_parse(NonnegScalar, "scalar literal", text)


def parse_vector(data) -> SemiVector:
    return _wrap_parse(SemiVector, "vector", data)


def parse_matrix(data) -> SemiMatrix:
    if isinstance(data, dict):
        if data.keys() != {"matrix"}:
            extra = ", ".join(sorted(data.keys() - {"matrix"}))
            raise ParseError(
                'a matrix object needs exactly the key "matrix"'
                + (f"; unknown keys: {extra}" if extra else "")
            )
        data = data["matrix"]
    return _wrap_parse(SemiMatrix, "matrix", data)


def parse_matrix_csv(text: str) -> SemiMatrix:
    rows = [
        [cell.strip() for cell in line.split(",")]
        for line in text.strip().splitlines()
        if line.strip()
    ]
    return _wrap_parse(SemiMatrix, "csv matrix", rows)


def parse_basis(data) -> SemiBasis:
    return _wrap_parse(SemiBasis, "basis", data)


def parse_map(data) -> SemiLinearMap:
    return SemiLinearMap(parse_matrix(data))


def parse_sequence(data) -> EventuallyConstSeq:
    if not isinstance(data, dict) or "prefix" not in data or "tail" not in data:
        raise ParseError('sequence needs {"prefix": [...], "tail": "..."}')
    return _wrap_parse(
        lambda d: EventuallyConstSeq(d["prefix"], d["tail"]), "sequence", data
    )


def parse_plfn(data) -> PiecewiseLinearFn:
    for key in ("a", "b", "breakpoints", "values"):
        if not isinstance(data, dict) or key not in data:
            raise ParseError(
                'function needs {"a", "b", "breakpoints", "values"}'
            )
    return _wrap_parse(
        lambda d: PiecewiseLinearFn(d["a"], d["b"], d["breakpoints"], d["values"]),
        "piecewise-linear function",
        data,
    )


def parse_fuzzy(data) -> FuzzyNumber:
    if not isinstance(data, dict) or "levels" not in data or "intervals" not in data:
        raise ParseError('fuzzy number needs {"levels": [...], "intervals": [[l, r], ...]}')
    return _wrap_parse(
        lambda d: FuzzyNumber(d["levels"], d["intervals"]), "fuzzy number", data
    )


def parse_ln_vector(data) -> LnVector:
    return _wrap_parse(LnVector, "unit-interval vector", data)


def parse_semimetric(data) -> FiniteSemiMetric:
    return _wrap_parse(FiniteSemiMetric, "semi-metric table", data)


def parse_signed(text):
    return _wrap_parse(signed_rat, "rational literal", text)


def load_payload(path: str):
    """Load a JSON file (or CSV for matrices, by extension)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if path.endswith(".csv"):
        return {"__csv__": text}
    try:
        return json.loads(text, parse_int=bounded_int)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def load_matrix_file(path: str) -> SemiMatrix:
    payload = load_payload(path)
    if isinstance(payload, dict) and "__csv__" in payload:
        return parse_matrix_csv(payload["__csv__"])
    return parse_matrix(payload)
