"""A standing property test of the CLI boundary.

main() is called in-process on generated command lines for every
subcommand. Each command is built well-formed, then perhaps spoilt: a
malformed literal, a wrong shape, an unknown key or a value of the wrong
type in one input file; an unreadable or missing file; a bad --out path; a
flag the command does not take, or one its mode does not read (--tol with
eigen --exact-2x2); a count past its cap. Counts are also drawn at their
caps, one at a time. Whatever the input, main() returns 0, 1 or 2 within a
CPU-time bound; a JSON report is strict JSON; exit 1 carries a documented
payload; exit 2 prints an error line and no report; and the only exception
is argparse's SystemExit(2) for a command line it refuses.
"""

import json
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from semikit.cli import MAX_DIM, MAX_HOM_ORDER, MAX_HOM_PAIRS, MAX_HOM_SAMPLES, MAX_SAMPLES, main

# CPU seconds one call may take. Counts reach their caps one at a time here,
# the other counts small, and a samples count only in its command's cheapest
# setting, so that the test stays short; every call stays far below this.
CALL_CPU_S = 3.0

good = st.sampled_from(["0", "1", "2", "3/2", "1/4", "0.5", "5"])
positive = st.sampled_from(["1", "2", "3/2", "1/4"])
unit = st.sampled_from(["0", "1/4", "1/3", "0.5", "1"])
bad = st.sampled_from(["-1", "1/0", "x", "", "1e3", "7" * 4301, None, True, 2.5, float("nan"), -2])
junk = st.sampled_from([None, True, 0, 2.5, "x", [], {}, [[[]]]])
sizes = st.integers(1, 3)


def grid(rows, cols, entry=good):
    return st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def _with_first_literal(payload, new):
    """payload with its first string literal, depth first, replaced by new."""
    if isinstance(payload, str):
        return new
    if isinstance(payload, list) and payload:
        return [_with_first_literal(payload[0], new), *payload[1:]]
    if isinstance(payload, dict) and payload:
        key = min(payload)
        return {**payload, key: _with_first_literal(payload[key], new)}
    return payload


def _reshaped(payload):
    """payload with its first row one entry longer, or its last item or
    first key dropped."""
    if isinstance(payload, list) and payload and isinstance(payload[0], list):
        return [payload[0] + payload[0][:1], *payload[1:]]
    if isinstance(payload, list):
        return payload[:-1]
    if isinstance(payload, dict):
        return {k: payload[k] for k in sorted(payload)[1:]}
    return payload


# Raw file contents that no grammar accepts.
_RAW = {
    "unclosed": b"{",
    "not-utf8": b"\xff\xfe",
    "deep": b"[" * 100000,
    "nan": b"NaN",
    "past-float": b"1e999",
}


_FILE_DEFECTS = ["literal", "shape", "unknown key", "junk", "missing", *_RAW]


@st.composite
def broken(draw, arg, defect):
    """A file argument (kind, payload) with one defect from _FILE_DEFECTS:
    in its payload, a raw text no grammar accepts, or no file at all."""
    kind, payload = arg
    if defect == "literal":
        return kind, _with_first_literal(payload, draw(bad))
    if defect == "shape":
        return kind, _reshaped(payload)
    if defect == "unknown key":
        keyed = payload if isinstance(payload, dict) else {"matrix": payload}
        return kind, {**keyed, "bogus": 1}
    if defect == "junk":
        return kind, draw(junk)
    if defect == "missing":
        return "missing", None
    return "raw", defect


def file_arg(payload, csv=False):
    """A file argument (kind, payload), written as JSON or, where a matrix
    file is read, sometimes as CSV."""
    kinds = ["json", "json", "csv"] if csv else ["json"]
    return st.tuples(st.sampled_from(kinds), payload)


_MALFORMED_COUNTS = [0, -1, True, 2.5, "x", None]


@st.composite
def counts(draw, caps):
    """Small counts, or the default where a flag is left out; at most one
    count is at its cap, one past it, or malformed (None in a spec)."""
    values = {name: draw(st.sampled_from([1, 2, 3, "2", None])) for name in caps}
    name = draw(st.sampled_from(sorted(caps)))
    mode = draw(st.sampled_from([None, None, "cap", "past", "malformed"]))
    if mode == "cap":
        values[name] = caps[name]
    elif mode == "past":
        values[name] = caps[name] + 1
    elif mode == "malformed":
        values[name] = draw(st.sampled_from(_MALFORMED_COUNTS))
    return values


def flag(name, value):
    return [] if value is None else [name, str(value)]


square = sizes.flatmap(lambda n: grid(n, n))
two_by_two = st.one_of(
    grid(2, 2),
    st.tuples(good, good).map(lambda t: [[t[0], "0"], ["0", t[1]]]),
    st.tuples(good, good).map(lambda t: [[t[0], t[1]], ["0", t[0]]]),
)
norm_kind = st.sampled_from(["l1", "l2", "linf"])


@st.composite
def eigen(draw):
    mode = draw(st.sampled_from(["--exact-2x2", "--perron"]))
    m = draw(st.one_of(two_by_two, square, square.map(lambda m: {"matrix": m})))
    tol = draw(st.sampled_from([None, None, "1e-9", "1e-12", "1e-300", "0", "x", "inf"]))
    return ["eigen", "--matrix", draw(file_arg(st.just(m), csv=True)), mode, *flag("--tol", tol)]


@st.composite
def metric(draw):
    n = draw(sizes)
    x, y = draw(grid(2, n))
    return ["metric", "--kind", draw(norm_kind), draw(file_arg(st.just(x))), draw(file_arg(st.just(y)))]


@st.composite
def opnorm(draw):
    m = draw(st.tuples(sizes, sizes).flatmap(lambda t: grid(*t)))
    tol = draw(st.sampled_from([None, None, "1e-9", "-1", "1e-300"]))
    return ["opnorm", "--kind", draw(norm_kind), draw(file_arg(st.just(m), csv=True)), *flag("--tol", tol)]


def _pair_table(a):
    return [["0", a], [a, "0"]]


pair_tables = st.tuples(positive, positive).map(lambda t: [_pair_table(t[0]), _pair_table(t[1])])
plfn = st.tuples(st.sampled_from(["0", "0", "0", "1"]), good, good).map(
    lambda t: {"a": "0", "b": "2", "breakpoints": ["0", "1", "2"], "values": list(t)}
)


@st.composite
def audit(draw):
    family = draw(st.sampled_from(
        ["semimetric", "seminorm", "semiinner", "sublinear", "preserver", "category"]
    ))
    c = draw(counts({"--dim": MAX_DIM, "--samples": MAX_SAMPLES, "dim": MAX_DIM, "dims": MAX_DIM}))
    if c["--samples"] == MAX_SAMPLES:
        family = "semimetric"  # its cheapest family: the cap is accepted in well under 0.1 s
    argv = ["audit", "--family", family, *flag("--dim", c["--dim"]), *flag("--samples", c["--samples"])]
    fields = {"tables": pair_tables, "metrics": pair_tables, "fn": plfn, "lambda": good}
    if c["dim"] is not None:
        fields["dim"] = st.just(c["dim"])
    if c["dims"] is not None:
        fields["dims"] = st.just([c["dims"], 1, 2, 1])
    spec = st.fixed_dictionaries({}, optional=fields)
    if draw(st.booleans()):
        argv.append(draw(file_arg(spec)))
    if family == "preserver" and draw(st.integers(0, 3)):
        argv += ["--fn", draw(file_arg(plfn))]
    return argv


def _table_pairs(count, order):
    """count (a table spec's number of pairs) pairs of order x order
    matrices, drawn as one pair repeated, so that a count at its cap stays
    cheap to draw; a count that is no integer is the pairs value itself."""
    if type(count) is not int:
        return st.just(count)
    order = order if type(order) is int and order > 0 else 2
    return st.tuples(grid(order, order), grid(order, order)).map(lambda p: [list(p)] * max(count, 0))


@st.composite
def check_hom(draw):
    c = draw(counts({"samples": MAX_HOM_SAMPLES, "order": MAX_HOM_ORDER, "pairs": MAX_HOM_PAIRS}))
    hom = draw(st.sampled_from(["monomial_conjugation", "identity", "entrywise_square", "table", "x"]))
    if c["samples"] == MAX_HOM_SAMPLES:
        hom, c["order"] = "identity", 1
    if c["pairs"] in (MAX_HOM_PAIRS, MAX_HOM_PAIRS + 1):
        hom = "table"
    spec = {"kind": hom, "order": 2 if c["order"] is None else c["order"]}
    if c["samples"] is not None:
        spec["samples"] = c["samples"]
    if hom == "monomial_conjugation":
        order = spec.pop("order")
        order = order if type(order) is int and order > 0 else 2
        spec["perm"] = draw(st.permutations(range(1, order + 1)))
        spec["diag"] = draw(st.lists(positive, min_size=order, max_size=order))
    elif hom == "table" and c["pairs"] is None:
        spec["pairs"] = draw(st.lists(st.tuples(grid(2, 2), grid(2, 2)).map(list), min_size=1, max_size=3))
    elif hom == "table":
        spec["pairs"] = draw(_table_pairs(c["pairs"], spec.pop("order")))
    if draw(st.booleans()):
        spec["surjective"] = True
    return spec


algebra_specs = {
    "check-hom": check_hom(),
    "embed": sizes.flatmap(lambda n: st.fixed_dictionaries(
        {"element": grid(n, n)}, optional={"partner": grid(n, n), "lambda": good}
    )),
    "lie-audit": st.integers(1, 2).flatmap(
        lambda n: st.lists(grid(n, n), min_size=n, max_size=n).map(lambda c: {"constants": c})
    ),
}


@st.composite
def algebra(draw):
    action = draw(st.sampled_from(sorted(algebra_specs)))
    return ["algebra", action, draw(file_arg(algebra_specs[action]))]


def _nondecreasing(values):
    return sorted(values, key=Fraction)


@st.composite
def mcdm(draw):
    n = draw(sizes)
    alts = draw(st.lists(st.lists(unit, min_size=n, max_size=n).map(_nondecreasing), min_size=1, max_size=3))
    weights = draw(st.lists(unit | st.just("3/2"), min_size=n, max_size=n))
    perm = ",".join(map(str, draw(st.permutations(range(1, n + 1)))))
    perm = draw(st.sampled_from([perm] * 6 + ["0", "1,1", " 1", "x", "", "9" * 5000]))
    return ["mcdm", "rank", "--alts", draw(file_arg(st.just(alts))),
            "--weights", draw(file_arg(st.just(weights))), "--perm", perm]


@st.composite
def axioms(draw):
    c = draw(counts({"--dim": MAX_DIM, "--samples": MAX_SAMPLES}))
    space = draw(st.sampled_from(["rn", "matrices", "polynomials", "all"]))
    if c["--samples"] in (None, MAX_SAMPLES):  # at the cap, or the default of 1000
        space, c["--dim"] = "rn", 1
    return ["axioms", "--space", space, *flag("--dim", c["--dim"]), *flag("--samples", c["--samples"])]


_OTHER_DEFECTS = {
    "missing-dir": ("missing-dir", []),
    "directory": ("directory", []),
    "--tol": ("stdout", ["--tol", "1e-9"]),
    "--bogus": ("stdout", ["--bogus"]),
}


@st.composite
def cases(draw, defect):
    """(argv with file arguments, seed, format, --out target, extra flags):
    a generated command with the given defect, or none."""
    argv = draw(st.one_of(eigen(), metric(), opnorm(), audit(), algebra(), mcdm(), axioms()))
    out, extra = draw(st.sampled_from(["stdout", "file"])), []
    files = [i for i, arg in enumerate(argv) if isinstance(arg, tuple)]
    if defect in _OTHER_DEFECTS:
        out, extra = _OTHER_DEFECTS[defect]
    elif defect is not None and files:
        i = draw(st.sampled_from(files))
        argv[i] = draw(broken(argv[i], defect))
    seed = draw(st.sampled_from([None, "0", "7", "-3"]))
    fmt = draw(st.sampled_from(["json", "json", "table"]))
    return argv, seed, fmt, out, extra


def _csv(payload):
    if isinstance(payload, list) and all(isinstance(row, list) for row in payload):
        return "\n".join(",".join(map(str, row)) for row in payload) + "\n"
    return str(payload)


def _materialise(tmp, argv):
    """argv with each file argument written under tmp and replaced by its path."""
    out = []
    for i, arg in enumerate(argv):
        if isinstance(arg, tuple):
            ftype, payload = arg
            path = tmp / f"in{i}.{'csv' if ftype == 'csv' else 'json'}"
            if ftype == "json":
                path.write_text(json.dumps(payload))
            elif ftype == "csv":
                path.write_text(_csv(payload))
            elif ftype == "raw":
                path.write_bytes(_RAW[payload])
            arg = str(path)
        out.append(arg)
    return out


def _strict(constant):
    raise ValueError(f"{constant} is not JSON")


_SETTINGS = dict(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


@settings(max_examples=50, **_SETTINGS)
@given(case=cases(None))
def test_commands(case, tmp_path_factory, capsys):
    _check(case, tmp_path_factory, capsys)


def _table_hom(count, order):
    """check-hom on a table of count copies of one pair of order x order
    diagonal matrices."""
    m = [["1/2" if i == j else "0" for j in range(order)] for i in range(order)]
    return ["algebra", "check-hom", ("json", {"kind": "table", "pairs": [[m, m]] * count})]


def _eigen(mode, m):
    return ["eigen", "--matrix", ("json", m), mode, "--tol", "1e-9"]


# The caps of a table hom and --tol with eigen --exact-2x2, each at its
# limit and one past it: (command, whether it must exit 2).
_AT_AND_PAST = {
    "pairs-at-cap": (_table_hom(MAX_HOM_PAIRS, 2), False),
    "pairs-past-cap": (_table_hom(MAX_HOM_PAIRS + 1, 2), True),
    "order-at-cap": (_table_hom(1, MAX_HOM_ORDER), False),
    "order-past-cap": (_table_hom(1, MAX_HOM_ORDER + 1), True),
    "perron-tol": (_eigen("--perron", [["2", "1"], ["1", "2"]]), False),
    "exact-2x2-tol": (_eigen("--exact-2x2", [["2", "0"], ["0", "5"]]), True),
}


@pytest.mark.parametrize("case", sorted(_AT_AND_PAST))
@pytest.mark.parametrize("fmt", ["json", "table"])
def test_at_and_past_limits(case, fmt, tmp_path_factory, capsys):
    command, refused = _AT_AND_PAST[case]
    code = _check((list(command), "0", fmt, "stdout", []), tmp_path_factory, capsys)
    assert (code == 2) == refused


# Each kind of defect gets its own examples: one draw from a flat list
# would leave the rarer kinds to chance.
@pytest.mark.parametrize("defect", _FILE_DEFECTS + sorted(_OTHER_DEFECTS))
@settings(max_examples=5, **_SETTINGS)
@given(data=st.data())
def test_commands_with_one_defect(defect, data, tmp_path_factory, capsys):
    _check(data.draw(cases(defect)), tmp_path_factory, capsys)


def _check(case, tmp_path_factory, capsys):
    """Run one case through main(), check the contract of the boundary, and
    return the exit code."""
    command, seed, fmt, out, extra = case
    name = command[0]
    tmp = tmp_path_factory.mktemp("boundary")
    argv = _materialise(tmp, command) + flag("--seed", seed) + ["--format", fmt] + extra
    target = {
        "stdout": None,
        "file": tmp / "report.out",
        "missing-dir": tmp / "missing" / "report.out",
        "directory": tmp,
    }[out]
    if target is not None:
        argv += ["--out", str(target)]

    start = time.process_time()
    try:
        code = main(argv)
        by_argparse = False
    except SystemExit as exc:
        code, by_argparse = exc.code, True
    spent = time.process_time() - start
    captured = capsys.readouterr()

    assert spent < CALL_CPU_S, (argv, spent)
    assert code in (0, 1, 2), argv
    if name == "eigen" and "--exact-2x2" in argv and "--tol" in argv:
        assert code == 2, argv  # --tol is read by --perron only
    if by_argparse or code == 2:
        assert code == 2 and captured.out == "" and "error: " in captured.err, argv
        return code
    # a flag the command does not take, or an unwritable --out, exits 2
    assert extra != ["--bogus"] and out in ("stdout", "file"), argv
    assert not extra or name in ("eigen", "opnorm"), argv
    text = captured.out if target is None else target.read_text()
    if fmt == "json":
        report = json.loads(text, parse_constant=_strict)
        assert report["command"] == name
        if code == 1:
            # exit 1: a failed audit with its report, or eigen's error report
            assert name in ("audit", "algebra", "axioms") or "error" in report, argv
    else:
        assert text.endswith("\n") and not text.startswith("{")
    return code
