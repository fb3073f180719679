import json
import os
import subprocess
import sys

import pytest

import semikit
from semikit.cli import _build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


class TestEigenCommand:
    def test_exact_2x2_diagonal(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", [["2", "0"], ["0", "5"]])
        code, out = run_cli(capsys, "eigen", "--matrix", path, "--exact-2x2")
        assert code == 0
        report = json.loads(out)
        got = [(p["value"], p["vector"]) for p in report["eigenpairs"]]
        assert got == [("2/1", ["1/1", "0/1"]), ("5/1", ["0/1", "1/1"])]

    def test_exact_2x2_upper_triangular(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", [["3", "2"], ["0", "3"]])
        code, out = run_cli(capsys, "eigen", "--matrix", path, "--exact-2x2")
        assert code == 0
        report = json.loads(out)
        assert report["case"] == "upper_triangular"
        assert [p["value"] for p in report["eigenpairs"]] == ["3/1"]

    def test_perron(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", [["2", "1"], ["1", "2"]])
        code, out = run_cli(capsys, "eigen", "--matrix", path, "--perron", "--tol", "1e-11")
        assert code == 0
        pair = json.loads(out)["eigenpairs"][0]
        assert pair["certificate"]["kind"] == "float"
        assert pair["value"] == "3/1"

    def test_perron_reducible_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", [["1", "0"], ["0", "1"]])
        code, out = run_cli(capsys, "eigen", "--matrix", path, "--perron")
        assert code == 1
        assert "error" in json.loads(out)

    def test_perron_error_report_honours_out(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", [["0", "1"], ["1", "0"]])
        target = tmp_path / "r.json"
        code, out = run_cli(capsys, "eigen", "--matrix", path, "--perron", "--out", str(target))
        assert code == 1
        assert out == ""
        assert "error" in json.loads(target.read_text())

    def test_perron_error_report_honours_format(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", [["0", "1"], ["1", "0"]])
        code, out = run_cli(capsys, "eigen", "--matrix", path, "--perron", "--format", "table")
        assert code == 1
        assert "{" not in out
        assert any(line.startswith("error ") for line in out.splitlines())

    def test_outside_case_table_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", [["1", "2"], ["3", "4"]])
        code, _ = run_cli(capsys, "eigen", "--matrix", path, "--exact-2x2")
        assert code == 2

    def test_csv_matrix(self, tmp_path, capsys):
        p = tmp_path / "m.csv"
        p.write_text("2,0\n0,5\n")
        code, out = run_cli(capsys, "eigen", "--matrix", str(p), "--exact-2x2")
        assert code == 0


class TestMetricCommand:
    def test_l1(self, tmp_path, capsys):
        x = write(tmp_path, "x.json", ["3", "1"])
        y = write(tmp_path, "y.json", ["1", "2"])
        code, out = run_cli(capsys, "metric", "--kind", "l1", x, y)
        assert code == 0
        assert json.loads(out)["distance"] == "3/1"

    def test_l2_radical(self, tmp_path, capsys):
        x = write(tmp_path, "x.json", ["3", "1"])
        y = write(tmp_path, "y.json", ["1", "2"])
        code, out = run_cli(capsys, "metric", "--kind", "l2", x, y)
        d = json.loads(out)["distance"]
        assert d["radicand"] == "5/1" and d["exact"] is None

    def test_parse_error_exit_2(self, tmp_path, capsys):
        x = write(tmp_path, "x.json", ["-3"])
        y = write(tmp_path, "y.json", ["1"])
        code, _ = run_cli(capsys, "metric", "--kind", "l1", x, y)
        assert code == 2


class TestOpnormCommand:
    def test_l1(self, tmp_path, capsys):
        m = write(tmp_path, "m.json", [["1", "2"], ["3", "4"]])
        code, out = run_cli(capsys, "opnorm", "--kind", "l1", m)
        assert code == 0
        assert json.loads(out)["opnorm"]["value"] == "6/1"

    def test_linf(self, tmp_path, capsys):
        m = write(tmp_path, "m.json", [["1", "2"], ["3", "4"]])
        code, out = run_cli(capsys, "opnorm", "--kind", "linf", m)
        assert json.loads(out)["opnorm"]["value"] == "7/1"


class TestAuditCommand:
    def test_preserver_falsified_exit_1(self, tmp_path, capsys):
        fn = write(
            tmp_path,
            "square.json",
            {"a": "0", "b": "2", "breakpoints": ["0", "1", "2"], "values": ["0", "1", "4"]},
        )
        code, out = run_cli(capsys, "audit", "--family", "preserver", "--fn", fn)
        assert code == 1
        report = json.loads(out)["report"]
        assert report["verdict"] == "falsified"
        assert report["witness"]["triple"] == [0, 1, 2]

    def test_preserver_survivor_exit_0(self, tmp_path, capsys):
        fn = write(
            tmp_path,
            "double.json",
            {"a": "0", "b": "2", "breakpoints": ["0", "2"], "values": ["0", "4"]},
        )
        code, out = run_cli(capsys, "audit", "--family", "preserver", "--fn", fn)
        assert code == 0
        assert json.loads(out)["report"]["verdict"] == "not_falsified"

    @pytest.mark.parametrize("family", ["semimetric", "seminorm", "semiinner", "sublinear", "category"])
    def test_random_families_pass(self, family, capsys):
        code, out = run_cli(
            capsys, "audit", "--family", family, "--seed", "5", "--samples", "24"
        )
        assert code == 0
        assert json.loads(out)["report"]["ok"]

    def test_semimetric_with_pinned_tables(self, tmp_path, capsys):
        spec = write(
            tmp_path,
            "spec.json",
            {
                "tables": [
                    [["0", "1"], ["1", "0"]],
                    [["0", "2"], ["2", "0"]],
                ],
                "lambda": "3",
            },
        )
        code, out = run_cli(capsys, "audit", "--family", "semimetric", spec)
        assert code == 0

    def test_witness_revalidates_through_the_library(self, tmp_path, capsys):
        # Feed the reported counterexample back through the operations it
        # talks about: the triple really does break the triangle axiom.
        fn = write(
            tmp_path,
            "square.json",
            {"a": "0", "b": "2", "breakpoints": ["0", "1", "2"], "values": ["0", "1", "4"]},
        )
        code, out = run_cli(capsys, "audit", "--family", "preserver", "--fn", fn)
        assert code == 1
        from semikit import BUNDLED_METRICS, NonnegScalar, PiecewiseLinearFn

        w = json.loads(out)["report"]["witness"]
        f = PiecewiseLinearFn("0", "2", ["0", "1", "2"], ["0", "1", "4"])
        m = BUNDLED_METRICS[w["metric_index"]]
        i, j, k = w["triple"]
        lhs = f.evaluate(m.entry(i, k))
        rhs = f.evaluate(m.entry(i, j)) + f.evaluate(m.entry(j, k))
        assert lhs == NonnegScalar(w["lhs"]) and rhs == NonnegScalar(w["rhs"])
        assert lhs > rhs


class TestAlgebraCommand:
    def test_check_hom_conjugation(self, tmp_path, capsys):
        spec = write(
            tmp_path,
            "hom.json",
            {"kind": "monomial_conjugation", "perm": [2, 1], "diag": ["2", "3"], "samples": 40},
        )
        code, out = run_cli(capsys, "algebra", "check-hom", spec)
        assert code == 0
        assert json.loads(out)["report"]["ok"]

    def test_check_hom_entrywise_square_fails(self, tmp_path, capsys):
        spec = write(tmp_path, "hom.json", {"kind": "entrywise_square", "order": 2})
        code, out = run_cli(capsys, "algebra", "check-hom", spec)
        assert code == 1
        assert not json.loads(out)["report"]["ok"]

    def test_embed(self, tmp_path, capsys):
        spec = write(
            tmp_path,
            "embed.json",
            {"element": [["2", "0"], ["0", "3"]], "partner": [["1", "1"], ["0", "1"]], "lambda": "2"},
        )
        code, out = run_cli(capsys, "algebra", "embed", spec)
        assert code == 0
        report = json.loads(out)["report"]
        assert report["ok"] and len(report["operator"]["matrix"]) == 4

    def test_lie_audit_zero(self, tmp_path, capsys):
        spec = write(
            tmp_path, "lie.json", {"constants": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]}
        )
        code, out = run_cli(capsys, "algebra", "lie-audit", spec)
        assert code == 0
        assert json.loads(out)["report"]["verdict"] == "zero_bracket"

    def test_lie_audit_falsified(self, tmp_path, capsys):
        spec = write(
            tmp_path, "lie.json", {"constants": [[["0", "0"], ["1", "0"]], [["0", "0"], ["0", "0"]]]}
        )
        code, out = run_cli(capsys, "algebra", "lie-audit", spec)
        assert code == 1


class TestMcdmCommand:
    def test_rank(self, tmp_path, capsys):
        alts = write(tmp_path, "alts.json", [["0.2", "0.3"], ["0.4", "0.5"]])
        weights = write(tmp_path, "w.json", ["1", "1"])
        code, out = run_cli(
            capsys, "mcdm", "rank", "--alts", alts, "--weights", weights, "--perm", "1,2"
        )
        assert code == 0
        report = json.loads(out)["report"]
        assert [r["input_index"] for r in report["ranking"]] == [2, 1]
        assert report["recipe"] == "cumulative-truncated-weighted-sum"


class TestAxiomsCommand:
    def test_rn_space(self, capsys):
        code, out = run_cli(
            capsys, "axioms", "--space", "rn", "--dim", "3", "--seed", "7", "--samples", "150"
        )
        assert code == 0
        report = json.loads(out)
        assert report["spaces"]["rn"]["all_hold"]

    def test_all_spaces(self, capsys):
        code, out = run_cli(
            capsys, "axioms", "--space", "all", "--dim", "2", "--samples", "80"
        )
        assert code == 0
        report = json.loads(out)
        assert set(report["spaces"]) == {"rn", "matrices", "polynomials"}
        assert "ordered_layer" in report


class TestReportDiscipline:
    def test_byte_identical_reports_same_seed(self, capsys):
        _, out1 = run_cli(capsys, "audit", "--family", "seminorm", "--seed", "9")
        _, out2 = run_cli(capsys, "audit", "--family", "seminorm", "--seed", "9")
        assert out1 == out2

    def test_different_seed_may_differ_but_valid(self, capsys):
        code, out = run_cli(capsys, "audit", "--family", "seminorm", "--seed", "10")
        assert code == 0
        json.loads(out)

    def test_table_format(self, capsys):
        code, out = run_cli(capsys, "axioms", "--space", "rn", "--samples", "40", "--format", "table")
        assert code == 0
        assert "all_hold" in out and "{" not in out.split("\n")[0]

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(
            ["axioms", "--space", "rn", "--samples", "40", "--out", str(target)]
        )
        assert code == 0
        json.loads(target.read_text())

    def test_unknown_command_exit_2(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_file_exit_2(self, capsys):
        code, _ = run_cli(capsys, "eigen", "--matrix", "/nonexistent.json", "--exact-2x2")
        assert code == 2


class TestSharedParser:
    """main() builds its parser once per process; reusing it must leave
    every later command's output as a fresh process would print it."""

    def test_reused_parser_matches_fresh_processes(self, tmp_path, capsys, monkeypatch):
        # argparse wraps usage text to the terminal width: pin it on both sides.
        monkeypatch.setenv("COLUMNS", "80")
        src = os.path.dirname(os.path.dirname(semikit.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        diag = write(tmp_path, "d.json", [["2", "0"], ["0", "5"]])
        sym = write(tmp_path, "s.json", [["2", "1"], ["1", "2"]])
        first = ["audit", "--family", "category", "--samples", "20"]
        sequence = [
            first,
            ["audit", "--family", "category"],
            ["audit", "--family", "frobnicate"],
            ["--version"],
            ["eigen", "--matrix", diag, "--exact-2x2"],
            ["eigen", "--matrix", sym, "--perron"],
            first,
        ]
        results = []
        for argv in sequence:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "semikit.cli", *argv], capture_output=True, env=env
            )
            got = (code, captured.out.encode(), captured.err.encode())
            assert got == (fresh.returncode, fresh.stdout, fresh.stderr)
            results.append(got)
        assert [code for code, _, _ in results] == [0, 0, 2, 0, 0, 0, 0]
        assert json.loads(results[1][1])["report"]["samples_per_norm"] == 64
        assert results[0] == results[-1]
        assert _build_parser() is _build_parser()


# Malformed input, one or more rows per subcommand: (files, argv) or
# (files, argv, text the error message must contain). Each "@name" in argv
# is replaced by the path of files[name].
_M = [["2", "1"], ["1", "2"]]
_ALTS = [["1/3", "1/2"], ["1/4", "3/4"]]
MALFORMED = {
    "eigen-tol-not-a-number": ({"m": _M}, ["eigen", "--matrix", "@m", "--perron", "--tol", "abc"]),
    "eigen-tol-nan": ({"m": _M}, ["eigen", "--matrix", "@m", "--perron", "--tol", "nan"]),
    "eigen-matrix-extra-key": (
        {"m": {"matrix": _M, "domain_basis": [["1", "0"]]}},
        ["eigen", "--matrix", "@m", "--exact-2x2"],
        "domain_basis",
    ),
    "eigen-matrix-key-misspelt": (
        {"m": {"matrx": _M}}, ["eigen", "--matrix", "@m", "--perron"], "matrx"
    ),
    "opnorm-matrix-object-empty": ({"m": {}}, ["opnorm", "--kind", "l1", "@m"], '"matrix"'),
    "metric-length-mismatch": (
        {"x": ["1"], "y": ["1", "2"]}, ["metric", "--kind", "l1", "@x", "@y"]
    ),
    "metric-literal-too-long": (
        {"x": ["7" * 4301, "1"], "y": ["1", "1"]}, ["metric", "--kind", "l2", "@x", "@y"], "digits"
    ),
    "metric-result-too-long": (
        {"x": ["7" * 4300, "1"], "y": ["1", "1"]}, ["metric", "--kind", "l2", "@x", "@y"], "digits"
    ),
    "metric-result-past-float-range": (
        {"x": ["7" * 200, "1"], "y": ["1", "1"]}, ["metric", "--kind", "l2", "@x", "@y"], "float"
    ),
    "opnorm-tol-not-a-number": ({"m": _M}, ["opnorm", "--kind", "l2", "@m", "--tol", "abc"]),
    "opnorm-entry-past-float-range": (
        {"m": [["1" + "0" * 400, "1"], ["1", "1"]]}, ["opnorm", "--kind", "l2", "@m"], "float"
    ),
    "opnorm-gram-past-float-range": (
        {"m": [["1" + "0" * 200, "1"], ["1", "1"]]}, ["opnorm", "--kind", "l2", "@m"], "float"
    ),
    "perron-entry-past-float-range": (
        {"m": [["1" + "0" * 400, "1"], ["1", "1"]]}, ["eigen", "--matrix", "@m", "--perron"], "float"
    ),
    "perron-row-sum-past-float-range": (
        {"m": [["1" + "0" * 308] * 2] * 2}, ["eigen", "--matrix", "@m", "--perron"], "float"
    ),
    "audit-spec-not-an-object": ({"s": [1, 2]}, ["audit", "--family", "semimetric", "@s"]),
    "audit-dim-zero": ({"s": {"dim": 0}}, ["audit", "--family", "seminorm", "@s"]),
    "audit-dims-short": ({"s": {"dims": [1, 2]}}, ["audit", "--family", "category", "@s"]),
    "audit-one-table": ({"s": {"tables": [[["0"]]]}}, ["audit", "--family", "semimetric", "@s"]),
    "embed-no-element": ({"s": {"partner": [["1"]]}}, ["algebra", "embed", "@s"]),
    "check-hom-no-perm": (
        {"s": {"kind": "monomial_conjugation", "diag": ["1"]}}, ["algebra", "check-hom", "@s"]
    ),
    "check-hom-bad-order": ({"s": {"kind": "identity", "order": "x"}}, ["algebra", "check-hom", "@s"]),
    "lie-audit-bad-constants": ({"s": {"constants": 5}}, ["algebra", "lie-audit", "@s"]),
    "mcdm-perm-not-numbers": (
        {"a": _ALTS, "w": ["1/2", "1/2"]},
        ["mcdm", "rank", "--alts", "@a", "--weights", "@w", "--perm", "x,y"],
    ),
    "mcdm-weights-object": (
        {"a": _ALTS, "w": {"a": 1}},
        ["mcdm", "rank", "--alts", "@a", "--weights", "@w", "--perm", "1,2"],
        "--weights",
    ),
    "mcdm-weights-string": (
        {"a": _ALTS, "w": "0.5"},
        ["mcdm", "rank", "--alts", "@a", "--weights", "@w", "--perm", "1,2"],
        "--weights",
    ),
    "mcdm-alts-flat": (
        {"a": ["1/3", "1/2"], "w": ["1/2", "1/2"]},
        ["mcdm", "rank", "--alts", "@a", "--weights", "@w", "--perm", "1,2"],
        "--alts",
    ),
    "axioms-dim-zero": ({}, ["axioms", "--dim", "0"]),
    "axioms-negative-samples": ({}, ["axioms", "--samples", "-1"]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exit_2(case, tmp_path, capsys):
    files, argv, *needles = MALFORMED[case]
    paths = {name: write(tmp_path, f"{name}.json", payload) for name, payload in files.items()}
    argv = [paths[a[1:]] if a.startswith("@") else a for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and captured.err.startswith("error: ")
    assert all(needle in captured.err for needle in needles)


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "semikit.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
