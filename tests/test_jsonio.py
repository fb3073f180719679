"""File-grammar round trips: the serialized forms are part of the
contract (scalars always as numerator/denominator)."""

import json
import math
from fractions import Fraction

import pytest

from semikit import (
    EventuallyConstSeq,
    FuzzyNumber,
    LnVector,
    NonnegScalar,
    PiecewiseLinearFn,
    SemiMatrix,
    SemiVector,
)
from semikit import jsonio
from semikit.errors import ParseError, ResultTooLarge

from conftest import NS


class TestSerialization:
    def test_scalar_literal(self):
        assert jsonio.to_jsonable(NS("0.25")) == "1/4"

    def test_vector(self):
        assert jsonio.to_jsonable(SemiVector([1, "1/2"])) == ["1/1", "1/2"]

    def test_matrix(self):
        m = SemiMatrix([[1, 2], [3, 4]])
        assert jsonio.to_jsonable(m) == [["1/1", "2/1"], ["3/1", "4/1"]]

    def test_sequence(self):
        s = EventuallyConstSeq(["1/2"], "0")
        assert jsonio.to_jsonable(s) == {"prefix": ["1/2"], "tail": "0/1"}

    def test_plfn(self):
        f = PiecewiseLinearFn(0, 1, [0, 1], [2, 3])
        data = jsonio.to_jsonable(f)
        assert data["breakpoints"] == ["0/1", "1/1"]
        assert jsonio.parse_plfn(data) == f

    def test_fuzzy_number_round_trip(self):
        x = FuzzyNumber.triangular(-1, 0, 2)
        data = jsonio.to_jsonable(x)
        assert data["intervals"][0][0] == "-9/10"  # cut at the 1/10 level
        assert jsonio.parse_fuzzy(data) == x

    def test_ln_vector(self):
        assert jsonio.to_jsonable(LnVector(["0.2", "0.5"])) == ["1/5", "1/2"]


class TestParsing:
    def test_vector_round_trip(self):
        v = SemiVector(["1/3", "0.5", 2])
        assert jsonio.parse_vector(jsonio.to_jsonable(v)) == v

    def test_matrix_from_wrapper_object(self):
        data = {"matrix": [["1", "0"], ["0", "1"]]}
        assert jsonio.parse_matrix(data) == SemiMatrix.identity(2)

    def test_map_with_bases(self):
        data = {
            "matrix": [["1", "0"], ["0", "1"]],
            "domain_basis": [["2", "0"], ["0", "2"]],
        }
        with pytest.raises(ParseError, match="domain_basis"):
            jsonio.parse_map(data)

    def test_csv_matrix(self):
        m = jsonio.parse_matrix_csv("1,2\n3/2,0.5\n")
        assert m == SemiMatrix([[1, 2], ["3/2", "1/2"]])

    def test_sequence_requires_fields(self):
        with pytest.raises(ParseError):
            jsonio.parse_sequence({"prefix": []})

    def test_negative_scalar_rejected_in_vector(self):
        with pytest.raises(Exception):
            jsonio.parse_vector(["-1"])

    def test_signed_allowed_in_fuzzy(self):
        x = jsonio.parse_fuzzy(
            {"levels": ["1"], "intervals": [["-2", "3"]]}
        )
        assert x.support == (-2, 3)

    def test_signed_literals_share_the_scalar_grammar(self):
        assert jsonio.parse_signed("-3/4") == Fraction(-3, 4)
        assert jsonio.parse_signed(" -0.5 ") == Fraction(-1, 2)
        for text in ("1e5", "-1e5", "+3", "--1", "- 3", "1_000", "inf", "-1/0"):
            with pytest.raises(ParseError):
                jsonio.parse_signed(text)

    def test_bad_json_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ParseError):
            jsonio.load_payload(str(p))

    def test_missing_file(self):
        with pytest.raises(ParseError):
            jsonio.load_payload("/no/such/file.json")


class TestReports:
    def test_canonical_json_sorted_and_stable(self):
        report = jsonio.build_report("x", 1, {"b": NS(1), "a": [NS(2)]}, "0.1.0")
        text = jsonio.render_json(report)
        assert text == jsonio.render_json(json.loads(text)) or json.loads(text) == report
        keys = list(json.loads(text))
        assert keys == sorted(keys)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_float_refused(self, value):
        report = jsonio.build_report("x", 1, {"upper": value}, "0.1.0")
        with pytest.raises(ResultTooLarge):
            jsonio.render_json(report)

    def test_table_rendering_flat(self):
        report = jsonio.build_report("x", 1, {"value": NS(3)}, "0.1.0")
        text = jsonio.render_table(report)
        assert "value" in text and "3/1" in text
