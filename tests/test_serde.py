import json
import math

import numpy as np
import pytest

from hqc import (
    InaccessibilityReport,
    LocalFilter,
    ParseError,
    Party,
    SeededRng,
    classify,
    compute_ellipsoid,
    sample_state,
    to_r_picture,
    validate_state,
)
from hqc import serde
from hqc.montecarlo import _empty_bins

from conftest import singlet_matrix
from support import rmatrix_to_csv


class TestStateJson:
    def test_round_trip_exact(self):
        rho = sample_state(SeededRng(71, 0))
        back = serde.state_from_dict(serde.state_to_dict(rho))
        np.testing.assert_array_equal(back.matrix, rho.matrix)

    def test_file_round_trip(self, tmp_path):
        rho = validate_state(singlet_matrix())
        path = tmp_path / "state.json"
        serde.dump_state_json(rho, str(path))
        back = serde.load_state_json(str(path))
        np.testing.assert_array_equal(back.matrix, rho.matrix)

    def test_bad_dim(self):
        with pytest.raises(ParseError):
            serde.state_from_dict({"dim": [2, 3], "matrix": []})

    def test_bad_matrix_shape(self):
        with pytest.raises(ParseError):
            serde.state_from_dict({"dim": [2, 2], "matrix": [[{"re": 1, "im": 0}]]})

    def test_non_numeric_entry(self):
        rows = [[{"re": "x", "im": 0}] * 4] * 4
        with pytest.raises(ParseError):
            serde.state_from_dict({"dim": [2, 2], "matrix": rows})

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            serde.load_state_json(str(path))


class TestRMatrixCsv:
    def test_round_trip_exact(self):
        r = to_r_picture(sample_state(SeededRng(72, 0)))
        back = serde.rmatrix_from_csv(rmatrix_to_csv(r))
        np.testing.assert_array_equal(back.r, r.r)

    def test_corner_checked(self):
        with pytest.raises(ParseError):
            serde.rmatrix_from_csv("0.5,0,0,0\n0,0,0,0\n0,0,0,0\n0,0,0,0\n")

    def test_row_count_checked(self):
        with pytest.raises(ParseError):
            serde.rmatrix_from_csv("1,0,0,0\n0,0,0,0\n")

    @pytest.mark.parametrize(
        "text, row, count",
        [("1,0,0,0\n0,1,0\n0,0,1,0\n0,0,0,1\n", 1, 3), ("1,0,0,0\n0,1,0,0\n0,0,1,0\n0,0,0,1,0\n", 3, 5)],
        ids=["short-row", "long-row"],
    )
    def test_ragged_row_named(self, text, row, count):
        with pytest.raises(ParseError) as exc:
            serde.rmatrix_from_csv(text)
        assert str(exc.value) == f"R-matrix CSV row {row} has {count} entries, expected 4"

    @pytest.mark.parametrize("corner,entry", [("nan", "0"), ("1", "nan"), ("1", "inf"), ("1", "-inf")])
    def test_non_finite_entry_rejected(self, corner, entry):
        # abs(nan - 1) > 1e-9 is False, so a NaN corner would otherwise pass the corner check
        with pytest.raises(ParseError, match="non-finite"):
            serde.rmatrix_from_csv(f"{corner},0,0,0\n0,{entry},0,0\n0,0,0,0\n0,0,0,0\n")


class TestFilterJson:
    def test_round_trip(self):
        f = LocalFilter.from_matrix(np.array([[0.5, 0.2j], [0, 1.0]]))
        back = serde.filter_from_dict(serde.filter_to_dict(f))
        np.testing.assert_allclose(back.f, f.f, atol=1e-15)

    def test_missing_key(self):
        with pytest.raises(ParseError):
            serde.filter_from_dict({"matrix": []})


def _state(rows):
    return serde.state_from_dict({"dim": [2, 2], "matrix": rows})


def _filter(rows):
    return serde.filter_from_dict({"f": rows})


class TestComplexMatrixMessages:
    """The state and filter readers' shape and entry errors, word for word."""

    @pytest.mark.parametrize(
        "read, rows, message",
        [
            (_state, [[{"re": 1, "im": 0}]], "state matrix must be a 4x4 array of {re, im} objects"),
            (_state, [[{"re": 0, "im": 0}] * 4] * 3, "state matrix must be a 4x4 array of {re, im} objects"),
            (_state, {"re": 1, "im": 0}, "state matrix must be a 4x4 array of {re, im} objects"),
            (_filter, [[{"re": 1, "im": 0}] * 2] * 3, "filter 'f' must be a 2x2 array of {re, im} objects"),
            (_filter, [[{"re": 1, "im": 0}] * 2, 7], "filter 'f' must be a 2x2 array of {re, im} objects"),
        ],
        ids=["state-one-entry", "state-three-rows", "state-not-a-list", "filter-three-rows", "filter-row-not-a-list"],
    )
    def test_shape_error(self, read, rows, message):
        with pytest.raises(ParseError) as exc:
            read(rows)
        assert str(exc.value) == message

    @pytest.mark.parametrize("read, n, name", [(_state, 4, "matrix"), (_filter, 2, "f")], ids=["state", "filter"])
    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"re": "x", "im": 0}, "non-numeric entry {'re': 'x', 'im': 0}"),
            ({"re": 1, "im": None}, "non-numeric entry {'re': 1, 'im': None}"),
            ({"re": 1}, "expected {'re': x, 'im': y}, got {'re': 1}"),
            (5, "expected {'re': x, 'im': y}, got 5"),
        ],
        ids=["non-numeric", "null", "missing-im", "not-an-object"],
    )
    def test_entry_error(self, read, n, name, entry, message):
        rows = [[{"re": 0.5, "im": 0.0} for _ in range(n)] for _ in range(n)]
        rows[1][0] = entry
        rows[n - 1][n - 1] = "later"  # only the first bad entry, in row-major order, is named
        with pytest.raises(ParseError) as exc:
            read(rows)
        assert str(exc.value) == f"{name}[1][0]: {message}"


class TestReportAndEllipsoid:
    def test_report_dict_fields(self):
        report = classify(to_r_picture(validate_state(singlet_matrix())))
        doc = serde.report_to_dict(report)
        assert doc["b"] == pytest.approx(math.sqrt(2), abs=1e-10)
        assert doc["flags"] == []
        assert doc["conjecture_conditional"] is True
        assert doc["thresholds"] == {"c_chsh": 0.5, "c_f3": 0.66}
        json.dumps(doc)  # must be serialisable as-is

    def test_nan_hidden_measures_become_null(self):
        v = np.zeros((4, 4), dtype=complex)
        v[0, 0] = 1.0
        report = classify(to_r_picture(validate_state(v)))
        doc = serde.report_to_dict(report)
        assert doc["hb_star"] is None
        assert doc["degenerate_normal_form"] is True
        json.dumps(doc)

    @pytest.mark.parametrize("vanishing", [False, True], ids=["finite", "vanishing_normal_form"])
    def test_report_dict_is_the_record(self, vanishing):
        # the JSON holds the record's fields in order, then its two derived members
        v = np.zeros((4, 4), dtype=complex)
        v[0, 0] = 1.0
        report = classify(to_r_picture(validate_state(v if vanishing else singlet_matrix())))
        doc = serde.report_to_dict(report)
        names = (*InaccessibilityReport._fields, "degenerate_normal_form", "conjecture_conditional")
        assert tuple(doc) == names
        assert math.isnan(report.hb_star) is vanishing is report.degenerate_normal_form is doc["degenerate_normal_form"]
        assert report.conjecture_conditional is doc["conjecture_conditional"] is True

    def test_ellipsoid_dict(self):
        e = compute_ellipsoid(to_r_picture(validate_state(singlet_matrix())), Party.B)
        doc = serde.ellipsoid_to_dict(e)
        assert doc["degenerate"] is False
        assert doc["semiaxes"] == pytest.approx([1, 1, 1], abs=1e-12)
        json.dumps(doc)


class TestCsvTables:
    def test_scan_csv_shape(self):
        from hqc import Family, scan_family

        rows = scan_family(Family.QD, [0.0], [0.2, 0.8])
        text = serde.scan_rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "theta,p,B,F3,HBstar,HF3star,cA,cB,entangled,flags"
        assert len(lines) == 3
        assert lines[1].split(",")[1] == "0.2"

    def test_envelope_csv(self):
        # Bob's occupied bin 0 of 200 is written; Alice's occupied bin 3 is not
        bins = _empty_bins(200)
        bins.max_b[1, 0], bins.max_f3[1, 0], bins.count[1, 0] = 1.2, 1.5, 17
        bins.max_b[0, 3], bins.max_f3[0, 3], bins.count[0, 3] = 1.1, 1.4, 5
        text = serde.envelope_to_csv(bins)
        assert text == "c_mid,max_B,max_F3,count\n0.0025,1.2,1.5,17\n"
