"""CLI surface: gen/verify/plan/exists/certify-graph, persistence, exit codes."""

import io
import json
import math

import numpy as np
import pytest

from omzd import construct
from omzd.cli import _dump_json, _fmt_number, decode_matrix_file, encode_matrix_file, matrix_to_csv, run
from omzd.errors import NonFiniteNumber, SchemaViolation
from omzd.numerics import RealMatrix


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def reencode(text: str) -> str:
    doc = decode_matrix_file(text)
    return encode_matrix_file(
        doc["kind"], doc["matrix"], doc["plan"], doc["certificate"], doc["provenance"]
    )


class TestGen:
    def test_omzd9(self):
        code, out, err = invoke("gen", "--kind", "omzd", "--n", "9")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "omzd" and doc["order"] == 9
        assert doc["certificate"]["passed"] is True
        assert doc["plan"] == "Combine(Seed(omzd,7),Seed(omzd,4))"

    def test_nonexistent_is_exit_1(self):
        code, out, err = invoke("gen", "--kind", "omzd", "--n", "3")
        assert code == 1
        assert "no OMZD(3)" in err

    def test_csv_order_2_conference(self):
        code, out, _ = invoke("gen", "--kind", "omzd", "--n", "2", "--format", "csv")
        assert code == 0
        assert out == "0,1\n1,0\n"

    def test_out_file(self, tmp_path):
        path = tmp_path / "m.json"
        code, out, _ = invoke("gen", "--kind", "conference", "--q", "9", "--out", str(path))
        assert code == 0 and out == ""
        doc = json.loads(path.read_text())
        assert doc["order"] == 10
        assert doc["provenance"]["parameters"] == {"q": 9}

    def test_deterministic_bytes(self):
        for argv in [
            ("gen", "--kind", "omzd", "--n", "9"),
            ("gen", "--kind", "ompzd", "--n", "8", "--k", "5"),
            ("gen", "--kind", "drt", "--q", "7", "--t", "1"),
            ("gen", "--kind", "multipartite", "--n", "3", "--m", "6"),
        ]:
            _, first, _ = invoke(*argv)
            _, second, _ = invoke(*argv)
            assert first == second, argv

    def test_ompzd_requires_k(self):
        code, _, err = invoke("gen", "--kind", "ompzd", "--n", "8")
        assert code == 2 and "--k" in err

    def test_conference_bad_q_carries_annotation(self):
        code, _, err = invoke("gen", "--kind", "conference", "--q", "21")
        assert code == 1
        assert "sum of" in err and "squares" in err

    def test_drt_route_flags(self):
        code, out, _ = invoke(
            "gen", "--kind", "omzd", "--n", "15", "--route", "prefer-drt", "--branch", "plus"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["plan"] == "OmzdFromDrt(Double(PaleyDRT(7)),plus)"
        assert doc["provenance"]["parameters"]["branch"] == "plus"

    def test_multipartite_refuses_odd_m(self):
        code, _, err = invoke("gen", "--kind", "multipartite", "--n", "2", "--m", "3")
        assert code == 1


class TestVerifyRoundTrip:
    CASES = [
        (("gen", "--kind", "omzd", "--n", "11"), "omzd"),
        (("gen", "--kind", "omzd", "--n", "12"), "omzd"),
        (("gen", "--kind", "symmetric-omzd", "--n", "10"), "symmetric-omzd"),
        (("gen", "--kind", "ompzd", "--n", "7", "--k", "4"), "ompzd"),
        (("gen", "--kind", "conference", "--q", "13"), "conference"),
        (("gen", "--kind", "drt", "--q", "11"), "drt"),
        (("gen", "--kind", "skew-hadamard", "--q", "7", "--t", "1"), "skew-hadamard"),
        (("gen", "--kind", "multipartite", "--n", "2", "--m", "6"), "multipartite"),
    ]

    @pytest.mark.parametrize("gen_argv,claim", CASES)
    def test_gen_then_verify(self, tmp_path, gen_argv, claim):
        path = tmp_path / "m.json"
        code, _, err = invoke(*gen_argv, "--out", str(path))
        assert code == 0, err
        code, out, err = invoke("verify", "--in", str(path), "--claim", claim)
        assert code == 0, err
        assert json.loads(out)["passed"] is True

    def test_verify_detects_tampering(self, tmp_path):
        path = tmp_path / "m.json"
        invoke("gen", "--kind", "omzd", "--n", "9", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["entries"][0][1] = 99.0
        path.write_text(json.dumps(doc))
        code, out, err = invoke("verify", "--in", str(path), "--claim", "omzd")
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_verify_wrong_claim_fails(self, tmp_path):
        path = tmp_path / "m.json"
        invoke("gen", "--kind", "omzd", "--n", "5", "--out", str(path))
        code, _, _ = invoke("verify", "--in", str(path), "--claim", "conference")
        assert code == 1

    def test_missing_file(self):
        code, _, err = invoke("verify", "--in", "/nonexistent.json", "--claim", "omzd")
        assert code == 2


class TestMatrixFile:
    def test_decode_encode_bit_identical(self):
        for argv in [
            ("gen", "--kind", "omzd", "--n", "9"),
            ("gen", "--kind", "ompzd", "--n", "6", "--k", "3"),
            ("gen", "--kind", "skew-hadamard", "--q", "11"),
        ]:
            _, text, _ = invoke(*argv)
            assert reencode(text) == text

    def test_seventeen_digit_round_trip(self):
        values = [1.0 / 3.0, 2.0 ** 0.5, -(5.0 ** 0.5) / 7.0, 1e-17, 0.0]
        m = RealMatrix([values, values[::-1], values, values[::-1], values], scale_c=None)
        text = encode_matrix_file("omzd", m, None, None, {"theorem": "t", "parameters": {}})
        back = decode_matrix_file(text)["matrix"]
        assert np.array_equal(back.data, m.data)

    def test_missing_entries_field(self):
        with pytest.raises(SchemaViolation) as exc:
            decode_matrix_file('{"kind":"omzd","order":2,"cols":2}')
        assert exc.value.field == "scale_c" or "missing" in str(exc.value)

    def test_schema_names_bad_cell(self):
        doc = {
            "kind": "omzd",
            "order": 1,
            "cols": 2,
            "scale_c": None,
            "entries": [[1.0, "x"]],
            "plan": None,
            "certificate": None,
            "provenance": {"theorem": "t", "parameters": {}},
        }
        with pytest.raises(SchemaViolation) as exc:
            decode_matrix_file(json.dumps(doc))
        assert exc.value.field == "entries[0][1]"

    def test_not_json(self):
        with pytest.raises(SchemaViolation):
            decode_matrix_file("not json at all")

    def test_csv_precision(self):
        m = RealMatrix([[1.0 / 3.0]])
        assert matrix_to_csv(m) == "0.33333333333333331\n"


class TestExists:
    def test_exists_true(self):
        code, out, _ = invoke("exists", "--kind", "omzd", "--n", "9")
        assert code == 0
        assert json.loads(out)["exists"] is True

    def test_exists_false(self):
        code, out, err = invoke("exists", "--kind", "omzd", "--n", "3")
        assert code == 1
        doc = json.loads(out)
        assert doc["exists"] is False and "no OMZD(3)" in doc["reason"]

    def test_ompzd_needs_k(self):
        code, _, _ = invoke("exists", "--kind", "ompzd", "--n", "5")
        assert code == 2


class TestPlanCommand:
    def test_prints_serialized_plan(self):
        code, out, _ = invoke("plan", "--kind", "omzd", "--n", "9")
        assert code == 0
        assert out == "Combine(Seed(omzd,7),Seed(omzd,4))\n"

    def test_nonexistent(self):
        code, _, err = invoke("plan", "--kind", "symmetric-omzd", "--n", "4")
        assert code == 1


class TestCertifyGraph:
    def test_certified(self):
        code, out, _ = invoke("certify-graph", "--family", "gnk", "--n", "8", "--k", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "certified"
        assert doc["distinct_eigenvalue_count"] == 2
        assert doc["matrix"]["order"] == 16

    def test_known_impossible(self):
        code, out, _ = invoke("certify-graph", "--family", "gnk", "--n", "3", "--k", "3")
        assert code == 1
        assert json.loads(out)["status"] == "known-impossible"

    def test_unknown(self):
        code, out, _ = invoke("certify-graph", "--family", "multipartite", "--n", "2", "--m", "3")
        assert code == 1
        assert json.loads(out)["status"] == "unknown"

    def test_knn(self):
        code, out, _ = invoke("certify-graph", "--family", "knn", "--n", "6")
        assert code == 0

    def test_out_file(self, tmp_path):
        path = tmp_path / "cert.json"
        code, out, _ = invoke(
            "certify-graph", "--family", "multipartite", "--n", "2", "--m", "6",
            "--out", str(path),
        )
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["status"] == "certified"


class TestUsageErrors:
    def test_unknown_command(self):
        code, _, _ = invoke("frobnicate")
        assert code == 2

    def test_unknown_kind(self):
        code, _, _ = invoke("gen", "--kind", "hadamard", "--n", "4")
        assert code == 2

    def test_missing_required(self):
        code, _, err = invoke("gen", "--kind", "omzd")
        assert code == 2
        code, _, err = invoke("gen", "--kind", "conference")
        assert code == 2


def _old_dump_entries(data) -> str:
    """Entry-by-entry encoding of a matrix, the reference for the row encoder."""
    return _dump_json([[float(x) for x in row] for row in data])


def _matrix_doc(entries, cols=None) -> str:
    return json.dumps(
        {
            "kind": "omzd",
            "order": len(entries),
            "cols": len(entries[0]) if cols is None else cols,
            "scale_c": None,
            "entries": entries,
            "plan": None,
            "certificate": None,
            "provenance": {"theorem": "t", "parameters": {}},
        }
    )


class TestRowEncoder:
    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (40, 40), (2, 0)])
    def test_bytes_match_entry_by_entry_dump(self, shape):
        rng = np.random.default_rng(5)
        data = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        if data.size:
            data.flat[0] = 5e-324  # subnormal
            data.flat[-1] = 3.0  # integral float still prints as "3"
        m = RealMatrix(data)
        assert _dump_json(m) == _old_dump_entries(m.data)
        expected_csv = "".join(",".join("%.17g" % x for x in row) + "\n" for row in m.data)
        assert matrix_to_csv(m) == expected_csv

    def test_generated_file_bytes(self):
        m = construct.combine(construct.seed("omzd", 6), construct.seed("omzd", 5))
        text = encode_matrix_file("omzd", m, None, None, {"theorem": "t", "parameters": {}})
        assert '"entries":' + _old_dump_entries(m.data) + ',"plan"' in text

    def test_refuses_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(NonFiniteNumber):
                _fmt_number(bad)
            with pytest.raises(NonFiniteNumber):
                _dump_json(RealMatrix([[0.0, bad]]))


class TestDecoderRejects:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400])
    def test_non_finite_entry_names_cell(self, bad):
        with pytest.raises(SchemaViolation) as exc:
            decode_matrix_file(_matrix_doc([[0.0, 1.0], [1.0, bad]]))
        assert exc.value.field == "entries[1][1]"

    def test_non_finite_scale(self):
        text = _matrix_doc([[0.0, 1.0], [1.0, 0.0]]).replace('"scale_c": null', '"scale_c": Infinity')
        with pytest.raises(SchemaViolation) as exc:
            decode_matrix_file(text)
        assert exc.value.field == "scale_c"

    def test_bool_entry_still_rejected(self):
        with pytest.raises(SchemaViolation) as exc:
            decode_matrix_file(_matrix_doc([[0.0, True], [1.0, 0.0]]))
        assert exc.value.field == "entries[0][1]"

    def test_ints_and_floats_mix(self):
        doc = decode_matrix_file(_matrix_doc([[0, 1.5], [-2, 0.0]]))
        assert doc["matrix"].data.tolist() == [[0.0, 1.5], [-2.0, 0.0]]


class TestVerifyBadInput:
    def _verify(self, tmp_path, text, claim="omzd"):
        path = tmp_path / "m.json"
        path.write_text(text)
        return invoke("verify", "--in", str(path), "--claim", claim)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("claim", ["omzd", "orthogonal", "nowhere-zero"])
    def test_non_finite_file_is_exit_2(self, tmp_path, bad, claim):
        code, out, err = self._verify(tmp_path, _matrix_doc([[0.0, bad], [1.0, 0.0]]), claim)
        assert code == 2 and out == ""
        assert "SchemaViolation: entries[0][1]" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_gram_does_not_pass(self, tmp_path):
        # 1e200·(J - I) of order 3: the gram overflows; OMZD(3) does not exist
        big = (1e200 * (np.ones((3, 3)) - np.eye(3))).tolist()
        code, out, err = self._verify(tmp_path, _matrix_doc(big))
        assert code == 1
        report = json.loads(out)  # strict: c and the residual are null, not inf/nan
        assert report["passed"] is False
        assert report["scale_c"] is None and report["max_residual"] is None
        assert "not positive and finite" in err

    def test_non_square_orthogonal_is_shape_mismatch(self, tmp_path):
        code, out, err = self._verify(
            tmp_path, _matrix_doc([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), "orthogonal"
        )
        assert code == 2 and out == ""
        assert err.startswith("ShapeMismatch: ")
        assert "internal error" not in err

    def test_wrong_order_multipartite_is_valid_json(self, tmp_path):
        path = tmp_path / "m.json"
        invoke("gen", "--kind", "multipartite", "--n", "2", "--m", "6", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["provenance"]["parameters"]["n"] = 3
        code, out, err = self._verify(tmp_path, json.dumps(doc), "multipartite")
        assert code == 1
        report = json.loads(out)  # strict: no bare inf or nan
        assert report["passed"] is False and "expected order 18" in err
