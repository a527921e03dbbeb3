"""CLI surface: gen/verify/plan/exists/certify-graph, persistence, exit codes."""

import hashlib
import io
import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omzd import cli, construct, planner
from omzd.cli import (
    _dump_json,
    _fmt_number,
    _format_rows,
    decode_matrix_file,
    encode_matrix_file,
    matrix_to_csv,
    run,
)
from omzd.errors import NonFiniteNumber, OmzdError, ResourceLimit, SchemaViolation
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
        assert err == "cannot read input: [Errno 2] No such file or directory: '/nonexistent.json'\n"


class TestBadPaths:
    """A path that cannot be read or written is exit 2 with one stderr
    line, not a traceback with the exit code of a failed verification."""

    def test_verify_directory_is_unreadable(self, tmp_path):
        code, out, err = invoke("verify", "--in", str(tmp_path), "--claim", "omzd")
        assert (code, out) == (2, "")
        assert err.startswith("cannot read input: ") and str(tmp_path) in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "--kind", "omzd", "--n", "5"),
            ("gen", "--kind", "omzd", "--n", "5", "--format", "csv"),
            ("certify-graph", "--family", "knn", "--n", "3"),
        ],
    )
    @pytest.mark.parametrize("target", ["directory", "missing parent"])
    def test_unwritable_output(self, tmp_path, argv, target):
        out_path = tmp_path if target == "directory" else tmp_path / "missing" / "x.json"
        code, out, err = invoke(*argv, "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err.startswith("cannot write output: ") and str(out_path) in err
        assert err.count("\n") == 1 and "Traceback" not in err


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

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 60])
    def test_knn_is_gnk_k0(self, n):
        code, knn, _ = invoke("certify-graph", "--family", "knn", "--n", str(n))
        assert code == 0
        code, gnk, _ = invoke("certify-graph", "--family", "gnk", "--n", str(n), "--k", "0")
        assert code == 0
        knn_doc, gnk_doc = json.loads(knn), json.loads(gnk)
        assert (knn_doc.pop("family"), knn_doc.pop("k")) == ("knn", None)
        assert (gnk_doc.pop("family"), gnk_doc.pop("k")) == ("gnk", 0)
        assert knn_doc == gnk_doc
        # apart from those two fields the bytes agree
        assert knn.replace('"family":"knn"', '"family":"gnk"').replace('"k":null', '"k":0') == gnk

    @pytest.mark.parametrize("n,k", [(4, 0), (4, 3), (4, 4), (7, 6), (9, 5), (18, 10), (44, 6)])
    def test_gnk_witness_scale_is_gen_scale(self, n, k):
        code, out, _ = invoke("certify-graph", "--family", "gnk", "--n", str(n), "--k", str(k))
        assert code == 0
        code, gen, _ = invoke("gen", "--kind", "ompzd", "--n", str(n), "--k", str(k))
        assert code == 0
        assert json.loads(out)["matrix"]["scale_c"] == json.loads(gen)["scale_c"]

    @pytest.mark.parametrize(
        "family,option",
        [("knn", "--k"), ("knn", "--m"), ("gnk", "--m"), ("multipartite", "--k")],
    )
    def test_option_the_family_does_not_use(self, family, option):
        # the output would echo the option beside a witness built without it
        extra = {"gnk": ["--k", "1"], "multipartite": ["--m", "2"]}.get(family, [])
        code, out, err = invoke("certify-graph", "--family", family, "--n", "2", *extra, option, "1")
        assert (code, out) == (2, "")
        assert err == f"usage error: certify-graph --family {family} takes no {option}\n"

    def test_out_file(self, tmp_path):
        path = tmp_path / "cert.json"
        code, out, _ = invoke(
            "certify-graph", "--family", "multipartite", "--n", "2", "--m", "6",
            "--out", str(path),
        )
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["status"] == "certified"


class TestUsageErrors:
    # argparse's own messages land in the streams handed to run
    def test_unknown_command(self):
        code, out, err = invoke("frobnicate")
        assert code == 2 and out == ""
        assert "invalid choice: 'frobnicate'" in err

    def test_unknown_kind(self):
        code, out, err = invoke("gen", "--kind", "hadamard", "--n", "4")
        assert code == 2 and out == ""
        assert "usage: omzd gen" in err and "invalid choice: 'hadamard'" in err

    def test_missing_required(self):
        code, _, err = invoke("gen", "--kind", "omzd")
        assert code == 2 and err == "usage error: gen --kind omzd needs --n\n"
        code, _, err = invoke("gen", "--kind", "conference")
        assert code == 2 and err == "usage error: gen --kind conference needs --q\n"
        code, out, err = invoke("gen", "--n", "4")
        assert code == 2 and out == ""
        assert "the following arguments are required: --kind" in err

    def test_help_goes_to_stdout(self):
        code, out, err = invoke("gen", "--help")
        assert code == 0 and err == ""
        assert out.startswith("usage: omzd gen")


class TestParserReuse:
    """One parser serves every run in a process; no option set in one run
    reaches the next."""

    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_unset_k_is_not_carried_over(self):
        assert invoke("gen", "--kind", "ompzd", "--n", "6", "--k", "2")[0] == 0
        code, out, err = invoke("gen", "--kind", "ompzd", "--n", "6")
        assert (code, out, err) == (2, "", "usage error: gen --kind ompzd needs --k\n")

    def test_zero_tol_is_not_carried_over(self, tmp_path):
        # an entry of 1e-13 at a required zero is a zero by default, and
        # not at --zero-tol 0
        path = tmp_path / "m.json"
        invoke("gen", "--kind", "omzd", "--n", "6", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["entries"][0][0] = 1e-13
        path.write_text(json.dumps(doc))
        verify = ("verify", "--in", str(path), "--claim", "omzd")
        assert invoke(*verify, "--zero-tol", "0")[0] == 1
        assert invoke(*verify)[0] == 0

    def test_route_is_not_carried_over(self):
        gen = ("gen", "--kind", "omzd", "--n", "11")
        _, default, _ = invoke(*gen)
        code, recursive, _ = invoke(*gen, "--route", "prefer-recursive")
        assert code == 0 and json.loads(recursive)["provenance"]["parameters"]["route"] == "prefer-recursive"
        assert json.loads(recursive)["plan"] != json.loads(default)["plan"]
        assert invoke(*gen) == (0, default, "")

    def test_usage_goes_to_the_current_streams(self, capsys):
        assert invoke("gen", "--bogus")[0] == 2
        assert run(["gen", "--bogus"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: omzd gen")


class TestResourceLimits:
    def test_deep_recursive_plan_is_exit_2(self, monkeypatch):
        # a plan deep enough to pass the interpreter's recursion limit
        def too_deep(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(planner, "plan", too_deep)
        code, out, err = invoke("gen", "--kind", "omzd", "--n", "2001", "--route", "prefer-recursive")
        assert code == 2 and out == ""
        assert err.startswith("ResourceLimit: ") and "RecursionError" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_builder_refusal_is_an_internal_error(self, monkeypatch):
        # plan refuses every case a builder would, so a builder refusal
        # that reaches the CLI is a planner bug, not a legitimate refusal
        monkeypatch.setattr(planner, "plan", lambda *args, **kwargs: planner.symmetric_node(4))
        code, out, err = invoke("gen", "--kind", "symmetric-omzd", "--n", "4")
        assert (code, out) == (2, "")
        assert err == "internal error: BuildRefused: no symmetric OMZD(4) exists\n"

    def test_memory_error_is_exit_2(self, monkeypatch):
        def exhausted(node):
            raise MemoryError()

        monkeypatch.setattr(planner, "execute", exhausted)
        code, out, err = invoke("gen", "--kind", "omzd", "--n", "11")
        assert code == 2 and out == ""
        assert err.startswith("ResourceLimit: ") and "MemoryError" in err
        assert err.count("\n") == 1

    def test_order_cap_is_one_typed_line(self, monkeypatch):
        def over_cap(*args, **kwargs):
            raise ResourceLimit(f"order 8191 exceeds MAX_ORDER = {planner.MAX_ORDER}")

        monkeypatch.setattr(planner, "plan", over_cap)
        code, out, err = invoke("gen", "--kind", "drt", "--q", "7", "--t", "10")
        assert (code, out) == (2, "")
        assert err == "ResourceLimit: order 8191 exceeds MAX_ORDER = 4096\n"


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

    @staticmethod
    def _assert_matches_oracles(data):
        assert "[" + ",".join(_format_rows(data, "[", "]")) + "]" == _old_dump_entries(data)
        expected_csv = "".join(",".join("%.17g" % x for x in row) + "\n" for row in data)
        assert "".join(_format_rows(data, "", "\n")) == expected_csv

    def test_both_zero_signs_stay_apart(self):
        # RealMatrix normalizes -0.0, so the raw encoder gets the mixed array
        data = np.array([[-0.0, 0.0, 1.0], [0.0, -0.0, -1.0]])
        assert _format_rows(data, "[", "]") == ["[-0,0,1]", "[0,-0,-1]"]
        self._assert_matches_oracles(data)

    def test_values_one_ulp_apart(self):
        x = np.array([1.0 / 3.0, 1.0, -2.5, 1e-300, 5e-324])
        data = np.stack([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])
        rows = _format_rows(data, "", "")
        assert len({value for row in rows for value in row.split(",")}) == data.size
        self._assert_matches_oracles(data)

    @pytest.mark.parametrize("layout", ["fortran", "transposed"])
    def test_non_contiguous_input(self, layout):
        rng = np.random.default_rng(11)
        base = rng.integers(-3, 4, size=(7, 5)) / rng.integers(1, 4, size=(7, 5))
        data = np.asfortranarray(base) if layout == "fortran" else base.T
        assert not data.flags.c_contiguous
        self._assert_matches_oracles(data)
        assert _dump_json(RealMatrix(data)) == _old_dump_entries(data)

    def test_order_300_signed_unit_matrix(self):
        data = np.random.default_rng(3).integers(-1, 2, size=(300, 300)).astype(np.float64)
        self._assert_matches_oracles(data)

    def test_splice_output(self):
        m = construct.combine(construct.symmetric_omzd(98), construct.seed("omzd", 5))
        assert m.rows == 101
        self._assert_matches_oracles(m.data)

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

    def test_deeply_nested_json(self):
        with pytest.raises(SchemaViolation, match="nested too deeply"):
            decode_matrix_file("[" * 100_000)

    @pytest.mark.parametrize("scale", ["0", "-3.0"])
    def test_non_positive_scale(self, scale):
        text = _matrix_doc([[0.0, 1.0], [1.0, 0.0]]).replace('"scale_c": null', f'"scale_c": {scale}')
        with pytest.raises(SchemaViolation) as exc:
            decode_matrix_file(text)
        assert exc.value.field == "scale_c"


# any JSON value, with NaN, the infinities and integers too large for a double
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**400), 10**400) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
# a valid file of order 3 (a nowhere-zero orthogonal matrix, c = 9), with a
# plan, a certificate and parameters
_SMALL_FILE = encode_matrix_file(
    "ompzd",
    RealMatrix([[-1.0, 2.0, 2.0], [2.0, -1.0, 2.0], [2.0, 2.0, -1.0]], scale_c=9.0),
    "NowhereZero(3)",
    {"claim": "NowhereZeroOrthogonal", "passed": True, "max_residual": 0.0, "min_offdiag_magnitude": 2.0, "symmetry": "symmetric"},
    {"theorem": "t", "parameters": {"n": 3, "k": 0}},
)


def _decodes_or_refuses(text: str) -> None:
    """The decoder returns a document or raises an OmzdError, nothing else."""
    try:
        doc = decode_matrix_file(text)
    except OmzdError:
        return
    assert isinstance(doc["matrix"], RealMatrix)


def _mutate(data, doc: dict) -> None:
    """Replace or delete one value of ``doc``, found by a walk from the root
    that stops at each level with probability 1/2."""
    parent, key = doc, data.draw(st.sampled_from(sorted(doc)))
    while isinstance(parent[key], (dict, list)) and parent[key] and data.draw(st.booleans()):
        node = parent[key]
        parent, key = node, data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
    if data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = data.draw(_JSON_VALUES)


class TestDecoderProperty:
    def test_small_file_is_valid(self):
        assert decode_matrix_file(_SMALL_FILE)["matrix"].order == 3

    @settings(max_examples=150, deadline=None)
    @given(_JSON_VALUES)
    def test_any_json_value(self, value):
        _decodes_or_refuses(json.dumps(value))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_file(self, data):
        doc = json.loads(_SMALL_FILE)
        for _ in range(data.draw(st.integers(1, 3))):
            _mutate(data, doc)
        _decodes_or_refuses(json.dumps(doc))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mutated_text(self, data):
        i = data.draw(st.integers(0, len(_SMALL_FILE)))
        j = data.draw(st.integers(i, min(i + 8, len(_SMALL_FILE))))
        _decodes_or_refuses(_SMALL_FILE[:i] + data.draw(st.text(max_size=4)) + _SMALL_FILE[j:])


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

    def test_overflowing_gram_prints_no_warning(self, tmp_path):
        big = (1e200 * (np.ones((3, 3)) - np.eye(3))).tolist()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = self._verify(tmp_path, _matrix_doc(big))
        assert code == 1
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert "RuntimeWarning" not in err

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


# gen stdout, sha256 of the bytes written before every kind was planned.
# Two kinds now record a plan where they recorded another: the pin is
# taken after putting the earlier plan field back.
GEN_PINS = [
    ("gen --kind conference --q 27", "03de52fadbd363bc5dca41c751b01f670ed64ab8f046640454c3de6eabad44f2", None),
    ("gen --kind conference --q 81", "d6bda5b03b079f859265abaf2b49689f71fc9be7d10c3a5bcc6cee4b4cfde080", None),
    ("gen --kind conference --q 243", "2ef47274cea65283ca9c1220aa13fe69d3f7ac98d65758eb84238b93a87b4f48", None),
    ("gen --kind drt --q 343", "758837bb36d2d4455fc70726dc2db90ec0d093cb730eb694666d3c2fd84dfb60", None),
    ("gen --kind drt --q 43 --t 1", "38e2e9197e98bab8b4d6091bebd30e0d3e52b9739859e307c433cc1be2c97c67", None),
    ("gen --kind drt --q 3", "569e96f70ebc17f4c424805ef3cdbfc2f7c3afec9f47cd15034e92c221309c12", None),
    (
        "gen --kind skew-hadamard --q 11",
        "46eb94eef35440b5f23b2f9a263566fad23e344fc42d4cd4d0877e00fe4d1727",
        ("SkewHadamard(PaleyDRT(11))", None),
    ),
    (
        "gen --kind skew-hadamard --q 7 --t 1",
        "42f206e9e57ce185082063393688f41db34bfb6f501c47c1170d8f8cba3ddfea",
        ("SkewHadamard(Double(PaleyDRT(7)))", None),
    ),
    ("gen --kind multipartite --n 5 --m 6", "4b02e1f4974102eb4989d52b06aee1dc91485ff7af6566c14da10655b19f8224", None),
    ("gen --kind multipartite --n 3 --m 2", "9a3d61b1454df06e336b1991af7b728f6c90a6fe0bcdaa87a5ea2160b347e1d8", None),
    ("gen --kind omzd --n 51", "a573d0457028cee7a21b05dbd96e6dde742f41051b18380e89d04a1f45848874", None),
    ("gen --kind omzd --n 251", "d02dc62bcc44b05e4bd73553b2b77197f51e52f459cf1bc8c13e0832dc7ae0c0", None),
    ("gen --kind ompzd --n 201 --k 100", "f15da577dea1b06371f7a61c5de4fa5762772bd40d5fed9045afadd3faff65fc", None),
    ("gen --kind ompzd --n 51 --k 20", "dce6acab08a5a01a90da1768ba918d9e536b5f31882777068ee149ffcee1d655", None),
    (
        "gen --kind ompzd --n 30 --k 29",
        "e062867f912f93b91d1233bd75ecdfa1fa765c4142a782a3a883f1659d675ba7",
        ("OmpzdNm1(Symmetric(28),30)", "OmpzdNm1(30)"),
    ),
]


# stdout of runs whose output is not a gen matrix file, sha256 of the
# bytes written by the entry-by-entry encoder
OUTPUT_PINS = [
    ("gen --kind omzd --n 51 --format csv", "43fef309a4a795ef3f355ce9ec1710de25b9c7127bd8c0f8bfd398da327c3b5c"),
    ("certify-graph --family knn --n 40", "c2557c2a948bf2c78d98bdd5c357e009ab9443a68b7b9248b3c7981592b80f30"),
]


class TestGenPinnedBytes:
    @pytest.mark.parametrize("argv,sha", OUTPUT_PINS)
    def test_other_stdout_bytes(self, argv, sha):
        code, out, err = invoke(*argv.split())
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == sha

    @pytest.mark.parametrize("argv,sha,plan_change", GEN_PINS)
    def test_stdout_bytes(self, argv, sha, plan_change):
        code, out, err = invoke(*argv.split())
        assert code == 0 and err == ""
        if plan_change is not None:
            new, old = plan_change
            assert json.loads(out)["plan"] == new
            out = out.replace(f'"plan":"{new}"', '"plan":' + ("null" if old is None else f'"{old}"'))
        assert hashlib.sha256(out.encode()).hexdigest() == sha

    @pytest.mark.parametrize(
        "argv,code,message",
        [
            ("gen --kind conference --q 21", 1, "InvalidQ: q = 21 is not an odd prime power; note: a symmetric"),
            ("gen --kind drt --q 5", 1, "InvalidQ: q = 5 is not 3 mod 4"),
            ("gen --kind skew-hadamard --q 15", 1, "InvalidQ: q = 15 is not an odd prime power"),
            ("gen --kind multipartite --n 3 --m 3", 1, "NoKnownConstruction: no construction is known for an odd part count or exactly 4 parts"),
            ("gen --kind multipartite --n 3 --m 4", 1, "NoKnownConstruction: no construction is known"),
            ("gen --kind multipartite --n 3 --m 0", 2, "ValueError: part count must be >= 2, got 0"),
            ("gen --kind multipartite --n 3 --m 1", 2, "ValueError: part count must be >= 2, got 1"),
            ("gen --kind multipartite --n 3 --m -2", 2, "ValueError: part count must be >= 2, got -2"),
            ("gen --kind drt --q 7 --t -1", 2, "ValueError: doubling count t must be >= 0, got -1"),
            ("gen --kind multipartite --n 0 --m 2", 2, "ValueError: order must be >= 1, got 0"),
            ("gen --kind multipartite --n 3", 2, "usage error: gen --kind multipartite needs --m"),
            ("gen --kind drt", 2, "usage error: gen --kind drt needs --q"),
        ],
    )
    def test_refusals(self, argv, code, message):
        got, out, err = invoke(*argv.split())
        assert (got, out) == (code, "")
        assert err.startswith(message) and err.count("\n") == 1


_CHECKERS = ("certify", "check_drt", "check_skew_hadamard", "certify_multipartite")


@pytest.fixture
def checker_calls(monkeypatch):
    """Counts every call of the four checkers, wrapped at every module
    attribute that holds one, and records the matrix each was given."""
    from omzd import verify

    calls = []
    modules = [m for name, m in sys.modules.items() if name == "omzd" or name.startswith("omzd.")]
    for fn_name in _CHECKERS:
        original = getattr(verify, fn_name)

        def counted(m, *args, _original=original, **kwargs):
            calls.append(np.array(m.data))
            return _original(m, *args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def _stages(node) -> int:
    return 1 + sum(_stages(child) for child in node.children)


class TestEachStageCheckedOnce:
    @pytest.mark.parametrize("argv", [argv for argv, _, _ in GEN_PINS])
    def test_checks_per_gen(self, argv, checker_calls, monkeypatch):
        nodes, plan = [], planner.plan

        def recording_plan(*args, **kwargs):
            nodes.append(plan(*args, **kwargs))
            return nodes[-1]

        monkeypatch.setattr(planner, "plan", recording_plan)
        code, out, _ = invoke(*argv.split())
        assert code == 0 and len(nodes) == 1
        assert len(checker_calls) <= _stages(nodes[0])
        root = decode_matrix_file(out)["matrix"].data
        assert sum(np.array_equal(m, root) for m in checker_calls) == 1


@pytest.mark.parametrize(
    "gen,claim", [("--kind omzd --n 6", "omzd"), ("--kind multipartite --n 2 --m 6", "multipartite")]
)
class TestOneZeroRule:
    """Every claim counts |entry| <= zero_tol as zero, by default 1e-12 * max|entry|."""

    def _file(self, tmp_path, gen):
        path = tmp_path / "m.json"
        invoke("gen", *gen.split(), "--out", str(path))
        return path

    def test_tiny_entry_at_a_required_zero(self, tmp_path, gen, claim):
        path = self._file(tmp_path, gen)
        doc = json.loads(path.read_text())
        doc["entries"][0][0] = 1e-13
        path.write_text(json.dumps(doc))
        verify = lambda *tol: invoke("verify", "--in", str(path), "--claim", claim, *tol)
        assert verify()[0] == 0
        assert verify("--zero-tol", "1e-3")[0] == 0
        code, _, err = verify("--zero-tol", "0")
        assert (code, err) == (1, "1 diagonal entries are nonzero\n")

    def test_tolerance_above_a_required_nonzero(self, tmp_path, gen, claim):
        path = self._file(tmp_path, gen)
        smallest = json.loads(path.read_text())["certificate"]["min_offdiag_magnitude"]
        code, _, err = invoke("verify", "--in", str(path), "--claim", claim, "--zero-tol", repr(1.01 * smallest))
        assert code == 1 and err.startswith("off-diagonal zeros at [(")


class TestVerifyTolerances:
    """A tolerance that is not finite and >= 0 is a usage error, not a verdict."""

    @pytest.mark.parametrize(
        "flag,value",
        [(flag, value) for flag in ("--res-tol", "--zero-tol") for value in ("inf", "nan", "-1")],
    )
    def test_rejected(self, tmp_path, flag, value):
        path = tmp_path / "m.json"
        invoke("gen", "--kind", "omzd", "--n", "9", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["entries"][0][1] *= 1.5  # breaks orthogonality
        path.write_text(json.dumps(doc))
        assert invoke("verify", "--in", str(path), "--claim", "omzd")[0] == 1
        code, out, err = invoke("verify", "--in", str(path), "--claim", "omzd", flag, value)
        name = flag[2:].replace("-", "_")
        assert (code, out) == (2, "")
        assert err == f"ValueError: {name} must be finite and >= 0, got {float(value)!r}\n"


class TestVerifyIntegerClaims:
    def test_non_integral_drt_prints_failed_report(self, tmp_path):
        path = tmp_path / "t.json"
        invoke("gen", "--kind", "drt", "--q", "7", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["entries"][0][1] = 0.5
        path.write_text(json.dumps(doc))
        code, out, err = invoke("verify", "--in", str(path), "--claim", "drt")
        assert code == 1 and err == "entries are not integral\n"
        assert json.loads(out) == {
            "claim": "DRT(7)",
            "passed": False,
            "q": 7,
            "k": None,
            "lambda": None,
            "failures": ["entries are not integral"],
        }

    def test_multipartite_without_parameters_is_exit_2(self, tmp_path):
        path = tmp_path / "w.json"
        invoke("gen", "--kind", "multipartite", "--n", "2", "--m", "6", "--out", str(path))
        doc = json.loads(path.read_text())
        del doc["provenance"]["parameters"]["m"]
        path.write_text(json.dumps(doc))
        code, out, err = invoke("verify", "--in", str(path), "--claim", "multipartite")
        assert (code, out) == (2, "")
        assert err.startswith("ValueError: claim 'multipartite' needs")

    @pytest.mark.parametrize("n,m", [(True, 12), (-2, -6), (0, 6)])
    def test_multipartite_parameters_must_be_positive_counts(self, tmp_path, n, m):
        path = tmp_path / "w.json"
        invoke("gen", "--kind", "multipartite", "--n", "2", "--m", "6", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["provenance"]["parameters"].update(n=n, m=m)
        path.write_text(json.dumps(doc))
        code, out, err = invoke("verify", "--in", str(path), "--claim", "multipartite")
        assert (code, out) == (2, "")
        assert err.startswith("ValueError: claim 'multipartite' needs a positive integer")

    @pytest.mark.parametrize("k", [True, 1.5, "1", -3])
    def test_ompzd_zero_count_must_be_a_count(self, tmp_path, k):
        path = tmp_path / "p.json"
        invoke("gen", "--kind", "ompzd", "--n", "9", "--k", "1", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["provenance"]["parameters"]["k"] = k
        path.write_text(json.dumps(doc))
        code, out, err = invoke("verify", "--in", str(path), "--claim", "ompzd")
        assert (code, out) == (2, "")
        assert err == f"ValueError: claim 'ompzd' needs a non-negative integer zero count k, got {k!r}\n"
