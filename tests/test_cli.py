"""CLI surface: gen/verify/plan/exists/certify-graph, persistence, exit codes."""

import argparse
import contextlib
import errno
import functools
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import omzd
from omzd import cli, construct, graphs, planner
from omzd.cli import (
    _dump_json,
    _fmt_number,
    _format_rows,
    decode_matrix_file,
    encode_matrix_file,
    run,
)
from omzd.errors import NonFiniteNumber, OmzdError, ResourceLimit, SchemaViolation
from omzd.numerics import RealMatrix
from omzd.verify import bordered_tournament


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

    def test_symmetric_order_2_is_certified_symmetric(self):
        code, out, err = invoke("gen", "--kind", "symmetric-omzd", "--n", "2")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["plan"] == "Symmetric(2)" and doc["entries"] == [[0, 1], [1, 0]]
        assert doc["certificate"]["claim"] == "SymmetricOMZD"
        assert doc["certificate"]["symmetry"] == "symmetric"


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


class _FullStream(io.StringIO):
    """A stream on a full disk: its write, or only its flush, fails with ENOSPC."""

    def __init__(self, failing: str):
        super().__init__()
        self.failing = failing

    def _fail(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def write(self, text):
        return self._fail() if self.failing == "write" else super().write(text)

    def flush(self):
        return self._fail() if self.failing == "flush" else super().flush()


# one run of each command that writes to stdout
_STDOUT_RUNS = [
    ("gen", "--kind", "omzd", "--n", "401"),
    ("gen", "--kind", "omzd", "--n", "5", "--format", "csv"),
    ("plan", "--kind", "omzd", "--n", "5"),
    ("exists", "--kind", "omzd", "--n", "5"),
    ("certify-graph", "--family", "knn", "--n", "3"),
    ("--help",),
]


def _cli_env(buffered: bool = False) -> dict:
    """The environment of a CLI subprocess that imports this tree's omzd,
    with Python's stdout and stderr buffered or not."""
    src = str(Path(omzd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    return env if buffered else dict(env, PYTHONUNBUFFERED="1")


class TestFailedStdout:
    """A write to stdout that fails is exit 2 with one stderr line, as a
    failed write to --out is, not a traceback with exit 1."""

    @pytest.mark.parametrize("failing", ["write", "flush"])
    @pytest.mark.parametrize("argv", _STDOUT_RUNS, ids=" ".join)
    def test_in_process(self, argv, failing):
        err = io.StringIO()
        assert run(list(argv), _FullStream(failing), err) == 2
        assert err.getvalue() == "cannot write output: [Errno 28] No space left on device\n"

    def test_verify(self, tmp_path):
        path = tmp_path / "m.json"
        invoke("gen", "--kind", "omzd", "--n", "6", "--out", str(path))
        err = io.StringIO()
        assert run(["verify", "--in", str(path), "--claim", "omzd"], _FullStream("write"), err) == 2
        assert err.getvalue() == "cannot write output: [Errno 28] No space left on device\n"

    @staticmethod
    def _cli(stdout, buffered: bool = False) -> subprocess.Popen:
        argv = [sys.executable, "-m", "omzd.cli", "gen", "--kind", "omzd", "--n", "401"]
        return subprocess.Popen(argv, stdout=stdout, stderr=subprocess.PIPE, env=_cli_env(buffered))

    def test_pipe_closed_early(self):
        proc = self._cli(subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait() == 2
        assert err == "cannot write output: [Errno 32] Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device(self):
        with open("/dev/full", "w") as full:
            proc = self._cli(full)
        err = proc.stderr.read().decode()
        assert proc.wait() == 2
        assert err == "cannot write output: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_buffered(self):
        # the buffer keeps the text whose write failed; the flush at exit
        # must not retry it, which would make the exit code 120
        with open("/dev/full", "w") as full:
            proc = self._cli(full, buffered=True)
        err = proc.stderr.read().decode()
        assert proc.wait() == 2
        assert err == "cannot write output: [Errno 28] No space left on device\n"


class TestFailedStderr:
    """A stderr that cannot be written loses the diagnostic, not the exit
    code: a usage error stays 2 and a refusal or a failed verdict 1."""

    @pytest.mark.parametrize(
        "argv,code", [(("gen", "--kind", "drt"), 2), (("gen", "--kind", "drt", "--q", "5"), 1)],
        ids=["usage-error", "refusal"],
    )
    def test_in_process(self, argv, code):
        out = io.StringIO()
        assert run(list(argv), out, _FullStream("write")) == code
        assert out.getvalue() == ""

    def test_failed_verify(self, tmp_path):
        path = tmp_path / "t.json"
        invoke("gen", "--kind", "drt", "--q", "7", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["entries"][0][1] = 0.5
        path.write_text(json.dumps(doc))
        out = io.StringIO()
        assert run(["verify", "--in", str(path), "--claim", "drt"], out, _FullStream("write")) == 1
        assert json.loads(out.getvalue())["passed"] is False

    # a write that failed fails again in the flush at exit, which prints
    # "Exception ignored" and makes the exit code 120; buffered streams
    # keep the failed text until then, unbuffered ones do not
    @staticmethod
    def _cli(argv, buffered: bool, **streams) -> subprocess.CompletedProcess:
        streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams}
        return subprocess.run([sys.executable, "-m", "omzd.cli", *argv], env=_cli_env(buffered), **streams)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
    def test_full_device(self, buffered):
        with open("/dev/full", "w") as full:
            proc = self._cli(["gen", "--kind", "drt"], buffered, stderr=full)
        assert (proc.returncode, proc.stdout) == (2, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
    def test_help_to_full_device(self, buffered):
        with open("/dev/full", "w") as full:
            proc = self._cli(["--help"], buffered, stdout=full)
        assert (proc.returncode, proc.stderr) == (2, b"cannot write output: [Errno 28] No space left on device\n")


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
        assert "".join(_format_rows(m.data, "", "\n")) == "0.33333333333333331\n"


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


# a certified value of each certify-graph parameter
_GRAPH_VALUES = {"n": "2", "k": "1", "m": "2"}


def _family_options(family, omit=None):
    """The options of a ``graphs.FAMILIES`` row but ``omit``, each set to
    its ``_GRAPH_VALUES`` entry."""
    takes = graphs.FAMILIES[family][1]
    return [word for name in takes if name != omit for word in (f"--{name}", _GRAPH_VALUES[name])]


def _family_grid():
    """certify-graph argvs over small members of every family, each
    option a family does not use, and each family with no --n."""
    head = ("certify-graph", "--family")
    for n in range(41):
        yield head + ("knn", "--n", str(n))
    for n in range(13):
        for k in range(-1, n + 2):
            yield head + ("gnk", "--n", str(n), "--k", str(k))
    for n in range(7):
        for m in range(10):
            yield head + ("multipartite", "--n", str(n), "--m", str(m))
    yield head + ("knn", "--n", "2", "--k", "1")
    yield head + ("knn", "--n", "2", "--m", "1")
    yield head + ("gnk", "--n", "2", "--k", "1", "--m", "1")
    yield head + ("multipartite", "--n", "2", "--m", "2", "--k", "1")
    for family in ("knn", "gnk", "multipartite"):
        yield head + (family,)


def _factorless_multipartite(argv):
    """A multipartite argv of ``_family_grid`` with parts of size >= 2 and
    a part count that has no symmetric OMZD: odd, or 4."""
    if argv[2] != "multipartite" or argv[3::2] != ("--n", "--m"):
        return False
    n, m = int(argv[4]), int(argv[6])
    return n >= 2 and m >= 2 and (m % 2 == 1 or m == 4)


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
        [(family, f"--{name}") for family, (_, takes) in graphs.FAMILIES.items() for name in "km" if name not in takes],
    )
    def test_option_the_family_does_not_use(self, family, option):
        # the output would echo the option beside a witness built without it
        code, out, err = invoke("certify-graph", "--family", family, *_family_options(family), option, "1")
        assert (code, out) == (2, "")
        assert err == f"usage error: certify-graph --family {family} takes no {option}\n"

    @pytest.mark.parametrize(
        "family,name",
        [(family, name) for family, (_, takes) in graphs.FAMILIES.items() for name in takes if name != "n"],
    )
    def test_parameter_the_family_needs(self, family, name):
        code, out, err = invoke("certify-graph", "--family", family, *_family_options(family, name))
        assert (code, out) == (2, "")
        assert err == f"usage error: certify-graph --family {family} needs --{name}\n"

    def test_family_choices_are_the_table(self):
        sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        family = next(a for a in sub.choices["certify-graph"]._actions if a.dest == "family")
        assert family.choices == tuple(graphs.FAMILIES)

    def test_family_grid_pinned(self, monkeypatch):
        # 235 argvs, exit codes 0/1/2 = 149/29/57: a change to how a family
        # is planned, built or parsed moves no exit code, stdout or stderr
        # byte.  The 25 multipartite argvs of parts of size >= 2 and a part
        # count with no symmetric OMZD (odd, or 4) moved in their reason
        # alone, since it is the symmetric-OMZD table's; the other 210 hash
        # as they did before
        monkeypatch.delenv("COLUMNS", raising=False)
        whole, kept = hashlib.sha256(), hashlib.sha256()
        for argv in _family_grid():
            result = repr((argv, *invoke(*argv))).encode()
            whole.update(result)
            if not _factorless_multipartite(argv):
                kept.update(result)
        assert whole.hexdigest() == "7eb6836e3991d29c86b559c412bc922176e2ea75e381640919262be6dbea172d"
        assert kept.hexdigest() == "8700bd95301648944b25791401cce2835a1aaabedabfdeae36ef627891fd22dd"

    @pytest.mark.parametrize(
        "argv", [("certify-graph", "--family", "knn"), ("gen", "--bogus"), ("verify",), ("frobnicate",)]
    )
    def test_usage_error_bytes_do_not_depend_on_columns(self, monkeypatch, argv):
        # argparse wraps to the terminal width, which COLUMNS sets; the
        # parser wraps at a fixed 78 columns instead
        results = []
        for columns in ("40", "200", None):
            if columns is None:
                monkeypatch.delenv("COLUMNS", raising=False)
            else:
                monkeypatch.setenv("COLUMNS", columns)
            results.append(invoke(*argv))
        assert results[0][0] == 2 and results[0][2].startswith("usage: omzd")
        assert results[0] == results[1] == results[2]

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

    @pytest.mark.parametrize(
        "argv,option",
        [
            ("exists --kind omzd --n 6 --k 3", "--k"),
            ("exists --kind symmetric-omzd --n 6 --k 5", "--k"),
            ("plan --kind omzd --n 6 --k 3", "--k"),
            ("plan --kind symmetric-omzd --n 6 --k 0", "--k"),
            ("gen --kind omzd --n 6 --k 3", "--k"),
            ("gen --kind symmetric-omzd --n 6 --m 2", "--m"),
            ("gen --kind ompzd --n 6 --k 2 --q 5", "--q"),
            ("gen --kind conference --q 5 --n 9", "--n"),
            ("gen --kind drt --q 7 --k 1", "--k"),
            ("gen --kind skew-hadamard --q 7 --m 2", "--m"),
            ("gen --kind multipartite --n 3 --m 6 --k 1", "--k"),
            # --t goes with drt and skew-hadamard only, --route with omzd
            # and ompzd only, and --branch with --route prefer-drt only
            ("gen --kind conference --q 27 --t 3", "--t"),
            ("gen --kind omzd --n 11 --t 0", "--t"),
            ("gen --kind multipartite --n 2 --m 6 --t 1", "--t"),
            ("gen --kind conference --q 27 --route prefer-drt", "--route"),
            ("gen --kind symmetric-omzd --n 8 --route auto", "--route"),
            ("gen --kind drt --q 7 --route prefer-recursive", "--route"),
            ("plan --kind symmetric-omzd --n 8 --route prefer-recursive", "--route"),
            ("gen --kind omzd --n 11 --branch plus", "--branch"),
            ("gen --kind omzd --n 11 --route prefer-recursive --branch minus", "--branch"),
            ("gen --kind ompzd --n 11 --k 4 --route auto --branch plus", "--branch"),
            ("gen --kind conference --q 27 --branch plus", "--branch"),
        ],
    )
    def test_option_the_kind_does_not_use(self, argv, option):
        # the output would echo the option beside an object built without it
        words = argv.split()
        code, out, err = invoke(*words)
        assert (code, out) == (2, "")
        assert err == f"usage error: {' '.join(words[:3])} takes no {option}\n"

    def test_ompzd_takes_k_in_exists_and_plan(self):
        assert invoke("exists", "--kind", "ompzd", "--n", "6", "--k", "3")[0] == 0
        assert invoke("plan", "--kind", "ompzd", "--n", "6", "--k", "3")[0] == 0

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
        monkeypatch.setattr(planner, "plan", lambda *args, **kwargs: planner._node("symmetric", args=(4,)))
        code, out, err = invoke("gen", "--kind", "symmetric-omzd", "--n", "4")
        assert (code, out) == (2, "")
        assert err == "internal error: BuildRefused: no symmetric OMZD(4) exists\n"

    def test_wrong_inner_stage_is_an_internal_error(self, monkeypatch):
        # combine takes an input of the right pattern that is not
        # orthogonal, and the root check refuses the plan before any output
        build = construct.symmetric_omzd

        def first_column_swapped(n):
            a = np.array(build(n).data)
            a[[1, -1], 0] = a[[-1, 1], 0]
            return RealMatrix(a, scale_c=float((n // 2) ** 2))

        monkeypatch.setattr(construct, "symmetric_omzd", first_column_swapped)
        code, out, err = invoke("gen", "--kind", "omzd", "--n", "11")
        assert (code, out) == (2, "")
        assert err.startswith(
            "internal error: CertificationFailed: plan Combine(Symmetric(8),Seed(omzd,5)) executed but failed"
        )

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
        assert "".join(_format_rows(m.data, "", "\n")) == expected_csv

    def test_generated_file_bytes(self):
        m = construct.combine(construct.seed("omzd", 6), construct.seed("omzd", 5))
        text = encode_matrix_file("omzd", m, None, None, {"theorem": "t", "parameters": {}})
        assert '"entries":' + _old_dump_entries(m.data) + ',"plan"' in text

    @staticmethod
    def _assert_same_text(got, expected):
        # pytest's own diff of two texts of megabytes takes minutes, so a
        # failure shows the first difference and its neighbourhood
        if got != expected:
            at = len(os.path.commonprefix([got, expected]))
            pytest.fail(f"texts differ at {at}: {got[at - 30 : at + 30]!r} != {expected[at - 30 : at + 30]!r}")

    @classmethod
    def _assert_matches_oracles(cls, data):
        cls._assert_same_text("[" + "".join(_format_rows(data, "[", "]", ",")) + "]", _old_dump_entries(data))
        expected_csv = "".join(",".join("%.17g" % x for x in row) + "\n" for row in data)
        cls._assert_same_text("".join(_format_rows(data, "", "\n")), expected_csv)

    def test_both_zero_signs_stay_apart(self):
        # RealMatrix normalizes -0.0, so the raw encoder gets the mixed array
        data = np.array([[-0.0, 0.0, 1.0], [0.0, -0.0, -1.0]])
        assert "".join(_format_rows(data, "[", "]", ",")) == "[-0,0,1],[0,-0,-1]"
        self._assert_matches_oracles(data)

    def test_values_one_ulp_apart(self):
        x = np.array([1.0 / 3.0, 1.0, -2.5, 1e-300, 5e-324])
        data = np.stack([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])
        values = "".join(_format_rows(data, "", "", ",")).split(",")
        assert len(values) == len(set(values)) == data.size
        self._assert_matches_oracles(data)

    def test_rows_span_several_chunks(self):
        # 16 rows of 4096 fill one chunk, so 40 rows make three, the last
        # one short; a subnormal and both zero signs sit on their edges
        data = np.random.default_rng(17).standard_normal((40, 4096))
        assert cli._CHUNK_ENTRIES // data.shape[1] == 16
        data[15, -1], data[16, 0], data[32, 0] = 5e-324, -0.0, -5e-324
        data[31, -1], data[39, -1], data[0, 0] = 0.0, -0.0, 0.0
        chunks = list(_format_rows(data, "", "\n"))
        assert [chunk.count("\n") for chunk in chunks] == [16, 16, 8]
        self._assert_matches_oracles(data)

    @pytest.mark.parametrize("shape", [(9, 1), (1, 9), (3, 0)])
    def test_one_row_one_column_and_no_columns(self, shape):
        data = np.random.default_rng(23).integers(-2, 3, size=shape) / 3.0
        if data.size:
            data.flat[0], data.flat[-1] = -0.0, 5e-324
        self._assert_matches_oracles(data)
        if not data.size:
            assert "".join(_format_rows(data, "[", "]", ",")) == "[],[],[]"

    def test_row_longer_than_a_chunk(self):
        # each chunk holds one row, so every chunk after the first opens
        # with the row separator; on both paths: sevenths with -0.0 and a
        # subnormal, and integers
        cols = cli._CHUNK_ENTRIES + 3
        sevenths = np.random.default_rng(29).integers(-3, 4, size=(3, cols)) / 7.0
        sevenths[1, 0], sevenths[2, -1] = -0.0, 5e-324
        integers = np.random.default_rng(31).integers(-3, 4, size=(3, cols)).astype(np.float64)
        for data in (sevenths, integers):
            chunks = list(_format_rows(data, "[", "]", ","))
            assert len(chunks) == 3
            assert chunks[0].startswith("[") and not chunks[0].startswith("[[")
            assert all(chunk.startswith(",[") and chunk.endswith("]") for chunk in chunks[1:])
            assert [chunk.count("\n") for chunk in _format_rows(data, "", "\n")] == [1, 1, 1]
            self._assert_matches_oracles(data)

    @pytest.mark.parametrize("layout", ["fortran", "transposed", "fortran-integer"])
    def test_non_contiguous_input(self, layout):
        rng = np.random.default_rng(11)
        base = rng.integers(-3, 4, size=(7, 5)) / rng.integers(1, 4, size=(7, 5))
        if layout == "fortran-integer":  # the int64 path
            base = rng.integers(-3, 4, size=(7, 5)).astype(np.float64)
        data = base.T if layout == "transposed" else np.asfortranarray(base)
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

    # integers on both sides of 2^53, where the int64 path stops, and one
    # "%.17g" prints with an exponent; with their negatives, and -0.0
    _EDGE_INTEGERS = [0.0, 1.0, 7.0, 2.0**53 - 1, 2.0**53, 1e16, 1e17]

    @settings(max_examples=30, deadline=None)
    @given(
        shape=st.sampled_from([(3, 0), (9, 1), (1, 9), (5, 7), (33, 4096)]),
        palette=st.lists(st.sampled_from(_EDGE_INTEGERS + [-x for x in _EDGE_INTEGERS[1:]]), min_size=1, max_size=4),
        negative_zeros=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_integer_values_at_the_int64_path_edge(self, shape, palette, negative_zeros, seed):
        # (33, 4096) spans three chunks, the last of one row; up to three
        # -0.0s land on random entries
        rng = np.random.default_rng(seed)
        data = rng.choice(palette, size=shape)
        if data.size:
            data.flat[rng.integers(0, data.size, size=negative_zeros)] = -0.0
        with mock.patch.object(cli.orjson, "dumps", wraps=orjson.dumps) as dumps:
            self._assert_matches_oracles(data)
        exact = np.all(np.abs(data) < 2.0**53) and not np.any(np.signbit(data) & (data == 0))
        assert dumps.called == exact

    @pytest.mark.parametrize(
        "argv,integer",
        [
            ("gen --kind conference --q 27", True),
            ("gen --kind drt --q 7 --t 1", True),
            ("gen --kind skew-hadamard --q 11", True),
            ("gen --kind omzd --n 4", True),  # the OMZD(4) seed, Paley q = 3
            ("gen --kind omzd --n 51", False),
            ("gen --kind ompzd --n 51 --k 20", False),
            ("certify-graph --family knn --n 40", False),
        ],
    )
    def test_integer_objects_take_the_int64_path(self, argv, integer, monkeypatch):
        dumps = mock.Mock(wraps=orjson.dumps)
        monkeypatch.setattr(cli.orjson, "dumps", dumps)
        code, out, err = invoke(*argv.split())
        assert code == 0 and err == ""
        assert dumps.call_count == (1 if integer else 0)

    # doubles the gram tokens must keep apart or print exactly: both zero
    # signs, subnormals, the ends of the exact integers, huge and tiny
    # magnitudes, and a third
    _EDGE_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.0**53, -(2.0**53)]
    _EDGE_DOUBLES += [1e300, -1e300, 1e-300, -1e-300, 1.0 / 3.0]

    @staticmethod
    def _one_gram_shape(distinct):
        # cols = g + 1 makes a row its first entry and one full gram, with
        # enough rows that the chunk, not the matrix, bounds the table; one
        # value makes g = cols - 1 whatever cols is
        g = 4 if distinct == 1 else cli._gram_width(distinct, 1, 1 << 20)
        rows = -(-cli._CHUNK_ENTRIES // (g + 1)) + 1
        assert cli._gram_width(distinct, rows, g + 1) == g
        return rows, g + 1

    # a failing matrix of up to 163 840 entries would shrink for minutes,
    # so the first failing example is reported as drawn
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
        phases=[Phase.explicit, Phase.reuse, Phase.generate],
    )
    @given(
        palette=st.lists(
            st.one_of(st.sampled_from(_EDGE_DOUBLES), st.floats(allow_nan=False, allow_infinity=False)),
            min_size=1,
            max_size=70,
            unique_by=lambda x: struct.pack("<d", x),
        ),
        shape=st.one_of(
            st.tuples(st.integers(1, 40), st.sampled_from([0, 1, 2, 3, 40])),
            st.just("one gram"),
            st.sampled_from([(16, 4096), (40, 4096)]),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gram_tokens_match_entry_by_entry_dump(self, palette, shape, seed):
        # (16, 4096) fills one chunk and (40, 4096) makes three; d^g and
        # 4095 mod g then give full grams alone or with a rest gram
        if shape == "one gram":
            shape = self._one_gram_shape(len(palette))
        rng = np.random.default_rng(seed)
        data = rng.choice(np.array(palette), size=shape)
        if data.size >= len(palette):  # every value present, so d is the palette's size
            data.flat[rng.permutation(data.size)[: len(palette)]] = palette
        self._assert_matches_oracles(data)

    @staticmethod
    def _record_grams(monkeypatch) -> list:
        """The (width, tokens) of every gram table _table_chunks builds."""
        made = []
        real = cli._gram_tokens

        def record(after, width):
            tokens = real(after, width)
            made.append((width, tokens))
            return tokens

        monkeypatch.setattr(cli, "_gram_tokens", record)
        return made

    @pytest.mark.parametrize(
        "distinct,rows,cols,g",
        [
            (5000, 251, 251, 1),  # no width fits: one value a token
            (64, 4095, 4095, 2),  # 64^2 = 4096 tokens, the most
            (65, 4095, 4095, 1),
            (2, 4096, 4, 3),  # cols - 1 bounds it
            (2, 40, 40, 6),  # the matrix's 1 600 entries bound it, not a chunk's
            (3, 4, 4, 1),  # 16 entries allow one token: no width fits
            (1, 16, 4096, 4095),
            (1, 3, 5, 1),
            (1, 5, 1, 1),
        ],
    )
    def test_gram_width_rule(self, distinct, rows, cols, g):
        assert cli._gram_width(distinct, rows, cols) == g

    @pytest.mark.parametrize("kind,params,distinct,g", [("omzd", {"n": 251}, 11, 3), ("ompzd", {"n": 251, "k": 120}, 56, 2)])
    def test_gram_width_of_splice_outputs(self, kind, params, distinct, g, monkeypatch):
        matrix, _ = planner.execute(planner.plan(kind, **params))
        assert len(np.unique(matrix.data)) == distinct
        assert cli._gram_width(distinct, 251, 251) == g
        made = self._record_grams(monkeypatch)
        self._assert_matches_oracles(matrix.data)
        rest = 250 % g  # the rest gram's width, none when 0
        one_framing = [(g, distinct**g)] + ([(rest, distinct**rest)] if rest else [])
        assert [(w, len(tokens)) for w, tokens in made] == one_framing * 2

    def test_many_values_keep_one_value_a_token(self, monkeypatch):
        rng = np.random.default_rng(37)
        palette = rng.standard_normal(1000)
        data = rng.choice(palette, size=(251, 251))
        distinct = len(np.unique(data))
        assert cli._gram_width(distinct, 251, 251) == 1
        made = self._record_grams(monkeypatch)
        self._assert_matches_oracles(data)
        values = np.unique(data.view(np.int64)).view(np.float64)
        assert made == [(1, ["," + "%.17g" % x for x in values])] * 2

    @pytest.mark.parametrize("distinct", [*range(1, 71), 100, 4095])
    def test_order_4095_table_bound(self, distinct, monkeypatch):
        # the table is built before the first chunk, so one chunk of a
        # broadcast row shows it without an order-4095 array
        row = (np.arange(4095) % distinct + 0.5) / 7.0
        bits = np.broadcast_to(row.view(np.int64), (4095, 4095))
        keys = np.unique(row.view(np.int64))
        assert len(keys) == distinct
        made = self._record_grams(monkeypatch)
        step = cli._CHUNK_ENTRIES // 4095
        chunk = next(cli._table_chunks(bits, keys, keys.view(np.float64).tolist(), step, "[", "]", ","))
        assert chunk == ",".join("[" + ",".join("%.17g" % x for x in row) + "]" for _ in range(step))
        width, grams = made[0]
        assert width == cli._gram_width(distinct, 4095, 4095)
        assert len(grams) == distinct**width
        assert width == 1 or len(grams) <= cli._CHUNK_ENTRIES // 16

    def test_one_value_table_is_linear_in_cols(self, monkeypatch):
        # g = cols - 1, so the one gram is a whole row less its first entry
        data = np.full((16, 4096), 1.0 / 3.0)
        made = self._record_grams(monkeypatch)
        self._assert_matches_oracles(data)
        token = ",0.33333333333333331"
        assert made == [(4095, [token * 4095])] * 2


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

    # number texts that reach the decoder's float conversion, not its
    # NaN/Infinity constants or its integers
    @pytest.mark.parametrize("token", ["1e999", "-1e999"])
    def test_overflowing_entry_text(self, token):
        text = _matrix_doc([[0.0, 1.0], [1.0, 0.5]]).replace("0.5", token)
        with pytest.raises(SchemaViolation) as exc:
            decode_matrix_file(text)
        assert str(exc.value) == "entries[1][1]: must be finite"

    def test_overflowing_scale_text(self):
        text = _matrix_doc([[0.0, 1.0], [1.0, 0.0]]).replace('"scale_c": null', '"scale_c": 1e999')
        with pytest.raises(SchemaViolation) as exc:
            decode_matrix_file(text)
        assert str(exc.value) == "scale_c: must be finite"

    def test_underflowing_entry_text_is_zero(self):
        text = _matrix_doc([[0.0, 1.0], [1.0, 0.5]]).replace("0.5", "1e-999")
        assert decode_matrix_file(text)["matrix"].data.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_truncated_past_the_memo_names_the_same_json_error(self):
        text = _matrix_doc(np.random.default_rng(7).standard_normal((70, 70)).tolist())
        truncated = text[: text.rindex("]]")]  # all 4 900 numbers, no closing brackets
        with pytest.raises(json.JSONDecodeError) as plain:
            json.loads(truncated)
        with pytest.raises(SchemaViolation) as exc:
            decode_matrix_file(truncated)
        assert str(exc.value) == f"$: not valid JSON: {plain.value}"


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


def _gen_stdout(argv: str) -> str:
    code, out, err = invoke(*argv.split())
    assert code == 0 and err == ""
    return out


def _assert_decodes_like_json_loads(text: str) -> None:
    doc = decode_matrix_file(text)
    plain = json.loads(text)
    expected = RealMatrix(plain.pop("entries")).data
    assert np.array_equal(doc.pop("matrix").data.view(np.int64), expected.view(np.int64))
    assert repr(doc) == repr(plain)  # repr tells 1 from 1.0 and every double apart


def _distinct_values(count: int, seed: int) -> list[float]:
    values = np.random.default_rng(seed).standard_normal(count)
    assert np.unique(values).size == count
    return values.tolist()


class TestDecoderMemo:
    """Files whose values repeat and files whose values never repeat decode
    to the doubles ``json.loads`` gives, and to its document without
    "entries"."""

    def test_gen_pin_files_decode_like_json_loads(self):
        for argv, _, _ in GEN_PINS:
            _assert_decodes_like_json_loads(_gen_stdout(argv))

    def test_all_distinct_file(self):
        _assert_decodes_like_json_loads(_matrix_doc(np.reshape(_distinct_values(4900, 1), (70, 70)).tolist()))

    def test_distinct_values_after_a_long_run_of_repeats(self):
        flat = [0.5] * 1500 + _distinct_values(4900, 2)
        _assert_decodes_like_json_loads(_matrix_doc(np.reshape(flat, (80, 80)).tolist()))

    def test_symmetric_file_decodes_like_json_loads(self):
        _assert_decodes_like_json_loads(_gen_stdout("gen --kind symmetric-omzd --n 400"))

    @pytest.mark.parametrize("count", [4096, 4097])
    def test_memo_holds_at_most_its_size(self, count):
        # one long row in which no value repeats, at and one past the 4096
        # distinct texts an earlier decoder memoised
        _assert_decodes_like_json_loads(_matrix_doc([_distinct_values(count, 3)]))

    def test_successive_decodes_are_independent(self):
        first = [[0.25, 0.5], [0.5, 0.25]]
        second = [[0.75, 0.5], [0.5, 0.75]]
        for entries in (first, second, first):
            assert decode_matrix_file(_matrix_doc(entries))["matrix"].data.tolist() == entries

    def test_peak_memory(self):
        # the row path packs one row at a time into one array of doubles,
        # which the RealMatrix adopts: 1.13x the matrix's bytes when this was
        # set, and a copy of it would add 1x; a decoder holding the entries
        # as json.loads's nested lists of floats peaks at 3.16x, and one
        # orjson.loads of the whole entries block at about 7.9x
        text = _gen_stdout("gen --kind omzd --n 401")
        assert cli._decode_rows(text) is not None
        tracemalloc.start()
        try:
            decode_matrix_file(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * 401 * 401 * 8


def _json_path(text: str) -> dict:
    """``decode_matrix_file`` with its row path declined: the json path alone."""
    with mock.patch.object(cli, "_decode_rows", return_value=None):
        return decode_matrix_file(text)


def _outcome(decode, text: str) -> tuple:
    """What ``decode`` makes of ``text``: the document's repr and the
    matrix's shape, bits and scale, or the refusal's type and message."""
    try:
        doc = decode(text)
    except OmzdError as e:
        return type(e).__name__, str(e)
    matrix = doc.pop("matrix")
    return repr(doc), matrix.data.shape, matrix.data.tobytes(), repr(matrix.scale_c)


def _assert_decided_as_the_json_path_decides(text: str) -> None:
    assert _outcome(decode_matrix_file, text) == _outcome(_json_path, text)


# gen files with non-integer entries, with integer and float entries, and
# with integer entries and a null scale_c, each as gen writes it, as
# json.dumps writes it and indented
_EQUIVALENCE_ARGV = ("gen --kind ompzd --n 7 --k 3", "gen --kind omzd --n 5", "gen --kind drt --q 3")


@functools.cache
def _equivalence_texts() -> tuple[str, ...]:
    texts = []
    for argv in _EQUIVALENCE_ARGV:
        text = _gen_stdout(argv)
        doc = json.loads(text)
        texts += [text, json.dumps(doc), json.dumps(doc, indent=1)]
    return tuple(texts)


# what a text mutation splices in: JSON's punctuation and whitespace, the
# member name the row path looks for, and number texts orjson and json read
# differently or refuse
_SPLICES = st.sampled_from(
    [" ", "\n", "\t", ",", "[", "]", "{", "}", ":", '"', '"entries"', '"entries":[[', "]],", "NaN",
     "Infinity", "1e999", "-0", "1e-999", "18446744073709551616", "true", "null", "\\ud800", "01"]
) | st.text(max_size=4)


class TestDecoderPaths:
    """The row path decides a text as the json path does: the same document
    and bit-identical matrix, or the same refusal."""

    def test_gen_files_take_the_row_path(self):
        for text in _equivalence_texts():
            assert cli._decode_rows(text) is not None
            _assert_decided_as_the_json_path_decides(text)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_document(self, data):
        # _mutate walks into every field, not only the entries, so a row path
        # that skipped a field check would decide differently
        doc = json.loads(data.draw(st.sampled_from(_equivalence_texts())))
        for _ in range(data.draw(st.integers(1, 3))):
            _mutate(data, doc)
        form = data.draw(st.sampled_from([{"separators": (",", ":")}, {}, {"indent": 1}]))
        _assert_decided_as_the_json_path_decides(json.dumps(doc, **form))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_text(self, data):
        text = data.draw(st.sampled_from(_equivalence_texts()))
        i = data.draw(st.integers(0, len(text)))
        j = data.draw(st.integers(i, min(i + 8, len(text))))
        _assert_decided_as_the_json_path_decides(text[:i] + data.draw(_SPLICES) + text[j:])

    @pytest.mark.parametrize(
        "token",
        ["NaN", "Infinity", "-Infinity", "1e999", "1e-999", str(2**63), str(2**64 + 1), str(-(2**63) - 1),
         str(10**39), "1.7976931348623159e308"],
    )
    def test_number_in_a_row(self, token):
        doc = json.loads(_gen_stdout("gen --kind omzd --n 5"))
        doc["entries"][1][2] = "@"
        _assert_decided_as_the_json_path_decides(json.dumps(doc, separators=(",", ":")).replace('"@"', token))

    def test_non_finite_row_names_its_cell(self):
        text = _gen_stdout("gen --kind omzd --n 5").replace("[1,0,", "[1,0,NaN,", 1).replace(",1,-1.3", ",-1.3", 1)
        assert cli._decode_rows(text) is None
        with pytest.raises(SchemaViolation, match=r"^entries\[1\]\[2\]: must be finite$"):
            decode_matrix_file(text)

    def test_wide_integer_order(self):
        text = _gen_stdout("gen --kind omzd --n 5").replace('"order":5', f'"order":{2**64}')
        _assert_decided_as_the_json_path_decides(text)
        with pytest.raises(SchemaViolation, match=f"expected {2**64} rows, got 5"):
            decode_matrix_file(text)

    def test_wide_integer_parameter_stays_an_integer(self):
        # orjson would read it as the float 1.8446744073709552e19
        text = _gen_stdout("gen --kind ompzd --n 7 --k 3").replace('"k":3', f'"k":{2**64}')
        assert cli._decode_rows(text) is not None
        _assert_decided_as_the_json_path_decides(text)
        assert decode_matrix_file(text)["provenance"]["parameters"]["k"] == 2**64

    def test_lone_surrogate_theorem(self):
        doc = json.loads(_gen_stdout("gen --kind omzd --n 5"))
        doc["provenance"]["theorem"] = "\ud800"
        text = json.dumps(doc)
        assert cli._decode_rows(text) is not None
        _assert_decided_as_the_json_path_decides(text)
        assert decode_matrix_file(text)["provenance"]["theorem"] == "\ud800"

    @pytest.mark.parametrize(
        "edit",
        [
            lambda t: t[:-2] + ',"entries":[[0]]}\n',  # a repeated "entries" in the tail
            lambda t: t[:-2] + ',"order":5}\n',  # a repeated head key in the tail
            lambda t: '{"entries":' + t[t.index("[[") : t.index("]]") + 2] + "," + t[1 : t.index(',"entries"')] + t[t.index("]]") + 2 :],
            lambda t: json.dumps(json.loads(t), sort_keys=True),
            lambda t: t[: t.index("]]") + 2] + ",}",  # a trailing comma
            lambda t: t.replace(',"entries"', ',\f"entries"'),  # \s, not JSON whitespace
            lambda t: t.replace("],[", "],\f[", 1),
            lambda t: "\ufeff" + t,
            lambda t: t[: len(t) // 2],
        ],
        ids=[
            "entries-repeated", "head-key-repeated", "entries-first", "sorted-keys", "trailing-comma",
            "form-feed-before-entries", "form-feed-between-rows", "bom", "truncated",
        ],
    )
    def test_layout_the_row_path_declines(self, edit):
        text = edit(_gen_stdout("gen --kind omzd --n 5"))
        assert cli._decode_rows(text) is None
        _assert_decided_as_the_json_path_decides(text)

    def test_entries_in_the_head_and_again_later(self):
        text = _gen_stdout("gen --kind omzd --n 5").replace('{"kind"', '{"entries":[[1]],"kind"', 1)
        assert cli._decode_rows(text) is None
        _assert_decided_as_the_json_path_decides(text)

    def test_size_is_capped_by_the_text_before_allocation(self):
        text = _gen_stdout("gen --kind omzd --n 5").replace('"order":5,"cols":5', '"order":1000000,"cols":1000000')
        assert cli._decode_rows(text) is None
        _assert_decided_as_the_json_path_decides(text)

    def test_deep_nesting(self):
        text = "[" * 100_000
        assert cli._decode_rows(text) is None
        _assert_decided_as_the_json_path_decides(text)

    @staticmethod
    def _number_tokens() -> list[str]:
        rng = np.random.default_rng(11)
        finite_bits = rng.integers(0, 2**63 - 2**52, size=20_000, dtype=np.int64)  # below inf's pattern
        doubles = (finite_bits.view(np.float64) * rng.choice([1.0, -1.0], 20_000)).tolist()
        wide = [int(d) * 10 ** int(e) + int(r) for d, e, r in zip(
            rng.integers(-9, 10, 5_000), rng.integers(18, 38, 5_000), rng.integers(0, 2**62, 5_000))]
        return ["%.17g" % x for x in doubles] + [repr(x) for x in doubles] + [str(x) for x in wide]

    def test_orjson_reads_json_doubles(self):
        # the row path's premise: a row's number texts give json.loads's doubles
        tokens = self._number_tokens()
        text = "[" + ",".join(tokens) + "]"
        row = np.empty(len(tokens))
        row[:] = orjson.loads(text)
        expected = np.array(json.loads(text), dtype=np.float64)
        assert np.array_equal(row.view(np.int64), expected.view(np.int64))

    def test_struct_packs_json_doubles(self):
        # the row path's premise as it packs: one struct of n doubles over
        # orjson's values gives json.loads's doubles, ints rounded as
        # float(int) rounds them and the sign of -0.0 kept
        tokens = self._number_tokens() + ["-0", "-0.0", str(2**53 + 1), str(2**63), str(2**64 + 1),
                                          str(-(2**63) - 1), str(10**39)]
        text = "[" + ",".join(tokens) + "]"
        packed = struct.Struct(f"{len(tokens)}d").pack(*orjson.loads(text))
        assert packed == np.array(json.loads(text), dtype=np.float64).tobytes()

    @pytest.mark.parametrize(
        "row",
        ["[2,-1,2,2]", "[2,-1]", "[2]", "[2,true,2]", "[2,false,2]", "[2,[-1],2]", '[2,"-1",2]', "[2,null,2]"],
        ids=["long", "short", "one-value", "true", "false", "nested-list", "string", "null"],
    )
    def test_row_the_struct_or_guard_declines(self, row):
        # the middle row of a 3-column file; a one-value row would broadcast
        # into its row of a float64 array, and true and false would pack as
        # 1.0 and 0.0
        text = _SMALL_FILE.replace("[2,-1,2]", row)
        assert text.count(row) == 1
        assert cli._decode_rows(text) is None
        _assert_decided_as_the_json_path_decides(text)


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

    @pytest.mark.parametrize("claim", ["drt", "skew-hadamard", "omzd"])
    def test_non_square_is_shape_mismatch_for_every_checker(self, tmp_path, claim):
        # drt and skew-hadamard once gave a "not square" verdict and exit 1
        doc = _matrix_doc([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        code, out, err = self._verify(tmp_path, doc, claim)
        assert (code, out) == (2, "")
        assert err == "ShapeMismatch: certification needs a square matrix, got 2x3\n"

    def test_non_utf8_file_is_a_schema_violation(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(_gen_stdout("gen --kind omzd --n 5").encode().replace(b'"omzd"', b'"omzd\xff"', 1))
        code, out, err = invoke("verify", "--in", str(path), "--claim", "omzd")
        assert (code, out) == (2, "")
        assert err.startswith("SchemaViolation: $: not UTF-8 text: ") and "0xff" in err
        assert err.count("\n") == 1 and "Traceback" not in err

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
# Where a deliberate change rewrote one field since, the third column
# holds its (new, earlier) text: the new text must appear once, and the
# pin is taken after putting the earlier text back.  Three kinds record a
# plan where they recorded another, two OMPZD files carry their root's
# exact scale_c where they carried the gram mean, and the DRT files carry
# the margin of the skew-Hadamard matrix their tournament is certified as.
# An argv in MOVED_PINS, whose entries moved, is pinned to the sha there.
_DRT_MARGIN = ('"min_offdiag_magnitude":1,', '"min_offdiag_magnitude":0,')
GEN_PINS = [
    ("gen --kind conference --q 27", "03de52fadbd363bc5dca41c751b01f670ed64ab8f046640454c3de6eabad44f2", None),
    ("gen --kind conference --q 81", "d6bda5b03b079f859265abaf2b49689f71fc9be7d10c3a5bcc6cee4b4cfde080", None),
    ("gen --kind conference --q 243", "2ef47274cea65283ca9c1220aa13fe69d3f7ac98d65758eb84238b93a87b4f48", None),
    # prime fields and even-degree fields, which the powers of 3 above miss
    ("gen --kind conference --q 49", "625c564194a16dc73a37d524abb68ad6c99425b9d2cb71d41fa359e9242aa35c", None),
    ("gen --kind conference --q 241", "b8c3fec3cbd825dfffed760103ddad26e64b0c49f33981715fef453fb9f375b5", None),
    ("gen --kind conference --q 251", "21bb12edb41a5d612ccab9d5322e6911371530cfe117740676d05af48538ee37", None),
    ("gen --kind conference --q 729", "e4faf20dcf601e0c47b19573241834b37f9d47dc68be44325022b504a45806ca", None),
    ("gen --kind drt --q 251", "4798302943083652ccc17cbdc1fa60efa1902513fe4d56dc3638896a75f69a03", _DRT_MARGIN),
    ("gen --kind drt --q 343", "758837bb36d2d4455fc70726dc2db90ec0d093cb730eb694666d3c2fd84dfb60", _DRT_MARGIN),
    ("gen --kind drt --q 43 --t 1", "38e2e9197e98bab8b4d6091bebd30e0d3e52b9739859e307c433cc1be2c97c67", _DRT_MARGIN),
    ("gen --kind drt --q 3", "569e96f70ebc17f4c424805ef3cdbfc2f7c3afec9f47cd15034e92c221309c12", _DRT_MARGIN),
    (
        "gen --kind skew-hadamard --q 11",
        "46eb94eef35440b5f23b2f9a263566fad23e344fc42d4cd4d0877e00fe4d1727",
        ('"plan":"SkewHadamard(PaleyDRT(11))"', '"plan":null'),
    ),
    (
        "gen --kind skew-hadamard --q 7 --t 1",
        "42f206e9e57ce185082063393688f41db34bfb6f501c47c1170d8f8cba3ddfea",
        ('"plan":"SkewHadamard(Double(PaleyDRT(7)))"', '"plan":null'),
    ),
    ("gen --kind skew-hadamard --q 27 --t 1", "34ea54a57979597c291360376a035e1745ecd6f2534b2e9cfc93755ee44dc4db", None),
    ("gen --kind multipartite --n 5 --m 6", "4b02e1f4974102eb4989d52b06aee1dc91485ff7af6566c14da10655b19f8224", None),
    (
        "gen --kind multipartite --n 3 --m 2",
        "9a3d61b1454df06e336b1991af7b728f6c90a6fe0bcdaa87a5ea2160b347e1d8",
        ('"plan":"Kron(Symmetric(2),NowhereZero(3))"', '"plan":"Kron(Seed(omzd,2),NowhereZero(3))"'),
    ),
    ("gen --kind omzd --n 51", "a573d0457028cee7a21b05dbd96e6dde742f41051b18380e89d04a1f45848874", None),
    ("gen --kind omzd --n 251", "d02dc62bcc44b05e4bd73553b2b77197f51e52f459cf1bc8c13e0832dc7ae0c0", None),
    # Combine(Seed(omzd,6),Seed(omzd,6)): the OMZD(6) seed is paley_conference(5)
    (
        "gen --kind omzd --n 10 --route prefer-recursive",
        "a236a4841bdabdf06dbe68ce1f590b821583571d9f86f4fd10f29204e6b19e9c",
        None,
    ),
    (
        "gen --kind ompzd --n 201 --k 100",
        "f15da577dea1b06371f7a61c5de4fa5762772bd40d5fed9045afadd3faff65fc",
        ('"scale_c":1,', '"scale_c":1.0000000000000024,'),
    ),
    (
        "gen --kind ompzd --n 51 --k 20",
        "dce6acab08a5a01a90da1768ba918d9e536b5f31882777068ee149ffcee1d655",
        ('"scale_c":1,', '"scale_c":1.0000000000000009,'),
    ),
    (
        "gen --kind ompzd --n 30 --k 29",
        "e062867f912f93b91d1233bd75ecdfa1fa765c4142a782a3a883f1659d675ba7",
        ('"plan":"OmpzdNm1(Symmetric(28),30)"', '"plan":"OmpzdNm1(30)"'),
    ),
    # the tournament route, an OmzdFromDrt root and one under ReduceZeros,
    # pinned while omzd_from_drt still checked its DRT in full
    (
        "gen --kind omzd --n 15 --route prefer-drt",
        "52520ca07d50cd871b34d7b2455ffe7989d651bb7ed4ba9a5e7c3404c741e88e",
        None,
    ),
    (
        "gen --kind omzd --n 63 --route prefer-drt --branch plus",
        "869d7588baae09eed9889c77e51128efd0dc0fa121e6ce027364bb18a2b88d06",
        None,
    ),
    (
        "gen --kind ompzd --n 15 --k 3 --route prefer-drt",
        "5a98f78b47af5285c152741c345b5ebb6a651696ffd46ad460f0f9aa17e3b9a4",
        None,
    ),
]


# Pins whose entries moved on purpose, argv -> sha256 of the stdout now;
# the earlier sha in the tables still names each test.  Combine scales
# each input by its declared scale_c, where it took the gram mean, which
# for a Symmetric input differs in the last ulp: every entry moved by at
# most 4.4e-15 * max|entry|.  Zero reduction keeps its input's labels,
# where it moved each rotated plane to the front: the five ReduceZeros
# outputs below are conjugate permutations of the ones they were.  Every
# output still passes verify.
MOVED_PINS = {
    "gen --kind omzd --n 51": "b521b6be9bcc047feec4c02b7a06faf78a42fd55999bfcbc55013d3ec9ac4274",
    "gen --kind omzd --n 51 --format csv": "8ce4443112befddbb0ab3ab336425e78d7ad9a72918db3abc93d908caeb00a2e",
    "gen --kind omzd --n 251": "93d3f862f1adcbbdc0dbe140751d6fcea3c1c405c201c2234b46f7fc397e105f",
    "gen --kind ompzd --n 201 --k 100": "349c399bcf387c2f85d451a7a0a91a9892f115af60e0dd7c1640dca90feab161",
    "gen --kind ompzd --n 51 --k 20": "fb55370bc8e806f0981467aa4c777f6d2c521e5e2cac66e0f8e7c5cf69b0549c",
    "gen --kind ompzd --n 15 --k 3 --route prefer-drt": "6e7d5fae3987f2170f4cbbd20cbf8dda26ce8247877c81dc473898aaef2ffc56",
    "gen --kind omzd --n 2001": "4aeab99de92c491463551fe16e3c887995063f7164147e29eddf5f0fe15d13bf",
    "gen --kind ompzd --n 1201 --k 600": "6e374bc227df601bc708f27b5af798aaf42248864b939d188b50cc282b5030c7",
    "gen --kind ompzd --n 2001 --k 1": "af85c57729f01e2e3dd4140e45b8021f8de8e79350d9c68fbfc0beb0729e96d4",
}


# stdout of runs whose output is not a gen matrix file, sha256 of the
# bytes written by the entry-by-entry encoder
OUTPUT_PINS = [
    ("gen --kind omzd --n 51 --format csv", "43fef309a4a795ef3f355ce9ec1710de25b9c7127bd8c0f8bfd398da327c3b5c"),
    ("certify-graph --family knn --n 40", "c2557c2a948bf2c78d98bdd5c357e009ab9443a68b7b9248b3c7981592b80f30"),
]


# gen records and plans each kind from its one options row, so an ompzd
# file's provenance parameters end with its route, and after prefer-drt
# its branch, which none of its pins was taken with: argv -> the member
# added, which must end the parameters and is taken out before the pin
# is compared.  No other byte of these files moved.
ROUTE_RECORDED = {
    "gen --kind ompzd --n 201 --k 100": ',"route":"auto"',
    "gen --kind ompzd --n 51 --k 20": ',"route":"auto"',
    "gen --kind ompzd --n 30 --k 29": ',"route":"auto"',
    "gen --kind ompzd --n 15 --k 3 --route prefer-drt": ',"route":"prefer-drt","branch":"minus"',
    "gen --kind ompzd --n 1201 --k 600": ',"route":"auto"',
    "gen --kind ompzd --n 2001 --k 1": ',"route":"auto"',
}


def _pinned_text(argv, out):
    """``out`` with the ``ROUTE_RECORDED`` member of ``argv``, if any,
    taken out of the end of its provenance parameters."""
    member = ROUTE_RECORDED.get(argv)
    if member is None:
        return out
    assert out.count(member) == 1 and out.endswith(member + "}}}\n")
    return out.replace(member, "")


class TestGenPinnedBytes:
    @pytest.mark.parametrize("argv,sha", OUTPUT_PINS)
    def test_other_stdout_bytes(self, argv, sha):
        code, out, err = invoke(*argv.split())
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == MOVED_PINS.get(argv, sha)

    @pytest.mark.parametrize("argv,sha,change", GEN_PINS)
    def test_stdout_bytes(self, argv, sha, change):
        code, out, err = invoke(*argv.split())
        assert code == 0 and err == ""
        if argv in MOVED_PINS:
            sha, change = MOVED_PINS[argv], None
        if change is not None:
            new, old = change
            assert out.count(new) == 1
            out = out.replace(new, old)
        assert hashlib.sha256(_pinned_text(argv, out).encode()).hexdigest() == sha

    @pytest.mark.parametrize(
        "argv,code,message",
        [
            ("gen --kind conference --q 21", 1, "InvalidQ: q = 21 is not an odd prime power; note: a symmetric"),
            ("gen --kind drt --q 5", 1, "InvalidQ: q = 5 is not 3 mod 4"),
            ("gen --kind skew-hadamard --q 15", 1, "InvalidQ: q = 15 is not an odd prime power"),
            # a part count with no symmetric OMZD(m) has that table's reason:
            # with parts of size 1 the claim is a symmetric OMZD(m)'s
            ("gen --kind multipartite --n 3 --m 3", 1, "NoKnownConstruction: no construction is known without a symmetric OMZD(3) factor; symmetric-omzd-existence: no symmetric OMZD(3); odd order"),
            ("gen --kind multipartite --n 3 --m 4", 1, "NoKnownConstruction: no construction is known without a symmetric OMZD(4) factor; symmetric-omzd-order-4: a symmetric OMZD(4) does not exist\n"),
            ("gen --kind multipartite --n 1 --m 4", 1, "NonexistentTarget: parts of size 1 make a multipartite matrix a symmetric OMZD(4); symmetric-omzd-order-4: a symmetric OMZD(4) does not exist\n"),
            ("gen --kind multipartite --n 1 --m 5", 1, "NonexistentTarget: parts of size 1 make a multipartite matrix a symmetric OMZD(5); symmetric-omzd-existence: no symmetric OMZD(5); odd order"),
            ("gen --kind multipartite --n 3 --m 0", 2, "ValueError: part count must be >= 2, got 0"),
            ("gen --kind multipartite --n 3 --m 1", 2, "ValueError: part count must be >= 2, got 1"),
            ("gen --kind multipartite --n 3 --m -2", 2, "ValueError: part count must be >= 2, got -2"),
            ("gen --kind drt --q 7 --t -1", 2, "ValueError: doubling count t must be >= 0, got -1"),
            # a q below 2 is a usage error, before the prime-power test
            ("gen --kind conference --q 0", 2, "ValueError: prime power q must be >= 2, got 0"),
            ("gen --kind conference --q -3", 2, "ValueError: prime power q must be >= 2, got -3"),
            ("gen --kind drt --q 0", 2, "ValueError: prime power q must be >= 2, got 0"),
            ("gen --kind drt --q -3 --t 1", 2, "ValueError: prime power q must be >= 2, got -3"),
            ("gen --kind skew-hadamard --q 1", 2, "ValueError: prime power q must be >= 2, got 1"),
            ("gen --kind skew-hadamard --q -3", 2, "ValueError: prime power q must be >= 2, got -3"),
            ("gen --kind multipartite --n 0 --m 2", 2, "ValueError: part size must be >= 1, got 0"),
            ("gen --kind multipartite --n 3", 2, "usage error: gen --kind multipartite needs --m"),
            ("gen --kind drt", 2, "usage error: gen --kind drt needs --q"),
        ],
    )
    def test_refusals(self, argv, code, message):
        got, out, err = invoke(*argv.split())
        assert (got, out) == (code, "")
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize("n", [0, -3])
    def test_part_size_refused_before_any_build(self, n, monkeypatch):
        built = []
        monkeypatch.setattr(construct, "symmetric_omzd", lambda order: built.append(order))
        assert invoke("gen", "--kind", "multipartite", "--n", str(n), "--m", "6") == (
            2, "", f"ValueError: part size must be >= 1, got {n}\n"
        )
        assert built == []


def _provenance_grid():
    """gen argvs of the OMZD kinds at orders 9 to 31 and zero counts from 1
    to n, under every route and, after prefer-drt, either branch; then one
    argv of each other kind."""
    routes = [("--route", planner.ROUTE_AUTO), ("--route", planner.ROUTE_PREFER_RECURSIVE)]
    routes += [("--route", planner.ROUTE_PREFER_DRT, "--branch", branch) for branch in planner.BRANCHES]
    for n in (9, 12, 15, 23, 31):
        heads = [("gen", "--kind", "omzd", "--n", str(n))]
        heads += [("gen", "--kind", "ompzd", "--n", str(n), "--k", str(k)) for k in (1, n // 2, n - 2, n - 1, n)]
        for head in heads:
            for route in routes:
                yield head + route
    for argv in (
        "gen --kind conference --q 13",
        "gen --kind drt --q 11 --t 1",
        "gen --kind skew-hadamard --q 7 --t 1",
        "gen --kind multipartite --n 2 --m 6",
        "gen --kind symmetric-omzd --n 10",
    ):
        yield tuple(argv.split())


class TestProvenanceRebuilds:
    @pytest.mark.parametrize(
        "argv", [tuple(argv.split()) for argv, *_ in GEN_PINS] + list(_provenance_grid()), ids=" ".join
    )
    def test_parameters_rebuild_the_bytes(self, argv):
        # gen --kind <kind>, then each recorded parameter as its option,
        # writes the document again
        code, out, err = invoke(*argv)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        rebuilt = ["gen", "--kind", doc["kind"]]
        for name, value in doc["provenance"]["parameters"].items():
            rebuilt += [f"--{name}", str(value)]
        assert invoke(*rebuilt) == (0, out, "")


# sha256 of stdout at orders where the encoder writes many row chunks,
# taken before it wrote them in chunks
LARGE_PINS = [
    ("gen --kind omzd --n 2001", "a8d4f25cf2135a1c98e723acfa0112cd40abc455aa4b60364ef7d14b073977cb"),
    ("gen --kind ompzd --n 1201 --k 600", "4ba1359b67fb9591f9b193509c1714b09ddffe3fd9bf84b008f85e165cc2b02f"),
    ("gen --kind ompzd --n 2001 --k 1", "35e3e0a1d5f057044077fd2bf727d4ba3d62be3022b3239e033b7914968db04d"),
    # integer-valued matrices over many chunks, taken before the encoder
    # wrote them through int64; the conference JSON is in GEN_PINS
    ("gen --kind conference --q 729 --format csv", "03f2a441e8f5d5df1390108e939f1181a400a2a46a28ee5aaa68c55c72afec8c"),
    ("gen --kind drt --q 7 --t 7", "62055a7959b3efdb498a1468607472c33498401e8cf89f501380f13ad81145e4"),
    ("gen --kind drt --q 7 --t 7 --format csv", "2afa90d7f7d9dffb12edbb944f45379c71bdb21bc1f3cdb5e91099fb2acca72d"),
    ("gen --kind skew-hadamard --q 127 --t 3", "9025db45791b14e1c8d849529322b656318599c287905b25cf8ff18bf9f9218f"),
    (
        "gen --kind skew-hadamard --q 127 --t 3 --format csv",
        "ae79280b51ee2ef0dde7a389e1792280eb9df4f0019e3979a042d78408fbbe07",
    ),
]


class _NullSink:
    def writelines(self, pieces):
        for _ in pieces:
            pass


class TestStreamedOutput:
    """gen and certify-graph write their documents piece by piece, to
    stdout or to --out, and refuse before writing anything."""

    @pytest.mark.parametrize("argv", [argv for argv, *_ in GEN_PINS + OUTPUT_PINS])
    def test_out_file_matches_stdout(self, argv, tmp_path):
        code, out, err = invoke(*argv.split())
        assert code == 0 and err == ""
        path = tmp_path / "out"
        assert invoke(*argv.split(), "--out", str(path)) == (0, "", "")
        assert path.read_bytes() == out.encode()

    @pytest.mark.parametrize("argv,sha", LARGE_PINS)
    def test_large_stdout_bytes(self, argv, sha):
        code, out, err = invoke(*argv.split())
        assert code == 0 and err == ""
        assert hashlib.sha256(_pinned_text(argv, out).encode()).hexdigest() == MOVED_PINS.get(argv, sha)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_non_finite_last_row_writes_nothing(self, fmt, to_file, tmp_path, monkeypatch):
        execute = planner.execute

        def last_row_inf(node):
            matrix, verdict = execute(node)
            data = matrix.data.copy()
            data[-1, 0] = math.inf
            return RealMatrix(data, scale_c=matrix.scale_c), verdict

        monkeypatch.setattr(planner, "execute", last_row_inf)
        path = tmp_path / "out"
        # 163 rows of 401 fill one chunk: the bad row is in the third
        argv = ["gen", "--kind", "omzd", "--n", "401", "--format", fmt] + (["--out", str(path)] if to_file else [])
        code, out, err = invoke(*argv)
        assert (code, out) == (2, "")
        assert err.startswith("NonFiniteNumber: ") and err.count("\n") == 1
        assert not path.exists()

    def test_encode_peak_memory(self):
        # the document is 2.8x the matrix's bytes, so holding it whole, or
        # its rows as one list, fails here; the sorted copy of the bit
        # patterns is 1x, and the encoder peaked at 1.13x when this was set
        node = planner.plan("omzd", 1001, None)
        matrix, verdict = planner.execute(node)
        provenance = {"theorem": node.theorem, "parameters": {"n": 1001, "route": "auto"}}
        tracemalloc.start()
        try:
            pieces = cli._matrix_file_pieces(
                "omzd", matrix, planner.serialize_plan(node), verdict.summary(), provenance
            )
            cli._emit(argparse.Namespace(out=None), pieces, _NullSink())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.0 * matrix.data.nbytes


def _core_runs(call):
    """The matrices each run of the certificate core was given while
    ``call()`` ran, in order, and its result."""
    from omzd import verify

    runs, core = [], verify._certify_pattern

    def counted(m, *args, **kwargs):
        runs.append(np.array(m.data))
        return core(m, *args, **kwargs)

    verify._certify_pattern = counted
    try:
        result = call()
    finally:
        verify._certify_pattern = core
    return runs, result


class TestEachStageCheckedOnce:
    @pytest.mark.parametrize("argv", [argv for argv, _, _ in GEN_PINS])
    def test_checks_per_gen(self, argv, monkeypatch):
        nodes, plan = [], planner.plan

        def recording_plan(*args, **kwargs):
            nodes.append(plan(*args, **kwargs))
            return nodes[-1]

        monkeypatch.setattr(planner, "plan", recording_plan)
        runs, (code, out, _) = _core_runs(lambda: invoke(*argv.split()))
        assert code == 0 and len(nodes) == 1
        assert len(runs) == 1
        root = decode_matrix_file(out)["matrix"]
        if nodes[0].kind == "drt":  # a tournament is certified as its skew-Hadamard matrix
            root = RealMatrix(bordered_tournament(root))
        assert np.array_equal(runs[-1], root.data)  # the last run is the root's

    @pytest.mark.parametrize(
        "argv,orders",
        [("gen --kind skew-hadamard --q 11", [12]), ("gen --kind skew-hadamard --q 7 --t 1", [16])],
    )
    def test_skew_hadamard_core_runs(self, argv, orders):
        # one core run on H serves the root and every tournament below it,
        # the doubled one included
        runs, (code, _, err) = _core_runs(lambda: invoke(*argv.split()))
        assert (code, err) == (0, "")
        assert [m.shape for m in runs] == [(n, n) for n in orders]

    @pytest.mark.parametrize(
        "argv",
        [
            "--family knn --n 40",
            "--family gnk --n 51 --k 20",
            "--family gnk --n 30 --k 29",
            "--family gnk --n 12 --k 11",
            "--family multipartite --n 3 --m 6",
            "--family multipartite --n 1 --m 5",
        ],
    )
    def test_one_core_run_per_certify_graph(self, argv):
        runs, (code, out, _) = _core_runs(lambda: invoke("certify-graph", *argv.split()))
        assert code == 0 and '"distinct_eigenvalue_count":2' in out
        assert len(runs) == 1

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 40), data=st.data(), route=st.sampled_from(planner.ROUTES))
    def test_core_runs_per_plan(self, n, data, route):
        k = data.draw(st.integers(0, n))
        node = planner.plan("ompzd", n, k, route)
        runs, (matrix, verdict) = _core_runs(lambda: planner.execute(node))
        assert verdict.passed
        assert len(runs) == 1
        assert np.array_equal(runs[-1], matrix.data)


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


class TestDeclaredScale:
    """verify compares a file's declared scale_c with the recovered c."""

    def test_wrong_declared_scale_fails(self, tmp_path):
        path = tmp_path / "m.json"
        text = _gen_stdout("gen --kind omzd --n 11")
        path.write_text(text.replace('"scale_c":1,', '"scale_c":7,', 1))
        code, out, err = invoke("verify", "--in", str(path), "--claim", "omzd")
        assert code == 1 and json.loads(out)["passed"] is False
        assert err.startswith("declared scale_c 7.0 differs from the recovered c 1")

    def test_exact_claim_needs_equality(self, tmp_path):
        path = tmp_path / "m.json"
        text = _gen_stdout("gen --kind conference --q 5")
        assert '"scale_c":5,' in text
        path.write_text(text.replace('"scale_c":5,', '"scale_c":5.000000000000001,', 1))
        code, _, err = invoke("verify", "--in", str(path), "--claim", "conference")
        assert code == 1 and err == "declared scale_c 5.000000000000001 differs from the recovered c 5.0\n"

    def test_tournament_declares_no_scale(self, tmp_path):
        # T has no c; the 8 in the report is the scale of its bordered H
        path = tmp_path / "t.json"
        text = _gen_stdout("gen --kind drt --q 7")
        path.write_text(text.replace('"scale_c":null', '"scale_c":7', 1))
        code, out, err = invoke("verify", "--in", str(path), "--claim", "drt")
        report = json.loads(out)
        assert code == 1 and report["passed"] is False and report["scale_c"] == 8
        assert report["failures"] == ["a tournament declares no scale_c, got 7.0"]
        assert err == "a tournament declares no scale_c, got 7.0\n"


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

    @pytest.mark.parametrize(
        "gen,claim,flag",
        [
            ("--kind conference --q 5", "conference", "--res-tol"),
            ("--kind conference --q 5", "conference", "--zero-tol"),
            ("--kind drt --q 7", "drt", "--res-tol"),
            ("--kind skew-hadamard --q 7", "skew-hadamard", "--res-tol"),
            ("--kind drt --q 7", "drt", "--zero-tol"),
            ("--kind skew-hadamard --q 7", "skew-hadamard", "--zero-tol"),
            ("--kind omzd --n 6", "orthogonal", "--zero-tol"),
        ],
    )
    def test_unread_tolerance_is_refused(self, tmp_path, gen, claim, flag):
        path = tmp_path / "m.json"
        invoke("gen", *gen.split(), "--out", str(path))
        code, out, err = invoke("verify", "--in", str(path), "--claim", claim, flag, "1e-3")
        assert (code, out) == (2, "")
        assert err == f"ValueError: claim {claim!r} takes no {flag[2:].replace('-', '_')}\n"


class TestVerifyIntegerClaims:
    def test_non_integral_drt_prints_failed_report(self, tmp_path):
        path = tmp_path / "t.json"
        invoke("gen", "--kind", "drt", "--q", "7", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["entries"][0][1] = 0.5
        path.write_text(json.dumps(doc))
        code, out, err = invoke("verify", "--in", str(path), "--claim", "drt")
        # the certificate of the bordered H, whose entry (1, 2) is the 0.5
        failures = [
            "entries are not all in {0, 1}",
            "not an orientation of the complete graph: T + T^T != J - I",
            "entries are not all 0 or +-1; exact check impossible",
            "gram deviates from cI by 0.5625 (exact check)",
        ]
        assert code == 1 and err == "; ".join(failures) + "\n"
        assert json.loads(out) == {
            "claim": "DRT(7)",
            "passed": False,
            "max_residual": 0.5625,
            "min_offdiag_magnitude": 0.5,
            "symmetry": "neither",
            "scale_c": 7.8125,
            "failures": failures,
        }

    def test_tampered_skew_hadamard_prints_full_report(self, tmp_path):
        path = tmp_path / "h.json"
        invoke("gen", "--kind", "skew-hadamard", "--q", "11", "--t", "1", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["entries"][0][1] = -1
        path.write_text(json.dumps(doc))
        code, out, err = invoke("verify", "--in", str(path), "--claim", "skew-hadamard")
        assert code == 1

        def refuse(token):
            raise AssertionError(f"{token} is not strict JSON")

        assert json.loads(out, parse_constant=refuse) == {
            "claim": "SkewHadamard(24)",
            "passed": False,
            "max_residual": 2,
            "min_offdiag_magnitude": 1,
            "symmetry": "neither",
            "scale_c": 24,
            "failures": ["H + H^T != 2I", "gram deviates from cI by 2.0 (exact check)"],
        }
        assert err == "H + H^T != 2I; gram deviates from cI by 2.0 (exact check)\n"

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


# every subparser of the CLI, read from the parser itself, so the argv
# alphabet below grows with each option added there
_SUBPARSERS = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
_SUB_OPTIONS = {name: [a for a in p._actions if a.option_strings] for name, p in _SUBPARSERS.items()}
# abbreviations, --opt=value, help and unknown options, which argparse decides
_ODD_OPTIONS = ["--ki", "--fam", "--cl", "--res", "--kind=omzd", "--n=11", "--family=knn", "-h", "--help", "--bogus"]
# invalid choices, and number texts int and float read in their own ways
_ODD_VALUES = ["hadamard", "", "0", "2", "3", "6", "11", "-3", "+5", "5_0", " 6", "inf", "nan", "1e-3"]
_ARGV_WORDS = sorted(
    {*_SUBPARSERS, "frobnicate", *_ODD_OPTIONS, *_ODD_VALUES}
    | {s for actions in _SUB_OPTIONS.values() for a in actions for s in a.option_strings}
    | {c for actions in _SUB_OPTIONS.values() for a in actions for c in a.choices or ()}
)


@st.composite
def _argvs(draw):
    """Mostly a subcommand and ``--option value`` pairs: its required
    options and a few more, each option string exact or odd, each value
    a choice or an odd text, in any order; now and then a word dropped or
    added or an option repeated, or any words at all."""
    # hypothesis draws small integers most, so 0 keeps an argv well formed
    if draw(st.integers(0, 5)) == 5:
        return draw(st.lists(st.sampled_from(_ARGV_WORDS), max_size=7))
    command = draw(st.sampled_from([*_SUBPARSERS, "frobnicate"]))
    actions = _SUB_OPTIONS.get(command, [])
    picked = [a for a in actions if a.required and draw(st.integers(0, 9)) < 9]
    if actions:
        picked += [a for a in draw(st.lists(st.sampled_from(actions), max_size=3, unique=True)) if a not in picked]
    pairs = []
    for action in picked:  # mostly its own option string, and a choice where it has them
        options = action.option_strings if draw(st.integers(0, 9)) < 9 else _ODD_OPTIONS
        values = action.choices if action.choices and draw(st.integers(0, 4)) < 4 else _ODD_VALUES
        pairs.append([draw(st.sampled_from(options)), draw(st.sampled_from(values))])
    argv = [command, *(word for pair in draw(st.permutations(pairs)) for word in pair)]
    edit = draw(st.integers(0, 9))
    if edit == 9 and len(argv) > 1:
        del argv[draw(st.integers(1, len(argv) - 1))]
    elif edit == 8:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_ARGV_WORDS)))
    elif edit == 7 and pairs:  # an option given twice
        argv += draw(st.sampled_from(pairs))
    return argv


def _fields(namespace) -> list:
    """Each field of ``namespace`` with its type and repr: 5 and 5.0 differ,
    and NaN equals NaN."""
    return sorted((name, type(value).__name__, repr(value)) for name, value in vars(namespace).items())


def _outcome(argv, fast: bool = True):
    """run(argv)'s exit code, stdout and stderr, or the type and text of
    what it raises; with ``fast`` False, argparse parses every argv."""
    patch = contextlib.nullcontext() if fast else mock.patch.object(cli, "_fast_args", lambda argv: None)
    out, err = io.StringIO(), io.StringIO()
    with patch:
        try:
            return run(argv, out, err), out.getvalue(), err.getvalue()
        except Exception as e:
            return type(e).__name__, str(e)


class TestFastArgs:
    """run takes a well-formed argv through cli._fast_args, without
    argparse; what it returns and writes is what argparse would give."""

    def test_table_holds_every_option_of_every_subparser(self):
        table = cli._option_table()
        assert table.keys() == _SUBPARSERS.keys()
        for name, actions in _SUB_OPTIONS.items():
            options, defaults, required = table[name]
            stores = [a for a in actions if not isinstance(a, argparse._HelpAction)]
            assert options == {s: a for a in stores for s in a.option_strings}
            assert defaults.keys() == {"command"} | {a.dest for a in stores}
            assert required == {a.dest for a in stores if a.required}

    @settings(max_examples=400, deadline=None)
    @given(argv=_argvs())
    def test_accepted_argv_parse_as_argparse_parses_them(self, argv):
        fast = cli._fast_args(argv)
        if fast is None:
            return
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            slow = cli._build_parser().parse_args(argv)
        assert _fields(fast) == _fields(slow)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=_argvs())
    def test_run_writes_what_argparse_would(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # an --out value is a path
        assert _outcome(argv) == _outcome(argv, fast=False)

    @pytest.mark.parametrize("argv", [argv for argv, *_ in GEN_PINS + OUTPUT_PINS + LARGE_PINS])
    def test_pinned_argv_take_the_fast_path(self, argv):
        words = argv.split()
        assert cli._fast_args(words) is not None
        assert _outcome(words) == _outcome(words, fast=False)

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--kind", "omzd", "--n", 11],
            ["gen", "--kind", b"omzd", "--n", "11"],
            [None],
            ["gen", "--kind", "omzd", "--n", "11", "--n", "12"],
            ["gen", "--kind", "omzd", "--n", "-3"],
            ["gen", "--kind=omzd", "--n", "11"],
            ["gen", "--ki", "omzd", "--n", "11"],
            ["gen", "--kind", "omzd", "--n", "11", "-h"],
            ["verify", "--claim", "omzd"],
            [],
        ],
    )
    def test_other_argv_go_to_argparse(self, argv):
        assert cli._fast_args(argv) is None
        assert _outcome(argv) == _outcome(argv, fast=False)

    def test_a_tuple_takes_the_fast_path(self):
        argv = ("gen", "--kind", "omzd", "--n", "11")
        assert cli._fast_args(argv) == cli._build_parser().parse_args(argv)
        assert _outcome(argv) == _outcome(list(argv), fast=False)
