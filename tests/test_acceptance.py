"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import io
import json
import math
import time

import numpy as np
import pytest

from omzd import construct, graphs, planner
from omzd.cli import decode_matrix_file, encode_matrix_file, run
from omzd.numerics import RealMatrix, residual_scaled_identity
from omzd.verify import certify, check_drt

FANO = np.array(
    [
        [0, 1, 1, 0, 1, 0, 0],
        [0, 0, 1, 1, 0, 1, 0],
        [0, 0, 0, 1, 1, 0, 1],
        [1, 0, 0, 0, 1, 1, 0],
        [0, 1, 0, 0, 0, 1, 1],
        [1, 0, 1, 0, 0, 0, 1],
        [1, 1, 0, 1, 0, 0, 0],
    ],
    dtype=np.int64,
)


class _Clock:
    def __init__(self, limit: float, label: str):
        self.limit = limit
        self.label = label

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            status = "PASS" if elapsed < self.limit else "FAIL (overtime)"
            print(f"criterion {self.label}: {status} ({elapsed:.2f}s, limit {self.limit:.0f}s)")
            assert elapsed < self.limit, f"{self.label} took {elapsed:.2f}s"
        else:
            print(f"criterion {self.label}: FAIL ({exc_type.__name__})")
        return False


def test_criterion_1_golden_seeds():
    with _Clock(1.0, "1 (golden seeds)"):
        # conference seeds: exact integer identity CC^T = (n-1)I
        for n in (2, 4, 6):
            m = construct.seed("omzd", n)
            ints = m.data.astype(np.int64)
            assert np.array_equal(ints @ ints.T, (n - 1) * np.eye(n, dtype=np.int64))
            cert = certify(m, "conference")
            assert cert.passed and cert.max_residual == 0.0

        for n in (5, 7):
            cert = certify(construct.seed("omzd", n), "omzd")
            assert cert.passed
            assert cert.max_residual <= 1e-12 * cert.scale_c

        for n, k in ((3, 1), (4, 3), (5, 4)):
            cert = certify(construct.seed("ompzd", n, k), "ompzd", k=k)
            assert cert.passed
            assert cert.max_residual <= 1e-12 * cert.scale_c


def test_criterion_2_splice_reproduction():
    with _Clock(1.0, "2 (splice of conference-6 and OMZD(5))"):
        q = construct.combine(construct.seed("omzd", 6), construct.seed("omzd", 5))
        cert = certify(q, "omzd")
        assert cert.passed and q.order == 9
        assert cert.scale_c == pytest.approx(1.0, abs=1e-12)
        block = q.data[:5, 5:]
        assert block.shape == (5, 4)
        assert np.max(np.abs(block - 1.0 / (2.0 * math.sqrt(5.0)))) <= 1e-12


def test_criterion_3_symmetric_family():
    with _Clock(30.0, "3 (symmetric family n in [6, 200])"):
        for n in range(6, 201, 2):
            m = construct.symmetric_omzd(n)
            assert np.array_equal(m.data, m.data.T)
            cert = certify(m, "symmetric-omzd")
            assert cert.passed, (n, cert.failures)
            assert abs(cert.scale_c - (n / 2) ** 2) <= 1e-9 * (n / 2) ** 2

        m8 = construct.symmetric_omzd(8)
        alpha = math.sqrt(15.0)
        beta = (math.sqrt(7.0) - math.sqrt(15.0)) / 4.0
        assert abs(m8.data[0, 4] - (alpha + beta)) <= 1e-12
        assert abs(m8.data[0, 5] - beta) <= 1e-12


def test_criterion_4_paley_and_tournaments():
    with _Clock(5.0, "4 (quadratic-character tournaments)"):
        assert np.array_equal(construct.paley_tournament(7).data, FANO)

        for q in (7, 11, 19, 23, 27):
            t = construct.paley_tournament(q)
            verdict = check_drt(t)
            assert verdict.passed, (q, verdict.failures)
            assert verdict.claim == f"DRT({q})"
            k, lam = (q - 1) // 2, (q - 3) // 4
            a = t.data.astype(np.int64)
            assert np.array_equal(a @ a.T, (k - lam) * np.eye(q, dtype=np.int64) + lam)

        m = construct.omzd_from_drt(RealMatrix(FANO), "minus")
        alpha = -(5.0 - math.sqrt(5.0)) / 2.0
        assert abs(m.data[0, 1] - (alpha + 1.0)) <= 1e-12
        c, _ = residual_scaled_identity(m)
        assert abs(c - (27.0 - 9.0 * math.sqrt(5.0)) / 2.0) <= 1e-12


def test_criterion_5_doubling_chain():
    with _Clock(5.0, "5 (doubling chain 7 -> 15 -> 31)"):
        t7 = RealMatrix(FANO)
        t15 = construct.double_drt(t7)
        t31 = construct.double_drt(t15)
        for t, q in ((t7, 7), (t15, 15), (t31, 31)):
            verdict = check_drt(t)
            assert verdict.passed and verdict.claim == f"DRT({q})"

        m = construct.omzd_from_drt(t31)
        cert = certify(m, "omzd")
        assert cert.passed
        assert cert.max_residual <= 1e-9 * cert.scale_c


def test_criterion_6_existence_tables_and_soundness():
    with _Clock(60.0, "6 (existence tables + exhaustive execution)"):
        for n in range(1, 65):
            assert planner.exists("omzd", n).exists == (n not in (1, 3))
            assert planner.exists("symmetric-omzd", n).exists == (n % 2 == 0 and n != 4)
        refused = {(1, 1), (2, 1), (3, 2), (3, 3)}
        for n in range(1, 33):
            for k in range(0, n + 1):
                assert planner.exists("ompzd", n, k).exists == ((n, k) not in refused)

        for n in range(1, 65):
            if n not in (1, 3):
                _, cert = planner.execute(planner.plan("omzd", n))
                assert cert.passed, ("omzd", n, cert.failures)
            if n % 2 == 0 and n != 4:
                _, cert = planner.execute(planner.plan("symmetric-omzd", n))
                assert cert.passed, ("symmetric-omzd", n, cert.failures)
        for n in range(1, 33):
            for k in range(0, n + 1):
                if (n, k) in refused:
                    continue
                _, cert = planner.execute(planner.plan("ompzd", n, k))
                assert cert.passed, ("ompzd", n, k, cert.failures)


def test_criterion_7_graph_certificates():
    with _Clock(60.0, "7 (graph certificates)"):
        for n in range(1, 13):
            cert = graphs.q2_certificate(graphs.Knn(n))
            assert cert.status == graphs.STATUS_CERTIFIED, (n, cert.reason)
            assert cert.distinct_eigenvalue_count == 2

        exceptional = {(1, 1), (2, 1), (3, 2), (3, 3)}
        for n in range(1, 13):
            for k in range(0, n + 1):
                cert = graphs.q2_certificate(graphs.Gnk(n, k))
                if (n, k) in exceptional:
                    assert cert.status == graphs.STATUS_KNOWN_IMPOSSIBLE
                else:
                    assert cert.status == graphs.STATUS_CERTIFIED, (n, k, cert.reason)
                    assert cert.distinct_eigenvalue_count == 2
                    assert cert.pattern_verified

        for n in range(1, 5):
            for m in (2, 6, 8):
                cert = graphs.q2_certificate(graphs.Multipartite(n, m))
                assert cert.status == graphs.STATUS_CERTIFIED, (n, m, cert.reason)
                assert cert.distinct_eigenvalue_count == 2


def _invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def _gen_verify_cases():
    cases = []
    for n in range(2, 33):
        if n != 3:
            cases.append((("gen", "--kind", "omzd", "--n", str(n)), "omzd"))
    for n in range(2, 33, 2):
        if n != 4:
            cases.append((("gen", "--kind", "symmetric-omzd", "--n", str(n)), "symmetric-omzd"))
    refused = {(1, 1), (2, 1), (3, 2), (3, 3)}
    for n in range(1, 33):
        for k in sorted({0, 1, n // 2, n - 1, n}):
            if 0 <= k <= n and (n, k) not in refused:
                cases.append(
                    (("gen", "--kind", "ompzd", "--n", str(n), "--k", str(k)), "ompzd")
                )
    for q in (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31):
        cases.append((("gen", "--kind", "conference", "--q", str(q)), "conference"))
    for q in (3, 7, 11, 19, 23, 27, 31):
        cases.append((("gen", "--kind", "drt", "--q", str(q)), "drt"))
        cases.append((("gen", "--kind", "skew-hadamard", "--q", str(q)), "skew-hadamard"))
    cases.append((("gen", "--kind", "drt", "--q", "7", "--t", "1"), "drt"))
    cases.append((("gen", "--kind", "skew-hadamard", "--q", "7", "--t", "1"), "skew-hadamard"))
    for n in range(1, 5):
        for m in (2, 6, 8):
            if n * m <= 32:
                cases.append(
                    (("gen", "--kind", "multipartite", "--n", str(n), "--m", str(m)), "multipartite")
                )
    return cases


def test_criterion_8_cli_round_trip(tmp_path):
    with _Clock(60.0, "8 (CLI round trip)"):
        for gen_argv, claim in _gen_verify_cases():
            path = tmp_path / "m.json"
            code, _, err = _invoke(*gen_argv, "--out", str(path))
            assert code == 0, (gen_argv, err)
            code, out, err = _invoke("verify", "--in", str(path), "--claim", claim)
            assert code == 0, (gen_argv, claim, err)
            assert json.loads(out)["passed"] is True

            # decode(encode(x)) is bit-identical
            text = path.read_text()
            doc = decode_matrix_file(text)
            again = encode_matrix_file(
                doc["kind"], doc["matrix"], doc["plan"], doc["certificate"], doc["provenance"]
            )
            assert again == text, gen_argv

        # identical argv gives byte-identical output
        for argv in [
            ("gen", "--kind", "omzd", "--n", "31"),
            ("gen", "--kind", "ompzd", "--n", "12", "--k", "7"),
            ("gen", "--kind", "conference", "--q", "27"),
            ("gen", "--kind", "multipartite", "--n", "4", "--m", "8"),
        ]:
            _, first, _ = _invoke(*argv)
            _, second, _ = _invoke(*argv)
            assert first == second


def test_criterion_8_entries_survive_json(tmp_path):
    # decoded entries are the exact doubles that were generated
    path = tmp_path / "m.json"
    _invoke("gen", "--kind", "omzd", "--n", "13", "--out", str(path))
    doc = decode_matrix_file(path.read_text())
    direct, _ = planner.execute(planner.plan("omzd", 13))
    assert np.array_equal(doc["matrix"].data, direct.data)
