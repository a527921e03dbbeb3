"""Self-tests of the benchmark: checker, op lists and span arithmetic.

Run from the repository root with

    PYTHONPATH=src python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np
import pytest

import checker
import run
import tracing
import workloads
from omzd import cli, construct

ROOT = Path(__file__).resolve().parent.parent


def _gen(*argv) -> str:
    out = io.StringIO()
    assert cli.run(list(argv), out, io.StringIO()) == 0
    return out.getvalue()


@pytest.mark.parametrize("key", construct.seed_catalog_keys())
def test_checker_accepts_seed_matrices(key):
    kind, n, k = key
    a = construct.seed(kind, n, k).data
    rel = checker.check_matrix(kind, a, {"n": n, "k": k})
    assert 0.0 < rel <= 1.0


GEN_CASES = [
    ("omzd", {"n": 9}),
    ("omzd", {"n": 10}),
    ("symmetric-omzd", {"n": 8}),
    ("ompzd", {"n": 9, "k": 4}),
    ("ompzd", {"n": 8, "k": 7}),
    ("conference", {"q": 13}),
    ("conference", {"q": 11}),
    ("drt", {"q": 11, "t": 1}),
    ("skew-hadamard", {"q": 7, "t": 2}),
    ("multipartite", {"n": 3, "m": 6}),
]


@pytest.mark.parametrize("kind,params", GEN_CASES)
def test_checker_accepts_generated_outputs(kind, params):
    argv = ["gen", "--kind", kind] + [x for key, v in params.items() for x in (f"--{key}", str(v))]
    rel = checker.check_gen_output(kind, params, _gen(*argv))
    assert 0.0 < rel <= 1.0


@pytest.mark.parametrize(
    "family,params", [("knn", {"n": 5}), ("gnk", {"n": 6, "k": 3}), ("multipartite", {"n": 3, "m": 6})]
)
def test_checker_accepts_graph_witnesses(family, params):
    argv = ["certify-graph", "--family", family] + [x for key, v in params.items() for x in (f"--{key}", str(v))]
    assert 0.0 < checker.check_graph_output(family, params, _gen(*argv)) <= 1.0


def _matrix(*argv) -> np.ndarray:
    return checker.matrix_from_file_text(_gen(*argv))


def test_checker_rejects_zeroed_offdiagonal_entry():
    a = _matrix("gen", "--kind", "omzd", "--n", "9")
    a[2, 5] = 0.0
    with pytest.raises(checker.CheckFailed, match="off-diagonal zero"):
        checker.check_omzd(a)


@pytest.mark.parametrize("kind,argv", [
    ("omzd", ("gen", "--kind", "omzd", "--n", "9")),
    ("conference", ("gen", "--kind", "conference", "--q", "13")),
])
def test_checker_rejects_small_perturbation(kind, argv):
    a = _matrix(*argv)
    a[1, 3] += 1e-6 * np.max(np.abs(a))
    with pytest.raises(checker.CheckFailed):
        checker.check_matrix(kind, a, {})


def test_checker_rejects_flipped_drt_arc():
    t = _matrix("gen", "--kind", "drt", "--q", "11")
    i, j = np.argwhere(t == 1)[0]
    t[i, j], t[j, i] = 0, 1
    with pytest.raises(checker.CheckFailed, match=r"T T\^T"):
        checker.check_drt(t)


def test_checker_rejects_wrong_witness_pattern():
    doc = json.loads(_gen("certify-graph", "--family", "knn", "--n", "4"))
    with pytest.raises(checker.CheckFailed, match="edge set"):
        checker.check_graph_output("gnk", {"n": 4, "k": 1}, json.dumps(doc).replace('"knn"', '"gnk"'))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_op_lists_are_deterministic_per_seed(name):
    a, b = workloads.build(name, 7), workloads.build(name, 7)
    assert a == b and a.digest() == b.digest()
    assert a.digest() != workloads.build(name, 8).digest()


@pytest.mark.parametrize("name", ["splice", "paley", "graphs"])
def test_ops_never_repeat_and_hold_min_ops(name):
    ops = workloads.build(name, 3).ops()
    assert len(ops) >= run.MIN_OPS
    assert len({op.argv for op in ops}) == len(ops)


def test_verify_pool_tampers_one_file_in_five():
    wl = workloads.build("verify", 3)
    assert [p.tamper is not None for p in wl.pool].count(True) * 5 == len(wl.pool)
    tampered = {p.name for p in wl.pool if p.tamper}
    assert all(op.expect_rc == (op.argv[2] in tampered) for op in wl.ops())


def test_self_times_on_nested_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.x", 1.5, 2.0, 1),
        ("a.y", 3.0, 3.5, 1),
        ("b", 5.0, 9.0, 0),
        ("b.z", 5.0, 9.0, 4),
        ("c", 9.5, 10.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.5, 2.0, 0.5, 0.5, 0.0, 4.0, 0.5])


def test_self_times_counts_overlapping_children_once():
    spans = [("root", 0.0, 10.0, -1), ("a", 1.0, 5.0, 0), ("b", 3.0, 7.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def test_tracer_wraps_every_lookup_site_and_restores():
    from omzd import planner, verify

    original = verify.certify
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert planner.certify is construct.certify is cli.certify is verify.certify
        assert verify.certify is not original
        _gen("gen", "--kind", "omzd", "--n", "11")
    finally:
        tracer.uninstall()
    assert planner.certify is construct.certify is cli.certify is verify.certify is original
    values = tracer.metrics(overhead=1.0)
    assert values["planner.execute.calls"] == 1
    assert values["planner.stages"] == 5  # Combine(Combine(Seed 7, Seed 4), Seed 4)
    assert values["verify.certify.calls"] > values["planner.stages"]
    assert values["cli.encode_matrix_file.bytes"] > 0
    assert set(values) == set(tracing.metric_units())


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
