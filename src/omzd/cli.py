"""Command-line interface, matrix persistence, and certificate reporting.

All machine output (JSON) goes to stdout unless --out is given; all
diagnostics go to stderr.  Exit codes: 0 success / exists / certified,
1 nonexistent / verification failed / known impossible, 2 usage or
internal error.  Output is byte-deterministic: fixed key order and
17-significant-digit floats (exact double round-trip).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import construct, graphs, planner
from .errors import (
    CertificationFailed,
    InvalidK,
    InvalidQ,
    NonFiniteNumber,
    Nonexistent,
    NonexistentTarget,
    NotDRT,
    NotInCatalog,
    NotOMZD,
    OddOrder,
    OmzdError,
    OrderFour,
    OrderThree,
    SchemaViolation,
    ShapeMismatch,
    TargetAboveReach,
    TargetTooHigh,
)
from .numerics import RealMatrix
from .verify import (
    CLAIM_CONFERENCE,
    CLAIM_NOWHERE_ZERO,
    CLAIM_OMPZD,
    CLAIM_OMZD,
    CLAIM_ORTHOGONAL,
    CLAIM_SKEW_HADAMARD,
    CLAIM_SYMMETRIC_OMZD,
    IntMatrix,
    certify,
    check_drt,
    check_skew_hadamard,
)

__all__ = ["run", "main", "encode_matrix_file", "decode_matrix_file", "matrix_to_csv"]

GEN_KINDS = (
    "omzd",
    "symmetric-omzd",
    "ompzd",
    "conference",
    "drt",
    "skew-hadamard",
    "multipartite",
)

_REFUSALS = (
    NonexistentTarget,
    Nonexistent,
    InvalidQ,
    NotInCatalog,
    OrderFour,
    OddOrder,
    OrderThree,
    TargetTooHigh,
    TargetAboveReach,
    NotOMZD,
    NotDRT,
)


# --------------------------------------------------------------------------
# Deterministic JSON
# --------------------------------------------------------------------------

def _fmt_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    x = float(x)
    if not math.isfinite(x):
        raise NonFiniteNumber(f"{x} has no JSON representation")
    return "%.17g" % x


def _dump_json(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, int, float)):
        return _fmt_number(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_dump_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_dump_json(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, RealMatrix):
        return "[" + ",".join(_format_rows(obj.data, "[", "]")) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _format_rows(data: np.ndarray, open_: str, close: str) -> list[str]:
    """Each row as 17-significant-digit values between ``open_`` and
    ``close``: one format string for every row instead of one call per
    entry, with the bytes _fmt_number gives entry by entry."""
    if not np.all(np.isfinite(data)):
        raise NonFiniteNumber("matrix entries must be finite")
    template = open_ + ",".join(["%.17g"] * data.shape[1]) + close
    return [template % tuple(row) for row in data.tolist()]


# --------------------------------------------------------------------------
# Matrix files
# --------------------------------------------------------------------------

def encode_matrix_file(
    kind: str,
    matrix: RealMatrix,
    plan: str | None,
    certificate: dict | None,
    provenance: dict,
) -> str:
    doc = {
        "kind": kind,
        "order": matrix.rows,
        "cols": matrix.cols,
        "scale_c": matrix.scale_c,
        "entries": matrix,
        "plan": plan,
        "certificate": certificate,
        "provenance": provenance,
    }
    return _dump_json(doc) + "\n"


def _expect(cond: bool, field: str, message: str) -> None:
    if not cond:
        raise SchemaViolation(field, message)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_finite(x) -> bool:
    """False for NaN, the infinities and integers too large for a double."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


_NUMBER_TYPES = {int, float}


_CERT_FIELDS = (
    ("claim", str),
    ("passed", bool),
    ("max_residual", "number"),
    ("min_offdiag_magnitude", "number"),
    ("symmetry", str),
)


def decode_matrix_file(text: str) -> dict:
    """Parse and validate a matrix file; returns the document with the
    entries materialized as a RealMatrix under the key "matrix"."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaViolation("$", f"not valid JSON: {e}") from None
    _expect(isinstance(doc, dict), "$", "top level must be an object")
    for key in ("kind", "order", "cols", "scale_c", "entries", "plan", "certificate", "provenance"):
        _expect(key in doc, key, "missing field")
    _expect(isinstance(doc["kind"], str), "kind", "must be a string")
    _expect(isinstance(doc["order"], int) and not isinstance(doc["order"], bool), "order", "must be an integer")
    _expect(isinstance(doc["cols"], int) and not isinstance(doc["cols"], bool), "cols", "must be an integer")
    _expect(doc["scale_c"] is None or _is_number(doc["scale_c"]), "scale_c", "must be a number or null")
    _expect(doc["scale_c"] is None or _is_finite(doc["scale_c"]), "scale_c", "must be finite")
    entries = doc["entries"]
    _expect(isinstance(entries, list), "entries", "must be an array of arrays")
    _expect(len(entries) == doc["order"], "entries", f"expected {doc['order']} rows, got {len(entries)}")
    for i, row in enumerate(entries):
        _expect(isinstance(row, list), f"entries[{i}]", "must be an array")
        _expect(len(row) == doc["cols"], f"entries[{i}]", f"expected {doc['cols']} values, got {len(row)}")
        if not set(map(type, row)) <= _NUMBER_TYPES:  # bool is its own type, so it fails here
            for j, x in enumerate(row):
                _expect(_is_number(x), f"entries[{i}][{j}]", "must be a number")
    _expect(doc["plan"] is None or isinstance(doc["plan"], str), "plan", "must be a string or null")
    cert = doc["certificate"]
    if cert is not None:
        _expect(isinstance(cert, dict), "certificate", "must be an object or null")
        for name, typ in _CERT_FIELDS:
            _expect(name in cert, f"certificate.{name}", "missing field")
            if typ == "number":
                _expect(_is_number(cert[name]), f"certificate.{name}", "must be a number")
            else:
                _expect(isinstance(cert[name], typ), f"certificate.{name}", f"must be {typ.__name__}")
    prov = doc["provenance"]
    _expect(isinstance(prov, dict), "provenance", "must be an object")
    _expect(isinstance(prov.get("theorem"), str), "provenance.theorem", "must be a string")
    _expect(isinstance(prov.get("parameters"), dict), "provenance.parameters", "must be an object")

    scale = None if doc["scale_c"] is None else float(doc["scale_c"])
    try:
        data = np.array(entries, dtype=np.float64)
        finite = bool(np.all(np.isfinite(data)))
    except OverflowError:
        finite = False
    if not finite:
        i, j = next(
            (i, j) for i, row in enumerate(entries) for j, x in enumerate(row) if not _is_finite(x)
        )
        raise SchemaViolation(f"entries[{i}][{j}]", "must be finite")
    if data.size == 0:
        raise SchemaViolation("entries", "matrix must be nonempty")
    doc["matrix"] = RealMatrix(data, scale_c=scale)
    return doc


def matrix_to_csv(matrix: RealMatrix) -> str:
    """Entries-only CSV: one row per line, 17-significant-digit values."""
    return "".join(_format_rows(matrix.data, "", "\n"))


def _finite_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None


def _cert_block(cert) -> dict:
    return {
        "claim": cert.claim,
        "passed": cert.passed,
        "max_residual": cert.max_residual,
        "min_offdiag_magnitude": (
            cert.min_offdiag_magnitude if cert.min_offdiag_magnitude != float("inf") else 0.0
        ),
        "symmetry": cert.symmetry,
    }


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omzd",
        description="Construct and certify orthogonal matrices with prescribed zero diagonals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="construct an object and emit it with its certificate")
    gen.add_argument("--kind", required=True, choices=GEN_KINDS)
    gen.add_argument("--n", type=int)
    gen.add_argument("--k", type=int)
    gen.add_argument("--q", type=int)
    gen.add_argument("--t", type=int, default=0, help="tournament doublings")
    gen.add_argument("--m", type=int, help="part count for multipartite")
    gen.add_argument("--route", choices=planner.ROUTES, default=planner.ROUTE_AUTO)
    gen.add_argument("--branch", choices=("plus", "minus"), default="minus")
    gen.add_argument("--out")
    gen.add_argument("--format", choices=("json", "csv"), default="json")

    ver = sub.add_parser("verify", help="check a stored matrix against a claim")
    ver.add_argument("--in", dest="path", required=True)
    ver.add_argument(
        "--claim",
        required=True,
        choices=(
            "omzd",
            "symmetric-omzd",
            "ompzd",
            "conference",
            "skew-hadamard",
            "drt",
            "nowhere-zero",
            "multipartite",
            "orthogonal",
        ),
    )
    ver.add_argument("--res-tol", type=float, default=1e-9)
    ver.add_argument("--zero-tol", type=float, default=None)

    pl = sub.add_parser("plan", help="print the construction plan without executing it")
    pl.add_argument("--kind", required=True, choices=planner._KINDS)
    pl.add_argument("--n", type=int, required=True)
    pl.add_argument("--k", type=int)
    pl.add_argument("--route", choices=planner.ROUTES, default=planner.ROUTE_AUTO)

    ex = sub.add_parser("exists", help="existence verdict for (kind, n, k)")
    ex.add_argument("--kind", required=True, choices=planner._KINDS)
    ex.add_argument("--n", type=int, required=True)
    ex.add_argument("--k", type=int)

    cg = sub.add_parser("certify-graph", help="two-eigenvalue certificate for a graph family")
    cg.add_argument("--family", required=True, choices=("knn", "gnk", "multipartite"))
    cg.add_argument("--n", type=int, required=True)
    cg.add_argument("--k", type=int)
    cg.add_argument("--m", type=int)
    cg.add_argument("--out")

    return parser


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def _emit(args, text: str, stdout) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        stdout.write(text)


def _require(parser_msg: str, ok: bool, stderr) -> bool:
    if not ok:
        stderr.write(parser_msg + "\n")
    return ok


def _gen_planned(args, kind: str):
    k = args.k
    if kind == "ompzd":
        if k is None:
            raise _Usage("gen --kind ompzd needs --k")
        node = planner.plan(planner.KIND_OMPZD, args.n, k, route=args.route, branch=args.branch)
    elif kind == "symmetric-omzd":
        node = planner.plan(planner.KIND_SYMMETRIC_OMZD, args.n)
    else:
        node = planner.plan(planner.KIND_OMZD, args.n, route=args.route, branch=args.branch)
    matrix, cert = planner.execute(node)
    params = {"n": args.n}
    if kind == "ompzd":
        params["k"] = k
    if kind == "omzd":
        params["route"] = args.route
        if args.route == planner.ROUTE_PREFER_DRT:
            params["branch"] = args.branch
    return matrix, _cert_block(cert), planner.serialize_plan(node), node.theorem, params


class _Usage(Exception):
    pass


def _cmd_gen(args, stdout, stderr) -> int:
    kind = args.kind
    if kind in ("omzd", "symmetric-omzd", "ompzd", "multipartite"):
        if args.n is None:
            raise _Usage(f"gen --kind {kind} needs --n")
    if kind in ("conference", "drt", "skew-hadamard") and args.q is None:
        raise _Usage(f"gen --kind {kind} needs --q")

    if kind in ("omzd", "symmetric-omzd", "ompzd"):
        matrix, cert_block, plan_str, theorem, params = _gen_planned(args, kind)
    elif kind == "conference":
        try:
            conf = construct.paley_conference(args.q)
        except InvalidQ as e:
            stderr.write(f"{e}; {planner.BELEVITCH_NOTE}\n")
            return 1
        matrix = conf.to_real(scale_c=float(args.q))
        cert = certify(matrix, CLAIM_CONFERENCE)
        if not cert.passed:
            stderr.write(f"construction failed its own certificate: {cert.failures}\n")
            return 2
        node = planner.paley_node(args.q)
        cert_block, plan_str, theorem = _cert_block(cert), planner.serialize_plan(node), node.theorem
        params = {"q": args.q}
    elif kind == "drt":
        t_node = planner.paley_drt_node(args.q)
        tournament = construct.paley_tournament(args.q)
        for _ in range(args.t):
            tournament = construct.double_drt(tournament)
            t_node = planner.double_node(t_node)
        verdict = check_drt(tournament)
        if not verdict.passed:
            stderr.write(f"construction failed tournament axioms: {verdict.failures}\n")
            return 2
        matrix = tournament.to_real()
        cert_block = {
            "claim": f"DRT({verdict.q})",
            "passed": True,
            "max_residual": 0.0,
            "min_offdiag_magnitude": 0.0,
            "symmetry": "neither",
        }
        plan_str, theorem = planner.serialize_plan(t_node), t_node.theorem
        params = {"q": args.q, "t": args.t}
    elif kind == "skew-hadamard":
        tournament = construct.paley_tournament(args.q)
        for _ in range(args.t):
            tournament = construct.double_drt(tournament)
        had = construct.drt_to_skew_hadamard(tournament)
        verdict = check_skew_hadamard(had)
        if not verdict.passed:
            stderr.write(f"construction failed skew-Hadamard identities: {verdict.failures}\n")
            return 2
        matrix = had.to_real(scale_c=float(verdict.order))
        cert_block = {
            "claim": f"SkewHadamard({verdict.order})",
            "passed": True,
            "max_residual": 0.0,
            "min_offdiag_magnitude": 1.0,
            "symmetry": "neither",
        }
        plan_str = None
        theorem = "a DRT(q) is equivalent to a skew-Hadamard matrix of order q+1"
        params = {"q": args.q, "t": args.t}
    else:  # multipartite
        if args.m is None:
            raise _Usage("gen --kind multipartite needs --m")
        if args.m % 2 != 0 or args.m == 4:
            stderr.write(
                "no construction is known for an odd part count or exactly 4 parts\n"
            )
            return 1
        witness = construct.kron(
            construct.symmetric_omzd(args.m), construct.nowhere_zero_orthogonal(args.n)
        )
        cert = graphs.certify_multipartite(witness, args.n, args.m)
        if not cert.passed:
            stderr.write(f"construction failed its own certificate: {cert.failures}\n")
            return 2
        matrix = witness
        node = planner.kron_node(
            planner.symmetric_node(args.m) if args.m != 2 else planner.seed_node("omzd", 2),
            planner.nowhere_zero_node(args.n),
        )
        cert_block, plan_str, theorem = _cert_block(cert), planner.serialize_plan(node), node.theorem
        params = {"n": args.n, "m": args.m}

    if args.format == "csv":
        _emit(args, matrix_to_csv(matrix), stdout)
    else:
        provenance = {"theorem": theorem, "parameters": params}
        _emit(args, encode_matrix_file(kind, matrix, plan_str, cert_block, provenance), stdout)
    return 0


def _as_int_matrix(matrix: RealMatrix, stderr) -> IntMatrix | None:
    if not np.all(matrix.data == np.round(matrix.data)):
        stderr.write("entries are not integral\n")
        return None
    return IntMatrix(matrix.data.astype(np.int64))


def _cmd_verify(args, stdout, stderr) -> int:
    with open(args.path) as fh:
        doc = decode_matrix_file(fh.read())
    matrix: RealMatrix = doc["matrix"]
    params = doc["provenance"]["parameters"]
    claim = args.claim

    if claim == "drt":
        im = _as_int_matrix(matrix, stderr)
        if im is None:
            return 1
        verdict = check_drt(im)
        out = {
            "claim": f"DRT({verdict.q})",
            "passed": verdict.passed,
            "q": verdict.q,
            "k": verdict.k,
            "lambda": verdict.lam,
            "failures": list(verdict.failures),
        }
        stdout.write(_dump_json(out) + "\n")
        if not verdict.passed:
            stderr.write("; ".join(verdict.failures) + "\n")
        return 0 if verdict.passed else 1

    if claim == "skew-hadamard":
        im = _as_int_matrix(matrix, stderr)
        if im is None:
            return 1
        verdict = check_skew_hadamard(im)
        out = {
            "claim": f"SkewHadamard({verdict.order})",
            "passed": verdict.passed,
            "failures": list(verdict.failures),
        }
        stdout.write(_dump_json(out) + "\n")
        if not verdict.passed:
            stderr.write("; ".join(verdict.failures) + "\n")
        return 0 if verdict.passed else 1

    if claim == "multipartite":
        n, m = params.get("n"), params.get("m")
        if not isinstance(n, int) or not isinstance(m, int):
            raise _Usage("claim 'multipartite' needs integer provenance parameters n and m")
        cert = graphs.certify_multipartite(matrix, n, m, res_tol=args.res_tol)
    else:
        claim_map = {
            "omzd": (CLAIM_OMZD, None),
            "symmetric-omzd": (CLAIM_SYMMETRIC_OMZD, None),
            "conference": (CLAIM_CONFERENCE, None),
            "nowhere-zero": (CLAIM_NOWHERE_ZERO, None),
            "orthogonal": (CLAIM_ORTHOGONAL, None),
        }
        if claim == "ompzd":
            k = params.get("k")
            if not isinstance(k, int):
                zero_tol = args.zero_tol
                if zero_tol is None:
                    zero_tol = 1e-12 * matrix.max_abs()
                k = int(np.sum(np.abs(np.diag(matrix.data)) <= zero_tol))
                stderr.write(f"no k in provenance; inferred k={k} from the diagonal\n")
            claim_key, claim_k = CLAIM_OMPZD, k
        else:
            claim_key, claim_k = claim_map[claim]
        cert = certify(matrix, claim_key, k=claim_k, zero_tol=args.zero_tol, res_tol=args.res_tol)

    out = dict(_cert_block(cert))
    # an overflowed gram leaves c or the residual without a JSON number: null
    out["max_residual"] = _finite_or_none(cert.max_residual)
    out["scale_c"] = _finite_or_none(cert.scale_c)
    out["failures"] = list(cert.failures)
    stdout.write(_dump_json(out) + "\n")
    if not cert.passed:
        stderr.write("; ".join(cert.failures) + "\n")
    return 0 if cert.passed else 1


def _cmd_plan(args, stdout, stderr) -> int:
    node = planner.plan(args.kind, args.n, args.k, route=args.route)
    stdout.write(planner.serialize_plan(node) + "\n")
    return 0


def _cmd_exists(args, stdout, stderr) -> int:
    verdict = planner.exists(args.kind, args.n, args.k)
    out = {
        "kind": args.kind,
        "n": args.n,
        "k": args.k,
        "exists": verdict.exists,
        "reason": verdict.reason,
    }
    stdout.write(_dump_json(out) + "\n")
    if not verdict.exists:
        stderr.write(verdict.reason + "\n")
    return 0 if verdict.exists else 1


def _cmd_certify_graph(args, stdout, stderr) -> int:
    if args.family == "knn":
        spec = graphs.Knn(args.n)
    elif args.family == "gnk":
        if args.k is None:
            raise _Usage("certify-graph --family gnk needs --k")
        spec = graphs.Gnk(args.n, args.k)
    else:
        if args.m is None:
            raise _Usage("certify-graph --family multipartite needs --m")
        spec = graphs.Multipartite(args.n, args.m)

    cert = graphs.q2_certificate(spec)
    matrix_doc = None
    if cert.matrix is not None:
        matrix_doc = {
            "order": cert.matrix.rows,
            "scale_c": cert.matrix.scale_c,
            "entries": cert.matrix,
        }
    out = {
        "family": args.family,
        "n": args.n,
        "k": args.k,
        "m": args.m,
        "status": cert.status,
        "reason": cert.reason,
        "distinct_eigenvalue_count": cert.distinct_eigenvalue_count,
        "pattern_verified": cert.pattern_verified,
        "matrix": matrix_doc,
    }
    _emit(args, _dump_json(out) + "\n", stdout)
    if cert.status != graphs.STATUS_CERTIFIED:
        stderr.write(f"{cert.status}: {cert.reason}\n")
    return 0 if cert.status == graphs.STATUS_CERTIFIED else 1


_COMMANDS = {
    "gen": _cmd_gen,
    "verify": _cmd_verify,
    "plan": _cmd_plan,
    "exists": _cmd_exists,
    "certify-graph": _cmd_certify_graph,
}


def run(argv, stdout=None, stderr=None) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args, stdout, stderr)
    except _Usage as e:
        stderr.write(f"usage error: {e}\n")
        return 2
    except FileNotFoundError as e:
        stderr.write(f"cannot read input: {e}\n")
        return 2
    except _REFUSALS as e:
        stderr.write(f"{type(e).__name__}: {e}\n")
        return 1
    except (SchemaViolation, ShapeMismatch, NonFiniteNumber, InvalidK, ValueError) as e:
        stderr.write(f"{type(e).__name__}: {e}\n")
        return 2
    except (CertificationFailed, OmzdError) as e:
        stderr.write(f"internal error: {type(e).__name__}: {e}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
