"""Command-line interface, matrix persistence, and certificate reporting.

``gen`` plans every kind with ``planner.plan``, builds it with
``planner.execute`` (which checks the result once) and writes it;
``verify`` checks a stored matrix with ``verify.check_claim``.  All
machine output (JSON) goes to stdout unless --out is given; all
diagnostics go to stderr.  Exit codes: 0 success /
exists / certified, 1 nonexistent / verification failed / known
impossible, 2 usage, unreadable input, unwritable output or internal
error.  Output is byte-deterministic: fixed key order and
17-significant-digit floats (exact double round-trip).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

import numpy as np

from . import graphs, planner
from .errors import (
    CertificationFailed,
    InvalidK,
    InvalidQ,
    NoKnownConstruction,
    NonFiniteNumber,
    NonexistentTarget,
    OmzdError,
    ResourceLimit,
    SchemaViolation,
    ShapeMismatch,
)
from .numerics import RES_TOL, RealMatrix
from .verify import CLAIMS, check_claim

__all__ = ["run", "main", "encode_matrix_file", "decode_matrix_file", "matrix_to_csv"]

# gen kind -> the parameters it records in its provenance, in order; one
# left unset is a usage error (t and route have defaults)
_GEN_PARAMETERS = {
    "omzd": ("n", "route"),
    "symmetric-omzd": ("n",),
    "ompzd": ("n", "k"),
    "conference": ("q",),
    "drt": ("q", "t"),
    "skew-hadamard": ("q", "t"),
    "multipartite": ("n", "m"),
}
GEN_KINDS = tuple(_GEN_PARAMETERS)

# the refusals planner.plan raises before anything is built; a builder's
# own refusal (BuildRefused) means a plan bug, an internal error
_REFUSALS = (NonexistentTarget, NoKnownConstruction, InvalidQ)


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
    ``close``, with the bytes _fmt_number gives entry by entry.

    The constructions hold few distinct values, so each distinct 64-bit
    pattern is formatted once and every row is a gather of those strings.
    Keying on bits rather than values keeps -0.0 apart from 0.0; the
    gather goes row by row so no n x n array of strings is held at once.
    """
    if not np.all(np.isfinite(data)):
        raise NonFiniteNumber("matrix entries must be finite")
    rows, cols = data.shape
    bits = np.ascontiguousarray(data).reshape(-1).view(np.int64)
    keys, inverse = np.unique(bits, return_inverse=True)
    text = np.array(["%.17g" % x for x in keys.view(np.float64).tolist()], dtype=object)
    inverse = inverse.reshape(rows, cols)
    return [open_ + ",".join(text[row].tolist()) + close for row in inverse]


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
    except RecursionError:
        raise SchemaViolation("$", "nested too deeply") from None
    _expect(isinstance(doc, dict), "$", "top level must be an object")
    for key in ("kind", "order", "cols", "scale_c", "entries", "plan", "certificate", "provenance"):
        _expect(key in doc, key, "missing field")
    _expect(isinstance(doc["kind"], str), "kind", "must be a string")
    _expect(isinstance(doc["order"], int) and not isinstance(doc["order"], bool), "order", "must be an integer")
    _expect(isinstance(doc["cols"], int) and not isinstance(doc["cols"], bool), "cols", "must be an integer")
    _expect(doc["scale_c"] is None or _is_number(doc["scale_c"]), "scale_c", "must be a number or null")
    _expect(doc["scale_c"] is None or _is_finite(doc["scale_c"]), "scale_c", "must be finite")
    _expect(doc["scale_c"] is None or doc["scale_c"] > 0, "scale_c", "must be positive")
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


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` keeps no
    state between calls, and each call starts from the declared defaults."""
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
    ver.add_argument("--claim", required=True, choices=CLAIMS)
    ver.add_argument("--res-tol", type=float, default=RES_TOL)
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
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise _FileError(f"cannot write output: {e}") from None
    else:
        stdout.write(text)


class _Usage(Exception):
    pass


class _FileError(Exception):
    """A path given on the command line that cannot be read or written."""


def _read_input(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise _FileError(f"cannot read input: {e}") from None


def _cmd_gen(args, stdout, stderr) -> int:
    kind = args.kind
    params = {}
    for name in _GEN_PARAMETERS[kind]:
        if getattr(args, name) is None:
            raise _Usage(f"gen --kind {kind} needs --{name}")
        params[name] = getattr(args, name)
    if kind == "omzd" and args.route == planner.ROUTE_PREFER_DRT:
        params["branch"] = args.branch

    node = planner.plan(
        kind, args.n, args.k, route=args.route, branch=args.branch, q=args.q, t=args.t, m=args.m
    )
    matrix, cert = planner.execute(node)
    if args.format == "csv":
        _emit(args, matrix_to_csv(matrix), stdout)
    else:
        provenance = {"theorem": node.theorem, "parameters": params}
        text = encode_matrix_file(kind, matrix, planner.serialize_plan(node), cert.summary(), provenance)
        _emit(args, text, stdout)
    return 0


def _cmd_verify(args, stdout, stderr) -> int:
    doc = decode_matrix_file(_read_input(args.path))
    params = doc["provenance"]["parameters"]
    verdict = check_claim(
        args.claim,
        doc["matrix"],
        k=params.get("k"),
        part_size=params.get("n"),
        parts=params.get("m"),
        zero_tol=args.zero_tol,
        res_tol=args.res_tol,
    )
    stdout.write(_dump_json(verdict.report()) + "\n")
    if not verdict.passed:
        stderr.write("; ".join(verdict.failures) + "\n")
    return 0 if verdict.passed else 1


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


# certify-graph family -> the option it needs besides --n; it takes no other
_GRAPH_OPTION = {"knn": None, "gnk": "k", "multipartite": "m"}


def _cmd_certify_graph(args, stdout, stderr) -> int:
    family = args.family
    for name in ("k", "m"):
        given = getattr(args, name) is not None
        if name == _GRAPH_OPTION[family] and not given:
            raise _Usage(f"certify-graph --family {family} needs --{name}")
        if name != _GRAPH_OPTION[family] and given:
            raise _Usage(f"certify-graph --family {family} takes no --{name}")
    if family == "knn":
        spec = graphs.Knn(args.n)
    elif family == "gnk":
        spec = graphs.Gnk(args.n, args.k)
    else:
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
        # argparse prints usage errors and --help to sys.stderr and sys.stdout
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args, stdout, stderr)
    except _Usage as e:
        stderr.write(f"usage error: {e}\n")
        return 2
    except _FileError as e:
        stderr.write(f"{e}\n")
        return 2
    except _REFUSALS as e:
        stderr.write(f"{type(e).__name__}: {e}\n")
        return 1
    except (SchemaViolation, ShapeMismatch, NonFiniteNumber, InvalidK, ResourceLimit, ValueError) as e:
        stderr.write(f"{type(e).__name__}: {e}\n")
        return 2
    except (CertificationFailed, OmzdError) as e:
        stderr.write(f"internal error: {type(e).__name__}: {e}\n")
        return 2
    except (RecursionError, MemoryError) as e:
        limit = ResourceLimit(f"{args.command} stopped on {type(e).__name__}; the request is too large")
        stderr.write(f"{type(limit).__name__}: {limit}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
