"""Command-line interface, matrix persistence, and certificate reporting.

``gen`` plans every kind with ``planner.plan``, builds it with
``planner.execute`` (which checks the result once) and writes it; a gen
document's ``provenance.parameters`` are the options it was planned
from, so ``gen --kind`` with them rebuilds its bytes.  ``verify`` checks
a stored matrix with ``verify.certify``.  All machine output (JSON) goes
to stdout unless --out is given; all diagnostics go to stderr.  Exit
codes: 0 success / exists / certified, 1 nonexistent / verification
failed / known impossible, 2 usage, unreadable input, unwritable output
or internal error.  Output is byte-deterministic: fixed key order and
17-significant-digit floats (exact double round-trip).  Decoding is exact
too: ``decode_matrix_file`` parses each row of a file this module writes
with orjson and packs it with one ``struct.Struct`` of ``cols`` doubles
straight into the bytes of one float64 array, and every other text, and
every field outside the rows, with ``json.loads``; a text gets the
document or the refusal the whole-text ``json.loads`` path gives it.

An argv that is a subcommand's name then ``--option value`` pairs, each
option an exact option string of that subcommand given once, each value
not starting with ``-`` and taken by its option's type and choices, and
every required option given, is parsed by ``_fast_args`` from the
options ``_build_parser`` declares, into the Namespace ``parse_args``
would return.  argparse decides every other argv (help, usage errors,
abbreviations, ``--option=value``, dash-leading values, repeated
options), with its own output and exit code.

A matrix is written in row chunks.  One sort of its 64-bit patterns gives
its few distinct values, and they choose the path.  When all of them are
integers below 2^53 in magnitude and none is -0.0 (the Paley, tournament
and skew-Hadamard objects), each chunk is orjson's text of its rows cast
to int64: below 2^53 a double is exact as an int64, and "%.17g" prints
the same digits, while -0.0 prints "-0", which no int64 gives.  Any other
matrix has each distinct value formatted once into a table of tokens
that carry their own separators (the text, the text after a comma, the
row openers and the closer); each chunk of rows finds its entries among
them with ``np.searchsorted``, and one join over its index into that
table gives its text.
``gen`` (JSON and CSV) and ``certify-graph`` write the document head, the
chunks and the tail to stdout or --out as they come, after every check
that can refuse the document has run, so a refusal writes nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import re
import struct
import sys
from collections.abc import Iterator

import numpy as np
import orjson

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
from .numerics import RealMatrix
from .verify import CLAIMS, certify

__all__ = ["run", "main", "encode_matrix_file", "decode_matrix_file"]

# gen kind -> the options it takes, records in its provenance and is
# planned from, in order, and --branch after --route prefer-drt; one left
# unset is a usage error unless it has a default below, and so is any
# other of _KIND_OPTIONS set; exists and plan read the OMZD kinds' rows
_GEN_PARAMETERS = {
    "omzd": ("n", "route"),
    "symmetric-omzd": ("n",),
    "ompzd": ("n", "k", "route"),
    "conference": ("q",),
    "drt": ("q", "t"),
    "skew-hadamard": ("q", "t"),
    "multipartite": ("n", "m"),
}
GEN_KINDS = tuple(_GEN_PARAMETERS)
# the value an unset --t, --route or --branch takes where it is accepted;
# --route goes with omzd and ompzd only, and --branch with --route
# prefer-drt only
_DEFAULTS = {"t": 0, "route": planner.ROUTE_AUTO, "branch": "minus"}
_KIND_OPTIONS = ("n", "k", "q", "m", *_DEFAULTS)

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
    return "".join(_json_pieces(obj))


def _json_pieces(obj, end: str = "") -> Iterator[str]:
    """The JSON text of ``obj`` then ``end``, as pieces to write in turn.

    Every check that can raise (a non-finite number, a type with no JSON
    form) runs before this returns, so no piece reaches a file or stdout
    ahead of a refusal.  Each RealMatrix in ``obj`` comes as its row
    chunks from _format_rows; the text around the matrices is joined into
    as few pieces as it spans.
    """
    parts: list = []
    _append_json(obj, parts)
    parts.append(end)
    return _merge_text(parts)


def _append_json(obj, parts: list) -> None:
    if obj is None:
        parts.append("null")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, (bool, int, float)):
        parts.append(_fmt_number(obj))
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, v in enumerate(obj):
            if i:
                parts.append(",")
            _append_json(v, parts)
        parts.append("]")
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (k, v) in enumerate(obj.items()):
            parts.append(("," if i else "") + json.dumps(k) + ":")
            _append_json(v, parts)
        parts.append("}")
    elif isinstance(obj, RealMatrix):
        parts.append("[")
        parts.append(_format_rows(obj.data, "[", "]", ","))
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _merge_text(parts: list) -> Iterator[str]:
    """Yield ``parts`` in order: each run of strings joined into one piece,
    and each row-chunk iterator chunk by chunk."""
    run: list[str] = []
    for part in parts:
        if isinstance(part, str):
            run.append(part)
        else:
            yield "".join(run)
            run = []
            yield from part
    yield "".join(run)


# the most entries one row chunk of _format_rows holds, unless one row has more
_CHUNK_ENTRIES = 1 << 16
# every integer below this in magnitude is exact as a double and as an int64
_EXACT_INT = 2.0**53


def _format_rows(data: np.ndarray, open_: str, close: str, sep: str = "") -> Iterator[str]:
    """The rows of ``data`` as 17-significant-digit values between
    ``open_`` and ``close``, ``sep`` between rows, in chunks of at most
    _CHUNK_ENTRIES entries, with the bytes _fmt_number gives entry by entry.

    One sort of all n^2 64-bit patterns gives the distinct ones, and they
    alone choose the path.  When each is an integer below 2^53 in
    magnitude and none is -0.0, a chunk is orjson's text of its rows cast
    to int64: such a double is exact as an int64, and "%.17g" prints it as
    the same plain digits, with no point or exponent.  -0.0 prints "-0",
    which no int64 gives, so it keeps the other path.  The chunk is that
    text less its outer ``[[`` and ``]]``, with its row breaks ``],[``
    made ``close + sep + open_`` (which JSON framing leaves as they are)
    and the same openers and closer as the other path.

    Any other matrix is written from a table of tokens that carry their
    own separators: each distinct pattern's text, the same text after a
    comma, the first row's opener, every later row's opener
    (``sep + open_``) and the closer.  A chunk of r rows is then an
    r x (cols + 2) index into that table, found with ``np.searchsorted``
    among the distinct patterns, and read by one join.  Keying on bits
    rather than values keeps -0.0 apart from 0.0.

    The sorted copy is freed before the first chunk, so neither path holds
    an n x n index, int64 copy or array of strings.  The finiteness check
    and the choice of path run before this returns; the chunks are made as
    they are read.
    """
    if not np.all(np.isfinite(data)):
        raise NonFiniteNumber("matrix entries must be finite")
    values = np.ascontiguousarray(data)
    bits = values.view(np.int64)
    ordered = np.sort(bits, axis=None)
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    keys = ordered[first]
    del ordered, first
    distinct = keys.view(np.float64).tolist()
    step = max(1, _CHUNK_ENTRIES // max(1, bits.shape[1]))
    if _exact_integers(distinct):
        return _integer_chunks(values, step, open_, close, sep)
    return _table_chunks(bits, keys, distinct, step, open_, close, sep)


def _exact_integers(distinct: list[float]) -> bool:
    """Whether every one of ``distinct`` is an integer below 2^53 in
    magnitude, and none is -0.0; it stops at the first that is not."""
    return all(
        x.is_integer() and abs(x) < _EXACT_INT and not (x == 0 and math.copysign(1.0, x) < 0) for x in distinct
    )


def _integer_chunks(values: np.ndarray, step: int, open_: str, close: str, sep: str) -> Iterator[str]:
    """The integer path of _format_rows: ``step`` rows a chunk, each
    orjson's text of the rows as int64."""
    between = close + sep + open_
    for start in range(0, len(values), step):
        block = values[start : start + step].astype(np.int64)
        text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY).decode()
        yield (sep + open_ if start else open_) + text[2:-2].replace("],[", between) + close


def _table_chunks(
    bits: np.ndarray, keys: np.ndarray, values: list[float], step: int, open_: str, close: str, sep: str
) -> Iterator[str]:
    """The token-table path of _format_rows: ``step`` rows a chunk, each
    one join over its rows' indices into the table of the texts of
    ``values``, the doubles whose patterns are ``keys``."""
    text = ["%.17g" % x for x in values]
    distinct = len(text)
    # the token table: each value after a comma, then each value alone (a
    # row's first), then the first row's opener, every later row's and the
    # closer
    table = np.array(["," + t for t in text] + text + [open_, sep + open_, close], dtype=object)
    first_open, later_open, closer = 2 * distinct, 2 * distinct + 1, 2 * distinct + 2
    rows, cols = bits.shape
    for start in range(0, rows, step):
        block = bits[start : start + step]
        index = np.empty((len(block), cols + 2), dtype=np.intp)
        index[:, 1:-1] = np.searchsorted(keys, block)
        index[:, 1] += distinct
        index[:, 0] = later_open
        index[:, -1] = closer
        if not start:
            index[0, 0] = first_open
        yield "".join(table.take(index).ravel().tolist())


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
    return "".join(_matrix_file_pieces(kind, matrix, plan, certificate, provenance))


def _matrix_file_pieces(
    kind: str,
    matrix: RealMatrix,
    plan: str | None,
    certificate: dict | None,
    provenance: dict,
) -> Iterator[str]:
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
    return _json_pieces(doc, "\n")


def _expect(cond: bool, field: str, message: str) -> None:
    if not cond:
        raise SchemaViolation(field, message)


_NUMBER_TYPES = {int, float}


def _is_number(x) -> bool:
    return type(x) in _NUMBER_TYPES  # bool is its own type, so it fails here


def _is_finite(x) -> bool:
    """False for NaN, the infinities and integers too large for a double."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


_CERT_FIELDS = (
    ("claim", str),
    ("passed", bool),
    ("max_residual", "number"),
    ("min_offdiag_magnitude", "number"),
    ("symmetry", str),
)


_WS = r"[ \t\n\r]*"  # JSON whitespace, which \s would widen
# a member "entries" up to its first row's bracket; after each row, the
# next row's bracket; after the last row, the close of the entries and the
# comma before the next member
_ENTRIES_OPEN = re.compile(rf',{_WS}"entries"{_WS}:{_WS}\[{_WS}\[')
_NEXT_ROW = re.compile(rf"{_WS},{_WS}\[")
_ENTRIES_CLOSE = re.compile(rf"{_WS}\]{_WS},{_WS}")


def decode_matrix_file(text: str) -> dict:
    """Parse and validate a matrix file; returns the document with the
    entries materialized as a RealMatrix under the key "matrix" (and no
    "entries" key).

    The row path reads the layout this module writes: ``"entries"`` after
    the leading members, then more members.  Its head, the text before
    ``,"entries"`` closed by a ``}``, and its tail, the text after the rows
    opened by a ``{``, go through ``json.loads``; each row goes through
    ``orjson.loads`` and one precompiled ``struct.Struct`` of ``cols``
    doubles, which packs it, through a memoryview, into its row of one
    ``np.empty((order, cols))`` array, so no nested lists of floats are
    held.  Either path's array is fresh, and the RealMatrix adopts it
    (``RealMatrix._adopt``): the decoded entries are one order x cols
    array of doubles, not two.  The split is exact:
    a head that parses as an object ends at the top level between two
    members, and no key repeats across head, entries and tail.  Head and
    tail take ``json.loads`` because orjson reads an integer beyond the
    64-bit ranges as a float, where ``order``, ``k`` or a certificate
    field must stay an int.  A row holds only numbers, for which orjson
    gives the doubles ``float(text)`` gives, as ``json.loads`` does; it
    refuses the texts it would read otherwise (NaN, Infinity, a number
    that overflows a double).  The struct refuses a row of any other
    length and a string, null, array or object entry, and converts an int
    as ``float(int)`` does; it would pack ``true`` and ``false`` as 1.0
    and 0.0, so the row path declines rows whose text holds a ``t`` or an
    ``f``, which no number text holds.

    At the first step of the row path that fails (no such layout, a row
    orjson or the struct refuses, a ``t`` or ``f`` in the rows, a head or
    tail that is not an object or repeats a key), the json path decides
    the text: ``json.loads`` over the whole text, whose refusals keep their
    field and message.  Both paths end in the same field checks, so a text
    gets one document or one SchemaViolation whichever path decides it.
    """
    doc = _decode_rows(text)
    if doc is None:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise SchemaViolation("$", f"not valid JSON: {e}") from None
        except RecursionError:
            raise SchemaViolation("$", "nested too deeply") from None
    return _checked(doc)


def _decode_rows(text: str) -> dict | None:
    """The row path of ``decode_matrix_file``: the parsed document, its
    entries a float64 array, or None at the first step that fails."""
    opening = _ENTRIES_OPEN.search(text)
    if opening is None:
        return None
    head = _loads_object(text[: opening.start()] + "}")
    if head is None or "entries" in head:
        return None
    order, cols = head.get("order"), head.get("cols")
    if not (type(order) is int and type(cols) is int and order >= 1 and cols >= 1):
        return None
    if order * cols > len(text) // 2:  # each entry takes a digit and a separator
        return None
    data = np.empty((order, cols))
    pack_row = struct.Struct(f"{cols}d").pack_into
    first = start = opening.end() - 1
    with memoryview(data).cast("B") as buf:
        for i in range(order):
            if i:
                sep = _NEXT_ROW.match(text, end + 1)
                if sep is None:
                    return None
                start = sep.end() - 1
            end = text.find("]", start)
            if end < 0:
                return None
            try:
                pack_row(buf, 8 * cols * i, *orjson.loads(text[start : end + 1]))
            except (orjson.JSONDecodeError, struct.error, OverflowError):
                return None
    # the struct packs true and false as 1.0 and 0.0; no number text holds t or f
    if text.find("t", first, end) >= 0 or text.find("f", first, end) >= 0:
        return None
    closing = _ENTRIES_CLOSE.match(text, end + 1)
    tail = None if closing is None else _loads_object("{" + text[closing.end() :])
    if not tail or "entries" in tail or not tail.keys().isdisjoint(head):  # {} was a trailing comma
        return None
    head["entries"] = data
    head.update(tail)
    return head


def _loads_object(text: str) -> dict | None:
    """``json.loads(text)`` when that is an object, else None."""
    try:
        value = json.loads(text)
    except (json.JSONDecodeError, RecursionError):
        return None
    return value if isinstance(value, dict) else None


def _checked(doc) -> dict:
    """The field checks of both decoding paths, in the json path's order;
    returns ``doc`` with its "entries" replaced by "matrix"."""
    _expect(isinstance(doc, dict), "$", "top level must be an object")
    for key in ("kind", "order", "cols", "scale_c", "entries", "plan", "certificate", "provenance"):
        _expect(key in doc, key, "missing field")
    _expect(isinstance(doc["kind"], str), "kind", "must be a string")
    _expect(isinstance(doc["order"], int) and not isinstance(doc["order"], bool), "order", "must be an integer")
    _expect(isinstance(doc["cols"], int) and not isinstance(doc["cols"], bool), "cols", "must be an integer")
    _expect(doc["scale_c"] is None or _is_number(doc["scale_c"]), "scale_c", "must be a number or null")
    _expect(doc["scale_c"] is None or _is_finite(doc["scale_c"]), "scale_c", "must be finite")
    _expect(doc["scale_c"] is None or doc["scale_c"] > 0, "scale_c", "must be positive")
    entries = doc.pop("entries")
    data = entries if isinstance(entries, np.ndarray) else _entries_array(entries, doc["order"], doc["cols"])
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

    if not np.all(np.isfinite(data)):
        i, j = np.argwhere(~np.isfinite(data))[0]
        raise SchemaViolation(f"entries[{i}][{j}]", "must be finite")
    if data.size == 0:
        raise SchemaViolation("entries", "matrix must be nonempty")
    scale = None if doc["scale_c"] is None else float(doc["scale_c"])
    doc["matrix"] = RealMatrix._adopt(data, scale_c=scale)  # each path's own fresh array
    return doc


def _entries_array(entries, order: int, cols: int) -> np.ndarray:
    """The json path's entries, checked for shape and types, as a float64
    array; a number too large for a double is inf there."""
    _expect(isinstance(entries, list), "entries", "must be an array of arrays")
    _expect(len(entries) == order, "entries", f"expected {order} rows, got {len(entries)}")
    for i, row in enumerate(entries):
        _expect(isinstance(row, list), f"entries[{i}]", "must be an array")
        _expect(len(row) == cols, f"entries[{i}]", f"expected {cols} values, got {len(row)}")
        if not set(map(type, row)) <= _NUMBER_TYPES:  # bool is its own type, so it fails here
            for j, x in enumerate(row):
                _expect(_is_number(x), f"entries[{i}][{j}]", "must be a number")
    try:
        return np.array(entries, dtype=np.float64)
    except OverflowError:
        return np.array([[x if _is_finite(x) else math.inf for x in row] for row in entries], dtype=np.float64)


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------

class _Formatter(argparse.HelpFormatter):
    """argparse's formatter at the width it takes on an 80-column terminal,
    whatever the terminal or ``COLUMNS``: usage and help bytes do not
    depend on the environment."""

    def __init__(self, prog):
        super().__init__(prog, width=78)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` keeps no
    state between calls, and each call starts from the declared defaults.
    It and every subparser wrap their text with ``_Formatter``."""
    parser = argparse.ArgumentParser(
        prog="omzd",
        description="Construct and certify orthogonal matrices with prescribed zero diagonals.",
        formatter_class=_Formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, formatter_class=_Formatter)

    gen = add_parser("gen", help="construct an object and emit it with its certificate")
    gen.add_argument("--kind", required=True, choices=GEN_KINDS)
    gen.add_argument("--n", type=int)
    gen.add_argument("--k", type=int)
    gen.add_argument("--q", type=int)
    gen.add_argument("--t", type=int, help="tournament doublings (default 0)")
    gen.add_argument("--m", type=int, help="part count for multipartite")
    gen.add_argument("--route", choices=planner.ROUTES, help="default auto")
    gen.add_argument("--branch", choices=planner.BRANCHES, help="with --route prefer-drt; default minus")
    gen.add_argument("--out")
    gen.add_argument("--format", choices=("json", "csv"), default="json")

    ver = add_parser("verify", help="check a stored matrix against a claim")
    ver.add_argument("--in", dest="path", required=True)
    ver.add_argument("--claim", required=True, choices=CLAIMS)
    ver.add_argument("--res-tol", type=float, default=None)
    ver.add_argument("--zero-tol", type=float, default=None)

    pl = add_parser("plan", help="print the construction plan without executing it")
    pl.add_argument("--kind", required=True, choices=planner._KINDS)
    pl.add_argument("--n", type=int, required=True)
    pl.add_argument("--k", type=int)
    pl.add_argument("--route", choices=planner.ROUTES, help="default auto")

    ex = add_parser("exists", help="existence verdict for (kind, n, k)")
    ex.add_argument("--kind", required=True, choices=planner._KINDS)
    ex.add_argument("--n", type=int, required=True)
    ex.add_argument("--k", type=int)

    cg = add_parser("certify-graph", help="two-eigenvalue certificate for a graph family")
    cg.add_argument("--family", required=True, choices=tuple(graphs.FAMILIES))
    cg.add_argument("--n", type=int, required=True)
    cg.add_argument("--k", type=int)
    cg.add_argument("--m", type=int)
    cg.add_argument("--out")

    return parser


@functools.cache
def _option_table() -> dict[str, tuple[dict[str, argparse.Action], dict[str, object], frozenset[str]]]:
    """Subcommand -> (option string -> its action, dest -> the value
    ``parse_args`` gives it when the option is absent, the dests of the
    required options), read from ``_build_parser()``'s subparsers.

    An option enters the table when it stores one value (every option
    ``_build_parser`` declares but help); the defaults hold the
    subcommand's name under the subparsers' dest, and each str default
    passed through its option's type, as argparse passes it."""
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    table = {}
    for name, subparser in sub.choices.items():
        options, defaults, required = {}, {sub.dest: name}, set()
        for action in subparser._actions:
            if type(action) is argparse._StoreAction and action.nargs is None:
                options.update(dict.fromkeys(action.option_strings, action))
            if action.dest is argparse.SUPPRESS or action.default is argparse.SUPPRESS:
                continue
            default = action.default
            if isinstance(default, str) and action.type is not None:
                default = action.type(default)
            defaults[action.dest] = default
            if action.required:
                required.add(action.dest)
        table[name] = (options, defaults, frozenset(required))
    return table


def _fast_args(argv) -> argparse.Namespace | None:
    """The Namespace ``_build_parser().parse_args(argv)`` returns, for an
    argv it takes without a word: a list or tuple of str, a subcommand's
    name, then ``--option value`` pairs, each option an exact option
    string of that subcommand (no abbreviation, no ``--option=value``)
    given once, each value not starting with ``-`` and taken by the
    option's type and choices, and every required option given.  None
    for every other argv, at the first step that fails; argparse decides
    it, with its own help, error text and exit code.
    """
    if type(argv) not in (list, tuple) or len(argv) % 2 == 0 or type(argv[0]) is not str:
        return None
    entry = _option_table().get(argv[0])
    if entry is None:
        return None
    options, defaults, required = entry
    args = argparse.Namespace()
    fields = vars(args)
    fields.update(defaults)
    given = set()
    for i in range(1, len(argv), 2):
        option, text = argv[i], argv[i + 1]
        action = options.get(option) if type(option) is str else None
        if action is None or action.dest in given or type(text) is not str or text.startswith("-"):
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):  # what argparse words as a refusal
            return None
        if action.choices is not None and value not in action.choices:
            return None
        fields[action.dest] = value
        given.add(action.dest)
    return args if required <= given else None


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def _diagnose(stderr, text: str) -> None:
    """Write ``text`` to stderr, as every diagnostic is written.  A stderr
    that cannot take it (a full disk, a closed pipe) loses the text and
    leaves the exit code the command's own."""
    try:
        stderr.write(text)
    except OSError:
        pass


def _emit(args, pieces: Iterator[str], stdout) -> None:
    """Write ``pieces`` in turn to the --out file, or to stdout."""
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        except OSError as e:
            raise _FileError(f"cannot write output: {e}") from None
    else:
        stdout.writelines(pieces)


class _Usage(Exception):
    pass


class _FileError(Exception):
    """A path given on the command line that cannot be read or written."""


def _read_input(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise _FileError(f"cannot read input: {e}") from None
    except UnicodeDecodeError as e:
        raise SchemaViolation("$", f"not UTF-8 text: {e}") from None


def _kind_takes(args) -> tuple[str, ...]:
    """The options ``args.kind`` takes in gen, plan or exists: its
    ``_GEN_PARAMETERS`` row, and --branch after --route prefer-drt."""
    prefer_drt = getattr(args, "route", None) == planner.ROUTE_PREFER_DRT
    return _GEN_PARAMETERS[args.kind] + (("branch",) if prefer_drt else ())


def _check_options(args, head: str, takes: tuple[str, ...], required: bool) -> None:
    """Usage error for ``head`` (say ``gen --kind drt``) when an option
    outside ``takes`` is set, or, if ``required``, an option in ``takes``
    with no default is unset.  Then each unset option with a default
    gets it."""
    if required:
        for name in takes:
            if name not in _DEFAULTS and getattr(args, name) is None:
                raise _Usage(f"{head} needs --{name}")
    for name in _KIND_OPTIONS:
        if name not in takes and getattr(args, name, None) is not None:
            raise _Usage(f"{head} takes no --{name}")
    for name, default in _DEFAULTS.items():
        if getattr(args, name, default) is None:
            setattr(args, name, default)


def _cmd_gen(args, stdout, stderr) -> int:
    kind = args.kind
    takes = _kind_takes(args)
    _check_options(args, f"gen --kind {kind}", takes, required=True)
    params = {name: getattr(args, name) for name in takes}
    node = planner.plan(kind, **params)
    matrix, cert = planner.execute(node)
    if args.format == "csv":
        pieces = _format_rows(matrix.data, "", "\n")
    else:
        provenance = {"theorem": node.theorem, "parameters": params}
        pieces = _matrix_file_pieces(kind, matrix, planner.serialize_plan(node), cert.summary(), provenance)
    _emit(args, pieces, stdout)
    return 0


def _cmd_verify(args, stdout, stderr) -> int:
    doc = decode_matrix_file(_read_input(args.path))
    params = doc["provenance"]["parameters"]
    verdict = certify(
        doc["matrix"],
        args.claim,
        k=params.get("k"),
        part_size=params.get("n"),
        parts=params.get("m"),
        zero_tol=args.zero_tol,
        res_tol=args.res_tol,
    )
    stdout.write(_dump_json(verdict.report()) + "\n")
    if not verdict.passed:
        _diagnose(stderr, "; ".join(verdict.failures) + "\n")
    return 0 if verdict.passed else 1


def _cmd_plan(args, stdout, stderr) -> int:
    _check_options(args, f"plan --kind {args.kind}", _kind_takes(args), required=False)
    node = planner.plan(args.kind, args.n, args.k, route=args.route)
    stdout.write(planner.serialize_plan(node) + "\n")
    return 0


def _cmd_exists(args, stdout, stderr) -> int:
    _check_options(args, f"exists --kind {args.kind}", _kind_takes(args), required=False)
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
        _diagnose(stderr, verdict.reason + "\n")
    return 0 if verdict.exists else 1


def _cmd_certify_graph(args, stdout, stderr) -> int:
    """Certify (or refuse) the ``graphs.FAMILIES`` row ``--family`` names,
    built from the options that row takes; it takes no other."""
    make, takes = graphs.FAMILIES[args.family]
    _check_options(args, f"certify-graph --family {args.family}", takes, required=True)
    cert = graphs.q2_certificate(make(*(getattr(args, name) for name in takes)))
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
    _emit(args, _json_pieces(out, "\n"), stdout)
    if cert.status != graphs.STATUS_CERTIFIED:
        _diagnose(stderr, f"{cert.status}: {cert.reason}\n")
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
    try:
        args = _fast_args(argv)
        if args is None:
            # argparse prints --help to sys.stdout and usage errors to
            # sys.stderr, and drops a write that fails; caught here, they
            # are written as every other line is
            parser_out, parser_err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(parser_out), contextlib.redirect_stderr(parser_err):
                    args = _build_parser().parse_args(argv)
            except SystemExit as e:
                _diagnose(stderr, parser_err.getvalue())
                if parser_out.getvalue():
                    stdout.write(parser_out.getvalue())
                    stdout.flush()
                return int(e.code or 0)
        code = _COMMANDS[args.command](args, stdout, stderr)
        stdout.flush()
        return code
    except _Usage as e:
        _diagnose(stderr, f"usage error: {e}\n")
        return 2
    except _FileError as e:
        _diagnose(stderr, f"{e}\n")
        return 2
    except OSError as e:  # --in and --out raise _FileError, so this is stdout's write or flush
        _diagnose(stderr, f"cannot write output: {e}\n")
        return 2
    except _REFUSALS as e:
        _diagnose(stderr, f"{type(e).__name__}: {e}\n")
        return 1
    except (SchemaViolation, ShapeMismatch, NonFiniteNumber, InvalidK, ResourceLimit, ValueError) as e:
        _diagnose(stderr, f"{type(e).__name__}: {e}\n")
        return 2
    except (CertificationFailed, OmzdError) as e:
        _diagnose(stderr, f"internal error: {type(e).__name__}: {e}\n")
        return 2
    except (RecursionError, MemoryError) as e:
        limit = ResourceLimit(f"{args.command} stopped on {type(e).__name__}; the request is too large")
        _diagnose(stderr, f"{type(limit).__name__}: {limit}\n")
        return 2


def main() -> None:
    code = run(sys.argv[1:])
    # a failed write leaves its text in the stream's buffer, and the flush
    # at exit would fail on it again and make the exit code 120; what is
    # left goes to the null device instead
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
