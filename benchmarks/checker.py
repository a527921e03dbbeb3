"""Independent output checker for the benchmark.

Rebuilds every matrix from the CLI's JSON with the standard library and
numpy only, and checks it against its claim without calling into
``omzd``.  Real matrices must satisfy MMᵀ = cI within 1e-9·c·n; integer
objects (conference, DRT, skew-Hadamard) must satisfy their identities
exactly.  Zero patterns use the library's documented zero rule,
|x| <= 1e-12·max|entry|.

Each check returns the smallest |entry| at a position the claim requires
to be nonzero, divided by max|entry| (``min_rel``), or raises
``CheckFailed``.
"""

from __future__ import annotations

import json

import numpy as np

RES_TOL = 1e-9
ZERO_TOL = 1e-12


class CheckFailed(Exception):
    """An output that does not satisfy its claim."""


def _require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _square(a: np.ndarray) -> int:
    _require(a.ndim == 2 and a.shape[0] == a.shape[1] and a.size > 0, f"not a square matrix: {a.shape}")
    return a.shape[0]


def _orthogonal(a: np.ndarray) -> None:
    """MMᵀ equals cI within RES_TOL·c·n."""
    n = a.shape[0]
    g = a @ a.T
    c = float(np.mean(np.diag(g)))
    _require(np.isfinite(c) and c > 0.0, f"scale {c} is not positive")
    res = float(np.max(np.abs(g - c * np.eye(n))))
    _require(res <= RES_TOL * c * n, f"gram residual {res:.3e} exceeds {RES_TOL}*c*n = {RES_TOL * c * n:.3e}")


def _nonzero(a: np.ndarray) -> np.ndarray:
    return np.abs(a) > ZERO_TOL * float(np.max(np.abs(a)))


def _min_rel(a: np.ndarray, required: np.ndarray) -> float:
    vals = np.abs(a[required])
    return float(np.min(vals)) / float(np.max(np.abs(a))) if vals.size else 1.0


def _integral(a: np.ndarray) -> np.ndarray:
    _require(bool(np.all(np.isfinite(a))) and bool(np.all(a == np.round(a))), "entries are not integral")
    return np.round(a).astype(np.int64)


def check_omzd(a: np.ndarray, symmetric: bool = False) -> float:
    n = _square(a)
    nz = _nonzero(a)
    off = ~np.eye(n, dtype=bool)
    _require(not np.any(np.diag(nz)), "diagonal is not zero")
    _require(bool(np.all(nz[off])), "off-diagonal zero entry")
    if symmetric:
        _require(np.array_equal(a, a.T), "matrix is not symmetric")
    _orthogonal(a)
    return _min_rel(a, off)


def check_ompzd(a: np.ndarray, k: int) -> float:
    n = _square(a)
    nz = _nonzero(a)
    off = ~np.eye(n, dtype=bool)
    zeros = int(np.sum(~np.diag(nz)))
    _require(zeros == k, f"expected {k} zero diagonal entries, found {zeros}")
    _require(bool(np.all(nz[off])), "off-diagonal zero entry")
    _orthogonal(a)
    return _min_rel(a, nz)


def check_conference(a: np.ndarray) -> float:
    n = _square(a)
    c = _integral(a)
    off = ~np.eye(n, dtype=bool)
    _require(not np.any(np.diag(c)), "diagonal is not zero")
    _require(bool(np.all(np.abs(c[off]) == 1)), "off-diagonal entries are not all +-1")
    _require(np.array_equal(c @ c.T, (n - 1) * np.eye(n, dtype=np.int64)), "C C^T != (n-1) I")
    return 1.0


def check_drt(a: np.ndarray) -> float:
    q = _square(a)
    t = _integral(a)
    _require(bool(np.all((t == 0) | (t == 1))), "entries are not all in {0, 1}")
    _require(q % 4 == 3, f"order {q} is not 3 mod 4")
    eye = np.eye(q, dtype=np.int64)
    ones = np.ones((q, q), dtype=np.int64)
    _require(np.array_equal(t + t.T, ones - eye), "T + T^T != J - I")
    expected = ((q + 1) // 4) * eye + ((q - 3) // 4) * ones
    _require(np.array_equal(t @ t.T, expected), "T T^T != ((q+1)/4) I + ((q-3)/4) J")
    return 1.0


def check_skew_hadamard(a: np.ndarray) -> float:
    n = _square(a)
    h = _integral(a)
    eye = np.eye(n, dtype=np.int64)
    _require(bool(np.all(np.abs(h) == 1)), "entries are not all +-1")
    _require(np.array_equal(h @ h.T, n * eye), "H H^T != n I")
    _require(np.array_equal(h + h.T, 2 * eye), "H + H^T != 2 I")
    return 1.0


def multipartite_mask(part: int, parts: int) -> np.ndarray:
    """True off the zero diagonal blocks of a complete multipartite pattern."""
    return ~np.kron(np.eye(parts, dtype=bool), np.ones((part, part), dtype=bool))


def check_multipartite(a: np.ndarray, part: int, parts: int) -> float:
    n = _square(a)
    _require(n == part * parts, f"order {n} != {part}*{parts}")
    mask = multipartite_mask(part, parts)
    nz = _nonzero(a)
    _require(np.array_equal(a, a.T), "matrix is not symmetric")
    _require(not np.any(nz[~mask]), "diagonal blocks are not zero")
    _require(bool(np.all(nz[mask])), "zero entry inside an off-diagonal block")
    _orthogonal(a)
    return _min_rel(a, mask)


def family_adjacency(family: str, n: int, k: int | None = None, m: int | None = None) -> np.ndarray:
    """Adjacency matrix of a graph family member, built independently of
    ``omzd.graphs``: K_{n,n}, K_{n,n} minus the matching {i, n+i} for
    i < k, or the complete multipartite graph with m parts of size n."""
    if family == "multipartite":
        return multipartite_mask(n, m)
    adj = np.zeros((2 * n, 2 * n), dtype=bool)
    adj[:n, n:] = True
    if family == "gnk":
        idx = np.arange(k)
        adj[idx, n + idx] = False
    return adj | adj.T


def check_witness(a: np.ndarray, family: str, n: int, k: int | None = None, m: int | None = None) -> float:
    """A q(G) = 2 witness: symmetric, pattern equal to the family's edge
    set, and M² = cI."""
    _square(a)
    _require(np.array_equal(a, a.T), "witness is not symmetric")
    adj = family_adjacency(family, n, k, m)
    _require(a.shape == adj.shape, f"witness order {a.shape[0]} != graph order {adj.shape[0]}")
    nz = _nonzero(a)
    np.fill_diagonal(nz, False)
    _require(np.array_equal(nz, adj), "witness pattern differs from the family's edge set")
    _orthogonal(a)  # MMᵀ = M² for the symmetric witness
    return _min_rel(a, adj)


def check_matrix(kind: str, a: np.ndarray, params: dict) -> float:
    """Check a matrix of a generated kind; ``params`` are its gen parameters."""
    if kind in ("omzd", "symmetric-omzd"):
        return check_omzd(a, symmetric=kind == "symmetric-omzd")
    if kind == "ompzd":
        return check_ompzd(a, params["k"])
    if kind == "conference":
        return check_conference(a)
    if kind == "drt":
        return check_drt(a)
    if kind == "skew-hadamard":
        return check_skew_hadamard(a)
    if kind == "multipartite":
        return check_multipartite(a, params["n"], params["m"])
    raise ValueError(f"unknown kind {kind!r}")


def expected_order(kind: str, params: dict) -> int:
    if kind == "conference":
        return params["q"] + 1
    if kind == "drt":
        return (params["q"] + 1) * 2 ** params.get("t", 0) - 1
    if kind == "skew-hadamard":
        return (params["q"] + 1) * 2 ** params.get("t", 0)
    if kind == "multipartite":
        return params["n"] * params["m"]
    return params["n"]


def _parse(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise CheckFailed(f"stdout is not JSON: {e}") from None
    _require(isinstance(doc, dict), "stdout is not a JSON object")
    return doc


def _entries(rows) -> np.ndarray:
    _require(isinstance(rows, list) and rows and all(isinstance(r, list) for r in rows), "entries are not a list of rows")
    try:
        a = np.array(rows, dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise CheckFailed(f"entries do not form a numeric matrix: {e}") from None
    _require(bool(np.all(np.isfinite(a))), "entries are not finite")
    return a


def matrix_from_file_text(text: str) -> np.ndarray:
    return _entries(_parse(text).get("entries"))


def check_gen_output(kind: str, params: dict, text: str) -> float:
    doc = _parse(text)
    _require(doc.get("kind") == kind, f"kind {doc.get('kind')!r} != {kind!r}")
    a = _entries(doc.get("entries"))
    order = expected_order(kind, params)
    _require(a.shape == (order, order), f"shape {a.shape} != ({order}, {order})")
    _require(doc.get("order") == order and doc.get("cols") == order, "order fields disagree with the entries")
    cert = doc.get("certificate")
    _require(isinstance(cert, dict) and cert.get("passed") is True, "certificate is missing or not passed")
    return check_matrix(kind, a, params)


def check_graph_output(family: str, params: dict, text: str) -> float:
    doc = _parse(text)
    _require(doc.get("family") == family, f"family {doc.get('family')!r} != {family!r}")
    _require(doc.get("status") == "certified", f"status {doc.get('status')!r}")
    _require(doc.get("distinct_eigenvalue_count") == 2, "distinct eigenvalue count is not 2")
    _require(doc.get("pattern_verified") is True, "pattern not verified")
    mdoc = doc.get("matrix")
    _require(isinstance(mdoc, dict), "certified result carries no witness")
    a = _entries(mdoc.get("entries"))
    return check_witness(a, family, params["n"], params.get("k"), params.get("m"))


def check_verify_output(expect_rc: int, rc: int, text: str) -> None:
    """A verify run must exit as expected, and any report it prints must
    agree with its exit code."""
    _require(rc == expect_rc, f"exit code {rc} != expected {expect_rc}")
    if expect_rc == 0 or text.strip():
        doc = _parse(text)
        _require(doc.get("passed") is (rc == 0), f"report says passed={doc.get('passed')!r} with exit {rc}")
