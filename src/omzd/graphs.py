"""Graph families whose minimum distinct eigenvalue count is two.

A symmetric matrix realizes a graph through its off-diagonal support;
q(G) = 2 for a non-null graph exactly when some orthogonal matrix has
that support.  This module builds such witnesses for complete bipartite
graphs, matching-deleted complete bipartite graphs, and complete
multipartite graphs, and certifies each one: labeled edge-set equality
plus exactly two distinct eigenvalues.  The count is algebraic: an
exactly symmetric M with M² = cI has only the eigenvalues ±√c, with
multiplicities (n ± tr M/√c)/2.  A LAPACK spectrum, clustered, must
agree with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import construct, planner
from .errors import NonSymmetric, NotScaledInvolution, ShapeMismatch
from .numerics import (
    RealMatrix,
    cluster_eigenvalues,
    involution_multiplicities,
    jacobi_spectrum,
    residual_scaled_identity,
)
from .verify import OrthoCertificate

__all__ = [
    "Knn",
    "Gnk",
    "Multipartite",
    "Graph",
    "Q2Certificate",
    "STATUS_CERTIFIED",
    "STATUS_KNOWN_IMPOSSIBLE",
    "STATUS_UNKNOWN",
    "pattern_graph",
    "embed_bipartite",
    "certify_multipartite",
    "q2_certificate",
]

STATUS_CERTIFIED = "certified"
STATUS_KNOWN_IMPOSSIBLE = "known-impossible"
STATUS_UNKNOWN = "unknown"


@dataclass(frozen=True)
class Graph:
    """Labeled simple graph: vertex count plus a set of (i, j) edges, i < j."""

    order: int
    edges: frozenset[tuple[int, int]]


def _graph_of_mask(mask: np.ndarray) -> Graph:
    """Graph whose edges are the True entries above the diagonal of ``mask``."""
    rows, cols = np.nonzero(np.triu(mask, 1))
    return Graph(order=mask.shape[0], edges=frozenset(zip(rows.tolist(), cols.tolist())))


@dataclass(frozen=True)
class Knn:
    """Complete bipartite graph on parts {0..n-1} and {n..2n-1}."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"part size must be >= 1, got {self.n}")

    @property
    def order(self) -> int:
        return 2 * self.n

    def graph(self) -> Graph:
        n = self.n
        mask = np.zeros((2 * n, 2 * n), dtype=bool)
        mask[:n, n:] = True
        return _graph_of_mask(mask)


@dataclass(frozen=True)
class Gnk:
    """K_{n,n} minus the canonical matching {i, i'} for i = 0..k-1."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"part size must be >= 1, got {self.n}")
        if not 0 <= self.k <= self.n:
            raise ValueError(f"matching size must satisfy 0 <= k <= n, got {self.k}")

    @property
    def order(self) -> int:
        return 2 * self.n

    def graph(self) -> Graph:
        n, k = self.n, self.k
        mask = np.zeros((2 * n, 2 * n), dtype=bool)
        mask[:n, n:] = True
        mask[np.arange(k), n + np.arange(k)] = False
        return _graph_of_mask(mask)


@dataclass(frozen=True)
class Multipartite:
    """Complete multipartite graph with m parts of size n, vertices in
    consecutive blocks of n."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"part size must be >= 1, got {self.n}")
        if self.m < 2:
            raise ValueError(f"part count must be >= 2, got {self.m}")

    @property
    def order(self) -> int:
        return self.n * self.m

    def graph(self) -> Graph:
        part = np.arange(self.n * self.m) // self.n
        return _graph_of_mask(part[:, None] != part[None, :])


GraphSpec = Knn | Gnk | Multipartite


@dataclass(frozen=True)
class Q2Certificate:
    """Outcome of a q(G) = 2 certification attempt."""

    spec: GraphSpec
    status: str
    reason: str | None
    matrix: RealMatrix | None
    distinct_eigenvalue_count: int | None
    pattern_verified: bool


def pattern_graph(a: RealMatrix, zero_tol: float = 0.0) -> Graph:
    """Graph of a symmetric matrix: i ~ j iff |a_ij| > zero_tol, i != j.

    Diagonal entries are ignored.  The input must be exactly symmetric
    (all matrices this library builds for graphs are).
    """
    if not a.is_square:
        raise NonSymmetric(f"graph extraction needs a square matrix, got {a.rows}x{a.cols}")
    if not np.array_equal(a.data, a.data.T):
        raise NonSymmetric("matrix is not symmetric")
    return _graph_of_mask(np.abs(a.data) > zero_tol)


def embed_bipartite(b: RealMatrix) -> RealMatrix:
    """Symmetric embedding [[0, B], [Bᵀ, 0]] of an m x n matrix.

    For orthogonal B with BBᵀ = cI the embedding squares to cI, so its
    spectrum lies in {+-sqrt(c)}."""
    m, n = b.rows, b.cols
    out = np.zeros((m + n, m + n))
    out[:m, m:] = b.data
    out[m:, :m] = b.data.T
    return RealMatrix(out, scale_c=b.scale_c)


def certify_multipartite(
    m_matrix: RealMatrix, part_size: int, parts: int, res_tol: float = 1e-9
) -> OrthoCertificate:
    """Certificate that a matrix realizes a complete multipartite pattern:
    symmetric, orthogonal, zero n x n diagonal blocks, nowhere-zero
    off-diagonal blocks.  Raises ShapeMismatch for a non-square matrix."""
    if not m_matrix.is_square:
        raise ShapeMismatch(
            f"certification needs a square matrix, got {m_matrix.rows}x{m_matrix.cols}"
        )
    failures: list[str] = []
    n, m = part_size, parts
    a = m_matrix.data
    symmetry = "symmetric" if np.array_equal(a, a.T) else "neither"
    if symmetry != "symmetric":
        failures.append("matrix is not symmetric")

    min_off = 0.0
    if a.shape == (n * m, n * m):
        block_mask = np.kron(np.eye(m, dtype=bool), np.ones((n, n), dtype=bool))
        if np.any(a[block_mask] != 0.0):
            failures.append("diagonal blocks are not identically zero")
        off_block = np.abs(a[~block_mask])
        min_off = float(np.min(off_block)) if off_block.size else math.inf
        if off_block.size and np.any(off_block == 0.0):
            failures.append("zero entries inside off-diagonal blocks")
    else:
        failures.append(f"expected order {n * m}, got {a.shape}")

    c, max_residual = residual_scaled_identity(m_matrix)
    if not (0.0 < c < math.inf):
        failures.append(f"recovered scale {c} is not positive and finite")
    elif not (max_residual <= res_tol * c * m_matrix.order):
        failures.append(f"max residual {max_residual:.3e} too large")

    return OrthoCertificate(
        claim=f"Multipartite({n},{m})",
        passed=not failures,
        scale_c=c,
        max_residual=max_residual,
        min_offdiag_magnitude=min_off,
        symmetry=symmetry,
        failures=tuple(failures),
    )


def _zeros_to_front(m: RealMatrix, zero_tol: float) -> RealMatrix:
    """Conjugate-permute so the diagonal zeros occupy the leading indices."""
    diag = np.abs(np.diag(m.data))
    zeros = [i for i in range(m.order) if diag[i] <= zero_tol]
    rest = [i for i in range(m.order) if diag[i] > zero_tol]
    return construct.conjugate_permute(m, zeros + rest)


_GNK_IMPOSSIBLE = {
    (1, 1): "deleting the matching empties the graph: it has no edges, so one eigenvalue suffices",
    (2, 1): "the graph is the 4-vertex path, which needs 4 distinct eigenvalues",
    (3, 3): "the graph is the 6-cycle, which needs 3 distinct eigenvalues",
}


def q2_certificate(spec: GraphSpec, cluster_tol: float | None = None) -> Q2Certificate:
    """Produce (or refuse) a two-distinct-eigenvalue witness for a family
    member.  Certified results carry the witness matrix, its verified
    labeled edge set, and the distinct eigenvalue count (which must be 2)."""
    if isinstance(spec, Knn):
        witness = embed_bipartite(construct.nowhere_zero_orthogonal(spec.n))
        return _certify_witness(spec, witness, cluster_tol)

    if isinstance(spec, Gnk):
        n, k = spec.n, spec.k
        if (n, k) in _GNK_IMPOSSIBLE:
            return Q2Certificate(
                spec=spec,
                status=STATUS_KNOWN_IMPOSSIBLE,
                reason=_GNK_IMPOSSIBLE[(n, k)],
                matrix=None,
                distinct_eigenvalue_count=None,
                pattern_verified=False,
            )
        if (n, k) == (3, 2):
            return Q2Certificate(
                spec=spec,
                status=STATUS_UNKNOWN,
                reason="bracketed: between 3 and 4 distinct eigenvalues; unresolved",
                matrix=None,
                distinct_eigenvalue_count=None,
                pattern_verified=False,
            )
        node = planner.plan(planner.KIND_OMPZD, n, k)
        matrix, cert = planner.execute(node)
        arranged = _zeros_to_front(matrix, zero_tol=1e-12 * matrix.max_abs())
        witness = embed_bipartite(RealMatrix(arranged.data, scale_c=cert.scale_c))
        return _certify_witness(spec, witness, cluster_tol)

    if isinstance(spec, Multipartite):
        n, m = spec.n, spec.m
        if m % 2 != 0 or m == 4:
            return Q2Certificate(
                spec=spec,
                status=STATUS_UNKNOWN,
                reason=(
                    "no construction known for an odd part count or exactly 4 parts; "
                    "conjectured to still need only 2 distinct eigenvalues"
                ),
                matrix=None,
                distinct_eigenvalue_count=None,
                pattern_verified=False,
            )
        factor = construct.symmetric_omzd(m)
        base = construct.nowhere_zero_orthogonal(n)
        witness = construct.kron(factor, base)
        cert = certify_multipartite(witness, n, m)
        if not cert.passed:
            return Q2Certificate(
                spec=spec,
                status=STATUS_UNKNOWN,
                reason=f"witness failed certification: {cert.failures}",
                matrix=None,
                distinct_eigenvalue_count=None,
                pattern_verified=False,
            )
        return _certify_witness(spec, witness, cluster_tol)

    raise TypeError(f"unknown graph family {type(spec).__name__}")


def _certify_witness(
    spec: GraphSpec, witness: RealMatrix, cluster_tol: float | None
) -> Q2Certificate:
    """Certified only when the pattern matches and both the algebraic
    count and the clustered LAPACK spectrum give two distinct eigenvalues."""
    if not np.array_equal(witness.data, witness.data.T):
        return Q2Certificate(
            spec=spec,
            status=STATUS_UNKNOWN,
            reason="witness check failed: the witness is not exactly symmetric",
            matrix=witness,
            distinct_eigenvalue_count=None,
            pattern_verified=False,
        )
    pattern_ok = pattern_graph(witness) == spec.graph()
    try:
        algebraic = sum(mult > 0 for mult in involution_multiplicities(witness))
        algebraic_note = str(algebraic)
    except NotScaledInvolution as e:
        algebraic, algebraic_note = None, f"none ({e})"
    clusters = cluster_eigenvalues(jacobi_spectrum(witness), cluster_tol=cluster_tol)
    count = algebraic if algebraic == clusters else None
    if pattern_ok and count == 2:
        return Q2Certificate(
            spec=spec,
            status=STATUS_CERTIFIED,
            reason=None,
            matrix=witness,
            distinct_eigenvalue_count=count,
            pattern_verified=True,
        )
    reason = (
        f"witness check failed: pattern_ok={pattern_ok}, "
        f"algebraic_count={algebraic_note}, clusters={clusters}"
    )
    if algebraic is not None and count is None:
        reason += f"; the algebraic count {algebraic} and the LAPACK cluster count {clusters} disagree"
    return Q2Certificate(
        spec=spec,
        status=STATUS_UNKNOWN,
        reason=reason,
        matrix=witness,
        distinct_eigenvalue_count=count,
        pattern_verified=pattern_ok,
    )
