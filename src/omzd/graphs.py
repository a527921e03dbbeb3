"""Graph families whose minimum distinct eigenvalue count is two.

A symmetric matrix realizes a graph through its off-diagonal support;
q(G) = 2 for a non-null graph exactly when some orthogonal matrix has
that support.  This module certifies q(G) = 2 for K_{n,n} minus a
matching (Gnk; K_{n,n} itself is Gnk(n, 0)) and for complete
multipartite graphs.

Every family member takes one route: a refusal table lookup, then one
``planner.plan`` and one ``planner.execute``.  A Gnk witness is the
embedding [[0, B], [Bᵀ, 0]] of the planned OMPZD(n, k) B, conjugated so
that its diagonal zeros come first.  A multipartite witness is the
planned matrix itself: Kron(symmetric OMZD(m), nowhere-zero(n)), or for
K_m, whose diagonal is free, the nowhere-zero I - (2/m)J.  Every
witness keeps its plan root's scale.  It is certified by adjacency mask
equality, under the zero rule of ``verify.zero_tolerance``, plus
exactly two distinct eigenvalues.  The count is algebraic: an
exactly symmetric M with M² = cI has only the eigenvalues ±√c, with
multiplicities (n ± tr M/√c)/2.  A LAPACK spectrum, clustered, must
agree with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import construct, planner
from .errors import NoKnownConstruction, NonSymmetric, NotScaledInvolution
from .numerics import (
    RealMatrix,
    cluster_eigenvalues,
    involution_multiplicities,
    jacobi_spectrum,
)
from .verify import certify_multipartite, zero_tolerance  # certify_multipartite is re-exported

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


@dataclass(frozen=True, eq=False)
class Graph:
    """Labeled simple graph, held as its symmetric boolean adjacency mask;
    the diagonal of the given mask is ignored.  Two graphs are equal when
    their masks are."""

    adjacency: np.ndarray

    def __post_init__(self):
        a = np.array(self.adjacency, dtype=bool)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.array_equal(a, a.T):
            raise ValueError(f"an adjacency mask must be square and symmetric, got shape {a.shape}")
        np.fill_diagonal(a, False)
        a.setflags(write=False)
        object.__setattr__(self, "adjacency", a)

    @property
    def order(self) -> int:
        return self.adjacency.shape[0]

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges (i, j), i < j."""
        rows, cols = np.nonzero(np.triu(self.adjacency, 1))
        return frozenset(zip(rows.tolist(), cols.tolist()))

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and np.array_equal(self.adjacency, other.adjacency)


def _bipartite_graph(block: np.ndarray) -> Graph:
    """Graph of the mask [[0, B], [Bᵀ, 0]]."""
    empty = np.zeros_like(block)
    return Graph(np.block([[empty, block], [block.T, empty]]))


def _check_part_size(spec) -> None:
    """Reject a part size below 1, and a witness order above MAX_ORDER."""
    if spec.n < 1:
        raise ValueError(f"part size must be >= 1, got {spec.n}")
    planner.check_order(spec.order)


@dataclass(frozen=True)
class Gnk:
    """K_{n,n} minus the canonical matching {i, i'} for i = 0..k-1."""

    n: int
    k: int

    def __post_init__(self):
        _check_part_size(self)
        if not 0 <= self.k <= self.n:
            raise ValueError(f"matching size must satisfy 0 <= k <= n, got {self.k}")

    @property
    def order(self) -> int:
        return 2 * self.n

    def graph(self) -> Graph:
        block = np.ones((self.n, self.n), dtype=bool)
        block[np.arange(self.k), np.arange(self.k)] = False
        return _bipartite_graph(block)


def Knn(n: int) -> Gnk:
    """Complete bipartite graph K_{n,n}: K_{n,n} minus the empty matching."""
    return Gnk(n, 0)


@dataclass(frozen=True)
class Multipartite:
    """Complete multipartite graph with m parts of size n, vertices in
    consecutive blocks of n."""

    n: int
    m: int

    def __post_init__(self):
        _check_part_size(self)
        planner.check_part_count(self.m)

    @property
    def order(self) -> int:
        return self.n * self.m

    def graph(self) -> Graph:
        part = np.arange(self.n * self.m) // self.n
        return Graph(part[:, None] != part[None, :])


GraphSpec = Gnk | Multipartite


@dataclass(frozen=True)
class Q2Certificate:
    """Outcome of a q(G) = 2 certification attempt; a refusal carries no
    matrix."""

    spec: GraphSpec
    status: str
    reason: str | None
    matrix: RealMatrix | None = None
    distinct_eigenvalue_count: int | None = None
    pattern_verified: bool = False


def pattern_graph(a: RealMatrix, zero_tol: float | None = None) -> Graph:
    """Graph of a symmetric matrix: i ~ j iff |a_ij| > zero_tol, i != j,
    with the zero rule of ``verify.zero_tolerance`` when zero_tol is None.

    Diagonal entries are ignored.  The input must be exactly symmetric
    (all matrices this library builds for graphs are).
    """
    if not a.is_square:
        raise NonSymmetric(f"graph extraction needs a square matrix, got {a.rows}x{a.cols}")
    if not np.array_equal(a.data, a.data.T):
        raise NonSymmetric("matrix is not symmetric")
    return Graph(np.abs(a.data) > zero_tolerance(a, zero_tol))


def embed_bipartite(b: RealMatrix) -> RealMatrix:
    """Symmetric embedding [[0, B], [Bᵀ, 0]] of an m x n matrix.

    For orthogonal B with BBᵀ = cI the embedding squares to cI, so its
    spectrum lies in {+-sqrt(c)}."""
    m, n = b.rows, b.cols
    out = np.zeros((m + n, m + n))
    out[:m, m:] = b.data
    out[m:, :m] = b.data.T
    return RealMatrix(out, scale_c=b.scale_c)


def _zeros_to_front(m: RealMatrix) -> RealMatrix:
    """Conjugate-permute so the diagonal zeros occupy the leading indices."""
    nonzero = np.abs(np.diag(m.data)) > zero_tolerance(m)
    return construct.conjugate_permute(m, np.argsort(nonzero, kind="stable"))


# Every refusal: the graphs whose q is known not to be 2, and the one
# left open.  All other Gnk have an OMPZD(n, k) witness.
_REFUSALS = {
    Gnk(1, 1): (
        STATUS_KNOWN_IMPOSSIBLE,
        "deleting the matching empties the graph: it has no edges, so one eigenvalue suffices",
    ),
    Gnk(2, 1): (STATUS_KNOWN_IMPOSSIBLE, "the graph is the 4-vertex path, which needs 4 distinct eigenvalues"),
    Gnk(3, 3): (STATUS_KNOWN_IMPOSSIBLE, "the graph is the 6-cycle, which needs 3 distinct eigenvalues"),
    Gnk(3, 2): (STATUS_UNKNOWN, "bracketed: between 3 and 4 distinct eigenvalues; unresolved"),
}

_NO_CONSTRUCTION = (
    "no construction known for an odd part count or exactly 4 parts; "
    "conjectured to still need only 2 distinct eigenvalues"
)


def _plan(spec: GraphSpec) -> planner.PlanNode:
    """The plan whose root gives the witness of ``spec``."""
    if isinstance(spec, Gnk):
        return planner.plan(planner.KIND_OMPZD, spec.n, spec.k)
    if isinstance(spec, Multipartite):
        if spec.n == 1:  # K_m: its diagonal is free, so no zero block is needed
            return planner.plan(planner.KIND_OMPZD, spec.m, 0)
        return planner.plan(planner.KIND_MULTIPARTITE, spec.n, m=spec.m)
    raise TypeError(f"unknown graph family {type(spec).__name__}")


def q2_certificate(spec: GraphSpec, cluster_tol: float | None = None) -> Q2Certificate:
    """Produce (or refuse) a two-distinct-eigenvalue witness for a family
    member, by one route: the refusal table, then one plan and one
    execute.  A refusal is known-impossible or unknown; a planner
    NoKnownConstruction is unknown.  Certified results carry the witness
    matrix, whose adjacency mask is the graph's, and the distinct
    eigenvalue count (which must be 2)."""
    refusal = _REFUSALS.get(spec)
    if refusal is None:
        try:
            node = _plan(spec)
        except NoKnownConstruction:
            refusal = (STATUS_UNKNOWN, _NO_CONSTRUCTION)
    if refusal is not None:
        return Q2Certificate(spec, *refusal)
    root, _ = planner.execute(node)
    witness = embed_bipartite(_zeros_to_front(root)) if isinstance(spec, Gnk) else root
    return _certify_witness(spec, witness, cluster_tol)


def _certify_witness(
    spec: GraphSpec, witness: RealMatrix, cluster_tol: float | None
) -> Q2Certificate:
    """Certified only when the pattern matches and both the algebraic
    count and the clustered LAPACK spectrum give two distinct eigenvalues."""
    if not np.array_equal(witness.data, witness.data.T):
        return Q2Certificate(
            spec, STATUS_UNKNOWN, "witness check failed: the witness is not exactly symmetric", witness
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
        return Q2Certificate(spec, STATUS_CERTIFIED, None, witness, count, pattern_verified=True)
    reason = (
        f"witness check failed: pattern_ok={pattern_ok}, "
        f"algebraic_count={algebraic_note}, clusters={clusters}"
    )
    if algebraic is not None and count is None:
        reason += f"; the algebraic count {algebraic} and the LAPACK cluster count {clusters} disagree"
    return Q2Certificate(spec, STATUS_UNKNOWN, reason, witness, count, pattern_verified=pattern_ok)
