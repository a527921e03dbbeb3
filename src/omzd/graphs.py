"""Graph families whose minimum distinct eigenvalue count is two.

A symmetric matrix realizes a graph through its off-diagonal support;
q(G) = 2 for a non-null graph exactly when some orthogonal matrix has
that support.  This module certifies q(G) = 2 for K_{n,n} minus a
matching (Gnk; K_{n,n} itself is Gnk(n, 0)) and for complete
multipartite graphs.

A family is one spec class, which owns its mask (``graph``), ``plan``
and ``witness`` step, plus one ``FAMILIES`` row.  Every family member
takes one route: one ``spec.plan()``, whose planner refusal is the
family's, then one ``planner.build`` and ``certify_graph``; the witness
certificate implies the plan root's claim, so the root gets no check of
its own.  A Gnk witness is the embedding [[0, B], [Bᵀ, 0]] of
the planned OMPZD(n, k) B, conjugated so that its diagonal zeros come
first.  A multipartite witness is the planned matrix itself:
Kron(symmetric OMZD(m), nowhere-zero(n)), or for K_m, whose diagonal is
free, the nowhere-zero I - (2/m)J.  Every witness keeps its plan root's
scale.  A graph is its adjacency mask, a read-only symmetric bool array
with a False diagonal.  A witness is certified by its ``certify_graph``
certificate (exact symmetry, the graph's off-diagonal pattern under the
shared zero rule, and MMᵀ = cI) plus exactly two distinct eigenvalues,
counted algebraically: an exactly symmetric M with M² = cI has only the
eigenvalues ±√c, with multiplicities (n ± tr M/√c)/2, read with the
certificate's c and residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import construct, planner
from .errors import NoKnownConstruction, NonexistentTarget, NonSymmetric, NotScaledInvolution
from .numerics import RealMatrix, involution_multiplicities
from .verify import CLAIM_MULTIPARTITE, CLAIM_OMPZD, certify_graph, zero_tolerance
from .verify import certify_multipartite  # re-exported

__all__ = [
    "Knn",
    "Gnk",
    "Multipartite",
    "FAMILIES",
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


def _read_only(mask: np.ndarray) -> np.ndarray:
    mask.setflags(write=False)
    return mask


def _check_part_size(spec) -> None:
    """Reject a part size below 1, and a witness order above MAX_ORDER."""
    planner.check_part_size(spec.n)
    planner.check_order(spec.order)


@dataclass(frozen=True)
class Gnk:
    """K_{n,n} minus the canonical matching {i, i'} for i = 0..k-1.

    q(Gnk) = 2 exactly when an OMPZD(n, k) exists (Ahmadi et al., ELA 26
    (2013)): a symmetric A with Gnk's pattern is [[D₁, B], [Bᵀ, D₂]], D₁
    and D₂ diagonal, and A² = cI gives (d₁ᵢ + d₂ⱼ)·bᵢⱼ = 0 on every edge,
    which on a connected Gnk forces D₁ = dI and D₂ = -dI; then BBᵀ =
    (c - d²)I, so B is a scaled OMPZD(n, k).  Conversely, an OMPZD(n, k) B
    gives the witness [[0, B], [Bᵀ, 0]].  The disconnected members fit the
    same rule: Gnk(1, 1) is edgeless (q = 1), and Gnk(2, 2) is two edges,
    with OMPZD(2, 2) = [[0, 1], [1, 0]].
    """

    n: int
    k: int

    def __post_init__(self):
        _check_part_size(self)
        if not 0 <= self.k <= self.n:
            raise ValueError(f"matching size must satisfy 0 <= k <= n, got {self.k}")

    @property
    def order(self) -> int:
        return 2 * self.n

    def graph(self) -> np.ndarray:
        """Adjacency mask [[0, B], [Bᵀ, 0]], B all True but its first k
        diagonal entries."""
        n, matched = self.n, np.arange(self.k)
        mask = np.zeros((2 * n, 2 * n), dtype=bool)  # each block is written into the one mask
        mask[:n, n:] = mask[n:, :n] = True
        mask[matched, n + matched] = mask[n + matched, matched] = False
        return _read_only(mask)

    def plan(self) -> planner.PlanNode:
        try:
            return planner.plan(CLAIM_OMPZD, self.n, self.k)
        except NonexistentTarget as e:
            raise NonexistentTarget(f"q(Gnk) = 2 exactly when an OMPZD(n, k) exists; {e}") from None

    def witness(self, root: RealMatrix) -> RealMatrix:
        return embed_bipartite(_zeros_to_front(root))


def Knn(n: int) -> Gnk:
    """Complete bipartite graph K_{n,n}: K_{n,n} minus the empty matching."""
    return Gnk(n, 0)


@dataclass(frozen=True)
class Multipartite:
    """Complete multipartite graph with m parts of size n, vertices in
    consecutive blocks of n.  The planner's refusal for parts of size 2 or
    more (no symmetric OMZD(m)) gains the conjecture that q(G) is still 2."""

    n: int
    m: int

    def __post_init__(self):
        _check_part_size(self)
        planner.check_part_count(self.m)

    @property
    def order(self) -> int:
        return self.n * self.m

    def graph(self) -> np.ndarray:
        part = np.arange(self.n * self.m) // self.n
        return _read_only(part[:, None] != part[None, :])

    def plan(self) -> planner.PlanNode:
        try:
            if self.n == 1:  # K_m: its diagonal is free, so no zero block is needed
                return planner.plan(CLAIM_OMPZD, self.m, 0)
            return planner.plan(CLAIM_MULTIPARTITE, self.n, m=self.m)
        except NoKnownConstruction as e:
            raise NoKnownConstruction(f"{e}; conjectured to still need only 2 distinct eigenvalues") from None

    def witness(self, root: RealMatrix) -> RealMatrix:
        return root


GraphSpec = Gnk | Multipartite

# family name -> its spec constructor and parameters, in argument order
FAMILIES = {"knn": (Knn, ("n",)), "gnk": (Gnk, ("n", "k")), "multipartite": (Multipartite, ("n", "m"))}


@dataclass(frozen=True)
class Q2Certificate:
    """Outcome of a q(G) = 2 certification attempt; a refusal carries no
    matrix."""

    spec: GraphSpec
    status: str
    reason: str | None
    matrix: RealMatrix | None = None
    distinct_eigenvalue_count: int | None = None
    pattern_verified: bool = False  # the witness passed verify.certify_graph


def pattern_graph(a: RealMatrix, zero_tol: float | None = None) -> np.ndarray:
    """Adjacency mask of an exactly symmetric matrix: i ~ j iff i != j
    and a_ij is no zero under ``verify.zero_tolerance``.  Raises
    NonSymmetric for any other input."""
    if not a.is_square:
        raise NonSymmetric(f"graph extraction needs a square matrix, got {a.rows}x{a.cols}")
    if not np.array_equal(a.data, a.data.T):
        raise NonSymmetric("matrix is not symmetric")
    mask = np.abs(a.data) > zero_tolerance(a, zero_tol)
    np.fill_diagonal(mask, False)
    return _read_only(mask)


def embed_bipartite(b: RealMatrix) -> RealMatrix:
    """Symmetric embedding [[0, B], [Bᵀ, 0]] of an m x n matrix.

    For orthogonal B with BBᵀ = cI the embedding squares to cI, so its
    spectrum lies in {+-sqrt(c)}."""
    m, n = b.rows, b.cols
    out = np.zeros((m + n, m + n))
    out[:m, m:] = b.data
    out[m:, :m] = b.data.T
    return RealMatrix._adopt(out, scale_c=b.scale_c)


def _zeros_to_front(m: RealMatrix) -> RealMatrix:
    """Conjugate-permute so the diagonal zeros occupy the leading indices."""
    nonzero = np.abs(np.diag(m.data)) > zero_tolerance(m)
    return construct.conjugate_permute(m, np.argsort(nonzero, kind="stable"))


def q2_certificate(spec: GraphSpec) -> Q2Certificate:
    """Produce (or refuse) a two-distinct-eigenvalue witness for a family
    member, by one route: ``spec.plan()``, one ``planner.build``,
    ``spec.witness`` of its root and one ``certify_graph``.  A
    NonexistentTarget from the plan is known-impossible and a
    NoKnownConstruction unknown, each with its message.  Certified results
    carry the witness matrix, whose adjacency mask is the graph's, and the
    distinct eigenvalue count (which must be 2)."""
    try:
        node = spec.plan()
    except NonexistentTarget as e:
        return Q2Certificate(spec, STATUS_KNOWN_IMPOSSIBLE, str(e))
    except NoKnownConstruction as e:
        return Q2Certificate(spec, STATUS_UNKNOWN, str(e))
    return _certify_witness(spec, spec.witness(planner.build(node)))


def _certify_witness(spec: GraphSpec, witness: RealMatrix) -> Q2Certificate:
    """Certified only when the witness passes ``certify_graph`` for the
    graph's mask and ``involution_multiplicities``, read from that
    certificate, gives both ±√c a positive multiplicity."""
    cert = certify_graph(witness, spec.graph())
    if not cert.passed:
        reason = "witness check failed: " + "; ".join(cert.failures)
        return Q2Certificate(spec, STATUS_UNKNOWN, reason, witness)
    try:
        plus_minus = involution_multiplicities(witness, cert.scale_c, cert.max_residual)
    except NotScaledInvolution as e:
        count, note = None, f"none ({e})"
    else:
        count = note = sum(mult > 0 for mult in plus_minus)
    if count == 2:
        return Q2Certificate(spec, STATUS_CERTIFIED, None, witness, count, pattern_verified=True)
    reason = f"witness check failed: algebraic_count={note}"
    return Q2Certificate(spec, STATUS_UNKNOWN, reason, witness, count, pattern_verified=True)
