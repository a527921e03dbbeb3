"""Orthogonal matrices whose zero entries live exactly on the diagonal.

The library constructs OMZD(n) (orthogonal, zero diagonal, nowhere-zero
off-diagonal) and OMPZD(n, k) (exactly k zeros, all on the diagonal)
matrices together with the combinatorial objects that feed them:
conference matrices, doubly regular tournaments, and skew-Hadamard
matrices.  Every construction is certified by an independent checker,
and the graph layer turns the certified matrices into two-distinct-
eigenvalue witnesses for complete bipartite, matching-deleted bipartite,
and complete multipartite graphs.
"""

from .errors import OmzdError
from .gfield import FiniteField, chi, make_field
from .graphs import (
    Gnk,
    Knn,
    Multipartite,
    Q2Certificate,
    embed_bipartite,
    pattern_graph,
    q2_certificate,
)
from .numerics import (
    RealMatrix,
    jacobi_spectrum,
    residual_scaled_identity,
)
from .construct import (
    combine,
    double_drt,
    drt_to_skew_hadamard,
    kron,
    nowhere_zero_orthogonal,
    omzd_from_drt,
    ompzd_n_minus_1,
    paley_conference,
    paley_tournament,
    reduce_zeros,
    seed,
    symmetric_omzd,
)
from .planner import ExistenceVerdict, PlanNode, execute, exists, plan, serialize_plan
from .verify import (
    OrthoCertificate,
    certify,
    check_drt,
    check_skew_hadamard,
)

__version__ = "0.1.0"

__all__ = [
    "OmzdError",
    "RealMatrix",
    "residual_scaled_identity",
    "jacobi_spectrum",
    "FiniteField",
    "make_field",
    "chi",
    "OrthoCertificate",
    "certify",
    "check_drt",
    "check_skew_hadamard",
    "seed",
    "paley_conference",
    "combine",
    "symmetric_omzd",
    "paley_tournament",
    "drt_to_skew_hadamard",
    "double_drt",
    "omzd_from_drt",
    "nowhere_zero_orthogonal",
    "reduce_zeros",
    "ompzd_n_minus_1",
    "kron",
    "ExistenceVerdict",
    "PlanNode",
    "exists",
    "plan",
    "execute",
    "serialize_plan",
    "Knn",
    "Gnk",
    "Multipartite",
    "Q2Certificate",
    "pattern_graph",
    "embed_bipartite",
    "q2_certificate",
]
