"""Independent certification of every object class the library builds.

Integer-valued objects (conference matrices, skew-Hadamard matrices,
tournaments) get exact arithmetic and tolerance-free verdicts; real
matrices are checked against tolerances scaled by the recovered scale
constant and the order.  Certificates always carry the full diagnostic
rather than short-circuiting, so callers can assert on specific
failure kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .numerics import RealMatrix, residual_scaled_identity

__all__ = [
    "CLAIM_OMZD",
    "CLAIM_OMPZD",
    "CLAIM_CONFERENCE",
    "CLAIM_SKEW_HADAMARD",
    "CLAIM_SYMMETRIC_OMZD",
    "CLAIM_NOWHERE_ZERO",
    "CLAIM_ORTHOGONAL",
    "PatternMask",
    "IntMatrix",
    "OrthoCertificate",
    "DrtVerdict",
    "SkewHadamardVerdict",
    "certify",
    "check_drt",
    "check_skew_hadamard",
]

CLAIM_OMZD = "omzd"
CLAIM_OMPZD = "ompzd"
CLAIM_CONFERENCE = "conference"
CLAIM_SKEW_HADAMARD = "skew-hadamard"
CLAIM_SYMMETRIC_OMZD = "symmetric-omzd"
CLAIM_NOWHERE_ZERO = "nowhere-zero"
CLAIM_ORTHOGONAL = "orthogonal"  # orthogonality only, no pattern constraint

_CLAIMS = {
    CLAIM_OMZD,
    CLAIM_OMPZD,
    CLAIM_CONFERENCE,
    CLAIM_SKEW_HADAMARD,
    CLAIM_SYMMETRIC_OMZD,
    CLAIM_NOWHERE_ZERO,
    CLAIM_ORTHOGONAL,
}


def claim_label(claim: str, k: int | None = None) -> str:
    """Human-readable claim name for certificates and reports."""
    labels = {
        CLAIM_OMZD: "OMZD",
        CLAIM_CONFERENCE: "Conference",
        CLAIM_SKEW_HADAMARD: "SkewHadamard",
        CLAIM_SYMMETRIC_OMZD: "SymmetricOMZD",
        CLAIM_NOWHERE_ZERO: "NowhereZeroOrthogonal",
        CLAIM_ORTHOGONAL: "Orthogonal",
    }
    if claim == CLAIM_OMPZD:
        return f"OMPZD({k})"
    return labels[claim]


@dataclass(frozen=True, eq=False)
class IntMatrix:
    """Dense integer matrix for bit-exact checks; entry domain is
    enforced by the checker that consumes it, not the constructor."""

    data: np.ndarray

    def __post_init__(self):
        a = np.array(self.data, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError(f"matrix data must be 2-dimensional, got ndim={a.ndim}")
        a.setflags(write=False)
        object.__setattr__(self, "data", a)

    @property
    def order(self) -> int:
        if self.data.shape[0] != self.data.shape[1]:
            raise ValueError("order undefined for a non-square matrix")
        return self.data.shape[0]

    def to_real(self, scale_c: float | None = None) -> RealMatrix:
        return RealMatrix(self.data.astype(np.float64), scale_c=scale_c)

    def __repr__(self):
        return f"IntMatrix({self.data.shape[0]}x{self.data.shape[1]})"


@dataclass(frozen=True, eq=False)
class PatternMask:
    """Per-entry Zero/NonZero classification of a square matrix."""

    order: int
    nonzero: np.ndarray  # boolean, True where classified NonZero

    @classmethod
    def from_matrix(cls, m: RealMatrix, zero_tol: float) -> "PatternMask":
        if not m.is_square:
            raise ShapeMismatch(f"pattern needs a square matrix, got {m.rows}x{m.cols}")
        nz = np.abs(m.data) > zero_tol
        nz.setflags(write=False)
        return cls(order=m.order, nonzero=nz)

    def diagonal_zero_count(self) -> int:
        return int(np.sum(~np.diag(self.nonzero)))

    def offdiagonal_zero_positions(self) -> list[tuple[int, int]]:
        off_zero = ~self.nonzero & ~np.eye(self.order, dtype=bool)
        return [(int(i), int(j)) for i, j in np.argwhere(off_zero)]


@dataclass(frozen=True)
class OrthoCertificate:
    """Verification verdict: recovered scale, worst residual, pattern and
    symmetry reports, and a human-readable list of violations."""

    claim: str
    passed: bool
    scale_c: float
    max_residual: float
    min_offdiag_magnitude: float
    symmetry: str  # "symmetric" | "skew" | "neither"
    failures: tuple[str, ...]


def _symmetry_class(a: np.ndarray) -> str:
    if np.array_equal(a, a.T):
        return "symmetric"
    if np.array_equal(a, -a.T):
        return "skew"
    return "neither"


def _is_integral(a: np.ndarray) -> bool:
    return bool(np.all(a == np.round(a)))


def certify(
    m: RealMatrix,
    claim: str,
    k: int | None = None,
    zero_tol: float | None = None,
    res_tol: float = 1e-9,
) -> OrthoCertificate:
    """Check a matrix against a claimed object class.

    Pattern: diagonal entries count as Zero iff |entry| <= zero_tol
    (default 1e-12 * max|entry|; matrices built by this library write
    exact 0.0 at zero positions).  Orthogonality: max residual of
    MMᵀ - cI at most res_tol * c * order, except integer claims
    (conference, skew-Hadamard) which must hold exactly.  Returns the
    full certificate whether or not it passed.
    """
    if claim not in _CLAIMS:
        raise ValueError(f"unknown claim {claim!r}")
    if claim == CLAIM_OMPZD and k is None:
        raise ValueError("claim 'ompzd' needs the zero count k")
    if not m.is_square:
        raise ShapeMismatch(f"certification needs a square matrix, got {m.rows}x{m.cols}")

    a = m.data
    n = m.order
    max_abs = m.max_abs()
    if zero_tol is None:
        zero_tol = 1e-12 * max_abs
    failures: list[str] = []

    pattern = PatternMask.from_matrix(m, zero_tol)
    diag_nonzero = np.diag(pattern.nonzero)
    off_mask = ~np.eye(n, dtype=bool)
    off_values = np.abs(a[off_mask])
    min_offdiag = float(np.min(off_values)) if off_values.size else math.inf

    exact = claim in (CLAIM_CONFERENCE, CLAIM_SKEW_HADAMARD)

    # -- pattern checks per claim --------------------------------------
    if claim in (CLAIM_OMZD, CLAIM_SYMMETRIC_OMZD, CLAIM_CONFERENCE):
        bad_diag = int(np.sum(diag_nonzero))
        if bad_diag:
            failures.append(f"{bad_diag} diagonal entries are nonzero")
        off_zeros = pattern.offdiagonal_zero_positions()
        if off_zeros:
            failures.append(f"off-diagonal zeros at {off_zeros[:8]}")
    elif claim == CLAIM_OMPZD:
        zeros = pattern.diagonal_zero_count()
        if zeros != k:
            failures.append(f"expected exactly {k} diagonal zeros, found {zeros}")
        off_zeros = pattern.offdiagonal_zero_positions()
        if off_zeros:
            failures.append(f"off-diagonal zeros at {off_zeros[:8]}")
    elif claim == CLAIM_NOWHERE_ZERO:
        zero_count = int(np.sum(~pattern.nonzero))
        if zero_count:
            failures.append(f"{zero_count} entries are zero")
    elif claim == CLAIM_SKEW_HADAMARD:
        zero_count = int(np.sum(~pattern.nonzero))
        if zero_count:
            failures.append(f"{zero_count} entries are zero")

    # -- entry-domain checks (exact) -------------------------------------
    if exact and not _is_integral(a):
        failures.append("entries are not integral; exact integer check impossible")
    if claim == CLAIM_CONFERENCE and _is_integral(a):
        off = a[off_mask]
        if not np.all(np.abs(off) == 1.0):
            failures.append("off-diagonal entries are not all +-1")
    if claim == CLAIM_SKEW_HADAMARD and _is_integral(a):
        if not np.all(np.abs(a) == 1.0):
            failures.append("entries are not all +-1")
        sym_dev = a + a.T - 2.0 * np.eye(n)
        if np.any(sym_dev != 0.0):
            failures.append("H + H^T != 2I")

    # -- orthogonality ----------------------------------------------------
    # written so that a NaN scale or residual (an overflowing gram) fails
    c, max_residual = residual_scaled_identity(m)
    if not (0.0 < c < math.inf):
        failures.append(f"recovered scale {c} is not positive and finite")
    elif exact:
        if max_residual != 0.0:
            failures.append(f"gram deviates from cI by {max_residual} (exact check)")
    elif not (max_residual <= res_tol * c * n):
        failures.append(
            f"max residual {max_residual:.3e} exceeds {res_tol:.1e} * c * n = "
            f"{res_tol * c * n:.3e}"
        )

    # -- symmetry ----------------------------------------------------------
    symmetry = _symmetry_class(a)
    if claim == CLAIM_SYMMETRIC_OMZD and symmetry != "symmetric":
        failures.append(f"matrix is {symmetry}, not symmetric")

    return OrthoCertificate(
        claim=claim_label(claim, k),
        passed=not failures,
        scale_c=c,
        max_residual=max_residual,
        min_offdiag_magnitude=min_offdiag,
        symmetry=symmetry,
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class DrtVerdict:
    """Exact verdict on the doubly-regular-tournament axioms."""

    passed: bool
    q: int
    k: int | None
    lam: int | None
    failures: tuple[str, ...]


def check_drt(t: IntMatrix) -> DrtVerdict:
    """Exact integer check of the tournament axioms.

    Requires: zero diagonal; T + Tᵀ = J - I (an orientation of the
    complete graph); every out-degree (q-1)/2; every ordered vertex pair
    jointly dominating exactly (q-3)/4 others, which is the entrywise
    statement TTᵀ = ((q+1)/4)I + ((q-3)/4)J.
    """
    a = t.data
    if a.shape[0] != a.shape[1]:
        return DrtVerdict(False, a.shape[0], None, None, ("matrix is not square",))
    q = a.shape[0]
    failures: list[str] = []

    if not np.all((a == 0) | (a == 1)):
        failures.append("entries are not all in {0, 1}")
        return DrtVerdict(False, q, None, None, tuple(failures))
    if np.any(np.diag(a) != 0):
        failures.append("diagonal is not zero")
    j_minus_i = np.ones((q, q), dtype=np.int64) - np.eye(q, dtype=np.int64)
    if not np.array_equal(a + a.T, j_minus_i):
        failures.append("not an orientation of the complete graph: T + T^T != J - I")
    if q % 4 != 3:
        failures.append(f"order {q} is not 3 mod 4")
    if failures:
        return DrtVerdict(False, q, None, None, tuple(failures))

    k = (q - 1) // 2
    lam = (q - 3) // 4
    row_sums = a.sum(axis=1)
    if not np.all(row_sums == k):
        failures.append(f"out-degrees {sorted(set(int(s) for s in row_sums))} != {k}")
    joint = a @ a.T  # joint[u, w] = #{v : u->v and w->v}
    expected = lam * j_minus_i + k * np.eye(q, dtype=np.int64)
    if not np.array_equal(joint, expected):
        failures.append(f"joint domination counts differ from lambda = {lam}")

    passed = not failures
    return DrtVerdict(passed, q, k if passed else None, lam if passed else None, tuple(failures))


@dataclass(frozen=True)
class SkewHadamardVerdict:
    """Exact verdict on HHᵀ = nI and H + Hᵀ = 2I."""

    passed: bool
    order: int
    failures: tuple[str, ...]


def check_skew_hadamard(h: IntMatrix) -> SkewHadamardVerdict:
    """Exact integer check of both skew-Hadamard identities."""
    a = h.data
    if a.shape[0] != a.shape[1]:
        return SkewHadamardVerdict(False, a.shape[0], ("matrix is not square",))
    n = a.shape[0]
    failures: list[str] = []
    if not np.all(np.abs(a) == 1):
        failures.append("entries are not all +-1")
    else:
        if not np.array_equal(a @ a.T, n * np.eye(n, dtype=np.int64)):
            failures.append("HH^T != nI")
        if not np.array_equal(a + a.T, 2 * np.eye(n, dtype=np.int64)):
            failures.append("H + H^T != 2I")
    return SkewHadamardVerdict(not failures, n, tuple(failures))
