"""Independent certification of every object class the library builds.

Every real claim is an orthogonal pattern and goes through one
certificate core, which takes a required-zero mask, a required-nonzero
mask (an entry in neither is free) and two flags, ``exact`` and
``symmetric``.  An entry counts as zero iff |entry| <= zero_tol, by
default the zero rule of ``zero_tolerance``, 1e-12 * max|entry|, which
the builders and the graph layer share.  The masks per claim:

- omzd, symmetric-omzd (symmetric) and conference (exact): zero on the
  diagonal, nonzero off it;
- ompzd: nonzero off the diagonal, and exactly k zeros on it;
- nowhere-zero: nonzero everywhere;
- orthogonal: no required entries;
- multipartite (symmetric): zero n x n diagonal blocks, nonzero
  elsewhere.

An exact claim must be integral with +-1 at its required nonzeros and
MMᵀ = cI exactly; the others hold it within res_tol * c * order (default
``numerics.RES_TOL``).

Tournaments and skew-Hadamard matrices get exact checkers of their own,
``check_drt`` and ``check_skew_hadamard``.  Every claim, these two
included, takes a float64 ``RealMatrix``.  The two check integrality
first and then their entry set, {0, 1} or +-1, before any product.
After that every partial sum of MMᵀ is an integer of magnitude at most
the order, which the planner caps at 4096, far below 2^53, so the
float64 (BLAS) products are exact.  Certificates always carry the full
diagnostic rather than short-circuiting, so callers can assert on
specific failure kinds.  ``CLAIMS`` names every claim (a gen kind or a
``verify --claim`` value); ``check_claim`` sends each to its checker, and
the planner and the CLI both check through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .numerics import RES_TOL, RealMatrix, residual_scaled_identity

__all__ = [
    "CLAIMS",
    "CLAIM_OMZD",
    "CLAIM_OMPZD",
    "CLAIM_CONFERENCE",
    "CLAIM_SYMMETRIC_OMZD",
    "CLAIM_NOWHERE_ZERO",
    "CLAIM_ORTHOGONAL",
    "OrthoCertificate",
    "DrtVerdict",
    "SkewHadamardVerdict",
    "certify",
    "certify_multipartite",
    "check_claim",
    "check_drt",
    "check_skew_hadamard",
    "zero_tolerance",
]

CLAIM_OMZD = "omzd"
CLAIM_OMPZD = "ompzd"
CLAIM_CONFERENCE = "conference"
CLAIM_SYMMETRIC_OMZD = "symmetric-omzd"
CLAIM_NOWHERE_ZERO = "nowhere-zero"
CLAIM_ORTHOGONAL = "orthogonal"  # orthogonality only, no pattern constraint

# every claim check_claim accepts, in the order of the verify --claim choices
CLAIMS = (
    CLAIM_OMZD, CLAIM_SYMMETRIC_OMZD, CLAIM_OMPZD, CLAIM_CONFERENCE, "skew-hadamard",
    "drt", CLAIM_NOWHERE_ZERO, "multipartite", CLAIM_ORTHOGONAL,
)


def _finite_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None


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

    def summary(self) -> dict:
        """The certificate block a matrix file carries."""
        return {
            "claim": self.claim,
            "passed": self.passed,
            "max_residual": self.max_residual,
            "min_offdiag_magnitude": (
                self.min_offdiag_magnitude if self.min_offdiag_magnitude != math.inf else 0.0
            ),
            "symmetry": self.symmetry,
        }

    def report(self) -> dict:
        """The ``verify`` report: the summary with c and the failures; an
        overflowed gram leaves c or the residual as null."""
        out = self.summary()
        out["max_residual"] = _finite_or_none(self.max_residual)
        out["scale_c"] = _finite_or_none(self.scale_c)
        out["failures"] = list(self.failures)
        return out


def _symmetry_class(a: np.ndarray) -> str:
    if np.array_equal(a, a.T):
        return "symmetric"
    if np.array_equal(a, -a.T):
        return "skew"
    return "neither"


def _is_integral(a: np.ndarray) -> bool:
    return bool(np.all(a == np.round(a)))


def _square_order(m: RealMatrix) -> int:
    if not m.is_square:
        raise ShapeMismatch(f"certification needs a square matrix, got {m.rows}x{m.cols}")
    return m.order


def zero_tolerance(m: RealMatrix, zero_tol: float | None = None) -> float:
    """The zero rule: an entry of ``m`` counts as zero iff |entry| <= this.

    ``zero_tol`` when given, else 1e-12 * max|entry|; matrices built by
    this library write exact 0.0 at zero positions.
    """
    return 1e-12 * m.max_abs() if zero_tol is None else zero_tol


def _diagonal_zeros(m: RealMatrix, zero_tol: float | None) -> int:
    return int(np.sum(np.abs(np.diag(m.data)) <= zero_tolerance(m, zero_tol)))


def _certify_pattern(
    m: RealMatrix,
    claim: str,
    zero: np.ndarray | None,
    nonzero: np.ndarray | None,
    *,
    exact: bool = False,
    symmetric: bool = False,
    zero_tol: float | None = None,
    res_tol: float = RES_TOL,
    failures: tuple[str, ...] = (),
) -> OrthoCertificate:
    """The certificate core of every real claim: pattern, gram and
    symmetry, each checked once, after the claim's own ``failures``.

    ``zero`` and ``nonzero`` are the required masks of a square ``m``, or
    None when the claim has no pattern of this order (its failures say
    why, and the margin is 0).  min_offdiag_magnitude is the smallest
    off-diagonal |entry| not required to be zero.
    """
    a = m.data
    n = m.order
    failures = list(failures)
    min_offdiag = 0.0
    if zero is not None:
        magnitude = np.abs(a)
        is_zero = magnitude <= zero_tolerance(m, zero_tol)
        off = ~np.eye(n, dtype=bool)
        for bad, word in ((zero & ~is_zero, "nonzero"), (nonzero & is_zero, "zero")):
            on_diagonal = int(np.sum(np.diag(bad)))
            if on_diagonal:
                failures.append(f"{on_diagonal} diagonal entries are {word}")
            positions = [(int(i), int(j)) for i, j in np.argwhere(bad & off)[:8]]
            if positions:
                failures.append(f"off-diagonal {word}s at {positions}")
        free = magnitude[off & ~zero]
        min_offdiag = float(np.min(free)) if free.size else math.inf

    if exact and not _is_integral(a):
        failures.append("entries are not integral; exact integer check impossible")
    elif exact and not np.all(np.abs(a[nonzero]) == 1.0):
        failures.append("required nonzero entries are not all +-1")

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

    symmetry = _symmetry_class(a)
    if symmetric and symmetry != "symmetric":
        failures.append(f"matrix is {symmetry}, not symmetric")

    return OrthoCertificate(
        claim=claim,
        passed=not failures,
        scale_c=c,
        max_residual=max_residual,
        min_offdiag_magnitude=min_offdiag,
        symmetry=symmetry,
        failures=tuple(failures),
    )


# claim -> (label, required-zero mask, required-nonzero mask); each mask is
# given by its value (on the diagonal, off it), and an entry in neither is free
_PATTERNS = {
    CLAIM_OMZD: ("OMZD", (True, False), (False, True)),
    CLAIM_SYMMETRIC_OMZD: ("SymmetricOMZD", (True, False), (False, True)),
    CLAIM_CONFERENCE: ("Conference", (True, False), (False, True)),
    CLAIM_OMPZD: ("OMPZD({k})", (False, False), (False, True)),  # and exactly k diagonal zeros
    CLAIM_NOWHERE_ZERO: ("NowhereZeroOrthogonal", (False, False), (True, True)),
    CLAIM_ORTHOGONAL: ("Orthogonal", (False, False), (False, False)),
}


def certify(
    m: RealMatrix,
    claim: str,
    k: int | None = None,
    zero_tol: float | None = None,
    res_tol: float = RES_TOL,
) -> OrthoCertificate:
    """Check a matrix against a claimed object class.

    Pattern: the claim's masks, with the zero rule of ``zero_tolerance``.
    Orthogonality: max residual of MMᵀ - cI at most res_tol * c * order,
    except the conference claim, which must hold exactly.  Returns the
    full certificate whether or not it passed.
    """
    if claim not in _PATTERNS:
        raise ValueError(f"unknown claim {claim!r}")
    if claim == CLAIM_OMPZD and k is None:
        raise ValueError("claim 'ompzd' needs the zero count k")
    label, zero_rule, nonzero_rule = _PATTERNS[claim]
    eye = np.eye(_square_order(m), dtype=bool)
    failures = ()
    if claim == CLAIM_OMPZD and (zeros := _diagonal_zeros(m, zero_tol)) != k:
        failures = (f"expected exactly {k} diagonal zeros, found {zeros}",)
    return _certify_pattern(
        m, label.format(k=k), np.where(eye, *zero_rule), np.where(eye, *nonzero_rule),
        exact=claim == CLAIM_CONFERENCE, symmetric=claim == CLAIM_SYMMETRIC_OMZD,
        zero_tol=zero_tol, res_tol=res_tol, failures=failures,
    )


def _exact_summary(claim: str, passed: bool, min_offdiag: float) -> dict:
    """The certificate block of an exact integer check: zero residual, and
    the matrix is neither symmetric nor skew."""
    return {
        "claim": claim,
        "passed": passed,
        "max_residual": 0.0,
        "min_offdiag_magnitude": min_offdiag,
        "symmetry": "neither",
    }


@dataclass(frozen=True)
class DrtVerdict:
    """Exact verdict on the doubly-regular-tournament axioms."""

    passed: bool
    q: int
    k: int | None
    lam: int | None
    failures: tuple[str, ...]

    @property
    def claim(self) -> str:
        return f"DRT({self.q})"

    def summary(self) -> dict:
        return _exact_summary(self.claim, self.passed, min_offdiag=0.0)

    def report(self) -> dict:
        return {
            "claim": self.claim,
            "passed": self.passed,
            "q": self.q,
            "k": self.k,
            "lambda": self.lam,
            "failures": list(self.failures),
        }


_NOT_INTEGRAL = ("entries are not integral",)


def check_drt(t: RealMatrix) -> DrtVerdict:
    """Exact check of the tournament axioms.

    Requires: integral entries, all in {0, 1}; zero diagonal; T + Tᵀ =
    J - I (an orientation of the complete graph); every out-degree
    (q-1)/2; every ordered vertex pair jointly dominating exactly (q-3)/4
    others, which is the entrywise statement TTᵀ = ((q+1)/4)I + ((q-3)/4)J.
    """
    a = t.data
    if not _is_integral(a):
        return DrtVerdict(False, a.shape[0], None, None, _NOT_INTEGRAL)
    if a.shape[0] != a.shape[1]:
        return DrtVerdict(False, a.shape[0], None, None, ("matrix is not square",))
    q = a.shape[0]
    failures: list[str] = []

    if not np.all((a == 0) | (a == 1)):
        failures.append("entries are not all in {0, 1}")
        return DrtVerdict(False, q, None, None, tuple(failures))
    if np.any(np.diag(a) != 0):
        failures.append("diagonal is not zero")
    j_minus_i = np.ones((q, q)) - np.eye(q)
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
    expected = lam * j_minus_i + k * np.eye(q)
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

    @property
    def claim(self) -> str:
        return f"SkewHadamard({self.order})"

    def summary(self) -> dict:
        return _exact_summary(self.claim, self.passed, min_offdiag=1.0)

    def report(self) -> dict:
        return {"claim": self.claim, "passed": self.passed, "failures": list(self.failures)}


def check_skew_hadamard(h: RealMatrix) -> SkewHadamardVerdict:
    """Exact check of both skew-Hadamard identities on integral +-1 entries."""
    a = h.data
    if not _is_integral(a):
        return SkewHadamardVerdict(False, a.shape[0], _NOT_INTEGRAL)
    if a.shape[0] != a.shape[1]:
        return SkewHadamardVerdict(False, a.shape[0], ("matrix is not square",))
    n = a.shape[0]
    failures: list[str] = []
    if not np.all(np.abs(a) == 1):
        failures.append("entries are not all +-1")
    else:
        if not np.array_equal(a @ a.T, n * np.eye(n)):
            failures.append("HH^T != nI")
        if not np.array_equal(a + a.T, 2 * np.eye(n)):
            failures.append("H + H^T != 2I")
    return SkewHadamardVerdict(not failures, n, tuple(failures))


def certify_multipartite(
    m_matrix: RealMatrix,
    part_size: int,
    parts: int,
    zero_tol: float | None = None,
    res_tol: float = RES_TOL,
) -> OrthoCertificate:
    """Certificate that a matrix realizes a complete multipartite pattern:
    symmetric, orthogonal, zero n x n diagonal blocks, nowhere-zero
    off-diagonal blocks.  Raises ShapeMismatch for a non-square matrix."""
    n, m = part_size, parts
    claim = f"Multipartite({n},{m})"
    if _square_order(m_matrix) != n * m:
        failures = (f"expected order {n * m}, got {m_matrix.data.shape}",)
        return _certify_pattern(m_matrix, claim, None, None, symmetric=True, res_tol=res_tol, failures=failures)
    blocks = np.kron(np.eye(m, dtype=bool), np.ones((n, n), dtype=bool))
    return _certify_pattern(
        m_matrix, claim, blocks, ~blocks, symmetric=True, zero_tol=zero_tol, res_tol=res_tol
    )


def check_claim(
    name: str,
    m: RealMatrix,
    *,
    k: int | None = None,
    part_size: int | None = None,
    parts: int | None = None,
    zero_tol: float | None = None,
    res_tol: float = RES_TOL,
):
    """Check ``m`` against the claim ``name``, one of CLAIMS.

    ``k`` is the zero count of ompzd: k = 0 is the nowhere-zero claim,
    and without k the zero count the diagonal shows is the claim.
    ``part_size`` and ``parts`` are the parameters of multipartite; every
    other claim ignores all three.  Returns an OrthoCertificate,
    DrtVerdict or SkewHadamardVerdict; each has ``passed``, ``failures``,
    ``summary()`` and ``report()``.  Raises ValueError for an unknown
    claim, a missing or non-integer parameter, or unless ``res_tol`` is
    finite and >= 0 and ``zero_tol`` is None or finite and >= 0."""
    for label, tol in (("res_tol", res_tol), ("zero_tol", zero_tol)):
        if tol is not None and not (math.isfinite(tol) and tol >= 0):
            raise ValueError(f"{label} must be finite and >= 0, got {tol!r}")
    if name == "drt":
        return check_drt(m)
    if name == "skew-hadamard":
        return check_skew_hadamard(m)
    if name == "multipartite":
        if not all(type(x) is int and x >= 1 for x in (part_size, parts)):  # bool is no count
            raise ValueError("claim 'multipartite' needs a positive integer part size n and part count m")
        return certify_multipartite(m, part_size, parts, zero_tol=zero_tol, res_tol=res_tol)
    if name == CLAIM_OMPZD:
        if k is None:
            k = _diagonal_zeros(m, zero_tol)
        elif type(k) is not int or k < 0:  # bool is no count
            raise ValueError(f"claim 'ompzd' needs a non-negative integer zero count k, got {k!r}")
        if k == 0:
            name = CLAIM_NOWHERE_ZERO
    return certify(m, name, k=k, zero_tol=zero_tol, res_tol=res_tol)
