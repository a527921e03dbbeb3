"""Independent certification of every object class the library builds.

Every real claim is an orthogonal pattern and goes through one
certificate core, which takes a required-zero mask, a required-nonzero
mask (an entry in neither is free) and two flags, ``exact`` and
``symmetric``.  An entry counts as zero iff |entry| <= zero_tol, by
default the zero rule of ``zero_tolerance``, 1e-12 * max|entry| over
the finite entries, which the builders and the graph layer share.  The
masks per claim:

- omzd, symmetric-omzd (symmetric) and conference (exact): zero on the
  diagonal, nonzero off it;
- skew-hadamard (exact): nonzero everywhere, and H + Hᵀ = 2I;
- drt (exact): a tournament T of order q is certified as its
  skew-Hadamard matrix H, T - Tᵀ + I bordered by a +1 row and a -1
  column (``bordered_tournament``), under the skew-Hadamard masks,
  after T's own failures ({0, 1} entries, T + Tᵀ = J - I, q = 3 mod 4,
  no declared scale_c; ``tournament_failures``); failures name H's
  positions, T's (i, j) being H's (i+1, j+1).  The builders that take a
  tournament check only T's own failures, and the plan's root check
  completes T's certificate;
- ompzd: nonzero off the diagonal, and exactly k zeros on it;
- nowhere-zero: nonzero everywhere;
- orthogonal: no required entries;
- multipartite (symmetric): zero n x n diagonal blocks, nonzero
  elsewhere;
- ``certify_graph`` (symmetric), the q(G) = 2 witness check: zero at the
  graph's non-edges off the diagonal, nonzero at its edges, and a free
  diagonal.

The masks of every claim but the last two are rule pairs, a value on the
diagonal and one off it, decided by counts: the number of entries the
zero rule calls zero, and the diagonal's.  A violated pair alone is made
into n x n bool masks, to name its positions.

An exact claim requires every position zero or nonzero, so its one rule
on entries is that each is 0, 1 or -1 (ternary), and it holds MMᵀ = cI
exactly; the others hold it within res_tol * c * order (default
``numerics.RES_TOL``).  The residual is read over the whole of MMᵀ, one
exactly symmetric product (``numerics.residual_scaled_identity``).  A
declared ``scale_c`` (a file's, a plan root's, a graph witness's) of a
matrix with MMᵀ = cI must be that c: equal to it for an exact claim,
within res_tol * c * order otherwise.  Besides bool arrays of n² bytes,
the core makes |M|, which serves the zero rule, the pattern, the exact
rule and the margin, and frees it before it makes the product MMᵀ.  An
exact claim counts the entries of |M| that are 1 and 0; when they are
all of them, its gram is the float32 product of a float32 copy of M, n²
doubles in all.  Only the symmetry test of a skew matrix (after the
product) makes one float n x n array more.  The H + Hᵀ = 2I test of a skew-Hadamard
matrix makes one, freed before the core runs, and a tournament's H is
one (q+1) x (q+1) array more, which its RealMatrix adopts rather than
copies.

No checker lives outside the core.  Every claim, tournaments included,
takes a float64 ``RealMatrix``.  An exact verdict rests on the product
only once the entries are in {0, +-1}.  Then every partial sum of it is
an integer of magnitude at most the order, which the planner caps at
4096, far below 2^24, so the float32 (BLAS) product is exact, and c and
the residual, read from it in float64, are the float64 product's bit
for bit.  An exact claim whose entries are not ternary has failed
already; it takes the float64 product for its report.  Every certificate
carries the full diagnostic rather than short-circuiting, so callers can
assert on specific failure kinds.  ``CLAIMS`` names every claim (a gen
kind or a ``verify --claim`` value); ``certify`` sends each to its
checker, and the planner and the CLI check through it; no builder runs
the core.
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
    "CLAIM_DRT",
    "CLAIM_SKEW_HADAMARD",
    "CLAIM_MULTIPARTITE",
    "OrthoCertificate",
    "bordered_tournament",
    "certify",
    "certify_graph",
    "certify_multipartite",
    "check_drt",
    "check_skew_hadamard",
    "input_failures",
    "tournament_failures",
    "zero_tolerance",
]

CLAIM_OMZD = "omzd"
CLAIM_OMPZD = "ompzd"
CLAIM_CONFERENCE = "conference"
CLAIM_SYMMETRIC_OMZD = "symmetric-omzd"
CLAIM_NOWHERE_ZERO = "nowhere-zero"
CLAIM_ORTHOGONAL = "orthogonal"  # orthogonality only, no pattern constraint
CLAIM_DRT = "drt"
CLAIM_SKEW_HADAMARD = "skew-hadamard"
CLAIM_MULTIPARTITE = "multipartite"

# every claim certify accepts, in the order of the verify --claim choices
CLAIMS = (
    CLAIM_OMZD, CLAIM_SYMMETRIC_OMZD, CLAIM_OMPZD, CLAIM_CONFERENCE, CLAIM_SKEW_HADAMARD,
    CLAIM_DRT, CLAIM_NOWHERE_ZERO, CLAIM_MULTIPARTITE, CLAIM_ORTHOGONAL,
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
    """"symmetric", "skew" or "neither"; when the first or last row already
    breaks a symmetry, no n x n comparison is made for it."""
    rows, cols = a[[0, -1]], a[:, [0, -1]].T
    if np.array_equal(rows, cols) and np.array_equal(a, a.T):
        return "symmetric"
    if np.array_equal(rows, -cols) and np.array_equal(a, -a.T):
        return "skew"
    return "neither"


def _square_order(m: RealMatrix) -> int:
    """The order of ``m``; raises ShapeMismatch unless it is square and not 0x0."""
    if not m.is_square:
        raise ShapeMismatch(f"certification needs a square matrix, got {m.rows}x{m.cols}")
    if m.order == 0:
        raise ShapeMismatch("certification needs a matrix of order >= 1, got 0x0")
    return m.order


_ZERO_SHARE = 1e-12  # the default zero tolerance over max|entry|


def zero_tolerance(m: RealMatrix, zero_tol: float | None = None) -> float:
    """The zero rule: an entry of ``m`` counts as zero iff |entry| <= this.

    ``zero_tol`` when given, else ``_zero_rule`` of |m|; matrices built
    by this library write exact 0.0 at zero positions.
    """
    return _zero_rule(np.abs(m.data)) if zero_tol is None else zero_tol


def _zero_rule(magnitude: np.ndarray) -> float:
    """The default zero tolerance of an |M|, ``magnitude``: 1e-12 times its
    largest finite entry, or 0.0 if it has none; one inf or NaN entry must
    not make every entry a zero."""
    top = float(np.max(magnitude, initial=0.0))
    if not math.isfinite(top):
        top = float(np.max(magnitude, where=np.isfinite(magnitude), initial=0.0))
    return _ZERO_SHARE * top


def _covers(rule, total: int, diagonal: int, n: int) -> bool:
    """Whether every position a rule pair (on the diagonal, off it)
    requires holds a property that ``total`` entries hold, ``diagonal``
    of them on the diagonal."""
    on, off = rule
    return (not on or diagonal == n) and (not off or total - diagonal == n * n - n)


def _avoids(rule, total: int, diagonal: int) -> bool:
    """Whether no position a rule pair requires holds that property."""
    on, off = rule
    return (not on or diagonal == 0) and (not off or total == diagonal)


def _pattern_failures(magnitude, zero, nonzero, tol, diagonal_zeros=None) -> list[str]:
    """The failures of |m| against the masks under the zero rule
    |entry| <= tol: a wrong diagonal zero count, then each violation's
    count on the diagonal and its first 8 positions off it.

    A mask is an n x n bool array or a rule pair, its value (on the
    diagonal, off it).  Rule pairs are decided from the number of zeros
    and the diagonal's; their masks are made only to word a violation."""
    n = len(magnitude)
    found = int(np.count_nonzero(np.diagonal(magnitude) <= tol))
    failures = [] if diagonal_zeros in (None, found) else [f"expected exactly {diagonal_zeros} diagonal zeros, found {found}"]
    if isinstance(zero, tuple):
        total = int(np.count_nonzero(magnitude <= tol))
        if _covers(zero, total, found, n) and _avoids(nonzero, total, found):
            return failures
        zero, nonzero = _rule_mask(n, *zero), _rule_mask(n, *nonzero)
    is_zero = magnitude <= tol
    for bad, word in ((zero & ~is_zero, "nonzero"), (nonzero & is_zero, "zero")):
        if not bad.any():
            continue
        on_diagonal = int(np.sum(np.diag(bad)))
        if on_diagonal:
            failures.append(f"{on_diagonal} diagonal entries are {word}")
        np.fill_diagonal(bad, False)
        positions = [(int(i), int(j)) for i, j in np.argwhere(bad)[:8]]
        if positions:
            failures.append(f"off-diagonal {word}s at {positions}")
    return failures


def input_failures(m: RealMatrix, claim: str) -> list[str]:
    """What a builder checks, in O(n²), of an input whose orthogonality its
    plan's root certificate implies: the pattern failures ``certify``
    reports under ``claim``, a row of ``_PATTERNS``, and no declared scale_c."""
    _, zero_rule, nonzero_rule, *_ = _PATTERNS[claim]
    _square_order(m)
    magnitude = np.abs(m.data)
    failures = _pattern_failures(magnitude, zero_rule, nonzero_rule, _zero_rule(magnitude))
    return failures + (["no declared scale_c"] if m.scale_c is None else [])


def _certify_pattern(
    m: RealMatrix,
    claim: str,
    zero: np.ndarray | tuple[bool, bool] | None,
    nonzero: np.ndarray | tuple[bool, bool] | None,
    *,
    exact: bool = False,
    symmetric: bool = False,
    zero_tol: float | None = None,
    res_tol: float = RES_TOL,
    diagonal_zeros: int | None = None,
    failures: tuple[str, ...] = (),
) -> OrthoCertificate:
    """The certificate core of every real claim: pattern, gram and
    symmetry, each checked once, after the claim's own ``failures``.

    ``zero`` and ``nonzero`` are the required masks of a square ``m``,
    each an n x n bool array or a rule pair (its value on the diagonal,
    off it; an exact claim gives pairs), or None when the claim has no
    pattern of this order (its failures say why, and the margin is 0).
    No rule pair requires zeros off the diagonal.  ``diagonal_zeros``,
    when given, is the exact number of diagonal zeros the claim requires;
    a wrong count is the first failure.  Once MMᵀ = cI holds, a declared
    ``m.scale_c`` must agree with c (exactly, for an exact claim); a
    matrix that fails the gram check has no c to compare with.
    min_offdiag_magnitude is the smallest off-diagonal |entry| not
    required to be zero.

    |m| is taken once, for the zero rule (``_zero_rule``), the pattern,
    the exact rule and the margin, and freed before the gram, whose
    residual ``residual_scaled_identity`` reads in place.  Every position
    of an exact claim is required zero or nonzero, so its one rule on
    entries is that they are ternary, each 0, 1 or -1: the entries of |m|
    that are 1 and 0 are all n² of them.  A ternary matrix takes the
    exact float32 gram, whether or not its pattern holds; any other fails
    the exact claim and takes the float64 gram for its report.  The
    offending positions are looked up only when a mask is violated.
    """
    a = m.data
    n = m.order
    failures = list(failures)
    min_offdiag = 0.0
    magnitude = np.abs(a)
    if zero is not None:
        tol = _zero_rule(magnitude) if zero_tol is None else zero_tol
        failures += _pattern_failures(magnitude, zero, nonzero, tol, diagonal_zeros)
    ternary = exact and int(np.count_nonzero(magnitude == 1.0) + np.count_nonzero(magnitude == 0.0)) == n * n
    if exact and not ternary:
        failures.append("entries are not all 0 or +-1; exact check impossible")

    if zero is not None:  # the margin, over |m| with its required zeros and diagonal set to inf
        if not isinstance(zero, tuple):
            np.copyto(magnitude, math.inf, where=zero)
        np.fill_diagonal(magnitude, math.inf)
        min_offdiag = float(np.min(magnitude))
    del magnitude

    # written so that a NaN scale or residual (an overflowing gram) fails
    c, max_residual = residual_scaled_identity(m, ternary=ternary)
    s = m.scale_c
    if not (0.0 < c < math.inf):
        failures.append(f"recovered scale {c} is not positive and finite")
    elif exact and max_residual != 0.0:
        failures.append(f"gram deviates from cI by {max_residual} (exact check)")
    elif not exact and not (max_residual <= res_tol * c * n):
        failures.append(
            f"max residual {max_residual:.3e} exceeds {res_tol:.1e} * c * n = "
            f"{res_tol * c * n:.3e}"
        )
    elif s is not None and not (s == c if exact else abs(c - s) <= res_tol * c * n):
        failures.append(f"declared scale_c {s} differs from the recovered c {c}")

    symmetry = _symmetry_class(a)
    if symmetric and symmetry != "symmetric":
        failures.append("matrix is " + ("skew, " if symmetry == "skew" else "") + "not symmetric")

    return OrthoCertificate(
        claim=claim,
        passed=not failures,
        scale_c=c,
        max_residual=max_residual,
        min_offdiag_magnitude=min_offdiag,
        symmetry=symmetry,
        failures=tuple(failures),
    )


# the rule pairs of no entry and of every entry
_NOWHERE, _EVERYWHERE = (False, False), (True, True)

# claim -> (label, required-zero mask, required-nonzero mask, exact, symmetric);
# each mask is a rule pair, its value (on the diagonal, off it), and an entry
# in neither is free; an exact claim holds MMᵀ = cI exactly on entries 0, 1 or -1
_PATTERNS = {
    CLAIM_OMZD: ("OMZD", (True, False), (False, True), False, False),
    CLAIM_SYMMETRIC_OMZD: ("SymmetricOMZD", (True, False), (False, True), False, True),
    CLAIM_CONFERENCE: ("Conference", (True, False), (False, True), True, False),
    CLAIM_OMPZD: ("OMPZD({k})", _NOWHERE, (False, True), False, False),  # and exactly k diagonal zeros
    CLAIM_NOWHERE_ZERO: ("NowhereZeroOrthogonal", _NOWHERE, _EVERYWHERE, False, False),
    CLAIM_ORTHOGONAL: ("Orthogonal", _NOWHERE, _NOWHERE, False, False),
}


# claim -> the tolerances it never reads, which certify refuses
_UNREAD_TOLERANCES = {
    CLAIM_CONFERENCE: ("res_tol", "zero_tol"),
    CLAIM_DRT: ("res_tol", "zero_tol"),
    CLAIM_SKEW_HADAMARD: ("res_tol", "zero_tol"),
    CLAIM_ORTHOGONAL: ("zero_tol",),
}


def _rule_mask(n: int, on_diagonal: bool, off_diagonal: bool) -> np.ndarray:
    mask = np.full((n, n), off_diagonal)
    np.fill_diagonal(mask, on_diagonal)
    return mask


def certify(
    m: RealMatrix,
    claim: str,
    k: int | None = None,
    *,
    part_size: int | None = None,
    parts: int | None = None,
    zero_tol: float | None = None,
    res_tol: float | None = None,
):
    """Check ``m`` against ``claim``, one of CLAIMS; the one map from a
    claim to its checker.

    drt goes to ``check_drt``, skew-hadamard to ``check_skew_hadamard``,
    multipartite to ``certify_multipartite`` with ``part_size`` and
    ``parts``, and the rest to their row of ``_PATTERNS``: masks under the
    zero rule of ``zero_tolerance``, and max |MMᵀ - cI| <= res_tol * c *
    order, or 0 for an exact claim.  ``k`` is the zero count of ompzd:
    k = 0 is the nowhere-zero claim, and without k the zero count the
    diagonal shows is the claim.  Returns the full OrthoCertificate of
    every claim; a tournament's is that of its skew-Hadamard matrix.
    ``res_tol`` None means ``RES_TOL``.

    Raises ValueError for an unknown claim, a missing or non-integer
    parameter, a tolerance that is given but not finite and >= 0, or,
    after that, a tolerance the claim never reads: the exact claims,
    conference, drt and skew-hadamard, take neither tolerance (each entry
    must be 0 or +-1 exactly, and MMᵀ = cI exactly), and orthogonal takes
    no zero_tol (it requires no entry).
    """
    tolerances = {"res_tol": res_tol, "zero_tol": zero_tol}
    for label, tol in tolerances.items():
        if tol is not None and not (math.isfinite(tol) and tol >= 0):
            raise ValueError(f"{label} must be finite and >= 0, got {tol!r}")
    for label in _UNREAD_TOLERANCES.get(claim, ()):
        if tolerances[label] is not None:
            raise ValueError(f"claim {claim!r} takes no {label}")
    res_tol = RES_TOL if res_tol is None else res_tol
    if claim == CLAIM_DRT:
        return check_drt(m)
    if claim == CLAIM_SKEW_HADAMARD:
        return check_skew_hadamard(m)
    if claim == CLAIM_MULTIPARTITE:
        if not all(type(x) is int and x >= 1 for x in (part_size, parts)):  # bool is no count
            raise ValueError("claim 'multipartite' needs a positive integer part size n and part count m")
        return certify_multipartite(m, part_size, parts, zero_tol=zero_tol, res_tol=res_tol)
    if claim == CLAIM_OMPZD:
        if k is None:
            k = int(np.sum(np.abs(np.diag(m.data)) <= zero_tolerance(m, zero_tol)))
        elif type(k) is not int or k < 0:  # bool is no count
            raise ValueError(f"claim 'ompzd' needs a non-negative integer zero count k, got {k!r}")
        if k == 0:
            claim = CLAIM_NOWHERE_ZERO
    if claim not in _PATTERNS:
        raise ValueError(f"unknown claim {claim!r}")
    label, zero_rule, nonzero_rule, exact, symmetric = _PATTERNS[claim]
    _square_order(m)
    return _certify_pattern(
        m, label.format(k=k), zero_rule, nonzero_rule,
        exact=exact, symmetric=symmetric, zero_tol=zero_tol, res_tol=res_tol,
        diagonal_zeros=k if claim == CLAIM_OMPZD else None,
    )


def tournament_failures(t: RealMatrix) -> tuple[str, ...]:
    """A tournament T's own failures: entries in {0, 1}, T + Tᵀ = J - I,
    order q = 3 mod 4, and no declared scale_c (T has no c; the scale of
    its skew-Hadamard matrix is q + 1).

    T is a DRT iff it has none of these failures and its
    ``bordered_tournament`` H passes the exact skew-Hadamard certificate:
    for a tournament, H = C + I with C skew, so HHᵀ = CCᵀ + I, and
    HHᵀ = (q+1)I holds iff every out-degree is (q-1)/2 and
    TTᵀ = ((q+1)/4)I + ((q-3)/4)J.  ``check_drt`` runs that certificate,
    which builders leave to the root's.  Raises ShapeMismatch for a
    non-square or 0x0 matrix.
    """
    q = _square_order(t)
    a = t.data
    failures = []
    if np.count_nonzero(a == 0) + np.count_nonzero(a == 1) == q * q:
        # then T + Tᵀ = J - I iff diag(T) = 0 and T differs from Tᵀ off it
        oriented = not np.any(np.diagonal(a)) and np.count_nonzero(a != a.T) == q * q - q
    else:
        failures.append("entries are not all in {0, 1}")
        # a sum that overflows is inf, and inf + -inf NaN: neither is in J - I
        with np.errstate(over="ignore", invalid="ignore"):
            oriented = np.array_equal(a + a.T, 1.0 - np.eye(q))
    if not oriented:
        failures.append("not an orientation of the complete graph: T + T^T != J - I")
    if q % 4 != 3:
        failures.append(f"order {q} is not 3 mod 4")
    if t.scale_c is not None:
        failures.append(f"a tournament declares no scale_c, got {t.scale_c}")
    return tuple(failures)


def bordered_tournament(t: RealMatrix) -> np.ndarray:
    """The skew-Hadamard matrix H of a tournament T of order q, a fresh
    (q+1) x (q+1) array: T - Tᵀ + I bordered by a +1 row and a -1 column.
    Raises ShapeMismatch for a non-square or 0x0 matrix."""
    q = _square_order(t)
    a = t.data
    h = np.empty((q + 1, q + 1))
    h[0] = 1.0
    h[1:, 0] = -1.0
    # a difference that overflows is an inf entry of H, and inf - inf a NaN
    # one, which the core rejects
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(a, a.T, out=h[1:, 1:])
    np.fill_diagonal(h[1:, 1:], 1.0)
    return h


def check_drt(t: RealMatrix) -> OrthoCertificate:
    """The exact certificate of a doubly regular tournament T of order q:
    that of its skew-Hadamard matrix H (``bordered_tournament``), after
    T's own failures (``tournament_failures``).  Positions in the failures
    are H's: entry (i, j) of T is entry (i+1, j+1) of H.  Raises
    ShapeMismatch for a non-square or 0x0 matrix.
    """
    failures = tournament_failures(t)
    h = RealMatrix._adopt(bordered_tournament(t))
    return _certify_pattern(h, f"DRT({t.order})", _NOWHERE, _EVERYWHERE, exact=True, failures=failures)


def check_skew_hadamard(h: RealMatrix) -> OrthoCertificate:
    """The exact certificate of a skew-Hadamard matrix: +-1 entries,
    HHᵀ = nI exactly, and H + Hᵀ = 2I (H - I is skew).  Raises
    ShapeMismatch for a non-square or 0x0 matrix."""
    n = _square_order(h)
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN sum is a failure, not a warning
        s = h.data + h.data.T  # the one n x n array of this test, freed before the core runs
        s.flat[:: n + 1] -= 2.0
        failures = ("H + H^T != 2I",) if np.any(s) else ()
    del s
    return _certify_pattern(h, f"SkewHadamard({n})", _NOWHERE, _EVERYWHERE, exact=True, failures=failures)


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


def certify_graph(m: RealMatrix, adjacency: np.ndarray) -> OrthoCertificate:
    """Certificate that a symmetric orthogonal matrix realizes the graph
    of a symmetric bool ``adjacency`` mask: zero at every non-edge off
    the diagonal, nonzero at every edge, any diagonal.  Raises
    ShapeMismatch unless both are square of one order."""
    if adjacency.shape != (_square_order(m),) * 2:
        raise ShapeMismatch(f"a graph of order {len(adjacency)} needs a matrix of that order, got {m.order}")
    off = ~np.eye(m.order, dtype=bool)
    return _certify_pattern(m, "Graph", off & ~adjacency, adjacency, symmetric=True)
