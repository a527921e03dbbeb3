"""Deterministic matrix constructions.

Every operation is a pure function of its arguments and produces
bit-identical output on repeated calls.  Zero entries are written as
exact 0.0 so pattern checks on our own output need no tolerance.
Radical entries (sqrt(3), sqrt(5), ...) are kept as documented closed
forms in comments and materialized as doubles.
"""

from __future__ import annotations

import math

import numpy as np

from . import gfield
from .errors import BuildRefused, InvalidQ
from .numerics import RealMatrix, residual_scaled_identity
from .verify import (
    CLAIM_OMPZD,
    CLAIM_OMZD,
    certify,
    check_drt,
    zero_tolerance,
)

__all__ = [
    "seed",
    "seed_catalog_keys",
    "check_paley_q",
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
    "conjugate_permute",
]

KIND_OMZD = "omzd"
KIND_OMPZD = "ompzd"


# --------------------------------------------------------------------------
# Seed catalog
# --------------------------------------------------------------------------

def _seed_conference_2() -> RealMatrix:
    return RealMatrix([[0, 1], [1, 0]], scale_c=1.0)


def _seed_conference_4() -> RealMatrix:
    rows = [
        [0, 1, 1, 1],
        [-1, 0, -1, 1],
        [-1, 1, 0, -1],
        [-1, -1, 1, 0],
    ]
    return RealMatrix(rows, scale_c=3.0)


def _seed_conference_6() -> RealMatrix:
    rows = [
        [0, 1, 1, 1, 1, 1],
        [1, 0, 1, -1, -1, 1],
        [1, 1, 0, 1, -1, -1],
        [1, -1, 1, 0, 1, -1],
        [1, -1, -1, 1, 0, 1],
        [1, 1, -1, -1, 1, 0],
    ]
    return RealMatrix(rows, scale_c=5.0)


def _seed_omzd_5() -> RealMatrix:
    # a = (-1 + sqrt(3)) / 2,  b = (-1 - sqrt(3)) / 2
    a = (-1.0 + math.sqrt(3.0)) / 2.0
    b = (-1.0 - math.sqrt(3.0)) / 2.0
    rows = [
        [0, 1, 1, 1, 1],
        [1, 0, a, 1, b],
        [1, b, 0, a, 1],
        [1, 1, b, 0, a],
        [1, a, 1, b, 0],
    ]
    return RealMatrix(rows, scale_c=4.0)


def _seed_omzd_7() -> RealMatrix:
    # R = sqrt(9 + 4 sqrt(6))
    # a = -(1 - R)/sqrt(6) - R/3,  b = -1 + sqrt(6)/2,
    # c = -(1 + R)/sqrt(6) + 2R/3, d = -1/sqrt(6) - R/3
    r6 = math.sqrt(6.0)
    big_r = math.sqrt(9.0 + 4.0 * r6)
    a = -(1.0 - big_r) / r6 - big_r / 3.0
    b = -1.0 + r6 / 2.0
    c = -(1.0 + big_r) / r6 + 2.0 * big_r / 3.0
    d = -1.0 / r6 - big_r / 3.0
    rows = [
        [0, 1, 1, 1, 1, 1, 1],
        [1, 0, a, b, c, 1, d],
        [1, d, 0, a, b, c, 1],
        [1, 1, d, 0, a, b, c],
        [1, c, 1, d, 0, a, b],
        [1, b, c, 1, d, 0, a],
        [1, a, b, c, 1, d, 0],
    ]
    return RealMatrix(rows, scale_c=6.0)


def _seed_ompzd_3_1() -> RealMatrix:
    s2 = math.sqrt(2.0)
    rows = [
        [1, 1, s2],
        [1, 1, -s2],
        [s2, -s2, 0],
    ]
    return RealMatrix(rows, scale_c=4.0)


def _seed_ompzd_4_3() -> RealMatrix:
    # golden-ratio pair: a = (-1 + sqrt(5)) / 2,  b = (-1 - sqrt(5)) / 2
    a = (-1.0 + math.sqrt(5.0)) / 2.0
    b = (-1.0 - math.sqrt(5.0)) / 2.0
    rows = [
        [1, 1, 1, 1],
        [1, 0, a, b],
        [1, b, 0, a],
        [1, a, b, 0],
    ]
    return RealMatrix(rows, scale_c=4.0)


def _seed_ompzd_5_4() -> RealMatrix:
    # b = (-1 - sqrt(5)) / 2; f, s are the roots of 2x^2 + (1 - sqrt(5))x - 1 = 0
    # (f the larger root, s the smaller; the swap gives the transpose).
    r5 = math.sqrt(5.0)
    b = (-1.0 - r5) / 2.0
    disc = math.sqrt((1.0 - r5) ** 2 + 8.0)
    f = ((r5 - 1.0) + disc) / 4.0
    s = ((r5 - 1.0) - disc) / 4.0
    rows = [
        [1, 1, 1, 1, 1],
        [1, 0, f, b, s],
        [1, s, 0, f, b],
        [1, b, s, 0, f],
        [1, f, b, s, 0],
    ]
    return RealMatrix(rows, scale_c=5.0)


_CATALOG = {
    (KIND_OMZD, 2, None): _seed_conference_2,
    (KIND_OMZD, 4, None): _seed_conference_4,
    (KIND_OMZD, 5, None): _seed_omzd_5,
    (KIND_OMZD, 6, None): _seed_conference_6,
    (KIND_OMZD, 7, None): _seed_omzd_7,
    (KIND_OMPZD, 3, 1): _seed_ompzd_3_1,
    (KIND_OMPZD, 4, 3): _seed_ompzd_4_3,
    (KIND_OMPZD, 5, 4): _seed_ompzd_5_4,
}


def seed_catalog_keys() -> list[tuple[str, int, int | None]]:
    """All (kind, n, k) triples with a stored literal matrix."""
    return sorted(_CATALOG, key=lambda t: (t[0], t[1], -1 if t[2] is None else t[2]))


def seed(kind: str, n: int, k: int | None = None) -> RealMatrix:
    """Return the literal catalog matrix for (kind, n, k)."""
    key = (kind, n, k if kind == KIND_OMPZD else None)
    try:
        builder = _CATALOG[key]
    except KeyError:
        raise BuildRefused(f"no seed for kind={kind!r}, n={n}, k={k}") from None
    return builder()


# --------------------------------------------------------------------------
# Quadratic-character constructions
# --------------------------------------------------------------------------

def check_paley_q(q: int, tournament: bool = False) -> tuple[int, int]:
    """(p, k) with q = p^k.  Raises InvalidQ unless q is an odd prime
    power and, for a tournament, q = 3 (mod 4)."""
    pk = gfield.prime_power_decompose(q)
    if pk is None or pk[0] == 2:
        raise InvalidQ(f"q = {q} is not an odd prime power")
    if tournament and q % 4 != 3:
        raise InvalidQ(f"q = {q} is not 3 mod 4; the character core is not skew")
    return pk


def _character_core(q: int) -> np.ndarray:
    """q x q core with entry (i, j) = chi(j - i) over the element indices
    of GF(q), one chi-table gather per row (a q x k temporary, not q x q x k)."""
    p, k = check_paley_q(q)
    field = gfield.make_field(p, k)
    elems = np.arange(q)
    core = np.empty((q, q))
    for i in range(q):
        core[i] = field.chi_table[field.sub(elems, i)]
    return core


def paley_conference(q: int) -> RealMatrix:
    """Conference matrix of order q + 1 from the quadratic character,
    with entries in {0, +-1} and scale c = q.

    The core is bordered by a row of +1; the border column is +1 when
    q = 1 (mod 4) (symmetric result) and -1 when q = 3 (mod 4)
    (skew-type result).
    """
    core = _character_core(q)
    n = q + 1
    c = np.zeros((n, n))
    c[0, 1:] = 1
    c[1:, 0] = 1 if q % 4 == 1 else -1
    c[1:, 1:] = core
    return RealMatrix(c, scale_c=q)


def paley_tournament(q: int) -> RealMatrix:
    """Doubly regular tournament of order q as a {0, 1} adjacency matrix
    with no scale: arc i -> j iff a_j - a_i is a nonzero square in GF(q).
    Needs q = 3 (mod 4)."""
    check_paley_q(q, tournament=True)
    core = _character_core(q)
    return RealMatrix(core == 1)


# --------------------------------------------------------------------------
# Splice (core) construction
# --------------------------------------------------------------------------

def _unit_scale(m: RealMatrix) -> np.ndarray:
    c, _ = residual_scaled_identity(m)
    return m.data / math.sqrt(c)


def _splice(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Block assembly [[B, v x^T], [y u^T, C]] from unit-scale inputs with
    zero upper-left corners, where u/x are first rows and v/y first
    columns (minus the corner) and B/C the cores."""
    u, v, core_b = a[0, 1:], a[1:, 0], a[1:, 1:]
    x, y, core_c = b[0, 1:], b[1:, 0], b[1:, 1:]
    return np.block([[core_b, np.outer(v, x)], [np.outer(y, u), core_c]])


def combine(m: RealMatrix, n: RealMatrix) -> RealMatrix:
    """Splice an OMZD(m+1) and an OMZD(n+1) into an OMZD(m+n).

    Both inputs are certified and rescaled to unit scale internally.
    Orders below 4 are rejected up front: the core of an order-2 input
    is the 1x1 zero matrix, which would put a zero off the diagonal.
    """
    units = []
    for label, mat in (("first", m), ("second", n)):
        if not mat.is_square or mat.order < 4:
            raise ValueError(
                f"combine needs square inputs of order >= 4; {label} input is "
                f"{mat.rows}x{mat.cols}"
            )
        cert = certify(mat, CLAIM_OMZD)
        if not cert.passed:
            raise BuildRefused(f"{label} input failed OMZD certification: {cert.failures}")
        units.append(mat.data / math.sqrt(cert.scale_c))  # c from the certificate's gram
    return RealMatrix(_splice(*units), scale_c=1.0)


def ompzd_n_minus_1(omzd: RealMatrix) -> RealMatrix:
    """Orthogonal matrix of order n with exactly n-1 diagonal zeros, from
    an OMZD(n-2).

    Splices the OMPZD(4,3) seed, permuted so its corner is zero (which
    leaves its single nonzero diagonal entry inside the core), with the
    OMZD(n-2).  The input is not certified here: the result's own
    certificate covers it.
    """
    m = conjugate_permute(seed(KIND_OMPZD, 4, 3), [1, 0, 2, 3])  # zero corner
    return RealMatrix(_splice(_unit_scale(m), _unit_scale(omzd)), scale_c=1.0)


# --------------------------------------------------------------------------
# Symmetric construction
# --------------------------------------------------------------------------

def symmetric_omzd(n: int) -> RealMatrix:
    """Symmetric OMZD(n) for even n != 4.

    With m = n/2 >= 3, uses blocks A = J - I and B = a*I + b*J where
    a = sqrt(m^2 - 1) and b = (-sqrt(m^2 - 1) + sqrt(2m - 1)) / m, the
    root of m b^2 + 2 a b + m - 2 = 0 that keeps B nowhere zero; then
    [[A, B], [B, -A]] squares to m^2 I.
    """
    if n < 2 or n % 2 != 0:
        raise BuildRefused(f"a symmetric OMZD(n) exists only for even n, got {n}")
    if n == 4:
        raise BuildRefused("no symmetric OMZD(4) exists")
    if n == 2:
        return seed(KIND_OMZD, 2)
    m = n // 2
    alpha = math.sqrt(m * m - 1.0)
    beta = (-alpha + math.sqrt(2.0 * m - 1.0)) / m
    block_a = np.ones((m, m)) - np.eye(m)
    block_b = alpha * np.eye(m) + beta * np.ones((m, m))
    out = np.block([[block_a, block_b], [block_b, -block_a]])
    return RealMatrix(out, scale_c=float(m * m))


# --------------------------------------------------------------------------
# Tournament route
# --------------------------------------------------------------------------

def _require_drt(t: RealMatrix) -> int:
    verdict = check_drt(t)
    if not verdict.passed:
        raise BuildRefused(f"input is not a doubly regular tournament: {verdict.failures}")
    return verdict.q


def drt_to_skew_hadamard(t: RealMatrix) -> RealMatrix:
    """Skew-Hadamard matrix of order q + 1, with scale c = q + 1, from a
    DRT(q): border the skew +-1 matrix S + I, S = T - Tᵀ, with a +1 row
    and -1 column."""
    q = _require_drt(t)
    s = t.data - t.data.T
    h = np.empty((q + 1, q + 1))
    h[0, 0] = 1
    h[0, 1:] = 1
    h[1:, 0] = -1
    h[1:, 1:] = s + np.eye(q)
    return RealMatrix(h, scale_c=q + 1)


def _normalize_skew_hadamard(h: np.ndarray) -> np.ndarray:
    """Negate row j and column j together wherever entry (0, j) is -1,
    which preserves H + Hᵀ = 2I and makes row 0 all +1 (and, by
    skewness, column 0 all -1 below the corner)."""
    d = h[0, :].copy()
    d[0] = 1
    return d[:, None] * h * d[None, :]


def double_drt(t: RealMatrix) -> RealMatrix:
    """Doubly regular tournament of order 2q + 1 from one of order q, as
    a {0, 1} matrix with no scale.

    Routes through skew-Hadamard matrices: H of order q+1 from the
    input, then H' = [[H, H], [-Hᵀ, Hᵀ]] of order 2q+2, normalized and
    stripped of its first row and column; the +-1 core yields arcs via
    core(i, j) = +1.  The input is checked once, by
    ``drt_to_skew_hadamard`` (BuildRefused); the output is not checked here
    but by whatever consumes it.
    """
    h = drt_to_skew_hadamard(t).data
    doubled = _normalize_skew_hadamard(np.block([[h, h], [-h.T, h.T]]))
    arcs = doubled[1:, 1:] == 1
    np.fill_diagonal(arcs, False)
    return RealMatrix(arcs)


def omzd_from_drt(t: RealMatrix, branch: str = "minus") -> RealMatrix:
    """OMZD(q) from a DRT(q), q >= 7, as alpha * A + J - I.

    alpha = (-2/(q-3)) * (q - 2 +- sqrt(q - 2)) kills the all-ones
    component of the gram matrix; the surviving scale is
    c = alpha^2 (q+1)/4 + alpha + 1.
    """
    if branch not in ("plus", "minus"):
        raise ValueError(f"branch must be 'plus' or 'minus', got {branch!r}")
    q = _require_drt(t)
    if q == 3:
        raise BuildRefused("q = 3 is excluded: the coefficient is undefined there")
    sign = 1.0 if branch == "plus" else -1.0
    alpha = (-2.0 / (q - 3)) * ((q - 2) + sign * math.sqrt(q - 2.0))
    out = alpha * t.data + np.ones((q, q)) - np.eye(q)
    c = alpha * alpha * (q + 1) / 4.0 + alpha + 1.0
    return RealMatrix(out, scale_c=c)


# --------------------------------------------------------------------------
# Nowhere-zero orthogonal matrices and zero-count reduction
# --------------------------------------------------------------------------

def nowhere_zero_orthogonal(n: int) -> RealMatrix:
    """Orthogonal matrix of order n with no zero entries: [1], the
    order-2 Hadamard matrix, or I - (2/n)J for n >= 3."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n == 1:
        return RealMatrix([[1.0]], scale_c=1.0)
    if n == 2:
        return RealMatrix([[1.0, 1.0], [1.0, -1.0]], scale_c=2.0)
    out = np.eye(n) - (2.0 / n) * np.ones((n, n))
    return RealMatrix(out, scale_c=1.0)


def conjugate_permute(m: RealMatrix, perm) -> RealMatrix:
    """Simultaneous row/column permutation P M Pᵀ; preserves
    orthogonality, symmetry class, and the diagonal zero multiset."""
    idx = np.asarray(perm, dtype=np.intp)
    return RealMatrix(m.data[np.ix_(idx, idx)], scale_c=m.scale_c)


_THETA_EXPONENTS = range(4, 41)


def _rotate_pair(a: np.ndarray, i: int, j: int, scale_c: float) -> None:
    """Right-multiply ``a`` in place by a 2-plane rotation on columns i and j.

    Takes the first angle in the schedule 2^-t, t = 4..40, at which +θ or
    -θ leaves every entry of the two touched columns above 1e-8 * sqrt(c).
    Of the two signs it keeps the one whose touched columns have the
    larger minimum |entry|, + on a tie: when the plane holds a nonzero
    diagonal entry a_jj, the new one is cos θ·a_jj - sin θ·a_ji, and for
    one sign the two terms can nearly cancel.
    """
    floor = 1e-8 * math.sqrt(scale_c)
    col_i, col_j = a[:, i].copy(), a[:, j].copy()
    for t in _THETA_EXPONENTS:
        theta = 2.0 ** (-t)
        c, s = math.cos(theta), math.sin(theta)
        pairs = (
            (c * col_i + s * col_j, -s * col_i + c * col_j),  # +θ
            (c * col_i - s * col_j, s * col_i + c * col_j),  # -θ
        )
        margins = [min(np.min(np.abs(u)), np.min(np.abs(v))) for u, v in pairs]
        best = int(margins[1] > margins[0])
        if margins[best] > floor:
            a[:, i], a[:, j] = pairs[best]
            return
    raise BuildRefused("rotation schedule exhausted; input is pathological")


def reduce_zeros(m: RealMatrix, target_k: int) -> RealMatrix:
    """Reduce the diagonal zero count of an orthogonal matrix to target_k.

    Clears zeros two at a time: permute two zero-diagonal positions to
    indices 0 and 1 and rotate those columns by a small angle, which
    fills both diagonal entries while the angle threshold keeps every
    other touched entry nonzero.  An odd deficit ends with one mixed
    application (one zero and one nonzero diagonal position in the
    plane).  target_k = n-1 is unreachable by rotations and refused.

    The permutations are composed rather than applied: the columns are
    rotated in place under the composite relabelling, and the matrix is
    permuted once at the end, with the same result bit for bit.  The
    input is certified (its c scales the angle floor); the output is not
    certified here but by whatever consumes it.
    """
    if not m.is_square or m.order < 4:
        raise ValueError("zero reduction needs a square input of order >= 4")
    n = m.order
    if target_k < 0:
        raise ValueError(f"target zero count must be >= 0, got {target_k}")
    zero_tol = zero_tolerance(m)

    diag = np.abs(np.diag(m.data))
    j = int(np.sum(diag <= zero_tol))
    if target_k == n - 1:
        raise BuildRefused("k = n-1 cannot be produced by plane rotations")
    if target_k > j:
        raise BuildRefused(f"input has {j} diagonal zeros, cannot reach {target_k}")

    cert = certify(m, CLAIM_OMPZD, k=j)
    if not cert.passed:
        raise BuildRefused(
            f"input is not an order-{n} orthogonal matrix with all {j} zeros "
            f"on the diagonal: {cert.failures}"
        )
    if target_k == j:
        return RealMatrix(m.data, scale_c=cert.scale_c)

    c = cert.scale_c
    a = np.array(m.data)
    labels = np.arange(n)  # position p of the permuted matrix is row/column labels[p] of a
    while True:
        is_zero = np.abs(a[labels, labels]) <= zero_tol
        zero_pos = np.flatnonzero(is_zero)
        deficit = len(zero_pos) - target_k
        if deficit == 0:
            break
        if deficit >= 2:
            front = zero_pos[:2]
        else:
            front = [zero_pos[0], np.flatnonzero(~is_zero)[0]]
        labels = labels[np.concatenate((front, np.delete(np.arange(n), front)))]
        _rotate_pair(a, labels[0], labels[1], c)

    return RealMatrix(a[np.ix_(labels, labels)], scale_c=c)


# --------------------------------------------------------------------------
# Kronecker product
# --------------------------------------------------------------------------

def kron(a: RealMatrix, b: RealMatrix) -> RealMatrix:
    """Kronecker product; scales multiply when both factors carry one,
    and symmetry of both factors carries over entry-exactly."""
    scale = None
    if a.scale_c is not None and b.scale_c is not None:
        scale = a.scale_c * b.scale_c
    return RealMatrix(np.kron(a.data, b.data), scale_c=scale)
