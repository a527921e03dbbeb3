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
from numpy.lib.stride_tricks import sliding_window_view

from . import gfield
from .errors import BuildRefused, InvalidQ
from .numerics import RES_TOL, RealMatrix
from .verify import (
    CLAIM_OMPZD,
    CLAIM_OMZD,
    bordered_tournament,
    input_failures,
    tournament_failures,
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


def _require(failures, refusal: str) -> None:
    """BuildRefused(f"{refusal}: {failures}") unless there are no failures."""
    if failures:
        raise BuildRefused(f"{refusal}: {tuple(failures)}")


# --------------------------------------------------------------------------
# Seed catalog
# --------------------------------------------------------------------------

def _seed_conference_2() -> RealMatrix:
    return RealMatrix([[0, 1], [1, 0]], scale_c=1.0)


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
    (CLAIM_OMZD, 2, None): _seed_conference_2,
    (CLAIM_OMZD, 4, None): lambda: paley_conference(3),
    (CLAIM_OMZD, 5, None): _seed_omzd_5,
    (CLAIM_OMZD, 6, None): lambda: paley_conference(5),
    (CLAIM_OMZD, 7, None): _seed_omzd_7,
    (CLAIM_OMPZD, 3, 1): _seed_ompzd_3_1,
    (CLAIM_OMPZD, 4, 3): _seed_ompzd_4_3,
    (CLAIM_OMPZD, 5, 4): _seed_ompzd_5_4,
}


def seed_catalog_keys() -> list[tuple[str, int, int | None]]:
    """All (kind, n, k) triples the seed catalog serves."""
    return sorted(_CATALOG, key=lambda t: (t[0], t[1], -1 if t[2] is None else t[2]))


def seed(kind: str, n: int, k: int | None = None) -> RealMatrix:
    """Return the catalog matrix for (kind, n, k): a closed form written
    out above, or for the OMZD(4) and OMZD(6) the Paley conference matrix
    of q = 3 and q = 5."""
    key = (kind, n, k if kind == CLAIM_OMPZD else None)
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


def _difference_index(field: gfield.FiniteField) -> np.ndarray:
    """q x q int32 array with entry (i, j) the index of j - i.

    Digits subtract without carry, so the top-left p^m x p^m block is
    the same array for the field's lowest m digits, and each next block
    adds ((b - a) mod p) * p^m to it at block (a, b).  Every level is one
    broadcast add inside the one result; numpy copies the corner it reads
    from, at most (q/p)^2 entries."""
    p, q = field.p, field.q
    step = (np.arange(p) - np.arange(p)[:, None]) % p
    index = np.empty((q, q), dtype=np.int32)
    index[0, 0] = 0
    size = 1
    while size < q:
        blocks = index[:p * size, :p * size].reshape(p, size, p, size)
        np.add(blocks[:1, :, :1], (step * size)[:, None, :, None], out=blocks)
        size *= p
    return index


def _character_core(q: int) -> np.ndarray:
    """q x q core with entry (i, j) = chi(j - i) over the element indices
    of GF(q), gathered from a float copy of the chi table.

    For a prime q the core is circulant: row i is the window of
    [chi, chi] that starts at q - i, so the float64 result is the only
    q x q array.  A prime power gathers through ``_difference_index``,
    one q x q int32 array beside the result."""
    p, k = check_paley_q(q)
    field = gfield.make_field(p, k)
    chi = field.chi_table.astype(float)
    if k == 1:
        return sliding_window_view(np.concatenate([chi, chi])[1:], q)[::-1].copy()
    return chi[_difference_index(field)]


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
    return RealMatrix._adopt(c, scale_c=q)


def paley_tournament(q: int) -> RealMatrix:
    """Doubly regular tournament of order q as a {0, 1} adjacency matrix
    with no scale: arc i -> j iff a_j - a_i is a nonzero square in GF(q).
    Needs q = 3 (mod 4)."""
    check_paley_q(q, tournament=True)
    core = _character_core(q)
    return RealMatrix._adopt(np.maximum(core, 0.0, out=core))  # chi = -1, 0, 1 -> 0, 0, 1


# --------------------------------------------------------------------------
# Splice (core) construction
# --------------------------------------------------------------------------

def _splice(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Block assembly [[B, v x^T], [y u^T, C]] from unit-scale inputs with
    zero upper-left corners, where u/x are first rows and v/y first
    columns (minus the corner) and B/C the cores."""
    u, v, core_b = a[0, 1:], a[1:, 0], a[1:, 1:]
    x, y, core_c = b[0, 1:], b[1:, 0], b[1:, 1:]
    p = len(core_b)
    out = np.empty((p + len(core_c),) * 2)  # each block is written into the one output
    out[:p, :p], out[p:, p:] = core_b, core_c
    np.multiply(v[:, None], x, out=out[:p, p:])
    np.multiply(y[:, None], u, out=out[p:, :p])
    return out


def _unit_omzd(m: RealMatrix, refusal: str) -> np.ndarray:
    """``m`` over √(its declared scale_c), a = [[0, uᵀ], [v, B]], once it
    has no input failures and |u|² = 1, tr aaᵀ = order and Bu = 0, else
    BuildRefused(f"{refusal}: {failures}").  Each condition is an entry, or
    the diagonal mean, of aaᵀ - I, held to RES_TOL * order as in a's own
    certificate.  Spliced with b = [[0, xᵀ], [y, C]] alike, S has ‖S‖² its
    order and SSᵀ the diagonal blocks BBᵀ + |x|²vvᵀ and |u|²yyᵀ + CCᵀ; so
    the root check, SSᵀ = cI to res_tol * c * order, completes a's and b's
    certificates, each residual at most the root's plus this rounding."""
    failures = input_failures(m, CLAIM_OMZD)
    if not failures:
        a, n = m.data / math.sqrt(m.scale_c), m.order
        u = a[0, 1:]
        gaps = {"|u|^2 - 1": u @ u - 1, "tr aa^T / order - 1": np.vdot(a, a) / n - 1,
                "max |Bu|": np.max(np.abs(a[1:, 1:] @ u), initial=0.0)}
        failures = [f"{label} = {gap:.3e}" for label, gap in gaps.items() if not abs(gap) <= RES_TOL * n]
    _require(failures, refusal)
    return a


def combine(m: RealMatrix, n: RealMatrix) -> RealMatrix:
    """Splice an OMZD(m+1) and an OMZD(n+1) into an OMZD(m+n) of declared
    scale 1, its inputs scaled and checked by ``_unit_omzd``: called alone,
    it takes an input of the right pattern that is not orthogonal.  Orders
    below 4 are rejected up front: the core of an order-2 input is the 1x1
    zero matrix, which would put a zero off the diagonal.
    """
    units = []
    for label, mat in (("first", m), ("second", n)):
        if not mat.is_square or mat.order < 4:
            raise ValueError(
                f"combine needs square inputs of order >= 4; {label} input is "
                f"{mat.rows}x{mat.cols}"
            )
        units.append(_unit_omzd(mat, f"{label} input failed OMZD certification"))
    return RealMatrix._adopt(_splice(*units), scale_c=1.0)


def ompzd_n_minus_1(omzd: RealMatrix) -> RealMatrix:
    """Orthogonal matrix of order n, scale 1, with exactly n-1 diagonal
    zeros: the OMPZD(4,3) seed, permuted so its corner is zero (which
    leaves its single nonzero diagonal entry inside the core) and halved,
    spliced with an OMZD(n-2), scaled and checked as ``combine``'s inputs.
    """
    unit = _unit_omzd(omzd, "input failed OMZD certification")
    m = conjugate_permute(seed(CLAIM_OMPZD, 4, 3), [1, 0, 2, 3])  # zero corner
    return RealMatrix._adopt(_splice(m.data / 2.0, unit), scale_c=1.0)


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
        return seed(CLAIM_OMZD, 2)
    m = n // 2
    alpha = math.sqrt(m * m - 1.0)
    beta = (-alpha + math.sqrt(2.0 * m - 1.0)) / m
    out = np.full((n, n), beta)  # each block is written into the one output
    out[:m, :m], out[m:, m:] = 1.0, -1.0
    np.fill_diagonal(out, 0.0)
    i = np.arange(m)
    out[i, m + i] = out[m + i, i] = alpha + beta
    return RealMatrix._adopt(out, scale_c=float(m * m))


# --------------------------------------------------------------------------
# Tournament route
# --------------------------------------------------------------------------

def drt_to_skew_hadamard(t: RealMatrix) -> RealMatrix:
    """Skew-Hadamard matrix of order q + 1, with scale c = q + 1, from a
    DRT(q): the skew +-1 matrix S + I, S = T - Tᵀ, bordered with a +1 row
    and -1 column (``verify.bordered_tournament``).  Only T's own failures
    (``verify.tournament_failures``) are checked here: the rest of T's DRT
    certificate is the exact check of this very H, which the plan's root
    check makes.  Called alone, it takes a tournament that is not doubly
    regular.
    """
    _require(tournament_failures(t), "input is not a doubly regular tournament")
    return RealMatrix._adopt(bordered_tournament(t), scale_c=t.order + 1)


def double_drt(t: RealMatrix) -> RealMatrix:
    """Doubly regular tournament of order 2q + 1 from one of order q, as a
    {0, 1} matrix with no scale: its arcs are the +1 entries of the core of
    H' = [[H, H], [-Hᵀ, Hᵀ]], with H the input's skew-Hadamard matrix
    (``drt_to_skew_hadamard``), whose row 0, and so H''s, is all +1.  As
    T + Tᵀ = J - I, they are, with vertex q between the two halves,
    [[T, 0, T + I], [1ᵀ, 0, 0ᵀ], [T, 1, Tᵀ]], written block by block into
    the output.  Only T's own failures are checked
    (``verify.tournament_failures``): H'H'ᵀ = diag(2HHᵀ, 2HᵀH), so the
    exact root check completes T's.
    """
    _require(tournament_failures(t), "input is not a doubly regular tournament")
    a, q = t.data, t.order
    arcs = np.empty((2 * q + 1, 2 * q + 1))
    arcs[:q, :q] = arcs[:q, q + 1 :] = arcs[q + 1 :, :q] = a
    arcs[q + 1 :, q + 1 :] = a.T
    arcs[:q, q] = arcs[q, q:] = 0.0
    arcs[q, :q] = arcs[q + 1 :, q] = 1.0
    np.fill_diagonal(arcs[:q, q + 1 :], 1.0)
    return RealMatrix._adopt(arcs)


def omzd_from_drt(t: RealMatrix, branch: str = "minus") -> RealMatrix:
    """OMZD(q) from a DRT(q), q >= 7, as alpha * A + J - I.

    alpha = (-2/(q-3)) * (q - 2 +- sqrt(q - 2)) kills the all-ones
    component of the gram matrix; the surviving scale is
    c = alpha^2 (q+1)/4 + alpha + 1.  Only T's own failures are checked
    here (``verify.tournament_failures``, BuildRefused): the OMZD check of
    the output M completes T's DRT certificate.  With T + Tᵀ = J - I and
    out-degrees r, (MMᵀ)_ii = alpha (alpha + 2) r_i + q - 1; the mean
    out-degree is (q-1)/2, so c does not depend on T, and an irregular T
    puts a diagonal entry |alpha (alpha + 2)| or more away from c.  For a
    regular T, alpha's quadratic (q-3)/4 alpha^2 + (q-2) alpha + q - 2 = 0
    gives (MMᵀ)_ij = alpha^2 ((TTᵀ)_ij - (q-3)/4) off the diagonal, all 0
    iff T is doubly regular.  At every order the planner routes here (up
    to MAX_ORDER = 4096, both branches) |alpha (alpha + 2)| is at least
    3.7 and alpha^2 at least 238 times RES_TOL * c * q, both worst at
    order 4095; the first margin stays above 2 up to order about 5 270.
    A ReduceZeros root over M adds only its rotations' rounding to these
    residuals.  Called alone, it takes a tournament with no own failures
    that is not doubly regular, and its output fails the OMZD check.
    """
    if branch not in ("plus", "minus"):
        raise ValueError(f"branch must be 'plus' or 'minus', got {branch!r}")
    _require(tournament_failures(t), "input is not a doubly regular tournament")
    q = t.order
    if q == 3:
        raise BuildRefused("q = 3 is excluded: the coefficient is undefined there")
    sign = 1.0 if branch == "plus" else -1.0
    alpha = (-2.0 / (q - 3)) * ((q - 2) + sign * math.sqrt(q - 2.0))
    out = np.multiply(t.data, alpha)
    out += 1.0
    out.flat[:: q + 1] -= 1.0  # alpha * T + J - I, in the one output array
    c = alpha * alpha * (q + 1) / 4.0 + alpha + 1.0
    return RealMatrix._adopt(out, scale_c=c)


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
    out = np.full((n, n), -(2.0 / n))
    out.flat[:: n + 1] += 1.0  # I - (2/n)J
    return RealMatrix._adopt(out, scale_c=1.0)


def conjugate_permute(m: RealMatrix, perm) -> RealMatrix:
    """Simultaneous row/column permutation P M Pᵀ; preserves
    orthogonality, symmetry class, and the diagonal zero multiset."""
    idx = np.asarray(perm, dtype=np.intp)
    return RealMatrix._adopt(m.data[np.ix_(idx, idx)], scale_c=m.scale_c)


_THETA_EXPONENTS = range(4, 41)
_BLOCK_ENTRIES = 1 << 15  # entries per column block of one batched rotation step


def _rotate_pairs(a: np.ndarray, first, second, scale_c: float) -> None:
    """Right-multiply ``a`` in place by a 2-plane rotation on each column
    pair (first[r], second[r]); no column may be in two pairs.

    Each pair takes the first angle in the schedule 2^-t, t = 4..40, at
    which +θ or -θ leaves every entry of its two columns above
    1e-8 * sqrt(c).  Of the two signs it keeps the one whose columns have
    the larger minimum |entry|, + on a tie: when the plane holds a
    nonzero diagonal entry a_jj, the new one is cos θ·a_jj - sin θ·a_ji,
    and for one sign the two terms can nearly cancel.  A pair's angle
    depends on its own two columns only, so the pairs are rotated
    together, a block of columns at a time, each step of the schedule
    applied to the pairs it has not settled yet.
    """
    floor = 1e-8 * math.sqrt(scale_c)
    first, second = np.asarray(first, dtype=np.intp), np.asarray(second, dtype=np.intp)
    step = max(1, _BLOCK_ENTRIES // len(a))
    for lo in range(0, len(first), step):
        i, j = first[lo : lo + step], second[lo : lo + step]
        col_i, col_j = a[:, i], a[:, j]
        for t in _THETA_EXPONENTS:
            theta = 2.0 ** (-t)
            c, s = math.cos(theta), math.sin(theta)
            pairs = (
                (c * col_i + s * col_j, -s * col_i + c * col_j),  # +θ
                (c * col_i - s * col_j, s * col_i + c * col_j),  # -θ
            )
            margins = [np.minimum(np.abs(u).min(axis=0), np.abs(v).min(axis=0)) for u, v in pairs]
            minus = margins[1] > margins[0]
            done = np.where(minus, margins[1], margins[0]) > floor
            for keep, (u, v) in zip((done & ~minus, done & minus), pairs):
                a[:, i[keep]], a[:, j[keep]] = u[:, keep], v[:, keep]
            i, j, col_i, col_j = i[~done], j[~done], col_i[:, ~done], col_j[:, ~done]
            if not i.size:
                break
        else:
            raise BuildRefused("rotation schedule exhausted; input is pathological")


def reduce_zeros(m: RealMatrix, target_k: int) -> RealMatrix:
    """Reduce the diagonal zero count of an orthogonal matrix to target_k.

    Clears zeros two at a time: rotating two zero-diagonal columns by a
    small angle fills both diagonal entries while the angle threshold
    keeps every other touched entry nonzero.  An odd deficit ends with one
    mixed rotation (one zero and one nonzero diagonal position in the
    plane).  target_k = n-1 is unreachable by rotations and refused.

    With z the zero-diagonal labels in ascending order and P = deficit //
    2, pair r rotates columns (z[2r], z[2r+1]); all P pairs are disjoint
    and rotate in one batch.  The mixed rotation then takes z[2P] with
    z[2P-2] (when P = 0, the first nonzero-diagonal label).  Rows and
    columns keep the input's labels, so the zero-diagonal labels left are
    z[2P + d:], d = deficit mod 2, and every column the rotations do not
    touch is the input's.  The input's declared scale_c sets the angle
    floor and is the output's, which the root check compares with its
    recovered c; only the input's own failures are checked here.  The
    output MR, R a product of plane rotations, has the gram MMᵀ, so the
    root check completes the input's certificate: its residual is at most
    the root's plus the rotations' rounding, against res_tol * c * n.
    """
    if not m.is_square or m.order < 4:
        raise ValueError("zero reduction needs a square input of order >= 4")
    n = m.order
    if target_k < 0:
        raise ValueError(f"target zero count must be >= 0, got {target_k}")

    is_zero = np.abs(np.diag(m.data)) <= zero_tolerance(m)
    j = int(np.sum(is_zero))
    if target_k == n - 1:
        raise BuildRefused("k = n-1 cannot be produced by plane rotations")
    if target_k > j:
        raise BuildRefused(f"input has {j} diagonal zeros, cannot reach {target_k}")

    refusal = f"input is not an order-{n} orthogonal matrix with all {j} zeros on the diagonal"
    _require(input_failures(m, CLAIM_OMPZD), refusal)
    if target_k == j:
        return m

    a = np.array(m.data)
    zeros = np.flatnonzero(is_zero)
    pairs = (j - target_k) // 2
    fronts = zeros[: 2 * pairs].reshape(pairs, 2)
    _rotate_pairs(a, fronts[:, 0], fronts[:, 1], m.scale_c)
    if (j - target_k) % 2:
        partner = fronts[-1, 0] if pairs else np.flatnonzero(~is_zero)[0]
        mixed = [zeros[2 * pairs], partner]
        _rotate_pairs(a, mixed[:1], mixed[1:], m.scale_c)
    return RealMatrix._adopt(a, scale_c=m.scale_c)


# --------------------------------------------------------------------------
# Kronecker product
# --------------------------------------------------------------------------

def kron(a: RealMatrix, b: RealMatrix) -> RealMatrix:
    """Kronecker product; scales multiply when both factors carry one,
    and symmetry of both factors carries over entry-exactly."""
    scale = None
    if a.scale_c is not None and b.scale_c is not None:
        scale = a.scale_c * b.scale_c
    (m, n), (p, q) = a.data.shape, b.data.shape
    out = np.empty((m * p, n * q))
    # entry (i p + k, j q + l) is a_ij b_kl, the product np.kron takes
    np.multiply(a.data[:, None, :, None], b.data[None, :, None, :], out=out.reshape(m, p, n, q))
    return RealMatrix._adopt(out, scale_c=scale)
