"""Construction operations: golden values, exact checks, and error paths."""

import itertools
import math

import mpmath
import numpy as np
import pytest

from omzd import construct, gfield, planner
from omzd.errors import BuildRefused, InvalidQ, NonexistentTarget, OmzdError
from omzd.numerics import RealMatrix, residual_scaled_identity
from omzd.verify import certify, check_drt, check_skew_hadamard

FANO = RealMatrix(
    [
        [0, 1, 1, 0, 1, 0, 0],
        [0, 0, 1, 1, 0, 1, 0],
        [0, 0, 0, 1, 1, 0, 1],
        [1, 0, 0, 0, 1, 1, 0],
        [0, 1, 0, 0, 0, 1, 1],
        [1, 0, 1, 0, 0, 0, 1],
        [1, 1, 0, 1, 0, 0, 0],
    ]
)


# --------------------------------------------------------------------------
# Seed catalog: high-precision independent oracle
# --------------------------------------------------------------------------

def _mp_seed(kind, n, k):
    """Rebuild each catalog matrix with 50-digit arithmetic."""
    one, zero = mpmath.mpf(1), mpmath.mpf(0)
    if (kind, n) == ("omzd", 2):
        return [[zero, one], [one, zero]], 1
    if (kind, n) == ("omzd", 4):
        return [[mpmath.mpf(x) for x in row] for row in construct.seed("omzd", 4).data.tolist()], 3
    if (kind, n) == ("omzd", 6):
        return [[mpmath.mpf(x) for x in row] for row in construct.seed("omzd", 6).data.tolist()], 5
    if (kind, n) == ("omzd", 5):
        a = (-1 + mpmath.sqrt(3)) / 2
        b = (-1 - mpmath.sqrt(3)) / 2
        return [
            [zero, one, one, one, one],
            [one, zero, a, one, b],
            [one, b, zero, a, one],
            [one, one, b, zero, a],
            [one, a, one, b, zero],
        ], 4
    if (kind, n) == ("omzd", 7):
        r6 = mpmath.sqrt(6)
        big_r = mpmath.sqrt(9 + 4 * r6)
        a = -(1 - big_r) / r6 - big_r / 3
        b = -1 + r6 / 2
        c = -(1 + big_r) / r6 + 2 * big_r / 3
        d = -1 / r6 - big_r / 3
        return [
            [zero, one, one, one, one, one, one],
            [one, zero, a, b, c, one, d],
            [one, d, zero, a, b, c, one],
            [one, one, d, zero, a, b, c],
            [one, c, one, d, zero, a, b],
            [one, b, c, one, d, zero, a],
            [one, a, b, c, one, d, zero],
        ], 6
    if (kind, n, k) == ("ompzd", 3, 1):
        s2 = mpmath.sqrt(2)
        return [[one, one, s2], [one, one, -s2], [s2, -s2, zero]], 4
    if (kind, n, k) == ("ompzd", 4, 3):
        a = (-1 + mpmath.sqrt(5)) / 2
        b = (-1 - mpmath.sqrt(5)) / 2
        return [
            [one, one, one, one],
            [one, zero, a, b],
            [one, b, zero, a],
            [one, a, b, zero],
        ], 4
    if (kind, n, k) == ("ompzd", 5, 4):
        r5 = mpmath.sqrt(5)
        b = (-1 - r5) / 2
        disc = mpmath.sqrt((1 - r5) ** 2 + 8)
        f = ((r5 - 1) + disc) / 4
        s = ((r5 - 1) - disc) / 4
        # f and s must solve 2x^2 + (1 - sqrt(5))x - 1 = 0
        for root in (f, s):
            assert abs(2 * root**2 + (1 - r5) * root - 1) < mpmath.mpf("1e-45")
        return [
            [one, one, one, one, one],
            [one, zero, f, b, s],
            [one, s, zero, f, b],
            [one, b, s, zero, f],
            [one, f, b, s, zero],
        ], 5
    raise AssertionError(f"no oracle for {(kind, n, k)}")


class TestSeeds:
    def test_catalog_contents(self):
        keys = construct.seed_catalog_keys()
        assert ("omzd", 2, None) in keys
        assert ("ompzd", 5, 4) in keys
        assert len(keys) == 8

    @pytest.mark.parametrize("kind,n,k", [
        ("omzd", 2, None), ("omzd", 4, None), ("omzd", 5, None),
        ("omzd", 6, None), ("omzd", 7, None),
        ("ompzd", 3, 1), ("ompzd", 4, 3), ("ompzd", 5, 4),
    ])
    def test_high_precision_orthogonality(self, kind, n, k):
        # oracle first: the closed forms satisfy MM^T = cI to 40+ digits,
        # so the float materialization can only carry rounding error
        mpmath.mp.dps = 50
        rows, c = _mp_seed(kind, n, k)
        for i in range(n):
            for j in range(n):
                dot = mpmath.fsum(rows[i][t] * rows[j][t] for t in range(n))
                target = c if i == j else 0
                assert abs(dot - target) < mpmath.mpf("1e-40")

        m = construct.seed(kind, n, k)
        got_c, res = residual_scaled_identity(m)
        assert got_c == pytest.approx(float(c), rel=1e-14)
        assert res <= 1e-12 * float(c)

    @pytest.mark.parametrize("kind,n,k", [
        ("omzd", 2, None), ("omzd", 4, None), ("omzd", 5, None),
        ("omzd", 6, None), ("omzd", 7, None),
        ("ompzd", 3, 1), ("ompzd", 4, 3), ("ompzd", 5, 4),
    ])
    def test_certificates(self, kind, n, k):
        m = construct.seed(kind, n, k)
        cert = certify(m, kind, k=k)
        assert cert.passed, cert.failures

    def test_missing_seed(self):
        # an uncatalogued zero count of a catalogued order (order 3 is a
        # case of test_builder_refusal)
        with pytest.raises(BuildRefused, match=r"no seed for kind='ompzd', n=4, k=2"):
            construct.seed("ompzd", 4, 2)

    def test_determinism(self):
        a = construct.seed("omzd", 7)
        b = construct.seed("omzd", 7)
        assert np.array_equal(a.data, b.data)


# --------------------------------------------------------------------------
# Quadratic-character constructions
# --------------------------------------------------------------------------

class TestPaleyConference:
    def test_q5_core_row(self):
        # squares mod 5 are {1, 4}, so the character row at 0 is [0,1,-1,-1,1]
        c = construct.paley_conference(5)
        assert c.data[1, 1:].tolist() == [0, 1, -1, -1, 1]
        assert np.array_equal(c.data @ c.data.T, 5 * np.eye(6, dtype=np.int64))
        assert np.array_equal(c.data, c.data.T)

    def test_q7_skew_type(self):
        c = construct.paley_conference(7)
        assert np.array_equal(c.data + c.data.T, np.zeros((8, 8), dtype=np.int64))
        assert np.array_equal(c.data @ c.data.T, 7 * np.eye(8, dtype=np.int64))

    def test_q9_extension_field(self):
        c = construct.paley_conference(9)
        assert np.array_equal(c.data, c.data.T)
        assert np.array_equal(c.data @ c.data.T, 9 * np.eye(10, dtype=np.int64))

    def test_same_properties_as_printed_order_6(self):
        # the printed order-6 matrix and the character construction agree
        # on symmetry, pattern, and the exact gram identity (entrywise
        # equality is not asserted: they may differ by an equivalence)
        built = construct.paley_conference(5)
        printed = construct.seed("omzd", 6)
        for m in (built, printed):
            cert = certify(m, "conference")
            assert cert.passed
            assert cert.symmetry == "symmetric"

    def test_invalid_q(self):
        for q in (1, 2, 4, 6, 12, 15):
            with pytest.raises(InvalidQ):
                construct.paley_conference(q)


class TestPaleyTournament:
    def test_q7_is_the_fano_tournament(self):
        t = construct.paley_tournament(7)
        assert np.array_equal(t.data, FANO.data)

    def test_q11(self):
        verdict = check_drt(construct.paley_tournament(11))
        assert verdict.passed
        assert (verdict.k, verdict.lam) == (5, 2)

    def test_row_sums_exact(self):
        for q in (7, 11, 19, 23, 27):
            t = construct.paley_tournament(q)
            assert np.all(t.data.sum(axis=1) == (q - 1) // 2)

    def test_q_1_mod_4_rejected(self):
        with pytest.raises(InvalidQ):
            construct.paley_tournament(5)
        with pytest.raises(InvalidQ):
            construct.paley_tournament(9)


def _reference_core(q):
    """chi(a_j - a_i) over GF(q) from coefficient tuples alone: the
    elements in itertools.product order, the lexicographically first
    monic polynomial that is no product of two monic factors as modulus,
    and the squares by polynomial multiplication and long division."""
    p, k = next((p, k) for p in range(3, q + 1) for k in range(1, 8) if p**k == q)

    def polymul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return out

    def monic(d):
        return [(*low, 1) for low in itertools.product(range(p), repeat=d)]

    factors = {tuple(polymul(a, b)) for d in range(1, k // 2 + 1) for a in monic(d) for b in monic(k - d)}
    modulus = next(m for m in monic(k) if k == 1 or m not in factors)

    def reduce(poly):
        poly = list(poly)
        for top in range(len(poly) - 1, k - 1, -1):
            c = poly[top]
            for j, mj in enumerate(modulus):
                poly[top - k + j] = (poly[top - k + j] - c * mj) % p
        return tuple(poly[:k])

    elems = list(itertools.product(range(p), repeat=k))
    squares = {reduce(polymul(x, x)) for x in elems[1:]}

    def chi(x):
        return 0 if not any(x) else 1 if x in squares else -1

    return np.array(
        [[chi(tuple((y - x) % p for x, y in zip(ai, aj))) for aj in elems] for ai in elems]
    )


class TestCharacterCore:
    @pytest.mark.parametrize(
        "q", [q for q in range(3, 126, 2) if gfield.prime_power_decompose(q)] + [243]
    )
    def test_matches_coefficient_tuple_reference(self, q):
        assert np.array_equal(construct._character_core(q), _reference_core(q))

    def test_no_character_call_per_entry(self, monkeypatch):
        calls = 0
        chi = gfield.chi

        def counting_chi(*args):
            nonlocal calls
            calls += 1
            return chi(*args)

        monkeypatch.setattr(gfield, "chi", counting_chi)
        construct.paley_conference(243)
        construct.paley_tournament(243)
        assert calls <= 243


# --------------------------------------------------------------------------
# Splice constructions
# --------------------------------------------------------------------------

class TestCombine:
    def test_conference6_with_omzd5(self):
        q = construct.combine(construct.seed("omzd", 6), construct.seed("omzd", 5))
        assert q.order == 9
        cert = certify(q, "omzd")
        assert cert.passed
        assert cert.scale_c == pytest.approx(1.0, abs=1e-12)
        # the border products collapse to constant blocks: 1/(2 sqrt 5)
        expected = 1.0 / (2.0 * math.sqrt(5.0))
        assert np.max(np.abs(q.data[:5, 5:] - expected)) <= 1e-12
        assert np.max(np.abs(q.data[5:, :5] - expected)) <= 1e-12

    def test_two_omzd4(self):
        q = construct.combine(construct.seed("omzd", 4), construct.seed("omzd", 4))
        assert q.order == 6
        assert certify(q, "omzd").passed

    def test_unit_scale_residual(self):
        q = construct.combine(construct.seed("omzd", 7), construct.seed("omzd", 6))
        g = q.data @ q.data.T
        assert np.max(np.abs(g - np.eye(11))) <= 1e-10

    def test_order_2_rejected(self):
        # the core of an order-2 input is the 1x1 zero matrix, which would
        # land a zero off the diagonal of the output
        with pytest.raises(ValueError):
            construct.combine(construct.seed("omzd", 2), construct.seed("omzd", 5))


class TestOmpzdNMinus1:
    @pytest.mark.parametrize("n", [6, 7, 8, 9, 12])
    def test_splice_route(self, n):
        omzd, _ = planner.execute(planner.plan("omzd", n - 2))
        m = construct.ompzd_n_minus_1(omzd)
        cert = certify(m, "ompzd", k=n - 1)
        assert cert.passed, cert.failures

    def test_small_orders_routed(self):
        # orders below 6 never reach the splice: the planner takes them
        # from the catalog, and OMPZD(1, 0) is the nowhere-zero [1]
        assert planner.serialize_plan(planner.plan("ompzd", 4, 3)) == "Seed(ompzd,4,3)"
        assert planner.serialize_plan(planner.plan("ompzd", 5, 4)) == "Seed(ompzd,5,4)"
        assert planner.execute(planner.plan("ompzd", 1, 0))[0].data.tolist() == [[1.0]]

    def test_nonexistent(self):
        for n in (2, 3):
            with pytest.raises(NonexistentTarget):
                planner.plan("ompzd", n, n - 1)


# --------------------------------------------------------------------------
# Symmetric construction
# --------------------------------------------------------------------------

class TestSymmetricOmzd:
    def test_n8_golden_values(self):
        m = construct.symmetric_omzd(8)
        alpha = math.sqrt(15.0)
        beta = (math.sqrt(7.0) - math.sqrt(15.0)) / 4.0
        assert abs(m.data[0, 4] - (alpha + beta)) <= 1e-12
        assert abs(m.data[0, 5] - beta) <= 1e-12
        assert m.data[0, 1] == 1.0 and m.data[4, 5] == -1.0
        assert certify(m, "symmetric-omzd").passed

    def test_n6(self):
        m = construct.symmetric_omzd(6)
        cert = certify(m, "symmetric-omzd")
        assert cert.passed
        assert cert.scale_c == pytest.approx(9.0, rel=1e-12)
        beta = (-math.sqrt(8.0) + math.sqrt(5.0)) / 3.0
        assert abs(m.data[0, 4] - beta) <= 1e-12

    def test_exact_symmetry(self):
        for n in (6, 8, 30, 100):
            m = construct.symmetric_omzd(n)
            assert np.array_equal(m.data, m.data.T)

    def test_gram_residual_bound(self):
        for n in (6, 20, 64):
            m = construct.symmetric_omzd(n)
            _, res = residual_scaled_identity(m)
            assert res <= 1e-10 * (n / 2) ** 2

    def test_n2_routes_to_seed(self):
        assert construct.symmetric_omzd(2).data.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_rejections(self):
        # orders 4 and 5 are cases of test_builder_refusal
        for n in (3, 7):
            with pytest.raises(BuildRefused, match=f"exists only for even n, got {n}"):
                construct.symmetric_omzd(n)


# --------------------------------------------------------------------------
# Tournament route
# --------------------------------------------------------------------------

def _drt3() -> RealMatrix:
    return RealMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])


class TestSkewHadamardRoute:
    def test_fano_border(self):
        h = construct.drt_to_skew_hadamard(FANO)
        assert check_skew_hadamard(h).passed
        assert h.order == 8

    def test_q11(self):
        h = construct.drt_to_skew_hadamard(construct.paley_tournament(11))
        assert check_skew_hadamard(h).passed


class TestDoubleDrt:
    def test_chain(self):
        t15 = construct.double_drt(FANO)
        v15 = check_drt(t15)
        assert v15.passed and (v15.k, v15.lam) == (7, 3)
        t31 = construct.double_drt(t15)
        v31 = check_drt(t31)
        assert v31.passed and (v31.k, v31.lam) == (15, 7)

    def test_drt3_doubles(self):
        assert check_drt(construct.double_drt(_drt3())).passed

    def test_not_drt(self):
        with pytest.raises(BuildRefused, match="not a doubly regular tournament"):
            construct.double_drt(RealMatrix(np.zeros((4, 4), dtype=np.int64)))


class TestOmzdFromDrt:
    def test_fano_minus_branch_golden(self):
        m = construct.omzd_from_drt(FANO, "minus")
        alpha = -(5.0 - math.sqrt(5.0)) / 2.0
        c_expected = (27.0 - 9.0 * math.sqrt(5.0)) / 2.0
        # off-diagonal entries are 1 or alpha + 1
        assert abs(m.data[0, 1] - (alpha + 1.0)) <= 1e-12
        assert m.data[0, 3] == 1.0
        cert = certify(m, "omzd")
        assert cert.passed
        assert abs(cert.scale_c - c_expected) <= 1e-12
        assert abs(m.scale_c - c_expected) <= 1e-12

    def test_fano_plus_branch(self):
        m = construct.omzd_from_drt(FANO, "plus")
        assert certify(m, "omzd").passed

    @pytest.mark.parametrize("q", [7, 11, 19, 23, 27])
    def test_scale_identity(self, q):
        # the recovered scale matches alpha^2 (q+1)/4 + alpha + 1
        m = construct.omzd_from_drt(construct.paley_tournament(q))
        alpha = (-2.0 / (q - 3)) * ((q - 2) - math.sqrt(q - 2.0))
        c, _ = residual_scaled_identity(m)
        assert abs(c - (alpha * alpha * (q + 1) / 4.0 + alpha + 1.0)) <= 1e-9 * c

    def test_doubled_realizes_higher_orders(self):
        t15 = construct.double_drt(FANO)
        assert certify(construct.omzd_from_drt(t15), "omzd").passed

    def test_not_drt(self):
        with pytest.raises(BuildRefused, match="not a doubly regular tournament"):
            construct.omzd_from_drt(RealMatrix(np.eye(7, dtype=np.int64)))

    def test_bad_branch(self):
        with pytest.raises(ValueError):
            construct.omzd_from_drt(FANO, "both")


# --------------------------------------------------------------------------
# Nowhere-zero matrices and zero-count reduction
# --------------------------------------------------------------------------

class TestNowhereZero:
    def test_n3(self):
        m = construct.nowhere_zero_orthogonal(3)
        assert np.allclose(np.diag(m.data), 1.0 / 3.0)
        off = m.data[~np.eye(3, dtype=bool)]
        assert np.allclose(off, -2.0 / 3.0)
        assert certify(m, "nowhere-zero").passed

    def test_n1(self):
        assert construct.nowhere_zero_orthogonal(1).data.tolist() == [[1.0]]

    def test_n4_gram_is_identity(self):
        m = construct.nowhere_zero_orthogonal(4)
        assert np.allclose(m.data @ m.data.T, np.eye(4), atol=1e-15)

    @pytest.mark.parametrize("n", [2, 5, 9, 16])
    def test_certified(self, n):
        assert certify(construct.nowhere_zero_orthogonal(n), "nowhere-zero").passed

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            construct.nowhere_zero_orthogonal(0)


class TestReduceZeros:
    def test_omzd4_chain(self):
        m42 = construct.reduce_zeros(construct.seed("omzd", 4), 2)
        assert certify(m42, "ompzd", k=2).passed
        m40 = construct.reduce_zeros(m42, 0)
        assert certify(m40, "ompzd", k=0).passed

    def test_omzd5_to_3(self):
        m = construct.reduce_zeros(construct.seed("omzd", 5), 3)
        assert certify(m, "ompzd", k=3).passed

    def test_odd_deficit_uses_mixed_plane(self):
        m = construct.reduce_zeros(construct.seed("omzd", 5), 2)
        assert certify(m, "ompzd", k=2).passed

    def test_residual_stays_small(self):
        m = construct.reduce_zeros(construct.seed("omzd", 6), 0)
        c, res = residual_scaled_identity(m)
        assert res <= 1e-11 * c

    def test_noop_when_target_met(self):
        m = construct.reduce_zeros(construct.seed("omzd", 6), 4)
        again = construct.reduce_zeros(m, 4)
        assert np.array_equal(m.data, again.data)

    def test_determinism(self):
        a = construct.reduce_zeros(construct.seed("omzd", 7), 1)
        b = construct.reduce_zeros(construct.seed("omzd", 7), 1)
        assert np.array_equal(a.data, b.data)

    def test_mixed_step_takes_minus_theta(self):
        # column 0 has the zero diagonal entry and a_11 = tan(θ)·a_10 at the
        # first angle θ = 1/16: +θ would make the new diagonal entry
        # cos θ·a_11 - sin θ·a_10 vanish, -θ doubles it
        theta = 2.0**-4
        a = np.array([[0.0, 1.0, 1.0], [1.0, math.tan(theta), 1.0], [1.0, 1.0, 0.5]])
        before = a.copy()
        construct._rotate_pair(a, 0, 1, 1.0)
        c, s = math.cos(theta), -math.sin(theta)
        assert np.array_equal(a[:, 0], c * before[:, 0] + s * before[:, 1])
        assert np.array_equal(a[:, 1], -s * before[:, 0] + c * before[:, 1])
        assert a[1, 1] > 0.1

    def test_mixed_step_keeps_margin(self):
        # an odd deficit ends on a mixed plane; with +θ only, the new
        # diagonal entry of OMPZD(50, 3) came out at 5e-6 of max|entry|
        m = construct.reduce_zeros(construct.symmetric_omzd(50), 3)
        assert _required_nonzero_margin(m) >= 1e-5

    @pytest.mark.parametrize("n,k", [(11, 6), (50, 3), (201, 100), (1201, 600)])
    def test_in_place_matches_copying_reduction(self, n, k):
        m = _auto_route_omzd(n)
        out = construct.reduce_zeros(m, k)
        ref = _reduce_zeros_copying(m, k, construct._rotate_pair)
        assert out.data.tobytes() == (ref + 0.0).tobytes()

    @pytest.mark.parametrize("n,k", [(12, 4), (50, 2), (130, 64)])
    def test_even_deficit_keeps_plus_theta(self, n, k):
        # on a plane of two zero diagonal entries the smallest touched
        # entries are sin θ times its off-diagonal pair for either sign, so
        # ±θ tie and these outputs are the ones the +θ-only schedule gave
        m = construct.symmetric_omzd(n)
        out = construct.reduce_zeros(m, k)
        ref = _reduce_zeros_copying(m, k, _rotate_plus_theta_only)
        assert out.data.tobytes() == (ref + 0.0).tobytes()


def _auto_route_omzd(n: int) -> RealMatrix:
    """OMZD(n) as the planner's auto route builds it for these orders."""
    if n % 2 == 0:
        return construct.symmetric_omzd(n)
    return construct.combine(construct.symmetric_omzd(n - 3), construct.seed("omzd", 5))


def _required_nonzero_margin(m: RealMatrix) -> float:
    """min |entry| over the off-diagonal and nonzero diagonal entries, over max|entry|."""
    a = np.abs(m.data)
    diag = np.diag(a)
    required = np.concatenate((a[~np.eye(len(a), dtype=bool)], diag[diag > 1e-12 * a.max()]))
    return float(required.min() / a.max())


def _rotate_plus_theta_only(a, i, j, scale_c):
    """The rotation schedule without the sign choice: the first +2^-t that
    keeps both touched columns above 1e-8 * sqrt(c)."""
    floor = 1e-8 * math.sqrt(scale_c)
    col_i, col_j = a[:, i].copy(), a[:, j].copy()
    for t in range(4, 41):
        theta = 2.0**-t
        c, s = math.cos(theta), math.sin(theta)
        new_i, new_j = c * col_i + s * col_j, -s * col_i + c * col_j
        if min(np.min(np.abs(new_i)), np.min(np.abs(new_j))) > floor:
            a[:, i], a[:, j] = new_i, new_j
            return
    raise AssertionError("schedule exhausted")


def _reduce_zeros_copying(m: RealMatrix, target_k: int, rotate) -> np.ndarray:
    """Reference zero reduction that permutes the whole matrix on every
    step, moving the chosen pair to columns 0 and 1 before rotating them."""
    n = m.order
    zero_tol = 1e-12 * m.max_abs()
    c, _ = residual_scaled_identity(m)
    a = np.array(m.data)
    while True:
        diag = np.abs(np.diag(a))
        zero_pos = [i for i in range(n) if diag[i] <= zero_tol]
        deficit = len(zero_pos) - target_k
        if deficit == 0:
            return a
        if deficit >= 2:
            front = zero_pos[:2]
        else:
            front = [zero_pos[0], next(i for i in range(n) if diag[i] > zero_tol)]
        perm = front + [i for i in range(n) if i not in front]
        a = a[np.ix_(perm, perm)]
        rotate(a, 0, 1, c)


# --------------------------------------------------------------------------
# Kronecker products
# --------------------------------------------------------------------------

class TestKron:
    def test_identities(self):
        out = construct.kron(RealMatrix(np.eye(2)), RealMatrix(np.eye(3)))
        assert np.array_equal(out.data, np.eye(6))

    def test_with_scalar_one(self):
        out = construct.kron(RealMatrix([[0, 1], [1, 0]]), RealMatrix([[1.0]]))
        assert out.data.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_multipartite_block_structure(self):
        # symmetric OMZD(6) x (I - (2/3)J): order 18, zero 3x3 diagonal
        # blocks, orthogonal with c = 9, symmetric
        a = construct.symmetric_omzd(6)
        b = construct.nowhere_zero_orthogonal(3)
        out = construct.kron(a, b)
        assert out.order == 18
        assert out.scale_c == pytest.approx(9.0)
        c, res = residual_scaled_identity(out)
        assert c == pytest.approx(9.0, rel=1e-12)
        assert res <= 1e-9 * c * 18
        assert np.array_equal(out.data, out.data.T)
        for i in range(6):
            block = out.data[3 * i : 3 * i + 3, 3 * i : 3 * i + 3]
            assert np.all(block == 0.0)

    def test_scale_propagation(self):
        a = construct.seed("omzd", 4)
        b = construct.nowhere_zero_orthogonal(2)
        assert construct.kron(a, b).scale_c == pytest.approx(6.0)
        assert construct.kron(a, RealMatrix(np.eye(2))).scale_c is None


# --------------------------------------------------------------------------
# Builder refusals
# --------------------------------------------------------------------------

# Each builder's own refusal, one case per check, with its message.  The
# planner refuses every such request before a builder sees it.
BUILDER_REFUSALS = {
    "no-seed": (lambda: construct.seed("omzd", 3), r"no seed for kind='omzd', n=3, k=None"),
    "not-omzd": (
        lambda: construct.combine(RealMatrix(np.eye(4)), construct.seed("omzd", 5)),
        r"first input failed OMZD certification: ",
    ),
    "odd-order": (
        lambda: construct.symmetric_omzd(5),
        r"a symmetric OMZD\(n\) exists only for even n, got 5",
    ),
    "order-four": (lambda: construct.symmetric_omzd(4), r"^no symmetric OMZD\(4\) exists$"),
    "not-drt": (
        lambda: construct.drt_to_skew_hadamard(RealMatrix(np.ones((3, 3)) - np.eye(3))),
        r"input is not a doubly regular tournament: ",
    ),
    "order-three": (
        lambda: construct.omzd_from_drt(_drt3()),
        r"^q = 3 is excluded: the coefficient is undefined there$",
    ),
    "target-too-high": (
        lambda: construct.reduce_zeros(construct.reduce_zeros(construct.seed("omzd", 6), 2), 4),
        r"^input has 2 diagonal zeros, cannot reach 4$",
    ),
    "not-orthogonal": (
        lambda: construct.reduce_zeros(RealMatrix(np.ones((4, 4))), 0),
        r"^input is not an order-4 orthogonal matrix with all 0 zeros on the diagonal: ",
    ),
    "target-above-reach": (
        lambda: construct.reduce_zeros(construct.seed("omzd", 6), 5),
        r"^k = n-1 cannot be produced by plane rotations$",
    ),
    # no angle helps when the two rotated columns share a zero row
    "no-theta": (
        lambda: construct._rotate_pair(np.zeros((4, 4)), 0, 1, 1.0),
        r"^rotation schedule exhausted; input is pathological$",
    ),
}


@pytest.mark.parametrize("case", BUILDER_REFUSALS)
def test_builder_refusal(case):
    build, message = BUILDER_REFUSALS[case]
    with pytest.raises(BuildRefused, match=message) as info:
        build()
    assert isinstance(info.value, OmzdError)
