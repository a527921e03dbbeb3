"""Certification: pattern, orthogonality, symmetry, tournament axioms."""

import numpy as np
import pytest

from omzd import construct
from omzd.errors import ShapeMismatch
from omzd.numerics import RealMatrix
from omzd.verify import IntMatrix, certify, check_drt, check_skew_hadamard

FANO = np.array(
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


class TestCertify:
    def test_order_4_conference(self):
        cert = certify(construct.seed("omzd", 4), "conference")
        assert cert.passed
        assert cert.scale_c == 3.0
        assert cert.max_residual == 0.0
        # the printed matrix satisfies C = -C^T entry for entry
        assert cert.symmetry == "skew"

    def test_omzd7_seed(self):
        cert = certify(construct.seed("omzd", 7), "omzd")
        assert cert.passed
        assert cert.scale_c == pytest.approx(6.0, abs=1e-12)

    def test_identity_fails_omzd(self):
        cert = certify(RealMatrix(np.eye(4)), "omzd")
        assert not cert.passed
        assert any("diagonal entries are nonzero" in f for f in cert.failures)
        assert any("off-diagonal zeros" in f for f in cert.failures)

    def test_full_diagnostic_is_returned(self):
        cert = certify(RealMatrix(np.eye(4)), "omzd")
        assert cert.scale_c == 1.0
        assert cert.max_residual == 0.0
        assert cert.symmetry == "symmetric"

    def test_ompzd_counts_zeros(self):
        m = construct.seed("ompzd", 4, 3)
        assert certify(m, "ompzd", k=3).passed
        bad = certify(m, "ompzd", k=2)
        assert not bad.passed
        assert any("expected exactly 2" in f for f in bad.failures)

    def test_ompzd_requires_k(self):
        with pytest.raises(ValueError):
            certify(construct.seed("ompzd", 4, 3), "ompzd")

    def test_symmetric_claim_rejects_skew(self):
        cert = certify(construct.seed("omzd", 4), "symmetric-omzd")
        assert not cert.passed
        assert any("not symmetric" in f for f in cert.failures)

    def test_nowhere_zero(self):
        assert certify(construct.nowhere_zero_orthogonal(5), "nowhere-zero").passed
        cert = certify(construct.seed("omzd", 4), "nowhere-zero")
        assert not cert.passed

    def test_conference_rejects_non_integral(self):
        cert = certify(construct.seed("omzd", 5), "conference")
        assert not cert.passed
        assert any("not integral" in f for f in cert.failures)

    def test_non_square_raises(self):
        with pytest.raises(ShapeMismatch):
            certify(RealMatrix([[1.0, 2.0]]), "omzd")

    def test_unknown_claim(self):
        with pytest.raises(ValueError):
            certify(RealMatrix(np.eye(2)), "unitary")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("claim", ["omzd", "orthogonal", "conference"])
    def test_overflowing_gram_fails(self, claim):
        # the gram of 1e200·(J - I) overflows: c = inf, residual NaN
        cert = certify(RealMatrix(1e200 * (np.ones((3, 3)) - np.eye(3))), claim)
        assert not cert.passed
        assert any("not positive and finite" in f for f in cert.failures)

    def test_nan_residual_fails(self):
        # a NaN residual with a finite scale must fail the comparison
        m = RealMatrix([[0.0, 1.0], [1.0, 0.0]])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("omzd.verify.residual_scaled_identity", lambda _m: (1.0, float("nan")))
            cert = certify(m, "omzd")
        assert not cert.passed
        assert any("max residual nan" in f for f in cert.failures)

    def test_res_tol_monotonicity(self):
        # loosening res_tol never flips a passed certificate to failed
        near = np.eye(5) + 1e-8
        np.fill_diagonal(near, 0.0)
        m = RealMatrix(near + construct.seed("omzd", 5).data)
        tols = [1e-12, 1e-10, 1e-8, 1e-6, 1e-4]
        results = [certify(m, "omzd", res_tol=t).passed for t in tols]
        for earlier, later in zip(results, results[1:]):
            assert later >= earlier

    def test_exactness_on_integer_inputs(self):
        # integer-backed claims are tolerance-free: a single flipped sign
        # must fail no matter how loose the tolerance
        bad = np.array(construct.seed("omzd", 6).data)
        bad[0, 1] = -bad[0, 1]
        cert = certify(RealMatrix(bad), "conference", res_tol=1e6)
        assert not cert.passed


class TestCheckDrt:
    def test_fano(self):
        verdict = check_drt(IntMatrix(FANO))
        assert verdict.passed
        assert (verdict.q, verdict.k, verdict.lam) == (7, 3, 1)

    def test_j_minus_i_is_not_an_orientation(self):
        j_minus_i = np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64)
        verdict = check_drt(IntMatrix(j_minus_i))
        assert not verdict.passed
        assert any("orientation" in f for f in verdict.failures)

    def test_doubled_fano(self):
        t15 = construct.double_drt(IntMatrix(FANO))
        verdict = check_drt(t15)
        assert verdict.passed
        assert (verdict.q, verdict.k, verdict.lam) == (15, 7, 3)

    def test_rejects_bad_entries(self):
        verdict = check_drt(IntMatrix(2 * FANO))
        assert not verdict.passed
        assert any("{0, 1}" in f for f in verdict.failures)

    def test_rejects_wrong_congruence(self):
        # the cyclic orientation of C_5 is a regular tournament but 5 != 3 mod 4
        a = np.zeros((5, 5), dtype=np.int64)
        for i in range(5):
            a[i, (i + 1) % 5] = 1
            a[i, (i + 2) % 5] = 1
        verdict = check_drt(IntMatrix(a))
        assert not verdict.passed


class TestCheckSkewHadamard:
    def test_order_2(self):
        assert check_skew_hadamard(IntMatrix([[1, 1], [-1, 1]])).passed

    def test_bordered_fano(self):
        h = construct.drt_to_skew_hadamard(IntMatrix(FANO))
        verdict = check_skew_hadamard(h)
        assert verdict.passed
        assert verdict.order == 8

    def test_all_ones_fails(self):
        verdict = check_skew_hadamard(IntMatrix([[1, 1], [1, 1]]))
        assert not verdict.passed
        assert any("H + H^T" in f for f in verdict.failures)

    def test_wrong_entries_fail(self):
        verdict = check_skew_hadamard(IntMatrix([[1, 0], [0, 1]]))
        assert not verdict.passed


class TestSymmetricOmzdParity:
    def test_no_constructed_omzd_is_odd_and_symmetric(self):
        # a passed odd-order certificate can never report symmetric:
        # trace zero forces equal +-sqrt(c) multiplicities
        mats = [construct.seed("omzd", n) for n in (2, 4, 5, 6, 7)]
        mats += [construct.symmetric_omzd(n) for n in (6, 8, 10)]
        mats += [construct.combine(construct.seed("omzd", 6), construct.seed("omzd", 5))]
        mats += [construct.omzd_from_drt(IntMatrix(FANO))]
        for m in mats:
            cert = certify(m, "omzd")
            if cert.passed and m.order % 2 == 1:
                assert cert.symmetry != "symmetric"
