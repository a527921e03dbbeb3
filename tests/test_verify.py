"""Certification: pattern, orthogonality, symmetry, tournament axioms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omzd import construct, graphs, planner
from omzd.errors import BuildRefused, ShapeMismatch
from omzd.numerics import RealMatrix
from omzd.verify import (
    CLAIMS,
    certify,
    certify_graph,
    check_drt,
    check_skew_hadamard,
    input_failures,
    zero_tolerance,
)

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

    @pytest.mark.parametrize("k", [True, -1, 1.5])
    def test_ompzd_k_must_be_a_count(self, k):
        # without k the diagonal's zero count is the claim (TestClaimTable)
        with pytest.raises(ValueError, match=f"^claim 'ompzd' needs a non-negative integer zero count k, got {k!r}$"):
            certify(construct.seed("ompzd", 4, 3), "ompzd", k=k)

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
        assert "entries are not all 0 or +-1; exact check impossible" in cert.failures

    def test_non_square_raises(self):
        with pytest.raises(ShapeMismatch):
            certify(RealMatrix([[1.0, 2.0]]), "omzd")

    def test_unknown_claim(self):
        with pytest.raises(ValueError):
            certify(RealMatrix(np.eye(2)), "unitary")

    @pytest.mark.parametrize("claim", ["omzd", "orthogonal", "conference"])
    def test_overflowing_gram_fails(self, claim):
        # the gram of 1e200·(J - I) overflows: c = inf, residual NaN, and
        # numpy prints no warning
        cert = certify(RealMatrix(1e200 * (np.ones((3, 3)) - np.eye(3))), claim)
        assert not cert.passed
        assert any("not positive and finite" in f for f in cert.failures)

    def test_nan_residual_fails(self):
        # a NaN residual with a finite scale must fail the comparison
        m = RealMatrix([[0.0, 1.0], [1.0, 0.0]])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("omzd.verify.residual_scaled_identity", lambda _m, **_: (1.0, float("nan")))
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
        # fails, and either tolerance, which could only loosen the check, is
        # refused; a zero_tol of 5 would call the nonzero diagonal of the
        # order-1 [[1]] zero, and pass it
        bad = np.array(construct.seed("omzd", 6).data)
        bad[0, 1] = -bad[0, 1]
        assert not certify(RealMatrix(bad), "conference").passed
        with pytest.raises(ValueError, match=r"^claim 'conference' takes no res_tol$"):
            certify(RealMatrix(bad), "conference", res_tol=1e6)
        one = RealMatrix([[1.0]])
        assert not certify(one, "conference").passed
        with pytest.raises(ValueError, match=r"^claim 'conference' takes no zero_tol$"):
            certify(one, "conference", zero_tol=5.0)


class TestCertifyGraph:
    def test_witness_passes(self):
        spec = graphs.Gnk(4, 2)
        cert = certify_graph(graphs.q2_certificate(spec).matrix, spec.graph())
        assert cert.passed and cert.symmetry == "symmetric" and cert.scale_c > 0

    def test_rejects_asymmetric(self):
        # the skew conference matrix has the K_4 pattern but is not symmetric
        cert = certify_graph(construct.seed("omzd", 4), ~np.eye(4, dtype=bool))
        assert cert.failures == ("matrix is skew, not symmetric",)

    def test_rejects_non_involution(self):
        cert = certify_graph(RealMatrix(np.diag([1.0, 2.0])), np.zeros((2, 2), dtype=bool))
        # the gram diag(1, 4) has mean diagonal c = 2.5
        assert cert.failures == ("max residual 1.500e+00 exceeds 1.0e-09 * c * n = 5.000e-09",)

    def test_diagonal_is_free(self):
        empty = np.zeros((3, 3), dtype=bool)
        assert certify_graph(RealMatrix(np.eye(3)), empty).passed
        assert certify_graph(RealMatrix(np.diag([1.0, -1.0, 1.0])), empty).passed

    def test_order_mismatch_raises(self):
        with pytest.raises(ShapeMismatch):
            certify_graph(RealMatrix(np.eye(3)), np.zeros((4, 4), dtype=bool))


class TestCheckDrt:
    def test_fano(self):
        verdict = check_drt(RealMatrix(FANO))
        assert verdict.passed and verdict.claim == "DRT(7)"
        assert np.array_equal(FANO @ FANO.T, (3 - 1) * np.eye(7, dtype=np.int64) + 1)  # k = 3, lambda = 1

    def test_j_minus_i_is_not_an_orientation(self):
        j_minus_i = np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64)
        verdict = check_drt(RealMatrix(j_minus_i))
        assert not verdict.passed
        assert any("orientation" in f for f in verdict.failures)

    def test_doubled_fano(self):
        t15 = construct.double_drt(RealMatrix(FANO))
        verdict = check_drt(t15)
        assert verdict.passed and verdict.claim == "DRT(15)"
        a = t15.data.astype(np.int64)
        assert np.array_equal(a @ a.T, (7 - 3) * np.eye(15, dtype=np.int64) + 3)  # k = 7, lambda = 3

    def test_rejects_bad_entries(self):
        # 2 * Fano has entries {0, 2}, T + Tᵀ = 2(J - I) and an H with +-2
        # off its diagonal: every failure is reported, none stops the check
        verdict = check_drt(RealMatrix(2 * FANO))
        assert verdict.failures == (
            "entries are not all in {0, 1}",
            "not an orientation of the complete graph: T + T^T != J - I",
            "entries are not all 0 or +-1; exact check impossible",
            "gram deviates from cI by 15.75 (exact check)",
        )

    @pytest.mark.parametrize(
        "t",
        [np.full((7, 7), 1e308), np.triu(np.full((7, 7), 1e308), 1) - np.tril(np.full((7, 7), 1e308), -1)],
        ids=["sum-overflows", "difference-overflows"],
    )
    def test_overflowing_entries_fail_without_a_warning(self, t):
        # T + Tᵀ overflows for the first, T - Tᵀ for the second; pytest makes
        # a numpy RuntimeWarning an error
        verdict = check_drt(RealMatrix(t))
        assert not verdict.passed
        assert verdict.failures[:2] == (
            "entries are not all in {0, 1}",
            "not an orientation of the complete graph: T + T^T != J - I",
        )

    def test_an_infinite_entry_leaves_the_zero_rule_finite(self):
        # a_ij = 1e308 and a_ji = -1e308: H holds inf off its diagonal and 1
        # on it, and the zero rule, taken from the largest finite |entry|,
        # calls none of them zero; the failures are T's own and the gram's
        t = np.triu(np.full((7, 7), 1e308), 1) - np.tril(np.full((7, 7), 1e308), -1)
        assert check_drt(RealMatrix(t)).failures == (
            "entries are not all in {0, 1}",
            "not an orientation of the complete graph: T + T^T != J - I",
            "entries are not all 0 or +-1; exact check impossible",
            "recovered scale inf is not positive and finite",
        )

    def test_rejects_wrong_congruence(self):
        # the cyclic orientation of C_5 is a regular tournament but 5 != 3 mod 4
        a = np.zeros((5, 5), dtype=np.int64)
        for i in range(5):
            a[i, (i + 1) % 5] = 1
            a[i, (i + 2) % 5] = 1
        verdict = check_drt(RealMatrix(a))
        assert not verdict.passed


class TestCheckSkewHadamard:
    def test_order_2(self):
        assert check_skew_hadamard(RealMatrix([[1, 1], [-1, 1]])).passed

    def test_bordered_fano(self):
        h = construct.drt_to_skew_hadamard(RealMatrix(FANO))
        verdict = check_skew_hadamard(h)
        assert verdict.passed
        assert verdict.claim == "SkewHadamard(8)"

    def test_all_ones_fails(self):
        verdict = check_skew_hadamard(RealMatrix([[1, 1], [1, 1]]))
        assert not verdict.passed
        assert any("H + H^T" in f for f in verdict.failures)

    def test_wrong_entries_fail(self):
        verdict = check_skew_hadamard(RealMatrix([[1, 0], [0, 1]]))
        assert not verdict.passed

    def test_sylvester_order_2_is_hadamard_but_not_skew(self):
        verdict = check_skew_hadamard(RealMatrix([[1, 1], [1, -1]]))
        assert verdict.failures == ("H + H^T != 2I",)
        assert (verdict.scale_c, verdict.max_residual, verdict.symmetry) == (2.0, 0.0, "symmetric")

    def test_order_1(self):
        assert check_skew_hadamard(RealMatrix([[1]])).passed
        assert check_skew_hadamard(RealMatrix([[-1]])).failures == ("H + H^T != 2I",)


class TestSymmetricOmzdParity:
    def test_no_constructed_omzd_is_odd_and_symmetric(self):
        # a passed odd-order certificate can never report symmetric:
        # trace zero forces equal +-sqrt(c) multiplicities
        mats = [construct.seed("omzd", n) for n in (2, 4, 5, 6, 7)]
        mats += [construct.symmetric_omzd(n) for n in (6, 8, 10)]
        mats += [construct.combine(construct.seed("omzd", 6), construct.seed("omzd", 5))]
        mats += [construct.omzd_from_drt(RealMatrix(FANO))]
        for m in mats:
            cert = certify(m, "omzd")
            if cert.passed and m.order % 2 == 1:
                assert cert.symmetry != "symmetric"


class TestClaimTable:
    def test_names_are_the_gen_kinds_and_verify_claims(self):
        from omzd import cli

        assert set(cli.GEN_KINDS) < set(CLAIMS)
        assert set(CLAIMS) - set(cli.GEN_KINDS) == {"nowhere-zero", "orthogonal"}
        # the verify --claim choices, in their order
        assert CLAIMS == (
            "omzd", "symmetric-omzd", "ompzd", "conference", "skew-hadamard",
            "drt", "nowhere-zero", "multipartite", "orthogonal",
        )

    def test_unknown_claim(self):
        with pytest.raises(ValueError, match="unknown claim"):
            certify(RealMatrix(np.eye(2)), "hadamard")

    def test_ompzd_zero_count_is_nowhere_zero(self):
        m = construct.nowhere_zero_orthogonal(5)
        assert certify(m, "ompzd", k=0).claim == "NowhereZeroOrthogonal"
        assert certify(construct.seed("omzd", 6), "ompzd", k=6).claim == "OMPZD(6)"

    def test_ompzd_without_k_reads_the_diagonal(self):
        m = construct.reduce_zeros(construct.seed("omzd", 6), 2)
        cert = certify(m, "ompzd")
        assert cert.passed and cert.claim == "OMPZD(2)"
        assert cert == certify(m, "ompzd", k=2)

    # claim -> the failures of a half-integer entry, each reported in full
    _NOT_INTEGRAL = {
        "drt": (
            "entries are not all in {0, 1}",
            "not an orientation of the complete graph: T + T^T != J - I",
            "entries are not all 0 or +-1; exact check impossible",
            "gram deviates from cI by 0.9375 (exact check)",
        ),
        "skew-hadamard": (
            "H + H^T != 2I",
            "entries are not all 0 or +-1; exact check impossible",
            "gram deviates from cI by 1.09375 (exact check)",
        ),
    }

    @pytest.mark.parametrize("claim", ["drt", "skew-hadamard"])
    def test_integer_claims_check_integrality(self, claim):
        a = FANO if claim == "drt" else construct.drt_to_skew_hadamard(RealMatrix(FANO)).data
        good = certify(RealMatrix(a.astype(float)), claim)
        assert good.passed
        tampered = a.astype(float)
        tampered[0, 1] += 0.5
        bad = certify(RealMatrix(tampered), claim)
        assert not bad.passed and bad.failures == self._NOT_INTEGRAL[claim]
        assert bad.report()["passed"] is False

    def test_multipartite_needs_integer_parameters(self):
        w = construct.kron(construct.symmetric_omzd(6), construct.nowhere_zero_orthogonal(2))
        assert certify(w, "multipartite", part_size=2, parts=6).passed
        with pytest.raises(ValueError, match="part size n and part count m"):
            certify(w, "multipartite", part_size=2)

    def test_summaries_of_exact_checks(self):
        drt = certify(RealMatrix(FANO.astype(float)), "drt")
        assert drt.summary() == {  # the summary of the bordered skew-Hadamard matrix
            "claim": "DRT(7)",
            "passed": True,
            "max_residual": 0.0,
            "min_offdiag_magnitude": 1.0,
            "symmetry": "neither",
        }
        h = check_skew_hadamard(construct.drt_to_skew_hadamard(RealMatrix(FANO)))
        assert h.summary() == {
            "claim": "SkewHadamard(8)",
            "passed": True,
            "max_residual": 0.0,
            "min_offdiag_magnitude": 1.0,
            "symmetry": "neither",
        }

    def test_builders_carry_the_integer_scales(self):
        # the scale of an integer root comes from its builder, not its verdict
        skew, _ = planner.execute(planner.plan("skew-hadamard", q=7))
        conference, _ = planner.execute(planner.plan("conference", q=27))
        drt, _ = planner.execute(planner.plan("drt", q=7))
        assert (skew.scale_c, conference.scale_c, drt.scale_c) == (8.0, 27.0, None)


def _flip_arc(t: np.ndarray) -> np.ndarray:
    """A copy of a tournament with the arcs between 0 and 1 reversed."""
    out = t.copy()
    out[0, 1], out[1, 0] = out[1, 0], out[0, 1]
    return out


def _drt_reference(a: np.ndarray) -> bool:
    """The DRT axioms, in int64 for an integer ``a``, independent of check_drt."""
    q = a.shape[0]
    eye = np.eye(q, dtype=np.int64)
    j_minus_i = np.ones((q, q), dtype=np.int64) - eye
    return (
        q % 4 == 3
        and np.all((a == 0) | (a == 1))
        and np.array_equal(a + a.T, j_minus_i)
        and np.array_equal(a @ a.T, (q - 3) // 4 * j_minus_i + (q - 1) // 2 * eye)
    )


def _skew_hadamard_reference(a: np.ndarray) -> bool:
    n = a.shape[0]
    eye = np.eye(n, dtype=np.int64)
    return np.array_equal(a @ a.T, n * eye) and np.array_equal(a + a.T, 2 * eye)


# order -> a DRT of it, which _tournaments relabels
_DRTS = {
    q: planner.execute(planner.plan("drt", q=p, t=t))[0].data
    for q, p, t in ((3, 3, 0), (7, 7, 0), (11, 11, 0), (15, 7, 1))
}


@st.composite
def _tournaments(draw) -> np.ndarray:
    """A random tournament of order <= 15, or a DRT of order 3, 7, 11 or
    15 with its vertices relabelled, and then, one time in two, one entry
    set to 0, 1, 2, 0.5 or -1."""
    if draw(st.booleans()):
        perm = draw(st.permutations(range(draw(st.sampled_from(sorted(_DRTS))))))
        a = _DRTS[len(perm)][np.ix_(perm, perm)].astype(np.int64)
    else:
        n = draw(st.integers(1, 15))
        upper = np.triu_indices(n, 1)
        a = np.zeros((n, n), dtype=np.int64)
        a[upper] = draw(st.lists(st.integers(0, 1), min_size=len(upper[0]), max_size=len(upper[0])))
        a.T[upper] = 1 - a[upper]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, len(a) - 1)), draw(st.integers(0, len(a) - 1))
        a = a.astype(float)
        a[i, j] = draw(st.sampled_from([0, 1, 2, 0.5, -1]))
    return a


class TestFloatChecksAreExact:
    """check_drt and check_skew_hadamard run their products in float64;
    they must agree with an int64 reference, on DRTs up to order 511 and
    on the same matrices with one arc pair reversed."""

    @pytest.mark.parametrize("t", range(7))
    @pytest.mark.parametrize("flip", [False, True], ids=["drt", "flipped"])
    def test_against_int64_reference(self, t, flip):
        drt, _ = planner.execute(planner.plan("drt", q=7, t=t))
        a = drt.data.astype(np.int64)
        if flip:
            a = _flip_arc(a)
        assert check_drt(RealMatrix(a)).passed == _drt_reference(a) == (not flip)
        h = np.ones((a.shape[0] + 1, a.shape[0] + 1), dtype=np.int64)
        h[1:, 0] = -1
        h[1:, 1:] = a - a.T + np.eye(a.shape[0], dtype=np.int64)
        assert check_skew_hadamard(RealMatrix(h)).passed == _skew_hadamard_reference(h) == (not flip)

    @settings(max_examples=200, deadline=None)
    @given(a=_tournaments())
    def test_random_tournaments_against_the_reference(self, a):
        assert check_drt(RealMatrix(a)).passed == _drt_reference(a)

    def test_half_entries_are_not_integral(self):
        # the halves cancel in T - Tᵀ, so H is ternary, with zeros where
        # the tournament's arcs belong: the pattern names them, and H meets
        # the exact rule on entries
        verdict = check_drt(RealMatrix([[0, 0.5], [0.5, 0]]))
        assert verdict.failures == (
            "entries are not all in {0, 1}",
            "order 2 is not 3 mod 4",
            "off-diagonal zeros at [(1, 2), (2, 1)]",
            "gram deviates from cI by 1.0 (exact check)",
        )


class TestSharedZeroRule:
    """certify, reduce_zeros and the graph layer count the same entries as zero."""

    def _with_diagonal_entry(self, factor):
        m = construct.symmetric_omzd(6)
        a = np.array(m.data)
        a[0, 0] = factor * 1e-12 * m.max_abs()
        return RealMatrix(a, scale_c=m.scale_c)

    def test_entry_at_the_tolerance_is_a_zero(self):
        m = self._with_diagonal_entry(1.0)
        assert abs(m.data[0, 0]) == zero_tolerance(m)
        assert certify(m, "omzd").passed
        assert np.array_equal(construct.reduce_zeros(m, 6).data, m.data)  # all 6 zeros
        assert graphs._zeros_to_front(m).data[0, 0] == m.data[0, 0]

    def test_entry_at_twice_the_tolerance_is_nonzero(self):
        m = self._with_diagonal_entry(2.0)
        assert certify(m, "omzd").failures == ("1 diagonal entries are nonzero",)
        with pytest.raises(BuildRefused, match="^input has 5 diagonal zeros, cannot reach 6$"):
            construct.reduce_zeros(m, 6)
        assert graphs._zeros_to_front(m).data[5, 5] == m.data[0, 0]

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_entry_leaves_the_zero_rule_finite(self, bad):
        # the zero rule reads the largest finite |entry|: one non-finite
        # entry makes no other entry a zero, for certify and builders alike
        m = construct.symmetric_omzd(6)
        a = np.array(m.data)
        a[0, 1] = bad
        tampered = RealMatrix(a, scale_c=m.scale_c)
        assert zero_tolerance(tampered) == zero_tolerance(m)
        assert input_failures(tampered, "omzd") == []
        failures = certify(tampered, "omzd").failures
        assert failures and not any("zero" in f for f in failures)

    def test_pattern_graph_default_drops_a_tiny_entry(self):
        m = construct.symmetric_omzd(6)
        a = np.array(m.data)
        a[0, 1] = a[1, 0] = 1e-13 * m.max_abs()
        mask = graphs.pattern_graph(RealMatrix(a))
        assert not mask[0, 1] and np.sum(mask) == 2 * 14

    def test_witness_edge_at_the_tolerance_is_a_zero(self):
        spec = graphs.Knn(3)
        w = graphs.q2_certificate(spec).matrix
        a = np.array(w.data)
        a[0, 3] = a[3, 0] = 1e-12 * w.max_abs()
        m = RealMatrix(a)
        assert abs(m.data[0, 3]) == zero_tolerance(m)
        assert not graphs.pattern_graph(m)[0, 3]
        assert "off-diagonal zeros at [(0, 3), (3, 0)]" in certify_graph(m, spec.graph()).failures
