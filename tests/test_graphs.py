"""Graph families, pattern extraction, bipartite embedding, q(G) = 2."""

import math
from collections import Counter

import numpy as np
import pytest

from omzd import construct, graphs, planner, verify
from omzd.errors import NoKnownConstruction, NonSymmetric, NotScaledInvolution, ResourceLimit, ShapeMismatch
from omzd.graphs import (
    Gnk,
    Knn,
    Multipartite,
    STATUS_CERTIFIED,
    STATUS_KNOWN_IMPOSSIBLE,
    STATUS_UNKNOWN,
    embed_bipartite,
    pattern_graph,
    q2_certificate,
)
from omzd.numerics import RealMatrix, involution_multiplicities, jacobi_spectrum


def _edges(mask: np.ndarray) -> set[tuple[int, int]]:
    """The edges (i, j), i < j, of an adjacency mask."""
    return {(int(i), int(j)) for i, j in np.argwhere(np.triu(mask, 1))}


class TestGraphSpecs:
    def test_knn_edges(self):
        g = Knn(2).graph()
        assert g.shape == (4, 4)
        assert _edges(g) == {(0, 2), (0, 3), (1, 2), (1, 3)}

    def test_gnk_removes_canonical_matching(self):
        g = Gnk(2, 1).graph()
        assert _edges(g) == {(0, 3), (1, 2), (1, 3)}
        assert np.array_equal(Gnk(3, 0).graph(), Knn(3).graph())

    def test_multipartite_edges(self):
        g = Multipartite(2, 2).graph()
        assert g.shape == (4, 4)
        assert _edges(g) == {(0, 2), (0, 3), (1, 2), (1, 3)}

    def test_validation(self):
        with pytest.raises(ValueError):
            Gnk(3, 4)
        with pytest.raises(ValueError):
            Multipartite(2, 1)
        with pytest.raises(ValueError):
            Knn(0)

    def test_witness_order_cap(self):
        cap = planner.MAX_ORDER
        for spec in (lambda: Knn(cap // 2 + 1), lambda: Gnk(cap // 2 + 1, 1), lambda: Multipartite(683, 6)):
            with pytest.raises(ResourceLimit, match="exceeds MAX_ORDER"):
                spec()
        assert Knn(cap // 2).order == cap and Multipartite(512, 8).order == cap

    def test_certify_multipartite_lives_in_verify(self):
        assert graphs.certify_multipartite is verify.certify_multipartite


class TestPatternGraph:
    def test_identity_is_empty(self):
        g = pattern_graph(RealMatrix(np.eye(3)))
        assert g.shape == (3, 3) and not g.any()

    def test_order_2_conference_single_edge(self):
        g = pattern_graph(construct.seed("omzd", 2))
        assert _edges(g) == {(0, 1)}

    def test_symmetric_omzd6_is_complete(self):
        g = pattern_graph(construct.symmetric_omzd(6))
        assert len(_edges(g)) == 15  # K_6

    def test_diagonal_ignored(self):
        g = pattern_graph(RealMatrix([[5.0, 0.0], [0.0, 7.0]]))
        assert not g.any()

    def test_rejects_asymmetric(self):
        with pytest.raises(NonSymmetric):
            pattern_graph(RealMatrix([[0, 1], [2, 0]]))


class TestEmbedBipartite:
    def test_single_entry(self):
        out = embed_bipartite(RealMatrix([[1.0]]))
        assert out.data.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_omzd5_gives_matching_deleted_graph(self):
        out = embed_bipartite(construct.seed("omzd", 5))
        assert np.array_equal(pattern_graph(out), Gnk(5, 5).graph())

    def test_nowhere_zero_gives_complete_bipartite(self):
        out = embed_bipartite(construct.nowhere_zero_orthogonal(3))
        assert np.array_equal(pattern_graph(out), Knn(3).graph())

    def test_exactly_symmetric(self):
        out = embed_bipartite(RealMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        assert np.array_equal(out.data, out.data.T)

    def test_spectrum_is_plus_minus_sqrt_c(self):
        # orthogonal B with BB^T = cI embeds with spectrum in {+-sqrt(c)}
        b = construct.seed("omzd", 5)
        out = embed_bipartite(b)
        root = math.sqrt(4.0)
        for v in jacobi_spectrum(out):
            assert abs(abs(v) - root) <= 1e-9


class TestQ2Knn:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_certified(self, n):
        cert = q2_certificate(Knn(n))
        assert cert.status == STATUS_CERTIFIED
        assert cert.distinct_eigenvalue_count == 2
        assert cert.pattern_verified


class TestQ2Gnk:
    def test_exceptional_pairs(self):
        # the four pairs with no OMPZD(n, k), refused by the planner's table
        for n, k in [(1, 1), (2, 1), (3, 2), (3, 3)]:
            cert = q2_certificate(Gnk(n, k))
            assert (cert.status, cert.matrix) == (STATUS_KNOWN_IMPOSSIBLE, None)
            assert cert.reason == (
                "q(Gnk) = 2 exactly when an OMPZD(n, k) exists; "
                f"ompzd-existence: no OMPZD({n},{k}); the exceptions are (1,1), (2,1), (3,2), (3,3)"
            )

    @pytest.mark.parametrize("n", range(1, 13))
    def test_certified_exactly_when_ompzd_exists(self, n):
        # q(Gnk) = 2 iff an OMPZD(n, k) exists: one theorem, one table
        for k in range(n + 1):
            cert = q2_certificate(Gnk(n, k))
            if planner.exists("ompzd", n, k).exists:
                assert cert.status == STATUS_CERTIFIED, (n, k, cert.reason)
            else:
                assert cert.status == STATUS_KNOWN_IMPOSSIBLE
                assert f"OMPZD({n},{k})" in cert.reason

    def test_gnk85(self):
        cert = q2_certificate(Gnk(8, 5))
        assert cert.status == STATUS_CERTIFIED
        assert cert.distinct_eigenvalue_count == 2

    @pytest.mark.parametrize("n,k", [(2, 0), (2, 2), (3, 0), (3, 1), (4, 3), (5, 4), (6, 2), (7, 7)])
    def test_valid_pairs_certify(self, n, k):
        cert = q2_certificate(Gnk(n, k))
        assert cert.status == STATUS_CERTIFIED, cert.reason
        assert np.array_equal(pattern_graph(cert.matrix), Gnk(n, k).graph())

    def test_planner_refusal_keeps_its_message(self, monkeypatch):
        # only Multipartite reads NoKnownConstruction as its conjecture
        def refuse(*args, **kwargs):
            raise NoKnownConstruction("probe")

        monkeypatch.setattr(planner, "plan", refuse)
        cert = q2_certificate(Gnk(5, 2))
        assert (cert.status, cert.reason, cert.matrix) == (STATUS_UNKNOWN, "probe", None)

    def test_matching_alignment(self):
        # the k deleted edges are exactly the canonical matching slots
        cert = q2_certificate(Gnk(6, 3))
        a = cert.matrix.data
        for i in range(3):
            assert a[i, 6 + i] == 0.0
        for i in range(3, 6):
            assert a[i, 6 + i] != 0.0


class TestQ2Multipartite:
    @pytest.mark.parametrize("n,m", [(1, 2), (2, 2), (3, 6), (2, 8), (4, 6)])
    def test_even_counts_certify(self, n, m):
        cert = q2_certificate(Multipartite(n, m))
        assert cert.status == STATUS_CERTIFIED, cert.reason
        assert cert.distinct_eigenvalue_count == 2
        assert np.array_equal(pattern_graph(cert.matrix), Multipartite(n, m).graph())

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 4), (2, 5)])
    def test_odd_or_four_parts_unknown(self, n, m):
        cert = q2_certificate(Multipartite(n, m))
        assert cert.status == STATUS_UNKNOWN
        assert "conjectured" in cert.reason

    @pytest.mark.parametrize("m", [3, 4, 5, 7])
    def test_complete_graph_certifies(self, m):
        # K_m has a free diagonal, so the nowhere-zero I - (2/m)J is a witness
        cert = q2_certificate(Multipartite(1, m))
        assert cert.status == STATUS_CERTIFIED, cert.reason
        assert cert.distinct_eigenvalue_count == 2 and cert.pattern_verified
        assert np.array_equal(cert.matrix.data, construct.nowhere_zero_orthogonal(m).data)
        assert np.array_equal(pattern_graph(cert.matrix), ~np.eye(m, dtype=bool))

    def test_m2_matches_knn(self):
        cert = q2_certificate(Multipartite(3, 2))
        assert cert.status == STATUS_CERTIFIED
        assert np.array_equal(pattern_graph(cert.matrix), Knn(3).graph())


class TestCertifyMultipartite:
    def test_detects_broken_block(self):
        w = construct.kron(construct.symmetric_omzd(6), construct.nowhere_zero_orthogonal(2))
        good = graphs.certify_multipartite(w, 2, 6)
        assert good.passed
        tampered = np.array(w.data)
        tampered[0, 0] = 0.5  # inside a diagonal block
        bad = graphs.certify_multipartite(RealMatrix(tampered), 2, 6)
        assert not bad.passed

    def test_non_square_raises(self):
        with pytest.raises(ShapeMismatch):
            graphs.certify_multipartite(RealMatrix(np.ones((2, 3))), 1, 2)

    def test_wrong_order_reports_finite_numbers(self):
        w = construct.kron(construct.symmetric_omzd(6), construct.nowhere_zero_orthogonal(2))
        cert = graphs.certify_multipartite(w, 3, 6)
        assert not cert.passed
        assert any("expected order 18" in f for f in cert.failures)
        assert math.isfinite(cert.max_residual) and math.isfinite(cert.scale_c)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_gram_fails(self):
        w = construct.kron(construct.seed("omzd", 2), construct.nowhere_zero_orthogonal(2))
        cert = graphs.certify_multipartite(RealMatrix(1e200 * w.data), 2, 2)
        assert not cert.passed
        assert any("not positive and finite" in f for f in cert.failures)


def _loop_graph(spec) -> np.ndarray:
    """Reference adjacency masks, one pair at a time."""
    n = spec.order
    if isinstance(spec, Multipartite):
        keep = lambda u, v: u // spec.n != v // spec.n
    else:
        h, k = spec.n, getattr(spec, "k", 0)
        keep = lambda u, v: u < h <= v and not (v - h == u and u < k)
    mask = np.zeros((n, n), dtype=bool)
    for u in range(n):
        for v in range(u + 1, n):
            mask[u, v] = mask[v, u] = keep(u, v)
    return mask


class TestVectorisedEdges:
    @pytest.mark.parametrize(
        "spec", [Knn(1), Knn(5), Gnk(4, 0), Gnk(4, 3), Gnk(6, 6), Multipartite(1, 2), Multipartite(3, 5)]
    )
    def test_matches_pairwise_loop(self, spec):
        g = spec.graph()
        assert g.dtype == bool and np.array_equal(g, _loop_graph(spec))

    def test_pattern_graph_threshold(self):
        a = RealMatrix([[9.0, 1e-3, 2.0], [1e-3, 0.0, 0.0], [2.0, 0.0, 1.0]])
        assert _edges(pattern_graph(a)) == {(0, 1), (0, 2)}
        assert _edges(pattern_graph(a, zero_tol=1e-2)) == {(0, 2)}


class TestGraphMask:
    def test_diagonal_ignored_and_mask_read_only(self):
        for g in (pattern_graph(RealMatrix(np.eye(3))), Gnk(3, 3).graph(), Multipartite(3, 2).graph()):
            assert g.dtype == bool and np.array_equal(g, g.T) and not np.diag(g).any()
            assert not g.flags.writeable

    @pytest.mark.parametrize("mask", [np.ones((2, 3)), np.ones(3), np.triu(np.ones((3, 3)), 1)])
    def test_rejects_non_square_or_asymmetric(self, mask):
        # a mask comes from a square, exactly symmetric matrix or from nowhere
        with pytest.raises((NonSymmetric, ValueError)):
            pattern_graph(RealMatrix(mask))

    def test_equality_is_mask_equality(self):
        assert np.array_equal(Knn(2).graph(), Multipartite(2, 2).graph())
        assert not np.array_equal(Knn(2).graph(), Gnk(2, 1).graph())


# every certified Gnk with n <= 8, K_{n,n} up to n = 40, the multipartite
# witnesses of both plan routes (K_m for n = 1, Kron above), and K_m for
# every m <= 8
_LAPACK_SPECS = (
    [Gnk(n, k) for n in range(1, 9) for k in range(n + 1) if planner.exists("ompzd", n, k).exists]
    + [Knn(n) for n in range(9, 41)]
    + [Multipartite(n, m) for m in (2, 6, 8) for n in (1, 2, 3)]
    + [Multipartite(1, m) for m in (3, 4, 5, 7)]
)


def _root_claim(spec, witness):
    """The plan root's own claim, which certify-graph leaves to the
    witness certificate, checked on the witness it returns."""
    if isinstance(spec, Gnk):
        block = RealMatrix(witness.data[: spec.n, spec.n :], scale_c=witness.scale_c)
        return verify.certify(block, "ompzd", k=spec.k)
    if spec.n == 1:  # K_m
        return verify.certify(witness, "nowhere-zero")
    return verify.certify_multipartite(witness, spec.n, spec.m)


class TestAlgebraicCertificate:
    def _witness(self, spec):
        return q2_certificate(spec).matrix

    @pytest.mark.parametrize("spec", _LAPACK_SPECS)
    def test_witness_multiplicities_match_lapack(self, spec):
        # LAPACK is the reference for the algebraic count the library runs
        cert = q2_certificate(spec)
        assert cert.status == STATUS_CERTIFIED
        check = verify.certify_graph(cert.matrix, spec.graph())
        assert check.passed
        plus, minus = involution_multiplicities(cert.matrix, check.scale_c, check.max_residual)
        values = np.linalg.eigvalsh(cert.matrix.data)
        assert (int(np.sum(values > 0)), int(np.sum(values < 0))) == (plus, minus)
        # the ascending spectrum splits into two groups under the gap rule
        # 1e-6 * max|eigenvalue|
        assert np.count_nonzero(np.diff(values) > 1e-6 * np.max(np.abs(values))) == 1
        # and the witness certificate implies the root claim it replaces
        root = _root_claim(spec, cert.matrix)
        assert root.passed, root.failures

    def test_symmetric_non_involution_is_unknown(self):
        rng = np.random.default_rng(3)
        b = rng.uniform(1.0, 2.0, size=(3, 3))  # nowhere zero, not orthogonal
        cert = graphs._certify_witness(Knn(3), embed_bipartite(RealMatrix(b)))
        assert cert.status == STATUS_UNKNOWN
        assert cert.reason.startswith("witness check failed: max residual ")
        assert "exceeds 1.0e-09 * c * n" in cert.reason
        assert cert.distinct_eigenvalue_count is None and not cert.pattern_verified

    def test_asymmetric_is_unknown(self):
        a = np.array(self._witness(Knn(3)).data)
        a[0, 3] += 1e-15 * abs(a[0, 3]) + 1e-300  # breaks exact symmetry only
        cert = graphs._certify_witness(Knn(3), RealMatrix(a))
        assert cert.status == STATUS_UNKNOWN
        assert cert.reason == "witness check failed: matrix is not symmetric"
        assert cert.distinct_eigenvalue_count is None and not cert.pattern_verified

    def test_pattern_mismatch_is_unknown(self):
        cert = graphs._certify_witness(Knn(4), self._witness(Gnk(4, 1)))
        assert cert.status == STATUS_UNKNOWN
        assert cert.reason == "witness check failed: off-diagonal zeros at [(0, 4), (4, 0)]"
        assert cert.distinct_eigenvalue_count is None and not cert.pattern_verified

    def test_undetermined_multiplicity_is_unknown(self, monkeypatch):
        # a passed certificate whose residual leaves the trace bound at 1 or above
        def undetermined(m, c, max_residual):
            raise NotScaledInvolution("tolerance too wide")

        monkeypatch.setattr(graphs, "involution_multiplicities", undetermined)
        cert = graphs._certify_witness(Knn(3), self._witness(Knn(3)))
        assert cert.status == STATUS_UNKNOWN
        assert cert.reason == "witness check failed: algebraic_count=none (tolerance too wide)"
        assert cert.distinct_eigenvalue_count is None and cert.pattern_verified

    def test_entry_below_the_zero_tolerance_is_a_zero(self):
        # a rotation by 1e-14 is orthogonal, but verify counts its tiny
        # entries as zeros, so the witness has no K_{2,2} pattern
        s = 1e-14
        b = RealMatrix([[math.sqrt(1.0 - s * s), -s], [s, math.sqrt(1.0 - s * s)]], scale_c=1.0)
        assert not verify.certify(b, "nowhere-zero").passed
        cert = graphs._certify_witness(Knn(2), embed_bipartite(b))
        assert cert.status == STATUS_UNKNOWN
        assert not cert.pattern_verified
        assert cert.reason.startswith("witness check failed: off-diagonal zeros at [(0, 3), (1, 2), ")

    def test_single_eigenvalue_is_unknown(self):
        # the identity is a scaled involution with one eigenvalue, and it
        # realizes the empty graph Gnk(1, 1)
        cert = graphs._certify_witness(Gnk(1, 1), RealMatrix(np.eye(2)))
        assert cert.status == STATUS_UNKNOWN
        assert cert.pattern_verified
        assert cert.distinct_eigenvalue_count == 1
        assert cert.reason == "witness check failed: algebraic_count=1"


class TestOneRoute:
    @pytest.mark.parametrize(
        "spec,executes",
        [(Knn(1), 1), (Knn(6), 1), (Gnk(6, 3), 1), (Gnk(7, 7), 1), (Multipartite(1, 5), 1),
         (Multipartite(2, 6), 1), (Gnk(3, 3), 0), (Gnk(3, 2), 0), (Multipartite(2, 3), 0)],
        ids=str,
    )
    def test_one_execute_per_witness(self, spec, executes, monkeypatch):
        # one run of the witness route: one build of the plan, no check of
        # its root, one certify_graph of the witness; a refusal builds nothing
        counts, nested, build = Counter(), [], planner.build

        def counted_build(node):
            counts["build"] += not nested  # the root call, not its recursion
            nested.append(node)
            try:
                return build(node)
            finally:
                nested.pop()

        monkeypatch.setattr(planner, "build", counted_build)
        for module, name in ((planner, "certify"), (graphs, "certify_graph")):

            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        assert (q2_certificate(spec).status == STATUS_CERTIFIED) == bool(executes)
        assert (counts["build"], counts["certify"], counts["certify_graph"]) == (executes, 0, executes)

    def test_knn_is_gnk_with_empty_matching(self):
        assert Knn(4) == Gnk(4, 0)
        assert q2_certificate(Knn(4)).spec == Gnk(4, 0)
