"""Graph families, pattern extraction, bipartite embedding, q(G) = 2."""

import math

import numpy as np
import pytest

from omzd import construct, graphs
from omzd.errors import NonSymmetric, ShapeMismatch
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


class TestGraphSpecs:
    def test_knn_edges(self):
        g = Knn(2).graph()
        assert g.order == 4
        assert g.edges == {(0, 2), (0, 3), (1, 2), (1, 3)}

    def test_gnk_removes_canonical_matching(self):
        g = Gnk(2, 1).graph()
        assert g.edges == {(0, 3), (1, 2), (1, 3)}
        assert Gnk(3, 0).graph() == Knn(3).graph()

    def test_multipartite_edges(self):
        g = Multipartite(2, 2).graph()
        assert g.order == 4
        assert g.edges == {(0, 2), (0, 3), (1, 2), (1, 3)}

    def test_validation(self):
        with pytest.raises(ValueError):
            Gnk(3, 4)
        with pytest.raises(ValueError):
            Multipartite(2, 1)
        with pytest.raises(ValueError):
            Knn(0)


class TestPatternGraph:
    def test_identity_is_empty(self):
        g = pattern_graph(RealMatrix(np.eye(3)))
        assert g.order == 3 and g.edges == frozenset()

    def test_order_2_conference_single_edge(self):
        g = pattern_graph(construct.seed("omzd", 2))
        assert g.edges == {(0, 1)}

    def test_symmetric_omzd6_is_complete(self):
        g = pattern_graph(construct.symmetric_omzd(6))
        assert len(g.edges) == 15  # K_6

    def test_diagonal_ignored(self):
        g = pattern_graph(RealMatrix([[5.0, 0.0], [0.0, 7.0]]))
        assert g.edges == frozenset()

    def test_rejects_asymmetric(self):
        with pytest.raises(NonSymmetric):
            pattern_graph(RealMatrix([[0, 1], [2, 0]]))


class TestEmbedBipartite:
    def test_single_entry(self):
        out = embed_bipartite(RealMatrix([[1.0]]))
        assert out.data.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_omzd5_gives_matching_deleted_graph(self):
        out = embed_bipartite(construct.seed("omzd", 5))
        assert pattern_graph(out) == Gnk(5, 5).graph()

    def test_nowhere_zero_gives_complete_bipartite(self):
        out = embed_bipartite(construct.nowhere_zero_orthogonal(3))
        assert pattern_graph(out) == Knn(3).graph()

    def test_exactly_symmetric(self):
        out = embed_bipartite(RealMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        assert np.array_equal(out.data, out.data.T)

    def test_spectrum_is_plus_minus_sqrt_c(self):
        # orthogonal B with BB^T = cI embeds with spectrum in {+-sqrt(c)}
        b = construct.seed("omzd", 5)
        out = embed_bipartite(b)
        root = math.sqrt(4.0)
        for v in jacobi_spectrum(out).values:
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
        assert q2_certificate(Gnk(1, 1)).status == STATUS_KNOWN_IMPOSSIBLE
        assert q2_certificate(Gnk(2, 1)).status == STATUS_KNOWN_IMPOSSIBLE
        c33 = q2_certificate(Gnk(3, 3))
        assert c33.status == STATUS_KNOWN_IMPOSSIBLE
        assert "6-cycle" in c33.reason
        c32 = q2_certificate(Gnk(3, 2))
        assert c32.status == STATUS_UNKNOWN
        assert "between 3 and 4" in c32.reason

    def test_gnk85(self):
        cert = q2_certificate(Gnk(8, 5))
        assert cert.status == STATUS_CERTIFIED
        assert cert.distinct_eigenvalue_count == 2

    @pytest.mark.parametrize("n,k", [(2, 0), (2, 2), (3, 0), (3, 1), (4, 3), (5, 4), (6, 2), (7, 7)])
    def test_valid_pairs_certify(self, n, k):
        cert = q2_certificate(Gnk(n, k))
        assert cert.status == STATUS_CERTIFIED, cert.reason
        assert pattern_graph(cert.matrix) == Gnk(n, k).graph()

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
        assert pattern_graph(cert.matrix) == Multipartite(n, m).graph()

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 4), (2, 5), (1, 7)])
    def test_odd_or_four_parts_unknown(self, n, m):
        cert = q2_certificate(Multipartite(n, m))
        assert cert.status == STATUS_UNKNOWN
        assert "conjectured" in cert.reason

    def test_m2_matches_knn(self):
        cert = q2_certificate(Multipartite(3, 2))
        assert cert.status == STATUS_CERTIFIED
        assert pattern_graph(cert.matrix) == Knn(3).graph()


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


def _eigvalsh_signs(a: np.ndarray) -> tuple[int, int]:
    values = np.linalg.eigvalsh(a)
    return int(np.sum(values > 0)), int(np.sum(values < 0))


def _loop_graph(spec) -> graphs.Graph:
    """Reference edge sets, one pair at a time."""
    n = spec.order
    if isinstance(spec, Multipartite):
        keep = lambda u, v: u // spec.n != v // spec.n
    else:
        h, k = spec.n, getattr(spec, "k", 0)
        keep = lambda u, v: u < h <= v and not (v - h == u and u < k)
    return graphs.Graph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n) if keep(u, v)))


class TestVectorisedEdges:
    @pytest.mark.parametrize(
        "spec", [Knn(1), Knn(5), Gnk(4, 0), Gnk(4, 3), Gnk(6, 6), Multipartite(1, 2), Multipartite(3, 5)]
    )
    def test_matches_pairwise_loop(self, spec):
        g = spec.graph()
        assert g == _loop_graph(spec)
        assert all(type(u) is int and type(v) is int for u, v in g.edges)

    def test_pattern_graph_threshold(self):
        a = RealMatrix([[9.0, 1e-3, 2.0], [1e-3, 0.0, 0.0], [2.0, 0.0, 1.0]])
        assert pattern_graph(a).edges == {(0, 1), (0, 2)}
        assert pattern_graph(a, zero_tol=1e-2).edges == {(0, 2)}


class TestAlgebraicCertificate:
    def _witness(self, spec):
        return q2_certificate(spec).matrix

    @pytest.mark.parametrize(
        "spec", [Knn(1), Knn(7), Gnk(5, 4), Gnk(8, 5), Multipartite(2, 2), Multipartite(3, 6)]
    )
    def test_witness_multiplicities_match_lapack(self, spec):
        cert = q2_certificate(spec)
        assert cert.status == STATUS_CERTIFIED
        plus, minus = involution_multiplicities(cert.matrix)
        # every witness has zero trace, so the two eigenvalues split evenly
        assert plus == minus == spec.order // 2
        assert _eigvalsh_signs(cert.matrix.data) == (plus, minus)

    def test_symmetric_non_involution_is_unknown(self):
        rng = np.random.default_rng(3)
        b = rng.uniform(1.0, 2.0, size=(3, 3))  # nowhere zero, not orthogonal
        cert = graphs._certify_witness(Knn(3), embed_bipartite(RealMatrix(b)), None)
        assert cert.status == STATUS_UNKNOWN
        assert cert.pattern_verified
        assert "algebraic_count=none (M^2 is not cI" in cert.reason
        assert cert.distinct_eigenvalue_count is None

    def test_asymmetric_is_unknown(self):
        a = np.array(self._witness(Knn(3)).data)
        a[0, 3] += 1e-15 * abs(a[0, 3]) + 1e-300  # breaks exact symmetry only
        cert = graphs._certify_witness(Knn(3), RealMatrix(a), None)
        assert cert.status == STATUS_UNKNOWN
        assert "not exactly symmetric" in cert.reason
        assert cert.distinct_eigenvalue_count is None and not cert.pattern_verified

    def test_pattern_mismatch_is_unknown(self):
        cert = graphs._certify_witness(Knn(4), self._witness(Gnk(4, 1)), None)
        assert cert.status == STATUS_UNKNOWN
        assert "pattern_ok=False" in cert.reason
        assert cert.distinct_eigenvalue_count == 2 and not cert.pattern_verified

    def test_cross_check_disagreement_is_unknown(self):
        # a cluster tolerance wider than the spectrum merges +-sqrt(c)
        cert = graphs._certify_witness(Knn(3), self._witness(Knn(3)), cluster_tol=100.0)
        assert cert.status == STATUS_UNKNOWN
        assert "algebraic count 2 and the LAPACK cluster count 1 disagree" in cert.reason
        assert cert.distinct_eigenvalue_count is None

    def test_single_eigenvalue_is_unknown(self):
        # the identity is a scaled involution with one eigenvalue, and an empty pattern
        cert = graphs._certify_witness(Knn(2), RealMatrix(np.eye(4)), None)
        assert cert.status == STATUS_UNKNOWN
        assert cert.distinct_eigenvalue_count == 1
