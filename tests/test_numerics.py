"""Matrix arithmetic, residual recovery, eigensolver, and clustering."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omzd import construct, numerics
from omzd.errors import NonSymmetricInput, NotScaledInvolution
from omzd.numerics import (
    RealMatrix,
    Spectrum,
    cluster_eigenvalues,
    gram,
    involution_multiplicities,
    jacobi_spectrum,
    residual_scaled_identity,
)

CONF_6 = [
    [0, 1, 1, 1, 1, 1],
    [1, 0, 1, -1, -1, 1],
    [1, 1, 0, 1, -1, -1],
    [1, -1, 1, 0, 1, -1],
    [1, -1, -1, 1, 0, 1],
    [1, 1, -1, -1, 1, 0],
]


def int_gram(rows):
    """Independent oracle: exact integer MM^T via pure-Python arithmetic."""
    n = len(rows)
    return [[sum(rows[i][t] * rows[j][t] for t in range(n)) for j in range(n)] for i in range(n)]


class TestRealMatrix:
    def test_shape_and_entries(self):
        m = RealMatrix([[1, 2, 3], [4, 5, 6]])
        assert (m.rows, m.cols) == (2, 3)
        assert not m.is_square
        with pytest.raises(ValueError):
            m.order

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            RealMatrix([[1.0]], scale_c=0.0)
        with pytest.raises(ValueError):
            RealMatrix([[1.0]], scale_c=-2.0)

    def test_data_is_immutable(self):
        m = RealMatrix([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            m.data[0, 0] = 5.0

    def test_negative_zero_normalized(self):
        m = RealMatrix([[-0.0]])
        assert math.copysign(1.0, m.data[0, 0]) == 1.0


class TestGram:
    def test_identity(self):
        g = gram(RealMatrix(np.eye(3)))
        assert np.array_equal(g.data, np.eye(3))

    def test_order_2_conference(self):
        g = gram(RealMatrix([[0, 1], [1, 0]]))
        assert np.array_equal(g.data, np.eye(2))

    def test_order_6_conference_is_5i(self):
        # oracle: direct integer multiplication of the printed matrix
        oracle = int_gram(CONF_6)
        assert oracle == [[5 if i == j else 0 for j in range(6)] for i in range(6)]
        g = gram(RealMatrix(CONF_6))
        assert np.array_equal(g.data, 5.0 * np.eye(6))

    def test_exact_symmetry_on_random_input(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((17, 17))
        g = gram(RealMatrix(a)).data
        assert np.array_equal(g, g.T)


class TestResidualScaledIdentity:
    def test_identity(self):
        assert residual_scaled_identity(RealMatrix(np.eye(3))) == (1.0, 0.0)

    def test_omzd5_seed(self):
        c, res = residual_scaled_identity(construct.seed("omzd", 5))
        assert c == pytest.approx(4.0, abs=1e-12)
        assert res <= 1e-12

    def test_all_ones(self):
        c, res = residual_scaled_identity(RealMatrix([[1, 1], [1, 1]]))
        assert (c, res) == (2.0, 2.0)

    def test_residual_bound_on_constructed_matrices(self):
        # every certified construction keeps max_residual <= 1e-9 * c * order
        for m in [
            construct.seed("omzd", 7),
            construct.symmetric_omzd(12),
            construct.combine(construct.seed("omzd", 6), construct.seed("omzd", 5)),
            construct.nowhere_zero_orthogonal(9),
        ]:
            c, res = residual_scaled_identity(m)
            assert res <= 1e-9 * c * m.order


class TestJacobiSpectrum:
    def test_already_diagonal(self):
        s = jacobi_spectrum(RealMatrix(np.diag([3.0, 1.0, 2.0])))
        assert s.values == (1.0, 2.0, 3.0)

    def test_2x2_closed_form(self):
        s = jacobi_spectrum(RealMatrix([[0, 1], [1, 0]]))
        assert s.values == pytest.approx((-1.0, 1.0), abs=1e-12)

    def test_scaled_conference_6(self):
        # C symmetric with C^2 = 5I forces eigenvalues +-1 after scaling
        # by 1/sqrt(5); zero trace splits the multiplicities 3 and 3.
        m = RealMatrix(np.array(CONF_6, dtype=float) / math.sqrt(5.0))
        s = jacobi_spectrum(m)
        assert len(s.values) == 6
        assert all(abs(v) == pytest.approx(1.0, abs=1e-10) for v in s.values)
        assert sum(1 for v in s.values if v < 0) == 3

    def test_rejects_asymmetric(self):
        with pytest.raises(NonSymmetricInput):
            jacobi_spectrum(RealMatrix([[0, 1], [5, 0]]))

    def test_trace_preserved(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((9, 9))
        a = (a + a.T) / 2
        s = jacobi_spectrum(RealMatrix(a))
        assert abs(sum(s.values) - np.trace(a)) <= 1e-8 * 9 * np.max(np.abs(a))

    def test_eigenvalues_square_to_scale(self):
        # symmetric orthogonal M with MM^T = cI: every eigenvalue squares to c
        for m in [construct.symmetric_omzd(10), RealMatrix(CONF_6, scale_c=5.0)]:
            c, _ = residual_scaled_identity(m)
            s = jacobi_spectrum(m)
            assert all(abs(v * v - c) <= 1e-6 * c for v in s.values)


class TestClusterEigenvalues:
    def test_single_cluster(self):
        assert cluster_eigenvalues(Spectrum((1.0, 1.0, 1.0), 0.0)) == 1

    def test_two_clusters(self):
        s = Spectrum((-1.0, -1.0, 1.0, 1.0), 0.0)
        assert cluster_eigenvalues(s, cluster_tol=1e-8) == 2

    def test_kron_of_small_symmetric_factors(self):
        # symmetric orthogonal product: spectrum within {+-sqrt(c)}
        m = construct.kron(construct.seed("omzd", 2), construct.nowhere_zero_orthogonal(3))
        s = jacobi_spectrum(m)
        assert cluster_eigenvalues(s) == 2

    def test_empty(self):
        assert cluster_eigenvalues(Spectrum((), 0.0)) == 0

    def test_tol_override_merges(self):
        s = Spectrum((0.0, 0.5, 1.0), 0.0)
        assert cluster_eigenvalues(s, cluster_tol=1.0) == 1
        assert cluster_eigenvalues(s, cluster_tol=0.1) == 3


def householder(v: np.ndarray) -> np.ndarray:
    """I - 2vvᵀ/vᵀv: exactly symmetric in floating point, squares to I."""
    return np.eye(v.size) - 2.0 * np.outer(v, v) / float(v @ v)


_reflection_vectors = st.lists(
    st.floats(-10.0, 10.0, allow_nan=False).filter(lambda x: abs(x) > 1e-3),
    min_size=1,
    max_size=12,
).map(np.array)


class TestInvolutionMultiplicities:
    @settings(max_examples=60, deadline=None)
    @given(
        vectors=st.lists(_reflection_vectors, min_size=1, max_size=4),
        signs=st.lists(st.sampled_from([1.0, -1.0]), max_size=4),
        scale=st.floats(0.1, 100.0),
    )
    def test_formula_matches_eigvalsh(self, vectors, signs, scale):
        # direct sums of Householder reflections and of +-1 give every
        # split of the order between +sqrt(c) and -sqrt(c)
        n = sum(v.size for v in vectors) + len(signs)
        a = np.zeros((n, n))
        at = 0
        for block in [householder(v) for v in vectors] + [np.array([[s]]) for s in signs]:
            size = block.shape[0]
            a[at : at + size, at : at + size] = block
            at += size
        a *= scale
        values = np.linalg.eigvalsh(a)
        expected = (int(np.sum(values > 0)), int(np.sum(values < 0)))
        assert involution_multiplicities(RealMatrix(a)) == expected

    def test_conference_6(self):
        assert involution_multiplicities(RealMatrix(CONF_6)) == (3, 3)

    def test_identity_and_negation(self):
        assert involution_multiplicities(RealMatrix(np.eye(4))) == (4, 0)
        assert involution_multiplicities(RealMatrix(-3.0 * np.eye(4))) == (0, 4)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotScaledInvolution, match="not exactly symmetric"):
            involution_multiplicities(construct.seed("omzd", 4))  # skew conference matrix

    def test_rejects_non_involution(self):
        with pytest.raises(NotScaledInvolution, match="M\\^2 is not cI"):
            involution_multiplicities(RealMatrix(np.diag([1.0, 2.0])))

    def test_rejects_undetermined_multiplicity(self, monkeypatch):
        # at order 2000 a residual of 1e-6 is inside 1e-9 * c * n, but
        # n^2 * residual / c = 4 leaves the trace bound above 1
        monkeypatch.setattr(numerics, "residual_scaled_identity", lambda m: (1.0, 1e-6))
        with pytest.raises(NotScaledInvolution, match="not an integer"):
            involution_multiplicities(RealMatrix(np.eye(2000)))
