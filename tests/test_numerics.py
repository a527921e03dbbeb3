"""Matrix arithmetic, residual recovery, the reference eigensolver, and
involution multiplicities."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omzd import construct
from omzd.errors import NonSymmetric, NotScaledInvolution
from omzd.numerics import (
    RealMatrix,
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

    @pytest.mark.parametrize("scale", [math.inf, -math.inf, math.nan])
    def test_scale_must_be_finite(self, scale):
        # an infinite scale would reach the encoder, which cannot write it
        with pytest.raises(ValueError, match=f"^scale_c must be positive and finite, got {scale}$"):
            RealMatrix([[1.0]], scale_c=scale)

    def test_data_is_immutable(self):
        m = RealMatrix([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            m.data[0, 0] = 5.0

    def test_negative_zero_normalized(self):
        m = RealMatrix([[-0.0]])
        assert math.copysign(1.0, m.data[0, 0]) == 1.0

    def test_one_copy_of_a_fresh_array(self):
        # the data is copied once and -0.0 normalized on that copy
        n = 401
        a = np.random.default_rng(1).standard_normal((n, n))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            m = RealMatrix(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(m.data, a) and m.data is not a
        assert peak <= 1.1 * 8 * n * n


class TestAdopt:
    """``RealMatrix._adopt`` freezes the builder's own array in place."""

    def test_the_array_itself_becomes_read_only(self):
        a = np.array([[-0.0, 1.0], [1.0, 0.0]])
        m = RealMatrix._adopt(a, scale_c=1)
        assert m.data is a and not a.flags.writeable and m.scale_c == 1.0
        assert math.copysign(1.0, a[0, 0]) == 1.0
        with pytest.raises(ValueError):
            a[0, 1] = 5.0

    @pytest.mark.parametrize(
        "make",
        [
            lambda: np.zeros((3, 3))[:2],  # a view
            lambda: np.asfortranarray(np.zeros((3, 3))),
            lambda: np.zeros((3, 3), dtype=np.float32),
            lambda: np.zeros(3),
            lambda: RealMatrix(np.zeros((3, 3))).data,  # already frozen
        ],
        ids=["view", "fortran", "float32", "1-d", "read-only"],
    )
    def test_refuses_what_it_cannot_own(self, make):
        with pytest.raises(ValueError, match="^only a fresh, C-contiguous, writeable"):
            RealMatrix._adopt(make())

    def test_scale_is_checked(self):
        with pytest.raises(ValueError, match="^scale_c must be positive and finite, got 0.0$"):
            RealMatrix._adopt(np.zeros((2, 2)), scale_c=0.0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: construct.paley_conference(13),
            lambda: construct.paley_tournament(11),
            lambda: construct.drt_to_skew_hadamard(construct.paley_tournament(7)),
            lambda: construct.double_drt(construct.paley_tournament(7)),
            lambda: construct.omzd_from_drt(construct.paley_tournament(11)),
            lambda: construct.combine(construct.seed("omzd", 6), construct.seed("omzd", 5)),
            lambda: construct.symmetric_omzd(8),
            lambda: construct.nowhere_zero_orthogonal(5),
            lambda: construct.reduce_zeros(construct.symmetric_omzd(8), 3),
            lambda: construct.kron(construct.symmetric_omzd(6), construct.nowhere_zero_orthogonal(3)),
            lambda: construct.conjugate_permute(construct.seed("omzd", 5), [4, 3, 2, 1, 0]),
        ],
    )
    def test_builder_outputs_are_read_only(self, build):
        m = build()
        assert not m.data.flags.writeable and m.data.flags.c_contiguous
        with pytest.raises(ValueError):
            m.data[0, 0] = 7.0


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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "n", [*range(1, 70), 127, 128, 129, 255, 256, 257, 511, 512, 513, 1000, 1023, 1500, 2047, 2049]
    )
    def test_the_gram_is_exactly_symmetric(self, n, dtype):
        # numpy takes a @ a.T of one C-contiguous buffer with BLAS syrk and
        # mirrors one triangle, the premise of reading the product whole
        a = np.random.default_rng(n).standard_normal((n, n)).astype(dtype)
        g = a @ a.T
        assert np.array_equal(g, g.T)

    @pytest.mark.parametrize(
        "n,ternary",
        [
            *(pytest.param(n, False, id=str(n)) for n in (1, 2, 64, 127, 128, 129, 300, 513, 1000)),
            pytest.param(300, True, id="300-ternary"),
        ],
    )
    def test_matches_the_full_triangle_bit_for_bit(self, n, ternary):
        rng = np.random.default_rng(n)
        a = rng.integers(-1, 2, (n, n)).astype(np.float64) if ternary else rng.standard_normal((n, n))
        g = a @ a.T
        c = float(np.mean(np.diag(g)))
        expected = float(np.max(np.triu(np.abs(g - c * np.eye(n)))))
        assert residual_scaled_identity(RealMatrix(a), ternary=ternary) == (c, expected)

    @pytest.mark.parametrize(
        "i,j", [(0, 299), (299, 0), (127, 128), (128, 127), (128, 129), (255, 256), (298, 299), (129, 129)]
    )
    def test_sees_one_entry_at_a_row_block_edge(self, i, j):
        # M = I plus one entry gives a gram whose worst entry is at (i, j)
        # and (j, i), or on the diagonal when i = j; the product is read
        # whole, and these positions sit at the edges of BLAS tiles
        a = np.eye(300)
        a[i, j] += 0.5
        c, res = residual_scaled_identity(RealMatrix(a))
        assert c == (299.0 + (1.5**2 if i == j else 1.25)) / 300.0
        assert res == (1.5**2 - c if i == j else 0.5)


class TestJacobiSpectrum:
    def test_already_diagonal(self):
        s = jacobi_spectrum(RealMatrix(np.diag([3.0, 1.0, 2.0])))
        assert s == (1.0, 2.0, 3.0)

    def test_2x2_closed_form(self):
        s = jacobi_spectrum(RealMatrix([[0, 1], [1, 0]]))
        assert s == pytest.approx((-1.0, 1.0), abs=1e-12)

    def test_scaled_conference_6(self):
        # C symmetric with C^2 = 5I forces eigenvalues +-1 after scaling
        # by 1/sqrt(5); zero trace splits the multiplicities 3 and 3.
        m = RealMatrix(np.array(CONF_6, dtype=float) / math.sqrt(5.0))
        s = jacobi_spectrum(m)
        assert len(s) == 6
        assert all(abs(v) == pytest.approx(1.0, abs=1e-10) for v in s)
        assert sum(1 for v in s if v < 0) == 3

    def test_rejects_asymmetric(self):
        with pytest.raises(NonSymmetric):
            jacobi_spectrum(RealMatrix([[0, 1], [5, 0]]))

    def test_trace_preserved(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((9, 9))
        a = (a + a.T) / 2
        s = jacobi_spectrum(RealMatrix(a))
        assert abs(sum(s) - np.trace(a)) <= 1e-8 * 9 * np.max(np.abs(a))

    def test_eigenvalues_square_to_scale(self):
        # symmetric orthogonal M with MM^T = cI: every eigenvalue squares to c
        for m in [construct.symmetric_omzd(10), RealMatrix(CONF_6, scale_c=5.0)]:
            c, _ = residual_scaled_identity(m)
            s = jacobi_spectrum(m)
            assert all(abs(v * v - c) <= 1e-6 * c for v in s)


class TestClusterEigenvalues:
    def test_kron_of_small_symmetric_factors(self):
        # symmetric orthogonal product: the ascending spectrum splits into
        # two groups, at +-sqrt(c), under the gap rule 1e-6 * max|eigenvalue|
        m = construct.kron(construct.seed("omzd", 2), construct.nowhere_zero_orthogonal(3))
        s = np.array(jacobi_spectrum(m))
        assert np.count_nonzero(np.diff(s) > 1e-6 * np.max(np.abs(s))) == 1


def householder(v: np.ndarray) -> np.ndarray:
    """I - 2vvᵀ/vᵀv: exactly symmetric in floating point, squares to I."""
    return np.eye(v.size) - 2.0 * np.outer(v, v) / float(v @ v)


_reflection_vectors = st.lists(
    st.floats(-10.0, 10.0, allow_nan=False).filter(lambda x: abs(x) > 1e-3),
    min_size=1,
    max_size=12,
).map(np.array)


def multiplicities(a) -> tuple[int, int]:
    """involution_multiplicities with the c and residual a certificate
    of a symmetric a with a² = cI recovers."""
    m = RealMatrix(a)
    return involution_multiplicities(m, *residual_scaled_identity(m))


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
        assert multiplicities(a) == expected

    def test_conference_6(self):
        assert multiplicities(CONF_6) == (3, 3)

    def test_identity_and_negation(self):
        assert multiplicities(np.eye(4)) == (4, 0)
        assert multiplicities(-3.0 * np.eye(4)) == (0, 4)

    def test_rejects_undetermined_multiplicity(self):
        # at order 2000 a residual of 1e-6 is inside 1e-9 * c * n, but
        # n^2 * residual / c = 4 leaves the trace bound above 1
        with pytest.raises(NotScaledInvolution, match="not an integer"):
            involution_multiplicities(RealMatrix(np.eye(2000)), 1.0, 1e-6)
