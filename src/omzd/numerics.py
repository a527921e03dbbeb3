"""Dense real matrix arithmetic and the eigenvalue count of a scaled
involution.

Every matrix is a frozen float64 ``RealMatrix``; radical entries are
evaluated numerically at construction time and checked against
tolerances scaled by the matrix order and its certified scale constant.
``RealMatrix(a)`` copies ``a``; the library's builders, which make a
fresh array they never touch again, hand it over with
``RealMatrix._adopt``, which freezes it in place instead.
``RES_TOL`` is the residual bound of every orthogonality check:
max |MMᵀ - cI| <= RES_TOL * c * n.  ``residual_scaled_identity`` takes
one product, the gram MMᵀ, which numpy's BLAS ``syrk`` makes exactly
symmetric, and reads it whole; of a matrix whose entries its caller has
checked to be in {0, +-1} it is a float32 product, exact and half the
bytes of a float64 one.  ``involution_multiplicities`` counts
the eigenvalues of a certified symmetric M with M² = cI from its trace;
``jacobi_spectrum`` is a LAPACK spectrum that only the tests use, as
their reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonSymmetric, NotScaledInvolution

__all__ = [
    "RES_TOL",
    "RealMatrix",
    "residual_scaled_identity",
    "jacobi_spectrum",
    "involution_multiplicities",
]

RES_TOL = 1e-9

# a float32 holds every integer of magnitude up to this exactly
_FLOAT32_EXACT = 2**24


def _frozen_array(values) -> np.ndarray:
    a = np.array(values, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"matrix data must be 2-dimensional, got ndim={a.ndim}")
    return _freeze(a)


def _freeze(a: np.ndarray) -> np.ndarray:
    a += 0.0  # normalizes -0.0 in place, so serialization is sign-stable
    a.setflags(write=False)
    return a


def _checked_scale(scale_c) -> float | None:
    if scale_c is None:
        return None
    c = float(scale_c)
    if not (0.0 < c < np.inf):
        raise ValueError(f"scale_c must be positive and finite, got {c}")
    return c


@dataclass(frozen=True, eq=False)
class RealMatrix:
    """Dense float64 matrix; ``scale_c`` holds c once MMᵀ = cI is certified."""

    data: np.ndarray
    scale_c: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen_array(self.data))
        object.__setattr__(self, "scale_c", _checked_scale(self.scale_c))

    @classmethod
    def _adopt(cls, a: np.ndarray, scale_c: float | None = None) -> "RealMatrix":
        """The RealMatrix of ``a`` itself, with no copy: ``a`` must be a
        fresh 2-dimensional float64 array, C-contiguous, writeable and
        owning its data, which no caller writes again.  It is frozen in
        place, -0.0 normalized as ``RealMatrix(a)`` does on its copy."""
        if not (
            a.ndim == 2 and a.dtype == np.float64 and a.flags.c_contiguous
            and a.flags.writeable and a.base is None
        ):
            raise ValueError("only a fresh, C-contiguous, writeable 2-dimensional float64 array is adopted")
        m = object.__new__(cls)
        object.__setattr__(m, "data", _freeze(a))
        object.__setattr__(m, "scale_c", _checked_scale(scale_c))
        return m

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def order(self) -> int:
        if not self.is_square:
            raise ValueError(f"order undefined for {self.rows}x{self.cols} matrix")
        return self.rows

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.data))) if self.data.size else 0.0

    def __repr__(self):
        return f"RealMatrix({self.rows}x{self.cols}, scale_c={self.scale_c})"


def residual_scaled_identity(m: RealMatrix, *, ternary: bool = False) -> tuple[float, float]:
    """Recover c and the worst deviation of MMᵀ from cI.

    c is the mean of the diagonal of the gram MMᵀ (averages rounding
    noise); max_residual is max |MMᵀ - cI| over the whole product.  numpy
    takes ``a @ a.T`` of one buffer with BLAS ``syrk`` and mirrors one
    triangle onto the other, so the product is exactly symmetric and the
    whole of it has the maximum of its upper triangle; were it ever
    taken another way, the maximum of the whole could only be larger, a
    stricter bound.  The product is the only n x n array made: its
    diagonal less c is taken in float64, and the diagonal is then
    cleared and the magnitudes taken in place.
    Both are returned even when the residual is large, and even when
    entries above about 1e154 overflow the gram: c is then inf or NaN and
    the residual NaN, which the caller's verdict rejects, and numpy
    prints no warning.

    ``ternary`` says the caller has checked that every entry is 0, 1 or
    -1, the one rule an exact claim puts on its entries, which a matrix
    failing the claim's zero pattern can still meet.  Below order 2^24
    every partial sum of the product is then an integer a float32 holds
    exactly, so the gram is taken as the product of a float32 copy, exact
    and half the bytes; c is its trace summed in float64 over n, so both
    results are the float64 product's, bit for bit.
    """
    if not m.is_square:
        raise ValueError("residual against a scaled identity needs a square matrix")
    n = m.order
    a = m.data.astype(np.float32) if ternary and n < _FLOAT32_EXACT else m.data
    with np.errstate(over="ignore", invalid="ignore"):
        g = a @ a.T
        c = float(g.trace(dtype=np.float64) / n)  # the sum and the division np.mean makes
        if not np.isfinite(c):
            return c, float("nan")
        peak = float(np.max(np.abs(g.diagonal().astype(np.float64) - c)))  # g - cI's diagonal
        g.flat[:: n + 1] = 0.0
        # max keeps its first argument unless the second is larger, so a
        # NaN off the diagonal is the residual
        return c, max(float(np.abs(g, out=g).max()), peak)


def jacobi_spectrum(m: RealMatrix) -> tuple[float, ...]:
    """Eigenvalues of an exactly symmetric matrix, ascending (LAPACK via
    ``numpy.linalg.eigvalsh``).

    Raises NonSymmetric unless M = Mᵀ entry for entry, the symmetry rule
    of every symmetric check in this library.
    """
    if not m.is_square:
        raise ValueError("eigensolver needs a square matrix")
    if not np.array_equal(m.data, m.data.T):
        raise NonSymmetric("matrix is not exactly symmetric")
    return tuple(np.linalg.eigvalsh(m.data).tolist())


def involution_multiplicities(m: RealMatrix, c: float, max_residual: float) -> tuple[int, int]:
    """Multiplicities (p, q) of the eigenvalues +√c and -√c of a scaled
    involution, read off the trace instead of an eigensolver.

    c and max_residual come from a passed certificate that M is exactly
    symmetric with M² = MMᵀ = cI up to max_residual (max-entry), such
    as ``verify.certify_graph``.  Then p + q = n and p - q = tr M / √c,
    so p, q = (n ± tr M/√c) / 2.  Every eigenvalue λ has
    |λ/√c ∓ 1| <= ‖M² - cI‖₂ / c <= n·max_residual / c, so tr M/√c lies
    within n²·(max_residual/c + (n+1)·eps) of the integer p - q, the last
    term covering rounding in the gram and the trace.  p must be within
    half that tolerance of an integer, and the tolerance must stay below
    1 (p - q has the parity of n), or NotScaledInvolution is raised.
    """
    n = m.order
    tol = n * n * (max_residual / c + (n + 1) * np.finfo(np.float64).eps)
    plus = (n + float(np.trace(m.data)) / np.sqrt(c)) / 2.0
    p = round(plus)
    if not (tol < 1.0 and abs(plus - p) <= tol / 2.0 and 0 <= p <= n):
        raise NotScaledInvolution(
            f"multiplicity {plus:.6g} of +sqrt(c) is not an integer within {tol / 2.0:.3e}"
        )
    return p, n - p
