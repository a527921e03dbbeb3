"""Dense real matrix arithmetic and symmetric eigenvalues.

Every matrix is a frozen float64 ``RealMatrix``; radical entries are
evaluated numerically at construction time and checked against
tolerances scaled by the matrix order and its certified scale constant.
A spectrum is a plain ascending tuple of floats.  ``RES_TOL`` is the
residual bound of every orthogonality check: max |MMᵀ - cI| <= RES_TOL *
c * n.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import NonSymmetric, NotScaledInvolution

__all__ = [
    "RES_TOL",
    "RealMatrix",
    "gram",
    "residual_scaled_identity",
    "jacobi_spectrum",
    "involution_multiplicities",
    "cluster_eigenvalues",
]

RES_TOL = 1e-9


def _frozen_array(values) -> np.ndarray:
    a = np.array(values, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"matrix data must be 2-dimensional, got ndim={a.ndim}")
    a = a + 0.0  # normalizes -0.0 so serialization is sign-stable
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class RealMatrix:
    """Dense float64 matrix; ``scale_c`` holds c once MMᵀ = cI is certified."""

    data: np.ndarray
    scale_c: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen_array(self.data))
        if self.scale_c is not None:
            c = float(self.scale_c)
            if not (c > 0.0):
                raise ValueError(f"scale_c must be strictly positive, got {c}")
            object.__setattr__(self, "scale_c", c)

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


def gram(m: RealMatrix) -> RealMatrix:
    """MMᵀ with each off-diagonal entry computed once and mirrored.

    The result is exactly symmetric by construction regardless of
    floating-point evaluation order inside the matrix product.  Entries
    that overflow become inf or NaN silently; certification rejects them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        g = m.data @ m.data.T
        g = np.triu(g) + np.triu(g, 1).T
    return RealMatrix(g)


def residual_scaled_identity(m: RealMatrix) -> tuple[float, float]:
    """Recover c and the worst deviation of MMᵀ from cI.

    c is the mean of the gram diagonal (averages rounding noise);
    max_residual is max |gram - cI| over all entries.  Both are returned
    even when the residual is large, and even when entries above about
    1e154 overflow the gram: c and the residual are then inf or NaN, which
    the caller's verdict rejects, and numpy prints no warning.
    """
    if not m.is_square:
        raise ValueError("residual against a scaled identity needs a square matrix")
    g = gram(m).data
    n = m.order
    with np.errstate(over="ignore", invalid="ignore"):
        c = float(np.mean(np.diag(g)))
        res = g - c * np.eye(n)
        return c, float(np.max(np.abs(res)))


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


def involution_multiplicities(m: RealMatrix) -> tuple[int, int]:
    """Multiplicities (p, q) of the eigenvalues +√c and -√c of a scaled
    involution, read off the trace instead of an eigensolver.

    M must be exactly symmetric with M² = MMᵀ = cI up to RES_TOL * c * n
    (max-entry residual).  Then p + q = n and p - q = tr M / √c, so
    p, q = (n ± tr M/√c) / 2.  Every eigenvalue λ has
    |λ/√c ∓ 1| <= ‖M² - cI‖₂ / c <= n·max_residual / c, so tr M/√c lies
    within n²·(max_residual/c + (n+1)·eps) of the integer p - q, the last
    term covering rounding in the gram and the trace.  p must be within
    half that tolerance of an integer, and the tolerance must stay below
    1 (p - q has the parity of n), or NotScaledInvolution is raised.
    """
    a = m.data
    if not m.is_square or not np.array_equal(a, a.T):
        raise NotScaledInvolution("matrix is not exactly symmetric")
    n = m.order
    c, max_residual = residual_scaled_identity(m)
    if not (np.isfinite(c) and c > 0.0 and max_residual <= RES_TOL * c * n):
        raise NotScaledInvolution(
            f"M^2 is not cI: c = {c:.6g}, max residual {max_residual:.3e} "
            f"against {RES_TOL:.1e} * c * n"
        )
    tol = n * n * (max_residual / c + (n + 1) * np.finfo(np.float64).eps)
    plus = (n + float(np.trace(a)) / np.sqrt(c)) / 2.0
    p = round(plus)
    if not (tol < 1.0 and abs(plus - p) <= tol / 2.0 and 0 <= p <= n):
        raise NotScaledInvolution(
            f"multiplicity {plus:.6g} of +sqrt(c) is not an integer within {tol / 2.0:.3e}"
        )
    return p, n - p


def cluster_eigenvalues(values: Sequence[float], cluster_tol: float | None = None) -> int:
    """Count distinct eigenvalues of an ascending sequence by greedy
    left-to-right gap clustering.

    Two consecutive values share a cluster iff their gap is at most
    ``cluster_tol`` (default 1e-6 * max|eigenvalue|).
    """
    if not values:
        return 0
    if cluster_tol is None:
        cluster_tol = 1e-6 * max(abs(v) for v in values)
    clusters = 1
    for prev, cur in zip(values, values[1:]):
        if cur - prev > cluster_tol:
            clusters += 1
    return clusters
