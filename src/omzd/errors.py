"""Exception types raised across the library.

Each name matches the contract of the operation that raises it; all
inherit from :class:`OmzdError` so callers can catch the whole family.
"""


class OmzdError(Exception):
    """Base class for all library errors."""


# --- numerics ---------------------------------------------------------------

class NonSymmetricInput(OmzdError):
    """Eigenvalue input deviates from symmetry beyond the symmetry tolerance."""


class NotScaledInvolution(OmzdError):
    """A matrix is not exactly symmetric with M² = cI, or the tolerance
    leaves its eigenvalue multiplicities undetermined."""


# --- finite fields ----------------------------------------------------------

class NotPrime(OmzdError):
    """Field characteristic is not a prime number."""


class EvenCharacteristic(OmzdError):
    """Characteristic 2 rejected: the quadratic character needs odd order."""


# --- verification -----------------------------------------------------------

class ShapeMismatch(OmzdError):
    """A square matrix was required."""


# --- construction -----------------------------------------------------------

class NotInCatalog(OmzdError):
    """No seed matrix is stored for the requested (kind, n, k)."""


class InvalidQ(OmzdError):
    """q does not satisfy the prime-power/congruence condition required."""


class NotOMZD(OmzdError):
    """An input failed zero-diagonal orthogonality certification."""


class OddOrder(OmzdError):
    """Symmetric zero-diagonal orthogonal matrices exist only at even order."""


class OrderFour(OmzdError):
    """No symmetric OMZD(4) exists."""


class NotDRT(OmzdError):
    """An input failed the doubly-regular-tournament axioms."""


class OrderThree(OmzdError):
    """The tournament-to-OMZD map is undefined at q = 3."""


class TargetTooHigh(OmzdError):
    """Requested more diagonal zeros than the input already has."""


class TargetAboveReach(OmzdError):
    """k = n-1 cannot be reached by plane rotations; use the splice route."""


class NoThetaFound(OmzdError):
    """Rotation-angle schedule exhausted without clearing the zeros."""


class Nonexistent(OmzdError):
    """The requested object provably does not exist."""


# --- planning ---------------------------------------------------------------

class NonexistentTarget(OmzdError):
    """plan() was asked for an object whose existence verdict is negative."""


class CertificationFailed(OmzdError):
    """A plan stage produced output that failed its certificate (a bug)."""


class InvalidK(OmzdError):
    """Zero count k outside [0, n]."""


# --- graphs -----------------------------------------------------------------

class NonSymmetric(OmzdError):
    """Graph extraction requires a symmetric matrix."""


# --- serialization ----------------------------------------------------------

class NonFiniteNumber(OmzdError):
    """A NaN or infinite value cannot be written as strict JSON."""


class SchemaViolation(OmzdError):
    """Matrix file does not match the JSON schema; names the field path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
