"""Exception types raised across the library.

Each name matches the contract of the operation that raises it; all
inherit from :class:`OmzdError` so callers can catch the whole family.
Refusals a caller can meet (NonexistentTarget, NoKnownConstruction,
InvalidQ, InvalidK, ResourceLimit) are raised by ``planner.plan`` before
anything is built.  A builder's own refusal is one class,
:class:`BuildRefused`, whose message says which check failed.
"""


class OmzdError(Exception):
    """Base class for all library errors."""


# --- numerics ---------------------------------------------------------------

class NonSymmetric(OmzdError):
    """A matrix that must be symmetric is not: eigenvalue or graph
    extraction input that is not square and exactly symmetric."""


class NotScaledInvolution(OmzdError):
    """The tolerance of a certified M² = cI leaves the eigenvalue
    multiplicities of M undetermined."""


# --- finite fields ----------------------------------------------------------

class NotPrime(OmzdError):
    """Field characteristic is not a prime number."""


class EvenCharacteristic(OmzdError):
    """Characteristic 2 rejected: the quadratic character needs odd order."""


# --- verification -----------------------------------------------------------

class ShapeMismatch(OmzdError):
    """A square matrix was required."""


# --- construction -----------------------------------------------------------

class InvalidQ(OmzdError):
    """q does not satisfy the prime-power/congruence condition required."""


class BuildRefused(OmzdError):
    """A builder refused its input: no catalog seed, an order or target
    its construction cannot reach, or an input that failed the builder's
    own check.  The planner refuses every such request first, so one
    reaching the CLI is a planner bug; the message names the case."""


# --- planning ---------------------------------------------------------------

class NonexistentTarget(OmzdError):
    """plan() was asked for an object whose existence verdict is negative."""


class NoKnownConstruction(OmzdError):
    """plan() was asked for an object no implemented construction reaches."""


class CertificationFailed(OmzdError):
    """A plan stage produced output that failed its certificate (a bug)."""


class InvalidK(OmzdError):
    """Zero count k outside [0, n]."""


# --- resources --------------------------------------------------------------

class ResourceLimit(OmzdError):
    """A request asked for an order above the planner's MAX_ORDER, or ran
    past the interpreter's recursion limit or out of memory."""


# --- serialization ----------------------------------------------------------

class NonFiniteNumber(OmzdError):
    """A NaN or infinite value cannot be written as strict JSON."""


class SchemaViolation(OmzdError):
    """Matrix file does not match the JSON schema; names the field path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
