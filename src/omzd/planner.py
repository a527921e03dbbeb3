"""Existence decisions and construction routing for every gen kind.

Given a kind and its parameters the planner either emits a construction
plan that realizes the object or raises a typed refusal naming the result
that forbids it; every refusal, and the order cap ``MAX_ORDER``, is
checked before anything is built.  Plans are immutable trees; ``execute``
evaluates them bottom-up through the construct module.

Each stage is checked at most once.  A stage that feeds another is
checked by the builder that consumes it, through that builder's own input
check (``combine`` certifies its OMZD inputs, ``drt_to_skew_hadamard``
and ``omzd_from_drt`` check their DRT, ``reduce_zeros`` its orthogonal
input); the root is checked by ``execute`` with ``verify.check_claim``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

from . import construct
from .errors import (
    CertificationFailed,
    InvalidK,
    InvalidQ,
    NoKnownConstruction,
    NonexistentTarget,
    ResourceLimit,
)
from .verify import check_claim
from .gfield import prime_power_decompose

__all__ = [
    "KIND_OMZD",
    "KIND_SYMMETRIC_OMZD",
    "KIND_OMPZD",
    "KIND_CONFERENCE",
    "KIND_DRT",
    "KIND_SKEW_HADAMARD",
    "KIND_MULTIPARTITE",
    "MAX_ORDER",
    "ROUTES",
    "PlanNode",
    "ExistenceVerdict",
    "check_order",
    "check_part_count",
    "exists",
    "plan",
    "execute",
    "serialize_plan",
    "BELEVITCH_NOTE",
]

KIND_OMZD = "omzd"
KIND_SYMMETRIC_OMZD = "symmetric-omzd"
KIND_OMPZD = "ompzd"
KIND_CONFERENCE = "conference"
KIND_DRT = "drt"
KIND_SKEW_HADAMARD = "skew-hadamard"
KIND_MULTIPARTITE = "multipartite"
_KINDS = (KIND_OMZD, KIND_SYMMETRIC_OMZD, KIND_OMPZD)  # the kinds with an existence table

ROUTE_AUTO = "auto"
ROUTE_PREFER_DRT = "prefer-drt"
ROUTE_PREFER_RECURSIVE = "prefer-recursive"
ROUTES = (ROUTE_AUTO, ROUTE_PREFER_DRT, ROUTE_PREFER_RECURSIVE)

# Largest order of any planned object or graph witness.  An order-4096
# OMZD takes about 13 s and 1 GB of memory to build and writes 197 MB;
# without a cap, gen --kind drt --q 7 --t 13 would ask for 34 GB.
MAX_ORDER = 4096

# Annotation only: attached to conference requests the quadratic-character
# route cannot serve.  Deliberately not implemented as a number-theory test.
BELEVITCH_NOTE = (
    "note: a symmetric conference matrix of order n requires n-1 to be a sum of "
    "two squares, so orders 22, 34 and 58 are impossible and order 66 is open"
)


class _Op(NamedTuple):
    """A plan op: its name in serialized plans, the result that justifies
    it, and its builder over (child results..., args...).  Each builder
    looks its construct function up at call time, so a wrapper installed
    on the module is seen."""

    serial: str
    theorem: str
    build: Callable


_OPS = {
    "seed": _Op("Seed", "catalog seed matrix", lambda *args: construct.seed(*args)),
    "paley": _Op(
        "Paley",
        "an odd prime power q yields a conference matrix of order q+1",
        lambda q: construct.paley_conference(q),
    ),
    "combine": _Op(
        "Combine",
        "unit-scale OMZD(m+1) and OMZD(n+1) splice into an OMZD(m+n)",
        lambda a, b: construct.combine(a, b),
    ),
    "symmetric": _Op(
        "Symmetric",
        "for even n = 2m >= 6, [[J-I, B], [B, I-J]] with B = aI + bJ is a symmetric OMZD(n)",
        lambda n: construct.symmetric_omzd(n),
    ),
    "paley-drt": _Op(
        "PaleyDRT",
        "a prime power q = 3 (mod 4) yields a doubly regular tournament of order q",
        lambda q: construct.paley_tournament(q),
    ),
    "double": _Op(
        "Double",
        "a DRT(q) yields a DRT(2q+1) via its skew-Hadamard matrix",
        lambda t: construct.double_drt(t),
    ),
    "skew-hadamard": _Op(
        "SkewHadamard",
        "a DRT(q) is equivalent to a skew-Hadamard matrix of order q+1",
        lambda t: construct.drt_to_skew_hadamard(t),
    ),
    "omzd-from-drt": _Op(
        "OmzdFromDrt",
        "a DRT(q) with q >= 7 yields an OMZD(q) as alpha*A + J - I",
        lambda t, branch: construct.omzd_from_drt(t, branch),
    ),
    "reduce-zeros": _Op(
        "ReduceZeros",
        "plane rotations reduce the diagonal zero count to any k <= n-2",
        lambda m, k: construct.reduce_zeros(m, k),
    ),
    "ompzd-nm1": _Op(
        "OmpzdNm1",
        "splicing a zero-cornered OMPZD(4,3) into an OMZD(n-2) gives an OMPZD(n,n-1)",
        lambda omzd, n: construct.ompzd_n_minus_1(omzd),
    ),
    "nowhere-zero": _Op(
        "NowhereZero",
        "I - (2/n)J is orthogonal with no zero entries for n >= 3",
        lambda n: construct.nowhere_zero_orthogonal(n),
    ),
    "kron": _Op(
        "Kron",
        "a Kronecker product of orthogonal matrices is orthogonal",
        lambda a, b: construct.kron(a, b),
    ),
}


@dataclass(frozen=True)
class PlanNode:
    """One construction step, annotated with its expected output
    (kind, n, k) and the result that justifies it."""

    op: str
    args: tuple
    children: tuple["PlanNode", ...]
    kind: str
    n: int
    k: int | None
    theorem: str


def _node(op, args=(), children=(), *, kind, n, k=None) -> PlanNode:
    return PlanNode(
        op=op,
        args=tuple(args),
        children=tuple(children),
        kind=kind,
        n=n,
        k=k,
        theorem=_OPS[op].theorem,
    )


def seed_node(kind: str, n: int, k: int | None = None) -> PlanNode:
    args = (kind, n) if k is None else (kind, n, k)
    return _node("seed", args, kind=kind, n=n, k=k)


def paley_node(q: int) -> PlanNode:
    return _node("paley", (q,), kind=KIND_CONFERENCE, n=q + 1)


def combine_node(a: PlanNode, b: PlanNode) -> PlanNode:
    return _node("combine", (), (a, b), kind=KIND_OMZD, n=a.n + b.n - 2)


def symmetric_node(n: int) -> PlanNode:
    return _node("symmetric", (n,), kind=KIND_SYMMETRIC_OMZD, n=n)


def paley_drt_node(q: int) -> PlanNode:
    return _node("paley-drt", (q,), kind=KIND_DRT, n=q)


def double_node(child: PlanNode) -> PlanNode:
    return _node("double", (), (child,), kind=KIND_DRT, n=2 * child.n + 1)


def skew_hadamard_node(child: PlanNode) -> PlanNode:
    return _node("skew-hadamard", (), (child,), kind=KIND_SKEW_HADAMARD, n=child.n + 1)


def omzd_from_drt_node(child: PlanNode, branch: str = "minus") -> PlanNode:
    return _node("omzd-from-drt", (branch,), (child,), kind=KIND_OMZD, n=child.n)


def reduce_zeros_node(child: PlanNode, target_k: int) -> PlanNode:
    return _node("reduce-zeros", (target_k,), (child,), kind=KIND_OMPZD, n=child.n, k=target_k)


def ompzd_nm1_node(child: PlanNode) -> PlanNode:
    """OMPZD(n, n-1) from the plan of an OMZD(n-2)."""
    n = child.n + 2
    return _node("ompzd-nm1", (n,), (child,), kind=KIND_OMPZD, n=n, k=n - 1)


def nowhere_zero_node(n: int) -> PlanNode:
    return _node("nowhere-zero", (n,), kind=KIND_OMPZD, n=n, k=0)


def kron_node(a: PlanNode, b: PlanNode) -> PlanNode:
    return _node("kron", (), (a, b), kind=KIND_MULTIPARTITE, n=a.n * b.n)


def serialize_plan(node: PlanNode) -> str:
    """Nested text form NODE(child,...,arg,...) with children first."""
    parts = [serialize_plan(c) for c in node.children]
    parts += [str(a) for a in node.args]
    return f"{_OPS[node.op].serial}({','.join(parts)})"


# --------------------------------------------------------------------------
# Existence
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ExistenceVerdict:
    exists: bool
    reason: str


_OMPZD_EXCEPTIONS = {(1, 1), (2, 1), (3, 2), (3, 3)}


def exists(kind: str, n: int, k: int | None = None) -> ExistenceVerdict:
    """Closed-form existence verdicts for the three object classes."""
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")

    if kind == KIND_OMZD:
        if n in (1, 3):
            return ExistenceVerdict(False, f"omzd-existence: no OMZD({n}); OMZD(n) exists iff n is not 1 or 3")
        return ExistenceVerdict(True, f"omzd-existence: an OMZD({n}) exists (every n except 1 and 3)")

    if kind == KIND_SYMMETRIC_OMZD:
        if n % 2 != 0:
            return ExistenceVerdict(False, f"symmetric-omzd-existence: no symmetric OMZD({n}); odd order forces unequal +-sqrt(c) eigenvalue multiplicities")
        if n == 4:
            return ExistenceVerdict(False, "symmetric-omzd-order-4: a symmetric OMZD(4) does not exist")
        return ExistenceVerdict(True, f"symmetric-omzd-existence: a symmetric OMZD({n}) exists (even n, n != 4)")

    # OMPZD
    if k is None:
        raise InvalidK("ompzd existence needs a zero count k")
    if not 0 <= k <= n:
        raise InvalidK(f"k must satisfy 0 <= k <= n, got k={k}, n={n}")
    if (n, k) in _OMPZD_EXCEPTIONS:
        return ExistenceVerdict(False, f"ompzd-existence: no OMPZD({n},{k}); the exceptions are (1,1), (2,1), (3,2), (3,3)")
    return ExistenceVerdict(True, f"ompzd-existence: an OMPZD({n},{k}) exists")


# --------------------------------------------------------------------------
# Routing
# --------------------------------------------------------------------------

def _drt_route(n: int, branch: str) -> PlanNode | None:
    """OMZD(n) via tournaments when n = 2^t (q+1) - 1 for a prime power
    q = 3 (mod 4), q >= 7 (t = 0 means n itself qualifies)."""
    if n % 2 == 0 or n < 7:
        return None

    def qualifies(q: int) -> bool:
        if q < 7 or q % 4 != 3:
            return False
        pk = prime_power_decompose(q)
        return pk is not None and pk[0] != 2

    if qualifies(n):
        return omzd_from_drt_node(paley_drt_node(n), branch)
    t = 1
    while (1 << t) <= n + 1:
        if (n + 1) % (1 << t) == 0:
            q = (n + 1) // (1 << t) - 1
            if qualifies(q):
                node = paley_drt_node(q)
                for _ in range(t):
                    node = double_node(node)
                return omzd_from_drt_node(node, branch)
        t += 1
    return None


def _omzd_plan(n: int, route: str, branch: str) -> PlanNode:
    if route == ROUTE_PREFER_DRT:
        node = _drt_route(n, branch)
        if node is not None:
            return node
        route = ROUTE_AUTO
    if route == ROUTE_PREFER_RECURSIVE:
        # a balanced splice tree of catalog seeds: for n >= 8 both halves
        # a and n + 2 - a are >= 5 (never the missing order 3), and the
        # depth is about log2 n
        if n in (2, 4, 5, 6, 7):
            return seed_node(KIND_OMZD, n)
        a = (n + 2) // 2
        return combine_node(_omzd_plan(a, route, branch), _omzd_plan(n + 2 - a, route, branch))
    # auto: the closed-form symmetric construction for even n.  Odd n
    # takes one splice, whatever its size: a symmetric OMZD(n-3) (even
    # order, never 4 for n >= 11) with the OMZD(5) seed, so the plan has
    # depth 2 and every stage is one matrix of order at most n.  n = 9
    # keeps its splice of the 7 and 4 seeds; 5 and 7 are seeds.
    if n % 2 == 0:
        if n in (2, 4):
            return seed_node(KIND_OMZD, n)
        return symmetric_node(n)
    if n in (5, 7):
        return seed_node(KIND_OMZD, n)
    if n == 9:
        return combine_node(seed_node(KIND_OMZD, 7), seed_node(KIND_OMZD, 4))
    return combine_node(symmetric_node(n - 3), seed_node(KIND_OMZD, 5))


def _ompzd_plan(n: int, k: int, route: str, branch: str) -> PlanNode:
    if k == n:
        return _omzd_plan(n, route, branch)
    if k == 0:
        return nowhere_zero_node(n)
    if k == n - 1:
        if n == 4:
            return seed_node(KIND_OMPZD, 4, 3)
        if n == 5:
            return seed_node(KIND_OMPZD, 5, 4)
        return ompzd_nm1_node(_omzd_plan(n - 2, ROUTE_AUTO, branch))
    # 1 <= k <= n-2
    if n == 3:
        return seed_node(KIND_OMPZD, 3, 1)
    return reduce_zeros_node(_omzd_plan(n, route, branch), k)


def check_order(n: int) -> None:
    """Raise ResourceLimit when an order is above MAX_ORDER."""
    if n > MAX_ORDER:
        raise ResourceLimit(f"order {n} exceeds MAX_ORDER = {MAX_ORDER}")


def check_part_count(m: int) -> None:
    """Raise ValueError when a multipartite part count is below 2."""
    if m < 2:
        raise ValueError(f"part count must be >= 2, got {m}")


def _paley_plan(q: int) -> PlanNode:
    node = paley_node(q)
    check_order(node.n)
    try:
        construct.check_paley_q(q)
    except InvalidQ as e:
        raise InvalidQ(f"{e}; {BELEVITCH_NOTE}") from None
    return node


def _tournament_plan(q: int, t: int) -> PlanNode:
    """Double^t(PaleyDRT(q)); the order is checked after every doubling,
    so a huge t stops at the cap."""
    if t < 0:
        raise ValueError(f"doubling count t must be >= 0, got {t}")
    node = paley_drt_node(q)
    check_order(node.n)
    construct.check_paley_q(q, tournament=True)
    for _ in range(t):
        node = double_node(node)
        check_order(node.n)
    return node


def _multipartite_plan(n: int, m: int) -> PlanNode:
    """Kron(symmetric OMZD(m), nowhere-zero(n)): m parts of size n."""
    check_part_count(m)
    if m % 2 != 0 or m == 4:
        raise NoKnownConstruction("no construction is known for an odd part count or exactly 4 parts")
    check_order(n * m)
    factor = seed_node(KIND_OMZD, 2) if m == 2 else symmetric_node(m)
    return kron_node(factor, nowhere_zero_node(n))


def plan(
    kind: str,
    n: int | None = None,
    k: int | None = None,
    route: str = ROUTE_AUTO,
    branch: str = "minus",
    *,
    q: int | None = None,
    t: int = 0,
    m: int | None = None,
) -> PlanNode:
    """Deterministic construction routing for every gen kind.

    The OMZD kinds take the order n (and the zero count k for ompzd);
    conference, drt and skew-hadamard take the prime power q and t
    doublings; multipartite takes the part size n and the part count m.
    Refusals (NonexistentTarget, InvalidQ, NoKnownConstruction, InvalidK),
    ValueError for a negative t or a part count below 2, and
    ResourceLimit for an order above MAX_ORDER are raised here, before
    anything is built.
    """
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}")
    if kind == KIND_CONFERENCE:
        return _paley_plan(q)
    if kind == KIND_DRT:
        return _tournament_plan(q, t)
    if kind == KIND_SKEW_HADAMARD:
        # a DRT order is odd and at most MAX_ORDER, so one more is too
        return skew_hadamard_node(_tournament_plan(q, t))
    if kind == KIND_MULTIPARTITE:
        return _multipartite_plan(n, m)

    verdict = exists(kind, n, k)
    if not verdict.exists:
        raise NonexistentTarget(verdict.reason)
    check_order(n)
    if kind == KIND_OMZD:
        return _omzd_plan(n, route, branch)
    if kind == KIND_SYMMETRIC_OMZD:
        if n == 2:
            return seed_node(KIND_OMZD, 2)
        return symmetric_node(n)
    return _ompzd_plan(n, k, route, branch)


# --------------------------------------------------------------------------
# Execution
# --------------------------------------------------------------------------

def _eval(node: PlanNode):
    """Build a stage from its children's results, with no certificate:
    each child is checked, if at all, by the builder it feeds."""
    inputs = [_eval(child) for child in node.children]
    result = _OPS[node.op].build(*inputs, *node.args)
    if result.order != node.n:
        raise CertificationFailed(
            f"stage {serialize_plan(node)} produced order {result.order}, annotated {node.n}"
        )
    return result


def _claim_parameters(node: PlanNode) -> dict:
    """The root's claim parameters: its zero count, or for a Kronecker
    witness Kron(factor, base) the part size and the part count."""
    if node.kind == KIND_MULTIPARTITE:
        factor, base = node.children
        return {"part_size": base.n, "parts": factor.n}
    return {"k": node.k}


def execute(node: PlanNode):
    """Evaluate a plan bottom-up and check its root once, at the default
    tolerances of ``verify.check_claim``, against the claim of its kind.

    Returns the root RealMatrix as its builder made it, and its verdict,
    an OrthoCertificate, DrtVerdict or SkewHadamardVerdict.  The builder
    sets the scale of an integer root: q for a conference matrix, the
    order for a skew-Hadamard matrix, none for a tournament.  Raises
    CertificationFailed when the root fails.
    """
    result = _eval(node)
    verdict = check_claim(node.kind, result, **_claim_parameters(node))
    if not verdict.passed:
        raise CertificationFailed(
            f"plan {serialize_plan(node)} executed but failed certification: {verdict.failures}"
        )
    return result, verdict
