"""Existence decisions and construction routing for every gen kind.

Given a kind and its parameters the planner either emits a construction
plan that realizes the object or raises a typed refusal naming the result
that forbids it; every refusal, and the order cap ``MAX_ORDER``, is
checked before anything is built.  Plans are immutable trees of
``PlanNode``; ``build`` evaluates them bottom-up through the construct
module.  Each ``_OPS`` row states an op's serial name, theorem, output
(kind, n, k) and builder, and ``_node`` makes every node from its row.
A node's kind is the claim its output is certified against, one of
``verify.CLAIMS``.

A plan is certified once, at its root, by ``execute`` with
``verify.certify`` (a graph witness made from it by ``certify_graph``):
each op maps orthogonal inputs to an orthogonal output, so that one run
of the certificate core completes every stage's certificate, given the
O(n²) preconditions each builder checks of its inputs and states the
implied certificate of, ``omzd_from_drt`` included (the OMZD check of
its output implies its tournament's DRT certificate up to
``MAX_ORDER``), so no builder runs the core; ``kron`` checks nothing,
since the multipartite root claim covers its factors.
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
from .verify import (
    CLAIM_CONFERENCE,
    CLAIM_DRT,
    CLAIM_MULTIPARTITE,
    CLAIM_OMPZD,
    CLAIM_OMZD,
    CLAIM_SKEW_HADAMARD,
    CLAIM_SYMMETRIC_OMZD,
    certify,
)

__all__ = [
    "MAX_ORDER",
    "ROUTES",
    "BRANCHES",
    "PlanNode",
    "ExistenceVerdict",
    "check_order",
    "check_part_size",
    "check_part_count",
    "exists",
    "plan",
    "build",
    "execute",
    "serialize_plan",
    "BELEVITCH_NOTE",
]

_KINDS = (CLAIM_OMZD, CLAIM_SYMMETRIC_OMZD, CLAIM_OMPZD)  # the kinds with an existence table

ROUTE_AUTO = "auto"
ROUTE_PREFER_DRT = "prefer-drt"
ROUTE_PREFER_RECURSIVE = "prefer-recursive"
ROUTES = (ROUTE_AUTO, ROUTE_PREFER_DRT, ROUTE_PREFER_RECURSIVE)
BRANCHES = ("plus", "minus")  # the sign of omzd-from-drt's alpha

# Largest order of any planned object or graph witness.  gen --kind omzd
# --n 4096 takes about 3 s and 370 MB peak RSS in one process (one BLAS
# thread, a shared 2-CPU host) and writes 197 MB; without a cap,
# gen --kind drt --q 7 --t 13 would ask for 34 GB.
MAX_ORDER = 4096

# Annotation only: attached to conference requests the quadratic-character
# route cannot serve.  Deliberately not implemented as a number-theory test.
BELEVITCH_NOTE = (
    "note: a symmetric conference matrix of order n requires n-1 to be a sum of "
    "two squares, so orders 22, 34 and 58 are impossible and order 66 is open"
)


class _Op(NamedTuple):
    """A plan op: its name in serialized plans, the result that justifies
    it, the (kind, n, k) it outputs over (child nodes..., args...), and its
    builder over (child results..., args...).  Each builder looks its
    construct function up at call time, so a wrapper installed on the
    module is seen."""

    serial: str
    theorem: str
    shape: Callable
    build: Callable


_OPS = {
    "seed": _Op(
        "Seed",
        "catalog seed matrix",
        lambda kind, n, k=None: (kind, n, k),
        lambda *args: construct.seed(*args),
    ),
    "paley": _Op(
        "Paley",
        "an odd prime power q yields a conference matrix of order q+1",
        lambda q: (CLAIM_CONFERENCE, q + 1, None),
        lambda q: construct.paley_conference(q),
    ),
    "combine": _Op(
        "Combine",
        "unit-scale OMZD(m+1) and OMZD(n+1) splice into an OMZD(m+n)",
        lambda a, b: (CLAIM_OMZD, a.n + b.n - 2, None),
        lambda a, b: construct.combine(a, b),
    ),
    "symmetric": _Op(
        "Symmetric",
        "for even n = 2m >= 6, [[J-I, B], [B, I-J]] with B = aI + bJ is a symmetric OMZD(n), "
        "and so is [[0, 1], [1, 0]] at n = 2",
        lambda n: (CLAIM_SYMMETRIC_OMZD, n, None),
        lambda n: construct.symmetric_omzd(n),
    ),
    "paley-drt": _Op(
        "PaleyDRT",
        "a prime power q = 3 (mod 4) yields a doubly regular tournament of order q",
        lambda q: (CLAIM_DRT, q, None),
        lambda q: construct.paley_tournament(q),
    ),
    "double": _Op(
        "Double",
        "a DRT(q) yields a DRT(2q+1) via its skew-Hadamard matrix",
        lambda t: (CLAIM_DRT, 2 * t.n + 1, None),
        lambda t: construct.double_drt(t),
    ),
    "skew-hadamard": _Op(
        "SkewHadamard",
        "a DRT(q) is equivalent to a skew-Hadamard matrix of order q+1",
        lambda t: (CLAIM_SKEW_HADAMARD, t.n + 1, None),
        lambda t: construct.drt_to_skew_hadamard(t),
    ),
    "omzd-from-drt": _Op(
        "OmzdFromDrt",
        "a DRT(q) with q >= 7 yields an OMZD(q) as alpha*A + J - I",
        lambda t, branch: (CLAIM_OMZD, t.n, None),
        lambda t, branch: construct.omzd_from_drt(t, branch),
    ),
    "reduce-zeros": _Op(
        "ReduceZeros",
        "plane rotations reduce the diagonal zero count to any k <= n-2",
        lambda m, k: (CLAIM_OMPZD, m.n, k),
        lambda m, k: construct.reduce_zeros(m, k),
    ),
    "ompzd-nm1": _Op(  # its arg n is the order of its OMZD(n-2) child plus 2
        "OmpzdNm1",
        "splicing a zero-cornered OMPZD(4,3) into an OMZD(n-2) gives an OMPZD(n,n-1)",
        lambda omzd, n: (CLAIM_OMPZD, n, n - 1),
        lambda omzd, n: construct.ompzd_n_minus_1(omzd),
    ),
    "nowhere-zero": _Op(
        "NowhereZero",
        "I - (2/n)J is orthogonal with no zero entries for n >= 3",
        lambda n: (CLAIM_OMPZD, n, 0),
        lambda n: construct.nowhere_zero_orthogonal(n),
    ),
    "kron": _Op(
        "Kron",
        "a Kronecker product of orthogonal matrices is orthogonal",
        lambda a, b: (CLAIM_MULTIPARTITE, a.n * b.n, None),
        lambda a, b: construct.kron(a, b),
    ),
}


@dataclass(frozen=True)
class PlanNode:
    """One construction step, annotated with its expected output
    (kind, n, k); ``theorem`` is the result that justifies its op."""

    op: str
    args: tuple
    children: tuple["PlanNode", ...]
    kind: str
    n: int
    k: int | None

    @property
    def theorem(self) -> str:
        return _OPS[self.op].theorem


def _node(op: str, *children: PlanNode, args: tuple = ()) -> PlanNode:
    """The node of ``op`` over ``children`` and ``args``, with the output
    its ``_OPS`` row states."""
    return PlanNode(op, args, children, *_OPS[op].shape(*children, *args))


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

    if kind == CLAIM_OMZD:
        if n in (1, 3):
            return ExistenceVerdict(False, f"omzd-existence: no OMZD({n}); OMZD(n) exists iff n is not 1 or 3")
        return ExistenceVerdict(True, f"omzd-existence: an OMZD({n}) exists (every n except 1 and 3)")

    if kind == CLAIM_SYMMETRIC_OMZD:
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
    for t in range((n + 1).bit_length()):
        q = ((n + 1) >> t) - 1
        if (n + 1) % (1 << t) != 0 or q < 7:
            continue
        try:
            construct.check_paley_q(q, tournament=True)
        except InvalidQ:
            continue
        return _node("omzd-from-drt", _tournament_plan(q, t), args=(branch,))
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
            return _node("seed", args=(CLAIM_OMZD, n))
        a = (n + 2) // 2
        return _node("combine", _omzd_plan(a, route, branch), _omzd_plan(n + 2 - a, route, branch))
    # auto: the closed-form symmetric construction for even n.  Odd n
    # takes one splice, whatever its size: a symmetric OMZD(n-3) (even
    # order, never 4 for n >= 11) with the OMZD(5) seed, so the plan has
    # depth 2 and every stage is one matrix of order at most n.  n = 9
    # keeps its splice of the 7 and 4 seeds; 5 and 7 are seeds.
    if n % 2 == 0:
        if n in (2, 4):
            return _node("seed", args=(CLAIM_OMZD, n))
        return _node("symmetric", args=(n,))
    if n in (5, 7):
        return _node("seed", args=(CLAIM_OMZD, n))
    if n == 9:
        return _node("combine", _node("seed", args=(CLAIM_OMZD, 7)), _node("seed", args=(CLAIM_OMZD, 4)))
    return _node("combine", _node("symmetric", args=(n - 3,)), _node("seed", args=(CLAIM_OMZD, 5)))


def _ompzd_plan(n: int, k: int, route: str, branch: str) -> PlanNode:
    if k == n:
        return _omzd_plan(n, route, branch)
    if k == 0:
        return _node("nowhere-zero", args=(n,))
    if k == n - 1:
        if n == 4:
            return _node("seed", args=(CLAIM_OMPZD, 4, 3))
        if n == 5:
            return _node("seed", args=(CLAIM_OMPZD, 5, 4))
        return _node("ompzd-nm1", _omzd_plan(n - 2, ROUTE_AUTO, branch), args=(n,))
    # 1 <= k <= n-2
    if n == 3:
        return _node("seed", args=(CLAIM_OMPZD, 3, 1))
    return _node("reduce-zeros", _omzd_plan(n, route, branch), args=(k,))


def check_order(n: int) -> None:
    """Raise ResourceLimit when an order is above MAX_ORDER."""
    if n > MAX_ORDER:
        raise ResourceLimit(f"order {n} exceeds MAX_ORDER = {MAX_ORDER}")


def check_part_size(n: int) -> None:
    """Raise ValueError when a multipartite part size is below 1."""
    if n < 1:
        raise ValueError(f"part size must be >= 1, got {n}")


def check_part_count(m: int) -> None:
    """Raise ValueError when a multipartite part count is below 2."""
    if m < 2:
        raise ValueError(f"part count must be >= 2, got {m}")


def _check_q(q: int) -> None:
    """Raise ValueError when a prime power q is below 2, a usage error
    rather than a q the prime-power test refuses."""
    if q < 2:
        raise ValueError(f"prime power q must be >= 2, got {q}")


def _paley_plan(q: int) -> PlanNode:
    _check_q(q)
    node = _node("paley", args=(q,))
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
    _check_q(q)
    node = _node("paley-drt", args=(q,))
    check_order(node.n)
    construct.check_paley_q(q, tournament=True)
    for _ in range(t):
        node = _node("double", node)
        check_order(node.n)
    return node


def _multipartite_plan(n: int, m: int) -> PlanNode:
    """Kron(symmetric OMZD(m), nowhere-zero(n)): m parts of size n.  With
    no symmetric OMZD(m), parts of size 1, whose blocks are the diagonal,
    are NonexistentTarget, and larger parts NoKnownConstruction."""
    check_part_size(n)
    check_part_count(m)
    verdict = exists(CLAIM_SYMMETRIC_OMZD, m)
    if not verdict.exists:
        if n == 1:
            raise NonexistentTarget(f"parts of size 1 make a multipartite matrix a symmetric OMZD({m}); {verdict.reason}")
        raise NoKnownConstruction(f"no construction is known without a symmetric OMZD({m}) factor; {verdict.reason}")
    check_order(n * m)
    return _node("kron", _node("symmetric", args=(m,)), _node("nowhere-zero", args=(n,)))


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
    ValueError for an unknown route or branch, a q below 2, a negative t,
    a part size below 1 or a part count below 2, and ResourceLimit for an
    order above MAX_ORDER are raised here, before anything is built.
    """
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}")
    if branch not in BRANCHES:
        raise ValueError(f"unknown branch {branch!r}")
    if kind == CLAIM_CONFERENCE:
        return _paley_plan(q)
    if kind == CLAIM_DRT:
        return _tournament_plan(q, t)
    if kind == CLAIM_SKEW_HADAMARD:
        # a DRT order is odd and at most MAX_ORDER, so one more is too
        return _node("skew-hadamard", _tournament_plan(q, t))
    if kind == CLAIM_MULTIPARTITE:
        return _multipartite_plan(n, m)

    verdict = exists(kind, n, k)
    if not verdict.exists:
        raise NonexistentTarget(verdict.reason)
    check_order(n)
    if kind == CLAIM_OMZD:
        return _omzd_plan(n, route, branch)
    if kind == CLAIM_SYMMETRIC_OMZD:
        return _node("symmetric", args=(n,))
    return _ompzd_plan(n, k, route, branch)


# --------------------------------------------------------------------------
# Execution
# --------------------------------------------------------------------------

def build(node: PlanNode):
    """Evaluate a plan bottom-up and return its root, unchecked: the
    caller's check of the root completes every stage's certificate."""
    inputs = [build(child) for child in node.children]
    result = _OPS[node.op].build(*inputs, *node.args)
    if result.order != node.n:
        raise CertificationFailed(
            f"stage {serialize_plan(node)} produced order {result.order}, annotated {node.n}"
        )
    return result


def execute(node: PlanNode):
    """``build`` a plan and check its root once, at the default tolerances
    of ``verify.certify``, against the claim of its kind.

    Returns the root RealMatrix as its builder made it, and its
    OrthoCertificate; a tournament's is that of its skew-Hadamard matrix
    (``verify.check_drt``).  The builder sets the scale of an integer
    root: q for a conference matrix, the order for a skew-Hadamard
    matrix, none for a tournament.  Raises CertificationFailed when the
    root fails, a declared scale that is not its recovered c included.
    """
    result = build(node)
    if node.kind == CLAIM_MULTIPARTITE:  # Kron(factor, base): factor.n parts of size base.n
        factor, base = node.children
        claim = {"part_size": base.n, "parts": factor.n}
    else:
        claim = {"k": node.k}
    verdict = certify(result, node.kind, **claim)
    if not verdict.passed:
        raise CertificationFailed(
            f"plan {serialize_plan(node)} executed but failed certification: {verdict.failures}"
        )
    return result, verdict
