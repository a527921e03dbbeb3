"""Existence decisions and construction routing.

Given (kind, n, k) the planner either emits a construction plan that
realizes the object or a refusal naming the result that forbids it.
Plans are immutable trees; execution evaluates them bottom-up through
the construct module and certifies every stage.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import construct
from .errors import CertificationFailed, InvalidK, NonexistentTarget
from .numerics import RealMatrix
from .verify import (
    CLAIM_CONFERENCE,
    CLAIM_NOWHERE_ZERO,
    CLAIM_OMPZD,
    CLAIM_OMZD,
    CLAIM_ORTHOGONAL,
    CLAIM_SYMMETRIC_OMZD,
    IntMatrix,
    OrthoCertificate,
    certify,
    check_drt,
)
from .gfield import prime_power_decompose

__all__ = [
    "KIND_OMZD",
    "KIND_SYMMETRIC_OMZD",
    "KIND_OMPZD",
    "ROUTES",
    "PlanNode",
    "ExistenceVerdict",
    "exists",
    "plan",
    "execute",
    "serialize_plan",
    "BELEVITCH_NOTE",
]

KIND_OMZD = "omzd"
KIND_SYMMETRIC_OMZD = "symmetric-omzd"
KIND_OMPZD = "ompzd"
_KINDS = (KIND_OMZD, KIND_SYMMETRIC_OMZD, KIND_OMPZD)

ROUTE_AUTO = "auto"
ROUTE_PREFER_DRT = "prefer-drt"
ROUTE_PREFER_RECURSIVE = "prefer-recursive"
ROUTES = (ROUTE_AUTO, ROUTE_PREFER_DRT, ROUTE_PREFER_RECURSIVE)

# Annotation only: attached to conference requests the quadratic-character
# route cannot serve.  Deliberately not implemented as a number-theory test.
BELEVITCH_NOTE = (
    "note: a symmetric conference matrix of order n requires n-1 to be a sum of "
    "two squares, so orders 22, 34 and 58 are impossible and order 66 is open"
)

_THEOREMS = {
    "seed": "catalog seed matrix",
    "paley": "an odd prime power q yields a conference matrix of order q+1",
    "combine": "unit-scale OMZD(m+1) and OMZD(n+1) splice into an OMZD(m+n)",
    "symmetric": "for even n = 2m >= 6, [[J-I, B], [B, I-J]] with B = aI + bJ is a symmetric OMZD(n)",
    "paley-drt": "a prime power q = 3 (mod 4) yields a doubly regular tournament of order q",
    "double": "a DRT(q) yields a DRT(2q+1) via its skew-Hadamard matrix",
    "omzd-from-drt": "a DRT(q) with q >= 7 yields an OMZD(q) as alpha*A + J - I",
    "reduce-zeros": "plane rotations reduce the diagonal zero count to any k <= n-2",
    "ompzd-nm1": "splicing a zero-cornered OMPZD(4,3) into an OMZD(n-2) gives an OMPZD(n,n-1)",
    "nowhere-zero": "I - (2/n)J is orthogonal with no zero entries for n >= 3",
    "kron": "a Kronecker product of orthogonal matrices is orthogonal",
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
        theorem=_THEOREMS[op],
    )


def seed_node(kind: str, n: int, k: int | None = None) -> PlanNode:
    args = (kind, n) if k is None else (kind, n, k)
    return _node("seed", args, kind=kind, n=n, k=k)


def paley_node(q: int) -> PlanNode:
    return _node("paley", (q,), kind="conference", n=q + 1)


def combine_node(a: PlanNode, b: PlanNode) -> PlanNode:
    return _node("combine", (), (a, b), kind=KIND_OMZD, n=a.n + b.n - 2)


def symmetric_node(n: int) -> PlanNode:
    return _node("symmetric", (n,), kind=KIND_SYMMETRIC_OMZD, n=n)


def paley_drt_node(q: int) -> PlanNode:
    return _node("paley-drt", (q,), kind="drt", n=q)


def double_node(child: PlanNode) -> PlanNode:
    return _node("double", (), (child,), kind="drt", n=2 * child.n + 1)


def omzd_from_drt_node(child: PlanNode, branch: str = "minus") -> PlanNode:
    return _node("omzd-from-drt", (branch,), (child,), kind=KIND_OMZD, n=child.n)


def reduce_zeros_node(child: PlanNode, target_k: int) -> PlanNode:
    return _node("reduce-zeros", (target_k,), (child,), kind=KIND_OMPZD, n=child.n, k=target_k)


def ompzd_nm1_node(n: int) -> PlanNode:
    return _node("ompzd-nm1", (n,), kind=KIND_OMPZD, n=n, k=n - 1)


def nowhere_zero_node(n: int) -> PlanNode:
    return _node("nowhere-zero", (n,), kind=KIND_OMPZD, n=n, k=0)


def kron_node(a: PlanNode, b: PlanNode) -> PlanNode:
    return _node("kron", (), (a, b), kind="multipartite", n=a.n * b.n)


_SERIAL_NAMES = {
    "seed": "Seed",
    "paley": "Paley",
    "combine": "Combine",
    "symmetric": "Symmetric",
    "paley-drt": "PaleyDRT",
    "double": "Double",
    "omzd-from-drt": "OmzdFromDrt",
    "reduce-zeros": "ReduceZeros",
    "ompzd-nm1": "OmpzdNm1",
    "nowhere-zero": "NowhereZero",
    "kron": "Kron",
}


def serialize_plan(node: PlanNode) -> str:
    """Nested text form NODE(child,...,arg,...) with children first."""
    parts = [serialize_plan(c) for c in node.children]
    parts += [str(a) for a in node.args]
    return f"{_SERIAL_NAMES[node.op]}({','.join(parts)})"


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
        if n in (2, 4, 5, 6, 7):
            return seed_node(KIND_OMZD, n)
        return combine_node(_omzd_plan(n - 2, route, branch), seed_node(KIND_OMZD, 4))
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
        return ompzd_nm1_node(n)
    # 1 <= k <= n-2
    if n == 3:
        return seed_node(KIND_OMPZD, 3, 1)
    return reduce_zeros_node(_omzd_plan(n, route, branch), k)


def plan(
    kind: str,
    n: int,
    k: int | None = None,
    route: str = ROUTE_AUTO,
    branch: str = "minus",
) -> PlanNode:
    """Deterministic construction routing for an existing object."""
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}")
    verdict = exists(kind, n, k)
    if not verdict.exists:
        raise NonexistentTarget(verdict.reason)

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

def _certify_stage(node: PlanNode, result) -> OrthoCertificate | None:
    """Certify one evaluated stage; tournaments use the exact checker."""
    if isinstance(result, IntMatrix):
        if node.kind == "drt":
            verdict = check_drt(result)
            if not verdict.passed:
                raise CertificationFailed(
                    f"stage {serialize_plan(node)} failed tournament axioms: {verdict.failures}"
                )
            return None
        # conference matrices ride through certify on the real carrier
        cert = certify(result.to_real(), CLAIM_CONFERENCE)
    else:
        claims = {
            KIND_OMZD: (CLAIM_OMZD, None),
            KIND_SYMMETRIC_OMZD: (CLAIM_SYMMETRIC_OMZD, None),
            KIND_OMPZD: (CLAIM_OMPZD, node.k),
            "multipartite": (CLAIM_ORTHOGONAL, None),
        }
        claim, k = claims[node.kind]
        if node.kind == KIND_OMPZD and node.k == 0:
            claim, k = CLAIM_NOWHERE_ZERO, None
        cert = certify(result, claim, k=k)
    if not cert.passed:
        raise CertificationFailed(
            f"stage {serialize_plan(node)} failed certification: {cert.failures}"
        )
    return cert


def _eval(node: PlanNode):
    op = node.op
    if op == "seed":
        result = construct.seed(*node.args)
    elif op == "paley":
        result = construct.paley_conference(*node.args)
    elif op == "combine":
        result = construct.combine(_eval_checked(node.children[0]), _eval_checked(node.children[1]))
    elif op == "symmetric":
        result = construct.symmetric_omzd(*node.args)
    elif op == "paley-drt":
        result = construct.paley_tournament(*node.args)
    elif op == "double":
        result = construct.double_drt(_eval_checked(node.children[0]))
    elif op == "omzd-from-drt":
        result = construct.omzd_from_drt(_eval_checked(node.children[0]), *node.args)
    elif op == "reduce-zeros":
        result = construct.reduce_zeros(_eval_checked(node.children[0]), *node.args)
    elif op == "ompzd-nm1":
        result = construct.ompzd_n_minus_1(*node.args)
    elif op == "nowhere-zero":
        result = construct.nowhere_zero_orthogonal(*node.args)
    elif op == "kron":
        result = construct.kron(_eval_checked(node.children[0]), _eval_checked(node.children[1]))
    else:
        raise ValueError(f"unknown plan op {op!r}")

    order = result.order
    if order != node.n:
        raise CertificationFailed(
            f"stage {serialize_plan(node)} produced order {order}, annotated {node.n}"
        )
    return result


def _eval_checked(node: PlanNode):
    result = _eval(node)
    _certify_stage(node, result)
    return result


def execute(node: PlanNode, res_tol: float = 1e-9) -> tuple[RealMatrix, OrthoCertificate]:
    """Evaluate a plan bottom-up, certifying every stage.

    The root must produce an orthogonal matrix (tournament nodes are
    internal stages); the returned certificate re-checks the final
    matrix at ``res_tol``.
    """
    result = _eval(node)
    if isinstance(result, IntMatrix):
        if node.kind == "drt":
            raise ValueError(
                "plan root is a tournament and carries no orthogonality "
                "certificate; run its construction directly"
            )
        result_real = result.to_real(scale_c=float(node.n - 1))
        cert = certify(result_real, CLAIM_CONFERENCE, res_tol=res_tol)
        final = result_real
    else:
        claims = {
            KIND_OMZD: (CLAIM_OMZD, None),
            KIND_SYMMETRIC_OMZD: (CLAIM_SYMMETRIC_OMZD, None),
            KIND_OMPZD: (CLAIM_OMPZD, node.k),
            "multipartite": (CLAIM_ORTHOGONAL, None),
        }
        claim, k = claims[node.kind]
        if node.kind == KIND_OMPZD and node.k == 0:
            claim, k = CLAIM_NOWHERE_ZERO, None
        cert = certify(result, claim, k=k, res_tol=res_tol)
        final = result
    if not cert.passed:
        raise CertificationFailed(
            f"plan {serialize_plan(node)} executed but failed certification: {cert.failures}"
        )
    return final, cert
