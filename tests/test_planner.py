"""Existence tables, routing, plan serialization, and execution."""

import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from omzd import planner, verify
from omzd.errors import (
    InvalidK,
    InvalidQ,
    NoKnownConstruction,
    NonexistentTarget,
    OmzdError,
    ResourceLimit,
)
from omzd.gfield import prime_power_decompose
from omzd.planner import execute, exists, plan, serialize_plan


class TestExists:
    def test_omzd_table(self):
        for n in range(1, 65):
            verdict = exists("omzd", n)
            assert verdict.exists == (n not in (1, 3)), n

    def test_symmetric_table(self):
        for n in range(1, 65):
            verdict = exists("symmetric-omzd", n)
            assert verdict.exists == (n % 2 == 0 and n != 4), n

    def test_ompzd_table(self):
        refused = {(1, 1), (2, 1), (3, 2), (3, 3)}
        for n in range(1, 33):
            for k in range(0, n + 1):
                verdict = exists("ompzd", n, k)
                assert verdict.exists == ((n, k) not in refused), (n, k)

    def test_reasons_name_the_result(self):
        assert "omzd-existence" in exists("omzd", 3).reason
        assert "symmetric-omzd-order-4" in exists("symmetric-omzd", 4).reason
        assert "ompzd-existence" in exists("ompzd", 3, 2).reason

    def test_invalid_k(self):
        with pytest.raises(InvalidK):
            exists("ompzd", 4, 5)
        with pytest.raises(InvalidK):
            exists("ompzd", 4, -1)
        with pytest.raises(InvalidK):
            exists("ompzd", 4)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            exists("hadamard", 4)


class TestPlanRouting:
    def test_omzd9_auto(self):
        assert serialize_plan(plan("omzd", 9)) == "Combine(Seed(omzd,7),Seed(omzd,4))"

    def test_omzd15_prefer_drt(self):
        node = plan("omzd", 15, route="prefer-drt")
        assert serialize_plan(node) == "OmzdFromDrt(Double(PaleyDRT(7)),minus)"

    def test_omzd7_prefer_drt_direct(self):
        assert serialize_plan(plan("omzd", 7, route="prefer-drt")) == "OmzdFromDrt(PaleyDRT(7),minus)"

    def test_prefer_drt_falls_back(self):
        # 9 is a prime power but 9 = 1 mod 4, and 9 != 2^t(q+1)-1 for a
        # usable q, so the route falls back to the splice recursion
        assert serialize_plan(plan("omzd", 9, route="prefer-drt")) == serialize_plan(plan("omzd", 9))

    def test_even_auto_uses_symmetric(self):
        assert serialize_plan(plan("omzd", 12)) == "Symmetric(12)"
        assert serialize_plan(plan("omzd", 2)) == "Seed(omzd,2)"
        assert serialize_plan(plan("omzd", 4)) == "Seed(omzd,4)"

    def test_prefer_recursive(self):
        assert serialize_plan(plan("omzd", 10, route="prefer-recursive")) == (
            "Combine(Seed(omzd,6),Seed(omzd,6))"
        )

    def test_ompzd_routes(self):
        assert serialize_plan(plan("ompzd", 6, 5)) == "OmpzdNm1(Seed(omzd,4),6)"
        assert serialize_plan(plan("ompzd", 6, 0)) == "NowhereZero(6)"
        assert serialize_plan(plan("ompzd", 6, 6)) == "Symmetric(6)"
        assert serialize_plan(plan("ompzd", 6, 3)) == "ReduceZeros(Symmetric(6),3)"
        assert serialize_plan(plan("ompzd", 4, 3)) == "Seed(ompzd,4,3)"
        assert serialize_plan(plan("ompzd", 5, 4)) == "Seed(ompzd,5,4)"
        assert serialize_plan(plan("ompzd", 3, 1)) == "Seed(ompzd,3,1)"

    def test_symmetric_kind(self):
        assert serialize_plan(plan("symmetric-omzd", 8)) == "Symmetric(8)"
        assert serialize_plan(plan("symmetric-omzd", 2)) == "Symmetric(2)"

    def test_branch_plus(self):
        node = plan("omzd", 7, route="prefer-drt", branch="plus")
        assert serialize_plan(node) == "OmzdFromDrt(PaleyDRT(7),plus)"

    def test_nonexistent_targets(self):
        for args in [("omzd", 1), ("omzd", 3), ("symmetric-omzd", 4), ("symmetric-omzd", 7)]:
            with pytest.raises(NonexistentTarget):
                plan(*args)
        with pytest.raises(NonexistentTarget):
            plan("ompzd", 3, 2)

    def test_bad_route(self):
        with pytest.raises(ValueError):
            plan("omzd", 9, route="fastest")

    @pytest.mark.parametrize("n", [15, 16], ids=["drt-route", "symmetric-route"])
    def test_bad_branch(self, n):
        # refused before anything is built, whether or not the plan would
        # have reached the OMZD-from-DRT stage that reads the branch
        with pytest.raises(ValueError, match="^unknown branch 'sideways'$"):
            plan("omzd", n, route="prefer-drt", branch="sideways")


class TestExecute:
    def test_omzd11(self):
        matrix, cert = execute(plan("omzd", 11))
        assert matrix.order == 11
        assert cert.passed
        assert cert.max_residual <= 1e-9 * cert.scale_c * 11

    def test_symmetric8_matches_closed_form(self):
        import math

        matrix, cert = execute(plan("symmetric-omzd", 8))
        assert cert.passed and cert.symmetry == "symmetric"
        alpha, beta = math.sqrt(15.0), (math.sqrt(7.0) - math.sqrt(15.0)) / 4.0
        assert abs(matrix.data[0, 4] - (alpha + beta)) <= 1e-12
        assert abs(matrix.data[1, 4] - beta) <= 1e-12

    def test_seed_omzd2(self):
        matrix, cert = execute(planner._node("seed", args=("omzd", 2)))
        assert matrix.data.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert cert.passed

    def test_drt_route_end_to_end(self):
        matrix, cert = execute(plan("omzd", 15, route="prefer-drt"))
        assert matrix.order == 15
        assert cert.passed

    def test_conference_root(self):
        matrix, cert = execute(planner._node("paley", args=(5,)))
        assert matrix.order == 6
        assert cert.passed and cert.scale_c == 5.0

    def test_tournament_root_certified(self):
        matrix, verdict = execute(planner._node("paley-drt", args=(7,)))
        assert verdict.passed and verdict.claim == "DRT(7)"
        a = matrix.data.astype(np.int64)
        assert np.array_equal(a @ a.T, (3 - 1) * np.eye(7, dtype=np.int64) + 1)  # k = 3, lambda = 1
        assert matrix.order == 7 and matrix.scale_c is None

    def test_order_bookkeeping(self):
        # every subtree annotation matches the produced order
        node = plan("omzd", 13)

        def walk(nd):
            yield nd
            for ch in nd.children:
                yield from walk(ch)

        for sub in walk(node):
            if sub.kind == "drt":
                continue
            matrix, _ = execute(sub)
            assert matrix.order == sub.n, serialize_plan(sub)

    @pytest.mark.parametrize("n", list(range(4, 21)))
    def test_soundness_omzd(self, n):
        if n == 4 or n != 3:
            if exists("omzd", n).exists:
                _, cert = execute(plan("omzd", n))
                assert cert.passed

    @pytest.mark.parametrize("n,k", [(4, 1), (5, 2), (6, 4), (7, 6), (8, 0), (9, 9), (10, 5)])
    def test_soundness_ompzd(self, n, k):
        _, cert = execute(plan("ompzd", n, k))
        assert cert.passed

    def test_execution_deterministic(self):
        a, _ = execute(plan("ompzd", 9, 4))
        b, _ = execute(plan("ompzd", 9, 4))
        assert np.array_equal(a.data, b.data)


def _depth(node) -> int:
    return 1 + max((_depth(ch) for ch in node.children), default=0)


def _required_nonzero_margin(matrix) -> float:
    """min |entry| over the off-diagonal and nonzero diagonal entries, over max|entry|."""
    a = np.abs(matrix.data)
    diag = np.diag(a)
    required = np.concatenate((a[~np.eye(len(a), dtype=bool)], diag[diag > 1e-12 * a.max()]))
    return float(required.min() / a.max())


class TestBalancedRecursiveRoute:
    def test_order_2001_executes(self):
        # a balanced splice tree: depth about log2 n, not one Combine per two orders
        node = plan("omzd", 2001, route="prefer-recursive")
        assert _depth(node) <= 11
        matrix, cert = execute(node)
        assert cert.passed and matrix.order == 2001


class TestFlatOddRoute:
    @pytest.mark.parametrize("n", [11, 13, 51, 401, 2001])
    def test_odd_omzd_is_one_splice(self, n):
        node = plan("omzd", n)
        assert _depth(node) == 2
        assert serialize_plan(node) == f"Combine(Symmetric({n - 3}),Seed(omzd,5))"

    @pytest.mark.parametrize("args", [("omzd", 2001), ("ompzd", 1201, 600)])
    def test_large_orders_execute(self, args):
        matrix, cert = execute(plan(*args))
        assert cert.passed and matrix.order == args[1]

    @pytest.mark.parametrize("n,k", [(243, 26), (220, 73), (44, 37)])
    def test_ompzd_margin(self, n, k):
        matrix, _ = execute(plan("ompzd", n, k))
        assert _required_nonzero_margin(matrix) >= 1e-5


class TestSerializeRoundTripShapes:
    def test_nested_text_form(self):
        node = plan("ompzd", 11, 6)
        text = serialize_plan(node)
        assert text == "ReduceZeros(Combine(Symmetric(8),Seed(omzd,5)),6)"

    def test_theorem_annotations_present(self):
        node = plan("omzd", 15, route="prefer-drt")
        assert node.theorem
        assert all(child.theorem for child in node.children)


def _plan_fingerprint(node):
    return (
        serialize_plan(node), node.kind, node.n, node.k, node.theorem,
        tuple(_plan_fingerprint(child) for child in node.children),
    )


def _plan_grid():
    for kind in ("omzd", "symmetric-omzd"):
        for n in range(1, 301):
            for route in planner.ROUTES:
                for branch in ("minus", "plus"):
                    yield (kind, n), {"route": route, "branch": branch}
    for n in range(1, 61):
        for k in range(n + 1):
            for route in planner.ROUTES:
                yield ("ompzd", n, k), {"route": route}
    for kind in ("conference", "drt", "skew-hadamard"):
        for q in range(400):
            for t in range(3):
                yield (kind,), {"q": q, "t": t}
    for n in range(30):
        for m in range(12):
            yield ("multipartite", n), {"m": m}


class TestPlanGridPin:
    def test_every_plan_in_the_grid(self):
        """Every plan, or refusal, over the grid hashes as pinned: its
        serial form, kind, n, k and theorem at every node.  Since q < 2
        became a ValueError, the 18 Paley rows of q = 0 and 1 hash that
        refusal where they hashed InvalidQ.  Since the multipartite plan
        reads the symmetric-OMZD table, its 174 rows of a part count 3,
        4, 5, 7, 9 or 11 hash that table's refusal: NonexistentTarget for
        the 6 of part size 1, and a NoKnownConstruction with the new text
        for the 168 of part size >= 2.  No other row moved."""
        digest = hashlib.sha256()
        count = 0
        for args, kwargs in _plan_grid():
            try:
                out = _plan_fingerprint(plan(*args, **kwargs))
            except (OmzdError, ValueError) as e:
                out = (type(e).__name__, str(e))
            digest.update(repr((args, kwargs, out)).encode())
            count += 1
        assert count == 13230
        assert digest.hexdigest() == (
            "e26eb5a7fec7398fc541322a280fb03cf15249ee8d75ba909b6ed72fe63ba455"
        )


class TestEveryGenKindPlanned:
    def test_paley_kinds(self):
        assert serialize_plan(plan("conference", q=27)) == "Paley(27)"
        assert serialize_plan(plan("drt", q=43, t=1)) == "Double(PaleyDRT(43))"
        assert serialize_plan(plan("drt", q=7, t=0)) == "PaleyDRT(7)"
        assert serialize_plan(plan("skew-hadamard", q=7, t=1)) == "SkewHadamard(Double(PaleyDRT(7)))"

    def test_multipartite(self):
        assert serialize_plan(plan("multipartite", 5, m=6)) == "Kron(Symmetric(6),NowhereZero(5))"
        assert serialize_plan(plan("multipartite", 3, m=2)) == "Kron(Symmetric(2),NowhereZero(3))"

    def test_refusals_at_plan_time(self):
        with pytest.raises(InvalidQ, match="not an odd prime power; note: a symmetric conference"):
            plan("conference", q=21)
        with pytest.raises(InvalidQ, match="not 3 mod 4"):
            plan("drt", q=13)
        with pytest.raises(InvalidQ, match="not an odd prime power"):
            plan("skew-hadamard", q=2, t=1)
        for kind in ("conference", "drt", "skew-hadamard"):
            for q in (1, 0, -3):
                with pytest.raises(ValueError, match=f"^prime power q must be >= 2, got {q}$"):
                    plan(kind, q=q)
        # a part count with no symmetric OMZD(m) is refused by that table:
        # parts of size 1 make the claim a symmetric OMZD(m)'s, so none
        # exists; for larger parts no construction is known
        for m in (3, 4, 5):
            reason = exists("symmetric-omzd", m).reason
            with pytest.raises(NonexistentTarget) as refusal:
                plan("multipartite", 1, m=m)
            assert str(refusal.value) == (
                f"parts of size 1 make a multipartite matrix a symmetric OMZD({m}); {reason}"
            )
            with pytest.raises(NoKnownConstruction) as refusal:
                plan("multipartite", 2, m=m)
            assert str(refusal.value) == (
                f"no construction is known without a symmetric OMZD({m}) factor; {reason}"
            )

    def test_parameter_ranges_at_plan_time(self):
        for kind in ("drt", "skew-hadamard"):
            with pytest.raises(ValueError, match="doubling count t must be >= 0, got -1"):
                plan(kind, q=7, t=-1)
        for m in (1, 0, -2):
            with pytest.raises(ValueError, match=f"part count must be >= 2, got {m}"):
                plan("multipartite", 3, m=m)
        for n in (0, -3):
            with pytest.raises(ValueError, match=f"part size must be >= 1, got {n}"):
                plan("multipartite", n, m=6)

    def test_skew_hadamard_root(self):
        matrix, verdict = execute(plan("skew-hadamard", q=7, t=1))
        assert verdict.passed and verdict.claim == "SkewHadamard(16)"
        assert matrix.order == 16 and matrix.scale_c == 16.0

    def test_multipartite_root(self):
        matrix, cert = execute(plan("multipartite", 3, m=6))
        assert cert.passed and cert.claim == "Multipartite(3,6)"
        assert matrix.order == 18

    def test_ompzd_n_minus_1_child_is_the_auto_route(self):
        for route in planner.ROUTES:
            node = plan("ompzd", 11, 10, route=route)
            assert serialize_plan(node) == "OmpzdNm1(Combine(Seed(omzd,7),Seed(omzd,4)),11)"

    def test_ompzd_8_7_margin(self):
        # the OMZD(6) child is Symmetric(6), not the order-6 conference seed
        matrix, cert = execute(plan("ompzd", 8, 7))
        assert serialize_plan(plan("ompzd", 8, 7)) == "OmpzdNm1(Symmetric(6),8)"
        assert cert.passed and _required_nonzero_margin(matrix) > 0.02


class TestOrderCap:
    """Every over-cap request is refused by plan, before anything is built."""

    @pytest.mark.parametrize(
        "args,kwargs",
        [
            (("omzd", planner.MAX_ORDER + 1), {}),
            (("omzd", 10**9), {"route": "prefer-recursive"}),
            (("symmetric-omzd", planner.MAX_ORDER + 2), {}),
            (("ompzd", 5000, 3), {}),
            (("conference",), {"q": planner.MAX_ORDER}),
            (("drt",), {"q": 7, "t": 13}),
            (("drt",), {"q": 7, "t": 10**9}),
            (("skew-hadamard",), {"q": 7, "t": 10}),
            (("multipartite", planner.MAX_ORDER // 2 + 1), {"m": 2}),
        ],
    )
    def test_over_cap(self, args, kwargs):
        with pytest.raises(ResourceLimit, match="exceeds MAX_ORDER = 4096"):
            plan(*args, **kwargs)

    def test_at_cap(self):
        assert plan("omzd", planner.MAX_ORDER).n == planner.MAX_ORDER
        assert plan("skew-hadamard", q=7, t=9).n == planner.MAX_ORDER
        assert plan("multipartite", planner.MAX_ORDER // 8, m=8).n == planner.MAX_ORDER


def _subtrees(node):
    yield node
    for child in node.children:
        yield from _subtrees(child)


def _executes_stage_by_stage(node) -> None:
    """Every subtree executes as a root to a passed check at its annotated order."""
    for sub in _subtrees(node):
        matrix, verdict = execute(sub)
        assert verdict.passed, serialize_plan(sub)
        assert matrix.order == sub.n, serialize_plan(sub)


_EXISTING = [
    (kind, n, k)
    for n in range(1, 41)
    for kind, ks in (("omzd", [None]), ("symmetric-omzd", [None]), ("ompzd", range(n + 1)))
    for k in ks
    if exists(kind, n, k).exists
]
_PALEY_Q = [q for q in range(3, 51) if (pk := prime_power_decompose(q)) and pk[0] != 2]


class TestPlannedSafetyNet:
    @settings(max_examples=300, deadline=None)
    @given(target=st.sampled_from(_EXISTING), route=st.sampled_from(planner.ROUTES))
    def test_existing_targets_execute(self, target, route):
        kind, n, k = target
        _executes_stage_by_stage(plan(kind, n, k, route=route))

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["conference", "drt", "skew-hadamard"]),
        q=st.sampled_from(_PALEY_Q),
        t=st.integers(0, 2),
    )
    def test_paley_kinds_execute(self, kind, q, t):
        if kind != "conference":
            assume(q % 4 == 3)
        _executes_stage_by_stage(plan(kind, q=q, t=t))

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 6), m=st.sampled_from([2, 6, 8]))
    def test_multipartite_executes(self, n, m):
        _executes_stage_by_stage(plan("multipartite", n, m=m))


def _safety_net_plans():
    """Every plan TestPlannedSafetyNet draws from: each existing target on
    each route, each Paley kind at t <= 2 and the multipartite plans."""
    for kind, n, k in _EXISTING:
        for route in planner.ROUTES:
            yield plan(kind, n, k, route=route)
    for q in _PALEY_Q:
        yield plan("conference", q=q)
        for kind in ("drt", "skew-hadamard"):
            for t in range(3 if q % 4 == 3 else 0):
                yield plan(kind, q=q, t=t)
    for n in range(1, 7):
        for m in (2, 6, 8):
            yield plan("multipartite", n, m=m)


def test_no_builder_runs_the_certificate_core(monkeypatch):
    # the root's check, made after build, is a plan's one core run
    runs, core = [], verify._certify_pattern

    def counted(m, claim, *args, **kwargs):
        runs.append(claim)
        return core(m, claim, *args, **kwargs)

    monkeypatch.setattr(verify, "_certify_pattern", counted)
    plans = {serialize_plan(node): node for node in _safety_net_plans()}
    for node in plans.values():
        planner.build(node)
    assert any(text.startswith("OmzdFromDrt(") for text in plans)
    assert any(text.startswith("ReduceZeros(OmzdFromDrt(") for text in plans)
    assert runs == []
