"""Existence tables, routing, plan serialization, and execution."""

import numpy as np
import pytest

from omzd import planner
from omzd.errors import InvalidK, NonexistentTarget
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
            "Combine(Combine(Seed(omzd,6),Seed(omzd,4)),Seed(omzd,4))"
        )

    def test_ompzd_routes(self):
        assert serialize_plan(plan("ompzd", 6, 5)) == "OmpzdNm1(6)"
        assert serialize_plan(plan("ompzd", 6, 0)) == "NowhereZero(6)"
        assert serialize_plan(plan("ompzd", 6, 6)) == "Symmetric(6)"
        assert serialize_plan(plan("ompzd", 6, 3)) == "ReduceZeros(Symmetric(6),3)"
        assert serialize_plan(plan("ompzd", 4, 3)) == "Seed(ompzd,4,3)"
        assert serialize_plan(plan("ompzd", 5, 4)) == "Seed(ompzd,5,4)"
        assert serialize_plan(plan("ompzd", 3, 1)) == "Seed(ompzd,3,1)"

    def test_symmetric_kind(self):
        assert serialize_plan(plan("symmetric-omzd", 8)) == "Symmetric(8)"
        assert serialize_plan(plan("symmetric-omzd", 2)) == "Seed(omzd,2)"

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
        matrix, cert = execute(planner.seed_node("omzd", 2))
        assert matrix.data.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert cert.passed

    def test_drt_route_end_to_end(self):
        matrix, cert = execute(plan("omzd", 15, route="prefer-drt"))
        assert matrix.order == 15
        assert cert.passed

    def test_conference_root(self):
        matrix, cert = execute(planner.paley_node(5))
        assert matrix.order == 6
        assert cert.passed and cert.scale_c == 5.0

    def test_tournament_root_rejected(self):
        with pytest.raises(ValueError):
            execute(planner.paley_drt_node(7))

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
