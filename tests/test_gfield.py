"""Finite fields and the quadratic character."""

import itertools

import pytest

import numpy as np

from omzd import gfield
from omzd.errors import EvenCharacteristic, NotPrime
from omzd.gfield import chi, is_prime, make_field, prime_power_decompose

# odd prime powers small enough for exhaustive property checks
SMALL_Q = [(3, 1), (5, 1), (7, 1), (9, (3, 2)), (11, 1), (13, 1), (25, (5, 2)),
           (27, (3, 3)), (49, (7, 2)), (81, (3, 4)), (121, (11, 2))]


def _field(q):
    p, k = prime_power_decompose(q)
    return make_field(p, k)


class TestMakeField:
    def test_prime_field(self):
        f = make_field(5, 1)
        assert f.q == 5
        assert f.digits.tolist() == [[0], [1], [2], [3], [4]]

    def test_gf9_modulus(self):
        # x^2 + 1 is the first irreducible in the lexicographic scan:
        # x^2, x^2+x and x^2+2x factor; x^2+1 has no root mod 3 and its
        # little-endian coefficients (1, 0, 1) precede (2, 1, 1) and (2, 2, 1).
        f = make_field(3, 2)
        assert f.modulus_poly == (1, 0, 1)
        assert len(f.digits) == 9
        assert not f.digits[0].any()

    def test_rejects_characteristic_2(self):
        with pytest.raises(EvenCharacteristic):
            make_field(2, 1)

    def test_rejects_composite(self):
        with pytest.raises(NotPrime):
            make_field(9, 1)

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            make_field(3, 14)  # 3^14 > 2^20

    def test_cap_before_primality(self, monkeypatch):
        # an oversized prime must be refused without trial division
        def no_trial_division(n):
            raise AssertionError(f"is_prime({n}) called")

        monkeypatch.setattr(gfield, "is_prime", no_trial_division)
        for p, k in [(10**18 + 3, 1), (3, 10**9), (10**18 + 3, 10**18)]:
            with pytest.raises(ValueError, match="exceeds the supported cap"):
                make_field(p, k)
        with pytest.raises(ValueError, match="extension degree"):
            make_field(10**18 + 3, 0)

    def test_modulus_is_irreducible_brute_force(self):
        # independent oracle: no product of two lower-degree monic
        # polynomials reproduces the modulus
        f = make_field(3, 4)
        p, k = f.p, f.k

        def polymul(a, b):
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] = (out[i + j] + x * y) % p
            return tuple(out)

        for d in range(1, k // 2 + 1):
            for low1 in itertools.product(range(p), repeat=d):
                for low2 in itertools.product(range(p), repeat=k - d):
                    if polymul((*low1, 1), (*low2, 1)) == f.modulus_poly:
                        pytest.fail(f"modulus factors as {(low1, low2)}")


class TestChi:
    def test_one_is_square(self):
        f = make_field(5, 1)
        assert chi(f, 1) == 1

    def test_two_is_nonsquare_mod_5(self):
        # squares mod 5 are {1, 4}
        f = make_field(5, 1)
        assert chi(f, 2) == -1
        assert chi(f, 3) == -1
        assert chi(f, 4) == 1

    def test_four_is_square_mod_7(self):
        # squares mod 7 are {1, 2, 4}
        f = make_field(7, 1)
        assert chi(f, 4) == 1
        assert chi(f, 3) == -1

    def test_zero(self):
        f = make_field(7, 1)
        assert chi(f, 0) == 0

    def test_rejects_foreign_element(self):
        f = make_field(5, 1)
        with pytest.raises(ValueError):
            chi(f, 7)
        with pytest.raises(ValueError):
            chi(f, 5)
        with pytest.raises(ValueError):
            chi(f, -1)


@pytest.mark.parametrize("q", [q for q, _ in SMALL_Q])
class TestCharacterProperties:
    def test_multiplicative(self, q):
        f = _field(q)
        elems = range(1, q)
        for a in elems:
            for b in elems:
                assert chi(f, f.mul(a, b)) == chi(f, a) * chi(f, b)

    def test_square_count_balanced(self, q):
        f = _field(q)
        values = [chi(f, e) for e in range(q)]
        assert values.count(1) == (q - 1) // 2
        assert values.count(-1) == (q - 1) // 2
        assert values.count(0) == 1

    def test_minus_one_square_iff_q_1_mod_4(self, q):
        f = _field(q)
        assert (chi(f, f.sub(0, 1)) == 1) == (q % 4 == 1)

    def test_zero_sum(self, q):
        f = _field(q)
        assert sum(chi(f, e) for e in range(q)) == 0


class TestElementOrder:
    @pytest.mark.parametrize("q", [9, 25, 27])
    def test_canonical_order(self, q):
        f = _field(q)
        seq = [tuple(d) for d in f.digits.tolist()]
        assert len(seq) == q
        assert len(set(seq)) == q
        assert seq[0] == (0,) * f.k
        assert seq == sorted(seq)  # little-endian lexicographic
        assert seq == list(itertools.product(range(f.p), repeat=f.k))

    def test_arithmetic_round_trip(self):
        f = make_field(3, 2)
        elems = np.arange(f.q)
        for b in range(f.q):
            assert f.sub(b, b) == 0
            # (a - b) - (0 - b) = a, for every a at once
            assert np.array_equal(f.sub(f.sub(elems, b), f.sub(0, b)), elems)


# every odd prime field below 200, and every odd prime-power field of
# degree >= 2 up to 3^7 = 2187
KERNEL_FIELDS = [(p, 1) for p in range(3, 200) if is_prime(p)] + [
    (p, k) for p in range(3, 47) if is_prime(p) for k in range(2, 8) if p**k <= 3**7
]


class TestSquaringKernel:
    @pytest.mark.parametrize("p,k", KERNEL_FIELDS)
    def test_matches_scalar_mul(self, p, k):
        f = make_field(p, k)
        assert f.squares().tolist() == [f.mul(x, x) for x in range(f.q)]


class TestPrimePower:
    def test_decompose(self):
        assert prime_power_decompose(27) == (3, 3)
        assert prime_power_decompose(7) == (7, 1)
        assert prime_power_decompose(12) is None
        assert prime_power_decompose(1) is None

    def test_is_prime(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
