"""Finite fields GF(p^k) of odd order with the quadratic character.

A field element is its index 0..q-1: element i is the polynomial in the
modulus root whose coefficients, constant term first, are the k base-p
digits of i, most significant first.  The modulus is the
lexicographically smallest monic irreducible of degree k under that
order, so every matrix built on a field is reproducible bit for bit.

The quadratic character is one length-q table, built once from one
array squaring of every element: k shifted products of the q x k digit
array give the q x (2k - 1) coefficients of the squares, and k - 1
steps by the monic modulus reduce them to degree below k.  For k = 1
this is x^2 mod p.  The scalar ``FiniteField.mul`` and
``FiniteField.sub`` are the reference the array kernels are tested
against; no constructor or table build calls them.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import EvenCharacteristic, NotPrime

__all__ = [
    "FiniteField",
    "make_field",
    "chi",
    "is_prime",
    "prime_power_decompose",
]

_MAX_ORDER = 1 << 20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_power_decompose(q: int) -> tuple[int, int] | None:
    """Return (p, k) with q = p^k and p prime, or None."""
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            k, rest = 0, q
            while rest % p == 0:
                rest //= p
                k += 1
            return (p, k) if rest == 1 else None
        p += 1
    return (q, 1)  # q itself is prime


# --- polynomial helpers over GF(p), little-endian coefficient lists ---------

def _poly_eval(poly: tuple[int, ...], x: int, p: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % p
    return acc


def _poly_divmod(num: list[int], den: tuple[int, ...], p: int) -> tuple[list[int], list[int]]:
    # den must be monic
    num = list(num)
    deg_d = len(den) - 1
    quot = [0] * max(len(num) - deg_d, 0)
    for i in range(len(num) - 1, deg_d - 1, -1):
        c = num[i] % p
        if c:
            quot[i - deg_d] = c
            for j, dj in enumerate(den):
                num[i - deg_d + j] = (num[i - deg_d + j] - c * dj) % p
    rem = [c % p for c in num[:deg_d]]
    return quot, rem


def _monic_polys(degree: int, p: int):
    for low in itertools.product(range(p), repeat=degree):
        yield (*low, 1)


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    k = len(poly) - 1
    if k == 1:
        return True  # every monic linear polynomial is irreducible
    if any(_poly_eval(poly, x, p) == 0 for x in range(p)):
        return False
    if k < 4:
        return True  # degree 2 or 3 without roots has no factorization
    for d in range(2, k // 2 + 1):
        for den in _monic_polys(d, p):
            _, rem = _poly_divmod(list(poly), den, p)
            if not any(rem):
                return False
    return True


class FiniteField:
    """GF(p^k) on a fixed modulus.  Element i has coefficient vector
    ``digits[i]`` and quadratic character ``chi_table[i]``: 0 at zero,
    +1 at the indices of ``squares()`` and -1 elsewhere.  ``mul`` and
    ``sub`` are scalar reference arithmetic."""

    def __init__(self, p: int, k: int, modulus_poly: tuple[int, ...]):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus_poly = modulus_poly
        self._place = p ** np.arange(k - 1, -1, -1)
        self.digits = np.arange(self.q)[:, None] // self._place % p
        self.chi_table = np.full(self.q, -1)
        self.chi_table[self.squares()] = 1
        self.chi_table[0] = 0

    def squares(self) -> np.ndarray:
        """Index of x * x for every element x, in one array pass."""
        p, k, d = self.p, self.k, self.digits
        coef = np.zeros((self.q, 2 * k - 1), dtype=np.int64)
        for i in range(k):
            coef[:, i:i + k] += d[:, i:i + 1] * d
        coef %= p
        low = np.array(self.modulus_poly[:k])
        for top in range(2 * k - 2, k - 1, -1):
            span = coef[:, top - k:top]
            span -= coef[:, top:top + 1] * low
            span %= p
        return coef[:, :k] @ self._place

    def sub(self, a, b):
        """Index of a - b; broadcasts over index arrays."""
        return (self.digits[a] - self.digits[b]) % self.p @ self._place

    def mul(self, a: int, b: int) -> int:
        prod = [0] * (2 * self.k - 1)
        bd = self.digits[b].tolist()
        for i, x in enumerate(self.digits[a].tolist()):
            if x:
                for j, y in enumerate(bd):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        _, rem = _poly_divmod(prod, self.modulus_poly, self.p)
        rem += [0] * (self.k - len(rem))
        return int(np.dot(rem, self._place))

    def __repr__(self):
        return f"FiniteField(p={self.p}, k={self.k}, modulus={self.modulus_poly})"


def make_field(p: int, k: int) -> FiniteField:
    """Build GF(p^k) on the lexicographically smallest irreducible modulus.

    Rejects p = 2 (the quadratic character degenerates), k < 1, orders
    over the cap and then non-primes, so no oversized p is trial-divided.
    """
    if p == 2:
        raise EvenCharacteristic("characteristic 2 is not supported; q must be odd")
    if k < 1:
        raise ValueError(f"extension degree must be >= 1, got {k}")
    # 3^13 > 2^20, so k > 12 is over the cap for every odd p >= 3
    if p > 2 and (k > 12 or p**k > _MAX_ORDER):
        raise ValueError(f"field order {p}^{k} exceeds the supported cap 2^20")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    for poly in _monic_polys(k, p):
        if _is_irreducible(poly, p):
            return FiniteField(p, k, poly)
    raise AssertionError("no irreducible modulus found")  # unreachable: one always exists


def chi(field: FiniteField, x: int) -> int:
    """Quadratic character of element x: 0 at zero, +1 on nonzero
    squares, -1 otherwise."""
    if not 0 <= x < field.q:
        raise ValueError(f"{x} is not an element index of GF({field.p}^{field.k})")
    return int(field.chi_table[x])
