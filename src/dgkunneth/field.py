"""Exact scalar arithmetic: the rationals and prime fields F_p.

Elements of F_p are plain Python ints canonicalized to [0, p); rational
elements are `fractions.Fraction`.  A `Field` instance carries zero and one,
seeded draws, the string form used in all JSON interchange, the numpy
`dtype` of its matrices, `memo`, where `linalg.memoized` keeps small
presentations and resolutions computed over this field object, `shared`,
its small zero and identity matrices by shape, and `families`, the family
algebras `genlab` built over it by name: a new or unpickled field starts
with all three empty.  The arithmetic runs on matrices.
"""
from __future__ import annotations

import re
from fractions import Fraction

import numpy as np

RATIONALS = "rationals"
PRIME = "prime"
MODULUS_BOUND = 2 ** 64
_ELEMENT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
# Miller-Rabin with these bases is exact for every n below 3.3e24.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def fits_int64(p: int, inner: int) -> bool:
    """Whether `inner` products of two residues mod p sum below 2^62, so
    int64 holds the sum with room to spare."""
    return (p - 1) ** 2 * max(inner, 1) < 2 ** 62


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < MODULUS_BOUND."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """A field of scalars: the rationals, or F_p for a prime p."""

    __slots__ = ("kind", "p", "zero", "one", "dtype", "memo", "shared", "families")

    def __init__(self, kind: str, p: int | None = None):
        if kind == RATIONALS:
            if p is not None:
                raise ValueError("rationals take no modulus")
            self.zero = Fraction(0)
            self.one = Fraction(1)
        elif kind == PRIME:
            if p is not None and p >= MODULUS_BOUND:
                raise ValueError(f"modulus must be below 2^64, got {p!r}")
            if p is None or p < 2 or not is_prime(p):
                raise ValueError(f"modulus must be prime, got {p!r}")
            self.zero = 0
            self.one = 1
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        self.kind = kind
        self.p = p
        # residues are int64 when the product of two fits, Python ints otherwise
        self.dtype = np.int64 if p and fits_int64(p, 1) else object
        self.memo = {}
        self.shared = {}
        self.families = {}

    def __reduce__(self):
        return Field, (self.kind, self.p)

    @classmethod
    def rationals(cls) -> "Field":
        return cls(RATIONALS)

    @classmethod
    def prime(cls, p: int) -> "Field":
        return cls(PRIME, p)

    def of_int(self, n: int):
        return n % self.p if self.p else Fraction(n)

    def random_vector(self, rng, k: int) -> list:
        """k seeded random scalars: uniform over F_p, integers in [-2, 2] over Q."""
        if self.p:
            return [rng.randrange(self.p) for _ in range(k)]
        return [Fraction(rng.randint(-2, 2)) for _ in range(k)]

    def parse(self, s: str):
        """Parse the interchange form [+-]?[0-9]+(/[0-9]+)?: "n" or "n/d"
        (rationals), "n" (F_p).  Exponent and decimal forms are refused, so
        no short string stands for a huge number."""
        if not _ELEMENT.fullmatch(s):
            raise ValueError(f"element {s!r} is not of the form [+-]?[0-9]+(/[0-9]+)?")
        if self.p:
            v = int(s)
            if not 0 <= v < self.p:
                raise ValueError(f"element {s!r} out of range for F_{self.p}")
            return v
        return Fraction(s)

    def to_str(self, a) -> str:
        if self.p:
            return str(a)
        return f"{a.numerator}/{a.denominator}"

    def __eq__(self, other):
        return isinstance(other, Field) and self.kind == other.kind and self.p == other.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return "Field(Q)" if not self.p else f"Field(F_{self.p})"
