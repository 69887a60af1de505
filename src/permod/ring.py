"""Exact coefficient arithmetic over Q, GF(p) and Z.

Scalars are plain Python values: `Fraction` for Q (always in lowest terms
with positive denominator), `int` residues in [0, p) for GF(p), and `int`
for Z.  A `RingSpec` names the ring and owns canonicalisation, arithmetic,
parsing and formatting, so scalar equality is structural and serialised
values round-trip exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence, Union

Scalar = Union[Fraction, int]

RATIONALS = "Q"
PRIME_FIELD = "GF"
INTEGERS = "Z"

# ASCII digits only: `int` would also read every other Unicode digit
_GF_NAME = re.compile(r"^GF\((\d+)\)$", re.ASCII)
_GF_SCALAR = re.compile(r"^(-?\d+)\s+mod\s+(\d+)$", re.ASCII)
_RATIONAL = re.compile(r"^(-?\d+)(?:/(-?\d+))?$", re.ASCII)


class RingError(ValueError):
    """Ring mismatch, malformed scalar text, or an invalid ring operation."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the first 13 prime bases, exact below
    3.3e24; larger moduli raise RingError."""
    if n >= 3317044064679887385961981:
        raise RingError(f"modulus {n} is too large to certify as prime")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in bases:
        x = pow(b, d, n)
        if x == 1:
            continue
        for _ in range(r):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


@dataclass(frozen=True)
class RingSpec:
    """One of the three supported coefficient rings.

    ``kind`` is "Q", "GF" or "Z"; ``p`` is the (prime) modulus and is only
    set for kind "GF".
    """

    kind: str
    p: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (RATIONALS, PRIME_FIELD, INTEGERS):
            raise RingError(f"unknown ring kind {self.kind!r}")
        if self.kind == PRIME_FIELD:
            if self.p is None or not is_prime(self.p):
                raise RingError(f"GF modulus must be prime, got {self.p!r}")
        elif self.p is not None:
            raise RingError(f"ring {self.kind} takes no modulus")

    # -- identity ---------------------------------------------------------

    @property
    def name(self) -> str:
        if self.kind == PRIME_FIELD:
            return f"GF({self.p})"
        return self.kind

    @classmethod
    def from_name(cls, text: str) -> "RingSpec":
        if text == RATIONALS:
            return QQ
        if text == INTEGERS:
            return ZZ
        m = _GF_NAME.match(text)
        if m:
            return cls(PRIME_FIELD, int(m.group(1)))
        raise RingError(f"unknown ring name {text!r} (expected Q, Z or GF(p))")

    @property
    def is_field(self) -> bool:
        return self.kind != INTEGERS

    def __str__(self) -> str:
        return self.name

    # -- canonical values -------------------------------------------------

    def zero(self) -> Scalar:
        return Fraction(0) if self.kind == RATIONALS else 0

    def one(self) -> Scalar:
        return Fraction(1) if self.kind == RATIONALS else 1

    def normalize(self, value) -> Scalar:
        """Coerce ``value`` into a canonical scalar of this ring.

        Accepts ints everywhere, `Fraction` for Q (and for GF(p) when the
        denominator is invertible mod p).
        """
        if self.kind == RATIONALS:
            if isinstance(value, (int, Fraction)):
                return Fraction(value)
        elif self.kind == PRIME_FIELD:
            if isinstance(value, int):
                return value % self.p
            if isinstance(value, Fraction):
                if value.denominator % self.p == 0:
                    raise RingError(f"{value} has no residue mod {self.p}")
                return value.numerator * pow(value.denominator, -1, self.p) % self.p
        else:
            if isinstance(value, int):
                return value
            if isinstance(value, Fraction) and value.denominator == 1:
                return value.numerator
        raise RingError(f"{value!r} is not a scalar of {self.name}")

    # -- arithmetic --------------------------------------------------------

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return (a + b) % self.p if self.kind == PRIME_FIELD else a + b

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return (a * b) % self.p if self.kind == PRIME_FIELD else a * b

    def neg(self, a: Scalar) -> Scalar:
        return (-a) % self.p if self.kind == PRIME_FIELD else -a

    def is_zero(self, a: Scalar) -> bool:
        return a == 0

    # -- text form ----------------------------------------------------------

    def format(self, value: Scalar) -> str:
        if self.kind == PRIME_FIELD:
            return f"{value} mod {self.p}"
        return str(value)

    def parse(self, text: str) -> Scalar:
        """Parse a scalar string; canonical forms are "a/b", "a", "k mod p".

        A rational string is accepted for GF(p) by reduction mod p (the
        denominator must be invertible); "a/b" for Z must be an integer.
        Zero denominators are rejected outright.
        """
        text = text.strip()
        m = _GF_SCALAR.match(text)
        if m:
            if self.kind != PRIME_FIELD or int(m.group(2)) != self.p:
                raise RingError(f"scalar {text!r} does not belong to {self.name}")
            return int(m.group(1)) % self.p
        m = _RATIONAL.match(text)
        if not m:
            raise RingError(f"cannot parse scalar {text!r}")
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) is not None else 1
        if den == 0:
            raise RingError(f"zero denominator in scalar {text!r}")
        return self.normalize(Fraction(num, den))


QQ = RingSpec(RATIONALS)
ZZ = RingSpec(INTEGERS)


def GF(p: int) -> RingSpec:
    return RingSpec(PRIME_FIELD, p)


def primitive_int_vector(values: Sequence[Fraction]) -> list[int]:
    """Scale a rational vector to coprime integers with positive leading entry."""
    fracs = [Fraction(v) for v in values]
    mult = lcm(*(f.denominator for f in fracs))
    ints = [int(f * mult) for f in fracs]
    g = gcd(*ints) or 1
    if next((v for v in ints if v), 0) < 0:
        g = -g
    return [v // g for v in ints]
