"""Exact coefficient fields, the rationals and prime fields F_p, and
the integers ZZ as the coefficient ring of fraction-free elimination.

Elements are plain Python values: ``Fraction`` for the rationals,
``int`` canonical representatives in ``[0, p)`` for F_p and ``int`` for
ZZ.  The domain objects only bundle the arithmetic; keeping elements
unboxed is what makes the term kernels cheap.

A reduction step cancels the term c*m of h against a divisor g with
lead a*m' by h <- s*h - t*(m/m')*g, where ``reducer(a)`` maps c to the
pair (s, t) with s*c = t*a.  A field gives (1, c/a), the classical
step.  ZZ has no inverses and gives (a/e, c/e), with e = gcd(c, a)
signed like a so that s > 0.  That result is s times the field step's,
so a division over ZZ runs the same steps as over Q and ends at a
positive multiple of its remainder.  A Fraction product costs a gcd and
a new object, dozens of int products, which is why
:func:`dfactor.modgb.module_groebner` runs over ZZ when the field is Q.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd

from .errors import ParseError


class _Field:
    def reducer(self, a):
        """The reduction step by the lead coefficient a: c -> (1, c/a),
        in native arithmetic."""
        one, inv, p = self.one, self.inv(a), self.char
        if p:
            return lambda c: (one, c * inv % p)
        return lambda c: (one, c * inv)


class IntegerRing:
    """The ring ZZ of fraction-free Gröbner runs over Q.  Elements are
    ``int``; there is no ``inv``."""

    char = 0
    zero = 0
    one = 1
    add = staticmethod(operator.add)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)

    def reducer(self, a):
        """The reduction step by the lead coefficient a: c -> (a/e, c/e)
        with e = gcd(c, a) signed like a, so that s = a/e is positive."""
        if a == 1:
            return lambda c: (1, c)
        sign = 1 if a > 0 else -1

        def step(c):
            e = gcd(c, a) * sign
            return a // e, c // e

        return step

    def format(self, a: int) -> str:
        return str(a)

    def __repr__(self):
        return "ZZ"


ZZ = IntegerRing()


class RationalField(_Field):
    """The field Q.  Elements are ``Fraction`` in lowest terms."""

    char = 0

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / a

    def from_fraction(self, q: Fraction) -> Fraction:
        return Fraction(q)

    def format(self, a: Fraction) -> str:
        return str(a)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField(_Field):
    """The field F_p for a machine-word prime p.

    Elements are ints in ``[0, p)``.
    """

    def __init__(self, p: int):
        if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.char

    def sub(self, a, b):
        return (a - b) % self.char

    def mul(self, a, b):
        return (a * b) % self.char

    def neg(self, a):
        return (-a) % self.char

    def inv(self, a):
        if a % self.char == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.char - 2, self.char)

    def from_fraction(self, q: Fraction) -> int:
        den = q.denominator % self.char
        if den == 0:
            raise ParseError(f"denominator {q.denominator} is 0 mod {self.char}")
        return q.numerator % self.char * self.inv(den) % self.char

    def format(self, a: int) -> str:
        return str(a % self.char)

    def __repr__(self):
        return f"GF({self.char})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.char == self.char

    def __hash__(self):
        return hash(("GF", self.char))


_QQ = RationalField()
_PRIMES: dict[int, PrimeField] = {}


def QQ() -> RationalField:
    return _QQ


def GF(p: int) -> PrimeField:
    if p not in _PRIMES:
        _PRIMES[p] = PrimeField(p)
    return _PRIMES[p]


def field_from_json(desc) -> RationalField | PrimeField:
    """Field descriptor: ``{"rationals": true}`` or ``{"char": p}``."""
    if not isinstance(desc, dict):
        raise ParseError(f"bad field descriptor {desc!r}")
    if desc.get("rationals"):
        return QQ()
    if "char" in desc:
        char = desc["char"]
        if isinstance(char, bool) or not isinstance(char, int):
            raise ParseError(f"field characteristic must be an integer, got {char!r}")
        if char >= 2**31:
            # keeps PrimeField's trial division under 2^16 steps, so a huge
            # characteristic fails fast instead of running past --deadline
            raise ParseError(f"field characteristic must be below 2^31, got {char}")
        return GF(char)
    raise ParseError(f"bad field descriptor {desc!r}")


def field_to_json(field) -> dict:
    if field.char == 0:
        return {"rationals": True}
    return {"char": field.char}
