"""Polynomial rings over exact fields, Gröbner bases, and quotient rings.

The commutative backend of the whole package.  Elements of a
:class:`QuotientRing` are :class:`Poly` values kept in normal form
(the unique remainder modulo the reduced Gröbner basis of the defining
ideal), so equality of ring elements is term-tuple equality.
"""

from __future__ import annotations

import heapq
import operator
import time
from fractions import Fraction

from . import _kernel
from ._kernel.pure import mon_div, mon_divides, mon_lcm, mon_mul
from .errors import DeadlineExceeded, ParseError
from .fields import GF, QQ, field_from_json, field_to_json


class MonomialOrder:
    """Total, multiplicative, well-founded monomial order.

    ``key`` maps an exponent tuple to a sort key; bigger key means
    bigger monomial.  ``heap_key`` is its descending twin: smaller heap
    key means bigger monomial, so a min-heap yields the biggest first.
    """

    def __init__(self, name: str, key, heap_key):
        self.name = name
        self.key = key
        self.heap_key = heap_key

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and other.name == self.name

    def __hash__(self):
        return hash(self.name)


def _grevlex_key(mon):
    return (sum(mon), tuple(map(operator.neg, reversed(mon))))


def _grevlex_heap_key(mon):
    return (-sum(mon), mon[::-1])


def _lex_key(mon):
    return mon


def _lex_heap_key(mon):
    return tuple(map(operator.neg, mon))


GREVLEX = MonomialOrder("grevlex", _grevlex_key, _grevlex_heap_key)
LEX = MonomialOrder("lex", _lex_key, _lex_heap_key)

_ORDERS = {"grevlex": GREVLEX, "lex": LEX}


def order_from_name(name: str) -> MonomialOrder:
    try:
        return _ORDERS[name]
    except KeyError:
        raise ParseError(f"unknown monomial order {name!r}") from None


class Ambient:
    """A polynomial ring k[x_1..x_n] with a fixed monomial order.

    Interned: equal descriptions yield the same object, so identity
    checks suffice when mixing polynomials.
    """

    _cache: dict = {}

    def __new__(cls, field, variables, order=GREVLEX):
        variables = tuple(variables)
        cache_key = (field, variables, order.name)
        amb = cls._cache.get(cache_key)
        if amb is None:
            amb = super().__new__(cls)
            amb.field = field
            amb.vars = variables
            amb.order = order
            amb.ops = _kernel.ops_for(field, order)
            amb._one_mon = (0,) * len(variables)
            cls._cache[cache_key] = amb
        return amb

    @property
    def nvars(self):
        return len(self.vars)

    def zero(self) -> Poly:
        return Poly(self, ())

    def one(self) -> Poly:
        return Poly(self, (((0,) * self.nvars, self.field.one),))

    def const(self, c) -> Poly:
        c = self.coeff(c)
        if c == self.field.zero:
            return self.zero()
        return Poly(self, ((self._one_mon, c),))

    def coeff(self, c):
        if isinstance(c, (int, Fraction)):
            return self.field.from_fraction(Fraction(c))
        return c

    def var(self, name: str) -> Poly:
        i = self.vars.index(name)
        mon = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Poly(self, ((mon, self.field.one),))

    def monomial(self, mon, c=1) -> Poly:
        c = self.coeff(c)
        if c == self.field.zero:
            return self.zero()
        return Poly(self, ((tuple(mon), c),))

    def poly(self, text: str) -> Poly:
        from .exprs import parse_poly

        return parse_poly(text, self)

    def __repr__(self):
        return f"{self.field}[{','.join(self.vars)}]/{self.order.name}"


class Poly:
    """Immutable polynomial: canonical descending term tuple."""

    __slots__ = ("amb", "terms")

    def __init__(self, amb: Ambient, terms):
        self.amb = amb
        self.terms = terms

    def _check(self, other):
        if not isinstance(other, Poly) or other.amb is not self.amb:
            raise TypeError("mixed polynomial ambients")

    def __add__(self, other):
        self._check(other)
        return Poly(self.amb, self.amb.ops.add(self.terms, other.terms))

    def __sub__(self, other):
        self._check(other)
        return Poly(self.amb, self.amb.ops.add(self.terms, self.amb.ops.neg(other.terms)))

    def __neg__(self):
        return Poly(self.amb, self.amb.ops.neg(self.terms))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        return Poly(self.amb, self.amb.ops.mul(self.terms, other.terms))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = self.amb.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c) -> Poly:
        return Poly(self.amb, self.amb.ops.scale(self.terms, self.amb.coeff(c)))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def lead_mon(self):
        return self.terms[0][0]

    @property
    def lead_coeff(self):
        return self.terms[0][1]

    def monic(self) -> Poly:
        field = self.amb.field
        if not self.terms or self.lead_coeff == field.one:
            return self
        return Poly(self.amb, self.amb.ops.scale(self.terms, field.inv(self.lead_coeff)))

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(m) for m, _ in self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Poly) and other.amb is self.amb and other.terms == self.terms
        )

    def __hash__(self):
        return hash((id(self.amb), self.terms))

    def __repr__(self):
        from .exprs import format_poly

        return format_poly(self)


def _spoly(f: Poly, g: Poly) -> Poly:
    amb = f.amb
    ops = amb.ops
    fm, fc = f.terms[0]
    gm, gc = g.terms[0]
    lcm = mon_lcm(fm, gm)
    left = ops.shift(f.terms, mon_div(lcm, fm), amb.field.inv(fc))
    right = ops.shift(g.terms, mon_div(lcm, gm), amb.field.inv(gc))
    return Poly(amb, ops.add(left, ops.neg(right)))


def groebner(gens, strategy: str = "normal", deadline: float | None = None):
    """Reduced monic Gröbner basis of the ideal generated by ``gens``.

    Buchberger with the normal pair-selection strategy (lowest lcm
    degree first); ``strategy="sugar"`` orders pairs by the sugar
    degree instead.  The result is the unique reduced basis for the
    ambient order, sorted with descending lead terms.

    Pairs are installed with the Gebauer–Möller update (Becker &
    Weispfenning, *Gröbner Bases*, p. 230): a new element's pairs are
    filtered by the chain and product criteria, queued pairs whose lcm
    the new lead splits are dropped, and elements whose lead the new
    lead divides leave the active set G that forms pairs and becomes
    the basis.  S-polynomials reduce against every element found so
    far, in the order found, redundant ones included: reduced by G
    alone, some lex completions over the rationals ran through far
    longer chains of swollen coefficients.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return ()
    amb = gens[0].amb
    key = amb.order.key
    basis = []
    sugars = []
    for g in gens:
        if g.monic() not in basis:
            basis.append(g.monic())
            sugars.append(g.total_degree())

    leads = []
    active: list = []  # G: indices of the non-redundant elements, ascending
    live: dict = {}  # queued pairs (i, j) -> lcm of their leads; pruned pairs leave
    pairs: list = []  # heap over the ranks of queued and pruned pairs

    def push_pair(i, j, lcm):
        deg = sum(lcm)
        if strategy == "sugar":
            sugar = max(
                sugars[i] + deg - sum(leads[i]),
                sugars[j] + deg - sum(leads[j]),
            )
            rank = (sugar, deg, key(lcm), i, j)
        else:
            rank = (deg, key(lcm), i, j)
        live[i, j] = lcm
        heapq.heappush(pairs, (rank, i, j))

    def install(h):
        mh = basis[h].lead_mon
        leads.append(mh)
        new = [(g, mon_lcm(leads[g], mh)) for g in active]
        kept = []
        for n, (g, lcm) in enumerate(new):
            coprime = lcm == mon_mul(leads[g], mh)
            # chain criterion among the new pairs; coprime pairs stay in
            # ``kept`` to prune others and are dropped below (product criterion)
            if coprime or not (
                any(mon_divides(other, lcm) for _, other in new[n + 1 :])
                or any(mon_divides(other, lcm) for _, other, _ in kept)
            ):
                kept.append((g, lcm, coprime))
        for (i, j), lcm in list(live.items()):
            if (
                mon_divides(mh, lcm)
                and mon_lcm(leads[i], mh) != lcm
                and mon_lcm(leads[j], mh) != lcm
            ):
                del live[i, j]
        for g, lcm, coprime in kept:
            if not coprime:
                push_pair(g, h, lcm)
        active[:] = [g for g in active if not mon_divides(mh, leads[g])]
        active.append(h)

    for h in range(len(basis)):
        install(h)

    done = 0
    while pairs:
        if deadline is not None and time.monotonic() > deadline:
            raise DeadlineExceeded(f"groebner: {done} pairs done, {len(live)} queued")
        (rank, i, j) = heapq.heappop(pairs)
        if live.pop((i, j), None) is None:
            continue
        done += 1
        s = _spoly(basis[i], basis[j])
        rem, _ = amb.ops.divmod_basis(s.terms, [b.terms for b in basis])
        if rem:
            basis.append(Poly(amb, rem).monic())
            sugars.append(rank[0] if strategy == "sugar" else Poly(amb, rem).total_degree())
            install(len(basis) - 1)

    return _reduce_basis([basis[g] for g in active])


def _reduce_basis(basis):
    """Minimalize and tail-reduce; unique for a fixed order."""
    amb = basis[0].amb
    key = amb.order.key
    minimal = []
    for g in sorted(basis, key=lambda b: key(b.lead_mon)):
        if not any(mon_divides(h.lead_mon, g.lead_mon) for h in minimal):
            minimal.append(g)
    reduced = []
    for i, g in enumerate(minimal):
        others = [h.terms for j, h in enumerate(minimal) if j != i]
        rem, _ = amb.ops.divmod_basis(g.terms, others) if others else (g.terms, None)
        if rem:
            reduced.append(Poly(amb, rem).monic())
    reduced.sort(key=lambda b: key(b.lead_mon), reverse=True)
    return tuple(reduced)


class Ideal:
    """Ideal with its reduced Gröbner basis, computed eagerly."""

    def __init__(self, amb: Ambient, gens, deadline: float | None = None):
        self.amb = amb
        self.gens = tuple(g for g in gens if not g.is_zero)
        self.basis = groebner(self.gens, deadline=deadline)

    def contains(self, p: Poly) -> bool:
        rem, _ = self.amb.ops.divmod_basis(p.terms, [b.terms for b in self.basis])
        return not rem

    def __eq__(self, other):
        return isinstance(other, Ideal) and other.amb is self.amb and other.basis == self.basis

    def __hash__(self):
        return hash((id(self.amb), tuple(b.terms for b in self.basis)))

    def __repr__(self):
        return "Ideal(" + ", ".join(map(repr, self.basis)) + ")"


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


class QuotientRing:
    """k[x_1..x_n]/I with unique normal forms.

    Doubles as the commutative backend for contexts: elements are
    polynomials in normal form, and the ``add``/``sub``/``mul``/…
    methods below keep them that way.
    """

    is_commutative = True

    def __init__(self, amb: Ambient, ideal: Ideal | None = None):
        self.amb = amb
        self.ideal = ideal if ideal is not None else Ideal(amb, ())
        if self.ideal.amb is not amb:
            raise ValueError("ideal lives in a different ambient ring")
        self._gb_terms = [b.terms for b in self.ideal.basis]

    @classmethod
    def make(cls, field, variables, ideal_gens=(), order=GREVLEX) -> "QuotientRing":
        amb = Ambient(field, variables, order)
        gens = [amb.poly(g) if isinstance(g, str) else g for g in ideal_gens]
        return cls(amb, Ideal(amb, gens))

    # -- normal forms -------------------------------------------------

    def nf(self, p: Poly) -> Poly:
        if p.amb is not self.amb:
            raise ParseError("polynomial from a different ring")
        if not self._gb_terms:
            return p
        rem, _ = self.amb.ops.divmod_basis(p.terms, self._gb_terms)
        return Poly(self.amb, rem)

    # -- backend protocol (shared with FDAlgebra) ---------------------

    def zero(self) -> Poly:
        return self.amb.zero()

    def one(self) -> Poly:
        return self.nf(self.amb.one())

    def canon(self, a: Poly) -> Poly:
        return self.nf(a)

    def add(self, a, b):
        return self.nf(a + b)

    def sub(self, a, b):
        return self.nf(a - b)

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return self.nf(a * b)

    def scale(self, a, c):
        return a.scale(c)

    def is_zero(self, a) -> bool:
        return a.is_zero

    def eq(self, a, b) -> bool:
        return a == b

    def parse(self, text: str) -> Poly:
        return self.nf(self.amb.poly(text))

    def format(self, a: Poly) -> str:
        from .exprs import format_poly

        return format_poly(a)

    # -- structure ----------------------------------------------------

    def standard_monomials(self, max_degree: int | None = None):
        """Monomials not divisible by any lead term of the basis.

        With ``max_degree=None``, returns the full (finite) list or
        None when the quotient is infinite-dimensional over the field.
        """
        leads = [b.lead_mon for b in self.ideal.basis]
        n = self.amb.nvars
        if max_degree is None:
            caps = []
            for i in range(n):
                pures = [
                    m[i]
                    for m in leads
                    if all(e == 0 for j, e in enumerate(m) if j != i)
                ]
                if not pures:
                    return None
                caps.append(min(pures))
            bound = sum(c - 1 for c in caps)
        else:
            bound = max_degree

        mons = []
        stack = [(0,) * n]
        seen = {(0,) * n}
        while stack:
            m = stack.pop()
            if any(mon_divides(lead, m) for lead in leads):
                continue
            mons.append(m)
            if sum(m) >= bound:
                continue
            for i in range(n):
                m2 = tuple(e + 1 if j == i else e for j, e in enumerate(m))
                if m2 not in seen:
                    seen.add(m2)
                    stack.append(m2)
        mons.sort(key=self.amb.order.key)
        return mons

    def extend_ideal(self, extra_gens) -> "QuotientRing":
        """The quotient by the ideal enlarged with ``extra_gens``."""
        return QuotientRing(
            self.amb, Ideal(self.amb, list(self.ideal.basis) + list(extra_gens))
        )

    def to_json(self) -> dict:
        from .exprs import format_poly

        return {
            "field": field_to_json(self.amb.field),
            "vars": list(self.amb.vars),
            "order": self.amb.order.name,
            "ideal": [format_poly(g) for g in self.ideal.basis],
        }

    @classmethod
    def from_json(cls, desc: dict) -> "QuotientRing":
        field = field_from_json(desc.get("field", {}))
        variables = desc.get("vars")
        if not variables or not _strings(variables):
            raise ParseError("ring description needs \"vars\", a list of names")
        order = desc.get("order", "grevlex")
        if not isinstance(order, str):
            raise ParseError("monomial order must be a name")
        ideal = desc.get("ideal", [])
        if not _strings(ideal):
            raise ParseError("\"ideal\" must be a list of expressions")
        return cls.make(field, variables, ideal, order_from_name(order))

    def __eq__(self, other):
        return (
            isinstance(other, QuotientRing)
            and other.amb is self.amb
            and other.ideal == self.ideal
        )

    def __hash__(self):
        return hash((id(self.amb), self.ideal))

    def __repr__(self):
        gens = ", ".join(map(repr, self.ideal.basis))
        return f"{self.amb.field}[{','.join(self.amb.vars)}]/({gens})"


__all__ = [
    "Ambient",
    "GREVLEX",
    "LEX",
    "GF",
    "QQ",
    "Ideal",
    "MonomialOrder",
    "Poly",
    "QuotientRing",
    "groebner",
    "order_from_name",
]
