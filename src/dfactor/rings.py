"""Polynomial rings over exact fields, ideals, and quotient rings.

The commutative backend of the whole package.  Elements of a
:class:`QuotientRing` are :class:`Poly` values kept in normal form
(the unique remainder modulo the reduced Gröbner basis of the defining
ideal), so equality of ring elements is term-tuple equality.  Gröbner
bases of ideals come from the module engine in :mod:`dfactor.modgb`,
run on rank-1 vectors.  Normal forms are the rank-1 case of the
kernel's one heap division (``_kernel.pure.divmod_basis``), by a
divisor table that each ring builds once.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from operator import add as _iadd

from . import _kernel
from ._kernel.pure import Divisors, mon_divides
from .errors import ParseError
from .exprs import format_poly, is_name, parse_poly
from .fields import GF, QQ, field_from_json, field_to_json
from .reuse import reuse


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
        if isinstance(c, int) and self.field.char:
            return c % self.field.char
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
        return format_poly(self)


def groebner(gens):
    """Reduced monic Gröbner basis of the ideal generated by ``gens``.

    An ideal is a submodule of the rank-1 free module, so this is
    :func:`dfactor.modgb.module_groebner` on one-entry vectors.  The
    result is the unique reduced basis for the ambient order, sorted
    with descending lead terms.
    """
    from .modgb import module_groebner  # modgb imports this module

    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return ()
    return tuple(v[0] for v in module_groebner([(g,) for g in gens], gens[0].amb))


class Ideal:
    """Ideal with its reduced Gröbner basis, computed eagerly."""

    def __init__(self, amb: Ambient, gens):
        self.amb = amb
        self.gens = tuple(g for g in gens if not g.is_zero)
        self.basis = groebner(self.gens)

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

    def __init__(self, amb: Ambient, ideal: Ideal | None = None):
        self.amb = amb
        self.field = amb.field
        self.ideal = ideal if ideal is not None else Ideal(amb, ())
        if self.ideal.amb is not amb:
            raise ValueError("ideal lives in a different ambient ring")
        # divides every normal form; falsy exactly when the ideal is empty
        self._gb_terms = Divisors(self.field, [(b.terms,) for b in self.ideal.basis])

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
        return Poly(self.amb, self.amb.ops.divmod_basis((p.terms,), self._gb_terms)[0])

    # -- backend protocol (shared with FDAlgebra) ---------------------

    def zero(self) -> Poly:
        return self.amb.zero()

    def one(self) -> Poly:
        return self.nf(self.amb.one())

    def canon(self, a: Poly) -> Poly:
        return self.nf(a)

    def add(self, a, b):
        return self.nf(a + b)

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return self.nf(a * b)

    def dot(self, pairs):
        """The sum of the products a*b over ``pairs``, normalized once:
        nf is linear and normal forms are unique, so this is exactly
        the sum of the nf(a*b)."""
        terms = self.amb.ops.dot([(a.terms, b.terms) for a, b in pairs])
        return self.nf(Poly(self.amb, terms))

    def matmul(self, g_rows, f_rows, ncols):
        """The rows of g after f, for grids of ring elements with
        ``ncols`` columns in f: entry (i, k) is sum_j f[j][k]*g[i][j],
        one kernel ``dot`` over the term tuples of its pairs with both
        factors nonzero, normalized once when the ideal is nonempty.
        A monomial times a monomial is built directly."""
        amb, gb, p = self.amb, self._gb_terms, self.field.char
        dot, zero = amb.ops.dot, amb.zero()
        divmod_basis = amb.ops.divmod_basis if gb else None
        f_cols = [
            [(j, t) for j, row in enumerate(f_rows) if (t := row[k].terms)] for k in range(ncols)
        ]
        rows = []
        for g_row in g_rows:
            g_terms = [e.terms for e in g_row]
            row = []
            for col in f_cols:
                pairs = [(t, g_terms[j]) for j, t in col if g_terms[j]]
                if not pairs:
                    row.append(zero)
                    continue
                ta, tb = pairs[0]
                if len(pairs) == 1 and len(ta) == 1 and len(tb) == 1:
                    (ma, ca), (mb, cb) = ta[0], tb[0]
                    t = ((tuple(map(_iadd, ma, mb)), ca * cb % p if p else ca * cb),)
                else:
                    t = dot(pairs)
                if t and divmod_basis:
                    t = divmod_basis((t,), gb)[0]
                row.append(Poly(amb, t) if t else zero)
            rows.append(tuple(row))
        return tuple(rows)

    def axpy(self, a_rows, s, b_rows):
        """The grid a + s*b, entry by entry, for a field element s.  A
        sum of normal forms is a normal form, so nothing is reduced."""
        amb = self.amb
        axpy = amb.ops.axpy
        return tuple([
            tuple([Poly(amb, axpy(a.terms, s, b.terms)) if b.terms else a for a, b in zip(ra, rb)])
            for ra, rb in zip(a_rows, b_rows)
        ])

    def scale(self, a, c):
        return a.scale(c)

    def is_zero(self, a) -> bool:
        return a.is_zero

    def parse(self, text: str) -> Poly:
        return reuse(lambda: ("parse", self, text), lambda: self.nf(self.amb.poly(text)))

    def format(self, a: Poly) -> str:
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
        if len(set(variables)) != len(variables) or not all(map(is_name, variables)):
            raise ParseError(f"ring \"vars\" must be distinct expression names, got {variables!r}")
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
