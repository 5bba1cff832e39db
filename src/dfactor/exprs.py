"""Parsing and deterministic printing of ring/algebra expressions.

Grammar (whitespace insignificant)::

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' INT)?
    atom   := INT ['/' INT] | NAME | '(' expr ')'

Multiplication is never implicit.  The same grammar serves commutative
polynomials and noncommutative algebra words; the caller supplies the
atom resolver and the arithmetic.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError

_NAME = "[A-Za-z_][A-Za-z_0-9]*"
_TOKEN = re.compile(rf"\s*(?:(\d+)|({_NAME})|([-+*/^()]))")
# Each nesting level costs the recursive descent four frames; this keeps
# any input well inside the interpreter's recursion limit.
MAX_DEPTH = 100


def is_name(text: str) -> bool:
    """True when ``text`` reads as one NAME token of the grammar."""
    return re.fullmatch(_NAME, text) is not None


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"bad character at {text[pos:]!r}")
            break
        if m.group(1):
            out.append(("int", int(m.group(1))))
        elif m.group(2):
            out.append(("name", m.group(2)))
        else:
            out.append(("op", m.group(3)))
        pos = m.end()
    return out


class _Parser:
    """Recursive descent over a small arithmetic interface.

    ``alg`` provides const(Fraction), atom(name), add(a,b), neg(a) and
    mul(a,b).  Powers are square-and-multiply, so an exponent costs
    about 2*log2(n) products; powers of one element commute, so the
    product order does not matter in an associative algebra.
    """

    def __init__(self, tokens, alg):
        self.tokens = tokens
        self.i = 0
        self.alg = alg
        self.depth = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse(self):
        value = self.expr()
        if self.i != len(self.tokens):
            raise ParseError(f"trailing input near token {self.peek()!r}")
        return value

    def expr(self):
        negate = False
        if self.peek() == ("op", "-"):
            self.take()
            negate = True
        value = self.term()
        if negate:
            value = self.alg.neg(value)
        while self.peek() in (("op", "+"), ("op", "-")):
            _, op = self.take()
            rhs = self.term()
            value = self.alg.add(value, self.alg.neg(rhs) if op == "-" else rhs)
        return value

    def term(self):
        value = self.factor()
        while self.peek() == ("op", "*"):
            self.take()
            value = self.alg.mul(value, self.factor())
        return value

    def factor(self):
        value = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            kind, n = self.take()
            if kind != "int":
                raise ParseError("exponent must be an integer")
            value = self.power(value, n)
        return value

    def power(self, base, n):
        mul = self.alg.mul
        value = self.alg.const(Fraction(1))
        while n:
            if n & 1:
                value = mul(value, base)
            n >>= 1
            if n:
                base = mul(base, base)
        return value

    def atom(self):
        kind, val = self.take()
        if kind == "int":
            num = val
            if self.peek() == ("op", "/"):
                self.take()
                kind2, den = self.take()
                if kind2 != "int" or den == 0:
                    raise ParseError("bad fraction")
                return self.alg.const(Fraction(num, den))
            return self.alg.const(Fraction(num))
        if kind == "name":
            return self.alg.atom(val)
        if (kind, val) == ("op", "("):
            if self.depth == MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_DEPTH}")
            self.depth += 1
            value = self.expr()
            self.depth -= 1
            if self.take() != ("op", ")"):
                raise ParseError("unbalanced parenthesis")
            return value
        raise ParseError(f"unexpected token {val!r}")


class _PolyAlg:
    def __init__(self, amb):
        self.amb = amb

    def const(self, q):
        return self.amb.const(q)

    def atom(self, name):
        if name not in self.amb.vars:
            raise ParseError(f"unknown variable {name!r}")
        return self.amb.var(name)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b


def parse_poly(text: str, amb):
    return parse_with_alg(text, _PolyAlg(amb))


def parse_with_alg(text: str, alg):
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    return _Parser(tokens, alg).parse()


def _format_monomial(mon, variables):
    parts = []
    for name, e in zip(variables, mon):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_poly(p) -> str:
    """Terms descending in the ambient order; canonical coefficients."""
    if not p.terms:
        return "0"
    field = p.amb.field
    chunks = []
    for mon, coeff in p.terms:
        mstr = _format_monomial(mon, p.amb.vars)
        negative = field.char == 0 and coeff < 0
        mag = -coeff if negative else coeff
        if not mstr:
            body = field.format(mag)
        elif mag == field.one:
            body = mstr
        else:
            body = f"{field.format(mag)}*{mstr}"
        if not chunks:
            chunks.append(f"-{body}" if negative else body)
        else:
            chunks.append(("- " if negative else "+ ") + body)
    return " ".join(chunks)
