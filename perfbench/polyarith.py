"""Independent exact arithmetic for building and checking inputs.

Polynomials are dicts ``{exponent tuple: coefficient}`` with no zero
coefficients.  Coefficients are ints in ``[0, p)`` over F_p and ints
or ``Fraction`` over Q (``p == 0``).  Nothing here imports dfactor: the
benchmark uses this module to write inputs in the CLI's text syntax
and to re-check the program's answers with separate code.
"""

from __future__ import annotations

import re
from fractions import Fraction


class Arith:
    def __init__(self, p: int, variables):
        self.p = p
        self.vars = tuple(variables)
        self.n = len(self.vars)

    # -- coefficients ---------------------------------------------------

    def c(self, value):
        q = Fraction(value)
        if self.p:
            return q.numerator * pow(q.denominator, -1, self.p) % self.p
        return q.numerator if q.denominator == 1 else q  # ints are much faster

    # -- polynomials ----------------------------------------------------

    def const(self, value):
        value = self.c(value)
        return {(0,) * self.n: value} if value else {}

    def var(self, name):
        return {tuple(int(v == name) for v in self.vars): self.c(1)}

    def add(self, a, b, sign=1):
        out = dict(a)
        for m, cb in b.items():
            v = out.get(m, 0) + sign * cb
            if self.p:
                v %= self.p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return out

    def scale(self, a, k):
        k = self.c(k)
        return self.add({}, {m: v * k for m, v in a.items()}) if k else {}

    def mul(self, a, b):
        out: dict = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                v = out.get(m, 0) + ca * cb
                if self.p:
                    v %= self.p
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return out

    # -- text -----------------------------------------------------------

    def fmt(self, a) -> str:
        """Input syntax: explicit ``*`` and ``^``, descending total degree."""
        if not a:
            return "0"
        chunks = []
        for m in sorted(a, key=lambda m: (sum(m), m), reverse=True):
            coeff = a[m]
            if self.p and coeff > self.p // 2:
                coeff -= self.p
            mon = "*".join(
                name if e == 1 else f"{name}^{e}" for name, e in zip(self.vars, m) if e
            )
            mag = abs(coeff)
            body = mon if (mag == 1 and mon) else (f"{mag}*{mon}" if mon else f"{mag}")
            sign = "-" if coeff < 0 else "+"
            chunks.append((sign, body))
        text = ("-" if chunks[0][0] == "-" else "") + chunks[0][1]
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text

    _TERM = re.compile(r"([+-]?)([^+-]+)")

    def parse(self, text: str):
        """Parse a sum of terms ``c*x^i*y^j`` (the program's output syntax)."""
        out: dict = {}
        body = text.replace(" ", "")
        if body in ("", "0"):
            return out
        for sign, term in self._TERM.findall(body):
            coeff = Fraction(1)
            mon = [0] * self.n
            for factor in term.split("*"):
                name, _, power = factor.partition("^")
                if name in self.vars:
                    mon[self.vars.index(name)] += int(power or 1)
                else:
                    coeff *= Fraction(name)
            if sign == "-":
                coeff = -coeff
            out = self.add(out, {tuple(mon): self.c(coeff)})
        return out

    # -- matrices (lists of rows) -----------------------------------------

    def matmul(self, a, b):
        inner = len(b)
        cols = len(b[0]) if b else 0
        out = []
        for row in a:
            new = []
            for k in range(cols):
                acc: dict = {}
                for j in range(inner):
                    if row[j] and b[j][k]:
                        acc = self.add(acc, self.mul(row[j], b[j][k]))
                new.append(acc)
            out.append(new)
        return out

    def matadd(self, a, b, sign=1):
        return [[self.add(x, y, sign) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    def scalar_mat(self, n, elem):
        return [[dict(elem) if i == j else {} for j in range(n)] for i in range(n)]

    def fmt_mat(self, a):
        return [[self.fmt(e) for e in row] for row in a]

    def parse_mat(self, rows):
        return [[self.parse(e) for e in row] for row in rows]

    def mat_eq(self, a, b):
        return len(a) == len(b) and all(
            len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
        )
