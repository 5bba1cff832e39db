"""Polynomial term kernel, generic over the coefficient field.

A polynomial is a tuple of ``(monomial, coeff)`` pairs with monomials
strictly descending in the ambient order and no zero coefficients; a
monomial is a tuple of nonnegative exponents.  This module is the only
implementation, over prime fields and the rationals alike.

``key`` arguments are monomial sort keys (bigger key = bigger
monomial) and ``heap_key`` arguments their descending twins (smaller
heap key = bigger monomial); both come from
:class:`dfactor.rings.MonomialOrder`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import add as _iadd, le as _ile, sub as _isub


def mon_mul(a, b):
    return tuple(map(_iadd, a, b))


def mon_divides(a, b):
    """True when monomial a divides monomial b."""
    return all(map(_ile, a, b))


def mon_div(b, a):
    """b / a, assuming a divides b."""
    return tuple(map(_isub, b, a))


def mon_lcm(a, b):
    return tuple(map(max, a, b))


def add(ta, tb, field, key):
    """Merge two canonical term tuples.  Each term's key is computed
    once, when the merge reaches it."""
    out = []
    i = j = 0
    na, nb = len(ta), len(tb)
    if na and nb:
        ka, kb = key(ta[0][0]), key(tb[0][0])
        while True:
            if ka > kb:
                out.append(ta[i])
                i += 1
                if i == na:
                    break
                ka = key(ta[i][0])
            elif ka < kb:
                out.append(tb[j])
                j += 1
                if j == nb:
                    break
                kb = key(tb[j][0])
            else:
                c = field.add(ta[i][1], tb[j][1])
                if c != field.zero:
                    out.append((ta[i][0], c))
                i += 1
                j += 1
                if i == na or j == nb:
                    break
                ka, kb = key(ta[i][0]), key(tb[j][0])
    out.extend(ta[i:])
    out.extend(tb[j:])
    return tuple(out)


def neg(ta, field):
    return tuple((m, field.neg(c)) for m, c in ta)


def scale(ta, c, field):
    if c == field.zero:
        return ()
    return tuple((m, field.mul(cc, c)) for m, cc in ta)


def shift(ta, mon, c, field):
    """Multiply by the single term c*mon.  Order is preserved because
    monomial orders are multiplicative."""
    if c == field.zero:
        return ()
    return tuple((mon_mul(m, mon), field.mul(cc, c)) for m, cc in ta)


def dot(pairs, field, key):
    """Sum of the products a*b over pairs (a, b) of canonical term
    tuples.  Every product goes into one dict and the sum is sorted
    once.  A single pair with a one-term operand is a ``shift`` of the
    other: monomial orders are multiplicative and a field has no zero
    divisors, so that product needs no sort."""
    if len(pairs) == 1:
        ta, tb = pairs[0]
        if not ta or not tb:
            return ()
        if len(tb) == 1:
            return shift(ta, tb[0][0], tb[0][1], field)
        if len(ta) == 1:
            return shift(tb, ta[0][0], ta[0][1], field)
    acc = {}
    fadd, fmul = field.add, field.mul
    for ta, tb in pairs:
        for ma, ca in ta:
            for mb, cb in tb:
                m = tuple(map(_iadd, ma, mb))
                c = fmul(ca, cb)
                old = acc.get(m)
                acc[m] = c if old is None else fadd(old, c)
    zero = field.zero
    return tuple(sorted(
        ((m, c) for m, c in acc.items() if c != zero), key=lambda t: key(t[0]), reverse=True
    ))


def mul(ta, tb, field, key):
    """Product of two canonical term tuples: :func:`dot` of one pair."""
    return dot(((ta, tb),), field, key)


def divmod_basis(f, basis, field, heap_key):
    """Fully reduce f against a list of term tuples.

    Returns ``(remainder, None)``: f minus a combination of the basis
    elements, with no remainder term divisible by any basis lead.
    Basis elements must be nonzero.

    Heap division (Johnson 1974; Monagan & Pearce 2007): the terms
    still to be reduced live in a dict keyed by monomial, and a heap of
    ``heap_key`` values yields the biggest one next.  A term that
    cancels is dropped from the dict and skipped when the heap reaches
    it.  Each step divides by the first basis element whose lead
    divides the current term, exactly as classical division does, so
    the remainder does not depend on the data structure.
    """
    leads = [g[0][0] for g in basis]
    n = len(f)
    start = 0
    while start < n:
        m = f[start][0]
        if any(all(map(_ile, gm, m)) for gm in leads):
            break
        start += 1
    if start == n:
        return f, None

    zero = field.zero
    fmul, fadd, fneg = field.mul, field.add, field.neg
    invs = [field.inv(g[0][1]) for g in basis]
    tails = [g[1:] for g in basis]
    rem = list(f[:start])
    acc = dict(f[start:])
    heap = [(heap_key(m), m) for m, _ in f[start:]]  # ascending keys: a heap
    while heap:
        m = heappop(heap)[1]
        c = acc.pop(m, None)
        if c is None:
            continue  # cancelled after it was pushed
        for gi, gm in enumerate(leads):
            if all(map(_ile, gm, m)):
                break
        else:
            rem.append((m, c))
            continue
        qmon = tuple(map(_isub, m, gm))
        nqc = fneg(fmul(c, invs[gi]))
        for tm, tc in tails[gi]:
            mm = tuple(map(_iadd, tm, qmon))
            old = acc.get(mm)
            if old is None:
                acc[mm] = fmul(tc, nqc)
                heappush(heap, (heap_key(mm), mm))
            else:
                s = fadd(old, fmul(tc, nqc))
                if s == zero:
                    del acc[mm]
                else:
                    acc[mm] = s
    return tuple(rem), None
