"""Polynomial term kernel, generic over the coefficient field.

A polynomial is a tuple of ``(monomial, coeff)`` pairs with monomials
strictly descending in the ambient order and no zero coefficients; a
monomial is a tuple of nonnegative exponents.  This module is the only
implementation, over prime fields and the rationals alike.

Merges, sorts and heaps order monomials by ``heap_key`` arguments, the
descending keys of :class:`dfactor.rings.MonomialOrder` (smaller heap
key = bigger monomial): they are cheaper to compute than the ascending
``key``.

Coefficients are combined in native arithmetic, not through the
field's methods.  An F_p element is an int in ``[0, p)``: products and
sums are native int operations, reduced ``% p`` once per output
coefficient (in a division, when the heap pops its term).  A field (or
ring) with ``char`` 0 is the rationals or the integers of fraction-free
elimination, whose native operators are the field's own; a sum starts
from its first product, never from an int 0.
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


def add(ta, tb, field, heap_key):
    """Merge two canonical term tuples.  Each term's heap key is
    computed once, when the merge reaches it."""
    p = field.char
    out = []
    i = j = 0
    na, nb = len(ta), len(tb)
    if na and nb:
        ka, kb = heap_key(ta[0][0]), heap_key(tb[0][0])
        while True:
            if ka < kb:
                out.append(ta[i])
                i += 1
                if i == na:
                    break
                ka = heap_key(ta[i][0])
            elif ka > kb:
                out.append(tb[j])
                j += 1
                if j == nb:
                    break
                kb = heap_key(tb[j][0])
            else:
                c = ta[i][1] + tb[j][1]
                if p:
                    c %= p
                if c:
                    out.append((ta[i][0], c))
                i += 1
                j += 1
                if i == na or j == nb:
                    break
                ka, kb = heap_key(ta[i][0]), heap_key(tb[j][0])
    out.extend(ta[i:])
    out.extend(tb[j:])
    return tuple(out)


def neg(ta, field):
    p = field.char
    if p:
        return tuple((m, -c % p) for m, c in ta)
    return tuple((m, -c) for m, c in ta)


def scale(ta, c, field):
    if not c:
        return ()
    p = field.char
    if p:
        return tuple((m, cc * c % p) for m, cc in ta)
    return tuple((m, cc * c) for m, cc in ta)


def shift(ta, mon, c, field):
    """Multiply by the single term c*mon.  Order is preserved because
    monomial orders are multiplicative."""
    if not c:
        return ()
    p = field.char
    if p:
        return tuple((tuple(map(_iadd, m, mon)), cc * c % p) for m, cc in ta)
    return tuple((tuple(map(_iadd, m, mon)), cc * c) for m, cc in ta)


def axpy(ta, s, tb, field, heap_key):
    """ta + s*tb for canonical term tuples and a field element s."""
    if s != 1:
        tb = scale(tb, s, field)
    return add(ta, tb, field, heap_key) if ta else tb


def dot(pairs, field, heap_key):
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
    get = acc.get
    for ta, tb in pairs:
        for ma, ca in ta:
            for mb, cb in tb:
                m = tuple(map(_iadd, ma, mb))
                old = get(m)
                acc[m] = ca * cb if old is None else old + ca * cb
    p = field.char
    if p:
        return tuple([(m, c) for m in sorted(acc, key=heap_key) if (c := acc[m] % p)])
    return tuple([(m, acc[m]) for m in sorted(acc, key=heap_key) if acc[m]])


def mul(ta, tb, field, heap_key):
    """Product of two canonical term tuples: :func:`dot` of one pair."""
    return dot(((ta, tb),), field, heap_key)


def divmod_basis(f, basis, field, heap_key):
    """Fully reduce f against a list of term tuples.

    Returns ``(remainder, None)``: f minus a combination of the basis
    elements, with no remainder term divisible by any basis lead.
    Basis elements must be nonzero.

    Heap division (Johnson 1974; Monagan & Pearce 2007): the terms
    still to be reduced live in a dict keyed by monomial, and a heap of
    ``heap_key`` values yields the biggest one next.  A term whose
    coefficient cancels to zero is skipped when the heap reaches it.
    Each step divides by the first basis element whose lead
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

    p = field.char
    ninvs = [field.neg(field.inv(g[0][1])) for g in basis]
    tails = [g[1:] for g in basis]
    rem = list(f[:start])
    acc = dict(f[start:])
    heap = [(heap_key(m), m) for m, _ in f[start:]]  # ascending keys: a heap
    while heap:
        m = heappop(heap)[1]
        c = acc.pop(m)
        if p:
            c %= p
        if not c:
            continue  # cancelled
        for gi, gm in enumerate(leads):
            if all(map(_ile, gm, m)):
                break
        else:
            rem.append((m, c))
            continue
        qmon = tuple(map(_isub, m, gm))
        nqc = c * ninvs[gi]
        if p:
            nqc %= p
        for tm, tc in tails[gi]:
            mm = tuple(map(_iadd, tm, qmon))
            old = acc.get(mm)
            if old is None:
                acc[mm] = tc * nqc
                heappush(heap, (heap_key(mm), mm))
            else:
                acc[mm] = old + tc * nqc
    return tuple(rem), None
