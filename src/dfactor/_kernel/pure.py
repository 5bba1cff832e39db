"""Polynomial term kernel, generic over the coefficient field.

A polynomial is a tuple of ``(monomial, coeff)`` pairs with monomials
strictly descending in the ambient order and no zero coefficients; a
monomial is a tuple of nonnegative exponents.  A vector of a free
module is a tuple of polynomials, one per position.  This module is the
only implementation, over prime fields and the rationals alike.
:func:`divmod_basis` is the one division, of vectors; ring normal forms
are its one-position case.

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

from heapq import heapify, heappop, heappush
from operator import add as _iadd, le as _ile, sub as _isub


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


class SPair(tuple):
    """An S-vector as its two shifted halves ``(index, monomial,
    coefficient)``: the sum c_i*q_i*g_i + c_j*q_j*g_j of the vectors
    g_i and g_j of a :class:`Divisors` table, whose lead terms cancel."""

    __slots__ = ()


class Divisors(list):
    """Vectors to divide by, with their divisor data, grown by :meth:`admit`.

    ``leads`` holds each vector's lead ``(position, monomial,
    coefficient)``, None for a zero vector.  ``groups`` maps each lead
    position to the ``(index, lead monomial)`` of the vectors whose lead
    sits there, in table order.  ``entries`` maps an index to its
    reduction step ``reducer(lead coefficient)`` (see
    :mod:`dfactor.fields`) and its tail terms by position: the lead
    position's terms after the lead, then each later nonzero position
    whole.  :meth:`entry` builds an entry the first time its vector
    divides, so a one-off division pays only for the divisors it uses.
    ``firsts`` remembers, per position, which vector first divides a
    monomial: its index k in the position's group, or -1 - n when none
    of the first n vectors does.  A group only grows at its end, so a
    found divisor stays the first one, and a miss is extended by trying
    only the vectors filed since.  ``keys`` remembers the ``heap_key`` of
    each monomial the division has met, so a table serves one monomial
    order.
    """

    def __init__(self, field, vecs=()):
        super().__init__()
        self.field = field
        self.leads: list = []
        self.groups: dict[int, list] = {}
        self.entries: dict[int, tuple] = {}
        self.firsts: dict[int, dict] = {}
        self.keys: dict = {}
        for vec in vecs:
            self.admit(vec)

    def admit(self, vec) -> None:
        lead = None
        for pos, terms in enumerate(vec):
            if terms:
                lead = (pos, *terms[0])
                self.groups.setdefault(pos, []).append((len(self), lead[1]))
                break
        self.append(vec)
        self.leads.append(lead)

    def entry(self, idx: int):
        entry = self.entries.get(idx)
        if entry is None:
            g, (pos, _, a) = self[idx], self.leads[idx]
            tails = [(pos, g[pos][1:])]
            tails += [(p2, g[p2]) for p2 in range(pos + 1, len(g)) if g[p2]]
            entry = self.entries[idx] = (self.field.reducer(a), tails)
        return entry


def divmod_basis(v, table, field, heap_key):
    """Full reduction of the vector v by a :class:`Divisors` table;
    positions ascending.

    ``v`` is a tuple of term tuples or an :class:`SPair` of the table.
    Returns the remainder: v minus a combination of the table's vectors
    (over ZZ, a multiple of v; see below), with no term divisible by a
    same-position lead.  A polynomial f reduces as ``(f,)``.

    Heap division (Johnson 1974; Monagan & Pearce, CASC 2007): the
    current position's terms live in a dict keyed by monomial and a heap
    of ``heap_key`` values yields the biggest one next; a term whose
    coefficient cancelled to zero is skipped when the heap reaches it.
    A reduction also subtracts the divisor's later positions, which
    collect in dicts of their own until the loop reaches them.  Each
    step divides by the first same-position vector whose lead divides
    the current term, as classical division does, so the remainder does
    not depend on the data structure.  The terms of v before its first
    divisible one go to the remainder without the heap, so a position
    with none passes through as it came.  An S-pair's halves go straight
    into the dicts from the two tails: their leads cancel, so the
    S-vector is never built.

    Each step is h <- s*h - t*m*g with (s, t) from the divisor's
    reduction step.  Over a field s is 1.  Over ZZ s is a positive
    integer and the remainder is the product of the s's times the
    remainder over Q.  The scaling is lazy: the current position's terms
    are scaled at once, and every other position is brought to the
    running product ``scale`` when the loop next writes it (a later
    position) or at the end (a finished or untouched position).
    """
    groups, entries, entry, firsts = table.groups, table.entries, table.entry, table.firsts
    keys = table.keys
    p = field.char
    later: dict[int, dict] = {}  # position ahead of the loop -> its terms so far
    later_at: dict[int, int] = {}  # ... -> the scale they are at, when not 1
    if isinstance(v, SPair):
        for idx, q, c in v:
            for p2, terms in entry(idx)[1]:
                d = later.get(p2)
                if d is None:
                    d = later[p2] = {}
                for tm, tc in terms:
                    mm = tuple(map(_iadd, tm, q))
                    old = d.get(mm)
                    d[mm] = tc * c if old is None else old + tc * c
        v = ((),) * len(table[v[0][0]])
    scale = 1  # product of the steps' s
    finished_at: dict[int, int] = {}  # finished position -> its scale, when not 1
    remainder = []
    for pos, f in enumerate(v):
        acc = later.pop(pos, None)
        if acc is None and not f:
            remainder.append(f)
            continue
        cands = groups.get(pos, ())
        n = len(cands)
        if n:
            first = firsts.get(pos)
            if first is None:
                first = firsts[pos] = {}
        if acc is None:
            if not n:
                remainder.append(f)  # untouched, at scale 1
                continue
            for start, (m, _) in enumerate(f):
                k = first.get(m, -1)
                if k < 0:  # extend the memo over the group
                    k = -1 - k
                    while k < n and not all(map(_ile, cands[k][1], m)):
                        k += 1
                    if k == n:
                        first[m] = -1 - n
                        continue
                    first[m] = k
                break
            else:
                remainder.append(f)  # nothing divisible, at scale 1
                continue
            rem = list(f[:start])
            acc = dict(f[start:])
            at = 1
        else:
            rem = []
            at = later_at.pop(pos, 1)
        if at != scale:
            k = scale // at
            for m in acc:
                acc[m] *= k
            rem = [(rm, rc * k) for rm, rc in rem]
        heap = [(keys.get(m) or keys.setdefault(m, heap_key(m)), m) for m in acc]
        heapify(heap)
        while heap:
            m = heappop(heap)[1]
            c = acc.pop(m)
            if p:
                c %= p
            if not c:
                continue  # cancelled
            if not n:
                rem.append((m, c))
                continue
            k = first.get(m, -1)
            if k < 0:
                k = -1 - k
                while k < n and not all(map(_ile, cands[k][1], m)):
                    k += 1
                if k == n:
                    first[m] = -1 - n
                    rem.append((m, c))
                    continue
                first[m] = k
            idx, gm = cands[k]
            step, tails = entries.get(idx) or entry(idx)
            s, t = step(c)
            if s != 1:
                scale *= s
                for mm in acc:
                    acc[mm] *= s
                rem = [(rm, rc * s) for rm, rc in rem]
            qmon = tuple(map(_isub, m, gm))
            nqc = -t
            for p2, terms in tails:
                here = p2 == pos
                d = acc if here else later.get(p2)
                if d is None:
                    d = later[p2] = dict(v[p2])
                    if scale != 1:
                        for mm in d:
                            d[mm] *= scale
                        later_at[p2] = scale
                elif scale != 1 and not here and later_at.get(p2, 1) != scale:
                    k = scale // later_at.get(p2, 1)
                    for mm in d:
                        d[mm] *= k
                    later_at[p2] = scale
                for tm, tc in terms:
                    mm = tuple(map(_iadd, tm, qmon))
                    old = d.get(mm)
                    if old is None:
                        d[mm] = tc * nqc
                        if here:
                            heappush(heap, (keys.get(mm) or keys.setdefault(mm, heap_key(mm)), mm))
                    else:
                        d[mm] = old + tc * nqc
        remainder.append(tuple(rem))
        if scale != 1:
            finished_at[pos] = scale
    if scale != 1:
        for pos, f in enumerate(remainder):
            at = finished_at.get(pos, 1)
            if at != scale and f:
                k = scale // at
                remainder[pos] = tuple((m, c * k) for m, c in f)
    return tuple(remainder)
