"""Gröbner bases of submodules of free modules, and what they buy us.

One engine covers Gröbner bases of ideals (rank-1 vectors, through
:func:`dfactor.rings.groebner`), ideal membership with expressing
coefficients, syzygies, colon ideals, kernels of matrices over quotient
rings, and certified linear solving.  Vectors are tuples of
:class:`Poly` over a shared ambient ring, ordered position-over-term
with position 0 dominant, so elimination of the leading block computes
syzygies and the tag block of any member records its expression in the
generators.

A completion keeps its divisor data in a :class:`Divisors` table that
grows with the basis, and hands each S-pair to :func:`vec_divmod` as
an :class:`SPair`, the two shifted halves whose leads cancel: the
division fills its accumulators from the two tails, so no S-vector is
built.  Over Q the completion is fraction-free: it runs on primitive
integer vectors over ``Ambient(ZZ, vars, order)`` and returns monic
``Fraction`` vectors, so no ``Fraction`` is made inside the pair loop.
The checks that do not trust the engine, :func:`is_module_groebner`,
:meth:`NoSolutionCertificate.reverify` and the division of the target
in :func:`membership_lift`, stay over the field; they bring no table
and build the S-vectors of :func:`is_module_groebner` whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm as int_lcm
from operator import add as _iadd, le as _ile, sub as _isub

from ._kernel.pure import mon_div, mon_divides, mon_lcm
from .errors import DeadlineExceeded
from .fields import ZZ
from .reuse import expired, reuse
from .rings import Ambient, Poly, QuotientRing, groebner

Vec = tuple  # tuple[Poly, ...]


def vec_is_zero(v: Vec) -> bool:
    return not any(p.terms for p in v)


def vec_lead(v: Vec):
    """POT lead: first position holding a nonzero polynomial."""
    for pos, p in enumerate(v):
        if p.terms:
            return (pos, *p.terms[0])
    return None


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b if a.terms and b.terms else a if a.terms else b for a, b in zip(u, v))


def vec_shift(v: Vec, mon, c) -> Vec:
    amb = v[0].amb
    shift = amb.ops.shift
    return tuple(Poly(amb, shift(p.terms, mon, c)) if p.terms else p for p in v)


def vec_monic(v: Vec, lead=None) -> Vec:
    """v over a field scaled to lead coefficient 1; ``lead`` is its
    ``vec_lead`` when known."""
    lead = lead or vec_lead(v)
    if lead is None or lead[2] == v[0].amb.field.one:
        return v
    amb = v[0].amb
    inv, scale = amb.field.inv(lead[2]), amb.ops.scale
    return tuple(Poly(amb, scale(p.terms, inv)) if p.terms else p for p in v)


def _primitive(v: Vec, lead=None) -> Vec:
    """v over ZZ divided by the gcd of its coefficients, signed so that
    its lead is positive; ``lead`` is its ``vec_lead`` when known.  The
    gcd divides the lead, so a lead of 1 or -1 needs no gcd walk."""
    a = (lead or vec_lead(v))[2]
    g = 1
    if a not in (1, -1):
        g = 0
        for p in v:
            if p.terms:
                g = gcd(g, *(c for _, c in p.terms))
                if g == 1:
                    break
    if a < 0:
        g = -g
    if g == 1:
        return v
    amb = v[0].amb
    return tuple(Poly(amb, tuple((m, c // g) for m, c in p.terms)) if p.terms else p for p in v)


def _integer_vec(v: Vec, zz: Ambient, zero: Poly) -> Vec:
    """The primitive vector over ZZ on the line of v over Q; its zero
    entries are all ``zero``."""
    nonzero = [(pos, p.terms) for pos, p in enumerate(v) if p.terms]
    den = int_lcm(*[c.denominator for _, terms in nonzero for _, c in terms])
    out = [zero] * len(v)
    for pos, terms in nonzero:
        out[pos] = Poly(zz, tuple((m, c.numerator * (den // c.denominator)) for m, c in terms))
    pos = nonzero[0][0]
    return _primitive(tuple(out), (pos, *out[pos].terms[0]))


def _monic_rational(v: Vec, amb: Ambient, zero: Poly) -> Vec:
    """The monic vector over Q on the line of v over ZZ; its zero
    entries are all ``zero``."""
    a = next(p.terms[0][1] for p in v if p.terms)
    return tuple(
        Poly(amb, tuple((m, Fraction(c, a)) for m, c in p.terms)) if p.terms else zero
        for p in v
    )


class SPair(tuple):
    """An S-vector as its two shifted halves ``(index, monomial,
    coefficient)``: the sum c_i*q_i*g_i + c_j*q_j*g_j of basis elements
    g_i and g_j, whose lead terms cancel."""

    __slots__ = ()


class Divisors:
    """The divisor data of a basis, kept beside it and grown with it.

    ``groups`` maps each lead position to the ``(index, lead monomial)``
    of the elements whose lead sits there, in basis order; :meth:`admit`
    files a new element.  ``entries`` maps an index to its reduction
    step ``reducer(lead coefficient)`` and its tail terms by position:
    the lead position's terms after the lead, then each later nonzero
    position whole.  :meth:`entry` builds an entry the first time its
    element divides, so a one-off division pays only for the divisors
    it uses.  ``firsts`` remembers, per position, which element first
    divides a monomial: its index k in the position's group, or -1 - n
    when none of the first n elements does.  A group only grows at its
    end, so a found divisor stays the first one, and a miss is
    extended by trying only the elements filed since.
    ``basis`` and ``leads`` are shared, not copied: append to both,
    then admit.
    """

    def __init__(self, basis, ring, leads=None):
        self.basis = basis
        self.leads = [vec_lead(g) for g in basis] if leads is None else leads
        self.reducer = ring.reducer
        self.groups: dict[int, list] = {}
        self.entries: dict[int, tuple] = {}
        self.firsts: dict[int, dict] = {}
        for idx in range(len(self.leads)):
            self.admit(idx)

    def admit(self, idx: int) -> None:
        lead = self.leads[idx]
        if lead is not None:
            self.groups.setdefault(lead[0], []).append((idx, lead[1]))

    def entry(self, idx: int):
        entry = self.entries.get(idx)
        if entry is None:
            g, (pos, _, a) = self.basis[idx], self.leads[idx]
            tails = [(pos, g[pos].terms[1:])]
            tails += [(p2, g[p2].terms) for p2 in range(pos + 1, len(g)) if g[p2].terms]
            entry = self.entries[idx] = (self.reducer(a), tails)
        return entry


def vec_divmod(v, basis, amb: Ambient, leads=None):
    """Full reduction of v by basis vectors; positions ascending.

    ``v`` is a vector or an :class:`SPair` of the basis; ``basis`` is a
    list of vectors or their :class:`Divisors`.  ``leads``, when given
    with a list, holds ``vec_lead`` of each basis vector.  Returns
    ``(remainder, None)``: v - remainder lies in the span of the basis
    vectors (over ZZ, a multiple of v; see below) and no remainder term
    is divisible by a same-position basis lead.

    Heap division per position, as in ``_kernel.pure.divmod_basis``:
    the current position's terms live in a dict keyed by monomial and a
    heap of ``heap_key`` values yields the biggest one next; a term whose
    coefficient cancelled to zero is skipped when the heap reaches it.
    A reduction also subtracts the divisor's later positions, which
    collect in dicts of their own until the loop reaches them.  Each
    step divides by the first same-position basis vector whose lead
    divides the current term, so the result does not depend on the data
    structure.  An S-pair's halves go straight into those dicts from
    the two elements' tails: their leads cancel, so the S-vector is
    never built.

    Coefficients are combined with native operators.  Over F_p they are
    ints left unreduced in the dicts and reduced ``% p`` when the heap
    pops their term, for the zero test and the remainder.

    Each step is h <- s*h - t*m*g with (s, t) from the divisor's
    reduction step.  Over a field s is 1.  Over ZZ s is a positive
    integer and the remainder is the product of the s's times the
    remainder over Q.  The scaling is lazy: the current position's terms
    are scaled at once, and every other position is brought to the
    running product ``scale`` when the loop next writes it (a later
    position) or at the end (a finished or untouched position).
    """
    table = basis if isinstance(basis, Divisors) else Divisors(basis, amb.field, leads)
    groups, entries, entry, firsts = table.groups, table.entries, table.entry, table.firsts
    p = amb.field.char
    heap_key = amb.order.heap_key
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
        v = (Poly(amb, ()),) * len(table.basis[v[0][0]])
    scale = 1  # product of the steps' s
    finished_at: dict[int, int] = {}  # finished position -> its scale, when not 1
    remainder = []
    for pos, f in enumerate(v):
        cands = groups.get(pos, ())
        acc = later.pop(pos, None)
        if acc is None:
            if not cands or not f.terms:
                remainder.append(f)  # untouched, at scale 1
                continue
            acc = dict(f.terms)
            at = 1
        else:
            at = later_at.pop(pos, 1)
        if at != scale:
            k = scale // at
            for m in acc:
                acc[m] *= k
        heap = [(heap_key(m), m) for m in acc]
        heapify(heap)
        rem = []
        n = len(cands)
        if n:
            first = firsts.get(pos)
            if first is None:
                first = firsts[pos] = {}
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
                    d = later[p2] = dict(v[p2].terms)
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
                            heappush(heap, (heap_key(mm), mm))
                    else:
                        d[mm] = old + tc * nqc
        remainder.append(Poly(amb, tuple(rem)))
        if scale != 1:
            finished_at[pos] = scale
    if scale != 1:
        for pos, f in enumerate(remainder):
            at = finished_at.get(pos, 1)
            if at != scale and f.terms:
                k = scale // at
                remainder[pos] = Poly(amb, tuple((m, c * k) for m, c in f.terms))
    return tuple(remainder), None


def module_groebner(vecs, amb: Ambient):
    """Reduced Gröbner basis of the submodule generated by ``vecs``.

    Pairs are installed with the Gebauer–Möller update (Becker &
    Weispfenning, *Gröbner Bases*, p. 230): a new element's pairs are
    filtered by the chain criterion, queued pairs whose lcm the new lead
    splits are dropped, and elements whose lead the new lead divides
    leave the active set that forms pairs and becomes the basis.  Only
    pairs whose leads sit at the same position are formed; leads at
    different positions have no S-vector.  The chain criterion holds for
    modules under a position-over-term order: if the lead of g sits at
    the position of f and h and divides lcm(f, h), then S(f, h) is a sum
    of monomial multiples of S(f, g) and S(g, h), exactly as for ideals,
    because only leads at one position take part (Gebauer & Möller, J.
    Symbolic Comput. 6, 1988).  The product criterion does not hold: in
    a ring, coprime leads make S(f, h) a combination of f and h with
    smaller terms because f*h = h*f, but for vectors h_p*f - f_p*h
    vanishes only at the lead position p.  For example f = (x, 1) and
    h = (y, 0) have S-vector (0, y), which neither reduces.  So coprime
    pairs stay queued, at rank 1 too: there the criterion would hold,
    but skipping the pairs it drops saves about 5% of the S-pair
    reductions on random ideals, which does not pay for a second code
    path.  S-vectors reduce against every element found so far, in the
    order found: reduced by the active set alone, some lex completions
    over the rationals ran through far longer chains of swollen
    coefficients.  Those elements' leads, reduction steps and tails,
    and the first divisor of each monomial met, sit in one
    :class:`Divisors` table, filed as each element is installed,
    and each S-pair goes to ``vec_divmod`` as its two halves
    (:class:`SPair`), so the S-vector is formed inside the division.
    The interreduction keeps a table of its own for the elements it has
    reduced.

    Pairs are taken lowest sugar first (Giovini, Mora, Niesi, Robbiano &
    Traverso, ISSAC 1991), ties by lcm degree: a generator's sugar is
    the largest total degree among its entries, and a new element takes
    its pair's.  The lcm degree alone (the "normal" strategy) ignores
    the later positions, whose degrees a POT order does not bound.  With
    the chain criterion it let a rank-8 homotopy system over F_7[x,y]
    build leads of degree 28 and run past 150 s where sugar takes 0.5 s.

    For a fixed order the reduced basis is unique, so which pairs were
    skipped cannot change the result, nor any certificate or witness
    computed from it.

    Over Q the run is fraction-free: each generator becomes the
    primitive integer vector on its line, each element found is made
    primitive instead of monic, and S-vectors and reductions take
    their (s, t) steps over ZZ (see :mod:`dfactor.fields`).  Each
    integer vector is a positive multiple of the monic vector the run
    over Q would hold at that point: an S-vector is a_i*a_j/gcd(a_i,
    a_j) times the field one, and a pseudo-remainder a positive
    multiple of the field remainder with the same terms, reached by the
    same divisor choices.  So the pairs, leads, sugars, criteria and
    ``vec_divmod`` calls are step for step those of the run over Q,
    and the reduced basis, made monic once on return, is the unique
    one.

    Within one CLI call each generator list is completed once (see
    :mod:`dfactor.reuse`); a repeat returns the basis already found.
    """
    vecs = list(vecs)
    return reuse(
        lambda: ("module_groebner", amb, tuple(tuple(p.terms for p in v) for v in vecs)),
        lambda: _complete(vecs, amb),
    )


def _complete(vecs, amb: Ambient):
    """The completion of :func:`module_groebner`, always run."""
    vecs = [v for v in vecs if not vec_is_zero(v)]
    if amb.field.char:
        work, normalize = amb, vec_monic
        basis = [vec_monic(v) for v in vecs]
    else:
        work, normalize = Ambient(ZZ, amb.vars, amb.order), _primitive
        zero = Poly(work, ())
        basis = [_integer_vec(v, work, zero) for v in vecs]
    key = amb.order.key
    leads: list = []
    table = Divisors(basis, work.field, leads)
    sugars = [max(p.total_degree() for p in v) for v in basis]
    active: list = []  # indices of the non-redundant elements, ascending
    live: dict = {}  # queued pairs (i, j) -> lcm of their leads; pruned pairs leave
    pairs: list = []  # heap over the ranks of queued and pruned pairs

    def install(h):
        pos, mh, _ = lead = vec_lead(basis[h])
        leads.append(lead)
        table.admit(h)
        new = [(g, mon_lcm(leads[g][1], mh)) for g in active if leads[g][0] == pos]
        kept = []
        for n, (g, lcm) in enumerate(new):
            # chain criterion among the new pairs: of equal lcms the last is kept
            if not (
                any(mon_divides(other, lcm) for _, other in new[n + 1 :])
                or any(mon_divides(other, lcm) for _, other in kept)
            ):
                kept.append((g, lcm))
        for (i, j), lcm in list(live.items()):
            if (
                leads[i][0] == pos
                and mon_divides(mh, lcm)
                and mon_lcm(leads[i][1], mh) != lcm
                and mon_lcm(leads[j][1], mh) != lcm
            ):
                del live[i, j]
        for g, lcm in kept:
            live[g, h] = lcm
            deg = sum(lcm)
            sugar = max(sugars[g] + deg - sum(leads[g][1]), sugars[h] + deg - sum(mh))
            heappush(pairs, ((sugar, deg, key(lcm), pos, g, h), g, h))
        active[:] = [g for g in active if leads[g][0] != pos or not mon_divides(mh, leads[g][1])]
        active.append(h)

    for h in range(len(basis)):
        install(h)

    done = 0
    while pairs:
        if expired():
            raise DeadlineExceeded(f"module groebner: {done} pairs done, {len(live)} queued")
        rank, i, j = heappop(pairs)
        lcm = live.pop((i, j), None)
        if lcm is None:
            continue
        done += 1
        li, lj = leads[i], leads[j]
        s, t = table.entry(i)[0](lj[2])  # s*a_j = t*a_i
        halves = SPair(((i, mon_div(lcm, li[1]), t), (j, mon_div(lcm, lj[1]), -s)))
        rem, _ = vec_divmod(halves, table, work)
        if not vec_is_zero(rem):
            basis.append(normalize(rem))
            sugars.append(rank[0])
            install(len(basis) - 1)

    reduced = _reduce_module_basis(
        [basis[g] for g in active], [leads[g] for g in active], work, normalize
    )
    if work is amb:
        return reduced
    zero = amb.zero()
    return tuple(_monic_rational(v, amb, zero) for v in reduced)


def _reduce_module_basis(basis, leads, amb, normalize):
    """Minimalize and tail-reduce; returns the biggest lead first.

    The minimal elements are reduced in ascending order (position
    descending, then monomial ascending), each against those already
    reduced: a tail term sits below its element's lead, so only a
    smaller lead can divide it.  The lead itself is never reduced, so
    each result keeps its lead; ``normalize`` (monic over a field,
    primitive over ZZ) is applied to each.
    """
    key = amb.order.key
    minimal: list = []  # indices into basis, ascending
    for k in sorted(range(len(basis)), key=lambda k: (-leads[k][0], key(leads[k][1]))):
        pos, mon, _ = leads[k]
        if not any(leads[h][0] == pos and mon_divides(leads[h][1], mon) for h in minimal):
            minimal.append(k)
    reduced: list = []
    reduced_leads: list = []
    table = Divisors(reduced, amb.field, reduced_leads)
    for k in minimal:
        if expired():
            raise DeadlineExceeded(
                f"module groebner interreduction: {len(reduced)} of {len(minimal)} elements"
            )
        pos, mon, _ = leads[k]
        rem = basis[k]
        if reduced:
            rem, _ = vec_divmod(rem, table, amb)
            rem = normalize(rem, (pos, mon, rem[pos].lead_coeff))
        reduced.append(rem)
        reduced_leads.append((pos, mon, rem[pos].lead_coeff))
        table.admit(len(reduced) - 1)
    return tuple(reversed(reduced))


def is_module_groebner(basis, amb) -> bool:
    """Buchberger criterion: every same-position S-vector reduces to 0."""
    basis = list(basis)
    leads = [vec_lead(v) for v in basis]
    for j in range(len(basis)):
        for i in range(j):
            li, lj = leads[i], leads[j]
            if li is None or lj is None or li[0] != lj[0]:
                continue
            lcm = mon_lcm(li[1], lj[1])
            left = vec_shift(basis[i], mon_div(lcm, li[1]), amb.field.inv(li[2]))
            right = vec_shift(
                basis[j], mon_div(lcm, lj[1]), amb.field.neg(amb.field.inv(lj[2]))
            )
            rem, _ = vec_divmod(vec_add(left, right), basis, amb, leads=leads)
            if not vec_is_zero(rem):
                return False
    return True


def _augment(vecs, amb: Ambient):
    """Append tag components: generator k gets unit tag e_k."""
    n = len(vecs)
    zero = amb.zero()
    one = amb.one()
    out = []
    for k, v in enumerate(vecs):
        tag = tuple(one if i == k else zero for i in range(n))
        out.append(tuple(v) + tag)
    return out


@dataclass(frozen=True)
class NoSolutionCertificate:
    """Re-verifiable evidence that a vector is outside a submodule.

    ``gb`` is a Gröbner basis of the augmented module (main block
    followed by tag block, generator k tagged e_k); ``target`` is the
    augmented target (the vector, then a zero tag block) and
    ``remainder`` its fully reduced image, with a nonzero main block.

    :meth:`reverify` re-establishes the verdict without re-running the
    completion: every gb element is the combination of the augmented
    generators its tag names, and every augmented generator reduces to
    0 by gb, so both span one module; gb passes the Buchberger
    criterion (all pairs, no skipping); and the division of the target
    by gb gives exactly the remainder.  Under position-over-term a
    target in the main span would leave only tag terms, so a nonzero
    main block proves it is outside.
    """

    gens: tuple
    gb: tuple
    remainder: tuple
    main_len: int
    target: tuple

    def reverify(self, amb: Ambient) -> bool:
        m = self.main_len
        width = m + len(self.gens)
        if any(len(g) != m for g in self.gens) or any(
            len(v) != width for v in (*self.gb, self.target, self.remainder)
        ):
            return False
        if not vec_is_zero(self.target[m:]):
            return False
        for g in self.gb:
            main, tag = g[:m], g[m:]
            acc = [amb.zero()] * m
            for coeff, gen in zip(tag, self.gens):
                if coeff.is_zero:
                    continue
                for i in range(m):
                    acc[i] = acc[i] + coeff * gen[i]
            if tuple(acc) != tuple(main):
                return False
        gb = list(self.gb)
        leads = [vec_lead(g) for g in gb]
        for gen in _augment(self.gens, amb):
            if not vec_is_zero(vec_divmod(gen, gb, amb, leads=leads)[0]):
                return False
        if not is_module_groebner(gb, amb):
            return False
        if vec_divmod(self.target, gb, amb, leads=leads)[0] != tuple(self.remainder):
            return False
        return any(not p.is_zero for p in self.remainder[:m])


def membership_lift(gens, target, amb: Ambient):
    """Decide target in <gens> inside P^m, with expressing coefficients.

    Returns ``(coeffs, None)`` on success with target == sum(coeffs_k *
    gens_k), or ``(None, NoSolutionCertificate)``.
    """
    gens = list(gens)
    m = len(target)
    if not gens:
        if vec_is_zero(tuple(target)):
            return (), None
        return None, NoSolutionCertificate(
            gens=(), gb=(), remainder=tuple(target), main_len=m, target=tuple(target)
        )
    gb = module_groebner(_augment(gens, amb), amb)
    zero = amb.zero()
    target_aug = tuple(target) + tuple(zero for _ in gens)
    rem, _ = vec_divmod(target_aug, list(gb), amb)
    if all(p.is_zero for p in rem[:m]):
        coeffs = tuple(-p for p in rem[m:])
        return coeffs, None
    return None, NoSolutionCertificate(
        gens=tuple(tuple(g) for g in gens), gb=gb, remainder=rem, main_len=m, target=target_aug
    )


def syzygy_gens(vecs, amb: Ambient):
    """Generators of the syzygy module of ``vecs`` in P^m.

    The tag blocks of the Gröbner basis elements whose main block
    vanished generate all relations sum(c_k * vecs_k) = 0.
    """
    vecs = list(vecs)
    if not vecs:
        return ()
    m = len(vecs[0])
    gb = module_groebner(_augment(vecs, amb), amb)
    out = []
    for g in gb:
        if all(p.is_zero for p in g[:m]):
            out.append(tuple(g[m:]))
    return tuple(out)


# -- ring-level operations -------------------------------------------


def colon_ideal(ideal_gens, g: Poly, ring: QuotientRing):
    """Generators of (I : g) = {r : r*g in I} inside the quotient ring.

    Computed from syzygies of [g, I-gens, defining-ideal gens]: the
    first tag coordinate of each relation multiplies g into the ideal.
    Returns the reduced ambient basis of the colon (which contains the
    defining ideal) together with membership certificates, one
    quotient tuple per generator expressing r*g in the lifted ideal.
    """
    amb = ring.amb
    if g.is_zero:
        raise ValueError("colon by zero")
    lifted = [p for p in list(ideal_gens) + list(ring.ideal.basis) if not p.is_zero]
    vecs = [(g,)] + [(h,) for h in lifted]
    syz = syzygy_gens(vecs, amb)
    firsts = [s[0] for s in syz if not s[0].is_zero]
    basis = groebner(firsts + lifted)
    certs = []
    if lifted:
        gen_vecs = [(h,) for h in lifted]
        for r in basis:
            coeffs, fail = membership_lift(gen_vecs, (r * g,), amb)
            if fail is not None:
                raise AssertionError("colon generator failed its own membership")
            certs.append(coeffs)
    else:
        certs = [() for _ in basis]
    return basis, tuple(certs)


def is_regular(f: Poly, ring: QuotientRing) -> bool:
    """True when multiplication by f is injective on the quotient ring,
    i.e. the annihilator colon (0 : f) is zero."""
    f = ring.nf(f)
    if f.is_zero:
        raise ValueError("regularity of 0 is degenerate")
    basis, _ = colon_ideal([], f, ring)
    return all(ring.nf(b).is_zero for b in basis)


def _columns_and_injections(rows, ring: QuotientRing, modulo=None):
    """Module generators whose span is the column space of the matrix
    modulo the defining ideal (and each row's extra generators).

    The columns come first, then one h*e_i per generator h and row i it
    applies to, generator-major: the ideal's basis first, then the extra
    generators in order of first appearance.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if any(len(r) != n for r in rows):
        raise ValueError("ragged matrix")
    if modulo is not None and len(modulo) != m:
        raise ValueError("one modulus tuple per row is needed")
    zero = ring.amb.zero()
    gens = [tuple(rows[i][j] for i in range(m)) for j in range(n)]
    moduli = [(h, range(m)) for h in ring.ideal.basis]
    extra = []
    for hs in modulo or ():
        extra.extend(h for h in hs if h not in extra)
    moduli += [(h, [i for i in range(m) if h in modulo[i]]) for h in extra]
    for h, applies in moduli:
        for i in applies:
            gens.append(tuple(h if k == i else zero for k in range(m)))
    return gens


@dataclass(frozen=True)
class LinearSolution:
    solution: tuple


def solve_linear(rows, rhs, ring: QuotientRing, modulo=None):
    """Solve A*s = b over a quotient ring, or certify no solution.

    ``rows`` is the matrix as row tuples of ring elements, ``rhs`` the
    column.  ``modulo``, when given, holds for each row a tuple of extra
    generators that row is taken modulo.  Success returns
    :class:`LinearSolution` whose entries are normal forms satisfying
    the system entrywise after reduction; failure returns
    :class:`NoSolutionCertificate` (membership of the column module
    fails, decided by a module Gröbner basis).
    """
    m = len(rows)
    if len(rhs) != m:
        raise ValueError("dimension mismatch between matrix and rhs")
    n = len(rows[0]) if m else 0
    gens = _columns_and_injections(rows, ring, modulo)
    coeffs, cert = membership_lift(gens, tuple(rhs), ring.amb)
    if cert is not None:
        return cert
    solution = tuple(ring.nf(c) for c in coeffs[:n])
    live = [(j, s) for j, s in enumerate(solution) if not s.is_zero]
    reducers = {(): ring}
    for i in range(m):
        extra = modulo[i] if modulo is not None else ()
        if extra not in reducers:
            reducers[extra] = ring.extend_ideal(extra)
        acc = ring.amb.zero()
        for j, s in live:  # products with a zero factor are skipped
            if not rows[i][j].is_zero:
                acc = acc + rows[i][j] * s
        if not reducers[extra].nf(acc - rhs[i]).is_zero:
            raise AssertionError("solver returned an invalid solution")
    return LinearSolution(solution)


def matrix_kernel(rows, ring: QuotientRing):
    """Column vectors generating the kernel of the matrix over the ring.

    Syzygies of the columns together with defining-ideal injections;
    the column-coefficient block of each relation is a kernel element.
    """
    n = len(rows[0]) if rows else 0
    syz = syzygy_gens(_columns_and_injections(rows, ring), ring.amb)
    out = []
    seen = set()
    for s in syz:
        v = tuple(ring.nf(p) for p in s[:n])
        if all(p.is_zero for p in v):
            continue
        sig = tuple(p.terms for p in v)
        if sig not in seen:
            seen.add(sig)
            out.append(v)
    return tuple(out)
