"""Gröbner bases of submodules of free modules, and what they buy us.

One engine covers Gröbner bases of ideals (rank-1 vectors, through
:func:`dfactor.rings.groebner`), ideal membership with expressing
coefficients, syzygies, colon ideals, kernels of matrices over quotient
rings, and certified linear solving.  Vectors are tuples of
:class:`Poly` over a shared ambient ring, ordered position-over-term
with position 0 dominant, so elimination of the leading block computes
syzygies and the tag block of any member records its expression in the
generators.

Every division is the term kernel's (``_kernel.pure.divmod_basis``),
through :func:`vec_divmod`.  A completion files each element it finds
in the kernel's :class:`Divisors` table once, and hands each S-pair to
the division as an :class:`SPair`, so no S-vector is built.  Over Q
the completion is fraction-free: it runs on primitive integer vectors
over ``Ambient(ZZ, vars, order)`` and returns monic ``Fraction``
vectors, so no ``Fraction`` is made inside the pair loop.  The checks
that do not trust the engine, :func:`is_module_groebner`,
:meth:`NoSolutionCertificate.reverify` and the division of the target
in :func:`membership_lift`, stay over the field and build the
S-vectors of :func:`is_module_groebner` whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm as int_lcm

from ._kernel.pure import Divisors, SPair, mon_div, mon_divides, mon_lcm
from .errors import DeadlineExceeded
from .fields import ZZ
from .reuse import expired, reuse
from .rings import Ambient, Poly, QuotientRing, groebner

Vec = tuple  # tuple[Poly, ...]


def vec_is_zero(v: Vec) -> bool:
    return not any(p.terms for p in v)


def _terms(v: Vec) -> tuple:
    """The term tuples of v, as the kernel's division takes them."""
    return tuple([p.terms for p in v])


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


def vec_divmod(v, basis, amb: Ambient):
    """``(remainder, None)``: the kernel's division of v, a vector or an
    :class:`SPair`, by a list of vectors or the :class:`Divisors` table
    of their term tuples.  Untouched positions keep their :class:`Poly`.
    """
    if not isinstance(basis, Divisors):
        basis = Divisors(amb.field, [_terms(g) for g in basis])
    if isinstance(v, SPair):
        zero = Poly(amb, ())
        return tuple([Poly(amb, t) if t else zero for t in amb.ops.divmod_basis(v, basis)]), None
    terms = _terms(v)
    rem = amb.ops.divmod_basis(terms, basis)
    if rem == terms:  # nothing was divisible
        return tuple(v), None
    return tuple([f if t is f.terms else Poly(amb, t) for f, t in zip(v, rem)]), None


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
        lambda: ("module_groebner", amb, tuple(_terms(v) for v in vecs)),
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
    table = Divisors(work.field)
    leads = table.leads
    sugars = [max(p.total_degree() for p in v) for v in basis]
    active: list = []  # indices of the non-redundant elements, ascending
    live: dict = {}  # queued pairs (i, j) -> lcm of their leads; pruned pairs leave
    pairs: list = []  # heap over the ranks of queued and pruned pairs

    def install(h):
        table.admit(_terms(basis[h]))
        pos, mh, _ = leads[h]
        # chain criterion among the new pairs: of each minimal lcm the last pair is kept
        last = {mon_lcm(leads[g][1], mh): g for g in active if leads[g][0] == pos}
        kept = [
            (g, lcm) for lcm, g in last.items()
            if not any(other != lcm and mon_divides(other, lcm) for other in last)
        ]
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
        [basis[g] for g in active], [table[g] for g in active], [leads[g] for g in active],
        work, normalize,
    )
    if work is amb:
        return reduced
    zero = amb.zero()
    return tuple(_monic_rational(v, amb, zero) for v in reduced)


def _reduce_module_basis(basis, vecs, leads, amb, normalize):
    """Minimalize and tail-reduce; returns the biggest lead first.

    ``vecs`` and ``leads`` hold the term tuples and the lead of each
    basis vector.  The minimal elements are reduced in ascending order
    (position descending, then monomial ascending), each against those
    already reduced: a tail term sits below its element's lead, so only
    a smaller lead can divide it.  The lead itself is never reduced, so
    each result keeps its lead; ``normalize`` (monic over a field,
    primitive over ZZ) is applied to each that a step changed.
    """
    key = amb.order.key
    minimal: list = []  # indices into basis, ascending
    for k in sorted(range(len(basis)), key=lambda k: (-leads[k][0], key(leads[k][1]))):
        pos, mon, _ = leads[k]
        if not any(leads[h][0] == pos and mon_divides(leads[h][1], mon) for h in minimal):
            minimal.append(k)
    reduced: list = []
    table = Divisors(amb.field)
    for k in minimal:
        if expired():
            raise DeadlineExceeded(
                f"module groebner interreduction: {len(reduced)} of {len(minimal)} elements"
            )
        pos, mon, _ = leads[k]
        rem, vec = basis[k], vecs[k]
        if reduced:
            out, _ = vec_divmod(rem, table, amb)
            if out is not rem:  # a tail term was divisible
                rem = normalize(out, (pos, mon, out[pos].lead_coeff))
                vec = _terms(rem)
        reduced.append(rem)
        table.admit(vec)
    return tuple(reversed(reduced))


def is_module_groebner(basis, amb) -> bool:
    """Buchberger criterion: every same-position S-vector reduces to 0."""
    basis = list(basis)
    table = Divisors(amb.field, [_terms(v) for v in basis])
    leads = table.leads
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
            rem, _ = vec_divmod(vec_add(left, right), table, amb)
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
        table = Divisors(amb.field, [_terms(g) for g in self.gb])
        for gen in _augment(self.gens, amb):
            if not vec_is_zero(vec_divmod(gen, table, amb)[0]):
                return False
        if not is_module_groebner(self.gb, amb):
            return False
        if vec_divmod(self.target, table, amb)[0] != tuple(self.remainder):
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
    rem, _ = vec_divmod(target_aug, gb, amb)
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
    defining ideal).  Each generator r is checked to put r*g in the
    lifted ideal by a membership lift, which raises if it fails.
    """
    amb = ring.amb
    if g.is_zero:
        raise ValueError("colon by zero")
    lifted = [p for p in list(ideal_gens) + list(ring.ideal.basis) if not p.is_zero]
    vecs = [(g,)] + [(h,) for h in lifted]
    syz = syzygy_gens(vecs, amb)
    firsts = [s[0] for s in syz if not s[0].is_zero]
    basis = groebner(firsts + lifted)
    if lifted:
        gen_vecs = [(h,) for h in lifted]
        for r in basis:
            if membership_lift(gen_vecs, (r * g,), amb)[1] is not None:
                raise AssertionError("colon generator failed its own membership")
    return basis


def is_regular(f: Poly, ring: QuotientRing) -> bool:
    """True when multiplication by f is injective on the quotient ring,
    i.e. the annihilator colon (0 : f) is zero."""
    f = ring.nf(f)
    if f.is_zero:
        raise ValueError("regularity of 0 is degenerate")
    basis = colon_ideal([], f, ring)
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
        sig = _terms(v)
        if sig not in seen:
            seen.add(sig)
            out.append(v)
    return tuple(out)
