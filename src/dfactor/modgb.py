"""Gröbner bases of submodules of free modules, and what they buy us.

One engine covers ideal membership with expressing coefficients,
syzygies, colon ideals, kernels of matrices over quotient rings, and
certified linear solving.  Vectors are tuples of :class:`Poly` over a
shared ambient ring, ordered position-over-term with position 0
dominant, so elimination of the leading block computes syzygies and
the tag block of any member records its expression in the generators.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

from ._kernel.pure import mon_div, mon_divides, mon_lcm
from .errors import DeadlineExceeded
from .rings import Ambient, Poly, QuotientRing, groebner

Vec = tuple  # tuple[Poly, ...]


def vec_is_zero(v: Vec) -> bool:
    return all(p.is_zero for p in v)


def vec_lead(v: Vec):
    """POT lead: first position holding a nonzero polynomial."""
    for pos, p in enumerate(v):
        if not p.is_zero:
            return pos, p.lead_mon, p.lead_coeff
    return None


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vec_shift(v: Vec, mon, c) -> Vec:
    amb = v[0].amb
    return tuple(Poly(amb, amb.ops.shift(p.terms, mon, c)) for p in v)


def vec_monic(v: Vec) -> Vec:
    lead = vec_lead(v)
    if lead is None:
        return v
    inv = v[0].amb.field.inv(lead[2])
    return tuple(p.scale(inv) for p in v)


def vec_divmod(
    v: Vec, basis: list[Vec], amb: Ambient, want_combo: bool = False, leads=None
):
    """Full reduction of v by basis vectors; positions ascending.

    Returns ``(remainder, combo)`` with v = sum(combo_k * basis_k) +
    remainder and no remainder term divisible by a same-position basis
    lead.  ``combo`` entries are term tuples (None unless requested).
    ``leads``, when given, holds ``vec_lead`` of each basis vector.
    """
    ops = amb.ops
    field = amb.field
    s = len(v)
    if leads is None:
        leads = [vec_lead(g) for g in basis]
    groups: dict[int, list] = {}
    for idx, (g, lead) in enumerate(zip(basis, leads)):
        if lead is not None:
            groups.setdefault(lead[0], []).append((idx, lead[1], lead[2], g))
    work = [p.terms for p in v]
    combo = [() for _ in basis] if want_combo else None
    for pos in range(s):
        cur = work[pos]
        rem: list = []
        cands = groups.get(pos, ())
        while cur:
            lm, lc = cur[0]
            hit = None
            for cand in cands:
                if mon_divides(cand[1], lm):
                    hit = cand
                    break
            if hit is None:
                rem.append(cur[0])
                cur = cur[1:]
                continue
            idx, gm, gc, gvec = hit
            qmon = mon_div(lm, gm)
            qc = field.mul(lc, field.inv(gc))
            nqc = field.neg(qc)
            cur = ops.add(cur, ops.shift(gvec[pos].terms, qmon, nqc))
            for p2 in range(pos + 1, s):
                t2 = gvec[p2].terms
                if t2:
                    work[p2] = ops.add(work[p2], ops.shift(t2, qmon, nqc))
            if want_combo:
                combo[idx] = ops.add(combo[idx], ((qmon, qc),))
        work[pos] = tuple(rem)
    remainder = tuple(Poly(amb, t) for t in work)
    if want_combo:
        return remainder, tuple(Poly(amb, c) for c in combo)
    return remainder, None


def module_groebner(vecs, amb: Ambient, deadline: float | None = None):
    """Reduced Gröbner basis of the submodule generated by ``vecs``.

    No pair-skipping criteria: the tag/elimination uses below need the
    zero-lead elements that the product criterion would drop.
    """
    key = amb.order.key
    basis = [vec_monic(v) for v in vecs if not vec_is_zero(v)]
    leads = [vec_lead(v) for v in basis]

    pairs: list = []

    def push_pair(i, j):
        li, lj = leads[i], leads[j]
        if li[0] != lj[0]:
            return
        lcm = mon_lcm(li[1], lj[1])
        heapq.heappush(pairs, ((sum(lcm), key(lcm), li[0], i, j), i, j))

    for j in range(len(basis)):
        for i in range(j):
            push_pair(i, j)

    while pairs:
        if deadline is not None and time.monotonic() > deadline:
            raise DeadlineExceeded("module groebner")
        _, i, j = heapq.heappop(pairs)
        li, lj = leads[i], leads[j]
        lcm = mon_lcm(li[1], lj[1])
        left = vec_shift(basis[i], mon_div(lcm, li[1]), amb.field.inv(li[2]))
        right = vec_shift(basis[j], mon_div(lcm, lj[1]), amb.field.neg(amb.field.inv(lj[2])))
        s = vec_add(left, right)
        rem, _ = vec_divmod(s, basis, amb, leads=leads)
        if not vec_is_zero(rem):
            basis.append(vec_monic(rem))
            leads.append(vec_lead(basis[-1]))
            j_new = len(basis) - 1
            for i_new in range(j_new):
                push_pair(i_new, j_new)

    return _reduce_module_basis(basis, leads, amb)


def _reduce_module_basis(basis, leads, amb):
    key = amb.order.key
    minimal: list = []  # indices into basis
    for k in sorted(range(len(basis)), key=lambda k: (leads[k][0], key(leads[k][1]))):
        pos, mon, _ = leads[k]
        if not any(leads[h][0] == pos and mon_divides(leads[h][1], mon) for h in minimal):
            minimal.append(k)
    reduced = []
    for k in minimal:
        others = [h for h in minimal if h != k]
        rem, _ = (
            vec_divmod(basis[k], [basis[h] for h in others], amb, leads=[leads[h] for h in others])
            if others
            else (basis[k], None)
        )
        if not vec_is_zero(rem):
            reduced.append(vec_monic(rem))
    # canonical order: biggest lead first (stable two-pass sort)
    reduced.sort(key=lambda v: key(vec_lead(v)[1]), reverse=True)
    reduced.sort(key=lambda v: vec_lead(v)[0])
    return tuple(reduced)


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
    followed by tag block); ``remainder`` is the fully reduced image
    of the target with a nonzero main block.  Checking membership of
    each gb element (via its tag), the Buchberger criterion, and the
    single division re-establishes the verdict without re-running the
    completion.
    """

    gens: tuple
    gb: tuple
    remainder: tuple
    main_len: int

    def reverify(self, amb: Ambient, check_gb: bool = True) -> bool:
        m = self.main_len
        for g in self.gb:
            main, tag = g[:m], g[m:]
            acc = [amb.zero()] * m
            for coeff, gen in zip(tag, self.gens):
                for i in range(m):
                    acc[i] = acc[i] + coeff * gen[i]
            if tuple(acc) != tuple(main):
                return False
        if check_gb and not is_module_groebner(self.gb, amb):
            return False
        return any(not p.is_zero for p in self.remainder[:m])


def membership_lift(gens, target, amb: Ambient, deadline: float | None = None):
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
            gens=(), gb=(), remainder=tuple(target), main_len=m
        )
    gb = module_groebner(_augment(gens, amb), amb, deadline=deadline)
    zero = amb.zero()
    target_aug = tuple(target) + tuple(zero for _ in gens)
    rem, _ = vec_divmod(target_aug, list(gb), amb)
    if all(p.is_zero for p in rem[:m]):
        coeffs = tuple(-p for p in rem[m:])
        return coeffs, None
    return None, NoSolutionCertificate(
        gens=tuple(tuple(g) for g in gens), gb=gb, remainder=rem, main_len=m
    )


def syzygy_gens(vecs, amb: Ambient, deadline: float | None = None):
    """Generators of the syzygy module of ``vecs`` in P^m.

    The tag blocks of the Gröbner basis elements whose main block
    vanished generate all relations sum(c_k * vecs_k) = 0.
    """
    vecs = list(vecs)
    if not vecs:
        return ()
    m = len(vecs[0])
    gb = module_groebner(_augment(vecs, amb), amb, deadline=deadline)
    out = []
    for g in gb:
        if all(p.is_zero for p in g[:m]):
            out.append(tuple(g[m:]))
    return tuple(out)


# -- ring-level operations -------------------------------------------


def colon_ideal(ideal_gens, g: Poly, ring: QuotientRing, deadline: float | None = None):
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
    syz = syzygy_gens(vecs, amb, deadline=deadline)
    firsts = [s[0] for s in syz if not s[0].is_zero]
    basis = groebner(firsts + lifted, deadline=deadline)
    certs = []
    if lifted:
        gen_vecs = [(h,) for h in lifted]
        for r in basis:
            coeffs, fail = membership_lift(gen_vecs, (r * g,), amb, deadline=deadline)
            if fail is not None:
                raise AssertionError("colon generator failed its own membership")
            certs.append(coeffs)
    else:
        certs = [() for _ in basis]
    return basis, tuple(certs)


def is_regular(f: Poly, ring: QuotientRing, deadline: float | None = None) -> bool:
    """True when multiplication by f is injective on the quotient ring,
    i.e. the annihilator colon (0 : f) is zero."""
    f = ring.nf(f)
    if f.is_zero:
        raise ValueError("regularity of 0 is degenerate")
    basis, _ = colon_ideal([], f, ring, deadline=deadline)
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


def solve_linear(rows, rhs, ring: QuotientRing, deadline: float | None = None, modulo=None):
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
    coeffs, cert = membership_lift(gens, tuple(rhs), ring.amb, deadline=deadline)
    if cert is not None:
        return cert
    solution = tuple(ring.nf(c) for c in coeffs[:n])
    reducers = {(): ring}
    for i in range(m):
        extra = modulo[i] if modulo is not None else ()
        if extra not in reducers:
            reducers[extra] = ring.extend_ideal(extra)
        acc = ring.amb.zero()
        for j in range(n):
            acc = acc + rows[i][j] * solution[j]
        if not reducers[extra].nf(acc - rhs[i]).is_zero:
            raise AssertionError("solver returned an invalid solution")
    return LinearSolution(solution)


def matrix_kernel(rows, ring: QuotientRing, deadline: float | None = None):
    """Column vectors generating the kernel of the matrix over the ring.

    Syzygies of the columns together with defining-ideal injections;
    the column-coefficient block of each relation is a kernel element.
    """
    n = len(rows[0]) if rows else 0
    syz = syzygy_gens(_columns_and_injections(rows, ring), ring.amb, deadline=deadline)
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
