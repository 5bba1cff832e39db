"""Independent test oracles, kept away from the code paths they check."""

from __future__ import annotations


def bounded_degree_solvable(rows, rhs, ring, max_deg) -> bool:
    """Does A*s = b admit a solution with entry degrees <= max_deg?

    Decided by coefficient matching over the prime field: unknowns are
    the coefficients of each candidate monomial, the system is one
    Gaussian elimination.  Shares nothing with the module-Gröbner
    solver it cross-checks.
    """
    amb = ring.amb
    p = amb.field.char
    nvars = amb.nvars
    mons = []

    def gen(prefix, remaining):
        if len(prefix) == nvars:
            mons.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            gen(prefix + [e], remaining - e)

    gen([], max_deg)
    m, n = len(rows), len(rows[0])
    unknowns = [(j, mon) for j in range(n) for mon in mons]
    equations: dict = {}

    def add_coeff(eqkey, col, c):
        row = equations.setdefault(eqkey, {})
        row[col] = (row.get(col, 0) + c) % p

    for i in range(m):
        for j in range(n):
            aij = ring.nf(rows[i][j])
            for col, (jj, mon) in enumerate(unknowns):
                if jj != j:
                    continue
                prod = ring.nf(aij * amb.monomial(mon))
                for mm, cc in prod.terms:
                    add_coeff((i, mm), col, cc)
        for mm, _ in ring.nf(rhs[i]).terms:
            equations.setdefault((i, mm), {})

    eqkeys = sorted(equations)
    aug = []
    for i, mm in eqkeys:
        row = [equations[(i, mm)].get(col, 0) for col in range(len(unknowns))]
        b = dict(ring.nf(rhs[i]).terms).get(mm, 0) % p
        aug.append(row + [b])
    ncols = len(unknowns)
    r = 0
    for c in range(ncols):
        piv = next((k for k in range(r, len(aug)) if aug[k][c] % p), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = pow(aug[r][c], p - 2, p)
        aug[r] = [(v * inv) % p for v in aug[r]]
        for k in range(len(aug)):
            if k != r and aug[k][c] % p:
                f = aug[k][c]
                aug[k] = [(a - f * b) % p for a, b in zip(aug[k], aug[r])]
        r += 1
    for row in aug[r:]:
        if any(v % p for v in row[:-1]):
            continue
        if row[-1] % p:
            return False
    return True


def dense_defect_rows(space, dg: bool):
    """Hom-space constraint matrix by dense evaluation on each unknown.

    The reference definition of ``GradedSpace`` constraint assembly:
    every elementary unknown becomes a whole graded element, the full
    defect (double squares when ``dg``, else the differential
    ``dg_differential``) is evaluated with ``compose``, and each nonzero
    coefficient of each block entry becomes a row keyed by (block, row,
    column, basis unit) in order of first appearance.
    """
    from dfactor.context import MatrixMap, compose
    from dfactor.dg import GradedHom, dg_differential
    from dfactor.fdalg import FDAlgebra

    X, Y, n = space.X, space.Y, space.degree
    backend, field = space.backend, space.field

    def dg_defect(elem):
        out = []
        for i in range(1, X.d + 1):
            lhs = compose(elem.comp_at(i + 2), compose(X.map_at(i + 1), X.map_at(i)))
            rhs = compose(compose(Y.map_at(i + n + 1), Y.map_at(i + n)), elem.comp_at(i))
            out.append(lhs - rhs)
        return out

    def differential(elem):
        return dg_differential(elem).components

    defect = dg_defect if dg else differential
    rows_index: dict = {}
    cols = []
    for k, r, c, b in space.layout:
        src, tgt = space.shapes[k]
        comps = [MatrixMap.zero(X.ctx, s, t) for s, t in space.shapes]
        grid = [[backend.zero()] * src.rank for _ in range(tgt.rank)]
        grid[r][c] = space.base_elems[b]
        comps[k] = MatrixMap.make(X.ctx, src, tgt, grid)
        elem = GradedHom(X, Y, n, tuple(comps))
        col: dict = {}
        for block, mat in enumerate(defect(elem)):
            for i, row in enumerate(mat.rows):
                for j, entry in enumerate(row):
                    if backend.is_zero(entry):
                        continue
                    if isinstance(backend, FDAlgebra):
                        items = [(t, cf) for t, cf in enumerate(entry) if cf != field.zero]
                    else:
                        items = list(entry.terms)
                    for unit, cf in items:
                        idx = rows_index.setdefault((block, i, j, unit), len(rows_index))
                        col[idx] = field.add(col.get(idx, field.zero), cf)
        cols.append(col)
    mat = [[field.zero] * len(cols) for _ in range(len(rows_index))]
    for jcol, col in enumerate(cols):
        for irow, cf in col.items():
            mat[irow][jcol] = cf
    return mat


def encode_graded(space, elem):
    """The coordinates of a graded element over ``space.base_elems``,
    in ``space.layout`` order; KeyError outside the span."""
    from dfactor.fdalg import FDAlgebra

    if isinstance(space.backend, FDAlgebra):
        coords = list
    else:
        index = {e.terms[0][0]: b for b, e in enumerate(space.base_elems)}

        def coords(p):
            out = [space.field.zero] * len(index)
            for mon, c in p.terms:
                out[index[mon]] = c
            return out

    return [x for comp in elem.components for row in comp.rows for e in row for x in coords(e)]


def rank_h0(X, Y):
    """dim H^0 by the rank definition: the degree-0 cycles minus the
    rank of the boundaries d(v) of the decoded valid degree -1 basis,
    each encoded in degree-0 coordinates."""
    from dfactor import linalg
    from dfactor.dg import dg_differential
    from dfactor.sampling import GradedSpace

    space0, space1 = GradedSpace(X, Y, 0), GradedSpace(X, Y, -1)
    boundaries = [
        encode_graded(space0, dg_differential(space1.decode(v))) for v in space1.valid_basis()
    ]
    return len(space0.cycle_basis()) - linalg.rank(boundaries, space0.field)


def sample_by_decoded_basis(rng, space, basis):
    """A random combination of a hom space's basis, by the reference
    definition: decode every kernel vector into a graded element, scale
    its entries by a random field element (one ``rng.randrange`` per
    vector, in order) and add the results as graded elements."""
    from dfactor.context import MatrixMap
    from dfactor.dg import GradedHom, zero_graded

    scale = space.backend.scale
    out = zero_graded(space.X, space.Y, space.degree)
    for vec in basis:
        c = rng.randrange(space.field.char or 7)
        if c:
            comps = tuple(
                MatrixMap.make(m.ctx, m.source, m.target,
                               [[scale(e, c) for e in row] for row in m.rows])
                for m in space.decode(vec).components
            )
            out = out + GradedHom(space.X, space.Y, space.degree, comps)
    return out


def naive_compose(g, f):
    """g after f by the textbook triple loop: sum_j f[j][k] * g[i][j]."""
    b = f.ctx.backend
    rows = []
    for i in range(g.target.rank):
        row = []
        for k in range(f.source.rank):
            acc = b.zero()
            for j in range(f.target.rank):
                acc = b.add(acc, b.mul(f.rows[j][k], g.rows[i][j]))
            row.append(acc)
        rows.append(tuple(row))
    return rows


def entrywise(op, *maps):
    """The rows of map arithmetic by the reference definition: the
    backend operation ``op`` (``add``, ``neg``, or ``add`` after ``neg``
    for a difference) on each entry in turn."""
    return [
        tuple(op(*entries) for entries in zip(*rows)) for rows in zip(*(m.rows for m in maps))
    ]


def method_rref(mat, field, pivot_limit=None):
    """Row reduction with every coefficient through the field's methods:
    the reference for ``linalg.rref``, with the same pivot choice and
    row operations, so both must return the same matrix and pivots."""
    a = [list(row) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n if pivot_limit is None else pivot_limit):
        pivot = next((i for i in range(r, m) if a[i][c] != field.zero), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = field.inv(a[r][c])
        a[r] = [field.mul(v, inv) for v in a[r]]
        for i in range(m):
            if i != r and a[i][c] != field.zero:
                f = a[i][c]
                a[i] = [field.sub(v, field.mul(f, w)) for v, w in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return a, pivots


def first_failing_rotation(X):
    """``(r, residual)`` for the first rotation r of X whose composite of
    the d maps from position r on is not multiplication by w, or None:
    each rotation composed from scratch."""
    from dfactor.context import compose_chain, eta_map

    for r in range(1, X.d + 1):
        comp = compose_chain(X.map_at(r + k) for k in range(X.d))
        expected = eta_map(X.objects[r - 1], X.ctx)
        if comp != expected:
            return r, comp - expected
    return None


def merge_divmod_basis(f, basis, field, heap_key, want_quotients=False):
    """Classical division: merge the scaled divisor into the whole
    working polynomial on every step, take the first basis element
    whose lead divides the leading term.

    The reference for the one-position case of
    ``_kernel.pure.divmod_basis``, which ring normal forms run;
    ``heap_key`` is the descending monomial key of the order, which the
    kernel's merge takes.  Only the reference returns quotients
    (``want_quotients``), which tests use to recombine f.
    """
    from dfactor._kernel.pure import add, mon_div, mon_divides, shift

    quotients = [[] for _ in basis] if want_quotients else None
    leads = [g[0] for g in basis]
    rem = []
    work = f
    while work:
        lm, lc = work[0]
        for gi, (gm, gc) in enumerate(leads):
            if mon_divides(gm, lm):
                qmon = mon_div(lm, gm)
                qc = field.mul(lc, field.inv(gc))
                work = add(work, shift(basis[gi], qmon, field.neg(qc), field), field, heap_key)
                if want_quotients:
                    quotients[gi].append((qmon, qc))
                break
        else:
            rem.append(work[0])
            work = work[1:]
    if want_quotients:
        return tuple(rem), tuple(tuple(q) for q in quotients)
    return tuple(rem), None


def merge_vec_divmod(v, basis, amb, want_combo=False):
    """Classical module division, positions ascending: on every step
    merge the scaled divisor into the whole working polynomial of the
    current position and of each later one, take the first basis
    vector whose same-position lead divides the leading term.

    The reference for ``modgb.vec_divmod``, with its signature and
    return shape plus ``want_combo``: only the reference returns the
    combination, which tests use to recombine v.
    """
    from dfactor._kernel.pure import add, mon_div, mon_divides, shift
    from dfactor.modgb import vec_lead
    from dfactor.rings import Poly

    field, heap_key = amb.field, amb.order.heap_key
    s = len(v)
    leads = [vec_lead(g) for g in basis]
    groups: dict = {}
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
            cur = add(cur, shift(gvec[pos].terms, qmon, nqc, field), field, heap_key)
            for p2 in range(pos + 1, s):
                t2 = gvec[p2].terms
                if t2:
                    work[p2] = add(work[p2], shift(t2, qmon, nqc, field), field, heap_key)
            if want_combo:
                combo[idx] = add(combo[idx], ((qmon, qc),), field, heap_key)
        work[pos] = tuple(rem)
    remainder = tuple(Poly(amb, t) for t in work)
    if want_combo:
        return remainder, tuple(Poly(amb, c) for c in combo)
    return remainder, None


def dict_mul(ta, tb, field, key):
    """Schoolbook product: every pair of terms accumulates in a dict,
    which is then sorted descending.

    The reference for ``_kernel.pure.mul``; ``key`` is the ascending
    monomial key of the order.
    """
    from operator import add

    if not ta or not tb:
        return ()
    acc = {}
    zero = field.zero
    for ma, ca in ta:
        for mb, cb in tb:
            m = tuple(map(add, ma, mb))
            c = field.add(acc.get(m, zero), field.mul(ca, cb))
            if c == zero:
                acc.pop(m, None)
            else:
                acc[m] = c
    return tuple(sorted(acc.items(), key=lambda t: key(t[0]), reverse=True))


def all_pairs_module_groebner(vecs, amb):
    """Buchberger without pair criteria: every same-position pair of
    every element found is reduced, then each minimal element is
    reduced by all the others.

    The reference for ``modgb.module_groebner``: for a fixed order the
    reduced basis is unique, so both must return the same tuple.
    """
    from dfactor._kernel.pure import mon_div, mon_divides, mon_lcm
    from dfactor.modgb import vec_add, vec_is_zero, vec_lead, vec_monic, vec_shift

    field, key = amb.field, amb.order.key
    basis = [vec_monic(v) for v in vecs if not vec_is_zero(v)]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        # oldest first: newest first ran some Q ideals of three
        # generators of degree 2 for minutes on swelling fractions
        i, j = pairs.pop(0)
        (pi, mi, ci), (pj, mj, cj) = vec_lead(basis[i]), vec_lead(basis[j])
        if pi != pj:
            continue
        lcm = mon_lcm(mi, mj)
        left = vec_shift(basis[i], mon_div(lcm, mi), field.inv(ci))
        right = vec_shift(basis[j], mon_div(lcm, mj), field.neg(field.inv(cj)))
        rem, _ = merge_vec_divmod(vec_add(left, right), basis, amb)
        if not vec_is_zero(rem):
            basis.append(vec_monic(rem))
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    leads = [vec_lead(v) for v in basis]
    minimal = []
    for k in sorted(range(len(basis)), key=lambda k: (leads[k][0], key(leads[k][1]))):
        pos, mon, _ = leads[k]
        if not any(leads[h][0] == pos and mon_divides(leads[h][1], mon) for h in minimal):
            minimal.append(k)
    reduced = []
    for k in minimal:
        others = [basis[h] for h in minimal if h != k]
        reduced.append(vec_monic(merge_vec_divmod(basis[k], others, amb)[0]))
    # biggest lead first: position ascending, then monomial descending
    reduced.sort(key=lambda v: key(vec_lead(v)[1]), reverse=True)
    reduced.sort(key=lambda v: vec_lead(v)[0])
    return tuple(reduced)
