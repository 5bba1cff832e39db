"""Seeded random generation and exact linear spaces of hom elements.

Everything here is deterministic given the seed (``random.Random``,
whose algorithm is stable across platforms).  Morphism and graded-hom
spaces are computed exactly.  The defining equations of a space are one
homogeneous :class:`linsys.LinearSystem` with an unknown block per
component: the double squares ``comp . Q - P . comp`` (two-step
composites Q, P computed once per space) for valid elements, and
d(comp) = 0, from the one writer :func:`dg.differential_terms`, for
cycles at every degree.  The system's field lowering expands the
unknowns over a finite field basis of the backend (all of it when the
backend is finite dimensional, a degree-truncated slice otherwise), one
unknown per (component, row, column, basis element), and the kernel of
the resulting field matrix is the space.  H^0 counts kernel vectors
(:func:`dg.h0_dimension`), so none is ever encoded back.

A space hands out its basis as the kernel's coordinate vectors, in
``layout`` order.  Sampling draws one random field combination of them
and decodes it once into a :class:`dg.GradedHom` (morphisms are the
degree-0 cycles, homotopy witnesses degree -1 elements), so samples
are valid by construction and re-checked by the callers' verifiers.
Spaces are not cached across calls, so sampling keeps no factorization
alive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .context import Context, MatrixMap, compose
from .dg import GradedHom, differential_terms, dg_differential, graded_from_grids
from .errors import UnsupportedOperation
from .factorization import (
    FactorizationD,
    cone,
    direct_sum,
    identity_morphism,
    is_morphism,
    make_factorization,
    morphism,
    scalar_morphism,
    suspend,
    trivial_factorization,
    unsuspend,
)
from .fdalg import FDAlgebra
from .linsys import LinearSystem
from .rings import QuotientRing


CAP = 2  # total degree of the ring slice that samples are drawn from


# -- random backend elements -------------------------------------------


def random_poly(rng: random.Random, ring: QuotientRing, max_degree=2, max_terms=3):
    amb = ring.amb
    p = amb.zero()
    for _ in range(rng.randint(0, max_terms)):
        mon = tuple(rng.randint(0, max_degree) for _ in range(amb.nvars))
        if sum(mon) > max_degree:
            mon = tuple(0 for _ in mon)
        if amb.field.char:
            c = rng.randrange(amb.field.char)
        else:
            c = rng.randint(-5, 5)
        p = p + amb.monomial(mon, c)
    return ring.nf(p)


def random_element(rng: random.Random, backend, max_degree=2, max_terms=3):
    if isinstance(backend, QuotientRing):
        return random_poly(rng, backend, max_degree, max_terms)
    span = backend.field.char or 11
    return tuple(
        backend.field.from_fraction(Fraction(rng.randrange(span)))
        for _ in range(backend.dim)
    )


# -- field bases of backend slices --------------------------------------


def element_basis(backend, cap: int | None):
    """Basis elements spanning (a slice of) the backend over its field.

    Rings: standard monomials, all of them when the quotient is finite
    dimensional, else up to total degree ``cap``.  Algebras: the whole
    basis.
    """
    if isinstance(backend, FDAlgebra):
        return [backend.basis(i) for i in range(backend.dim)]
    mons = backend.standard_monomials()
    if mons is None:
        if cap is None:
            raise UnsupportedOperation("the ring has infinite field dimension and no degree cap")
        mons = backend.standard_monomials(max_degree=cap)
    return [backend.amb.monomial(m) for m in mons]


class GradedSpace:
    """The degree-n hom space between two factorizations, coordinatized.

    ``valid_basis`` solves the double-square constraints,
    ``cycle_basis`` the equations d(comp) = 0.  Both return coordinate
    vectors in ``layout`` order; ``decode`` turns one into its graded
    element.
    """

    def __init__(self, X: FactorizationD, Y: FactorizationD, degree: int, cap: int | None = None):
        self.X, self.Y, self.degree = X, Y, degree
        backend = X.ctx.backend
        self.backend = backend
        self.field = backend.field
        self.base_elems = element_basis(backend, cap)
        self.shapes = [
            (X.objects[i - 1], Y.obj_at(i + degree)) for i in range(1, X.d + 1)
        ]
        self.layout = []
        for k, (src, tgt) in enumerate(self.shapes):
            for r in range(tgt.rank):
                for c in range(src.rank):
                    for b in range(len(self.base_elems)):
                        self.layout.append((k, r, c, b))
        self._valid = None
        self._cycles = None

    def decode(self, vec) -> GradedHom:
        """The element whose coordinates, in ``layout`` order, are ``vec``."""
        grids = self._unknowns()[0].decode(vec, self.base_elems)
        return graded_from_grids(self.X, self.Y, self.degree, grids)

    def _unknowns(self):
        """A system with one unknown block per component, in layout order."""
        system = LinearSystem(self.backend)
        return system, [system.unknown(tgt.rank, src.rank) for src, tgt in self.shapes]

    def system(self, dg: bool) -> LinearSystem:
        """The defining equations as a homogeneous system, one per
        i = 1..d.

        Double squares (``dg``): ``comp_at(i+2) . Q - P . comp_at(i) = 0``
        with the two-step composites Q of X and P of Y.  Cycles:
        ``d(comp)_i = 0``.
        """
        X, Y, n, d = self.X, self.Y, self.degree, self.X.d
        system, comp = self._unknowns()
        equations = [] if dg else differential_terms(X, Y, n, comp)
        for i in range(1, d + 1):
            if dg:
                Q = compose(X.map_at(i + 1), X.map_at(i))
                P = compose(Y.map_at(i + n + 1), Y.map_at(i + n))
                equations.append([(comp[(i + 1) % d], Q.rows, "right"),
                                  (comp[i - 1], (-P).rows, "left")])
            zero = MatrixMap.zero(X.ctx, X.objects[i - 1], Y.obj_at(i + n + (2 if dg else 1)))
            system.equation(equations[i - 1], zero.rows)
        return system

    def valid_basis(self):
        if self._valid is None:
            self._valid = self.system(dg=True).field_kernel(self.base_elems)
        return self._valid

    def cycle_basis(self):
        if self._cycles is None:
            self._cycles = self.system(dg=False).field_kernel(self.base_elems)
        return self._cycles

    def random_combination(self, rng: random.Random, basis) -> GradedHom:
        """The element whose coordinates are the sum of the ``basis``
        vectors, each scaled by a random field element.  F_p
        coordinates accumulate as native ints, reduced once."""
        p = self.field.char
        out = [self.field.zero] * len(self.layout)
        for vec in basis:
            c = rng.randrange(p or 7)
            if c:
                out = [a + c * x if x else a for a, x in zip(out, vec)]
        if p:
            out = [a % p for a in out]
        return self.decode(out)


def random_morphism(rng: random.Random, X, Y) -> GradedHom:
    """Random element of the (degree-capped) morphism space; verified."""
    space = GradedSpace(X, Y, 0, CAP)
    phi = space.random_combination(rng, space.cycle_basis())
    return morphism(X, Y, phi.components)


def random_graded(rng: random.Random, X, Y, degree) -> GradedHom:
    """Random dg-valid element of the given degree."""
    space = GradedSpace(X, Y, degree, CAP)
    return space.random_combination(rng, space.valid_basis())


def random_homotopy_pair(rng: random.Random, phi: GradedHom):
    """(phi, phi + d(t), -t) for a random valid degree -1 element t: a
    homotopic pair and its witness, since the convention reads
    phi - phi2 = d(witness)."""
    t = random_graded(rng, phi.source, phi.target, -1)
    return phi, phi + dg_differential(t), -t


# -- pools of random factorizations --------------------------------------


@dataclass
class FixturePool:
    ctx: Context
    d: int
    seeds: list
    max_rank: int = 8

    def __post_init__(self):
        self.seeds = list(self.seeds)
        self.seeds.append(trivial_factorization(self.ctx, self.d, rank=1))

    def random_factorization(self, rng: random.Random, steps: int = 2) -> FactorizationD:
        X = rng.choice(self.seeds)
        for _ in range(steps):
            op = rng.choice(("sum", "suspend", "unsuspend", "cone_id", "cone_scalar", "keep"))
            if op == "sum":
                other = rng.choice(self.seeds)
                if X.total_rank + other.total_rank <= self.max_rank:
                    X = direct_sum(X, other)
            elif op == "suspend":
                X = suspend(X)
            elif op == "unsuspend":
                X = unsuspend(X)
            elif op == "cone_id" and 2 * X.total_rank <= self.max_rank:
                X = cone(identity_morphism(X)).cone
            elif op == "cone_scalar" and 2 * X.total_rank <= self.max_rank:
                elem = random_element(rng, self.ctx.backend, max_degree=1, max_terms=1)
                phi = scalar_morphism(X, elem)
                if is_morphism(phi).ok:
                    X = cone(phi).cone
        return X


def seeds_for_ring_fixture(ctx: Context, d: int):
    """Known splittings for w = x*y, x^2 + y^2 and x^4.

    A candidate w matches only in a ring that has its variables, so
    x^4 is recognised in one variable too.  At an even d >= 6 each
    d = 2 splitting AB = BA = w is followed by d - 2 identity maps:
    every rotation is then a cyclic product holding both AB and BA,
    each w*I.  Unknown contexts, and odd d, just get the trivial seeds
    that FixturePool adds.
    """
    backend = ctx.backend
    if not isinstance(backend, QuotientRing):
        return []
    from .context import FreeObj

    amb = backend.amb
    w = ctx.eta

    def fact_from_strings(matrices):
        objects = [FreeObj.of(len(m[0])) for m in matrices]
        maps = []
        for i, m in enumerate(matrices):
            src = objects[i]
            tgt = objects[i + 1] if i < d - 1 else objects[0].twist(1)
            maps.append(MatrixMap.from_strings(ctx, src, tgt, m))
        return make_factorization(ctx, d, objects, maps)

    def is_eta(text, variables):
        return set(variables) <= set(amb.vars) and w == backend.parse(text)

    one = [["1"]]
    if is_eta("x*y", "xy"):
        at_2 = [[[["x"]], [["y"]]], [[["y"]], [["x"]]]]
        at_4 = [[[["x"]], [["y"]], one, one], [one, [["x"]], one, [["y"]]]]
    elif is_eta("x^2 + y^2", "xy"):
        pair = [[["x", "y"], ["-y", "x"]], [["x", "-y"], ["y", "x"]]]
        ident = [["1", "0"], ["0", "1"]]
        at_2 = [pair]
        at_4 = [[pair[0], pair[1], ident, ident]]
    elif is_eta("x^4", "x"):
        at_2 = [[[["x"]], [["x^3"]]], [[["x^2"]], [["x^2"]]]]
        at_4 = [[[["x"]]] * 4]
    else:
        return []
    if d == 2:
        chosen = at_2
    elif d == 4:
        chosen = at_4
    elif d % 2 == 0 and d >= 6:
        chosen = []
        for a, b in at_2:
            n = len(a[0])
            ident = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
            chosen.append([a, b] + [ident] * (d - 2))
    else:
        return []
    return [fact_from_strings(matrices) for matrices in chosen]


def make_pool(ctx: Context, d: int, extra_seeds=(), max_rank: int = 8) -> FixturePool:
    return FixturePool(ctx, d, seeds_for_ring_fixture(ctx, d) + list(extra_seeds), max_rank)
