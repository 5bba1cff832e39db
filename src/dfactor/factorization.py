"""Cyclic d-tuples of maps factoring multiplication by w, and their
homotopy calculus: verification, suspension and its inverse, direct
sums, mapping cones, comparison isomorphisms, standard triangles, and
the certified homotopy decision procedure.  Morphisms and homotopy
witnesses are graded elements (:class:`dg.GradedHom`) of degree 0 and
-1; the homotopy system phi - phi' = d(t) is written and decoded by
:func:`dg.differential_terms` and :func:`dg.graded_from_grids`.

Index convention: positions are 1-based modulo d in the twisted sense.
For m = q*d + r with 1 <= r <= d, the object at position m is the
q-fold twist of the object at r, and maps/components twist along.
"""

from __future__ import annotations

from dataclasses import dataclass

from .context import Context, FreeObj, MatrixMap, block, compose, eta_map
from .dg import (GradedHom, _wrap, compose_graded, dg_differential, differential_terms,
                 graded_from_grids, graded_hom)
from .errors import CompositionMismatch, ShapeMismatch
from .linalg import FredholmCertificate
from .linsys import LinearSystem


@dataclass(frozen=True)
class FactorizationD:
    """Objects M_1..M_d and maps f_i: M_i -> M_{i+1} (f_d into the twist
    of M_1) whose every cyclic d-fold composition is multiplication
    by the context element.

    A value is known to be valid when it came from
    :func:`make_factorization` or :func:`verify_factorization`, or from
    this module's constructions (sums, suspensions, cones, the trivial
    and zero factorizations) applied to valid values: those are valid
    by construction and are not checked again.  Building one directly,
    as tests do for invalid cases, skips the check."""

    ctx: Context
    d: int
    objects: tuple
    maps: tuple

    def obj_at(self, m: int) -> FreeObj:
        q, r = _wrap(m, self.d)
        return self.objects[r - 1].twist(q)

    def map_at(self, m: int) -> MatrixMap:
        q, r = _wrap(m, self.d)
        return self.maps[r - 1].twisted(q)

    @property
    def total_rank(self) -> int:
        return sum(o.rank for o in self.objects)

    def __repr__(self):
        ranks = [o.rank for o in self.objects]
        return f"FactorizationD(d={self.d}, ranks={ranks})"


def make_factorization(ctx, d, objects, maps, allow_odd_d: bool = False) -> FactorizationD:
    """Build and verify; reports the first failing rotation.

    Rotation r, the composite of the d maps from position r on, is
    tw(f_{r-1} ... f_1) after (f_d ... f_r).  The suffix products are
    built once and one prefix product is extended as r grows, so the d
    rotations cost 3d - 4 products instead of d(d - 1).  They are
    checked in order, each before the next is built, by comparing the
    composite's rows in place with w on the diagonal and 0 elsewhere
    (its source and target are fixed by the shape checks); the map
    ``eta_map`` is built only for the residual of a failure.

    Odd d is rejected unless ``allow_odd_d``.  The library passes it
    where odd d is checked rather than assumed: in
    :func:`verify_factorization`, for suspensions at odd d (their
    rotations are -w, so this raises unless -w = w) and for mapping
    cones, whose failure at odd d it reproduces.  JSON input never
    sets it.
    """
    _check_d(d, allow_odd_d)
    objects = tuple(objects)
    maps = tuple(maps)
    if len(objects) != d or len(maps) != d:
        raise ShapeMismatch(f"need {d} objects and {d} maps")
    X = FactorizationD(ctx, d, objects, maps)
    for i in range(1, d + 1):
        f = maps[i - 1]
        if f.source != objects[i - 1]:
            raise ShapeMismatch(f"map {i} has source {f.source}, object is {objects[i-1]}")
        if f.target != X.obj_at(i + 1):
            raise ShapeMismatch(f"map {i} has target {f.target}, expected {X.obj_at(i+1)}")
    suffix = [maps[-1]]  # suffix[k] = f_d ... f_{d-k}
    for f in reversed(maps[:-1]):
        suffix.append(compose(suffix[-1], f))
    # compose has checked that the maps share one context
    same_ctx = maps[0].ctx is ctx or maps[0].ctx == ctx
    zero = ctx.backend.zero()
    comp, prefix = suffix[-1], None  # prefix = f_{r-1} ... f_1
    for r in range(1, d + 1):
        if r > 1:
            prefix = maps[0] if r == 2 else compose(maps[r - 2], prefix)
            comp = compose(prefix.twisted(1), suffix[d - r])
        zeros = (zero,) * objects[r - 1].rank
        if not (same_ctx and all(
            row == zeros[:i] + (ctx.eta,) + zeros[i + 1:] for i, row in enumerate(comp.rows)
        )):
            raise CompositionMismatch(r, comp - eta_map(objects[r - 1], ctx))
    return X


def _check_d(d: int, allow_odd_d: bool):
    if d < 2:
        raise ValueError("d must be at least 2")
    if d % 2 == 1 and not allow_odd_d:
        raise ValueError("d must be even")


def verify_factorization(X: FactorizationD) -> FactorizationD:
    return make_factorization(X.ctx, X.d, X.objects, X.maps, allow_odd_d=X.d % 2 == 1)


def zero_object(ctx: Context, d: int) -> FactorizationD:
    _check_d(d, allow_odd_d=True)
    obj = FreeObj.of(0)
    zero = MatrixMap.zero(ctx, obj, obj)
    objects = tuple(obj for _ in range(d))
    maps = tuple(zero if i < d - 1 else MatrixMap.zero(ctx, obj, obj.twist(1)) for i in range(d))
    return FactorizationD(ctx, d, objects, maps)


def trivial_factorization(ctx: Context, d: int, rank: int = 1) -> FactorizationD:
    """(identity, ..., identity, eta): valid in every context."""
    obj = FreeObj.of(rank)
    _check_d(d, allow_odd_d=True)
    maps = [MatrixMap.identity(ctx, obj) for _ in range(d - 1)]
    maps.append(eta_map(obj, ctx))
    return FactorizationD(ctx, d, (obj,) * d, tuple(maps))


def direct_sum(X: FactorizationD, Y: FactorizationD) -> FactorizationD:
    """Block-diagonal, so every composite is w on the diagonal when
    those of X and Y are."""
    if X.ctx != Y.ctx or X.d != Y.d:
        raise ShapeMismatch("direct sum needs matching context and d")
    objects = tuple(a.concat(b) for a, b in zip(X.objects, Y.objects))
    maps = tuple(
        block([[f, MatrixMap.zero(X.ctx, g.source, f.target)],
               [MatrixMap.zero(X.ctx, f.source, g.target), g]])
        for f, g in zip(X.maps, Y.maps)
    )
    return FactorizationD(X.ctx, X.d, objects, maps)


def suspend(X: FactorizationD) -> FactorizationD:
    """Left rotation with negated maps."""
    return _rotated(X, 2)


def unsuspend(X: FactorizationD) -> FactorizationD:
    """Right rotation with negated maps; strict inverse of suspend."""
    return _rotated(X, 0)


def _rotated(X: FactorizationD, start: int) -> FactorizationD:
    """Positions start..start+d-1 of X with negated maps.  Its rotations
    are those of X times (-1)^d: valid by construction at even d, and
    checked (so rejected unless -w = w) at odd d."""
    d = X.d
    objects = tuple(X.obj_at(i) for i in range(start, start + d))
    maps = tuple(-X.map_at(i) for i in range(start, start + d))
    if d % 2 == 1:
        return make_factorization(X.ctx, d, objects, maps, allow_odd_d=True)
    return FactorizationD(X.ctx, d, objects, maps)


# -- morphisms: degree-0 graded elements ---------------------------------


def morphism(X: FactorizationD, Y: FactorizationD, components) -> GradedHom:
    phi = graded_hom(X, Y, 0, components)
    check = is_morphism(phi)
    if not check.ok:
        raise ShapeMismatch(f"square {check.failing_square} does not commute")
    return phi


def identity_morphism(X: FactorizationD) -> GradedHom:
    comps = [MatrixMap.identity(X.ctx, obj) for obj in X.objects]
    return GradedHom(X, X, 0, tuple(comps))


def scalar_morphism(X: FactorizationD, elem) -> GradedHom:
    """Multiplication by a backend element on every component.

    A morphism whenever the element commutes with all map entries
    (always, over a commutative backend)."""
    comps = [MatrixMap.scalar(X.ctx, obj, elem) for obj in X.objects]
    return GradedHom(X, X, 0, tuple(comps))


@dataclass(frozen=True)
class MorphismCheck:
    ok: bool
    failing_square: int | None = None
    residual: MatrixMap | None = None


def is_morphism(phi: GradedHom) -> MorphismCheck:
    """All d squares commute; reports the first failure.  The result
    is kept on phi, a frozen value, as ``functools.cached_property``
    keeps one: each morphism is checked once, and the result dies with it."""
    check = phi.__dict__.get("_squares")
    if check is None:
        check = phi.__dict__["_squares"] = _check_squares(phi)
    return check


def _check_squares(phi: GradedHom) -> MorphismCheck:
    X, Y = phi.source, phi.target
    for i in range(1, X.d + 1):
        lhs = compose(Y.map_at(i), phi.comp_at(i))
        rhs = compose(phi.comp_at(i + 1), X.map_at(i))
        if lhs != rhs:
            return MorphismCheck(False, i, lhs - rhs)
    return MorphismCheck(True)


# -- homotopy: degree -1 witnesses ----------------------------------------


def verify_witness(t: GradedHom, phi: GradedHom, phi2: GradedHom) -> bool:
    """phi - phi2 = d(t) for a degree -1 element t."""
    diff = phi - phi2
    return t.degree == -1 and diff.components == dg_differential(t).components


@dataclass(frozen=True)
class NotHomotopic:
    """Negative verdict with the solver's no-solution certificate."""

    certificate: object
    detail: str = ""


def homotopy_system(phi: GradedHom, phi2: GradedHom):
    """The homotopy equations d(t)_i = phi_i - phi2_i, i = 1..d, as one
    :class:`LinearSystem`, with the handles of t_1..t_d.

    The blocks are created as s_i = t_{i+1}: M_{i+1} -> N_i for
    i = 1..d (s_d is t_1 twisted), the layout certificates encode.
    """
    X, Y = phi.source, phi.target
    system = LinearSystem(X.ctx.backend)
    s = [system.unknown(Y.objects[i - 1].rank, X.obj_at(i + 1).rank) for i in range(1, X.d + 1)]
    t = [s[-1], *s[:-1]]
    for terms, comp in zip(differential_terms(X, Y, -1, t), (phi - phi2).components):
        system.equation(terms, comp.rows)
    return system, t


def homotopy_decide(phi: GradedHom, phi2: GradedHom):
    """Degree -1 witness t with phi - phi2 = d(t), or a certified
    NOT_HOMOTOPIC.

    The system of :func:`homotopy_system` is solved by a module Gröbner
    membership over a quotient ring and by plain field linear algebra
    over a finite-dimensional algebra.  A returned witness has been
    re-verified entrywise.
    """
    system, t = homotopy_system(phi, phi2)
    grids, cert = system.solve()
    if cert is not None:
        if isinstance(cert, FredholmCertificate):
            return NotHomotopic(cert, "field-linear homotopy system is inconsistent")
        return NotHomotopic(cert, "membership of the flattened system failed")
    witness = graded_from_grids(phi.source, phi.target, -1, [grids[k] for k in t])
    if not verify_witness(witness, phi, phi2):
        raise AssertionError("solver returned an invalid homotopy witness")
    return witness


# -- cones and triangles ----------------------------------------------


@dataclass(frozen=True)
class Cone:
    cone: FactorizationD
    include: GradedHom
    project: GradedHom


def cone(phi: GradedHom) -> Cone:
    """Mapping cone with its inclusion and projection.

    Objects M_{i+1} + N_i, maps [[-f_{i+1}, 0], [phi_{i+1}, g_i]];
    the projection lands in the suspension of the source.  At odd d the
    cone's compositions fail (``make_factorization`` with
    ``allow_odd_d`` reproduces it), which is why d must be even.
    """
    check = is_morphism(phi)
    if not check.ok:
        raise ShapeMismatch(f"cone of a non-morphism (square {check.failing_square})")
    X, Y = phi.source, phi.target
    ctx = X.ctx
    d = X.d
    objects = [X.obj_at(i + 1).concat(Y.objects[i - 1]) for i in range(1, d + 1)]
    maps = []
    for i in range(1, d + 1):
        tr = MatrixMap.zero(ctx, Y.objects[i - 1], X.obj_at(i + 2))
        maps.append(block([[-X.map_at(i + 1), tr], [phi.comp_at(i + 1), Y.map_at(i)]]))
    C = make_factorization(ctx, d, objects, maps, allow_odd_d=d % 2 == 1)
    include_comps = []
    project_comps = []
    for i in range(1, d + 1):
        n_obj = Y.objects[i - 1]
        m_next = X.obj_at(i + 1)
        include_comps.append(
            block([[MatrixMap.zero(ctx, n_obj, m_next)], [MatrixMap.identity(ctx, n_obj)]])
        )
        project_comps.append(
            block([[MatrixMap.identity(ctx, m_next), MatrixMap.zero(ctx, n_obj, m_next)]])
        )
    include = morphism(Y, C, include_comps)
    project = morphism(C, suspend(X), project_comps)
    return Cone(C, include, project)


def cone_comparison(phi: GradedHom, phi2: GradedHom, t: GradedHom):
    """The strict isomorphism [[1,0],[t_{i+1},1]]: C_phi -> C_phi2.

    Verifies the witness, that both directions are morphisms inverse
    to each other on the nose, and the strict identities
    i_{phi2} = lambda . i_phi and pi_{phi2} . lambda = pi_phi.
    """
    if not verify_witness(t, phi, phi2):
        raise ShapeMismatch("homotopy does not witness the two morphisms")
    c1 = cone(phi)
    c2 = cone(phi2)
    ctx = phi.source.ctx
    d = phi.source.d

    def lam_comps(sign):
        comps = []
        for i in range(1, d + 1):
            m_next = phi.source.obj_at(i + 1)
            n_obj = phi.target.objects[i - 1]
            t_next = t.comp_at(i + 1) if sign > 0 else -t.comp_at(i + 1)
            comps.append(block([
                [MatrixMap.identity(ctx, m_next), MatrixMap.zero(ctx, n_obj, m_next)],
                [t_next, MatrixMap.identity(ctx, n_obj)],
            ]))
        return comps

    lam = morphism(c1.cone, c2.cone, lam_comps(+1))
    lam_inv = morphism(c2.cone, c1.cone, lam_comps(-1))
    ident1 = identity_morphism(c1.cone)
    ident2 = identity_morphism(c2.cone)
    if compose_graded(lam_inv, lam).components != ident1.components:
        raise AssertionError("cone comparison: lambda^-1 . lambda is not the identity")
    if compose_graded(lam, lam_inv).components != ident2.components:
        raise AssertionError("cone comparison: lambda . lambda^-1 is not the identity")
    if compose_graded(lam, c1.include).components != c2.include.components:
        raise AssertionError("cone comparison: lambda does not carry i_phi to i_phi2")
    if compose_graded(c2.project, lam).components != c1.project.components:
        raise AssertionError("cone comparison: pi_phi2 . lambda is not pi_phi")
    return lam, lam_inv


@dataclass(frozen=True)
class Triangle:
    x: FactorizationD
    y: FactorizationD
    z: FactorizationD
    sx: FactorizationD
    u: GradedHom
    v: GradedHom
    w: GradedHom


def standard_triangle(phi: GradedHom) -> Triangle:
    c = cone(phi)
    return Triangle(
        x=phi.source,
        y=phi.target,
        z=c.cone,
        sx=c.project.target,
        u=phi,
        v=c.include,
        w=c.project,
    )
