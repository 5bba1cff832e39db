"""Cyclic d-tuples of maps factoring multiplication by w, and their
homotopy calculus: verification, suspension and its inverse, direct
sums, mapping cones, comparison isomorphisms, standard triangles, and
the certified homotopy decision procedure.

Index convention: positions are 1-based modulo d in the twisted sense.
For m = q*d + r with 1 <= r <= d, the object at position m is the
q-fold twist of the object at r, and maps/components twist along.
"""

from __future__ import annotations

from dataclasses import dataclass

from .context import (
    Context,
    FreeObj,
    MatrixMap,
    block2x2,
    col_block,
    compose,
    compose_chain,
    eta_map,
    row_block,
)
from .errors import CompositionMismatch, ShapeMismatch
from .linalg import FredholmCertificate
from .linsys import LinearSystem


def _wrap(m: int, d: int):
    """m = q*d + r with 1 <= r <= d; returns (q, r)."""
    q, rem = divmod(m - 1, d)
    return q, rem + 1


@dataclass(frozen=True)
class FactorizationD:
    """Objects M_1..M_d and maps f_i: M_i -> M_{i+1} (f_d into the twist
    of M_1) whose every cyclic d-fold composition is multiplication
    by the context element."""

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

    ``allow_odd_d`` exists only so the test suite can reproduce the
    failure mode of mapping cones at odd d; the public surface (CLI,
    JSON) rejects odd d up front.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    if d % 2 == 1 and not allow_odd_d:
        raise ValueError("d must be even")
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
    for r in range(1, d + 1):
        comp = compose_chain(X.map_at(r + k) for k in range(d))
        expected = eta_map(objects[r - 1], ctx)
        if comp != expected:
            raise CompositionMismatch(r, comp - expected)
    return X


def verify_factorization(X: FactorizationD) -> FactorizationD:
    return make_factorization(X.ctx, X.d, X.objects, X.maps, allow_odd_d=X.d % 2 == 1)


def zero_object(ctx: Context, d: int) -> FactorizationD:
    obj = FreeObj.of(0)
    zero = MatrixMap.zero(ctx, obj, obj)
    objects = tuple(obj for _ in range(d))
    maps = tuple(zero if i < d - 1 else MatrixMap.zero(ctx, obj, obj.twist(1)) for i in range(d))
    return make_factorization(ctx, d, objects, maps, allow_odd_d=d % 2 == 1)


def trivial_factorization(ctx: Context, d: int, rank: int = 1) -> FactorizationD:
    """(identity, ..., identity, eta): valid in every context."""
    obj = FreeObj.of(rank)
    maps = [MatrixMap.identity(ctx, obj) for _ in range(d - 1)]
    maps.append(eta_map(obj, ctx))
    return make_factorization(ctx, d, [obj] * d, maps, allow_odd_d=d % 2 == 1)


def direct_sum(X: FactorizationD, Y: FactorizationD) -> FactorizationD:
    if X.ctx != Y.ctx or X.d != Y.d:
        raise ShapeMismatch("direct sum needs matching context and d")
    from .context import block_diag

    objects = [a.concat(b) for a, b in zip(X.objects, Y.objects)]
    maps = [block_diag(f, g) for f, g in zip(X.maps, Y.maps)]
    return make_factorization(X.ctx, X.d, objects, maps, allow_odd_d=X.d % 2 == 1)


def suspend(X: FactorizationD) -> FactorizationD:
    """Left rotation with negated maps."""
    d = X.d
    objects = [X.obj_at(i) for i in range(2, d + 2)]
    maps = [-X.map_at(i) for i in range(2, d + 2)]
    return make_factorization(X.ctx, d, objects, maps, allow_odd_d=d % 2 == 1)


def unsuspend(X: FactorizationD) -> FactorizationD:
    """Right rotation with negated maps; strict inverse of suspend."""
    d = X.d
    objects = [X.obj_at(i) for i in range(0, d)]
    maps = [-X.map_at(i) for i in range(0, d)]
    return make_factorization(X.ctx, d, objects, maps, allow_odd_d=d % 2 == 1)


def suspend_power(X: FactorizationD, k: int) -> FactorizationD:
    out = X
    while k > 0:
        out = suspend(out)
        k -= 1
    while k < 0:
        out = unsuspend(out)
        k += 1
    return out


# -- morphisms ---------------------------------------------------------


@dataclass(frozen=True)
class FactMorphism:
    source: FactorizationD
    target: FactorizationD
    components: tuple

    def comp_at(self, m: int) -> MatrixMap:
        q, r = _wrap(m, self.source.d)
        return self.components[r - 1].twisted(q)

    def __add__(self, other: "FactMorphism") -> "FactMorphism":
        self._parallel(other)
        return FactMorphism(
            self.source,
            self.target,
            tuple(a + b for a, b in zip(self.components, other.components)),
        )

    def __sub__(self, other: "FactMorphism") -> "FactMorphism":
        self._parallel(other)
        return FactMorphism(
            self.source,
            self.target,
            tuple(a - b for a, b in zip(self.components, other.components)),
        )

    def __neg__(self) -> "FactMorphism":
        return FactMorphism(self.source, self.target, tuple(-a for a in self.components))

    def _parallel(self, other):
        if self.source != other.source or self.target != other.target:
            raise ShapeMismatch("morphisms are not parallel")

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)


def morphism(X: FactorizationD, Y: FactorizationD, components, verify: bool = True) -> FactMorphism:
    if X.ctx != Y.ctx or X.d != Y.d:
        raise ShapeMismatch("morphism needs matching context and d")
    components = tuple(components)
    if len(components) != X.d:
        raise ShapeMismatch(f"need {X.d} components")
    for i, c in enumerate(components):
        if c.source != X.objects[i] or c.target != Y.objects[i]:
            raise ShapeMismatch(f"component {i+1} has shape {c.source}->{c.target}")
    phi = FactMorphism(X, Y, components)
    if verify:
        check = is_morphism(phi)
        if not check.ok:
            raise ShapeMismatch(
                f"square {check.failing_square} does not commute"
            )
    return phi


def identity_morphism(X: FactorizationD) -> FactMorphism:
    comps = [MatrixMap.identity(X.ctx, obj) for obj in X.objects]
    return FactMorphism(X, X, tuple(comps))


def zero_morphism(X: FactorizationD, Y: FactorizationD) -> FactMorphism:
    comps = [
        MatrixMap.zero(X.ctx, a, b) for a, b in zip(X.objects, Y.objects)
    ]
    return FactMorphism(X, Y, tuple(comps))


def scalar_morphism(X: FactorizationD, elem) -> FactMorphism:
    """Multiplication by a backend element on every component.

    A morphism whenever the element commutes with all map entries
    (always, over a commutative backend)."""
    comps = [MatrixMap.scalar(X.ctx, obj, elem) for obj in X.objects]
    return FactMorphism(X, X, tuple(comps))


def compose_morphisms(psi: FactMorphism, phi: FactMorphism) -> FactMorphism:
    if phi.target != psi.source:
        raise ShapeMismatch("morphisms do not compose")
    comps = tuple(compose(a, b) for a, b in zip(psi.components, phi.components))
    return FactMorphism(phi.source, psi.target, comps)


@dataclass(frozen=True)
class MorphismCheck:
    ok: bool
    failing_square: int | None = None
    residual: MatrixMap | None = None


def is_morphism(phi: FactMorphism) -> MorphismCheck:
    """All d squares commute; reports the first failure."""
    X, Y = phi.source, phi.target
    for i in range(1, X.d + 1):
        lhs = compose(Y.map_at(i), phi.comp_at(i))
        rhs = compose(phi.comp_at(i + 1), X.map_at(i))
        if lhs != rhs:
            return MorphismCheck(False, i, lhs - rhs)
    return MorphismCheck(True)


# -- homotopy ----------------------------------------------------------


@dataclass(frozen=True)
class Homotopy:
    """Diagonal witness: s_i: M_{i+1} -> N_i (s_d from the twist of M_1)."""

    source: FactorizationD
    target: FactorizationD
    components: tuple

    def comp_at(self, m: int) -> MatrixMap:
        q, r = _wrap(m, self.source.d)
        return self.components[r - 1].twisted(q)

    def __neg__(self):
        return Homotopy(self.source, self.target, tuple(-c for c in self.components))

    def __add__(self, other: "Homotopy"):
        return Homotopy(
            self.source,
            self.target,
            tuple(a + b for a, b in zip(self.components, other.components)),
        )


def homotopy_shapes(X: FactorizationD, Y: FactorizationD):
    """(source, target) pairs for the d witness components."""
    d = X.d
    return [(X.obj_at(i + 1), Y.objects[i - 1]) for i in range(1, d + 1)]


def boundary_of_homotopy(s: Homotopy) -> FactMorphism:
    """The morphism with components s_i f_i + g_{i-1} s_{i-1}."""
    X, Y = s.source, s.target
    comps = []
    for i in range(1, X.d + 1):
        term1 = compose(s.comp_at(i), X.map_at(i))
        term2 = compose(Y.map_at(i - 1), s.comp_at(i - 1))
        comps.append(term1 + term2)
    return FactMorphism(X, Y, tuple(comps))


def verify_witness(s: Homotopy, phi: FactMorphism, phi2: FactMorphism) -> bool:
    diff = phi - phi2
    bound = boundary_of_homotopy(s)
    return all(a == b for a, b in zip(diff.components, bound.components))


def homotopy_commutes_with_squares(s: Homotopy) -> bool:
    """Witnesses commute with the square of the maps:
    g_{i+1} g_i s_i = s_{i+2} f_{i+2} f_{i+1} for every i."""
    X, Y = s.source, s.target
    for i in range(1, X.d + 1):
        lhs = compose_chain([s.comp_at(i), Y.map_at(i), Y.map_at(i + 1)])
        rhs = compose_chain([X.map_at(i + 1), X.map_at(i + 2), s.comp_at(i + 2)])
        if lhs != rhs:
            return False
    return True


def composite_homotopy(psi: FactMorphism, s: Homotopy, t: Homotopy, phi2: FactMorphism) -> Homotopy:
    """Witness for psi.phi ~ psi2.phi2 from witnesses s: phi ~ phi2 and
    t: psi ~ psi2, namely psi_i s_i + t_i phi2_{i+1}."""
    comps = []
    d = psi.source.d
    for i in range(1, d + 1):
        comps.append(
            compose(psi.comp_at(i), s.comp_at(i))
            + compose(t.comp_at(i), phi2.comp_at(i + 1))
        )
    return Homotopy(s.source, t.target, tuple(comps))


@dataclass(frozen=True)
class NotHomotopic:
    """Negative verdict with the solver's no-solution certificate."""

    certificate: object
    detail: str = ""


def homotopy_decide(phi: FactMorphism, phi2: FactMorphism, deadline: float | None = None):
    """Homotopy witness or a certified NOT_HOMOTOPIC.

    The d defining equations s_i f_i + g_{i-1} s_{i-1} = phi_i - phi2_i
    form one linear system over the backend: a module Gröbner
    membership over a quotient ring, plain field linear algebra over a
    finite-dimensional algebra.  A returned witness has been
    re-verified entrywise.
    """
    phi._parallel(phi2)
    X, Y = phi.source, phi.target
    psi = phi - phi2
    shapes = homotopy_shapes(X, Y)
    system = LinearSystem(X.ctx.backend)
    s = [system.unknown(tgt.rank, src.rank) for src, tgt in shapes]
    for i in range(1, X.d + 1):
        system.equation(
            [(s[i - 1], X.map_at(i).rows, "right"), (s[i - 2], Y.map_at(i - 1).rows, "left")],
            psi.components[i - 1].rows,
        )
    grids, cert = system.solve(deadline)
    if cert is not None:
        if isinstance(cert, FredholmCertificate):
            return NotHomotopic(cert, "field-linear homotopy system is inconsistent")
        return NotHomotopic(cert, "membership of the flattened system failed")
    comps = [MatrixMap.make(X.ctx, src, tgt, grid) for (src, tgt), grid in zip(shapes, grids)]
    witness = Homotopy(X, Y, tuple(comps))
    if not verify_witness(witness, phi, phi2):
        raise AssertionError("solver returned an invalid homotopy witness")
    return witness


# -- cones and triangles ----------------------------------------------


@dataclass(frozen=True)
class Cone:
    cone: FactorizationD
    include: FactMorphism
    project: FactMorphism


def cone(phi: FactMorphism) -> Cone:
    """Mapping cone with its inclusion and projection.

    Objects M_{i+1} + N_i, maps [[-f_{i+1}, 0], [phi_{i+1}, g_i]];
    the projection lands in the suspension of the source (the odd-d
    failure of this construction is exactly what the even-d test
    backdoor reproduces).
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
        tl = -X.map_at(i + 1)
        tr = MatrixMap.zero(ctx, Y.objects[i - 1], X.obj_at(i + 2))
        bl = phi.comp_at(i + 1)
        br = Y.map_at(i)
        maps.append(block2x2(tl, tr, bl, br))
    C = make_factorization(ctx, d, objects, maps, allow_odd_d=d % 2 == 1)
    include_comps = []
    project_comps = []
    for i in range(1, d + 1):
        n_obj = Y.objects[i - 1]
        m_next = X.obj_at(i + 1)
        include_comps.append(
            col_block(MatrixMap.zero(ctx, n_obj, m_next), MatrixMap.identity(ctx, n_obj))
        )
        project_comps.append(
            row_block(MatrixMap.identity(ctx, m_next), MatrixMap.zero(ctx, n_obj, m_next))
        )
    include = morphism(Y, C, include_comps)
    project = morphism(C, suspend(X), project_comps)
    return Cone(C, include, project)


def cone_comparison(phi: FactMorphism, phi2: FactMorphism, s: Homotopy):
    """The strict isomorphism [[1,0],[s_i,1]]: C_phi -> C_phi2.

    Verifies the witness, that both directions are morphisms inverse
    to each other on the nose, and the strict identities
    i_{phi2} = lambda . i_phi and pi_{phi2} . lambda = pi_phi.
    """
    if not verify_witness(s, phi, phi2):
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
            s_i = s.comp_at(i) if sign > 0 else -s.comp_at(i)
            comps.append(
                block2x2(
                    MatrixMap.identity(ctx, m_next),
                    MatrixMap.zero(ctx, n_obj, m_next),
                    s_i,
                    MatrixMap.identity(ctx, n_obj),
                )
            )
        return comps

    lam = morphism(c1.cone, c2.cone, lam_comps(+1))
    lam_inv = morphism(c2.cone, c1.cone, lam_comps(-1))
    ident1 = identity_morphism(c1.cone)
    ident2 = identity_morphism(c2.cone)
    if compose_morphisms(lam_inv, lam).components != ident1.components:
        raise AssertionError("cone comparison: lambda^-1 . lambda is not the identity")
    if compose_morphisms(lam, lam_inv).components != ident2.components:
        raise AssertionError("cone comparison: lambda . lambda^-1 is not the identity")
    if compose_morphisms(lam, c1.include).components != c2.include.components:
        raise AssertionError("cone comparison: lambda does not carry i_phi to i_phi2")
    if compose_morphisms(c2.project, lam).components != c1.project.components:
        raise AssertionError("cone comparison: pi_phi2 . lambda is not pi_phi")
    return lam, lam_inv


@dataclass(frozen=True)
class Triangle:
    x: FactorizationD
    y: FactorizationD
    z: FactorizationD
    sx: FactorizationD
    u: FactMorphism
    v: FactMorphism
    w: FactMorphism


def standard_triangle(phi: FactMorphism) -> Triangle:
    c = cone(phi)
    return Triangle(
        x=phi.source,
        y=phi.target,
        z=c.cone,
        sx=suspend(phi.source),
        u=phi,
        v=c.include,
        w=c.project,
    )
