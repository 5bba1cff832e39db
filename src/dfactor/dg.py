"""The graded hom complex between two factorizations, and its one
element type.

A degree-n element phi: X -> Y is a d-tuple of maps phi_i: M_i ->
N_{i+n}, indices modulo d through twists.  It is valid when every
double square commutes; the differential is
``g . phi + (-1)^(n+1) phi . f`` and squares to zero on valid elements.
Morphisms are the degree-0 cycles, and a homotopy witness for
phi ~ phi' is a degree -1 element t with phi - phi' = d(t), that is
phi_i - phi'_i = g_{i-1} t_i + t_{i+1} f_i.  Composition adds degrees.

The differential is written as linear equations once
(:func:`differential_terms`) and solved blocks become graded elements
once (:func:`graded_from_grids`), for hom-space cycles at every degree,
homotopies and lifts.  H^0 is a count, |Z^0| - |V^-1| + |Z^-1| with Z
the cycles and V the valid elements: d(t) = 0 forces g g t_i =
t_{i+2} f f, so Z^-1 lies in V^-1, and d maps V^-1 onto the boundaries
inside Z^0 with kernel Z^-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .context import MatrixMap, compose
from .errors import ShapeMismatch

if TYPE_CHECKING:
    from .factorization import FactorizationD


def _wrap(m: int, d: int):
    """m = q*d + r with 1 <= r <= d; returns (q, r)."""
    q, rem = divmod(m - 1, d)
    return q, rem + 1


@dataclass(frozen=True)
class GradedHom:
    """Component i (1-based) is a map M_i -> N_{i+degree}."""

    source: FactorizationD
    target: FactorizationD
    degree: int
    components: tuple

    def comp_at(self, m: int) -> MatrixMap:
        q, r = _wrap(m, self.source.d)
        return self.components[r - 1].twisted(q)

    def __add__(self, other: "GradedHom") -> "GradedHom":
        self._parallel(other)
        return GradedHom(
            self.source,
            self.target,
            self.degree,
            tuple(a + b for a, b in zip(self.components, other.components)),
        )

    def __sub__(self, other: "GradedHom") -> "GradedHom":
        self._parallel(other)
        return GradedHom(
            self.source,
            self.target,
            self.degree,
            tuple(a - b for a, b in zip(self.components, other.components)),
        )

    def __neg__(self) -> "GradedHom":
        return GradedHom(
            self.source, self.target, self.degree, tuple(-c for c in self.components)
        )

    def _parallel(self, other: "GradedHom"):
        if (self.source, self.target, self.degree) != (
            other.source,
            other.target,
            other.degree,
        ):
            raise ShapeMismatch("graded elements not parallel")

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)


def graded_hom(X: FactorizationD, Y: FactorizationD, degree: int, components) -> GradedHom:
    """Shape-checked construction; the double-square law is dg_check's job."""
    if X.ctx != Y.ctx or X.d != Y.d:
        raise ShapeMismatch("graded hom needs matching context and d")
    components = tuple(components)
    if len(components) != X.d:
        raise ShapeMismatch(f"need {X.d} components")
    for i, c in enumerate(components, start=1):
        if c.source != X.objects[i - 1] or c.target != Y.obj_at(i + degree):
            raise ShapeMismatch(
                f"component {i}: got {c.source}->{c.target}, expected "
                f"{X.objects[i - 1]}->{Y.obj_at(i + degree)}"
            )
    return GradedHom(X, Y, degree, components)


def zero_graded(X: FactorizationD, Y: FactorizationD, degree: int = 0) -> GradedHom:
    comps = [
        MatrixMap.zero(X.ctx, X.objects[i - 1], Y.obj_at(i + degree))
        for i in range(1, X.d + 1)
    ]
    return GradedHom(X, Y, degree, tuple(comps))


def compose_graded(psi: GradedHom, phi: GradedHom) -> GradedHom:
    """psi after phi: components psi_{i + deg phi} . phi_i; degrees add."""
    if phi.target != psi.source:
        raise ShapeMismatch("graded elements do not compose")
    n = phi.degree
    comps = tuple(compose(psi.comp_at(i + n), c) for i, c in enumerate(phi.components, start=1))
    return GradedHom(phi.source, psi.target, psi.degree + n, comps)


def dg_check(phi: GradedHom) -> bool:
    """Every double square commutes (indices modulo d through twists)."""
    X, Y, n = phi.source, phi.target, phi.degree
    for i in range(1, X.d + 1):
        lhs = compose(phi.comp_at(i + 2), compose(X.map_at(i + 1), X.map_at(i)))
        rhs = compose(compose(Y.map_at(i + n + 1), Y.map_at(i + n)), phi.comp_at(i))
        if lhs != rhs:
            return False
    return True


def dg_differential(phi: GradedHom) -> GradedHom:
    """g . phi + (-1)^(n+1) phi . f, one degree up."""
    X, Y, n = phi.source, phi.target, phi.degree
    sign = 1 if (n + 1) % 2 == 0 else -1
    comps = []
    for i in range(1, X.d + 1):
        term1 = compose(Y.map_at(i + n), phi.comp_at(i))
        term2 = compose(phi.comp_at(i + 1), X.map_at(i))
        comps.append(term1 + term2 if sign > 0 else term1 - term2)
    return GradedHom(X, Y, n + 1, tuple(comps))


def differential_terms(X: FactorizationD, Y: FactorizationD, degree: int, t):
    """For i = 1..d, the :class:`linsys.LinearSystem` terms of
    ``d(t)_i = g_{i+n} t_i + (-1)^(n+1) t_{i+1} f_i``, where t is a
    degree-n element whose component t_i is the unknown block
    ``t[i - 1]``.  Each block appears in one term per equation."""
    return [[(t[i - 1], Y.map_at(i + degree).rows, "left"),
             (t[i % X.d], (X.map_at(i) if degree % 2 else -X.map_at(i)).rows, "right")]
            for i in range(1, X.d + 1)]


def graded_from_grids(X: FactorizationD, Y: FactorizationD, degree: int, grids) -> GradedHom:
    """The degree-``degree`` element whose component i has the entries
    of ``grids[i - 1]``, in canonical form."""
    comps = tuple(
        MatrixMap.make(X.ctx, X.objects[i - 1], Y.obj_at(i + degree), grid)
        for i, grid in enumerate(grids, start=1)
    )
    return GradedHom(X, Y, degree, comps)


def h0_dimension(X: FactorizationD, Y: FactorizationD) -> int:
    """dim over the field of degree-0 cohomology: morphisms modulo
    boundaries of valid degree -1 elements, counted as
    |Z^0| - |V^-1| + |Z^-1| (see the module docstring).

    Requires a backend of finite field dimension: a quotient ring with
    infinitely many standard monomials is UNSUPPORTED.
    """
    from .sampling import GradedSpace

    space0, space1 = GradedSpace(X, Y, 0), GradedSpace(X, Y, -1)
    return len(space0.cycle_basis()) - len(space1.valid_basis()) + len(space1.cycle_basis())
