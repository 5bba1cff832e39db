"""From factorizations to periodic complexes and back.

The sequence functor unrolls a factorization into a finite window of
its doubly infinite periodic sequence; reduction modulo a central
element lands in d-complexes over the quotient and is certified by the
factors-through witness.  Windowed exactness (kernels equal images,
decided by syzygies), duals, total acyclicity, End rings of cyclic
modules via colon ideals, and instance-level faithful/full checks of
the reduction functor all live here.

Downstairs objects are modelled two ways at once: as a
:class:`ComplexWindow` (the external, positional surface) and as a
factorization over the quotient context with zero eta (the periodic
model every homotopy decision runs on, so window size never affects a
verdict).

The lifting problem behind fullness, d(theta) = 0 and theta - d(t) =
phibar modulo f, is one ring system with "modulo f" written as an
unknown multiple of f; its differentials are written and decoded by
:func:`dg.differential_terms` and :func:`dg.graded_from_grids`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .context import Context, FreeObj, MatrixMap, compose, compose_chain
from .dg import GradedHom, differential_terms, graded_from_grids, zero_graded
from .errors import DeadlineExceeded, HypothesesUnmet, ShapeMismatch, UnsupportedOperation
from .factorization import (
    FactorizationD,
    NotHomotopic,
    homotopy_decide,
    is_morphism,
    make_factorization,
    morphism,
    verify_witness,
)
from .fdalg import CentralElement, FDAlgebra, quotient_by_central
from .linsys import LinearSystem
from .modgb import LinearSolution, colon_ideal, is_regular, matrix_kernel, solve_linear
from .reuse import expired
from .rings import Ideal, Poly, QuotientRing


# -- end rings of cyclic modules ----------------------------------------


@dataclass(frozen=True)
class EndRingPresentation:
    """Endomorphisms of the cyclic module R*g, presented as a quotient.

    gamma = ambient/(0 : g); the defining ideal is the reduced basis
    of the colon, which contains the relations of R itself.
    """

    ring: QuotientRing
    element: Poly
    gamma: QuotientRing
    colon_basis: tuple


def end_ring_cyclic(R: QuotientRing, g: Poly) -> EndRingPresentation:
    g = R.nf(g)
    if g.is_zero:
        raise ValueError("cyclic generator must be nonzero in the ring")
    basis = colon_ideal([], g, R)
    gamma = QuotientRing(R.amb, Ideal(R.amb, list(basis)))
    return EndRingPresentation(R, g, gamma, tuple(basis))


# -- windows -------------------------------------------------------------


def _poll_window(lo: int, hi: int, phase: str, p: int) -> None:
    if expired():
        raise DeadlineExceeded(f"window [{lo}, {hi}]: {phase} at position {p}")


@dataclass(frozen=True)
class ComplexWindow:
    """Finite window of a d-periodic sequence of matrices.

    ``maps[k]`` sends position lo+k to position lo+k+1.  ``nilpotency``
    is the degree t whose t-fold adjacent compositions vanish (t = d
    for reductions; None for raw sequences).
    """

    ctx: Context
    lo: int
    hi: int
    maps: tuple
    period: int
    nilpotency: int | None = None

    def map_at(self, p: int) -> MatrixMap:
        if not self.lo <= p < self.hi:
            raise IndexError(f"position {p} outside window [{self.lo}, {self.hi})")
        return self.maps[p - self.lo]

    @property
    def backend(self):
        return self.ctx.backend

    def check_period(self) -> None:
        """ShapeMismatch unless the maps repeat, twisted, every period;
        the deadline is polled once per position."""
        for k in range(len(self.maps) - self.period):
            _poll_window(self.lo, self.hi, "period check", self.lo + k)
            if self.maps[k + self.period] != self.maps[k].twisted(1):
                raise ShapeMismatch(f"window is not {self.period}-periodic at offset {k}")

    def validate(self) -> "ComplexWindow":
        for k in range(len(self.maps) - 1):
            _poll_window(self.lo, self.hi, "shape check", self.lo + k)
            if self.maps[k].target != self.maps[k + 1].source:
                raise ShapeMismatch(f"window breaks between positions {self.lo+k} and {self.lo+k+1}")
        self.check_period()
        if self.nilpotency is not None:
            t = self.nilpotency
            for k in range(len(self.maps) - t + 1):
                _poll_window(self.lo, self.hi, "nilpotency check", self.lo + k)
                comp = compose_chain(self.maps[k : k + t])
                if not comp.is_zero:
                    raise ShapeMismatch(
                        f"{t}-fold composition at position {self.lo+k} is nonzero"
                    )
        return self


def window_from_factorization(X: FactorizationD, lo: int, hi: int, nilpotency):
    """Unroll positions lo..hi; position p carries X's map at index p+1.
    The deadline is polled once per position, here and in each check of
    :meth:`ComplexWindow.validate`."""
    maps = []
    for p in range(lo, hi):
        _poll_window(lo, hi, "unrolling", p)
        maps.append(X.map_at(p + 1))
    return ComplexWindow(
        ctx=X.ctx, lo=lo, hi=hi, maps=tuple(maps), period=X.d, nilpotency=nilpotency
    ).validate()


def to_sequence(X: FactorizationD) -> ComplexWindow:
    """The sequence functor: unroll 4d positions, matrices unchanged, no
    nilpotency."""
    if not isinstance(X.ctx.backend, QuotientRing):
        raise UnsupportedOperation("sequence unrolling expects a commutative backend")
    return window_from_factorization(X, -2 * X.d, 2 * X.d, None)


@dataclass(frozen=True)
class Reduction:
    """Reduction of ``upstairs`` mod f: the window, its periodic model,
    and the factors-through certificate eta = h*f."""

    window: ComplexWindow
    downstairs: FactorizationD
    h: object
    f: object
    upstairs: FactorizationD


def reduce_full(X: FactorizationD, f, length: int | None = None) -> Reduction:
    """Reduce X modulo f, certified by h with eta = h f (f applied
    first, so the algebra product f*h), found by a 1x1 system.

    The backend only picks the quotient: R/(f) over a ring, B/(BfB)
    over an algebra, where f must be central under the context's twist.
    """
    length = length if length is not None else 4 * X.d
    if length < 2 * X.d:
        raise ValueError(f"window length {length} is below 2*d")
    backend = X.ctx.backend
    f = backend.canon(f)
    if backend.is_zero(f):
        raise HypothesesUnmet("cannot reduce modulo zero")
    system = LinearSystem(backend)
    h = system.unknown(1, 1)
    system.equation([(h, ((f,),), "right")], ((X.ctx.eta,),))
    grids, cert = system.solve()
    if cert is not None:
        how = ("over the algebra" if isinstance(backend, FDAlgebra)
               else "(membership certificate not found)")
        raise HypothesesUnmet(f"eta does not factor through f {how}")
    if isinstance(backend, QuotientRing):
        quotient = backend.extend_ideal([f])
        project = quotient.nf
    else:
        quotient, proj = quotient_by_central(backend, CentralElement(backend, f), nu=X.ctx.twist)
        project = proj.apply
    ctx_bar = Context(quotient, eta=project(X.ctx.eta))
    if not ctx_bar.eta_is_zero:
        raise AssertionError("eta must die in the quotient by f")
    maps = [
        MatrixMap.make(ctx_bar, m.source, m.target, [[project(e) for e in row] for row in m.rows])
        for m in X.maps
    ]
    downstairs = make_factorization(ctx_bar, X.d, X.objects, maps)
    half = length // 2
    window = window_from_factorization(downstairs, -half, length - half, X.d)
    return Reduction(window, downstairs, grids[h][0][0], f, X)


def reduce_mod_f(X: FactorizationD, f) -> ComplexWindow:
    return reduce_full(X, f).window


def reduce_morphism(theta: GradedHom, red_src: Reduction, red_tgt: Reduction) -> GradedHom:
    """Image of a morphism under the reduction functor (periodic model)."""
    ctx_bar = red_src.downstairs.ctx
    if not isinstance(ctx_bar.backend, QuotientRing):
        raise UnsupportedOperation("morphism reduction implemented for ring backends")
    comps = [MatrixMap.make(ctx_bar, m.source, m.target, m.rows) for m in theta.components]
    return morphism(red_src.downstairs, red_tgt.downstairs, comps)


# -- exactness ------------------------------------------------------------


@dataclass(frozen=True)
class ExactnessReport:
    ok: bool
    failing_position: int | None = None
    detail: str = ""
    witness: tuple | None = None
    certificate: object = None

    def __bool__(self):
        return self.ok


def window_exact(C: ComplexWindow) -> ExactnessReport:
    """Kernel equals image at every interior position.

    The window must repeat its maps, twisted, every ``period``
    positions (checked first; ShapeMismatch otherwise), and twists leave
    entries alone, so only the first ``period`` interior positions are
    checked: the verdict, witness and certificate at p + period are
    those at p.
    Ring backends: kernels from syzygies, membership by certified
    linear solving.  Algebra backends: exact field linear algebra.
    Only ordinary complexes (nilpotency 2) have an exactness notion
    here; other nilpotencies are rejected.  A negative verdict carries
    the kernel element outside the image together with the solver's
    no-solution certificate.
    """
    if C.nilpotency != 2:
        raise HypothesesUnmet("exactness is defined for nilpotency-2 windows only")
    C.check_period()
    backend = C.backend
    for p in range(C.lo + 1, min(C.hi, C.lo + 1 + C.period)):
        incoming = C.map_at(p - 1)
        outgoing = C.map_at(p)
        residual = compose(outgoing, incoming)
        if not residual.is_zero:
            return ExactnessReport(False, p, "composition nonzero", witness=residual.rows)
        if isinstance(backend, QuotientRing):
            ok, witness, cert = _exact_at_ring(incoming, outgoing, backend)
            if not ok:
                return ExactnessReport(
                    False, p, "kernel not covered by image", witness=witness, certificate=cert
                )
        elif isinstance(backend, FDAlgebra):
            if not _exact_at_algebra(incoming, outgoing, backend):
                return ExactnessReport(False, p, "field ranks disagree")
        else:
            raise UnsupportedOperation("unknown backend")
    return ExactnessReport(True)


def _exact_at_ring(incoming: MatrixMap, outgoing: MatrixMap, ring: QuotientRing):
    kernel = matrix_kernel([list(r) for r in outgoing.rows], outgoing.source.rank, ring)
    rows = [list(r) for r in incoming.rows]
    for v in kernel:
        outcome = solve_linear(rows, list(v), ring)
        if not isinstance(outcome, LinearSolution):
            return False, v, outcome
    return True, None, None


def _field_rank(m: MatrixMap, alg: FDAlgebra) -> int:
    """Field rank of v -> m(v) on columns v: one equation ``m v = 0``."""
    system = LinearSystem(alg)
    v = system.unknown(m.source.rank, 1)
    system.equation([(v, m.rows, "left")], [[alg.zero()]] * m.target.rank)
    return system.field_rank()


def _exact_at_algebra(incoming: MatrixMap, outgoing: MatrixMap, alg: FDAlgebra) -> bool:
    dim_source = outgoing.source.rank * alg.dim
    rank_out = _field_rank(outgoing, alg)
    return dim_source - rank_out == _field_rank(incoming, alg)


def dual_window(C: ComplexWindow) -> ComplexWindow:
    """Apply Hom(-, ring) to a window of free modules: transpose and
    reverse; twist offsets negate."""
    if not isinstance(C.backend, QuotientRing):
        raise UnsupportedOperation(
            "duals need a commutative backend; algebra windows only offer plain acyclicity"
        )
    if C.nilpotency is not None and C.nilpotency != 2:
        raise HypothesesUnmet("dualization implemented for nilpotency-2 windows")

    def transpose(m: MatrixMap) -> MatrixMap:
        src = FreeObj(tuple(-o for o in m.target.offsets))
        tgt = FreeObj(tuple(-o for o in m.source.offsets))
        rows = [
            [m.rows[j][i] for j in range(m.target.rank)] for i in range(m.source.rank)
        ]
        return MatrixMap.make(C.ctx, src, tgt, rows)

    maps = tuple(transpose(C.map_at(-q - 1)) for q in range(-C.hi, -C.lo))
    return ComplexWindow(
        ctx=C.ctx,
        lo=-C.hi,
        hi=-C.lo,
        maps=maps,
        period=C.period,
        nilpotency=C.nilpotency,
    ).validate()


def _regular(ring: QuotientRing, f) -> Poly:
    """The reduction element f (a Poly or its text) in normal form,
    checked to be regular on ``ring``."""
    f = ring.nf(f if isinstance(f, Poly) else ring.parse(f))
    if f.is_zero or not is_regular(f, ring):
        raise HypothesesUnmet("reduction element is not regular on the backend")
    return f


@dataclass(frozen=True)
class TotalAcyclicityReport:
    primal: ExactnessReport
    dual: ExactnessReport | None

    @property
    def ok(self) -> bool:
        return self.primal.ok and self.dual is not None and self.dual.ok

    def __bool__(self):
        return self.ok


def total_acyclicity_report(X: FactorizationD, f) -> TotalAcyclicityReport:
    """Exact and dual-exact after reduction; hypotheses are certified
    first and their failure raises HypothesesUnmet, never a plain False."""
    ring = X.ctx.backend
    if not isinstance(ring, QuotientRing):
        raise UnsupportedOperation("total acyclicity is a commutative-backend notion")
    red = reduce_full(X, _regular(ring, f))
    primal = window_exact(red.window)
    if not primal.ok:
        return TotalAcyclicityReport(primal, None)
    dual = window_exact(dual_window(red.window))
    return TotalAcyclicityReport(primal, dual)


def is_totally_acyclic(X: FactorizationD, f) -> bool:
    return total_acyclicity_report(X, f).ok


# -- the dual-quotient identification -------------------------------------


def dual_quotient_check(n: int, x: Poly, gamma: QuotientRing, seed: int = 0) -> bool:
    """Hom(P, G)/Hom(P, G)x matches Hom_{G/(x)}(P/Px, G/(x)) for free P.

    Both sides are coordinatized by length-n rows; the comparison map
    is entrywise reduction.  Checks, on sampled rows: well-definedness
    (x-multiples die) and injectivity on representatives (a row
    reducing to zero lies in the x-multiples, certified by
    membership).  Each row takes O(n) ring operations; the deadline is
    polled once per row.
    """
    import random as _random

    from .sampling import random_poly

    rng = _random.Random(seed)
    x = gamma.nf(x)
    gbar = gamma.extend_ideal([x])

    def reduce_row(row):
        return tuple(gbar.nf(e) for e in row)

    for k in range(5):
        if expired():
            raise DeadlineExceeded(f"dual quotient check: well-definedness, {k} of 5 done")
        row = tuple(random_poly(rng, gamma) for _ in range(n))
        bump = tuple(gamma.mul(random_poly(rng, gamma), x) for _ in range(n))
        shifted = tuple(gamma.add(a, b) for a, b in zip(row, bump))
        if reduce_row(shifted) != reduce_row(row):
            return False
        if all(e.is_zero for e in reduce_row(row)):
            for e in row:
                outcome = solve_linear([(x,)], [e], gamma)
                if not isinstance(outcome, LinearSolution):
                    return False
    return True


# -- fully faithful, instance-certified ------------------------------------


@dataclass(frozen=True)
class FaithfulVerdict:
    downstairs_null: bool
    downstairs_witness: GradedHom | None
    upstairs_witness: GradedHom | None
    contradiction: bool

    @property
    def consistent(self) -> bool:
        return not self.contradiction


def _require_d2_regular(X: FactorizationD, f):
    ring = X.ctx.backend
    if X.d != 2:
        raise HypothesesUnmet("instance checks are stated for d = 2")
    if not isinstance(ring, QuotientRing):
        raise HypothesesUnmet("instance checks need a commutative backend")
    return _regular(ring, f)


def faithful_check(theta: GradedHom, f) -> FaithfulVerdict:
    """Reduce, decide periodic null-homotopy downstairs; when null,
    the upstairs witness must exist (the faithfulness direction)."""
    X, U = theta.source, theta.target
    f = _require_d2_regular(X, f)
    red_x = reduce_full(X, f)
    red_u = reduce_full(U, f)
    theta_bar = reduce_morphism(theta, red_x, red_u)
    down = homotopy_decide(theta_bar, zero_graded(red_x.downstairs, red_u.downstairs))
    if isinstance(down, NotHomotopic):
        return FaithfulVerdict(False, None, None, False)
    up = homotopy_decide(theta, zero_graded(X, U))
    if isinstance(up, NotHomotopic):
        return FaithfulVerdict(True, down, None, True)
    return FaithfulVerdict(True, down, up, False)


@dataclass(frozen=True)
class NoLift:
    certificate: object


@dataclass(frozen=True)
class Lift:
    theta: GradedHom
    downstairs_witness: GradedHom


def full_lift(phibar: GradedHom, red_x: Reduction, red_u: Reduction):
    """Find theta: X -> U upstairs with F(theta) homotopic to the given
    periodic chain map between the reductions of X and U modulo one f,
    by one combined membership solve over the ambient ring.

    Unknowns: the components alpha, beta of theta, a degree -1 element
    s = (sigma2, sigma1), and one block k_i per position standing for
    the multiple of f that "modulo f" allows.  Block rows: d(theta) = 0,
    then theta + d(s) + k f = phibar, all modulo the defining ideal.
    The downstairs witness is t = -s: theta - phibar = d(t) modulo f.
    """
    X, U = red_x.upstairs, red_u.upstairs
    f = _require_d2_regular(X, red_x.f)
    if phibar.source != red_x.downstairs or phibar.target != red_u.downstairs:
        raise ShapeMismatch("chain map must run between the two reductions")
    if not is_morphism(phibar).ok:
        raise HypothesesUnmet("input is not a verified periodic chain map")

    rx1, rx2 = (o.rank for o in X.objects)
    ru1, ru2 = (o.rank for o in U.objects)
    system = LinearSystem(X.ctx.backend)
    alpha = system.unknown(ru1, rx1)
    beta = system.unknown(ru2, rx2)
    sigma1 = system.unknown(ru1, rx2)
    sigma2 = system.unknown(ru2, rx1)
    theta_blocks, s = [alpha, beta], [sigma2, sigma1]
    for i, terms in enumerate(differential_terms(X, U, 0, theta_blocks), start=1):
        system.equation(terms, MatrixMap.zero(X.ctx, X.objects[i - 1], U.obj_at(i + 1)).rows)
    ds = differential_terms(X, U, -1, s)
    for obj, block, terms, target in zip(X.objects, theta_blocks, ds, phibar.components):
        k = system.unknown(target.target.rank, obj.rank)
        one = MatrixMap.identity(X.ctx, obj).rows
        times_f = MatrixMap.scalar(X.ctx, obj, f).rows
        system.equation([(block, one, "right"), *terms, (k, times_f, "right")], target.rows)
    grids, cert = system.solve()
    if cert is not None:
        return NoLift(cert)
    theta = graded_from_grids(X, U, 0, [grids[alpha], grids[beta]])
    if not is_morphism(theta).ok:
        raise AssertionError("lift solver produced a non-morphism")
    witness = -graded_from_grids(
        red_x.downstairs, red_u.downstairs, -1, [grids[sigma2], grids[sigma1]]
    )
    theta_bar = reduce_morphism(theta, red_x, red_u)
    if not verify_witness(witness, theta_bar, phibar):
        raise AssertionError("lift solver produced an invalid downstairs witness")
    return Lift(theta, witness)
