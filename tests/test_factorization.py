"""Factorization category: verification, rotations, cones, triangles."""

import json
import random
from pathlib import Path

import pytest

from dfactor import factorization
from dfactor.context import Context, FreeObj, MatrixMap, compose, compose_chain, eta_map
from dfactor.dg import GradedHom, graded_hom, zero_graded
from dfactor.errors import CompositionMismatch, ShapeMismatch
from dfactor.factorization import (
    FactorizationD,
    cone,
    cone_comparison,
    direct_sum,
    homotopy_decide,
    identity_morphism,
    is_morphism,
    make_factorization,
    morphism,
    scalar_morphism,
    standard_triangle,
    suspend,
    trivial_factorization,
    unsuspend,
    verify_factorization,
    zero_object,
)
from dfactor.fields import GF, QQ
from dfactor.rings import QuotientRing
from dfactor.sampling import make_pool, random_element
from dfactor.schemas import context_from_json
from tests.oracles import first_failing_rotation

F7 = GF(7)


def ctx_with(eta: str, variables=("x", "y")) -> Context:
    R = QuotientRing.make(F7, variables)
    return Context(R, eta=R.parse(eta))


def mk_fact(ctx, d, matrices):
    """Build from string matrices with all-zero starting offsets."""
    ranks = [len(m[0]) for m in matrices]
    objects = [FreeObj.of(r) for r in ranks]
    X = None
    maps = []
    for i, m in enumerate(matrices):
        src = objects[i]
        tgt = objects[(i + 1) % d] if i < d - 1 else objects[0].twist(1)
        maps.append(MatrixMap.from_strings(ctx, src, tgt, m))
    return make_factorization(ctx, d, objects, maps, allow_odd_d=d % 2 == 1)


@pytest.fixture
def ctx_xy():
    return ctx_with("x*y")


@pytest.fixture
def X_xy(ctx_xy):
    return mk_fact(ctx_xy, 2, [[["x"]], [["y"]]])


@pytest.fixture
def ctx_sos():
    return ctx_with("x^2 + y^2")


@pytest.fixture
def X_sos(ctx_sos):
    return mk_fact(
        ctx_sos,
        2,
        [[["x", "y"], ["-y", "x"]], [["x", "-y"], ["y", "x"]]],
    )


def test_make_factorization_valid_cases(ctx_xy, X_xy, X_sos):
    assert X_xy.d == 2
    assert X_sos.total_rank == 4
    ctx4 = ctx_with("x^4", ("x",))
    X4 = mk_fact(ctx4, 4, [[["x"]], [["x"]], [["x"]], [["x"]]])
    assert X4.d == 4
    assert verify_factorization(X4) == X4


def test_make_factorization_rejects_wrong_eta():
    ctx3 = ctx_with("x^3", ("x",))
    with pytest.raises(CompositionMismatch):
        mk_fact(ctx3, 4, [[["x"]], [["x"]], [["x"]], [["x"]]])


def test_make_factorization_reports_rotation_and_residual(ctx_xy):
    # f1 = x, f2 = x: composition x^2 != x*y in every rotation
    with pytest.raises(CompositionMismatch) as exc:
        mk_fact(ctx_xy, 2, [[["x"]], [["x"]]])
    assert exc.value.rotation == 1
    res = exc.value.residual
    assert res.rows[0][0] == ctx_xy.backend.parse("x^2 - x*y")


SOS_PAIR = [[["x", "y"], ["-y", "x"]], [["x", "-y"], ["y", "x"]]]


def _sos_seed(ctx, d):
    """(A, B, 1, ..., 1) with AB = BA = (x^2 + y^2) 1, at rank 2."""
    return mk_fact(ctx, d, SOS_PAIR + [[["1", "0"], ["0", "1"]]] * (d - 2))


def _unverified(ctx, d, matrices):
    objects = tuple(FreeObj.of(len(m[0])) for m in matrices)
    maps = tuple(
        MatrixMap.from_strings(ctx, objects[i], objects[i + 1] if i < d - 1
                               else objects[0].twist(1), m)
        for i, m in enumerate(matrices)
    )
    return FactorizationD(ctx, d, objects, maps)


def _late_failure(ctx, d, p):
    """M_1..M_p of rank 1 and the rest of rank 2, w = xy: f_1 carries x
    and f_d carries y, every other entry is 0 or 1.  Rotations 1..p
    compose to xy, rotation p + 1 to diag(xy, 0)."""
    ranks = [1] * p + [2] * (d - p)
    matrices = []
    for i in range(d):
        s, t = ranks[i], ranks[(i + 1) % d]
        e = "x" if i == 0 else "1"
        if (s, t) == (1, 1):
            matrices.append([[e]])
        elif (s, t) == (1, 2):
            matrices.append([[e], ["0"]])
        elif (s, t) == (2, 2):
            matrices.append([["1", "0"], ["0", "1"]])
        else:
            matrices.append([["y", "0"]])
    return _unverified(ctx, d, matrices)


def _verdict_matches_oracle(X):
    """make_factorization's first failing rotation and residual are the
    ones of the rotation-by-rotation oracle; returns the rotation."""
    expected = first_failing_rotation(X)
    try:
        make_factorization(X.ctx, X.d, X.objects, X.maps)
    except CompositionMismatch as exc:
        assert expected is not None
        assert exc.rotation == expected[0]
        assert exc.residual == expected[1] and repr(exc.residual) == repr(expected[1])
        return exc.rotation
    assert expected is None
    return None


@pytest.mark.parametrize("d", [2, 4, 6])
def test_rotation_check_matches_the_oracle(ctx_xy, ctx_sos, d):
    rng = random.Random(40 + d)
    pool = make_pool(ctx_sos, d, [_sos_seed(ctx_sos, d)], max_rank=6)
    backend = ctx_sos.backend
    failing = set()
    for _ in range(6):
        X = pool.random_factorization(rng, steps=2)
        assert _verdict_matches_oracle(X) is None
        for p in range(d):  # corrupt map p + 1 at one entry
            f = X.maps[p]
            if not f.rows or not f.rows[0]:
                continue
            i, j = rng.randrange(len(f.rows)), rng.randrange(len(f.rows[0]))
            e = backend.zero()
            while backend.is_zero(e):
                e = random_element(rng, backend, max_degree=2)
            rows = [list(row) for row in f.rows]
            rows[i][j] = backend.add(rows[i][j], e)
            bad = MatrixMap.make(ctx_sos, f.source, f.target, rows)
            maps = X.maps[:p] + (bad,) + X.maps[p + 1:]
            failing.add(_verdict_matches_oracle(FactorizationD(ctx_sos, d, X.objects, maps)))
    assert failing - {None}
    for p in range(1, d):
        assert _verdict_matches_oracle(_late_failure(ctx_xy, d, p)) == p + 1


def test_ranks_1_2_fail_at_rotation_2(ctx_xy):
    with pytest.raises(CompositionMismatch) as exc:
        mk_fact(ctx_xy, 2, [[["x"], ["0"]], [["y", "0"]]])
    assert exc.value.rotation == 2
    assert exc.value.residual.format_rows() == [["0", "0"], ["0", "6*x*y"]]


@pytest.mark.parametrize("d, products", [(2, 2), (4, 8), (6, 14)])
def test_rotation_check_costs_3d_minus_4_products(ctx_sos, d, products, monkeypatch):
    X = direct_sum(_sos_seed(ctx_sos, d), trivial_factorization(ctx_sos, d))
    calls = []

    def counting(g, f):
        calls.append(1)
        return compose(g, f)

    monkeypatch.setattr(factorization, "compose", counting)
    assert verify_factorization(X) == X
    assert len(calls) == products


def test_trivial_factorization_everywhere(ctx_xy, ctx_sos):
    for ctx in (ctx_xy, ctx_sos):
        T = trivial_factorization(ctx, 2, rank=2)
        assert verify_factorization(T) == T


def test_odd_d_rejected_publicly(ctx_xy):
    obj = FreeObj.of(1)
    with pytest.raises(ValueError):
        make_factorization(
            ctx_xy,
            3,
            [obj] * 3,
            [MatrixMap.from_strings(ctx_xy, obj, obj, [["x"]])] * 3,
        )


def test_direct_sum(ctx_xy, X_xy):
    Y = mk_fact(ctx_xy, 2, [[["y"]], [["x"]]])
    S = direct_sum(X_xy, Y)
    assert S.maps[0].rows == (
        (ctx_xy.backend.parse("x"), ctx_xy.backend.parse("0")),
        (ctx_xy.backend.parse("0"), ctx_xy.backend.parse("y")),
    )
    Z = zero_object(ctx_xy, 2)
    assert direct_sum(X_xy, Z).maps == X_xy.maps


def test_direct_sum_reverifies(ctx_sos, X_sos):
    S = direct_sum(X_sos, X_sos)
    assert S.total_rank == 8
    assert verify_factorization(S) == S


def test_suspend_values(ctx_xy, X_xy):
    S = suspend(X_xy)
    b = ctx_xy.backend
    assert S.maps[0].rows[0][0] == b.parse("-y")
    assert S.maps[1].rows[0][0] == b.parse("-x")
    assert S.objects[1] == FreeObj.of(1).twist(1)


def test_suspend_d4():
    ctx4 = ctx_with("x^4", ("x",))
    X4 = mk_fact(ctx4, 4, [[["x"]], [["x"]], [["x"]], [["x"]]])
    S = suspend(X4)
    assert all(m.rows[0][0] == ctx4.backend.parse("-x") for m in S.maps)


def test_suspend_distributes_over_sum(ctx_xy, X_xy):
    Y = mk_fact(ctx_xy, 2, [[["y"]], [["x"]]])
    assert suspend(direct_sum(X_xy, Y)) == direct_sum(suspend(X_xy), suspend(Y))


def test_suspend_unsuspend_roundtrip(ctx_xy, X_xy, X_sos):
    for X in (X_xy, X_sos):
        assert unsuspend(suspend(X)) == X
        assert suspend(unsuspend(X)) == X
    Z = zero_object(ctx_xy, 2)
    assert unsuspend(Z).total_rank == 0


def test_suspend_d_times_is_twist(ctx_xy, X_xy):
    S = U = X_xy
    for _ in range(X_xy.d):
        S, U = suspend(S), unsuspend(U)
    assert [o.offsets for o in S.objects] == [(1,), (1,)]
    assert [o.offsets for o in U.objects] == [(-1,), (-1,)]
    # map entries unchanged, signs restored (d even)
    assert [m.rows for m in S.maps] == [m.rows for m in X_xy.maps]
    assert [m.rows for m in U.maps] == [m.rows for m in X_xy.maps]


def test_is_morphism(ctx_xy, X_xy):
    ident = identity_morphism(X_xy)
    assert is_morphism(ident).ok
    yy = scalar_morphism(X_xy, ctx_xy.backend.parse("y"))
    assert is_morphism(yy).ok
    bad = GradedHom(
        X_xy,
        X_xy,
        0,
        (
            MatrixMap.from_strings(ctx_xy, FreeObj.of(1), FreeObj.of(1), [["y"]]),
            MatrixMap.zero(ctx_xy, FreeObj.of(1), FreeObj.of(1)),
        ),
    )
    check = is_morphism(bad)
    assert not check.ok and check.failing_square == 1
    assert check.residual.rows[0][0] == ctx_xy.backend.parse("x*y")
    with pytest.raises(ShapeMismatch):
        morphism(X_xy, X_xy, bad.components)


def test_homotopy_trivial_witness(X_xy):
    yy = scalar_morphism(X_xy, X_xy.ctx.backend.parse("y"))
    h = homotopy_decide(yy, yy)
    assert all(c.is_zero for c in h.components)


def test_homotopy_id_not_nullhomotopic(X_xy):
    from dfactor.factorization import NotHomotopic

    verdict = homotopy_decide(identity_morphism(X_xy), zero_graded(X_xy, X_xy))
    assert isinstance(verdict, NotHomotopic)
    # certificate re-verifies: 1 is not in (x, y)
    amb = X_xy.ctx.backend.amb
    assert verdict.certificate.reverify(amb)


def test_homotopy_yy_nullhomotopic(X_xy):
    b = X_xy.ctx.backend
    yy = scalar_morphism(X_xy, b.parse("y"))
    h = homotopy_decide(yy, zero_graded(X_xy, X_xy))
    # e.g. s1 = 0, s2 = 1 works; whatever the solver found was re-verified
    from dfactor.factorization import verify_witness

    assert verify_witness(h, yy, zero_graded(X_xy, X_xy))


def test_homotopy_witness_arithmetic(X_xy):
    """Reflexivity, symmetry, transitivity at the witness level."""
    from dfactor.factorization import verify_witness

    b = X_xy.ctx.backend
    yy = scalar_morphism(X_xy, b.parse("y"))
    zero = zero_graded(X_xy, X_xy)
    h = homotopy_decide(yy, zero)
    assert verify_witness(-h, zero, yy)
    two_yy = yy + yy
    assert verify_witness(h + h, two_yy, zero)


def test_cone_of_identity_values(ctx_xy, X_xy):
    c = cone(identity_morphism(X_xy))
    b = ctx_xy.backend
    assert c.cone.maps[0].format_rows() == [["6*y", "0"], ["1", "x"]]
    assert c.cone.maps[1].format_rows() == [["6*x", "0"], ["1", "y"]]
    assert verify_factorization(c.cone) == c.cone
    assert is_morphism(c.include).ok and is_morphism(c.project).ok


def test_cone_of_zero_from_zero_object(ctx_xy, X_xy):
    Z = zero_object(ctx_xy, 2)
    c = cone(zero_graded(Z, X_xy))
    assert c.cone.total_rank == X_xy.total_rank
    assert [m.rows for m in c.cone.maps] == [m.rows for m in X_xy.maps]


def test_cone_d4_even_sign_check():
    ctx4 = ctx_with("x^4", ("x",))
    X4 = mk_fact(ctx4, 4, [[["x"]], [["x"]], [["x"]], [["x"]]])
    c = cone(identity_morphism(X4))
    assert verify_factorization(c.cone) == c.cone


def test_cone_identity_contractible(X_xy):
    c = cone(identity_morphism(X_xy))
    h = homotopy_decide(identity_morphism(c.cone), zero_graded(c.cone, c.cone))
    assert isinstance(h, GradedHom) and h.degree == -1


def test_odd_d_cone_residual():
    """d=3 backdoor: the cone composition has the predicted nonzero
    lower-left block, so cones force d to be even."""
    ctx = ctx_with("x^3", ("x",))
    X3 = mk_fact(ctx, 3, [[["x"]], [["x"]], [["x"]]])
    phi = identity_morphism(X3)
    with pytest.raises(CompositionMismatch) as exc:
        cone(phi)
    residual = exc.value.residual
    # lower-left block: S(phi_1) . f_3 . f_2 (computed independently)
    h = compose_chain([X3.map_at(2), X3.map_at(3), phi.comp_at(4)])
    assert residual.rows[1][0] == h.rows[0][0]
    assert not h.is_zero


def test_cone_comparison_identities(X_xy):
    b = X_xy.ctx.backend
    yy = scalar_morphism(X_xy, b.parse("y"))
    zero = zero_graded(X_xy, X_xy)
    s = homotopy_decide(yy, zero)
    lam, lam_inv = cone_comparison(yy, zero, s)
    assert is_morphism(lam).ok and is_morphism(lam_inv).ok


def test_cone_comparison_rejects_bad_witness(X_xy):
    b = X_xy.ctx.backend
    yy = scalar_morphism(X_xy, b.parse("y"))
    zero = zero_graded(X_xy, X_xy)
    bad = graded_hom(X_xy, X_xy, -1, [
        MatrixMap.make(X_xy.ctx, X_xy.objects[i - 1], X_xy.obj_at(i - 1), [[b.parse("3")]])
        for i in range(1, X_xy.d + 1)
    ])
    with pytest.raises(ShapeMismatch):
        cone_comparison(yy, zero, bad)


def test_standard_triangle_shapes(X_xy):
    tri = standard_triangle(identity_morphism(X_xy))
    assert tri.x == X_xy and tri.y == X_xy
    assert tri.z.total_rank == 2 * X_xy.total_rank
    assert tri.sx == suspend(X_xy)
    tri0 = standard_triangle(zero_graded(X_xy, zero_object(X_xy.ctx, 2)))
    assert tri0.z.total_rank == X_xy.total_rank


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _lemma_ctx(name):
    """A fixture context, or Q[x,y] with w = xy."""
    if name == "q_xy":
        R = QuotientRing.make(QQ(), ("x", "y"))
        return Context(R, eta=R.parse("x*y"))
    return context_from_json(json.loads((FIXTURES / f"{name}.json").read_text()))


@pytest.mark.parametrize("d", [2, 4, 6])
@pytest.mark.parametrize("name", ["ctx_f7xy_xy", "ctx_f7xy_sos", "quantum_context", "q_xy"])
def test_constructions_are_valid_by_construction(name, d):
    """Sums, suspensions, the trivial and zero factorizations and the
    target of a cone's projection skip ``make_factorization``; each must
    pass it, over pools built from those very constructions."""
    ctx = _lemma_ctx(name)
    obj = FreeObj.of(1)
    objects = [obj] + [obj.twist(1)] * (d - 1)  # (eta, id, ..., id)
    maps = [eta_map(obj, ctx)] + [MatrixMap.identity(ctx, obj.twist(1))] * (d - 1)
    pool = make_pool(ctx, d, [make_factorization(ctx, d, objects, maps)], max_rank=6)
    rng = random.Random(d)
    built = [trivial_factorization(ctx, d, rank=2), zero_object(ctx, d)]
    for _ in range(6):
        X, Y = pool.random_factorization(rng, steps=3), pool.random_factorization(rng, steps=1)
        phi = scalar_morphism(X, random_element(rng, ctx.backend, max_degree=1, max_terms=1))
        if not is_morphism(phi).ok:
            phi = identity_morphism(X)
        built += [X, suspend(X), unsuspend(X), direct_sum(X, Y), cone(phi).project.target]
    for T in built:
        assert verify_factorization(T) == T


def test_odd_d_suspensions_still_raise():
    """At odd d the rotations of a suspension are -w: criterion 2's
    d = 3 factorization has no suspension."""
    ctx = ctx_with("x^3", ("x",))
    X3 = mk_fact(ctx, 3, [[["x"]], [["x"]], [["x"]]])
    for rotate in (suspend, unsuspend):
        with pytest.raises(CompositionMismatch) as exc:
            rotate(X3)
        assert exc.value.rotation == 1
        assert exc.value.residual.format_rows() == [["5*x^3"]]
