"""Reduction functor, windows, exactness, End rings, faithful/full checks."""

from dataclasses import replace

import pytest

from dfactor.context import Context, FreeObj, MatrixMap
from dfactor.dg import GradedHom, zero_graded
from dfactor.errors import HypothesesUnmet, ShapeMismatch, UnsupportedOperation
from dfactor.factorization import (
    direct_sum,
    identity_morphism,
    scalar_morphism,
)
from dfactor.fields import GF
from dfactor.functors import (
    ComplexWindow,
    Lift,
    dual_quotient_check,
    dual_window,
    end_ring_cyclic,
    faithful_check,
    full_lift,
    is_totally_acyclic,
    reduce_full,
    reduce_mod_f,
    reduce_morphism,
    to_sequence,
    window_exact,
)
from dfactor.rings import QuotientRing
from tests.test_factorization import ctx_with, mk_fact

F7 = GF(7)


@pytest.fixture
def ctx_xy():
    return ctx_with("x*y")


@pytest.fixture
def X_xy(ctx_xy):
    return mk_fact(ctx_xy, 2, [[["x"]], [["y"]]])


# -- end rings ------------------------------------------------------------


def test_end_ring_xy_fixture():
    R = QuotientRing.make(F7, ("x", "y"), ["x*y"])
    pres = end_ring_cyclic(R, R.parse("x"))
    assert [repr(b) for b in pres.gamma.basis] == ["y"]
    # multiplication by g is injective on nonzero Gamma representatives
    for s in ("x", "x^2", "3*x + 1"):
        rep = pres.gamma.nf(pres.gamma.amb.poly(s))
        assert not rep.is_zero
        assert not R.nf(rep * pres.element).is_zero


def test_end_ring_three_vars():
    S = QuotientRing.make(F7, ("x", "y", "z"), ["x*z", "y*z"])
    pres = end_ring_cyclic(S, S.parse("x"))
    assert [repr(b) for b in pres.gamma.basis] == ["z"]


def test_end_ring_unit_gives_whole_ring():
    R = QuotientRing.make(F7, ("x", "y"), ["x*y"])
    pres = end_ring_cyclic(R, R.one())
    assert pres.gamma.basis == R.basis


def test_end_ring_rejects_zero():
    R = QuotientRing.make(F7, ("x", "y"), ["x*y"])
    with pytest.raises(ValueError):
        end_ring_cyclic(R, R.parse("x*y"))


# -- sequence functor ------------------------------------------------------


def test_to_sequence_unrolls(X_xy):
    W = to_sequence(X_xy)
    assert W.hi - W.lo == 4 * X_xy.d
    b = X_xy.ctx.backend
    assert W.map_at(0).rows[0][0] == b.parse("x")
    assert W.map_at(1).rows[0][0] == b.parse("y")
    assert W.map_at(2).rows[0][0] == b.parse("x")
    assert W.map_at(-1).rows[0][0] == b.parse("y")
    assert W.nilpotency is None


def test_to_sequence_zero_object(ctx_xy):
    from dfactor.factorization import zero_object

    W = to_sequence(zero_object(ctx_xy, 2))
    assert all(m.is_zero for m in W.maps)


def test_to_sequence_d4_periodic():
    ctx4 = ctx_with("x^4", ("x",))
    X4 = mk_fact(ctx4, 4, [[["x"]], [["x"]], [["x"]], [["x"]]])
    W = to_sequence(X4)
    assert W.period == 4
    assert W.map_at(0) == W.map_at(4).twisted(-1)


def test_to_sequence_additive(ctx_xy, X_xy):
    Y = mk_fact(ctx_xy, 2, [[["y"]], [["x"]]])
    WS = to_sequence(direct_sum(X_xy, Y))
    WX, WY = to_sequence(X_xy), to_sequence(Y)
    for p in range(WS.lo, WS.hi):
        m = WS.map_at(p)
        assert m.rows[0][0] == WX.map_at(p).rows[0][0]
        assert m.rows[1][1] == WY.map_at(p).rows[0][0]
        assert m.rows[0][1].is_zero and m.rows[1][0].is_zero


# -- reduction -------------------------------------------------------------


def test_reduce_xy(X_xy):
    red = reduce_full(X_xy, X_xy.ctx.backend.parse("x*y"))
    W = red.window
    assert W.nilpotency == 2
    rbar = W.backend
    assert [repr(b) for b in rbar.basis] == ["x*y"]
    assert red.downstairs.ctx.eta_is_zero
    # certificate: eta = h*f with f = eta means h = 1
    assert red.h == rbar.amb.one()


def test_reduce_requires_factorization_through_f(X_xy):
    with pytest.raises(HypothesesUnmet):
        reduce_mod_f(X_xy, X_xy.ctx.backend.parse("x^2"))


def test_reduce_d4_through_square():
    ctx4 = ctx_with("x^4", ("x",))
    X4 = mk_fact(ctx4, 4, [[["x"]], [["x"]], [["x"]], [["x"]]])
    red = reduce_full(X4, ctx4.backend.parse("x^2"))
    assert red.h == ctx4.backend.amb.poly("x^2")
    W = red.window
    assert W.nilpotency == 4
    # inside F7[x]/(x^2) even adjacent pairs already vanish
    from dfactor.context import compose

    assert compose(W.map_at(1), W.map_at(0)).is_zero


def test_reduce_additive(ctx_xy, X_xy):
    Y = mk_fact(ctx_xy, 2, [[["y"]], [["x"]]])
    f = ctx_xy.backend.parse("x*y")
    WS = reduce_mod_f(direct_sum(X_xy, Y), f)
    WX, WY = reduce_mod_f(X_xy, f), reduce_mod_f(Y, f)
    for p in range(WS.lo, WS.hi):
        assert WS.map_at(p).rows[0][0] == WX.map_at(p).rows[0][0]
        assert WS.map_at(p).rows[1][1] == WY.map_at(p).rows[0][0]


# -- exactness -------------------------------------------------------------


def test_window_exact_xy(X_xy):
    W = reduce_mod_f(X_xy, X_xy.ctx.backend.parse("x*y"))
    assert window_exact(W).ok


def test_window_exact_sos():
    ctx = ctx_with("x^2 + y^2")
    X = mk_fact(ctx, 2, [[["x", "y"], ["-y", "x"]], [["x", "-y"], ["y", "x"]]])
    W = reduce_mod_f(X, ctx.backend.parse("x^2 + y^2"))
    assert window_exact(W).ok


def _manual_window(ring_desc, entries, nilpotency=2, length=6):
    """Rank-1 periodic window with the given repeating entries."""
    ring = QuotientRing.make(F7, *ring_desc)
    ctx = Context(ring, eta=ring.zero())
    period = len(entries)
    half = length // 2
    maps = []
    for p in range(-half, length - half):
        r = p % period
        q = (p - r) // period
        src = FreeObj.of(1, q)
        tgt = FreeObj.of(1, q) if r < period - 1 else FreeObj.of(1, q + 1)
        maps.append(MatrixMap.from_strings(ctx, src, tgt, [[entries[r]]]))
    return ComplexWindow(
        ctx=ctx, lo=-half, hi=length - half, maps=tuple(maps),
        period=period, nilpotency=nilpotency,
    )


def test_window_not_exact_reports_position():
    # maps (x, x) over F7[x,y]/(xy): compositions do not even vanish
    W = _manual_window((("x", "y"), ["x*y"]), ["x", "x"])
    report = window_exact(W)
    assert not report.ok and report.failing_position is not None


def test_window_nilpotent_but_not_exact():
    # maps (x^3, x^3) over F7[x]/(x^4): ann(x^3) = (x) strictly contains (x^3)
    W = _manual_window((("x",), ["x^4"]), ["x^3", "x^3"]).validate()
    report = window_exact(W)
    assert not report.ok and report.detail == "kernel not covered by image"


def test_window_exact_rejects_a_window_that_stops_repeating():
    # maps (x, y) over F7[x,y]/(xy) are exact; the map leaving position 1
    # is then replaced by zero, so the window breaks only after one period
    W = _manual_window((("x", "y"), ["x*y"]), ["x", "y"])
    head = replace(W, hi=W.lo + 4, maps=W.maps[:4])
    assert window_exact(head.validate()).ok
    zero = MatrixMap.from_strings(W.ctx, W.maps[4].source, W.maps[4].target, [["0"]])
    broken = replace(W, maps=W.maps[:4] + (zero,) + W.maps[5:])
    with pytest.raises(ShapeMismatch, match="periodic at offset 2"):
        window_exact(broken)


def test_window_exact_requires_nilpotency_2(X_xy):
    ctx4 = ctx_with("x^4", ("x",))
    X4 = mk_fact(ctx4, 4, [[["x"]], [["x"]], [["x"]], [["x"]]])
    W = reduce_mod_f(X4, ctx4.backend.parse("x^2"))
    with pytest.raises(HypothesesUnmet):
        window_exact(W)


# -- duals -----------------------------------------------------------------


def test_dual_window_involutive(X_xy):
    W = reduce_mod_f(X_xy, X_xy.ctx.backend.parse("x*y"))
    D = dual_window(W)
    assert D.lo == -W.hi and D.hi == -W.lo
    DD = dual_window(D)
    assert DD.lo == W.lo and DD.maps == W.maps
    assert window_exact(D).ok


def test_dual_window_2x2_transposes():
    ctx = ctx_with("x^2 + y^2")
    X = mk_fact(ctx, 2, [[["x", "y"], ["-y", "x"]], [["x", "-y"], ["y", "x"]]])
    W = reduce_mod_f(X, ctx.backend.parse("x^2 + y^2"))
    D = dual_window(W).validate()
    m = W.map_at(0)
    dm = D.map_at(-1)
    for i in range(2):
        for j in range(2):
            assert dm.rows[i][j] == m.rows[j][i]


def test_dual_unsupported_for_algebra():
    from dfactor.fdalg import monomial_algebra

    B = monomial_algebra(("x", "y"), ["xx", "yy", "xyx", "yxy"], F7)
    ctx = Context(B, eta=B.zero())
    obj = FreeObj.of(1)
    m = MatrixMap.make(ctx, obj, obj.twist(0), [[B.parse("x")]])
    W = ComplexWindow(ctx=ctx, lo=0, hi=1, maps=(m,), period=1, nilpotency=2)
    with pytest.raises(UnsupportedOperation):
        dual_window(W)


# -- total acyclicity -------------------------------------------------------


def test_totally_acyclic_fixtures(X_xy):
    assert is_totally_acyclic(X_xy, "x*y")
    ctx = ctx_with("x^2 + y^2")
    X = mk_fact(ctx, 2, [[["x", "y"], ["-y", "x"]], [["x", "-y"], ["y", "x"]]])
    assert is_totally_acyclic(X, "x^2 + y^2")


def test_totally_acyclic_hypotheses_unmet():
    # x is not regular over F7[x,y]/(xy): distinct failure mode
    R = QuotientRing.make(F7, ("x", "y"), ["x*y"])
    ctx = Context(R, eta=R.parse("x"))
    from dfactor.factorization import trivial_factorization

    T = trivial_factorization(ctx, 2)
    with pytest.raises(HypothesesUnmet):
        is_totally_acyclic(T, "x")


def test_totally_acyclic_end_ring_powers():
    # over Gamma = F7[x,y]/(xy, y) ~ F7[x]: factorizations (x^a, x^{n-a})
    R = QuotientRing.make(F7, ("x", "y"), ["x*y"])
    pres = end_ring_cyclic(R, R.parse("x"))
    for n in (2, 3):
        ctx = Context(pres.gamma, eta=pres.gamma.parse(f"x^{n}"))
        for a in range(1, n):
            X = mk_fact(ctx, 2, [[[f"x^{a}"]], [[f"x^{n-a}"]]])
            assert is_totally_acyclic(X, f"x^{n}")


# -- dual quotient -----------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dual_quotient(n):
    gamma = QuotientRing.make(F7, ("x", "y"))
    assert dual_quotient_check(n, gamma.parse("x*y"), gamma, seed=n)


def test_dual_quotient_in_quotient_ring():
    gamma = QuotientRing.make(F7, ("x", "y"), ["x^2"])
    assert dual_quotient_check(2, gamma.parse("y"), gamma, seed=5)


# -- faithful / full ---------------------------------------------------------


def test_faithful_yy_null_both_ways(X_xy):
    theta = scalar_morphism(X_xy, X_xy.ctx.backend.parse("y"))
    verdict = faithful_check(theta, "x*y")
    assert verdict.downstairs_null and verdict.consistent
    assert isinstance(verdict.upstairs_witness, GradedHom)
    assert verdict.upstairs_witness.degree == -1


def test_faithful_identity_not_null(X_xy):
    verdict = faithful_check(identity_morphism(X_xy), "x*y")
    assert not verdict.downstairs_null and verdict.consistent


def test_faithful_zero_trivial(X_xy):
    verdict = faithful_check(zero_graded(X_xy, X_xy), "x*y")
    assert verdict.downstairs_null and verdict.consistent


def test_full_lift_of_reduced_morphism(X_xy):
    f = X_xy.ctx.backend.parse("x*y")
    theta = scalar_morphism(X_xy, X_xy.ctx.backend.parse("y"))
    red = reduce_full(X_xy, f)
    phibar = reduce_morphism(theta, red, red)
    out = full_lift(phibar, red, red)
    assert isinstance(out, Lift)
    # the two lifts differ by a null-homotopic morphism upstairs
    diff = faithful_check(out.theta - theta, f)
    assert diff.downstairs_null and diff.consistent


def test_full_lift_scalar_downstairs(X_xy):
    f = X_xy.ctx.backend.parse("x*y")
    red = reduce_full(X_xy, f)
    rbar = red.downstairs.ctx.backend
    phibar = scalar_morphism(red.downstairs, rbar.parse("y"))
    out = full_lift(phibar, red, red)
    assert isinstance(out, Lift)
    down_check = reduce_morphism(out.theta, red, red)
    # F(theta) - phibar is null-homotopic via the returned witness
    from dfactor.factorization import verify_witness

    assert verify_witness(out.downstairs_witness, down_check, phibar)


def test_instance_checks_require_d2():
    ctx4 = ctx_with("x^4", ("x",))
    X4 = mk_fact(ctx4, 4, [[["x"]], [["x"]], [["x"]], [["x"]]])
    with pytest.raises(HypothesesUnmet):
        faithful_check(identity_morphism(X4), "x^2")
