"""Acceptance suite: one test per exit criterion, one printed line each.

Criteria run at their stated sizes and time bounds.  Every expected
value here was either computed by an independent oracle in this file
or verified by hand; nothing is calibrated to the implementation.
"""

import functools
import random
import time

import pytest

from dfactor.context import Context, FreeObj, MatrixMap, compose, compose_chain, eta_map
from dfactor.dg import GradedHom, dg_check, dg_differential, zero_graded
from dfactor.errors import CompositionMismatch, HypothesesUnmet
from dfactor.factorization import (
    NotHomotopic,
    cone,
    cone_comparison,
    direct_sum,
    homotopy_decide,
    identity_morphism,
    is_morphism,
    make_factorization,
    scalar_morphism,
    suspend,
    trivial_factorization,
    unsuspend,
    verify_factorization,
)
from dfactor.fdalg import (
    AlgebraMap,
    CentralElement,
    check_twist_compatibility,
    is_left_regular,
    monomial_algebra,
    quotient_by_central,
)
from dfactor.fields import GF
from dfactor.functors import (
    Lift,
    end_ring_cyclic,
    faithful_check,
    full_lift,
    is_totally_acyclic,
    reduce_full,
    reduce_morphism,
    window_exact,
)
from dfactor.modgb import LinearSolution, NoSolutionCertificate, solve_linear
from dfactor.rings import QuotientRing, groebner
from dfactor.sampling import (
    make_pool,
    random_graded,
    random_homotopy_pair,
    random_morphism,
    random_poly,
)
from tests.oracles import bounded_degree_solvable
from tests.test_factorization import ctx_with, mk_fact

F7 = GF(7)


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({title}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({title}): PASS")

        return run

    return wrap


def _xy_ctx():
    return ctx_with("x*y")


@criterion(1, "factorization axioms, 200 x d=2 + 50 x d=4 under 60s")
def test_criterion_1():
    start = time.monotonic()
    etas = ["x*y", "x^2 + y^2", "x^4"]
    rng = random.Random(20260810)
    pools_d2 = [make_pool(ctx_with(e), 2, max_rank=6) for e in etas]
    pools_d4 = [make_pool(ctx_with(e), 4, max_rank=6) for e in etas]

    def exercise(pool):
        X = pool.random_factorization(rng)
        assert verify_factorization(X) == X
        S = suspend(X)
        assert verify_factorization(S) == S
        assert unsuspend(S) == X
        assert suspend(unsuspend(X)) == X
        partner = pool.random_factorization(rng, steps=1)
        D = direct_sum(X, partner)
        assert verify_factorization(D) == D
        c = cone(identity_morphism(X))
        assert verify_factorization(c.cone) == c.cone

    for i in range(200):
        exercise(pools_d2[i % 3])
    for i in range(50):
        exercise(pools_d4[i % 3])
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"


@criterion(2, "even-d necessity: d=3 cone residual")
def test_criterion_2():
    ctx = ctx_with("x^3", ("x",))
    obj = FreeObj.of(1)
    maps = [MatrixMap.from_strings(ctx, obj, obj, [["x"]]) for _ in range(2)]
    maps.append(MatrixMap.from_strings(ctx, obj, obj.twist(1), [["x"]]))
    # the public constructor rejects odd d outright
    with pytest.raises(ValueError):
        make_factorization(ctx, 3, [obj] * 3, maps)
    X3 = make_factorization(ctx, 3, [obj] * 3, maps, allow_odd_d=True)
    phi = scalar_morphism(X3, ctx.backend.parse("x + 1"))  # generic morphism
    with pytest.raises(CompositionMismatch) as exc:
        cone(phi)
    residual = exc.value.residual
    h = compose_chain([X3.map_at(2), X3.map_at(3), phi.comp_at(4)])
    assert not h.is_zero
    assert residual.rows[1][0] == h.rows[0][0]


@criterion(3, "homotopy calculus: 100 round-trips, id vs 0, cone comparison")
def test_criterion_3():
    ctx = _xy_ctx()
    pool = make_pool(ctx, 2, max_rank=2)
    rng = random.Random(42)
    for _ in range(100):
        X = pool.random_factorization(rng, steps=1)
        phi = random_morphism(rng, X, X)
        a, b, s = random_homotopy_pair(rng, phi)
        assert is_morphism(b).ok
        decided = homotopy_decide(a, b)
        assert isinstance(decided, GradedHom) and decided.degree == -1
    X = mk_fact(ctx, 2, [[["x"]], [["y"]]])
    verdict = homotopy_decide(identity_morphism(X), zero_graded(X, X))
    assert isinstance(verdict, NotHomotopic)
    assert isinstance(verdict.certificate, NoSolutionCertificate)
    assert verdict.certificate.reverify(ctx.backend.amb)
    # strict cone-comparison identities on sampled homotopic pairs
    for _ in range(10):
        phi = random_morphism(rng, X, X)
        a, b, s = random_homotopy_pair(rng, phi)
        lam, lam_inv = cone_comparison(a, b, s)  # asserts the identities
        assert is_morphism(lam).ok and is_morphism(lam_inv).ok


@criterion(4, "DG enhancement: d^2 = 0 in degrees -2..2, boundaries = homotopies")
def test_criterion_4():
    ctx = _xy_ctx()
    rng = random.Random(4242)
    pool = make_pool(ctx, 2, max_rank=2)
    count = 0
    degrees = (-2, -1, 0, 1, 2)
    while count < 100:
        X = pool.random_factorization(rng, steps=1)
        Y = pool.random_factorization(rng, steps=1)
        n = degrees[count % 5]
        g = random_graded(rng, X, Y, n)
        assert dg_check(g)
        dg = dg_differential(g)
        assert dg_check(dg)
        assert dg_differential(dg).is_zero
        count += 1
    # degree -1 boundaries are exactly the homotopy combinations
    # s_i f_i + g_{i-1} s_{i-1}, with s_i = t_{i+1}
    X = mk_fact(ctx, 2, [[["x"]], [["y"]]])
    for _ in range(20):
        t = random_graded(rng, X, X, -1)
        combos = tuple(
            compose(t.comp_at(i + 1), X.map_at(i)) + compose(X.map_at(i - 1), t.comp_at(i))
            for i in range(1, X.d + 1)
        )
        assert dg_differential(t).components == combos


@criterion(5, "Eisenbud correspondence at desk scale under 30s")
def test_criterion_5():
    start = time.monotonic()
    ctx = _xy_ctx()
    X = mk_fact(ctx, 2, [[["x"]], [["y"]]])
    assert is_totally_acyclic(X, "x*y")
    ctx2 = ctx_with("x^2 + y^2")
    Y = mk_fact(ctx2, 2, [[["x", "y"], ["-y", "x"]], [["x", "-y"], ["y", "x"]]])
    assert is_totally_acyclic(Y, "x^2 + y^2")
    # non-regular element: hypotheses-unmet, never a pass
    R = QuotientRing.make(F7, ("x", "y"), ["x*y"])
    ctx3 = Context(R, eta=R.parse("x"))
    T = trivial_factorization(ctx3, 2)
    with pytest.raises(HypothesesUnmet):
        is_totally_acyclic(T, "x")
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"criterion 5 took {elapsed:.1f}s"


@criterion(6, "fully faithful instance suite: 25 seeded morphisms")
def test_criterion_6():
    ctx = _xy_ctx()
    f = ctx.backend.parse("x*y")
    rng = random.Random(2025)
    X1 = mk_fact(ctx, 2, [[["x"]], [["y"]]])
    X2 = mk_fact(ctx, 2, [[["y"]], [["x"]]])
    T = trivial_factorization(ctx, 2)
    objects = [X1, X2, T]
    reductions = {id(Z): reduce_full(Z, f) for Z in objects}
    for k in range(25):
        src = objects[k % 3]
        tgt = objects[(k + k // 3) % 3]
        theta = random_morphism(rng, src, tgt)
        verdict = faithful_check(theta, f)
        assert verdict.consistent, "faithfulness contradiction"
        red_s, red_t = reductions[id(src)], reductions[id(tgt)]
        phibar = reduce_morphism(theta, red_s, red_t)
        out = full_lift(phibar, red_s, red_t)
        assert isinstance(out, Lift), "NO_LIFT under certified hypotheses"
        # the two lifts agree up to homotopy upstairs
        diff_verdict = faithful_check(out.theta - theta, f)
        assert diff_verdict.downstairs_null and diff_verdict.consistent


@criterion(7, "end rings via colon oracles; powers of x totally acyclic")
def test_criterion_7():
    R = QuotientRing.make(F7, ("x", "y"), ["x*y"])
    pres = end_ring_cyclic(R, R.parse("x"))
    assert [repr(b) for b in pres.gamma.ideal.basis] == ["y"]
    S = QuotientRing.make(F7, ("x", "y", "z"), ["x*z", "y*z"])
    pres3 = end_ring_cyclic(S, S.parse("x"))
    assert [repr(b) for b in pres3.gamma.ideal.basis] == ["z"]
    for n in (2, 3):
        ctx = Context(pres.gamma, eta=pres.gamma.parse(f"x^{n}"))
        for a in range(1, n):
            X = mk_fact(ctx, 2, [[[f"x^{a}"]], [[f"x^{n-a}"]]])
            assert is_totally_acyclic(X, f"x^{n}")


@criterion(8, "twisted quantum example under 10s")
def test_criterion_8():
    start = time.monotonic()
    q = 2
    qinv = pow(q, 5, 7)
    B = monomial_algebra(("x", "y"), ["xx", "yy", "xyx", "yxy"], F7)
    assert B.dim == 5
    w = B.parse(f"x*y - {q}*y*x")
    A, _proj = quotient_by_central(B, CentralElement(B, w))
    assert A.dim == 4
    nu = AlgebraMap.from_generator_images(
        B, {"x": f"-{qinv}*x", "y": f"-{q}*y"}, automorphism=True
    )
    report = check_twist_compatibility(nu, CentralElement(B, w))
    assert report.ok
    assert not is_left_regular(CentralElement(B, w))
    ctx = Context(B, twist=nu, eta=w)
    # trivial twisted factorizations (id, eta) and (eta, id)
    T1 = trivial_factorization(ctx, 2)
    obj = FreeObj.of(1)
    T2 = make_factorization(
        ctx,
        2,
        [obj, obj.twist(1)],
        [eta_map(obj, ctx), MatrixMap.identity(ctx, obj.twist(1))],
    )
    for T in (T1, T2):
        assert verify_factorization(T) == T
        red = reduce_full(T, w)
        assert red.window.backend.dim == 4
        assert window_exact(red.window).ok  # field linear algebra route
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 8 took {elapsed:.1f}s"


@criterion(9, "Groebner kernel: uniqueness and certified negatives")
def test_criterion_9():
    rng = random.Random(99991)
    # 50 seeded ideals: permutation/scaling invariance, printed bases equal
    for trial in range(50):
        nvars = rng.choice((2, 3))
        names = ("x", "y", "z")[:nvars]
        ring = QuotientRing.make(F7, names)
        gens = [random_poly(rng, ring, max_degree=2, max_terms=3) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        reference = groebner(gens)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        scaled = [g.scale(rng.randint(1, 6)) for g in shuffled]
        assert groebner(scaled) == reference
        assert [repr(g) for g in groebner(scaled)] == [repr(g) for g in reference]
    # certified negatives cross-checked by bounded brute force
    negatives = 0
    attempts = 0
    while negatives < 10 and attempts < 200:
        attempts += 1
        nvars = rng.choice((2, 3))
        names = ("x", "y", "z")[:nvars]
        ring = QuotientRing.make(F7, names)
        rows = [
            tuple(random_poly(rng, ring, max_degree=2, max_terms=2) for _ in range(2))
            for _ in range(2)
        ]
        rhs = [random_poly(rng, ring, max_degree=2, max_terms=2) for _ in range(2)]
        outcome = solve_linear(rows, rhs, ring)
        if isinstance(outcome, LinearSolution):
            continue
        negatives += 1
        assert outcome.reverify(ring.amb)
        bound = 4
        assert not bounded_degree_solvable(rows, rhs, ring, bound), (
            "solver said NO but a bounded-degree solution exists"
        )
    assert negatives >= 10, "not enough negative instances sampled"
