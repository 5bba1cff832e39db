"""Graded hom complex: double squares, differential, boundaries, H^0."""

import random

import pytest

from dfactor import linalg
from dfactor.context import Context, MatrixMap, compose
from dfactor.dg import (
    GradedHom,
    dg_check,
    dg_differential,
    graded_hom,
    h0_dimension,
)
from dfactor.errors import UnsupportedOperation
from dfactor.factorization import (
    homotopy_decide,
    identity_morphism,
    scalar_morphism,
)
from dfactor.fields import GF, QQ
from dfactor.rings import QuotientRing
from dfactor.sampling import (
    GradedSpace,
    make_pool,
    random_graded,
    random_homotopy_pair,
    random_morphism,
)
from tests.oracles import dense_defect_rows, rank_h0
from tests.test_factorization import ctx_with, mk_fact
from tests.test_sampling import CONTEXTS as SAMPLING_CONTEXTS

F7 = GF(7)


@pytest.fixture
def X_xy():
    return mk_fact(ctx_with("x*y"), 2, [[["x"]], [["y"]]])


def _graded_from_strings(X, Y, degree, entries):
    ctx = X.ctx
    comps = []
    for i, mat in enumerate(entries, start=1):
        src = X.objects[i - 1]
        tgt = Y.obj_at(i + degree)
        comps.append(MatrixMap.from_strings(ctx, src, tgt, mat))
    return graded_hom(X, Y, degree, comps)


def test_degree0_morphism_has_zero_differential(X_xy):
    phi = scalar_morphism(X_xy, X_xy.ctx.backend.parse("y"))
    assert phi.degree == 0
    assert dg_check(phi)
    assert dg_differential(phi).is_zero


def test_degree0_noncycle_detected(X_xy):
    bad = _graded_from_strings(X_xy, X_xy, 0, [[["y"]], [["0"]]])
    assert not dg_differential(bad).is_zero


def test_differential_shapes_and_degree(X_xy):
    t = _graded_from_strings(X_xy, X_xy, 1, [[["1"]], [["1"]]])
    assert dg_check(t)
    dt = dg_differential(t)
    assert dt.degree == 2
    for i, comp in enumerate(dt.components, start=1):
        assert comp.target == X_xy.obj_at(i + 2)


def test_boundary_of_degree_minus_one_is_homotopy_combination(X_xy):
    """Degree -1 boundaries reproduce the witness combination
    s_i f_i + g_{i-1} s_{i-1}, with s_i = t_{i+1}: M_{i+1} -> N_i."""
    rng = random.Random(7)
    X = X_xy
    for _ in range(20):
        t = random_graded(rng, X, X, -1)
        for i in range(1, X.d + 1):
            s_i, s_prev = t.comp_at(i + 1), t.comp_at(i)
            assert (s_i.source, s_i.target) == (X.obj_at(i + 1), X.objects[i - 1])
            combo = compose(s_i, X.map_at(i)) + compose(X.map_at(i - 1), s_prev)
            assert dg_differential(t).components[i - 1] == combo


def test_d_squared_zero_on_valid_elements(X_xy):
    rng = random.Random(13)
    for degree in (-2, -1, 0, 1, 2):
        for _ in range(10):
            t = random_graded(rng, X_xy, X_xy, degree)
            assert dg_check(t)
            dt = dg_differential(t)
            assert dg_check(dt)
            assert dg_differential(dt).is_zero


def test_d_squared_zero_d4():
    ctx4 = ctx_with("x^4", ("x",))
    X4 = mk_fact(ctx4, 4, [[["x"]], [["x"]], [["x"]], [["x"]]])
    # canonical valid elements: chains of consecutive maps
    from dfactor.context import compose_chain

    for degree in (1, 2, 3):
        comps = []
        for i in range(1, 5):
            chain = compose_chain([X4.map_at(i + k) for k in range(degree)])
            comps.append(chain)
        t = graded_hom(X4, X4, degree, comps)
        assert dg_check(t)
        assert dg_differential(dg_differential(t)).is_zero
    # degree -1: over this endo pair the double squares force entries
    # equal two steps apart; constant tuples qualify
    comps = []
    for i in range(1, 5):
        src = X4.objects[i - 1]
        tgt = X4.obj_at(i - 1)
        comps.append(MatrixMap.from_strings(ctx4, src, tgt, [["x"]]))
    t = graded_hom(X4, X4, -1, comps)
    assert dg_check(t)
    assert dg_differential(dg_differential(t)).is_zero


def test_invalid_d4_element_rejected():
    ctx4 = ctx_with("x^4", ("x",))
    X4 = mk_fact(ctx4, 4, [[["x"]], [["x"]], [["x"]], [["x"]]])
    one = [[["1"]], [["0"]], [["0"]], [["0"]]]
    t = _graded_from_strings(X4, X4, 1, one)
    assert not dg_check(t)


def test_graded_space_matches_known_morphisms(X_xy):
    rng = random.Random(3)
    for _ in range(5):
        phi = random_morphism(rng, X_xy, X_xy)
        from dfactor.factorization import is_morphism

        assert is_morphism(phi).ok


def test_homotopy_pairs_roundtrip(X_xy):
    rng = random.Random(99)
    ident = identity_morphism(X_xy)
    for _ in range(10):
        phi, phi2, s = random_homotopy_pair(rng, ident)
        from dfactor.factorization import is_morphism, verify_witness

        assert is_morphism(phi2).ok
        assert verify_witness(s, phi, phi2)
        found = homotopy_decide(phi, phi2)
        assert isinstance(found, GradedHom) and found.degree == -1


def test_h0_dimension_finite_ring():
    # R = F7[x]/(x^4), factorization (x, x) of eta = x^2.  By hand:
    # cycles are pairs (a, a + c*x^3) (dimension 5), boundaries are
    # pairs (x*u, x*u) (dimension 3), so H^0 has dimension 2.
    from dfactor.context import Context
    from dfactor.rings import QuotientRing

    R = QuotientRing.make(F7, ("x",), ["x^4"])
    ctx = Context(R, eta=R.parse("x^2"))
    X = mk_fact(ctx, 2, [[["x"]], [["x"]]])
    assert h0_dimension(X, X) == 2


def test_h0_unsupported_for_infinite_ring(X_xy):
    with pytest.raises(UnsupportedOperation, match="infinite field dimension"):
        h0_dimension(X_xy, X_xy)


def test_h0_dimension_algebra_backend():
    # the trivial twisted factorization is contractible, so its
    # homotopy-category endomorphisms vanish
    from dfactor.context import Context
    from dfactor.factorization import trivial_factorization
    from dfactor.fdalg import AlgebraMap, monomial_algebra

    B = monomial_algebra(("x", "y"), ["xx", "yy", "xyx", "yxy"], F7)
    nu = AlgebraMap.from_generator_images(
        B, {"x": "-4*x", "y": "-2*y"}, automorphism=True
    )
    ctx = Context(B, twist=nu, eta=B.parse("x*y - 2*y*x"))
    T = trivial_factorization(ctx, 2)
    assert h0_dimension(T, T) == 0


def _f7_x4():
    R = QuotientRing.make(F7, ("x",), ["x^4"])
    ctx = Context(R, eta=R.parse("x^2"))

    def seeds(d):
        if d == 2:
            return [mk_fact(ctx, 2, [[["x"]], [["x"]]])]
        return [mk_fact(ctx, 4, [[["x"]], [["x"]], [["1"]], [["1"]]]),
                mk_fact(ctx, 4, [[["1"]], [["x"]], [["1"]], [["x"]]])]

    return ctx, seeds


def _xy_quotient(field, gens):
    def build():
        R = QuotientRing.make(field, ("x", "y"), gens)
        return Context(R, eta=R.parse("x*y")), lambda d: []

    return build


# finite-dimensional backends: H^0 and whole cycle spaces are computable
FINITE_CONTEXTS = {
    "f7x_x4": _f7_x4,
    "f7xy_x3_y3": _xy_quotient(F7, ["x^3", "y^3"]),
    "qxy_x3_y2": _xy_quotient(QQ(), ["x^3", "y^2"]),
    "quantum": SAMPLING_CONTEXTS["quantum"],
}


def test_h0_count_matches_rank_oracle():
    """|Z^0| - |V^-1| + |Z^-1| against the rank of the decoded
    boundaries, on pools with sums, suspensions and cones."""
    values = []
    for name in sorted(FINITE_CONTEXTS):
        for d in (2, 4):
            ctx, seeds = FINITE_CONTEXTS[name]()
            pool = make_pool(ctx, d, seeds(d), max_rank=6)
            rng = random.Random(31 + d)
            for _ in range(16):
                X = pool.random_factorization(rng, steps=2)
                Y = pool.random_factorization(rng, steps=2)
                values.append(h0_dimension(X, Y))
                assert values[-1] == rank_h0(X, Y), (name, d, X, Y)
    assert len(values) >= 100
    assert {0, 2, 4, 8} <= set(values)


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("name", ["f7xy_x3_y3", "qxy_x3_y2", "quantum"])
def test_cycles_at_every_degree(name, d):
    """Every decoded cycle has zero differential, and there are as many
    as the nullity of d evaluated densely."""
    ctx, seeds = FINITE_CONTEXTS[name]()
    pool = make_pool(ctx, d, seeds(d), max_rank=4)
    rng = random.Random(57 + d)
    nonzero = 0
    for _ in range(2):
        X = pool.random_factorization(rng, steps=2)
        Y = pool.random_factorization(rng, steps=1)
        for degree in range(-2, 3):
            space = GradedSpace(X, Y, degree)
            cycles = space.cycle_basis()
            for v in cycles:
                assert dg_differential(space.decode(v)).is_zero
            dense = dense_defect_rows(space, False)
            assert len(cycles) == len(space.layout) - linalg.rank(dense, space.field)
            nonzero += len(cycles) > 0
    assert nonzero >= 5
