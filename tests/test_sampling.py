"""Hom-space assembly: the constraint matrix, its cost, and compose."""

import gc
import json
import random
import weakref
from pathlib import Path

import pytest

from dfactor import linalg, sampling
from dfactor.context import Context, FreeObj, MatrixMap, compose, eta_map
from dfactor.factorization import make_factorization, verify_factorization
from dfactor.fdalg import FDAlgebra, monomial_algebra
from dfactor.fields import QQ
from dfactor.rings import QuotientRing
from dfactor.schemas import backend_from_json, context_from_json
from dfactor.sampling import (
    GradedSpace,
    make_pool,
    random_element,
    random_graded,
    random_morphism,
)
from tests.oracles import (
    dense_defect_rows,
    entrywise,
    naive_compose,
    sample_by_decoded_basis,
)
from tests.test_factorization import ctx_with, mk_fact

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _fixture(name):
    return json.loads((FIXTURES / name).read_text())


def _quantum():
    ctx = context_from_json(_fixture("quantum_context.json"))
    obj = FreeObj.of(1)

    def seeds(d):
        # (eta, id, ..., id): w then identities round the cycle
        objects = [obj] + [obj.twist(1)] * (d - 1)
        maps = [eta_map(obj, ctx)] + [MatrixMap.identity(ctx, obj.twist(1))] * (d - 1)
        return [make_factorization(ctx, d, objects, maps)]

    return ctx, seeds


def _quotient():
    ring = backend_from_json(_fixture("ring_f7xy_mod_xy.json"))
    ctx = Context(ring, eta=ring.parse("x^2 + y^2"))
    pair = [[["x", "y"], ["-y", "x"]], [["x", "-y"], ["y", "x"]]]

    def seeds(d):
        if d == 2:
            return [mk_fact(ctx, 2, [[["x + y"]], [["x + y"]]]), mk_fact(ctx, 2, pair)]
        return [mk_fact(ctx, 4, [[["x + y"]], [["x + y"]], [["1"]], [["1"]]])]

    return ctx, seeds


def _polynomial(eta):
    return lambda: (ctx_with(eta), lambda d: [])


def _rational():
    ring = QuotientRing.make(QQ(), ("x", "y"))
    return Context(ring, eta=ring.parse("x*y")), lambda d: []


CONTEXTS = {
    "f7xy_xy": _polynomial("x*y"),
    "f7xy_sos": _polynomial("x^2 + y^2"),
    "f7xy_mod_xy": _quotient,
    "quantum": _quantum,
}


def _reference_basis(space, dg):
    mat = dense_defect_rows(space, dg) or [[space.field.zero] * len(space.layout)]
    return [space.decode(v) for v in linalg.kernel_basis(mat, space.field)]


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_constraint_matrix_matches_dense_evaluation(name, d):
    ctx, seeds = CONTEXTS[name]()
    pool = make_pool(ctx, d, seeds(d), max_rank=4)
    rng = random.Random(2024 + d)
    checked = 0
    for _ in range(3):
        X = pool.random_factorization(rng, steps=2)
        Y = pool.random_factorization(rng, steps=1)
        for degree in range(-2, 3):
            space = GradedSpace(X, Y, degree, 2)
            if not space.layout:
                continue
            for dg in (True, False):
                lowered = space.system(dg).field_matrix(space.base_elems)
                assert lowered == dense_defect_rows(space, dg)
                checked += 1
            valid = [space.decode(v) for v in space.valid_basis()]
            assert repr(valid) == repr(_reference_basis(space, True))
            cycles = [space.decode(v) for v in space.cycle_basis()]
            assert repr(cycles) == repr(_reference_basis(space, False))
    assert checked >= 20


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("name", sorted(CONTEXTS) + ["q_xy"])
def test_samples_match_the_decoded_basis_oracle(name, d):
    # one combination of the kernel vectors, decoded once, is the sum of
    # the decoded vectors scaled one by one, drawn with the same calls
    ctx, seeds = (_rational if name == "q_xy" else CONTEXTS[name])()
    pool = make_pool(ctx, d, seeds(d), max_rank=4)
    rng = random.Random(77 + d)
    nonzero = 0
    for _ in range(3):
        X = pool.random_factorization(rng, steps=2)
        Y = pool.random_factorization(rng, steps=1)
        for degree in range(-2, 3):
            ref_rng = random.Random()
            ref_rng.setstate(rng.getstate())
            got = random_graded(rng, X, Y, degree)
            space = GradedSpace(X, Y, degree, sampling.CAP)
            want = sample_by_decoded_basis(ref_rng, space, space.valid_basis())
            assert got == want and repr(got) == repr(want)
            assert rng.getstate() == ref_rng.getstate()
            nonzero += not got.is_zero
        ref_rng.setstate(rng.getstate())
        phi = random_morphism(rng, X, Y)
        space = GradedSpace(X, Y, 0, sampling.CAP)
        want = sample_by_decoded_basis(ref_rng, space, space.cycle_basis())
        assert phi == want and repr(phi) == repr(want)
        assert rng.getstate() == ref_rng.getstate()
        nonzero += not phi.is_zero
    assert nonzero >= 15


@pytest.mark.parametrize(
    "d,maps",
    [
        (2, [[["x", "y"], ["-y", "x"]], [["x", "-y"], ["y", "x"]]]),
        (4, [[["x"]], [["y"]], [["1"]], [["1"]]]),
    ],
)
def test_assembly_composes_only_the_fixed_maps(monkeypatch, d, maps):
    X = mk_fact(ctx_with("x^2 + y^2" if d == 2 else "x*y"), d, maps)
    calls = []

    def counting(g, f):
        calls.append(1)
        return compose(g, f)

    monkeypatch.setattr(sampling, "compose", counting)
    space = GradedSpace(X, X, 0, cap=2)
    assert len(space.layout) >= 24
    assert space.valid_basis()
    assert len(calls) <= 2 * d
    calls.clear()
    assert space.cycle_basis()
    assert calls == []


def test_sampling_keeps_no_factorization_alive():
    X = mk_fact(ctx_with("x*y"), 2, [[["x"]], [["y"]]])
    ref = weakref.ref(X)
    phi = random_morphism(random.Random(5), X, X)
    assert phi.source is X
    del X, phi
    gc.collect()
    assert ref() is None


def _sparse_map(rng, ctx, src, tgt, density=0.4):
    backend = ctx.backend
    rows = [
        [random_element(rng, backend) if rng.random() < density else backend.zero()
         for _ in range(src.rank)]
        for _ in range(tgt.rank)
    ]
    return MatrixMap.make(ctx, src, tgt, rows)


def _xyz():
    ring = backend_from_json(_fixture("ring_f7xyz_mod_xz_yz.json"))
    return Context(ring, eta=ring.parse("x*y")), lambda d: []


def _rational_algebra():
    # noncommutative, over Q; w = 0 is central
    return Context(monomial_algebra(("x", "y"), ["xx", "yy", "xyx", "yxy"], QQ())), lambda d: []


COMPOSE_CONTEXTS = {
    "quantum": _quantum,
    "q_alg": _rational_algebra,
    "f7xy": _polynomial("x*y"),
    "f7xy_mod_xy": _quotient,
    "f7xyz_mod_xz_yz": _xyz,
    "q_xy": _rational,
}


def _coefficients(backend, e):
    return list(e) if isinstance(backend, FDAlgebra) else [c for _, c in e.terms]


def _assert_reduced(backend, rows):
    """Every F_p coefficient of every entry is in [0, p): each sum was
    reduced, however far its raw integer total ran past p."""
    p = backend.field.char
    if p:
        assert all(0 <= c < p for row in rows for e in row for c in _coefficients(backend, e))


@pytest.mark.parametrize("name", sorted(COMPOSE_CONTEXTS))
def test_compose_matches_triple_loop(name):
    ctx, _ = COMPOSE_CONTEXTS[name]()
    backend = ctx.backend
    rng = random.Random(11)
    multi_term = cancelled = 0
    for trial in range(90):
        a, b, c = (FreeObj.of(rng.randint(0, 4)) for _ in range(3))
        density = (0.4, 0.9)[trial % 2]
        f = _sparse_map(rng, ctx, a, b, density)
        g = _sparse_map(rng, ctx, b, c, density)
        if trial % 3 == 2 and b.rank >= 2:
            # f's last row negates its first and g's last column repeats
            # its first, so those two products cancel in every entry
            f = MatrixMap.make(ctx, a, b, [*f.rows[:-1], [backend.neg(e) for e in f.rows[0]]])
            g = MatrixMap.make(ctx, b, c, [[*row[:-1], row[0]] for row in g.rows])
        h = compose(g, f)
        assert (h.source, h.target) == (a, c)
        assert h.rows == tuple(naive_compose(g, f))
        _assert_reduced(backend, h.rows)
        for i, g_row in enumerate(g.rows):
            for k in range(a.rank):
                live = sum(
                    not backend.is_zero(g_row[j]) and not backend.is_zero(f.rows[j][k])
                    for j in range(b.rank)
                )
                multi_term += live >= 2
                cancelled += live >= 2 and backend.is_zero(h.rows[i][k])
    assert multi_term >= 30 and cancelled >= 5


@pytest.mark.parametrize("name", sorted(COMPOSE_CONTEXTS))
def test_map_arithmetic_matches_entrywise_reference(name):
    ctx, _ = COMPOSE_CONTEXTS[name]()
    backend = ctx.backend
    rng = random.Random(13)
    for trial in range(60):
        a, b = FreeObj.of(rng.randint(0, 3)), FreeObj.of(rng.randint(0, 3))
        f = _sparse_map(rng, ctx, a, b, (0.4, 0.9)[trial % 2])
        g = _sparse_map(rng, ctx, a, b, (0.4, 0.9)[trial % 3 > 0])
        if trial % 4 == 3:
            g = f  # every entry of f - g cancels
        for got, want in (
            (f + g, entrywise(backend.add, f, g)),
            (f - g, entrywise(lambda x, y: backend.add(x, backend.neg(y)), f, g)),
            (-f, entrywise(backend.neg, f)),
        ):
            assert (got.source, got.target) == (a, b)
            assert got.rows == tuple(want)
            _assert_reduced(backend, got.rows)
        if g is f:
            assert (f - g).is_zero


def _unit_multiple(backend, k):
    """k times the unit, built by k backend additions."""
    out = backend.zero()
    for _ in range(k):
        out = backend.add(out, backend.one())
    return out


@pytest.mark.parametrize("name", ["quantum", "f7xy", "f7xy_mod_xy"])
def test_fp_sums_far_past_p_reduce_once(name):
    """A 1 x n row times an n x 1 column of one element a, with every
    coefficient of a equal to 6: each coefficient sum has raw total
    36n (n = 14 gives 504 = 72 * 7), so it is right only if reduced."""
    ctx, _ = COMPOSE_CONTEXTS[name]()
    backend = ctx.backend
    a = backend.parse("6*x + 6*y + 6") if name != "quantum" else backend.parse("6*x + 6*y + 6*x*y")
    aa = backend.mul(a, a)
    for n in range(1, 16):
        src, mid = FreeObj.of(1), FreeObj.of(n)
        f = MatrixMap.make(ctx, src, mid, [[a]] * n)
        g = MatrixMap.make(ctx, mid, src, [[a] * n])
        h = compose(g, f)
        assert h.rows == tuple(naive_compose(g, f))
        assert h.rows[0][0] == backend.mul(_unit_multiple(backend, n), aa)
        assert backend.is_zero(h.rows[0][0]) == (n % 7 == 0)
        _assert_reduced(backend, h.rows)
        total = f
        for _ in range(n - 1):
            total = total + f  # n*f by n map additions
        na = backend.mul(_unit_multiple(backend, n), a)
        assert total == MatrixMap.make(ctx, src, mid, [[na]] * n)
        _assert_reduced(backend, total.rows)


@pytest.mark.parametrize("variables", [("x",), ("x", "y")])
def test_x4_seeds_in_one_and_two_variables(variables):
    # a candidate w in variables the ring lacks (x*y over F_7[x]) does
    # not match, and the x^4 splittings are still found
    ctx = ctx_with("x^4", variables)
    assert [len(sampling.seeds_for_ring_fixture(ctx, d)) for d in (2, 4, 6)] == [2, 1, 2]
    assert sampling.seeds_for_ring_fixture(ctx_with("x^3", variables), 2) == []


@pytest.mark.parametrize("d", [6, 8])
@pytest.mark.parametrize("name", ["ctx_f7xy_xy.json", "ctx_f7xy_sos.json"])
def test_pools_past_d4_hold_the_d2_splittings(name, d):
    """At even d >= 6 each d = 2 splitting, padded with identity maps,
    seeds the pool beside the trivial seed."""
    ctx = context_from_json(_fixture(name))
    pool = make_pool(ctx, d)
    want = len(sampling.seeds_for_ring_fixture(ctx, 2))
    assert len(pool.seeds) == want + 1 > 1
    for X in pool.seeds:
        assert X.d == d
        assert verify_factorization(X) == X
