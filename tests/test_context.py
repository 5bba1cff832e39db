"""Context layer: composition convention, eta, twists, naturality."""

import json
import random
from pathlib import Path

import pytest

from dfactor.context import (
    Context,
    FreeObj,
    MatrixMap,
    block2x2,
    compose,
    eta_map,
    naturality_check,
)
from dfactor.dg import GradedHom
from dfactor.errors import ShapeMismatch
from dfactor.factorization import make_factorization
from dfactor.fdalg import AlgebraMap, CentralElement, monomial_algebra, quotient_by_central
from dfactor.fields import GF, QQ
from dfactor.rings import QuotientRing
from dfactor.sampling import random_element
from dfactor.schemas import backend_from_json, context_from_json

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

F7 = GF(7)
Q = 2
QINV = pow(Q, 5, 7)


@pytest.fixture
def ring_ctx():
    R = QuotientRing.make(F7, ("x", "y"))
    return Context(R, eta=R.parse("x*y"))


@pytest.fixture
def quantum_ctx():
    B = monomial_algebra(("x", "y"), ["xx", "yy", "xyx", "yxy"], F7)
    w = B.parse(f"x*y - {Q}*y*x")
    nu = AlgebraMap.from_generator_images(
        B, {"x": f"-{QINV}*x", "y": f"-{Q}*y"}, automorphism=True
    )
    return Context(B, twist=nu, eta=w)


def _mk(ctx, entries, src_rank=None, tgt_rank=None):
    rows = [[ctx.backend.parse(e) for e in row] for row in entries]
    src = FreeObj.of(len(rows[0]) if rows else (src_rank or 0))
    tgt = FreeObj.of(len(rows) if rows else (tgt_rank or 0))
    return MatrixMap.make(ctx, src, tgt, rows)


def test_compose_1x1(ring_ctx):
    f = _mk(ring_ctx, [["x"]])
    g = _mk(ring_ctx, [["y"]])
    assert compose(g, f).rows[0][0] == ring_ctx.backend.parse("x*y")


def test_compose_identity(ring_ctx):
    f = _mk(ring_ctx, [["x", "y"], ["y", "x"]])
    ident = MatrixMap.identity(ring_ctx, f.source)
    assert compose(f, ident) == f
    assert compose(MatrixMap.identity(ring_ctx, f.target), f) == f


def test_compose_matches_classical_matrix_product(ring_ctx):
    # cross-check against a naive dense multiply over the commutative backend
    rng = random.Random(11)
    R = ring_ctx.backend

    def rand_entry():
        p = R.amb.zero()
        for _ in range(rng.randint(0, 2)):
            mon = (rng.randint(0, 2), rng.randint(0, 2))
            p = p + R.amb.monomial(mon, rng.randrange(7))
        return R.nf(p)

    for _ in range(20):
        m, k, n = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        a = [[rand_entry() for _ in range(k)] for _ in range(m)]  # map k -> m
        b = [[rand_entry() for _ in range(n)] for _ in range(k)]  # map n -> k
        f = MatrixMap.make(ring_ctx, FreeObj.of(n), FreeObj.of(k), b)
        g = MatrixMap.make(ring_ctx, FreeObj.of(k), FreeObj.of(m), a)
        product = [
            [
                R.nf(sum((a[i][t] * b[t][j] for t in range(k)), R.amb.zero()))
                for j in range(n)
            ]
            for i in range(m)
        ]
        assert compose(g, f).rows == tuple(map(tuple, product))


def test_compose_associative_random(ring_ctx, quantum_ctx):
    for ctx, seed in ((ring_ctx, 5), (quantum_ctx, 6)):
        rng = random.Random(seed)
        b = ctx.backend
        if hasattr(b, "amb"):
            def rand_entry():
                p = b.amb.zero()
                for _ in range(rng.randint(0, 2)):
                    mon = (rng.randint(0, 2), rng.randint(0, 2))
                    p = p + b.amb.monomial(mon, rng.randrange(7))
                return b.canon(p)
        else:
            def rand_entry():
                return tuple(rng.randrange(7) for _ in range(b.dim))

        for _ in range(100):
            r1, r2, r3, r4 = (rng.randint(1, 2) for _ in range(4))
            f = MatrixMap.make(
                ctx, FreeObj.of(r1), FreeObj.of(r2),
                [[rand_entry() for _ in range(r1)] for _ in range(r2)],
            )
            g = MatrixMap.make(
                ctx, FreeObj.of(r2), FreeObj.of(r3),
                [[rand_entry() for _ in range(r2)] for _ in range(r3)],
            )
            h = MatrixMap.make(
                ctx, FreeObj.of(r3), FreeObj.of(r4),
                [[rand_entry() for _ in range(r3)] for _ in range(r4)],
            )
            assert compose(h, compose(g, f)) == compose(compose(h, g), f)


def test_compose_shape_errors(ring_ctx):
    f = _mk(ring_ctx, [["x"]])
    g = MatrixMap.make(
        ring_ctx, FreeObj.of(2), FreeObj.of(1),
        [[ring_ctx.backend.parse("1"), ring_ctx.backend.parse("0")]],
    )
    with pytest.raises(ShapeMismatch):
        compose(g, f)  # f: rank 1 target, g: rank 2 source
    with pytest.raises(ShapeMismatch):
        compose(f.twisted(1), f)  # twist offsets must chain too


def test_quantum_composition_annihilates(quantum_ctx):
    # f = w first, then g = x: entries multiply as w*x = 0
    w = _mk(quantum_ctx, [["x*y - 2*y*x"]])
    x = MatrixMap.make(
        quantum_ctx, w.target, w.target.twist(0), [[quantum_ctx.backend.parse("x")]]
    )
    # line up shapes: x as a map out of w's target
    x = MatrixMap.make(quantum_ctx, w.target, FreeObj.of(1, 1), [[quantum_ctx.backend.parse("x")]])
    prod = compose(x, w)
    assert prod.is_zero


def test_eta_map_block_diagonal(ring_ctx):
    e = eta_map(FreeObj.of(2), ring_ctx)
    w = ring_ctx.backend.parse("x*y")
    z = ring_ctx.backend.zero()
    assert e.rows == ((w, z), (z, w))
    assert e.target == FreeObj.of(2).twist(1)
    empty = eta_map(FreeObj.of(0), ring_ctx)
    assert empty.rows == ()


def test_eta_rank1_quantum(quantum_ctx):
    e = eta_map(FreeObj.of(1), quantum_ctx)
    assert e.rows[0][0] == quantum_ctx.eta


def test_eta_commutes_with_twist(ring_ctx, quantum_ctx):
    for ctx in (ring_ctx, quantum_ctx):
        obj = FreeObj.of(2)
        assert eta_map(obj.twist(1), ctx) == eta_map(obj, ctx).twisted(1)


def test_twisted_identity_on_entries(ring_ctx):
    f = _mk(ring_ctx, [["x"]])
    tf = f.twisted(1)
    assert tf.rows == f.rows
    assert tf.source == f.source.twist(1)
    assert tf.twisted(-1) == f


def test_naturality_commutative_always_true(ring_ctx):
    f = _mk(ring_ctx, [["x", "y^2"], ["3", "x*y"]])
    assert naturality_check(f)


def test_naturality_quantum_fixture_true(quantum_ctx):
    f = _mk(quantum_ctx, [["x"]])
    assert naturality_check(f)
    g = _mk(quantum_ctx, [["y"], ["x*y"]])
    assert naturality_check(g)


def test_naturality_counterexample_certified():
    """Twisted-central but non-central eta: naturality fails for [y].

    The 4-dimensional quotient with w = x and nu(y) = q*y satisfies
    w*b = nu(b)*w on every basis element, yet y*x differs from x*y, so
    the executable naturality comparison must report False.
    """
    B = monomial_algebra(("x", "y"), ["xx", "yy", "xyx", "yxy"], F7)
    wB = CentralElement(B, B.parse(f"x*y - {Q}*y*x"))
    A, _ = quotient_by_central(B, wB)
    nu = AlgebraMap.from_generator_images(A, {"x": "x", "y": f"{Q}*y"}, automorphism=True)
    w = A.parse("x")
    ctx = Context(A, twist=nu, eta=w)
    assert ctx.twist_report.twisted_central
    f = MatrixMap.make(ctx, FreeObj.of(1), FreeObj.of(1), [[A.parse("y")]])
    assert not naturality_check(f)
    # and the fixture really is the executable discrepancy: y*x != x*y
    assert A.mul(A.parse("y"), A.parse("x")) != A.mul(A.parse("x"), A.parse("y"))


def test_context_rejects_noncentral_eta_without_twist():
    B = monomial_algebra(("x", "y"), ["xx", "yy", "xyx", "yxy"], F7)
    wB = CentralElement(B, B.parse(f"x*y - {Q}*y*x"))
    A, _ = quotient_by_central(B, wB)
    with pytest.raises(ValueError):
        Context(A, eta=A.parse("x"))  # x is not central in the quantum plane


def test_block2x2_shapes(ring_ctx):
    R = ring_ctx.backend
    a = _mk(ring_ctx, [["x"]])
    b = MatrixMap.zero(ring_ctx, FreeObj.of(1), FreeObj.of(1))
    m = block2x2(a, b, b, a)
    assert m.source.rank == 2 and m.target.rank == 2
    assert m.rows[0][0] == R.parse("x") and m.rows[1][1] == R.parse("x")


def _backend(name):
    if name == "q_xy":
        return QuotientRing.make(QQ(), ("x", "y"))
    if name == "quantum":
        desc = json.loads((FIXTURES / "quantum_context.json").read_text())
        return context_from_json(desc).backend
    return backend_from_json(json.loads((FIXTURES / f"ring_{name}.json").read_text()))


# normal forms that are not the identity, a field of characteristic 0,
# and an algebra where a*b != b*a
@pytest.mark.parametrize("name", ["f7xy_mod_xy", "f7xyz_mod_xz_yz", "q_xy", "quantum"])
def test_dot_matches_the_fold_of_add_and_mul(name):
    backend = _backend(name)
    rng = random.Random(31)

    def fold(pairs):
        acc = backend.zero()
        for a, b in pairs:
            acc = backend.add(acc, backend.mul(a, b))
        return acc

    assert backend.dot([]) == backend.zero()
    noncommuting = 0
    for _ in range(200):
        pairs = [
            (random_element(rng, backend), random_element(rng, backend))
            for _ in range(rng.randint(1, 5))
        ]
        assert backend.dot(pairs) == fold(pairs)
        noncommuting += any(backend.mul(a, b) != backend.mul(b, a) for a, b in pairs)
        # every product met again with its negative
        cancelling = pairs + [(backend.neg(a), b) for a, b in pairs]
        assert backend.dot(cancelling) == fold(cancelling) == backend.zero()
    assert (noncommuting > 0) == (name == "quantum")


def test_positions_one_to_d_are_the_stored_values(ring_ctx):
    obj = FreeObj.of(1)
    maps = [_mk(ring_ctx, [["x"]]), _mk(ring_ctx, [["1"]]), _mk(ring_ctx, [["1"]])]
    maps.append(MatrixMap.make(ring_ctx, obj, obj.twist(), [[ring_ctx.backend.parse("y")]]))
    X = make_factorization(ring_ctx, 4, [obj] * 4, maps)
    phi = GradedHom(X, X, 0, tuple(MatrixMap.identity(ring_ctx, obj) for _ in range(4)))
    for r in range(1, 5):
        assert X.map_at(r) is X.maps[r - 1]
        assert X.obj_at(r) is X.objects[r - 1]
        assert phi.comp_at(r) is phi.components[r - 1]
    assert obj.twist(0) is obj


@pytest.mark.parametrize("k", [1, -1, 3])
def test_a_twist_is_a_fresh_map_with_moved_offsets(ring_ctx, k):
    f = _mk(ring_ctx, [["x", "y"], ["1", "x*y"]])
    fresh = MatrixMap(ring_ctx, f.source.twist(k), f.target.twist(k), f.rows)
    for t in (f.twisted(k), f.twisted(k)):
        assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh)
    assert f.twisted(k).rows is f.rows
    assert f.twisted(0) is f
