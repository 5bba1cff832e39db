"""LinearSystem: an unknown multiple in one row only, systems without
equations, and field elimination against its method-call reference."""

import random
from fractions import Fraction

import pytest

from dfactor import linalg
from dfactor.context import Context, FreeObj, MatrixMap
from dfactor.dg import GradedHom, zero_graded
from dfactor.factorization import homotopy_decide, make_factorization
from dfactor.fields import GF, QQ
from dfactor.linsys import LinearSystem
from dfactor.modgb import NoSolutionCertificate
from dfactor.rings import QuotientRing
from tests.oracles import method_rref


def test_unknowns_without_equations_are_zero():
    # X has ranks (0, 1) and Y ranks (1, 0): s_1 is 1 x 1, but every
    # homotopy equation is empty (1 x 0 and 0 x 1), so any s_1 is a witness
    R = QuotientRing.make(GF(7), ("x", "y"))
    ctx = Context(R)
    z, o = FreeObj.of(0), FreeObj.of(1)
    X = make_factorization(ctx, 2, [z, o], [MatrixMap.zero(ctx, z, o), MatrixMap.zero(ctx, o, z.twist(1))])
    Y = make_factorization(ctx, 2, [o, z], [MatrixMap.zero(ctx, o, z), MatrixMap.zero(ctx, z, o.twist(1))])
    witness = homotopy_decide(zero_graded(X, Y), zero_graded(X, Y))
    assert isinstance(witness, GradedHom)
    assert witness.comp_at(2).rows == ((R.zero(),),)


def test_extra_unknown_multiple_applies_to_its_own_rows_only():
    # "modulo y" is written as an unknown k times y, in that row only
    R = QuotientRing.make(GF(7), ("x", "y"), ["y^2"])
    x, y, one = R.parse("x"), R.parse("y"), R.one()
    # u * x = y has no solution over R, but u * x + k * y = y does
    system = LinearSystem(R)
    u, k = system.unknown(1, 1), system.unknown(1, 1)
    system.equation([(u, ((x,),), "right"), (k, ((y,),), "right")], ((y,),))
    grids, cert = system.solve()
    assert cert is None
    assert R.nf(grids[u][0][0] * x + grids[k][0][0] * y) == y
    # a second row without k pins u = y, which the first allows
    system.equation([(u, ((one,),), "left")], ((y,),))
    grids, cert = system.solve()
    assert cert is None and grids[u] == [[y]]
    # k in one row does not reach the next: u x = y stays unsolvable
    strict = LinearSystem(R)
    u, k = strict.unknown(1, 1), strict.unknown(1, 1)
    strict.equation([(u, ((one,),), "left"), (k, ((y,),), "right")], ((one,),))
    strict.equation([(u, ((x,),), "right")], ((y,),))
    grids, cert = strict.solve()
    assert grids is None and isinstance(cert, NoSolutionCertificate)


def _random_matrix(rng, field, m, n, density):
    """Entries drawn so that row operations over F_7 run far past p
    (every nonzero entry is 5 or 6 half of the time) and over Q make
    non-integral fractions."""
    def entry():
        if rng.random() >= density:
            return field.zero
        if field.char:
            return rng.choice((5, 6, rng.randrange(1, field.char)))
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

    return [[entry() for _ in range(n)] for _ in range(m)]


def _times(field, mat, vec):
    """A*v with every coefficient through the field's methods."""
    out = []
    for row in mat:
        acc = field.zero
        for a, v in zip(row, vec):
            acc = field.add(acc, field.mul(a, v))
        out.append(acc)
    return out


@pytest.mark.parametrize("field", [GF(7), QQ()], ids=["F7", "Q"])
def test_rref_kernel_and_solve_match_method_calls(field):
    rng = random.Random(4242 + field.char)
    singular = unsolvable = 0
    for trial in range(120):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        mat = _random_matrix(rng, field, m, n, (0.5, 0.9)[trial % 2])
        if trial % 3 == 0 and m >= 2:
            # a row that is a combination of two others: a rank drop
            c = rng.randrange(1, 7)
            mat[-1] = [field.add(x, field.mul(field.from_fraction(Fraction(c)), y))
                       for x, y in zip(mat[0], mat[1 % m])]
        red, pivots = linalg.rref(mat, field)
        assert (red, pivots) == method_rref(mat, field)
        if field.char:
            assert all(0 <= v < field.char for row in red for v in row)
        kernel = linalg.kernel_basis(mat, field)
        assert len(kernel) == n - len(pivots)
        if field.char:
            assert all(0 <= x < field.char for v in kernel for x in v)
        singular += bool(kernel)
        for v in kernel:
            assert _times(field, mat, v) == [field.zero] * m
        rhs = _random_matrix(rng, field, m, 1, 0.8)
        rhs = [r[0] for r in rhs]
        x, cert = linalg.solve(mat, rhs, field)
        if cert is None:
            assert _times(field, mat, x) == rhs
        else:
            unsolvable += 1
            assert cert.reverify(mat, rhs, field)
        consistent = _times(field, mat, [r[0] for r in _random_matrix(rng, field, n, 1, 0.7)])
        x, cert = linalg.solve(mat, consistent, field)
        assert cert is None and _times(field, mat, x) == consistent
    assert singular >= 20 and unsolvable >= 5
    # a matrix with no columns has no pivots and no free columns
    for empty in ([], [[]], [[], []]):
        assert linalg.kernel_basis(empty, field) == []
