"""LinearSystem: per-row extra moduli, and systems without equations."""

from dfactor.context import Context, FreeObj, MatrixMap
from dfactor.dg import GradedHom, zero_graded
from dfactor.factorization import homotopy_decide, make_factorization
from dfactor.fields import GF
from dfactor.linsys import LinearSystem
from dfactor.modgb import NoSolutionCertificate
from dfactor.rings import QuotientRing


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


def test_extra_modulus_applies_to_its_own_rows_only():
    R = QuotientRing.make(GF(7), ("x", "y"), ["y^2"])
    x, y, one = R.parse("x"), R.parse("y"), R.one()
    # u * x = y has no solution over R, but does modulo y
    system = LinearSystem(R)
    u = system.unknown(1, 1)
    system.equation([(u, ((x,),), "right")], ((y,),), modulo=(y,))
    grids, cert = system.solve()
    assert cert is None and R.nf(grids[u][0][0] * x).is_zero
    # a second row without the modulus pins u = y, which the first allows
    system.equation([(u, ((one,),), "left")], ((y,),))
    grids, cert = system.solve()
    assert cert is None and grids[u] == [[y]]
    # the modulus of one row does not reach the next: u x = y stays unsolvable
    strict = LinearSystem(R)
    u = strict.unknown(1, 1)
    strict.equation([(u, ((one,),), "left")], ((one,),), modulo=(y,))
    strict.equation([(u, ((x,),), "right")], ((y,),))
    grids, cert = strict.solve()
    assert grids is None and isinstance(cert, NoSolutionCertificate)
