"""Paths not covered elsewhere: algebra-backend homotopy decisions,
S-polynomial oracle checks, witness transitivity, exact comparison
matrices, triangles over cones, perturbed lifts, CLI deadlines."""

import json
import random
import time
from pathlib import Path

import pytest

from dfactor import linalg
from dfactor.context import Context, FreeObj, MatrixMap
from dfactor.dg import GradedHom, graded_hom, zero_graded
from dfactor.factorization import (
    NotHomotopic,
    cone,
    cone_comparison,
    homotopy_decide,
    homotopy_system,
    identity_morphism,
    is_morphism,
    make_factorization,
    scalar_morphism,
    standard_triangle,
    trivial_factorization,
    verify_witness,
)
from dfactor.fdalg import AlgebraMap, CentralElement, monomial_algebra, quotient_by_central
from dfactor.fields import GF
from dfactor.errors import DeadlineExceeded
from dfactor.functors import Lift, full_lift, reduce_full, reduce_morphism, window_exact
from dfactor.linalg import FredholmCertificate
from dfactor.reuse import one_call
from dfactor.rings import Ambient, groebner
from dfactor.sampling import random_homotopy_pair, random_morphism
from tests.test_factorization import ctx_with, mk_fact

F7 = GF(7)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _quantum_ctx():
    B = monomial_algebra(("x", "y"), ["xx", "yy", "xyx", "yxy"], F7)
    w = B.parse("x*y - 2*y*x")
    qinv = pow(2, 5, 7)
    nu = AlgebraMap.from_generator_images(
        B, {"x": f"-{qinv}*x", "y": "-2*y"}, automorphism=True
    )
    return Context(B, twist=nu, eta=w)


def test_algebra_homotopy_trivial_object_contractible():
    ctx = _quantum_ctx()
    T = trivial_factorization(ctx, 2)
    h = homotopy_decide(identity_morphism(T), zero_graded(T, T))
    assert isinstance(h, GradedHom)
    assert verify_witness(h, identity_morphism(T), zero_graded(T, T))


def test_algebra_homotopy_negative_with_fredholm_certificate():
    # over A (eta = 0), the complex (x, x) is not contractible: 1 is not
    # in x*A + A*x
    B = monomial_algebra(("x", "y"), ["xx", "yy", "xyx", "yxy"], F7)
    w = CentralElement(B, B.parse("x*y - 2*y*x"))
    A, _ = quotient_by_central(B, w)
    ctx = Context(A, eta=A.zero())
    obj = FreeObj.of(1)
    maps = [
        MatrixMap.make(ctx, obj, obj, [[A.parse("x")]]),
        MatrixMap.make(ctx, obj, obj.twist(1), [[A.parse("x")]]),
    ]
    X = make_factorization(ctx, 2, [obj, obj], maps)
    verdict = homotopy_decide(identity_morphism(X), zero_graded(X, X))
    assert isinstance(verdict, NotHomotopic)
    assert isinstance(verdict.certificate, FredholmCertificate)
    # the first witness unknown s_1 = t_2 runs M_2 -> N_1, both of rank 1
    s_1 = zero_graded(X, X, -1).comp_at(2)
    assert (s_1.source.rank, s_1.target.rank) == (1, 1)
    # re-check the certificate against the field system it refutes
    cert, field = verdict.certificate, A.field
    system, _ = homotopy_system(identity_morphism(X), zero_graded(X, X))
    mat, rhs = system.algebra_matrix()
    assert cert.reverify(mat, rhs, field)
    # one coordinate of y on a nonzero row of A: y*A is no longer zero
    i = next(i for i, row in enumerate(mat) if any(c != field.zero for c in row))
    y = list(cert.y)
    y[i] = field.add(y[i], field.one)
    assert not FredholmCertificate(tuple(y)).reverify(mat, rhs, field)
    # one rhs entry, moved so that y*b becomes zero
    pairing = field.zero
    for yi, bi in zip(cert.y, rhs):
        pairing = field.add(pairing, field.mul(yi, bi))
    i = next(i for i, yi in enumerate(cert.y) if yi != field.zero)
    moved = list(rhs)
    moved[i] = field.sub(moved[i], field.mul(pairing, field.inv(cert.y[i])))
    assert not cert.reverify(mat, moved, field)


def test_algebra_cone_of_identity_contractible():
    ctx = _quantum_ctx()
    T = trivial_factorization(ctx, 2)
    c = cone(identity_morphism(T))
    h = homotopy_decide(identity_morphism(c.cone), zero_graded(c.cone, c.cone))
    assert isinstance(h, GradedHom)


def test_algebra_window_exactness_polls_the_deadline():
    ctx = _quantum_ctx()
    window = reduce_full(trivial_factorization(ctx, 2), ctx.eta).window
    assert window.nilpotency == 2
    with one_call(deadline=time.monotonic() + 60):
        inside = window_exact(window)
    assert inside == window_exact(window)
    with one_call(deadline=time.monotonic() - 1):
        with pytest.raises(DeadlineExceeded, match="period check"):
            window_exact(window)


def test_field_elimination_polls_the_deadline():
    with one_call(deadline=time.monotonic() - 1):
        with pytest.raises(DeadlineExceeded, match="^field elimination: pivot 1 of 2$"):
            linalg.rank([[1, 2], [3, 4]], GF(7))
    assert linalg.rank([[1, 2], [3, 4]], GF(7)) == 2


def test_groebner_spolys_and_generators_reduce_to_zero():
    rng = random.Random(12)
    amb = Ambient(GF(7), ("x", "y", "z"))
    from dfactor._kernel.pure import Divisors, mon_div

    for _ in range(15):
        gens = []
        for _ in range(3):
            p = amb.zero()
            for _ in range(rng.randint(1, 3)):
                mon = tuple(rng.randint(0, 2) for _ in range(3))
                p = p + amb.monomial(mon, rng.randrange(7))
            if not p.is_zero:
                gens.append(p)
        if not gens:
            continue
        basis = groebner(gens)
        table = Divisors(amb.field, [(b.terms,) for b in basis])
        for g in gens:
            assert amb.ops.divmod_basis((g.terms,), table) == ((),)
        for i in range(len(basis)):
            for j in range(i):
                fi, fj = basis[i], basis[j]
                lcm = tuple(max(a, b) for a, b in zip(fi.lead_mon, fj.lead_mon))
                left = amb.ops.shift(fi.terms, mon_div(lcm, fi.lead_mon), amb.field.one)
                right = amb.ops.shift(fj.terms, mon_div(lcm, fj.lead_mon), amb.field.one)
                spoly = amb.ops.add(left, amb.ops.neg(right))
                assert amb.ops.divmod_basis((spoly,), table) == ((),)


def test_homotopy_transitivity_by_witness_sum():
    ctx = ctx_with("x*y")
    X = mk_fact(ctx, 2, [[["x"]], [["y"]]])
    rng = random.Random(77)
    phi = random_morphism(rng, X, X)
    a, b, s = random_homotopy_pair(rng, phi)
    b2, c, t = random_homotopy_pair(rng, b)
    assert verify_witness(s + t, a, c)


def test_cone_comparison_exact_matrices():
    ctx = ctx_with("x*y")
    X = mk_fact(ctx, 2, [[["x"]], [["y"]]])
    yy = scalar_morphism(X, ctx.backend.parse("y"))
    zero = zero_graded(X, X)
    # hand witness: s1 = 0, s2 = 1 (y = 0*x + y*1 and y = 1*y + x*0),
    # as the degree -1 element t_1 = s_2 (untwisted), t_2 = s_1
    s = graded_hom(
        X,
        X,
        -1,
        (
            MatrixMap.make(ctx, X.objects[0], X.obj_at(0), [[ctx.backend.one()]]),
            MatrixMap.zero(ctx, X.objects[1], X.objects[0]),
        ),
    )
    assert verify_witness(s, yy, zero)
    lam, lam_inv = cone_comparison(yy, zero, s)
    assert lam.components[0].format_rows() == [["1", "0"], ["0", "1"]]
    assert lam.components[1].format_rows() == [["1", "0"], ["1", "1"]]
    assert lam_inv.components[1].format_rows() == [["1", "0"], ["6", "1"]]
    # s = 0 gives the identity comparison
    h0 = homotopy_decide(yy, yy)
    lam0, _ = cone_comparison(yy, yy, h0)
    assert all(
        c.format_rows() == [["1", "0"], ["0", "1"]] for c in lam0.components
    )


def test_triangle_on_cone_inclusion():
    ctx = ctx_with("x*y")
    X = mk_fact(ctx, 2, [[["x"]], [["y"]]])
    psi = scalar_morphism(X, ctx.backend.parse("x"))
    c = cone(psi)
    tri = standard_triangle(c.include)
    assert tri.y == c.cone
    assert is_morphism(tri.v).ok and is_morphism(tri.w).ok


def test_full_lift_of_perturbed_chain_map():
    ctx = ctx_with("x*y")
    X = mk_fact(ctx, 2, [[["x"]], [["y"]]])
    f = ctx.backend.parse("x*y")
    theta = scalar_morphism(X, ctx.backend.parse("y"))
    red = reduce_full(X, f)
    phibar = reduce_morphism(theta, red, red)
    rng = random.Random(5)
    # perturb by a null-homotopic periodic summand downstairs
    _, perturbed, _ = random_homotopy_pair(rng, phibar)
    out = full_lift(perturbed, red, red)
    assert isinstance(out, Lift)
    from dfactor.functors import faithful_check

    diff = faithful_check(out.theta - theta, f)
    assert diff.downstairs_null and diff.consistent


def test_cli_deadline_exceeded_exit_1(tmp_path, capsys):
    from dfactor.cli import main

    fact = json.loads((FIXTURES / "classical_xy.json").read_text())
    desc = {
        "context": fact["context"],
        "d": 2,
        "source": {"ranks": fact["ranks"], "maps": fact["maps"]},
        "target": {"ranks": fact["ranks"], "maps": fact["maps"]},
        "components": [[["1"]], [["1"]]],
    }
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps(desc))
    zero = tmp_path / "zero.json"
    desc0 = dict(desc, components=[[["0"]], [["0"]]])
    zero.write_text(json.dumps(desc0))
    code = main(["homotopic", str(phi), str(zero), "--deadline", "1e-9"])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out)["kind"] == "DeadlineExceeded"
