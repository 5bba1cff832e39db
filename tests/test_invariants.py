"""Cross-cutting invariants: homotopy algebra, naturality, reductions."""

import random

import pytest

from dfactor.context import MatrixMap, naturality_check
from dfactor.dg import GradedHom, compose_graded, dg_check
from dfactor.factorization import homotopy_decide, verify_witness
from dfactor.fields import GF
from dfactor.functors import reduce_full
from dfactor.sampling import (
    make_pool,
    random_element,
    random_homotopy_pair,
    random_morphism,
)
from dfactor.schemas import context_from_json
from tests.test_factorization import ctx_with, mk_fact

F7 = GF(7)


def test_homotopy_compatible_with_addition():
    ctx = ctx_with("x*y")
    X = mk_fact(ctx, 2, [[["x"]], [["y"]]])
    rng = random.Random(31)
    for _ in range(20):
        phi = random_morphism(rng, X, X)
        a, b, s = random_homotopy_pair(rng, phi)
        theta = random_morphism(rng, X, X)
        # same witness works after adding theta to both sides
        assert verify_witness(s, a + theta, b + theta)


def test_homotopy_compatible_with_composition():
    ctx = ctx_with("x*y")
    X = mk_fact(ctx, 2, [[["x"]], [["y"]]])
    rng = random.Random(32)
    for _ in range(20):
        phi = random_morphism(rng, X, X)
        phi_a, phi_b, s = random_homotopy_pair(rng, phi)
        psi = random_morphism(rng, X, X)
        psi_a, psi_b, t = random_homotopy_pair(rng, psi)
        # psi_a phi_a - psi_b phi_b = psi_a d(s) + d(t) phi_b
        u = compose_graded(psi_a, s) + compose_graded(t, phi_b)
        left = compose_graded(psi_a, phi_a)
        right = compose_graded(psi_b, phi_b)
        assert verify_witness(u, left, right)


def test_witnesses_commute_with_squares():
    ctx = ctx_with("x*y")
    X = mk_fact(ctx, 2, [[["x"]], [["y"]]])
    rng = random.Random(33)
    for _ in range(25):
        phi = random_morphism(rng, X, X)
        a, b, s = random_homotopy_pair(rng, phi)
        assert dg_check(s)
        decided = homotopy_decide(a, b)
        assert isinstance(decided, GradedHom) and decided.degree == -1
        assert dg_check(decided)


def test_eta_natural_for_all_maps_in_fixture_contexts():
    import json
    from pathlib import Path

    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    rng = random.Random(34)
    for name in ("ctx_f7xy_xy.json", "ctx_f7xy_sos.json", "quantum_context.json"):
        ctx = context_from_json(json.loads((fixtures / name).read_text()))
        from dfactor.context import FreeObj

        for _ in range(30):
            r1, r2 = rng.randint(1, 3), rng.randint(1, 3)
            rows = [
                [random_element(rng, ctx.backend) for _ in range(r1)] for _ in range(r2)
            ]
            f = MatrixMap.make(ctx, FreeObj.of(r1), FreeObj.of(r2), rows)
            assert naturality_check(f)


@pytest.mark.parametrize("eta,f", [("x*y", "x*y"), ("x^2 + y^2", "x^2 + y^2"), ("x^4", "x^2")])
def test_reductions_satisfy_d_fold_zero_at_scale(eta, f):
    variables = ("x", "y") if "y" in eta else ("x",)
    ctx = ctx_with(eta, variables)
    rng = random.Random(35)
    # >= 100 reductions across the three parametrized etas
    for d in (2, 4):
        pool = make_pool(ctx, d, max_rank=4)
        trials = 20 if d == 2 else 14
        for _ in range(trials):
            X = pool.random_factorization(rng, steps=1)
            felem = ctx.backend.parse(f)
            red = reduce_full(X, felem)
            # validate() already enforced the d-fold zero law; re-assert
            red.window.validate()
            assert red.window.nilpotency == d


def test_no_assert_statements_in_package():
    # ``python -O`` strips assert statements, so no verification gate may be one
    import ast
    from pathlib import Path

    import dfactor

    package = Path(dfactor.__file__).resolve().parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                offenders.append(f"{path.relative_to(package)}:{node.lineno}")
    assert not offenders, offenders


# The one import that must stay inside a function: modgb imports rings.
DOCUMENTED_CYCLES = {("rings.py", "groebner", "modgb")}


def test_hot_modules_import_only_at_module_level():
    # an import inside a function runs on every call, so the ring,
    # context, field linear algebra and kernel modules import at the top
    import ast
    from pathlib import Path

    import dfactor

    package = Path(dfactor.__file__).resolve().parent
    paths = [package / name for name in ("rings.py", "context.py", "linalg.py")]
    paths += sorted((package / "_kernel").glob("*.py"))
    offenders = []
    for path in paths:
        rel = path.relative_to(package).as_posix()
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = getattr(func, "name", "<lambda>")
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom) and node.level > 0:
                    if (rel, name, node.module) not in DOCUMENTED_CYCLES:
                        offenders.append(f"{rel}:{node.lineno} from .{node.module}")
    assert not offenders, offenders
