"""Wire-format round trips."""

import json
from pathlib import Path

import pytest

from dfactor.errors import ParseError
from dfactor.factorization import suspend
from dfactor.functors import dual_window, reduce_mod_f
from dfactor.schemas import (
    context_from_json,
    context_to_json,
    factorization_from_json,
    factorization_to_json,
    graded_from_json,
    graded_to_json,
    morphism_from_json,
    morphism_to_json,
    window_from_json,
    window_to_json,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _fixture(name):
    return json.loads((FIXTURES / name).read_text())


def test_context_roundtrip_ring():
    desc = _fixture("ctx_f7xy_xy.json")
    ctx = context_from_json(desc)
    again = context_from_json(context_to_json(ctx))
    assert again == ctx


def test_context_roundtrip_quantum():
    ctx = context_from_json(_fixture("quantum_context.json"))
    assert ctx.twist is not None
    assert ctx.twist_report.ok
    again = context_from_json(context_to_json(ctx))
    assert again == ctx


def test_context_nu_fallback_from_algebra_description():
    desc = _fixture("quantum_context.json")
    del desc["twist"]
    ctx = context_from_json(desc)
    assert ctx.twist is not None
    # explicit identity twist is honored; x is not central, so it fails
    with pytest.raises(ValueError):
        context_from_json({**desc, "twist": "identity", "eta": "x"})


def test_factorization_roundtrip():
    desc = _fixture("classical_xy.json")
    X = factorization_from_json(desc)
    again = factorization_from_json(factorization_to_json(X))
    assert again == X
    assert factorization_to_json(X)["ranks"] == [1, 1]


def test_factorization_roundtrip_with_offsets():
    X = factorization_from_json(_fixture("sos_2x2.json"))
    S = suspend(X)
    desc = factorization_to_json(S)
    assert "offsets" in desc
    again = factorization_from_json(desc)
    assert again == S


def test_morphism_roundtrip():
    fact = _fixture("classical_xy.json")
    desc = {
        "context": fact["context"],
        "d": 2,
        "source": {"ranks": fact["ranks"], "maps": fact["maps"]},
        "target": {"ranks": fact["ranks"], "maps": fact["maps"]},
        "components": [[["y"]], [["y"]]],
    }
    phi = morphism_from_json(desc)
    again = morphism_from_json(morphism_to_json(phi))
    assert again == phi


def test_graded_roundtrip():
    fact = _fixture("classical_xy.json")
    desc = {
        "context": fact["context"],
        "d": 2,
        "degree": -1,
        "source": {"ranks": fact["ranks"], "maps": fact["maps"]},
        "target": {"ranks": fact["ranks"], "maps": fact["maps"]},
        "components": [[["3"]], [["5"]]],
    }
    gh = graded_from_json(desc)
    assert gh.degree == -1
    again = graded_from_json(graded_to_json(gh))
    assert again.components == gh.components
    # one component too many or too few is read as for a morphism
    for comps in ([[["3"]], [["5"]], [["5"]]], [[["3"]]]):
        with pytest.raises(ParseError, match="^need 2 components$"):
            graded_from_json(dict(desc, components=comps))


def test_window_roundtrip_including_dual():
    X = factorization_from_json(_fixture("classical_xy.json"))
    W = reduce_mod_f(X, X.ctx.backend.parse("x*y"))
    again = window_from_json(window_to_json(W))
    assert again.lo == W.lo and again.hi == W.hi
    assert again.maps == W.maps
    D = dual_window(W)
    again_d = window_from_json(window_to_json(D))
    assert again_d.maps == D.maps


def test_window_rejects_wrong_map_count():
    X = factorization_from_json(_fixture("classical_xy.json"))
    W = reduce_mod_f(X, X.ctx.backend.parse("x*y"))
    desc = window_to_json(W)
    desc["maps"] = desc["maps"][:-1]
    with pytest.raises(ParseError):
        window_from_json(desc)
