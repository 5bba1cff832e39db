"""JSON wire formats for every object the CLI reads or writes.

Polynomial entries are strings in the shared expression syntax.
Factorizations carry ranks (offsets optional, for suspended or dual
data); morphisms embed their source and target.  All emitters produce
deterministic structures: plain dicts of sorted-key-stable content.
"""

from __future__ import annotations

from .context import Context, FreeObj, MatrixMap
from .dg import GradedHom, graded_hom
from .errors import ParseError
from .factorization import FactorizationD, make_factorization
from .fdalg import AlgebraMap, FDAlgebra, algebra_from_json
from .functors import ComplexWindow
from .reuse import canonical, reuse
from .rings import QuotientRing


# -- type checks at the boundary -------------------------------------------


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{what} must be a JSON object")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list")
    return value


def _int(value, what: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer")
    if minimum is not None and value < minimum:
        raise ParseError(f"{what} must be at least {minimum}")
    return value


# -- backends and contexts ------------------------------------------------


def backend_from_json(desc: dict):
    if not isinstance(desc, dict):
        raise ParseError("backend description must be an object")
    if "gens" in desc or "table" in desc:
        return algebra_from_json(desc)
    return QuotientRing.from_json(desc)


def context_from_json(desc: dict) -> Context:
    """An explicit "twist" wins; otherwise an algebra description's own
    "nu" is adopted.  Likewise "eta" falls back to the algebra's "w".
    Within one CLI call, equal descriptions give one context."""
    desc = _object(desc, "context")
    return reuse(lambda: ("context", canonical(desc)), lambda: _context(desc))


def _context(desc: dict) -> Context:
    ring_desc = desc.get("ring", {})
    backend = backend_from_json(ring_desc)
    twist_desc = desc.get("twist")
    if twist_desc is None and isinstance(backend, FDAlgebra) and "nu" in ring_desc:
        twist_desc = {"nu": ring_desc["nu"]}
    twist = None
    if twist_desc in (None, "identity"):
        pass
    elif isinstance(twist_desc, dict) and "nu" in twist_desc:
        if not isinstance(backend, FDAlgebra):
            raise ParseError("twists require an algebra backend")
        nu = _object(twist_desc["nu"], "twist \"nu\"")
        if not all(isinstance(image, str) for image in nu.values()):
            raise ParseError("twist images must be expression strings")
        twist = AlgebraMap.from_generator_images(backend, nu, automorphism=True)
    else:
        raise ParseError(f"bad twist {twist_desc!r}")
    eta_text = desc.get("eta")
    if eta_text is None and "w" in ring_desc:
        eta_text = ring_desc["w"]
    if eta_text is None:
        eta_text = "0"
    if not isinstance(eta_text, str):
        raise ParseError("eta must be an expression string")
    eta = backend.zero() if eta_text == "0" else backend.parse(eta_text)
    return Context(backend, twist=twist, eta=eta)


def context_to_json(ctx: Context) -> dict:
    out = {"ring": ctx.backend.to_json()}
    if ctx.twist is None:
        out["twist"] = "identity"
    else:
        alg = ctx.backend
        images = {}
        for g in alg.gens:
            idx = alg._word_index((g,))
            images[g] = alg.format(ctx.twist.images[idx])
        out["twist"] = {"nu": images}
    out["eta"] = "0" if ctx.eta_is_zero else ctx.backend.format(ctx.eta)
    return out


# -- factorizations ---------------------------------------------------------


def _offset_objects(offsets, count: int):
    """Free objects from ``count`` lists of integer twist offsets."""
    if not isinstance(offsets, list) or len(offsets) != count:
        raise ParseError(f"need {count} offset lists")
    return [
        FreeObj(tuple(_int(o, "an offset") for o in _list(obj, "an offset list")))
        for obj in offsets
    ]


def _objects_from_json(desc: dict, d: int, ctx, mats):
    """The free objects and the parsed maps of a factorization.

    Each rank is checked against the shape of its maps before
    ``FreeObj.of`` runs: rank k must be the row count of the map into
    object k (map k - 1, and map d - 1 for object 0), so every object
    built is as long as a list in the input, and a rank such as 10**30
    gives a ShapeMismatch report instead of an allocation.  The maps are
    checked in order, each by grid, entries and then shape, so the first
    error is the one that building them one by one would raise.
    """
    if "offsets" in desc:
        objects = _offset_objects(desc["offsets"], d)
        ranks = [obj.rank for obj in objects]
    else:
        ranks = desc.get("ranks")
        if not isinstance(ranks, list) or len(ranks) != d:
            raise ParseError("need \"ranks\" (one per position) or explicit \"offsets\"")
        ranks = [_int(r, "a rank", 0) for r in ranks]
        objects = None
    if not isinstance(mats, list) or len(mats) != d:
        raise ParseError(f"need {d} matrices")
    grids = []
    for i, m in enumerate(mats):
        MatrixMap.check_grid(m)
        grid = [[ctx.backend.parse(e) for e in row] for row in m]
        MatrixMap.check_shape(grid, ranks[(i + 1) % d], ranks[i])
        grids.append(grid)
    if objects is None:
        objects = [FreeObj.of(r) for r in ranks]
    targets = objects[1:] + [objects[0].twist(1)]
    return objects, [
        MatrixMap.make(ctx, src, tgt, grid) for src, tgt, grid in zip(objects, targets, grids)
    ]


def factorization_from_json(desc: dict, ctx: Context | None = None) -> FactorizationD:
    """Within one CLI call, an equal description over the same context
    object is parsed and verified once.  The key holds ``id(ctx)``: the
    kept factorization holds ``ctx``, so the id cannot be reused."""
    desc = _object(desc, "factorization")
    if ctx is None:
        ctx = context_from_json(desc.get("context", {}))
    return reuse(
        lambda: ("factorization", canonical(desc), id(ctx)),
        lambda: _factorization(desc, ctx),
    )


def _factorization(desc: dict, ctx: Context) -> FactorizationD:
    d = _int(desc.get("d"), "factorization \"d\"", 2)
    objects, maps = _objects_from_json(desc, d, ctx, desc.get("maps", []))
    return make_factorization(ctx, d, objects, maps)


def factorization_to_json(X: FactorizationD, include_context=True) -> dict:
    out = {
        "d": X.d,
        "ranks": [o.rank for o in X.objects],
        "maps": [m.format_rows() for m in X.maps],
    }
    if any(any(o != 0 for o in obj.offsets) for obj in X.objects):
        out["offsets"] = [list(o.offsets) for o in X.objects]
    if include_context:
        out["context"] = context_to_json(X.ctx)
    return out


def ends_from_json(desc: dict):
    """Context, source and target of a morphism-shaped description; the
    two factorizations take the description's "d" and context."""
    desc = _object(desc, "morphism")
    ctx = context_from_json(desc.get("context", {}))
    src, tgt = (
        factorization_from_json(
            {**_object(desc.get(key), f"\"{key}\""), "d": desc.get("d")}, ctx
        )
        for key in ("source", "target")
    )
    return ctx, src, tgt


def components_from_json(
    desc: dict, src: FactorizationD, tgt: FactorizationD, degree: int = 0
) -> list:
    """The components of a morphism-shaped description over ``src``'s
    context: component i maps object i of ``src`` to object i + degree
    of ``tgt``."""
    mats = desc.get("components", [])
    if not isinstance(mats, list) or len(mats) != src.d:
        raise ParseError(f"need {src.d} components")
    return [
        MatrixMap.from_strings(src.ctx, a, tgt.obj_at(i + degree), m)
        for i, (a, m) in enumerate(zip(src.objects, mats), start=1)
    ]


def morphism_from_json(desc: dict):
    _, src, tgt = ends_from_json(desc)
    return GradedHom(src, tgt, 0, tuple(components_from_json(desc, src, tgt)))


def morphism_to_json(phi: GradedHom) -> dict:
    return {
        "context": context_to_json(phi.source.ctx),
        "d": phi.source.d,
        "source": factorization_to_json(phi.source, include_context=False),
        "target": factorization_to_json(phi.target, include_context=False),
        "components": [m.format_rows() for m in phi.components],
    }


def graded_from_json(desc: dict):
    _, src, tgt = ends_from_json(desc)
    degree = _int(desc.get("degree", 0), "\"degree\"")
    return graded_hom(src, tgt, degree, components_from_json(desc, src, tgt, degree))


def graded_to_json(gh: GradedHom) -> dict:
    return {**morphism_to_json(gh), "degree": gh.degree}


# -- windows ----------------------------------------------------------------


def window_to_json(W: ComplexWindow) -> dict:
    positions = list(range(W.lo, W.hi + 1))
    offsets = []
    for p in positions:
        if p < W.hi:
            offsets.append(list(W.map_at(p).source.offsets))
        else:
            offsets.append(list(W.maps[-1].target.offsets))
    return {
        "ring": W.backend.to_json(),
        "lo": W.lo,
        "hi": W.hi,
        "period": W.period,
        "nilpotency": W.nilpotency,
        "offsets": offsets,
        "maps": [m.format_rows() for m in W.maps],
    }


def window_from_json(desc: dict) -> ComplexWindow:
    backend = backend_from_json(desc.get("ring", {}))
    ctx = Context(backend, eta=backend.zero())
    lo, hi = _int(desc.get("lo"), "\"lo\""), _int(desc.get("hi"), "\"hi\"")
    period = _int(desc.get("period", 2), "\"period\"", 1)
    mats = _list(desc.get("maps", []), "\"maps\"")
    if len(mats) != hi - lo:
        raise ParseError(f"window [{lo},{hi}] needs {hi - lo} maps")
    for m in mats:
        MatrixMap.check_grid(m)
    ranks = [len(m[0]) if m else 0 for m in mats]
    ranks.append(len(mats[-1]) if mats else 0)
    if "offsets" in desc:
        objects = _offset_objects(desc["offsets"], hi - lo + 1)
    else:
        objects = [FreeObj.of(ranks[k], p // period) for k, p in enumerate(range(lo, hi + 1))]
    maps = []
    for k, m in enumerate(mats):
        maps.append(MatrixMap.from_strings(ctx, objects[k], objects[k + 1], m))
    nil = desc.get("nilpotency")
    return ComplexWindow(
        ctx=ctx,
        lo=lo,
        hi=hi,
        maps=tuple(maps),
        period=period,
        nilpotency=None if nil is None else _int(nil, "\"nilpotency\"", 1),
    ).validate()
