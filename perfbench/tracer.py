"""Span tracer that wraps dfactor's layer entry points from outside.

``install(tracer)`` replaces each traced public function with a wrapper
wherever a dfactor module binds it (``factorization`` imports
``solve_linear`` by name, ``cli`` imports ``reduce_full`` by name, and
so on), wraps the methods on their classes, and wraps the term-kernel
operation tuple of every polynomial ring.  The package code is not
changed.

Each wrapped call records one span: name, start, end, parent span and
operation id.  Spans are kept in flat arrays in memory and written out
by :meth:`Tracer.dump` when the run ends.  Self time is a span's
duration minus the durations of its direct children.  Counters that a
ratio needs (zero operands, useful reductions, ...) are taken in the
wrappers, at the same boundaries.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# span name -> (module, attribute) of the function it wraps
FUNCTIONS = {
    "modgb.module_groebner": ("dfactor.modgb", "module_groebner"),
    "modgb.vec_divmod": ("dfactor.modgb", "vec_divmod"),
    "modgb.solve_linear": ("dfactor.modgb", "solve_linear"),
    "modgb.matrix_kernel": ("dfactor.modgb", "matrix_kernel"),
    "modgb.colon_ideal": ("dfactor.modgb", "colon_ideal"),
    "linalg.rref": ("dfactor.linalg", "rref"),
    "linalg.kernel_basis": ("dfactor.linalg", "kernel_basis"),
    "linalg.solve": ("dfactor.linalg", "solve"),
    "linalg.rank": ("dfactor.linalg", "rank"),
    "factorization.make_factorization": ("dfactor.factorization", "make_factorization"),
    "factorization.is_morphism": ("dfactor.factorization", "is_morphism"),
    "factorization.homotopy_decide": ("dfactor.factorization", "homotopy_decide"),
    "factorization.cone": ("dfactor.factorization", "cone"),
    "functors.reduce_full": ("dfactor.functors", "reduce_full"),
    "functors.window_exact": ("dfactor.functors", "window_exact"),
    "functors.faithful_check": ("dfactor.functors", "faithful_check"),
    "functors.full_lift": ("dfactor.functors", "full_lift"),
    "functors.end_ring_cyclic": ("dfactor.functors", "end_ring_cyclic"),
}
DG_FUNCTIONS = ("graded_hom", "dg_check", "dg_differential", "h0_dimension")
PARSE_FUNCTIONS = (
    ("dfactor.schemas", "context_from_json"),
    ("dfactor.schemas", "factorization_from_json"),
    ("dfactor.schemas", "morphism_from_json"),
    ("dfactor.schemas", "graded_from_json"),
    ("dfactor.schemas", "window_from_json"),
    ("dfactor.exprs", "parse_poly"),
    ("dfactor.exprs", "parse_with_alg"),
    ("dfactor.cli", "_load"),
)
EMIT_FUNCTIONS = (
    ("dfactor.schemas", "factorization_to_json"),
    ("dfactor.schemas", "morphism_to_json"),
    ("dfactor.schemas", "graded_to_json"),
    ("dfactor.schemas", "window_to_json"),
    ("dfactor.cli", "_emit"),
)
KERNEL_OPS = ("add", "mul", "shift", "scale", "divmod_basis")
VERBS = (
    "verify", "sum", "suspend", "unsuspend", "cone", "triangle", "homotopic", "dg",
    "reduce", "exact", "checktac", "endring", "dualq", "faithful", "lift", "axioms",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = 0
        self.counts: Counter = Counter()

    def nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def current(self) -> int:
        """Name id of the innermost open span, or -1."""
        top = self.stack[-1]
        return self.name_of[top] if top >= 0 else -1

    def span(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` so that each call records a span named ``name``.

        ``before(args, kwargs)`` may return a different span name id;
        ``after(result, args)`` runs once the call returned.
        """
        nid = self.nid(name)
        name_of, parent, op = self.name_of, self.parent, self.op
        start, end, stack = self.start, self.end, self.stack

        def wrapper(*args, **kwargs):
            sid = before(args, kwargs) if before is not None else nid
            idx = len(start)
            name_of.append(nid if sid is None else sid)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def totals(self):
        """(calls, self seconds) per span name."""
        n = len(self.start)
        self_s = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                self_s[p] -= self.end[i] - self.start[i]
        calls: Counter = Counter()
        seconds: Counter = Counter()
        for i in range(n):
            name = self.names[self.name_of[i]]
            calls[name] += 1
            seconds[name] += self_s[i]
        return calls, seconds

    def dump(self, path_prefix: str):
        """Write the spans (binary arrays) and their name table."""
        with open(path_prefix + ".spans", "wb") as fh:
            for arr in (self.name_of, self.parent, self.op, self.start, self.end):
                arr.tofile(fh)
        with open(path_prefix + ".json", "w") as fh:
            json.dump({"names": self.names, "spans": len(self.start),
                       "layout": ["name:i32", "parent:i32", "op:i32", "start:f64", "end:f64"],
                       "counts": dict(self.counts)}, fh)


def _rebind(orig, wrapper):
    """Point every dfactor module global bound to ``orig`` at ``wrapper``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "dfactor" or mod_name.startswith("dfactor."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)


def _wrap_function(tr, name, module, attr, before=None, after=None):
    orig = getattr(sys.modules[module], attr)
    _rebind(orig, tr.span(name, orig, before, after))


def _wrap_method(tr, name, cls, attr, before=None, after=None):
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tr.span(name, raw.__func__, before, after)))
    else:
        setattr(cls, attr, tr.span(name, raw, before, after))


def install(tr: Tracer):
    import dfactor  # noqa: F401  (loads every layer)
    from dfactor import _kernel, cli, modgb, sampling
    from dfactor.fdalg import FDAlgebra
    from dfactor.rings import Ambient, QuotientRing

    count = tr.counts

    # -- term kernel: every ring's bound operation tuple -----------------
    gb_ids = {tr.nid("ring.groebner.fp"), tr.nid("ring.groebner.q")}
    mgb_id = tr.nid("modgb.module_groebner")

    def zero_operand(op_name):
        key = f"kernel.{op_name}.zero_operand"

        def before(args, kwargs):
            if not args[0] or not args[1]:
                count[key] += 1

        return before

    def divmod_after(result, args):
        if tr.current() in gb_ids:  # the span just closed; parent is on top
            count["ring.groebner.divmods"] += 1
            if result[0]:
                count["ring.groebner.useful"] += 1

    wrapped_ops = {}  # id -> ops tuple, kept alive so ids stay unique

    def wrap_ops(ops):
        if id(ops) in wrapped_ops:
            return ops
        fields = {}
        for op_name in KERNEL_OPS:
            short = "divmod" if op_name == "divmod_basis" else op_name
            before = zero_operand(short) if short in ("add", "mul") else None
            after = divmod_after if short == "divmod" else None
            fields[op_name] = tr.span(f"kernel.{short}", getattr(ops, op_name), before, after)
        wrapped = ops._replace(**fields)
        wrapped_ops[id(wrapped)] = wrapped
        return wrapped

    orig_ops_for = _kernel.ops_for
    _kernel.ops_for = lambda *a, **k: wrap_ops(orig_ops_for(*a, **k))
    for amb in Ambient._cache.values():
        amb.ops = wrap_ops(amb.ops)

    # -- rings -------------------------------------------------------------
    def groebner_name(args, kwargs):
        gens = [g for g in args[0] if not g.is_zero] if isinstance(args[0], (list, tuple)) else []
        return tr.nid("ring.groebner.q" if gens and gens[0].amb.field.char == 0
                      else "ring.groebner.fp")

    _wrap_function(tr, "ring.groebner.fp", "dfactor.rings", "groebner", before=groebner_name)

    def nf_before(args, kwargs):
        if not args[0]._gb_terms:
            count["ring.nf.noop"] += 1

    _wrap_method(tr, "ring.nf", QuotientRing, "nf", before=nf_before)
    orig_coeff = Ambient.coeff

    def coeff(self, c):
        count["ring.coeff.calls"] += 1
        return orig_coeff(self, c)

    Ambient.coeff = coeff

    # -- module engine and field linear algebra -----------------------------
    def vec_divmod_after(result, args):
        if tr.current() == mgb_id:
            count["modgb.module_groebner.divmods"] += 1
            if any(not p.is_zero for p in result[0]):
                count["modgb.module_groebner.useful"] += 1

    def solve_before(args, kwargs):
        rows = args[0]
        count["modgb.solve_linear.unknowns"] += len(rows[0]) if rows else 0

    def solve_after(result, args):
        if not isinstance(result, modgb.LinearSolution):
            count["modgb.solve_linear.negative"] += 1

    def linalg_before(args, kwargs):
        mat = args[0]
        count["linalg.entries"] += len(mat) * (len(mat[0]) if mat else 0)

    hooks = {
        "modgb.vec_divmod": (None, vec_divmod_after),
        "modgb.solve_linear": (solve_before, solve_after),
    }
    for name, (module, attr) in FUNCTIONS.items():
        before, after = hooks.get(name, (None, None))
        if name.startswith("linalg."):
            before = linalg_before
        _wrap_function(tr, name, module, attr, before, after)

    # -- category layer -----------------------------------------------------
    def compose_before(args, kwargs):
        g, f = args
        is_zero = f.ctx.backend.is_zero
        total = g.target.rank * f.source.rank * f.target.rank
        live = 0
        for j in range(f.target.rank):
            nz_f = sum(1 for e in f.rows[j] if not is_zero(e))
            nz_g = sum(1 for row in g.rows if not is_zero(row[j]))
            live += nz_f * nz_g
        count["context.compose.products"] += total
        count["context.compose.zero_products"] += total - live

    _wrap_function(tr, "context.compose", "dfactor.context", "compose", before=compose_before)
    for attr in DG_FUNCTIONS:
        _wrap_function(tr, "dg", "dfactor.dg", attr)

    def valid_before(args, kwargs):
        space = args[0]
        if space._valid is None:
            count["sampling.graded_space.unknowns"] += len(space.layout)

    def cycles_before(args, kwargs):
        space = args[0]
        if space._cycles is None and space.degree == 0:
            count["sampling.graded_space.unknowns"] += len(space.layout)

    _wrap_method(tr, "sampling.graded_space", sampling.GradedSpace, "valid_basis",
                 before=valid_before)
    _wrap_method(tr, "sampling.graded_space", sampling.GradedSpace, "cycle_basis",
                 before=cycles_before)
    _wrap_method(tr, "fdalg.mul", FDAlgebra, "mul")

    # -- CLI: verbs, parsing, report writing -----------------------------------
    for module, attr in PARSE_FUNCTIONS:
        _wrap_function(tr, "cli.parse", module, attr)
    _wrap_method(tr, "cli.parse", QuotientRing, "from_json")
    for module, attr in EMIT_FUNCTIONS:
        _wrap_function(tr, "cli.emit", module, attr)
    for verb, handler in list(cli._HANDLERS.items()):
        cli._HANDLERS[verb] = tr.span(f"cli.verb.{verb}", handler)


def _share(num, den):
    return num / den if den else 0.0


def layer_metrics(tr: Tracer):
    """Per-layer metrics as ``{name: (value, unit)}``, in a fixed order."""
    calls, secs = tr.totals()
    count = tr.counts
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for op_name in ("add", "mul", "shift", "scale", "divmod"):
        put(f"kernel.{op_name}.calls", calls[f"kernel.{op_name}"], "count")
    for op_name in ("add", "mul", "divmod"):
        put(f"kernel.{op_name}.self_s", secs[f"kernel.{op_name}"], "s")
    for op_name in ("add", "mul"):
        put(f"kernel.{op_name}.zero_operand_share",
            _share(count[f"kernel.{op_name}.zero_operand"], calls[f"kernel.{op_name}"]), "share")

    fp, q = "ring.groebner.fp", "ring.groebner.q"
    put("ring.groebner.calls", calls[fp] + calls[q], "count")
    put("ring.groebner.self_s", secs[fp] + secs[q], "s")
    put("ring.groebner.fp.self_s", secs[fp], "s")
    put("ring.groebner.q.self_s", secs[q], "s")
    put("ring.groebner.divmods", count["ring.groebner.divmods"], "count")
    put("ring.groebner.useful_share",
        _share(count["ring.groebner.useful"], count["ring.groebner.divmods"]), "share")
    put("ring.nf.calls", calls["ring.nf"], "count")
    put("ring.nf.self_s", secs["ring.nf"], "s")
    put("ring.nf.noop_share", _share(count["ring.nf.noop"], calls["ring.nf"]), "share")
    put("ring.coeff.calls", count["ring.coeff.calls"], "count")

    mgb = "modgb.module_groebner"
    put(f"{mgb}.calls", calls[mgb], "count")
    put(f"{mgb}.self_s", secs[mgb], "s")
    put(f"{mgb}.divmods", count[f"{mgb}.divmods"], "count")
    put(f"{mgb}.useful_share", _share(count[f"{mgb}.useful"], count[f"{mgb}.divmods"]), "share")
    for name in ("modgb.vec_divmod", "modgb.solve_linear"):
        put(f"{name}.calls", calls[name], "count")
        put(f"{name}.self_s", secs[name], "s")
    put("modgb.solve_linear.unknowns", count["modgb.solve_linear.unknowns"], "count")
    put("modgb.solve_linear.negative_share",
        _share(count["modgb.solve_linear.negative"], calls["modgb.solve_linear"]), "share")
    for name in ("modgb.matrix_kernel", "modgb.colon_ideal"):
        put(f"{name}.calls", calls[name], "count")
        put(f"{name}.self_s", secs[name], "s")

    linalg_names = ("linalg.rref", "linalg.kernel_basis", "linalg.solve", "linalg.rank")
    for name in linalg_names:
        put(f"{name}.calls", calls[name], "count")
    put("linalg.self_s", sum(secs[name] for name in linalg_names), "s")
    put("linalg.entries", count["linalg.entries"], "count")

    put("context.compose.calls", calls["context.compose"], "count")
    put("context.compose.self_s", secs["context.compose"], "s")
    put("context.compose.zero_entry_share",
        _share(count["context.compose.zero_products"], count["context.compose.products"]),
        "share")
    for name in FUNCTIONS:
        if name.startswith(("factorization.", "functors.")):
            put(f"{name}.calls", calls[name], "count")
            put(f"{name}.self_s", secs[name], "s")
    put("sampling.graded_space.self_s", secs["sampling.graded_space"], "s")
    put("sampling.graded_space.unknowns", count["sampling.graded_space.unknowns"], "count")
    put("dg.self_s", secs["dg"], "s")
    put("fdalg.mul.calls", calls["fdalg.mul"], "count")
    put("fdalg.mul.self_s", secs["fdalg.mul"], "s")

    put("cli.parse.self_s", secs["cli.parse"], "s")
    put("cli.emit.self_s", secs["cli.emit"], "s")
    for verb in VERBS:
        put(f"cli.verb.{verb}.calls", calls[f"cli.verb.{verb}"], "count")
        put(f"cli.verb.{verb}.self_s", secs[f"cli.verb.{verb}"], "s")
    return out
