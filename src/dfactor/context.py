"""The ambient data every factorization lives over.

A :class:`Context` bundles a backend (quotient ring or
finite-dimensional algebra), a twist (identity, or restriction along
an algebra automorphism), and the distinguished element w whose
multiplication maps play the role of the natural transformation.

Conventions, fixed once:

* Free objects carry one formal twist offset per generator; twisting
  increments every offset and never touches matrix entries.  The twist
  by 0 is the value itself.
* ``compose(g, f)`` (apply f first) has entries
  ``sum_j f[j][k] * g[i][j]`` with backend multiplication in that
  order.  This is the left-module convention; over a commutative
  backend it is the ordinary matrix product.
* Map arithmetic is whole-grid backend arithmetic: ``compose`` is one
  backend ``matmul`` and ``+``, ``-`` and unary ``-`` are one backend
  ``axpy`` (``a + s*b`` entrywise), each on the rows as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError, ShapeMismatch
from .fdalg import AlgebraMap, CentralElement, FDAlgebra, TwistReport, check_twist_compatibility
from .rings import QuotientRing


@dataclass(frozen=True)
class FreeObj:
    """Finitely generated free object; one twist offset per generator."""

    offsets: tuple

    @classmethod
    def of(cls, rank: int, offset: int = 0) -> "FreeObj":
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        return cls(offsets=(offset,) * rank)

    @property
    def rank(self) -> int:
        return len(self.offsets)

    def twist(self, k: int = 1) -> "FreeObj":
        if k == 0:
            return self
        return FreeObj(tuple(o + k for o in self.offsets))

    def concat(self, other: "FreeObj") -> "FreeObj":
        return FreeObj(self.offsets + other.offsets)

    def __repr__(self):
        return f"FreeObj{self.offsets}"


class Context:
    """(backend, twist, eta) with the executable centrality law enforced.

    Over an algebra backend the element w must satisfy w*b = nu(b)*w
    (plain centrality when the twist is the identity); that law is what
    makes multiplication by w a map into the twisted object.  The full
    compatibility report, including whether nu fixes all w*r, is kept
    on ``twist_report``.
    """

    def __init__(self, backend, twist: AlgebraMap | None = None, eta=None):
        self.backend = backend
        self.twist = twist
        if eta is None:
            eta = backend.zero()
        self.eta = backend.canon(eta)
        self.twist_report: TwistReport | None = None
        if isinstance(backend, QuotientRing):
            if twist is not None:
                raise ValueError("ring backends only support the identity twist")
        elif isinstance(backend, FDAlgebra):
            w = CentralElement(backend, self.eta)
            if twist is None:
                ok, witness = w.check_central(None)
                if not ok:
                    raise ValueError(f"eta element is not central (witness {witness!r})")
            else:
                if twist.source is not backend and twist.source != backend:
                    raise ValueError("twist automorphism acts on a different algebra")
                if not twist.automorphism:
                    raise ValueError("twist must be flagged as an automorphism")
                self.twist_report = check_twist_compatibility(twist, w)
                if not self.twist_report.twisted_central:
                    raise ValueError(
                        "eta element fails twisted centrality "
                        f"(witness {self.twist_report.witness!r})"
                    )
        else:
            raise TypeError(f"unsupported backend {type(backend).__name__}")

    @property
    def eta_is_zero(self) -> bool:
        return self.backend.is_zero(self.eta)

    def __eq__(self, other):
        return (
            isinstance(other, Context)
            and other.backend == self.backend
            and other.twist == self.twist
            and other.eta == self.eta
        )

    def __hash__(self):
        return hash((self.backend, self.twist, self.eta))

    def __repr__(self):
        twist = "id" if self.twist is None else "nu"
        return f"Context({self.backend!r}, twist={twist}, eta={self.backend.format(self.eta)})"


@dataclass(frozen=True)
class MatrixMap:
    """Map between free objects; rows indexed by target generators."""

    ctx: Context
    source: FreeObj
    target: FreeObj
    rows: tuple

    @classmethod
    def make(cls, ctx: Context, source: FreeObj, target: FreeObj, rows) -> "MatrixMap":
        backend = ctx.backend
        rows = tuple(tuple(backend.canon(e) for e in row) for row in rows)
        cls.check_shape(rows, target.rank, source.rank)
        return cls(ctx, source, target, rows)

    @staticmethod
    def check_shape(rows, target_rank: int, source_rank: int):
        """ShapeMismatch unless ``rows`` is target_rank x source_rank."""
        if len(rows) != target_rank or any(len(r) != source_rank for r in rows):
            raise ShapeMismatch(
                f"grid must be {target_rank} x {source_rank}, got "
                f"{len(rows)} x {[len(r) for r in rows]}"
            )

    @staticmethod
    def check_grid(rows):
        """ParseError unless ``rows`` is a JSON matrix: rows of strings."""
        if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(isinstance(e, str) for e in row) for row in rows
        ):
            raise ParseError("a matrix must be a list of rows, each a list of strings")

    @classmethod
    def from_strings(cls, ctx, source, target, rows) -> "MatrixMap":
        cls.check_grid(rows)
        parse = ctx.backend.parse
        return cls.make(
            ctx, source, target, [[parse(e) for e in row] for row in rows]
        )

    @classmethod
    def identity(cls, ctx, obj: FreeObj) -> "MatrixMap":
        return cls._diagonal(ctx, obj, obj, ctx.backend.one())

    @classmethod
    def zero(cls, ctx, source: FreeObj, target: FreeObj) -> "MatrixMap":
        row = (ctx.backend.zero(),) * source.rank
        return cls(ctx, source, target, (row,) * target.rank)

    @classmethod
    def scalar(cls, ctx, obj: FreeObj, elem) -> "MatrixMap":
        return cls._diagonal(ctx, obj, obj, ctx.backend.canon(elem))

    @classmethod
    def _diagonal(cls, ctx, source: FreeObj, target: FreeObj, elem) -> "MatrixMap":
        """The canonical element ``elem`` on the diagonal; source and
        target have the same rank."""
        zero = ctx.backend.zero()
        rank = source.rank
        rows = tuple(tuple(elem if i == j else zero for j in range(rank)) for i in range(rank))
        return cls(ctx, source, target, rows)

    # -- arithmetic -----------------------------------------------------

    def _parallel(self, other: "MatrixMap"):
        if self.source != other.source or self.target != other.target:
            raise ShapeMismatch("maps are not parallel")

    def _axpy(self, a_rows, s, other: "MatrixMap") -> "MatrixMap":
        rows = self.ctx.backend.axpy(a_rows, s, other.rows)
        return MatrixMap(self.ctx, self.source, self.target, rows)

    def __add__(self, other: "MatrixMap") -> "MatrixMap":
        self._parallel(other)
        return self._axpy(self.rows, self.ctx.backend.field.one, other)

    def __sub__(self, other: "MatrixMap") -> "MatrixMap":
        self._parallel(other)
        field = self.ctx.backend.field
        return self._axpy(self.rows, field.neg(field.one), other)

    def __neg__(self) -> "MatrixMap":
        backend = self.ctx.backend
        zero = ((backend.zero(),) * self.source.rank,) * self.target.rank
        return self._axpy(zero, backend.field.neg(backend.field.one), self)

    @property
    def is_zero(self) -> bool:
        b = self.ctx.backend
        return all(b.is_zero(e) for row in self.rows for e in row)

    def twisted(self, k: int = 1) -> "MatrixMap":
        """Apply the suspension to the map: offsets move, entries do not."""
        if k == 0:
            return self
        return MatrixMap(self.ctx, self.source.twist(k), self.target.twist(k), self.rows)

    def format_rows(self):
        fmt = self.ctx.backend.format
        return [[fmt(e) for e in row] for row in self.rows]

    def __repr__(self):
        body = "; ".join(", ".join(row) for row in self.format_rows())
        return f"[{body}] : {self.source} -> {self.target}"


def compose(g: MatrixMap, f: MatrixMap) -> MatrixMap:
    """g after f.  Entry (i,k) = sum_j f[j][k] * g[i][j], as one
    backend ``matmul``."""
    if f.ctx is not g.ctx and f.ctx != g.ctx:
        raise ShapeMismatch("maps from different contexts")
    if f.target != g.source:
        raise ShapeMismatch(f"cannot compose: {f.target} != {g.source}")
    rows = f.ctx.backend.matmul(g.rows, f.rows, f.source.rank)
    return MatrixMap(f.ctx, f.source, g.target, rows)


def compose_chain(maps) -> MatrixMap:
    """Compose left-to-right in application order: maps[0] first."""
    maps = list(maps)
    out = maps[0]
    for nxt in maps[1:]:
        out = compose(nxt, out)
    return out


def eta_map(obj: FreeObj, ctx: Context) -> MatrixMap:
    """Multiplication by w, from M to its twist; block-diagonal by design."""
    return MatrixMap._diagonal(ctx, obj, obj.twist(), ctx.eta)


def naturality_check(f: MatrixMap) -> bool:
    """eta after f equals the twisted f after eta."""
    ctx = f.ctx
    lhs = compose(eta_map(f.target, ctx), f)
    rhs = compose(f.twisted(1), eta_map(f.source, ctx))
    return lhs == rhs


def block2x2(tl: MatrixMap, tr: MatrixMap, bl: MatrixMap, br: MatrixMap) -> MatrixMap:
    """[[tl, tr], [bl, br]] with source/target concatenations."""
    ctx = tl.ctx
    if tl.source != bl.source or tr.source != br.source:
        raise ShapeMismatch("column sources differ")
    if tl.target != tr.target or bl.target != br.target:
        raise ShapeMismatch("row targets differ")
    source = tl.source.concat(tr.source)
    target = tl.target.concat(bl.target)
    rows = []
    for i in range(tl.target.rank):
        rows.append(tuple(tl.rows[i]) + tuple(tr.rows[i]))
    for i in range(bl.target.rank):
        rows.append(tuple(bl.rows[i]) + tuple(br.rows[i]))
    return MatrixMap(ctx, source, target, tuple(rows))


def block_diag(a: MatrixMap, b: MatrixMap) -> MatrixMap:
    return block2x2(
        a,
        MatrixMap.zero(a.ctx, b.source, a.target),
        MatrixMap.zero(a.ctx, a.source, b.target),
        b,
    )


def row_block(left: MatrixMap, right: MatrixMap) -> MatrixMap:
    """[left right]: same target, concatenated sources."""
    if left.target != right.target:
        raise ShapeMismatch("row targets differ")
    rows = tuple(
        tuple(l) + tuple(r) for l, r in zip(left.rows, right.rows)
    )
    return MatrixMap(left.ctx, left.source.concat(right.source), left.target, rows)


def col_block(top: MatrixMap, bottom: MatrixMap) -> MatrixMap:
    """[top; bottom]: same source, concatenated targets."""
    if top.source != bottom.source:
        raise ShapeMismatch("column sources differ")
    rows = tuple(top.rows) + tuple(bottom.rows)
    return MatrixMap(top.ctx, top.source, top.target.concat(bottom.target), rows)
