"""Finite-dimensional algebras over an exact field, by structure constants.

The noncommutative backend: basis labels, a multiplication table, and
a distinguished unit.  Construction validates the unit laws and full
associativity (dimension is capped, so exhaustive checking stays
cheap).  Elements are coordinate tuples over the field.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import ParseError
from .exprs import parse_with_alg
from .fields import field_from_json, field_to_json

DIM_CAP = 64


class FDAlgebra:
    """Associative unital algebra with chosen basis.

    ``table[i][j]`` holds the coordinates of basis_i * basis_j.
    ``words`` (parallel to labels) records each basis element as a
    product of generators when the algebra came from a monomial
    presentation; the unit is the empty word.
    """

    def __init__(self, field, labels, table, unit_index, words=None, gens=None,
                 monomial_rels=None):
        if len(labels) > DIM_CAP:
            raise ValueError(f"dimension {len(labels)} exceeds cap {DIM_CAP}")
        self.field = field
        self.labels = tuple(labels)
        self.dim = len(labels)
        self.table = tuple(tuple(tuple(c) for c in row) for row in table)
        self.unit_index = unit_index
        self.words = tuple(tuple(w) for w in words) if words is not None else None
        self.gens = tuple(gens) if gens is not None else None
        self.monomial_rels = tuple(monomial_rels) if monomial_rels is not None else None
        self._validate()

    # -- construction checks -------------------------------------------

    def _validate(self):
        f = self.field
        dim = self.dim
        unit = self.basis(self.unit_index)
        for i in range(dim):
            e = self.basis(i)
            if self.mul(unit, e) != e or self.mul(e, unit) != e:
                raise ValueError(f"unit law fails at basis {self.labels[i]!r}")
        for i in range(dim):
            for j in range(dim):
                ij = tuple(self.table[i][j])
                for k in range(dim):
                    left = self.mul(ij, self.basis(k))
                    right = self.mul(self.basis(i), tuple(self.table[j][k]))
                    if left != right:
                        raise ValueError(
                            "associativity fails at "
                            f"({self.labels[i]}, {self.labels[j]}, {self.labels[k]})"
                        )

    # -- element arithmetic ---------------------------------------------

    def zero(self):
        return (self.field.zero,) * self.dim

    def one(self):
        return self.basis(self.unit_index)

    def basis(self, i: int):
        return tuple(
            self.field.one if j == i else self.field.zero for j in range(self.dim)
        )

    def add(self, a, b):
        return tuple(self.field.add(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.field.neg(x) for x in a)

    def scale(self, a, c):
        from fractions import Fraction

        if isinstance(c, (int, Fraction)):
            c = self.field.from_fraction(Fraction(c))
        return tuple(self.field.mul(x, c) for x in a)

    def mul(self, a, b):
        return self.dot(((a, b),))

    def dot(self, pairs):
        """The sum of the products a*b over ``pairs``, accumulated into
        one coordinate list; each product keeps its factor order.  F_p
        coordinates accumulate as native ints, reduced once."""
        p = self.field.char
        out = [self.field.zero] * self.dim
        for a, b in pairs:
            for i, ai in enumerate(a):
                if not ai:
                    continue
                row = self.table[i]
                for j, bj in enumerate(b):
                    if not bj:
                        continue
                    c = ai * bj
                    for k, t in enumerate(row[j]):
                        if t:
                            out[k] += c * t
        if p:
            return tuple(v % p for v in out)
        return tuple(out)

    def matmul(self, g_rows, f_rows, ncols):
        """The rows of g after f, for grids of elements with ``ncols``
        columns in f: entry (i, k) is the :meth:`dot` of the pairs
        (f[j][k], g[i][j]) with both factors nonzero."""
        f_live = [[(k, e) for k, e in enumerate(row) if any(e)] for row in f_rows]
        zero, dot = self.zero(), self.dot
        rows = []
        for g_row in g_rows:
            pairs = [[] for _ in range(ncols)]
            for gij, live in zip(g_row, f_live):
                if any(gij):
                    for k, fjk in live:
                        pairs[k].append((fjk, gij))
            rows.append(tuple(dot(ps) if ps else zero for ps in pairs))
        return tuple(rows)

    def axpy(self, a_rows, s, b_rows):
        """The grid a + s*b, entry by entry, for a field element s."""
        p = self.field.char
        if p:
            def comb(a, b):
                return tuple((x + s * y) % p for x, y in zip(a, b))
        else:
            def comb(a, b):
                return tuple(x + s * y for x, y in zip(a, b))
        return tuple(tuple(map(comb, ra, rb)) for ra, rb in zip(a_rows, b_rows))

    def canon(self, a):
        return tuple(a)

    def is_zero(self, a) -> bool:
        return all(x == self.field.zero for x in a)

    # -- parsing and printing ---------------------------------------------

    def parse(self, text: str):
        return parse_with_alg(text, self)

    def const(self, q):
        return self.scale(self.one(), q)

    def atom(self, name):
        """The generator ``name`` (zero when the word is not a basis word)."""
        if self.gens is None or name not in self.gens:
            raise ParseError(f"unknown generator {name!r}")
        idx = self._word_index((name,))
        return self.basis(idx) if idx is not None else self.zero()

    def _word_index(self, word):
        if self.words is None:
            return None
        try:
            return self.words.index(tuple(word))
        except ValueError:
            return None

    def format(self, a) -> str:
        f = self.field
        chunks = []
        for i, c in enumerate(a):
            if c == f.zero:
                continue
            label = self.labels[i]
            if label == "1":
                body = f.format(c)
            elif c == f.one:
                body = label
            else:
                body = f"{f.format(c)}*{label}"
            chunks.append(body if not chunks else "+ " + body)
        return " ".join(chunks) if chunks else "0"

    def to_json(self) -> dict:
        if self.monomial_rels is not None and self.gens is not None:
            return {
                "field": field_to_json(self.field),
                "gens": list(self.gens),
                "monomial_rels": list(self.monomial_rels),
            }
        out = {
            "field": field_to_json(self.field),
            "basis": list(self.labels),
            "unit": self.unit_index,
            "table": [
                [[self.field.format(c) for c in cell] for cell in row]
                for row in self.table
            ],
        }
        if self.gens is not None:
            out["gens"] = list(self.gens)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, FDAlgebra)
            and other.field == self.field
            and other.labels == self.labels
            and other.table == self.table
            and other.unit_index == self.unit_index
        )

    def __hash__(self):
        return hash((self.field, self.labels, self.unit_index))

    def __repr__(self):
        return f"FDAlgebra(dim={self.dim}, basis=[{', '.join(self.labels)}])"


def _split_word(text: str, gens) -> tuple:
    if "*" in text:
        parts = tuple(text.split("*"))
    else:
        parts = tuple(text)
    for g in parts:
        if g not in gens:
            raise ParseError(f"relation word {text!r} uses unknown generator {g!r}")
    return parts


def monomial_algebra(gens, relation_words, field, degree_cap: int = 12) -> FDAlgebra:
    """Path-algebra style quotient k<gens>/(monomial relations).

    Basis: words containing no relation word as a contiguous subword;
    multiplication is concatenate-then-annihilate.  Raises when words
    survive at the degree cap (the algebra is not visibly finite).
    """
    gens = tuple(gens)
    rels = [_split_word(w, gens) for w in relation_words]

    def alive(word) -> bool:
        for r in rels:
            L = len(r)
            if L == 0:
                return False
            for s in range(len(word) - L + 1):
                if word[s : s + L] == r:
                    return False
        return True

    words = [()]
    frontier = [()]
    length = 0
    while frontier:
        length += 1
        if length > degree_cap:
            raise ValueError(f"monomial basis not closed within degree cap {degree_cap}")
        nxt = []
        for w in frontier:
            for g in gens:
                w2 = w + (g,)
                if alive(w2):
                    nxt.append(w2)
        words.extend(nxt)
        frontier = nxt
        if len(words) > DIM_CAP:
            raise ValueError(f"dimension {len(words)} exceeds cap {DIM_CAP}")

    index = {w: i for i, w in enumerate(words)}
    dim = len(words)
    zero = [field.zero] * dim
    table = []
    for wi in words:
        row = []
        for wj in words:
            prod = wi + wj
            cell = list(zero)
            if alive(prod):
                cell[index[prod]] = field.one
            row.append(tuple(cell))
        table.append(tuple(row))
    labels = ["1" if not w else "*".join(w) for w in words]
    return FDAlgebra(
        field, labels, table, 0, words=words, gens=gens,
        monomial_rels=list(relation_words),
    )


class AlgebraMap:
    """Field-linear map between algebras, stored by basis images.

    Validated to be unital and multiplicative on every basis pair; when
    flagged as an automorphism it must also be bijective.
    """

    def __init__(self, source: FDAlgebra, target: FDAlgebra, images, automorphism=False):
        self.source = source
        self.target = target
        self.images = tuple(tuple(v) for v in images)
        self.automorphism = automorphism
        if len(self.images) != source.dim:
            raise ValueError("one image per source basis element required")
        self._validate()

    @classmethod
    def from_generator_images(cls, alg: FDAlgebra, gen_images: dict, automorphism=True):
        """Extend x -> image(x) multiplicatively along basis words."""
        if alg.words is None or alg.gens is None:
            raise ValueError("generator images need a word-based algebra")
        parsed = {g: alg.parse(expr) if isinstance(expr, str) else tuple(expr)
                  for g, expr in gen_images.items()}
        missing = [g for g in alg.gens if g not in parsed]
        if missing:
            raise ParseError(f"no image given for generator(s) {missing}")
        images = []
        for word in alg.words:
            v = alg.one()
            for g in word:
                v = alg.mul(v, parsed[g])
            images.append(v)
        return cls(alg, alg, images, automorphism=automorphism)

    def _validate(self):
        src, tgt = self.source, self.target
        if self.images[src.unit_index] != tgt.one():
            raise ValueError("map is not unital")
        for i in range(src.dim):
            for j in range(src.dim):
                lhs = self.apply(src.table[i][j])
                rhs = tgt.mul(self.images[i], self.images[j])
                if lhs != rhs:
                    raise ValueError(
                        f"map not multiplicative at ({src.labels[i]}, {src.labels[j]})"
                    )
        if self.automorphism:
            mat = [[self.images[j][i] for j in range(src.dim)] for i in range(tgt.dim)]
            if src.dim != tgt.dim or linalg.rank(mat, src.field) != src.dim:
                raise ValueError("flagged automorphism is not invertible")

    def apply(self, a):
        tgt = self.target
        out = tgt.zero()
        for j, c in enumerate(a):
            if c != self.source.field.zero:
                out = tgt.add(out, tgt.scale(self.images[j], c))
        return out

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraMap)
            and other.source == self.source
            and other.target == self.target
            and other.images == self.images
        )

    def __hash__(self):
        return hash((self.source, self.target, self.images))


@dataclass(frozen=True)
class CentralElement:
    """Element w with the centrality law that makes multiplication-by-w
    a module map into the twisted module.

    With a twist nu attached the law is w*b = nu(b)*w for all basis b;
    with the identity twist it is plain centrality w*b = b*w.
    """

    algebra: FDAlgebra
    coords: tuple

    def check_central(self, nu: AlgebraMap | None = None):
        """Returns (ok, witness_label)."""
        alg = self.algebra
        w = self.coords
        for i in range(alg.dim):
            b = alg.basis(i)
            lhs = alg.mul(w, b)
            rhs = alg.mul(nu.apply(b) if nu is not None else b, w)
            if lhs != rhs:
                return False, alg.labels[i]
        return True, None


@dataclass(frozen=True)
class TwistReport:
    """check_twist_compatibility outcome, both conditions separately."""

    twisted_central: bool
    fixes_w_multiples: bool
    witness: str | None

    @property
    def ok(self) -> bool:
        return self.twisted_central and self.fixes_w_multiples


def check_twist_compatibility(nu: AlgebraMap, w: CentralElement) -> TwistReport:
    """w*b = nu(b)*w for all basis b, and nu(w*r) = w*r for all basis r."""
    alg = w.algebra
    central, witness = w.check_central(nu)
    if not central:
        return TwistReport(False, False, witness)
    for i in range(alg.dim):
        wr = alg.mul(w.coords, alg.basis(i))
        if nu.apply(wr) != wr:
            return TwistReport(True, False, alg.labels[i])
    return TwistReport(True, True, None)


def is_left_regular(w: CentralElement) -> bool:
    """Injectivity of v -> w*v as a field-linear map: the field rank of
    the 1x1 system ``v w`` (a right term, so its products are w*e)."""
    from .linsys import LinearSystem  # linsys imports this module

    alg = w.algebra
    system = LinearSystem(alg)
    v = system.unknown(1, 1)
    system.equation([(v, ((w.coords,),), "right")], [[alg.zero()]])
    mat, _ = system.algebra_matrix()
    return linalg.rank(mat, alg.field) == alg.dim


def quotient_by_central(B: FDAlgebra, w: CentralElement, nu: AlgebraMap | None = None):
    """A = B/(BwB) with its projection map.

    The two-sided ideal is the field span of the left multiples b_i*w:
    w*b = nu(b)*w with nu unital, so each b_i*w*b_j is b_i*nu(b_j)*w.
    Pivots are chosen at the highest basis index so the earliest-listed
    words survive as representatives of the quotient basis.
    """
    ok, witness = w.check_central(nu)
    if not ok:
        raise ValueError(f"element fails its centrality law at basis {witness!r}")
    field = B.field
    p = field.char
    span_rows = [v for v in (B.mul(B.basis(i), w.coords) for i in range(B.dim)) if any(v)]
    # eliminate with columns scanned right-to-left
    red, pivots = linalg.rref([row[::-1] for row in span_rows], field)
    # each ideal row is 1 at its pivot and 0 at every other pivot
    ideal = [(B.dim - 1 - c, row[::-1]) for c, row in zip(pivots, red)]
    pivot_cols = sorted(piv for piv, _ in ideal)
    kept = [i for i in range(B.dim) if i not in pivot_cols]
    if B.unit_index in pivot_cols:
        raise ValueError("ideal contains the unit; quotient is the zero algebra")

    def reduce_vec(v):
        v = list(v)
        for piv, row in ideal:
            c = v[piv]
            if c:
                v = [(a - c * b) % p if p else a - c * b for a, b in zip(v, row)]
        return tuple(v[i] for i in kept)

    labels = [B.labels[i] for i in kept]
    words = [B.words[i] for i in kept] if B.words is not None else None
    table = [tuple(reduce_vec(B.table[ii][jj]) for jj in kept) for ii in kept]
    A = FDAlgebra(field, labels, table, kept.index(B.unit_index), words=words, gens=B.gens)
    proj_images = [reduce_vec(B.basis(i)) for i in range(B.dim)]
    projection = AlgebraMap(B, A, proj_images, automorphism=False)
    return A, projection


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _square(grid, n: int) -> bool:
    return isinstance(grid, list) and len(grid) == n


def algebra_from_json(desc: dict) -> FDAlgebra:
    field = field_from_json(desc.get("field", {}))
    gens = desc.get("gens")
    if gens is not None and not _strings(gens):
        raise ParseError("\"gens\" must be a list of generator names")
    if gens is not None and "monomial_rels" in desc:
        rels = desc["monomial_rels"]
        cap = desc.get("degree_cap", 12)
        if not _strings(rels) or not _int(cap):
            raise ParseError("\"monomial_rels\" must be a list of words, \"degree_cap\" an integer")
        return monomial_algebra(gens, rels, field, degree_cap=cap)
    if "basis" in desc and "table" in desc:
        from fractions import Fraction

        def coeff(text):
            return field.from_fraction(Fraction(text))

        labels, table, unit = desc["basis"], desc["table"], desc.get("unit", 0)
        n = len(labels) if _strings(labels) else 0
        rows_ok = _square(table, n) and all(_square(row, n) for row in table)
        if not n or not _int(unit) or not rows_ok or not all(
            _square(cell, n) and all(isinstance(c, (str, int)) for c in cell)
            for row in table
            for cell in row
        ):
            raise ParseError("\"table\" needs one coordinate list per pair of basis labels")
        table = [[tuple(coeff(c) for c in cell) for cell in row] for row in table]
        words = [() if lab == "1" else tuple(lab.split("*")) for lab in labels]
        return FDAlgebra(field, labels, table, unit, words=words, gens=gens)
    raise ParseError("algebra description needs gens/monomial_rels or basis/table")
