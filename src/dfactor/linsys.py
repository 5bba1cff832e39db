"""Linear systems over a backend, written as matrix equations.

Every linear problem of the package is one of these: homotopy decision
(``s_i f_i + g_{i-1} s_{i-1} = phi_i - phi'_i``), the lifting problem of
the reduction functor ("modulo f" is an unknown multiple of f), the
factors-through certificate eta = h*f of a reduction, the defining
squares of a hom space, and the field rank of an algebra map
(:meth:`LinearSystem.field_rank`).  A :class:`LinearSystem` holds
unknown blocks and equations once and lays them out as one flat system:
unknown blocks in the order they were added, each row-major; equations
in the order they were added, each entry row-major.

Over a quotient ring the flat system goes to the module Gröbner solver
(:func:`modgb.solve_linear`).  Every field matrix comes from one field
lowering (:meth:`LinearSystem._field_columns`): each unknown is set in
turn to each element of a field basis of the backend, the products one
equation gets from it are summed by one backend ``dot``, and the sum is
expanded into (equation, unit) coordinates.  Over a finite-dimensional
algebra the columns are placed densely (:meth:`algebra_matrix`) and the
system goes to :func:`linalg.solve`; hom spaces number the rows in
order of first appearance (:meth:`field_matrix`) and take a kernel
(:meth:`field_kernel`).
"""

from __future__ import annotations

from . import linalg
from .fdalg import FDAlgebra
from .modgb import LinearSolution, solve_linear
from .rings import QuotientRing


class LinearSystem:
    """Matrix-shaped unknowns and matrix equations over one backend.

    A term ``(u, C, side)`` of an equation stands for the composite
    ``u C`` (C applied first, as in ``compose(u, C)``) when ``side`` is
    ``"right"`` and for ``C u`` when it is ``"left"``; ``C`` is a grid
    (row tuples) of backend elements.
    """

    def __init__(self, backend):
        self.backend = backend
        self.field = backend.field
        self.blocks = []  # (rows, cols, flat index of entry (0, 0))
        self.size = 0
        self.terms = []  # per scalar equation: its (flat unknown index, coefficient, side)
        self.rhs = []

    def unknown(self, rows: int, cols: int) -> int:
        """Add a rows x cols block of unknowns; returns its handle."""
        self.blocks.append((rows, cols, self.size))
        self.size += rows * cols
        return len(self.blocks) - 1

    def equation(self, terms, rhs):
        """Add ``sum(terms) = rhs`` entrywise (``rhs`` a grid)."""
        is_zero = self.backend.is_zero
        for a, rhs_row in enumerate(rhs):
            for b, value in enumerate(rhs_row):
                row = []
                for u, coeff, side in terms:
                    rows, cols, offset = self.blocks[u]
                    if side == "right":  # (u C)[a][b] = sum_j u[a][j] C[j][b]
                        cells = ((offset + a * cols + j, coeff[j][b]) for j in range(cols))
                    else:  # (C u)[a][b] = sum_j C[a][j] u[j][b]
                        cells = ((offset + j * cols + b, coeff[a][j]) for j in range(rows))
                    row.extend((k, c, side) for k, c in cells if not is_zero(c))
                self.terms.append(row)
                self.rhs.append(value)

    # -- the field lowering ---------------------------------------------

    def _field_columns(self, basis):
        """One column per (unknown, basis element), unknown-major.

        The unknown is set to the basis element e.  Its products with
        the coefficients of one equation (``c e`` for a right term and
        ``e c`` for a left one: compose multiplies entries with the map
        applied first on the left) are summed by one backend ``dot``,
        and a nonzero sum is expanded into its field coordinates.  A column
        is a list of ``(equation, unit, coefficient)``, equations
        ascending; units are coordinate indices over an algebra and
        monomials over a ring.
        """
        backend, zero = self.backend, self.field.zero
        dot, is_zero = backend.dot, backend.is_zero
        if isinstance(backend, FDAlgebra):
            def units(a):
                return [(t, cf) for t, cf in enumerate(a) if cf != zero]
        else:
            def units(a):
                return a.terms
        # per unknown: equation -> its (coefficient, side) terms, equations ascending
        touches = [{} for _ in range(self.size)]
        for i, terms in enumerate(self.terms):
            for k, c, side in terms:
                touches[k].setdefault(i, []).append((c, side))
        for touched in touches:
            for e in basis:
                column = []
                for i, cells in touched.items():
                    s = dot([(c, e) if side == "right" else (e, c) for c, side in cells])
                    if not is_zero(s):
                        column.extend((i, unit, cf) for unit, cf in units(s))
                yield column

    def field_matrix(self, basis):
        """Field matrix of the homogeneous system, unknowns expanded over
        ``basis``: rows are the (equation, unit) pairs in order of first
        appearance, scanning columns in order."""
        index: dict = {}
        cols = [
            {index.setdefault((i, unit), len(index)): cf for i, unit, cf in column}
            for column in self._field_columns(basis)
        ]
        mat = [[self.field.zero] * len(cols) for _ in range(len(index))]
        for j, col in enumerate(cols):
            for i, cf in col.items():
                mat[i][j] = cf
        return mat

    def field_kernel(self, basis):
        """Coordinate vectors (see :meth:`decode`) of a basis of the
        solutions of the homogeneous system with every unknown in the
        field span of ``basis``."""
        mat = self.field_matrix(basis) or [[self.field.zero] * (self.size * len(basis))]
        return linalg.kernel_basis(mat, self.field)

    def algebra_matrix(self):
        """``(mat, rhs)``: the whole system over a finite-dimensional
        algebra as one field system.  Row ``i*dim + t`` is coordinate t
        of scalar equation i, column ``k*dim + b`` is unknown k set to
        basis element b."""
        alg: FDAlgebra = self.backend
        dim = alg.dim
        mat = [[self.field.zero] * (self.size * dim) for _ in range(len(self.terms) * dim)]
        basis = [alg.basis(b) for b in range(dim)]
        for j, column in enumerate(self._field_columns(basis)):
            for i, t, cf in column:
                mat[i * dim + t][j] = cf
        return mat, [v for value in self.rhs for v in value]

    def field_rank(self) -> int:
        """Field rank of the homogeneous system over an algebra."""
        return linalg.rank(self.algebra_matrix()[0], self.field)

    def decode(self, vec, basis):
        """Grids per block of the unknowns whose coordinates over
        ``basis`` are ``vec`` (unknown-major): one backend product of
        the grid of coordinates, as constants, with ``basis`` as a
        column."""
        backend, nb = self.backend, len(basis)
        one, scale, zero = backend.one(), backend.scale, backend.zero()
        coords = [
            [scale(one, c) if c else zero for c in vec[k * nb: (k + 1) * nb]]
            for k in range(self.size)
        ]
        values = backend.matmul(coords, [[e] for e in basis], 1)
        return self._grids([row[0] for row in values])

    def _grids(self, values):
        return [
            [values[offset + a * cols: offset + (a + 1) * cols] for a in range(rows)]
            for rows, cols, offset in self.blocks
        ]

    # -- solving ----------------------------------------------------------

    def solve(self):
        """``(grids, None)`` with one grid per unknown block, or
        ``(None, certificate)`` when the system has no solution."""
        if not self.terms:  # no equations: zero solves them
            return self._grids([self.backend.zero()] * self.size), None
        if isinstance(self.backend, QuotientRing):
            return self._solve_ring()
        return self._solve_algebra()

    def _solve_ring(self):
        ring: QuotientRing = self.backend
        zero = ring.zero()
        rows = []
        for terms in self.terms:
            row = [zero] * self.size
            for k, c, _ in terms:
                row[k] = c if row[k].is_zero else ring.add(row[k], c)
            rows.append(row)
        outcome = solve_linear(rows, self.rhs, ring)
        if not isinstance(outcome, LinearSolution):
            return None, outcome
        return self._grids(list(outcome.solution)), None

    def _solve_algebra(self):
        mat, rhs = self.algebra_matrix()
        x, cert = linalg.solve(mat, rhs, self.field)
        if cert is not None:
            return None, cert
        return self.decode(x, [self.backend.basis(b) for b in range(self.backend.dim)]), None
