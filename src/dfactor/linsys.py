"""Linear systems over a backend, written as matrix equations.

Homotopy decision and the lifting problem of the reduction functor both
ask for matrices of unknowns satisfying equations such as
``s_i f_i + g_{i-1} s_{i-1} = phi_i - phi'_i``.  A :class:`LinearSystem`
holds such unknown blocks and equations once and lays them out as one
flat system: unknown blocks in the order they were added, each row-major;
equations in the order they were added, each entry row-major.

Over a quotient ring the flat system goes to the module Gröbner solver
(:func:`modgb.solve_linear`); over a finite-dimensional algebra each
coefficient becomes its multiplication matrix and the field system goes
to :func:`linalg.solve`.
"""

from __future__ import annotations

import time

from . import linalg
from .errors import DeadlineExceeded
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
        self.blocks = []  # (rows, cols, flat index of entry (0, 0))
        self.size = 0
        self.terms = []  # per scalar equation: its (flat unknown index, coefficient, side)
        self.rhs = []
        self.modulo = []  # per scalar equation: extra generators it is taken modulo

    def unknown(self, rows: int, cols: int) -> int:
        """Add a rows x cols block of unknowns; returns its handle."""
        self.blocks.append((rows, cols, self.size))
        self.size += rows * cols
        return len(self.blocks) - 1

    def equation(self, terms, rhs, modulo=()):
        """Add ``sum(terms) = rhs`` entrywise (``rhs`` a grid), each entry
        taken modulo the generators ``modulo`` on top of the backend's
        own relations."""
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
                self.modulo.append(tuple(modulo))

    def solve(self, deadline: float | None = None):
        """``(grids, None)`` with one grid per unknown block, or
        ``(None, certificate)`` when the system has no solution."""
        if not self.terms:  # no equations: zero solves them
            values, cert = [self.backend.zero()] * self.size, None
        elif isinstance(self.backend, QuotientRing):
            values, cert = self._solve_ring(deadline)
        elif isinstance(self.backend, FDAlgebra):
            values, cert = self._solve_algebra(deadline)
        else:
            raise TypeError("unsupported backend")
        if cert is not None:
            return None, cert
        grids = [
            [values[offset + a * cols: offset + (a + 1) * cols] for a in range(rows)]
            for rows, cols, offset in self.blocks
        ]
        return grids, None

    def _solve_ring(self, deadline):
        ring: QuotientRing = self.backend
        zero = ring.zero()
        rows = []
        for terms in self.terms:
            row = [zero] * self.size
            for k, c, _ in terms:
                row[k] = c if row[k].is_zero else ring.add(row[k], c)
            rows.append(row)
        outcome = solve_linear(rows, self.rhs, ring, deadline=deadline, modulo=self.modulo)
        if not isinstance(outcome, LinearSolution):
            return None, outcome
        return list(outcome.solution), None

    def _solve_algebra(self, deadline):
        alg: FDAlgebra = self.backend
        if any(self.modulo):
            raise TypeError("extra moduli need a quotient-ring backend")
        # compose multiplies entries with the map applied first on the
        # left, so u C multiplies u's entries by C's on the left
        mult = {"right": "left", "left": "right"}
        mat = alg.block_matrix(
            ((i, k, c, mult[side]) for i, terms in enumerate(self.terms) for k, c, side in terms),
            len(self.terms),
            self.size,
        )
        rhs = [v for value in self.rhs for v in value]
        if deadline is not None and time.monotonic() > deadline:
            raise DeadlineExceeded("field elimination")
        x, cert = linalg.solve(mat, rhs, alg.field)
        if cert is not None:
            return None, cert
        dim = alg.dim
        return [tuple(x[k * dim: (k + 1) * dim]) for k in range(self.size)], None
