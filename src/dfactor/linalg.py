"""Dense exact linear algebra over a coefficient field.

Matrices are lists of row lists of field elements.  Everything is
exact (Fraction or F_p ints), so ranks and solvability are decisions,
not estimates.  Failed solves come with a Fredholm certificate: a left
null vector of A that pairs nonzero with b.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DeadlineExceeded
from .reuse import expired


def rref(mat, field, pivot_limit=None):
    """Row-reduce in place on a copy; returns (rref, pivot_columns).

    Pivots are taken among the first ``pivot_limit`` columns (all by
    default); the columns after them are carried along.  The deadline
    is polled once per pivot; its error names that pivot and the most
    pivots the matrix can have.  Row operations use native arithmetic:
    over F_p each new entry is one int expression reduced ``% p``, over
    Q the field's own operators.
    """
    p = field.char
    a = [row[:] for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    pivots = []
    r = 0
    limit = n if pivot_limit is None else pivot_limit
    for c in range(limit):
        pivot = next((i for i in range(r, m) if a[i][c]), None)
        if pivot is None:
            continue
        if expired():
            raise DeadlineExceeded(f"field elimination: pivot {r + 1} of {min(m, limit)}")
        a[r], a[pivot] = a[pivot], a[r]
        inv = field.inv(a[r][c])
        if p:
            pr = a[r] = [v * inv % p for v in a[r]]
        else:
            pr = a[r] = [v * inv for v in a[r]]
        for i in range(m):
            f = a[i][c]
            if i != r and f:
                if p:
                    a[i] = [(v - f * w) % p for v, w in zip(a[i], pr)]
                else:
                    a[i] = [v - f * w if w else v for v, w in zip(a[i], pr)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return a, pivots


def rank(mat, field) -> int:
    return len(rref(mat, field)[1])


@dataclass(frozen=True)
class FredholmCertificate:
    """y with y*A = 0 and y*b != 0: re-verifiable witness of no solution."""

    y: tuple

    def reverify(self, mat, rhs, field) -> bool:
        m = len(mat)
        n = len(mat[0]) if m else 0
        for j in range(n):
            acc = field.zero
            for i in range(m):
                acc = field.add(acc, field.mul(self.y[i], mat[i][j]))
            if acc != field.zero:
                return False
        acc = field.zero
        for i in range(m):
            acc = field.add(acc, field.mul(self.y[i], rhs[i]))
        return acc != field.zero


def solve(mat, rhs, field):
    """One solution of A*x = b (free variables zero), or a certificate.

    Returns ``(x, None)`` or ``(None, FredholmCertificate)``.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    # reduce [A | b | I]: the I block of each row writes it as a
    # combination of the rows of A
    a, pivots = rref(
        [list(row) + [rhs[i]] + [field.one if k == i else field.zero for k in range(m)]
         for i, row in enumerate(mat)],
        field,
        pivot_limit=n,
    )
    for row in a[len(pivots):]:
        if row[n] != field.zero:
            return None, FredholmCertificate(tuple(row[n + 1 :]))
    x = [field.zero] * n
    for row_idx, c in enumerate(pivots):
        x[c] = a[row_idx][n]
    return x, None


def kernel_basis(mat, field):
    """Basis of the right kernel of A.  Entries are negated natively, as
    in :func:`rref`: over F_p ``(-x) % p``, over Q ``-x``."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    if n == 0:
        return []
    red, pivots = rref(mat, field)
    p = field.char
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    basis = []
    for j in free:
        v = [field.zero] * n
        v[j] = field.one
        for row_idx, c in enumerate(pivots):
            v[c] = (-red[row_idx][j]) % p if p else -red[row_idx][j]
        basis.append(v)
    return basis

