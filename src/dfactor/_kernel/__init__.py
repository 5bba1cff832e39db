"""Polynomial term kernel.

``ops_for(field, order)`` returns the operation set the ring layer
uses: the functions of :mod:`.pure` with the field and the order's keys
bound once.  ``divmod_basis`` is the one division, of vectors by a
:class:`.pure.Divisors` table; ring normal forms are its one-position
case.  ``HAVE_SPEEDUPS`` is always False; it stays for tools that
report which kernel ran.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import pure

HAVE_SPEEDUPS = False


class KernelOps(NamedTuple):
    name: str
    add: Callable
    neg: Callable
    scale: Callable
    shift: Callable
    mul: Callable
    dot: Callable
    axpy: Callable
    divmod_basis: Callable


def ops_for(field, order) -> KernelOps:
    heap_key = order.heap_key
    return KernelOps(
        name="pure",
        add=lambda a, b: pure.add(a, b, field, heap_key),
        neg=lambda a: pure.neg(a, field),
        scale=lambda a, c: pure.scale(a, c, field),
        shift=lambda a, m, c: pure.shift(a, m, c, field),
        mul=lambda a, b: pure.mul(a, b, field, heap_key),
        dot=lambda pairs: pure.dot(pairs, field, heap_key),
        axpy=lambda a, s, b: pure.axpy(a, s, b, field, heap_key),
        divmod_basis=lambda v, table: pure.divmod_basis(v, table, field, heap_key),
    )
