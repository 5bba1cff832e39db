"""Polynomial term kernel with compiled/pure twins.

``ops_for(field, order)`` returns the bound operation set used by the
ring layer.  The compiled extension (built from ``_speedups.pyx``)
covers prime fields; everything else, and environments without the
extension, run the pure twin.  Set ``DFACTOR_PURE=1`` to force the
pure implementation (used by the parity tests and the benchmark).
"""

from __future__ import annotations

import os
from typing import Callable, NamedTuple

from . import pure

try:
    from . import _speedups  # type: ignore[attr-defined]
except ImportError:
    _speedups = None

HAVE_SPEEDUPS = _speedups is not None


class KernelOps(NamedTuple):
    name: str
    add: Callable
    neg: Callable
    scale: Callable
    shift: Callable
    mul: Callable
    divmod_basis: Callable


def _pure_ops(field, order) -> KernelOps:
    key, heap_key = order.key, order.heap_key
    return KernelOps(
        name="pure",
        add=lambda a, b: pure.add(a, b, field, key),
        neg=lambda a: pure.neg(a, field),
        scale=lambda a, c: pure.scale(a, c, field),
        shift=lambda a, m, c: pure.shift(a, m, c, field),
        mul=lambda a, b: pure.mul(a, b, field, key),
        divmod_basis=lambda f, basis, want_quotients=False: pure.divmod_basis(
            f, basis, field, heap_key, want_quotients
        ),
    )


def _compiled_ops(field, order) -> KernelOps:
    p, code = field.char, order.code
    sp = _speedups
    return KernelOps(
        name="compiled",
        add=lambda a, b: sp.add(a, b, p, code),
        neg=lambda a: sp.neg(a, p),
        scale=lambda a, c: sp.scale(a, c, p),
        shift=lambda a, m, c: sp.shift(a, m, c, p),
        mul=lambda a, b: sp.mul(a, b, p, code),
        divmod_basis=lambda f, basis, want_quotients=False: sp.divmod_basis(
            f, basis, p, code, want_quotients
        ),
    )


def ops_for(field, order, force_pure: bool = False) -> KernelOps:
    if (
        force_pure
        or _speedups is None
        or field.char == 0
        or os.environ.get("DFACTOR_PURE") == "1"
    ):
        return _pure_ops(field, order)
    return _compiled_ops(field, order)
