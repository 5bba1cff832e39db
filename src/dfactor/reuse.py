"""Work done once per CLI call, within one deadline.

``cli.main`` runs each verb inside :func:`one_call`.  Within it,
:func:`expired` tells every loop that can run long whether the call's
deadline has passed, and :func:`reuse` keeps what a piece of work
returned under a key that determines that result, so a repeat of the
key returns the kept value instead of redoing the work.  The keyed
work is: reduced module Gröbner bases (unique for a fixed order, so a
kept basis is exactly what a recomputation would give), ring elements
parsed from text, and the contexts and factorizations built from JSON
subtrees.

Only results are kept, never errors, so a failing input fails with the
same first error as without the store.  A kept value does no work, so
it polls no deadline.  Outside :func:`one_call` nothing is kept and
nothing expires, and the store and the deadline are dropped however
the call ends.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import time

_STORE: contextvars.ContextVar[dict | None] = contextvars.ContextVar("dfactor_store", default=None)
_DEADLINE: contextvars.ContextVar[float | None] = contextvars.ContextVar(
    "dfactor_deadline", default=None
)
_MISSING = object()


@contextlib.contextmanager
def one_call(deadline: float):
    """A fresh store for the work of one call, and its deadline (a
    ``time.monotonic()`` value); both are dropped on every exit."""
    store = _STORE.set({})
    limit = _DEADLINE.set(deadline)
    try:
        yield
    finally:
        _DEADLINE.reset(limit)
        _STORE.reset(store)


def expired() -> bool:
    """True when the deadline of the enclosing :func:`one_call` has
    passed; each poll raises ``DeadlineExceeded`` saying where it was."""
    deadline = _DEADLINE.get()
    return deadline is not None and time.monotonic() > deadline


def reuse(key, build):
    """``build()``, or inside :func:`one_call` the value it returned the
    first time ``key()`` was seen.  ``key`` is called only when a store
    is open; its tuple starts with the kind of work, so kinds never
    share a key."""
    store = _STORE.get()
    if store is None:
        return build()
    key = key()
    value = store.get(key, _MISSING)
    if value is _MISSING:
        value = store[key] = build()
    return value


def canonical(desc) -> str:
    """The key of a JSON subtree: its text with sorted object keys, so
    two subtrees share a key only when they read the same."""
    return json.dumps(desc, sort_keys=True)
