"""One application body, two calling conventions (DESIGN.md §4).

Each application's decisions are generator methods, written once.  Over the
cluster a simulation process drives them: a primitive that talks to a
server yields until the reply.  A local primitive does its work in-process
and never yields, so the same body runs to its end in one step —
:func:`run_synchronously` is that trampoline, and :func:`done` is how a
local primitive hands back a plain result to a body's ``yield from``.
"""

from __future__ import annotations

from typing import Any, Generator


def run_synchronously(body: Generator) -> Any:
    """Run a body whose primitives never yield; return its value.

    A yield means a primitive that needs a scheduler leaked into a local
    run: that is a bug, and raises rather than being silently resumed.
    """
    try:
        effect = next(body)
    except StopIteration as finished:
        return finished.value
    raise RuntimeError(f"a local body yielded {effect!r}")


def done(value: Any = None) -> Generator:
    """A body already finished with ``value``: ``yield from done(x)`` is x."""
    return value
    yield  # unreachable: makes this a generator function
