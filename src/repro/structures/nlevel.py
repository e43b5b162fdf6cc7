"""N-level independent actions (§5.6, figs. 14/15).

A top-level independent action's permanence is decided by nobody; an
*n-level* independent action's permanence is decided by a designated
ancestor: in fig. 14, E (invoked from B) survives B's abort but is undone
if A aborts — E is independent *relative to A*.

Colour scheme (fig. 15): the anchor A possesses a dedicated *marker*
colour (blue) in addition to its working colours; E is coloured with just
the marker.  E's commit then routes its locks and undo records to A (the
closest blue ancestor), while B (red only) has no say.

Use :func:`repro.structures.schemes.independence_markers` when creating
the anchor, then :func:`independent_relative_to` at the invocation site;
the marker choice itself is :func:`repro.structures.schemes.marker_for`.
"""

from __future__ import annotations

from typing import Optional

from repro.actions.action import Action
from repro.colours.colour import Colour
from repro.runtime.runtime import AMBIENT, LocalRuntime
from repro.runtime.scope import ActionScope
from repro.structures.schemes import marker_for


def independent_relative_to(runtime: LocalRuntime, anchor: Action,
                            parent=AMBIENT, marker: Optional[Colour] = None,
                            name: str = "nlevel-independent") -> ActionScope:
    """An action, nested at the call site, whose fate is anchored at ``anchor``.

    ``parent`` defaults to the ambient action.  The marker colour is chosen
    automatically (:func:`repro.structures.schemes.marker_for`): a colour
    the anchor possesses that no action from the parent up to the anchor
    possesses (otherwise an intermediate would capture the commit routing).
    Raises :class:`ColourError` when the anchor has no usable marker —
    create the anchor with ``independence_markers`` colours added.
    """
    invoker = runtime.resolve_parent(parent)
    return runtime.coloured([marker_for(anchor, invoker, marker)], invoker, name)
