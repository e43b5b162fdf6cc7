"""Action structures (§3), implemented uniformly with colours (§5).

The application builder "thinks in terms of the action structures … and the
colour assignments are generated automatically" (§6).  Offered here:

- :class:`SerializingAction` (§3.1, figs. 3/11) — constituents commit
  top-level (their effects survive), but all their locks are retained by
  the enclosing control action until it ends.
- :class:`GluedGroup` (§3.2, figs. 5/6/12) — each member is a top-level
  action; a chosen subset of objects is handed over, atomically pinned for
  the next member, while everything else is released at member commit.
- :func:`independent_top_level` / :class:`AsyncIndependent` (§3.3,
  figs. 7/13) — top-level actions invoked from within an action, committing
  or aborting independently of the invoker.
- :func:`independent_relative_to` (§5.6, figs. 14/15) — n-level independent
  actions: permanence decided at a designated ancestor.
- :class:`CompensationScope` (§3.4) — the paper's "further research" hook:
  compensating actions scheduled automatically when a governing action
  aborts after its constituents have committed.
"""

from repro.structures.serializing import SerializingAction
from repro.structures.glued import GluedGroup
from repro.structures.independent import AsyncIndependent, independent_top_level
from repro.structures.schemes import independence_markers
from repro.structures.nlevel import independent_relative_to
from repro.structures.compensation import CompensationScope

__all__ = [
    "SerializingAction",
    "GluedGroup",
    "independent_top_level",
    "AsyncIndependent",
    "independence_markers",
    "independent_relative_to",
    "CompensationScope",
]
