"""Stable store: survives node crashes.

The paper assumes stable storage "can survive node crashes with high
probability" (§2); the simulation makes that probability one.  Writes are
atomic at whole-state granularity (no torn states), which is the standard
stable-storage abstraction the commit protocols are built against.
"""

from __future__ import annotations

from repro.store.interface import DictBackedStore


class StableStore(DictBackedStore):
    """A diskfull node's object store; unaffected by crashes.

    Shadow states also live on disk (Arjuna writes shadows into the object
    store before commit), so a crash between prepare and decision leaves
    the shadow intact for recovery to promote or discard.
    """

    def crash(self) -> None:
        """Node crash: stable contents are unaffected."""
