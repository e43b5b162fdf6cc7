"""Type-specific (semantic) concurrency control (§2).

"Another enhancement is to introduce type specific concurrency control …
to permit concurrent read/write or write/write operations on an object
from different atomic actions provided these operations can be shown to be
non interfering."  Following Schwarz & Spector [4] and Parrington &
Shrivastava [5], an object type declares *operation groups* and a
compatibility relation between them; the lock table grants a group lock
when every current holder is either an ancestor or holds a compatible
group.  That is a rule set — :class:`SemanticRules` — for the one
:class:`~repro.locking.table.LockTable`, not a table of its own: the
commutativity relation is the scheduler's parameter (Malta & Martinez).

Semantic locks compose with colours exactly like ordinary locks: requests
name a colour, commit routes each colour's records to the closest
same-coloured ancestor, abort discards them.  Unlike WRITE locks there is
no same-colour restriction between compatible updaters: compatible update
groups must come with *operation-logged undo* (see
:mod:`repro.objects.semantic`), whose compensations commute, so undo
attribution stays unambiguous without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional

from repro.errors import LockingError
from repro.locking.lock import LockRecord
from repro.locking.modes import Mode, mode_label
from repro.locking.owner import is_ancestor
from repro.locking.request import LockRequest
from repro.locking.rules import LockRules, foreign_colour


@dataclass(frozen=True)
class SemanticSpec:
    """A type's operation groups and their compatibility relation.

    ``compatible`` lists unordered pairs that may run concurrently from
    *different* (non-ancestor) actions; everything else conflicts.  A group
    is compatible with itself only if the pair (g, g) is listed.

    ``commuting`` names the subset of groups whose update operations are
    *total and mutually commuting*: applying them in any order against any
    reachable committed state yields the same result and cannot fail.
    That is a strictly stronger contract than self-compatibility — it is
    what lets the commit protocol decide such operations locally (the
    "commute path") instead of running a prepare round, so a group may
    only be declared commuting if it is also self-compatible.
    """

    groups: FrozenSet[str]
    compatible: FrozenSet[FrozenSet[str]]
    commuting: FrozenSet[str] = frozenset()

    @classmethod
    def build(cls, groups, compatible_pairs,
              commuting=()) -> "SemanticSpec":
        groups = frozenset(groups)
        pairs = frozenset(frozenset(pair) for pair in compatible_pairs)
        for pair in pairs:
            if not pair <= groups:
                raise LockingError(f"compatibility pair {set(pair)} uses unknown groups")
        commuting = frozenset(commuting)
        for group in commuting:
            if group not in groups:
                raise LockingError(
                    f"commuting declaration names unknown group {group!r}")
            if frozenset((group, group)) not in pairs:
                raise LockingError(
                    f"commuting group {group!r} must be self-compatible")
        return cls(groups=groups, compatible=pairs, commuting=commuting)

    def is_compatible(self, group_a: str, group_b: str) -> bool:
        return frozenset((group_a, group_b)) in self.compatible

    def is_commuting(self, group: str) -> bool:
        return group in self.commuting

    @cached_property
    def compatible_labels(self) -> Dict[str, str]:
        """group -> the groups compatible with it, sorted and
        comma-joined: a grant's ``compatible`` label, built once."""
        return {group: ",".join(sorted(other for other in self.groups
                                       if self.is_compatible(group, other)))
                for group in self.groups}


class SemanticRules(LockRules):
    """Operation-group locking for one type: the spec is the conflict test.

    A request's ``mode`` names one of the spec's groups.  It is blocked by
    every holder that is neither an ancestor of the requester nor in a
    group compatible with the requested one; colours are possessed or not
    exactly as under :class:`~repro.locking.rules.ColouredRules`.
    """

    def __init__(self, spec: SemanticSpec):
        self.spec = spec

    def validate(self, request: LockRequest) -> Optional[str]:
        if request.mode not in self.spec.groups:
            return f"unknown operation group {mode_label(request.mode)!r}"
        return foreign_colour(request)

    def blockers(self, request: LockRequest, holders: List[LockRecord]) -> List[LockRecord]:
        is_compatible = self.spec.is_compatible
        return [
            record for record in holders
            if not is_compatible(request.mode, record.mode)
            and not is_ancestor(record.owner, request.owner)
        ]

    def join(self, held: Mode, mode: Mode) -> Optional[Mode]:
        """Groups are unordered: a group joins only itself (re-entrant
        grant), so one owner holds one record per group and colour."""
        return held if held == mode else None
