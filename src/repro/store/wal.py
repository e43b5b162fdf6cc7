"""Write-ahead log on stable storage.

The commit protocols append typed records; recovery scans the log from the
start.  Appends are atomic (a record is either wholly present or absent).
The log lives conceptually on the same stable medium as the
:class:`~repro.store.stable.StableStore`, so it too survives crashes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional


#: the record kind a checkpoint leaves on the log
CHECKPOINT_KIND = "checkpoint"


@dataclass(frozen=True)
class LogRecord:
    """One appended record: a kind tag plus an opaque payload dict."""

    lsn: int
    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)


class WriteAheadLog:
    """Append-only record log with scan and checkpoint-truncation."""

    def __init__(self):
        self._records: List[LogRecord] = []
        self._lsn = itertools.count(1)
        #: lsn of the latest :data:`CHECKPOINT_KIND` record (0: none yet)
        self.checkpoint_lsn = 0

    def append(self, kind: str, **payload: Any) -> LogRecord:
        """Append a record; returns it (with its log sequence number)."""
        record = LogRecord(lsn=next(self._lsn), kind=kind, payload=dict(payload))
        self._records.append(record)
        if kind == CHECKPOINT_KIND:
            self.checkpoint_lsn = record.lsn
        return record

    def records(self, kind: Optional[str] = None) -> Iterator[LogRecord]:
        """Scan records in append order, optionally filtered by kind."""
        for record in self._records:
            if kind is None or record.kind == kind:
                yield record

    def last(self, kind: Optional[str] = None,
             where: Optional[Callable[[LogRecord], bool]] = None) -> Optional[LogRecord]:
        """Most recent record matching the filters, or None."""
        for record in reversed(self._records):
            if kind is not None and record.kind != kind:
                continue
            if where is not None and not where(record):
                continue
            return record
        return None

    def truncate_before(self, lsn: int) -> int:
        """Checkpoint: drop records with lsn < ``lsn``; returns count dropped."""
        if not self._records or self._records[0].lsn >= lsn:
            return 0
        before = len(self._records)
        self._records = [r for r in self._records if r.lsn >= lsn]
        return before - len(self._records)

    def summary(self) -> Dict[str, Any]:
        """Read-only log shape for introspection: depth, lsn bounds, kinds.

        ``depth`` counts live records, ``first_lsn``/``last_lsn`` bound the
        undecided suffix a checkpoint kept (0 when empty), and ``kinds``
        histograms the record mix — enough to spot a log that stopped
        truncating without shipping the payloads anywhere.
        """
        kinds: Dict[str, int] = {}
        for record in self._records:
            kinds[record.kind] = kinds.get(record.kind, 0) + 1
        return {
            "depth": len(self._records),
            "first_lsn": self._records[0].lsn if self._records else 0,
            "last_lsn": self._records[-1].lsn if self._records else 0,
            "kinds": kinds,
        }

    def __len__(self) -> int:
        return len(self._records)
