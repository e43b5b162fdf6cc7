"""Text reports over postmortem records: the ``why`` CLI's output layer.

All functions take plain records (:class:`Postmortem` instances or their
``to_dict`` form is handled by the CLI before it gets here) and return
strings/lines — no I/O, so tests and the CLI share one formatter.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.obs.postmortem.records import Postmortem, UNKNOWN


def reason_histogram(records: Iterable[Postmortem]) -> Dict[str, int]:
    """Aborted-action counts per attributed reason."""
    counts: Dict[str, int] = {}
    for record in records:
        if record.outcome == "aborted":
            reason = record.reason or UNKNOWN
            counts[reason] = counts.get(reason, 0) + 1
    return counts


def top_blockers(records: Iterable[Postmortem],
                 count: int = 10) -> List[Tuple[Tuple[str, str], int]]:
    """(object, colour) pairs most often at the head of a blocker chain."""
    tallies: Dict[Tuple[str, str], int] = {}
    for record in records:
        if record.outcome != "aborted" or not record.blockers:
            continue
        head = record.blockers[0]
        key = (head.object, head.colour)
        tallies[key] = tallies.get(key, 0) + 1
    ranked = sorted(tallies.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:max(0, count)]


def colour_abort_counts(records: Iterable[Postmortem]) -> Dict[str, int]:
    """Per-colour abort totals as the records imply them (one per colour
    of each aborted action — the hub's accounting)."""
    counts: Dict[str, int] = {}
    for record in records:
        if record.outcome != "aborted":
            continue
        for colour in record.colours:
            counts[colour] = counts.get(colour, 0) + 1
    return counts


def crosscheck(records: Iterable[Postmortem],
               metrics_doc: Dict) -> List[str]:
    """Mismatches between attribution totals and the dump's own
    ``actions_aborted_total{colour=}`` counters — empty means the engine
    accounted for every abort the hub counted, colour by colour."""
    counted: Dict[str, float] = {}
    for row in (metrics_doc or {}).get("counters", []):
        if row.get("name") != "actions_aborted_total":
            continue
        colour = (row.get("labels") or {}).get("colour")
        if colour is None:
            continue
        counted[colour] = counted.get(colour, 0.0) + float(row.get("value", 0))
    attributed = colour_abort_counts(records)
    problems: List[str] = []
    for colour in sorted(set(counted) | set(attributed)):
        have, want = attributed.get(colour, 0), counted.get(colour, 0.0)
        if float(have) != want:
            problems.append(
                f"colour {colour}: {have} attributed abort(s) vs "
                f"{want:g} counted by actions_aborted_total")
    return problems


def render_record(record: Postmortem) -> List[str]:
    """One record as indented text lines (record line, then evidence)."""
    lines = [str(record)]
    window = f"  window [{record.begin:g}, {record.end:g}]"
    if record.colours:
        window += " colours " + ",".join(record.colours)
    if record.node:
        window += f" @ {record.node}"
    lines.append(window)
    for txn in record.txns:
        lines.append(f"  txn {txn}")
    if record.blockers:
        lines.append("  blocked by:")
        for link in record.blockers:
            lines.append("    " + str(link))
    return lines


def abort_report(records: List[Postmortem], metrics_doc: Dict = None,
                 blocker_count: int = 5) -> Tuple[List[str], List[str]]:
    """The ``why --aborts`` body: (report lines, failure lines).

    Failure lines are non-empty when any abort attributed ``unknown`` or
    the totals cross-check fails — the CLI exits 2 on those.
    """
    aborted = [r for r in records if r.outcome == "aborted"]
    lines = [f"{len(aborted)} aborted action(s) "
             f"across {len(records)} record(s)"]
    histogram = reason_histogram(aborted)
    for reason, count in sorted(histogram.items(),
                                key=lambda kv: (-kv[1], kv[0])):
        lines.append(f"  {reason}: {count}")
    hot = top_blockers(aborted, count=blocker_count)
    if hot:
        lines.append("top blockers (object, colour):")
        for (obj, colour), count in hot:
            lines.append(f"  {obj} [{colour or '-'}]: "
                         f"{count} abort(s) queued behind it")
    if aborted:
        lines.append("aborts:")
        for record in aborted:
            lines.extend("  " + line for line in render_record(record))
    failures: List[str] = []
    unknown = histogram.get(UNKNOWN, 0)
    if unknown:
        failures.append(f"{unknown} abort(s) attributed '{UNKNOWN}'")
    if metrics_doc is not None:
        failures.extend(crosscheck(records, metrics_doc))
    if failures:
        lines.append("ATTRIBUTION GAPS:")
        lines.extend(f"  {line}" for line in failures)
    return lines, failures
