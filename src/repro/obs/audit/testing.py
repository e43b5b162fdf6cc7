"""Test-suite integration: make auditor findings hard failures.

:func:`install_online_audit` is a context manager (used by an autouse
fixture in ``tests/conftest.py``) that tracks every Observability hub
created inside it — a cluster's and a local runtime's own among them —
and binds the history layer to each (a failure's dump is only replayable
with its events).  On exit it collects the findings of every hub's
auditor; any finding raises ``AssertionError``, and so does any
bus subscriber that crashed (the auditor among them: its silence would
be vacuous) — and when
``REPRO_OBS_DUMP`` names a directory, the offending hubs' full dumps
(spans + metrics + event log) are saved there first so the failure can
be replayed with ``python -m repro.obs audit``, each with a sibling
``*.why.txt`` abort-attribution report (the ``python -m repro.obs why
--aborts`` view) so the artifact answers *why* without a local replay.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import List


@contextmanager
def install_online_audit(dump_dir=None):
    from repro.obs.history import History
    from repro.obs.hub import Observability

    hubs: List[Observability] = []
    original_hub_init = Observability.__init__

    def recording_hub_init(self, *args, **kwargs):
        original_hub_init(self, *args, **kwargs)
        self.bind(History())
        hubs.append(self)

    Observability.__init__ = recording_hub_init
    try:
        yield hubs
    finally:
        Observability.__init__ = original_hub_init
        _assert_clean(hubs, dump_dir)


def _assert_clean(hubs, dump_dir=None) -> None:
    crashed = [f"{name}: {error!r}" for hub in hubs
               for name, error in hub.bus.errors.items()]
    if crashed:
        # a subscriber that raised saw only part of the stream: whatever
        # the auditor reports below would be vacuous
        raise AssertionError("obs bus subscriber(s) crashed:\n  "
                             + "\n  ".join(crashed))
    guilty = []
    for hub in hubs:
        found = hub.auditor.report()
        if found:
            guilty.append((hub, found))
    if not guilty:
        return
    target = dump_dir or os.environ.get("REPRO_OBS_DUMP")
    saved = []
    if target:
        os.makedirs(target, exist_ok=True)
        for index, (hub, _found) in enumerate(guilty):
            path = os.path.join(target, f"audit-violation-{index}.trace.json")
            try:
                hub.save(path)
            except OSError:
                continue
            saved.append(path)
            why = _why_report(hub)
            if why:
                why_path = os.path.join(target,
                                        f"audit-violation-{index}.why.txt")
                try:
                    with open(why_path, "w", encoding="utf-8") as handle:
                        handle.write(why + "\n")
                except OSError:
                    continue
                saved.append(why_path)
    lines = [
        f"online invariant auditor: "
        f"{sum(len(found) for _, found in guilty)} finding(s) "
        f"across {len(guilty)} hub(s)"
    ]
    for _hub, found in guilty:
        lines.extend(f"  {finding}" for finding in found[:20])
        if len(found) > 20:
            lines.append(f"  ... and {len(found) - 20} more")
    if saved:
        lines.append("dumps: " + ", ".join(saved))
    raise AssertionError("\n".join(lines))


def _why_report(hub) -> str:
    """The ``why --aborts`` view of a hub's retained events (best effort)."""
    try:
        from repro.obs import dump
        from repro.obs.history import History
        from repro.obs.postmortem.engine import PostmortemEngine
        from repro.obs.postmortem.render import abort_report

        engine = PostmortemEngine.replay(
            dump.events({"events":
                         hub.layers[History.section].event_dicts()}))
        lines, _gaps = abort_report(list(engine.records),
                                    metrics_doc=hub.metrics.dump())
        return "\n".join(lines)
    except Exception:  # diagnosis must never mask the real failure
        return ""
