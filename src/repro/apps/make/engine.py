"""Make: the paper's four phases under serializing actions, written once.

Phases per target (§4(iv)): (i) ensure prerequisites are consistent —
recursive; (ii) obtain prerequisite timestamps; (iii) obtain the target's
timestamp; (iv) execute the rebuild commands if necessary.  "The last three
phases can be performed as one or more atomic actions, enclosed by a
serializing action" — here: one constituent comparing timestamps, one
executing the command, enclosed in a serializing action per target
(fig. 8).  A target made consistent stays consistent even if the overall
make later fails (requirement (iii)).

:class:`MakeBody` makes every decision as generator methods; each engine
supplies only its calling convention — :class:`LocalMakeEngine` over
in-process :class:`FileObject` s, run by a synchronous trampoline
(:mod:`repro.apps.trampoline`), and
:class:`~repro.apps.make.distributed.DistributedMakeEngine` over object
servers, run as simulation processes.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.apps.make.graph import DependencyGraph
from repro.apps.make.makefile import Makefile, MakefileError, Rule
from repro.apps.trampoline import done, run_synchronously
from repro.stdobjects.file import FileObject
from repro.structures.serializing import SerializingAction


class LogicalClock:
    """Monotonic timestamps for file modifications."""

    def __init__(self, start: float = 1.0):
        self._now = float(start)

    def next(self) -> float:
        self._now += 1.0
        return self._now

    @property
    def now(self) -> float:
        return self._now


def SimulatedCompiler(rule: Rule, inputs: Dict[str, str], timestamp: float) -> str:
    """Deterministic stand-in for cc: content derived from the inputs."""
    digest = ",".join(
        f"{name}@{zlib.crc32(content.encode('utf-8')) & 0xFFFF:04x}"
        for name, content in sorted(inputs.items())
    )
    commands = "; ".join(rule.commands)
    return f"[{rule.target} <- {digest} via {commands!r} at {timestamp}]"


def initial_file(name: str, sources: Dict[str, str]) -> Dict[str, object]:
    """A project file's state before any make, as ``FileObject`` constructor
    arguments — wherever the object is then created.  A source has its
    content and timestamp 1.0; a target starts absent (empty, timestamp
    0.0), so everything is initially out of date."""
    present = name in sources
    return {"name": name, "content": sources.get(name, ""),
            "timestamp": 1.0 if present else 0.0}


@dataclass
class MakeReport:
    """What a make run did."""

    goal: str
    rebuilt: List[str] = field(default_factory=list)
    up_to_date: List[str] = field(default_factory=list)
    failed_at: Optional[str] = None

    @property
    def completed(self) -> bool:
        return self.failed_at is None


class MakeBody:
    """Fig. 8's decisions, once: what to build in which order, whether a
    target is up to date, when to retry, and what the report says.

    An engine supplies the primitives: ``_start(target, report)`` /
    ``_join(handles)`` build prerequisites; ``_serializing(name)``,
    ``_constituent(ser, name, body)`` (run ``body(action)`` as the next
    constituent) and ``_end(ser, "close")``; ``_invoke(action, file,
    method, *args)``; ``_compiled()`` waits out a compile and returns its
    timestamp; ``_pause()`` waits before a retry.
    """

    #: how many times to retry one target's check-and-rebuild after a
    #: transient failure (a file server crashed mid-build and the action
    #: aborted): committed targets stay, the interrupted one is redone
    build_retries = 2

    def __init__(self, makefile: Makefile, fail_before: Optional[str]):
        self.makefile = makefile
        self.graph = DependencyGraph(makefile)
        self.fail_before = fail_before
        self._building: Dict[str, object] = {}  # target -> _start's handle

    def make(self, goal: Optional[str] = None):
        """Generator: build ``goal`` (default: the makefile's first
        target); returns a :class:`MakeReport`."""
        report = MakeReport(goal=goal or self.makefile.default_goal)
        self._building = {}
        try:
            yield from self._make_target(report.goal, report)
        except MakeFailure:
            pass
        return report

    def _make_target(self, target: str, report: MakeReport):
        rule = self.makefile.rule(target)
        if rule is None:
            return  # a source file: nothing to make
        # phase (i): prerequisites first, each started once per make
        targets = [p for p in rule.prerequisites if self.graph.is_target(p)]
        for prereq in targets:
            if prereq not in self._building:
                self._building[prereq] = self._start(prereq, report)
        yield from self._join([self._building[p] for p in targets])
        if self.fail_before == target:
            report.failed_at = target
            raise MakeFailure(target)
        # phases (ii)-(iv) under a serializing action; a crash of an
        # involved file server aborts the attempt, and we retry once the
        # world has settled.
        last_error: Optional[BaseException] = None
        for attempt in range(self.build_retries + 1):
            if attempt > 0:
                yield from self._pause()
            try:
                yield from self._build_once(target, rule, report)
                return
            except Exception as error:  # transient: crashed server, timeout
                last_error = error
        report.failed_at = target
        raise MakeFailure(f"{target}: {self.build_retries + 1} attempts "
                          f"failed (last: {last_error})")

    def _build_once(self, target: str, rule: Rule, report: MakeReport):
        ser = self._serializing(f"make:{target}")
        try:
            def stat_body(check):
                stamps = []
                for prereq in rule.prerequisites:
                    stamp = yield from self._invoke(check, prereq, "stat")
                    stamps.append(stamp)
                own = yield from self._invoke(check, target, "stat")
                return any(s >= own for s in stamps)

            needs_rebuild = yield from self._constituent(
                ser, f"stat:{target}", stat_body)
            if not needs_rebuild:
                report.up_to_date.append(target)
                return

            def build_body(build):
                inputs = {}
                for p in rule.prerequisites:
                    inputs[p] = yield from self._invoke(build, p, "read")
                stamp = yield from self._compiled()
                content = SimulatedCompiler(rule, inputs, stamp)
                yield from self._invoke(build, target, "write", content, stamp)

            yield from self._constituent(ser, f"build:{target}", build_body)
            report.rebuilt.append(target)
        finally:
            if not ser.control.status.terminated:
                yield from self._end(ser, "close")


class LocalMakeEngine(MakeBody):
    """Single-process make over FileObjects in a LocalRuntime."""

    def __init__(self, runtime, makefile: Makefile,
                 files: Dict[str, FileObject],
                 clock: Optional[LogicalClock] = None,
                 fail_before: Optional[str] = None):
        """``fail_before``: fault injection — raise just before rebuilding
        that target (for the requirement-(iii) experiments)."""
        super().__init__(makefile, fail_before)
        self.runtime = runtime
        self.files = files
        self.clock = clock or LogicalClock()

    def make(self, goal: Optional[str] = None) -> MakeReport:
        """Make ``goal`` (default: the makefile's first target)."""
        return run_synchronously(super().make(goal))

    # -- primitives: in-process calls, none of which yields ------------------------

    def _file(self, name: str) -> FileObject:
        try:
            return self.files[name]
        except KeyError:
            raise MakefileError(f"missing file object for {name!r}") from None

    def _start(self, target: str, report: MakeReport) -> None:
        run_synchronously(self._make_target(target, report))

    def _join(self, handles):
        return done()

    def _serializing(self, name: str) -> SerializingAction:
        return SerializingAction(self.runtime, name=name)

    def _constituent(self, ser: SerializingAction, name: str, body):
        with ser.constituent(name=name) as action:
            return (yield from body(action))

    def _end(self, structure, how: str):
        return done(getattr(structure, how)())

    def _invoke(self, action, name: str, method: str, *args):
        return done(getattr(self._file(name), method)(*args, action=action))

    def _compiled(self):
        return done(self.clock.next())

    def _pause(self):
        return done()


class MakeFailure(MakefileError):
    """Injected failure during a make run."""
