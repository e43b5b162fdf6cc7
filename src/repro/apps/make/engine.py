"""Local make engine: the paper's four phases under serializing actions.

Phases per target (§4(iv)): (i) ensure prerequisites are consistent —
recursive; (ii) obtain prerequisite timestamps; (iii) obtain the target's
timestamp; (iv) execute the rebuild commands if necessary.  "The last three
phases can be performed as one or more atomic actions, enclosed by a
serializing action" — here: one constituent comparing timestamps, one
executing the command, enclosed in a :class:`SerializingAction` per target
(fig. 8).  A target made consistent stays consistent even if the overall
make later fails (requirement (iii)).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.apps.make.graph import DependencyGraph
from repro.apps.make.makefile import Makefile, MakefileError, Rule
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


#: compiler(rule, inputs: name->content, timestamp) -> new target content
Compiler = Callable[[Rule, Dict[str, str], float], str]


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


class LocalMakeEngine:
    """Single-process make over FileObjects in a LocalRuntime."""

    def __init__(self, runtime, makefile: Makefile,
                 files: Dict[str, FileObject],
                 clock: Optional[LogicalClock] = None,
                 compiler: Compiler = SimulatedCompiler,
                 fail_before: Optional[str] = None):
        """``fail_before``: fault injection — raise just before rebuilding
        that target (for the requirement-(iii) experiments)."""
        self.runtime = runtime
        self.makefile = makefile
        self.graph = DependencyGraph(makefile)
        self.files = files
        self.clock = clock or LogicalClock()
        self.compiler = compiler
        self.fail_before = fail_before

    def _file(self, name: str) -> FileObject:
        try:
            return self.files[name]
        except KeyError:
            raise MakefileError(f"missing file object for {name!r}") from None

    def make(self, goal: Optional[str] = None) -> MakeReport:
        """Make ``goal`` (default: the makefile's first target)."""
        goal = goal or self.makefile.default_goal
        report = MakeReport(goal=goal)
        try:
            self._make_target(goal, report)
        except MakeFailure:
            pass
        return report

    # -- internals -----------------------------------------------------------------

    def _make_target(self, target: str, report: MakeReport) -> None:
        rule = self.makefile.rule(target)
        if rule is None:
            return  # a source file: nothing to make
        # phase (i): make prerequisites consistent first (recursively)
        for prereq in rule.prerequisites:
            self._make_target(prereq, report)
        if self.fail_before == target:
            report.failed_at = target
            raise MakeFailure(target)
        with SerializingAction(self.runtime, name=f"make:{target}") as ser:
            # phases (ii)+(iii): read timestamps under one constituent
            with ser.constituent(name=f"stat:{target}") as check:
                prereq_stamps = [
                    self._file(p).stat(action=check) for p in rule.prerequisites
                ]
                target_stamp = self._file(target).stat(action=check)
                needs_rebuild = any(s >= target_stamp for s in prereq_stamps)
            if not needs_rebuild:
                report.up_to_date.append(target)
                return
            # phase (iv): execute the commands as the second constituent
            with ser.constituent(name=f"build:{target}") as build:
                inputs = {
                    p: self._file(p).read(action=build)
                    for p in rule.prerequisites
                }
                stamp = self.clock.next()
                content = self.compiler(rule, inputs, stamp)
                self._file(target).write(content, stamp, action=build)
            report.rebuilt.append(target)


class MakeFailure(MakefileError):
    """Injected failure during a make run."""
