"""Property: forgetting finished action trees changes no verdict.

Hypothesis drives random coloured trees over counters on three object
servers (:class:`tests.stages.ClusterStage`): top-level actions and nested
children with random colours read and increment random counters, and end
in random order, so trees overlap, queue behind each other and time out.
The recorded event stream gets a seeded serialization cycle spliced in at
random places — two top-level actions that each write one object before
the other, on different nodes — and is replayed through a fresh world
under the auditor and the postmortem engine twice: as it is, and with the
world's drop step swapped for a no-op.  Findings (kind, message, event
seqs) and postmortem records must be identical, and the first world must
actually have forgotten something.

Two fixed streams pin the conditions a correct run rarely exercises: a
tree is kept while a member still holds a lock, and while a live wait
names a member.
"""

from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.obs.audit import InvariantAuditor
from repro.obs.audit import findings as F
from repro.obs.bus import ObsEvent
from repro.obs.postmortem import PostmortemEngine
from repro.obs.world import World
from tests.stages import ClusterStage

COUNTERS = 3

programs = st.lists(
    st.tuples(st.sampled_from(["begin", "begin", "get", "increment",
                               "increment", "commit", "abort"]),
              st.integers(0, 15), st.integers(0, 7)),
    min_size=1, max_size=24)


def run(program):
    """Play ``program`` on a fresh stage; returns its recorded events."""
    stage = ClusterStage()
    stage.cluster.observe(history=True)
    factory = stage.factory
    pool = [factory.fresh_colour(f"p{i}") for i in range(3)]
    counters = [stage.counter() for _ in range(COUNTERS)]
    live = []
    for op, pick, selector in program:
        if op == "begin":
            parents = live + [None]
            parent = parents[pick % len(parents)]
            # pool colours are shared across trees: their accesses order
            # one tree after another
            colours = ([pool[i] for i in range(3) if selector & (1 << i)]
                       or [factory.fresh_colour()])
            live.append(stage.coloured(colours, parent))
            continue
        if not live:
            continue
        action = live[pick % len(live)]
        try:
            if op in ("commit", "abort"):
                stage.end(action, op)
            else:
                getattr(stage, op)(action, counters[selector % COUNTERS])
        except ReproError:
            pass   # refused, timed out or already gone: the stream says why
        live = [node for node in live if not node.status.terminated]
    for action in reversed(live):   # innermost first
        if not action.status.terminated:
            stage.end(action, "abort")
    stage.cluster.run()
    stage.finish()
    return list(stage.cluster.obs.layers["history"].events)


def begin(uid, colour="c"):
    return ("action.begin", {"action": uid, "name": uid, "parent": "",
                             "colours": colour, "node": "home"})


def end(uid, outcome="committed", colour="c"):
    return ("action.end", {"action": uid, "name": uid, "colours": colour,
                           "outcome": outcome, "node": "home"})


def cycle_events():
    """X writes o1 before Y and Y writes o2 before X, each on its own node
    so no lock rule is broken — only serializability."""
    def lock(kind, owner, obj, node):
        return (kind, {"owner": owner, "object": obj, "mode": "write",
                       "colour": "k", "node": node, "reason": "commit"})

    return [begin("X", "k"), begin("Y", "k"),
            lock("lock.granted", "X", "o1", "s8"),
            lock("lock.granted", "Y", "o1", "s9"),
            lock("lock.granted", "Y", "o2", "s8"),
            lock("lock.granted", "X", "o2", "s9"),
            lock("lock.released", "X", "o1", "s8"),
            lock("lock.released", "Y", "o1", "s9"),
            lock("lock.released", "Y", "o2", "s8"),
            lock("lock.released", "X", "o2", "s9"),
            end("X", colour="k"), end("Y", colour="k")]


def splice(events, seeded, places):
    """``seeded`` inserted in order at ``places``, renumbered from 1."""
    stream = [(event.tick, event.kind, event.labels) for event in events]
    for done, (place, (kind, labels)) in enumerate(zip(sorted(places),
                                                       seeded)):
        at = min(place + done, len(stream))
        stream.insert(at, (stream[at - 1][0] if at else 0.0, kind, labels))
    return [ObsEvent(tick, kind, dict(labels), seq=index)
            for index, (tick, kind, labels) in enumerate(stream, start=1)]


def verdicts(events):
    world = World()
    auditor = InvariantAuditor(world=world)
    engine = PostmortemEngine()
    world.attach(engine)
    for event in events:
        world.consume(event)
    findings = sorted((finding.kind, finding.message, finding.event_seqs)
                      for finding in auditor.report())
    return findings, [record.to_dict() for record in engine.records], world


@settings(max_examples=25, deadline=None)
@given(programs, st.lists(st.integers(0, 400), min_size=12, max_size=12))
# a parent re-reading an object its child writes waits for the child
# (§5.2): granted past the child's WRITE, it was a locking-rule violation
@example(program=[("begin", 0, 0), ("get", 0, 1), ("increment", 1, 1),
                  ("get", 0, 1)], places=[0] * 12)
def test_forgetting_changes_no_verdict(program, places):
    events = splice(run([("begin", 0, 0)] + program), cycle_events(), places)
    found, records, world = verdicts(events)
    with mock.patch.object(World, "_forget", lambda self, tree: None):
        kept_found, kept_records, kept = verdicts(events)
    assert found == kept_found
    assert records == kept_records
    assert [kind for kind, _message, _seqs in found] == [
        F.SERIALIZATION_CYCLE]
    assert len(world.actions) < len(kept.actions)


def stream(pairs):
    return [ObsEvent(float(index), kind, labels, seq=index)
            for index, (kind, labels) in enumerate(pairs, start=1)]


def both_ways(pairs):
    """Verdicts with forgetting, the same without, and the first world."""
    events = stream(pairs)
    found, records, world = verdicts(events)
    with mock.patch.object(World, "_forget", lambda self, tree: None):
        kept_found, kept_records, _kept = verdicts(events)
    assert (found, records) == (kept_found, kept_records)
    return found, records, world


def test_a_tree_is_kept_while_a_member_holds_a_lock():
    """A commute decision reaches the participant after the action ended,
    while it still holds the commuting grant the decision rests on."""
    grant = {"owner": "A", "object": "o", "mode": "update", "colour": "c",
             "node": "s1", "semantic": "1", "compatible": "update",
             "commuting": "1"}
    found, _records, world = both_ways([
        begin("A"),
        ("lock.granted", grant),
        end("A"),
        ("twopc.decision", {"txn": "t", "decision": "commit",
                            "fast_path": "commute", "node": "s1",
                            "action": "A", "colour": "c",
                            "groups": "update"}),
        ("lock.released", dict(grant, reason="commute-commit")),
    ])
    assert found == []
    assert world.actions == {}


def test_a_tree_is_kept_while_a_wait_names_a_member():
    """H lets go and ends while V still waits: V's refusal blames H as
    the holder it queued behind, with H's hold time."""
    lock = {"owner": "H", "object": "o", "mode": "write", "colour": "c",
            "node": "s1"}
    wait = {"owner": "V", "object": "o", "mode": "write", "colour": "c",
            "node": "s1"}
    _found, records, world = both_ways([
        begin("H"), begin("V"),
        ("lock.granted", lock),
        ("lock.blocked", dict(wait, blockers="H")),
        ("lock.released", dict(lock, reason="commit")),
        end("H"),
        ("lock.refused", dict(wait, reason="timeout", error="LockTimeout")),
        end("V", "aborted"),
    ])
    (blocker,) = records[-1]["blockers"]
    assert (blocker["holder"], blocker["status"]) == ("H", "released")
    assert world.actions == {}
