"""Property: random multi-coloured action trees never leak.

Hypothesis drives random stack-disciplined programs against a
LocalRuntime: open children with random colour subsets (or fresh colours),
read and write objects in randomly chosen owned colours (try-lock
semantics — refused locks are skipped), and commit/abort randomly until
the whole tree has unwound.  Afterwards:

- no lock table holds any record (no lock leaks through any combination
  of per-colour inheritance and release);
- every object's live value equals its stable-store value (no undo leaks,
  no missed permanence);
- the runtime can run a fresh ordinary action over every object (the
  system is still live).

After every operation the hub's reconstructed world holds exactly the
lock tables' records, re-acquisitions and read-to-write upgrades included.

One more property pins the tree itself: the same random shape — plain
nodes and every structure of :mod:`repro.structures.schemes` — built as
``Action`` s and as ``ClusterAction`` s is coloured the same, routes every
colour to the same place and settles the children of an ending node the
same way.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.actions.action import Action
from repro.actions.status import ActionStatus
from repro.errors import ColourError
from repro.locking.modes import LockMode, mode_label
from repro.runtime.runtime import LocalRuntime
from repro.stdobjects import Counter
from tests.stages import stages

N_OBJECTS = 3
COLOUR_POOL = 3

ops = st.lists(
    st.tuples(
        st.sampled_from(["push", "read", "write", "commit", "abort"]),
        st.integers(0, 7),    # colour-subset selector / object selector
        st.integers(0, N_OBJECTS - 1),
    ),
    min_size=1, max_size=60,
)


def try_lock(runtime, action, obj, colour, mode=LockMode.WRITE):
    outcome = {}

    def complete(request):
        outcome["granted"] = request.status.value == "granted"

    request = runtime.locks.request(action, obj.uid, mode, colour, complete)
    if not request.settled:
        runtime.locks.cancel_request(request, "try-lock")
        return False
    if outcome.get("granted"):
        if mode is LockMode.WRITE:
            action.record_write(obj, colour)
        return True
    return False


def held_records(runtime):
    """(object, owner, colour, mode) of every record, as the lock tables
    keep them and as the hub's world rebuilt them from the events."""
    tables = sorted(
        (str(table.object_uid), str(record.owner.uid), str(record.colour),
         mode_label(record.mode))
        for table in runtime.locks.tables() for record in table.holders)
    world = sorted(
        (obj, owner, held.colour, held.mode)
        for (_node, obj), holders in runtime.obs.world.holds.items()
        for owner, records in holders.items()
        for held in records.values())
    return tables, world


@settings(max_examples=150, deadline=None)
@given(ops)
def test_random_coloured_trees_never_leak(operations):
    runtime = LocalRuntime()
    pool = [runtime.colours.fresh(f"p{i}") for i in range(COLOUR_POOL)]
    counters = [Counter(runtime, value=0) for _ in range(N_OBJECTS)]
    stack = []

    def colours_for(selector, parent):
        """A colour set: subset of the pool bits, else a fresh colour."""
        chosen = [pool[i] for i in range(COLOUR_POOL) if selector & (1 << i)]
        if not chosen:
            chosen = [runtime.colours.fresh()]
        return chosen

    for op, selector, obj_index in operations:
        if op == "push" and len(stack) < 6:
            parent = stack[-1] if stack else None
            action = Action(runtime, colours_for(selector, parent),
                            parent=parent)
            stack.append(action)
        elif op in ("read", "write") and stack:
            action = stack[-1]
            colour = sorted(action.colours, key=lambda c: c.uid)[
                selector % len(action.colours)
            ]
            counter = counters[obj_index]
            if op == "read":
                try_lock(runtime, action, counter, colour, LockMode.READ)
            elif try_lock(runtime, action, counter, colour):
                counter.value += 1
        elif op == "commit" and stack:
            stack.pop().commit()
        elif op == "abort" and stack:
            stack.pop().abort()
        tables, world = held_records(runtime)
        assert world == tables

    # unwind whatever remains (alternate commit/abort deterministically)
    while stack:
        action = stack.pop()
        if not action.status.terminated:
            if action.uid.sequence % 2 == 0:
                action.commit()
            else:
                action.abort()

    # 1. no lock leaks
    assert list(runtime.locks.tables()) == []
    # 2. live state agrees with stable state
    for counter in counters:
        stored = runtime.store.read_committed(counter.uid)
        assert stored.payload == counter.snapshot()
    # 3. still live
    with runtime.top_level():
        for counter in counters:
            counter.increment(1)


@settings(max_examples=80, deadline=None)
@given(ops)
def test_random_trees_with_detached_independents(operations):
    """Same harness, but aborts may detach colour-disjoint children; the
    leak-freedom invariants must still hold after everything unwinds."""
    runtime = LocalRuntime()
    pool = [runtime.colours.fresh(f"p{i}") for i in range(COLOUR_POOL)]
    counters = [Counter(runtime, value=0) for _ in range(N_OBJECTS)]
    live = []   # all actions ever created, for final unwinding
    stack = []

    for op, selector, obj_index in operations:
        if op == "push" and len(stack) < 6:
            chosen = [pool[i] for i in range(COLOUR_POOL) if selector & (1 << i)]
            if not chosen:
                chosen = [runtime.colours.fresh()]
            parent = stack[-1] if stack else None
            action = Action(runtime, chosen, parent=parent)
            stack.append(action)
            live.append(action)
        elif op == "write" and stack:
            action = stack[-1]
            colour = sorted(action.colours, key=lambda c: c.uid)[
                selector % len(action.colours)
            ]
            if try_lock(runtime, action, counters[obj_index], colour):
                counters[obj_index].value += 1
        elif op == "commit" and stack:
            stack.pop().commit()
        elif op == "abort" and stack:
            # aborting mid-stack detaches disjoint descendants: drop the
            # whole suffix from our stack; detached ones stay in `live`.
            victim = stack.pop()
            while stack and victim.status.terminated:
                break
            victim.abort()
            stack = [a for a in stack if not a.status.terminated]

    for action in reversed(live):
        if not action.status.terminated:
            action.abort()

    assert list(runtime.locks.tables()) == []
    for counter in counters:
        stored = runtime.store.read_committed(counter.uid)
        assert stored.payload == counter.snapshot()


#: per creation: which earlier node is its parent (or none), which pool
#: colours a plain node gets, and what is created there
shapes = st.lists(
    st.tuples(st.integers(0, 63), st.integers(1, 7),
              st.sampled_from(["plain", "plain", "serializing", "glued",
                               "independent", "nlevel"])),
    min_size=1, max_size=9)


def create(stage, structure, parent, name):
    """The nodes one ``structure`` adds under ``parent``, through the
    stage's calling convention."""
    if structure == "serializing":
        ser = stage.serializing(name, parent)
        return [ser.control, stage.constituent(ser)]
    if structure == "glued":
        group = stage.glued(name, parent)
        return [group.control, stage.member(group)]
    if structure == "independent":
        return [stage.independent(parent, name)]
    return [stage.relative_to(parent.root(), parent, name=name)]


@settings(max_examples=80, deadline=None)
@given(shapes, st.integers(0, 63), st.sampled_from(["commit", "abort"]))
def test_local_and_cluster_trees_obey_the_same_rules(shape, pick, how):
    """Both node kinds are ``ActionNode`` s, and every structure colours
    them by the one scheme: by position in the tree, a random mix of plain,
    serializing, glued, independent and n-level creations gets the same
    colour sets, default and companion colours and ``routes()`` node for
    node (and the same n-level refusals), and ending a random node aborts
    the same children in the same order and leaves the same parent links."""
    seen = []
    for stage in stages(LocalRuntime()):
        factory, hub = stage.factory, stage.factory.obs
        pool = [factory.fresh_colour(f"p{i}") for i in range(COLOUR_POOL)]
        nodes, refused = [], []
        for index, (parent_pick, selector, structure) in enumerate(shape):
            parents = nodes + [None]  # every node is still active
            parent = parents[parent_pick % len(parents)]
            if structure == "plain" or (structure == "nlevel"
                                        and parent is None):
                nodes.append(stage.coloured(
                    [pool[i] for i in range(COLOUR_POOL)
                     if selector & (1 << i)], parent))
                continue
            try:
                nodes.extend(create(stage, structure, parent, f"n{index}"))
            except ColourError:  # no usable marker: on both, or on neither
                refused.append(index)
        position = {str(node.uid): index for index, node in enumerate(nodes)}

        def place(node):
            return None if node is None else position[str(node.uid)]

        def shade(colour):
            return None if colour is None else colour.name

        colouring = [(sorted(map(shade, node.colours)),
                      shade(node.default_colour),
                      shade(node.companion_colour),
                      [(shade(colour), place(destination))
                       for colour, destination in node.routes()])
                     for node in nodes]
        ends = []
        hub.bus.subscribe(ends.append, kinds=("action.end",))
        stage.end(nodes[pick % len(nodes)], how)
        ended = [(position[event.labels["action"]], event.labels["outcome"])
                 for event in ends]
        links = [(node.status, place(node.parent),
                  [place(child) for child in node.children])
                 for node in nodes]
        seen.append((colouring, refused, ended, links))
    assert seen[0] == seen[1]
