"""N-level independent actions through the structures API (figs. 14/15).

The marker choice is one function over the action tree
(:func:`repro.structures.schemes.marker_for`), so every case runs over
both runtimes (``tests/stages.py``): in a ``LocalRuntime`` and across three
object servers.
"""

import pytest

from repro.errors import ColourError
from repro.stdobjects import Counter
from repro.structures import independence_markers, independent_relative_to
from tests.stages import stages


def test_second_level_independent_full_fig14(runtime):
    """E survives B's abort; A's abort undoes E (automatic marker choice)."""
    for stage in stages(runtime):
        (marker,) = independence_markers(stage.factory, 1, name="blue")
        red = stage.factory.fresh_colour("red")
        oe = stage.counter()
        a = stage.coloured([red, marker], name="A")
        b = stage.coloured([red], parent=a, name="B")
        e = stage.relative_to(a, b, name="E")
        stage.increment(e, oe)
        stage.end(e, "commit")
        stage.end(b, "abort")
        assert stage.value(oe) == 1   # E survived B
        stage.end(a, "abort")
        assert stage.value(oe) == 0   # ... but fell with A
        assert stage.permanent(oe) == 0
        stage.finish()


def test_second_level_independent_in_with_blocks(runtime):
    """The same episode in the local calling convention: ``with`` scopes,
    aborts by exception."""
    (marker,) = independence_markers(runtime, 1, name="blue")
    red = runtime.colours.fresh("red")
    oe = Counter(runtime, value=0)
    with pytest.raises(RuntimeError):
        with runtime.coloured([red, marker], name="A") as a:
            with pytest.raises(ValueError):
                with runtime.coloured([red], parent=a, name="B") as b:
                    with independent_relative_to(runtime, a, parent=b, name="E") as e:
                        oe.increment(1, action=e)
                    with independent_relative_to(runtime, a, name="E2") as e2:
                        assert e2.parent is b   # the ambient action invokes
                    raise ValueError("B aborts")
            assert oe.value == 1   # E survived B
            raise RuntimeError("A aborts")
    assert oe.value == 0           # ... but fell with A


def test_anchor_commit_makes_effects_permanent(runtime):
    for stage in stages(runtime):
        (marker,) = independence_markers(stage.factory, 1)
        red = stage.factory.fresh_colour("red")
        oe = stage.counter()
        a = stage.coloured([red, marker], name="A")
        b = stage.coloured([red], parent=a, name="B")
        e = stage.relative_to(a, b, name="E")
        stage.increment(e, oe)
        for action in (e, b):
            stage.end(action, "commit")
            assert stage.permanent(oe) == 0   # decided at A, nowhere below
        stage.end(a, "commit")
        assert stage.value(oe) == stage.permanent(oe) == 1
        stage.finish()


def test_explicit_marker_selection(runtime):
    for stage in stages(runtime):
        markers = independence_markers(stage.factory, 2)
        red = stage.factory.fresh_colour("red")
        counter = stage.counter()
        a = stage.coloured([red] + markers, name="A")
        b = stage.coloured([red], parent=a, name="B")
        e = stage.relative_to(a, b, marker=markers[1])
        assert e.colours == frozenset((markers[1],))
        assert e.name == "nlevel-independent"
        stage.increment(e, counter)
        for action in (e, b, a):
            stage.end(action, "commit")
        assert stage.permanent(counter) == 1
        stage.finish()


def rejected(stage, anchor_colours, invoker_colours, **options):
    """A (anchor) encloses B (invoker): asking for an action under B
    anchored at A raises, and creates nothing."""
    a = stage.coloured(anchor_colours, name="A")
    b = stage.coloured(invoker_colours, parent=a, name="B")
    with pytest.raises(ColourError) as refusal:
        stage.relative_to(a, b, **options)
    assert b.children == []
    stage.end(b, "abort")
    stage.end(a, "abort")
    stage.finish()
    return str(refusal.value)


def test_marker_not_possessed_by_anchor_rejected(runtime):
    messages = set()
    for stage in stages(runtime):
        red = stage.factory.fresh_colour("red")
        stray = stage.factory.fresh_colour("stray")
        messages.add(rejected(stage, [red], [red], marker=stray))
    assert len(messages) == 1 and "does not possess marker" in messages.pop()


def test_marker_held_by_intermediate_rejected(runtime):
    """A colour the intermediate also holds would stop the routing there."""
    messages = set()
    for stage in stages(runtime):
        red = stage.factory.fresh_colour("red")
        messages.add(rejected(stage, [red], [red], marker=red))
    assert len(messages) == 1 and "held by an intermediate" in messages.pop()


def test_no_usable_marker_raises_with_guidance(runtime):
    messages = set()
    for stage in stages(runtime):
        red = stage.factory.fresh_colour("red")
        messages.add(rejected(stage, [red], [red]))
    assert len(messages) == 1 and "independence_markers" in messages.pop()


def test_anchor_must_be_ancestor(runtime):
    messages = set()
    for stage in stages(runtime):
        (marker,) = independence_markers(stage.factory, 1)
        red = stage.factory.fresh_colour("red")
        a = stage.coloured([red, marker], name="A")
        stage.end(a, "commit")
        other = stage.coloured([red], name="unrelated")
        for invoker in (other, None):
            with pytest.raises(ColourError) as refusal:
                stage.relative_to(a, invoker)
            messages.add(str(refusal.value))
        stage.end(other, "abort")
        stage.finish()
    assert len(messages) == 1 and "not an ancestor" in messages.pop()


def test_three_level_chain(runtime):
    """Independence anchored two levels up a three-deep chain."""
    for stage in stages(runtime):
        (marker,) = independence_markers(stage.factory, 1)
        red = stage.factory.fresh_colour("red")
        green = stage.factory.fresh_colour("green")
        counter = stage.counter()
        a = stage.coloured([red, marker], name="A")
        b = stage.coloured([red], parent=a, name="B")
        c = stage.coloured([green], parent=b, name="C")
        e = stage.relative_to(a, c, name="E")
        stage.increment(e, counter)
        stage.end(e, "commit")
        stage.end(c, "commit")   # C commits; E's work is anchored at A
        stage.end(b, "commit")
        assert stage.value(counter) == 1
        stage.end(a, "abort")
        assert stage.value(counter) == stage.permanent(counter) == 0
        stage.finish()
