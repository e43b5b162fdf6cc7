"""Action spans on a hub and the paper-style timeline drawn from them."""

import pytest

from repro.obs import History, action_timeline, survival_report
from repro.runtime.runtime import LocalRuntime
from repro.stdobjects import Counter
from repro.structures import SerializingAction, independent_top_level


@pytest.fixture
def traced_runtime():
    runtime = LocalRuntime()
    runtime.obs.bind(History())
    return runtime, runtime.obs.tracer


def action_spans(tracer):
    return [span for span in tracer.snapshot() if span.kind == "action"]


def test_begin_and_commit_recorded(traced_runtime):
    runtime, tracer = traced_runtime
    with runtime.top_level(name="T"):
        pass
    [span] = action_spans(tracer)
    assert span.name == "action:T"
    assert span.finished and span.attrs["outcome"] == "committed"


def test_abort_recorded(traced_runtime):
    runtime, tracer = traced_runtime
    with pytest.raises(RuntimeError):
        with runtime.top_level(name="T"):
            raise RuntimeError
    [span] = action_spans(tracer)
    assert span.finished and span.attrs["outcome"] == "aborted"


def test_lock_events_carry_detail(traced_runtime):
    runtime, tracer = traced_runtime
    counter = Counter(runtime, value=0)
    with runtime.top_level(name="T"):
        counter.increment(1)
    [span] = action_spans(tracer)
    locks = [attrs for _tick, name, attrs in span.events
             if name == "lock.granted"]
    assert len(locks) == 1
    assert locks[0]["mode"] == "write"


def test_spans_nesting_and_outcomes(traced_runtime):
    runtime, tracer = traced_runtime
    with runtime.top_level(name="A"):
        with pytest.raises(ValueError):
            with runtime.atomic(name="B"):
                raise ValueError
    assert survival_report(tracer) == {"A": "committed", "B": "aborted"}
    spans = {span.name: span for span in action_spans(tracer)}
    child, parent = spans["action:B"], spans["action:A"]
    assert child.parent_id == parent.span_id
    assert child.start > parent.start
    assert child.end < parent.end


def test_render_timeline_shape(traced_runtime):
    runtime, tracer = traced_runtime
    counter = Counter(runtime, value=0)
    with runtime.top_level(name="A"):
        with runtime.atomic(name="B"):
            counter.increment(1)
    art = action_timeline(tracer, title="fig check", show_locks=True)
    lines = art.splitlines()
    assert lines[0] == "fig check"
    assert any("A [" in line and "committed" in line for line in lines)
    assert any("  B [" in line for line in lines)  # indented child
    a_line = next(line for line in lines if line.lstrip().startswith("A ["))
    b_line = next(line for line in lines if line.lstrip().startswith("B ["))
    assert a_line.index("├") < b_line.index("├")   # A starts first
    assert a_line.rindex("┤") > b_line.rindex("┤")  # A ends last
    assert b_line.endswith("committed (1 locks)")
    assert len(lines) == 4                          # title, A, B, axis


def test_render_structures_trace(traced_runtime):
    """A serializing action plus an independent action render cleanly and
    report the paper's outcomes."""
    runtime, tracer = traced_runtime
    counter = Counter(runtime, value=0)
    ser = SerializingAction(runtime, name="ser")
    with ser.constituent(name="B") as b:
        counter.increment(1, action=b)
    ser.cancel()
    with runtime.top_level(name="app"):
        with independent_top_level(runtime, name="post") as p:
            counter.increment(1, action=p)
    report = survival_report(tracer)
    assert report["B"] == "committed"
    assert report["ser.A"] == "aborted"
    assert report["post"] == "committed"
    art = action_timeline(tracer)
    assert "ser.A" in art and "post" in art


def test_empty_trace_renders(traced_runtime):
    _, tracer = traced_runtime
    assert "empty" in action_timeline(tracer)


def test_clear_resets(traced_runtime):
    runtime, tracer = traced_runtime
    with runtime.top_level(name="T"):
        pass
    tracer.clear()
    assert tracer.snapshot() == []
    assert "empty" in action_timeline(tracer)
