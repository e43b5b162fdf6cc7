"""F13 — Fig. 13: independent actions via colours, and the deadlock contrast.

Fig. 13(a): A synchronously invokes a *genuinely separate* top-level B
that needs objects A has locked — A waits for B, B waits for A's locks:
deadlock (broken here by the lock-wait bound).  Fig. 13(b): the coloured
implementation nests B inside A with a fresh colour, so B acquires past
A's (read) locks and both finish.
"""

import threading

from bench_util import print_figure

from repro.errors import LockTimeout
from repro.locking.modes import LockMode
from repro.runtime.runtime import LocalRuntime
from repro.stdobjects import Counter
from repro.structures import independent_top_level


def fig13a_episode():
    """True top-levels: the invocation deadlocks; measure the damage."""
    runtime = LocalRuntime()
    shared = Counter(runtime, value=0)
    result = {}

    def invoked_b():
        # B is NOT nested in A: a plain top-level action
        try:
            with independent_top_level(runtime, parent=None,
                                       name="B") as b:
                runtime.acquire(b, shared, LockMode.WRITE, timeout=0.3)
                shared.value += 10
        except LockTimeout:
            result["b"] = "lock timeout (deadlock broken by bound)"

    with runtime.top_level(name="A"):
        shared.increment(1)     # A write-locks shared
        worker = threading.Thread(target=invoked_b)
        worker.start()
        worker.join(10)         # A waits for B -> the deadlock of fig 13(a)
    result["completed_both"] = shared.value == 11
    return result


def fig13b_episode():
    """Coloured implementation: B nested under A with a fresh colour."""
    runtime = LocalRuntime()
    read_by_a = Counter(runtime, value=0)
    written_by_a = Counter(runtime, value=0)
    with runtime.top_level(name="A"):
        read_by_a.get()                 # A read-locks
        written_by_a.increment(1)       # A write-locks
        with independent_top_level(runtime, name="B") as b:
            read_by_a.increment(10, action=b)          # write past A's READ
            seen = written_by_a.get(action=b)          # read past A's WRITE
    return {
        "b_completed": read_by_a.value == 10,
        "b_read_a_write": seen == 1,
    }


def run_both():
    return {"fig 13(a)": fig13a_episode(), "fig 13(b)": fig13b_episode()}


def test_fig13_independent_implementation(benchmark):
    results = benchmark.pedantic(run_both, rounds=3, iterations=1)
    a = results["fig 13(a)"]
    assert a["completed_both"] is False          # the deadlock bit
    assert "timeout" in a.get("b", "")
    b = results["fig 13(b)"]
    assert b["b_completed"] is True
    assert b["b_read_a_write"] is True
    print_figure(
        "Fig. 13 — true top-level vs coloured independent action",
        [
            ("13(a) genuine top-level B", "deadlocks (bounded wait fired)"),
            ("13(b) coloured B nested in A", "both complete"),
        ],
        headers=("structure", "outcome"),
    )
