"""F14 — Fig. 14: n-level independent actions, the full survival matrix.

"If A aborts, any effects of D, B and E will be undone; on the other hand
if B aborts after invoking E, the effects of E will not be undone."
C and F are top-level independent: they always survive.

The local episodes assign the colours by hand (the mechanism); the
distributed ones (``test_fig15_impl_nlevel.distributed_episode``: B, C, D,
E, F on three object servers) get them from the cluster's structure API and
must fill in the same matrix, leaving nothing behind.
"""

from bench_util import print_figure
from test_fig15_impl_nlevel import NOTHING_LEFT, distributed_episode

from repro.runtime.runtime import LocalRuntime
from repro.stdobjects import Counter


def episode(b_aborts: bool, a_aborts: bool):
    runtime = LocalRuntime()
    red = runtime.colours.fresh("red")
    blue = runtime.colours.fresh("blue")
    green = runtime.colours.fresh("green")
    effects = {name: Counter(runtime, value=0) for name in "BCDEF"}
    try:
        with runtime.coloured([red, blue], name="A") as a:
            with runtime.coloured([green], parent=a, name="C") as c:
                effects["C"].increment(1, action=c)
            try:
                with runtime.coloured([red], parent=a, name="B") as b:
                    effects["B"].increment(1, colour=red, action=b)
                    with runtime.coloured([red], parent=b, name="D") as d:
                        effects["D"].increment(1, action=d)
                    with runtime.coloured([blue], parent=b, name="E") as e:
                        effects["E"].increment(1, action=e)
                    with runtime.coloured([green], parent=b, name="F") as f:
                        effects["F"].increment(1, action=f)
                    if b_aborts:
                        raise RuntimeError("B aborts")
            except RuntimeError:
                pass
            if a_aborts:
                raise RuntimeError("A aborts")
    except RuntimeError:
        pass
    return {name: counter.value for name, counter in effects.items()}


SCENARIOS = {
    "all commit": (False, False),
    "B aborts (after invoking E)": (True, False),
    "A aborts": (False, True),
    "B aborts then A aborts": (True, True),
}


def run_matrix():
    return {label: episode(*aborts) for label, aborts in SCENARIOS.items()}


def run_both_matrices():
    return run_matrix(), {label: distributed_episode(*aborts)
                          for label, aborts in SCENARIOS.items()}


def test_fig14_survival_matrix(benchmark):
    matrix, distributed = benchmark(run_both_matrices)
    for label, run in distributed.items():
        assert run["survivors"] == matrix[label], label
        assert run["left_behind"] == NOTHING_LEFT, label
    assert matrix["all commit"] == {"B": 1, "C": 1, "D": 1, "E": 1, "F": 1}
    # B's abort: D and B's own work undone; E survives (second-level); C, F safe
    assert matrix["B aborts (after invoking E)"] == {
        "B": 0, "C": 1, "D": 0, "E": 1, "F": 1,
    }
    # A's abort: D, B, E undone; C, F (green: true top-level) survive
    assert matrix["A aborts"] == {"B": 0, "C": 1, "D": 0, "E": 0, "F": 1}
    assert matrix["B aborts then A aborts"] == {
        "B": 0, "C": 1, "D": 0, "E": 0, "F": 1,
    }
    rows = [
        (label, *(effects[name] for name in "BCDEF"))
        for label, effects in matrix.items()
    ]
    print_figure(
        "Fig. 14 — n-level independence survival matrix (1 = effect survives)",
        rows,
        headers=("scenario", "B", "C", "D", "E", "F"),
    )
    print_figure(
        "Fig. 14 — the same matrix on a three-server cluster "
        "(structure API; auditor silent, no mirror or lock left)",
        [(label, *(run["survivors"][name] for name in "BCDEF"))
         for label, run in distributed.items()],
        headers=("scenario", "B", "C", "D", "E", "F"),
    )
