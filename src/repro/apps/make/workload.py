"""Synthetic make workloads: random dependency DAGs for scalability runs.

The paper's example has three targets; measuring *how* concurrency scales
needs bigger projects.  :func:`generate_project` builds a layered random
DAG (sources at the bottom, one final goal at the top) with a controlled
width — the knob the fig. 8 scalability benchmark sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.apps.make.makefile import Makefile, Rule
from repro.util.rng import SplitRandom


@dataclass
class SyntheticProject:
    """A generated makefile plus its source contents and a placement."""

    makefile: Makefile
    sources: Dict[str, str]
    placement: Dict[str, str]


def generate_project(seed: int, layers: int, width: int,
                     fan_in: int, nodes: List[str]) -> SyntheticProject:
    """A layered project: ``layers`` levels of ``width`` targets each.

    Every target depends on ``fan_in`` items from the layer below (sources
    below layer 0); a final goal depends on the whole top layer.  Files are
    placed round-robin across ``nodes``.
    """
    rng = SplitRandom(seed).split("make-workload")
    makefile = Makefile()
    sources: Dict[str, str] = {}
    placement: Dict[str, str] = {}
    placed = 0

    def place(name: str) -> None:
        nonlocal placed
        placement[name] = nodes[placed % len(nodes)]
        placed += 1

    source_names = [f"src{i}.c" for i in range(width)]
    for name in source_names:
        sources[name] = f"/* {name} */"
        place(name)

    below = source_names
    for layer in range(layers):
        current = []
        for index in range(width):
            name = f"L{layer}_{index}.o"
            deps = sorted(rng.sample(below, min(fan_in, len(below))))
            makefile.add(Rule(target=name, prerequisites=deps,
                              commands=[f"cc -o {name} " + " ".join(deps)]))
            place(name)
            current.append(name)
        below = current

    makefile.add(Rule(target="goal", prerequisites=list(below),
                      commands=["ld -o goal " + " ".join(below)]))
    place("goal")
    return SyntheticProject(makefile=makefile, sources=sources,
                            placement=placement)
