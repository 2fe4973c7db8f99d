"""Benchmark inputs: the graphs of each workload, built from a seed.

Seed 0 keeps every label as given, which reproduces the baselines in
``ROADMAP.md``.  Any other seed gives every vertex and every edge a new
name, drawn at random, and output checks hold every seed to the same
verdicts.

The new names sort among themselves as the old ones did, and every edge
keeps its place in the edge list and the order of its ends.  gvdlab sorts
names in many places and takes the ring's variable order from the edge
list, so any other relabeling changes the work itself, not just the names:
a new edge order changed the two-K4 search by up to 40% (six orders took
28 s to 39 s, Python 3.11 on a 2-vCPU x86-64 VM), and names that sort
differently moved its S-polynomial count by up to 5%.  Runs with different
seeds would then measure different things.
"""

from __future__ import annotations

import json
import os
import random
from typing import NamedTuple

from gvdlab.graphs import Graph

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
CENSUS_PATH = os.path.join(DATA_DIR, "census9.json")

# Two K4's glued at the vertex x4: the paper's graph whose toric ideal is not
# geometrically vertex decomposable.
TWO_K4_VERTICES = ("x1", "x2", "x3", "x4", "x5", "x6", "x7")
TWO_K4_EDGES = (
    ("e1", "x1", "x2"), ("e2", "x1", "x3"), ("e3", "x1", "x4"),
    ("e4", "x2", "x3"), ("e5", "x2", "x4"), ("e6", "x4", "x3"),
    ("e7", "x4", "x5"), ("e8", "x4", "x6"), ("e9", "x4", "x7"),
    ("e10", "x5", "x6"), ("e11", "x5", "x7"), ("e12", "x7", "x6"),
)

# A minimal generating set of its toric ideal: four quadrics, nine cubics.
TWO_K4_GENERATORS = (
    "e8*e11 - e7*e12",
    "e9*e10 - e7*e12",
    "e2*e5 - e1*e6",
    "e3*e4 - e1*e6",
    "e4*e8*e9 - e5*e6*e12",
    "e1*e8*e9 - e3*e5*e12",
    "e4*e7*e9 - e5*e6*e11",
    "e1*e7*e9 - e3*e5*e11",
    "e4*e7*e8 - e5*e6*e10",
    "e1*e7*e8 - e3*e5*e10",
    "e2*e8*e9 - e3*e6*e12",
    "e2*e7*e9 - e3*e6*e11",
    "e2*e7*e8 - e3*e6*e10",
)


def k44_minus_edge():
    """K_{4,4} without the edge x4-y4 (15 edges).

    All edges of K_{4,4} are alike under its automorphisms, so the choice of
    the missing edge does not matter.
    """
    xs = ["x%d" % i for i in range(1, 5)]
    ys = ["y%d" % j for j in range(1, 5)]
    edges = []
    for x in xs:
        for y in ys:
            if (x, y) != ("x4", "y4"):
                edges.append(("e%d" % (len(edges) + 1), x, y))
    return tuple(xs + ys), tuple(edges)


def load_census():
    """The frozen connected 9-edge graph classes as (vertex count, edges)."""
    with open(CENSUS_PATH) as fh:
        return [(n, tuple(tuple(e) for e in edges)) for n, edges in json.load(fh)]


def census_graph(n, edges):
    """The labelled graph of a census class, named as the test corpus names it."""
    vertices = tuple("x%d" % (v + 1) for v in range(n))
    triples = tuple(("e%d" % (i + 1), "x%d" % (u + 1), "x%d" % (v + 1))
                    for i, (u, v) in enumerate(sorted(edges)))
    return vertices, triples


class Labelled(NamedTuple):
    """A graph as the benchmark hands it to the program, with the map from
    the original edge labels to the labels it carries after relabeling."""

    graph: Graph
    edge_map: dict


def _fresh_names(names, rng, prefix: str) -> dict:
    """A map from ``names`` to new random names that sort as they did."""
    picks = sorted(rng.sample(range(10 ** 4), len(names)))
    return {old: "%s%04d" % (prefix, n) for old, n in zip(sorted(names), picks)}


def relabel(vertices, edges, seed: int, stream: str) -> Labelled:
    """The graph under the relabeling that ``seed`` picks for ``stream``."""
    if seed == 0:
        return Labelled(Graph(vertices, edges),
                        {label: label for label, _, _ in edges})
    rng = random.Random("%d/%s" % (seed, stream))
    vmap = _fresh_names(vertices, rng, "v")
    edge_map = _fresh_names([label for label, _, _ in edges], rng, "e")
    return Labelled(Graph([vmap[v] for v in vertices],
                          [(edge_map[label], vmap[u], vmap[v]) for label, u, v in edges]),
                    edge_map)
