"""Regenerate the frozen census of connected 9-edge graph classes.

Usage: PYTHONPATH=src:tests python3 perfbench/freeze_census.py

The census generator lives in the test suite and takes several seconds, so
the benchmark reads its output from ``perfbench/data/census9.json`` instead
of generating it during set-up.  ``perfbench/test_perfbench.py`` checks that
the frozen file still equals the generator's output.
"""

import json
import os

CENSUS_EDGES = 9
CENSUS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "data", "census9.json")


def census_classes():
    """The 9-edge classes of ``connected_graphs`` as JSON-ready lists."""
    from graph_corpus import connected_graphs
    return [[n, [list(e) for e in edges]]
            for n, edges in connected_graphs(CENSUS_EDGES)
            if len(edges) == CENSUS_EDGES]


def render(classes) -> str:
    """One class per line, so diffs of the frozen file stay readable."""
    return "[\n" + ",\n".join(json.dumps(c) for c in classes) + "\n]\n"


if __name__ == "__main__":
    text = render(census_classes())
    with open(CENSUS_PATH, "w") as fh:
        fh.write(text)
    print("wrote %s" % CENSUS_PATH)
