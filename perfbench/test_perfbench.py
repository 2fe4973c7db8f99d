"""Tests of the benchmark itself: its frozen data and its tracer.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
from itertools import combinations
import shutil
import signal
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")):
    if path not in sys.path:
        sys.path.insert(0, path)

from gvdlab import graphs, groebner, gvd  # noqa: E402
from speed import SpeedProbe, _clock, kernel  # noqa: E402
from tracer import Tracer  # noqa: E402
import freeze_census  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_frozen_census_equals_the_generator():
    with open(freeze_census.CENSUS_PATH) as fh:
        frozen = fh.read()
    assert frozen == freeze_census.render(freeze_census.census_classes())
    assert len(json.loads(frozen)) == 710


def test_census_graphs_are_labelled_as_the_test_corpus_labels_them():
    from graph_corpus import to_graph
    for n, edges in inputs.load_census()[::50]:
        G = to_graph(n, edges)
        assert inputs.census_graph(n, edges) == (G.vertices, G.edges)


def test_relabeling_keeps_the_graph_up_to_names():
    vertices, edges = inputs.k44_minus_edge()
    L = inputs.relabel(vertices, edges, 7, "k44e")
    assert len(set(L.graph.vertices)) == len(vertices)
    assert not set(L.graph.vertices) & set(vertices)
    assert sorted(L.edge_map.values()) == sorted(L.graph.edge_labels)
    old = {label: frozenset((u, v)) for label, u, v in edges}
    new = {label: frozenset(L.graph.ends(L.edge_map[label])) for label in old}
    # the edge map preserves which edges meet, hence (Whitney) the graph
    for e, f in combinations(old, 2):
        assert bool(old[e] & old[f]) == bool(new[e] & new[f])
    assert not set(L.graph.edge_labels) & set(old)
    # an edge keeps its place, so the edge ring keeps its variable order,
    # and names keep their sort order
    assert L.graph.edge_labels == tuple(L.edge_map[label] for label, _, _ in edges)
    assert [L.edge_map[label] for label in sorted(old)] == sorted(L.graph.edge_labels)
    assert inputs.relabel(vertices, edges, 0, "k44e").graph.edges == edges


def test_benchmark_json_names_what_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    rep = {"total_kref": 2.0, "graph_kref": [0.5], "peak_rss_mb": 3.0}
    assert ([m["name"] for m in spec["end_to_end"]]
            == ["setup_s"] + list(run.end_to_end(rep)))
    assert [m["name"] for m in spec["per_layer"]] == list(workloads.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "two_k4",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode not in (0, None)
    assert done.stdout == ""


def test_speed_probe_costs_work_without_its_own_probes():
    with SpeedProbe(interval=0.01) as probe:
        a = _clock()
        for _ in range(60):
            kernel()
        b = _clock()
    inside = [d for start, d in probe.probes if a <= start < b]
    assert len(inside) >= 2
    assert probe.work(a, b) == pytest.approx(b - a - sum(inside))
    # the work is the kernel itself, so it costs about 60 kernel runs
    assert 30 < probe.cost(a, b) < 120
    # a stretch with no probe in it is costed by its neighbours
    c = _clock()
    assert probe.cost(c, c + 0.01) > 0
    assert signal.getsignal(signal.SIGALRM) in (signal.SIG_DFL, signal.default_int_handler)


def _k33_run(trace: bool) -> dict:
    """Certify K_{3,3} in a fresh interpreter (the universal-basis cache is
    process-wide); the certificate JSON and, when traced, the call counts."""
    done = subprocess.run([sys.executable, __file__, "--k33", str(int(trace))],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_tracing_leaves_certificates_byte_identical():
    plain = _k33_run(trace=False)
    traced = _k33_run(trace=True)
    assert traced["certificate"] == plain["certificate"]


def test_traced_call_counts_repeat_exactly():
    first = _k33_run(trace=True)["calls"]
    second = _k33_run(trace=True)["calls"]
    assert first == second
    assert first["groebner.buchberger"] > 0
    assert first["graphs.graver_basis"] > 0


def test_tracer_rebinds_every_alias_and_restores_them():
    original = groebner.intersect
    assert gvd.intersect is original
    with Tracer(["groebner.intersect", "groebner.Ideal.groebner"]):
        assert gvd.intersect is groebner.intersect
        assert gvd.intersect is not original
        assert groebner.Ideal.groebner.__wrapped__ is not None
    assert groebner.intersect is original and gvd.intersect is original
    assert not hasattr(groebner.Ideal.groebner, "__wrapped__")


def test_recursive_replay_counts_only_the_outermost_frame():
    G = graphs.complete_bipartite(2, 3)
    I = graphs.toric_ideal(G)
    cert = gvd.is_gvd(I, context=G)
    with Tracer(["gvd.replay_certificate"]) as tracer:
        assert gvd.replay_certificate(I, cert, context=G)
    stats = tracer.summary()["gvd.replay_certificate"]
    outer = tracer.spans[0]
    assert stats["calls"] > 1
    assert stats["incl_s"] == outer[3] - outer[2]
    assert 0.0 <= stats["self_s"] <= stats["incl_s"]


def _certify_k33(trace: bool):
    G = graphs.complete_bipartite(3, 3)
    if not trace:
        cert = gvd.is_gvd(graphs.toric_ideal(G), context=G)
        return {"certificate": json.dumps(cert.to_json_dict(), sort_keys=True)}
    with Tracer(workloads.TRACED, workloads.COUNTED) as tracer:
        cert = gvd.is_gvd(graphs.toric_ideal(G), context=G)
    calls = {name: stats["calls"] for name, stats in tracer.summary().items()}
    return {"certificate": json.dumps(cert.to_json_dict(), sort_keys=True),
            "calls": calls}


if __name__ == "__main__" and sys.argv[1:2] == ["--k33"]:
    print(json.dumps(_certify_k33(sys.argv[2] == "1")))
