"""One repetition of one benchmark workload, run in a fresh interpreter.

Usage (``run.py`` starts it; it can be run by hand from the checkout root):

    python3 perfbench/workloads.py --workload two_k4 --seed 0 [--trace 1]
    python3 perfbench/workloads.py --workload census9 --seed 0 --setup-only

It imports gvdlab from ``src/`` of the checkout, builds the workload's
inputs from the seed, times the program's calls, checks every output, and
prints one JSON object as its last line of output.  A fresh interpreter per
repetition matters: ``graphs._UGB_CACHE`` is process-wide, so a second
repetition in the same process would time cache hits instead of Graver
completions.

Workloads (all single-threaded; see ``BENCHMARK.json`` for why each exists):

- ``two_k4``: the toric ideal of two K4's sharing a vertex and its full
  decomposability search, which refutes GVD.
- ``census9``: all 710 connected 9-edge graph classes, each certified
  (toric ideal, search, square-free label-lex test); the bipartite
  certifier on the 237 bipartite classes; replay of the five refutations
  and of a seeded sample of the other certificates, stratified by size.
- ``k44e``: the toric ideal of K_{4,4} minus an edge: its universal basis
  by Graver completion, then greedy minimal generators.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import re
import resource
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

# Times are process CPU seconds (see ``speed.py``).  The work is
# single-threaded and does no I/O.
from speed import SpeedProbe, _clock, kernel_seconds  # noqa: E402

WORKLOADS = ("two_k4", "census9", "k44e")

# census9: classes (by position in data/census9.json) whose toric ideal is
# not GVD, and those whose label-order lex initial ideal is not square-free
# (at every seed: relabeling keeps the label order).  The split is 688 gvd and square-free,
# 17 gvd and not square-free, 5 not-gvd and not square-free.
CENSUS_NOT_GVD = (26, 136, 259, 261, 338)
CENSUS_NOT_SQUAREFREE = CENSUS_NOT_GVD + (
    7, 30, 35, 42, 67, 70, 95, 111, 149, 159, 227, 233, 290, 294, 323, 345, 349)
CENSUS_BIPARTITE = 237
# gvd certificates replayed on census9, besides every refutation.
REPLAY_SAMPLE = 100

# k44e: the universal basis of a bipartite graph is its set of even cycles.
# K_{4,4} has 36 4-cycles, 96 6-cycles and 72 8-cycles; an edge lies on 9,
# 36 and 36 of them, so K_{4,4} minus an edge has 27, 60 and 36, and its
# toric ideal is minimally generated by the 27 quadrics of its 4-cycles.
K44E_BASIS_BY_DEGREE = {2: 27, 3: 60, 4: 36}
K44E_GENERATORS = 27

# The traced layers: module, then attribute path.  ``algebra`` shows only as
# the self time of the groebner spans; its per-term helpers are too cheap to
# wrap.
TRACED = (
    "groebner.Ideal.groebner", "groebner.buchberger",
    "groebner.intersect", "groebner.eliminate", "groebner.saturate_variable",
    "groebner.radical_contains", "groebner.radical_equal",
    "groebner.ideal_equal", "groebner.ideal_contains",
    "graphs.graver_basis", "graphs.universal_groebner_basis",
    "graphs.toric_ideal",
    "gvd.cn_split", "gvd.check_decomposition", "gvd.is_gvd",
    "gvd.replay_certificate",
    "components.unmixedness_evidence", "components.binomial_monomial_split",
    "components.minimal_generators",
    "bipartite.certify_bipartite_gvd", "bipartite.bipartite_ideal",
    "ef.squarefree_lex_initial",
)
COUNTED = ("groebner.s_polynomial",)


def _stats(names, *stats):
    return tuple("%s.%s" % (n, s) for n in names for s in stats)


# The per-layer metrics a traced run reports: <module>.<function>.<stat>,
# with calls, inclusive seconds (outermost frames) and self seconds, plus
# ratios of useful outcomes to attempts.
LAYER_METRICS = (
    ("groebner.buchberger.calls", "groebner.buchberger.self_s",
     "groebner.s_polynomial.calls", "groebner.gb_cache_hit_ratio")
    + _stats(("groebner.intersect", "groebner.eliminate",
              "groebner.saturate_variable", "groebner.radical_contains",
              "groebner.radical_equal", "groebner.ideal_equal",
              "groebner.ideal_contains"), "calls", "incl_s")
    + ("graphs.graver_basis.calls", "graphs.graver_basis.self_s",
       "graphs.ugb_cache_hit_ratio", "graphs.universal_groebner_basis.incl_s",
       "graphs.toric_ideal.self_s")
    + _stats(("gvd.cn_split", "gvd.check_decomposition"), "calls", "incl_s", "self_s")
    + ("gvd.is_gvd.incl_s", "gvd.certificate_nodes")
    + _stats(("gvd.replay_certificate",), "calls", "incl_s")
    + _stats(("components.unmixedness_evidence",
              "components.binomial_monomial_split",
              "components.minimal_generators"), "calls", "incl_s", "self_s")
    + ("components.unmixedness_conclusive_ratio",)
    + _stats(("bipartite.certify_bipartite_gvd", "bipartite.bipartite_ideal"),
             "calls", "incl_s")
    + _stats(("ef.squarefree_lex_initial",), "calls", "incl_s")
    + ("trace.overhead_ratio",)
)


class Tally:
    """Operations attempted and failed; an operation is one timed call into
    the program together with the checks on what it returned."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, what: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append("%s: %s" % (what, detail or "check failed"))

    def run(self, what: str, fn):
        """Call ``fn``; an exception fails the operation and returns None."""
        try:
            return fn()
        except Exception:  # a raising call is a failed operation
            self.record(what, False, traceback.format_exc(limit=-5))
            return None


class Result:
    """What one repetition measured."""

    def timed_call(self, stage, fn, *args, **kwargs):
        """Call ``fn`` and record its span of CPU time under ``stage``.  The
        stage ``"graph"`` is the work on one graph whose latency is
        reported; census9 also has ``"bipartite"`` and ``"replay"``."""
        t0 = _clock()
        out = fn(*args, **kwargs)
        self.timed.append((t0, _clock(), stage))
        return out

    def __init__(self):
        self.tally = Tally()
        self.timed = []       # (start, end, stage) per timed call
        self.cert_nodes = 0
        self.peak_rss_mb = 0.0
        self.info = {}


# ---------------------------------------------------------------------------
# Inputs.

def build_inputs(workload: str, seed: int):
    import inputs
    if workload == "two_k4":
        return inputs.relabel(inputs.TWO_K4_VERTICES, inputs.TWO_K4_EDGES,
                              seed, "two_k4")
    if workload == "k44e":
        vertices, edges = inputs.k44_minus_edge()
        return inputs.relabel(vertices, edges, seed, "k44e")
    if workload == "census9":
        return [inputs.relabel(*inputs.census_graph(n, edges), seed, "census9/%d" % i)
                for i, (n, edges) in enumerate(inputs.load_census())]
    raise ValueError("unknown workload %r" % workload)


# ---------------------------------------------------------------------------
# Helpers for the checks.

def _nodes(cert) -> int:
    if cert is None:
        return 0
    return 1 + _nodes(cert.child_c) + _nodes(cert.child_n)


def _degree_profile(polys) -> dict:
    out = {}
    for f in polys:
        d = f.total_degree()
        out[d] = out.get(d, 0) + 1
    return out


def _is_cycle_binomial(G, f) -> bool:
    """Whether f = x^a - x^b with a and b the two alternate edge sets of one
    even cycle of G."""
    if len(f.terms) != 2:
        return False
    names = f.ring.names
    colour = {}
    for m in f.terms:
        for i, e in enumerate(m):
            if e:
                if e != 1 or names[i] in colour:
                    return False
                colour[names[i]] = m
    seen = {}
    for label, side in colour.items():
        for v in G.ends(label):
            seen.setdefault(v, []).append(side)
    if any(len(s) != 2 or s[0] == s[1] for s in seen.values()):
        return False
    # every vertex meets one edge of each side; now require one cycle
    adj = {}
    for label in colour:
        u, v = G.ends(label)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    start = next(iter(adj))
    stack, reached = [start], {start}
    while stack:
        for w in adj[stack.pop()]:
            if w not in reached:
                reached.add(w)
                stack.append(w)
    return len(reached) == len(adj)


def _certificate_digest(certs) -> str:
    blob = json.dumps([c.to_json_dict() for c in certs], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Workloads.

def run_two_k4(L, res: Result, seed: int, measured):
    from gvdlab import algebra, graphs, groebner, gvd
    from inputs import TWO_K4_GENERATORS
    G = L.graph
    tally = res.tally

    def certify():
        I = graphs.toric_ideal(G)
        return I, gvd.is_gvd(I, context=G)

    with measured:
        got = tally.run("two_k4 certify", lambda: res.timed_call("graph", certify))
    if got is None:
        return
    I, cert = got
    res.cert_nodes += _nodes(cert)
    res.info["verdict"] = cert.verdict
    failed_at = sorted(y for y, _ in cert.failures)
    tally.record("two_k4 certify",
                 cert.verdict == "not-gvd" and failed_at == sorted(G.edge_labels),
                 "verdict %s with %d failures" % (cert.verdict, len(cert.failures)))

    def generators_agree():
        ring = I.ring
        rename = re.compile(r"e\d+")
        frozen = [algebra.parse_poly(
                      ring, rename.sub(lambda m: L.edge_map[m.group()], t))
                  for t in TWO_K4_GENERATORS]
        return (_degree_profile(I.gens) == {2: 4, 3: 9}
                and groebner.ideal_equal(I, groebner.Ideal(ring, frozen)))

    ok = tally.run("two_k4 generators", generators_agree)
    if ok is not None:
        tally.record("two_k4 generators", ok,
                     "generators differ from the frozen 4 quadrics and 9 cubics")


def run_k44e(L, res: Result, seed: int, measured):
    from gvdlab import graphs
    G = L.graph
    tally = res.tally

    with measured:
        I = tally.run("k44e toric ideal",
                      lambda: res.timed_call("graph", graphs.toric_ideal, G))
    if I is None:
        return
    basis = graphs.universal_groebner_basis(G)  # cached by toric_ideal
    tally.record("k44e universal basis",
                 _degree_profile(basis) == K44E_BASIS_BY_DEGREE
                 and all(_is_cycle_binomial(G, f) for f in basis),
                 "basis degrees %s" % _degree_profile(basis))
    in_basis = {f.canonical() for f in basis}
    tally.record("k44e toric ideal",
                 len(I.gens) == K44E_GENERATORS
                 and all(f.total_degree() == 2 and f.canonical() in in_basis
                         for f in I.gens),
                 "%d generators, degrees %s" % (len(I.gens), _degree_profile(I.gens)))
    res.info["basis"] = len(basis)
    res.info["generators"] = len(I.gens)


def run_census9(labelled, res: Result, seed: int, measured):
    from gvdlab import bipartite, ef, graphs, gvd
    tally = res.tally
    certified, bip, replays = [], [], []

    with measured:
        for idx, L in enumerate(labelled):
            G = L.graph

            def certify():
                I = graphs.toric_ideal(G)
                cert = gvd.is_gvd(I, context=G)
                return I, cert, ef.squarefree_lex_initial(G)

            got = tally.run("census9 class %d" % idx,
                            lambda: res.timed_call("graph", certify))
            if got is None:
                continue
            I, cert, sf = got
            certified.append((idx, G, I, cert, sf))
            if G.is_bipartite():
                b = tally.run("census9 bipartite %d" % idx,
                              lambda: res.timed_call(
                                  "bipartite", bipartite.certify_bipartite_gvd, G))
                if b is not None:
                    bip.append((idx, cert, b))

        for idx, G, I, cert, _ in replay_sample(certified, seed):
            ok = tally.run("census9 replay %d" % idx, lambda: res.timed_call(
                "replay", gvd.replay_certificate, I, cert, context=G))
            if ok is not None:
                replays.append((idx, ok))

    split = {}
    for idx, _, _, cert, sf in certified:
        want = "not-gvd" if idx in CENSUS_NOT_GVD else "gvd"
        ok = cert.verdict == want and sf == (idx not in CENSUS_NOT_SQUAREFREE)
        tally.record("census9 class %d" % idx, ok,
                     "verdict %s, square-free %s" % (cert.verdict, sf))
        key = "%s/%s" % (cert.verdict, "sf" if sf else "not-sf")
        split[key] = split.get(key, 0) + 1
    want_split = {"gvd/sf": 688, "gvd/not-sf": 17, "not-gvd/not-sf": 5}
    tally.record("census9 split", split == want_split, "split %s" % split)
    for idx, cert, b in bip:
        tally.record("census9 bipartite %d" % idx, b.verdict == cert.verdict,
                     "bipartite says %s, search says %s" % (b.verdict, cert.verdict))
    tally.record("census9 bipartite count", len(bip) == CENSUS_BIPARTITE,
                 "%d bipartite classes certified" % len(bip))
    for idx, ok in replays:
        tally.record("census9 replay %d" % idx, ok is True, "replay returned %r" % ok)

    res.cert_nodes += sum(_nodes(c[3]) for c in certified)
    res.info["split"] = split
    res.info["replayed"] = len(replays)
    res.info["certificate_sha256"] = _certificate_digest(c[3] for c in certified)


def replay_sample(certified, seed: int) -> list:
    """Every refutation and REPLAY_SAMPLE of the gvd certificates.

    A replay costs about its certificate's size, and sizes range from 1
    node to 271.  So the gvd certificates, ordered by size, are cut into
    REPLAY_SAMPLE runs of equal length and the seed picks one from each:
    every seed replays a sample of the same make-up, where a plain random
    sample would change the replay work by about 10% from seed to seed.
    """
    refuted = [c for c in certified if c[3].verdict != "gvd"]
    ordered = sorted((c for c in certified if c[3].verdict == "gvd"),
                     key=lambda c: (_nodes(c[3]), c[0]))
    rng = random.Random("%d/replay" % seed)
    k = min(REPLAY_SAMPLE, len(ordered))
    picked = [ordered[rng.randrange(i * len(ordered) // k, (i + 1) * len(ordered) // k)]
              for i in range(k)]
    return refuted + sorted(picked, key=lambda c: c[0])


RUNNERS = {"two_k4": run_two_k4, "census9": run_census9, "k44e": run_k44e}


# ---------------------------------------------------------------------------
# Layer metrics from a trace.

def layer_metrics(tracer, res: Result) -> dict:
    """The values of LAYER_METRICS from a finished trace."""
    from tracer import per_call_cost
    layers = tracer.summary()

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name, stats in layers.items():
        for stat, value in stats.items():
            out["%s.%s" % (name, stat)] = value
    gb_calls = layers["groebner.Ideal.groebner"]["calls"]
    out["groebner.gb_cache_hit_ratio"] = 1.0 - ratio(
        layers["groebner.buchberger"]["calls"], gb_calls)
    out["graphs.ugb_cache_hit_ratio"] = 1.0 - ratio(
        layers["graphs.graver_basis"]["calls"],
        layers["graphs.universal_groebner_basis"]["calls"])
    out["components.unmixedness_conclusive_ratio"] = ratio(
        tracer.hits["components.unmixedness_evidence"],
        layers["components.unmixedness_evidence"]["calls"])
    out["gvd.certificate_nodes"] = res.cert_nodes
    span_cost, count_cost = per_call_cost()
    overhead = len(tracer.spans) * span_cost + sum(tracer.counts) * count_cost
    out["trace.overhead_ratio"] = ratio(overhead, tracer.active_s - overhead)
    return {name: out[name] for name in LAYER_METRICS}


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after imports and input construction")
    args = ap.parse_args(argv)

    import gvdlab.bipartite  # noqa: F401  (every workload's modules load in set-up)
    import gvdlab.ef  # noqa: F401
    data = build_inputs(args.workload, args.seed)
    if args.setup_only:
        # process CPU time counts from the start of the interpreter
        setup_s = _clock()
        print(json.dumps({"setup_s": setup_s, "setup_ref": setup_s / kernel_seconds()}))
        return 0

    res = Result()
    tracer = probe = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(TRACED, COUNTED, {
            "components.unmixedness_evidence":
                lambda ev: ev.conclusive_unmixed or ev.refuted})
    else:
        # A traced run reports raw layer times; the probe would show in them.
        probe = SpeedProbe()

    @contextlib.contextmanager
    def measured():
        with tracer or probe:
            yield
        res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # The runner enters ``measured`` around its timed calls only, so its
    # output checks neither show in the trace nor count in the peak memory.
    RUNNERS[args.workload](data, res, args.seed, measured())

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": res.tally.attempted,
        "failed": res.tally.failed,
        "errors": res.tally.errors[:20],
        "peak_rss_mb": res.peak_rss_mb,
        "info": res.info,
    }
    # (stage, raw CPU seconds, cost in kref or None) per timed call
    if probe is not None:
        spent = [(stage, probe.work(a, b), probe.cost(a, b) / 1000.0)
                 for a, b, stage in res.timed]
        out["probes"] = len(probe.probes)
    else:
        spent = [(stage, b - a, None) for a, b, stage in res.timed]
        out["layers"] = layer_metrics(tracer, res)
    out["total_s"] = sum(s for _, s, _ in spent)
    out["graph_s"] = [s for stage, s, _ in spent if stage == "graph"]
    out["stages"] = {stage: {"s": sum(s for st, s, _ in spent if st == stage)}
                     for stage in sorted({st for st, _, _ in spent})}
    if probe is not None:
        out["total_kref"] = sum(k for _, _, k in spent)
        out["graph_kref"] = [k for stage, _, k in spent if stage == "graph"]
        for stage, got in out["stages"].items():
            got["kref"] = sum(k for st, _, k in spent if st == stage)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
