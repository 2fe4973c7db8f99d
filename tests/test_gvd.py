"""The C/N split, the decomposition-identity check, and the recursive
decomposability certifier, including refutations and certificate replay."""

import sys
from dataclasses import replace

import pytest

from gvdlab import bipartite, components, ef, graphs, groebner, gvd, util
from gvdlab.algebra import Poly, Ring, parse_poly, storage_order, y_order
from gvdlab.bipartite import certify_bipartite_gvd
from gvdlab.components import UnmixednessEvidence
from gvdlab.ef import quadratic_pipeline
from gvdlab.graphs import (
    Graph, complete_bipartite, complete_graph, cycle_graph, toric_ideal,
)
from gvdlab.groebner import Ideal, contract, ideal_contains, ideal_equal
from gvdlab.gvd import (
    CnSplit, GvdCertificate, GvdNode, base_node, check_decomposition,
    cn_split, initial_y_ideal, is_gvd, replay_certificate,
)
from gvdlab.util import Budget

from fixtures import (
    TWO_K4_C_E2, TWO_K4_C_E5_OF_K, TWO_K4_C_E8_OF_J, TWO_K4_C_E11_OF_M,
    TWO_K4_C_E12_OF_L, TWO_K4_IN_E5_OF_K, TWO_K4_IN_E11_OF_M,
    TWO_K4_IN_E12_OF_L, TWO_K4_N_E2, TWO_K4_N_E8_OF_J, TWO_K4_N_E11_OF_M,
    TWO_K4_N_E12_OF_L, PolledBudget, census9_graphs, corpus_ideals_and_branches,
    counted_runs, empty_shared_memo, two_k4_chain, two_k4_sharing_vertex,
    two_triangles_bridged, y_split,
)
from graph_corpus import NINE_EDGE_GRAPHS, connected_graphs, to_graph

XYZW = Ring(["x", "y", "z", "w"])


def I(*texts, ring=XYZW):
    return Ideal(ring, [parse_poly(ring, t) for t in texts])


def equal_to_display(ideal, texts):
    ring = ideal.ring
    return ideal_equal(ideal, Ideal(ring, [parse_poly(ring, t) for t in texts]))


def degenerate(split) -> bool:
    """The flag a step with this split records."""
    return split.degenerate


# ---------------------------------------------------------------------------
# The C/N split.

def test_split_of_principal_multiple_of_y():
    split = cn_split(I("y*x - y*z"), "y")
    assert split.square_free_in_y
    assert ideal_equal(split.C, I("x - z"))
    assert split.N.is_zero_ideal()


def test_split_at_absent_variable_repeats_the_ideal():
    J = I("x*z - w^2")
    split = cn_split(J, "y")
    assert ideal_equal(split.C, J)
    assert ideal_equal(split.N, J)
    assert split.square_free_in_y


def test_split_flags_square_exponent():
    split = cn_split(I("x^2 - z*w"), "x")
    assert not split.square_free_in_y
    assert split.C.is_unit_ideal()


def test_split_n_is_contained_in_c():
    G = two_k4_sharing_vertex()
    split = cn_split(toric_ideal(G), "e2")
    for g in split.N.gens:
        assert ideal_contains(split.C, g)


def test_split_of_benchmark_at_e2_matches_displays():
    G = two_k4_sharing_vertex()
    split = cn_split(toric_ideal(G), "e2")
    assert split.square_free_in_y
    assert equal_to_display(split.C, TWO_K4_C_E2)
    assert equal_to_display(split.N, TWO_K4_N_E2)


def test_split_is_order_independent_for_the_benchmark():
    # Recompute the split with the ring variables stored in reverse order so
    # every tie-break differs; C and N must come out the same.
    G = two_k4_sharing_vertex()
    ring = G.edge_ring()
    rev = Ring(tuple(reversed(ring.names)))
    J = toric_ideal(G).rename(rev)
    split = cn_split(J, "e2")
    assert equal_to_display(split.C.rename(ring), TWO_K4_C_E2)
    assert equal_to_display(split.N.rename(ring), TWO_K4_N_E2)


def test_a_square_free_split_hands_down_the_bases_of_c_and_n(monkeypatch):
    # A square-free split caches C's and N's reduced bases under the y-order
    # beside their generators, the q's, and their storage bases are read off
    # those with no Buchberger run, as are their branches'.  Each is the
    # basis a fresh run returns, term for term and in the same order.
    # Below a toric ideal every ideal is homogeneous, so every square-free
    # split hands down both.
    def terms(basis):
        return [list(g.terms.items()) for g in basis]

    ideals = corpus_ideals_and_branches()
    runs = counted_runs(monkeypatch)
    for K in ideals:
        for y in K.ring.names:
            split = cn_split(K, y)
            if not split.square_free_in_y:
                continue
            order = y_order(K.ring, y)
            fresh = len(runs)
            got = [(order, J, J.groebner(order)) for J in (split.C, split.N)]
            got += [(storage_order(J.ring), J, J.groebner())
                    for J in (split.C, split.N, split.c_branch, split.n_branch)]
            assert len(runs) == fresh
            for o, J, basis in got:
                assert terms(basis) == terms(groebner.buchberger(o, J.gens))


def test_a_split_whose_graded_initial_terms_differ_hands_down_no_basis(monkeypatch):
    # The q of <xy - yz^2> at y is x - z^2, whose initial term is x under
    # the y-order and z^2 under graded lex, so C's branch gets no storage
    # basis and runs Buchberger.  The homogeneous <xy - yz> hands C's basis
    # down to its branch.
    XYZ = Ring(["x", "y", "z"])
    other, graded = (cn_split(I(f, ring=XYZ), "y") for f in ("x*y - y*z^2", "x*y - y*z"))
    assert other.square_free_in_y and graded.square_free_in_y
    runs = counted_runs(monkeypatch)
    assert [str(g) for g in other.c_branch.groebner()] == ["z^2 - x"]
    assert len(runs) == 1
    assert [str(g) for g in graded.c_branch.groebner()] == ["x - z"]
    assert len(runs) == 1


def test_variable_scores_read_off_exponents_match_y_split():
    # The search orders variables by scores read off the exponents of the
    # storage basis; they rank as the scores built from y_split do, over
    # the corpus toric ideals and their branches.
    def by_y_split(rgb, present):
        scored = []
        for i in sorted(present):
            doomed, hard, n_size = 0, 0, 0
            for g in rgb:
                d, q, _ = y_split(i, g)
                doomed |= d > 1
                hard += not q.is_variable()
                n_size += d == 0
            scored.append((doomed, hard, n_size, i))
        return [i for *_, i in sorted(scored)]

    for K in corpus_ideals_and_branches():
        rgb = K.groebner()
        present = {i for g in rgb for i in g.support()}
        assert gvd._variable_order(rgb, present) == by_y_split(rgb, present)


# ---------------------------------------------------------------------------
# The identity check.

def test_check_holds_for_benchmark_at_e2():
    G = two_k4_sharing_vertex()
    J = toric_ideal(G)
    split = cn_split(J, "e2")
    assert check_decomposition(J, split)
    assert not degenerate(split)


def test_check_fails_for_square_generator():
    # in_y(<y^2>) = <y^2> while C:(N + <y>) intersect to <y>, so the identity
    # is honestly false even though C is the unit ideal.
    R1 = Ring(["e4"])
    J = Ideal(R1, [parse_poly(R1, "e4^2")])
    split = cn_split(J, "e4")
    assert not check_decomposition(J, split)
    assert degenerate(split)


def test_check_degenerate_at_absent_variable():
    J = I("x*z - w^2")
    split = cn_split(J, "y")
    assert check_decomposition(J, split)
    assert degenerate(split)


def test_initial_y_ideal_of_principal():
    J = I("y*x - z*w")
    assert ideal_equal(initial_y_ideal(J, "y"), I("y*x"))


# ---------------------------------------------------------------------------
# The witness chain of C/N displays inside the benchmark ideal.  Each split
# is checked against the frozen display; the chain is meaningful independent
# of any decomposability verdicts.

def test_chain_step_j_at_e8():
    split = cn_split(two_k4_chain()["J"], "e8")
    assert equal_to_display(split.C, TWO_K4_C_E8_OF_J)
    assert equal_to_display(split.N, TWO_K4_N_E8_OF_J)


def test_chain_step_k_at_e5():
    K = two_k4_chain()["K"]
    assert equal_to_display(initial_y_ideal(K, "e5"), TWO_K4_IN_E5_OF_K)
    split = cn_split(K, "e5")
    assert equal_to_display(split.C, TWO_K4_C_E5_OF_K)
    # N is the toric ideal of the graph without e2 and e5.
    G = two_k4_sharing_vertex()
    sub = G.delete_edges(["e2", "e5"])
    N = contract(split.N, "e5")
    assert ideal_equal(N, toric_ideal(sub).rename(N.ring))


def test_chain_steps_l_and_m():
    chain = two_k4_chain()
    L, M = chain["L"], chain["M"]
    assert equal_to_display(initial_y_ideal(L, "e12"), TWO_K4_IN_E12_OF_L)
    split12 = cn_split(L, "e12")
    assert equal_to_display(split12.N, TWO_K4_N_E12_OF_L)
    assert equal_to_display(split12.C, TWO_K4_C_E12_OF_L)
    assert equal_to_display(initial_y_ideal(M, "e11"), TWO_K4_IN_E11_OF_M)
    split11 = cn_split(M, "e11")
    assert equal_to_display(split11.N, TWO_K4_N_E11_OF_M)
    assert equal_to_display(split11.C, TWO_K4_C_E11_OF_M)


def test_contracted_n_is_toric_ideal_of_smaller_graph():
    # Removing the decomposed edge from the graph realizes the N side, for
    # every edge of a couple of small graphs.
    for G in [complete_graph(4), cycle_graph(6)]:
        J = toric_ideal(G)
        for e in G.edge_labels:
            N = contract(cn_split(J, e).N, e)
            assert ideal_equal(N, toric_ideal(G.delete_edges([e])).rename(N.ring))


# ---------------------------------------------------------------------------
# The certifier: base cases and one-variable ideals.

def test_gvd_zero_unit_variables():
    assert is_gvd(Ideal.zero(XYZW)).verdict == "gvd"
    assert is_gvd(Ideal.unit(XYZW)).verdict == "gvd"
    cert = is_gvd(I("x", "z"))
    assert cert.verdict == "gvd"
    assert cert.kind == "variables"
    assert cert.variables == ("x", "z")


def test_gvd_univariate_linear_only():
    # In one variable exactly the linear ideals are decomposable.
    R1 = Ring(["x"])
    lin = Ideal(R1, [parse_poly(R1, "2*x + 3")])
    assert is_gvd(lin).verdict == "gvd"
    for text in ["x^2", "x^2 + x", "x^2 + 1"]:
        cert = is_gvd(Ideal(R1, [parse_poly(R1, text)]))
        assert cert.verdict == "not-gvd"
        assert "square-free" in dict(cert.failures)["x"]


def test_gvd_principal_with_square_free_monomials():
    cert = is_gvd(I("x*y - z*w + w"))
    assert cert.verdict == "gvd"
    assert replay_certificate(I("x*y - z*w + w"), cert)


def test_gvd_square_free_monomial_ideals():
    assert is_gvd(I("x*y", "x*z", "y*z")).verdict == "gvd"
    # <xy, xz> has minimal primes of dimensions 3 and 2, so not unmixed.
    cert = is_gvd(I("x*y", "x*z"))
    assert cert.verdict == "not-gvd"
    assert cert.unmixedness.refuted


def test_gvd_composes_over_disjoint_supports():
    cert = is_gvd(I("x*y", "z*w"))
    assert cert.verdict == "gvd"
    assert is_gvd(I("x^2", "z*w")).verdict == "not-gvd"


def test_gvd_collapses_absent_variables():
    # <xy> in three variables: the step at the absent z is degenerate and
    # the verdict is that of the contraction.
    R3 = Ring(["x", "y", "z"])
    pos = is_gvd(Ideal(R3, [parse_poly(R3, "x*y")]))
    assert pos.verdict == "gvd"
    R2 = Ring(["x", "y"])
    neg = is_gvd(Ideal(R2, [parse_poly(R2, "x^2")]))
    assert neg.verdict == "not-gvd"
    assert "rules out every variable" in dict(neg.failures)["y"]


def test_gvd_substituted_bridged_triangles_ideal():
    # Replacing the squared edge by a fresh variable turns the bridged
    # triangles generator into a decomposable principal ideal.
    R = Ring(["e1", "e2", "e3", "y", "e5", "e6", "e7", "e8"])
    J = Ideal(R, [parse_poly(R, "y*e1*e6*e7 - e2*e3*e5^2*e8")])
    assert is_gvd(J).verdict == "gvd"


# ---------------------------------------------------------------------------
# The certifier: refutations.

def test_gvd_refutes_bridged_triangles():
    G = two_triangles_bridged()
    cert = is_gvd(toric_ideal(G), context=G)
    assert cert.verdict == "not-gvd"
    reasons = dict(cert.failures)
    assert set(reasons) == set(G.edge_labels)
    for e in ["e4", "e5"]:
        assert "square-free" in reasons[e]


def test_an_inconclusive_search_node_keeps_no_failures(monkeypatch):
    # The budget lasts until the C branch at e1 is refuted, and the loop
    # stops at e2.  Replay rejects every inconclusive node, so the root
    # keeps neither that failure nor its refuted branch.  The memo starts
    # empty, or its refutation would answer.
    empty_shared_memo(monkeypatch)
    G = two_triangles_bridged()
    cert = is_gvd(toric_ideal(G), context=G, budget=PolledBudget(16))
    assert cert.verdict == "inconclusive"
    assert cert.to_json_dict()["reason"] == "e2: budget exhausted"
    assert cert.node.failures == ()


def test_gvd_refutes_quadratic_block_of_benchmark():
    # <e9*e10 - e7*e12, e7*e9> fails at every variable: two variables break
    # square-freeness of the reduced basis, the other two lead to a branch
    # containing a square.
    R = Ring(["e7", "e9", "e10", "e12"])
    F2 = Ideal(R, [parse_poly(R, "e9*e10 - e7*e12"), parse_poly(R, "e7*e9")])
    cert = is_gvd(F2)
    assert cert.verdict == "not-gvd"
    assert set(dict(cert.failures)) == {"e7", "e9", "e10", "e12"}


def test_gvd_refutes_benchmark_c_side():
    G = two_k4_sharing_vertex()
    sub = G.delete_edges(["e2"])
    ring = Ring([n for n in G.edge_labels if n != "e2"])
    J = Ideal(ring, [parse_poly(ring, t) for t in TWO_K4_C_E2])
    cert = is_gvd(J, context=sub)
    assert cert.verdict == "not-gvd"
    assert replay_certificate(J, cert, context=sub)


def test_gvd_refutes_the_benchmark_and_replays(monkeypatch):
    # The paper's non-GVD example, two K4s sharing a vertex, from an empty
    # universal-basis cache and an empty shared memo.
    monkeypatch.setattr(graphs, "_UGB_CACHE", {})
    empty_shared_memo(monkeypatch)
    G = two_k4_sharing_vertex()
    calls = {"intersect": 0, "graver_basis": 0, "_search": 0,
             "buchberger": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(components, "intersect")
    counted(graphs, "graver_basis")
    counted(gvd, "_search")
    counted(groebner, "buchberger")
    J = toric_ideal(G)
    cert = is_gvd(J, context=G)
    monkeypatch.undo()
    assert cert.verdict == "not-gvd"
    # The witness settles every non-radical step, and each context's
    # universal basis is restricted from the graph's.
    assert calls["intersect"] == 0
    assert calls["graver_basis"] <= 1
    # The work of the search, which stops at ideals proved not radical:
    # without that stop it made 1,490 _search and 5,261 buchberger calls,
    # with it 1,070 and 3,598.  Keying the memo by the context's shape
    # serves symmetric branches from one search: 511 and 2,066.  Keying
    # principal and monomial bases without the context: 463 _search calls.
    # Keying the others by their context's edge positions and lattice: 446.
    # Testing toric parts by lattice and membership, not by comparing
    # reduced bases: 1,824 buchberger calls, from 1,925.  Handing down the
    # reduced bases that a theorem fixes (absent variables, contractions,
    # disjoint factors): 1,221.
    assert calls["_search"] <= 450
    assert calls["buchberger"] <= 1230
    assert replay_certificate(J, cert, context=G)


def test_gvd_certifies_benchmark_c_side_at_e3():
    # The C-branch at e3 of the benchmark ideal is decomposable, and its
    # certificate replays.
    G = two_k4_sharing_vertex()
    J = toric_ideal(G)
    C3 = contract(cn_split(J, "e3").C, "e3")
    ctx = G.delete_edges(["e3"])
    cert = is_gvd(C3, context=ctx)
    assert cert.verdict == "gvd"
    assert replay_certificate(C3, cert, context=ctx)


def test_the_certificate_view_names_its_reasons():
    # The view's ``failures`` and ``reason`` name their variables as
    # ``to_json_dict`` does, with no {i} placeholder left.
    ring = Ring(["x", "y", "z"])
    J = I("x^2*y - z^3", "x*y^2 - z^3", ring=ring)
    cert = is_gvd(J)
    assert cert.verdict == "not-gvd"
    reasons = dict(cert.failures)
    assert set(reasons) == {"x", "y", "z"}
    assert "not square-free in y," in reasons["y"]
    assert [(f["y"], f["reason"]) for f in cert.to_json_dict()["failures"]] == list(
        cert.failures)
    assert not cn_split(J, "x").square_free_in_y
    step = GvdCertificate(gvd.certify_step(J, "x", None, None, None), ring.names)
    assert step.reason == "decomposition identity failed at x"
    assert step.to_json_dict()["reason"] == step.reason
    assert not any("{" in r for r in list(reasons.values()) + [step.reason])


# ---------------------------------------------------------------------------
# Even cycles, unions, budgets, memoization.

def test_gvd_even_cycles():
    for n in [4, 6, 8]:
        G = cycle_graph(n)
        cert = is_gvd(toric_ideal(G), context=G)
        assert cert.verdict == "gvd"


def test_gvd_disjoint_union_combines_verdicts():
    # The toric ideal of a disjoint union is the sum of its parts' ideals
    # over disjoint variables, decomposable exactly when both parts are.
    for H, verdict in [(cycle_graph(6), "gvd"),
                       (two_triangles_bridged(), "not-gvd")]:
        U = graphs.disjoint_union(cycle_graph(4), H)
        J = toric_ideal(U)
        cert = is_gvd(J, context=U)
        assert (cert.kind, cert.verdict) == ("disjoint-union", verdict)
        assert replay_certificate(J, cert, context=U)


def test_zero_budget_is_spent_before_the_clock_ticks(monkeypatch):
    # A coarse clock can read the same value for many milliseconds; the
    # budget tests below rely on Budget(0.0) being spent all the same.
    monkeypatch.setattr(util.time, "monotonic", lambda: 1000.0)
    assert Budget(0.0).exceeded()
    assert not Budget(1.0).exceeded()
    assert not Budget(None).exceeded()


def test_a_budget_stays_spent_once_a_poll_reads_spent(monkeypatch):
    # ``spent`` is False until a poll reads "spent", and then stays True,
    # even if the clock were to go back; an unlimited budget is never spent.
    clock = [1000.0]
    monkeypatch.setattr(util.time, "monotonic", lambda: clock[0])
    budget, unlimited = Budget(1.0), Budget(None)
    assert not budget.exceeded() and not budget.spent
    clock[0] = 1001.0
    assert not budget.spent
    assert budget.exceeded() and budget.spent
    clock[0] = 1000.0
    assert budget.exceeded() and budget.spent
    for _ in range(3):
        assert not unlimited.exceeded() and not unlimited.spent


def test_an_inconclusive_node_is_stored(monkeypatch):
    # With no context the evidence for K4's toric ideal decides nothing, so
    # the search is inconclusive with no budget spent; the memo keeps the
    # root, and a second call answers from it with no search.
    empty_shared_memo(monkeypatch)
    I = toric_ideal(complete_graph(4))
    first = is_gvd(I)
    assert first.verdict == "inconclusive"
    searches, search = [], gvd._search
    monkeypatch.setattr(gvd, "_search", lambda *args: searches.append(args) or search(*args))
    second = is_gvd(I)
    assert searches == []
    assert second.to_json_dict() == first.to_json_dict()


def test_gvd_budget_exhaustion_is_inconclusive():
    G = two_k4_sharing_vertex()
    cert = is_gvd(toric_ideal(G), context=G, budget=Budget(0.0))
    assert cert.verdict == "inconclusive"
    assert "budget" in cert.reason


def stored_json(memo: dict) -> dict:
    """The JSON of each node of ``memo``, read in a ring of its arity (the
    first entry of every key), by key."""
    return {k: GvdCertificate(node, tuple("v%d" % i for i in range(k[0]))).to_json_dict()
            for k, node in memo.items()}


def test_budgeted_calls_share_the_memo(monkeypatch):
    # A node is stored only when no poll of its call's budget has read
    # "spent", so every stored node is the one a call with no budget stores
    # under its key, and every call shares one memo.
    runs = {
        "search": lambda G, budget: is_gvd(toric_ideal(G), context=G, budget=budget),
        "bipartite": certify_bipartite_gvd,
        "ef": quadratic_pipeline,
    }
    K4, K23 = complete_graph(4), complete_bipartite(2, 3)
    sweeps = [("search", G) for G in (two_triangles_bridged(), K4, K23)]
    sweeps += [("bipartite", K23), ("ef", K4), ("ef", K23)]
    stored = 0
    for name, G in sweeps:
        empty_shared_memo(monkeypatch)
        fresh = runs[name](G, None)
        expected = stored_json(gvd._MEMO)
        # Each budget from an empty memo, then each over the memo the
        # smaller budgets left.
        for warm in (False, True):
            empty_shared_memo(monkeypatch)
            polls = 0
            while True:
                if not warm:
                    empty_shared_memo(monkeypatch)
                before = set(gvd._MEMO)
                budget = PolledBudget(polls)
                cert = runs[name](G, budget)
                for k, node in stored_json(gvd._MEMO).items():
                    if k not in before:
                        assert node == expected[k], (name, G.edges, polls)
                        stored += 1
                if not budget.spent:
                    break
                assert cert.verdict == "inconclusive", (name, G.edges, polls)
                polls += 1
            assert cert.to_json_dict() == fresh.to_json_dict()
    assert stored > 500
    # A warm memo answers a budgeted call with no search.
    C6 = cycle_graph(6)
    empty_shared_memo(monkeypatch)
    fresh = is_gvd(toric_ideal(C6), context=C6)
    searches, search = [], gvd._search
    monkeypatch.setattr(gvd, "_search", lambda *args: searches.append(args) or search(*args))
    budgeted = is_gvd(toric_ideal(C6), context=C6, budget=Budget(60))
    assert searches == []
    assert budgeted.to_json_dict() == fresh.to_json_dict()
    # So a forged shared node answers budgeted and unbudgeted calls alike.
    leaf = GvdNode("not-gvd", "not-gvd", reason="forged")
    gvd._MEMO.update((key, leaf) for key in list(gvd._MEMO))
    for budget in (None, Budget(60)):
        assert is_gvd(toric_ideal(C6), context=C6, budget=budget).node is leaf


def test_one_pass_searches_each_node_once(monkeypatch):
    # A non-decomposable graph of the 9-edge census whose search reaches
    # 115 distinct nodes; a search that restarts would visit some twice.
    G = Graph(["x%d" % i for i in range(1, 8)],
              [("e1", "x1", "x2"), ("e2", "x1", "x4"), ("e3", "x2", "x4"),
               ("e4", "x3", "x5"), ("e5", "x3", "x6"), ("e6", "x4", "x7"),
               ("e7", "x5", "x6"), ("e8", "x5", "x7"), ("e9", "x6", "x7")])
    empty_shared_memo(monkeypatch)
    search = gvd._search
    keys = []

    def spy(I, rgb, context, *rest):
        keys.append((I.ring.names, tuple(g.canonical() for g in rgb),
                     gvd._context_key(I, context)))
        return search(I, rgb, context, *rest)

    monkeypatch.setattr(gvd, "_search", spy)
    assert is_gvd(toric_ideal(G), context=G).verdict == "not-gvd"
    assert keys and len(keys) == len(set(keys))


def test_gvd_memo_is_shared_across_renamings(monkeypatch):
    # Same cycle, same vertices, re-labelled edges: the second call must be
    # served from the memo with the names mapped over.
    verts = ["x1", "x2", "x3", "x4"]
    G1 = Graph(verts, [("f1", "x1", "x2"), ("f2", "x2", "x3"),
                       ("f3", "x3", "x4"), ("f4", "x4", "x1")])
    G2 = Graph(verts, [("h1", "x1", "x2"), ("h2", "x2", "x3"),
                       ("h3", "x3", "x4"), ("h4", "x4", "x1")])
    empty_shared_memo(monkeypatch)
    first = is_gvd(toric_ideal(G1), context=G1)
    assert first.verdict == "gvd"
    filled = len(gvd._MEMO)
    second = is_gvd(toric_ideal(G2), context=G2)
    assert second.verdict == "gvd"
    assert len(gvd._MEMO) == filled
    assert second.ring_names == ("h1", "h2", "h3", "h4")


@pytest.mark.parametrize("G", [
    two_k4_sharing_vertex(),
    to_graph(6, ((0, 1), (0, 4), (1, 4), (2, 3), (2, 5), (3, 5), (4, 5))),
], ids=["two_k4", "bridged_triangles"])
def test_gvd_memo_keys_the_context_by_its_shape(G, monkeypatch):
    # Permuted vertex names with the edge labels kept give the same ideal
    # over a context of the same shape: the second call is a memo hit at
    # the root, and it reads as a fresh search.
    flip = dict(zip(G.vertices, reversed(G.vertices)))
    H = Graph(G.vertices, [(e, flip[u], flip[v]) for e, u, v in G.edges])
    assert H.edges != G.edges
    empty_shared_memo(monkeypatch)
    is_gvd(toric_ideal(G), context=G)
    filled = len(gvd._MEMO)
    cert = is_gvd(toric_ideal(H), context=H)
    assert len(gvd._MEMO) == filled
    empty_shared_memo(monkeypatch)
    assert cert.to_json_dict() == is_gvd(toric_ideal(H), context=H).to_json_dict()


@pytest.mark.parametrize("texts", [
    ["e1*e3*e5 - e2*e4*e6"],
    ["e1*e2", "e2*e3", "e1*e3", "e4*e5*e6"],
], ids=["principal", "monomial"])
def test_memo_keys_principal_and_monomial_bases_without_the_context(
        texts, monkeypatch):
    # No context changes the subtree of such a basis, so a second context
    # of another shape is served from the first call's entries.
    C6 = cycle_graph(6)
    star = Graph(["c"] + list(C6.vertices),
                 [(e, "c", u) for e, u, _ in C6.edges])
    ring = C6.edge_ring()
    J = Ideal(ring, [parse_poly(ring, t) for t in texts])
    assert gvd._context_key(J, C6) != gvd._context_key(J, star)
    empty_shared_memo(monkeypatch)
    assert is_gvd(J, context=C6).verdict == "gvd"
    filled = len(gvd._MEMO)
    calls = []
    real = gvd._search
    monkeypatch.setattr(gvd, "_search",
                        lambda *args: calls.append(args) or real(*args))
    cert = is_gvd(J, context=star)
    assert len(gvd._MEMO) == filled and calls == []
    empty_shared_memo(monkeypatch)
    assert cert.to_json_dict() == is_gvd(J, context=star).to_json_dict()
    assert calls


def test_memo_keys_several_binomials_with_the_context(monkeypatch):
    # K_{2,3} with a pendant edge e7 at a vertex of either side: one toric
    # ideal, with three binomials, over contexts of two shapes but one
    # lattice and the same edge positions.  They share one memo entry, and
    # under each context it reads as a fresh search.
    edges = [("e1", "a1", "b1"), ("e2", "a1", "b2"), ("e3", "a1", "b3"),
             ("e4", "a2", "b1"), ("e5", "a2", "b2"), ("e6", "a2", "b3")]
    vertices = ["a1", "a2", "b1", "b2", "b3", "p"]
    contexts = [Graph(vertices, edges + [("e7", end, "p")])
                for end in ("a1", "b1")]
    J = toric_ideal(contexts[0])
    assert len(J.groebner()) == 3
    assert J.gens == toric_ideal(contexts[1]).gens
    empty_shared_memo(monkeypatch)
    keys, certs = set(), []
    for G in contexts:
        certs.append(is_gvd(J, context=G))
        keys.add(gvd._node_key(J, G))
    assert len(keys) == 1 and keys <= set(gvd._MEMO)
    for G, cert in zip(contexts, certs):
        assert cert.verdict == "gvd"
        empty_shared_memo(monkeypatch)
        assert cert.to_json_dict() == is_gvd(J, context=G).to_json_dict()


def test_memo_keys_the_edge_positions_of_the_context(monkeypatch):
    # A 4-cycle on e1..e4 with a pendant edge e5, and the 4-cycle alone:
    # one lattice, but e5 is an edge of the first context only, so only
    # there does the closed cover {e5} remove it.  A fresh search tells
    # the two apart, and so must a shared memo.
    ring = Ring(["e1", "e2", "e3", "e4", "e5"])
    J = Ideal(ring, [parse_poly(ring, "e1*e3 - e2*e4"),
                     parse_poly(ring, "e1*e5")])
    square = [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "d"),
              ("e4", "d", "a")]
    contexts = [Graph("abcdp", square + [("e5", "a", "p")]),
                Graph("abcd", square)]
    fresh = []
    for G in contexts:
        empty_shared_memo(monkeypatch)
        fresh.append(is_gvd(J, context=G).to_json_dict())
    removed = [[c["removed_edges"] for c in d["unmixedness"]["components"]
                if c["M"] == ["e5"]] for d in fresh]
    assert removed == [[["e5"]], [[]]]
    empty_shared_memo(monkeypatch)
    for G, want in zip(contexts, fresh):
        assert is_gvd(J, context=G).to_json_dict() == want


def test_principal_and_monomial_nodes_read_no_context(monkeypatch):
    # Over the 7-edge corpus with one shared memo, no principal or monomial
    # basis is searched twice, and at every node with such a basis the
    # certificate is the one a search with no context and an empty memo
    # builds: the claim the context-free key rests on.
    empty_shared_memo(monkeypatch)
    real_search, real_certify = gvd._search, gvd._certify
    searched, checked, inner = [], [], []

    def context_free(rgb):
        return len(rgb) == 1 or all(g.is_monomial() for g in rgb)

    def search(I, rgb, *rest):
        if context_free(rgb) and not inner:
            searched.append((I.ring.arity, tuple(g.canonical() for g in rgb)))
        return real_search(I, rgb, *rest)

    def certify(I, *rest):
        node = real_certify(I, *rest)
        if (not inner and base_node(I) is None
                and context_free(I.groebner())):
            inner.append(True)
            with monkeypatch.context() as mp:
                mp.setattr(gvd, "_MEMO", {})
                fresh = is_gvd(I)
            inner.pop()
            cert = GvdCertificate(node, I.ring.names)
            checked.append(cert.to_json_dict() == fresh.to_json_dict())
        return node

    monkeypatch.setattr(gvd, "_search", search)
    monkeypatch.setattr(gvd, "_certify", certify)
    for n, edges in connected_graphs(7):
        G = to_graph(n, edges)
        is_gvd(toric_ideal(G), context=G)
    assert searched and len(searched) == len(set(searched))
    assert len(checked) > 50 and all(checked)


def test_context_key_is_the_edge_positions_and_the_lattice():
    # A path, a star and a copy of the path on other vertex names are
    # forests on e1..e4: the lattice {0} at the same edge positions, so one
    # key.  A 4-cycle has another lattice, and a path on e1..e3 other
    # positions.
    ring = Ring(["e1", "e2", "e3", "e4"])
    zero = Ideal(ring, [])
    path = Graph("abcde", [("e1", "a", "b"), ("e2", "b", "c"),
                           ("e3", "c", "d"), ("e4", "d", "e")])
    star = Graph("abcde", [("e1", "a", "b"), ("e2", "a", "c"),
                           ("e3", "a", "d"), ("e4", "a", "e")])
    copy = Graph("vwxyz", [("e1", "x", "w"), ("e2", "w", "z"),
                           ("e3", "z", "y"), ("e4", "y", "v")])
    square = Graph("abcd", [("e1", "a", "b"), ("e2", "b", "c"),
                            ("e3", "c", "d"), ("e4", "d", "a")])
    shorter = path.delete_edges(["e4"])
    key = gvd._context_key
    assert key(zero, path) == key(zero, star) == key(zero, copy)
    others = [key(zero, G) for G in (square, shorter)]
    assert len({key(zero, path)} | set(others)) == 3


def test_a_context_with_an_edge_outside_the_ring_is_refused(monkeypatch):
    # Every edge of a context must be a variable of I's ring, so that the
    # context is keyed by its edge positions and lattice alone: ``is_gvd``
    # raises on a context with an edge x outside the ring, budgeted or not,
    # before any search, and replay rejects a certificate under it.
    U = graphs.disjoint_union(cycle_graph(4), cycle_graph(6))
    foreign = Graph(U.vertices, list(U.edges) + [("x", "x1", "x6")])
    J = toric_ideal(U)
    empty_shared_memo(monkeypatch)
    cert = is_gvd(J, context=U)
    assert cert.kind == "disjoint-union" and cert.verdict == "gvd"
    assert replay_certificate(J, cert, context=U)
    calls = []
    real = gvd._search
    monkeypatch.setattr(gvd, "_search",
                        lambda *args: calls.append(args) or real(*args))
    for budget in (None, Budget(60)):
        with pytest.raises(ValueError):
            is_gvd(J, context=foreign, budget=budget)
    assert calls == []
    assert not replay_certificate(J, cert, context=foreign)


def test_the_branches_are_one_ideal_exactly_at_an_absent_variable():
    # Over the 7-edge corpus, at every variable of each toric ideal, the
    # split's C and N branches are one ideal exactly when the variable is
    # absent from the storage basis; the corpus has both cases.
    cases = {True: 0, False: 0}
    for n, edges in connected_graphs(7):
        J = toric_ideal(to_graph(n, edges))
        present = {i for g in J.groebner() for i in g.support()}
        for i, y in enumerate(J.ring.names):
            split = cn_split(J, y)
            absent = i not in present
            assert (split.c_branch is split.n_branch) == absent
            cases[absent] += 1
    assert cases[True] and cases[False]


def test_a_split_builds_each_branch_once_and_replace_starts_afresh(monkeypatch):
    # The branches are plain fields filled on first read: a second read
    # contracts nothing, and a split copied with another C by ``replace``
    # contracts its own C rather than reading the original's branch.
    J = toric_ideal(two_k4_sharing_vertex())
    split = cn_split(J, "e2")
    contracted = []
    real = gvd.contract
    monkeypatch.setattr(gvd, "contract",
                        lambda K, y: contracted.append(K) or real(K, y))
    c, n = split.c_branch, split.n_branch
    assert (split.c_branch, split.n_branch) == (c, n)
    assert contracted == [split.C, split.N]
    other = Ideal(J.ring, split.C.gens[::-1])
    copy = replace(split, C=other)
    assert copy.c_branch is not c and contracted[-1] is other
    assert copy.n_branch is not n


# ---------------------------------------------------------------------------
# Replay.

def test_replay_rejects_wrong_ring():
    cert = is_gvd(I("x*y", "z*w"))
    other = Ring(["a", "b", "c", "d"])
    assert not replay_certificate(Ideal(other, [parse_poly(other, "a*b")]), cert)


def test_replay_rejects_tampered_certificate():
    G = cycle_graph(4)
    J = toric_ideal(G)
    cert = is_gvd(J, context=G)
    assert cert.verdict == "gvd"
    assert cert.kind == "decomposition"
    assert replay_certificate(J, cert, context=G)
    flipped = forged(cert, degenerate=not cert.degenerate)
    assert not replay_certificate(J, flipped, context=G)
    for tamper in [dict(y=len(cert.ring_names)), dict(child_c=None)]:
        assert not replay_certificate(J, forged(cert, **tamper), context=G)


def spied(monkeypatch, name: str) -> list:
    """The arguments of every call of ``groebner.<name>``, under each alias
    of it that a gvdlab module holds, until ``monkeypatch`` is undone."""
    calls = []
    real = getattr(groebner, name)
    for module in list(sys.modules.values()):
        if (module.__name__.startswith("gvdlab.")
                and getattr(module, name, None) is real):
            monkeypatch.setattr(module, name,
                                lambda *args: calls.append(args) or real(*args))
    return calls


def test_the_certifiers_read_the_degenerate_flag_off_the_branches(monkeypatch):
    # The certifiers set the flag from the certified branches, and replay
    # checks it by the same rule once both children replay, so neither
    # makes a radical membership test.
    calls = spied(monkeypatch, "radical_contains")
    searched = [to_graph(n, edges) for n, edges in NINE_EDGE_GRAPHS]
    searched.append(two_k4_sharing_vertex())
    generic = [(G, is_gvd(toric_ideal(G), context=G)) for G in searched]
    assert [c.verdict for _, c in generic] == ["not-gvd", "gvd", "gvd",
                                               "not-gvd"]
    matched = [to_graph(n, edges) for n, edges in connected_graphs(7)]
    matched = [G for G in matched if G.is_bipartite()]
    matched.append(complete_bipartite(3, 3))
    structural = [(G, certify_bipartite_gvd(G)) for G in matched]
    assert calls == []
    flags = {n.degenerate for _, c in generic + structural
             for n in tree_nodes(c) if n.kind == "decomposition"}
    assert flags == {True, False}
    for G, cert in generic[1:3] + structural:
        assert replay_certificate(toric_ideal(G), cert, context=G)
    assert calls == []


def test_the_certifiers_and_replay_compute_without_fractions(monkeypatch):
    # Every ideal met below a toric ideal of a graph is generated by
    # monomials and pure differences, so the search, the structural
    # certifiers and replay build no Fraction arithmetic and make no radical
    # membership test.
    empty_shared_memo(monkeypatch)
    built = []

    class Counted(groebner._Fractions):
        __slots__ = ()

        def __init__(self, pk):
            built.append(pk)
            super().__init__(pk)

    monkeypatch.setattr(groebner, "_Fractions", Counted)
    calls = spied(monkeypatch, "radical_contains")
    corpus = [to_graph(n, edges) for n, edges in connected_graphs(7)]
    corpus.append(two_k4_sharing_vertex())
    certs = []
    for G in corpus:
        certs.append((G, is_gvd(toric_ideal(G), context=G)))
        if G.is_bipartite():
            certs.append((G, certify_bipartite_gvd(G)))
        if all(g.total_degree() == 2 for g in graphs.universal_groebner_basis(G)):
            certs.append((G, quadratic_pipeline(G)))
    assert len(certs) == 132 + 68 + 122
    for G, cert in certs:
        assert replay_certificate(toric_ideal(G), cert, context=G)
    assert (built, calls) == ([], [])
    # The counters see the general path.
    assert groebner.radical_equal(I("x + y"), I("x^2 + 2*x*y + y^2"))
    assert built and calls


def tree_nodes(cert) -> list:
    """Every occurrence of a node in the tree, C before N."""
    if cert is None:
        return []
    return [cert] + tree_nodes(cert.child_c) + tree_nodes(cert.child_n)


def forged(cert, **fields) -> GvdCertificate:
    """The certificate with these fields of its root node replaced."""
    return GvdCertificate(replace(cert.node, **fields), cert.ring_names)


def swap_last(cert, target, new):
    """The tree with the last occurrence of the node ``target`` replaced by
    ``new``, and whether one was found."""
    def swap(node):
        if node is target:
            return new, True
        if node is None:
            return node, False
        for field in ("child_n", "child_c"):
            child, found = swap(getattr(node, field))
            if found:
                return replace(node, **{field: child}), True
        return node, False
    node, found = swap(cert.node)
    return GvdCertificate(node, cert.ring_names), found


def test_each_certifier_wraps_its_root_once(monkeypatch):
    # Every step below a public entry builds, memoises and returns a
    # positional GvdNode; a GvdCertificate is made only as the call returns.
    # The memos start empty, so the corpus builds its nodes afresh.
    empty_shared_memo(monkeypatch)
    init, wrapped, returned = GvdCertificate.__init__, [], []

    def counted(self, *args):
        wrapped.append(self)
        init(self, *args)

    monkeypatch.setattr(GvdCertificate, "__init__", counted)
    for module, name in ((gvd, "certify_node"), (bipartite, "certify_node"),
                         (bipartite, "certify_step"), (ef, "certify_node"),
                         (ef, "certify_step")):
        def spy(*args, real=getattr(module, name)):
            got = real(*args)
            returned.append(got)
            return got
        monkeypatch.setattr(module, name, spy)
    corpus = [to_graph(n, edges) for n, edges in connected_graphs(7)]
    for G in corpus + [two_k4_sharing_vertex()]:
        runs = [lambda: is_gvd(toric_ideal(G), context=G), lambda: quadratic_pipeline(G)]
        if G.is_bipartite():
            runs.append(lambda: certify_bipartite_gvd(G))
        for run in runs:
            wrapped.clear()
            cert = run()
            assert wrapped == [cert], G.edges
    assert returned and all(type(node) is GvdNode for node in returned)


def test_replay_recurses_through_the_public_name(monkeypatch):
    # Replay walks a certificate by calling replay_certificate once per
    # child, so a tracer of that name sees the recursion.  With an empty
    # table, K_{2,3}'s root is not a hit, and its children are replayed.
    empty_shared_memo(monkeypatch)
    G = complete_bipartite(2, 3)
    I = toric_ideal(G)
    cert = is_gvd(I, context=G)
    real, calls = gvd.replay_certificate, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(gvd, "replay_certificate", counted)
    assert gvd.replay_certificate(I, cert, context=G)
    assert len(calls) > 1


def test_replay_verifies_each_shared_node_once(monkeypatch):
    empty_shared_memo(monkeypatch)
    G = cycle_graph(6)
    J = toric_ideal(G)
    cert = is_gvd(J, context=G)
    nodes = tree_nodes(cert)
    assert len(nodes) == 33 and len({id(c.node) for c in nodes}) == 8
    calls = []
    real = gvd._replay_node
    monkeypatch.setattr(gvd, "_replay_node",
                        lambda I, node, *rest: calls.append(node) or real(I, node, *rest))
    assert gvd.replay_certificate(J, cert, context=G)
    assert len(calls) == 8
    # A later call checks none of them again.
    calls.clear()
    assert gvd.replay_certificate(J, cert, context=G)
    assert calls == []
    # A copy of a shared node at its last occurrence is checked on its own:
    # accepted as it is, rejected once tampered.
    shared = next(c.node for c in nodes if c.kind == "decomposition"
                  and sum(d.node is c.node for d in nodes) > 1)
    copy = replace(shared)
    assert replay_certificate(J, swap_last(cert, shared, copy)[0], context=G)
    copy = replace(shared, degenerate=not shared.degenerate)
    assert not replay_certificate(J, swap_last(cert, shared, copy)[0], context=G)
    assert any(node is copy for node in calls)
    # One node under both branches is checked against each branch's ideal.
    assert not replay_certificate(J, forged(cert, child_n=cert.node.child_c),
                                  context=G)


def test_replay_checks_a_disjoint_union_node_by_node(monkeypatch):
    empty_shared_memo(monkeypatch)
    G = complete_bipartite(3, 3)
    J = toric_ideal(G)
    cert = is_gvd(J, context=G)
    nodes = tree_nodes(cert)
    union = next(c for c in nodes if c.kind == "disjoint-union")
    assert union.verdict == "gvd"
    calls = []
    real = gvd._replay_node
    monkeypatch.setattr(gvd, "_replay_node",
                        lambda I, node, *rest: calls.append(node) or real(I, node, *rest))
    monkeypatch.setattr(gvd, "_search", None)  # replay must not search
    assert gvd.replay_certificate(J, cert, context=G)
    assert len(calls) == len({id(c.node) for c in nodes}) == 12
    monkeypatch.undo()
    # A tampered leaf under the union is checked, and so is the partition.
    union = union.node
    leaf = next(c for c in (union.child_c, union.child_n) if c.kind == "variables")
    field = "child_c" if leaf is union.child_c else "child_n"
    fake = replace(union, **{field: replace(leaf, variables=leaf.variables[1:])})
    assert not replay_certificate(J, swap_last(cert, union, fake)[0], context=G)
    fake = replace(union, child_n=union.child_c)
    assert not replay_certificate(J, swap_last(cert, union, fake)[0], context=G)
    fake = replace(union, factors=union.factors[::-1])
    assert not replay_certificate(J, swap_last(cert, union, fake)[0], context=G)


def test_a_tampered_certificate_fails_alone_in_a_batch(monkeypatch):
    # The certificates of the 7-edge corpus share nodes.  A tampered copy
    # of a node that a certificate before it verified, and that one after
    # it holds, fails its own certificate and no other.
    empty_shared_memo(monkeypatch)
    batch = [(G, toric_ideal(G)) for G in (to_graph(n, edges)
                                            for n, edges in connected_graphs(7))]
    batch = [(G, J, is_gvd(J, context=G)) for G, J in batch]
    mid = len(batch) // 2
    G, J, cert = batch[mid]
    before, after = ({id(c.node) for _, _, other in part for c in tree_nodes(other)}
                     for part in (batch[:mid], batch[mid + 1:]))
    shared = next(c.node for c in tree_nodes(cert)[1:]
                  if c.kind == "decomposition" and id(c.node) in before & after)
    fake = replace(shared, degenerate=not shared.degenerate)
    batch[mid] = (G, J, swap_last(cert, shared, fake)[0])
    got = [replay_certificate(J, c, context=G) for G, J, c in batch]
    assert got == [i != mid for i in range(len(batch))]


def test_replay_table_is_capped_and_drops_its_oldest_entry_first(monkeypatch):
    empty_shared_memo(monkeypatch)
    certs = [(G, toric_ideal(G)) for G in (cycle_graph(6), complete_bipartite(3, 3),
                                           two_triangles_bridged())]
    certs = [(G, J, is_gvd(J, context=G)) for G, J in certs]
    live, sizes = [], []

    class Table(dict):
        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            live.append(key)
            sizes.append(len(self))

        def __delitem__(self, key):
            oldest = live.pop(0)
            assert key == oldest
            super().__delitem__(key)

    monkeypatch.setattr(gvd, "_MEMO_SIZE", 3)
    monkeypatch.setattr(gvd, "_VERIFIED", Table())
    for G, J, cert in certs:
        assert replay_certificate(J, cert, context=G)
    assert max(sizes) == 3 and len(sizes) > 3
    assert list(gvd._VERIFIED) == live


def test_replay_walks_steps_unions_and_refutations():
    # Replay accepts trees through steps (C6), a union (K_{3,3}) and a
    # refutation whose failures keep their refuted branches (two bridged
    # triangles).
    cases = []
    for G in (cycle_graph(6), complete_bipartite(3, 3), two_triangles_bridged()):
        J = toric_ideal(G)
        cases.append((J, is_gvd(J, context=G), G))
    kinds = {c.kind for _, cert, _ in cases for c in tree_nodes(cert)}
    assert {"decomposition", "disjoint-union"} <= kinds
    assert cases[2][1].verdict == "not-gvd" and cases[2][1].failures
    for J, cert, G in cases:
        assert gvd.replay_certificate(J, cert, context=G)


def test_replay_rejects_a_union_that_does_not_split_the_basis():
    J = I("x*y", ring=Ring(["x", "y"]))
    zero = base_node(Ideal.zero(Ring(["x"])))
    union = GvdNode("disjoint-union", "gvd", child_c=zero, child_n=zero,
                    factors=((0,), (1,)))
    assert not replay_certificate(J, GvdCertificate(union, J.ring.names))
    # The basis splits, but the children's rings overlap in y.
    J = I("x*y", ring=Ring(["x", "y", "z"]))
    XY = Ring(["x", "y"])
    union = replace(union, child_c=is_gvd(I("x*y", ring=XY)).node,
                    factors=((0, 1), (1, 2)))
    assert union.child_c.verdict == "gvd"
    assert not replay_certificate(J, GvdCertificate(union, J.ring.names))
    # The basis splits as the factors say, but one child honestly
    # certifies its factor not decomposable.
    K = toric_ideal(two_triangles_bridged())
    ZW = Ring(["z", "w"])
    R = Ring(K.ring.names + ZW.names)
    J = K.rename(R).with_extra([parse_poly(R, "z*w")])
    factor = is_gvd(K)
    assert factor.verdict == "not-gvd" and replay_certificate(K, factor)
    n = K.ring.arity
    union = GvdNode("disjoint-union", "gvd", child_c=factor.node,
                    child_n=is_gvd(I("z*w", ring=ZW)).node,
                    factors=(tuple(range(n)), (n, n + 1)))
    assert gvd._disjoint_factors(J)[0] == union.factors
    assert not replay_certificate(J, GvdCertificate(union, R.names))


def test_replay_rejects_a_decomposition_whose_branch_is_not_gvd():
    # J is K extended by the absent variable z, so the split at z is a true
    # degenerate identity with both branches K; K is prime, so unmixedness
    # is conclusive.  K is not decomposable, and so neither is J.
    K = toric_ideal(two_triangles_bridged())
    R = Ring(K.ring.names + ("z",))
    J = K.rename(R)
    split = cn_split(J, "z")
    assert check_decomposition(J, split) and degenerate(split)
    factor = is_gvd(K)
    assert factor.verdict == "not-gvd"
    # The node stores J's own evidence, so only the branch rule rejects it.
    ev = components.unmixedness_evidence(J)
    assert ev.conclusive_unmixed
    step = GvdNode(
        "decomposition", "gvd", unmixedness=ev, y=R.index["z"],
        degenerate=True, child_c=factor.node, child_n=factor.node)
    assert not replay_certificate(J, GvdCertificate(step, R.names))
    # A refutation is stated by failures, and the step relabelled "not-gvd"
    # states none: replay does not decide the verdict afresh.  The same
    # refutation as the failure at the absent z replays.
    assert not replay_certificate(J, GvdCertificate(
        replace(step, verdict="not-gvd"), R.names))
    absent = GvdNode("not-gvd", "not-gvd", unmixedness=ev,
                     failures=((R.index["z"], "absent", factor.node),))
    assert replay_certificate(J, GvdCertificate(absent, R.names))


def test_replay_rejects_a_union_over_the_zero_and_the_unit_ideal():
    # Neither ideal has a variable in its basis to split over.
    R = Ring(["x", "y"])
    unit = base_node(Ideal.unit(Ring(["x"])))
    union = GvdNode("disjoint-union", "gvd", child_c=unit, child_n=unit,
                    factors=((0,), (1,)))
    for J in (Ideal.unit(R), Ideal.zero(R)):
        assert replay_certificate(J, GvdCertificate(union, R.names)) is False


def checked_occurrences(cert, sibling=None, path=()):
    """(path, certificate, sibling) for every node occurrence that replay
    checks itself: the root and each child of a "gvd" node.  ``path`` lists
    the child fields that lead to it, and ``sibling`` is its parent's other
    child."""
    yield path, cert, sibling
    if cert.verdict == "gvd":
        kids = (("child_c", cert.child_c), ("child_n", cert.child_n))
        for (side, kid), (_, other) in zip(kids, kids[::-1]):
            if kid is not None:
                yield from checked_occurrences(kid, other, path + (side,))


def with_node(node, path, new):
    """The tree below ``node`` with the node at ``path`` replaced by ``new``."""
    if not path:
        return new
    return replace(node, **{path[0]: with_node(getattr(node, path[0]), path[1:], new)})


def forged_evidence(cert):
    """(source, copy) for copies of ``cert`` with the stored evidence of one
    checked node replaced: by a bogus "equal-dims", a "cited" and an
    "inconclusive" evidence, by one naming a variable outside the ring, and
    by its sibling's where that reads otherwise in its ring.  ``source`` is
    the status of the bogus evidence or "sibling".  Each node is forged once
    per ring it is read in."""
    bogus = [UnmixednessEvidence("equal-dims", "forged"),
             UnmixednessEvidence("cited", "structural theorem"),
             UnmixednessEvidence("inconclusive", "forged"),
             UnmixednessEvidence("prime", "{99} is prime")]
    seen = set()
    for path, occ, sibling in checked_occurrences(cert):
        node, names = occ.node, occ.ring_names
        if node.unmixedness is None or (id(node), names) in seen:
            continue
        seen.add((id(node), names))
        fakes = [(ev.status, ev) for ev in bogus]
        other = sibling and sibling.node.unmixedness
        if other is not None and other.to_json_dict(names) != node.unmixedness.to_json_dict(names):
            fakes.append(("sibling", other))
        for source, ev in fakes:
            yield source, GvdCertificate(
                with_node(cert.node, path, replace(node, unmixedness=ev)), cert.ring_names)


def forged_evidence_cases() -> list:
    """(ideal, graph, certificate) for the certificates whose evidence
    ``test_replay_rejects_forged_evidence`` forges."""
    C4, C6, K33 = cycle_graph(4), cycle_graph(6), complete_bipartite(3, 3)
    ring = C4.edge_ring()
    leaf = Ideal(ring, [parse_poly(ring, "e1^2"), parse_poly(ring, "e1*e3 - e2*e4")])
    bridged = two_triangles_bridged()
    cases = [(toric_ideal(G), G, certify(G))
             for certify in (lambda G: is_gvd(toric_ideal(G), context=G),
                             certify_bipartite_gvd)
             for G in (C6, K33)]
    cases += [(toric_ideal(G), G, quadratic_pipeline(G))
              for G in (complete_graph(4), complete_bipartite(2, 3))]
    cases += [(leaf, C4, is_gvd(leaf, context=C4)),
              (toric_ideal(bridged), bridged, is_gvd(toric_ideal(bridged), context=bridged))]
    return cases


def test_replay_rejects_forged_evidence():
    # Every stored evidence is a fact about its node's ideal, so replay
    # recomputes it and rejects any other: at steps, base cases, leaf
    # refutations and the roots of refutations by failures, in
    # certificates of the search and of both structural certifiers.
    kinds, sources = set(), {}
    for J, G, cert in forged_evidence_cases():
        assert replay_certificate(J, cert, context=G)
        for source, fake in forged_evidence(cert):
            assert replay_certificate(J, fake, context=G) is False
            sources[source] = sources.get(source, 0) + 1
        kinds |= {(occ.kind, occ.verdict) for _, occ, _ in checked_occurrences(cert)}
    assert {("decomposition", "gvd"), ("variables", "gvd"), ("not-gvd", "not-gvd"),
            ("disjoint-union", "gvd")} <= kinds
    assert sorted(sources) == ["cited", "equal-dims", "inconclusive", "prime", "sibling"]
    assert sum(sources.values()) > 200


def test_check_decomposition_rejects_a_split_that_is_not_y_compatible():
    # Under lex x > z > y the basis of <y - x^2, y - z> is {x^2 - y, z - y}:
    # C is the unit ideal and N is zero, so N + y·C = <y>.  That is the ideal
    # of the basis's y-forms, but in_y(I) = <y, x^2 - z>, which the split
    # under the y-compatible order gives.
    R = Ring(["x", "y", "z"])
    J = Ideal(R, [parse_poly(R, "y - x^2"), parse_poly(R, "y - z")])
    assert not check_decomposition(
        J, CnSplit("y", Ideal.unit(R), Ideal.zero(R), True))
    assert check_decomposition(J, cn_split(J, "y"))


def test_check_decomposition_falls_back_on_other_generators(monkeypatch):
    # The split cn_split makes is proved from its generators.  The same
    # split with C given by other generators is not, and the reduced bases
    # accept it.
    J = toric_ideal(two_k4_sharing_vertex())
    split = cn_split(J, "e2")
    gens = split.C.gens
    other = Ideal(J.ring, gens[1:] + (gens[0] + gens[1],))
    assert ideal_equal(other, split.C)
    calls = spied(monkeypatch, "ideal_equal")
    assert check_decomposition(J, split)
    assert calls == []
    assert check_decomposition(J, replace(split, C=other))
    assert len(calls) == 1


def corpus_certificates() -> list:
    """(graph, toric ideal, certificate) for the search's certificate of
    each graph of the 7-edge corpus and of two_k4, and the bipartite
    certifier's for each bipartite one."""
    corpus = [to_graph(n, edges) for n, edges in connected_graphs(7)]
    corpus.append(two_k4_sharing_vertex())
    out = []
    for G in corpus:
        J = toric_ideal(G)
        out.append((G, J, is_gvd(J, context=G)))
        if G.is_bipartite():
            out.append((G, J, certify_bipartite_gvd(G)))
    return out


def test_handed_down_bases_are_the_reduced_bases(monkeypatch):
    # A contraction of an ideal whose basis is cached, a split at a variable
    # absent from the basis and the factors of a disjoint union cache a
    # reduced basis that no Buchberger run made.  Over the searches, the
    # bipartite certifier and the replays of the corpus, each is the basis a
    # fresh run returns, term for term and in the same order.
    empty_shared_memo(monkeypatch)
    handed = {"contract": [], "cn_split": [], "_disjoint_factors": []}

    def storage(J):
        return storage_order(J.ring).rows

    def spy(name, picked):
        real = getattr(gvd, name)

        def wrapper(*args):
            out = real(*args)
            handed[name].extend(picked(out))
            return out
        monkeypatch.setattr(gvd, name, wrapper)

    spy("contract", lambda J: [J] if storage(J) in J._rgb else [])
    spy("cn_split", lambda split: [split.C] if split.C is split.N else [])
    spy("_disjoint_factors", lambda got: () if got is None else got[1])
    for G, J, cert in corpus_certificates():
        assert replay_certificate(J, cert, context=G)
    monkeypatch.undo()
    # 574 contractions, 409 absent splits and 1,048 factors
    assert all(handed.values())

    def terms(basis):
        return [list(g.terms.items()) for g in basis]

    for got in handed.values():
        for J in got:
            assert terms(J._rgb[storage(J)]) == terms(
                groebner.buchberger(storage_order(J.ring), J.gens))


def test_two_k4_runs_buchberger_at_most_91_times(monkeypatch):
    # Square-free splits hand C's and N's storage bases down, a y-order
    # basis with the storage basis's initial terms is read off it, and a
    # node whose evidence proves it variables plus a toric ideal reads its
    # y-order bases off their universal basis, so the refutation of two_k4
    # from an empty memo, with its toric ideal, makes at most 91 Buchberger
    # runs (373 with no universal basis, 1,221 when each was computed).
    empty_shared_memo(monkeypatch)
    runs = counted_runs(monkeypatch)
    G = two_k4_sharing_vertex()
    assert is_gvd(toric_ideal(G), context=G).verdict == "not-gvd"
    assert len(runs) <= 91


def test_replay_with_a_warm_table_agrees_with_an_empty_one(monkeypatch):
    # A node verified by an earlier call is not checked again, so each
    # certificate of the corpus, and each forgery of its evidence, replays
    # as it does from an empty table.
    empty_shared_memo(monkeypatch)
    cases = forged_evidence_cases()
    items = [(J, G, cert) for G, J, cert in corpus_certificates()] + cases
    accepted = len(items)
    items += [(J, G, fake) for J, G, cert in cases for _, fake in forged_evidence(cert)]
    warm = [replay_certificate(J, cert, context=G) for J, G, cert in items]
    cold = []
    for J, G, cert in items:
        monkeypatch.setattr(gvd, "_VERIFIED", {})
        cold.append(replay_certificate(J, cert, context=G))
    assert warm == cold
    assert warm == [i < accepted for i in range(len(items))]


def test_replay_proves_each_identity_from_generators(monkeypatch):
    # Replay checks every step's identity by check_decomposition, and for
    # the square-free splits of the certifiers it is proved from the
    # generators: no Buchberger run happens inside the check.
    empty_shared_memo(monkeypatch)
    certs = [c for c in corpus_certificates() if c[2].verdict == "gvd"]
    inside, checks, runs = [False], [], []
    check, buchberger = gvd.check_decomposition, groebner.buchberger

    def checked(*args):
        inside[0] = True
        try:
            checks.append(args)
            return check(*args)
        finally:
            inside[0] = False

    def counted(*args):
        if inside[0]:
            runs.append(args)
        return buchberger(*args)

    monkeypatch.setattr(gvd, "check_decomposition", checked)
    monkeypatch.setattr(groebner, "buchberger", counted)
    assert all(replay_certificate(J, cert, context=G) for G, J, cert in certs)
    assert len(certs) == 199 and checks and runs == []


def test_replay_does_not_read_the_shared_memo(monkeypatch):
    # Replay checks a refutation from its failures and never searches, so
    # a tampered node under the refutation's key in the shared memo changes
    # nothing.
    empty_shared_memo(monkeypatch)
    G = two_triangles_bridged()
    J = toric_ideal(G)
    cert = is_gvd(J, context=G)
    assert cert.verdict == "not-gvd" and cert.failures
    key = next(k for k, node in gvd._MEMO.items() if node is cert.node)
    for verdict in ("gvd", "inconclusive"):
        gvd._MEMO[key] = replace(cert.node, kind=verdict, verdict=verdict)
        assert is_gvd(J, context=G).verdict == verdict
        assert replay_certificate(J, cert, context=G)
        assert not replay_certificate(
            J, forged(cert, kind=verdict, verdict=verdict), context=G)


def test_replay_checks_a_leaf_refutation_without_a_search(monkeypatch):
    # <e1^2, e1*e3 - e2*e4> is not radical (e1 is in its radical only), so
    # the search ends at the root with a leaf.
    G = cycle_graph(4)
    ring = G.edge_ring()
    J = Ideal(ring, [parse_poly(ring, "e1^2"), parse_poly(ring, "e1*e3 - e2*e4")])
    cert = is_gvd(J, context=G)
    assert (cert.kind, cert.verdict) == ("not-gvd", "not-gvd")
    assert not cert.failures and cert.child_c is None and cert.child_n is None
    assert "decomposable ideal is radical" in cert.reason
    calls = []
    real = gvd._search
    monkeypatch.setattr(gvd, "_search",
                        lambda *args: calls.append(args) or real(*args))
    assert replay_certificate(J, cert, context=G)
    assert calls == []
    # The same leaf forged onto a decomposable ideal is rejected.
    C4 = toric_ideal(G)
    assert not replay_certificate(C4, cert, context=G)
    assert calls == []


def test_a_non_radical_factor_is_a_leaf():
    # <e1> plus the toric ideal of two_k4 is a disjoint union of <e1> and a
    # factor whose components intersect to something else, so the factor is
    # not radical and not decomposable: the union shows it as a leaf.
    G = two_k4_sharing_vertex()
    J = toric_ideal(G)
    J = J.with_extra([J.ring.var("e1")])
    cert = is_gvd(J, context=G)
    assert (cert.kind, cert.verdict) == ("disjoint-union", "not-gvd")
    factor = cert.child_n
    assert factor.kind == "not-gvd" and factor.child_c is factor.child_n is None
    assert factor.unmixedness.status == "inconclusive"
    assert factor.unmixedness.not_radical
    assert factor.to_json_dict()["reason"] == (
        "not radical, and a decomposable ideal is radical")
    assert replay_certificate(J, cert, context=G)


def test_replay_of_a_negative_certificate_checks_its_failures():
    # <x^2> fails at its only variable by the identity, which replay checks
    # from the split; claimed at a branch instead, it is rejected.
    R1 = Ring(["x"])
    J = Ideal(R1, [parse_poly(R1, "x^2")])
    cert = is_gvd(J)
    assert cert.verdict == "not-gvd"
    assert cert.node.failures == ((0, "identity", None),)
    assert replay_certificate(J, cert)
    assert not replay_certificate(J, forged(cert, failures=((0, "C", cert.node),)))


def test_replay_rejects_tampered_refutations():
    # Each forgery of a refutation's failures, or of the refuted factor of
    # a union, replays False without raising, and so does a certificate
    # that ran out of budget, since an inconclusive node states nothing.
    G = two_triangles_bridged()
    J = toric_ideal(G)
    cert = is_gvd(J, context=G)
    assert replay_certificate(J, cert, context=G)
    failures = cert.node.failures
    branch = [f for f in failures if f[1] in ("C", "N")]
    first, other = branch[0], next(f for f in branch if f[2] is not branch[0][2])
    at = failures.index(first)

    def with_failure(new):
        return failures[:at] + (new,) + failures[at + 1:]

    flip = {"C": "N", "N": "C"}
    fakes = [
        with_failure((first[0], first[1], other[2])),  # a swapped child
        failures[:-1],  # a dropped failure
        ((first[0], "absent", first[2]),),  # one failure at a present variable
        ((first[0], "C", first[2]),),
        with_failure((99, first[1], first[2])),  # a position outside the ring
        ((99, "absent", first[2]),),
        with_failure((first[0], "identity", None)),  # the split is square-free
        with_failure((first[0], "absent", first[2])),
        failures + failures[-1:],
    ]
    fakes += [failures[:failures.index(f)] + ((f[0], flip[f[1]], f[2]),)
              + failures[failures.index(f) + 1:] for f in branch]  # side flips
    for fake in fakes:
        assert replay_certificate(J, forged(cert, failures=fake), context=G) is False
    # The refuted factor of a union is checked: with forged evidence and
    # any reason, it no longer replays.
    K = J.with_extra([J.ring.var("e1")])
    union = is_gvd(K, context=G)
    assert union.kind == "disjoint-union" and union.node.child_n is not None
    assert replay_certificate(K, union, context=G)
    factor = replace(union.node.child_n, reason="anything",
                     unmixedness=UnmixednessEvidence("cited", "x"))
    for fake in (dict(child_n=factor), dict(child_c=union.node.child_n, child_n=None),
                 dict(child_c=union.node.child_n), dict(child_n=None)):
        assert replay_certificate(K, forged(union, **fake), context=G) is False
    starved = is_gvd(J, context=G, budget=Budget(0.0))
    assert starved.verdict == "inconclusive"
    assert replay_certificate(J, starved, context=G) is False


def test_replay_reads_positions_only_as_ints():
    # A float or a bool equal to a position passes a range test; replay
    # returns False on a failure, a step, a base case or a union that holds
    # one, without raising.
    G = two_triangles_bridged()
    J = toric_ideal(G)
    cert = is_gvd(J, context=G)
    failures = cert.node.failures
    at = [f[0] for f in failures].index(1)
    for fake in (1.0, True):
        new = failures[:at] + ((fake,) + failures[at][1:],) + failures[at + 1:]
        assert replay_certificate(J, forged(cert, failures=new), context=G) is False
    C4 = cycle_graph(4)
    root = is_gvd(toric_ideal(C4), context=C4)
    assert root.node.y == 0
    for fake in (0.0, False, 1.0, True):
        assert replay_certificate(toric_ideal(C4), forged(root, y=fake), context=C4) is False
    K = I("x", "y*z - w^2")
    union = is_gvd(K)
    assert union.kind == "disjoint-union" and union.node.factors == ((0,), (1, 2, 3))
    assert replay_certificate(K, union)
    variables = GvdCertificate(union.node.child_c, ("x",))
    assert variables.kind == "variables" and variables.node.variables == (0,)
    for fake in (0.0, False):
        assert replay_certificate(I("x", ring=Ring(["x"])),
                                  forged(variables, variables=(fake,))) is False
        assert replay_certificate(K, forged(union, factors=((fake,), (1, 2, 3)))) is False


def test_replay_never_searches(monkeypatch):
    # Replay checks every verdict from what its nodes store: with the
    # search unreachable, every certificate of the search and of both
    # structural certifiers replays.
    empty_shared_memo(monkeypatch)
    certs = corpus_certificates()
    corpus = [to_graph(n, edges) for n, edges in connected_graphs(7)]
    certs += [(G, toric_ideal(G), quadratic_pipeline(G)) for G in corpus
              if all(g.total_degree() == 2 for g in graphs.universal_groebner_basis(G))]
    bridged = two_triangles_bridged()
    certs.append((bridged, toric_ideal(bridged),
                  is_gvd(toric_ideal(bridged), context=bridged)))
    assert sorted({c.verdict for _, _, c in certs}) == ["gvd", "not-gvd"]

    def unreachable(*args):
        raise AssertionError("replay searched")

    monkeypatch.setattr(gvd, "_search", unreachable)
    monkeypatch.setattr(gvd, "_certify", unreachable)
    for G, J, cert in certs:
        assert replay_certificate(J, cert, context=G)


def test_replay_keys_its_table_by_ring_position(monkeypatch):
    # The two factors of two disjoint 4-cycles are the same ideal by
    # position, and the search shares one node between them.  The second
    # factor's names sort against its positions, and replay verifies the
    # node once, as the search keys its memo.
    first = cycle_graph(4)
    second = Graph(["a", "b", "c", "d"],
                   [("z4", "a", "b"), ("z3", "b", "c"), ("z2", "c", "d"),
                    ("z1", "d", "a")])
    U = graphs.disjoint_union(first, second)
    J = toric_ideal(U)
    empty_shared_memo(monkeypatch)
    cert = is_gvd(J, context=U)
    assert cert.kind == "disjoint-union" and cert.node.child_c is cert.node.child_n
    assert cert.child_c.ring_names != cert.child_n.ring_names
    calls = []
    real = gvd._replay_node
    monkeypatch.setattr(gvd, "_replay_node",
                        lambda I, node, *rest: calls.append(node) or real(I, node, *rest))
    assert replay_certificate(J, cert, context=U)
    assert sum(node is cert.node.child_c for node in calls) == 1


# ---------------------------------------------------------------------------
# Bases read as stored.

def watched_searches(monkeypatch) -> int:
    """Search two_k4, then the 7-edge corpus and census9 at seed 0, from
    an empty memo; the number of ``_search`` calls two_k4 makes."""
    empty_shared_memo(monkeypatch)
    searches, search = [0], gvd._search

    def counted(*args):
        searches[0] += 1
        return search(*args)
    monkeypatch.setattr(gvd, "_search", counted)
    G = two_k4_sharing_vertex()
    assert is_gvd(toric_ideal(G), context=G).verdict == "not-gvd"
    two_k4 = searches[0]
    for G in [to_graph(n, edges) for n, edges in connected_graphs(7)] + census9_graphs(0):
        is_gvd(toric_ideal(G), context=G)
    return two_k4


def test_the_memo_key_re_encodes_the_canonical_basis(monkeypatch):
    # The basis part of every key the searches build determines, and is
    # determined by, the canonical forms of the storage basis: the key
    # reads each element's terms as stored, which is canonical order.  No
    # memo hit turns into a miss, so two_k4 still makes 446 searches.
    canon, real = {}, gvd._node_key

    def spy(I, context):
        key = real(I, context)
        canon.setdefault(key[1], set()).add(tuple(g.canonical() for g in I.groebner()))
        return key
    monkeypatch.setattr(gvd, "_node_key", spy)
    assert watched_searches(monkeypatch) == 446
    assert len(canon) > 800
    assert all(len(forms) == 1 for forms in canon.values())
    assert len(set().union(*canon.values())) == len(canon)


def test_a_reused_basis_is_the_made_monic_one(monkeypatch):
    # Each basis ``Ideal._agreeing`` returns in the searches equals the
    # basis with every element made monic (``_made_monic``): the same terms
    # in the same order, and the same order of elements.
    def made_monic(I, order):
        for basis in I._rgb.values():
            if groebner._leads(order, basis):
                return sorted((groebner._made_monic(order, g) for g in basis),
                              key=lambda g: order.key(next(iter(g.terms))))
        return None

    def terms(basis):
        return None if basis is None else [list(g.terms.items()) for g in basis]

    reused, real = [0], Ideal._agreeing

    def spy(self, order):
        got = real(self, order)
        assert terms(got) == terms(made_monic(self, order))
        if got is not None:
            cached = {id(g) for basis in self._rgb.values() for g in basis}
            reused[0] += sum(id(g) in cached for g in got)
        return got
    monkeypatch.setattr(Ideal, "_agreeing", spy)
    watched_searches(monkeypatch)
    assert reused[0] > 1000


def test_the_engine_hands_each_poly_a_fresh_dict_of_nonzero_terms(monkeypatch):
    # Every ``Poly._adopt`` call over two_k4 and census9 at seed 0, from
    # empty basis caches, gets nonzero coefficients and a dict that no
    # other call and no public construction holds, and that stays as it
    # was handed over.
    monkeypatch.setattr(graphs, "_UGB_CACHE", {})
    monkeypatch.setattr(graphs, "_LIFTED", {})
    empty_shared_memo(monkeypatch)
    adopted, public = [], set()
    adopt, init = Poly._adopt.__func__, Poly.__init__

    def spy_adopt(cls, ring, terms):
        assert all(terms.values())
        f = adopt(cls, ring, terms)
        assert f.terms is terms
        adopted.append((f, dict(terms)))
        return f

    def spy_init(self, ring, terms):
        init(self, ring, terms)
        public.add(id(self.terms))
        adopted.append((self, None))  # kept alive, so ids stay unique
    monkeypatch.setattr(Poly, "_adopt", classmethod(spy_adopt))
    monkeypatch.setattr(Poly, "__init__", spy_init)
    for G in [two_k4_sharing_vertex()] + census9_graphs(0):
        is_gvd(toric_ideal(G), context=G)
    monkeypatch.undo()
    handed = [(f.terms, copy) for f, copy in adopted if copy is not None]
    assert len(handed) > 10000
    assert all(terms == copy for terms, copy in handed)
    ids = [id(terms) for terms, _ in handed]
    assert len(set(ids)) == len(ids) and not public & set(ids)
