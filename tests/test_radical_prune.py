"""The search stops at ideals that the unmixedness evidence proves not
radical, since a decomposable ideal is radical.

The differential tests run the search twice: as it is, and with the
evidence's ``not_radical`` flag cleared, so that it searches below those
ideals as it did before it stopped there.  The root certificates must be
identical, and every ideal the first search stopped at must be "not-gvd" in
the second.  ``test_gvd`` pins the work the stop saves on the paper's
non-GVD example.
"""

import json
from dataclasses import replace

import pytest

from gvdlab import gvd
from gvdlab.graphs import toric_ideal
from gvdlab.gvd import is_gvd

from fixtures import empty_shared_memo, two_k4_sharing_vertex
from graph_corpus import NINE_EDGE_GRAPHS, connected_graphs, to_graph


def node_key(I, context):
    return (I.ring.names, tuple(g.canonical() for g in I.groebner()),
            gvd._context_key(I, context))


def root_json(cert) -> str:
    """The certificate's JSON without the refuted branches its failures
    keep: below an ideal proved not radical, the second search finds other
    refutations."""
    def drop(out):
        if isinstance(out, dict):
            return {k: drop(v) for k, v in out.items() if k != "refutation"}
        if isinstance(out, list):
            return [drop(v) for v in out]
        return out
    return json.dumps(drop(cert.to_json_dict()), sort_keys=True)


def pruned_search(G):
    """The root certificate, and the keys of the ideals where the search
    stopped because the evidence proved them not radical."""
    stopped = []
    real = gvd.unmixedness_evidence

    def evidence(I, context=None):
        ev = real(I, context)
        if ev.not_radical and not ev.refuted:
            stopped.append(node_key(I, context))
        return ev

    with pytest.MonkeyPatch.context() as mp:
        empty_shared_memo(mp)
        mp.setattr(gvd, "unmixedness_evidence", evidence)
        cert = is_gvd(toric_ideal(G), context=G)
    return cert, stopped


def unpruned_search(G):
    """The root certificate of the search that does not stop at non-radical
    ideals, and the verdict of every node it certified."""
    verdicts = {}
    real_evidence, real_certify = gvd.unmixedness_evidence, gvd._certify

    def certify(I, context, *rest):
        cert = real_certify(I, context, *rest)
        verdicts[node_key(I, context)] = cert.verdict
        return cert

    with pytest.MonkeyPatch.context() as mp:
        empty_shared_memo(mp)
        mp.setattr(gvd, "unmixedness_evidence", lambda I, context=None: replace(
            real_evidence(I, context), not_radical=False))
        mp.setattr(gvd, "_certify", certify)
        cert = is_gvd(toric_ideal(G), context=G)
    return cert, verdicts


def check_against_unpruned(graph_list) -> int:
    """Compare the two searches on each graph; the number of stops."""
    stops = 0
    for G in graph_list:
        cert, stopped = pruned_search(G)
        full, verdicts = unpruned_search(G)
        assert root_json(cert) == root_json(full)
        for key in stopped:
            assert verdicts[key] == "not-gvd"
        stops += len(stopped)
    return stops


def test_stopping_keeps_the_verdicts_on_small_graphs():
    # The search stops 3 times, all in the 9-edge graphs; a fourth ideal
    # where it stopped before is now a memo hit.
    graph_list = [to_graph(n, edges)
                  for n, edges in connected_graphs(7) + list(NINE_EDGE_GRAPHS)]
    assert check_against_unpruned(graph_list) == 3


def test_stopping_keeps_the_verdict_on_two_k4():
    # 86 stops before the memo keyed contexts by their shape, and 34 with
    # that key.  Keyed by their edge positions and lattice, the memo now
    # serves the other 56 from branches whose contexts share both.
    assert check_against_unpruned([two_k4_sharing_vertex()]) == 30

