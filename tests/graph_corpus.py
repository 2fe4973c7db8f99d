"""Connected simple graphs with few edges, one per isomorphism class.

The corpus is generated by growing graphs one edge at a time: every
connected graph either has a leaf (remove the leaf edge and vertex) or a
cycle edge (remove it), so adding an edge between existing vertices or
attaching a fresh leaf reaches every class.  Deduplication uses a
canonical form: the minimal relabeled edge list over all vertex
permutations that preserve an iterated neighborhood-degree refinement.
"""

from itertools import combinations, permutations, product

from gvdlab.graphs import Graph

# connected simple graphs with m = 1, 2, ... edges, one per isomorphism class
CLASS_COUNTS = (1, 1, 3, 5, 12, 30, 79, 227)

# Three 9-edge graphs whose ideals below the toric ideal include some that
# the evidence proves not radical with a witness; no graph with at most 7
# edges has one.
NINE_EDGE_GRAPHS = (
    (7, ((0, 1), (0, 3), (1, 3), (2, 4), (2, 5), (3, 6), (4, 5), (4, 6), (5, 6))),
    (7, ((0, 1), (0, 5), (1, 5), (2, 3), (2, 6), (3, 6), (4, 5), (4, 6), (5, 6))),
    (7, ((0, 1), (0, 6), (1, 6), (2, 4), (2, 5), (3, 4), (3, 6), (4, 5), (5, 6))),
)


def _refined_labels(n, edges):
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    labels = {v: len(adj[v]) for v in range(n)}
    for _ in range(3):
        keys = {v: (labels[v], tuple(sorted(labels[w] for w in adj[v])))
                for v in range(n)}
        order = {k: i for i, k in enumerate(sorted(set(keys.values())))}
        labels = {v: order[keys[v]] for v in range(n)}
    return labels


def canonical_form(n, edges):
    """Minimal relabeled edge tuple over label-preserving permutations."""
    labels = _refined_labels(n, edges)
    buckets = {}
    for v in range(n):
        buckets.setdefault(labels[v], []).append(v)
    groups = [buckets[k] for k in sorted(buckets)]
    new_ids, offset = [], 0
    for g in groups:
        new_ids.append(range(offset, offset + len(g)))
        offset += len(g)
    best = None
    for perms in product(*(permutations(g) for g in groups)):
        relabel = {}
        for members, ids in zip(perms, new_ids):
            relabel.update(zip(members, ids))
        candidate = tuple(sorted(tuple(sorted((relabel[u], relabel[v])))
                                 for u, v in edges))
        if best is None or candidate < best:
            best = candidate
    return best


def connected_graphs(max_edges):
    """All (vertex count, canonical edge tuple) pairs with <= max_edges edges."""
    layer = {(2, ((0, 1),))}
    out = [(2, ((0, 1),))]
    for _ in range(max_edges - 1):
        grown = set()
        for n, edges in layer:
            present = set(edges)
            for u, v in combinations(range(n), 2):
                if (u, v) not in present:
                    grown.add((n, canonical_form(n, edges + ((u, v),))))
            for u in range(n):
                grown.add((n + 1, canonical_form(n + 1, edges + ((u, n),))))
        layer = grown
        out.extend(sorted(grown))
    return out


def to_graph(n, edges):
    vertices = tuple("x%d" % (v + 1) for v in range(n))
    triples = tuple(("e%d" % (i + 1), "x%d" % (u + 1), "x%d" % (v + 1))
                    for i, (u, v) in enumerate(sorted(edges)))
    return Graph(vertices, triples)
