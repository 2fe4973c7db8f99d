"""Finite simple graphs and their toric ideals.

The toric ideal of a graph G lives in Q[edge labels] and is generated by the
binomials of closed even walks.  Its universal Groebner basis is the set of
primitive walk binomials: the Graver basis of the integer kernel of the
vertex-edge incidence matrix.  ``graver_basis`` lists it from the
subgraphs of the primitive walks: the even cycles, and the trees of cycles
and cut edges that the block rule of Reyes-Tatakis-Thoma allows (for a
bipartite graph, only the even cycles).  A graph cut from another by
``delete_edges`` remembers it, and takes its basis from a cached
ancestor's: the Graver elements that avoid the deleted edges, which are
exactly the subgraph's (the proof is in ``universal_groebner_basis``).  So
the decomposability search, whose contexts are all edge deletions of one
graph, lists the walks of that graph only.  The graph operations
that interact well with these ideals -- leaf removal, even-cycle gluing,
disjoint union, gap-freeness and 4-cycle tests -- live here too.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product, repeat
from operator import itemgetter, neg
from typing import Iterable, Sequence

from .algebra import Poly, Ring, storage_order
from .groebner import Ideal, ideal_equal, minimal_generators, selected_basis

__all__ = [
    "Graph", "cycle_graph", "path_graph", "complete_graph",
    "complete_bipartite", "ferrers_graph",
    "graver_basis",
    "universal_groebner_basis", "LiftedBasis", "lifted_basis",
    "toric_ideal",
    "reduced_toric_ideal",
    "toric_dimension", "even_cycle_binomial", "glue_even_cycle",
    "disjoint_union", "is_gap_free", "four_cycles_containing",
    "vector_to_binomial",
]

ONE = Fraction(1)
_MINUS_ONE = -ONE


class Graph:
    """A finite simple graph with named vertices and named edges.

    Edge names double as polynomial ring variables, in listed order.
    ``parent`` is the graph that ``delete_edges`` cut this one from, or None.
    """

    __slots__ = ("vertices", "edges", "_ends", "_adj", "_labels", "parent")

    def __init__(self, vertices: Iterable[str], edges: Iterable[Sequence[str]]):
        self.vertices = tuple(vertices)
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        es = []
        seen_pairs = set()
        seen_labels = set()
        for e in edges:
            label, u, v = e
            if label in seen_labels:
                raise ValueError("duplicate edge label %r" % label)
            if u not in vset or v not in vset:
                raise ValueError("edge %r has unknown endpoint" % label)
            if u == v:
                raise ValueError("loop at %r not allowed" % u)
            pair = frozenset((u, v))
            if pair in seen_pairs:
                raise ValueError("parallel edge %r" % label)
            seen_labels.add(label)
            seen_pairs.add(pair)
            es.append((label, u, v))
        self._fill(tuple(es))

    def _fill(self, edges: tuple) -> None:
        """Set the edges and the lookups built from them."""
        self.edges = edges
        self._labels = tuple(e[0] for e in edges)
        self._ends = {e[0]: (e[1], e[2]) for e in edges}
        adj = {v: [] for v in self.vertices}
        for label, u, v in edges:
            adj[u].append((label, v))
            adj[v].append((label, u))
        self._adj = adj
        self.parent = None

    @staticmethod
    def _subgraph(vertices: tuple, edges: tuple) -> "Graph":
        """The graph on some vertices and edges of a valid graph, unchecked:
        a subgraph of a valid graph is valid."""
        H = Graph.__new__(Graph)
        H.vertices = vertices
        H._fill(edges)
        return H

    # -- basic queries -------------------------------------------------------

    @property
    def edge_labels(self) -> tuple:
        return self._labels

    def edge_ring(self) -> Ring:
        return Ring(self._labels)

    def ends(self, label: str) -> tuple:
        return self._ends[label]

    def neighbors(self, v: str) -> list:
        return self._adj[v]

    def degree(self, v: str) -> int:
        return len(self._adj[v])

    def has_edge_between(self, u: str, v: str) -> bool:
        return any(w == v for _, w in self._adj[u])

    def edge_between(self, u: str, v: str) -> str:
        for label, w in self._adj[u]:
            if w == v:
                return label
        raise KeyError("no edge between %r and %r" % (u, v))

    # -- derived graphs ------------------------------------------------------

    def delete_edges(self, labels: Iterable[str]) -> "Graph":
        drop = set(labels)
        unknown = drop - set(self._labels)
        if unknown:
            raise KeyError("no such edges: %s" % sorted(unknown))
        H = self._subgraph(self.vertices,
                           tuple(e for e in self.edges if e[0] not in drop))
        H.parent = self
        return H

    def delete_vertices(self, vs: Iterable[str]) -> "Graph":
        drop = set(vs)
        return self._subgraph(
            tuple(v for v in self.vertices if v not in drop),
            tuple(e for e in self.edges if e[1] not in drop and e[2] not in drop))

    def with_edges(self, new_vertices: Iterable[str], new_edges: Iterable[Sequence[str]]) -> "Graph":
        return Graph(self.vertices + tuple(new_vertices), self.edges + tuple(tuple(e) for e in new_edges))

    # -- structure -----------------------------------------------------------

    def _colourings(self) -> list:
        """Each connected component, isolated vertices included, as the pair
        (its vertices in the order reached, whether it is bipartite), from
        one breadth-first 2-colouring: a component is bipartite exactly when
        no edge joins two vertices of one colour."""
        colour, out = {}, []
        for v0 in self.vertices:
            if v0 in colour:
                continue
            colour[v0], comp, bipartite = 0, [v0], True
            for v in comp:  # the list grows as the search reaches vertices
                for _, w in self._adj[v]:
                    if w not in colour:
                        colour[w] = 1 - colour[v]
                        comp.append(w)
                    elif colour[w] == colour[v]:
                        bipartite = False
            out.append((comp, bipartite))
        return out

    def components(self) -> list:
        """Connected components as sorted vertex tuples (isolated included)."""
        return [tuple(sorted(comp)) for comp, _ in self._colourings()]

    def is_bipartite(self) -> bool:
        return all(bipartite for _, bipartite in self._colourings())

    def __repr__(self):
        return "Graph(%d vertices, %d edges)" % (len(self.vertices), len(self.edges))


# ---------------------------------------------------------------------------
# Standard families.

def _labelled(vertices: list, pairs: Iterable[tuple]) -> Graph:
    """The graph on ``vertices`` whose k-th edge, counted from 1, joins the
    k-th pair of ``pairs`` and is named ek."""
    return Graph(vertices, (("e%d" % k, u, v) for k, (u, v) in enumerate(pairs, 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    vs = ["x%d" % i for i in range(1, n + 1)]
    return _labelled(vs, zip(vs, vs[1:] + vs[:1]))


def path_graph(n: int) -> Graph:
    vs = ["x%d" % i for i in range(1, n + 1)]
    return _labelled(vs, zip(vs, vs[1:]))


def complete_graph(n: int) -> Graph:
    vs = ["x%d" % i for i in range(1, n + 1)]
    return _labelled(vs, combinations(vs, 2))


def complete_bipartite(r: int, s: int) -> Graph:
    xs = ["x%d" % i for i in range(1, r + 1)]
    ys = ["y%d" % j for j in range(1, s + 1)]
    return _labelled(xs + ys, product(xs, ys))


def ferrers_graph(partition: Sequence[int]) -> Graph:
    """Bipartite graph of a partition: row i joins column j iff j <= lambda_i."""
    lam = list(partition)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)) or any(p <= 0 for p in lam):
        raise ValueError("partition must be positive and weakly decreasing")
    xs = ["x%d" % i for i in range(1, len(lam) + 1)]
    ys = ["y%d" % j for j in range(1, max(lam) + 1)]
    return _labelled(xs + ys, ((x, y) for x, p in zip(xs, lam) for y in ys[:p]))


# ---------------------------------------------------------------------------
# Graver bases: the primitive walks, listed by their subgraphs.

def _sign_parts(u: tuple) -> tuple:
    """The positive and negative parts (u+, u-) of an integer vector, as
    exponent tuples: u = u+ - u-."""
    zero = (0,) * len(u)
    return tuple(map(max, u, zero)), tuple(map(max, map(neg, u), zero))


def _cycles(adj: list) -> list:
    """Every cycle of a graph once, as the pair (its vertices, its edges)
    in order around it: edge k joins vertex k to vertex k + 1, and the last
    edge joins the last vertex to the first.  ``adj`` lists each vertex's
    (neighbour, edge) pairs, all by position.  A cycle is listed from its
    least vertex s, in the direction whose second vertex precedes its last
    one."""
    out = []

    def extend(s, v, vs, es, seen):
        for w, j in adj[v]:
            if w == s:
                if vs[1] < v:
                    out.append((vs, es + (j,)))
            elif w > s and not seen >> w & 1:
                extend(s, w, vs + (w,), es + (j,), seen | 1 << w)

    for s in range(len(adj)):
        extend(s, s, (s,), (), 1 << s)
    return out


def graver_basis(G: Graph) -> list:
    """The Graver basis of the kernel of G's incidence matrix: its
    conformally minimal nonzero vectors, one per +/- pair, each oriented so
    that its positive part is the larger monomial in the storage order
    (graded lex in edge order), and sorted.

    These are the vectors of G's primitive even closed walks, and a
    primitive walk is fixed up to sign by its subgraph W (Villarreal,
    *Comm. Algebra* 23 (1995); Ohsugi-Hibi, *J. Algebra* 218 (1999)).  The
    subgraphs are those of Reyes-Tatakis-Thoma, *Adv. Appl. Math.* 48
    (2012), Theorem 4.13 (see also Tatakis-Thoma, *JCTA* 118 (2011)): the
    connected W with

    - W an even cycle; or
    - W not 2-connected, with no vertex of degree 1, every block a cycle
      or a single cut edge, every cut vertex in exactly two blocks, and
      every cyclic block B with |B| = k_B (mod 2), k_B the number of cut
      vertices of W on B.  So a leaf block is an odd cycle.

    The walk's vector u_W is +1 or -1 on the cycle edges and +2 or -2 on
    the cut edges.  Along a cyclic block its sign alternates at each vertex
    that is not a cut vertex; at a cut vertex the block's two edges have
    the same sign; and at each cut vertex the contributions of its two
    blocks cancel, as at every vertex (u lies in the kernel).  That fixes
    u_W from one sign, since |B| - k_B changes of sign around a cyclic
    block are even in number.  For G bipartite there are no odd cycles, so
    only the even cycles are left: its incidence matrix is totally
    unimodular and every Graver element is a circuit (Sturmfels, *Groebner
    Bases and Convex Polytopes*, 1996, ch. 4 and 8).

    ``_cycles`` lists the cycles, and ``_block_walks`` the subgraphs that
    are not 2-connected, both over the 2-core of G: what is left after
    vertices of degree at most 1 are removed, again and again.  Every W
    lies in it.  Each vertex of W has degree at least 2 in W: it lies on a
    cyclic block, or it is a cut vertex, which lies in two blocks.  Until
    a first vertex of W is removed, every vertex of W keeps all its
    W-edges, so none has degree below 2 and none can be the first.  The
    vertices keep their positions, so ``_block_walks``' bound on the fresh
    vertices only gets looser.  The tests check the result against Pottier
    completion of a lattice basis of the kernel.
    """
    vpos = {v: i for i, v in enumerate(G.vertices)}
    epos = {label: j for j, label in enumerate(G.edge_labels)}
    adj = [[(vpos[w], epos[label]) for label, w in G.neighbors(v)]
           for v in G.vertices]
    leaves = [v for v, at in enumerate(adj) if len(at) < 2]
    while leaves:
        v = leaves.pop()
        for w, _ in adj[v]:
            adj[w] = [p for p in adj[w] if p[0] != v]
            if len(adj[w]) == 1:
                leaves.append(w)
        adj[v] = []
    cycles = _cycles(adj)
    m = len(G.edges)
    out = []
    for _, es in cycles:
        if not len(es) % 2:
            u = [0] * m
            for k, j in enumerate(es):
                u[j] = -1 if k % 2 else 1
            out.append(u)
    if len(cycles) - len(out) > 1:  # two odd cycles
        out += _block_walks(adj, cycles, m)
    # An edge has two ends, so the rows of the incidence matrix add up to
    # twice the row of ones, and the entries of a kernel vector u sum to 0:
    # u+ and u- have one degree.  So u+ is the larger exactly when the first
    # nonzero entry of u is positive.
    return sorted(tuple(u) if next(filter(None, u)) > 0 else tuple(map(neg, u))
                  for u in out)


def _block_walks(adj: list, cycles: list, m: int) -> list:
    """The vectors u_W of ``graver_basis`` whose W is not 2-connected, each
    once, from the graph's adjacency lists and ``_cycles``.

    W is grown from its root: the leaf block of least index in ``cycles``.
    A branch starts at a cut vertex v with a demand d, the sign that the
    new block's edges at v must have for the two blocks to cancel there.
    It is a path of cut edges, worth 2d, -2d, ... in turn, as the demand
    changes sign at each step, and then a cycle C whose two edges at the
    path's end take the demand there.  C meets what is grown only at that
    vertex.  Any set of its other vertices whose size has the parity the
    rule asks become its further cut vertices, and each starts a branch
    whose demand is minus the sign of C's edges there.  Given its root,
    each W is grown in exactly one way, and a leaf other than the root
    must come later in ``cycles``.  A branch takes two fresh vertices at
    least (a triangle), which bounds the search.
    """
    n = len(adj)
    rings = [(vs, es, sum(1 << v for v in vs)) for vs, es in cycles]
    # another leaf of W is an odd cycle that comes after the root and meets
    # it in one vertex at most
    odd = [(c, mask) for c, (vs, _, mask) in enumerate(rings) if len(vs) % 2]
    roots = [c for i, (c, mask) in enumerate(odd)
             if any((mask & other).bit_count() < 2 for _, other in odd[i + 1:])]
    if not roots:
        return []
    # the cycles through each vertex, shortest first, as (length, index in
    # ``cycles``, position of the vertex on the cycle)
    through = [[] for _ in range(n)]
    for c, (vs, _, _) in enumerate(rings):
        for k, v in enumerate(vs):
            through[v].append((len(vs), c, k))
    for at in through:
        at.sort()
    vec = [0] * m
    out = []

    def signs(c, k, t, cuts):
        """Sign cycle c from its vertex k, whose two edges get t, keeping
        the sign at the vertices ``cuts`` and changing it at the others;
        the branches of those cut vertices, as (vertex, demand)."""
        vs, es, _ = rings[c]
        size = len(vs)
        branches = []
        for step in range(size):
            i = (k + step) % size
            vec[es[i]] = t
            if (i + 1) % size in cuts:
                branches.append((vs[(i + 1) % size], -t))
            else:
                t = -t
        return branches

    def grow(pending, used):
        if pending:
            v, d = pending[-1]
            attach(v, d, used, pending[:-1])
        else:
            out.append(vec[:])

    def attach(v, d, used, rest):
        # the fresh vertices this branch may take, after two for each of
        # the branches still pending
        room = n - used.bit_count() - 2 * len(rest)
        for size, c, k in through[v]:
            spare = room + 1 - size
            if spare < 0:
                break
            vs, es, mask = rings[c]
            if mask & used != 1 << v:
                continue
            others = [i for i in range(size) if i != k]
            for cut in range((size - 1) % 2, min(size - 1, spare // 2) + 1, 2):
                if cut or c > root:
                    for cuts in combinations(others, cut):
                        grow(rest + signs(c, k, d, cuts), used | mask)
            for j in es:
                vec[j] = 0
        if room >= 3:
            for w, j in adj[v]:
                if not used >> w & 1:
                    vec[j] = 2 * d
                    attach(w, -d, used | 1 << w, rest)
                    vec[j] = 0

    for root in roots:
        vs, es, mask = rings[root]
        for k, v in enumerate(vs):
            signs(root, k, 1, ())
            attach(v, -1, mask, [])
        for j in es:
            vec[j] = 0
    return out


def vector_to_binomial(ring: Ring, u: tuple) -> Poly:
    """The binomial x^{u+} - x^{u-} of an integer vector."""
    pos, negp = _sign_parts(u)
    return Poly._adopt(ring, {pos: ONE, negp: _MINUS_ONE})


# ---------------------------------------------------------------------------
# Universal Groebner basis / toric ideal.

# Universal bases by graph structure, oldest first.  The cap bounds a
# long-lived process; a census of all 710 connected 9-edge graphs fills
# about 1,400 entries.
_UGB_CACHE: dict = {}
_UGB_CACHE_SIZE = 4096


def universal_groebner_basis(G: Graph) -> tuple:
    """The primitive closed-even-walk binomials of G (its universal basis).

    They are the binomials of ``graver_basis(G)``, which is a universal
    Groebner basis: one for each primitive walk of G, listed by its
    subgraph.  Forests give the empty tuple.  Results are cached by
    graph structure, since the decomposability search revisits the same
    subgraphs many times; past ``_UGB_CACHE_SIZE`` entries the oldest is
    dropped.

    On a miss, a graph cut from others by ``delete_edges`` takes the basis
    of its nearest ancestor in the cache: the binomials that avoid the
    deleted edges, lifted into G's ring (``_restricted_basis``).  Only a
    graph with no cached ancestor calls ``graver_basis``.  This gives the
    same tuple:

    - The same vectors.  The ancestor A has G's vertices and a superset of
      its edges, so ker G is the slice of ker A that is zero on the deleted
      edges.  A vector v conformally below u has support inside u's, so for
      u in that slice the vectors conformally below u are the same in
      either kernel, and u is minimal in one exactly when it is minimal in
      the other.  The Graver basis of G is the members of A's that are
      zero on the deleted edges (Sturmfels, *Groebner Bases and Convex
      Polytopes*, 1996, ch. 4).
    - The same orientation.  A vector is oriented by comparing the degree
      and then the exponent tuple of its positive and negative parts.
      Dropping a coordinate where both parts are zero changes neither
      degree, and drops a position where the two tuples agree, so the
      first position where they differ, and the comparison, stay.
    - The same order and terms.  Lifting keeps each binomial's terms in
      their order, and G's edges in A's order, so it only deletes
      coordinates that are zero in every kept binomial.  Tuples compare
      as before such a deletion, so the kept binomials stay sorted by the
      key used here (degree, then ``canonical``) and need no sort.
    """
    if not G.edges:
        return ()
    key = (G.vertices, G.edges)
    hit = _UGB_CACHE.get(key)
    if hit is not None:
        return hit
    ring = G.edge_ring()
    lifted = _restricted_basis(G, ring)
    if lifted is None:
        polys = [vector_to_binomial(ring, u) for u in graver_basis(G)]
        polys.sort(key=lambda f: (f.total_degree(), f.canonical()))
    else:
        polys = [Poly._adopt(ring, {a: ONE, b: _MINUS_ONE}) for a, b in lifted]
    out = tuple(polys)
    if len(_UGB_CACHE) >= _UGB_CACHE_SIZE:
        del _UGB_CACHE[next(iter(_UGB_CACHE))]
    _UGB_CACHE[key] = out
    return out


class LiftedBasis:
    """G's universal basis read in one ring, and what is read off it there.

    ``names`` are the ring's names, ``edges`` the sorted ring positions of
    G's edges, and ``pairs`` holds each binomial x^a - x^b as the pair
    (a, b) of exponent tuples, in the cached order (``lifted_basis``).  The
    rest is derived from them when first read and kept:

    - ``signs``: each binomial up to sign, as the set of its two monomials;
    - ``key``: ``edges``, and the bytes of each binomial's smaller
      monomial, then of its larger one, sorted and joined
      (``gvd._context_key``; an exponent of a primitive walk binomial is at
      most 2, so it fits in a byte);
    - ``leads``: the minimal generators of the initial ideal of I_G under
      the ring's storage order, in ascending order: the initial terms of
      the reduced basis that ``groebner.selected_basis`` selects.
    """

    __slots__ = ("names", "edges", "pairs", "_signs", "_key", "_leads")

    def __init__(self, names: tuple, edges: tuple, pairs: tuple):
        self.names, self.edges, self.pairs = names, edges, pairs
        self._signs = self._key = self._leads = None

    @property
    def signs(self) -> frozenset:
        if self._signs is None:
            self._signs = frozenset(map(frozenset, self.pairs))
        return self._signs

    @property
    def key(self) -> tuple:
        if self._key is None:
            signs = sorted(bytes(min(pair) + max(pair)) for pair in self.pairs)
            self._key = (self.edges, b"".join(signs))
        return self._key

    @property
    def leads(self) -> tuple:
        if self._leads is None:
            order = storage_order(Ring(self.names))
            self._leads = tuple(next(iter(g.terms))
                                for g in selected_basis(order, (), self.pairs))
        return self._leads


# Lifted bases by (vertices, edges, ring names), oldest first, capped as
# the universal bases are.
_LIFTED: dict = {}


def lifted_basis(G: Graph, ring: Ring) -> LiftedBasis:
    """G's universal basis in ``ring``, which holds every edge of G, as a
    ``LiftedBasis``: each binomial x^a - x^b as the pair (a, b) of
    exponent tuples in ``ring``, read from the cached basis through a map
    of positions (``_restricted_basis``), with no ``Poly`` built.  In G's
    own ring the pairs are the cached terms.  An edge of G missing from
    ``ring`` raises ``KeyError``.

    Entries are cached by G's vertices and edges and the ring's names,
    which fix the pairs: the universal basis is a function of the graph's
    structure (``universal_groebner_basis``, whichever ancestor it is
    restricted from), and the ring's names fix the map of positions.  So a
    hit is the entry a fresh lift builds.  Past ``_UGB_CACHE_SIZE``
    entries the oldest is dropped.
    """
    key = (G.vertices, G.edges, ring.names)
    hit = _LIFTED.get(key)
    if hit is not None:
        return hit
    edges = tuple(sorted(map(ring.index.__getitem__, G.edge_labels)))
    basis = universal_groebner_basis(G)
    if ring.names == G.edge_labels:
        pairs = tuple(tuple(f.terms) for f in basis)
    else:
        pairs = tuple(_restricted_basis(G, ring)) if basis else ()
    out = LiftedBasis(ring.names, edges, pairs)
    if len(_LIFTED) >= _UGB_CACHE_SIZE:
        del _LIFTED[next(iter(_LIFTED))]
    _LIFTED[key] = out
    return out


def _restricted_basis(G: Graph, ring: Ring):
    """The binomials x^a - x^b of the cached basis of G or of its nearest
    cached ancestor that avoid the edges G lacks, each as the pair (a, b)
    lifted into ``ring``, which holds every edge of G, through a map of
    positions, in the cached order; None when no such basis is cached.  By
    ``universal_groebner_basis`` they are G's basis.  Every cached binomial
    is x^a - x^b with its terms in that order (``vector_to_binomial``), and
    lifting keeps it so."""
    A = G
    while A is not None:
        hit = _UGB_CACHE.get((A.vertices, A.edges))
        if hit is not None:
            break
        A = A.parent
    else:
        return None
    kept = set(G.edge_labels)
    # A ring variable reads its exponent at its position in A, or from the
    # zero padded after the last one when it is no edge of A.  The extra
    # leading read makes ``lift`` return a tuple even for one variable.
    labels = A.edge_labels
    at = dict(zip(labels, range(len(labels))))
    pad = (0,)
    lift = itemgetter(0, *map(at.get, ring.names, repeat(len(labels))))
    dropped = [at[label] for label in labels if label not in kept]
    out = []
    for f in hit:
        a, b = f.terms
        if dropped and (any(map(a.__getitem__, dropped))
                        or any(map(b.__getitem__, dropped))):
            continue
        out.append((lift(a + pad)[1:], lift(b + pad)[1:]))
    return out


def toric_ideal(G: Graph) -> Ideal:
    """The toric ideal of G with a minimal generating set as generators.

    ``minimal_generators`` chooses them from the universal basis, degree
    ascending, with one Groebner basis per degree; the binomials are
    homogeneous, so by graded Nakayama the choice is a minimal generating
    set.
    """
    ring = G.edge_ring()
    return Ideal(ring, minimal_generators(Ideal(ring, universal_groebner_basis(G))))


def reduced_toric_ideal(G: Graph) -> Ideal:
    """The toric ideal of G generated by its reduced basis under the
    storage order, which needs no S-pair and no reduction: every reduced
    basis of a toric ideal is a subset of its universal basis, which
    ``selected_basis`` picks out."""
    ring = G.edge_ring()
    return Ideal.reduced(ring, selected_basis(storage_order(ring), (),
                                              lifted_basis(G, ring).pairs))


def toric_dimension(G: Graph) -> int:
    """Rank of the incidence matrix over Q, by the component-wise formula:
    the vertices of each component with an edge, less one when it is
    bipartite (Villarreal, *Comm. Algebra* 23 (1995))."""
    return sum(len(comp) - bipartite for comp, bipartite in G._colourings()
               if len(comp) > 1)


# ---------------------------------------------------------------------------
# Graph operations from the decomposability toolkit.

def _next_index(names: Iterable[str], prefix: str) -> int:
    best = 0
    for n in names:
        if n.startswith(prefix) and n[len(prefix):].isdigit():
            best = max(best, int(n[len(prefix):]))
    return best + 1


def even_cycle_binomial(G: Graph, edge: str, path: tuple):
    """The binomial of the even cycle that ``edge`` closes with ``path``:
    the product of the path's odd-numbered edges minus ``edge`` times its
    even-numbered ones, in ``G``'s edge ring."""
    ring = G.edge_ring()
    odd = ring.one()
    even = ring.var(edge)
    for i, lab in enumerate(path):
        if i % 2 == 0:
            odd = odd * ring.var(lab)
        else:
            even = even * ring.var(lab)
    return odd - even


def glue_even_cycle(G: Graph, edge: str, length: int):
    """Glue an even cycle of the given length onto G along an existing edge.

    Adds length-1 new edges f_i forming a cycle with ``edge`` and returns
    (H, F) where F = f1 f3 ... f_{len-1}  -  e f2 f4 ... f_{len-2} is the new
    cycle binomial.  Checks I_H = I_G + <F> and raises AssertionError if it
    fails.
    """
    if length % 2 or length < 4:
        raise ValueError("cycle length must be even and at least 4")
    if edge not in G._ends:
        raise KeyError("no edge %r to glue along" % edge)
    a, b = G.ends(edge)
    k = length - 1  # number of new edges
    e0 = _next_index(G.edge_labels, "f")
    v0 = _next_index(G.vertices, "w")
    labels = ["f%d" % (e0 + i) for i in range(k)]
    inner = ["w%d" % (v0 + i) for i in range(k - 1)]
    chain = [a] + inner + [b]
    new_edges = [(labels[i], chain[i], chain[i + 1]) for i in range(k)]
    H = G.with_edges(inner, new_edges)

    F = even_cycle_binomial(H, edge, labels)
    IG_ext = toric_ideal(G).rename(H.edge_ring()).with_extra([F])
    if not ideal_equal(toric_ideal(H), IG_ext):
        raise AssertionError("gluing identity I_H = I_G + <F> failed")
    return H, F


def _fresh_names(names, taken) -> dict:
    """Map each name to itself, or, when that is in ``taken`` or already
    given, to the first free ``name_k`` for k = 2, 3, ..."""
    taken, out = set(taken), {}
    for name in names:
        new, k = name, 2
        while new in taken:
            new, k = "%s_%d" % (name, k), k + 1
        taken.add(new)
        out[name] = new
    return out


def disjoint_union(G: Graph, H: Graph) -> Graph:
    """Disjoint union; colliding vertex/edge names on the H side get suffixes."""
    vmap = _fresh_names(H.vertices, G.vertices)
    emap = _fresh_names(H.edge_labels, G.edge_labels)
    return G.with_edges((vmap[v] for v in H.vertices),
                        ((emap[label], vmap[u], vmap[v]) for label, u, v in H.edges))


def is_gap_free(G: Graph) -> bool:
    """No two vertex-disjoint edges without an edge connecting them."""
    es = G.edges
    for i in range(len(es)):
        _, a, b = es[i]
        for j in range(i + 1, len(es)):
            _, c, d = es[j]
            if len({a, b, c, d}) < 4:
                continue
            if not any(G.has_edge_between(p, q)
                       for p in (a, b) for q in (c, d)):
                return False
    return True


def four_cycles_containing(G: Graph, edge: str) -> list:
    """All 4-cycles through the edge, as edge-label tuples starting with it."""
    a, b = G.ends(edge)
    found = set()
    for lab_bc, c in G.neighbors(b):
        if c == a:
            continue
        for lab_cd, d in G.neighbors(c):
            if d in (a, b):
                continue
            if G.has_edge_between(d, a):
                cyc = (edge, lab_bc, lab_cd, G.edge_between(d, a))
                rev = (edge, cyc[3], cyc[2], cyc[1])
                found.add(min(cyc, rev))
    return sorted(found)
