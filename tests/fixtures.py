"""Benchmark graphs, frozen expected values, the walk oracle, Pottier
completion (the oracle for Graver bases), the generators of the E/F
framework's node ideals, the small oracles (dimension, monomial, Groebner
and graph helpers) and the seeded random streams shared across the test
suite."""

import hashlib
import importlib.util
import random
from collections import deque
from fractions import Fraction
from operator import neg, sub
from pathlib import Path

from gvdlab import groebner, gvd
from gvdlab.algebra import (
    Order, Packing, Poly, Ring, initial_term, lex_order, mono_divides,
    mono_is_squarefree, mono_support, parse_poly, storage_order,
)
from gvdlab.graphs import (
    Graph, _sign_parts, four_cycles_containing, toric_ideal,
    universal_groebner_basis, vector_to_binomial,
)
from gvdlab.groebner import (
    Ideal, contract, ideal_equal, initial_ideal, intersect,
    minimal_monomial_generators,
)
from gvdlab.gvd import cn_split
from gvdlab.util import Budget


def empty_shared_memo(monkeypatch):
    """Give the certifiers an empty memo of certified nodes, and
    ``replay_certificate`` an empty table of verified nodes, until
    ``monkeypatch`` is undone, so that a test sees all the work of its
    certifiers and of replay, and leaves no node behind for the tests
    after it."""
    monkeypatch.setattr(gvd, "_MEMO", {})
    monkeypatch.setattr(gvd, "_VERIFIED", {})


class StoresNothing(dict):
    """A memo that stores nothing, so that no node is served from it and a
    certifier visits every node below its root."""

    def __setitem__(self, key, node):
        pass


class PolledBudget(Budget):
    """A budget that runs out after ``polls`` calls of ``exceeded``, and
    records it in ``spent`` as ``Budget`` does."""

    def __init__(self, polls: int):
        super().__init__(None)
        self.polls = polls

    def exceeded(self) -> bool:
        self.polls -= 1
        self.spent = self.polls < 0
        return self.spent


def two_k4_sharing_vertex() -> Graph:
    """Two K4's glued at one vertex: 7 vertices, 12 edges."""
    return Graph(
        ["x1", "x2", "x3", "x4", "x5", "x6", "x7"],
        [("e1", "x1", "x2"), ("e2", "x1", "x3"), ("e3", "x1", "x4"),
         ("e4", "x2", "x3"), ("e5", "x2", "x4"), ("e6", "x4", "x3"),
         ("e7", "x4", "x5"), ("e8", "x4", "x6"), ("e9", "x4", "x7"),
         ("e10", "x5", "x6"), ("e11", "x5", "x7"), ("e12", "x7", "x6")],
    )


def three_k4_sharing_vertex() -> Graph:
    """Three K4's glued at one vertex: 10 vertices, 18 edges.  No lex
    order gives its toric ideal a square-free initial ideal, and showing
    that with an edge of each 4-cycle largest takes over ten seconds."""
    hub = "x1"
    vertices, edges = [hub], []
    for block in range(3):
        ring = ["x%d" % (2 + 3 * block + i) for i in range(3)]
        vertices += ring
        quad = [hub] + ring
        edges += [(u, v) for i, u in enumerate(quad) for v in quad[i + 1:]]
    return Graph(vertices, [("e%d" % (i + 1), u, v)
                            for i, (u, v) in enumerate(edges)])


def two_k4_chain() -> dict:
    """The witness chain of ideals inside the toric ideal of
    two_k4_sharing_vertex: J and K are its contracted C and N branches at
    e2, L is the C branch of K at e5, and M the N branch of L at e12."""
    split = cn_split(toric_ideal(two_k4_sharing_vertex()), "e2")
    J, K = contract(split.C, "e2"), contract(split.N, "e2")
    L = contract(cn_split(K, "e5").C, "e5")
    M = contract(cn_split(L, "e12").N, "e12")
    return {"J": J, "K": K, "L": L, "M": M}


def intersection(ideals):
    """The intersection of a nonempty list of ideals of one ring."""
    total = None
    for P in ideals:
        total = P if total is None else intersect(total, P)
    return total


# Minimal generating set of the toric ideal of two_k4_sharing_vertex:
# four quadrics and nine cubics.
TWO_K4_GENERATORS = [
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
]

# Reduced lex basis (e2 > e1 > e3 > e4 > ... > e12) of the same ideal.
TWO_K4_LEX_E2_BASIS = [
    "e8*e11 - e7*e12",
    "e9*e10 - e7*e12",
    "e3*e4 - e1*e6",
    "e4*e8*e9 - e5*e6*e12",
    "e1*e8*e9 - e3*e5*e12",
    "e4*e7*e9 - e5*e6*e11",
    "e1*e7*e9 - e3*e5*e11",
    "e4*e7*e8 - e5*e6*e10",
    "e1*e7*e8 - e3*e5*e10",
    "e5*e6*e10*e11 - e4*e7^2*e12",
    "e3*e5*e10*e11 - e1*e7^2*e12",
    "e2*e5 - e1*e6",
    "e2*e8*e9 - e3*e6*e12",
    "e2*e7*e9 - e3*e6*e11",
    "e2*e7*e8 - e3*e6*e10",
    "e2*e7^2*e12 - e3*e6*e10*e11",
]

# The C/N pair at y = e2 for the same ideal.
TWO_K4_C_E2 = [
    "e5",
    "e8*e11 - e7*e12",
    "e9*e10 - e7*e12",
    "e8*e9",
    "e7*e9",
    "e7*e8",
    "e3*e4 - e1*e6",
]

TWO_K4_N_E2 = [
    "e8*e11 - e7*e12",
    "e9*e10 - e7*e12",
    "e3*e4 - e1*e6",
    "e4*e8*e9 - e5*e6*e12",
    "e1*e8*e9 - e3*e5*e12",
    "e4*e7*e9 - e5*e6*e11",
    "e1*e7*e9 - e3*e5*e11",
    "e4*e7*e8 - e5*e6*e10",
    "e1*e7*e8 - e3*e5*e10",
]

# Deeper C/N displays along the witness chain of the same ideal.
# J = C_{e2}; K = N_{e2}; L = C_{e5,K}; M = N_{e12,L}.
TWO_K4_C_E8_OF_J = ["e11", "e9", "e7", "e5", "e3*e4 - e1*e6"]
TWO_K4_N_E8_OF_J = ["e5", "e9*e10 - e7*e12", "e7*e9", "e3*e4 - e1*e6"]
TWO_K4_IN_E5_OF_K = [
    "e8*e11 - e7*e12", "e9*e10 - e7*e12", "e3*e4 - e1*e6",
    "e5*e6*e12", "e3*e5*e12", "e5*e6*e11", "e3*e5*e11",
    "e5*e6*e10", "e3*e5*e10",
]
TWO_K4_IN_E12_OF_L = [
    "e6*e11", "e3*e11", "e9*e10 - e8*e11", "e6*e10", "e3*e10",
    "e3*e4 - e1*e6", "e7*e12", "e6*e12", "e3*e12",
]
TWO_K4_IN_E11_OF_M = [
    "e6*e10", "e3*e10", "e3*e4 - e1*e6", "e8*e11", "e6*e11", "e3*e11",
]
TWO_K4_C_E5_OF_K = [
    "e6*e12", "e3*e12",
    "e8*e11 - e7*e12",
    "e6*e11", "e3*e11",
    "e9*e10 - e7*e12",
    "e6*e10", "e3*e10",
    "e3*e4 - e1*e6",
]
TWO_K4_C_E12_OF_L = ["e7", "e6", "e3", "e9*e10 - e8*e11"]
TWO_K4_N_E12_OF_L = [
    "e6*e11", "e3*e11", "e9*e10 - e8*e11", "e6*e10", "e3*e10",
    "e3*e4 - e1*e6",
]
TWO_K4_C_E11_OF_M = ["e8", "e6", "e3"]
TWO_K4_N_E11_OF_M = ["e6*e10", "e3*e10", "e3*e4 - e1*e6"]


def two_triangles_bridged() -> Graph:
    """Two triangles joined by a path of length 2: 7 vertices, 8 edges.

    Its toric ideal is principal with a non-square-free generator.
    """
    return Graph(
        ["x1", "x2", "x3", "x4", "x5", "x6", "x7"],
        [("e1", "x1", "x2"), ("e2", "x1", "x3"), ("e3", "x3", "x2"),
         ("e4", "x3", "x4"), ("e5", "x4", "x5"), ("e6", "x5", "x6"),
         ("e7", "x5", "x7"), ("e8", "x6", "x7")],
    )


TWO_TRIANGLES_GENERATOR = "e1*e4^2*e6*e7 - e2*e3*e5^2*e8"


def k2d_with_path(r: int, d: int) -> Graph:
    """K_{2,d} (hubs x1,x2; spokes a_i,b_i through y_i) plus an x1-x2 path
    of length 2r-2 through new vertices z_1..z_{2r-3}."""
    if r < 2 or d < 1:
        raise ValueError("need r >= 2 and d >= 1")
    ys = ["y%d" % i for i in range(1, d + 1)]
    zs = ["z%d" % i for i in range(1, 2 * r - 2)]
    edges = []
    for i in range(1, d + 1):
        edges.append(("a%d" % i, "x1", "y%d" % i))
    for i in range(1, d + 1):
        edges.append(("b%d" % i, "x2", "y%d" % i))
    chain = ["x1"] + zs + ["x2"]
    for i in range(1, 2 * r - 1):
        edges.append(("e%d" % i, chain[i - 1], chain[i]))
    return Graph(["x1", "x2"] + ys + zs, edges)


def k2d_with_path_universal_basis(r: int, d: int) -> set:
    """Closed-form universal basis of k2d_with_path as polynomial text."""
    ring = k2d_with_path(r, d).edge_ring()
    out = set()
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            out.add(parse_poly(ring, "a%d*b%d - b%d*a%d" % (i, j, i, j)))
    evens = "*".join("e%d" % k for k in range(2, 2 * r - 1, 2))
    odds = "*".join("e%d" % k for k in range(1, 2 * r - 1, 2))
    for i in range(1, d + 1):
        out.add(parse_poly(ring, "a%d*%s - b%d*%s" % (i, evens, i, odds)))
    return out


def rational_rank(rows) -> int:
    """Row rank over Q by exact Gaussian elimination (test oracle)."""
    from fractions import Fraction
    M = [[Fraction(x) for x in row] for row in rows]
    if not M:
        return 0
    rank = 0
    ncols = len(M[0])
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(M)) if M[r][col] != 0), None)
        if pivot is None:
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        inv = 1 / M[rank][col]
        M[rank] = [x * inv for x in M[rank]]
        for r in range(len(M)):
            if r != rank and M[r][col] != 0:
                c = M[r][col]
                M[r] = [a - c * b for a, b in zip(M[r], M[rank])]
        rank += 1
    return rank


def primitive_walk_binomials(G: Graph, max_edges: int = 10) -> set:
    """Independent oracle for the universal basis: bounded enumeration of
    closed even walks.

    Uses the fact that a primitive walk traverses each edge at most twice and
    never repeats an edge immediately (cyclically); the collected exponent
    vectors are then filtered to the conformally minimal ones.  Exponential --
    intended for graphs with few edges only.
    """
    if len(G.edges) > max_edges:
        raise ValueError("walk enumeration limited to %d edges" % max_edges)
    eidx = {label: i for i, label in enumerate(G.edge_labels)}
    m = len(G.edges)
    vectors = set()
    order = {v: i for i, v in enumerate(sorted(G.vertices))}

    def walk(v0, v, used, last, step, vec, first_edge):
        for label, w in sorted(G.neighbors(v)):
            i = eidx[label]
            if i == last or used[i] == 2 or order[w] < order[v0]:
                continue
            used[i] += 1
            vec[i] += 1 if step % 2 == 1 else -1
            if w == v0 and step % 2 == 0 and i != first_edge and any(vec):
                vectors.add(tuple(vec))
            if step < 2 * m:
                walk(v0, w, used, i, step + 1,
                     vec, first_edge if first_edge is not None else i)
            used[i] -= 1
            vec[i] -= 1 if step % 2 == 1 else -1

    for v0 in sorted(G.vertices):
        walk(v0, v0, [0] * m, None, 1, [0] * m, None)
    ring = G.edge_ring()
    return {vector_to_binomial(ring, u) for u in oriented_minimal(vectors)}


# ---------------------------------------------------------------------------
# Pottier completion of a lattice basis of the incidence kernel: the oracle
# for ``graphs.graver_basis``, which lists the primitive walks instead, and
# the conformal filter that it and the walk oracle share.

def _oriented(u: tuple, pos: tuple, negp: tuple) -> tuple:
    """u or -u, whichever has the storage-order-larger positive part."""
    return u if (sum(pos), pos) > (sum(negp), negp) else tuple(map(neg, u))


def oriented_minimal(vectors) -> list:
    """The conformally minimal members of a collection of lattice vectors,
    one per +/- pair, oriented so the positive part is the
    storage-order-larger monomial; sorted for determinism."""
    vectors = [(u, _sign_parts(u)) for u in vectors]
    out = set()
    for u, (pos, negp) in vectors:
        if any(v != u and mono_divides(vp, pos) and mono_divides(vn, negp)
               for v, (vp, vn) in vectors):
            continue
        out.add(_oriented(u, pos, negp))
    return sorted(out)


def integer_kernel_basis(rows: list) -> list:
    """A lattice basis of {u in Z^m : A u = 0} via unimodular column reduction."""
    n = len(rows)
    m = len(rows[0]) if rows else 0
    cols = [[rows[i][j] for i in range(n)] for j in range(m)]
    U = [[1 if i == j else 0 for i in range(m)] for j in range(m)]
    lead = 0
    for r in range(n):
        while True:
            nz = [j for j in range(lead, m) if cols[j][r] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda j: (abs(cols[j][r]), j))
            j, k = nz[0], nz[1]
            q = cols[k][r] // cols[j][r]
            cols[k] = [a - q * b for a, b in zip(cols[k], cols[j])]
            U[k] = [a - q * b for a, b in zip(U[k], U[j])]
        if nz:
            j = nz[0]
            cols[lead], cols[j] = cols[j], cols[lead]
            U[lead], U[j] = U[j], U[lead]
            lead += 1
    return [tuple(U[j]) for j in range(lead, m)]


def graver_completion(lattice_basis: list) -> list:
    """All conformally-minimal nonzero lattice vectors (Pottier completion),
    as ``oriented_minimal`` returns them.

    A vector s lies conformally below f (same sign as f wherever s is
    nonzero, and no larger in absolute value) exactly when the monomial s+
    divides f+ and s- divides f-; then f - s has the parts f+/s+ and f-/s-.
    So the members of the growing set S are held as their sign parts, each
    a packed monomial with one field per coordinate (``algebra.Packing``),
    and the conformal test in the normal form is ``pair_divisor``, two
    masked subtractions per member of S.
    Two vectors have a sign conflict when the support of one's positive
    part meets that of the other's negative part.  The parts of u + v are
    u+ + v+ and u- + v-, less their fieldwise minimum.  A part that reaches
    a guard bit restarts the completion with fields twice as wide.  The
    scan order and the first-match rule are those of plain vector
    reduction, so the result is the same.

    Only pairs with a sign conflict are formed.  The completion is done
    when every u + v over pairs of S is a sum of members of S conformally
    below it; if u and v agree in sign wherever both are nonzero, then u
    and v lie conformally below u + v, and u + v = u + v is such a sum
    (Hemmecke, Math. Program. 2003).
    """
    n = len(lattice_basis[0]) if lattice_basis else 0
    pk = Packing(n, range(n))
    return pk.widening(lambda pk: oriented_minimal(
        tuple(map(sub, pk.unpack(p), pk.unpack(q)))
        for p, q in _completion(pk, lattice_basis)))


def _completion(pk: Packing, lattice_basis: list) -> list:
    """``graver_completion``'s set S, as packed sign parts (u+, u-)."""
    checked, support = pk.checked, pk.support
    S, sup_p, sup_n = [], [], []
    seen = set()

    def join(v):
        seen.add(v)
        S.append(v)
        sup_p.append(support(v[0]))
        sup_n.append(support(v[1]))

    def conflicts(p, q):
        sp, sn = support(p), support(q)
        return [k for k in range(len(S)) if sp & sup_n[k] or sn & sup_p[k]]

    for b in lattice_basis:
        p, q = map(pk.pack, _sign_parts(tuple(b)))
        for v in ((p, q), (q, p)):
            if (p or q) and v not in seen:
                join(v)

    def nf(p, q):
        while p or q:
            s = pair_divisor(pk, p, q, S)
            if s is None:
                return p, q
            p -= s[0]
            q -= s[1]
        return None

    queue = deque((i, j) for i in range(len(S)) for j in conflicts(*S[i]) if j > i)
    while queue:
        i, j = queue.popleft()
        (pi, qi), (pj, qj) = S[i], S[j]
        p, q = checked(pi + pj), checked(qi + qj)
        common = packed_gcd(pk, p, q)
        h = nf(p - common, q - common)
        if h is None or h in seen:
            continue
        for v in (h, h[::-1]):
            queue.extend((len(S), k) for k in conflicts(*v))
            join(v)
    return S


def pair_divisor(pk: Packing, p: int, q: int, pairs):
    """The first (a, b) of ``pairs`` with a dividing p and b dividing q,
    all monomials packed by ``pk``, or None."""
    G = pk.guard
    pG, qG = p | G, q | G
    for r in pairs:
        if (pG - r[0]) & G == G and (qG - r[1]) & G == G:
            return r
    return None


def packed_gcd(pk: Packing, a: int, b: int) -> int:
    """The gcd of the monomials a and b packed by ``pk``: their fieldwise
    minimum, with each degree row summed again, as ``Packing.lcm`` takes
    the maximum."""
    ge = pk._at_least(a, b)
    return pk._resummed(b & ge | a & ~ge)


# ---------------------------------------------------------------------------
# The E/F framework's node ideals, from their definition (see ``gvdlab.ef``):
# the oracle for the ideal each node of ``ef.quadratic_pipeline`` holds,
# which the pipeline itself never builds.

def _shadow_monomials(G: Graph, E: tuple, F: tuple) -> list:
    """Exponent tuples of the M_{E,F} generators: for each universal-basis
    element whose lead involves an E-edge and no F-edge, the lead with its
    E-part deleted (minimal ones only)."""
    ring = G.edge_ring()
    order = lex_order(ring)
    eidx = {ring.vidx(e) for e in E}
    fidx = {ring.vidx(f) for f in F}
    found = []
    for g in universal_groebner_basis(G):
        lead = initial_term(order, g).mono
        if any(lead[i] for i in fidx) or not any(lead[i] for i in eidx):
            continue
        found.append(tuple(0 if i in eidx else e for i, e in enumerate(lead)))
    return minimal_monomial_generators(found)


def natural_generators(G: Graph, E: tuple, F: tuple, ring: Ring) -> list:
    """Generators of I^G_{E,F}: the universal basis of the k-edges-deleted
    subgraph plus the shadow monomials, as elements of ``ring`` (which they
    never leave)."""
    deleted = G.delete_edges(E + F)
    gens = [g.rename(ring) for g in universal_groebner_basis(deleted)]
    full = G.edge_ring()
    for mono in _shadow_monomials(G, E, F):
        gens.append(ring.monomial({full.names[i]: e
                                   for i, e in enumerate(mono) if e}))
    return gens


# ---------------------------------------------------------------------------
# Small oracles that only the tests call: monomial arithmetic, order
# comparison, Krull dimension, a Groebner-basis check, and two graph checks.

def mono_div(a: tuple, b: tuple) -> tuple:
    """a / b, assuming b divides a."""
    return tuple(map(sub, a, b))


def mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


def compare(order: Order, a: tuple, b: tuple) -> int:
    """-1, 0 or 1 as a <, =, > b under the order."""
    ka, kb = order.key(a), order.key(b)
    return -1 if ka < kb else (0 if ka == kb else 1)


def _min_cover_size(supports: list) -> int:
    """Minimum number of variables hitting every support set."""
    supports = [frozenset(s) for s in supports]
    # quick reductions: drop supersets
    supports.sort(key=len)
    core = []
    for s in supports:
        if not any(t <= s for t in core):
            core.append(s)
    best = len(frozenset().union(*core)) if core else 0

    def bb(uncovered, size):
        nonlocal best
        if size >= best:
            return
        if not uncovered:
            best = size
            return
        s = min(uncovered, key=len)
        for v in sorted(s):
            rest = [t for t in uncovered if v not in t]
            bb(rest, size + 1)

    bb(core, 0)
    return best


def krull_dimension(I: Ideal) -> int:
    """dim Q[ring]/I; -1 for the unit ideal, arity for the zero ideal."""
    rgb = I.groebner()
    if not rgb:
        return I.ring.arity
    if len(rgb) == 1 and rgb[0].is_constant():
        return -1
    order = storage_order(I.ring)
    supports = [mono_support(initial_term(order, g).mono) for g in rgb]
    return I.ring.arity - _min_cover_size(supports)


def is_generated_by_variables(I: Ideal) -> bool:
    """True iff I is generated by a (possibly empty) set of variables."""
    return all(g.is_variable() for g in I.groebner())


def is_square_free_monomial_ideal(I: Ideal) -> bool:
    """True iff the reduced basis consists of square-free monomials."""
    rgb = I.groebner()
    return all(g.is_monomial() and mono_is_squarefree(next(iter(g.terms)))
               for g in rgb)


def is_square_free_groebner_basis(order: Order, I: Ideal) -> bool:
    """True iff the generators of I, as given, form a Groebner basis under
    ``order`` whose initial ideal is square-free."""
    leads = [initial_term(order, g).mono for g in I.gens]
    if not all(mono_is_squarefree(m) for m in minimal_monomial_generators(leads)):
        return False
    lead_ideal = Ideal(I.ring, [Poly(I.ring, {m: Fraction(1)}) for m in leads])
    return ideal_equal(lead_ideal, initial_ideal(order, I))


def remove_leaves_fixpoint(G: Graph) -> Graph:
    """Repeatedly delete edges with a degree-1 endpoint until none remain."""
    H = G
    while True:
        drop = [label for label, u, v in H.edges
                if H.degree(u) == 1 or H.degree(v) == 1]
        if not drop:
            return H
        H = H.delete_edges(drop)


def has_four_cycle(G: Graph) -> bool:
    return any(four_cycles_containing(G, label) for label in G.edge_labels)


def census9_graphs(seed: int) -> list:
    """The 710 connected 9-edge graph classes of the benchmark's census,
    labelled as its ``seed`` labels them."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return [inputs.relabel(*inputs.census_graph(n, edges), seed, "census9/%d" % i).graph
            for i, (n, edges) in enumerate(inputs.load_census())]


def counted_runs(monkeypatch) -> list:
    """The arguments of every Buchberger run from now on."""
    runs, real = [], groebner.buchberger

    def counted(*args):
        runs.append(args)
        return real(*args)
    monkeypatch.setattr(groebner, "buchberger", counted)
    return runs


def corpus_nodes(graphs=None) -> list:
    """The toric ideal of each graph of the 7-edge corpus, or of
    ``graphs``, each followed by the C and N branches of its square-free
    splits at every edge, built fresh, each as the pair (ideal, context):
    the graph, restricted to the ideal's ring as the search restricts it."""
    from graph_corpus import connected_graphs, to_graph
    if graphs is None:
        graphs = [to_graph(n, edges) for n, edges in connected_graphs(7)]
    out = []
    for G in graphs:
        J = toric_ideal(G)
        out.append((J, G))
        for y in J.ring.names:
            split = cn_split(J, y)
            if split.square_free_in_y:
                context = gvd._restrict_context(G, split.n_branch.ring.names)
                out += [(split.c_branch, context), (split.n_branch, context)]
    return out


def corpus_ideals_and_branches() -> list:
    """The ideals of ``corpus_nodes``, with no context."""
    return [J for J, _ in corpus_nodes()]


def y_split(y, f: Poly) -> tuple:
    """Write f = y^d * q + r with y absent from q and deg_y(r) < d: the
    oracle of the split's exponent reading (``gvd._variable_order``)."""
    if f.is_zero():
        raise ValueError("y-split of zero polynomial")
    ring = f.ring
    iy = ring.vidx(y)
    d = max(m[iy] for m in f.terms)
    q, r = {}, {}
    for m, c in f.terms.items():
        if m[iy] == d:
            mm = list(m)
            mm[iy] = 0
            q[tuple(mm)] = c
        else:
            r[m] = c
    return d, Poly(ring, q), Poly(ring, r)


def incidence_matrix(G: Graph) -> list:
    """The 0/1 incidence matrix of G: rows indexed by vertices, columns by
    edges.  The oracle of the kernel, the Graver basis and the toric
    dimension."""
    vpos = {v: i for i, v in enumerate(G.vertices)}
    rows = [[0] * len(G.edges) for _ in G.vertices]
    for j, (_, u, v) in enumerate(G.edges):
        rows[vpos[u]][j] = 1
        rows[vpos[v]][j] = 1
    return rows


def seeded_rng(seed: int, *labels: str) -> random.Random:
    """An independent RNG stream derived from (seed, labels) via SHA-256.

    Streams with different labels are statistically independent and stable
    across runs and platforms, which keeps sampled-order experiments
    reproducible.
    """
    h = hashlib.sha256()
    h.update(str(int(seed)).encode())
    for lab in labels:
        h.update(b"\x00")
        h.update(str(lab).encode())
    return random.Random(int.from_bytes(h.digest()[:8], "big"))
