"""Ideals over Q and deterministic Groebner-basis computations.

Everything reduces to Buchberger's algorithm with the normal selection
strategy (smallest lcm first, ties by generator indices) plus the coprime and
chain criteria, followed by minimalization and full inter-reduction.  Reduced
Groebner bases are unique for a given order, which is what makes
``ideal_equal`` and the certificate replay byte-stable.

The engine holds its elements in one of two representations, chosen from
the input by one rule (``_arithmetic``) and kept to the end.  Input that is
all monomials c*x^a or pure differences c*(x^a - x^b) (c a nonzero
rational, constants included) is held without coefficients, as pairs
(initial monomial, tail monomial or None).  Any other input is held as
records of monic polynomials with ``Fraction`` coefficients.  Three
consumers apply the rule: ``buchberger`` to its generators,
``ideal_contains`` to the basis and the polynomials it tests, and
``minimal_generators`` to the candidates.  The first class is closed
under what Buchberger does to it (Eisenbud-Sturmfels, *Binomial ideals*,
Duke Math. J. 84 (1996)), so nothing is lost:

- S-pairs.  Of the monic x^a - x^b and x^c - x^d (a tail may be absent),
  with L = lcm(a, c), the S-polynomial x^(L-a)(x^a - x^b) -
  x^(L-c)(x^c - x^d) is x^(L-c+d) - x^(L-a+b): zero, a monomial or a pure
  difference.
- Reduction steps.  Reducing k*(x^u - x^v), initial term x^u, by x^l - x^t
  with x^l dividing x^u gives k*(x^(u-l+t) - x^v); by a monomial x^l it
  gives -k*x^v.  A monomial k*x^u goes to k*x^(u-l+t) or to 0.

So every polynomial the engine forms has at most two terms, whose
coefficients are k and -k, and made monic it is determined by its monomials
and the order alone.  Reduction visits terms largest first and takes the
first divisor in either representation, so both compute the same terms and
return the same reduced basis, the same memberships and the same minimal
generators.

Inside ``buchberger``, ``ideal_contains`` and ``minimal_generators`` every
monomial is one int, packed by the order's ``algebra.Packing``: a
fixed-width field per row of the order (each degree row, then each
variable), most significant first, with a guard bit on top of each
field.  Int comparison is then the order, and a product or
quotient is ``+`` or ``-``; divisibility, the lcm, supports and the
overflow check are ``Packing`` methods, so this module does not see the
layout.  Two monomials are coprime when their supports do not meet.
Elements are packed when stored and unpacked once, when the result is
built, so callers see exponent tuples only.  A sum that reaches a guard
bit raises ``PackingOverflow``, and ``Packing.widening`` starts the
computation again with fields twice as wide; no value wraps, and nothing
else changes, so the result does not depend on the width.

Intersections use the ``t*I + (1-t)*J`` elimination trick, saturation by a
variable uses the Rabinowitsch trick, and Krull dimension comes from a
minimum vertex cover of the initial-ideal supports.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Union

from .algebra import (
    Order, Packing, Poly, Ring,
    elim_order, initial_term, mono_divides, storage_order,
)

__all__ = [
    "Ideal", "s_polynomial", "buchberger", "reduced_basis_of", "initial_ideal",
    "ideal_equal", "ideal_contains", "intersect",
    "saturate_variable", "eliminate", "contract",
    "radical_contains", "radical_equal",
    "minimal_generators", "minimal_monomial_generators",
]

ONE = Fraction(1)


class Ideal:
    """An ideal of Q[ring], held as an explicit generator tuple.

    Reduced Groebner bases are cached per order's rows; generators keep
    the order the caller gave them (displays rely on that).
    ``Ideal.reduced`` and ``contract`` fill the storage order's entry with
    a basis that a theorem fixes, so no Buchberger run makes it.
    """

    __slots__ = ("ring", "gens", "_rgb")

    def __init__(self, ring: Ring, gens: Iterable[Poly]):
        kept = []
        for g in gens:
            if g.ring.names != ring.names:
                raise ValueError("generator ring mismatch")
            if not g.is_zero():
                kept.append(g)
        self.ring = ring
        self.gens = tuple(kept)
        self._rgb = {}

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(ring: Ring) -> "Ideal":
        return Ideal(ring, [])

    @staticmethod
    def unit(ring: Ring) -> "Ideal":
        return Ideal(ring, [ring.one()])

    @staticmethod
    def reduced(ring: Ring, basis: Iterable[Poly]) -> "Ideal":
        """The ideal generated by ``basis``, which the caller has proved to
        be its reduced Groebner basis under the storage order, as
        ``buchberger`` returns it (monic, terms in descending order, sorted
        by ascending initial term); it is cached as that basis."""
        I = Ideal(ring, basis)
        I._rgb[storage_order(ring).rows] = I.gens
        return I

    def with_extra(self, extra: Iterable[Poly]) -> "Ideal":
        return Ideal(self.ring, list(self.gens) + list(extra))

    def rename(self, new_ring: Ring, name_map=None) -> "Ideal":
        return Ideal(new_ring, [g.rename(new_ring, name_map) for g in self.gens])

    # -- Groebner layer -------------------------------------------------------

    def groebner(self, order: Order = None) -> tuple:
        """The reduced Groebner basis under ``order`` (storage order by default)."""
        if order is None:
            order = storage_order(self.ring)
        elif order.ring.names != self.ring.names:
            raise ValueError("order over %r for an ideal over %r"
                             % (order.ring, self.ring))
        got = self._rgb.get(order.rows)
        if got is None:
            got = self._rgb[order.rows] = tuple(buchberger(order, self.gens))
        return got

    def is_zero_ideal(self) -> bool:
        return not self.groebner()

    def is_unit_ideal(self) -> bool:
        rgb = self.groebner()
        return len(rgb) == 1 and rgb[0].is_constant()

    def __repr__(self):
        return "Ideal<%d gens over %r>" % (len(self.gens), self.ring)


# ---------------------------------------------------------------------------
# Core reduction machinery.

def _monic(terms: dict, c: Fraction) -> dict:
    """The terms divided by c (the same dict when c is 1)."""
    if c == 1:
        return terms
    inv = ONE / c
    return {m: v * inv for m, v in terms.items()}


def _reducer(terms: dict, m: tuple, c: Fraction) -> tuple:
    """A divisor as reduction uses it: its initial monomial m, and its other
    terms divided by the initial coefficient c."""
    return m, tuple((gm, gc) for gm, gc in _monic(terms, c).items() if gm != m)


class _Fractions:
    """Elements with coefficients: the record (initial monomial, tail) of a
    monic polynomial, the tail a tuple of (monomial, Fraction) in descending
    order.  A polynomial in the making is a term dict.  Monomials are
    packed by ``pk``."""

    __slots__ = ("pk",)

    def __init__(self, pk: Packing):
        self.pk = pk

    def store(self, g: Poly) -> tuple:
        # sorted, so that generators equal up to a scalar give equal records
        pack = self.pk.pack
        terms = {pack(m): c for m, c in g.terms.items()}
        m = max(terms)
        m, tail = _reducer(terms, m, terms[m])
        return m, tuple(sorted(tail, reverse=True))

    def shifted_difference(self, tf, qf: int, tg, qg: int) -> dict:
        out = {m + qf: c for m, c in tf}
        for m, c in tg:
            mm = m + qg
            v = out.get(mm, 0) - c
            if v:
                out[mm] = v
            else:
                del out[mm]
        return out

    def reduce(self, terms: dict, reducers):
        """The full normal form of a term dict against the records
        ``reducers`` (first divisor wins), as a monic record, or None when
        it is 0.  Terms leave ``work`` largest first, so they enter the
        result in descending order, and a sum that overflowed is caught as
        it leaves."""
        checked, divisor = self.pk.checked, self.pk.divisor
        work = dict(terms)
        rem: dict = {}
        while work:
            m = max(work)
            c = work.pop(m)
            r = divisor(checked(m), reducers)
            if r is None:
                rem[m] = c
                continue
            lt, tail = r
            q = m - lt
            for gm, gc in tail:
                mm = gm + q
                v = work.get(mm, 0) - c * gc
                if v:
                    work[mm] = v
                elif mm in work:
                    del work[mm]
        if not rem:
            return None
        m = next(iter(rem))
        return _reducer(rem, m, rem[m])

    @staticmethod
    def terms(e: tuple) -> dict:
        m, tail = e
        return {m: ONE, **dict(tail)}

    def poly(self, ring: Ring, e: tuple) -> Poly:
        unpack = self.pk.unpack
        return Poly(ring, {unpack(m): c for m, c in self.terms(e).items()})


class _Binomials:
    """Elements without coefficients: the pair (initial monomial, tail
    monomial or None) stands for the monic x^a - x^b, or for x^a.  A
    polynomial in the making is a pair of monomials, either possibly None,
    standing for +-(x^u - x^v), for +-x^u or x^v, or for 0.  Monomials are
    packed by ``pk``."""

    __slots__ = ("pk",)

    def __init__(self, pk: Packing):
        self.pk = pk

    def store(self, g: Poly) -> tuple:
        ms = sorted(map(self.pk.pack, g.terms), reverse=True)
        return ms[0], (ms[1] if len(ms) == 2 else None)

    def shifted_difference(self, tf, qf: int, tg, qg: int) -> tuple:
        checked = self.pk.checked
        return (None if tf is None else checked(tf + qf),
                None if tg is None else checked(tg + qg))

    def reduce(self, s: tuple, reducers):
        # the larger term first: replaced by way of the first reducer whose
        # initial monomial divides it, then re-oriented, until none divides it
        checked, divisor = self.pk.checked, self.pk.divisor
        u, v = s
        while True:
            if u is None:
                if v is None:
                    return None
                u, v = v, None
            elif v is not None:
                if u == v:
                    return None
                if u < v:
                    u, v = v, u
            r = divisor(u, reducers)
            if r is None:
                break
            lt, t = r
            u = None if t is None else checked(u + t - lt)
        # then the tail, which stays below u
        while v is not None:
            r = divisor(v, reducers)
            if r is None:
                break
            lt, t = r
            v = None if t is None else checked(v + t - lt)
        return u, v

    @staticmethod
    def terms(e: tuple) -> tuple:
        return e

    def poly(self, ring: Ring, e: tuple) -> Poly:
        m, t = e
        unpack = self.pk.unpack
        if t is None:
            return Poly(ring, {unpack(m): ONE})
        return Poly(ring, {unpack(m): ONE, unpack(t): -ONE})


def _is_binomial(g: Poly) -> bool:
    """One term, or two whose coefficients sum to zero (compared as reduced
    fractions, which is cheaper than adding them)."""
    if len(g.terms) == 1:
        return True
    if len(g.terms) != 2:
        return False
    a, b = g.terms.values()
    return a.numerator == -b.numerator and a.denominator == b.denominator


def _arithmetic(polys: Iterable[Poly]) -> type:
    """The representation for computing with these nonzero polynomials:
    ``_Binomials`` when each is a monomial or a pure difference (a class
    closed under reduction and S-pairs; see the module docstring),
    ``_Fractions`` otherwise."""
    return _Binomials if all(map(_is_binomial, polys)) else _Fractions


def _packed(order: Order, polys: Iterable[Poly], run):
    """``run(ar)``, ``ar`` the representation that ``_arithmetic`` selects
    for ``polys`` at a packing of ``order``: the narrowest that holds every
    product ``run`` forms (``Packing.widening``)."""
    arith = _arithmetic(polys)
    return order.packing.widening(lambda pk: run(arith(pk)))


def s_polynomial(arith, f: tuple, g: tuple):
    """The S-polynomial (lcm/in f)*f - (lcm/in g)*g of two elements stored
    by ``buchberger`` in the representation ``arith``.

    Both are monic and their initial monomials are stored, so the initial
    terms cancel unread and only the tails are shifted and subtracted.
    """
    (mf, tf), (mg, tg) = f, g
    lcm = arith.pk.lcm(mf, mg)
    return arith.shifted_difference(tf, lcm - mf, tg, lcm - mg)


def buchberger(order: Order, gens: Iterable[Poly]) -> list:
    """The reduced Groebner basis of the given generators under the order.

    Deterministic: normal selection strategy keyed by (order key of pair lcm,
    i, j), with the coprime and chain criteria; the result is minimalized,
    fully inter-reduced, monic, and sorted by ascending initial term.

    The representation of the elements is the one ``_arithmetic`` selects
    from the generators: ``_Binomials`` when every one is a monomial or a
    pure difference, ``_Fractions`` otherwise.  Only storing an
    element, forming an S-pair and reducing depend on it; the pair heap, the
    criteria, minimalization and inter-reduction are shared.  Either way
    each element is monic, and its initial monomial and that monomial's
    support are computed once, when it joins the basis, and the basis is its
    own reducer list.  A remainder's initial monomial is the first it
    received, since reduction visits terms in descending order.

    Monomials are packed ints (module docstring) from ``store`` until the
    output is built: the order key of a pair's lcm is the lcm itself, and
    initial terms are coprime exactly when their supports do not meet.  A
    product that reaches a guard bit restarts the computation with the
    packing twice as wide.  The chain criterion skips (i, j) when some k,
    already paired with both, has an initial term dividing their lcm; each
    element keeps the set of its partners taken off the heap, so only the
    common partners of i and j are tested for divisibility.

    Two inputs skip the pair heap, since the reduced basis is unique.  A
    single generator is its own reduced basis, made monic, and needs no
    packing.  Monomials alone have S-polynomials that all vanish, so their
    reduced basis is their minimal elements, in ascending order.
    """
    gens = [g for g in gens if not g.is_zero()]
    if len(gens) <= 1:
        return [_made_monic(order, g) for g in gens]
    return _packed(order, gens, lambda ar: _reduced_basis(ar, order.ring, gens))


def _reduced_basis(ar, ring: Ring, gens: list) -> list:
    """``buchberger`` at one packing width ``ar.pk``."""
    pk = ar.pk
    lcm_of, support, divides = pk.lcm, pk.support, pk.divides
    basis, lts, sups = [], [], []
    taken = []  # taken[i]: each j of a pair (i, j) off the heap

    def add(e: tuple):
        basis.append(e)
        lts.append(e[0])
        sups.append(support(e[0]))
        taken.append(set())

    seen = set()
    for g in gens:
        e = ar.store(g)
        if e not in seen:
            seen.add(e)
            add(e)
    if all(t is None for _, t in basis):  # monomials, held as _Binomials
        return [ar.poly(ring, basis[i]) for i in _minimal(lts, pk)]

    heap = [(lcm_of(lts[i], lts[j]), i, j)
            for i, j in combinations(range(len(basis)), 2)]
    heapq.heapify(heap)

    while heap:
        lcm, i, j = heapq.heappop(heap)
        taken[i].add(j)
        taken[j].add(i)
        if not sups[i] & sups[j]:
            continue  # coprime initial terms
        if any(divides(lts[k], lcm) for k in taken[i] & taken[j]):
            continue  # chain criterion; no k is in its own set, so k != i, j
        e = ar.reduce(s_polynomial(ar, basis[i], basis[j]), basis)
        if e is None:
            continue
        add(e)
        n = len(basis) - 1
        for k in range(n):
            heapq.heappush(heap, (lcm_of(lts[k], e[0]), k, n))

    return _interreduced(ar, ring, basis, lts)


def reduced_basis_of(order: Order, basis: Iterable[Poly]) -> list:
    """The reduced Groebner basis under ``order`` of ``basis``, which must
    already be a Groebner basis under it (a universal basis is one under
    every order): minimalized and inter-reduced as ``buchberger`` ends,
    with no S-pair.  The reduced basis is unique, so this is the basis
    ``buchberger`` returns, term for term."""
    gens = [g for g in basis if not g.is_zero()]

    def run(ar) -> list:
        stored = [ar.store(g) for g in gens]
        return _interreduced(ar, order.ring, stored, [e[0] for e in stored])

    return _packed(order, gens, run)


def _interreduced(ar, ring: Ring, basis: list, lts: list) -> list:
    """The reduced basis from a Groebner basis stored by ``ar``, whose
    initial monomials are ``lts``: its minimal elements, in ascending
    order, with their tails inter-reduced.  No initial term of a minimal
    basis divides another, so each keeps its monic initial term."""
    minimal = [basis[i] for i in _minimal(lts, ar.pk)]
    return [ar.poly(ring, ar.reduce(ar.terms(e), minimal[:i] + minimal[i + 1:]))
            for i, e in enumerate(minimal)]


def _made_monic(order: Order, g: Poly) -> Poly:
    """g divided by its initial coefficient, with its terms in descending
    order, as the pair loop returns them."""
    ms = sorted(g.terms, key=order.key, reverse=True)
    terms = _monic(g.terms, g.terms[ms[0]])
    return Poly(order.ring, {m: terms[m] for m in ms})


def _minimal(lts: list, pk: Packing) -> list:
    """Indices of a minimal subset of the initial monomials ``lts``, packed
    by ``pk``, ascending: each is kept unless a kept one divides it, and a
    divisor never comes after its multiple."""
    kept = []
    for i in sorted(range(len(lts)), key=lts.__getitem__):
        if not any(pk.divides(lts[k], lts[i]) for k in kept):
            kept.append(i)
    return kept


def initial_ideal(order: Order, I: Ideal) -> Ideal:
    """The monomial ideal of initial terms (from the reduced basis)."""
    gens = []
    for g in I.groebner(order):
        m, _ = initial_term(order, g)
        gens.append(Poly(I.ring, {m: ONE}))
    return Ideal(I.ring, gens)


# ---------------------------------------------------------------------------
# Membership and equality.

def ideal_contains(I: Ideal, *polys: Poly) -> bool:
    """True iff every one of ``polys`` lies in I: each reduces to 0 modulo
    I's reduced basis, which is stored once for all of them, in the
    representation that the basis and ``polys`` together select."""
    order = storage_order(I.ring)
    basis = I.groebner(order)
    polys = [f for f in polys if not f.is_zero()]

    def run(ar) -> bool:
        stored = list(map(ar.store, basis))
        return all(ar.reduce(ar.terms(ar.store(f)), stored) is None
                   for f in polys)
    return _packed(order, basis + tuple(polys), run)


def minimal_generators(I: Ideal) -> list:
    """A generating subset of I.gens with no redundant member.

    The candidates are taken by ascending degree (ties by descending
    canonical form), and one is kept when the kept ones before it do not
    generate it; for homogeneous input this is a minimal generating set
    (graded Nakayama), and in general it is merely irredundant.

    Homogeneous input takes one Groebner basis per degree d: the reduced
    basis of the kept candidates of lower degree.  Before a candidate f of
    degree d, the kept ones generate in degree d the degree-d part of the
    ideal of that basis plus the span of the kept of degree d.  The normal form
    modulo the basis is Q-linear and, in degree d, zero exactly on the
    first summand; so f lies in the sum exactly when its normal form lies
    in the span of the normal forms of the kept of degree d.  Those are
    held in echelon form, as reducers: a monomial of degree d divides one
    of degree d only when they are equal, so reducing by them is Gaussian
    elimination, and f reduced by the basis and the echelon together is
    zero exactly when f lies in the sum.  The kept list is the one the
    membership test keeps, which inhomogeneous input still uses.
    """
    cands = sorted(I.gens, key=lambda f: f.canonical(), reverse=True)
    cands.sort(key=lambda f: f.total_degree())
    if not all(len(set(map(sum, f.terms))) == 1 for f in cands):
        return _greedy_generators(I.ring, cands)
    order = storage_order(I.ring)
    return _packed(order, cands, lambda ar: _graded_generators(ar, order, cands))


def _graded_generators(ar, order: Order, cands: list) -> list:
    """``minimal_generators`` of homogeneous candidates, in ascending
    degree, in the representation ``ar`` at the packing ``ar.pk``."""
    kept, lower, echelon, degree = [], [], [], None
    for f in cands:
        if f.total_degree() != degree:
            degree = f.total_degree()
            if echelon:
                lower = list(map(ar.store, Ideal(order.ring, kept).groebner(order)))
            echelon = []
        e = ar.reduce(ar.terms(ar.store(f)), lower + echelon)
        if e is not None:
            echelon.append(e)
            kept.append(f)
    return kept


def _greedy_generators(ring: Ring, cands: list) -> list:
    """Keep each candidate that the kept ones before it do not generate."""
    kept, span = [], None
    for f in cands:
        if span is not None and ideal_contains(span, f):
            continue
        kept.append(f)
        span = Ideal(ring, kept)  # rejected candidates share its basis
    return kept


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    """Exact equality via the (unique) reduced bases under the storage order."""
    if I.ring.names != J.ring.names:
        raise ValueError("ideal_equal across different rings")
    a = [g.canonical() for g in I.groebner()]
    b = [g.canonical() for g in J.groebner()]
    return a == b


# ---------------------------------------------------------------------------
# Elimination-based operations.

def _fresh_name(ring: Ring, base: str) -> str:
    if base not in ring.index:
        return base
    k = 1
    while "%s_%d" % (base, k) in ring.index:
        k += 1
    return "%s_%d" % (base, k)


def eliminate(I: Ideal, vars_out: Iterable[Union[int, str]]) -> Ideal:
    """Intersect with the subring omitting ``vars_out``; result lives there."""
    names_out = {I.ring.names[I.ring.vidx(v)] for v in vars_out}
    if not names_out:
        return Ideal(I.ring, I.gens)
    small = Ring([n for n in I.ring.names if n not in names_out])
    rgb = I.groebner(elim_order(I.ring, sorted(names_out, key=I.ring.index.get)))
    out_idx = [I.ring.index[n] for n in names_out]
    kept = [g for g in rgb if all(m[i] == 0 for m in g.terms for i in out_idx)]
    return Ideal(small, [g.rename(small) for g in kept])


def contract(I: Ideal, y: Union[int, str]) -> Ideal:
    """The contraction I ∩ Q[ring without y], in the smaller ring, of an
    ideal generated by y-free polynomials: the extension Q[x] → Q[x][y] is
    free, so such an ideal contracts to its own generators, with y's
    exponent dropped from every monomial.  A generator involving y raises
    ``KeyError``; ``eliminate`` handles it.

    When I's reduced basis under the storage order is cached, the
    contraction's is that basis with y's exponent dropped, and it is cached
    with no Buchberger run.  Let G' be the reduced basis of I ∩ Q[x] under
    the restriction of the order.  It is a Groebner basis of I: every f in
    I is a sum of y^k·f_k with each f_k in I ∩ Q[x] (the extension is
    free), and their monomials are distinct, so in(f) = y^k·in(f_k) for
    some k, which some in(g), g in G', divides.  It is reduced, so by
    uniqueness I's cached basis is G', which is y-free.  Graded lex on the
    smaller ring is the restriction of graded lex, so dropping y's
    coordinate keeps each element monic with its terms in descending order
    and keeps the basis sorted by initial term, as ``buchberger`` returns
    it."""
    ring = I.ring
    i = ring.vidx(y)
    small = ring.without(i)

    def dropped(g: Poly) -> Poly:
        if any(m[i] for m in g.terms):
            raise KeyError("variable %r not in target ring" % ring.names[i])
        return Poly(small, {m[:i] + m[i + 1:]: c for m, c in g.terms.items()})

    out = Ideal(small, map(dropped, I.gens))
    basis = I._rgb.get(storage_order(ring).rows)
    if basis is not None:
        # generators that are the basis (``Ideal.reduced``) are dropped once
        out._rgb[storage_order(small).rows] = (
            out.gens if basis is I.gens else tuple(map(dropped, basis)))
    return out


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J via t*I + (1-t)*J and elimination of the fresh t."""
    if I.ring.names != J.ring.names:
        raise ValueError("intersect across different rings")
    if I.is_zero_ideal() or J.is_zero_ideal():
        return Ideal.zero(I.ring)
    if I.is_unit_ideal():
        return Ideal(J.ring, J.gens)
    if J.is_unit_ideal():
        return Ideal(I.ring, I.gens)
    t = _fresh_name(I.ring, "t")
    big = I.ring.with_vars([t])
    tp = big.var(t)
    gens = [tp * g.rename(big) for g in I.gens]
    gens += [(big.one() - tp) * g.rename(big) for g in J.gens]
    mixed = Ideal(big, gens)
    inter = eliminate(mixed, [t])
    return inter.rename(I.ring)


def saturate_variable(I: Ideal, y: Union[int, str]) -> Ideal:
    """The saturation I : y^infinity, in the same ring."""
    yname = I.ring.names[I.ring.vidx(y)]
    w = _fresh_name(I.ring, "w")
    big = I.ring.with_vars([w])
    gens = [g.rename(big) for g in I.gens]
    gens.append(big.var(w) * big.var(yname) - big.one())
    sat = eliminate(Ideal(big, gens), [w])
    return sat.rename(I.ring)


def radical_contains(I: Ideal, f: Poly) -> bool:
    """True iff f lies in the radical of I (Rabinowitsch trick)."""
    if f.is_zero():
        return True
    w = _fresh_name(I.ring, "w")
    big = I.ring.with_vars([w])
    gens = [g.rename(big) for g in I.gens]
    gens.append(big.var(w) * f.rename(big) - big.one())
    return Ideal(big, gens).is_unit_ideal()


def radical_equal(I: Ideal, J: Ideal) -> bool:
    """True iff the two ideals have the same radical."""
    if I.ring.names != J.ring.names:
        raise ValueError("radical_equal across different rings")
    return (all(radical_contains(J, g) for g in I.gens)
            and all(radical_contains(I, g) for g in J.gens))


# ---------------------------------------------------------------------------
# Structure of (initial) monomial ideals.

def minimal_monomial_generators(monos: Iterable[tuple]) -> list:
    """Minimal generating monomials (divisibility-reduced), sorted by grlex."""
    ms = sorted(set(monos), key=lambda m: (sum(m), m))
    out = []
    for m in ms:
        if not any(mono_divides(k, m) for k in out):
            out.append(m)
    return out
