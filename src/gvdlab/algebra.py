"""Exact multivariate polynomials over Q and monomial orders.

Variables live in an immutable :class:`Ring` (an ordered tuple of names).
Monomials are dense exponent tuples, polynomials are sparse maps from exponent
tuple to ``Fraction``.  All values are immutable after construction.

A monomial order is its rows, most significant first: degree rows, each a
tuple of ring positions whose exponents it sums, then every position
exactly once.  Monomials compare by the rows' values in turn.  The engine
uses four orders: the storage order (graded lex in ring order), lex on a
permutation (``lex_order``), lex with y first (``y_order``, under which
every split is made) and an elimination order (``elim_order``).

Groebner computations call an order's sort key for every term they touch,
so the common cases stay in C.  Without degree rows the key picks the
variables out of the monomial with one ``operator.itemgetter``; when they
are the ring's own in ring order there is nothing to pick, and the key is
the monomial itself (``tuple``).  The storage order's key is
``(sum(m), m)``.  The monomial helpers (``mono_mul`` and the rest) likewise
map ``operator`` functions over the two exponent tuples.  A key depends
only on the arity and the rows, so ``compile_order`` compiles each once,
in a capped module cache that rings with other names share, and hands
every caller a fresh ``Order`` over its own ring.

The Groebner kernels hold monomials as single ints instead (``Packing``),
with one field per row of the same rows, most significant first.  An
order's packing is built on first use and cached with its key.
Each field is ``width`` bits wide with a guard bit on top, so it holds
values below ``2**(width - 1)``.  Every row is linear in the exponents and
no field carries into the next, so:

- int comparison is the order, since the key is the tuple of the fields;
- a product is ``a + b`` and a quotient ``a - b``;
- a divides b exactly when ``((b | G) - a) & G == G``, G the guard bits:
  a field of b with its guard set, less that of a, keeps the guard exactly
  when b's field is at least a's, and never borrows from the next field;
- an lcm is a fieldwise max, after which each degree row is summed again
  from the variable fields, since a max of sums is not a sum of maxes.

The kernels use these through ``Packing``'s methods and never spell out
the layout.  A field that reaches its guard bit raises
``PackingOverflow``; ``Packing.widening`` then runs the kernel again with
``Packing.wider()``, so a value never wraps silently.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add, itemgetter, le
from typing import Iterable, Mapping, NamedTuple, Union

__all__ = [
    "Ring", "Poly", "Term", "Order", "Packing", "PackingOverflow",
    "compile_order", "storage_order", "lex_order", "y_order", "elim_order",
    "initial_term", "initial_y_form",
    "mono_mul", "mono_divides", "mono_support", "mono_is_squarefree",
    "mono_one",
    "parse_poly", "format_poly",
]

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Monomials: dense exponent tuples.

def mono_one(arity: int) -> tuple:
    return (0,) * arity


def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


def mono_divides(a: tuple, b: tuple) -> bool:
    """True iff monomial a divides monomial b."""
    return all(map(le, a, b))


def mono_support(a: tuple) -> tuple:
    """Indices of variables appearing in the monomial."""
    return tuple(i for i, e in enumerate(a) if e)


def mono_is_squarefree(a: tuple) -> bool:
    return all(e <= 1 for e in a)


def _grlex_key(m: tuple):
    return (sum(m), m)


# ---------------------------------------------------------------------------
# Rings.

class Ring:
    """An ordered list of variable names; the ambient polynomial ring over Q."""

    __slots__ = ("names", "index", "_storage")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names: %r" % (names,))
        for n in names:
            if not n or not isinstance(n, str):
                raise ValueError("bad variable name: %r" % (n,))
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}
        self._storage = None  # the compiled storage order, on first use

    @property
    def arity(self) -> int:
        return len(self.names)

    def vidx(self, v: Union[int, str]) -> int:
        """Resolve a variable given by name or index."""
        if isinstance(v, str):
            try:
                return self.index[v]
            except KeyError:
                raise KeyError("unknown variable %r in ring %r" % (v, self.names))
        if not 0 <= v < len(self.names):
            raise IndexError("variable index %d out of range" % v)
        return v

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.constant(ONE)

    def constant(self, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return Poly(self, {mono_one(self.arity): c})

    def var(self, v: Union[int, str]) -> "Poly":
        i = self.vidx(v)
        m = [0] * self.arity
        m[i] = 1
        return Poly(self, {tuple(m): ONE})

    def monomial(self, exps: Mapping[str, int], coeff=ONE) -> "Poly":
        """Build a single-term polynomial from a name -> exponent map."""
        m = [0] * self.arity
        for name, e in exps.items():
            if e < 0:
                raise ValueError("negative exponent for %s" % name)
            m[self.vidx(name)] = e
        c = Fraction(coeff)
        return Poly(self, {tuple(m): c} if c else {})

    def without(self, v: Union[int, str]) -> "Ring":
        i = self.vidx(v)
        return Ring(self.names[:i] + self.names[i + 1:])

    def with_vars(self, new_names: Iterable[str]) -> "Ring":
        """This ring with ``new_names`` put in front of its variables."""
        return Ring(tuple(new_names) + self.names)

    def __eq__(self, other):
        return isinstance(other, Ring) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return "Ring(%s)" % (",".join(self.names))


class Term(NamedTuple):
    mono: tuple
    coeff: Fraction


# ---------------------------------------------------------------------------
# Polynomials.

class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: Mapping[tuple, Fraction]):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c}

    @classmethod
    def _adopt(cls, ring: Ring, terms: dict) -> "Poly":
        """The engine's builder: a Poly holding ``terms`` itself, with no
        copy.  Precondition: every coefficient is nonzero, and the caller
        hands over the dict, which no one uses again."""
        f = object.__new__(cls)
        f.ring = ring
        f.terms = terms
        return f

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(m) for m in self.terms)

    def is_monomial(self) -> bool:
        """True iff f has exactly one term, whatever its coefficient."""
        return len(self.terms) == 1

    def is_variable(self) -> bool:
        if len(self.terms) != 1:
            return False
        (m, c), = self.terms.items()
        return c == 1 and sum(m) == 1

    def total_degree(self) -> int:
        if not self.terms:
            raise ValueError("degree of zero polynomial")
        return max(sum(m) for m in self.terms)

    def support(self) -> tuple:
        """Sorted indices of variables appearing in some term."""
        s = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    s.add(i)
        return tuple(sorted(s))

    def sorted_terms(self) -> list:
        """Terms in canonical (graded-lex descending) storage order."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.ring.names != other.ring.names:
            raise ValueError("mixed rings: %r vs %r" % (self.ring, other.ring))

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, ZERO) + c
            if s:
                out[m] = s
            elif m in out:
                del out[m]
        return Poly(self.ring, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + -other

    def __neg__(self) -> "Poly":
        return Poly(self.ring, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return self.ring.zero()
            return Poly(self.ring, {m: c * k for m, k in self.terms.items()})
        self._check(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = out.get(m, ZERO) + c1 * c2
                if s:
                    out[m] = s
                elif m in out:
                    del out[m]
        return Poly(self.ring, out)

    __rmul__ = __mul__

    # -- structure ----------------------------------------------------------

    def canonical(self) -> tuple:
        return tuple((m, c) for m, c in self.sorted_terms())

    def rename(self, new_ring: Ring, name_map: Mapping[str, str] = None) -> "Poly":
        """Re-express in ``new_ring``; variables map by (renamed) name.

        Every variable actually appearing must exist in the target ring.
        """
        names = self.ring.names
        if name_map:
            names = tuple(name_map.get(n, n) for n in names)
        pos = []
        for i, n in enumerate(names):
            pos.append(new_ring.index.get(n, -1))
        out = {}
        for m, c in self.terms.items():
            mm = [0] * new_ring.arity
            for i, e in enumerate(m):
                if not e:
                    continue
                j = pos[i]
                if j < 0:
                    raise KeyError("variable %r not in target ring" % (names[i],))
                mm[j] = e
            out[tuple(mm)] = c
        return Poly(new_ring, out)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ring.names == other.ring.names
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring.names, self.canonical()))

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return "Poly(%s)" % format_poly(self)


# ---------------------------------------------------------------------------
# Monomial orders.

class Order:
    """A compiled monomial order over ``ring``: its ``rows`` (see
    ``compile_order``) and their sort key, taken from ``shared``, the cache
    entry of the rows, which also holds the packing once it is built."""

    __slots__ = ("ring", "rows", "key", "_shared")

    def __init__(self, ring: Ring, shared: "_Compiled"):
        self.ring = ring
        self.rows = shared.rows
        self.key = shared.key
        self._shared = shared

    @property
    def packing(self) -> "Packing":
        """The packed layout of this order, at the narrowest width."""
        shared = self._shared
        if shared.packing is None:
            shared.packing = Packing(self.ring.arity, self.rows)
        return shared.packing

    def __repr__(self):
        return "Order(%r, %r)" % (self.ring, self.rows)


class _Compiled:
    """What ``compile_order`` caches per arity and rows: the key, and the
    packing once an Order asks for it."""

    __slots__ = ("rows", "key", "packing")

    def __init__(self, arity: int, rows: tuple):
        self.rows = rows
        self.key = _row_key(arity, rows)
        self.packing = None


class PackingOverflow(ArithmeticError):
    """A field of a packed monomial reached its guard bit."""


class Packing:
    """Monomials of ``arity`` variables as ints, one field per row of
    ``rows`` (most significant first): a variable index, or a tuple of
    indices whose exponents the field sums (a degree row).  Every variable
    needs a row of its own.  The module docstring gives the layout and the
    rules.
    """

    __slots__ = ("arity", "rows", "width", "guard", "values", "var_guard",
                 "_var_pick", "_sums", "_degrees", "_unpick", "_shifts", "_low", "_top",
                 "_wider")

    def __init__(self, arity: int, rows, width: int = 8):
        rows = tuple(rows)
        self.arity, self.rows, self.width = arity, rows, width
        n = len(rows)
        shift = [(n - 1 - k) * width for k in range(n)]
        self._low = sum(1 << s for s in shift)
        self.guard = self._low << (width - 1)
        self.values = self.guard - self._low  # the value bits of every field
        self._top = shift[0] if n else 0
        var_row = {r: k for k, r in enumerate(rows) if isinstance(r, int)}
        if sorted(var_row) != list(range(arity)):
            raise ValueError("every variable needs a row of its own")
        field = (1 << width) - 1
        value = field >> 1
        self.var_guard = sum((value + 1) << shift[var_row[i]] for i in range(arity))
        # the variables in row order; each degree row as (its position in
        # the list of fields, a picker of its variables) for packing, and
        # as (its shift, the value bits of its variables, a mask clearing
        # its field) for the lcm
        self._var_pick = _tuple_picker([r for r in rows if isinstance(r, int)], arity)
        degree_rows = [(k, r) for k, r in enumerate(rows) if not isinstance(r, int)]
        self._sums = tuple((k, _tuple_picker(r, arity)) for k, r in degree_rows)
        self._degrees = tuple(
            (shift[k], sum(value << shift[var_row[i]] for i in r), ~(field << shift[k]))
            for k, r in degree_rows)
        self._shifts = tuple(shift[var_row[i]] for i in range(arity))
        self._unpick = _tuple_picker([var_row[i] for i in range(arity)], n)
        self._wider = None

    def pack(self, m: tuple) -> int:
        # At the first width, 8, ``bytes`` and ``int.from_bytes`` do the
        # packing (and ``to_bytes`` the unpacking) in C, three to five
        # times faster than the shift loops that every width can use.
        vals = self._var_pick(m)
        if self._sums:
            vals = list(vals)
            for k, pick in self._sums:
                vals.insert(k, sum(pick(m)))
        w = self.width
        if w == 8:
            try:
                p = int.from_bytes(bytes(vals), "big")
            except ValueError:  # a value of 256 or more
                raise PackingOverflow(max(vals)) from None
            if p & self.guard:
                raise PackingOverflow(max(vals))
            return p
        if max(vals, default=0) >> (w - 1):
            raise PackingOverflow(max(vals))
        p = 0
        for v in vals:
            p = p << w | v
        return p

    def unpack(self, p: int) -> tuple:
        if self.width == 8:
            return self._unpick(p.to_bytes(len(self.rows), "big"))
        value = (1 << (self.width - 1)) - 1
        return tuple(p >> s & value for s in self._shifts)

    def checked(self, a: int) -> int:
        """a, a sum or difference of packed monomials, unless one of its
        fields reached the guard bit; then ``PackingOverflow``."""
        if a & self.guard:
            raise PackingOverflow(a)
        return a

    def divides(self, a: int, b: int) -> bool:
        """True iff the monomial a divides b."""
        G = self.guard
        return ((b | G) - a) & G == G

    def divisor(self, m: int, records):
        """The first of ``records`` whose first entry, a monomial, divides
        m, or None.  One scan for one call: the reductions ask this once
        per step."""
        G = self.guard
        mG = m | G
        for r in records:
            if (mG - r[0]) & G == G:
                return r
        return None

    def support(self, a: int) -> int:
        """The guard bits of the variables that occur in a: (a + values)
        sets the guard of a field exactly when the field is nonzero."""
        return (a + self.values) & self.var_guard

    def lcm(self, a: int, b: int) -> int:
        ge = self._at_least(a, b)
        return self._resummed(a & ge | b & ~ge)

    def _at_least(self, a: int, b: int) -> int:
        """The value bits of the fields where a is at least b."""
        G = self.guard
        ge = ((a | G) - b) & G  # the guards of those fields
        return ge - (ge >> (self.width - 1))

    def _resummed(self, c: int) -> int:
        """c, a fieldwise max or min of two packed monomials, with each
        degree row summed again from the variable fields."""
        field = (1 << self.width) - 1
        for s, mask, clear in self._degrees:
            # (c & mask) * low gathers the sum of the row's variable fields
            # in the top field; every partial sum is at most the row's
            # degree of the one monomial plus that of the other, below
            # 2**width, so no field carries
            c = c & clear | ((c & mask) * self._low >> self._top & field) << s
        if c & self.guard:
            raise PackingOverflow("degree row")
        return c

    def wider(self) -> "Packing":
        """The same rows at twice the width (built once)."""
        if self._wider is None:
            self._wider = Packing(self.arity, self.rows, 2 * self.width)
        return self._wider

    def widening(self, run):
        """run(packing) from this packing on, started again with the next
        wider one each time it raises ``PackingOverflow``."""
        pk = self
        while True:
            try:
                return run(pk)
            except PackingOverflow:
                pk = pk.wider()


def _tuple_picker(idx, size: int):
    """A function picking the entries ``idx`` of a sequence of length
    ``size`` as a tuple: ``tuple`` when they are all of it, in order."""
    idx = tuple(idx)
    if idx == tuple(range(size)):
        return tuple
    if len(idx) >= 2:
        return itemgetter(*idx)
    # itemgetter returns a bare value for one index and needs at least one
    return lambda m: tuple(m[i] for i in idx)


def _row_key(arity: int, rows: tuple):
    """The sort key of ``rows``: the sum of each degree row, then the
    exponent of each variable, in row order.  It compares as the packed int
    does.  Without degree rows it is the variables' ``itemgetter`` (the
    monomial itself when they come in ring order), and for the storage
    rows it is ``(sum(m), m)``."""
    degrees = [r for r in rows if isinstance(r, tuple)]
    pick = _tuple_picker(rows[len(degrees):], arity)
    if not degrees:
        return pick
    if pick is tuple and degrees == [tuple(range(arity))]:
        return _grlex_key
    sums = [_tuple_picker(r, arity) for r in degrees]
    return lambda m: tuple([sum(s(m)) for s in sums]) + pick(m)


# Compiled orders by (arity, rows), oldest first.  Every ideal the search
# derives builds a new ``Ring``, often with the same names, and rings with
# other names share rows; caching on the ring alone would compile the same
# order again and again.
_ORDER_CACHE: dict = {}
_ORDER_CACHE_SIZE = 1024


def compile_order(ring: Ring, rows) -> Order:
    """The order of ``rows`` over ``ring``, most significant row first:
    degree rows, each a tuple of ring positions whose exponents it sums,
    then every position exactly once.  Monomials compare by the rows'
    values in turn.

    The key function and the packing come from ``_ORDER_CACHE``; the
    Order is new, so its ``ring`` is the caller's.  Past
    ``_ORDER_CACHE_SIZE`` entries the oldest is dropped.
    """
    rows = tuple(rows)
    ck = (ring.arity, rows)
    shared = _ORDER_CACHE.get(ck)
    if shared is None:
        k = sum(isinstance(r, tuple) for r in rows)
        positions = set(range(ring.arity))
        if not (all(isinstance(r, tuple) and set(r) <= positions for r in rows[:k])
                and len(rows) - k == len(positions) and set(rows[k:]) == positions):
            raise ValueError("order rows must be degree rows, then every ring "
                             "position exactly once: %r over %r" % (rows, ring))
        if len(_ORDER_CACHE) >= _ORDER_CACHE_SIZE:
            del _ORDER_CACHE[next(iter(_ORDER_CACHE))]
        shared = _ORDER_CACHE[ck] = _Compiled(*ck)
    return Order(ring, shared)


def storage_order(ring: Ring) -> Order:
    """The fixed canonical order (graded lex on the ring's own variable
    order), compiled once per ring."""
    if ring._storage is None:
        every = tuple(range(ring.arity))
        ring._storage = compile_order(ring, (every,) + every)
    return ring._storage


def lex_order(ring: Ring, names: Iterable[Union[int, str]] = None) -> Order:
    """Lex on ``names``, by name or position and most significant first:
    every ring variable once, the ring's own order by default."""
    if names is None:
        return compile_order(ring, range(ring.arity))
    return compile_order(ring, map(ring.vidx, names))


def y_order(ring: Ring, y: Union[int, str]) -> Order:
    """The engine's y-compatible order: lex with y first and the other
    variables in ring order; y by name or position.  Every split is made
    under it."""
    iy = ring.vidx(y)
    return compile_order(ring, (iy,) + tuple(i for i in range(ring.arity) if i != iy))


def elim_order(ring: Ring, elim_vars: Iterable[str]) -> Order:
    """Degree in ``elim_vars`` first, then graded lex with them first and
    the other variables in ring order: an elimination order for them."""
    ev = tuple(map(ring.vidx, elim_vars))
    rest = tuple(i for i in range(ring.arity) if i not in ev)
    return compile_order(ring, (ev, ev + rest) + ev + rest)


# ---------------------------------------------------------------------------
# Order-dependent views of a polynomial.

def initial_term(order: Order, f: Poly) -> Term:
    """The order-maximal term of f."""
    if f.is_zero():
        raise ValueError("initial term of zero polynomial")
    m = max(f.terms, key=order.key)
    return Term(m, f.terms[m])


def initial_y_form(y: Union[int, str], f: Poly) -> Poly:
    """All terms of maximal y-degree (equals f when y is absent)."""
    if f.is_zero():
        raise ValueError("initial y-form of zero polynomial")
    iy = f.ring.vidx(y)
    d = max(m[iy] for m in f.terms)
    return Poly(f.ring, {m: c for m, c in f.terms.items() if m[iy] == d})


# ---------------------------------------------------------------------------
# Text syntax:  terms like `-3*e1^2*e4`, joined by `+` / `-`.

_TERM_SPLIT = re.compile(r"(?=[+-])")
_FACTOR = re.compile(r"^(?P<name>[A-Za-z_][A-Za-z_0-9]*)(?:\^(?P<exp>\d+))?$")
_NUM = re.compile(r"^\d+(?:/\d+)?$")


def parse_poly(ring: Ring, text: str) -> Poly:
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return ring.zero()
    out = ring.zero()
    for chunk in _TERM_SPLIT.split(s):
        if not chunk:
            continue
        sign = ONE
        if chunk[0] == "+":
            chunk = chunk[1:]
        elif chunk[0] == "-":
            sign = -ONE
            chunk = chunk[1:]
        if not chunk:
            raise ValueError("dangling sign in %r" % text)
        coeff = sign
        exps: dict = {}
        for factor in chunk.split("*"):
            if not factor:
                raise ValueError("empty factor in %r" % text)
            if factor[0].isdigit():
                if not _NUM.match(factor):
                    raise ValueError("bad numeric factor %r in %r" % (factor, text))
                coeff *= Fraction(factor)
                continue
            m = _FACTOR.match(factor)
            if not m:
                raise ValueError("bad factor %r in %r" % (factor, text))
            e = int(m.group("exp") or 1)
            name = m.group("name")
            exps[name] = exps.get(name, 0) + e
        out = out + ring.monomial(exps, coeff)
    return out


def _format_coeff(c: Fraction) -> str:
    return str(c)  # Fraction prints p/q or p


def format_poly(f: Poly) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for m, c in f.sorted_terms():
        factors = []
        for i, e in enumerate(m):
            if e == 1:
                factors.append(f.ring.names[i])
            elif e > 1:
                factors.append("%s^%d" % (f.ring.names[i], e))
        body = "*".join(factors)
        mag = abs(c)
        if mag != 1 or not body:
            body = _format_coeff(mag) + ("*" + body if body else "")
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)
