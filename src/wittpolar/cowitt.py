"""Co-Witt vectors: nonpositively indexed sequences with nilpotent deep tails.

An element stores one tail value c, a finite exception map, and a witness
pair (r, s) certifying that the ideal generated by c and all entries at
indices <= -r has vanishing s-fold iterated polar power.  The elements with
zero tail are the unipotent part CW^u = colim(W_0 -> W_1 -> ...) along V.

A sum or negation splits its settled operands at one index k.  Every Witt
vector is the Witt sum of the V^i[x_i] over its coordinates (Hazewinkel,
Witt vectors. Part 1, 2009), so each operand is the Witt sum of its deep
part (its tail and its entries at indices <= -k, zeros above) and its
shallow part, the Witt vector of length k whose coordinate i holds its
entry at index i - k + 1 (V, the shift by one index, is the transition
map of the colimit).  With every tail zero and (p, D + 1), D the deepest
exception index of any operand, small enough that W_{D+1} is cheap
(`wittuniv.in_envelope`), k = D + 1 and the deep parts are zero;
otherwise k = r, the largest settled witness, so every deep entry lies in
a nilpotent ideal.  The deep parts go through the windows below.  The
shallow parts, with the deep result's own entries above -k when these are
not all zero, are added or negated in W_k(A) by `wittmod.w_add` or
`w_neg` through the algebra's memoized plans.  A Witt sum of a vector that
vanishes above -k and one that vanishes at -k and below is their
concatenation, so the answer is the deep result at indices <= -k followed
by that W_k vector.  Beyond that bound, where a W_n lift grows with n and
log p, deep zero-tail operands take the windows, a few levels deep at any
depth.

On the deep parts, addition is the stabilized windowed Witt sum: the entry
at index -n is the eventual value of the level-m sum component evaluated
on the windows (a_{-n-m}, .., a_{-n}) and (b_{-n-m}, .., b_{-n}) as m
grows.  That component is the top level of the W_{m+1} sum or negation,
and its plan comes from the one builder of Witt plans, `wittmod._plan`,
which lifts it inside a quotient of Z[window variables] by a monomial
ideal; such quotients stay torsion free and carry the v -> v^p lift, so
the lift's exact divisions, which are its congruence check, survive
verbatim, while one cap keeps the polynomials tiny: monomials die at
Witt-block degree >= t_deep, t_deep = T(Nil A) the product-length
threshold (`ppolar`) of the nilradical.  Every entry of a deep part lies
in a nilpotent ideal (the witness), hence in Nil(A), and t_deep is
1 mod (p-1), so any t_deep factors regroup (scheme independence) into one
vanishing product.  Over a nilpotent A, t_deep = T(A) is the product
length L: the cap is that of W_n(A).  On a zero mu it is p, so only the
linear monomials survive.  The cap is read once per operation from the
algebra's memo, and `wittmod._plan`'s memo holds one plan per
(p, m + 1, op, t_deep, top level only): each window only binds its entries
and evaluates it.  All the windows of one operation read one column per
operand (`_windows`): its deep part's entries, from the deepest any
window reads up to index 0, each window a slice of it.

Every operation settles its result (`_settled`), and a sum or negation
its operands too, which it splits at their witnesses: the minimal witness
is searched for on every call, whatever an element stores, and an element
that already stores it is used as it is.  F and V read no witness.  Their
result is valid exactly when the operand is: the deep ideal of V(x) at r
is that of x at r + 1, and an ideal of p-th powers is nilpotent exactly
when the ideal of their roots is (p equal factors regroup into one), so
settling the result checks the operand as well.  The
witness searches ask only for ideal closures and thresholds of subspaces
of the algebra, each answered from the algebra's memos (see `ppolar`):
each entry, as it stands, is looked up in the line memo, and each sum of
lines and each threshold in the ideal memo.  So settling entries that have
come up before is a few dict lookups, and an operation pays for a closure
only the first time its line or subspace comes up.

Each entry is read off one window, at a certified depth m*.  Give x_i and
y_i weight p^i; the top component of the level-L sum or negation is then
isobaric of weight p^L.  V-padding (binding the position-0 variables to 0
turns the level-L polynomial into the level L-1 one) makes the level-L
value differ from the level L-1 value only by the monomials in a position-0
variable (weight 1).  For L >= 1 such a monomial has only factors of
weight below p^L, whose weights sum to p^L, which base-p carries allow only
with at least (p-1)L+1 of them.  Call level L dead when the cap removes
every such monomial:

  (a) L >= 1 and (p-1)L + 1 >= t_deep.

The condition stays true as L grows, so with L0 the least dead level the
window at m* = max(start_m, L0 - 1) has the value of every deeper window.
Nil(A) is a nilpotent ideal (Fontaine, Groupes p-divisibles sur les corps
locaux, Asterisque 47-48, ch. II), so t_deep is finite and (a) always
gives a level.
"""

from __future__ import annotations

from operator import index
from typing import Sequence

from . import wire
from .ppolar import (PPolarAlgebra, PolarIdeal, ideal_generated,
                     nilpotence_index, nilradical, product_length_threshold,
                     vec_is_zero)
from .record import Record
from .wittmod import (WittVector, _frobenius, _plan, eval_polar_poly, w_add,
                      w_neg)
from .wittuniv import in_envelope


class CoWittElement(Record):
    """Eventually-constant sequence indexed by the nonpositive integers.

    Entries equal to the tail are dropped from `exceptions`; equality and
    hashing ignore the witness."""

    __slots__ = ("algebra", "tail", "exceptions", "witness")

    def __init__(self, algebra: PPolarAlgebra, tail: tuple,
                 exceptions: dict | None = None, witness: tuple = (0, 0)):
        tail = tuple(tail)
        if len(tail) != algebra.dim:
            raise ValueError("tail dimension mismatch")
        clean = {}
        for idx, v in (exceptions or {}).items():
            if idx > 0:
                raise ValueError("exception indices must be <= 0")
            v = tuple(v)
            if len(v) != algebra.dim:
                raise ValueError("entry dimension mismatch")
            if v != tail:
                clean[int(idx)] = v
        # plain ints, as `witness_search` gives them: `_settled` keeps an
        # element whose witness equals the searched one
        self._set_fields(algebra, tail, clean, tuple(map(index, witness)))

    def entry(self, idx: int) -> tuple:
        if idx > 0:
            raise IndexError("co-Witt entries live at indices <= 0")
        return self.exceptions.get(idx, self.tail)

    def depth(self) -> int:
        """Deepest exception index, as a nonnegative number."""
        return -min(self.exceptions, default=0)

    def is_zero(self) -> bool:
        return vec_is_zero(self.tail) and not self.exceptions

    def __eq__(self, other):
        return (isinstance(other, CoWittElement)
                and self.algebra == other.algebra
                and self.tail == other.tail
                and self.exceptions == other.exceptions)

    def __hash__(self):
        return hash((self.algebra, self.tail,
                     frozenset(self.exceptions.items())))

    def to_json(self) -> dict:
        F = self.algebra.field
        return {"tail": [list(F.coords(a)) for a in self.tail],
                "exceptions": {str(i): [list(F.coords(a)) for a in v]
                               for i, v in sorted(self.exceptions.items())},
                "witness": list(self.witness)}


def cw_from_json(A: PPolarAlgebra, data: dict) -> CoWittElement:
    wire.check("cowitt", data)
    F = A.field
    exc = {int(i): tuple(map(F.from_coords, v))
           for i, v in data.get("exceptions", {}).items()}
    return CoWittElement(A, tuple(map(F.from_coords, data["tail"])), exc,
                         tuple(data.get("witness", (0, 0))))


# -- validity -------------------------------------------------------------------


def _deep_ideal(x: CoWittElement, r: int) -> PolarIdeal:
    # `ideal_generated` skips the zero generators; at r = 0 every entry is
    # deep
    deep = x.exceptions.values() if not r else (
        v for i, v in x.exceptions.items() if i <= -r)
    return ideal_generated(x.algebra, [x.tail, *deep])


def witness_search(x: CoWittElement):
    """Smallest valid (r, s), or None; validity is monotone in r."""
    for r in range(x.depth() + 2):
        s = nilpotence_index(x.algebra, _deep_ideal(x, r))
        if s is not None:
            return (r, s)
    return None


def _settled(x: CoWittElement) -> CoWittElement:
    """x with the minimal valid witness, or ValueError.  The full search
    runs on every call, whatever x stores; x itself is returned when its
    witness is that one, and otherwise a record sharing its (already
    clean) fields with the new witness, with no `__init__` pass."""
    w = witness_search(x)
    if w is None:
        raise ValueError("not a valid co-Witt element")
    if w == x.witness:
        return x
    y = object.__new__(CoWittElement)
    y._set_fields(x.algebra, x.tail, x.exceptions, w)
    return y


# -- windowed stabilized sums ----------------------------------------------------


def _cap(A: PPolarAlgebra) -> int:
    """t_deep of A, the kill cap of every window over it (module
    docstring)."""
    return product_length_threshold(A, nilradical(A))


def stabilized_entry(elems: Sequence[CoWittElement], n: int, op: str = "sum",
                     start_m: int = 0) -> tuple:
    """The eventual value of the windowed `op` at index -n, read off the
    window at the certified depth (at least `start_m`); at an index above
    the settled -r, where a window would hold shallow entries, the entry of
    the split operation (module docstring).  Each element is settled first:
    one with no valid witness raises `ValueError`."""
    if op not in ("sum", "neg"):
        raise ValueError(f"unknown windowed op {op!r}")
    elems = [_settled(e) for e in elems]
    if n < max(e.witness[0] for e in elems):
        return _stabilized_op(elems, op).entry(-n)
    return _window_entry(elems, n, op, start_m, _cap(elems[0].algebra))


def _certified_depth(p: int, t_deep: int, start_m: int) -> int:
    """Least level m >= start_m whose window value every deeper window
    repeats: one below the least dead level (module docstring)."""
    # -(-(t_deep - 1) // (p - 1)) is the least L with (p-1)L + 1 >= t_deep
    return max(start_m, -(-(t_deep - 1) // (p - 1)) - 1, 0)


def _window_entry(elems, n, op, start_m, t_deep) -> tuple:
    """The top component of `op` on the windows of `elems` at index -n:
    the one-index case of `_windows`."""
    return _windows(elems, 0, range(n, n + 1), op, start_m, t_deep)[0]


def _windows(elems, k, ns, op, start_m, t_deep) -> list:
    """The top component of `op` at each index -n, n in the range ns, on
    the windows (deepest entry first) at the certified depth of the deep
    parts of `elems` below -k, every entry of which lies in Nil(A), by the
    window plan of `wittmod._plan` under cap t_deep.  Each operand's deep
    part, its entries at indices <= -k and zeros above, is read once into
    one column, and every window is a slice of it."""
    A = elems[0].algebra
    m = _certified_depth(A.p, t_deep, start_m)
    top = _plan(A.p, m + 1, op, t_deep, True)
    deepest, zero = ns[-1] + m, A.zero
    # index i sits at position i + deepest of each column
    cols = [[e.exceptions.get(i, e.tail) if i <= -k else zero
             for i in range(-deepest, 1 - ns[0])] for e in elems]
    return [eval_polar_poly(A, top, [v for c in cols
                                     for v in c[ns[-1] - n:deepest - n + 1]])[0]
            for n in ns]


def _stabilized_op(elems: list, op: str) -> CoWittElement:
    """`op` on settled `elems`, split at k (module docstring): the deep
    parts through the windows, then the length-k shallow parts and the deep
    result's own in W_k."""
    A = elems[0].algebra
    n = max(e.depth() for e in elems) + 1
    tail, exceptions = A.zero, {}
    if in_envelope(A.p, n) and all(vec_is_zero(e.tail) for e in elems):
        k = n               # the deep parts are zero
    else:
        k = max(e.witness[0] for e in elems)
        # every window at index -n or deeper holds only tails: that entry
        # is the deep result's tail
        *entries, tail = _windows(elems, k, range(n + 1), op, 0, _cap(A))
        exceptions = {-nn: v for nn, v in enumerate(entries)}
    if k:
        xs = [WittVector(A, tuple(e.entry(i - k + 1) for i in range(k)))
              for e in elems]
        z = w_add(*xs) if op == "sum" else w_neg(*xs)
        own = tuple(exceptions.get(i - k + 1, tail) for i in range(k))
        if not all(map(vec_is_zero, own)):
            z = w_add(z, WittVector(A, own))
        exceptions.update({i - k + 1: v for i, v in enumerate(z.coords)})
    return _settled(CoWittElement(A, tail, exceptions))


def cw_add(x: CoWittElement, y: CoWittElement) -> CoWittElement:
    """Stabilized sum; entries deeper than every exception reuse one
    translation-invariant computation for the new tail."""
    if x.algebra is not y.algebra and x.algebra != y.algebra:
        raise ValueError("operands live over different algebras")
    x = _settled(x)
    y = _settled(y)
    if x.is_zero():
        return y
    if y.is_zero():
        return x
    return _stabilized_op([x, y], "sum")


def cw_neg(x: CoWittElement) -> CoWittElement:
    """Stabilized windowed Witt negation (componentwise minus for odd p)."""
    x = _settled(x)
    if x.is_zero():
        return x
    return _stabilized_op([x], "neg")


def cw_F(x: CoWittElement) -> CoWittElement:
    """Componentwise p-th power in place: the tail and every entry in one
    evaluation of `wittmod`'s Frobenius plan."""
    tail, *vals = _frobenius(x.algebra, (x.tail, *x.exceptions.values()))
    return _settled(CoWittElement(x.algebra, tail,
                                  dict(zip(x.exceptions, vals))))


def cw_V(x: CoWittElement) -> CoWittElement:
    """Shift toward index 0, dropping the old index-0 entry."""
    return _settled(CoWittElement(
        x.algebra, x.tail,
        {i + 1: v for i, v in x.exceptions.items() if i <= -1}))
