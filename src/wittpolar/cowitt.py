"""Co-Witt vectors: nonpositively indexed sequences with nilpotent deep tails.

An element stores one tail value c and a finite exception map.  It is
valid when some pair (r, s) makes the ideal generated by c and all
entries at indices <= -r have vanishing s-fold iterated polar power.
Nil(A) is a nilpotent ideal that holds every nilpotent element (Fontaine,
below), so the ideal generated by a set is nilpotent exactly when the set
lies in Nil(A): an element is valid exactly when its tail lies in Nil(A),
and its least r is one more than the depth of its deepest entry outside
Nil(A), or 0 when there is none (`_least_r`).  The sequence does not
carry its witness: `witness` derives it whenever it is read, r by that
membership and s, the nilpotence index of the deep ideal at r, from one
closure.  The elements with zero tail are the unipotent part
CW^u = colim(W_0 -> W_1 -> ...) along V.

A sum or negation splits its operands at one index r, the largest of their
least r (`_split`).  Every Witt vector is the Witt sum of the V^i[x_i]
over its coordinates (Hazewinkel, Witt vectors. Part 1, 2009), so each
operand is the Witt sum of its deep part (its tail and its entries at
indices <= -r, zeros above), every entry of which lies in Nil(A), and its
shallow part, the Witt vector of length r whose coordinate i holds its
entry at index i - r + 1 (V, the shift by one index, is the transition map
of the colimit).  The deep parts go through the windows below.  The
shallow parts, with the deep result's own entries above -r when these are
not all zero, are added or negated in W_r(A) by `wittmod.w_add` or `w_neg`
through the algebra's memoized plans.  A Witt sum of a vector that
vanishes above -r and one that vanishes at -r and below is their
concatenation, so the answer is the deep result at indices <= -r followed
by that W_r vector.  r <= D + 1, D the depth of the deepest exception, so
W_r is never longer than W_{D+1}; over a nilpotent algebra r = 0, and the
windows, a few levels deep at any depth, do all the work.

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
in Nil(A) (the split), and t_deep is 1 mod (p-1), so any t_deep factors
regroup (scheme independence) into one vanishing product.  Over a
nilpotent A, t_deep = T(A) is the product length L: the cap is that of
W_n(A).  On a zero mu it is p, so only the linear monomials survive.  The
cap is read once per operation from the algebra's memo, and
`wittmod._plan`'s memo holds one window plan per (p, m + 1, op, t_deep,
top level only), which sweeps: an operation builds one column per operand
(`_windows`), its deep part's entries from the deepest any window reads up
to index 0, and one call of the plan returns the top component on every
window of m + 1 consecutive entries of the columns.

Every operation checks its operands: an element whose tail lies outside
Nil(A) raises `ValueError`.  A sum or negation of valid elements is valid
(CW(A) is a group), so its result is not checked again, and it is built
without the constructor's checks on outside data (`_trusted`).  F and V
check their operand alone: their result is valid exactly when the operand
is, as the tail of F(x) is the p-th power of x's and V keeps x's tail.  No
operation closes an ideal.  Each tests all its operands' entries for
membership in Nil(A) at once, through its annihilator
(`PolarIdeal.outside`), and reads t_deep off Nil(A); both are kept on the
algebra's memo after its first operation.  Over a nilpotent algebra,
Nil(A) = A, there is nothing to test: every element is valid with r = 0.
Only `witness` and `to_json`, which prints the witness, close the deep
ideal at r, once per call.

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
                     nilpotence_index, nilradical, product_length_threshold)
from .record import Record
from .wittmod import (WittVector, _frobenius, _plan, eval_polar_poly, w_add,
                      w_neg)


class CoWittElement(Record):
    """Eventually-constant sequence indexed by the nonpositive integers.

    Entries equal to the tail are dropped from `exceptions`.  The witness
    is no field: `witness` derives it on every read, and the
    constructor's `witness` argument is accepted and ignored."""

    __slots__ = ("algebra", "tail", "exceptions")

    def __init__(self, algebra: PPolarAlgebra, tail: tuple,
                 exceptions: dict | None = None, witness=None):
        tail = tuple(tail)
        if len(tail) != algebra.dim:
            raise ValueError("tail dimension mismatch")
        clean = {}
        for idx, v in (exceptions or {}).items():
            # an int or TypeError: int() would round -1.5 onto -1, where
            # it could overwrite the entry given at -1
            idx = index(idx)
            if idx > 0:
                raise ValueError("exception indices must be <= 0")
            v = tuple(v)
            if len(v) != algebra.dim:
                raise ValueError("entry dimension mismatch")
            if v != tail:
                clean[idx] = v
        self._set_fields(algebra, tail, clean)

    @property
    def witness(self):
        """The minimal valid (r, s), or None: `witness_search`."""
        return witness_search(self)

    def entry(self, idx: int) -> tuple:
        if idx > 0:
            raise IndexError("co-Witt entries live at indices <= 0")
        return self.exceptions.get(idx, self.tail)

    def depth(self) -> int:
        """Deepest exception index, as a nonnegative number."""
        return -min(self.exceptions, default=0)

    def is_zero(self) -> bool:
        return not any(self.tail) and not self.exceptions

    def __hash__(self):
        return hash((self.algebra, self.tail,
                     frozenset(self.exceptions.items())))

    def to_json(self) -> dict:
        """The wire form with the witness; `ValueError` when there is
        none."""
        w = witness_search(self)
        if w is None:
            raise ValueError("not a valid co-Witt element")
        F = self.algebra.field
        return {"tail": [list(F.coords(a)) for a in self.tail],
                "exceptions": {str(i): [list(F.coords(a)) for a in v]
                               for i, v in sorted(self.exceptions.items())},
                "witness": list(w)}


def _trusted(A: PPolarAlgebra, tail: tuple, entries: dict) -> CoWittElement:
    """The element with this tail and these entries, built from results of
    the operations below, which hold well-formed tuples at indices <= 0:
    entries equal to the tail are dropped, and nothing is checked."""
    x = CoWittElement.__new__(CoWittElement)
    x._set_fields(A, tail, {i: v for i, v in entries.items() if v != tail})
    return x


def cw_from_json(A: PPolarAlgebra, data: dict) -> CoWittElement:
    wire.check("cowitt", data)
    F = A.field
    exc = {int(i): tuple(map(F.from_coords, v))
           for i, v in data.get("exceptions", {}).items()}
    return CoWittElement(A, tuple(map(F.from_coords, data["tail"])), exc)


# -- validity -------------------------------------------------------------------


def _deep_ideal(x: CoWittElement, r: int) -> PolarIdeal:
    # `ideal_generated` skips the zero generators
    return ideal_generated(x.algebra, [x.tail, *(
        v for i, v in x.exceptions.items() if i <= -r)])


def _least_r(elems: Sequence[CoWittElement]):
    """The largest of the least r of `elems`, or None when one of them is
    invalid.  The least r of an element is one more than the depth of its
    deepest entry outside Nil(A), 0 when there is none, and the element is
    valid exactly when its tail lies in Nil(A) (module docstring).  One
    membership test reads every tail and entry of `elems`, and none is
    needed when Nil(A) is all of A (A nilpotent): every element is valid,
    with least r 0."""
    A = elems[0].algebra
    nil = nilradical(A)
    if nil.dim == A.dim:
        return 0
    n = len(elems)
    entries = [(i, v) for e in elems for i, v in e.exceptions.items()]
    out = nil.outside([e.tail for e in elems] + [v for _, v in entries])
    if any(out[:n]):
        return None
    return max((1 - i for (i, _), f in zip(entries, out[n:]) if f),
               default=0)


def witness_search(x: CoWittElement):
    """The minimal valid (r, s), or None: r from Nil(A) membership
    (`_least_r`), s the nilpotence index of the deep ideal at r, closed
    once."""
    r = _least_r((x,))
    if r is None:
        return None
    return r, nilpotence_index(x.algebra, _deep_ideal(x, r))


def _split(elems: Sequence[CoWittElement]) -> int:
    """r, the largest of the least r of `elems` (`_least_r`), the split of
    their sum or negation; ValueError when they live over different
    algebras or one is invalid."""
    A = elems[0].algebra
    if any(e.algebra is not A and e.algebra != A for e in elems):
        raise ValueError("operands live over different algebras")
    r = _least_r(elems)
    if r is None:
        raise ValueError("not a valid co-Witt element")
    return r


# -- windowed stabilized sums ----------------------------------------------------


def _cap(A: PPolarAlgebra) -> int:
    """t_deep of A, the kill cap of every window over it (module
    docstring)."""
    return product_length_threshold(A, nilradical(A))


def stabilized_entry(elems: Sequence[CoWittElement], n: int, op: str = "sum",
                     start_m: int = 0) -> tuple:
    """The eventual value of the windowed `op` at index -n, read off the
    window at the certified depth (at least `start_m`); at an index above
    -r, r the split of the operands (`_split`), where a window would hold
    shallow entries, the entry of the split operation (module docstring).
    No operand, a negative n, operands over different algebras and an
    invalid element raise `ValueError`."""
    if op not in ("sum", "neg"):
        raise ValueError(f"unknown windowed op {op!r}")
    if not elems:
        raise ValueError("stabilized_entry needs at least one operand")
    if n < 0:
        raise ValueError(f"n = {n}: co-Witt entries live at indices <= 0")
    r = _split(elems)
    if n < r:
        return _stabilized_op(elems, op, r).entry(-n)
    return _windows(elems, 0, (n,), op, start_m, _cap(elems[0].algebra))[0]


def _certified_depth(p: int, t_deep: int, start_m: int) -> int:
    """Least level m >= start_m whose window value every deeper window
    repeats: one below the least dead level (module docstring)."""
    # -(-(t_deep - 1) // (p - 1)) is the least L with (p-1)L + 1 >= t_deep
    return max(start_m, -(-(t_deep - 1) // (p - 1)) - 1, 0)


def _windows(elems, k, ns, op, start_m, t_deep) -> list:
    """The top component of `op` at each index -n, n in ns, consecutive
    integers from the deepest n down, on the windows (deepest entry first)
    at the certified depth of the deep parts of `elems` below -k, k <=
    ns[0], every entry of which lies in Nil(A): one call of the window plan
    of `wittmod._plan` under cap t_deep, which sweeps every window.  Each
    operand's deep part, its entries at indices <= -k and zeros above, is
    read once into one column, from the deepest index a window reads,
    -ns[0] - m, up to -ns[-1]."""
    A = elems[0].algebra
    m = _certified_depth(A.p, t_deep, start_m)
    hi, lo = ns[0], ns[-1]
    top = max(k, lo)    # the deep part's entries end at index -top
    cols = [[e.exceptions.get(i, e.tail) for i in range(-hi - m, 1 - top)]
            + [A.zero] * (top - lo) for e in elems]
    return eval_polar_poly(A, _plan(A.p, m + 1, op, t_deep, True), cols)


def _stabilized_op(elems: list, op: str, r: int) -> CoWittElement:
    """`op` on valid `elems`, split at r (`_split`, module docstring): the
    deep parts through the windows, then the length-r shallow parts and
    the deep result's own in W_r."""
    A = elems[0].algebra
    n = max(e.depth() for e in elems) + 1
    # every window at index -n or deeper holds only tails: that entry is
    # the deep result's tail
    tail, *entries = _windows(elems, r, range(n, -1, -1), op, 0, _cap(A))
    exceptions = dict(zip(range(1 - n, 1), entries))
    if r:
        xs = [WittVector(A, tuple(e.entry(i - r + 1) for i in range(r)))
              for e in elems]
        z = w_add(*xs) if op == "sum" else w_neg(*xs)
        own = tuple(exceptions.get(i - r + 1, tail) for i in range(r))
        if any(map(any, own)):
            z = w_add(z, WittVector(A, own))
        exceptions.update({i - r + 1: v for i, v in enumerate(z.coords)})
    return _trusted(A, tail, exceptions)


def cw_add(x: CoWittElement, y: CoWittElement) -> CoWittElement:
    """Stabilized sum; entries deeper than every exception reuse one
    translation-invariant computation for the new tail."""
    r = _split((x, y))
    if x.is_zero():
        return y
    if y.is_zero():
        return x
    return _stabilized_op([x, y], "sum", r)


def cw_neg(x: CoWittElement) -> CoWittElement:
    """Stabilized windowed Witt negation (componentwise minus for odd p)."""
    r = _split((x,))
    if x.is_zero():
        return x
    return _stabilized_op([x], "neg", r)


def cw_F(x: CoWittElement) -> CoWittElement:
    """Componentwise p-th power in place: the tail and every entry in one
    evaluation of `wittmod`'s Frobenius plan."""
    _split((x,))
    tail, *vals = _frobenius(x.algebra, (x.tail, *x.exceptions.values()))
    return CoWittElement(x.algebra, tail, dict(zip(x.exceptions, vals)))


def cw_V(x: CoWittElement) -> CoWittElement:
    """Shift toward index 0, dropping the old index-0 entry."""
    _split((x,))
    return CoWittElement(x.algebra, x.tail, {
        i + 1: v for i, v in x.exceptions.items() if i <= -1})
