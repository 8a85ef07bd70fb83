"""Witt vectors W_n(A) of a finite-dimensional p-polar algebra over GF(q).

All arithmetic evaluates the universal polynomials reduced mod p; polar
monomials are evaluated through the algebra's mu with the canonical
left-associative scheme.  A monomial with k vector factors evaluates to a
product of k elements, so on an algebra of product length L (every product
of L or more elements vanishes, `ppolar.product_length`) only the
monomials of Witt-block degree below L matter: those families are lifted
directly with the rest killed and never reach `universal_polys`.  Unital
algebras have no L and evaluate its full families; mu = 0 is L = p.
Verschiebung is the coordinate shift and the characteristic-p Frobenius is
the componentwise p-th power (certified against the universal Frobenius
polynomials by the test suite).

One evaluator, `eval_polar_poly` on slot plans compiled by `polar_plan`,
serves W_n(A) here, the co-Witt windows in `cowitt` and the formal group
law's star product in `fgl`; each caller compiles its polynomials once
(here per (p, n, kind, L)) and binds inputs by position in one flat
tuple, the coordinates of each Witt block in turn.  Monomials sharing a
sorted prefix share its partial products, each computed once per call.
Scalars act through Witt vectors over the polarization of the base field:
in `scalar_mul` the scalar coordinates a_i are coefficient slots of the
same plan, multiplied into each term's F_p coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .gfq import FqField
from .ppolar import (LengthNotAdmissible, PPolarAlgebra, product_length,
                     vec_is_zero)
from .wittuniv import (_targets, dwork_lift, reduce_mod_p, universal_polys,
                       witt_blocks)


@dataclass(frozen=True)
class WittVector:
    """Length-n coordinate vector over a p-polar algebra.

    The constructor trusts its coordinates: the operations below build
    well-formed results, and outside data comes in through `witt`, `w_zero`,
    `teichmuller` and `scalar_witt`, which check the shape.
    """

    algebra: PPolarAlgebra
    coords: tuple

    @property
    def length(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return all(vec_is_zero(c) for c in self.coords)

    def to_json(self) -> dict:
        F = self.algebra.field
        return {"coords": [[list(F.coords(a)) for a in c] for c in self.coords]}


def _checked(algebra: PPolarAlgebra, coords: tuple) -> WittVector:
    """A Witt vector from outside data: length >= 1 and every coordinate of
    the algebra's dimension, or ValueError."""
    if len(coords) < 1:
        raise ValueError("length must be >= 1")
    if any(len(c) != algebra.dim for c in coords):
        raise ValueError("coordinate dimension mismatch")
    return WittVector(algebra, coords)


def witt(algebra: PPolarAlgebra, coords: Sequence[Sequence[int]]) -> WittVector:
    return _checked(algebra, tuple(tuple(c) for c in coords))


def w_zero(algebra: PPolarAlgebra, n: int) -> WittVector:
    return _checked(algebra, (algebra.zero,) * n)


def witt_from_json(algebra: PPolarAlgebra, data: dict) -> WittVector:
    F = algebra.field
    coords = data["coords"]
    if not isinstance(coords, list) or not all(isinstance(c, list)
                                               for c in coords):
        raise ValueError(f"coords must be a list of coordinate lists, got "
                         f"{coords!r}")
    return witt(algebra, [[F.from_coords(a) for a in c] for c in coords])


@lru_cache(maxsize=None)
def _reduced(p: int, n: int, kind: str) -> tuple:
    return tuple(reduce_mod_p(universal_polys(p, n, kind)))


def polar_plan(p: int, polys, names: Sequence[str],
               scalars: frozenset = frozenset()) -> tuple:
    """Compile mod-p polynomials into one slot plan (nodes, levels).

    Slot s of the flat input tuple holds the value bound to names[s]: a
    vector of the algebra, or an F_q scalar for the names in `scalars`.
    A monomial's vector slots, sorted with multiplicity, are multiplied by
    the left-associative scheme of `mu_eval`: mu of the first p, then mu of
    that and the next p-1, and so on.  Each of these partial products is a
    node, shared by every monomial with the same prefix: p indices into the
    values (the inputs, then the nodes in order).  A level is a tuple of
    terms (F_p coefficient, scalar slots with multiplicity, value index).
    Callers drop the monomials that vanish on their algebra for length
    alone before compiling (see `_plan`).
    """
    slot = {name: s for s, name in enumerate(names)}
    base = len(names)
    nodes: dict = {}    # node -> its value index, in evaluation order
    levels = []
    for poly in polys:
        cols = [slot[v] for v in poly.vars]
        terms = []
        for exp, c in poly.terms.items():
            xs, cs = [], []
            for s, e in zip(cols, exp):
                if e:
                    (cs if names[s] in scalars else xs).extend([s] * e)
            if not xs or (len(xs) - 1) % (p - 1):
                raise LengthNotAdmissible(
                    f"cannot multiply {len(xs)} elements in a {p}-polar "
                    f"algebra")
            xs.sort()
            at = xs[0]
            if len(xs) > 1:
                at = nodes.setdefault(tuple(xs[:p]), base + len(nodes))
                for i in range(p, len(xs), p - 1):
                    at = nodes.setdefault((at,) + tuple(xs[i:i + p - 1]),
                                          base + len(nodes))
            terms.append((c % p, tuple(cs), at))
        levels.append(tuple(terms))
    return tuple(nodes), tuple(levels)


def eval_polar_poly(A: PPolarAlgebra, plan: tuple, inputs: Sequence) -> tuple:
    """Evaluate a plan (see `polar_plan`) on A at the flat input tuple: one
    vector per compiled polynomial.

    Each node is one `mu_p` call; each term scales its value by the F_p
    coefficient times its scalar slots.
    """
    nodes, levels = plan
    vals = list(inputs)
    mu_p = A.mu_p
    for args in nodes:
        vals.append(mu_p([vals[i] for i in args]))
    F = A.field
    q = F.q
    mt, at = F.tables()
    zero = A.zero
    out = []
    for terms in levels:
        acc = zero
        for c, cs, i in terms:
            for s in cs:
                c = mt[c * q + vals[s]]
            v = vals[i]
            if not c or not any(v):
                continue
            if c != 1:
                v = [mt[c * q + a] for a in v]
            if acc is zero:
                acc = tuple(v)
            elif at is None:
                acc = tuple([a ^ b for a, b in zip(acc, v)])
            else:
                acc = tuple([at[a * q + b] for a, b in zip(acc, v)])
        out.append(acc)
    return tuple(out)


@lru_cache(maxsize=None)
def _plan(p: int, n: int, kind: str, L) -> tuple:
    """The plan of one universal family on the flat input tuple: the
    coordinates of each Witt block in turn, then for the scalar action the
    n scalars of a.

    With L None, the full family from `universal_polys`, so a process lifts
    it once for every caller.  With a product length L, the family lifted
    from its ghost targets with every monomial of Witt-block degree >= L
    killed (the scalars a_i do not count); that set of monomials is an
    ideal stable under v -> v^p, as `dwork_lift` requires."""
    blocks = witt_blocks(kind, p) + (("a",) if kind == "scalar" else ())
    names = [f"{b}{i}" for b in blocks for i in range(n)]
    scalars = frozenset(names[n:]) if kind == "scalar" else frozenset()
    if L is None:
        polys = _reduced(p, n, kind)
    else:
        targets = _targets(p, n, kind)
        vec = [i for i, v in enumerate(targets[0].vars) if v not in scalars]
        polys = [c.reduce_mod(p) for c in dwork_lift(
            p, targets, kill=lambda e: sum(e[i] for i in vec) >= L)]
    return polar_plan(p, polys, names, scalars)


def _check_pair(x: WittVector, y: WittVector):
    if x.algebra is not y.algebra and x.algebra != y.algebra:
        raise ValueError("operands live over different algebras")
    if len(x.coords) != len(y.coords):
        raise ValueError("length mismatch")


def w_add(x: WittVector, y: WittVector) -> WittVector:
    _check_pair(x, y)
    A = x.algebra
    plan = _plan(A.p, len(x.coords), "sum", product_length(A))
    return WittVector(A, eval_polar_poly(A, plan, x.coords + y.coords))


def w_neg(x: WittVector) -> WittVector:
    A = x.algebra
    plan = _plan(A.p, len(x.coords), "neg", product_length(A))
    return WittVector(A, eval_polar_poly(A, plan, x.coords))


def w_product(xs: Sequence[WittVector]) -> WittVector:
    """The p-polar product of exactly p Witt vectors."""
    if not xs:
        raise ValueError("empty product")
    A = xs[0].algebra
    p = A.p
    if len(xs) != p:
        raise ValueError(f"product takes exactly p = {p} factors")
    for x in xs[1:]:
        _check_pair(xs[0], x)
    plan = _plan(p, len(xs[0].coords), "prod", product_length(A))
    flat = [c for x in xs for c in x.coords]
    return WittVector(A, eval_polar_poly(A, plan, flat))


def teichmuller(A: PPolarAlgebra, a: Sequence[int], n: int) -> WittVector:
    if n < 1:
        raise ValueError(f"Teichmuller length must be >= 1, got {n}")
    return _checked(A, (tuple(a),) + (A.zero,) * (n - 1))


def verschiebung(x: WittVector) -> WittVector:
    return WittVector(x.algebra, (x.algebra.zero,) + x.coords)


def frobenius_charp(x: WittVector) -> WittVector:
    """F: W_{n+1} -> W_n, componentwise p-th power dropping the last slot."""
    if x.length < 2:
        raise ValueError("Frobenius needs length >= 2")
    A = x.algebra
    return WittVector(A, tuple(A.ppow(c) for c in x.coords[:-1]))


def truncate(x: WittVector, n: int) -> WittVector:
    if n < 1 or n > x.length:
        raise ValueError("bad truncation length")
    return WittVector(x.algebra, x.coords[:n])


def p_mul(x: WittVector) -> WittVector:
    """Multiplication by p = V(F(x)) at fixed length."""
    A = x.algebra
    shifted = tuple(A.ppow(c) for c in x.coords[:-1])
    return WittVector(A, (A.zero,) + shifted)


# -- scalar action -------------------------------------------------------------


@lru_cache(maxsize=None)
def base_polar(field: FqField) -> PPolarAlgebra:
    """pol(F_q): the one-dimensional polarization of the base field."""
    return PPolarAlgebra(field, 1, {(0,) * field.p: (1,)})


def scalar_witt(field: FqField, entries: Sequence[int]) -> WittVector:
    return _checked(base_polar(field), tuple((a,) for a in entries))


def scalar_teich(field: FqField, a: int, n: int) -> WittVector:
    return scalar_witt(field, [a] + [0] * (n - 1))


def scalar_phi(a: WittVector) -> WittVector:
    """Witt Frobenius of the perfect base field: componentwise p-th power."""
    F = a.algebra.field
    return WittVector(a.algebra,
                      tuple((F.frobenius(c[0], 1),) for c in a.coords))


def scalar_mul(a: WittVector, x: WittVector) -> WittVector:
    """Action of W_n(pol(F_q)) on W_n(A) for an algebra A over F_q."""
    A = x.algebra
    if a.algebra != base_polar(A.field):
        raise ValueError("scalar must live over the polarized base field")
    if a.length != x.length:
        raise ValueError("length mismatch")
    plan = _plan(A.p, x.length, "scalar", product_length(A))
    flat = x.coords + tuple(c[0] for c in a.coords)
    return WittVector(A, eval_polar_poly(A, plan, flat))


# -- unipotent co-Witt classes ---------------------------------------------------


@dataclass(frozen=True)
class CwuClass:
    """A class in colim(W_0 -> W_1 -> ...) along V, canonically represented.

    The canonical representative has a nonzero leading coordinate; the
    zero class is the empty tuple.
    """

    algebra: PPolarAlgebra
    rep: tuple

    @property
    def length(self) -> int:
        return len(self.rep)

    def is_zero(self) -> bool:
        return not self.rep


def cwu_class(x: WittVector) -> CwuClass:
    coords = list(x.coords)
    while coords and vec_is_zero(coords[0]):
        coords.pop(0)
    return CwuClass(x.algebra, tuple(coords))


def cwu_lift(c: CwuClass, n: int) -> WittVector:
    """Representative of the class in W_n (V-padding with leading zeros)."""
    if n < max(1, c.length):
        raise ValueError("length too small for this class")
    pad = (c.algebra.zero,) * (n - c.length)
    return WittVector(c.algebra, pad + c.rep)


def cwu_add(a: CwuClass, b: CwuClass) -> CwuClass:
    if a.algebra != b.algebra:
        raise ValueError("operands live over different algebras")
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    n = max(a.length, b.length)
    return cwu_class(w_add(cwu_lift(a, n), cwu_lift(b, n)))


def cwu_neg(a: CwuClass) -> CwuClass:
    if a.is_zero():
        return a
    return cwu_class(w_neg(cwu_lift(a, a.length)))


def cwu_F(a: CwuClass) -> CwuClass:
    """Componentwise p-th power in place (the co-Witt Frobenius)."""
    if a.is_zero():
        return a
    A = a.algebra
    return cwu_class(WittVector(A, tuple(A.ppow(c) for c in a.rep)))


def cwu_V(a: CwuClass) -> CwuClass:
    """Drop the deepest (last) coordinate: the co-Witt Verschiebung.

    On the colimit this is induced by the truncation maps W_n -> W_{n-1},
    the unique family commuting with the V transition maps; together with
    cwu_F it satisfies FV = VF = p.
    """
    if a.length <= 1:
        return CwuClass(a.algebra, ())
    return cwu_class(WittVector(a.algebra, a.rep[:-1]))
