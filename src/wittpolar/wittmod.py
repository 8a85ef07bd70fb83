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
(here per (p, n, kind, L), and each algebra keeps its plans in a dict
keyed by (kind, n)) and binds inputs by position in one flat tuple, the
coordinates of each Witt block in turn.  Monomials sharing a sorted prefix
share its partial products, each computed once per call.  A plan is one
straight-line Python function, written by `_plan_source` and compiled once
per process for each distinct plan: each partial product is one call of
the algebra's compiled mu kernel (`ppolar`), and each polynomial one sum
over the coordinates.  The kernel, the field tables, q and the zero vector
are arguments, so one function serves every algebra with that plan.
Scalars act through Witt vectors over the polarization of the base field:
in `scalar_mul` the scalar coordinates a_i are coefficient slots of the
same plan, multiplied into each term's F_p coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import index
from typing import Sequence

from .gfq import FqField
from .ppolar import (LengthNotAdmissible, PPolarAlgebra, product_length,
                     vec_is_zero)
from .wittuniv import _targets, dwork_lift, universal_polys, witt_blocks


@dataclass(frozen=True, slots=True)
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


def polar_plan(p: int, polys, names: Sequence[str],
               scalars: frozenset = frozenset()):
    """Compile mod-p polynomials into one straight-line plan function.

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

    The plan is returned compiled by `_compile_plan`, so equal plans built
    apart share one function; `eval_polar_poly` runs it.
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
            if c % p:
                # a plain int (`index` raises TypeError for anything
                # else): the plan's source is generated from it
                terms.append((index(c % p), tuple(cs), at))
        levels.append(tuple(terms))
    return _compile_plan(p, base, tuple(nodes), tuple(levels))


# terms per emitted sum statement: bounds the nesting of its expression
_CHUNK = 8


def _plan_source(p: int, width: int, nodes: tuple, levels: tuple) -> str:
    """Python source of the plan (nodes, levels) on `width` input slots.

    `plan(mu, mt, at, q, zero, inputs)` unpacks the inputs into v0, v1, ..,
    then binds each node to the next name as one call `mu(vi, vj, ..)` of
    the algebra's kernel.  A coefficient times scalar slots is computed
    once, as k{i} = mt[k * q + v{s}] one factor at a time, sharing prefixes;
    each coefficient other than 1 enters the sums as c{i} = k * q, read
    once.  Each level sums its terms in one pass over the coordinates per
    _CHUNK terms, o{j} = [.. for a0, a1, .. in zip(o{j}, v.., ..)], through
    ^ (p = 2) or at[a * q + b], a term with coefficient c{i} as
    mt[c{i} + a]; a level that is one value is that value, and a level with
    no term is `zero`.  The source holds only integer literals and generated
    names, and the plan is walked in order, so equal plans give equal
    source.
    """
    body = [f"{''.join(f'v{s}, ' for s in range(width))}= inputs"]
    for k, args in enumerate(nodes):
        body.append(f"v{width + k} = mu({', '.join(f'v{i}' for i in args)})")
    coeffs = {}   # (c, scalar slots) -> the name holding the coefficient
    scaled = {}   # coefficient name or literal -> the name holding it * q

    def coeff(c: int, cs: tuple) -> str:
        if not cs:
            return str(c)
        if (c, cs) not in coeffs:
            head = coeff(c, cs[:-1])
            if head == "1":
                return f"v{cs[0]}"
            name = coeffs[c, cs] = f"k{len(coeffs)}"
            body.append(f"{name} = mt[{head} * q + v{cs[-1]}]")
        return coeffs[c, cs]

    def add(acc: str, term: str) -> str:
        return f"{acc} ^ {term}" if p == 2 else f"at[{acc} * q + {term}]"

    outs = []
    for j, terms in enumerate(levels):
        vals = []
        for c, cs, i in terms:
            k = coeff(c, cs)
            if k != "1" and k not in scaled:
                scaled[k] = f"c{len(scaled)}"
                body.append(f"{scaled[k]} = {k} * q")
            vals.append((scaled.get(k), f"v{i}"))
        if not vals:
            outs.append("zero")
            continue
        if len(vals) == 1 and vals[0][0] is None:
            # a node is the kernel's tuple; an input may be any sequence
            i = terms[0][2]
            outs.append(f"v{i}" if i >= width else f"tuple(v{i})")
            continue
        outs.append(f"o{j}")
        acc = []
        for start in range(0, len(vals), _CHUNK):
            chunk = acc + vals[start:start + _CHUNK]
            names = [f"a{t}" for t in range(len(chunk))]
            expr = None
            for (cq, _), a in zip(chunk, names):
                term = a if cq is None else f"mt[{cq} + {a}]"
                expr = term if expr is None else add(expr, term)
            last = start + _CHUNK >= len(vals)
            comp = (f"[{expr} for {', '.join(names)}, in "
                    f"zip({', '.join(v for _, v in chunk)})]")
            body.append(f"o{j} = {f'tuple({comp})' if last else comp}")
            acc = [(None, f"o{j}")]
    body.append(f"return ({''.join(f'{o}, ' for o in outs)})")
    return "".join(["def plan(mu, mt, at, q, zero, inputs):\n",
                    *[f"    {line}\n" for line in body]])


@lru_cache(maxsize=None)
def _compile_plan(p: int, width: int, nodes: tuple, levels: tuple):
    """The plan function of (nodes, levels), compiled from `_plan_source`
    once per process."""
    namespace = {}
    exec(compile(_plan_source(p, width, nodes, levels), "<polar plan>",
                 "exec"), namespace)
    return namespace["plan"]


def eval_polar_poly(A: PPolarAlgebra, plan, inputs: Sequence) -> tuple:
    """Evaluate a compiled plan (see `polar_plan`) on A at the flat input
    tuple: one vector per compiled polynomial.  The plan calls A's mu
    kernel and reads the field tables that `PPolarAlgebra.kernel` binds."""
    return plan(*A.kernel(), inputs)


@lru_cache(maxsize=None)
def _plan(p: int, n: int, kind: str, L):
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
        polys = universal_polys(p, n, kind)
    else:
        targets = _targets(p, n, kind)
        vec = [i for i, v in enumerate(targets[0].vars) if v not in scalars]
        polys = dwork_lift(p, targets,
                           kill=lambda e: sum(e[i] for i in vec) >= L)
    return polar_plan(p, [c.reduce_mod(p) for c in polys], names, scalars)


def _check_pair(x: WittVector, y: WittVector):
    if x.algebra is not y.algebra and x.algebra != y.algebra:
        raise ValueError("operands live over different algebras")
    if len(x.coords) != len(y.coords):
        raise ValueError("length mismatch")


def _new_plan(A: PPolarAlgebra, kind: str, n: int):
    """A's plan of `kind` at length n from `_plan`, kept in A's `_plans`
    dict, where the operations below look it up."""
    plan = A._plans[kind, n] = _plan(A.p, n, kind, product_length(A))
    return plan


def w_add(x: WittVector, y: WittVector) -> WittVector:
    _check_pair(x, y)
    A = x.algebra
    n = len(x.coords)
    plan = A._plans.get(("sum", n)) or _new_plan(A, "sum", n)
    return WittVector(A, eval_polar_poly(A, plan, x.coords + y.coords))


def w_neg(x: WittVector) -> WittVector:
    A = x.algebra
    n = len(x.coords)
    plan = A._plans.get(("neg", n)) or _new_plan(A, "neg", n)
    return WittVector(A, eval_polar_poly(A, plan, x.coords))


def w_product(xs: Sequence[WittVector]) -> WittVector:
    """The p-polar product of exactly p Witt vectors."""
    if not xs:
        raise ValueError("empty product")
    A = xs[0].algebra
    if len(xs) != A.p:
        raise ValueError(f"product takes exactly p = {A.p} factors")
    flat = xs[0].coords
    for x in xs[1:]:
        _check_pair(xs[0], x)
        flat += x.coords
    n = len(xs[0].coords)
    plan = A._plans.get(("prod", n)) or _new_plan(A, "prod", n)
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


def scalar_phi(a: WittVector) -> WittVector:
    """Witt Frobenius of the perfect base field: componentwise p-th power."""
    F = a.algebra.field
    return WittVector(a.algebra,
                      tuple((F.frobenius(c[0], 1),) for c in a.coords))


def scalar_mul(a: WittVector, x: WittVector) -> WittVector:
    """Action of W_n(pol(F_q)) on W_n(A) for an algebra A over F_q."""
    A = x.algebra
    B = base_polar(A.field)
    if a.algebra is not B and a.algebra != B:
        raise ValueError("scalar must live over the polarized base field")
    if a.length != x.length:
        raise ValueError("length mismatch")
    n = len(x.coords)
    plan = A._plans.get(("scalar", n)) or _new_plan(A, "scalar", n)
    flat = x.coords + tuple(c[0] for c in a.coords)
    return WittVector(A, eval_polar_poly(A, plan, flat))

