"""Witt vectors W_n(A) of a finite-dimensional p-polar algebra over GF(q).

All arithmetic evaluates the universal polynomials reduced mod p; polar
monomials are evaluated through the algebra's mu with the canonical
left-associative scheme.  A monomial with k vector factors evaluates to a
product of k elements, so on an algebra of product length L (every product
of L or more elements vanishes, `ppolar.product_length`) only the
monomials of Witt-block degree below L matter: those families are lifted
directly with the rest killed and never reach `universal_polys`.  Unital
algebras have no L and evaluate its full families; mu = 0 is L = p.
Verschiebung is the coordinate shift.  The characteristic-p Frobenius is
the componentwise p-th power x_i -> mu(x_i, .., x_i), the universal
Frobenius polynomials mod p (certified by the test suite): its plan is
compiled from that closed form, with no lift, and serves F, p = VF, the
Frobenius of the scalars and the co-Witt F.

One evaluator, `eval_polar_poly` on slot plans compiled by `polar_plan`,
serves W_n(A) here, the co-Witt windows in `cowitt` and the formal group
law's star product in `fgl`; each caller compiles its polynomials once
and binds inputs by position in one flat tuple, the coordinates of each
Witt block in turn.  W_n(A) and the windows share one lift-and-plan
builder, `_plan`, with one kill rule, Witt-block degree >= cap at every
position: memoized per (p, n, kind, L) for a W_n plan under the product
length L, which each algebra keeps in a dict keyed by (kind, n), and per
(p, n, kind, t_deep, True) for the windows, the top level alone of a W_n
sum or negation under t_deep (see `cowitt`), swept: it takes one column
per Witt block and returns that level on the window of n entries at every
offset of the columns, all in one call.  Monomials sharing a sorted
prefix share its partial products, each computed once per call (per
window in a sweep).  A plan runs as one straight-line Python function per
plan key, a window plan as one loop over the offsets around that
straight-line body, written by `_plan_source` and compiled once per
process on the first evaluation over an algebra with that key.  One
function, `_bind`, decides how plans run on an algebra: its plan key and
the arguments every plan function takes, kept on the algebra after the
first evaluation.  In general the key is the
dimension d, and the function is in coordinate form: each partial product
is one call of the algebra's compiled mu kernel (`ppolar`), unpacked into
its d coordinates where a sum reads it, and each coordinate of each
polynomial is one unrolled expression over those coordinates.

An algebra over GF(2^m) with at most `wire.MAX_TABLE_ORDER` vectors, Q =
q^d <= 256, is a table algebra, with key ~d = -1 - d: each vector is also
its index in range(Q), the F_2 digits of its coordinates packed into bits,
so adding two vectors is one XOR of their indices.  `_compile_tables`,
memoized per (field, d, mu) like the mu kernel, builds its tables once:
the index <-> tuple maps, the Q^2 products mu(i, j) and the q * Q scalar
multiples as `bytes`, each filled from its values on pairs of bits (both
products are F_2-bilinear).  A plan with a partial product runs in table
form on vector indices: the inputs are mapped to indices once, each
partial product is one lookup in the product table and each polynomial
one XOR chain, mapped back to a tuple once; a plan with none keeps the
coordinate form, where it never calls mu.  The kernel, the field tables,
q, the zero vector and any packed tables with their size are arguments,
so one function serves every algebra with that key and that plan.

Scalars act through Witt vectors over the polarization of the base field:
in `scalar_mul` the scalar coordinates a_i are coefficient slots of the
same plan, multiplied into each term's F_p coefficient.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import index
from typing import Sequence

from . import wire
from .exact import MultiPoly
from .gfq import FqField
from .ppolar import (LengthNotAdmissible, PPolarAlgebra, _compile_mu,
                     product_length)
from .record import Record
from .wittuniv import _targets, dwork_lift, universal_polys, witt_blocks


class WittVector(Record):
    """Length-n coordinate vector over a p-polar algebra.

    The constructor trusts its coordinates: the operations below build
    well-formed results, and outside data comes in through `witt`, `w_zero`,
    `teichmuller` and `scalar_witt`, which check the shape.
    """

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: PPolarAlgebra, coords: tuple):
        # every W_n operation builds one: the slots' own setters are the
        # fastest way in
        _set_algebra(self, algebra)
        _set_coords(self, coords)

    @property
    def length(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return not any(map(any, self.coords))

    def to_json(self) -> dict:
        F = self.algebra.field
        return {"coords": [[list(F.coords(a)) for a in c] for c in self.coords]}


_set_algebra = WittVector.algebra.__set__
_set_coords = WittVector.coords.__set__


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
    wire.check("witt", data)
    F = algebra.field
    return witt(algebra, [[F.from_coords(a) for a in c]
                          for c in data["coords"]])


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

    The plan is returned as its `_PlanFunctions`, shared by equal plans
    built apart, which compiles one function per plan key (the algebra's
    dimension d, or ~d for a table algebra, whose function runs on vector
    indices when the plan has a node); `eval_polar_poly` runs the one for
    its algebra.
    """
    return _plan_functions(p, *_schedule(p, polys, names, scalars), 0)


def _schedule(p: int, polys, names: Sequence[str], scalars: frozenset):
    """The plan of `polar_plan` as (width, nodes, levels): the number of
    input slots, the nodes in evaluation order and one tuple of terms per
    polynomial."""
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
    return base, tuple(nodes), tuple(levels)


# terms per emitted sum expression: bounds the nesting of each expression
_CHUNK = 8


def _plan_source(p: int, width: int, nodes: tuple, levels: tuple,
                 window: int, key) -> str:
    """Python source of the plan (nodes, levels) on `width` input slots
    for the algebras with plan key `key` (`_bind`): their dimension d, or
    ~d = -1 - d for a table algebra.

    The plan's arguments are the algebra's bound arguments, then the inputs:
    `plan(mu, mt, at, q, zero, inputs)`, with tmu, tix, tvec, tsm, Q before
    the inputs for a table algebra.  It unpacks the inputs into v0, v1, ..
    A coefficient times scalar slots is computed once, as
    k{i} = mt[k * q + v{s}] one factor at a time, sharing prefixes.  Each
    sum is written as one expression, bound to o{j}_{r} (o{j} in the table
    form) after every _CHUNK terms and continued from there.  The plan
    returns one vector per level; a level with no term is `zero`.  The
    source holds only integer literals and generated names, and the plan
    is walked in order, so equal plans give equal source.

    A window plan (`window` > 0, no scalar slot, one level: see `_plan`)
    sweeps.  Its inputs are one column w{b} per Witt block, and slot
    s = b * window + i reads entry o + i of column b at window offset o.
    One loop over zip(w0, w0[1:], ..) binds v0, v1, .. at each offset in
    turn and returns the level's vector at every offset, offset 0 first;
    the lines that no offset changes, c{i} = k * q, come before it.

    Coordinate form, for every plan over a d-dimensional algebra and for
    the plans with no node over a table algebra: each node is bound to the
    next name as one call `mu(vi, vj, ..)` of the algebra's kernel.  Each
    value that a level sums, input or node, is unpacked where it is bound
    into coordinate locals v{i}_0 .. v{i}_{d-1} (no statement when d = 0).
    Each coefficient other than 1 enters the sums as c{i} = k * q, read
    once.  Coordinate r of a level is one expression over the v{i}_r,
    through ^ (p = 2) or at[a * q + b], a term with coefficient c{i} as
    mt[c{i} + v{i}_r]; a level that is one value is that value, made a
    tuple.

    Table form, for a plan with a node over a table algebra (p = 2): each
    vector input the plan reads is mapped once to its index, tix[v{s}]
    (each entry of every column, in a window plan), each node is one
    lookup tmu[vi * Q + vj], and each level is one XOR chain of indices,
    a term with scalar slots as tsm[c{i} + v{i}] with c{i} = k * Q (every
    F_2 coefficient is 1).  Each level is mapped back to its tuple by one
    lookup tvec[..].
    """
    packed = key < 0                # a table algebra's key
    d = ~key if packed else key
    table = packed and nodes
    targets = "".join(f"v{s}, " for s in range(width))
    cols = [f"w{b}" for b in range(width // window)] if window else []
    # the lines before a sweep's loop, then those run at each offset
    pre = [f"{''.join(f'{w}, ' for w in cols) if window else targets}"
           f"= inputs"]
    body = []
    if table:
        if window:
            # a window plan reads every column
            pre += [f"{w} = [*map(tix.__getitem__, {w})]" for w in cols]
        else:
            vectors = {i for args in nodes for i in args}
            vectors.update(i for terms in levels for c, cs, i in terms)
            pre += [f"v{s} = tix[v{s}]" for s in sorted(vectors)
                    if s < width]
        body += [f"v{width + k} = tmu[v{i} * Q + v{j}]"
                 for k, (i, j) in enumerate(nodes)]
    else:
        summed = {i for terms in levels for c, cs, i in terms
                  if len(terms) > 1 or c != 1 or cs}

        def unpack(i: int):
            if d and i in summed:
                body.append(
                    f"{''.join(f'v{i}_{r}, ' for r in range(d))}= v{i}")

        for s in range(width):
            unpack(s)
        for k, args in enumerate(nodes):
            body.append(
                f"v{width + k} = mu({', '.join(f'v{i}' for i in args)})")
            unpack(width + k)
    coeffs = {}   # (c, scalar slots) -> the name holding the coefficient
    # coefficient name or literal -> the name holding it * q (* Q in the
    # table form)
    scaled = {}

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

    def chain(name: str, terms: list) -> str:
        expr = terms[0]
        for t in range(1, len(terms)):
            if t % _CHUNK == 0:
                body.append(f"{name} = {expr}")
                expr = name
            expr = add(expr, terms[t])
        return expr

    outs = []
    for j, terms in enumerate(levels):
        if not terms:
            outs.append("zero")
            continue
        c, cs, i = terms[0]
        if len(terms) == 1 and c == 1 and not cs:
            # a node is the kernel's tuple; in coordinate form an input
            # may be any sequence
            outs.append(f"tvec[v{i}]" if table else
                        f"v{i}" if i >= width else f"tuple(v{i})")
            continue
        vals = []
        for c, cs, i in terms:
            k = coeff(c, cs)
            if k != "1" and k not in scaled:
                scaled[k] = f"c{len(scaled)}"
                (pre if window else body).append(
                    f"{scaled[k]} = {k} * {'Q' if table else 'q'}")
            vals.append((scaled.get(k), i))
        if table:
            outs.append("tvec[%s]" % chain(f"o{j}", [
                f"v{i}" if cq is None else f"tsm[{cq} + v{i}]"
                for cq, i in vals]))
            continue
        exprs = [chain(f"o{j}_{r}", [
            f"v{i}_{r}" if cq is None else f"mt[{cq} + v{i}_{r}]"
            for cq, i in vals]) for r in range(d)]
        outs.append(f"({''.join(f'{e}, ' for e in exprs)})")
    if window:
        (top,) = outs
        slices = ", ".join(f"{w}[{i}:]" if i else w
                           for w in cols for i in range(window))
        lines = [*pre, "out = []", f"for {targets}in zip({slices}):",
                 *[f"    {line}" for line in body], f"    out.append({top})",
                 "return out"]
    else:
        lines = [*pre, *body,
                 f"return ({''.join(f'{o}, ' for o in outs)})"]
    kernel = "mu, mt, at, q, zero" + (", tmu, tix, tvec, tsm, Q" if packed
                                      else "")
    return "".join([f"def plan({kernel}, inputs):\n",
                    *[f"    {line}\n" for line in lines]])


class _PlanFunctions(dict):
    """A compiled plan: plan key (`_bind`) -> the plan's function for the
    algebras with that key, generated by `_plan_source` and compiled on the
    first evaluation over one of them."""

    __slots__ = ("shape",)

    def __init__(self, *shape):
        self.shape = shape

    def __missing__(self, key):
        namespace = {}
        exec(compile(_plan_source(*self.shape, key), "<polar plan>", "exec"),
             namespace)
        plan = self[key] = namespace["plan"]
        return plan


# one `_PlanFunctions` per plan (p, width, nodes, levels, window) in a
# process, so equal plans built apart compile once per dimension
_plan_functions = lru_cache(maxsize=None)(_PlanFunctions)


def _bind(A: PPolarAlgebra) -> tuple:
    """How plans run on A, (key, args), kept in A's `_bound` slot: the
    plan key selects each plan's function and args are what it takes
    before the inputs (see `_plan_source`).

    The key is ~d for a table algebra (p = 2 and Q = q^d <=
    `wire.MAX_TABLE_ORDER`), else the dimension d, an int, which hashes at
    no cost on every evaluation.  args are (mu, mt, at, q, zero): A's
    straight-line mu kernel, which takes exactly p vectors and checks
    nothing, the field tables of `FqField.tables`, q and the zero vector;
    for a table algebra then its packed tables, (tmu, tix, tvec, tsm, Q).
    The kernel and tables come from the `_compile_mu` and
    `_compile_tables` memos, which build them for the first algebra with
    this (field, d, mu); `mu_p` and `ppow` need the kernel alone and never
    build the tables."""
    F, d = A.field, A.dim
    key = ~d if A.p == 2 and F.q ** d <= wire.MAX_TABLE_ORDER else d
    args = (A._compiled_mu(), *F.tables(), F.q, A.zero)
    if key < 0:
        args += _compile_tables(F, d, tuple(sorted(A.mu.items())))
    bound = A._bound = key, args
    return bound


@lru_cache(maxsize=None)
def _compile_tables(field: FqField, dim: int, mu: tuple) -> tuple:
    """The packed tables of a table algebra (p = 2, Q = q^dim <=
    `wire.MAX_TABLE_ORDER`): (tmu, tix, tvec, tsm, Q), built once per process
    for each (field, dim, mu), with mu its sorted (key, value) pairs.

    A vector is its index among the Q vectors: coordinate r, an element of
    GF(2^m) whose bits are its F_2 digits, sits at bits m (dim-1-r) .. of
    it, so the sum of two vectors is the XOR of their indices.  tvec maps
    an index to its coordinate tuple and tix a tuple back; tmu[i * Q + j]
    is the index of mu(vec i, vec j) and tsm[a * Q + i] that of a times
    vec i, for a scalar a, each as `bytes`.  Both products are F_2-bilinear
    in the bits of their arguments, so only their values on pairs of bits
    are computed, by the kernel and the field tables (see `_bilinear`).
    """
    q, mt = field.q, field.tables()[0]
    tvec = list(product(range(q), repeat=dim))
    Q = len(tvec)
    tix = dict(zip(tvec, range(Q)))
    kernel = _compile_mu(field, dim, mu)
    bits = [tvec[1 << b] for b in range(field.m * dim)]
    tmu = _bilinear([[tix[kernel(u, v)] for v in bits] for u in bits], Q)
    tsm = _bilinear([[tix[tuple(mt[(1 << b) * q + c] for c in v)]
                      for v in bits] for b in range(field.m)], Q)
    return tmu, tix, tvec, tsm, Q


def _bilinear(on_bits: list, Q: int) -> bytes:
    """The table of an F_2-bilinear map f(a, i) into indices below 256, for
    a < 2^len(on_bits) and i < Q (a power of 2), as `bytes` indexed by
    a * Q + i, from its values on_bits[b][c] = f(2^b, 2^c).  Each row is
    one int holding its Q bytes.  The row of 2^b is the XOR over c of
    on_bits[b][c] times the int whose byte i is bit c of i (a product with
    no carry), and the rows of 2^b .. 2^(b+1) - 1 are the rows below 2^b,
    each XORed with it."""
    planes = [int.from_bytes((bytes(1 << c) + b"\1" * (1 << c))
                             * (Q >> (c + 1)), "little")
              for c in range(Q.bit_length() - 1)]
    table = [0]
    for values in on_bits:
        row = 0
        for v, plane in zip(values, planes):
            row ^= v * plane
        table += [row ^ below for below in table]
    return b"".join(row.to_bytes(Q, "little") for row in table)


def eval_polar_poly(A: PPolarAlgebra, plan, inputs: Sequence):
    """Evaluate a compiled plan (see `polar_plan`) on A at the flat input
    tuple: one vector per compiled polynomial; a window plan (`_plan`)
    takes one column per Witt block instead and returns a list, its top
    component at every window offset.  A's plan key selects the
    plan's function, in table or coordinate form (`_plan_source`), and it
    takes A's bound arguments (`_bind`): A's mu kernel, the field tables
    and, for a table algebra, its packed tables.  Vector inputs are
    tuples, as every vector of the package is."""
    key, args = A._bound or _bind(A)
    return plan[key](*args, inputs)


@lru_cache(maxsize=None)
def _plan(p: int, n: int, kind: str, cap, top: bool = False):
    """The plan of one universal family on the flat input tuple: the
    coordinates of each Witt block in turn, then for the scalar action the
    n scalars of a; a window plan takes columns instead (below).

    With cap None, the full family from `universal_polys`, so a process
    lifts it once for every caller.  Otherwise the family lifted from its
    ghost targets with a monomial killed when its Witt-block degree (the
    scalars a_i never count) is >= cap, an ideal stable under v -> v^p, as
    `dwork_lift` requires.  With `top` (the co-Witt windows, see
    `cowitt`), the plan is the top level alone, swept: it takes one column
    per Witt block, of any length >= n, and returns the top component on
    the window of its n entries at each offset o, entries o .. o + n - 1
    of each column, one loop inside its compiled function
    (`_plan_source`).

    The kind "frob" is the Frobenius on n inputs x_0 .. x_{n-1}: output i
    is x_i^p, the universal family mod p (which maps W_{n+1} to W_n and
    never reads x_n), compiled from that closed form with no lift, so its
    cost is linear in n with or without a cap; the same cap kills every
    x_i^p when p >= cap."""
    blocks = witt_blocks(kind, p) + (("a",) if kind == "scalar" else ())
    names = [f"{b}{i}" for b in blocks for i in range(n)]
    scalars = frozenset(names[n:]) if kind == "scalar" else frozenset()
    if kind == "frob":
        # F(x)_i = x_i^p mod p, the closed form: nothing to lift
        polys = [MultiPoly((v,), {(p,): 1} if cap is None or p < cap else {})
                 for v in names]
    elif cap is None:
        polys = universal_polys(p, n, kind)
    else:
        targets = _targets(p, n, kind)
        capped = [k for k, v in enumerate(targets[0].vars) if v not in scalars]
        polys = dwork_lift(p, targets,
                           kill=lambda e: sum(e[k] for k in capped) >= cap)
    if top:
        polys = polys[-1:]
    return _plan_functions(p, *_schedule(p, [c.reduce_mod(p) for c in polys],
                                         names, scalars), n if top else 0)


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


def _frobenius(A: PPolarAlgebra, vecs: tuple) -> tuple:
    """The p-th power of each of the vectors, by A's "frob" plan."""
    plan = A._plans.get(("frob", len(vecs))) or _new_plan(A, "frob", len(vecs))
    return eval_polar_poly(A, plan, vecs)


def frobenius_charp(x: WittVector) -> WittVector:
    """F: W_{n+1} -> W_n, componentwise p-th power dropping the last slot."""
    if x.length < 2:
        raise ValueError("Frobenius needs length >= 2")
    return WittVector(x.algebra, _frobenius(x.algebra, x.coords[:-1]))


def truncate(x: WittVector, n: int) -> WittVector:
    if n < 1 or n > x.length:
        raise ValueError("bad truncation length")
    return WittVector(x.algebra, x.coords[:n])


def p_mul(x: WittVector) -> WittVector:
    """Multiplication by p = V(F(x)) at fixed length; 0 at length 1."""
    return (verschiebung(frobenius_charp(x)) if x.length > 1
            else WittVector(x.algebra, (x.algebra.zero,)))


# -- scalar action -------------------------------------------------------------


@lru_cache(maxsize=None)
def base_polar(field: FqField) -> PPolarAlgebra:
    """pol(F_q): the one-dimensional polarization of the base field."""
    return PPolarAlgebra(field, 1, {(0,) * field.p: (1,)})


def scalar_witt(field: FqField, entries: Sequence[int]) -> WittVector:
    return _checked(base_polar(field), tuple((a,) for a in entries))


def scalar_phi(a: WittVector) -> WittVector:
    """Witt Frobenius of the perfect base field: componentwise p-th power,
    mu(c, .., c) = c^p in pol(F_q)."""
    return WittVector(a.algebra, _frobenius(a.algebra, a.coords))


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

