"""Witt vectors W_n(A) of a finite-dimensional p-polar algebra over GF(q).

All arithmetic evaluates the cached universal polynomials reduced mod p;
polar monomials are evaluated through the algebra's mu with the canonical
left-associative scheme.  Verschiebung is the coordinate shift and the
characteristic-p Frobenius is the componentwise p-th power (certified
against the universal Frobenius polynomials by the test suite).

One evaluator, `eval_polar_poly` on terms compiled by `polar_terms`,
serves W_n(A) here, the co-Witt windows in `cowitt` and the formal group
law's star product in `fgl`; each caller compiles its polynomial once.
Scalars act through Witt vectors over the polarization of the base field.
`scalar_mul` keeps its own loop: its a-variables are F_q scalars folded
into each term's coefficient, not inputs to mu, so they cannot be bound
like the x-variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .gfq import FqField
from .ppolar import PPolarAlgebra, vec_add, vec_is_zero, vec_scale
from .wittuniv import block_vars, reduce_mod_p, universal_polys, witt_blocks


@dataclass(frozen=True)
class WittVector:
    """Length-n coordinate vector over a p-polar algebra."""

    algebra: PPolarAlgebra
    coords: tuple

    def __post_init__(self):
        if len(self.coords) < 1:
            raise ValueError("length must be >= 1")
        for c in self.coords:
            if len(c) != self.algebra.dim:
                raise ValueError("coordinate dimension mismatch")

    @property
    def length(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return all(vec_is_zero(c) for c in self.coords)

    def to_json(self) -> dict:
        F = self.algebra.field
        return {"coords": [[list(F.coords(a)) for a in c] for c in self.coords]}


def witt(algebra: PPolarAlgebra, coords: Sequence[Sequence[int]]) -> WittVector:
    return WittVector(algebra, tuple(tuple(c) for c in coords))


def w_zero(algebra: PPolarAlgebra, n: int) -> WittVector:
    return WittVector(algebra, tuple(algebra.zero for _ in range(n)))


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


def polar_terms(poly, mu_zero: bool) -> tuple:
    """Compile a mod-p polynomial into terms (coeff, ((var, mult), ...)).

    On a zero-mu algebra every monomial of degree > 1 evaluates to 0, so
    only the linear monomials are kept.
    """
    terms = []
    for exp, c in poly.terms.items():
        if mu_zero and sum(exp) > 1:
            continue
        mono = tuple((name, e) for name, e in zip(poly.vars, exp) if e)
        terms.append((c, mono))
    return tuple(terms)


@lru_cache(maxsize=None)
def _compiled(p: int, n: int, kind: str, mu_zero: bool) -> tuple:
    """Per-level compiled terms of the reduced universal polynomials."""
    return tuple(polar_terms(q, mu_zero) for q in _reduced(p, n, kind))


def eval_polar_poly(A: PPolarAlgebra, terms, binding: dict) -> tuple:
    """Evaluate compiled terms (see `polar_terms`) on A.

    Every monomial's variable list (with multiplicity) is fed to mu_eval;
    the F_p coefficient scales the result inside the prime subfield.
    """
    F = A.field
    out = A.zero
    for c, mono in terms:
        if len(mono) == 1 and mono[0][1] == 1:
            val = binding[mono[0][0]]
        else:
            elems = []
            for name, e in mono:
                elems.extend([binding[name]] * e)
            val = A.mu_eval(elems)
        if vec_is_zero(val):
            continue
        out = vec_add(F, out, vec_scale(F, c % F.p, val))
    return out


def _binding(blocks_to_vectors: dict, n: int) -> dict:
    out = {}
    for block, coords in blocks_to_vectors.items():
        for name, v in zip(block_vars(block, n), coords):
            out[name] = v
    return out


def _check_pair(x: WittVector, y: WittVector):
    if x.algebra is not y.algebra and x.algebra != y.algebra:
        raise ValueError("operands live over different algebras")
    if x.length != y.length:
        raise ValueError("length mismatch")


def w_add(x: WittVector, y: WittVector) -> WittVector:
    _check_pair(x, y)
    A = x.algebra
    n = x.length
    levels = _compiled(A.p, n, "sum", A.mu_is_zero)
    bind = _binding({"x": x.coords, "y": y.coords}, n)
    return WittVector(A, tuple(eval_polar_poly(A, t, bind) for t in levels))


def w_neg(x: WittVector) -> WittVector:
    A = x.algebra
    n = x.length
    levels = _compiled(A.p, n, "neg", A.mu_is_zero)
    bind = _binding({"x": x.coords}, n)
    return WittVector(A, tuple(eval_polar_poly(A, t, bind) for t in levels))


def w_product(xs: Sequence[WittVector]) -> WittVector:
    """The p-polar product of exactly p Witt vectors."""
    if not xs:
        raise ValueError("empty product")
    A = xs[0].algebra
    if len(xs) != A.p:
        raise ValueError(f"product takes exactly p = {A.p} factors")
    for x in xs[1:]:
        _check_pair(xs[0], x)
    n = xs[0].length
    levels = _compiled(A.p, n, "prod", A.mu_is_zero)
    blocks = witt_blocks("prod", A.p)
    bind = _binding({b: x.coords for b, x in zip(blocks, xs)}, n)
    return WittVector(A, tuple(eval_polar_poly(A, t, bind) for t in levels))


def teichmuller(A: PPolarAlgebra, a: Sequence[int], n: int) -> WittVector:
    coords = [tuple(a)] + [A.zero] * (n - 1)
    return WittVector(A, tuple(coords))


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
    A = base_polar(field)
    return WittVector(A, tuple((a,) for a in entries))


def scalar_teich(field: FqField, a: int, n: int) -> WittVector:
    return scalar_witt(field, [a] + [0] * (n - 1))


def scalar_phi(a: WittVector) -> WittVector:
    """Witt Frobenius of the perfect base field: componentwise p-th power."""
    F = a.algebra.field
    return WittVector(a.algebra,
                      tuple((F.frobenius(c[0], 1),) for c in a.coords))


def scalar_phi_inv(a: WittVector) -> WittVector:
    F = a.algebra.field
    return WittVector(a.algebra,
                      tuple((F.frobenius(c[0], -1),) for c in a.coords))


def scalar_mul(a: WittVector, x: WittVector) -> WittVector:
    """Action of W_n(pol(F_q)) on W_n(A) for an algebra A over F_q."""
    A = x.algebra
    if a.algebra != base_polar(A.field):
        raise ValueError("scalar must live over the polarized base field")
    if a.length != x.length:
        raise ValueError("length mismatch")
    n = x.length
    # not eval_polar_poly: the a-variables are F_q scalars multiplied into
    # the coefficient, and only the x-variables are fed to mu
    polys = _reduced(A.p, n, "scalar")
    bind = _binding({"x": x.coords}, n)
    scalars = {name: c[0] for name, c in zip(block_vars("a", n), a.coords)}
    F = A.field
    out = []
    for q in polys:
        acc = A.zero
        a_idx = [i for i, v in enumerate(q.vars) if v.startswith("a")]
        x_idx = [i for i, v in enumerate(q.vars) if not v.startswith("a")]
        for exp, c in q.terms.items():
            coeff = c % F.p
            for i in a_idx:
                if exp[i]:
                    coeff = F.mul(coeff, F.pow(scalars[q.vars[i]], exp[i]))
            if not coeff:
                continue
            elems = []
            for i in x_idx:
                if exp[i]:
                    elems.extend([bind[q.vars[i]]] * exp[i])
            val = A.mu_eval(elems)
            if not vec_is_zero(val):
                acc = vec_add(F, acc, vec_scale(F, coeff, val))
        out.append(acc)
    return WittVector(A, tuple(out))


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
