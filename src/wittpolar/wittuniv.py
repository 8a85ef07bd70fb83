"""Universal Witt-operation polynomials via the ghost map and Dwork lifting.

Everything here is exact arithmetic over Z.  The ghost components of a
coordinate block b are

    w_m(b) = sum_{i=0}^{m} p^i * b_i^(p^(m-i)),

and a target sequence of ghost polynomials is lifted back to coordinate
polynomials by the constructive congruence recursion: once
t_m = phi(t_{m-1}) (mod p^m) holds, with phi the substitution v -> v^p on
every generator, the defect D_m = t_m - sum_{i<m} p^i c_i^(p^(m-i)) is
exactly divisible by p^m and c_m = D_m / p^m.  A failed exact division is
the detector for a wrong derivation and is never silently patched.

`dwork_lift` runs that recursion on monomials packed into one Python int
each, a fixed-width bit field per variable, so that multiplying two
monomials is one integer addition.  The width is derived from the degrees
of the targets, large enough that no field ever carries (see its
docstring).  A lift in a monomial quotient evaluates the `kill` predicate
once per distinct monomial and drops the killed keys from every product.

The resulting sum/negation/product/Frobenius/scalar-action polynomials are
certified to lie in the free p-polar ring: every monomial has total degree
congruent to 1 mod p-1 in the Witt-coordinate block, which is what makes
them evaluable on p-polar algebras.

`universal_polys` lifts each family in memory the first time a process
asks for it, checks that certificate, and keeps the result in an
in-process memo.  Nothing is read from or written to disk.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from struct import Struct
from typing import Callable, Sequence

from .exact import IntegralityViolation, MultiPoly, var_key

KINDS = ("sum", "neg", "prod", "frob", "scalar")

_BLOCK_LETTERS = ("x", "y", "z", "u", "v")

FORMAT = "wittpolar/1"


class DworkCongruenceFailed(ValueError):
    """Ghost target failed t_m = phi(t_{m-1}) mod p^m at some level."""

    def __init__(self, level: int, message: str | None = None):
        self.level = level
        super().__init__(message or f"congruence failed at level {level}")


@dataclass(frozen=True)
class UnivWittPoly:
    """One coordinate polynomial of a universal Witt operation."""

    kind: str
    level: int
    p: int
    poly: MultiPoly


def block_vars(block: str, n: int) -> list:
    return [f"{block}{i}" for i in range(n)]


def witt_blocks(kind: str, p: int) -> tuple:
    """Variable block letters that form the Witt-coordinate block."""
    if kind == "sum":
        return ("x", "y")
    if kind in ("neg", "frob", "scalar"):
        return ("x",)
    if kind == "prod":
        return _BLOCK_LETTERS[:p]
    raise ValueError(f"unknown kind {kind!r}")


def ghost_polys(p: int, n: int, block: str = "a") -> tuple:
    """Ghost components w_m = sum_{i<=m} p^i b_i^(p^(m-i)), m = 0..n-1, of
    one coordinate block."""
    from .gfq import _is_prime
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("need at least one component")
    names = tuple(block_vars(block, n))
    return tuple(
        MultiPoly(names, {tuple(p ** (m - i) if k == i else 0
                                for k in range(n)): p ** i
                          for i in range(m + 1)})
        for m in range(n))


def dwork_congruence_holds(p: int, targets: Sequence[MultiPoly],
                           kill: Callable | None = None):
    """Level of the first failed congruence, or None if all hold.

    With `kill`, the congruence is taken in the quotient by the killed
    monomials: the targets and the Frobenius images drop them before the
    comparison.  That quotient carries v -> v^p only if the killed set is
    stable under it, so a target that drops a monomial whose image
    survives fails its level (level 1 for the first target).
    """
    if kill is not None:
        targets = [_modulo(t, kill, p) for t in targets]
    for m in range(1, len(targets)):
        if targets[m - 1] is None or targets[m] is None:
            return m
        frob = targets[m - 1].frobenius_vars(p)
        if kill is not None:
            frob = _modulo(frob, kill)
        if not (targets[m] - frob).divisible_by(p ** m):
            return m
    return None


def _modulo(poly: MultiPoly, kill: Callable, p: int | None = None):
    """poly without its killed monomials; with p, None instead if a killed
    monomial's image under v -> v^p is not killed."""
    kept = {}
    for e, c in poly.terms.items():
        if not kill(e):
            kept[e] = c
        elif p is not None and not kill(tuple(k * p for k in e)):
            return None
    return MultiPoly(poly.vars, kept)


def dwork_lift(p: int, targets: Sequence[MultiPoly], check: bool = True,
               kill: Callable | None = None) -> list:
    """Unique coordinate polynomials c with w(c) = targets.

    With `check`, the congruence is verified first and a violation raises
    DworkCongruenceFailed; the exact division can then never fail.  A
    `kill(exp) -> bool` predicate lifts inside the quotient of Z[vars] by
    the killed monomials, which must form an ideal stable under v -> v^p;
    the targets are reduced modulo that ideal here, so callers pass them
    whole.

    The recursion (powers by squaring, subtraction of p^i times each
    power, exact division by p^m) runs on packed monomials.  Over the
    sorted union of the targets' variables, the exponent tuple e is the
    int sum_i e_i << (w * i), so multiplying two monomials adds their keys.
    The field width w comes from the targets.  With
    B_m = max(deg t_m, p * B_{m-1}), the power c_i^(p^(m-i)) has degree at
    most p^(m-i) * B_i <= B_m, and so has c_m.  Every product formed, the
    squarings inside `power` included, is pw^k with k <= p for a power pw
    kept from level m-1, so no exponent exceeds B = max_m B_m and a field
    of at least B.bit_length() bits never carries into the next; w is the
    least of 8, 16, 32 and 64 bits that holds B, so that one `struct` call
    unpacks a key.  The targets are packed once and each component
    unpacked once, at the end, into a MultiPoly taken as built
    (`MultiPoly._trusted`: its exponents come from the unpacking and its
    coefficients are nonzero exact quotients).  The targets must have
    integer coefficients; a remainder of the division raises
    IntegralityViolation.

    `kill` is called on exponent tuples, once per distinct monomial per
    lift through a dict from key to bool.  Each product drops its killed
    keys when it is complete; coefficients only add, so that leaves the
    same terms as dropping them when they are created.
    """
    if check:
        bad = dwork_congruence_holds(p, targets, kill)
        if bad is not None:
            raise DworkCongruenceFailed(bad)
    names = tuple(sorted({v for t in targets for v in t.vars}, key=var_key))
    bound = 0
    for t in targets:
        bound = max(max(map(sum, t.terms), default=0), p * bound)
    size = 1
    while bound >> (8 * size):
        size *= 2
    fields = Struct(f"<{len(names)}{'BHIQ'[size.bit_length() - 1]}")
    width = 8 * size

    def unpack(key: int) -> tuple:
        return fields.unpack(key.to_bytes(fields.size, "little"))

    killed: dict = {}

    def live(terms: dict) -> dict:
        if kill is None:
            return terms
        out = {}
        for e, c in terms.items():
            k = killed.get(e)
            if k is None:
                k = killed[e] = kill(unpack(e))
            if not k:
                out[e] = c
        return out

    def mul(a: dict, b: dict) -> dict:
        out = {}
        get = out.get
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                s = get(e, 0) + ca * cb
                if s:
                    out[e] = s
                else:
                    del out[e]
        return live(out)

    def power(base: dict, k: int) -> dict:
        result = None
        while k:
            if k & 1:
                result = base if result is None else mul(result, base)
            k >>= 1
            if k:
                base = mul(base, base)
        return result

    comps: list = []
    powers: list = []
    for m, t in enumerate(targets):
        pos = [width * names.index(v) for v in t.vars]
        acc = live({sum(k << s for k, s in zip(e, pos)): c
                    for e, c in t.terms.items()})
        powers = [power(pw, p) for pw in powers]
        for i, pw in enumerate(powers):
            scale = p ** i
            for e, c in pw.items():
                s = acc.get(e, 0) - c * scale
                if s:
                    acc[e] = s
                else:
                    del acc[e]
        q = p ** m
        c = {}
        for e, a in acc.items():
            c[e], r = divmod(a, q)
            if r:
                raise IntegralityViolation(
                    f"coefficient {a} of monomial {unpack(e)} not "
                    f"divisible by {q}")
        comps.append(c)
        powers.append(c)
    return [MultiPoly._trusted(names, {unpack(e): a for e, a in c.items()})
            for c in comps]


def _targets(p: int, n: int, kind: str) -> list:
    if kind == "sum":
        gx = ghost_polys(p, n, "x")
        gy = ghost_polys(p, n, "y")
        return [gx[m] + gy[m] for m in range(n)]
    if kind == "neg":
        gx = ghost_polys(p, n, "x")
        return [-gx[m] for m in range(n)]
    if kind == "prod":
        ghosts = [ghost_polys(p, n, b) for b in witt_blocks("prod", p)]
        out = []
        for m in range(n):
            acc = ghosts[0][m]
            for g in ghosts[1:]:
                acc = acc * g[m]
            out.append(acc)
        return out
    if kind == "frob":
        gx = ghost_polys(p, n + 1, "x")
        return [gx[m + 1] for m in range(n)]
    if kind == "scalar":
        ga = ghost_polys(p, n, "a")
        gx = ghost_polys(p, n, "x")
        return [ga[m] * gx[m] for m in range(n)]
    raise ValueError(f"unknown kind {kind!r}")


def polar_degree_check(upoly: UnivWittPoly) -> bool:
    """Every monomial has Witt-block degree = 1 mod (p-1).

    This is the certificate that the polynomial lives in the free p-polar
    ring and can be evaluated on p-polar algebras; for the scalar action it
    constrains the x-block only.
    """
    p = upoly.p
    if p == 2:
        return True
    blocks = witt_blocks(upoly.kind, p)
    names = frozenset(v for v in upoly.poly.vars
                      if v.rstrip("0123456789") in blocks)
    degs = upoly.poly.degree_profile(names)
    return all(d % (p - 1) == 1 % (p - 1) for d in degs)


def family_to_json(p: int, n: int, kind: str, polys: Sequence[UnivWittPoly]) -> dict:
    return {"format": FORMAT, "p": p, "n": n, "kind": kind,
            "levels": [u.poly.to_json() for u in polys]}


_memo: dict = {}


def universal_polys(p: int, n: int, kind: str) -> list:
    """The universal polynomials for one Witt operation, lifted from their
    ghost targets on the first call for (p, n, kind) in a process and then
    served from an in-process memo."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    from .gfq import _is_prime
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("length must be >= 1")
    if not ((p <= 5 and n <= 2) or (p <= 3 and n <= 4)):
        warnings.warn(f"(p={p}, n={n}) exceeds the desk-scale envelope; "
                      "this may be slow", stacklevel=2)
    key = (p, n, kind)
    if key in _memo:
        return _memo[key]
    comps = dwork_lift(p, _targets(p, n, kind))
    polys = [UnivWittPoly(kind, m, p, c) for m, c in enumerate(comps)]
    for u in polys:
        if not polar_degree_check(u):
            raise AssertionError(
                f"{kind} level {u.level} escaped the free p-polar ring")
    _memo[key] = polys
    return polys


def reduce_mod_p(polys: Sequence[UnivWittPoly]) -> list:
    """Coefficientwise reduction to F_p for evaluation in characteristic p."""
    return [u.poly.reduce_mod(u.p) for u in polys]


def ghost_of_coords(p: int, coords: Sequence[MultiPoly], level: int) -> MultiPoly:
    """w_level evaluated at arbitrary coordinate polynomials."""
    acc = MultiPoly.zero()
    for i in range(level + 1):
        acc = acc + coords[i].pow(p ** (level - i)) * (p ** i)
    return acc
