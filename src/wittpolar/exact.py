"""Exact multivariate polynomials over Z/Q and truncated power series.

Polynomials are immutable and stored sparsely: a tuple of variable names
plus a mapping from exponent tuples to nonzero coefficients (Python ints,
promoted to Fraction only when a division forces it).  Variable names are
a block letter followed by a decimal index ("x0", "y3", "a1"); blocks are
ordered x, y, z, u, v, any others, then the scalar block a, so aligning
two operands is deterministic.  `mul` and `pow` form every product on
exponent tuples and drop nothing.  The Dwork lift (`wittuniv.dwork_lift`)
multiplies packed-integer monomials of its own instead; the ghost round
trip that checks it (`wittuniv.ghost_of_coords`) uses `pow`, so the two
share no product code.  `substitute` can drop every monomial above a total
degree; it builds each binding's powers once and keeps terms bucketed by
total degree so that no product above the bound is formed.

Truncated power series hold Fraction coefficients for degrees 0..D and
discard everything above D in every operation.  D is always explicit.
Composition f(g) forms g^k only where f has a nonzero coefficient (a
p-typical log has one per power of p), sharing repeated squares across
exponents.  Reversion is Newton iteration on that composition, doubling
the precision each step, rather than solving for one coefficient per
composition.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from operator import add
from typing import Mapping, Sequence

#: Exact scalar type: always in lowest terms, denominator > 0.
Rational = Fraction

_BLOCK_RANK = {"x": 0, "y": 1, "z": 2, "u": 3, "v": 4, "a": 6}


def var_key(name: str) -> tuple:
    """Canonical sort key for a variable name (block rank, block, index)."""
    head = name.rstrip("0123456789")
    tail = name[len(head):]
    return (_BLOCK_RANK.get(head, 5), head, int(tail) if tail else -1)


def _norm_coeff(c):
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return int(c)
        return c
    return int(c)


class MultiPoly:
    """Immutable exact multivariate polynomial."""

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, variables: Sequence[str] = (), terms: Mapping | None = None):
        self.vars = tuple(variables)
        clean = {}
        if terms:
            nv = len(self.vars)
            for exp, c in terms.items():
                exp = tuple(exp)
                if len(exp) != nv:
                    raise ValueError("exponent length does not match variables")
                c = _norm_coeff(c)
                if c:
                    clean[exp] = c
        self.terms = clean
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def _trusted(cls, variables: tuple, terms: dict) -> "MultiPoly":
        """The polynomial on `terms` as given, neither copied nor checked:
        exponent tuples of len(variables) mapped to nonzero ints, as the
        Dwork lift builds them."""
        poly = cls()
        poly.vars, poly.terms = variables, terms
        return poly

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls((), {})

    @classmethod
    def const(cls, c) -> "MultiPoly":
        return cls((), {(): c})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        return cls((name,), {(1,): 1})

    @classmethod
    def monomial(cls, variables: Sequence[str], exps: Sequence[int], c=1) -> "MultiPoly":
        return cls(tuple(variables), {tuple(exps): c})

    # -- basic structure ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree_profile(self, names: frozenset) -> set:
        """Set of total degrees, restricted to the given variables, over all terms."""
        flags = [v in names for v in self.vars]
        return {sum(compress(e, flags)) for e in self.terms}

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.vars == other.vars:
            return self.terms == other.terms
        vs, ta, tb = _align(self, other)
        return ta == tb

    def __hash__(self):
        if self._hash is None:
            # hash on a variable-pruned canonical form
            pruned = self.prune_vars()
            self._hash = hash((pruned.vars, frozenset(pruned.terms.items())))
        return self._hash

    def prune_vars(self) -> "MultiPoly":
        """Drop variables that occur in no term (canonicalizes the universe)."""
        if not self.vars:
            return self
        used = [i for i in range(len(self.vars))
                if any(e[i] for e in self.terms)]
        if len(used) == len(self.vars):
            return self
        vs = tuple(self.vars[i] for i in used)
        return MultiPoly(vs, {tuple(e[i] for i in used): c
                              for e, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for exp in sorted(self.terms):
            c = self.terms[exp]
            mono = "*".join(f"{v}^{k}" if k > 1 else v
                            for v, k in zip(self.vars, exp) if k)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(other)
        vs, ta, tb = _align(self, other)
        out = dict(ta)
        for e, c in tb.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MultiPoly(vs, out)

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return MultiPoly(self.vars,
                             {e: c * other for e, c in self.terms.items()})
        return self.mul(other)

    __rmul__ = __mul__

    def mul(self, other: "MultiPoly") -> "MultiPoly":
        """Product over the union of the two variable tuples."""
        vs, ta, tb = _align(self, other)
        out = {}
        for ea, ca in ta.items():
            for eb, cb in tb.items():
                e = tuple(map(add, ea, eb))
                s = out.get(e, 0) + ca * cb
                if s:
                    out[e] = s
                else:
                    del out[e]
        return MultiPoly(vs, out)

    def __pow__(self, k: int):
        return self.pow(k)

    def pow(self, k: int) -> "MultiPoly":
        """self^k by repeated squaring."""
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.const(1)
        base = self
        while k:
            if k & 1:
                result = result.mul(base)
            k >>= 1
            if k:
                base = base.mul(base)
        return result

    # -- named operations --------------------------------------------------

    def substitute(self, bindings: Mapping[str, "MultiPoly"],
                   max_degree: int | None = None) -> "MultiPoly":
        """Substitute a polynomial for every occurring variable, keeping
        only monomials of total degree <= max_degree when it is given.

        Degrees add under products, so dropping a monomial above the bound
        from any power or partial product changes nothing at or below it.
        Each power G^a of a binding is built once, from G^(a-1), and shared
        by every term; polynomials are held in buckets by total degree, so
        bucket pairs whose degrees add up past the bound are never formed.
        """
        occ = [i for i in range(len(self.vars))
               if any(e[i] for e in self.terms)]
        for i in occ:
            if self.vars[i] not in bindings:
                raise ValueError(f"unbound variable {self.vars[i]!r}")
        union = tuple(sorted({v for i in occ
                              for v in bindings[self.vars[i]].vars},
                             key=var_key))
        zero = (0,) * len(union)
        powers = {}
        for i in occ:
            G = {}
            for e, c in _rekey(bindings[self.vars[i]], union).items():
                if max_degree is None or sum(e) <= max_degree:
                    G.setdefault(sum(e), {})[e] = c
            top = max(e[i] for e in self.terms)
            pw = [{0: {zero: 1}}, G]
            while len(pw) <= top and pw[-1]:
                pw.append(_graded_mul(pw[-1], G, max_degree))
            powers[i] = pw
        acc = {}
        for exp, c in self.terms.items():
            term = {0: {zero: c}}
            for i in occ:
                k = exp[i]
                if k:
                    pw = powers[i]
                    term = (_graded_mul(term, pw[k], max_degree)
                            if k < len(pw) else {})
            for t in term.values():
                for e, a in t.items():
                    acc[e] = acc.get(e, 0) + a
        return MultiPoly(union, acc)

    def reduce_mod(self, n: int) -> "MultiPoly":
        """Coefficients reduced into [0, n); requires integer coefficients."""
        out = {}
        for e, c in self.terms.items():
            if not isinstance(c, int):
                raise ValueError("cannot reduce fractional coefficients")
            out[e] = c % n
        return MultiPoly(self.vars, out)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        terms = []
        for e in sorted(self.terms):
            c = Fraction(self.terms[e])
            terms.append({"exp": list(e),
                          "num": str(c.numerator),
                          "den": str(c.denominator)})
        return {"vars": list(self.vars), "terms": terms}


def _align(a: MultiPoly, b: MultiPoly):
    if a.vars == b.vars:
        return a.vars, a.terms, b.terms
    union = tuple(sorted(set(a.vars) | set(b.vars), key=var_key))
    return union, _rekey(a, union), _rekey(b, union)


def _rekey(p: MultiPoly, union: tuple) -> dict:
    pos = {v: i for i, v in enumerate(union)}
    n = len(union)
    out = {}
    for exp, c in p.terms.items():
        e = [0] * n
        for v, k in zip(p.vars, exp):
            if k:
                e[pos[v]] = k
        out[tuple(e)] = c
    return out


def _graded_mul(a: dict, b: dict, max_degree: int | None) -> dict:
    """Product of two bucketed polynomials over one variable tuple."""
    out = {}
    for da, ta in a.items():
        for db, tb in b.items():
            if max_degree is not None and da + db > max_degree:
                continue
            bucket = out.setdefault(da + db, {})
            for ea, ca in ta.items():
                for eb, cb in tb.items():
                    e = tuple(map(add, ea, eb))
                    bucket[e] = bucket.get(e, 0) + ca * cb
    pruned = {d: {e: c for e, c in t.items() if c} for d, t in out.items()}
    return {d: t for d, t in pruned.items() if t}


class TruncSeries:
    """Univariate power series with Fraction coefficients, exact to degree D."""

    __slots__ = ("prec", "coeffs")

    def __init__(self, prec: int, coeffs: Sequence = ()):
        if prec < 1:
            raise ValueError("precision must be positive")
        self.prec = prec
        cs = [Fraction(c) for c in coeffs][:prec + 1]
        cs += [Fraction(0)] * (prec + 1 - len(cs))
        self.coeffs = tuple(cs)

    @classmethod
    def x(cls, prec: int) -> "TruncSeries":
        return cls(prec, [0, 1])

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k <= self.prec else Fraction(0)

    def __eq__(self, other):
        return (isinstance(other, TruncSeries) and self.prec == other.prec
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.prec, self.coeffs))

    def __repr__(self):
        bits = [f"{c}*x^{k}" for k, c in enumerate(self.coeffs) if c]
        return " + ".join(bits) if bits else "0"

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        """self(inner(x)); inner must have zero constant term.

        inner^k is formed only where self[k] != 0, as
        inner^(k - 2^j) * inner^(2^j) with 2^j the top bit of k, and every
        power is kept, so the repeated squares and shared lower parts are
        computed once for all exponents.
        """
        if inner[0] != 0:
            raise ValueError("inner series must vanish at 0")
        D = min(self.prec, inner.prec)
        powers = {1: inner.coeffs}

        def power(k):
            if k not in powers:
                top = 1 << (k.bit_length() - 1)
                low = top // 2 if k == top else k - top
                powers[k] = _series_mul(power(k - low), power(low), D)
            return powers[k]

        acc = [self[0]] + [0] * D
        for k in range(1, D + 1):
            c = self[k]
            if c:
                for i, a in enumerate(power(k)[:D + 1]):
                    if a:
                        acc[i] += c * a
        return TruncSeries(D, acc)

    def reverse(self) -> "TruncSeries":
        """Compositional inverse g with self(g(x)) = x (mod x^(D+1)).

        Newton iteration g <- g - (f(g) - x) / f'(g) (Brent and Kung,
        J. ACM 25(4), 1978), with 1/f'(g) = g' / f(g)'.  If g is right
        through x^k, f(g) - x vanishes through x^k and one step makes g
        right through x^(2k+1), so each step works at about twice the
        precision of the last, starting from g = x.  Requires f(0) = 0 and
        f'(0) = 1.
        """
        if self[0] != 0 or self[1] != 1:
            raise ValueError("reversion needs f(0)=0 and f'(0)=1")
        D = self.prec
        g = [Fraction(0), Fraction(1)]
        k = 1
        while k < D:
            k = min(2 * k + 1, D)
            g += [Fraction(0)] * (k + 1 - len(g))
            h = list(self.compose(TruncSeries(k, g)).coeffs)
            # f(g) - x has valuation >= 2, so 1/f'(g) is needed through x^(k-2)
            inv = _series_mul(_derivative(g),
                              _reciprocal(_derivative(h), k - 2), k - 2)
            h[1] -= 1
            g = [a - b for a, b in zip(g, _series_mul(h, inv, k))]
        return TruncSeries(D, g)

    def support(self) -> list:
        return [k for k, c in enumerate(self.coeffs) if c]


def _series_mul(a: Sequence, b: Sequence, D: int) -> list:
    """Coefficients 0..D of the product of two coefficient sequences."""
    out = [0] * (D + 1)
    nonzero_b = [(j, cb) for j, cb in enumerate(b[:D + 1]) if cb]
    for i, ca in enumerate(a[:D + 1]):
        if ca:
            for j, cb in nonzero_b:
                if i + j > D:
                    break
                out[i + j] += ca * cb
    return out


def _derivative(a: Sequence) -> list:
    return [k * c for k, c in enumerate(a)][1:]


def _reciprocal(a: Sequence, D: int) -> list:
    """Coefficients 0..D of 1/a; a[0] must be nonzero."""
    inv0 = 1 / Fraction(a[0])
    out = [inv0]
    for m in range(1, D + 1):
        s = sum(a[j] * out[m - j] for j in range(1, min(m, len(a) - 1) + 1)
                if a[j])
        out.append(-s * inv0)
    return out
