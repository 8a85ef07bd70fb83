"""Exact multivariate polynomials over Z/Q and truncated power series.

Polynomials are immutable and stored sparsely: a tuple of variable names
plus a mapping from exponent tuples to nonzero coefficients (Python ints,
promoted to Fraction only when a division forces it).  Variable names are
a block letter followed by a decimal index ("x0", "y3", "a1"); blocks are
canonically ordered x, y, z, u, v before the scalar block a, so aligning
two operands is deterministic.

Truncated power series hold Fraction coefficients for degrees 0..D and
discard everything above D in every operation.  D is always explicit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, Sequence

#: Exact scalar type: always in lowest terms, denominator > 0.
Rational = Fraction

_BLOCK_RANK = {"x": 0, "y": 1, "z": 2, "u": 3, "v": 4, "a": 6}


class IntegralityViolation(ArithmeticError):
    """An exact integer division hit a coefficient it does not divide."""


def var_key(name: str) -> tuple:
    """Canonical sort key for a variable name (block rank, block, index)."""
    head = name.rstrip("0123456789")
    tail = name[len(head):]
    return (_BLOCK_RANK.get(head, 5), head, int(tail) if tail else -1)


def _norm_coeff(c):
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
        idx = [i for i, v in enumerate(self.vars) if v in names]
        return {sum(e[i] for i in idx) for e in self.terms}

    def coefficient(self, exps: Mapping[str, int]):
        """Coefficient of the monomial with the given variable exponents."""
        want = tuple(exps.get(v, 0) for v in self.vars)
        extra = set(exps) - set(self.vars)
        if any(exps[v] for v in extra):
            return 0
        return self.terms.get(want, 0)

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

    def mul(self, other: "MultiPoly", kill: Callable | None = None) -> "MultiPoly":
        """Product; `kill(exp) -> bool` drops monomials at creation.

        A kill predicate is only meaningful when both operands already live
        in the same variable universe.
        """
        vs, ta, tb = _align(self, other)
        out = {}
        for ea, ca in ta.items():
            for eb, cb in tb.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                if kill is not None and kill(e):
                    continue
                s = out.get(e, 0) + ca * cb
                if s:
                    out[e] = s
                else:
                    del out[e]
        return MultiPoly(vs, out)

    def __pow__(self, k: int):
        return self.pow(k)

    def pow(self, k: int, kill: Callable | None = None) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.const(1)
        base = self
        while k:
            if k & 1:
                result = result.mul(base, kill)
            k >>= 1
            if k:
                base = base.mul(base, kill)
        return result

    # -- named operations --------------------------------------------------

    def substitute(self, bindings: Mapping[str, "MultiPoly"],
                   kill: Callable | None = None) -> "MultiPoly":
        """Substitute a polynomial for every occurring variable; `kill`
        drops monomials of every power and product, as in `mul`."""
        occ = [i for i in range(len(self.vars))
               if any(e[i] for e in self.terms)]
        for i in occ:
            if self.vars[i] not in bindings:
                raise ValueError(f"unbound variable {self.vars[i]!r}")
        pow_cache: dict = {}
        acc = MultiPoly.zero()
        for exp, c in self.terms.items():
            term = MultiPoly.const(c)
            for i in occ:
                k = exp[i]
                if not k:
                    continue
                v = self.vars[i]
                pw = pow_cache.get((v, k))
                if pw is None:
                    pw = bindings[v].pow(k, kill)
                    pow_cache[(v, k)] = pw
                term = term.mul(pw, kill)
                if term.is_zero():
                    break
            acc = acc + term
        return acc

    def frobenius_vars(self, p: int) -> "MultiPoly":
        """The lift v -> v^p on every variable (exponent scaling)."""
        return MultiPoly(self.vars,
                         {tuple(k * p for k in e): c
                          for e, c in self.terms.items()})

    def divide_exact_int(self, n: int) -> "MultiPoly":
        """Divide every coefficient exactly by the integer n."""
        if n == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        out = {}
        for e, c in self.terms.items():
            if isinstance(c, int):
                q, r = divmod(c, n)
                if r:
                    raise IntegralityViolation(
                        f"coefficient {c} of monomial {e} not divisible by {n}")
                out[e] = q
            else:
                out[e] = c / n
        return MultiPoly(self.vars, out)

    def reduce_mod(self, n: int) -> "MultiPoly":
        """Coefficients reduced into [0, n); requires integer coefficients."""
        out = {}
        for e, c in self.terms.items():
            if not isinstance(c, int):
                raise ValueError("cannot reduce fractional coefficients")
            out[e] = c % n
        return MultiPoly(self.vars, out)

    def divisible_by(self, n: int) -> bool:
        return all(isinstance(c, int) and c % n == 0
                   for c in self.terms.values())

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        terms = []
        for e in sorted(self.terms):
            c = Fraction(self.terms[e])
            terms.append({"exp": list(e),
                          "num": str(c.numerator),
                          "den": str(c.denominator)})
        return {"vars": list(self.vars), "terms": terms}

    @classmethod
    def from_json(cls, data: dict) -> "MultiPoly":
        terms = {}
        for t in data["terms"]:
            c = Fraction(int(t["num"]), int(t["den"]))
            terms[tuple(t["exp"])] = c
        return cls(tuple(data["vars"]), terms)


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

    def __add__(self, other):
        D = min(self.prec, other.prec)
        return TruncSeries(D, [self[k] + other[k] for k in range(D + 1)])

    def __sub__(self, other):
        D = min(self.prec, other.prec)
        return TruncSeries(D, [self[k] - other[k] for k in range(D + 1)])

    def __neg__(self):
        return TruncSeries(self.prec, [-c for c in self.coeffs])

    def scale(self, c) -> "TruncSeries":
        c = Fraction(c)
        return TruncSeries(self.prec, [c * a for a in self.coeffs])

    def __mul__(self, other):
        D = min(self.prec, other.prec)
        out = [Fraction(0)] * (D + 1)
        for i, a in enumerate(self.coeffs[:D + 1]):
            if not a:
                continue
            for j in range(D + 1 - i):
                b = other[j]
                if b:
                    out[i + j] += a * b
        return TruncSeries(D, out)

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        """self(inner(x)); inner must have zero constant term."""
        if inner[0] != 0:
            raise ValueError("inner series must vanish at 0")
        D = min(self.prec, inner.prec)
        acc = TruncSeries(D, [self[0]])
        power = TruncSeries(D, [1])
        for k in range(1, D + 1):
            power = power * inner
            if power.coeffs == (Fraction(0),) * (D + 1):
                break
            c = self[k]
            if c:
                acc = acc + power.scale(c)
        return acc

    def reverse(self) -> "TruncSeries":
        """Compositional inverse g with self(g(x)) = x (mod x^(D+1)).

        Solved term by term; requires f(0) = 0 and f'(0) = 1.
        """
        if self[0] != 0 or self[1] != 1:
            raise ValueError("reversion needs f(0)=0 and f'(0)=1")
        D = self.prec
        g = [Fraction(0)] * (D + 1)
        g[1] = Fraction(1)
        for k in range(2, D + 1):
            # with g_k still 0, the x^k coefficient of f(g) misses exactly g_k
            comp = self.compose(TruncSeries(D, g))
            g[k] = -comp[k]
        return TruncSeries(D, g)

    def support(self) -> list:
        return [k for k, c in enumerate(self.coeffs) if c]
