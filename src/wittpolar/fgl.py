"""p-typical formal group laws at fixed truncation and their action on
nilpotents of a p-polar algebra.

A p-typical logarithm keeps coefficients at p-power exponents only; its
compositional inverse is supported on exponents congruent to 1 mod p-1,
which is certified rather than assumed, and is exactly what allows the
induced group law x * y = exp(log x + log y) to be evaluated through the
p-multilinear structure.  On the nilradical the truncated law is exact:
every monomial at or beyond the nilpotency length vanishes identically.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import MultiPoly, TruncSeries
from .gfq import _is_prime, span_elements
from .ppolar import PPolarAlgebra, nilradical, product_length_threshold
from .record import Record
from .wittmod import eval_polar_poly, polar_plan


class NonNilpotentElement(ValueError):
    """Star arguments must come from the nilradical."""


class LawNotPolar(ValueError):
    """Law has a monomial of inadmissible degree."""


class LawNotIntegral(ValueError):
    """Law has a denominator divisible by p."""


class PTypicalLog(Record):
    """log(x) = sum l_i x^(p^i) with l_0 = 1, kept to degree prec; coeffs
    holds the l_i for p^i <= prec."""

    __slots__ = ("p", "prec", "coeffs")

    def __init__(self, p: int, prec: int, coeffs: tuple):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if coeffs[0] != 1:
            raise ValueError("l_0 must be 1")
        top = len(coeffs) - 1
        if p ** top > prec:
            raise ValueError(f"l_{top} sits at degree {p}^{top} = "
                             f"{p ** top}, beyond precision {prec}")
        self._set_fields(p, prec, coeffs)

    def series(self) -> TruncSeries:
        out = [Fraction(0)] * (self.prec + 1)
        for i, l in enumerate(self.coeffs):
            out[self.p ** i] = Fraction(l)
        return TruncSeries(self.prec, out)


def typicalize_log(f: TruncSeries, p: int) -> PTypicalLog:
    """Project a logarithm onto its p-power-exponent coefficients."""
    if f[0] != 0 or f[1] != 1:
        raise ValueError("need f(0)=0 and f'(0)=1")
    coeffs = []
    i = 0
    while p ** i <= f.prec:
        coeffs.append(f[p ** i])
        i += 1
    return PTypicalLog(p, f.prec, tuple(coeffs))


def exp_from_log(log: PTypicalLog) -> TruncSeries:
    return log.series().reverse()


def support_check(s: TruncSeries, p: int):
    """(ok, offenders): nonzero exponents must be = 1 mod (p-1)."""
    offenders = [k for k in s.support() if (k - 1) % (p - 1)]
    return not offenders, offenders


class BivariateLaw(Record):
    """Truncated two-variable law F(x, y) = sum F_ab x^a y^b; terms is the
    sorted tuple of ((a, b), Fraction)."""

    __slots__ = ("p", "prec", "terms")

    def __init__(self, p: int, prec: int, terms: tuple):
        self._set_fields(p, prec, terms)

    def denominator_offenders(self) -> list:
        return [ab for ab, c in self.terms
                if Fraction(c).denominator % self.p == 0]

    def to_json(self) -> dict:
        return {"p": self.p, "precision": self.prec,
                "terms": [{"exp": list(ab),
                           "num": str(Fraction(c).numerator),
                           "den": str(Fraction(c).denominator)}
                          for ab, c in self.terms]}


def group_law(log: PTypicalLog, D: int,
              expf: TruncSeries | None = None) -> BivariateLaw:
    """F(x,y) = exp(log x + log y) truncated beyond total degree D.

    `expf` is `exp_from_log(log)`, for a caller that already has it; it
    must reach precision D.  Certifies the unit laws, symmetry, and that
    every monomial's total degree is admissible (= 1 mod p-1), which makes
    the law evaluable on p-polar algebras.
    """
    p = log.p
    if expf is None:
        # the exp coefficients through D need the log's through D alone
        expf = exp_from_log(log if log.prec >= D
                            else PTypicalLog(p, D, log.coeffs))
    elif expf.prec < D:
        raise ValueError(f"exp known to precision {expf.prec}, law needs {D}")
    u = {}
    for i, l in enumerate(log.coeffs):
        if p ** i <= D:
            u[(p ** i, 0)] = u[(0, p ** i)] = l
    exp_poly = MultiPoly(("x",), {(k,): c for k, c in enumerate(expf.coeffs)
                                  if k <= D})
    F = exp_poly.substitute({"x": MultiPoly(("x", "y"), u)}, D)
    terms = {ab: Fraction(c) for ab, c in F.terms.items()}
    for (a, b), c in terms.items():
        if b == 0 and (a, c) != (1, Fraction(1)):
            raise AssertionError("unit law violated")
        if terms.get((b, a)) != c:
            raise AssertionError("symmetry violated")
        if (a + b - 1) % (p - 1):
            raise AssertionError("law escaped the admissible degrees")
    return BivariateLaw(p, D, tuple(sorted(terms.items())))


def law_associative(law: BivariateLaw) -> bool:
    """F(F(x,y),z) = F(x,F(y,z)) to the law's precision."""
    D = law.prec
    F = MultiPoly(("x", "y"), dict(law.terms))
    x, y, z = (MultiPoly.variable(v) for v in ("x", "y", "z"))
    fyz = F.substitute({"x": y, "y": z})
    left = F.substitute({"x": F, "y": z}, D)
    right = F.substitute({"x": x, "y": fyz}, D)
    return left == right


# -- the group on nilpotents ------------------------------------------------------


class StarGroup:
    """nil(A) with x * y = exp(log x + log y) evaluated through mu."""

    def __init__(self, algebra: PPolarAlgebra, law: BivariateLaw):
        self.algebra = algebra
        self.law = law
        self.nil = nilradical(algebra)
        self.threshold = product_length_threshold(algebra, self.nil)
        if law.p != algebra.p:
            raise LawNotPolar("characteristic mismatch")
        for (a, b), _ in law.terms:
            if (a + b - 1) % (algebra.p - 1):
                raise LawNotPolar(f"monomial degree {a + b} inadmissible")
        if law.denominator_offenders():
            raise LawNotIntegral(
                f"denominators at {law.denominator_offenders()}")
        if self.threshold is None or law.prec < self.threshold - 1:
            raise ValueError("law precision below the nilpotency length")
        p = algebra.p
        modp = {}
        for (a, b), c in law.terms:
            cm = (Fraction(c).numerator * pow(Fraction(c).denominator,
                                              -1, p)) % p
            if cm and a + b < self.threshold:
                modp[(a, b)] = cm
        self.modp_plan = polar_plan(p, [MultiPoly(("x", "y"), modp)],
                                    ("x", "y"))

    def elements(self) -> list:
        F = self.algebra.field
        return [self.algebra.zero, *span_elements(F, self.nil.basis, F.q)]

    def _require_nil(self, v):
        if self.nil.outside([v])[0]:
            raise NonNilpotentElement(f"{v} is not nilpotent")

    def star(self, u, v) -> tuple:
        self._require_nil(u)
        self._require_nil(v)
        return eval_polar_poly(self.algebra, self.modp_plan,
                               (tuple(u), tuple(v)))[0]

    def order(self) -> int:
        return self.algebra.field.q ** self.nil.dim

    def star_multiple(self, v, k: int) -> tuple:
        acc = self.algebra.zero
        for _ in range(k):
            acc = self.star(acc, v)
        return acc

    def element_order(self, v) -> int:
        p = self.algebra.p
        k = 1
        cur = tuple(v)
        while any(cur):
            cur = self.star_multiple(cur, p)
            k *= p
            if k > self.order():
                raise AssertionError("element order exceeded group order")
        return k

    def abelian_invariants(self) -> tuple:
        """Multiset of cyclic orders p^lambda_i, largest first."""
        p = self.algebra.p
        elems = self.elements()
        counts = []
        cur = {tuple(v) for v in elems}
        # c_k = #{x : p^k x = 0}; the jumps give the conjugate partition
        killed = [v for v in cur if not any(v)]
        counts.append(len(killed))
        mult = {tuple(v): tuple(v) for v in cur}
        while counts[-1] < len(elems):
            mult = {v: self.star_multiple(m, p) for v, m in mult.items()}
            counts.append(sum(1 for m in mult.values() if not any(m)))
        heights = []
        for k in range(len(counts) - 1):
            ratio = counts[k + 1] // max(counts[k], 1)
            heights.append(_int_log(ratio, p))
        lam = []
        for k, h in enumerate(heights):
            lam.extend([k + 1] * (h - (heights[k + 1] if k + 1 < len(heights)
                                       else 0)))
        return tuple(sorted((p ** l for l in lam), reverse=True))

    def table(self) -> dict:
        elems = self.elements()
        return {(u, v): self.star(u, v) for u in elems for v in elems}


def _int_log(n: int, p: int) -> int:
    k = 0
    while n > 1:
        n //= p
        k += 1
    return k


def mu_pinfty_group(A: PPolarAlgebra, law: BivariateLaw) -> StarGroup:
    """The p-power-torsion unit group of A through the typicalized law."""
    return StarGroup(A, law)


def multiplicative_log(D: int) -> TruncSeries:
    """log(1+x) to precision D."""
    return TruncSeries(D, [Fraction(0)] + [Fraction((-1) ** (k + 1), k)
                                           for k in range(1, D + 1)])


def additive_log(p: int, D: int) -> PTypicalLog:
    coeffs = [Fraction(1)]
    while p ** len(coeffs) <= D:
        coeffs.append(Fraction(0))
    return PTypicalLog(p, D, tuple(coeffs))
