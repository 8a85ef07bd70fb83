"""Reference arithmetic for checking wittpolar, written without importing it.

Witt vectors are computed through integer ghost components.  Every
coordinate is lifted to a torsion-free ring R that maps onto the p-polar
algebra, the operation is applied to the ghost components

    w_m = sum_{i<=m} p^i c_i^(p^(m-i)),

and the coordinates are recovered by the p^m recursion with exact division
before reducing mod p.  The lifts used here:

  * GF(q) lifts to Zq = Z[t]/(f) with f the field modulus lifted to Z;
  * pol(x F_q[x]/(x^N)) lifts to the ideal (x) of Zq[x]/(x^N);
  * pol(F_q^k) lifts to Zq^k with componentwise products;
  * a space with mu = 0 lifts to a square-zero Zq-module.

Field elements use the documented wittpolar encoding: the little-endian
base-p digits of the power-basis coordinates, and the modulus is the
lexicographically least monic irreducible polynomial of its degree.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement, product


# -- GF(p^m) ------------------------------------------------------------------


def _poly_rem(num, den, p):
    """Remainder of num by the monic den over F_p (little-endian lists)."""
    num = [c % p for c in num]
    d = len(den) - 1
    for k in range(len(num) - 1, d - 1, -1):
        c = num[k]
        if c:
            for i in range(d + 1):
                num[k - d + i] = (num[k - d + i] - c * den[i]) % p
    return num[:d]


def _irreducible(poly, p):
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for digits in product(range(p), repeat=d):
            if not any(_poly_rem(list(poly), list(digits) + [1], p)):
                return False
    return True


def least_irreducible(p, m):
    """Lexicographically least monic irreducible of degree m (x for m = 1)."""
    if m == 1:
        return (0, 1)
    for c in range(p ** m):
        digits = [(c // p ** i) % p for i in range(m)]
        if _irreducible(digits + [1], p):
            return tuple(digits + [1])
    raise AssertionError("no irreducible polynomial")


class Field:
    """GF(p^m) on the integer encoding of coordinate digits."""

    def __init__(self, p, m):
        self.p, self.m, self.q = p, m, p ** m
        self.modulus = least_irreducible(p, m)

    def digits(self, a):
        return [(a // self.p ** i) % self.p for i in range(self.m)]

    def from_digits(self, ds):
        a = 0
        for d in reversed(list(ds)):
            a = a * self.p + d % self.p
        return a

    def add(self, a, b):
        return self.from_digits([x + y for x, y in
                                 zip(self.digits(a), self.digits(b))])

    def neg(self, a):
        return self.from_digits([-x for x in self.digits(a)])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        da, db = self.digits(a), self.digits(b)
        prod = [0] * (2 * self.m - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] += x * y
        if self.m == 1:
            return prod[0] % self.p
        return self.from_digits(_poly_rem(prod, list(self.modulus), self.p))

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return next(b for b in range(1, self.q) if self.mul(a, b) == 1)

    def to_json(self):
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}


def vec_add(F, u, v):
    return tuple(F.add(a, b) for a, b in zip(u, v))


def vec_scale(F, c, v):
    return tuple(F.mul(c, a) for a in v)


def mat_inverse(F, M):
    """Inverse of a square matrix over F by Gauss-Jordan, or None."""
    d = len(M)
    aug = [list(M[r]) + [int(c == r) for c in range(d)] for r in range(d)]
    for col in range(d):
        piv = next((r for r in range(col, d) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = F.inv(aug[col][col])
        aug[col] = [F.mul(inv, c) for c in aug[col]]
        for r in range(d):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [F.sub(a, F.mul(f, b)) for a, b in zip(aug[r], aug[col])]
    return [row[d:] for row in aug]


# -- p-polar algebras as multiplication rules -----------------------------------


class Algebra:
    """One of three p-polar algebras on the basis e_0 .. e_(dim-1).

    kind "nil": pol(x F_q[x]/(x^size)) with e_i = x^(i+1); "split":
    pol(F_q^size) with e_i the standard idempotents; "zero": mu = 0.
    """

    def __init__(self, F, dim, kind, size):
        self.F, self.p, self.dim, self.kind, self.size = F, F.p, dim, kind, size

    def mu_tensor(self):
        """Sorted p-multisets of basis indices -> nonzero value vectors."""
        mu = {}
        for key in combinations_with_replacement(range(self.dim), self.p):
            v = self.basis_product(key)
            if any(v):
                mu[key] = v
        return mu

    def basis_product(self, key):
        d = self.dim
        if self.kind == "nil":
            deg = sum(i + 1 for i in key)
            return tuple(int(deg - 1 == j) for j in range(d))
        if self.kind == "split":
            same = all(i == key[0] for i in key)
            return tuple(int(same and j == key[0]) for j in range(d))
        return (0,) * d

    def to_json(self):
        F = self.F
        mu = [{"idx": list(k), "val": [F.digits(a) for a in v]}
              for k, v in sorted(self.mu_tensor().items())]
        return {"format": "wittpolar/1", "p": self.p, "field": F.to_json(),
                "dim": self.dim, "mu": mu}

    def random_vector(self, rng):
        return tuple(rng.randrange(self.F.q) for _ in range(self.dim))


def nil_algebra(F, N):
    """pol(x F_q[x]/(x^N)) on the basis x, .., x^(N-1)."""
    return Algebra(F, N - 1, "nil", N)


def split_algebra(F, k):
    """pol(F_q^k) on the standard idempotents."""
    return Algebra(F, k, "split", k)


def zero_mu_algebra(F, d):
    """A d-dimensional space with mu = 0."""
    return Algebra(F, d, "zero", d)


# -- the torsion-free lifts -------------------------------------------------------


class Zq:
    """Z[t]/(f), f the field modulus lifted to Z: torsion free, onto GF(q)."""

    def __init__(self, F):
        self.F, self.p, self.m = F, F.p, F.m
        self.f = F.modulus
        self.zero = (0,) * self.m

    def lift(self, a):
        return tuple(self.F.digits(a))

    def reduce(self, a):
        return self.F.from_digits(a)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def scale_int(self, a, k):
        return tuple(k * x for x in a)

    def div_int(self, a, k):
        out = []
        for x in a:
            q, r = divmod(x, k)
            if r:
                raise ArithmeticError(f"{x} is not divisible by {k}")
            out.append(q)
        return tuple(out)

    def mul(self, a, b):
        m = self.m
        if m == 1:
            return (a[0] * b[0],)
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        f = self.f
        for k in range(2 * m - 2, m - 1, -1):
            c = prod[k]
            if c:
                for i in range(m):
                    prod[k - m + i] -= c * f[i]
        return tuple(prod[:m])


class Lift:
    """The torsion-free Zq-algebra R over an Algebra; elements are tuples of
    Zq elements, one per basis vector."""

    def __init__(self, alg):
        self.alg, self.p = alg, alg.p
        self.Z = Zq(alg.F)
        self.dim = alg.dim
        self.zero = (self.Z.zero,) * alg.dim

    def lift(self, v):
        return tuple(self.Z.lift(a) for a in v)

    def reduce(self, x):
        return tuple(self.Z.reduce(c) for c in x)

    def add(self, a, b):
        return tuple(self.Z.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(self.Z.sub(x, y) for x, y in zip(a, b))

    def scale_int(self, a, k):
        return tuple(self.Z.scale_int(x, k) for x in a)

    def scale(self, a, c):
        return tuple(self.Z.mul(c, x) for x in a)

    def div_int(self, a, k):
        return tuple(self.Z.div_int(x, k) for x in a)

    def mul(self, a, b):
        kind, Z, d = self.alg.kind, self.Z, self.dim
        if kind == "zero":
            return self.zero
        if kind == "split":
            return tuple(Z.mul(x, y) for x, y in zip(a, b))
        # basis index i is x^(i+1); x^N = 0
        out = [Z.zero] * d
        for i, x in enumerate(a):
            if not any(x):
                continue
            for j in range(d - i - 1):
                y = b[j]
                if any(y):
                    out[i + j + 1] = Z.add(out[i + j + 1], Z.mul(x, y))
        return tuple(out)


def _pow_p(R, x):
    out = x
    for _ in range(R.p - 1):
        out = R.mul(out, x)
    return out


def ghosts(R, coords):
    """w_m = sum_{i<=m} p^i c_i^(p^(m-i)) for lifted coordinates c."""
    p = R.p
    out, powers = [], []
    for c in coords:
        powers = [_pow_p(R, x) for x in powers] + [c]
        acc = powers[0]
        for i, pw in enumerate(powers[1:], 1):
            acc = R.add(acc, R.scale_int(pw, p ** i))
        out.append(acc)
    return out


def unghost(R, ws):
    """Coordinates with the given ghost components, by exact division."""
    p = R.p
    coords, powers = [], []
    for m, w in enumerate(ws):
        powers = [_pow_p(R, x) for x in powers]
        acc = w
        for i, pw in enumerate(powers):
            acc = R.sub(acc, R.scale_int(pw, p ** i))
        c = R.div_int(acc, p ** m)
        coords.append(c)
        powers.append(c)
    return coords


# -- Witt vector operations -------------------------------------------------------


class WittOracle:
    """W_n arithmetic on one Algebra; vectors are tuples of coordinate vectors."""

    def __init__(self, alg):
        self.alg = alg
        self.R = Lift(alg)

    def _ghost(self, x):
        return ghosts(self.R, [self.R.lift(c) for c in x])

    def _back(self, ws):
        return tuple(self.R.reduce(c) for c in unghost(self.R, ws))

    def add(self, x, y):
        R = self.R
        return self._back([R.add(a, b) for a, b in
                           zip(self._ghost(x), self._ghost(y))])

    def neg(self, x):
        R = self.R
        return self._back([R.sub(R.zero, a) for a in self._ghost(x)])

    def product(self, xs):
        R = self.R
        gs = [self._ghost(x) for x in xs]
        out = []
        for m in range(len(xs[0])):
            acc = gs[0][m]
            for g in gs[1:]:
                acc = R.mul(acc, g[m])
            out.append(acc)
        return self._back(out)

    def scalar(self, a, x):
        """a: Witt vector over the base field, as a tuple of field elements."""
        Z = self.R.Z
        ga = ghosts(Z, [Z.lift(c) for c in a])
        return self._back([self.R.scale(w, c)
                           for c, w in zip(ga, self._ghost(x))])

    def frobenius(self, x):
        return self._back(self._ghost(x)[1:])

    def verschiebung(self, x):
        R = self.R
        return self._back([R.zero] + [R.scale_int(w, R.p)
                                      for w in self._ghost(x)])


# -- co-Witt sums ----------------------------------------------------------------


def stable_window(p, N):
    """A window index past which windowed sums on pol(x F_q[x]/(x^N)) are
    constant.

    In the top coordinate S_m of the W_{m+1} sum (or negation), every
    monomial containing a deepest-position variable has degree at least
    p + (p-1)(m-1), and V-compatibility gives S_m(0, x; 0, y) = S_{m-1}(x; y).
    Products of N elements of (x) vanish, so the value stops changing once
    p + (p-1)(m-1) >= N; one window more is taken on top of that.
    """
    m0 = max(0, -(-(N - p) // (p - 1)))
    return m0 + 1


class CoWittOracle:
    """Entries of co-Witt sums and negations on pol(x F_q[x]/(x^N)).

    An element is (tail, exceptions) with exceptions a dict index <= 0 ->
    vector.  The entry of the result at index -n is the last coordinate of
    the W_{M+1} operation on the windows of length M+1 ending at -n.
    """

    def __init__(self, alg, M=None):
        if alg.kind != "nil":
            raise ValueError("co-Witt entries are computed on nil algebras")
        self.W = WittOracle(alg)
        self.M = M if M is not None else stable_window(alg.p, alg.size)

    def _entry(self, op, elems, n):
        M = self.M
        wins = [tuple(e[1].get(-n - M + j, e[0]) for j in range(M + 1))
                for e in elems]
        if op == "sum":
            return self.W.add(*wins)[-1]
        return self.W.neg(*wins)[-1]

    def apply(self, op, elems):
        """(tail, {n: entry at -n for n = 0 .. depth+1})."""
        depth = max([0] + [-i for e in elems for i in e[1]])
        tails = [(e[0], {}) for e in elems]
        tail = self._entry(op, tails, 0)
        return tail, {n: self._entry(op, elems, n) for n in range(depth + 2)}


def nil_valuation(v):
    """x-adic valuation of a vector of pol(x F_q[x]/(x^N)) (None for 0)."""
    return next((i + 1 for i, a in enumerate(v) if a), None)


def min_witness(alg, tail, exceptions):
    """The smallest valid witness (r, s) of a co-Witt element on a nil algebra.

    Every entry is nilpotent, so r = 0 works; the ideal generated by the
    tail and the entries at indices <= 0 has vanishing s-fold polar power
    exactly when v p^s >= N, v the least valuation among those generators.
    """
    vals = [nil_valuation(v) for v in [tail] + list(exceptions.values())]
    vals = [v for v in vals if v is not None]
    if not vals:
        return (0, 0)
    v, s = min(vals), 0
    while v * alg.p ** s < alg.size:
        s += 1
    return (0, s)


# -- hand-worked values --------------------------------------------------------------


def _require(ok, what):
    if not ok:
        raise AssertionError(f"oracle self-check failed: {what}")


def self_check():
    """Check the oracle on hand-worked values; raises AssertionError."""
    F2 = Field(2, 1)
    # W_2(F_2) = Z/4 through (a0, a1) -> a0 + 2 a1
    W = WittOracle(split_algebra(F2, 1))
    to_int = {((a0,), (a1,)): a0 + 2 * a1 for a0 in (0, 1) for a1 in (0, 1)}
    for x, i in to_int.items():
        _require(to_int[W.neg(x)] == (-i) % 4, "W_2(F_2) negation")
        for y, j in to_int.items():
            _require(to_int[W.add(x, y)] == (i + j) % 4, "W_2(F_2) sum")
            _require(to_int[W.product([x, y])] == (i * j) % 4,
                     "W_2(F_2) product")
    # README example over pol(x F_2[x]/(x^4)): (x, 0) + (x, 0) = (0, x^2)
    W = WittOracle(nil_algebra(F2, 4))
    x = ((1, 0, 0), (0, 0, 0))
    _require(W.add(x, x) == ((0, 0, 0), (0, 1, 0)), "README example")
    # GF(4): t^2 + t + 1, and t * t = t + 1
    F4 = Field(2, 2)
    _require(F4.modulus == (1, 1, 1) and F4.mul(2, 2) == 3, "GF(4)")
    # the window bound is past the point where values stop changing
    rng = random.Random(0)
    for F, N in ((F2, 5), (Field(3, 1), 5), (F4, 4)):
        alg = nil_algebra(F, N)
        short, longer = CoWittOracle(alg), CoWittOracle(alg, stable_window(
            F.p, N) + 2)
        for _ in range(3):
            e = (alg.random_vector(rng),
                 {-i: alg.random_vector(rng) for i in range(2)})
            f = (alg.random_vector(rng), {})
            for op, elems in (("sum", [e, f]), ("neg", [e])):
                _require(short.apply(op, elems) == longer.apply(op, elems),
                         "windowed value still changing")


# -- extension fields, scrambles and commutative tables ------------------------------


def poly_mulmod(F, a, b, g):
    """a * b mod the monic g, polynomials over F as little-endian lists."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = F.add(prod[i + j], F.mul(x, y))
    d = len(g) - 1
    for k in range(len(prod) - 1, d - 1, -1):
        c = prod[k]
        if c:
            for i in range(d + 1):
                prod[k - d + i] = F.sub(prod[k - d + i], F.mul(c, g[i]))
    out = prod[:d]
    return out + [0] * (d - len(out))


def irreducible_over(F, t, rng):
    """A random monic irreducible polynomial of degree t over F."""
    while True:
        g = [rng.randrange(F.q) for _ in range(t)] + [1]
        if g[0] and _no_small_factor(F, g):
            return g


def _no_small_factor(F, g):
    """True if g has no monic factor of degree <= deg(g) / 2."""
    t = len(g) - 1
    for d in range(1, t // 2 + 1):
        for digits in product(range(F.q), repeat=d):
            h = list(digits) + [1]
            # remainder of g by h over F
            r = list(g)
            for k in range(len(r) - 1, d - 1, -1):
                c = r[k]
                if c:
                    for i in range(d + 1):
                        r[k - d + i] = F.sub(r[k - d + i], F.mul(c, h[i]))
            if not any(r[:d]):
                return False
    return True


def quotient_table(F, g):
    """Multiplication table of F[u]/(g) on the basis 1, u, .., u^(deg g - 1)."""
    d = len(g) - 1
    basis = [[int(i == j) for j in range(d)] for i in range(d)]
    return [[tuple(poly_mulmod(F, basis[i], basis[j], g)) for j in range(d)]
            for i in range(d)]


def table_product(F, table, u, v):
    d = len(table)
    out = (0,) * d
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            if a and b:
                out = vec_add(F, out, vec_scale(F, F.mul(a, b), table[i][j]))
    return out


def polarize_table(F, table):
    """mu from an honest commutative table: sorted p-multisets -> products."""
    d = len(table)
    mu = {}
    for key in combinations_with_replacement(range(d), F.p):
        acc = tuple(int(j == key[0]) for j in range(d))
        for i in key[1:]:
            acc = table_product(F, table, acc,
                                tuple(int(j == i) for j in range(d)))
        if any(acc):
            mu[key] = acc
    return mu


def scrambled_split_mu(F, k, rng):
    """mu of pol(F_q^k) after a random invertible change of basis."""
    while True:
        T = [[rng.randrange(F.q) for _ in range(k)] for _ in range(k)]
        Tinv = mat_inverse(F, T)
        if Tinv is not None:
            break
    # new basis f_j = sum_i T[i][j] e_i; mu(e_i^p) = e_i on the old basis
    mu = {}
    for key in combinations_with_replacement(range(k), F.p):
        old = [1] * k
        for j in key:
            old = [F.mul(o, T[i][j]) for i, o in enumerate(old)]
        new = [0] * k
        for r in range(k):
            for i in range(k):
                new[r] = F.add(new[r], F.mul(Tinv[r][i], old[i]))
        if any(new):
            mu[key] = tuple(new)
    return mu


def mu_json(F, dim, mu):
    return {"format": "wittpolar/1", "p": F.p, "field": F.to_json(),
            "dim": dim, "mu": [{"idx": list(k), "val": [F.digits(a) for a in v]}
                               for k, v in sorted(mu.items())]}


# -- integer polynomials and bivariate series ---------------------------------------


def eval_poly_json(poly, point):
    """Evaluate a wittpolar/1 polynomial payload at integers; Fraction."""
    vals = [point[v] for v in poly["vars"]]
    acc = Fraction(0)
    for t in poly["terms"]:
        term = Fraction(int(t["num"]), int(t["den"]))
        for v, e in zip(vals, t["exp"]):
            if e:
                term *= v ** e
        acc += term
    return acc


def series_mul(a, b, D):
    """Product of bivariate series {(i, j): Fraction} cut above total degree D."""
    out = {}
    for (i, j), c in a.items():
        for (k, l), d in b.items():
            if i + j + k + l <= D:
                key = (i + k, j + l)
                out[key] = out.get(key, 0) + c * d
    return {k: v for k, v in out.items() if v}


def log_of_law(terms, p, coeffs, D):
    """sum_i l_i F^(p^i) for the law F, cut above total degree D."""
    acc, power, e = {}, dict(terms), 1
    for i, l in enumerate(coeffs):
        while e < p ** i:
            power = series_mul(power, terms, D)
            e += 1
        if e > D:
            break
        for k, v in power.items():
            acc[k] = acc.get(k, 0) + l * v
    return {k: v for k, v in acc.items() if v}


# -- machine-speed calibration --------------------------------------------------------


class Calibration:
    """A fixed piece of pure-Python exact arithmetic whose running time gauges
    the current speed of the machine (see README: reference speed)."""

    def __init__(self):
        alg = nil_algebra(Field(2, 2), 5)
        self.W = WittOracle(alg)
        rng = random.Random(12345)
        self.x = tuple(alg.random_vector(rng) for _ in range(4))
        self.y = tuple(alg.random_vector(rng) for _ in range(4))

    def run(self, reps=3):
        """Seconds for `reps` passes of the fixed task."""
        from time import perf_counter
        t0 = perf_counter()
        for _ in range(reps):
            self.W.add(self.x, self.y)
            self.W.product([self.x, self.y])
        return perf_counter() - t0
