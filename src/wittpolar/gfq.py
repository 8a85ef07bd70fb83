"""Arithmetic in GF(p^m) plus linear and Frobenius-twisted linear algebra.

Field elements are ints in range(p^m) encoding the little-endian base-p
digit vector of coordinates in the power basis.  The modulus is always the
lexicographically least monic irreducible polynomial of its degree (prime
fields use the x - 0 convention), so every serialized artifact is
reproducible without any table dependency.

A vector over F_q is a tuple of field ints and a matrix is a list of its
rows.  `combine` (sum c_i v_i) is the one place that adds and scales
vectors: `mat_vec`, `rref` and every other module go through it, except
the mu kernel (the straight-line function that `ppolar._compile_mu`
generates for each algebra and `PPolarAlgebra.mu_p` calls), the packed
tables of an algebra over GF(2^m) with at most 256 vectors (which
`wittmod._compile_tables` fills by XOR, each vector an index whose bits are
its F_2 digits) and the polar plans (the straight-line functions that
`wittmod._plan_source` writes for each slot plan and plan key, and
`wittmod.eval_polar_poly` runs: on coordinates, or on those indices with
one XOR per sum).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Callable, Sequence

from . import wire


class FqField:
    """Immutable descriptor of GF(p^m) with element arithmetic."""

    __slots__ = ("p", "m", "q", "modulus", "_mul_table", "_add_table",
                 "_inv_table")

    def __init__(self, p: int, m: int, modulus: Sequence[int]):
        self.p = p
        self.m = m
        self.q = p ** m
        self.modulus = tuple(modulus)
        if not all(0 <= c < p for c in self.modulus):
            raise ValueError(f"field modulus {list(modulus)} has an entry "
                             f"outside [0, {p})")
        if len(self.modulus) != m + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree m")
        self._mul_table = None
        self._add_table = None
        self._inv_table = None

    def __repr__(self):
        return f"GF({self.p}^{self.m})" if self.m > 1 else f"GF({self.p})"

    def __eq__(self, other):
        return (isinstance(other, FqField) and self.p == other.p
                and self.m == other.m and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    # -- encoding -------------------------------------------------------

    def coords(self, a: int) -> tuple:
        """Little-endian base-p digits of a (power-basis coordinates)."""
        p = self.p
        out = []
        for _ in range(self.m):
            a, r = divmod(a, p)
            out.append(r)
        return tuple(out)

    def from_coords(self, cs: Sequence[int]) -> int:
        """The element with digits cs (at most m, each an int in [0, p))."""
        p = self.p
        if not isinstance(cs, (list, tuple)):
            raise ValueError(f"field coordinates must be a list, got {cs!r}")
        if len(cs) > self.m:
            raise ValueError(f"{list(cs)} has more than m = {self.m} digits")
        a = 0
        for c in reversed(cs):
            if type(c) is not int or not 0 <= c < p:
                raise ValueError(f"digit {c!r} of {list(cs)} is not in "
                                 f"[0, {p})")
            a = a * p + c
        return a

    def elements(self):
        return range(self.q)

    @property
    def gen(self) -> int:
        """The power-basis generator x (the element p); 1 for prime fields."""
        return self.p if self.m > 1 else 1

    # -- arithmetic -------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self._add_table is None and self.q <= wire.MAX_TABLE_ORDER:
            self._build_tables()
        if self._add_table is not None:
            return self._add_table[a * self.q + b]
        return self._add_direct(a, b)

    def _add_direct(self, a: int, b: int) -> int:
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.m):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        p = self.p
        if p == 2:
            return a
        out = 0
        mult = 1
        for _ in range(self.m):
            out += (-a % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self._mul_table is None and self.q <= wire.MAX_TABLE_ORDER:
            self._build_tables()
        if self._mul_table is not None:
            return self._mul_table[a * self.q + b]
        return self._mul_direct(a, b)

    def _mul_direct(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        da, db = self.coords(a), self.coords(b)
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    if y:
                        prod[i + j] = (prod[i + j] + x * y) % p
        # reduce modulo the monic modulus
        for k in range(2 * m - 2, m - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for i in range(m):
                    prod[k - m + i] = (prod[k - m + i] - c * self.modulus[i]) % p
        return self.from_coords(prod[:m])

    def _build_tables(self):
        q = self.q
        table = [0] * (q * q)
        for a in range(q):
            row = a * q
            for b in range(a, q):
                v = self._mul_direct(a, b)
                table[row + b] = v
                table[b * q + a] = v
        self._mul_table = table
        if self.p != 2:
            self._add_table = [self._add_direct(a, b)
                               for a in range(q) for b in range(q)]
        inv = [0] * q
        for a in range(1, q):
            inv[a] = self._pow_direct(a, q - 2)
        self._inv_table = inv

    def tables(self) -> tuple:
        """(mul, add), each indexed by a * q + b, for inner loops.

        Up to `wire.MAX_TABLE_ORDER` elements both are lists built once;
        above it each lookup calls `_mul_direct` / `_add_direct`.  For
        p = 2 add is XOR and its table is None.
        """
        if self._mul_table is None:
            q = self.q
            if q > wire.MAX_TABLE_ORDER:
                return (_Computed(self._mul_direct, q),
                        None if self.p == 2 else _Computed(self._add_direct, q))
            self._build_tables()
        return self._mul_table, self._add_table

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            return self.pow(self.inv(a), -k)
        return self._pow_direct(a, k)

    def _pow_direct(self, a: int, k: int) -> int:
        out = 1
        while k:
            if k & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            k >>= 1
        return out

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        if self._inv_table is not None:
            return self._inv_table[a]
        return self._pow_direct(a, self.q - 2)

    def frobenius(self, a: int, k: int = 1) -> int:
        """a^(p^k); negative k is the inverse automorphism (m-cycle)."""
        k %= self.m
        for _ in range(k):
            a = self._pow_direct(a, self.p)
        return a

    def in_prime_field(self, a: int) -> bool:
        return self.frobenius(a, 1) == a

    def to_json(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}

    @classmethod
    def from_json(cls, data: dict) -> "FqField":
        wire.check("field", data)
        f = gf_build(data["p"], data["m"])
        if tuple(data["modulus"]) != f.modulus:
            g = cls(data["p"], data["m"], data["modulus"])
            if not _fp_irreducible(list(g.modulus), g.p):
                raise ValueError(f"modulus {list(g.modulus)} is reducible "
                                 f"over GF({g.p})")
            return g
        return f


class _Computed:
    """An operation table too large to store: entry a * q + b is computed
    on each lookup."""

    __slots__ = ("op", "q")

    def __init__(self, op: Callable, q: int):
        self.op = op
        self.q = q

    def __getitem__(self, k: int) -> int:
        return self.op(*divmod(k, self.q))


# -- field construction ----------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _fp_poly_mod(num: list, den: list, p: int) -> list:
    """Remainder of num by monic den, coefficients mod p (little-endian)."""
    num = [c % p for c in num]
    dd = len(den) - 1
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c:
            num[k] = 0
            for i in range(dd):
                num[k - dd + i] = (num[k - dd + i] - c * den[i]) % p
    out = num[:dd]
    while out and not out[-1]:
        out.pop()
    return out


def _fp_irreducible(poly: list, p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for c in range(p ** d):
            den, v = [], c
            for _ in range(d):
                v, r = divmod(v, p)
                den.append(r)
            den.append(1)
            if not _fp_poly_mod(list(poly), den, p):
                return False
    return True


@lru_cache(maxsize=None)
def gf_build(p: int, m: int) -> FqField:
    """Deterministic field: lexicographically least irreducible modulus."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    if m == 1:
        return FqField(p, 1, (0, 1))
    for c in range(p ** m):
        digits, v = [], c
        for _ in range(m):
            v, r = divmod(v, p)
            digits.append(r)
        poly = digits + [1]
        if _fp_irreducible(poly, p):
            return FqField(p, m, poly)
    raise AssertionError("no irreducible polynomial found")


@lru_cache(maxsize=None)
def embedding(small: FqField, big: FqField) -> tuple:
    """Image of each power-basis element of `small` inside `big`.

    The roots of small's modulus all lie in the unique subfield of the
    right order, which is the kernel of the F_p-linear map
    x -> x^(p^small.m) - x; only those candidates are scanned and the
    least root (in the integer encoding) is chosen, so the embedding is
    deterministic.
    """
    if big.p != small.p or big.m % small.m:
        raise ValueError("no embedding between these fields")
    if small.m == 1:
        root = 0
    else:
        sub_basis = additive_poly_roots(
            big, [big.neg(1)] + [0] * (small.m - 1) + [1])
        root = None
        for (cand,) in span_elements(big, [(b,) for b in sub_basis], big.p):
            acc = 0
            for c in reversed(small.modulus):
                acc = big.add(big.mul(acc, cand), c % big.p)
            if acc == 0 and (root is None or cand < root):
                root = cand
        if root is None:
            raise AssertionError("modulus has no root in the extension")
    return tuple(big.pow(root, i) for i in range(small.m))


def embed(small: FqField, big: FqField, a: int) -> int:
    basis = embedding(small, big)
    out = 0
    for c, b in zip(small.coords(a), basis):
        if c:
            out = big.add(out, big.mul(c, b))
    return out


# -- matrices and kernels ----------------------------------------------------


def combine(field: FqField, coeffs: Sequence[int],
            vectors: Sequence[Sequence[int]]) -> tuple:
    """sum c_i v_i over F_q, the one linear-combination kernel.

    Zero coefficients are skipped; the sum starts from the first nonzero
    term and makes one pass per term through `FqField.tables`.  With every
    coefficient zero it is the zero vector of the length of vectors[0].
    """
    mul, add = field.tables()
    q = field.q
    out = None
    for c, v in zip(coeffs, vectors):
        if not c:
            continue
        cq = c * q
        if out is None:
            out = v if c == 1 else [mul[cq + b] for b in v]
        elif add is None:
            out = [a ^ mul[cq + b] for a, b in zip(out, v)]
        else:
            out = [add[a * q + mul[cq + b]] for a, b in zip(out, v)]
    return (0,) * len(vectors[0]) if out is None else tuple(out)


def mat_vec(field: FqField, rows: Sequence[Sequence[int]],
            v: Sequence[int]) -> tuple:
    """rows . v: the combination of the columns with v's entries."""
    if not rows or not v:
        return (0,) * len(rows)
    return combine(field, v, list(zip(*rows)))


def rref(field: FqField, rows: Sequence[Sequence[int]]):
    """Reduced row echelon form; returns (nonzero rows, pivot column list).

    The one Gaussian elimination: spans, ideal closures, kernels, solves
    and inverses all go through it.  The rows are canonical for their span.
    """
    R = [r for r in rows if any(r)]
    pivots = []
    rank = 0
    ncols = len(R[0]) if R else 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(R)):
            if R[i][col]:
                piv = i
                break
        if piv is None:
            continue
        R[rank], R[piv] = R[piv], R[rank]
        R[rank] = combine(field, (field.inv(R[rank][col]),), (R[rank],))
        for i in range(len(R)):
            if i != rank and R[i][col]:
                R[i] = combine(field, (1, field.neg(R[i][col])),
                               (R[i], R[rank]))
        pivots.append(col)
        rank += 1
        if rank == len(R):
            break
    return R[:rank], pivots


def solve(field: FqField, rows: Sequence[Sequence[int]],
          rhs: Sequence[int]):
    """One x with rows . x = rhs, free variables set to 0, or None if the
    system is inconsistent."""
    ncols = len(rows[0])
    R, pivots = rref(field, [list(r) + [b] for r, b in zip(rows, rhs)])
    if pivots and pivots[-1] == ncols:
        return None
    sol = [0] * ncols
    for r, col in zip(R, pivots):
        sol[col] = r[-1]
    return tuple(sol)


def invert(field: FqField, rows: Sequence[Sequence[int]]) -> list:
    """Rows of the inverse of a square matrix; ValueError if singular."""
    d = len(rows)
    R, pivots = rref(field, [list(r) + [1 if c == i else 0 for c in range(d)]
                             for i, r in enumerate(rows)])
    if pivots != list(range(d)):
        raise ValueError("matrix not invertible")
    return [r[d:] for r in R]


def linear_kernel(field: FqField, rows: Sequence[Sequence[int]]) -> list:
    """Echelon-form basis of the right kernel of the matrix `rows`
    (deterministic)."""
    ncols = len(rows[0]) if rows else 0
    R, pivots = rref(field, rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in zip(R, pivots):
            if r[fc]:
                v[pc] = field.neg(r[fc])
        basis.append(tuple(v))
    return basis


def rank(field: FqField, rows: Sequence[Sequence[int]]) -> int:
    return len(rref(field, rows)[0])


# -- Fp-flattening of additive maps ----------------------------------------


def _flatten(field: FqField, vec: Sequence[int]) -> list:
    out = []
    for a in vec:
        out.extend(field.coords(a))
    return out


def _unflatten(field: FqField, flat: Sequence[int], n: int) -> tuple:
    m = field.m
    return tuple(field.from_coords(flat[i * m:(i + 1) * m]) for i in range(n))


def fp_matrix_of_additive(field: FqField, fn: Callable, n: int) -> list:
    """Rows of the matrix over F_p of an additive map F_q^n -> F_q^n, in
    flat coordinates."""
    dim = n * field.m
    cols = []
    for j in range(n):
        for i in range(field.m):
            v = [0] * n
            v[j] = field.p ** i if field.m > 1 else 1
            cols.append(_flatten(field, fn(tuple(v))))
    return [[cols[c][r] for c in range(dim)] for r in range(dim)]


def additive_map_kernel(field: FqField, fn: Callable, n: int) -> list:
    """F_p-basis (echelon over F_p) of the kernel of an additive map on F_q^n."""
    flat = linear_kernel(gf_build(field.p, 1),
                         fp_matrix_of_additive(field, fn, n))
    return [_unflatten(field, v, n) for v in flat]


def semilinear_kernel(field: FqField, rows: Sequence[Sequence[int]],
                      twist: int) -> list:
    """F_p-basis of the kernel of v -> M . v^(p^twist), M the square matrix
    `rows`.

    The kernel is only an F_p-subspace, so it is computed by flattening
    to F_p-linear algebra of dimension m*n.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")

    def fn(v):
        return mat_vec(field, rows, [field.frobenius(a, twist) for a in v])

    return additive_map_kernel(field, fn, n)


def additive_poly_roots(field: FqField, coeffs: Sequence[int]) -> list:
    """F_p-basis of the root space in `field` of sum_t c_t X^(p^t)."""

    def fn(v):
        x = v[0]
        acc = 0
        for t, c in enumerate(coeffs):
            if c:
                acc = field.add(acc, field.mul(c, field.frobenius(x, t)))
        return (acc,)

    return [v[0] for v in additive_map_kernel(field, fn, 1)]


# -- spans over F_q ----------------------------------------------------------
#
# A span is stored as its reduced echelon rows, `rref(field, vectors)[0]`:
# every row has a leading 1 and the other rows are zero in its pivot
# column, so equal spans have equal rows.  The functions below take rows in
# that form.


def echelon_reduce(field: FqField, rows: Sequence[tuple], v: Sequence[int]):
    """Residue of v against reduced echelon rows (each with a leading 1, as
    `rref` returns them): v minus its pivot entries times their rows."""
    for row in rows:
        f = v[next(i for i, c in enumerate(row) if c)]
        if f:
            v = combine(field, (1, field.neg(f)), (v, row))
    return tuple(v)


def span_elements(field: FqField, basis: Sequence[Sequence[int]],
                  digits: int):
    """Lazily, sum d_i b_i over the basis for every digit tuple (d_i) in
    range(digits)^k but the zero one, in lexicographic digit order (the
    first digit most significant).  With digits = p these are the nonzero
    elements of the F_p-span of an F_p-independent basis, with digits = q
    those of the F_q-span of an F_q-independent one."""
    for ds in product(range(digits), repeat=len(basis)):
        if any(ds):
            yield combine(field, ds, basis)
