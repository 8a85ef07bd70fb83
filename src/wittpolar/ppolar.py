"""Finite-dimensional p-polar algebras over GF(q).

A p-polar algebra with basis e_0..e_{d-1} is stored as the symmetric
structure tensor mu: sorted p-multisets of basis indices -> vectors in
F_q^d (absent keys mean zero).  Symmetry is structural, multilinearity is
automatic from the tensor representation, and the permutation-invariance
axiom on (2p-1)-fold products is checked by `check_assoc`.

`mu_p` contracts its p arguments with a kernel table built on its first
call: every ordering of every stored key, under the ordered index
((i_1 d + i_2) d + ...) d + i_p, maps to the key's nonzero entries, so the
table has at most |mu| p! entries.  Each argument contributes only its
coordinates on basis vectors that occur in some key, and the field
arithmetic goes through `FqField.tables`.

Ideal closure (`ideal_generated`), the nilpotence index
(`nilpotence_index`) and the product-length threshold
(`product_length_threshold`) depend only on the algebra and on the
subspace they are asked about.  Each algebra remembers their answers in one
memo, `_ideals`, keyed by the query's kind and the reduced echelon rows of
that subspace (`gfq.rref(field, vectors)[0]`, which is canonical: equal
subspaces give equal keys).  A repeated query returns the stored answer
(the same `PolarIdeal` object for a closure); the function body runs only
on the first one.  A closure is one `rref` (see `ideal_generated`);
thresholds grow their spans in rounds, one `rref` per round, and give None
at the first round equal to the one before (each round depends only on the
previous one, so that is a fixed point).

The threshold of the whole algebra, its product length L, also sits in a
slot that the first `product_length` call fills: W_n(A) evaluates only
polar monomials of vector degree below L (see `wittmod`).  Unital algebras
have no L (None).
"""

from __future__ import annotations

from itertools import combinations_with_replacement, permutations
from typing import Iterable, Sequence

from .gfq import (FqField, additive_map_kernel, combine, echelon_reduce,
                  embed, gf_build, in_span, rref)


class LengthNotAdmissible(ValueError):
    """Product of n elements requested with n != 1 mod (p-1)."""


def vec_is_zero(v: Sequence[int]) -> bool:
    return not any(v)


class PPolarAlgebra:
    """Symmetric p-multilinear structure on F_q^d satisfying (ASSOC)."""

    # `_length` stays unset until `product_length` fills it
    __slots__ = ("field", "p", "dim", "mu", "mu_is_zero", "_length",
                 "_ideals", "_mu_table")

    def __init__(self, field: FqField, dim: int, mu: dict):
        self.field = field
        self.p = p = field.p
        self.dim = dim
        clean = {}
        for key, val in mu.items():
            key = tuple(key)
            if len(key) != p or tuple(sorted(key)) != key:
                raise ValueError(f"mu key {key} must be a sorted p-multiset")
            if any(i < 0 or i >= dim for i in key):
                raise ValueError(f"mu key {key} out of basis range")
            val = tuple(val)
            if len(val) != dim:
                raise ValueError("mu value has wrong dimension")
            if any(val):
                clean[key] = val
        self.mu = clean
        self.mu_is_zero = not clean
        self._ideals = {}     # (query, rref rows) -> answer
        self._mu_table = None  # built by the first mu_p call

    @property
    def zero(self) -> tuple:
        return (0,) * self.dim

    def basis_vector(self, i: int) -> tuple:
        return tuple(1 if j == i else 0 for j in range(self.dim))

    def __eq__(self, other):
        return (isinstance(other, PPolarAlgebra) and self.field == other.field
                and self.dim == other.dim and self.mu == other.mu)

    def __hash__(self):
        return hash((self.field, self.dim, frozenset(self.mu.items())))

    def __repr__(self):
        return f"PPolarAlgebra(p={self.p}, dim={self.dim} over {self.field!r})"

    def mu_basis(self, key: tuple) -> tuple:
        return self.mu.get(tuple(sorted(key)), self.zero)

    def mu_p(self, vecs: Sequence[Sequence[int]]) -> tuple:
        """One application of mu to exactly p vectors: the multilinear
        contraction of their supports with the kernel table."""
        p = self.p
        if len(vecs) != p:
            raise ValueError(f"mu takes exactly {p} arguments")
        if self.mu_is_zero:
            return self.zero
        if self._mu_table is None:
            self._mu_table = self._build_mu_table()
        used, table = self._mu_table
        F = self.field
        q, d = F.q, self.dim
        mt, at = F.tables()
        # (ordered index of the factors' basis vectors so far, coefficient)
        part = [(0, 1)]
        for v in vecs:
            part = [(k * d + i, mt[c * q + v[i]])
                    for k, c in part for i in used if v[i]]
        out = [0] * d
        for k, c in part:
            val = table.get(k)
            if val is None:
                continue
            for j, vj in val:
                t = mt[c * q + vj]
                out[j] = out[j] ^ t if at is None else at[out[j] * q + t]
        return tuple(out)

    def _build_mu_table(self) -> tuple:
        """(used, table): the basis indices occurring in some mu key, and
        the ordered index ((i_1 d + i_2) d + ...) d + i_p -> the nonzero
        (coordinate, value) pairs of mu(e_i1, ..., e_ip), for every ordering
        of every stored key."""
        d = self.dim
        table = {}
        for key, val in self.mu.items():
            entry = tuple((j, vj) for j, vj in enumerate(val) if vj)
            for perm in set(permutations(key)):
                k = 0
                for i in perm:
                    k = k * d + i
                table[k] = entry
        used = tuple(sorted({i for key in self.mu for i in key}))
        return used, table

    def mu_eval(self, elements: Sequence[Sequence[int]]) -> tuple:
        """The unique product of the given elements (left-associative scheme)."""
        n = len(elements)
        p = self.p
        if n < 1 or (n - 1) % (p - 1):
            raise LengthNotAdmissible(
                f"cannot multiply {n} elements in a {p}-polar algebra")
        elements = [tuple(v) for v in elements]
        acc = elements[0] if n == 1 else self.mu_p(elements[:p])
        pos = p
        while pos < n:
            acc = self.mu_p([acc] + elements[pos:pos + p - 1])
            pos += p - 1
        return acc

    def ppow(self, v: Sequence[int], times: int = 1) -> tuple:
        """Iterated p-th power v^(p^times)."""
        for _ in range(times):
            v = self.mu_p([v] * self.p)
        return tuple(v)

    def to_json(self) -> dict:
        F = self.field
        mu = []
        for key in sorted(self.mu):
            val = [list(F.coords(a)) for a in self.mu[key]]
            mu.append({"idx": list(key), "val": val})
        return {"p": self.p, "field": F.to_json(), "dim": self.dim, "mu": mu}

    @classmethod
    def from_json(cls, data: dict) -> "PPolarAlgebra":
        if not isinstance(data, dict) or not isinstance(data.get("field"),
                                                        dict):
            raise ValueError("an algebra is an object with a 'field' object")
        field = FqField.from_json(data["field"])
        if data.get("p", field.p) != field.p:
            raise ValueError("p must equal the field characteristic")
        if type(data.get("dim")) is not int or data["dim"] < 0:
            raise ValueError(f"dim must be a nonnegative int, got "
                             f"{data.get('dim')!r}")
        entries = data.get("mu")
        if not isinstance(entries, list) or not all(
                isinstance(e, dict) and isinstance(e.get("idx"), list)
                and isinstance(e.get("val"), list) for e in entries):
            raise ValueError("mu must be a list of objects with list 'idx' "
                             "and 'val'")
        mu = {}
        for entry in entries:
            if any(type(i) is not int for i in entry["idx"]):
                raise ValueError(f"mu index {entry['idx']!r} is not a list "
                                 f"of ints")
            key = tuple(entry["idx"])
            val = tuple(field.from_coords(c) for c in entry["val"])
            mu[key] = val
        A = cls(field, data["dim"], mu)
        ok, witness = check_assoc(A)
        if not ok:
            raise ValueError(f"mu fails the permutation axiom (ASSOC): "
                             f"{witness}")
        return A


# -- polarization of honest commutative algebras -----------------------------


def bilinear_product(field: FqField, table: Sequence[Sequence[Sequence[int]]],
                     u: Sequence[int], v: Sequence[int]) -> tuple:
    """Product in the commutative algebra given by basis table e_i e_j."""
    terms = [(field.mul(a, b), table[i][j]) for i, a in enumerate(u) if a
             for j, b in enumerate(v) if b]
    if not terms:
        return (0,) * len(table)
    return combine(field, *zip(*terms))


def polarize(field: FqField, table: Sequence[Sequence[Sequence[int]]]) -> PPolarAlgebra:
    """Restrict a commutative associative product to p-fold products.

    `table[i][j]` is the coordinate vector of e_i * e_j.  Symmetry and
    associativity of the input are verified on basis tuples.
    """
    d = len(table)
    table = [[tuple(v) for v in row] for row in table]
    for i in range(d):
        for j in range(d):
            if table[i][j] != table[j][i]:
                raise ValueError(f"input product not symmetric at ({i},{j})")
    for i in range(d):
        for j in range(d):
            for k in range(d):
                left = bilinear_product(field, table, table[i][j],
                                        _unit(d, k))
                right = bilinear_product(field, table, _unit(d, i),
                                         table[j][k])
                if left != right:
                    raise ValueError(
                        f"input product not associative at ({i},{j},{k})")
    p = field.p
    mu = {}
    for key in combinations_with_replacement(range(d), p):
        acc = _unit(d, key[0])
        for i in key[1:]:
            acc = bilinear_product(field, table, acc, _unit(d, i))
        if any(acc):
            mu[key] = acc
    return PPolarAlgebra(field, d, mu)


def _unit(d: int, i: int) -> tuple:
    return tuple(1 if j == i else 0 for j in range(d))


# -- the permutation-invariance axiom ----------------------------------------


def check_assoc(A: PPolarAlgebra):
    """True iff 2p-1-fold products are invariant under all transpositions.

    Products within the first p and last p-1 slots are symmetric by
    construction, so only the transposition across the mu boundary can
    fail; it is checked on all sorted multiset pairs, which generates the
    full symmetric group action.  Returns (ok, witness) where the witness
    is (indices, value, swapped_value) for the first failure.
    """
    p, d = A.p, A.dim
    basis = [A.basis_vector(i) for i in range(d)]

    def g(left: tuple, right: tuple) -> tuple:
        # a zero first argument gives zero without a kernel call
        if left not in A.mu:
            return A.zero
        return A.mu_p([A.mu[left], *[basis[i] for i in right]])

    for left in combinations_with_replacement(range(d), p):
        for right in combinations_with_replacement(range(d), p - 1):
            base = g(left, right)
            # swap the slot-p element with the slot-(p+1) element
            for li in set(left):
                for ri in set(right):
                    if li == ri:
                        continue
                    new_left = tuple(sorted(left[:left.index(li)] +
                                            left[left.index(li) + 1:] + (ri,)))
                    new_right = tuple(sorted(right[:right.index(ri)] +
                                             right[right.index(ri) + 1:] + (li,)))
                    other = g(new_left, new_right)
                    if other != base:
                        return False, ((left, right), base, other)
    return True, None


# -- ideals -------------------------------------------------------------------


class PolarIdeal:
    """F_q-subspace closed under mu(A, ..., A, -), as its `rref` rows."""

    __slots__ = ("algebra", "basis")

    def __init__(self, algebra: PPolarAlgebra, basis: Sequence[Sequence[int]],
                 verify: bool = True):
        self.algebra = algebra
        self.basis = tuple(rref(algebra.field, basis)[0])
        if verify and not self._closed():
            raise ValueError("subspace is not closed under multiplication")

    def _closed(self) -> bool:
        A = self.algebra
        for key in combinations_with_replacement(range(A.dim), A.p - 1):
            outer = [A.basis_vector(i) for i in key]
            for b in self.basis:
                v = A.mu_p(outer + [list(b)])
                if not in_span(A.field, self.basis, v):
                    return False
        return True

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def contains(self, v: Sequence[int]) -> bool:
        return in_span(self.algebra.field, self.basis, v)

    def __eq__(self, other):
        return (isinstance(other, PolarIdeal) and self.algebra == other.algebra
                and self.basis == other.basis)

    def __repr__(self):
        return f"PolarIdeal(dim={self.dim} of {self.algebra!r})"


def ideal_generated(A: PPolarAlgebra, gens: Iterable[Sequence[int]]) -> PolarIdeal:
    """Smallest F_q-subspace containing gens closed under mu(A,..,A,-).

    One round closes it: the span W of the rows b of gens and of every
    mu(e_key, b), key a (p-1)-multiset of basis vectors.  By (ASSOC),
    mu(a_1, .., a_(p-1), mu(b_1, .., b_(p-1), b)) equals
    mu(c, b_2, .., b_(p-1), b) with c = mu(a_1, .., a_(p-1), b_1), and
    expanding c in the basis writes that as a combination of the
    mu(e_key', b), so mu(A, .., A, W) lies in W.  Every algebra satisfies
    (ASSOC): `from_json` and `quotient` check it, and `polarize` (from an
    associative product), `extend_scalars`, `etale.subalgebra`, `samples`
    and `wittmod.base_polar` build only algebras that have it."""
    F = A.field
    rows = rref(F, gens)[0]
    query = ("ideal", tuple(rows))
    memo = A._ideals
    if query in memo:
        return memo[query]
    outer = [[A.basis_vector(i) for i in key] for key in
             combinations_with_replacement(range(A.dim), A.p - 1)]
    rows = rref(F, rows + [A.mu_p(e + [b]) for e in outer for b in rows])[0]
    memo[query] = PolarIdeal(A, rows, verify=False)
    return memo[query]


def polar_power(A: PPolarAlgebra, I: PolarIdeal) -> PolarIdeal:
    """I^p = the ideal generated by mu(I, ..., I)."""
    gens = []
    for key in combinations_with_replacement(range(len(I.basis)), A.p):
        v = A.mu_p([I.basis[i] for i in key])
        if any(v):
            gens.append(v)
    return ideal_generated(A, gens)


def nilpotence_index(A: PPolarAlgebra, I: PolarIdeal):
    """Least s whose s-fold iterated polar power of I vanishes, or None.

    The powers of an ideal form a descending chain of subspaces, so a
    nonzero power that is still nonzero after dim + 1 steps never vanishes.
    """
    query = ("nilpotence", I.basis)
    memo = A._ideals
    if query not in memo:
        memo[query] = None
        cur = I
        for s in range(A.dim + 2):
            if cur.is_zero():
                memo[query] = s
                break
            cur = polar_power(A, cur)
    return memo[query]


def ideal_power_nilpotent(A: PPolarAlgebra, I: PolarIdeal, s: int) -> bool:
    """True iff the s-fold iterated polar power of I vanishes."""
    index = nilpotence_index(A, I)
    return index is not None and index <= s


def nilradical(A: PPolarAlgebra) -> PolarIdeal:
    """All x with x^(p^N) = 0: kernel of the d-fold iterated p-power map.

    The p-power map is additive in characteristic p and F_q-semilinear, so
    its iterated kernel is computed over F_p and stabilizes by iterate d.
    """
    kernel = additive_map_kernel(A.field, lambda v: A.ppow(v, A.dim), A.dim)
    return PolarIdeal(A, kernel, verify=False)


def product_length_threshold(A: PPolarAlgebra, vectors: Sequence[Sequence[int]]):
    """Least L = 1 + j(p-1) such that every product of >= L elements drawn
    from the span of `vectors` vanishes, or None if no such L exists."""
    span = tuple(rref(A.field, vectors)[0])
    query = ("threshold", span)
    memo = A._ideals
    if query not in memo:
        memo[query] = _length_threshold(A, span)
    return memo[query]


def product_length(A: PPolarAlgebra):
    """The threshold of the whole algebra, kept in its `_length` slot: after
    the first call, one slot read."""
    try:
        return A._length
    except AttributeError:
        A._length = product_length_threshold(
            A, [A.basis_vector(i) for i in range(A.dim)])
        return A._length


def _length_threshold(A: PPolarAlgebra, span: tuple):
    """`product_length_threshold` on reduced echelon rows `span`.

    Products of span elements of length 1 + j(p-1) are spanned, by
    multilinearity and scheme independence, by mu applied to span basis
    vectors, so each level is the `rref` of the previous level's rows
    multiplied by every (p-1)-multiset of span rows.  A span that is not
    closed under mu can cycle without reaching a fixed point (g -> g^2 ->
    1 -> g in pol(F_4) over F_2), so the rounds also stop, giving None,
    after (p^(dim + 1) - 1) / (p - 1) + 1 of them.
    """
    if not span:
        return 1
    p = A.p
    cap = (p ** (A.dim + 1) - 1) // (p - 1) + 1
    outer = [[span[i] for i in key] for key in
             combinations_with_replacement(range(len(span)), p - 1)]
    cur = span
    for j in range(1, cap + 1):
        nxt = tuple(rref(A.field, [A.mu_p(vs + [w]) for vs in outer
                                   for w in cur])[0])
        if not nxt:
            return 1 + j * (p - 1)
        if nxt == cur:
            return None
        cur = nxt
    return None


# -- quotients and scalar extension ------------------------------------------


def quotient(A: PPolarAlgebra, I: PolarIdeal):
    """(B, project, lift): the induced structure on A/I.

    The complement of the pivot coordinates gives a section; the induced
    mu is re-validated against (ASSOC).
    """
    F = A.field
    pivots = [next(i for i, c in enumerate(row) if c) for row in I.basis]
    comp = [i for i in range(A.dim) if i not in pivots]
    dB = len(comp)

    def project(v):
        res = echelon_reduce(F, I.basis, v)
        return tuple(res[i] for i in comp)

    def lift(w):
        v = [0] * A.dim
        for c, i in zip(w, comp):
            v[i] = c
        return tuple(v)

    mu = {}
    for key in combinations_with_replacement(range(dB), A.p):
        val = project(A.mu_p([A.basis_vector(comp[i]) for i in key]))
        if any(val):
            mu[key] = val
    B = PPolarAlgebra(F, dB, mu)
    ok, witness = check_assoc(B)
    if not ok:
        raise AssertionError(f"quotient lost associativity: {witness}")
    return B, project, lift


def extend_scalars(A: PPolarAlgebra, t: int) -> PPolarAlgebra:
    """Same structure constants over the degree-t extension field."""
    if t == 1:
        return A
    big = gf_build(A.field.p, A.field.m * t)
    mu = {key: tuple(embed(A.field, big, a) for a in val)
          for key, val in A.mu.items()}
    return PPolarAlgebra(big, A.dim, mu)


# -- free polar monomial bases -------------------------------------------------


def free_polar_basis(p: int, nvars: int, max_blocks: int) -> list:
    """Monomials (as sorted index multisets) of degree 1 + i(p-1), i <= max_blocks,
    in graded-lex order."""
    out = []
    for i in range(max_blocks + 1):
        deg = 1 + i * (p - 1)
        out.extend(combinations_with_replacement(range(nvars), deg))
    return out
