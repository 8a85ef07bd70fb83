"""Finite-dimensional p-polar algebras over GF(q).

A p-polar algebra with basis e_0..e_{d-1} is stored as the symmetric
structure tensor mu: sorted p-multisets of basis indices -> vectors in
F_q^d (absent keys mean zero).  Symmetry is structural, multilinearity is
automatic from the tensor representation, and the permutation-invariance
axiom on (2p-1)-fold products is checked by `check_assoc`.

`mu_p`, `ppow` and the compiled polar plans of `wittmod` call the
algebra's mu kernel: one straight-line Python function that `_mu_source`
writes from mu and `_compile_mu` builds with `compile()` on the first
call.  The kernel reads only the argument coordinates on basis vectors
that occur in some key.  For each stored key it sums the products of those
coordinates over every distinct ordering of the key (keys that share a
sub-multiset share its partial sum) and adds that sum, times each nonzero
value entry, into the output; the field arithmetic goes through
`FqField.tables`.
`_compile_mu` is a module-level memo keyed by (field, dim, mu), so equal
algebras built apart share one kernel, and each algebra keeps its kernel
in a slot.  How `wittmod`'s plans run on an algebra (their key, their
arguments and the packed tables of a table algebra) is decided there, by
`wittmod._bind`; the algebra only holds that binding and its plans.

Each algebra keeps its ideals in one memo, `_ideals`, keyed by canonical
reduced echelon rows (`gfq.rref(field, vectors)[0]`: equal subspaces give
equal keys), so equal ideals are one `PolarIdeal` object.
`ideal_generated` reduces its generators to their `rref` rows, at most
dim of them, closes those with one more `rref` and returns the memo's
object.  The closure and each level of `product_length_threshold` take
their products from one step, `_products`: mu of every (p-1)-multiset of
some vectors with each of some rows.  Each ideal keeps the answers asked
of it: its product-length threshold (`product_length_threshold`) and its
annihilator K, read by the one membership test, `outside` (v lies in I
exactly when K v = 0).  The nilradical is stored once, as the memo's
object for its rows.  The threshold T of an ideal is the one measure of
its nilpotence: the product length (`product_length`) is T of the unit
ideal, and the nilpotence index (`nilpotence_index`), the least s whose
s-fold iterated polar power vanishes, is the least s with p^s >= T.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from operator import index
from typing import Iterable, Sequence

from . import wire
from .gfq import (FqField, additive_map_kernel, combine, echelon_reduce,
                  embed, gf_build, linear_kernel, rref)


class LengthNotAdmissible(ValueError):
    """Product of n elements requested with n != 1 mod (p-1)."""


class PPolarAlgebra:
    """Symmetric p-multilinear structure on F_q^d satisfying (ASSOC)."""

    __slots__ = ("field", "p", "dim", "mu", "mu_is_zero", "_ideals",
                 "_compiled", "_bound", "_plans")

    def __init__(self, field: FqField, dim: int, mu: dict):
        self.field = field
        self.p = p = field.p
        self.dim = dim
        clean = {}
        for key, val in mu.items():
            # plain ints (`index` raises TypeError for anything else): the
            # mu kernel's source is generated from them
            key = tuple(map(index, key))
            if len(key) != p or tuple(sorted(key)) != key:
                raise ValueError(f"mu key {key} must be a sorted p-multiset")
            if any(i < 0 or i >= dim for i in key):
                raise ValueError(f"mu key {key} out of basis range")
            val = tuple(map(index, val))
            if len(val) != dim:
                raise ValueError("mu value has wrong dimension")
            # the kernel indexes the field tables with these entries
            if any(c < 0 or c >= field.q for c in val):
                raise ValueError(f"mu value {val} has entries outside "
                                 f"range({field.q})")
            if any(val):
                clean[key] = val
        self.mu = clean
        self.mu_is_zero = not clean
        # ("ideal", rref rows) -> that PolarIdeal, ("nilradical",) -> Nil(A)
        self._ideals = {}
        self._compiled = None  # the mu kernel, filled on its first use
        # wittmod's: how its plans run on this algebra, (plan key,
        # arguments), filled on the first evaluation (`wittmod._bind`), and
        # its plans, keyed by (kind, n)
        self._bound = None
        self._plans = {}

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

    def __reduce__(self):
        # copies and pickles rebuild through __init__: the mu kernel,
        # wittmod's binding and plans and the ideals are memos, refilled on
        # first use (the compiled ones do not pickle)
        return type(self), (self.field, self.dim, self.mu)

    def _compiled_mu(self):
        """The compiled mu kernel, from the `_compile_mu` memo on the first
        call and from the `_compiled` slot after."""
        kernel = self._compiled
        if kernel is None:
            kernel = self._compiled = _compile_mu(
                self.field, self.dim, tuple(sorted(self.mu.items())))
        return kernel

    def mu_p(self, vecs: Sequence[Sequence[int]]) -> tuple:
        """One application of mu to exactly p vectors, through the kernel."""
        if len(vecs) != self.p:
            raise ValueError(f"mu takes exactly {self.p} arguments")
        return self._compiled_mu()(*vecs)

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
        """Iterated p-th power v^(p^times), each one call of the kernel."""
        mu, p = self._compiled_mu(), self.p
        for _ in range(times):
            v = mu(*(v,) * p)
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
        wire.check("algebra", data)
        field = FqField.from_json(data["field"])
        mu = {tuple(entry["idx"]): tuple(map(field.from_coords, entry["val"]))
              for entry in data["mu"]}
        A = cls(field, data["dim"], mu)
        ok, witness = check_assoc(A)
        if not ok:
            raise ValueError(f"mu fails the permutation axiom (ASSOC): "
                             f"{witness}")
        return A


def _mu_source(field: FqField, dim: int, mu: tuple) -> str:
    """Python source of the mu kernel for the sorted (key, value) pairs mu.

    `make(mt, at)` returns a function of the p argument vectors v0, v1, ..
    It reads coordinate i of argument k into x{k}_{i}, for each i in some
    key.  For a sorted multiset R of r indices, t(R) is the sum over the
    distinct orderings (i_1, .., i_r) of R of the product of the last r
    arguments' coordinates x{p-r}_{i_1} ... x{p-1}_{i_r}; it is the sum
    over the distinct i in R of x{p-r}_i t(R - i), so keys that share a
    sub-multiset share its sum.  Each key adds t(key) times each nonzero
    value entry into that output coordinate's o{j}.  Products and
    coefficients go through mt[a * q + b], sums through ^ (p = 2) or
    at[a * q + b], one statement each.  Keys and multisets are visited
    sorted and the source holds only integer literals and generated names,
    so equal inputs give equal source.
    """
    p, q = field.p, field.q

    def add(acc: str, term: str) -> str:
        return f"{acc} ^ {term}" if p == 2 else f"at[{acc} * {q} + {term}]"

    used = sorted({i for key, _ in mu for i in key})
    body = [f"x{k}_{i} = v{k}[{i}]" for k in range(p) for i in used]
    sums = {}  # sorted multiset R -> the name holding t(R)

    def t(R: tuple) -> str:
        if len(R) == 1:
            return f"x{p - 1}_{R[0]}"
        if R not in sums:
            k = p - len(R)
            terms = [f"mt[x{k}_{i} * {q} + {t(R[:n] + R[n + 1:])}]"
                     for n, i in enumerate(R) if n == 0 or R[n - 1] != i]
            name = sums[R] = f"t{len(sums)}"
            body.append(f"{name} = {terms[0]}")
            body.extend(f"{name} = {add(name, term)}" for term in terms[1:])
        return sums[R]

    written = set()
    for key, val in mu:
        s = t(key)
        for j, c in enumerate(val):
            if not c:
                continue
            term = s if c == 1 else f"mt[{s} * {q} + {c}]"
            body.append(f"o{j} = {add(f'o{j}', term)}" if j in written
                        else f"o{j} = {term}")
            written.add(j)
    out = "".join(f"o{j}, " if j in written else "0, " for j in range(dim))
    body.append(f"return ({out})")
    args = ", ".join(f"v{k}" for k in range(p))
    return "".join([f"def make(mt, at):\n    def kernel({args}):\n",
                    *[f"        {line}\n" for line in body],
                    "    return kernel\n"])


@lru_cache(maxsize=None)
def _compile_mu(field: FqField, dim: int, mu: tuple):
    """The mu kernel of (field, dim, mu), with mu its sorted (key, value)
    pairs, compiled from `_mu_source` once per process and bound to the
    field tables."""
    namespace = {}
    exec(compile(_mu_source(field, dim, mu), "<mu kernel>", "exec"),
         namespace)
    return namespace["make"](*field.tables())


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
    """True iff 2p-1-fold products are invariant under all permutations.

    Products within the first p and last p-1 slots are symmetric by
    construction, so the axiom says that g(L, R) = mu(mu(e_L), e_R), for
    sorted multisets L of p and R of p-1 basis indices, depends only on
    the union of L and R.  One pass computes each g(L, R) once and compares
    it with the first split of its union.  Returns (ok, witness), where the
    witness is ((L0, R0), g(L0, R0), g(L, R)) for the first split (L, R)
    that differs from its union's first split (L0, R0).
    """
    p, d = A.p, A.dim
    basis = [A.basis_vector(i) for i in range(d)]
    first = {}  # sorted union -> (its first split, that split's product)
    for left in combinations_with_replacement(range(d), p):
        head = A.mu.get(left)
        for right in combinations_with_replacement(range(d), p - 1):
            # a zero first argument gives zero without a kernel call
            value = A.zero if head is None else A.mu_p(
                [head, *[basis[i] for i in right]])
            split, base = first.setdefault(tuple(sorted(left + right)),
                                           ((left, right), value))
            if value != base:
                return False, (split, base, value)
    return True, None


# -- ideals -------------------------------------------------------------------


# an answer an ideal has not yet been asked for
_UNKNOWN = object()


class PolarIdeal:
    """F_q-subspace closed under mu(A, ..., A, -), as its `rref` rows.

    The constructor trusts its rows, and only `_canonical` calls it, with
    the canonical `rref` rows of a closed subspace (from `ideal_generated`,
    `nilradical` and `product_length`); the package does not export the
    class.  Equal ideals of an algebra are one object, so an ideal
    compares and hashes by identity, and it keeps the answers asked of it:
    its product-length threshold and its annihilator (`outside`)."""

    __slots__ = ("algebra", "basis", "_threshold", "_annihilator")

    def __init__(self, algebra: PPolarAlgebra, basis: Sequence[tuple]):
        self.algebra = algebra
        self.basis = tuple(basis)
        self._threshold = _UNKNOWN
        self._annihilator = _UNKNOWN

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def outside(self, vectors: Sequence[Sequence[int]]) -> list:
        """For each of `vectors` in order, whether it lies outside I: the
        one membership test.

        v lies in I exactly when K v = 0, K the annihilator of I (the
        vectors k with k . b = 0 for every row b of I), found once by
        `linear_kernel` and kept on the ideal.  So one `combine` per k, of
        the coordinate columns of all the vectors, tests them all.  When I
        is the whole algebra K is empty and the test does no field work."""
        K = self._annihilator
        if K is _UNKNOWN:
            A = self.algebra
            K = self._annihilator = linear_kernel(A.field,
                                                  [*self.basis, A.zero])
        if not (K and vectors):
            return [False] * len(vectors)
        F, columns = self.algebra.field, list(zip(*vectors))
        return list(map(any, zip(*[combine(F, k, columns) for k in K])))

    def __repr__(self):
        return f"PolarIdeal(dim={self.dim} of {self.algebra!r})"


def ideal_generated(A: PPolarAlgebra, gens: Iterable[Sequence[int]]) -> PolarIdeal:
    """Smallest F_q-subspace containing gens closed under mu(A,..,A,-),
    the memo's object for its rows: the `rref` rows g of the gens, at most
    dim of them, then one `rref` of those rows and of every mu(e_key, g),
    key a (p-1)-multiset of basis vectors (`_products`).

    mu is linear in its last argument, so the rows generate the ideal of
    the gens, and that ideal is the sum of the principal ideals of the
    rows, each closed in one round: by (ASSOC),
    mu(a_1, .., a_(p-1), mu(b_1, .., b_(p-1), g)) equals
    mu(c, b_2, .., b_(p-1), g) with c = mu(a_1, .., a_(p-1), b_1), and
    expanding c in the basis writes that as a combination of the
    mu(e_key', g), so mu(A, .., A, W) lies in W for W the span of g and of
    every mu(e_key, g); and a sum of ideals is an ideal.  Every algebra
    satisfies (ASSOC): `from_json` and `quotient` check it, and `polarize`
    (from an associative product), `extend_scalars`, `etale.subalgebra`,
    `samples` and `wittmod.base_polar` build only algebras that have it."""
    rows = rref(A.field, gens)[0]
    rows += _products(A, [A.basis_vector(i) for i in range(A.dim)], rows)
    return _canonical(A, tuple(rref(A.field, rows)[0]))


def _products(A: PPolarAlgebra, outer: Sequence, rows: Sequence) -> list:
    """mu(v_1, .., v_(p-1), w) for every (p-1)-multiset of `outer` and
    every w in `rows`: the one step of an ideal's closure and of the
    levels of its threshold."""
    return [A.mu_p([*vs, w]) for vs in
            combinations_with_replacement(outer, A.p - 1) for w in rows]


def _canonical(A: PPolarAlgebra, rows: tuple) -> PolarIdeal:
    """The memo's ideal with `rref` rows `rows`, made on the first call."""
    return A._ideals.setdefault(("ideal", rows), PolarIdeal(A, rows))


def nilpotence_index(A: PPolarAlgebra, I: PolarIdeal):
    """Least s whose s-fold iterated polar power of I vanishes, or None.

    By (ASSOC) the s-fold polar power of I is the span of the products of
    p^s elements of I (factors from A regroup into the ideal I), and p^s is
    an admissible length, so it vanishes exactly when p^s reaches the
    product-length threshold T of I: s is the least with p^s >= T.
    """
    T = product_length_threshold(A, I)
    if T is None:
        return None
    s, power = 0, 1
    while power < T:
        s, power = s + 1, power * A.p
    return s


def nilradical(A: PPolarAlgebra) -> PolarIdeal:
    """All x with x^(p^N) = 0: kernel of the d-fold iterated p-power map.

    The p-power map is additive in characteristic p and F_q-semilinear, so
    its iterated kernel is computed over F_p and stabilizes by iterate d.
    The ideal is stored once, as the memo's object for its rows.
    """
    memo = A._ideals
    if ("nilradical",) not in memo:
        kernel = additive_map_kernel(A.field, lambda v: A.ppow(v, A.dim),
                                     A.dim)
        memo["nilradical",] = _canonical(A, tuple(rref(A.field, kernel)[0]))
    return memo["nilradical",]


def product_length_threshold(A: PPolarAlgebra, I: PolarIdeal):
    """Least L = 1 + j(p-1) such that every product of >= L elements of
    the ideal I vanishes, or None if no such L exists.

    Level j, the span of the products of 1 + j(p-1) elements of I, is
    spanned, by multilinearity and scheme independence, by mu applied to
    basis vectors of I, so it is the `rref` of level j-1's rows multiplied
    by every (p-1)-multiset of I's rows (`_products`).  Regrouping p of
    those factors into one element of I (an ideal) writes a level-j
    product as a level-(j-1) one, so the levels descend: within dim + 1
    rounds one is 0 (L found) or equals the one before (a fixed point,
    None).
    """
    T = I._threshold
    if T is _UNKNOWN:
        cur, j = I.basis, 0
        while cur:
            nxt = tuple(rref(A.field, _products(A, I.basis, cur))[0])
            if nxt == cur:
                break
            cur, j = nxt, j + 1
        T = I._threshold = None if cur else 1 + j * (A.p - 1)
    return T


def product_length(A: PPolarAlgebra):
    """The threshold of the unit ideal, whose `rref` rows are the basis:
    the product length L.  W_n(A) evaluates only polar monomials of vector
    degree below L (see `wittmod`).  Unital algebras have no L (None)."""
    unit = _canonical(A, tuple(A.basis_vector(i) for i in range(A.dim)))
    return product_length_threshold(A, unit)


# -- quotients and scalar extension ------------------------------------------


def induced_algebra(A: PPolarAlgebra, vectors: Sequence[Sequence[int]],
                    coords) -> PPolarAlgebra:
    """The structure mu induces on new coordinates: basis vector i is
    vectors[i], and mu of a sorted p-multiset of them is `coords` of A's
    mu of those vectors.  `coords` maps a vector of A to its coordinates on
    `vectors`, and may raise where it has none."""
    mu = {key: coords(A.mu_p([vectors[i] for i in key])) for key in
          combinations_with_replacement(range(len(vectors)), A.p)}
    return PPolarAlgebra(A.field, len(vectors), mu)


def quotient(A: PPolarAlgebra, I: PolarIdeal):
    """(B, project, lift): the induced structure on A/I.

    The complement of the pivot coordinates gives a section; the induced
    mu is re-validated against (ASSOC).
    """
    F = A.field
    pivots = [next(i for i, c in enumerate(row) if c) for row in I.basis]
    comp = [i for i in range(A.dim) if i not in pivots]

    def project(v):
        res = echelon_reduce(F, I.basis, v)
        return tuple(res[i] for i in comp)

    def lift(w):
        v = [0] * A.dim
        for c, i in zip(w, comp):
            v[i] = c
        return tuple(v)

    B = induced_algebra(A, [A.basis_vector(i) for i in comp], project)
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
