"""Builders for desk-scale commutative algebras and p-polar algebras.

These feed the randomized property suites and the CLI verify command:
truncated polynomial rings, finite field extensions viewed over a base
field, direct products, basis scrambles, and random elements.  Everything
is deterministic given an explicit random.Random instance.
"""

from __future__ import annotations

import random

from .gfq import FqField, embed, gf_build, invert, mat_vec, rank
from .ppolar import PPolarAlgebra, induced_algebra, polarize


def unital_poly_table(field: FqField, N: int) -> list:
    """Multiplication table of F_q[x]/(x^N) on the basis 1, x, .., x^(N-1)."""
    d = N
    table = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            k = i + j
            table[i][j] = tuple(1 if t == k else 0 for t in range(d))
    return table


def nil_poly_table(field: FqField, N: int) -> list:
    """Table of the non-unital x*F_q[x]/(x^N) on the basis x, .., x^(N-1)."""
    d = N - 1
    table = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            # x^(i+1) * x^(j+1) = x^(i+j+2), basis index i+j+1 when < d
            k = i + j + 1
            table[i][j] = tuple(1 if t == k else 0 for t in range(d))
    return table


def trunc_nil_polar(field: FqField, N: int) -> PPolarAlgebra:
    """pol(x F_q[x]/(x^N)), dimension N-1, entirely nilpotent."""
    return polarize(field, nil_poly_table(field, N))


def trivial_polar(field: FqField, d: int) -> PPolarAlgebra:
    """d-dimensional space with mu = 0."""
    return PPolarAlgebra(field, d, {})


def field_ext_table(base: FqField, t: int) -> list:
    """Multiplication table of F_(q^t) as a t-dimensional algebra over F_q.

    Basis: powers of the big field's generator, which has degree exactly t
    over F_q; coordinates are solved through the F_p-linear change of basis.
    """
    if t == 1:
        return [[(1,)]]
    big = gf_build(base.p, base.m * t)
    gamma = big.gen
    # F_p-basis of big as (base coefficient digit) x (gamma power)
    cols = []
    for i in range(t):
        gi = big.pow(gamma, i)
        for j in range(base.m):
            bj = embed(base, big, base.from_coords(
                [1 if s == j else 0 for s in range(base.m)]))
            cols.append(big.coords(big.mul(bj, gi)))
    fp = gf_build(base.p, 1)
    # invert the change of basis once: c = M^-1 * flat(target)
    M = [[cols[c][r] for c in range(len(cols))] for r in range(big.m)]
    Minv = invert(fp, M)

    def to_coords(elt: int) -> tuple:
        sol = mat_vec(fp, Minv, big.coords(elt))
        return tuple(base.from_coords(sol[i * base.m:(i + 1) * base.m])
                     for i in range(t))

    table = [[None] * t for _ in range(t)]
    for i in range(t):
        for j in range(t):
            table[i][j] = to_coords(big.pow(gamma, i + j))
    return table


def field_ext_polar(base: FqField, t: int) -> PPolarAlgebra:
    """pol(F_(q^t)) as a p-polar algebra over F_q."""
    return polarize(base, field_ext_table(base, t))


def product_table(field: FqField, tables: list) -> list:
    """Direct product of commutative algebras given by their tables."""
    dims = [len(t) for t in tables]
    d = sum(dims)
    out = [[tuple(0 for _ in range(d)) for _ in range(d)] for _ in range(d)]
    off = 0
    for t, dt in zip(tables, dims):
        for i in range(dt):
            for j in range(dt):
                val = [0] * d
                for k, c in enumerate(t[i][j]):
                    val[off + k] = c
                out[off + i][off + j] = tuple(val)
        off += dt
    return out


def polar_direct_sum(a: PPolarAlgebra, b: PPolarAlgebra) -> PPolarAlgebra:
    if a.field != b.field:
        raise ValueError("summands must share a field")
    d = a.dim + b.dim
    mu = {}
    for key, val in a.mu.items():
        mu[key] = tuple(val) + (0,) * b.dim
    for key, val in b.mu.items():
        mu[tuple(i + a.dim for i in key)] = (0,) * a.dim + tuple(val)
    return PPolarAlgebra(a.field, d, mu)


def split_polar(field: FqField, n: int) -> PPolarAlgebra:
    """pol(F_q^n): the standard split algebra, mu(e_i,..,e_i) = e_i."""
    mu = {}
    for i in range(n):
        mu[(i,) * field.p] = tuple(1 if j == i else 0 for j in range(n))
    return PPolarAlgebra(field, n, mu)


def random_invertible(rng: random.Random, field: FqField, d: int) -> list:
    while True:
        M = [[rng.randrange(field.q) for _ in range(d)] for _ in range(d)]
        if rank(field, M) == d:
            return M


def scramble(A: PPolarAlgebra, rng: random.Random) -> PPolarAlgebra:
    """Conjugate the structure tensor by a random invertible change of basis."""
    F = A.field
    d = A.dim
    T = random_invertible(rng, F, d)
    Tcols = [tuple(T[r][c] for r in range(d)) for c in range(d)]
    Tinv_rows = invert(F, T)
    return induced_algebra(A, Tcols, lambda v: mat_vec(F, Tinv_rows, v))


def random_vector(rng: random.Random, A: PPolarAlgebra) -> tuple:
    return tuple(rng.randrange(A.field.q) for _ in range(A.dim))


def random_witt(rng: random.Random, A: PPolarAlgebra, n: int):
    from .wittmod import witt
    return witt(A, [random_vector(rng, A) for _ in range(n)])


def random_scalar(rng: random.Random, field: FqField, n: int):
    from .wittmod import scalar_witt
    return scalar_witt(field, [rng.randrange(field.q) for _ in range(n)])
