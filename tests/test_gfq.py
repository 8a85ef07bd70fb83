"""GF(p^m) arithmetic and (semi)linear kernels."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittpolar import samples
from wittpolar.gfq import (additive_poly_roots, combine, echelon_reduce, embed,
                           embedding, gf_build, invert, linear_kernel,
                           mat_vec, rank, rref, semilinear_kernel, solve)


def test_prime_field_convention():
    F2 = gf_build(2, 1)
    assert F2.modulus == (0, 1)
    assert F2.add(1, 1) == 0


def test_f4_modulus_is_least_irreducible():
    F4 = gf_build(2, 2)
    assert F4.modulus == (1, 1, 1)
    g = F4.gen
    assert F4.mul(g, g) == F4.add(g, 1)  # g^2 = g + 1


def test_f9_modulus():
    assert gf_build(3, 2).modulus == (1, 0, 1)  # x^2 + 1


def test_non_prime_rejected():
    with pytest.raises(ValueError):
        gf_build(6, 1)


def test_frobenius_prime_field_fixed():
    F3 = gf_build(3, 1)
    for a in F3.elements():
        assert F3.frobenius(a, 5) == a


def test_frobenius_generator_f4():
    F4 = gf_build(2, 2)
    g = F4.gen
    assert F4.frobenius(g, 1) == F4.add(g, 1)


def test_frobenius_inverse_pair():
    F9 = gf_build(3, 2)
    for a in F9.elements():
        assert F9.frobenius(F9.frobenius(a, 1), -1) == a
    # order m cycle
    assert all(F9.frobenius(a, F9.m) == a for a in F9.elements())


def test_frobenius_is_field_automorphism():
    rng = random.Random(3)
    F8 = gf_build(2, 3)
    for _ in range(40):
        a, b = rng.randrange(8), rng.randrange(8)
        assert F8.frobenius(F8.add(a, b)) == F8.add(F8.frobenius(a),
                                                    F8.frobenius(b))
        assert F8.frobenius(F8.mul(a, b)) == F8.mul(F8.frobenius(a),
                                                    F8.frobenius(b))


def test_field_inverses():
    for F in (gf_build(2, 2), gf_build(3, 2), gf_build(5, 1)):
        for a in range(1, F.q):
            assert F.mul(a, F.inv(a)) == 1


def test_kernel_zero_matrix():
    F2 = gf_build(2, 1)
    assert linear_kernel(F2, [[0, 0, 0]] * 3) == [(1, 0, 0), (0, 1, 0),
                                                  (0, 0, 1)]


def test_kernel_identity():
    F3 = gf_build(3, 1)
    assert linear_kernel(F3, [[1, 0], [0, 1]]) == []


def test_kernel_rank_one():
    F2 = gf_build(2, 1)
    assert linear_kernel(F2, [[1, 1], [0, 0]]) == [(1, 1)]


def test_rank_plus_kernel_dim():
    rng = random.Random(11)
    for F in (gf_build(2, 1), gf_build(3, 1), gf_build(2, 2)):
        for _ in range(15):
            rows = [[rng.randrange(F.q) for _ in range(4)] for _ in range(3)]
            assert rank(F, rows) + len(linear_kernel(F, rows)) == 4


def test_semilinear_identity_twist_trivial_kernel():
    F4 = gf_build(2, 2)
    assert semilinear_kernel(F4, [[1, 0], [0, 1]], 1) == []


def test_semilinear_zero_matrix_full_kernel():
    F4 = gf_build(2, 2)
    # F_p-basis of F_4^2 has dimension m*n = 4
    assert len(semilinear_kernel(F4, [[0, 0], [0, 0]], 1)) == 4


def test_semilinear_rank_nullity_over_fp():
    rng = random.Random(5)
    F9 = gf_build(3, 2)
    for twist in (0, 1):
        for _ in range(10):
            M = [[rng.randrange(9) for _ in range(2)] for _ in range(2)]
            ker = semilinear_kernel(F9, M, twist)
            # the map is F_p-linear on a 4-dimensional F_3-space
            img_rank = 4 - len(ker)
            assert 0 <= img_rank <= 4


def test_additive_poly_x4_minus_x_on_f4():
    F4 = gf_build(2, 2)
    roots = additive_poly_roots(F4, [F4.neg(1), 0, 1])  # x^4 - x
    assert len(roots) == 2  # all of F_4, F_2-dimension 2


def test_additive_poly_frobenius_injective():
    F4 = gf_build(2, 2)
    assert additive_poly_roots(F4, [0, 1]) == []  # x^2 = 0 only at 0


def test_embedding_compatibility():
    F2, F4, F16 = gf_build(2, 1), gf_build(2, 2), gf_build(2, 4)
    for a in F4.elements():
        via = embed(F4, F16, a)
        assert embed(F4, F16, F4.mul(a, a)) == F16.mul(via, via)
    # towers agree on the prime field
    assert embed(F2, F16, 1) == 1
    with pytest.raises(ValueError):
        embedding(gf_build(2, 3), F16)  # 3 does not divide 4


def test_field_json_round_trip():
    F9 = gf_build(3, 2)
    from wittpolar.gfq import FqField
    assert FqField.from_json(F9.to_json()) == F9
    assert F9.to_json() == {"p": 3, "m": 2, "modulus": [1, 0, 1]}


def test_field_json_rejects_reducible_modulus():
    from wittpolar.gfq import FqField
    # x^2 = x * x over GF(2): not a field
    with pytest.raises(ValueError):
        FqField.from_json({"p": 2, "m": 2, "modulus": [0, 0, 1]})
    # x^2 + 1 = (x + 1)^2 over GF(2), x^3 + 1 = (x + 1)(x^2 + x + 1)
    with pytest.raises(ValueError):
        FqField.from_json({"p": 2, "m": 2, "modulus": [1, 0, 1]})
    with pytest.raises(ValueError):
        FqField.from_json({"p": 2, "m": 3, "modulus": [1, 0, 0, 1]})
    # entries outside [0, p) are rejected, not reduced mod p to x + 1 and
    # to GF(4)'s modulus
    with pytest.raises(ValueError):
        FqField.from_json({"p": 2, "m": 1, "modulus": [7, 1]})
    with pytest.raises(ValueError):
        FqField.from_json({"p": 2, "m": 2, "modulus": [1, -1, 1]})
    # a non-canonical irreducible modulus is still accepted
    F8 = FqField.from_json({"p": 2, "m": 3, "modulus": [1, 0, 1, 1]})
    assert F8.modulus == (1, 0, 1, 1) and F8 != gf_build(2, 3)
    assert all(F8.mul(a, F8.inv(a)) == 1 for a in range(1, 8))


def test_field_json_outside_the_envelope_is_refused_by_its_shape():
    from wittpolar.gfq import FqField
    from wittpolar.wire import WireError
    # 2^(2^64) candidate moduli: refused before gf_build runs
    with pytest.raises(WireError, match=r"^field\.m: must be an int in"):
        FqField.from_json({"p": 2, "m": 2 ** 64, "modulus": [0, 1]})
    with pytest.raises(WireError, match="at most 65536 elements"):
        FqField.from_json({"p": 257, "m": 2, "modulus": [3, 0, 1]})
    with pytest.raises(WireError, match="^field: missing key 'modulus'"):
        FqField.from_json({"p": 2, "m": 1})


def test_from_coords_round_trip_and_short_lists():
    F9 = gf_build(3, 2)
    for a in F9.elements():
        assert F9.from_coords(list(F9.coords(a))) == a
        assert F9.from_coords(F9.coords(a)) == a
    assert F9.from_coords([2]) == 2 and F9.from_coords([]) == 0


@pytest.mark.parametrize("cs", [3, "1", None, [1, 1, 1], [0, 2], [-1],
                                [1.0], [True]])
def test_from_coords_rejects_malformed_input(cs):
    # GF(4) has two digits, each in {0, 1}
    with pytest.raises(ValueError):
        gf_build(2, 2).from_coords(cs)


SOLVE_FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2)]


@pytest.mark.parametrize("p,m", SOLVE_FIELDS)
def test_solve_returns_a_solution(p, m):
    F = gf_build(p, m)
    rng = random.Random(100 * p + m)
    for _ in range(30):
        nr, nc = rng.randrange(1, 5), rng.randrange(1, 5)
        M = [[rng.randrange(F.q) for _ in range(nc)] for _ in range(nr)]
        x = tuple(rng.randrange(F.q) for _ in range(nc))
        b = mat_vec(F, M, x)
        sol = solve(F, M, b)
        assert sol is not None and len(sol) == nc
        assert mat_vec(F, M, sol) == b


@pytest.mark.parametrize("p,m", SOLVE_FIELDS)
def test_solve_detects_inconsistent_systems(p, m):
    F = gf_build(p, m)
    rng = random.Random(7 * p + m)
    for _ in range(20):
        nc = rng.randrange(1, 4)
        row = [rng.randrange(F.q) for _ in range(nc)]
        c = rng.randrange(1, F.q)
        # the same row twice with right-hand sides differing by c != 0
        b = rng.randrange(F.q)
        assert solve(F, [row, row], (b, F.add(b, c))) is None
    assert solve(F, [[0, 0]], (1,)) is None


@pytest.mark.parametrize("p,m", SOLVE_FIELDS)
def test_invert_gives_the_inverse(p, m):
    F = gf_build(p, m)
    rng = random.Random(11 * p + m)
    for d in (1, 2, 3, 4):
        for _ in range(10):
            M = [[rng.randrange(F.q) for _ in range(d)] for _ in range(d)]
            if rank(F, M) < d:
                with pytest.raises(ValueError):
                    invert(F, M)
                continue
            Minv = invert(F, M)
            ident = [tuple(1 if i == j else 0 for j in range(d))
                     for i in range(d)]
            # column j of a product X Y is X times column j of Y
            for X, Y in ((M, Minv), (Minv, M)):
                assert [mat_vec(F, X, col) for col in zip(*Y)] == ident


@pytest.mark.parametrize("p,m", SOLVE_FIELDS)
def test_invert_rejects_singular_matrices(p, m):
    F = gf_build(p, m)
    rng = random.Random(13 * p + m)
    for d in (2, 3, 4):
        M = [[rng.randrange(F.q) for _ in range(d)] for _ in range(d - 1)]
        c = rng.randrange(F.q)
        M.append([F.mul(c, a) for a in M[0]])  # a multiple of row 0
        with pytest.raises(ValueError):
            invert(F, M)
    with pytest.raises(ValueError):
        invert(F, [[0]])


# GF(3^6) has more elements than the field tables hold
AXIOM_FIELDS = [gf_build(p, m) for p, m in
                ((2, 1), (2, 2), (3, 1), (3, 2), (5, 2), (3, 4), (3, 6))]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(AXIOM_FIELDS), st.data())
def test_field_axioms_and_tables(F, data):
    a, b, c = (data.draw(st.integers(0, F.q - 1)) for _ in range(3))
    digitwise = F.from_coords([(x + y) % F.p
                               for x, y in zip(F.coords(a), F.coords(b))])
    assert F.add(a, b) == digitwise
    mul, add = F.tables()
    assert mul[a * F.q + b] == F.mul(a, b)
    assert (a ^ b if add is None else add[a * F.q + b]) == digitwise
    assert F.add(a, b) == F.add(b, a) and F.mul(a, b) == F.mul(b, a)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, 0) == a and F.mul(a, 1) == a
    assert F.add(a, F.neg(a)) == 0
    if a:
        assert F.mul(a, F.inv(a)) == 1


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(AXIOM_FIELDS), st.data())
def test_combine_and_mat_vec_match_coordinate_sums(F, data):
    dim, k = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    entry = st.integers(0, F.q - 1)
    vs = [tuple(data.draw(entry) for _ in range(dim)) for _ in range(k)]
    cs = [data.draw(st.one_of(st.sampled_from([0, 1]), entry))
          for _ in range(k)]

    def coordinate_sum(coeffs):
        out = [0] * dim
        for c, v in zip(coeffs, vs):
            for i, b in enumerate(v):
                out[i] = F.add(out[i], F.mul(c, b))
        return tuple(out)

    for coeffs in (cs, [0] * k, [1] * k):
        assert combine(F, coeffs, vs) == coordinate_sum(coeffs)
    # each entry of rows . v is a dot product
    rows = [[data.draw(entry) for _ in range(k)] for _ in range(dim)]
    want = []
    for r in rows:
        s = 0
        for a, b in zip(r, cs):
            s = F.add(s, F.mul(a, b))
        want.append(s)
    assert mat_vec(F, rows, cs) == tuple(want)


def span_set(F, vectors, dim):
    """Every F_q-combination of `vectors`, enumerated as a set.  A vector
    already in the span so far leaves it unchanged and is skipped."""
    out = {(0,) * dim}
    for v in vectors:
        if tuple(v) not in out:
            out = {tuple(F.add(a, F.mul(c, b)) for a, b in zip(s, v))
                   for s in out for c in F.elements()}
    return out


# (field, largest dim enumerated): q^dim <= 256, and GF(3^6) in dim 1 for
# the lookups above the table bound
RREF_FIELDS = [(gf_build(2, 1), 8), (gf_build(3, 1), 5), (gf_build(2, 2), 4),
               (gf_build(3, 2), 2), (gf_build(3, 6), 1)]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(RREF_FIELDS), st.data())
def test_rref_is_the_canonical_span_basis(Fd, data):
    F, max_dim = Fd
    dim = data.draw(st.integers(1, max_dim))
    k = data.draw(st.integers(1, min(dim + 1, 4)))
    entry = st.integers(0, F.q - 1)
    vs = [tuple(data.draw(st.lists(entry, min_size=dim, max_size=dim)))
          for _ in range(k)]
    rows, pivots = rref(F, vs)
    # each row has a leading 1 at its pivot; the other rows are 0 there
    assert len(rows) == len(pivots) and pivots == sorted(set(pivots))
    for r, col in zip(rows, pivots):
        assert r[col] == 1 and not any(r[:col])
        assert all(o[col] == 0 for o in rows if o is not r)
    span = span_set(F, vs, dim)
    assert span_set(F, rows, dim) == span
    # an invertible recombination of the generators has the same rows
    T = samples.random_invertible(random.Random(data.draw(st.integers())),
                                  F, k)
    mixed = list(zip(*(mat_vec(F, T, col) for col in zip(*vs))))
    assert rref(F, mixed) == (rows, pivots)
    # membership and residues agree with the enumerated span
    v = tuple(data.draw(st.lists(entry, min_size=dim, max_size=dim)))
    res = echelon_reduce(F, rows, v)
    assert (not any(res)) == (v in span)
    assert all(res[col] == 0 for col in pivots)
    assert tuple(F.sub(a, b) for a, b in zip(v, res)) in span
