"""Idempotent splitting, decomposition, geometric points, the 0/1 functor."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittpolar import samples
from wittpolar.etale import (NotAMorphism, NotReduced, decompose,
                             find_idempotent, geometric_points, hom_check,
                             phi_matrix, split_once)
from wittpolar.gfq import gf_build
from wittpolar.ppolar import check_assoc, nilradical
from wittpolar.verify import brute_point_count

F2 = gf_build(2, 1)
F3 = gf_build(3, 1)
F4 = gf_build(2, 2)


def test_idempotent_worked_example_f4():
    B = samples.field_ext_polar(F2, 2)
    res = find_idempotent(B, y=(0, 1))  # y = g, so j = 2 and e = y + y^2
    assert res.e == (1, 0)              # the unity of F_4
    assert res.extension_degree == 1
    assert res.algebra.ppow(res.e) == res.e


def test_idempotent_split_pair():
    S = samples.split_polar(F2, 2)
    res = find_idempotent(S, y=(1, 0))  # already idempotent: j = 1, e = y
    assert res.e == (1, 0)


def test_idempotent_requires_reduced():
    with pytest.raises(NotReduced):
        find_idempotent(samples.trunc_nil_polar(F2, 4))


def test_idempotent_postcondition_random():
    rng = random.Random(42)
    for _ in range(50):
        field = gf_build(rng.choice([2, 3]), 1)
        parts = [samples.field_ext_polar(field, rng.randrange(1, 3))
                 for _ in range(rng.randrange(1, 3))]
        A = parts[0]
        for part in parts[1:]:
            A = samples.polar_direct_sum(A, part)
        A = samples.scramble(A, rng)
        assert nilradical(A).is_zero()
        res = find_idempotent(A)
        assert any(res.e)
        assert res.algebra.ppow(res.e) == res.e


def test_split_once_unity_gives_trivial_split():
    S = samples.split_polar(F3, 2)
    unity = (1, 1)
    (ker, ker_rows), (im, im_rows) = split_once(S, unity)
    assert ker.dim == 0 and im.dim == 2


def test_split_once_proper():
    S = samples.split_polar(F2, 2)
    (ker, ker_rows), (im, im_rows) = split_once(S, (1, 0))
    assert ker.dim == im.dim == 1
    assert check_assoc(ker)[0] and check_assoc(im)[0]


def test_split_once_rejects_non_idempotent():
    A = samples.trunc_nil_polar(F2, 4)
    with pytest.raises(ValueError):
        split_once(A, (1, 0, 0))


def test_decompose_scrambled_split_algebras():
    rng = random.Random(77)
    for field in (F2, F3, F4):
        for n in (2, 3):
            A = samples.scramble(samples.split_polar(field, n), rng)
            dec = decompose(A)
            assert dec.count == n
            assert dec.extension_degree == 1
            assert dec.frobenius_permutation == tuple(range(n))
            assert all(c != 0 for c in dec.struct_consts)


def test_decompose_quadratic_extension():
    dec = decompose(samples.field_ext_polar(F2, 2))
    assert dec.count == 2
    assert dec.extension_degree == 2
    assert dec.orbits() == ((0, 1),)
    assert dec.frobenius_permutation == (1, 0)


def test_decompose_nilpotent_algebra():
    dec = decompose(samples.trunc_nil_polar(F3, 3))
    assert dec.count == 0 and dec.nil_dim == 2


def test_decompose_cubic_extension_orbit():
    dec = decompose(samples.field_ext_polar(F2, 3))
    assert dec.count == 3
    assert dec.orbits() == ((0, 1, 2),)


def test_decompose_mixed_product():
    A = samples.polar_direct_sum(samples.split_polar(F2, 1),
                                 samples.field_ext_polar(F2, 2))
    dec = decompose(A)
    assert dec.count == 3
    assert sorted(len(o) for o in dec.orbits()) == [1, 2]


def test_geometric_points_examples():
    assert geometric_points(samples.split_polar(F2, 2)) == (2, ((0,), (1,)))
    count, orbits = geometric_points(samples.field_ext_polar(F2, 2))
    assert count == 2 and orbits == ((0, 1),)
    assert geometric_points(samples.trunc_nil_polar(F2, 4))[0] == 0


def test_geometric_points_against_brute_force():
    from wittpolar.ppolar import polarize
    for field in (F2, F3, F4):
        tables = [samples.unital_poly_table(field, 2),
                  samples.unital_poly_table(field, 3),
                  samples.field_ext_table(field, 2),
                  samples.product_table(field,
                                        [samples.field_ext_table(field, 2),
                                         [[(1,)]]])]
        for table in tables:
            A = polarize(field, table)
            assert geometric_points(A)[0] == brute_point_count(field, table)


def test_hom_check():
    assert hom_check(F4, (0, 0, 0))
    assert hom_check(F4, (0, 1, 0))
    assert not hom_check(F4, (1, 1, 0))
    g = F4.gen
    assert not hom_check(F4, (g, 0))


def test_phi_matrix_basics():
    assert phi_matrix(F2, [(1, 0), (0, 1)]) == ((1, 0), (0, 1))
    assert phi_matrix(F2, [(1, 0)]) == ((1, 0),)
    with pytest.raises(NotAMorphism):
        phi_matrix(F4, [(F4.gen, 0)])


def test_phi_functorial_on_random_morphisms():
    rng = random.Random(15)
    F9 = gf_build(3, 2)
    for _ in range(25):
        n, m, k = (rng.randrange(1, 4) for _ in range(3))
        # rows have at most one nonzero prime-field entry
        M = [[0] * m for _ in range(n)]
        for r in range(n):
            if rng.random() < 0.8:
                M[r][rng.randrange(m)] = rng.choice([1, 2])
        N = [[0] * k for _ in range(m)]
        for r in range(m):
            if rng.random() < 0.8:
                N[r][rng.randrange(k)] = rng.choice([1, 2])
        # composite in the row-functional convention is the matrix product
        MN = [[0] * k for _ in range(n)]
        for i in range(n):
            for j in range(k):
                s = 0
                for t in range(m):
                    s = F9.add(s, F9.mul(M[i][t], N[t][j]))
                MN[i][j] = s
        lhs = phi_matrix(F9, MN)
        a, b = phi_matrix(F9, M), phi_matrix(F9, N)
        prod = tuple(tuple(sum(a[i][t] * b[t][j] for t in range(m))
                           for j in range(k)) for i in range(n))
        assert lhs == prod


def test_decompose_dimension_bookkeeping():
    rng = random.Random(88)
    for _ in range(5):
        parts = [samples.field_ext_polar(F2, rng.randrange(1, 4))
                 for _ in range(rng.randrange(1, 3))]
        A = parts[0]
        for part in parts[1:]:
            A = samples.polar_direct_sum(A, part)
        A = samples.scramble(A, rng)
        dec = decompose(A)
        assert dec.count == dec.reduced_dim == A.dim
        assert sorted(len(o) for o in dec.orbits()) == sorted(
            part.dim for part in parts) or sum(
            len(o) for o in dec.orbits()) == A.dim
        # orbit sizes biject with the input field-extension degrees
        assert sorted(len(o) for o in dec.orbits()) == sorted(
            part.dim for part in parts)


# -- decompose does not depend on the basis -------------------------------------


def _invariance_algebras():
    out = [samples.split_polar(F2, 3), samples.split_polar(F3, 2),
           samples.field_ext_polar(F2, 2), samples.field_ext_polar(F2, 3),
           samples.field_ext_polar(F3, 2)]
    for F, part in ((F2, samples.split_polar(F2, 2)),
                    (F2, samples.field_ext_polar(F2, 2)),
                    (F3, samples.field_ext_polar(F3, 2)),
                    (F2, samples.polar_direct_sum(
                        samples.split_polar(F2, 1),
                        samples.field_ext_polar(F2, 2)))):
        out.append(samples.polar_direct_sum(part,
                                            samples.trunc_nil_polar(F, 3)))
    return out


INVARIANCE_ALGEBRAS = _invariance_algebras()


def _invariants(A):
    dec = decompose(A)
    lengths = sorted(len(o) for o in dec.orbits())
    return dec.count, lengths, dec.extension_degree, dec.nil_dim


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(INVARIANCE_ALGEBRAS))), st.integers())
def test_decompose_is_invariant_under_scramble(k, seed):
    A = INVARIANCE_ALGEBRAS[k]
    B = samples.scramble(A, random.Random(seed))
    assert _invariants(B) == _invariants(A)
    # factors are numbered in the order of their rows, which follows the
    # basis; only when every orbit has the same length are the orbits of
    # factor indices themselves fixed
    orbits = decompose(A).orbits()
    if len({len(o) for o in orbits}) <= 1:
        assert decompose(B).orbits() == orbits
