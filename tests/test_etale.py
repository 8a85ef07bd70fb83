"""Idempotent splitting, decomposition, geometric points, the 0/1 functor."""

import random
from functools import reduce
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittpolar import samples
from wittpolar.etale import (Decomposition, ExtensionCapExceeded,
                             NotAMorphism, NotReduced, _proper_split,
                             _span_coords, decompose, find_idempotent,
                             geometric_points, hom_check, phi_matrix,
                             split_once, subalgebra)
from wittpolar.gfq import combine, embed, gf_build, rref
from wittpolar.ppolar import check_assoc, extend_scalars, nilradical, quotient
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


# -- decompose against the decomposition that rebuilds every factor -------------


def _rebuilding_decompose(A):
    """The reference: each factor rebuilt from all of B by `subalgebra`, and
    B rebuilt over every new field by `extend_scalars`."""
    N = nilradical(A)
    B, _, _ = quotient(A, N)
    base = A.field
    if B.dim == 0:
        return Decomposition(base, base, 1, N.dim, 0, (), (), (), ())
    ext = 1
    Bx = B
    cap = lcm(*range(1, B.dim + 1)) * max(2, B.dim)
    # factor = echelon rows inside Bx's coordinates
    work = [tuple(rref(Bx.field, [Bx.basis_vector(i)
                                  for i in range(Bx.dim)])[0])]
    done = []
    while work:
        rows = work.pop(0)
        if len(rows) == 1:
            done.append(rows[0])
            continue
        sub = subalgebra(Bx, rows)
        split = _proper_split(sub)
        if split is None:
            t = sub.dim
            if ext * t > cap:
                raise ExtensionCapExceeded(
                    f"still unsplit at extension degree {ext * t}")
            new_ext = ext * t
            newBx = extend_scalars(B, new_ext)
            Fold, Fnew = Bx.field, newBx.field
            lift = lambda row: tuple(embed(Fold, Fnew, a) for a in row)
            work = [tuple(lift(r) for r in rs) for rs in [rows] + work]
            done = [lift(r) for r in done]
            Bx = newBx
            ext = new_ext
            continue
        (ker, ker_rows), (im, im_rows) = split
        # map rows of the sub-coordinates back into Bx coordinates
        for part_rows in (ker_rows, im_rows):
            if not part_rows:
                continue
            back = [combine(Bx.field, pr, rows) for pr in part_rows]
            work.append(tuple(rref(Bx.field, back)[0]))
    factors = sorted(done)
    F = Bx.field
    consts = []
    for v in factors:
        coords = _span_coords(F, [v], Bx.mu_p([v] * Bx.p))
        if coords is None or coords[0] == 0:
            raise AssertionError("factor is not a field polarization")
        consts.append(coords[0])
    # Frobenius of the base field permutes the factor lines
    perm = []
    for v in factors:
        w = tuple(F.frobenius(a, base.m) for a in v)
        perm.append(factors.index(rref(F, [w])[0][0]))
    if sorted(perm) != list(range(len(factors))):
        raise AssertionError("Frobenius does not permute the factors")
    return Decomposition(base, F, ext, N.dim, B.dim, tuple(factors),
                         tuple(consts), tuple(perm), tuple(factors))


# field-extension degrees t per base field: t <= 3 over F_2 and F_3, and
# t <= 2 over F_4 and F_5
FIELD_DEGREES = ((F2, 3), (F3, 3), (F4, 2), (gf_build(5, 1), 2))


@st.composite
def _scrambled_sums(draw):
    F, top = draw(st.sampled_from(FIELD_DEGREES))
    degrees = draw(st.lists(st.integers(1, top), min_size=1, max_size=2))
    parts = [samples.field_ext_polar(F, t) for t in degrees]
    if draw(st.booleans()):
        parts.append(samples.trunc_nil_polar(F, draw(st.integers(2, 3))))
    return samples.scramble(reduce(samples.polar_direct_sum, parts),
                            random.Random(draw(st.integers())))


# two-step extensions to degree 6: F_4 x F_8 over F_2, F_16 x F_64 over F_4
# and F_9 x F_27 over F_3, each with and without a nilpotent summand
TWO_STEP = [
    samples.scramble(reduce(samples.polar_direct_sum, parts),
                     random.Random(seed))
    for seed, parts in enumerate(
        [samples.field_ext_polar(F, 2), samples.field_ext_polar(F, 3)] + nil
        for F in (F2, F4, F3)
        for nil in ([], [samples.trunc_nil_polar(F, 2)]))]


@settings(max_examples=80, deadline=None)
@given(_scrambled_sums())
def test_decompose_matches_the_rebuilding_reference(A):
    assert decompose(A).to_json() == _rebuilding_decompose(A).to_json()


@pytest.mark.parametrize("k", range(len(TWO_STEP)))
def test_two_step_decompose_matches_the_rebuilding_reference(k):
    A = TWO_STEP[k]
    dec = decompose(A)
    assert dec.extension_degree == 6
    assert dec.to_json() == _rebuilding_decompose(A).to_json()
