"""p-polar algebras: polarization, products, (ASSOC), ideals, nilpotence."""

import os
import random
import subprocess
import sys
from itertools import combinations_with_replacement
from itertools import product as iproduct
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittpolar import ppolar, samples
from wittpolar.gfq import combine, echelon_reduce, gf_build, rref
from wittpolar.ppolar import (LengthNotAdmissible, PPolarAlgebra, check_assoc,
                              extend_scalars, free_polar_basis,
                              ideal_generated, nilpotence_index,
                              nilradical, polarize,
                              product_length, product_length_threshold,
                              quotient)

F2 = gf_build(2, 1)
F3 = gf_build(3, 1)
F4 = gf_build(2, 2)


def test_polarize_truncated_cubic_is_zero():
    # x k[x]/(x^3) at p = 3: every 3-fold product hits the truncation
    A = samples.trunc_nil_polar(F3, 3)
    assert A.mu == {}


def test_polarize_prime_field():
    A = polarize(F2, [[(1,)]])
    assert A.mu.get((0, 0), A.zero) == (1,)


def test_polarize_f4_square():
    A = samples.field_ext_polar(F2, 2)
    # basis 1, g with g^2 = g + 1
    assert A.mu.get((1, 1), A.zero) == (1, 1)


def test_polarize_rejects_asymmetric():
    bad = [[(0, 0), (1, 0)], [(0, 1), (0, 0)]]
    with pytest.raises(ValueError, match="symmetric"):
        polarize(F2, bad)


def test_polarize_rejects_nonassociative():
    # e0 e0 = e1, e0 e1 = e0, e1 e1 = 0 is commutative but not associative
    bad = [[(0, 1), (1, 0)], [(1, 0), (0, 0)]]
    with pytest.raises(ValueError, match="associative"):
        polarize(F2, bad)


def test_mu_eval_single_element():
    A = samples.trunc_nil_polar(F2, 4)
    v = (1, 0, 1)
    assert A.mu_eval([v]) == v


def test_mu_eval_inadmissible_length():
    A = samples.trunc_nil_polar(F3, 3)
    with pytest.raises(LengthNotAdmissible):
        A.mu_eval([(1, 0)] * 4)  # 4 != 1 mod 2


def test_mu_eval_power_in_quotient_ring():
    # p = 3, five factors of x inside x F_3[x]/(x^6): expect x^5
    A = samples.trunc_nil_polar(F3, 6)
    x = A.basis_vector(0)
    assert A.mu_eval([x] * 5) == A.basis_vector(4)


def test_check_assoc_accepts_polarizations():
    rng = random.Random(1)
    pool = [samples.trunc_nil_polar(F2, 4), samples.field_ext_polar(F2, 2),
            samples.field_ext_polar(F3, 2), samples.split_polar(F3, 2),
            samples.scramble(samples.split_polar(F2, 3), rng)]
    for A in pool:
        ok, witness = check_assoc(A)
        assert ok, witness


def test_check_assoc_rejects_spec_counterexample():
    # mu(e0,e0) = e1, mu(e0,e1) = e0, mu(e1,e1) = 0 breaks (ASSOC)
    A = PPolarAlgebra(F2, 2, {(0, 0): (0, 1), (0, 1): (1, 0)})
    ok, witness = check_assoc(A)
    # the union {0, 0, 1}: ((0, 0), (1,)) gives mu(e1, e1) = 0 first, and
    # ((0, 1), (0,)) gives mu(e0, e0) = e1
    assert not ok and witness == (((0, 0), (1,)), (0, 0), (0, 1))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_check_assoc_is_invariance_under_every_permutation(data):
    # the definition: every ordering of 2p-1 basis vectors, multiplied as
    # mu(mu(first p), last p-1), gives one product per multiset
    p = data.draw(st.sampled_from([2, 3, 5]))
    # at p = 5 the brute force below walks d^9 orderings
    d = data.draw(st.integers(1, 2 if p == 5 else 3))
    mu = {}
    for key in combinations_with_replacement(range(d), p):
        if data.draw(st.booleans()):
            mu[key] = tuple(data.draw(st.integers(0, p - 1)) for _ in range(d))
    A = PPolarAlgebra(gf_build(p, 1), d, mu)
    basis = [A.basis_vector(i) for i in range(d)]

    def product(first, last):
        return A.mu_p([A.mu_p([basis[i] for i in first]),
                       *[basis[i] for i in last]])
    seen = {}
    for idx in iproduct(range(d), repeat=2 * p - 1):
        seen.setdefault(tuple(sorted(idx)), set()).add(
            product(idx[:p], idx[p:]))
    ok, witness = check_assoc(A)
    assert ok == all(len(values) == 1 for values in seen.values())
    if not ok:
        (left, right), base, other = witness
        assert base == product(left, right) != other
        assert other in seen[tuple(sorted(left + right))]


def test_free_polar_truncation_is_assoc():
    # the span of x^(1 + i(p-1)) in k[x]/(x^(2p)) for p = 3: x, x^3, x^5
    table = [[None] * 3 for _ in range(3)]
    degs = [1, 3, 5]
    for i in range(3):
        for j in range(3):
            d = degs[i] + degs[j]
            table[i][j] = tuple(1 if degs[t] == d else 0 for t in range(3))
    A = polarize(F3, table)
    assert check_assoc(A)[0]


def test_scheme_independence_random_trees():
    rng = random.Random(9)
    for A in (samples.trunc_nil_polar(F2, 5), samples.field_ext_polar(F3, 2)):
        p = A.p
        for _ in range(12):
            n = 1 + (p - 1) * rng.randrange(1, 4)
            elems = [samples.random_vector(rng, A) for _ in range(n)]
            left = A.mu_eval(elems)
            # random alternative scheme: shuffle, then fold at a random spot
            perm = elems[:]
            rng.shuffle(perm)
            while len(perm) > 1:
                i = rng.randrange(len(perm) - p + 1)
                chunk = perm[i:i + p]
                del perm[i:i + p]
                perm.insert(i, A.mu_p(chunk))
            assert perm[0] == left


def test_p_power_is_additive():
    rng = random.Random(4)
    for A in (samples.trunc_nil_polar(F3, 4), samples.field_ext_polar(F2, 2)):
        for _ in range(20):
            x = samples.random_vector(rng, A)
            y = samples.random_vector(rng, A)
            from wittpolar.gfq import combine
            lhs = A.ppow(combine(A.field, (1, 1), (x, y)))
            rhs = combine(A.field, (1, 1), (A.ppow(x), A.ppow(y)))
            assert lhs == rhs


def test_ideal_examples():
    A = samples.trunc_nil_polar(F2, 4)
    assert ideal_generated(A, [A.zero]).dim == 0
    I = ideal_generated(A, [A.basis_vector(0)])
    assert I.dim == 3  # span{x, x^2, x^3}
    B = samples.split_polar(F2, 1)
    assert ideal_generated(B, [(1,)]).dim == 1


def test_ideal_power_nilpotent():
    A = samples.trunc_nil_polar(F2, 4)
    I = ideal_generated(A, [A.basis_vector(0)])
    # I^2 = span{x^2, x^3} is nonzero and (I^2)^2 = 0
    assert nilpotence_index(A, I) == 2
    Z = ideal_generated(A, [])
    assert nilpotence_index(A, Z) == 0
    B = samples.split_polar(F2, 1)
    assert nilpotence_index(B, ideal_generated(B, [(1,)])) is None


def test_nilradical_examples():
    assert nilradical(samples.field_ext_polar(F2, 2)).dim == 0
    A = samples.trunc_nil_polar(F3, 3)
    assert nilradical(A).dim == 2  # mu = 0 forces everything nilpotent
    M = samples.polar_direct_sum(samples.split_polar(F2, 1),
                                 samples.trunc_nil_polar(F2, 2))
    N = nilradical(M)
    assert N.basis == ((0, 1),)


def test_nilradical_is_ideal():
    rng = random.Random(12)
    for _ in range(5):
        A = samples.scramble(samples.polar_direct_sum(
            samples.split_polar(F2, 1), samples.trunc_nil_polar(F2, 3)), rng)
        N = nilradical(A)
        for key in combinations_with_replacement(range(A.dim), A.p - 1):
            for b in N.basis:
                v = A.mu_p([A.basis_vector(i) for i in key] + [list(b)])
                assert not any(echelon_reduce(A.field, N.basis, v))


def test_outside_is_membership_by_elimination():
    # the annihilator test agrees with elimination against the rows on
    # every vector, all at once and one at a time, for ideals with an
    # empty annihilator (the nilradical of a nilpotent algebra) and not
    rng = random.Random(13)
    for F in (F2, F3, F4):
        nil = samples.trunc_nil_polar(F, 2)
        A = samples.scramble(samples.polar_direct_sum(
            samples.split_polar(F, 1), nil), rng)
        for I in (nilradical(nil), nilradical(A), ideal_generated(A, []),
                  ideal_generated(A, [samples.random_vector(rng, A)])):
            vs = list(iproduct(range(F.q), repeat=I.algebra.dim))
            want = [any(echelon_reduce(F, I.basis, v)) for v in vs]
            assert I.outside(vs) == want
            assert [I.outside([v])[0] for v in vs] == want
            assert I.outside([]) == []


def test_trivial_mu_pair_identical_tensors():
    for field, p in ((F2, 2), (F3, 3)):
        A = samples.trunc_nil_polar(field, p)
        B = samples.trivial_polar(field, p - 1)
        assert A.mu == B.mu == {}


def test_quotient_by_nilradical():
    M = samples.polar_direct_sum(samples.split_polar(F2, 1),
                                 samples.trunc_nil_polar(F2, 2))
    B, project, lift = quotient(M, nilradical(M))
    assert B.dim == 1
    assert B.mu.get((0, 0), B.zero) == (1,)
    assert project(lift((1,))) == (1,)


def test_extend_scalars():
    A = samples.field_ext_polar(F2, 2)
    assert extend_scalars(A, 1) is A
    B = extend_scalars(A, 2)
    assert B.field == F4 and B.dim == A.dim
    assert set(B.mu) == set(A.mu)  # same keys, entries embedded


def test_product_length_threshold():
    A = samples.trunc_nil_polar(F2, 4)
    basis = [A.basis_vector(i) for i in range(3)]
    assert product_length_threshold(A, ideal_generated(A, basis)) == 4
    # the ideal (x^2) of x F_2[x]/(x^4): x^2 * x^2 = 0
    assert product_length_threshold(
        A, ideal_generated(A, [A.basis_vector(1)])) == 2
    B = samples.trunc_nil_polar(F3, 3)
    assert product_length_threshold(B, ideal_generated(
        B, [B.basis_vector(0), B.basis_vector(1)])) == 3
    C = samples.split_polar(F2, 1)
    assert product_length_threshold(C, ideal_generated(C, [(1,)])) is None
    assert product_length_threshold(C, ideal_generated(C, [])) == 1


def test_threshold_of_a_unital_algebra_stops_at_its_fixed_point(monkeypatch):
    # pol(F_3^6) is unital: every level of the threshold loop is the whole
    # algebra, so it must stop at the first repeat
    A = samples.split_polar(F3, 6)
    unit = ideal_generated(A, [A.basis_vector(i) for i in range(A.dim)])
    calls = [0]
    mu_p = PPolarAlgebra.mu_p

    def counted(self, vecs):
        calls[0] += 1
        return mu_p(self, vecs)

    monkeypatch.setattr(PPolarAlgebra, "mu_p", counted)
    assert product_length_threshold(A, unit) is None
    # one round multiplies each current row by every (p-1)-multiset of rows
    per_round = len(list(combinations_with_replacement(
        range(A.dim), A.p - 1))) * A.dim
    assert calls[0] == per_round
    assert product_length(A) is None


def test_product_length_is_the_full_basis_threshold():
    for A, L in ((samples.trunc_nil_polar(F2, 5), 5),
                 (samples.trunc_nil_polar(F3, 4), 5),
                 (samples.trivial_polar(F3, 2), 3),
                 (samples.polar_direct_sum(samples.trunc_nil_polar(F3, 3),
                                           samples.trunc_nil_polar(F3, 6)),
                  7),
                 (samples.split_polar(F2, 2), None),
                 (PPolarAlgebra(F2, 0, {}), 1)):
        assert product_length(A) == L
        assert L == product_length_threshold(A, ideal_generated(
            A, [A.basis_vector(i) for i in range(A.dim)]))


def test_repeated_product_length_makes_no_rref(monkeypatch):
    A = samples.polar_direct_sum(samples.trunc_nil_polar(F3, 3),
                                 samples.trunc_nil_polar(F3, 6))
    first = product_length(A)
    calls = []
    real = ppolar.rref
    monkeypatch.setattr(ppolar, "rref",
                        lambda *a: calls.append(1) or real(*a))
    assert product_length(A) == first == 7
    assert calls == []
    # a cold copy makes one `rref` per level, and no other
    assert product_length(_cold_copy(A)) == first
    assert len(calls) == (first - 1) // (A.p - 1)


def test_repeated_nilradical_is_one_object_with_no_mu_call(monkeypatch):
    A = samples.polar_direct_sum(samples.split_polar(F2, 1),
                                 samples.trunc_nil_polar(F2, 4))
    N = nilradical(A)
    calls = []
    real = PPolarAlgebra.mu_p
    monkeypatch.setattr(PPolarAlgebra, "mu_p",
                        lambda self, vecs: calls.append(1) or real(self, vecs))
    # the kernel is found through p-th powers, which skip `mu_p`
    ppow = PPolarAlgebra.ppow
    monkeypatch.setattr(PPolarAlgebra, "ppow",
                        lambda self, *a: calls.append(1) or ppow(self, *a))
    assert nilradical(A) is N and N.dim == 3
    assert calls == []
    # it is the memo's object for its rows
    assert A._ideals["ideal", N.basis] is N
    cold = _cold_copy(A)
    assert nilradical(cold).basis == N.basis and calls


def test_free_polar_basis_examples():
    assert free_polar_basis(3, 1, 2) == [(0,), (0, 0, 0), (0, 0, 0, 0, 0)]
    assert free_polar_basis(2, 1, 2) == [(0,), (0, 0), (0, 0, 0)]
    assert free_polar_basis(3, 2, 1) == [
        (0,), (1,), (0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]


def test_algebra_json_round_trip():
    A = samples.field_ext_polar(F3, 2)
    data = A.to_json()
    assert PPolarAlgebra.from_json(data) == A


# -- the per-algebra ideal memo -------------------------------------------------


# built once, so the memo stays warm across examples
NIL_ALGEBRAS = {(q, N): samples.trunc_nil_polar(F, N)
                for q, F in ((2, F2), (3, F3), (4, F4)) for N in (3, 4, 5)}


def _cold_copy(A):
    return PPolarAlgebra(A.field, A.dim, A.mu)


def _queries(A, gens):
    I = ideal_generated(A, gens)
    return I.basis, nilpotence_index(A, I), product_length_threshold(A, I)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(NIL_ALGEBRAS)), st.data())
def test_memo_answers_equal_memo_cold_answers(key, data):
    A = NIL_ALGEBRAS[key]
    q = A.field.q
    vec = st.tuples(*[st.integers(0, q - 1)] * A.dim)
    gens = data.draw(st.lists(vec, max_size=3))
    assert _queries(A, gens) == _queries(_cold_copy(A), gens)


def test_repeated_query_closes_once_and_reuses_the_threshold(monkeypatch):
    # a repeated query makes only the closure: one `rref` of the generators,
    # one mu product per independent row and (p-1)-multiset of basis
    # vectors, then one `rref`; it returns the memo's object, whose stored
    # threshold answers without another product
    A = samples.trunc_nil_polar(F3, 5)
    # two proportional generators: one row
    gens, rank = [(0, 1, 0, 2), (0, 2, 0, 1)], 1
    first = _queries(A, gens)
    I = ideal_generated(A, gens)
    calls = []
    real_rref, real_mu = ppolar.rref, PPolarAlgebra.mu_p
    monkeypatch.setattr(ppolar, "rref",
                        lambda *a: calls.append("rref") or real_rref(*a))
    monkeypatch.setattr(PPolarAlgebra, "mu_p",
                        lambda self, v: calls.append("mu") or real_mu(self, v))
    assert _queries(A, gens) == first
    keys = list(combinations_with_replacement(range(A.dim), A.p - 1))
    assert calls == ["rref"] + ["mu"] * rank * len(keys) + ["rref"]
    # another spanning set of the subspace gives the same object
    assert ideal_generated(A, [(0, 2, 0, 1), (0, 0, 0, 0)]) is I
    # a cold copy also closes the threshold's levels, one `rref` each
    calls.clear()
    assert _queries(_cold_copy(A), gens) == first
    assert calls.count("rref") > 1


def test_closure_products_are_bounded_by_the_rank_of_the_generators(
        monkeypatch):
    # twelve generators spanning a plane of pol(x F_5[x]/(x^7)) (d = 6):
    # the closure multiplies its two rows, not the twelve generators, by
    # every 4-multiset of basis vectors, C(d + p - 2, p - 1) = 126 of them
    F5 = gf_build(5, 1)
    A = samples.trunc_nil_polar(F5, 7)
    u, w = (1, 0, 2, 0, 0, 3), (0, 0, 1, 4, 0, 0)
    gens = [combine(F5, (a, b), (u, w))
            for a, b in iproduct(range(5), (0, 1, 3)) if a or b][:12]
    assert len(gens) == 12 and len(rref(F5, gens)[0]) == 2
    calls, real_mu = [], PPolarAlgebra.mu_p
    monkeypatch.setattr(PPolarAlgebra, "mu_p",
                        lambda self, v: calls.append(1) or real_mu(self, v))
    I = ideal_generated(A, gens)
    assert len(calls) == 2 * comb(A.dim + A.p - 2, A.p - 1) == 252
    assert I is ideal_generated(A, [u, w])


# over GF(3), GF(4) and GF(9), where generators need not have a leading 1
FORM_ALGEBRAS = [A for F in (F3, F4, gf_build(3, 2))
                 for A in (samples.trunc_nil_polar(F, 4),
                           polarize(F, samples.unital_poly_table(F, 3)))]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FORM_ALGEBRAS), st.data())
def test_ideal_generated_is_blind_to_the_form_of_its_generators(A, data):
    # lists, non-monic multiples and zero vectors mixed in give the object
    # of the monic tuples
    F = A.field
    vec = st.tuples(*[st.integers(0, F.q - 1)] * A.dim).filter(any)
    monic = [combine(F, (F.inv(next(filter(None, g))),), (g,))
             for g in data.draw(st.lists(vec, min_size=1, max_size=4))]
    I = ideal_generated(A, monic)
    scales = data.draw(st.lists(st.integers(1, F.q - 1),
                                min_size=len(monic), max_size=len(monic)))
    multiples = [combine(F, (c,), (g,)) for c, g in zip(scales, monic)]
    mixed = list(multiples)
    for i in data.draw(st.lists(st.integers(0, len(monic)), max_size=3)):
        mixed.insert(i, A.zero)
    forms = [[list(g) for g in monic], multiples, mixed,
             [list(g) for g in mixed]]
    for gens in forms + forms:
        assert ideal_generated(A, gens) is I


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(NIL_ALGEBRAS)), st.data())
def test_memo_keys_are_canonical_rows(key, data):
    # `_ideals` keys each ideal by its canonical `rref` rows, plus the one
    # nilradical entry; no key holds raw generators, and every ideal is the
    # object stored under its own rows
    A = _cold_copy(NIL_ALGEBRAS[key])
    vec = st.tuples(*[st.integers(0, A.field.q - 1)] * A.dim)
    for gens in data.draw(st.lists(st.lists(vec, max_size=4), min_size=1,
                                   max_size=4)):
        _queries(A, gens)
    nilradical(A)
    for query, answer in A._ideals.items():
        assert A._ideals["ideal", answer.basis] is answer
        if query == ("nilradical",):
            continue
        kind, rows = query
        assert kind == "ideal"
        assert list(rows) == rref(A.field, rows)[0]
    assert ("nilradical",) in A._ideals


def _polar_power_chain(A, I):
    """Reference nilpotence index: least s whose s-fold iterated polar power
    of I vanishes, or None.  Each power is the ideal generated by mu of its
    predecessor's basis vectors, p at a time; the powers descend, so one
    still nonzero after dim + 1 steps never vanishes."""
    cur = I
    for s in range(A.dim + 2):
        if cur.is_zero():
            return s
        cur = ideal_generated(A, [
            A.mu_p([cur.basis[i] for i in key])
            for key in combinations_with_replacement(range(cur.dim), A.p)])
    return None


def _chain_algebras():
    out = list(NIL_ALGEBRAS.values())
    for F in (F2, F3, F4, gf_build(5, 1)):
        out += [samples.split_polar(F, 2),
                samples.polar_direct_sum(samples.split_polar(F, 1),
                                         samples.trunc_nil_polar(F, 4)),
                polarize(F, samples.unital_poly_table(F, 3))]
    out.append(samples.trunc_nil_polar(gf_build(5, 1), 7))
    rng = random.Random(29)
    return out + [samples.scramble(A, rng) for A in out]


CHAIN_ALGEBRAS = _chain_algebras()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(range(len(CHAIN_ALGEBRAS))), st.data())
def test_nilpotence_index_matches_the_polar_power_chain(k, data):
    # the index is read off the product-length threshold T (least s with
    # p^s >= T); the chain computes the polar powers themselves
    A = CHAIN_ALGEBRAS[k]
    vec = st.tuples(*[st.integers(0, A.field.q - 1)] * A.dim)
    gens = data.draw(st.lists(vec, max_size=3))
    for I in (ideal_generated(A, gens), nilradical(A)):
        assert nilpotence_index(A, I) == _polar_power_chain(A, I)


def test_memo_is_not_shared_between_algebras():
    # same field and dimension, different mu: x F2[x]/(x^4) and mu = 0
    A = samples.trunc_nil_polar(F2, 4)
    B = samples.trivial_polar(F2, 3)
    gens = [A.basis_vector(0)]
    for _ in range(2):
        IA, IB = ideal_generated(A, gens), ideal_generated(B, gens)
        assert (IA.dim, IB.dim) == (3, 1)
        assert IA.algebra is A and IB.algebra is B
        assert (nilpotence_index(A, IA), nilpotence_index(B, IB)) == (2, 1)
        assert product_length_threshold(A, IA) == 4
        assert product_length_threshold(B, IB) == 2


# -- the mu_p kernel against the definition -------------------------------------


def _digit_add(F, a, b):
    return F.from_coords([(x + y) % F.p
                          for x, y in zip(F.coords(a), F.coords(b))])


def _naive_mu(A, vecs):
    """mu by its definition: expand each factor in the basis and look every
    ordered choice of basis vectors up under its sorted key."""
    F = A.field
    out = [0] * A.dim
    for combo in iproduct(range(A.dim), repeat=A.p):
        coeff = 1
        for v, i in zip(vecs, combo):
            coeff = F.mul(coeff, v[i])
        val = A.mu.get(tuple(sorted(combo)))
        if not coeff or val is None:
            continue
        for j, vj in enumerate(val):
            out[j] = _digit_add(F, out[j], F.mul(coeff, vj))
    return tuple(out)


def _kernel_algebras():
    out = []
    # GF(3^6) has more elements than the field tables hold
    for p, m in ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (3, 6)):
        F = gf_build(p, m)
        out += [samples.trunc_nil_polar(F, p + 2), samples.split_polar(F, 2),
                samples.polar_direct_sum(samples.split_polar(F, 1),
                                         samples.trunc_nil_polar(F, p + 1))]
    # a change of basis spreads each mu value over several coordinates with
    # coefficients other than 1; field extensions have such values as given
    rng = random.Random(13)
    out += [samples.scramble(A, rng) for A in out]
    out += [samples.field_ext_polar(gf_build(p, m), t)
            for p, m, t in ((2, 1, 3), (2, 2, 2), (3, 1, 2), (3, 2, 2),
                            (5, 1, 2))]
    return out


KERNEL_ALGEBRAS = _kernel_algebras()


def test_kernel_samples_have_scaled_and_spread_values():
    # each characteristic, and the untabled GF(3^6), has mu values with a
    # coefficient other than 1 and values on several coordinates
    for pick in (lambda A: A.p == 2, lambda A: A.p == 3, lambda A: A.p == 5,
                 lambda A: A.field.q > 256):
        values = [v for A in KERNEL_ALGEBRAS if pick(A)
                  for v in A.mu.values()]
        assert any(c > 1 for v in values for c in v)
        assert any(sum(1 for c in v if c) > 1 for v in values)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(range(len(KERNEL_ALGEBRAS))), st.data())
def test_mu_p_matches_naive_expansion(k, data):
    A = KERNEL_ALGEBRAS[k]
    vec = st.tuples(*[st.integers(0, A.field.q - 1)] * A.dim)
    vecs = data.draw(st.lists(vec, min_size=A.p, max_size=A.p))
    assert A.mu_p(vecs) == _naive_mu(A, vecs)


def test_equal_algebras_share_one_compiled_kernel(monkeypatch):
    built = []
    source = ppolar._mu_source

    def counted(*args):
        built.append(args)
        return source(*args)

    ppolar._compile_mu.cache_clear()
    monkeypatch.setattr(ppolar, "_mu_source", counted)
    A, B = samples.trunc_nil_polar(F3, 5), samples.trunc_nil_polar(F3, 5)
    assert A is not B
    x = (1, 2, 0, 1)
    assert A.mu_p([x] * 3) == B.mu_p([x] * 3) == (0, 0, 1, 0)
    A.mu_p([x] * 3)
    assert len(built) == 1


def test_mu_p_takes_exactly_p_arguments():
    for A in (samples.split_polar(F2, 2), samples.trunc_nil_polar(F3, 4),
              samples.trivial_polar(F3, 2)):
        for n in (A.p - 1, A.p + 1):
            with pytest.raises(ValueError, match="exactly"):
                A.mu_p([A.basis_vector(0)] * n)


def test_mu_p_of_a_zero_mu_algebra_is_zero():
    for F, d in ((F2, 3), (F3, 2), (gf_build(3, 6), 1), (F4, 0)):
        A = samples.trivial_polar(F, d)
        assert A.mu_p([(F.q - 1,) * d] * A.p) == A.zero


def test_mu_entries_must_be_ints():
    # the kernel's source is generated from the keys and values of mu
    with pytest.raises(TypeError):
        PPolarAlgebra(F2, 1, {(0, 0): ("1 + 1",)})
    with pytest.raises(TypeError):
        PPolarAlgebra(F2, 1, {(0.0, 0): (1,)})


def test_mu_values_must_be_field_elements():
    # the kernel indexes the field tables with each value entry, so 5 over
    # GF(3) would read the table at the wrong place instead of meaning 2
    for bad in (3, 5, -1):
        with pytest.raises(ValueError, match="outside range"):
            PPolarAlgebra(F3, 1, {(0, 0, 0): (bad,)})
    with pytest.raises(ValueError, match="outside range"):
        PPolarAlgebra(F4, 2, {(0, 1): (1, 4)})
    assert PPolarAlgebra(F3, 1, {(0, 0, 0): (2,)}).mu_p([(1,)] * 3) == (2,)


def test_kernel_source_is_the_same_in_every_process():
    # the generator must not depend on how a process hashes its multisets
    script = ("import random; from wittpolar import ppolar, samples; "
              "from wittpolar.gfq import gf_build; "
              "A = samples.scramble(samples.trunc_nil_polar(gf_build(3, 2), "
              "6), random.Random(5)); "
              "print(ppolar._mu_source(A.field, A.dim, "
              "tuple(sorted(A.mu.items()))))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       src, os.environ.get("PYTHONPATH")])))
        outs.append(subprocess.run([sys.executable, "-c", script], env=env,
                                   capture_output=True, text=True,
                                   check=True).stdout)
    assert outs[0] == outs[1] and "def kernel(v0, v1, v2)" in outs[0]


# -- ideal closure and nilradical against enumerated sets -----------------------


def _span_set(F, vectors, start):
    """The set `start` (a subspace) grown by every F_q-multiple of each
    vector in turn: the span, enumerated."""
    out = set(start)
    for v in vectors:
        if v not in out:
            out = {tuple(F.add(a, F.mul(c, b)) for a, b in zip(s, v))
                   for s in out for c in F.elements()}
    return out


def _ideal_set(A, gens):
    """Smallest set containing gens closed under +, F_q-scaling and
    mu(e_i1, .., e_i(p-1), -)."""
    outer = [[A.basis_vector(i) for i in key]
             for key in combinations_with_replacement(range(A.dim), A.p - 1)]
    S = _span_set(A.field, gens, {A.zero})
    while True:
        new = [A.mu_p(e + [v]) for v in S for e in outer]
        grown = _span_set(A.field, new, S)
        if grown == S:
            return S
        S = grown


def _nil_set(A):
    """Every vector whose orbit under the p-power map reaches 0."""
    out = set()
    for v0 in iproduct(range(A.field.q), repeat=A.dim):
        v, seen = v0, set()
        while any(v) and v not in seen:
            seen.add(v)
            v = A.ppow(v)
        if not any(v):
            out.add(v0)
    return out


def _reference_algebras():
    # q^dim <= 256, so every subspace can be enumerated
    out = []
    for F, nils in ((F2, (5, 9)), (F3, (4, 6)), (F4, (4,))):
        out += [samples.trunc_nil_polar(F, N) for N in nils]
        split = samples.split_polar(F, 3 if F.q < 4 else 2)
        both = samples.polar_direct_sum(samples.split_polar(F, 1),
                                        samples.trunc_nil_polar(F, 4))
        out += [split, both]
        out += [samples.scramble(B, random.Random(F.q)) for B in (split, both)]
    return out


REFERENCE_ALGEBRAS = _reference_algebras()
NIL_SETS = {}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(range(len(REFERENCE_ALGEBRAS))), st.data())
def test_ideals_and_nilradical_match_enumerated_sets(k, data):
    A = _cold_copy(REFERENCE_ALGEBRAS[k])
    F = A.field
    vec = st.tuples(*[st.integers(0, F.q - 1)] * A.dim)
    gens = data.draw(st.lists(vec, max_size=3))
    I = ideal_generated(A, gens)
    assert _span_set(F, I.basis, {A.zero}) == _ideal_set(A, gens)
    if k not in NIL_SETS:
        NIL_SETS[k] = _nil_set(A)
    assert _span_set(F, nilradical(A).basis, {A.zero}) == NIL_SETS[k]
