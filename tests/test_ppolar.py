"""p-polar algebras: polarization, products, (ASSOC), ideals, nilpotence."""

import random
from itertools import combinations_with_replacement
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittpolar import samples
from wittpolar.gfq import gf_build
from wittpolar.ppolar import (LengthNotAdmissible, PPolarAlgebra, check_assoc,
                              extend_scalars, free_polar_basis,
                              ideal_generated, ideal_power_nilpotent,
                              nilpotence_index, nilradical, polarize,
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
    assert A.mu_basis((0, 0)) == (1,)


def test_polarize_f4_square():
    A = samples.field_ext_polar(F2, 2)
    # basis 1, g with g^2 = g + 1
    assert A.mu_basis((1, 1)) == (1, 1)


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
    assert not ok and witness is not None


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
    assert ideal_power_nilpotent(A, I, 2)          # (I^2)^2 = 0
    assert not ideal_power_nilpotent(A, I, 1)      # I^2 = span{x^2, x^3}
    Z = ideal_generated(A, [])
    assert ideal_power_nilpotent(A, Z, 0)
    B = samples.split_polar(F2, 1)
    assert not ideal_power_nilpotent(B, ideal_generated(B, [(1,)]), 5)


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
                assert N.contains(v)


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
    assert B.mu_basis((0, 0)) == (1,)
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
    assert product_length_threshold(A, basis) == 4
    B = samples.trunc_nil_polar(F3, 3)
    assert product_length_threshold(B, [B.basis_vector(0), B.basis_vector(1)]) == 3
    C = samples.split_polar(F2, 1)
    assert product_length_threshold(C, [(1,)]) is None


def test_threshold_of_a_unital_algebra_stops_at_its_fixed_point(monkeypatch):
    # pol(F_3^6) is unital: every level of the threshold loop is the whole
    # algebra, so it must stop at the first repeat, not run its cap
    A = samples.split_polar(F3, 6)
    calls = [0]
    mu_p = PPolarAlgebra.mu_p

    def counted(self, vecs):
        calls[0] += 1
        return mu_p(self, vecs)

    monkeypatch.setattr(PPolarAlgebra, "mu_p", counted)
    basis = [A.basis_vector(i) for i in range(A.dim)]
    assert product_length_threshold(A, basis) is None
    # one round multiplies each current row by every (p-1)-multiset of rows
    per_round = len(list(combinations_with_replacement(
        range(A.dim), A.p - 1))) * A.dim
    assert 0 < calls[0] <= (A.dim + 1) * per_round
    assert product_length(A) is None


def test_threshold_of_a_cycling_span_stops_at_its_cap():
    # in pol(F_4) over F_2 the spans of g, g^2 = g + 1 and g^3 = 1 follow
    # each other in a cycle that never repeats its previous round
    A = samples.field_ext_polar(F2, 2)
    g = (0, 1)
    assert A.mu_p([g, g]) == (1, 1) and A.mu_p([g, (1, 1)]) == (1, 0)
    assert product_length_threshold(A, [g]) is None


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
        assert A._length == L == product_length_threshold(
            A, [A.basis_vector(i) for i in range(A.dim)])


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
    return I.basis, nilpotence_index(A, I), product_length_threshold(A, gens)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(NIL_ALGEBRAS)), st.data())
def test_memo_answers_equal_memo_cold_answers(key, data):
    A = NIL_ALGEBRAS[key]
    q = A.field.q
    vec = st.tuples(*[st.integers(0, q - 1)] * A.dim)
    gens = data.draw(st.lists(vec, max_size=3))
    assert _queries(A, gens) == _queries(_cold_copy(A), gens)


def test_repeated_query_makes_no_mu_call(monkeypatch):
    A = samples.trunc_nil_polar(F3, 5)
    gens = [(0, 1, 0, 2)]
    first = _queries(A, gens)
    I = ideal_generated(A, gens)
    calls = []
    real = PPolarAlgebra.mu_p
    monkeypatch.setattr(PPolarAlgebra, "mu_p",
                        lambda self, vecs: calls.append(1) or real(self, vecs))
    assert _queries(A, gens) == first
    # the key is the subspace: another spanning set of it hits as well
    assert ideal_generated(A, [(0, 2, 0, 1), (0, 0, 0, 0)]) is I
    assert calls == []
    assert _queries(_cold_copy(A), gens) == first
    assert calls


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
        assert product_length_threshold(A, gens) == 4
        assert product_length_threshold(B, gens) == 2


def test_ideal_power_nilpotent_is_nilpotence_index_bound():
    rng = random.Random(5)
    algebras = [samples.trunc_nil_polar(F2, 4), samples.trunc_nil_polar(F3, 5),
                samples.split_polar(F3, 2),
                samples.polar_direct_sum(samples.split_polar(F2, 1),
                                         samples.trunc_nil_polar(F2, 3))]
    indices = set()
    for A in algebras:
        for _ in range(6):
            gens = [samples.random_vector(rng, A)
                    for _ in range(rng.randrange(3))]
            I = ideal_generated(A, gens)
            index = nilpotence_index(A, I)
            indices.add(index)
            for s in range(A.dim + 3):
                assert ideal_power_nilpotent(A, I, s) == (
                    index is not None and index <= s)
    assert None in indices and len(indices) > 2


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
    return out


KERNEL_ALGEBRAS = _kernel_algebras()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(range(len(KERNEL_ALGEBRAS))), st.data())
def test_mu_p_matches_naive_expansion(k, data):
    A = KERNEL_ALGEBRAS[k]
    vec = st.tuples(*[st.integers(0, A.field.q - 1)] * A.dim)
    vecs = data.draw(st.lists(vec, min_size=A.p, max_size=A.p))
    assert A.mu_p(vecs) == _naive_mu(A, vecs)


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
