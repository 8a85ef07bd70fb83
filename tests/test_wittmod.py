"""Concrete Witt vectors over p-polar algebras and CW^u classes."""

import random
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittpolar import samples
from wittpolar.gfq import gf_build
from wittpolar.ppolar import nilradical, quotient
from wittpolar.wittmod import (cwu_add, cwu_class, cwu_F,
                               cwu_lift, cwu_neg, cwu_V, frobenius_charp,
                               p_mul, scalar_mul, scalar_phi, scalar_phi_inv,
                               scalar_teich, scalar_witt, teichmuller,
                               truncate, verschiebung, w_add, w_neg,
                               w_product, w_zero, witt)

F2 = gf_build(2, 1)
F3 = gf_build(3, 1)
F4 = gf_build(2, 2)
F9 = gf_build(3, 2)


def rand_witt(rng, A, n):
    return samples.random_witt(rng, A, n)


def test_additive_identity_and_inverse():
    rng = random.Random(101)
    for A in (samples.trunc_nil_polar(F2, 4), samples.field_ext_polar(F3, 2)):
        z = w_zero(A, 3)
        for _ in range(10):
            x = rand_witt(rng, A, 3)
            assert w_add(x, z).coords == x.coords
            assert w_add(x, w_neg(x)).is_zero()


def test_spec_doubling_example():
    A = samples.trunc_nil_polar(F2, 4)
    x = witt(A, [(1, 0, 0), (0, 0, 0)])
    assert w_add(x, x).coords == ((0, 0, 0), (0, 1, 0))  # (0, x^2)


def test_abelian_group_laws_randomized():
    rng = random.Random(7)
    for A in (samples.trunc_nil_polar(F2, 4),
              samples.scramble(samples.field_ext_polar(F3, 2), rng)):
        for _ in range(10):
            x, y, z = (rand_witt(rng, A, 3) for _ in range(3))
            assert w_add(x, y).coords == w_add(y, x).coords
            assert w_add(w_add(x, y), z).coords == w_add(x, w_add(y, z)).coords


def test_product_multilinearity_zero_factor():
    rng = random.Random(3)
    A = samples.trunc_nil_polar(F3, 4)
    x, y = rand_witt(rng, A, 2), rand_witt(rng, A, 2)
    assert w_product([x, y, w_zero(A, 2)]).is_zero()


def test_product_of_teichmullers():
    A = samples.field_ext_polar(F2, 2)
    g, g1 = (0, 1), (1, 1)
    prod = w_product([teichmuller(A, g, 2), teichmuller(A, g1, 2)])
    # g * (g + 1) = g^2 + g = 1
    assert prod.coords == ((1, 0), (0, 0))


def test_product_scheme_independence():
    rng = random.Random(13)
    A = samples.trunc_nil_polar(F3, 4)
    for _ in range(5):
        xs = [rand_witt(rng, A, 2) for _ in range(3)]
        base = w_product(xs)
        for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
            assert w_product([xs[i] for i in perm]).coords == base.coords


def test_product_wrong_count():
    A = samples.trunc_nil_polar(F3, 3)
    x = w_zero(A, 2)
    with pytest.raises(ValueError, match="exactly p"):
        w_product([x, x])


def test_teichmuller_frobenius():
    rng = random.Random(31)
    for A in (samples.field_ext_polar(F2, 2), samples.trunc_nil_polar(F3, 3)):
        for _ in range(8):
            a = samples.random_vector(rng, A)
            t = teichmuller(A, a, 3)
            assert frobenius_charp(t).coords == teichmuller(A, A.ppow(a), 2).coords


def test_teichmuller_alternating_sum_numeric():
    rng = random.Random(17)
    for A in (samples.trunc_nil_polar(F2, 4), samples.trunc_nil_polar(F3, 3),
              samples.field_ext_polar(F3, 2)):
        p = A.p
        for _ in range(6):
            xs = [samples.random_vector(rng, A) for _ in range(p)]
            acc = w_zero(A, 2)
            for mask in range(1, 2 ** p):
                s = A.zero
                for i in range(p):
                    if mask >> i & 1:
                        from wittpolar.gfq import combine
                        s = combine(A.field, (1, 1), (s, xs[i]))
                t = teichmuller(A, s, 2)
                if bin(mask).count("1") % 2:
                    t = w_neg(t)
                acc = w_add(acc, t)
            prod = A.mu_eval(xs) if (p - 1) % (p - 1) == 0 else None
            assert acc.coords == ((A.zero), (A.mu_eval(xs)))


def test_verschiebung_shift():
    A = samples.trunc_nil_polar(F2, 3)
    x = witt(A, [(1, 0), (0, 1)])
    assert verschiebung(x).coords == ((0, 0), (1, 0), (0, 1))
    assert verschiebung(w_zero(A, 2)).is_zero()
    a = (1, 1)
    assert verschiebung(teichmuller(A, a, 2)).coords == ((0, 0), a, (0, 0))


def test_fv_vf_p():
    rng = random.Random(23)
    for A in (samples.trunc_nil_polar(F2, 4), samples.field_ext_polar(F3, 2),
              samples.trunc_nil_polar(F4, 3)):
        for _ in range(10):
            x = rand_witt(rng, A, 3)
            fv = frobenius_charp(verschiebung(x))
            assert fv.coords == p_mul(x).coords
            # p-fold sum agrees
            acc = w_zero(A, 3)
            for _ in range(A.p):
                acc = w_add(acc, x)
            assert acc.coords == fv.coords
            y = rand_witt(rng, A, 4)
            assert verschiebung(frobenius_charp(y)).coords == p_mul(y).coords


def test_frobenius_matches_universal_polys():
    rng = random.Random(29)
    from wittpolar.wittmod import _reduced, eval_polar_poly, polar_plan
    for A in (samples.trunc_nil_polar(F2, 4), samples.trunc_nil_polar(F3, 3)):
        for n in (1, 2, 3):
            polys = _reduced(A.p, n, "frob")
            names = [f"x{i}" for i in range(n + 1)]
            for _ in range(5):
                x = rand_witt(rng, A, n + 1)
                via_polys = tuple(
                    eval_polar_poly(A, polar_plan(A.p, [q], names),
                                    x.coords)[0]
                    for q in polys)
                assert frobenius_charp(x).coords == via_polys


def test_scalar_unit_and_p():
    rng = random.Random(41)
    A = samples.trunc_nil_polar(F2, 4)
    one = scalar_teich(F2, 1, 3)
    pt = w_add(one, one)  # the scalar p
    for _ in range(8):
        x = rand_witt(rng, A, 3)
        assert scalar_mul(one, x).coords == x.coords
        assert scalar_mul(pt, x).coords == p_mul(x).coords


def test_scalar_module_axioms():
    rng = random.Random(43)
    A = samples.trunc_nil_polar(F9, 3)
    for _ in range(8):
        a = samples.random_scalar(rng, F9, 2)
        b = samples.random_scalar(rng, F9, 2)
        x = rand_witt(rng, A, 2)
        y = rand_witt(rng, A, 2)
        lhs = scalar_mul(a, w_add(x, y))
        rhs = w_add(scalar_mul(a, x), scalar_mul(a, y))
        assert lhs.coords == rhs.coords
        lhs2 = scalar_mul(w_add(a, b), x)
        rhs2 = w_add(scalar_mul(a, x), scalar_mul(b, x))
        assert lhs2.coords == rhs2.coords


def test_scalar_frobenius_commutation_over_f4():
    rng = random.Random(47)
    A = samples.trunc_nil_polar(F4, 3)
    for _ in range(20):
        a = samples.random_scalar(rng, F4, 3)
        x = rand_witt(rng, A, 3)
        lhs = frobenius_charp(scalar_mul(a, x))
        rhs = scalar_mul(truncate(scalar_phi(a), 2), frobenius_charp(x))
        assert lhs.coords == rhs.coords


def test_scalar_verschiebung_commutation():
    rng = random.Random(53)
    A = samples.trunc_nil_polar(F9, 3)
    for _ in range(20):
        a = samples.random_scalar(rng, F9, 2)
        x = rand_witt(rng, A, 2)
        lhs = verschiebung(scalar_mul(a, x))
        inv = scalar_phi_inv(a)
        ext = scalar_witt(F9, [c[0] for c in inv.coords] + [0])
        rhs = scalar_mul(ext, verschiebung(x))
        assert lhs.coords == rhs.coords


def test_scalar_wrong_base_rejected():
    A = samples.trunc_nil_polar(F2, 3)
    a = scalar_teich(F3, 1, 2)
    with pytest.raises(ValueError):
        scalar_mul(a, w_zero(A, 2))


def test_polarization_invariance_tables():
    # identical mu tensors give identical operation tables
    for field, p in ((F2, 2), (F3, 3)):
        A = samples.trunc_nil_polar(field, p)
        B = samples.trivial_polar(field, p - 1)
        assert A.mu == B.mu
        n = 2
        all_coords = list(iproduct(range(field.q ** A.dim), repeat=n))

        def vec(idx, alg):
            return witt(alg, [tuple((i // field.q ** t) % field.q
                                    for t in range(alg.dim)) for i in idx])
        for ia in all_coords[:12]:
            for ib in all_coords[:12]:
                assert w_add(vec(ia, A), vec(ib, A)).coords == \
                    w_add(vec(ia, B), vec(ib, B)).coords


def test_naturality_along_quotient():
    # W_n(f) for f the nilradical quotient commutes with the operations
    rng = random.Random(59)
    A = samples.polar_direct_sum(samples.split_polar(F2, 1),
                                 samples.trunc_nil_polar(F2, 2))
    B, project, _ = quotient(A, nilradical(A))

    def push(x):
        return witt(B, [project(c) for c in x.coords])

    for _ in range(10):
        x, y = rand_witt(rng, A, 3), rand_witt(rng, A, 3)
        assert push(w_add(x, y)).coords == w_add(push(x), push(y)).coords
        xs = [rand_witt(rng, A, 3) for _ in range(A.p)]
        assert push(w_product(xs)).coords == \
            w_product([push(v) for v in xs]).coords
        assert push(verschiebung(x)).coords == verschiebung(push(x)).coords
        z = rand_witt(rng, A, 4)
        assert push(frobenius_charp(z)).coords == \
            frobenius_charp(push(z)).coords


def test_length_mismatch_rejected():
    A = samples.trunc_nil_polar(F2, 3)
    with pytest.raises(ValueError, match="length"):
        w_add(w_zero(A, 2), w_zero(A, 3))


# -- CW^u classes ---------------------------------------------------------------


def test_cwu_canonical_form():
    A = samples.trunc_nil_polar(F2, 4)
    x = witt(A, [(1, 0, 0), (0, 1, 0)])
    c = cwu_class(x)
    assert cwu_class(verschiebung(x)).rep == c.rep
    assert cwu_class(verschiebung(verschiebung(x))).rep == c.rep
    assert cwu_class(w_zero(A, 3)).is_zero()


def test_cwu_add_matches_witt_addition():
    rng = random.Random(61)
    A = samples.trunc_nil_polar(F2, 4)
    for _ in range(10):
        x, y = rand_witt(rng, A, 3), rand_witt(rng, A, 3)
        lhs = cwu_add(cwu_class(x), cwu_class(y))
        assert lhs.rep == cwu_class(w_add(x, y)).rep
        # V-padding first changes nothing
        lhs2 = cwu_add(cwu_class(verschiebung(x)), cwu_class(y))
        assert lhs2.rep == lhs.rep


def test_cwu_group_structure():
    rng = random.Random(67)
    A = samples.trunc_nil_polar(F3, 3)
    for _ in range(8):
        c = cwu_class(rand_witt(rng, A, 2))
        assert cwu_add(c, cwu_neg(c)).is_zero()


def test_cwu_fv_relations():
    rng = random.Random(71)
    A = samples.trunc_nil_polar(F2, 4)
    for _ in range(10):
        c = cwu_class(rand_witt(rng, A, 3))
        fv = cwu_F(cwu_V(c))
        vf = cwu_V(cwu_F(c))
        pc = cwu_add(c, c)
        assert fv.rep == vf.rep == pc.rep


def test_cwu_canonical_equality_is_faithful():
    # distinct canonical forms represent distinct classes at any common lift
    rng = random.Random(73)
    A = samples.trunc_nil_polar(F2, 4)
    for _ in range(10):
        c1 = cwu_class(rand_witt(rng, A, 2))
        c2 = cwu_class(rand_witt(rng, A, 2))
        n = max(c1.length, c2.length, 1) + 2
        lifted_equal = cwu_lift(c1, n).coords == cwu_lift(c2, n).coords
        assert lifted_equal == (c1.rep == c2.rep)


# -- the slot plan against a per-monomial reference ---------------------------


def _reference_op(kind, xs, scalars=()):
    """The operation by its universal polynomials, one monomial at a time:
    bind every variable by name, feed the vector variables (with
    multiplicity, in variable order) to mu_eval, and scale by the F_p
    coefficient times the scalar variables' powers."""
    from wittpolar.gfq import combine
    from wittpolar.wittmod import _reduced
    from wittpolar.wittuniv import witt_blocks
    A = xs[0].algebra
    F, n = A.field, xs[0].length
    bind = {f"{b}{i}": c for b, x in zip(witt_blocks(kind, A.p), xs)
            for i, c in enumerate(x.coords)}
    bind.update({f"a{i}": a for i, a in enumerate(scalars)})
    out = []
    for poly in _reduced(A.p, n, kind):
        acc = A.zero
        for exp, c in poly.terms.items():
            coeff = c % A.p
            elems = []
            for name, e in zip(poly.vars, exp):
                if name.startswith("a"):
                    coeff = F.mul(coeff, F.pow(bind[name], e))
                else:
                    elems.extend([bind[name]] * e)
            acc = combine(F, (1, coeff), (acc, A.mu_eval(elems)))
        out.append(acc)
    return tuple(out)


def _plan_algebras():
    out = []
    for F in (F2, F4, F3, F9):
        lengths = (1, 2, 3, 4) if F.p == 2 else (1, 2, 3)
        out += [(A, lengths) for A in (
            samples.trunc_nil_polar(F, F.p + 2), samples.split_polar(F, 2),
            samples.trunc_nil_polar(F, F.p), samples.trivial_polar(F, 2))]
    return out


# mu != 0 (nilpotent and split) and mu = 0 over each field
PLAN_ALGEBRAS = _plan_algebras()


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(range(len(PLAN_ALGEBRAS))), st.data())
def test_ops_match_per_monomial_reference(k, data):
    A, lengths = PLAN_ALGEBRAS[k]
    n = data.draw(st.sampled_from(lengths))
    elem = st.integers(0, A.field.q - 1)
    coords = st.lists(st.tuples(*[elem] * A.dim), min_size=n, max_size=n)
    x, y, *fs = (witt(A, data.draw(coords)) for _ in range(2 + A.p))
    a = data.draw(st.lists(elem, min_size=n, max_size=n))
    assert w_add(x, y).coords == _reference_op("sum", [x, y])
    assert w_neg(x).coords == _reference_op("neg", [x])
    assert w_product(fs).coords == _reference_op("prod", fs)
    assert scalar_mul(scalar_witt(A.field, a), x).coords == \
        _reference_op("scalar", [x], a)


# -- plans truncated by the product length against the full family -----------


def _full_op(kind, A, n, flat):
    """The operation by the plan of the full `_reduced` family (L None)."""
    from wittpolar.wittmod import _plan, eval_polar_poly
    return eval_polar_poly(A, _plan(A.p, n, kind, None), flat)


def _length_algebras():
    nil, direct = samples.trunc_nil_polar, samples.polar_direct_sum
    out = []
    for F, lengths in ((F2, (1, 2, 3, 4)), (F3, (1, 2, 3))):
        p = F.p
        out += [(A, lengths) for A in (
            nil(F, p + 2),                                   # L = p + 2
            direct(nil(F, p + 1), nil(F, p + 3)),            # mixed lengths
            samples.trivial_polar(F, 2),                     # mu = 0, L = p
            samples.split_polar(F, 2))]                      # L = None
    return out


LENGTH_ALGEBRAS = _length_algebras()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(LENGTH_ALGEBRAS))), st.data())
def test_plans_keyed_by_product_length_match_the_full_family(k, data):
    A, lengths = LENGTH_ALGEBRAS[k]
    n = data.draw(st.sampled_from(lengths))
    elem = st.integers(0, A.field.q - 1)
    coords = st.lists(st.tuples(*[elem] * A.dim), min_size=n, max_size=n)
    x, y, *fs = (witt(A, data.draw(coords)) for _ in range(2 + A.p))
    a = data.draw(st.lists(elem, min_size=n, max_size=n))
    assert w_add(x, y).coords == _full_op("sum", A, n, x.coords + y.coords)
    assert w_neg(x).coords == _full_op("neg", A, n, x.coords)
    assert w_product(fs).coords == _full_op(
        "prod", A, n, tuple(c for f in fs for c in f.coords))
    assert scalar_mul(scalar_witt(A.field, a), x).coords == \
        _full_op("scalar", A, n, x.coords + tuple(a))


def test_truncated_plans_leave_the_family_cache_alone(monkeypatch):
    # nilpotent and mu = 0 algebras up to p = 3, n = 4: every plan is lifted
    # in the truncated quotient, so the universal families are never asked for
    from wittpolar import wittmod
    reads = []
    monkeypatch.setattr(wittmod, "universal_polys",
                        lambda *args, **kwargs: reads.append(args))
    wittmod._plan.cache_clear()
    rng = random.Random(61)
    algebras = (samples.trunc_nil_polar(F2, 5), samples.trunc_nil_polar(F3, 4),
                samples.polar_direct_sum(samples.trunc_nil_polar(F3, 4),
                                         samples.trunc_nil_polar(F3, 6)),
                samples.trivial_polar(F2, 2), samples.trivial_polar(F3, 2))
    for A in algebras:
        for n in (1, 2, 3, 4):
            x, y, *fs = (rand_witt(rng, A, n) for _ in range(2 + A.p))
            a = samples.random_scalar(rng, A.field, n)
            w_add(x, y), w_neg(x), w_product(fs), scalar_mul(a, x)
    assert wittmod._plan.cache_info().misses == len(algebras) * 4 * 4
    assert reads == []
