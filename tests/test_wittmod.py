"""Concrete Witt vectors over p-polar algebras."""

import os
import random
import subprocess
import sys
from functools import lru_cache
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittpolar import samples
from wittpolar.gfq import gf_build
from wittpolar.ppolar import nilradical, polarize, product_length, quotient
from wittpolar.wittmod import (_plan, _plan_source, eval_polar_poly,
                               frobenius_charp, p_mul, scalar_mul,
                               scalar_phi, scalar_witt, teichmuller,
                               truncate, verschiebung, w_add, w_neg,
                               w_product, w_zero, witt)
from wittpolar.wittuniv import universal_polys

F2 = gf_build(2, 1)
F3 = gf_build(3, 1)
F4 = gf_build(2, 2)
F9 = gf_build(3, 2)
F5 = gf_build(5, 1)
F7 = gf_build(7, 1)


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


@pytest.mark.parametrize("n", [1, 2])
def test_seven_ary_product_of_teichmullers(n):
    # [a_1] .. [a_7] = [mu(a_1, .., a_7)] over pol(F_7), pol(F_49) and the
    # nilpotent pol(x F_7[x]/(x^3)), where every 7-fold product vanishes
    rng = random.Random(71 + n)
    for A in (samples.split_polar(F7, 1), samples.field_ext_polar(F7, 2),
              samples.trunc_nil_polar(F7, 3)):
        for _ in range(3):
            entries = [samples.random_vector(rng, A) for _ in range(7)]
            prod = w_product([teichmuller(A, a, n) for a in entries])
            assert prod == teichmuller(A, A.mu_p(entries), n)


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
    from wittpolar.wittmod import eval_polar_poly, polar_plan
    for A in (samples.trunc_nil_polar(F2, 4), samples.trunc_nil_polar(F3, 3)):
        for n in (1, 2, 3):
            polys = [c.reduce_mod(A.p)
                     for c in universal_polys(A.p, n, "frob")]
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
    one = scalar_witt(F2, [1, 0, 0])
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
        inv = [F9.frobenius(c[0], -1) for c in a.coords]
        ext = scalar_witt(F9, inv + [0])
        rhs = scalar_mul(ext, verschiebung(x))
        assert lhs.coords == rhs.coords


def test_scalar_wrong_base_rejected():
    A = samples.trunc_nil_polar(F2, 3)
    a = scalar_witt(F3, [1, 0])
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


# -- the slot plan against a per-monomial reference ---------------------------


def _reference_op(kind, xs, scalars=()):
    """The operation by its universal polynomials, one monomial at a time:
    bind every variable by name, feed the vector variables (with
    multiplicity, in variable order) to mu_eval, and scale by the F_p
    coefficient times the scalar variables' powers."""
    from wittpolar.gfq import combine
    from wittpolar.wittuniv import witt_blocks
    A = xs[0].algebra
    # the Frobenius family at n maps W_{n+1} to W_n
    F, n = A.field, xs[0].length - (kind == "frob")
    bind = {f"{b}{i}": c for b, x in zip(witt_blocks(kind, A.p), xs)
            for i, c in enumerate(x.coords)}
    bind.update({f"a{i}": a for i, a in enumerate(scalars)})
    out = []
    for poly in universal_polys(A.p, n, kind):
        poly = poly.reduce_mod(A.p)
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
    # a change of basis gives dense coordinates and mu values with
    # coefficients other than 1, so the compiled sums scale every term
    rng = random.Random(19)
    out += [(samples.scramble(A, rng), lengths) for A, lengths in out]
    return out


# mu != 0 (nilpotent and split) and mu = 0 over each field, and each of
# them in a scrambled basis
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


# plans are unrolled over the algebra's dimension d: every d from 0 to 6 at
# p = 2, 3, 5, and one field with q > 256, whose tables compute each entry
# on lookup (kept to n <= 2 there: those lookups are slow).  Over GF(4) and
# GF(16), q^d = 256 (d = 4 and 2) is the largest table algebra, whose plans
# run on packed vectors, and every larger d runs on coordinates.
DIM_FIELDS = {2: (F2, 4), 3: (F3, 3), 4: (F4, 3), 5: (F5, 2),
              16: (gf_build(2, 4), 2), 729: (gf_build(3, 6), 2)}


@lru_cache(maxsize=None)
def _dim_algebra(q, kind, scrambled, d):
    F = DIM_FIELDS[q][0]
    A = {"nilpotent": lambda: samples.trunc_nil_polar(F, d + 1),
         "split": lambda: samples.split_polar(F, d),
         "mu = 0": lambda: samples.trivial_polar(F, d)}[kind]()
    return samples.scramble(A, random.Random(d)) if scrambled else A


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(DIM_FIELDS)),
       st.sampled_from(("nilpotent", "split", "mu = 0")), st.booleans(),
       st.integers(0, 6), st.data())
def test_ops_match_the_reference_in_every_dimension(q, kind, scrambled, d,
                                                    data):
    A = _dim_algebra(q, kind, scrambled, d)
    n = data.draw(st.integers(1, DIM_FIELDS[q][1]))
    elem = st.integers(0, q - 1)
    coords = st.lists(st.tuples(*[elem] * d), min_size=n, max_size=n)
    x, y, *fs = (witt(A, data.draw(coords)) for _ in range(2 + A.p))
    a = data.draw(st.lists(elem, min_size=n, max_size=n))
    assert w_add(x, y).coords == _reference_op("sum", [x, y])
    assert w_neg(x).coords == _reference_op("neg", [x])
    assert w_product(fs).coords == _reference_op("prod", fs)
    assert scalar_mul(scalar_witt(A.field, a), x).coords == \
        _reference_op("scalar", [x], a)
    if n >= 2:
        assert frobenius_charp(x).coords == _reference_op("frob", [x])
        assert p_mul(x).coords == (A.zero, *_reference_op("frob", [x]))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(PLAN_ALGEBRAS))), st.data())
def test_group_axioms(k, data):
    A, lengths = PLAN_ALGEBRAS[k]
    n = data.draw(st.sampled_from(lengths))
    elem = st.integers(0, A.field.q - 1)
    coords = st.lists(st.tuples(*[elem] * A.dim), min_size=n, max_size=n)
    x, y, z = (witt(A, data.draw(coords)) for _ in range(3))
    assert w_add(x, y).coords == w_add(y, x).coords
    assert w_add(w_add(x, y), z).coords == w_add(x, w_add(y, z)).coords
    assert w_add(x, w_zero(A, n)).coords == x.coords
    assert w_add(x, w_neg(x)).is_zero()
    # V at length n: truncation is a ring map, so this V is additive too
    def V(v):
        return truncate(verschiebung(v), n)
    assert V(w_add(x, y)).coords == w_add(V(x), V(y)).coords
    px = x
    for _ in range(A.p - 1):
        px = w_add(px, x)
    assert frobenius_charp(verschiebung(x)).coords == px.coords
    if n > 1:
        assert verschiebung(frobenius_charp(x)).coords == px.coords


def test_levels_of_hundreds_of_terms_match_the_reference():
    # over the unital pol(F_3) at n = 4 the top level of the sum has 454
    # terms and that of the product 315; each coordinate of them is emitted
    # as a chain of bounded sum statements, never as one expression nested
    # that deep (which the parser rejects), in one and in two dimensions
    assert len(universal_polys(3, 4, "sum")[3].reduce_mod(3).terms) > 200
    assert len(universal_polys(3, 4, "prod")[3].reduce_mod(3).terms) > 200
    rng = random.Random(83)
    for d in (1, 2):
        A = samples.split_polar(F3, d)
        inputs = [witt(A, [(2,) * d] * 4), witt(A, [(1,) * d, (2,) * d,
                                                   (0,) * d, (1,) * d])]
        inputs += [rand_witt(rng, A, 4) for _ in range(4)]
        for i, x in enumerate(inputs):
            y, z = inputs[i - 1], inputs[i - 2]
            assert w_add(x, y).coords == _reference_op("sum", [x, y])
            assert w_product([x, y, z]).coords == \
                _reference_op("prod", [x, y, z])


def test_equal_plans_built_apart_compile_once(monkeypatch):
    # the sum at n = 2, p = 3 keeps the same monomials under L = 5 and
    # L = 7: two lifts, one plan for the three algebras, and one compiled
    # function per dimension (A and its scramble share d = 4, B has d = 6)
    from wittpolar import wittmod
    built = []
    source = wittmod._plan_source

    def counted(*args):
        built.append(args)
        return source(*args)

    wittmod._plan.cache_clear()
    wittmod._plan_functions.cache_clear()
    monkeypatch.setattr(wittmod, "_plan_source", counted)
    A, B = samples.trunc_nil_polar(F3, 5), samples.trunc_nil_polar(F3, 7)
    C = samples.scramble(A, random.Random(5))
    x, y = witt(A, [(1, 2, 0, 1), (2, 2, 1, 0)]), witt(A, [(2, 1, 1, 1)] * 2)
    u, v = witt(B, [(1, 2, 0, 1, 0, 0)] * 2), witt(B, [(0, 1, 0, 0, 2, 1)] * 2)
    s, t = witt(C, x.coords), witt(C, y.coords)
    assert w_add(x, y).coords == _reference_op("sum", [x, y])
    assert w_add(u, v).coords == _reference_op("sum", [u, v])
    assert w_add(s, t).coords == _reference_op("sum", [s, t])
    assert wittmod._plan.cache_info().misses == 2
    assert A._plans["sum", 2] is B._plans["sum", 2] is C._plans["sum", 2]
    assert [args[-1] for args in built] == [4, 6]
    assert sorted(A._plans["sum", 2]) == [4, 6]


def test_plan_source_is_the_same_in_every_process():
    # the generator must not depend on how a process hashes its keys: a
    # scalar-action plan (nodes, scalar coefficients) and a co-Witt window
    # plan (a level long enough to be chunked), each unrolled over d = 3
    script = (
        "from wittpolar import wittmod; out = []; "
        "source = wittmod._plan_source; "
        "wittmod._plan_source = lambda *a: out.append(source(*a)) or out[-1]; "
        "wittmod._plan(3, 3, 'scalar', 7)[3]; "
        "wittmod._plan(3, 3, 'sum', 9, True)[3]; "
        "print(''.join(out))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       src, os.environ.get("PYTHONPATH")])))
        outs.append(subprocess.run([sys.executable, "-c", script], env=env,
                                   capture_output=True, text=True,
                                   check=True).stdout)
    assert outs[0] == outs[1]
    assert outs[0].count("def plan(mu, mt, at, q, zero, inputs)") == 2
    assert "= mu(v" in outs[0] and "k0 = mt[" in outs[0]
    assert "v0_0, v0_1, v0_2, = v0" in outs[0] and "o0_2 = " in outs[0]


# -- plans truncated by the product length against the full family -----------


def _full_op(kind, A, n, flat):
    """The operation by the plan of the full `universal_polys` family (L
    None)."""
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
            samples.split_polar(F, 2),                       # L = None
            # d = 0, L = 1: only the full family has terms to unpack
            samples.split_polar(F, 0))]
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


def test_frobenius_plans_lift_nothing(monkeypatch):
    # F, p.x, phi and the co-Witt F run the closed form x_i -> x_i^p: no
    # Dwork lift and no universal family, at any length, also over unital
    # algebras (no product length) and on mu = 0 (every power killed)
    from wittpolar import cowitt, wittmod

    def refuse(*args, **kwargs):
        raise AssertionError("the Frobenius plan lifted a family")

    monkeypatch.setattr(wittmod, "dwork_lift", refuse)
    monkeypatch.setattr(wittmod, "universal_polys", refuse)
    rng = random.Random(89)
    for A in (samples.trunc_nil_polar(F2, 5), samples.split_polar(F3, 2),
              polarize(F4, samples.unital_poly_table(F4, 3)),
              samples.trivial_polar(F3, 2), samples.split_polar(F5, 1)):
        for n in (1, 2, 5, 64):
            x = rand_witt(rng, A, n)
            powers = tuple(A.mu_eval([c] * A.p) for c in x.coords[:-1])
            assert wittmod._plan.__wrapped__(A.p, n, "frob",
                                             product_length(A)).shape[1] == n
            if n > 1:
                assert frobenius_charp(x).coords == powers
            assert p_mul(x).coords == (A.zero, *powers)
        a = samples.random_scalar(rng, A.field, 64)
        assert scalar_phi(a).coords == tuple(
            (A.field.frobenius(c[0], 1),) for c in a.coords)
    A = samples.trunc_nil_polar(F2, 4)
    x = cowitt.CoWittElement(A, (0, 1, 0), {-3: (1, 1, 0), -1: (1, 0, 1)})
    y = cowitt.cw_F(x)
    assert (y.tail, y.exceptions) == (A.ppow(x.tail), {
        i: A.ppow(v) for i, v in x.exceptions.items()})
    assert y.witness == cowitt.witness_search(y)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("op", ["sum", "neg"])
def test_window_plans_and_witt_plans_come_from_one_lift(p, op):
    # a window plan under cap L is the top level of the W_n plan under
    # product length L: one kill rule serves both
    from wittpolar.ppolar import product_length
    from wittpolar.wittmod import _plan, eval_polar_poly
    F = gf_build(p, 1)
    rng = random.Random(67 + p)
    for A in (samples.trunc_nil_polar(F, p + 2), samples.trivial_polar(F, 2)):
        L = product_length(A)
        for n in (1, 2, 3):
            window, family = _plan(p, n, op, L, True), _plan(p, n, op, L)
            for _ in range(4):
                flat = tuple(c for _ in range(2 if op == "sum" else 1)
                             for c in rand_witt(rng, A, n).coords)
                assert eval_polar_poly(A, window, flat) == \
                    eval_polar_poly(A, family, flat)[-1:]


# -- table form against coordinate form --------------------------------------


def _table_algebras():
    """Table algebras (p = 2, q^dim <= 256) of each kind: nilpotent, split,
    unital and mu = 0, each with mu != 0 also in a scrambled basis, up to
    q^dim = 256."""
    rng = random.Random(71)
    F16 = gf_build(2, 4)
    out = []
    for F, d in ((F2, 4), (F2, 8), (F4, 3), (F4, 4), (F16, 2)):
        out += [samples.trunc_nil_polar(F, d + 1), samples.split_polar(F, d),
                samples.trivial_polar(F, d)]
    out.append(samples.polar_direct_sum(samples.split_polar(F2, 1),
                                        samples.trunc_nil_polar(F2, 4)))
    out.append(polarize(F4, samples.unital_poly_table(F4, 3)))
    return out + [samples.scramble(A, rng) for A in out if A.mu]


TABLE_ALGEBRAS = _table_algebras()


def _plans(A):
    """Every plan A's W_n operations (n <= 4) and its co-Witt windows at
    t_deep = 3 and 5 run, with the number of scalar slots of each."""
    L = product_length(A)
    for n in (1, 2, 3, 4):
        for kind in ("sum", "neg", "prod", "scalar", "frob"):
            yield _plan(2, n, kind, L), n if kind == "scalar" else 0
        for t_deep in (3, 5):
            for op in ("sum", "neg"):
                yield _plan(2, n, op, t_deep, True), 0


@pytest.mark.parametrize("k", range(len(TABLE_ALGEBRAS)))
def test_table_form_matches_coordinate_form_on_every_plan(k):
    # a plan with a partial product runs on packed vectors over a table
    # algebra, one with none on coordinates; the coordinate function of
    # the same plan, for the algebra's dimension, is the reference
    A = TABLE_ALGEBRAS[k]
    F, Q = A.field, A.field.q ** A.dim
    assert A.plan_key == ~A.dim
    rng = random.Random(73 + k)
    kernel = A.kernel()
    tables = 0
    for plan, scalars in _plans(A):
        width, nodes = plan.shape[1:3]
        table = "tmu[" in _plan_source(*plan.shape, A.plan_key)
        assert table == bool(nodes)
        tables += table
        for _ in range(6):
            flat = tuple([tuple(rng.randrange(F.q) for _ in range(A.dim))
                          for _ in range(width - scalars)]
                         + [rng.randrange(F.q) for _ in range(scalars)])
            assert eval_polar_poly(A, plan, flat) == \
                plan[A.dim](*kernel[:5], flat)
    assert tables
    # over the algebras with at most 64 vectors, the product of two W_1
    # vectors, one partial product, on every pair: every entry of the
    # product table is read
    if Q <= 64:
        plan = _plan(2, 1, "prod", product_length(A))
        vectors = list(iproduct(range(F.q), repeat=A.dim))
        for flat in iproduct(vectors, repeat=2):
            assert eval_polar_poly(A, plan, flat) == \
                plan[A.dim](*kernel[:5], flat)
    # the Frobenius on all Q vectors in one evaluation, Q <= 256 on every
    # table algebra: each diagonal entry of the product table is read, the
    # square of the last vector included, which random draws can miss
    vectors = tuple(iproduct(range(F.q), repeat=A.dim))
    plan = _plan(2, Q, "frob", product_length(A))
    squares = eval_polar_poly(A, plan, vectors)
    assert squares == plan[A.dim](*kernel[:5], vectors)
    assert squares == tuple(A.mu_p([v] * A.p) for v in vectors)
