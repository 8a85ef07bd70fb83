"""Co-Witt vectors: validity, stabilized sums, F and V."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittpolar import cowitt, samples
from wittpolar.cowitt import (CoWittElement, cw_F, cw_V, cw_add, cw_from_cwu,
                              cw_neg, cw_validate, cw_zero, cwu_from_cw,
                              stabilized_entry, witness_search)
from wittpolar.gfq import gf_build
from wittpolar.wittmod import cwu_add, cwu_class, cwu_F, cwu_V

F2 = gf_build(2, 1)
F3 = gf_build(3, 1)

A2 = samples.trunc_nil_polar(F2, 4)
A3 = samples.trunc_nil_polar(F3, 3)


def rand_cw(A, rng, maxdepth=3):
    exc = {}
    for _ in range(rng.randrange(0, maxdepth)):
        exc[-rng.randrange(0, maxdepth + 1)] = samples.random_vector(rng, A)
    return CoWittElement(A, samples.random_vector(rng, A), exc, (0, 2))


def test_zero_element_valid():
    z = cw_zero(A2)
    assert cw_validate(z)
    assert witness_search(z) == (0, 0)


def test_unit_tail_invalid_over_field():
    B = samples.split_polar(F2, 1)
    x = CoWittElement(B, (1,), {}, (0, 0))
    assert not cw_validate(x)
    assert witness_search(x) is None


def test_field_elements_have_finite_support():
    B = samples.split_polar(F3, 1)
    x = CoWittElement(B, (0,), {0: (2,), -1: (1,)}, (0, 0))
    assert cw_validate(x)


def test_spec_witness_example():
    # tail x^2 with exception x at index 0: (r, s) = (1, 1) works because
    # (x^2)^2 = 0 and the index-0 exception sits above -r
    x = CoWittElement(A2, (0, 1, 0), {0: (1, 0, 0)}, (1, 1))
    assert cw_validate(x)
    # the automatic search prefers the smallest r, where s = 2 is needed
    assert witness_search(x) == (0, 2)


def test_add_zero_neutral():
    rng = random.Random(5)
    for A in (A2, A3):
        x = rand_cw(A, rng)
        s = cw_add(x, cw_zero(A))
        assert s.tail == x.tail and s.exceptions == x.exceptions


def test_add_commutative_and_associative():
    rng = random.Random(11)
    for A in (A2, A3):
        for _ in range(6):
            x, y, z = rand_cw(A, rng), rand_cw(A, rng), rand_cw(A, rng)
            assert cw_add(x, y) == cw_add(y, x)
            assert cw_add(cw_add(x, y), z) == cw_add(x, cw_add(y, z))


def test_neg_gives_inverse():
    rng = random.Random(13)
    for A in (A2, A3):
        for _ in range(5):
            x = rand_cw(A, rng)
            assert cw_add(x, cw_neg(x)).is_zero()


def test_offset_independence():
    rng = random.Random(17)
    for A in (A2, A3):
        for _ in range(5):
            x, y = rand_cw(A, rng), rand_cw(A, rng)
            for n in (0, 1, 3):
                v0 = stabilized_entry([x, y], n, "sum", start_m=0)
                v1 = stabilized_entry([x, y], n, "sum", start_m=1)
                v2 = stabilized_entry([x, y], n, "sum", start_m=2)
                assert v0 == v1 == v2


def test_finite_support_matches_cwu():
    rng = random.Random(19)
    for A in (A2, A3):
        for _ in range(8):
            x = samples.random_witt(rng, A, 3)
            y = samples.random_witt(rng, A, 3)
            cx, cy = cwu_class(x), cwu_class(y)
            lhs = cw_add(cw_from_cwu(cx), cw_from_cwu(cy))
            assert cwu_from_cw(lhs).rep == cwu_add(cx, cy).rep
            # every index agrees with the lifted Witt sum
            from wittpolar.wittmod import w_add
            s = w_add(x, y)
            for i in range(3):
                assert lhs.entry(-i) == s.coords[2 - i]


def test_embedding_equivariance():
    rng = random.Random(23)
    for A in (A2, A3):
        c = cwu_class(samples.random_witt(rng, A, 3))
        assert cw_V(cw_from_cwu(c)) == cw_from_cwu(cwu_V(c))
        assert cw_F(cw_from_cwu(c)) == cw_from_cwu(cwu_F(c))


def test_fv_relations():
    rng = random.Random(29)
    for A in (A2, A3):
        for _ in range(5):
            x = rand_cw(A, rng)
            fv = cw_F(cw_V(x))
            vf = cw_V(cw_F(x))
            px = cw_add(x, x)
            for _ in range(A.p - 2):
                px = cw_add(px, x)
            assert fv == vf
            # compare entrywise against p-fold addition
            for i in range(4):
                assert fv.entry(-i) == px.entry(-i)
            assert fv.tail == px.tail


def test_v_shifts_and_f_powers():
    x = CoWittElement(A2, (1, 0, 0), {0: (0, 1, 0), -1: (0, 0, 1)}, (0, 2))
    v = cw_V(x)
    assert v.entry(0) == (0, 0, 1)   # old index -1
    assert v.entry(-1) == (1, 0, 0)  # old index -2 was tail
    f = cw_F(x)
    assert f.entry(0) == A2.ppow((0, 1, 0))
    assert f.tail == A2.ppow((1, 0, 0))


def test_validation_required_for_add():
    B = samples.split_polar(F2, 1)
    bad = CoWittElement(B, (1,), {}, (0, 3))
    with pytest.raises(ValueError):
        cw_add(bad, cw_zero(B))


def test_mixed_algebra_with_unit_component():
    # F_2 x (x F_2[x]/(x^3)): valid elements may carry unit entries at
    # shallow indices as long as the deep entries stay nilpotent
    M = samples.polar_direct_sum(samples.split_polar(F2, 1),
                                 samples.trunc_nil_polar(F2, 3))
    x = CoWittElement(M, (0, 1, 0), {0: (1, 0, 0)}, (1, 2))
    y = CoWittElement(M, (0, 0, 1), {0: (1, 1, 0), -1: (0, 1, 1)}, (1, 1))
    assert cw_validate(x) and cw_validate(y)
    s = cw_add(x, y)
    assert cw_add(y, x) == s
    t = stabilized_entry([x, y], 0, "sum", start_m=1)
    assert s.entry(0) == t


def test_json_round_trip():
    from wittpolar.cowitt import cw_from_json
    x = CoWittElement(A2, (0, 1, 0), {0: (1, 0, 0), -2: (0, 0, 1)}, (0, 1))
    data = x.to_json()
    assert data["exceptions"]["-2"] == [[0], [0], [1]]
    assert cw_from_json(A2, data) == x


# -- the pattern-keyed window memo ----------------------------------------------


def test_memo_cold_and_warm_agree():
    rng = random.Random(37)
    for A in (A2, A3):
        pairs = [(rand_cw(A, rng), rand_cw(A, rng)) for _ in range(4)]
        cowitt._window_poly.cache_clear()
        cold = [(cw_add(x, y), cw_neg(x)) for x, y in pairs]
        assert cowitt._window_poly.cache_info().misses > 0
        warm = [(cw_add(x, y), cw_neg(x)) for x, y in pairs]
        assert warm == cold


def test_memo_entry_reused_across_values():
    # x and x + x^2 (likewise x^2 and x^2 + x^3) are nonzero and generate
    # the same ideals, so both pairs share every window key
    x = CoWittElement(A2, (0, 1, 0), {0: (1, 0, 0), -1: (0, 0, 1)}, (0, 0))
    y = CoWittElement(A2, (1, 0, 0), {-2: (0, 1, 0)}, (0, 0))
    x2 = CoWittElement(A2, (0, 1, 1), {0: (1, 1, 0), -1: (0, 0, 1)}, (0, 0))
    y2 = CoWittElement(A2, (1, 1, 0), {-2: (0, 1, 1)}, (0, 0))
    cowitt._window_poly.cache_clear()
    s = cw_add(x, y)
    info = cowitt._window_poly.cache_info()
    s2 = cw_add(x2, y2)
    after = cowitt._window_poly.cache_info()
    assert after.misses == info.misses and after.hits > info.hits
    assert after.currsize == info.currsize
    assert s != s2 and s2 == cw_add(y2, x2)


def test_memo_builder_keeps_the_congruence_check(monkeypatch):
    from wittpolar import wittuniv
    from wittpolar.wittuniv import DworkCongruenceFailed
    key = (2, 2, "sum", (False,) * 6, (True, False, False), (None, 4))
    cowitt._window_poly.cache_clear()
    monkeypatch.setattr(wittuniv, "dwork_congruence_holds",
                        lambda p, targets, kill=None: 1)
    with pytest.raises(DworkCongruenceFailed):
        cowitt._window_poly(*key)
    monkeypatch.undo()
    # the failure was not memoized: the same key now builds
    assert cowitt._window_poly.cache_info().currsize == 0
    assert cowitt._window_poly(*key) != ()


_NIL = {(q, N): samples.trunc_nil_polar(gf_build(q, 1), N)
        for q in (2, 3) for N in (2, 3, 4, 5)}


@st.composite
def nil_cw_triple(draw):
    A = _NIL[(draw(st.sampled_from((2, 3))), draw(st.integers(2, 5)))]
    vec = st.tuples(*[st.integers(0, A.field.q - 1)] * A.dim)

    def element():
        exc = draw(st.dictionaries(st.integers(-2, 0), vec, max_size=3))
        return CoWittElement(A, draw(vec), exc, (0, 0))

    return element(), element(), element()


@settings(max_examples=40, deadline=None)
@given(nil_cw_triple())
def test_add_commutes_and_neg_inverts_property(triple):
    x, y, z = triple
    assert cw_add(x, y) == cw_add(y, x)
    assert cw_add(x, cw_neg(x)).is_zero()
    assert cw_add(cw_add(x, y), z) == cw_add(x, cw_add(y, z))


# -- the certified window depth -------------------------------------------------


_MIXED = samples.polar_direct_sum(samples.split_polar(F2, 1),
                                  samples.trunc_nil_polar(F2, 3))


def _settled_cw(A, rng):
    """A random valid element with its minimal witness."""
    while True:
        x = rand_cw(A, rng)
        w = witness_search(x)
        if w is not None:
            return CoWittElement(A, x.tail, x.exceptions, w)


def test_certified_depth_matches_deeper_windows():
    # the window at the certified depth m* agrees with the windows at
    # m*+1 .. m*+dim+2 for every entry a sum or negation reads, tail
    # included, on pol(x F_q[x]/(x^N)) and on F_2 x x F_2[x]/(x^3), whose
    # unit component allows witnesses with r > 0
    rng = random.Random(41)
    max_r = 0
    for A in [_NIL[(q, N)] for q in (2, 3) for N in (3, 4, 5)] + [_MIXED]:
        for _ in range(4):
            x, y = _settled_cw(A, rng), _settled_cw(A, rng)
            for elems, op in (([x, y], "sum"), ([x], "neg")):
                r = max(e.witness[0] for e in elems)
                max_r = max(max_r, r)
                caps = cowitt._caps_for(A, elems, r)
                tails = [CoWittElement(A, e.tail, {}, e.witness)
                         for e in elems]
                entries = [(tails, 0, 0)] + [
                    (elems, n, start_m)
                    for n in range(max(e.depth() for e in elems) + r + 1)
                    for start_m in (0, 1)]
                for es, n, start_m in entries:
                    m = cowitt._certified_depth(es, n, r, caps, start_m)
                    v = cowitt._stabilized_entry(es, n, op, start_m, caps)
                    # start_m = deeper reads the window at that level
                    for deeper in range(m + 1, m + A.dim + 3):
                        assert cowitt._stabilized_entry(
                            es, n, op, deeper, caps) == v, (es, n, deeper)
    assert max_r > 0
