"""Co-Witt vectors: validity, stabilized sums, F and V."""

import copy
import json
import random
from functools import lru_cache
from itertools import combinations_with_replacement
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittpolar import cowitt, gfq, ppolar, samples, wittmod
from wittpolar.cowitt import (CoWittElement, cw_F, cw_V, cw_add, cw_neg,
                              stabilized_entry, witness_search)
from wittpolar.gfq import combine, gf_build, rref
from wittpolar.ppolar import (PPolarAlgebra, ideal_generated, nilpotence_index,
                              polarize)
from wittpolar.wittmod import (eval_polar_poly, polar_plan, truncate, w_add,
                               w_neg, witt)
from wittpolar.wittuniv import _targets, dwork_lift, witt_blocks

F2 = gf_build(2, 1)
F3 = gf_build(3, 1)

A2 = samples.trunc_nil_polar(F2, 4)
A3 = samples.trunc_nil_polar(F3, 3)


def finite_support(x):
    """The Witt vector x_0..x_{n-1} at indices -(n-1)..0, zero tail."""
    n = x.length
    return CoWittElement(x.algebra, x.algebra.zero,
                         {i - n + 1: c for i, c in enumerate(x.coords)})


def rand_cw(A, rng, maxdepth=3):
    exc = {}
    for _ in range(rng.randrange(0, maxdepth)):
        exc[-rng.randrange(0, maxdepth + 1)] = samples.random_vector(rng, A)
    return CoWittElement(A, samples.random_vector(rng, A), exc, (0, 2))


def test_zero_element_valid():
    z = CoWittElement(A2, A2.zero)
    assert witness_search(z) == (0, 0)


def test_unit_tail_invalid_over_field():
    B = samples.split_polar(F2, 1)
    x = CoWittElement(B, (1,), {}, (0, 0))
    assert witness_search(x) is None


def test_field_elements_have_finite_support():
    B = samples.split_polar(F3, 1)
    x = CoWittElement(B, (0,), {0: (2,), -1: (1,)}, (0, 0))
    assert witness_search(x) is not None


def test_spec_witness_example():
    # tail x^2 with exception x at index 0: (r, s) = (1, 1) works because
    # (x^2)^2 = 0 and the index-0 exception sits above -r
    x = CoWittElement(A2, (0, 1, 0), {0: (1, 0, 0)}, (1, 1))
    assert nilpotence_index(A2, cowitt._deep_ideal(x, 1)) == 1
    # the automatic search prefers the smallest r, where s = 2 is needed
    assert witness_search(x) == (0, 2)


def test_add_zero_neutral():
    rng = random.Random(5)
    for A in (A2, A3):
        x = rand_cw(A, rng)
        s = cw_add(x, CoWittElement(A, A.zero))
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
    # zero-tail operands over a nilpotent algebra split at r = 0, so the
    # windows give every entry; W_n and the windowed value at every index
    # are the independent checks
    rng = random.Random(19)
    for A in (A2, A3):
        for _ in range(8):
            x = samples.random_witt(rng, A, 3)
            y = samples.random_witt(rng, A, 3)
            # a shallower operand is V-padded at the deep end
            y2 = truncate(y, 2)
            for ws, op, want in (
                    ([x, y], "sum", w_add(x, y)),
                    ([x], "neg", w_neg(x)),
                    ([x, y2], "sum",
                     w_add(x, witt(A, (A.zero,) + y2.coords)))):
                elems = [finite_support(w) for w in ws]
                got = cw_add(*elems) if op == "sum" else cw_neg(*elems)
                # equal at every index, none set below -2
                assert got == finite_support(want)
                for n in range(4):
                    assert got.entry(-n) == stabilized_entry(elems, n, op)


@pytest.mark.parametrize("depth", [41, 63])
def test_deep_zero_tail_ops_match_the_windows(depth):
    # beyond the lift envelope zero-tail operands take the windows; W_n of
    # length depth + 1 needs packed exponent fields past 64 bits, as
    # 3^depth >= 2^64
    rng = random.Random(depth)
    x, y = (CoWittElement(
        A3, A3.zero, {-i: samples.random_vector(rng, A3)
                      for i in (0, depth // 2, depth)}) for _ in range(2))
    xs = [witt(A3, [e.entry(i - depth) for i in range(depth + 1)])
          for e in (x, y)]
    for elems, op, got, want in (
            ([x, y], "sum", cw_add(x, y), w_add(*xs)),
            ([x], "neg", cw_neg(x), w_neg(xs[0]))):
        assert got == finite_support(want)
        for n in range(depth + 2):
            assert got.entry(-n) == stabilized_entry(elems, n, op), (op, n)


def test_embedding_equivariance():
    rng = random.Random(23)
    for A in (A2, A3):
        x = samples.random_witt(rng, A, 3)
        assert cw_V(finite_support(x)) == finite_support(truncate(x, 2))
        assert cw_F(finite_support(x)) == finite_support(
            witt(A, [A.ppow(c) for c in x.coords]))


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
        cw_add(bad, CoWittElement(B, B.zero))


def test_mixed_algebra_with_unit_component():
    # F_2 x (x F_2[x]/(x^3)): valid elements may carry unit entries at
    # shallow indices as long as the deep entries stay nilpotent
    M = samples.polar_direct_sum(samples.split_polar(F2, 1),
                                 samples.trunc_nil_polar(F2, 3))
    x = CoWittElement(M, (0, 1, 0), {0: (1, 0, 0)}, (1, 2))
    y = CoWittElement(M, (0, 0, 1), {0: (1, 1, 0), -1: (0, 1, 1)}, (1, 1))
    assert witness_search(x) is not None and witness_search(y) is not None
    s = cw_add(x, y)
    assert cw_add(y, x) == s
    # index 0 lies above -r, so this reads the split operation itself
    t = stabilized_entry([x, y], 0, "sum", start_m=1)
    assert s.entry(0) == t == _mixed_window_entry(
        [x, y], 0, "sum", start_m=1)


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
        wittmod._plan.cache_clear()
        cold = [(cw_add(x, y), cw_neg(x)) for x, y in pairs]
        assert wittmod._plan.cache_info().misses > 0
        warm = [(cw_add(x, y), cw_neg(x)) for x, y in pairs]
        assert warm == cold


def test_memo_entry_reused_across_values():
    # x and x + x^2 (likewise x^2 and x^2 + x^3) are nonzero and generate
    # the same ideals, so both pairs share every window key
    x = CoWittElement(A2, (0, 1, 0), {0: (1, 0, 0), -1: (0, 0, 1)}, (0, 0))
    y = CoWittElement(A2, (1, 0, 0), {-2: (0, 1, 0)}, (0, 0))
    x2 = CoWittElement(A2, (0, 1, 1), {0: (1, 1, 0), -1: (0, 0, 1)}, (0, 0))
    y2 = CoWittElement(A2, (1, 1, 0), {-2: (0, 1, 1)}, (0, 0))
    # x with its index -1 entry zeroed: the same cap, another zero pattern
    x3 = CoWittElement(A2, (0, 1, 0), {0: (1, 0, 0), -1: (0, 0, 0)}, (0, 0))
    wittmod._plan.cache_clear()
    s = cw_add(x, y)
    info = wittmod._plan.cache_info()
    s2 = cw_add(x2, y2)
    after = wittmod._plan.cache_info()
    assert after.misses == info.misses and after.hits > info.hits
    assert after.currsize == info.currsize
    assert s != s2 and s2 == cw_add(y2, x2)
    s3 = cw_add(x3, y)
    last = wittmod._plan.cache_info()
    assert last.misses == info.misses and last.hits > after.hits
    assert s3 != s and s3 == cw_add(y, x3)


def test_memo_builder_keeps_the_congruence_check(monkeypatch):
    from wittpolar.wittuniv import DworkCongruenceFailed, _targets

    def broken(p, n, op):
        # a constant 1 added to t_1 breaks t_1 = phi(t_0) mod p
        t = _targets(p, n, op)
        return [t[0], t[1] + 1] + t[2:]
    key = (2, 3, "sum", 4, True)
    wittmod._plan.cache_clear()
    monkeypatch.setattr(wittmod, "_targets", broken)
    with pytest.raises(DworkCongruenceFailed) as err:
        wittmod._plan(*key)
    assert err.value.level == 1
    monkeypatch.undo()
    # the failure was not memoized: the same key now builds
    assert wittmod._plan.cache_info().currsize == 0
    assert wittmod._plan(*key) != ()


_NIL = {(q, N): samples.trunc_nil_polar(gf_build(q, 1), N)
        for q in (2, 3) for N in (2, 3, 4, 5)}

_MIXED = samples.polar_direct_sum(samples.split_polar(F2, 1),
                                  samples.trunc_nil_polar(F2, 3))


@st.composite
def valid_cw_triple(draw):
    """Three valid elements over one of the nilpotent algebras or over
    _MIXED, where a unit entry at index 0 forces a witness with r > 0.
    _MIXED has a branch of its own: the validity filter rejects about
    half of its elements."""
    A = draw(st.just(_MIXED) | st.sampled_from(list(_NIL.values())))
    vec = st.tuples(*[st.integers(0, A.field.q - 1)] * A.dim)
    element = st.builds(
        lambda tail, exc: CoWittElement(A, tail, exc, (0, 0)), vec,
        st.dictionaries(st.integers(-2, 0), vec, max_size=3)).filter(
            lambda x: witness_search(x) is not None)
    return draw(element), draw(element), draw(element)


@settings(max_examples=40, deadline=None)
@given(valid_cw_triple())
def test_add_commutes_and_neg_inverts_property(triple):
    x, y, z = triple
    assert cw_add(x, y) == cw_add(y, x)
    assert cw_add(x, cw_neg(x)).is_zero()
    assert cw_add(cw_add(x, y), z) == cw_add(x, cw_add(y, z))


# -- the mixed-cap window, the reference for the split ------------------------


@lru_cache(maxsize=None)
def _mixed_window_plan(p, n, op, t_deep, deep):
    """The top level of the W_n sum or negation lifted with a monomial
    killed when its degree in the variables at the positions i with
    deep[i] is >= t_deep; the positions without the flag stay uncapped."""
    targets = _targets(p, n, op)
    names = [f"{b}{i}" for b in witt_blocks(op, p) for i in range(n)]
    capped = [k for k, v in enumerate(targets[0].vars)
              if deep[names.index(v) % n]]
    top = dwork_lift(p, targets,
                     kill=lambda e: sum(e[k] for k in capped) >= t_deep)[-1]
    return polar_plan(p, [top.reduce_mod(p)], names)


def _mixed_window_entry(elems, n, op, start_m=0):
    """The entry at index -n of `op` on valid `elems`, read off one
    window that may also hold shallow entries (indices above -r, r the
    largest witness), which it leaves uncapped.  Its last R = max(0, r - n)
    positions are shallow, and its level is dead once
    (p-1)(L - max(R, 1) + 1) + 1 >= t_deep."""
    A = elems[0].algebra
    t_deep = cowitt._cap(A)
    r = max(e.witness[0] for e in elems)
    R1 = max(1, r - n)
    dead = R1 - 1 + max(1, -(-(t_deep - 1) // (A.p - 1)))
    m = max(start_m, dead - 1)
    idxs = range(-n - m, -n + 1)
    plan = _mixed_window_plan(A.p, m + 1, op, t_deep,
                              tuple(i <= -r for i in idxs))
    flat = [e.entry(i) for e in elems for i in idxs]
    return eval_polar_poly(A, plan, flat)[0]


_UNITAL = [polarize(F, samples.unital_poly_table(F, 3)) for F in (F2, F3)]


@st.composite
def mixed_window_pair(draw):
    """Two valid elements with their minimal witnesses over one of
    `valid_cw_triple`'s algebras or the unital pol(F_q[x]/(x^3)), q = 2, 3,
    whose tails there lie in the nilradical (first coordinate 0) and whose
    exceptions may be units."""
    unital = draw(st.booleans())
    A = draw(st.sampled_from(_UNITAL) if unital else
             st.just(_MIXED) | st.sampled_from(list(_NIL.values())))
    elem = st.integers(0, A.field.q - 1)
    vec = st.tuples(*[elem] * A.dim)
    tail = st.tuples(st.just(0), *[elem] * (A.dim - 1)) if unital else vec
    element = st.builds(
        lambda t, exc: CoWittElement(A, t, exc, (0, 0)), tail,
        st.dictionaries(st.integers(-2, 0), vec, max_size=3)).filter(
            lambda x: witness_search(x) is not None)
    return draw(element), draw(element)


@settings(max_examples=60, deadline=None)
@given(mixed_window_pair())
def test_split_operations_match_the_mixed_cap_window(pair):
    # every entry of the sum and the negation, the tail included, against
    # one window per index that leaves the shallow positions uncapped
    x, y = pair
    for elems, op, got in (([x, y], "sum", cw_add(x, y)),
                           ([x], "neg", cw_neg(x))):
        explicit = max(max(e.depth(), e.witness[0]) for e in elems)
        assert got.tail == _mixed_window_entry(elems, explicit + 1, op)
        for n in range(explicit + 1):
            assert got.entry(-n) == _mixed_window_entry(elems, n, op), (op, n)


# -- the certified window depth -------------------------------------------------


def _valid_cw(A, rng):
    """A random valid element."""
    while True:
        x = rand_cw(A, rng)
        if witness_search(x) is not None:
            return x


def test_certified_depth_matches_deeper_windows():
    # the window at the certified depth m* agrees with the windows at
    # m*+1 .. m*+dim+2 for every entry at -r or deeper that a sum or
    # negation reads, the new tail at n_explicit + 1 included, and the
    # entries above -r agree with the mixed-cap window, on pol(x F_q[x]/(x^N)),
    # on F_2 x x F_2[x]/(x^3), whose unit component allows witnesses with
    # r > 0, and on the unital pol(F_q[x]/(x^3)), whose nilradical, the
    # source of t_deep, is neither 0 nor the whole algebra
    rng = random.Random(41)
    max_r = 0
    unital = [polarize(F, samples.unital_poly_table(F, 3)) for F in (F2, F3)]
    for A in [_NIL[(q, N)] for q in (2, 3) for N in (3, 4, 5)] + [_MIXED] \
            + unital:
        cap = cowitt._cap(A)
        for _ in range(4):
            x, y = _valid_cw(A, rng), _valid_cw(A, rng)
            for elems, op in (([x, y], "sum"), ([x], "neg")):
                r = max(e.witness[0] for e in elems)
                max_r = max(max_r, r)
                depth = max(e.depth() for e in elems)
                entries = [(max(depth, r) + 1, 0)] + [
                    (n, start_m) for n in range(depth + r + 1)
                    for start_m in (0, 1)]
                for n, start_m in entries:
                    if n < r:
                        # a window there would hold shallow entries: the
                        # split operation's entry is checked instead
                        assert stabilized_entry(elems, n, op, start_m) == \
                            _mixed_window_entry(elems, n, op, start_m), n
                        continue
                    m = cowitt._certified_depth(A.p, cap, start_m)
                    v = cowitt._windows(elems, 0, (n,), op, start_m, cap)[0]
                    # start_m = deeper reads the window at that level
                    for deeper in range(m + 1, m + A.dim + 3):
                        assert cowitt._windows(elems, 0, (n,), op, deeper,
                                               cap)[0] == v, (n, deeper)
    assert max_r > 0
    nil = [ppolar.nilradical(A).dim for A in unital]
    assert nil == [2, 2] and [cowitt._cap(A) for A in unital] == [3, 3]


# nilpotent algebras, where the window cap must be the product length
_NILPOTENT = [A2, A3, *_NIL.values(), samples.trivial_polar(F2, 2),
              samples.trivial_polar(F3, 2),
              samples.scramble(samples.trunc_nil_polar(F3, 4),
                               random.Random(7)),
              samples.polar_direct_sum(samples.trunc_nil_polar(F2, 3),
                                       samples.trunc_nil_polar(F2, 5))]


def test_window_cap_over_a_nilpotent_algebra_is_its_product_length():
    # Nil(A) = A, so the cap T(Nil A) is the product length L, and the
    # deep cap alone kills what a total-degree cap L would
    assert [cowitt._cap(A) for A in _NILPOTENT] == [
        ppolar.product_length(A) for A in _NILPOTENT]
    assert all(ppolar.nilradical(A).dim == A.dim for A in _NILPOTENT)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(_NILPOTENT))), st.data())
def test_settled_elements_over_a_nilpotent_algebra_have_r_zero(k, data):
    # every window position is then deep, which is what lets the one cap
    # stand for the product length
    A = _NILPOTENT[k]
    vec = st.tuples(*[st.integers(0, A.field.q - 1)] * A.dim)
    element = st.builds(lambda tail, exc, w: CoWittElement(A, tail, exc, w),
                        vec, st.dictionaries(st.integers(-3, 0), vec,
                                             max_size=3),
                        st.tuples(st.integers(0, 4), st.integers(0, 4)))
    x, y = data.draw(element), data.draw(element)
    assert witness_search(x)[0] == witness_search(y)[0] == 0
    assert cw_add(x, y).witness[0] == cw_neg(x).witness[0] == 0


def test_stabilized_entry_rejects_an_element_with_no_witness():
    # a unit tail over pol(F_2) generates the unit ideal, never nilpotent
    B = samples.split_polar(F2, 1)
    bad = CoWittElement(B, (1,), {}, (0, 3))
    with pytest.raises(ValueError):
        stabilized_entry([bad, CoWittElement(B, B.zero)], 0)


@pytest.mark.parametrize("elems, n, message", [
    # the pair `cw_add` rejects: the windows would mix two tables
    ([CoWittElement(A2, (0, 1, 0)),
      CoWittElement(samples.trivial_polar(F2, 3), (0, 0, 1))], 2,
     "different algebras"),
    ([CoWittElement(A2, (0, 1, 0))], -1, "indices <= 0"),
    ([], 0, "at least one operand"),
])
def test_stabilized_entry_rejects_bad_operands(elems, n, message):
    with pytest.raises(ValueError, match=message):
        stabilized_entry(elems, n)


def test_stabilized_entry_rejects_an_op_without_windows():
    # the ghost targets exist for prod, frob and scalar too, but windows
    # are only read for sums and negations
    x = CoWittElement(A2, (0, 1, 0), {0: (1, 0, 0)}, (0, 0))
    with pytest.raises(ValueError, match="unknown windowed op 'prod'"):
        stabilized_entry([x], 0, "prod")


# -- finite support through W_n -------------------------------------------------


_ZERO_TAIL = [samples.trunc_nil_polar(gf_build(p, m), N)
              for p, m in ((2, 1), (3, 1), (2, 2)) for N in (3, 4, 5)] + \
    [samples.split_polar(F, 1) for F in (F2, F3)]


@st.composite
def zero_tail_pair(draw):
    """Two elements with zero tails over pol(x F_q[x]/(x^N)), q = 2, 3, 4,
    or over the unital pol(F_p), p = 2, 3."""
    A = draw(st.sampled_from(_ZERO_TAIL))
    vec = st.tuples(*[st.integers(0, A.field.q - 1)] * A.dim)
    element = st.builds(lambda exc: CoWittElement(A, A.zero, exc),
                        st.dictionaries(st.integers(-3, 0), vec, max_size=4))
    return draw(element), draw(element)


@settings(max_examples=40, deadline=None)
@given(zero_tail_pair())
def test_zero_tail_sums_and_negations_match_the_windows(pair):
    # the split result against the windowed value at every index down to
    # one below the depth, where both give the zero tail
    x, y = pair
    for elems, op, got in (([x, y], "sum", cw_add(x, y)),
                           ([x], "neg", cw_neg(x))):
        assert not any(got.tail)
        for n in range(max(e.depth() for e in elems) + 2):
            assert got.entry(-n) == stabilized_entry(elems, n, op), (op, n)


def test_warm_sums_and_negations_call_neither_rref_nor_mu_p(monkeypatch):
    # after an algebra's first sum and negation, which find Nil(A), its
    # annihilator and its threshold (and, at r > 0, the product length that
    # W_r's plans read), an operation only tests membership and evaluates
    # plans: no elimination and no product through `mu_p`, at r = 0 and at
    # r > 0, over a nilpotent, a unital, a mixed and a scrambled algebra
    rng = random.Random(43)
    algebras = [A2, _UNITAL[0], _MIXED, samples.scramble(_MIXED, rng)]
    pairs = {id(A): sorted(((_valid_cw(A, rng), _valid_cw(A, rng))
                            for _ in range(8)), key=cowitt._split,
                           reverse=True) for A in algebras}
    for A in algebras:
        x, y = pairs[id(A)][0]
        cw_add(x, y), cw_neg(x)
    calls = []
    real_rref, real_mu = gfq.rref, PPolarAlgebra.mu_p
    for module in (gfq, ppolar):
        monkeypatch.setattr(module, "rref",
                            lambda *a: calls.append("rref") or real_rref(*a))
    monkeypatch.setattr(PPolarAlgebra, "mu_p",
                        lambda self, v: calls.append("mu") or real_mu(self, v))
    splits = set()
    for A in algebras:
        for x, y in pairs[id(A)][1:]:
            splits.add(cowitt._split((x, y)))
            cw_add(x, y), cw_neg(x), cw_neg(y)
    assert calls == [] and 0 in splits and max(splits) > 0


@pytest.mark.parametrize("depth", [1, 8, 32])
def test_a_warm_operation_over_a_nilpotent_algebra_is_one_plan_call(
        monkeypatch, depth):
    # Nil(A) = A: every element is valid with r = 0, so no membership test
    # runs, and one call of the window plan sweeps every window of the
    # deep part; over a mixed and a unital algebra the test still runs and
    # still rejects an invalid operand
    rng = random.Random(89 + depth)

    def element(A):
        return CoWittElement(A, samples.random_vector(rng, A), {
            -i: samples.random_vector(rng, A) for i in range(depth)})
    calls = []
    real_outside = ppolar.PolarIdeal.outside
    monkeypatch.setattr(ppolar.PolarIdeal, "outside", lambda self, vs: (
        calls.append("outside") or real_outside(self, vs)))
    for A in (A2, A3):
        x, y = element(A), element(A)
        cw_add(x, y), cw_neg(x)
        cap = cowitt._cap(A)
        m = cowitt._certified_depth(A.p, cap, 0)
        key = A._bound[0]
        for op, run in (("sum", lambda: cw_add(x, y)),
                        ("neg", lambda: cw_neg(y))):
            plan = wittmod._plan(A.p, m + 1, op, cap, True)
            monkeypatch.setitem(plan, key, lambda *a, f=plan[key], op=op: (
                calls.append(op) or f(*a)))
            calls.clear()
            run()
            assert calls == [op]
    for A in (_MIXED, _UNITAL[1]):
        x = _valid_cw(A, rng)
        calls.clear()
        cw_add(x, x), cw_neg(x)
        assert calls.count("outside") == 2
        bad = CoWittElement(A, A.basis_vector(0), {-depth: A.zero})
        assert witness_search(bad) is None
        with pytest.raises(ValueError, match="not a valid co-Witt element"):
            cw_add(x, bad)
        with pytest.raises(ValueError, match="not a valid co-Witt element"):
            cw_neg(bad)


# -- the derived witness ---------------------------------------------------------


def test_a_witness_read_makes_as_many_products_at_any_depth(monkeypatch):
    # the deep ideal's closure multiplies its rows, at most dim of them,
    # not its entries: reading the witness of a depth-8 and of a depth-64
    # element, each over a fresh copy of pol(x F_5[x]/(x^7)), makes as many
    # `mu_p` calls
    A = samples.trunc_nil_polar(gf_build(5, 1), 7)
    calls, real_mu = [], PPolarAlgebra.mu_p
    monkeypatch.setattr(PPolarAlgebra, "mu_p",
                        lambda self, v: calls.append(1) or real_mu(self, v))
    witnesses, counts = set(), []
    for depth in (8, 64):
        B = PPolarAlgebra(A.field, A.dim, A.mu)
        # entries c x^k, k = 2..6, under the tail x^3: the deep ideal is
        # x^2 A at every depth
        x = CoWittElement(B, B.basis_vector(2), {
            -i: tuple((1 + i % 4) * (j == 1 + i % 5) for j in range(B.dim))
            for i in range(depth + 1)})
        calls.clear()
        witnesses.add(x.witness)
        counts.append(len(calls))
    assert witnesses == {(0, 1)} and counts[0] == counts[1] > 0


@st.composite
def stored_witness_element(draw, A):
    """A valid element over A built with its minimal witness, one too
    large, a false one (none lies below (0, 0): the element is then zero
    and is built with its minimal witness) or none, as (element, its
    minimal witness); tails over the unital algebras lie in the
    nilradical, as in `mixed_window_pair`."""
    elem = st.integers(0, A.field.q - 1)
    vec = st.tuples(*[elem] * A.dim)
    tail = st.tuples(st.just(0), *[elem] * (A.dim - 1)) if A in _UNITAL \
        else vec
    x = draw(st.builds(
        lambda t, exc: CoWittElement(A, t, exc), tail,
        st.dictionaries(st.integers(-2, 0), vec, max_size=3)).filter(
            lambda x: witness_search(x) is not None))
    r, s = w = witness_search(x)
    kind = draw(st.sampled_from(("minimal", "large", "false", "absent")))
    if kind == "large":
        dr, ds = draw(st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(
            any))
        w = (r + dr, s + ds)
    elif kind == "false" and (r, s) != (0, 0):
        # s fails at r, the least r with a valid s, and no s holds below it
        w = (r, s - 1) if s else (r - 1, s)
    elif kind == "absent":
        w = None
    return CoWittElement(A, x.tail, x.exceptions, w), (r, s)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([*_NIL.values(), _MIXED, *_UNITAL]), st.data())
def test_a_stored_witness_changes_nothing(A, data):
    # against elements built with no witness over a cold copy of the
    # algebra, whose memos start empty
    x, wx = data.draw(stored_witness_element(A))
    y, _ = data.draw(stored_witness_element(A))
    cold = copy.deepcopy(A)
    xc, yc = (CoWittElement(cold, e.tail, e.exceptions) for e in (x, y))
    assert x.witness == witness_search(xc) == wx
    assert x == CoWittElement(A, x.tail, x.exceptions)
    for warm, cold_op in ((lambda: x, lambda: xc),
                          (lambda: cw_add(x, y), lambda: cw_add(xc, yc)),
                          (lambda: cw_neg(x), lambda: cw_neg(xc)),
                          (lambda: cw_F(x), lambda: cw_F(xc)),
                          (lambda: cw_V(x), lambda: cw_V(xc))):
        assert (json.dumps(warm().to_json())
                == json.dumps(cold_op().to_json()))


def test_to_json_raises_on_an_element_with_no_witness():
    # a unit tail over pol(F_2) generates the unit ideal, never nilpotent,
    # whatever witness the element is built with
    B = samples.split_polar(F2, 1)
    for witness in ((0, 3), None):
        with pytest.raises(ValueError, match="not a valid co-Witt element"):
            CoWittElement(B, (1,), {}, witness).to_json()


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([*_NIL.values(), _MIXED, *_UNITAL,
                        samples.split_polar(F3, 2)]), st.data())
def test_f_and_v_act_entrywise_and_reject_what_has_no_witness(A, data):
    # F and V check their operand alone: an operand with no witness raises,
    # and a valid one gives a valid result, the p-th power of each entry
    # or the shift of the entries by one index
    vec = st.tuples(*[st.integers(0, A.field.q - 1)] * A.dim)
    x = data.draw(st.builds(
        lambda t, exc, w: CoWittElement(A, t, exc, w), vec,
        st.dictionaries(st.integers(-3, 0), vec, max_size=3),
        st.tuples(st.integers(0, 3), st.integers(0, 3))))
    for op in (cw_F, cw_V):
        if witness_search(x) is None:
            with pytest.raises(ValueError, match="not a valid"):
                op(x)
            continue
        y = op(x)
        assert y.witness is not None
        if op is cw_F:
            assert y.tail == A.ppow(x.tail)
            assert all(y.entry(-i) == A.ppow(x.entry(-i)) for i in range(5))
        else:
            assert all(y.entry(-i) == x.entry(-i - 1) for i in range(5))


# -- the ideal memo against closures from scratch ------------------------------


# built once, so the ideal memo stays warm across examples: an ideal or
# annihilator kept wrongly by one example is read back by a later one
_MEMO_ALGEBRAS = [
    *(samples.trunc_nil_polar(gf_build(*pm), N)
      for pm in ((2, 1), (3, 1), (2, 2), (3, 2)) for N in (3, 4)),
    _MIXED,
    *(polarize(F, samples.unital_poly_table(F, 3)) for F in (F2, F3))]


def _closed_from_scratch(A, gens) -> tuple:
    """The `rref` rows of the ideal generated by gens: the span of gens
    and of every mu(e_key, v), v a row so far, until it stops growing."""
    F = A.field
    basis = [A.basis_vector(i) for i in range(A.dim)]
    outer = list(combinations_with_replacement(basis, A.p - 1))
    rows = rref(F, [tuple(g) for g in gens])[0]
    while True:
        grown = rref(F, rows + [A.mu_p([*key, v]) for key in outer
                                for v in rows])[0]
        if grown == rows:
            return tuple(rows)
        rows = grown


def _nilpotence_from_scratch(A, rows):
    """Least s whose s-fold iterated polar power of the ideal with these
    rows vanishes, or None: each power is closed from the products of p
    rows of the one before; the powers descend, so one still nonzero after
    dim + 1 steps never vanishes."""
    for s in range(A.dim + 2):
        if not rows:
            return s
        rows = _closed_from_scratch(A, [
            A.mu_p(list(vs)) for vs in combinations_with_replacement(rows,
                                                                     A.p)])
    return None


def _witness_from_scratch(A, x):
    for r in range(x.depth() + 2):
        deep = [x.tail, *(v for i, v in x.exceptions.items() if i <= -r)]
        s = _nilpotence_from_scratch(A, _closed_from_scratch(A, deep))
        if s is not None:
            return (r, s)
    return None


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_MEMO_ALGEBRAS), st.data())
def test_memoized_ideals_and_witnesses_match_closures_from_scratch(A, data):
    F = A.field
    ref = copy.deepcopy(A)      # its memos start empty and stay unused
    assert not ref._ideals
    vec = st.tuples(*[st.integers(0, F.q - 1)] * A.dim)
    # generators as tuples, lists and nonzero multiples, zeros mixed in
    gens = data.draw(st.lists(vec, max_size=4))
    forms = []
    for g in gens:
        c = data.draw(st.integers(1, F.q - 1))
        g = combine(F, (c,), (g,)) if any(g) else g
        forms.append(list(g) if data.draw(st.booleans()) else g)
        if data.draw(st.booleans()):
            forms.append(A.zero)
    assert ideal_generated(A, forms).basis == _closed_from_scratch(ref, gens)
    x = CoWittElement(A, data.draw(vec), data.draw(
        st.dictionaries(st.integers(-3, 0), vec, max_size=3)))
    want = _witness_from_scratch(ref, x)
    assert witness_search(x) == want
    assert x.witness == want


# -- the split index against a reference that climbs r ------------------------


F4 = gf_build(2, 2)


def _reference_algebras():
    rng = random.Random(53)
    out = []
    for F in (F2, F3, F4):
        unital = polarize(F, samples.unital_poly_table(F, 3))
        mixed = samples.polar_direct_sum(samples.split_polar(F, 1),
                                         samples.trunc_nil_polar(F, 3))
        out += [samples.trunc_nil_polar(F, 4), unital, mixed,
                samples.scramble(unital, rng), samples.scramble(mixed, rng),
                samples.trivial_polar(F, 2), samples.field_ext_polar(F, 2)]
    return out


# built once, so Nil(A) and its annihilator stay warm across examples
_REFERENCE_ALGEBRAS = _reference_algebras()


def _nilpotence_from_levels(A, rows):
    """Least s with p^s >= T, or None, T the least length 1 + j(p-1) at
    which every product of elements of the ideal with these rows vanishes:
    level j, the span of those products of length 1 + j(p-1), is the span
    of mu of every ordered (p-1)-tuple of rows and a row of level j - 1;
    the levels descend, so one still nonzero after dim + 1 steps never
    vanishes."""
    level = list(rows)
    for j in range(A.dim + 2):
        if not level:
            T, s = 1 + j * (A.p - 1), 0
            while A.p ** s < T:
                s += 1
            return s
        level = rref(A.field, [A.mu_p([*vs, w]) for vs in
                               iproduct(rows, repeat=A.p - 1)
                               for w in level])[0]
    return None


def _witness_from_levels(A, x):
    """The least r whose deep ideal, closed from scratch, is nilpotent,
    with its s, or None."""
    for r in range(x.depth() + 2):
        deep = [x.tail, *(v for i, v in x.exceptions.items() if i <= -r)]
        s = _nilpotence_from_levels(A, _closed_from_scratch(A, deep))
        if s is not None:
            return (r, s)
    return None


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(range(len(_REFERENCE_ALGEBRAS))), st.data())
def test_split_index_and_witness_match_a_reference_climbing_r(k, data):
    # r is read off Nil(A) membership; the reference climbs r, closing
    # each deep ideal and reading its nilpotence off product-length levels
    A = _REFERENCE_ALGEBRAS[k]
    F = A.field
    vec = st.tuples(*[st.integers(0, F.q - 1)] * A.dim)
    nil = ppolar.nilradical(A).basis
    in_nil = st.lists(st.integers(0, F.q - 1), min_size=len(nil),
                      max_size=len(nil)).map(
        lambda cs: combine(F, cs, nil) if nil else A.zero)
    tail = data.draw(vec | in_nil)
    entry = vec | in_nil
    x = CoWittElement(A, tail, data.draw(
        st.dictionaries(st.integers(-3, 0), entry, max_size=4)))
    want = _witness_from_levels(A, x)
    assert witness_search(x) == want
    if want is None:
        with pytest.raises(ValueError, match="not a valid"):
            cowitt._split((x,))
    else:
        assert cowitt._split((x,)) == want[0]
